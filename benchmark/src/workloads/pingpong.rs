//! `pingpong_short` — the paper's Table 1: 32 B ping via `send_immediate`,
//! pong via `send`, one message in flight. One op is a half round trip.

use std::sync::Arc;

use pami::{Client, Context, Endpoint, Machine, PayloadSource, SendArgs};

use super::{advance, secs_since, RoundOut, SentTally, Sink, Stall, Workload, DISPATCH};
use crate::gen::{Pool, POOL_ENTRIES};
use crate::trace::{self, now_ns, SpanId};

const PING_BYTES: usize = 32;

pub struct PingPong {
    machine: Arc<Machine>,
    clients: [Arc<Client>; 2],
    sink: Arc<Sink>,
    sent: SentTally,
    next: usize,
    ops: u64,
    build_s: f64,
}

enum Trip {
    Done,
    /// The send call returned a typed error.
    Refused,
    /// The message was accepted and never arrived.
    Lost,
}

impl PingPong {
    pub fn setup(seed: u64) -> PingPong {
        let t0 = now_ns();
        let machine = Machine::with_nodes(2).build();
        let clients = [0, 1].map(|t| Client::create(&machine, t, "pamibench", 1));
        let build_s = secs_since(t0);
        let sink = Sink::new(Pool::new(seed), 2);
        for c in &clients {
            c.context(0).set_dispatch(DISPATCH, sink.handler());
        }
        PingPong {
            machine,
            clients,
            sink,
            sent: SentTally::default(),
            next: 0,
            ops: 0,
            build_s,
        }
    }

    /// Send entry `j` from task `from` to the other task and advance until
    /// its handler has run.
    #[inline]
    fn half_trip(&mut self, from: usize, j: usize) -> Trip {
        let (tx, rx) = (
            self.clients[from].context(0),
            self.clients[1 - from].context(0),
        );
        let dest = Endpoint::of_task(1 - from as u32);
        trace::set_op(self.ops);
        self.ops += 1;
        self.sink.about_to_send(j);
        let sent = if from == 0 {
            let bytes = self.sink.pool().entry_slice(j, PING_BYTES);
            trace::span(SpanId::SendImmediate, || {
                tx.send_immediate(dest, DISPATCH, &[], bytes)
            })
        } else {
            let payload = PayloadSource::Immediate(self.sink.pool().entry(j, PING_BYTES));
            trace::span(SpanId::Send, || {
                tx.send(SendArgs {
                    dest,
                    dispatch: DISPATCH,
                    metadata: Vec::new(),
                    payload,
                    local_done: None,
                })
            })
        };
        if sent.is_err() {
            return Trip::Refused;
        }
        self.sent.note(j);
        let want = self.sent.count;
        let mut stall = Stall::new();
        loop {
            let n = advance(rx);
            if self.sink.got() >= want {
                return Trip::Done;
            }
            if stall.gave_up(n + advance(tx) > 0) {
                return Trip::Lost;
            }
        }
    }
}

impl Workload for PingPong {
    fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn round(&mut self, units: u64) -> RoundOut {
        let mut out = RoundOut::default();
        for i in 0..units {
            // Whose turn it is carries over from round to round.
            let from = (self.ops % 2) as usize;
            let j = self.next;
            // The pong echoes the ping's entry; the next ping moves on.
            if from == 1 {
                self.next = (j + 1) % POOL_ENTRIES;
            }
            match self.half_trip(from, j) {
                Trip::Done => out.ops += 1,
                Trip::Refused => out.failed += 1,
                // Nothing later can complete either: fail the rest.
                Trip::Lost => {
                    out.failed += units - i;
                    break;
                }
            }
        }
        let bad = self.sink.take_bad();
        out.ops -= bad.min(out.ops);
        out.failed += bad;
        out
    }

    fn contexts(&self) -> Vec<&Arc<Context>> {
        self.clients.iter().map(|c| c.context(0)).collect()
    }

    fn miscounted(&mut self) -> u64 {
        self.sent.reconcile(&self.sink) + self.sink.take_bad()
    }

    fn drain_samples(&mut self, into: &mut Vec<f64>) {
        self.sink.drain_samples(into);
    }
}
