//! `flood_short` and `scatter_aggr` — task 0 sprays small `send`s at its
//! peers, every context advanced every 16 sends. One op is a message
//! dispatched.
//!
//! * `flood_short` (the paper's Figure 5): 2 nodes, 8 B to the one peer —
//!   the short path used for rate.
//! * `scatter_aggr` (TRAM-style coalescing): 8 nodes with aggregation on,
//!   16–64 B to a seeded random one of 7 peers, `flush_aggr` at round end.

use std::sync::Arc;

use pami::{AggrConfig, Client, Context, Endpoint, Machine, PayloadSource, SendArgs};

use super::{advance, secs_since, RoundOut, SentTally, Sink, Stall, Workload, DISPATCH};
use crate::gen::{Pool, SprayStream, POOL_ENTRIES};
use crate::trace::{self, now_ns, SpanId};

/// Sends between advance sweeps — fixed by the driver, so delivery time in
/// a flood moves only when the library changes what a send or an advance
/// costs, or holds messages back.
const ADVANCE_EVERY: u64 = 16;

/// What tells the two workloads apart.
pub struct Shape {
    pub nodes: u32,
    pub aggregation: bool,
    /// Payload lengths drawn uniformly from this inclusive range.
    pub len: (usize, usize),
}

pub const FLOOD: Shape = Shape {
    nodes: 2,
    aggregation: false,
    len: (8, 8),
};
pub const SCATTER: Shape = Shape {
    nodes: 8,
    aggregation: true,
    len: (16, 64),
};

pub struct Spray {
    machine: Arc<Machine>,
    clients: Vec<Arc<Client>>,
    aggregation: bool,
    sink: Arc<Sink>,
    stream: SprayStream,
    sent: SentTally,
    next: usize,
    build_s: f64,
}

impl Spray {
    pub fn setup(seed: u64, shape: &Shape) -> Spray {
        let t0 = now_ns();
        let mut builder = Machine::with_nodes(shape.nodes as usize);
        if shape.aggregation {
            builder = builder.aggregation(AggrConfig::default());
        }
        let machine = builder.build();
        let clients: Vec<_> = (0..shape.nodes)
            .map(|t| Client::create(&machine, t, "pamibench", 1))
            .collect();
        let build_s = secs_since(t0);
        let sink = Sink::new(Pool::new(seed), shape.nodes as usize);
        for c in &clients[1..] {
            c.context(0).set_dispatch(DISPATCH, sink.handler());
        }
        Spray {
            machine,
            clients,
            aggregation: shape.aggregation,
            sink,
            stream: SprayStream::new(seed, shape.nodes - 1, shape.len),
            sent: SentTally::default(),
            next: 0,
            build_s,
        }
    }
}

impl Workload for Spray {
    fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn contexts(&self) -> Vec<&Arc<Context>> {
        self.clients.iter().map(|c| c.context(0)).collect()
    }

    fn round(&mut self, units: u64) -> RoundOut {
        let ctxs: Vec<&Arc<Context>> = self.clients.iter().map(|c| c.context(0)).collect();
        let tx = ctxs[0];
        let mut out = RoundOut::default();
        for i in 0..units {
            let op = self.stream.next().expect("the stream is endless");
            let j = self.next;
            self.next = (j + 1) % POOL_ENTRIES;
            trace::set_op(self.sent.count);
            self.sink.about_to_send(j);
            let payload = PayloadSource::Immediate(self.sink.pool().entry(j, op.len));
            let dest = Endpoint::of_task(op.dest);
            let sent = trace::span(SpanId::Send, || {
                tx.send(SendArgs {
                    dest,
                    dispatch: DISPATCH,
                    metadata: Vec::new(),
                    payload,
                    local_done: None,
                })
            });
            match sent {
                Ok(()) => self.sent.note(j),
                Err(_) => out.failed += 1,
            }
            if i % ADVANCE_EVERY == ADVANCE_EVERY - 1 {
                for c in &ctxs {
                    advance(c);
                }
            }
        }
        if self.aggregation {
            trace::span(SpanId::FlushAggr, || tx.flush_aggr());
        }
        let mut stall = Stall::new();
        while self.sink.got() < self.sent.count {
            let n: usize = ctxs.iter().map(|c| advance(c)).sum();
            if stall.gave_up(n > 0) {
                break;
            }
        }
        let bad = self.sink.take_bad() + self.sent.reconcile(&self.sink);
        out.ops = (units - out.failed).saturating_sub(bad);
        out.failed += bad;
        out
    }

    fn miscounted(&mut self) -> u64 {
        self.sent.reconcile(&self.sink) + self.sink.take_bad()
    }

    fn drain_samples(&mut self, into: &mut Vec<f64>) {
        self.sink.drain_samples(into);
    }
}
