//! `mpi_exchange` — the paper's Table 2 / the MPI series of Figure 5: four
//! ranks (2 nodes × 2) exchange 16 × 64 B messages with every peer each
//! step. Half the receives are posted before the sends (every fourth with
//! `ANY_SOURCE`), the other half after one advance sweep, so they find
//! their messages in the unexpected queue. One op is a message matched; the
//! delivery time is the time of one step.

use std::sync::Arc;

use pami::{Context, Machine, MemRegion};
use pami_mpi::{Mpi, MpiConfig, Request, ANY_SOURCE};

use super::{secs_since, RoundOut, Stall, Workload};
use crate::gen::{fill_body, header, HEADER_BYTES};
use crate::trace::{self, now_ns, SpanId};

const NODES: usize = 2;
const PPN: usize = 2;
const RANKS: usize = NODES * PPN;
const PEERS: usize = RANKS - 1;
pub const MSG_BYTES: usize = 64;
/// Messages per (sender, receiver) pair per step; the first half find a
/// posted receive, the second half are unexpected. Sixteen, not the
/// thirty-two the workload started with: with 768 requests live per step a
/// machine in four ran 20–30% slower than its siblings for as long as it
/// lived (hash seeds, heap layout), how many of a run's machines did
/// changed from run to run, and run medians lay 5.5% apart where at 384
/// requests they lay 2.1% apart (`NOISE.md`).
const PER_PEER: usize = 16;
const PREPOSTED: usize = PER_PEER / 2;
const PER_RANK: usize = PEERS * PER_PEER;
pub const MSGS_PER_STEP: u64 = (RANKS * PER_RANK) as u64;

struct Rank {
    mpi: Mpi,
    /// `PER_RANK` outgoing messages, slot `(peer index, k)`.
    send_buf: MemRegion,
    recv_buf: MemRegion,
    /// What `recv_buf` must hold after a step, but for the headers.
    expect: Vec<u8>,
    reqs: Vec<Request>,
}

/// The `i`-th peer of `rank` (every rank but itself, ascending).
fn peer_of(rank: usize, i: usize) -> usize {
    if i < rank {
        i
    } else {
        i + 1
    }
}

fn slot(peer_idx: usize, k: usize) -> usize {
    (peer_idx * PER_PEER + k) * MSG_BYTES
}

/// A tag names the sender and the message's index, so a receive — even an
/// `ANY_SOURCE` one — can match exactly one message of a step.
fn tag(src: usize, k: usize) -> i32 {
    (src * PER_PEER + k) as i32
}

pub struct MpiExchange {
    machine: Arc<Machine>,
    ranks: Vec<Rank>,
    step: u64,
    samples: Vec<f64>,
    scratch: Vec<u8>,
    build_s: f64,
}

impl MpiExchange {
    pub fn setup(seed: u64) -> MpiExchange {
        let t0 = now_ns();
        let machine = Machine::with_nodes(NODES).ppn(PPN).build();
        let mpis: Vec<Mpi> = (0..RANKS as u32)
            .map(|t| Mpi::init(&machine, t, MpiConfig::default()))
            .collect();
        let build_s = secs_since(t0);
        // Message (src → dst, k) carries the body seeded by (src, dst, k).
        let body = |src: usize, dst: usize, k: usize| {
            fill_body(seed, ((src * RANKS + dst) * PER_PEER + k) as u64, MSG_BYTES)
        };
        let ranks = mpis
            .into_iter()
            .enumerate()
            .map(|(r, mpi)| {
                let mut send = vec![0u8; PER_RANK * MSG_BYTES];
                let mut expect = vec![0u8; PER_RANK * MSG_BYTES];
                for i in 0..PEERS {
                    let p = peer_of(r, i);
                    for k in 0..PER_PEER {
                        send[slot(i, k)..][..MSG_BYTES].copy_from_slice(&body(r, p, k));
                        expect[slot(i, k)..][..MSG_BYTES].copy_from_slice(&body(p, r, k));
                    }
                }
                Rank {
                    mpi,
                    send_buf: MemRegion::from_vec(send),
                    recv_buf: MemRegion::zeroed(PER_RANK * MSG_BYTES),
                    expect,
                    reqs: Vec::with_capacity(2 * PER_RANK),
                }
            })
            .collect();
        MpiExchange {
            machine,
            ranks,
            step: 0,
            samples: Vec::with_capacity(1 << 14),
            scratch: vec![0u8; PER_RANK * MSG_BYTES],
            build_s,
        }
    }

    /// Post `rank`'s receives `ks` from every peer.
    fn post_receives(rank: &mut Rank, r: usize, ks: std::ops::Range<usize>) {
        for i in 0..PEERS {
            let p = peer_of(r, i);
            for k in ks.clone() {
                let src = if k % 4 == 3 { ANY_SOURCE } else { p as i32 };
                let world = rank.mpi.world();
                let req = trace::span(SpanId::MpiIrecv, || {
                    rank.mpi
                        .irecv(&rank.recv_buf, slot(i, k), MSG_BYTES, src, tag(p, k), world)
                });
                rank.reqs.push(req);
            }
        }
    }

    fn sweep(&self) -> usize {
        self.ranks
            .iter()
            .map(|r| trace::span(SpanId::MpiAdvance, || r.mpi.advance()))
            .sum()
    }

    /// One step; returns the number of messages that failed their check,
    /// or `None` if progress stopped.
    fn step(&mut self) -> Option<u64> {
        let step = self.step;
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            Self::post_receives(rank, r, 0..PREPOSTED);
        }
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            let head = header(step, r as u32);
            for i in 0..PEERS {
                let p = peer_of(r, i);
                for k in 0..PER_PEER {
                    rank.send_buf.write(slot(i, k), &head);
                    let world = rank.mpi.world();
                    let req = trace::span(SpanId::MpiIsend, || {
                        rank.mpi
                            .isend(&rank.send_buf, slot(i, k), MSG_BYTES, p, tag(r, k), world)
                    });
                    rank.reqs.push(req);
                }
            }
        }
        self.sweep();
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            Self::post_receives(rank, r, PREPOSTED..PER_PEER);
        }
        let mut stall = Stall::new();
        while !self
            .ranks
            .iter()
            .all(|rank| rank.reqs.iter().all(|&q| rank.mpi.request_complete(q)))
        {
            if stall.gave_up(self.sweep() > 0) {
                return None;
            }
        }
        let mut bad = 0;
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            for req in rank.reqs.drain(..) {
                // Releases the request; every one is complete by now.
                trace::span(SpanId::MpiTest, || rank.mpi.test(req));
            }
            rank.recv_buf.read(0, &mut self.scratch);
            for i in 0..PEERS {
                let head = header(step, peer_of(r, i) as u32);
                for k in 0..PER_PEER {
                    let at = slot(i, k);
                    let got = &self.scratch[at..at + MSG_BYTES];
                    let want = &rank.expect[at..at + MSG_BYTES];
                    if got[..HEADER_BYTES] != head || got[HEADER_BYTES..] != want[HEADER_BYTES..] {
                        bad += 1;
                    }
                }
            }
        }
        Some(bad)
    }
}

impl Workload for MpiExchange {
    fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn round(&mut self, units: u64) -> RoundOut {
        let mut out = RoundOut::default();
        for i in 0..units {
            trace::set_op(self.step);
            let t0 = now_ns();
            let bad = self.step();
            if self.samples.len() < self.samples.capacity() {
                self.samples.push((now_ns() - t0) as f64);
            }
            self.step += 1;
            match bad {
                Some(bad) => {
                    out.ops += MSGS_PER_STEP - bad;
                    out.failed += bad;
                }
                None => {
                    // Requests that never completed stay pending in the
                    // library; nothing later in this round can be trusted.
                    out.failed += (units - i) * MSGS_PER_STEP;
                    break;
                }
            }
        }
        out
    }

    fn contexts(&self) -> Vec<&Arc<Context>> {
        self.ranks
            .iter()
            .flat_map(|r| r.mpi.client().contexts())
            .collect()
    }

    fn miscounted(&mut self) -> u64 {
        // Every receive has been checked against its tag inside the round;
        // a duplicate would sit in the unexpected queue, where the next
        // step's receives (same tags) would match it and fail their check.
        0
    }

    fn drain_samples(&mut self, into: &mut Vec<f64>) {
        into.append(&mut self.samples);
    }
}
