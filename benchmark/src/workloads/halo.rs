//! `halo_mixed` / `halo_lossy` — the dependency-graph workload: a
//! nearest-neighbour halo exchange on a periodic 2×2×2 grid of tasks with
//! mixed face sizes. Each step every task sends 64 B (through the
//! `Context::post` hand-off), 2 KiB and 16 KiB to each of its three
//! neighbours; the step ends when all 72 messages have arrived *and* every
//! sender's local completion has fired. One op is a message; the delivery
//! time is the time of one step. `halo_lossy` is the same program on a
//! fabric that drops and corrupts 1% of packets each.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pami::{
    Client, Context, Counter, Endpoint, FaultPlan, IncomingMsg, Machine, MemRegion, PamiResult,
    PayloadSource, Recv, SendArgs,
};

use super::{advance, secs_since, RoundOut, Stall, Workload};
use crate::gen::{fill_body, header, Pool, HEADER_BYTES, POOL_ENTRIES};
use crate::trace::{self, now_ns, SpanId};

const NODES: usize = 4;
const PPN: usize = 2;
const TASKS: usize = NODES * PPN;
/// Grid dimensions: the neighbour in dimension `d` of task `t` is
/// `t ^ (1 << d)`; dimension 0 stays on the node (shared memory).
const DIMS: usize = 3;
/// Face sizes: short tier, eager (four packets), rendezvous. The large
/// face is 16 KiB, not more, so that a step's buffers (24 lanes of each
/// size, source and destination) stay inside the core's private L2: with
/// 32 KiB faces a step spilled into the shared cache, whose weather is the
/// neighbours', and the run-to-run spread was 5% against 2%.
pub const SIZES: [usize; 3] = [64, 2048, 16 * 1024];
pub const MSGS_PER_STEP: u64 = (TASKS * DIMS * SIZES.len()) as u64;
/// Bytes of local completion each task waits for per step.
const REGION_BYTES_PER_TASK: u64 = (DIMS * (SIZES[1] + SIZES[2])) as u64;
/// Every message's header is checked; the whole body of the large ones on
/// one step in this many (a full compare of 24 × 16 KiB would otherwise be
/// a third of a step).
const FULL_CHECK_EVERY: u64 = 8;

/// One large-message lane: a (sender, receiver, size) triple with its own
/// buffers, so no two messages of a step share memory.
struct Lane {
    src_task: u32,
    len: usize,
    src_region: MemRegion,
    dst_region: MemRegion,
    /// The body the sender's buffer holds (everything after the header).
    reference: Vec<u8>,
    arrived: AtomicU64,
}

/// Index of the lane into `dst` from its neighbour in dimension `d`, of
/// size class `k` (1 or 2).
fn lane_index(dst: usize, d: usize, k: usize) -> usize {
    (dst * DIMS + d) * 2 + (k - 1)
}

fn dim_between(a: u32, b: u32) -> usize {
    (a ^ b).trailing_zeros() as usize
}

struct Shared {
    pool: Pool,
    lanes: Vec<Lane>,
    /// 64 B messages seen per (receiver, dimension).
    small_seen: Vec<AtomicU64>,
    arrivals: AtomicU64,
    bad: AtomicU64,
    scratch: Mutex<Vec<u8>>,
}

impl Shared {
    fn small_arrived(&self, rx: u32, msg: &IncomingMsg, first: &[u8]) {
        let dim = dim_between(rx, msg.src.task);
        let from_neighbour = dim < DIMS && rx ^ msg.src.task == 1 << dim;
        let d = dim.min(DIMS - 1);
        let step = self.small_seen[rx as usize * DIMS + d].fetch_add(1, Ordering::Relaxed);
        let want = step as usize % POOL_ENTRIES;
        if !from_neighbour || first.len() != SIZES[0] || self.pool.identify(first) != Some(want) {
            self.bad.fetch_add(1, Ordering::Relaxed);
        }
        self.arrivals.fetch_add(1, Ordering::Relaxed);
    }

    fn large_arrived(&self, lane: &Lane, result: PamiResult<()>) {
        let step = lane.arrived.fetch_add(1, Ordering::Relaxed);
        let mut head = [0u8; HEADER_BYTES];
        lane.dst_region.read(0, &mut head);
        let mut ok = result.is_ok() && head == header(step, lane.src_task);
        if ok && step.is_multiple_of(FULL_CHECK_EVERY) {
            let mut scratch = self
                .scratch
                .lock()
                .expect("handlers do not panic holding the lock");
            let body = &mut scratch[..lane.len - HEADER_BYTES];
            lane.dst_region.read(HEADER_BYTES, body);
            ok = *body == lane.reference[..];
        }
        if !ok {
            self.bad.fetch_add(1, Ordering::Relaxed);
        }
        self.arrivals.fetch_add(1, Ordering::Relaxed);
    }
}

pub struct Halo {
    machine: Arc<Machine>,
    clients: Vec<Arc<Client>>,
    shared: Arc<Shared>,
    /// Per task, the local-completion counter of its region sends.
    done: Vec<Counter>,
    step: u64,
    samples: Vec<f64>,
    build_s: f64,
}

impl Halo {
    pub fn setup(seed: u64, lossy: bool) -> Halo {
        let t0 = now_ns();
        let mut builder = Machine::with_nodes(NODES).ppn(PPN);
        if lossy {
            builder = builder.fault_plan(
                FaultPlan::new()
                    .seed(seed)
                    .drop_rate(0.01)
                    .corrupt_rate(0.01),
            );
        }
        let machine = builder.build();
        let clients: Vec<_> = (0..TASKS as u32)
            .map(|t| Client::create(&machine, t, "pamibench", 1))
            .collect();
        let build_s = secs_since(t0);

        let mut lanes = Vec::with_capacity(TASKS * DIMS * 2);
        for dst in 0..TASKS {
            for d in 0..DIMS {
                for (k, &len) in SIZES.iter().enumerate().skip(1) {
                    let src = dst ^ (1 << d);
                    let body = fill_body(seed, (src * 64 + d * 8 + k) as u64, len);
                    debug_assert_eq!(lanes.len(), lane_index(dst, d, k));
                    lanes.push(Lane {
                        src_task: src as u32,
                        len,
                        src_region: MemRegion::from_vec(body.clone()),
                        dst_region: MemRegion::zeroed(len),
                        reference: body[HEADER_BYTES..].to_vec(),
                        arrived: AtomicU64::new(0),
                    });
                }
            }
        }
        let shared = Arc::new(Shared {
            pool: Pool::new(seed),
            lanes,
            small_seen: (0..TASKS * DIMS).map(|_| AtomicU64::new(0)).collect(),
            arrivals: AtomicU64::new(0),
            bad: AtomicU64::new(0),
            scratch: Mutex::new(vec![0u8; SIZES[2]]),
        });
        for c in &clients {
            let ctx = c.context(0);
            let sh = Arc::clone(&shared);
            ctx.set_dispatch(
                0,
                Arc::new(move |ctx: &Context, msg: &IncomingMsg, first: &[u8]| {
                    trace::span(SpanId::Handler, || sh.small_arrived(ctx.task(), msg, first));
                    Recv::Done
                }),
            );
            for k in 1..SIZES.len() {
                let sh = Arc::clone(&shared);
                ctx.set_dispatch(
                    k as u16,
                    Arc::new(move |ctx: &Context, msg: &IncomingMsg, _first: &[u8]| {
                        trace::span(SpanId::Handler, || {
                            let d = dim_between(ctx.task(), msg.src.task).min(DIMS - 1);
                            let index = lane_index(ctx.task() as usize, d, k);
                            let sh = Arc::clone(&sh);
                            Recv::Into {
                                region: sh.lanes[index].dst_region.clone(),
                                offset: 0,
                                on_complete: Box::new(move |_, result| {
                                    trace::span(SpanId::Handler, || {
                                        sh.large_arrived(&sh.lanes[index], result)
                                    })
                                }),
                            }
                        })
                    }),
                );
            }
        }
        Halo {
            machine,
            clients,
            shared,
            done: (0..TASKS).map(|_| Counter::new()).collect(),
            step: 0,
            samples: Vec::with_capacity(1 << 14),
            build_s,
        }
    }

    /// Initiate one task's nine sends of this step.
    fn initiate(&self, t: usize) {
        let ctx = self.clients[t].context(0);
        let head = header(self.step, t as u32);
        self.done[t].add_expected(REGION_BYTES_PER_TASK);
        for d in 0..DIMS {
            let peer = t ^ (1 << d);
            let dest = Endpoint::of_task(peer as u32);
            let payload = self
                .shared
                .pool
                .entry(self.step as usize % POOL_ENTRIES, SIZES[0]);
            let sh = Arc::clone(&self.shared);
            trace::span(SpanId::Post, || {
                ctx.post(Box::new(move |ctx| {
                    let sent = trace::span(SpanId::Send, || {
                        ctx.send(SendArgs {
                            dest,
                            dispatch: 0,
                            metadata: Vec::new(),
                            payload: PayloadSource::Immediate(payload),
                            local_done: None,
                        })
                    });
                    if sent.is_err() {
                        sh.bad.fetch_add(1, Ordering::Relaxed);
                        sh.arrivals.fetch_add(1, Ordering::Relaxed);
                    }
                }))
            });
            for k in 1..SIZES.len() {
                let lane = &self.shared.lanes[lane_index(peer, d, k)];
                lane.src_region.write(0, &head);
                let sent = trace::span(SpanId::Send, || {
                    ctx.send(SendArgs {
                        dest,
                        dispatch: k as u16,
                        metadata: Vec::new(),
                        payload: PayloadSource::Region {
                            region: lane.src_region.clone(),
                            offset: 0,
                            len: lane.len,
                        },
                        local_done: Some(self.done[t].clone()),
                    })
                });
                if sent.is_err() {
                    // Keep the step's bookkeeping whole: the message counts
                    // as arrived-and-failed, its completion as delivered.
                    self.shared.bad.fetch_add(1, Ordering::Relaxed);
                    self.shared.arrivals.fetch_add(1, Ordering::Relaxed);
                    self.done[t].delivered(lane.len as u64);
                }
            }
        }
    }

    /// Sweep every context until the step's messages have all arrived and
    /// every local completion has fired. `false`: progress stopped first.
    fn complete_step(&self) -> bool {
        let want = (self.step + 1) * MSGS_PER_STEP;
        let mut stall = Stall::new();
        loop {
            let n: usize = self.clients.iter().map(|c| advance(c.context(0))).sum();
            if self.shared.arrivals.load(Ordering::Relaxed) >= want
                && self.done.iter().all(Counter::is_complete)
            {
                return true;
            }
            if stall.gave_up(n > 0) {
                return false;
            }
        }
    }
}

impl Workload for Halo {
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
            for t in 0..TASKS {
                self.initiate(t);
            }
            let finished = self.complete_step();
            if self.samples.len() < self.samples.capacity() {
                self.samples.push((now_ns() - t0) as f64);
            }
            // A transfer the reliability layer gave up on leaves its typed
            // fault on the counter for good: count it, start a fresh one.
            for done in &mut self.done {
                if done.fault().is_some() {
                    out.failed += 1;
                    *done = Counter::new();
                }
            }
            if !finished {
                // Progress stopped: this step and the rest of the round
                // fail. Write the step off so the next round starts clean;
                // anything of it that still turns up is a surplus then.
                out.failed += (units - i) * MSGS_PER_STEP;
                self.step += 1;
                self.shared
                    .arrivals
                    .store(self.step * MSGS_PER_STEP, Ordering::Relaxed);
                self.done = (0..TASKS).map(|_| Counter::new()).collect();
                break;
            }
            self.step += 1;
            out.ops += MSGS_PER_STEP;
        }
        let bad = self.shared.bad.swap(0, Ordering::Relaxed);
        out.ops -= bad.min(out.ops);
        out.failed += bad;
        out
    }

    fn contexts(&self) -> Vec<&Arc<Context>> {
        self.clients.iter().map(|c| c.context(0)).collect()
    }

    fn miscounted(&mut self) -> u64 {
        let want = self.step * MSGS_PER_STEP;
        let surplus = self.shared.arrivals.load(Ordering::Relaxed).abs_diff(want);
        self.shared.arrivals.store(want, Ordering::Relaxed);
        surplus + self.shared.bad.swap(0, Ordering::Relaxed)
    }

    fn drain_samples(&mut self, into: &mut Vec<f64>) {
        into.append(&mut self.samples);
    }
}
