//! The endpoint-multiplexing scale harness.
//!
//! One real [`Context`] per node — the *lead* context — stands in for
//! thousands of virtual endpoints: every other task on the node is
//! registered as a virtual endpoint aliasing the lead context's reception
//! FIFO and mailbox ([`Machine::register_virtual_endpoint`]), so the send
//! path resolves virtual destinations exactly like real ones while the
//! per-endpoint footprint stays at one endpoint-table slot. A handful of OS
//! workers cooperatively pump their nodes over the synchronous MU fabric
//! (a send deposits into the destination's reception FIFO on the sending
//! thread). A round is: drain each owned context (`advance`), issue the
//! scenario's next send window, then rendezvous on a barrier while worker
//! 0 counts arrivals. The barrier paces the senders against the incast
//! receiver and gives worker 0 a consistent count to stop on.
//!
//! Scenarios:
//! * [`Scenario::Incast`] — every endpoint sends to one hot endpoint
//!   (task 0): production fan-in, the matching/advance stress case.
//! * [`Scenario::AllToAll`] — destinations spread over the whole machine by
//!   a multiplicative hash: the bisection/aggregate-rate case.
//! * Failure-storm ([`failure_storm`]) — a seeded [`FaultPlan`] kills a
//!   slice of links mid-run under background drop noise while eager
//!   traffic runs behind completion counters; the property is *zero silent
//!   loss*: every message either arrives or fails its counter with a typed
//!   [`pami::DeliveryFault`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bgq_torus::{Dir, TorusShape};
use pami::{
    Client, Context, Counter, Endpoint, FaultPlan, Machine, PayloadSource, Recv, SendArgs,
};

/// Dispatch id the harness registers on every lead context.
const DISPATCH: u16 = 7;

/// Virtual endpoints multiplexed onto one node (and thus one lead
/// context). Chosen so 100K endpoints fit in ~49 nodes and 1M in 64 —
/// well inside one host while keeping enough nodes for the torus to have
/// real multi-hop paths.
const ENDPOINTS_PER_NODE_TARGET: usize = 2048;

/// Traffic pattern of a scale run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// N→1: every endpoint sends to task 0.
    Incast,
    /// Hashed all-to-all: destinations spread over every node.
    AllToAll,
}

impl Scenario {
    /// Name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Incast => "incast",
            Scenario::AllToAll => "alltoall",
        }
    }
}

/// Configuration of a scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Virtual endpoints to instantiate (rounded up to fill nodes evenly).
    pub endpoints: usize,
    /// Traffic pattern.
    pub scenario: Scenario,
    /// Messages each endpoint sends over the whole run.
    pub msgs_per_endpoint: u64,
    /// Payload bytes per message (8 = short-tier flood).
    pub payload: usize,
    /// OS worker threads (0 = available parallelism).
    pub workers: usize,
    /// Sends issued per node per scheduling round.
    pub window: usize,
    /// Coalesce small sends per destination ([`pami::AggrConfig`]
    /// defaults): the TRAM-style aggregation arm of the scale curve.
    pub aggregation: bool,
}

impl ScaleConfig {
    /// Defaults for `endpoints` virtual endpoints: short-tier flood, one
    /// message per endpoint at 1M endpoints scaling up to 8 at 10K and
    /// below — total traffic stays bounded while every endpoint stays hot.
    pub fn for_endpoints(endpoints: usize, scenario: Scenario) -> ScaleConfig {
        let msgs_per_endpoint = (400_000 / endpoints.max(1)).clamp(1, 8) as u64;
        ScaleConfig {
            endpoints,
            scenario,
            msgs_per_endpoint,
            payload: 8,
            workers: 0,
            window: 2048,
            aggregation: false,
        }
    }

    /// The same run with per-destination coalescing on.
    pub fn aggregated(mut self) -> ScaleConfig {
        self.aggregation = true;
        self
    }
}

/// What a scale run measured.
#[derive(Debug, Clone)]
pub struct ScaleStats {
    /// Scenario run.
    pub scenario: &'static str,
    /// Virtual endpoints actually instantiated (config rounded up).
    pub endpoints: usize,
    /// Simulated nodes.
    pub nodes: usize,
    /// Virtual endpoints per node.
    pub ppn: usize,
    /// Messages sent / arrived (equal on a clean run).
    pub sent: u64,
    /// Messages dispatched at their destination contexts.
    pub arrived: u64,
    /// Wall-clock seconds of the run loop.
    pub wall_s: f64,
    /// Aggregate wall-clock message rate (arrived / wall_s).
    pub msg_rate: f64,
    /// Advance-latency percentiles over sampled `Context::advance` calls,
    /// nanoseconds.
    pub advance_p50_ns: u64,
    /// p99 of the same samples.
    pub advance_p99_ns: u64,
    /// Sample count behind the percentiles.
    pub advance_samples: usize,
    /// Coalesced frames injected over the run (`aggr.frames`; 0 with
    /// aggregation off or telemetry compiled out).
    pub aggr_frames: u64,
    /// Records that rode those frames (`aggr.batched_msgs`).
    pub aggr_batched: u64,
}

impl ScaleStats {
    /// Mean records per coalesced frame; 0 when no frames were cut.
    pub fn aggr_mean_batch(&self) -> f64 {
        if self.aggr_frames > 0 {
            self.aggr_batched as f64 / self.aggr_frames as f64
        } else {
            0.0
        }
    }
}

/// Per-node counter, cache-line padded: incast makes one of these hot.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// Send-side scheduling state of one node (owned by one worker).
struct NodeState {
    node: u32,
    ctx: Arc<Context>,
    /// Messages this node still has to issue.
    remaining: u64,
    /// Per-node issue counter driving sender/destination rotation.
    issued: u64,
}

/// The co-simulation harness: a real machine, one lead context per node,
/// and every other task registered as a virtual endpoint.
pub struct ScaleHarness {
    cfg: ScaleConfig,
    machine: Arc<Machine>,
    nodes: usize,
    ppn: usize,
    /// Lead clients (kept alive for their contexts), one per node.
    clients: Vec<Arc<Client>>,
    arrived: Arc<Vec<PaddedCounter>>,
}

impl ScaleHarness {
    /// Build the machine, lead contexts, and virtual endpoint table for
    /// `cfg`. Endpoint count is rounded up so nodes are uniformly loaded.
    pub fn new(cfg: ScaleConfig) -> ScaleHarness {
        let nodes = (cfg.endpoints / ENDPOINTS_PER_NODE_TARGET).clamp(2, 64);
        let ppn = cfg.endpoints.div_ceil(nodes);
        let shape = TorusShape::for_nodes(nodes);
        let mut builder = Machine::builder(shape).oversubscribed_ppn(ppn);
        if cfg.aggregation {
            // Node-bucket (TRAM intermediate) mode: with thousands of
            // virtual endpoints per node, per-endpoint buckets would see
            // ~1 record each; bucketing by destination node is what makes
            // frames fill at scale. Records carry their endpoint address
            // and the receiving lead context fans them out.
            builder = builder
                .aggregation(pami::AggrConfig { node_buckets: true, ..Default::default() });
        }
        let machine = builder.build();
        let arrived: Arc<Vec<PaddedCounter>> =
            Arc::new((0..nodes).map(|_| PaddedCounter(AtomicU64::new(0))).collect());
        let mut clients = Vec::with_capacity(nodes);
        for node in 0..nodes as u32 {
            let lead_task = node * ppn as u32;
            let client = Client::create(&machine, lead_task, "scale", 1);
            let ctx = client.context(0);
            let arrived = Arc::clone(&arrived);
            ctx.set_dispatch(
                DISPATCH,
                Arc::new(move |_ctx, _msg, _first| {
                    arrived[node as usize].0.fetch_add(1, Ordering::Relaxed);
                    Recv::Done
                }),
            );
            // Every non-lead task on the node aliases the lead context.
            for task in node * ppn as u32 + 1..(node + 1) * ppn as u32 {
                machine.register_virtual_endpoint(task, 0, ctx);
            }
            clients.push(client);
        }
        ScaleHarness { cfg, machine, nodes, ppn, clients, arrived }
    }

    /// Virtual endpoints instantiated (config rounded up to `nodes × ppn`).
    pub fn endpoints(&self) -> usize {
        self.nodes * self.ppn
    }

    /// The machine under test (for invariants checks).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Destination task for the `issued`-th message of `src_task`.
    fn dest_of(&self, src_task: u32, issued: u64) -> u32 {
        match self.cfg.scenario {
            Scenario::Incast => 0,
            Scenario::AllToAll => {
                let tasks = (self.nodes * self.ppn) as u64;
                // Knuth multiplicative spread: consecutive messages of one
                // sender land on well-separated nodes.
                ((src_task as u64 * 2_654_435_761 + issued * 40_503) % tasks) as u32
            }
        }
    }

    /// Run the scenario to completion; panics if the run stops making
    /// progress (a delivery invariant broke).
    pub fn run(&self) -> ScaleStats {
        let workers = if self.cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.cfg.workers
        }
        .min(self.nodes);
        let per_endpoint = self.cfg.msgs_per_endpoint;
        let total_msgs = (self.endpoints() as u64) * per_endpoint;
        let sent = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        // Monotonic progress counter: any worker that did work this round
        // bumps it; each worker compares against the value it saw last
        // round. Purely a stall diagnostic.
        let progress = AtomicU64::new(0);
        let barrier = Barrier::new(workers);
        let payload = bytes::Bytes::from(vec![0u8; self.cfg.payload]);
        let start = Instant::now();
        let mut all_samples: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let mut owned: Vec<NodeState> = (0..self.nodes)
                    .filter(|n| n % workers == w)
                    .map(|n| NodeState {
                        node: n as u32,
                        ctx: Arc::clone(self.clients[n].context(0)),
                        remaining: self.ppn as u64 * per_endpoint,
                        issued: 0,
                    })
                    .collect();
                let sent = &sent;
                let done = &done;
                let progress = &progress;
                let barrier = &barrier;
                let payload = payload.clone();
                let this = &*self;
                handles.push(s.spawn(move || {
                    let mut samples: Vec<u64> = Vec::with_capacity(4096);
                    let mut advances: u64 = 0;
                    let mut stall_rounds: u32 = 0;
                    let mut progress_seen: u64 = 0;
                    loop {
                        let mut progressed = false;
                        for st in owned.iter_mut() {
                            // Drain the context; sample the advance cost.
                            loop {
                                let sample = advances.is_multiple_of(16);
                                advances += 1;
                                let t0 = sample.then(Instant::now);
                                let events = st.ctx.advance();
                                if let Some(t0) = t0 {
                                    let ns = t0.elapsed().as_nanos() as u64;
                                    if samples.len() < 65_536 {
                                        samples.push(ns);
                                    }
                                }
                                progressed |= events > 0;
                                if events == 0 {
                                    break;
                                }
                            }
                            // Issue this round's send window.
                            let quota = (this.cfg.window as u64).min(st.remaining);
                            for _ in 0..quota {
                                let local = (st.issued % this.ppn as u64) as u32;
                                let src_task = st.node * this.ppn as u32 + local;
                                let dest = this.dest_of(src_task, st.issued / this.ppn as u64);
                                st.ctx
                                    .send(SendArgs {
                                        dest: Endpoint::of_task(dest),
                                        dispatch: DISPATCH,
                                        metadata: Vec::new(),
                                        payload: PayloadSource::Immediate(payload.clone()),
                                        local_done: None,
                                    })
                                    .expect("clean-fabric send initiation");
                                st.issued += 1;
                            }
                            if quota > 0 {
                                st.remaining -= quota;
                                sent.fetch_add(quota, Ordering::Relaxed);
                                progressed = true;
                            }
                            // Aggregated tails: once a node has issued its
                            // whole quota, cut the open buckets so the
                            // drain is not gated on the age bound.
                            if st.remaining == 0 && st.ctx.aggr_pending() > 0 {
                                progressed |= st.ctx.flush_aggr() > 0;
                            }
                        }
                        if progressed {
                            progress.fetch_add(1, Ordering::Relaxed);
                        }
                        barrier.wait();
                        if w == 0 {
                            let arrived: u64 =
                                this.arrived.iter().map(|c| c.0.load(Ordering::Relaxed)).sum();
                            if arrived == total_msgs {
                                done.store(true, Ordering::Release);
                            }
                        }
                        barrier.wait();
                        if done.load(Ordering::Acquire) {
                            return samples;
                        }
                        let cur = progress.load(Ordering::Relaxed);
                        let any_progress = cur != progress_seen;
                        progress_seen = cur;
                        stall_rounds = if any_progress { 0 } else { stall_rounds + 1 };
                        assert!(
                            stall_rounds < 10_000,
                            "scale run stalled: sent={} arrived={}",
                            sent.load(Ordering::Relaxed),
                            this.arrived.iter().map(|c| c.0.load(Ordering::Relaxed)).sum::<u64>(),
                        );
                    }
                }));
            }
            for h in handles {
                all_samples.push(h.join().expect("scale worker"));
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        let arrived: u64 = self.arrived.iter().map(|c| c.0.load(Ordering::Relaxed)).sum();
        let mut samples: Vec<u64> = all_samples.into_iter().flatten().collect();
        samples.sort_unstable();
        let pct = |p: f64| -> u64 {
            if samples.is_empty() {
                0
            } else {
                samples[((samples.len() - 1) as f64 * p) as usize]
            }
        };
        let snap = self.machine.telemetry().snapshot();
        ScaleStats {
            scenario: match (self.cfg.scenario, self.cfg.aggregation) {
                (Scenario::Incast, false) => "incast",
                (Scenario::Incast, true) => "incast_aggr",
                (Scenario::AllToAll, false) => "alltoall",
                (Scenario::AllToAll, true) => "alltoall_aggr",
            },
            endpoints: self.endpoints(),
            nodes: self.nodes,
            ppn: self.ppn,
            sent: sent.load(Ordering::Relaxed),
            arrived,
            wall_s,
            msg_rate: arrived as f64 / wall_s.max(1e-9),
            advance_p50_ns: pct(0.50),
            advance_p99_ns: pct(0.99),
            advance_samples: samples.len(),
            aggr_frames: snap.counter("aggr.frames"),
            aggr_batched: snap.counter("aggr.batched_msgs"),
        }
    }
}

/// Result of a [`failure_storm`] run.
#[derive(Debug, Clone)]
pub struct StormStats {
    /// Messages initiated.
    pub sent: u64,
    /// Messages dispatched at their destinations.
    pub arrived: u64,
    /// Messages whose completion counters failed with a typed fault.
    pub failed: u64,
    /// Link-kill events the fault plan fired.
    pub links_killed: u64,
    /// RTO-driven retransmits the reliability layer performed.
    pub retransmits: u64,
    /// SACK fast retransmits: losses recovered from selective-ack
    /// feedback without waiting out an RTO.
    pub sack_retransmits: u64,
    /// The zero-silent-loss property: every message accounted for.
    pub zero_lost: bool,
}

/// Seeded failure-storm: `endpoints` virtual endpoints over 8 nodes, eager
/// traffic behind completion counters, while the fault plan kills a slice
/// of links mid-run under background drop noise. Single-threaded and
/// deterministic for a given `seed`.
pub fn failure_storm(endpoints: usize, seed: u64) -> StormStats {
    const NODES: usize = 8;
    const PAYLOAD: usize = 256;
    let ppn = endpoints.div_ceil(NODES);
    let shape = TorusShape::for_nodes(NODES);
    // Background drop noise everywhere, plus four links killed mid-run
    // (staggered crossing counts so the kills land while traffic flows).
    let mut plan = FaultPlan::new().seed(seed).drop_rate(0.01);
    for (i, node) in [1u32, 3, 5, 7].into_iter().enumerate() {
        plan = plan.kill_link_at(node, Dir::all()[i % 2], 8 + 6 * i as u64);
    }
    let machine = Machine::builder(shape)
        .oversubscribed_ppn(ppn)
        .fault_plan(plan)
        .build();
    let arrived = Arc::new(AtomicU64::new(0));
    let mut ctxs: Vec<Arc<Context>> = Vec::with_capacity(NODES);
    let mut clients = Vec::with_capacity(NODES);
    for node in 0..NODES as u32 {
        let lead = node * ppn as u32;
        let client = Client::create(&machine, lead, "storm", 1);
        let ctx = Arc::clone(client.context(0));
        let arrived = Arc::clone(&arrived);
        ctx.set_dispatch(
            DISPATCH,
            Arc::new(move |_ctx, _msg, _first| {
                arrived.fetch_add(1, Ordering::Relaxed);
                Recv::Done
            }),
        );
        for task in lead + 1..lead + ppn as u32 {
            machine.register_virtual_endpoint(task, 0, &ctx);
        }
        ctxs.push(ctx);
        clients.push(client);
    }
    // Every endpoint sends one counted eager message to a hashed remote.
    let tasks = (NODES * ppn) as u64;
    let mut counters: Vec<Counter> = Vec::with_capacity(tasks as usize);
    let mut sent = 0u64;
    for node in 0..NODES as u32 {
        let ctx = &ctxs[node as usize];
        for local in 0..ppn as u32 {
            let src = node * ppn as u32 + local;
            // Force a *cross-node* destination: on-node traffic rides the
            // mailbox, which the fault plan cannot touch.
            let mut dest = ((src as u64 * 2_654_435_761 + seed) % tasks) as u32;
            if dest / ppn as u32 == node {
                dest = (dest + ppn as u32) % tasks as u32;
            }
            let done = Counter::new();
            done.add_expected(PAYLOAD as u64);
            ctx.send(SendArgs {
                dest: Endpoint::of_task(dest),
                dispatch: DISPATCH,
                metadata: Vec::new(),
                payload: PayloadSource::Immediate(bytes::Bytes::from(vec![0u8; PAYLOAD])),
                local_done: Some(done.clone()),
            })
            .expect("storm send initiation");
            counters.push(done);
            sent += 1;
            // Interleave pumping so kills land mid-traffic, not after.
            if sent.is_multiple_of(64) {
                storm_pump(&ctxs);
            }
        }
    }
    // Drain: pump until every counter resolves (delivered or failed) and
    // no context has work left. Bounded so a reliability bug fails loudly.
    let mut rounds = 0u32;
    loop {
        let worked = storm_pump(&ctxs);
        let resolved = counters.iter().all(|c| c.is_complete());
        if resolved && !worked {
            break;
        }
        rounds += 1;
        assert!(rounds < 2_000_000, "failure storm failed to drain");
    }
    let failed = counters.iter().filter(|c| c.fault().is_some()).count() as u64;
    let ras = machine.fabric().ras_events().0;
    let links_killed = ras
        .iter()
        .filter(|e| matches!(e.kind, pami::RasEventKind::LinkDown))
        .count() as u64;
    let retransmits =
        ras.iter().filter(|e| matches!(e.kind, pami::RasEventKind::Retransmit)).count() as u64;
    let sack_retransmits = ras
        .iter()
        .filter(|e| matches!(e.kind, pami::RasEventKind::SackRetransmit))
        .count() as u64;
    let arrived = arrived.load(Ordering::Relaxed);
    StormStats {
        sent,
        arrived,
        failed,
        links_killed,
        retransmits,
        sack_retransmits,
        // Nothing vanished: every send is accounted for as an arrival or a
        // typed counter fault. (A frame delivered but unacknowledged when
        // its channel dies legitimately counts on both sides, so the sum
        // can exceed `sent`; silent loss is the sum falling short.)
        zero_lost: arrived + failed >= sent,
    }
}

/// One storm pump round: advance every context once. Returns whether any
/// work happened.
fn storm_pump(ctxs: &[Arc<Context>]) -> bool {
    let mut worked = false;
    for ctx in ctxs {
        worked |= ctx.advance() > 0;
    }
    worked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_completes_and_counts_every_message() {
        let harness = ScaleHarness::new(ScaleConfig {
            endpoints: 4096,
            scenario: Scenario::Incast,
            msgs_per_endpoint: 2,
            payload: 8,
            workers: 2,
            window: 512,
            aggregation: false,
        });
        let stats = harness.run();
        assert_eq!(stats.endpoints, 4096);
        assert_eq!(stats.sent, 8192);
        assert_eq!(stats.arrived, 8192, "every incast message must arrive");
    }

    #[test]
    fn alltoall_completes_across_nodes() {
        let harness = ScaleHarness::new(ScaleConfig {
            endpoints: 4096,
            scenario: Scenario::AllToAll,
            msgs_per_endpoint: 1,
            payload: 8,
            workers: 2,
            window: 512,
            aggregation: false,
        });
        let stats = harness.run();
        assert_eq!(stats.sent, stats.arrived);
        assert!(stats.advance_samples > 0);
    }

    #[test]
    fn aggregated_alltoall_batches_and_loses_nothing() {
        let harness = ScaleHarness::new(
            ScaleConfig {
                endpoints: 4096,
                scenario: Scenario::AllToAll,
                msgs_per_endpoint: 2,
                payload: 8,
                workers: 2,
                window: 512,
                aggregation: false,
            }
            .aggregated(),
        );
        let stats = harness.run();
        assert_eq!(stats.scenario, "alltoall_aggr");
        assert_eq!(stats.sent, stats.arrived, "coalescing must not lose records");
        if bgq_upc::ENABLED {
            assert!(stats.aggr_frames > 0, "the aggregated arm must cut frames");
            assert!(
                stats.aggr_mean_batch() > 1.0,
                "frames must carry more than one record on average: {:.2}",
                stats.aggr_mean_batch(),
            );
        }
    }

    /// The storm's whole history is a function of its seed: every message
    /// arrives, two kills fire, and 1% drop noise costs exactly these
    /// recoveries (4 RTO retransmits, 13 SACK fast retransmits).
    #[test]
    fn failure_storm_loses_nothing() {
        let stats = failure_storm(1024, 0xBADC0FFE);
        assert!(stats.zero_lost, "silent loss: {stats:?}");
        let history = (
            stats.sent,
            stats.arrived,
            stats.failed,
            stats.links_killed,
            stats.retransmits,
            stats.sack_retransmits,
        );
        assert_eq!(history, (1024, 1024, 0, 2, 4, 13), "storm history moved: {stats:?}");
    }
}
