//! Measurement harnesses for the paper's tables and figures.
//!
//! Every experiment has up to two modes:
//!
//! * **measured** — runs the functional PAMI/MPI stack of this workspace on
//!   a host-scaled configuration (a few nodes, a few processes) and
//!   reports real wall-clock numbers. Software-structure effects (PAMI vs
//!   MPI overhead, eager vs rendezvous copies, lock disciplines) show up
//!   here. On a single-core host, effects that need hardware parallelism
//!   (commthread speedups) do not.
//! * **modeled** — evaluates the `bgq-netsim` timing models at the paper's
//!   scale (2048 nodes, 32 ppn, ten links), reproducing the shape of every
//!   curve.
//!
//! The `repro` binary prints both, labeled, next to the paper's numbers.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pami::{Client, Context, Endpoint, Machine, MemRegion, PayloadSource, Recv, SendArgs};
use pami_mpi::{LibFlavor, Mpi, MpiConfig, ThreadLevel, ANY_SOURCE};

/// Format a seconds value as microseconds with two decimals.
pub fn us(t: f64) -> String {
    format!("{:.2}us", t * 1e6)
}

/// Format a bytes/second value as MB/s (decimal, like the paper).
pub fn mbs(bw: f64) -> String {
    format!("{:.0}MB/s", bw / 1e6)
}

/// Format a messages/second value as millions of messages per second.
pub fn mmps(rate: f64) -> String {
    format!("{:.2}MMPS", rate / 1e6)
}

// ---------------------------------------------------------------------------
// Table 1 (measured): PAMI half round trip
// ---------------------------------------------------------------------------

/// Functional PAMI ping-pong between two nodes, driven from one thread for
/// reproducible timing. Returns the average half-round-trip time.
pub fn measure_pami_half_rtt(immediate: bool, payload: usize, iters: u32) -> Duration {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "bench", 1);
    let c1 = Client::create(&machine, 1, "bench", 1);
    let pings = Arc::new(AtomicU64::new(0));
    let pongs = Arc::new(AtomicU64::new(0));
    let count = |cell: &Arc<AtomicU64>| {
        let cell = Arc::clone(cell);
        let f: pami::context::DispatchFn = Arc::new(move |_: &Context, msg, first| {
            assert_eq!(first.len() as u64, msg.len);
            cell.fetch_add(1, Ordering::Relaxed);
            Recv::Done
        });
        f
    };
    c1.context(0).set_dispatch(1, count(&pings));
    c0.context(0).set_dispatch(1, count(&pongs));
    let data = vec![0u8; payload];

    let send = |ctx: &Arc<Context>, dest: u32| {
        if immediate {
            ctx.send_immediate(Endpoint::of_task(dest), 1, b"", &data).unwrap();
        } else {
            ctx.send(SendArgs {
                dest: Endpoint::of_task(dest),
                dispatch: 1,
                metadata: Vec::new(),
                payload: PayloadSource::Immediate(bytes::Bytes::copy_from_slice(&data)),
                local_done: None,
            }).unwrap();
        }
    };

    let run_iters = |iters: u64, timed: bool| -> Duration {
        let base_ping = pings.load(Ordering::Relaxed);
        let base_pong = pongs.load(Ordering::Relaxed);
        let start = Instant::now();
        for i in 1..=iters {
            send(c0.context(0), 1);
            while pings.load(Ordering::Relaxed) < base_ping + i {
                c0.context(0).advance();
                c1.context(0).advance();
            }
            send(c1.context(0), 0);
            while pongs.load(Ordering::Relaxed) < base_pong + i {
                c1.context(0).advance();
                c0.context(0).advance();
            }
        }
        if timed { start.elapsed() } else { Duration::ZERO }
    };
    run_iters(100, false);
    run_iters(iters as u64, true) / (2 * iters)
}

// ---------------------------------------------------------------------------
// Table 2 (measured): MPI half round trip per configuration
// ---------------------------------------------------------------------------

/// A Table 2 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Row {
    /// Thread-optimized (vs classic) library.
    pub thread_optimized: bool,
    /// MPI_THREAD_MULTIPLE (vs SINGLE).
    pub thread_multiple: bool,
    /// Commthreads enabled.
    pub commthreads: bool,
}

impl Table2Row {
    /// Human-readable row label.
    pub fn label(&self) -> String {
        format!(
            "{:<11} / {:<15} / commthread {}",
            if self.thread_optimized { "Thread Opt." } else { "Classic" },
            if self.thread_multiple { "Thread Multiple" } else { "Thread Single" },
            if self.commthreads { "enabled" } else { "disabled" },
        )
    }

    fn config(&self) -> MpiConfig {
        MpiConfig {
            flavor: if self.thread_optimized {
                LibFlavor::ThreadOptimized
            } else {
                LibFlavor::Classic
            },
            thread_level: if self.thread_multiple {
                ThreadLevel::Multiple
            } else {
                ThreadLevel::Single
            },
            contexts: 1,
            commthreads: Some(usize::from(self.commthreads)),
        }
    }
}

/// Functional MPI ping-pong (8-byte payload) for a Table 2 configuration;
/// both ranks driven from the calling thread.
pub fn measure_mpi_half_rtt(row: Table2Row, iters: u32) -> Duration {
    let machine = Machine::with_nodes(2).build();
    let mpi0 = Mpi::init(&machine, 0, row.config());
    let mpi1 = Mpi::init(&machine, 1, row.config());
    let w0 = mpi0.world().clone();
    let w1 = mpi1.world().clone();
    let buf0 = MemRegion::zeroed(8);
    let buf1 = MemRegion::zeroed(8);

    let round = |timed: bool| -> Duration {
        let start = Instant::now();
        let r1 = mpi1.irecv(&buf1, 0, 8, 0, 1, &w1);
        let s0 = mpi0.isend(&buf0, 0, 8, 1, 1, &w0);
        while !mpi1.request_complete(r1) {
            mpi0.advance();
            mpi1.advance();
        }
        mpi1.test(r1);
        mpi0.wait(s0);
        let r0 = mpi0.irecv(&buf0, 0, 8, 1, 2, &w0);
        let s1 = mpi1.isend(&buf1, 0, 8, 0, 2, &w1);
        while !mpi0.request_complete(r0) {
            mpi1.advance();
            mpi0.advance();
        }
        mpi0.test(r0);
        mpi1.wait(s1);
        if timed { start.elapsed() } else { Duration::ZERO }
    };
    for _ in 0..50 {
        round(false);
    }
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        total += round(true);
    }
    total / (2 * iters)
}

// ---------------------------------------------------------------------------
// Figure 5 (measured): message rate
// ---------------------------------------------------------------------------

/// Which functional message-rate series to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasuredRateSeries {
    /// Raw PAMI sends, counted at the receiver.
    Pami,
    /// MPI isend/irecv with explicit source ranks.
    MpiNamed,
    /// MPI with ANY_SOURCE receives.
    MpiWildcard,
}

/// Host-scaled message-rate benchmark: `ppn` sender ranks on node 0 flood
/// paired receiver ranks on node 1 with `msgs` 8-byte messages each
/// (receives pre-posted, Sequoia-style). All ranks are driven round-robin
/// by this thread; the result is messages per second of wall time.
pub fn measure_message_rate(series: MeasuredRateSeries, ppn: usize, msgs: usize) -> f64 {
    let machine = Machine::with_nodes(2).ppn(ppn).build();
    match series {
        MeasuredRateSeries::Pami => {
            let clients: Vec<Arc<Client>> =
                (0..2 * ppn).map(|t| Client::create(&machine, t as u32, "rate", 1)).collect();
            let got = Arc::new(AtomicU64::new(0));
            for c in &clients[ppn..] {
                let got = Arc::clone(&got);
                c.context(0).set_dispatch(
                    1,
                    Arc::new(move |_: &Context, _msg, _first| {
                        got.fetch_add(1, Ordering::Relaxed);
                        Recv::Done
                    }),
                );
            }
            let start = Instant::now();
            for i in 0..msgs {
                for (s, sender) in clients[..ppn].iter().enumerate() {
                    sender.context(0).send(SendArgs {
                        dest: Endpoint::of_task((ppn + s) as u32),
                        dispatch: 1,
                        metadata: Vec::new(),
                        payload: PayloadSource::Immediate(bytes::Bytes::from_static(&[0u8; 8])),
                        local_done: None,
                    }).unwrap();
                }
                if i % 16 == 0 {
                    for c in &clients {
                        c.context(0).advance();
                    }
                }
            }
            while got.load(Ordering::Relaxed) < (msgs * ppn) as u64 {
                for c in &clients {
                    c.context(0).advance();
                }
            }
            (msgs * ppn) as f64 / start.elapsed().as_secs_f64()
        }
        MeasuredRateSeries::MpiNamed | MeasuredRateSeries::MpiWildcard => {
            let wildcard = series == MeasuredRateSeries::MpiWildcard;
            let ranks: Vec<Mpi> = (0..2 * ppn)
                .map(|t| Mpi::init(&machine, t as u32, MpiConfig::default()))
                .collect();
            let bufs: Vec<MemRegion> =
                (0..2 * ppn).map(|_| MemRegion::zeroed(8 * msgs)).collect();
            // Pre-post all receives (the paper adds a barrier "to eliminate
            // unexpected messages").
            let mut reqs: Vec<Vec<pami_mpi::Request>> = Vec::new();
            for r in 0..ppn {
                let mpi = &ranks[ppn + r];
                let world = mpi.world().clone();
                let src = if wildcard { ANY_SOURCE } else { r as i32 };
                reqs.push(
                    (0..msgs)
                        .map(|i| mpi.irecv(&bufs[ppn + r], i * 8, 8, src, i as i32, &world))
                        .collect(),
                );
            }
            let start = Instant::now();
            let mut send_reqs = Vec::new();
            for (s, rank) in ranks.iter().take(ppn).enumerate() {
                let world = rank.world().clone();
                for i in 0..msgs {
                    send_reqs.push((s, rank.isend(&bufs[s], i * 8, 8, ppn + s, i as i32, &world)));
                }
            }
            loop {
                let mut done = true;
                for (r, rs) in reqs.iter().enumerate() {
                    let mpi = &ranks[ppn + r];
                    mpi.advance();
                    if rs.iter().any(|req| !mpi.request_complete(*req)) {
                        done = false;
                    }
                }
                for rank in ranks.iter().take(ppn) {
                    rank.advance();
                }
                if done {
                    break;
                }
            }
            let rate = (msgs * ppn) as f64 / start.elapsed().as_secs_f64();
            for (s, req) in send_reqs {
                ranks[s].wait(req);
            }
            rate
        }
    }
}

// ---------------------------------------------------------------------------
// pamistat: a whole-stack telemetry sample
// ---------------------------------------------------------------------------

/// Run a small whole-stack workload on one machine and return its
/// (`telemetry.json`, chrome-trace JSON, RAS-event JSONL) triple — the
/// `pamistat` report.
///
/// The workload deliberately crosses every instrumented layer so the
/// report has non-zero counters from each: MU fabric traffic (`mu.*`,
/// including rendezvous RDMA), context advance/sends (`ctx.*`), MPI
/// matching with pre-posted, unexpected, and wildcard receives
/// (`match.*`), hardware collectives with per-phase timing (`coll.*`),
/// a commthread pool servicing posted work (`commthread.*`), and — on a
/// fault-injected side machine that shares the same UPC registry — the
/// reliability layer (`ras.*`: retransmits, SACK retransmits, CRC
/// errors, reorder depth). The side machine's RAS event ring is drained
/// into the third string (one JSON object per line, oldest first) so a
/// chaos run is diagnosable from the telemetry artifacts alone.
///
/// With the `telemetry` feature off the first two strings are valid but
/// empty reports (the probes compile to no-ops); the RAS ring is
/// feature-independent and stays populated.
pub fn pamistat_sample() -> (String, String, String) {
    use pami::coll::names;
    use pami::CommThreadPool;

    let machine = Machine::with_nodes(2).ppn(2).build();
    machine.run(|env| {
        let mpi = Mpi::init(&env.machine, env.task, MpiConfig::default());
        env.machine.task_barrier();
        let world = mpi.world().clone();
        let me = world.rank();
        let n = world.size();
        world.optimize().expect("world is rectangular");

        // Pre-posted ring exchange, large enough for rendezvous RDMA
        // (64 KiB > the 4 KiB eager limit).
        const LEN: usize = 64 * 1024;
        let rbuf = MemRegion::zeroed(LEN);
        let sbuf = MemRegion::from_vec(vec![me as u8; LEN]);
        let from = (me + n - 1) % n;
        let to = (me + 1) % n;
        let r = mpi.irecv(&rbuf, 0, LEN, from as i32, 7, &world);
        mpi.barrier(&world);
        let s = mpi.isend(&sbuf, 0, LEN, to, 7, &world);
        mpi.wait(r);
        mpi.wait(s);

        // Unexpected + wildcard traffic: everyone fires at rank 0 before
        // it posts, then rank 0 drains with ANY_SOURCE/ANY_TAG.
        if me != 0 {
            mpi.send(&sbuf, 0, 8, 0, 100 + me as i32, &world);
        }
        mpi.barrier(&world);
        if me == 0 {
            for _ in 0..n - 1 {
                let b = MemRegion::zeroed(8);
                mpi.recv(&b, 0, 8, ANY_SOURCE, pami_mpi::ANY_TAG, &world);
            }
        }

        // Collectives over the classroute: barrier, allreduce (parallel
        // local combine + pipelined network), broadcast.
        mpi.barrier(&world);
        let src = MemRegion::zeroed(1024);
        let dst = MemRegion::zeroed(1024);
        mpi.allreduce_named(
            names::HW_ALLREDUCE,
            (&src, 0),
            (&dst, 0),
            128,
            pami::CollOp::Sum,
            pami::DataType::Float64,
            &world,
        );
        mpi.bcast_named(names::HW_BCAST, &src, 0, 1024, 0, &world);
        mpi.barrier(&world);
    });

    // Commthread segment: a pool services posted work items on the same
    // machine (parks in the wakeup unit, wakes, runs the handoffs).
    let client = Client::create(&machine, 0, "stat", 1);
    let ran = Arc::new(AtomicU64::new(0));
    let pool = CommThreadPool::spawn(vec![Arc::clone(client.context(0))], 1);
    for _ in 0..8 {
        let ran = Arc::clone(&ran);
        client.context(0).post(Box::new(move |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        }));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while ran.load(Ordering::Relaxed) < 8 {
        assert!(Instant::now() < deadline, "commthread made no progress");
        std::thread::yield_now();
    }
    pool.shutdown();

    // Reliability segment: a hostile 1%+1% flood on a side machine that
    // shares the main sample's UPC registry, so the `ras.*` counters in
    // the report are non-zero and the RAS event ring has real entries.
    // Fixed seed — the sample is a deterministic fixture, not a soak.
    let ras_lines = {
        let plan = pami::FaultPlan::new()
            .seed(4242)
            .drop_rate(0.01)
            .corrupt_rate(0.01)
            .retry(pami::RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 64 });
        let chaos = Machine::with_nodes(2)
            .telemetry(machine.telemetry().clone())
            .fault_plan(plan)
            .build();
        let sender = Client::create(&chaos, 0, "stat-chaos", 1);
        let receiver = Client::create(&chaos, 1, "stat-chaos", 1);
        let got = Arc::new(AtomicU64::new(0));
        {
            let got = Arc::clone(&got);
            receiver.context(0).set_dispatch(
                1,
                Arc::new(move |_: &Context, _msg, _first| {
                    got.fetch_add(1, Ordering::Relaxed);
                    Recv::Done
                }),
            );
        }
        const CHAOS_MSGS: u64 = 2_000;
        for i in 0..CHAOS_MSGS {
            sender
                .context(0)
                .send(SendArgs {
                    dest: Endpoint::of_task(1),
                    dispatch: 1,
                    metadata: Vec::new(),
                    payload: PayloadSource::Immediate(bytes::Bytes::from_static(&[0u8; 8])),
                    local_done: None,
                })
                .unwrap();
            if i % 16 == 0 {
                sender.context(0).advance();
                receiver.context(0).advance();
            }
        }
        while got.load(Ordering::Relaxed) < CHAOS_MSGS {
            sender.context(0).advance();
            receiver.context(0).advance();
        }
        let (events, overflowed) = chaos.fabric().ras_events();
        let mut out = String::with_capacity(events.len() * 96 + 64);
        for e in &events {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{{\"tick\": {}, \"kind\": \"{}\", \"src_node\": {}, \"dst_node\": {}, \"detail\": {}}}",
                e.tick,
                e.kind.as_str(),
                e.src_node,
                e.dst_node,
                e.detail,
            );
        }
        use std::fmt::Write as _;
        let _ = writeln!(out, "{{\"ring_overflowed\": {overflowed}}}");
        out
    };

    // Aggregation segment: a fine-grained random-target flood on a
    // coalescing-enabled side machine sharing the same UPC registry, so the
    // `aggr.*` counters (batched records, frames, flush causes, unbatch)
    // and `ctx.sends_aggr` are non-zero in the report.
    {
        let aggr_machine = Machine::with_nodes(4)
            .telemetry(machine.telemetry().clone())
            .aggregation(pami::AggrConfig::default())
            .build();
        let sender = Client::create(&aggr_machine, 0, "stat-aggr", 1);
        let receivers: Vec<_> =
            (1..4).map(|t| Client::create(&aggr_machine, t, "stat-aggr", 1)).collect();
        let got = Arc::new(AtomicU64::new(0));
        for r in &receivers {
            let got = Arc::clone(&got);
            r.context(0).set_dispatch(
                1,
                Arc::new(move |_: &Context, _msg, _first| {
                    got.fetch_add(1, Ordering::Relaxed);
                    Recv::Done
                }),
            );
        }
        const AGGR_MSGS: u64 = 384;
        let ctx = sender.context(0);
        for i in 0..AGGR_MSGS {
            ctx.send(SendArgs {
                dest: Endpoint::of_task(1 + (i % 3) as u32),
                dispatch: 1,
                metadata: Vec::new(),
                payload: PayloadSource::Immediate(bytes::Bytes::from_static(&[7u8; 24])),
                local_done: None,
            })
            .unwrap();
        }
        ctx.flush_aggr();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.load(Ordering::Relaxed) < AGGR_MSGS {
            assert!(Instant::now() < deadline, "aggregation sample made no progress");
            ctx.advance();
            for r in &receivers {
                r.context(0).advance();
            }
        }
    }

    let upc = machine.telemetry();
    (upc.report_json(), upc.chrome_trace_json(), ras_lines)
}

// ---------------------------------------------------------------------------
// Table 3 (measured): neighbor throughput
// ---------------------------------------------------------------------------

/// Functional bidirectional neighbor exchange: the reference task 0
/// exchanges `size`-byte messages with `k` neighbor tasks (each on its own
/// node); returns aggregate send+receive bytes per second at the
/// reference. `eager` selects the protocol by moving the eager limit.
pub fn measure_neighbor_throughput(k: usize, size: usize, eager: bool, reps: usize) -> f64 {
    let nodes = (k + 1).max(2);
    let machine = Machine::with_nodes(nodes)
        .eager_limit(if eager { usize::MAX / 2 } else { 1024 })
        .build();
    let ranks: Vec<Mpi> =
        (0..nodes).map(|t| Mpi::init(&machine, t as u32, MpiConfig::default())).collect();
    let world = ranks[0].world().clone();
    let send_buf: Vec<MemRegion> = (0..nodes).map(|_| MemRegion::zeroed(size)).collect();
    let recv_buf: Vec<MemRegion> = (0..nodes).map(|_| MemRegion::zeroed(size)).collect();

    let start = Instant::now();
    for rep in 0..reps {
        let tag = rep as i32;
        let mut reqs = Vec::new();
        for n in 1..=k {
            reqs.push((0, ranks[0].irecv(&recv_buf[0], 0, size, n as i32, tag, &world)));
            reqs.push((0, ranks[0].isend(&send_buf[0], 0, size, n, tag, &world)));
            let wn = ranks[n].world().clone();
            reqs.push((n, ranks[n].irecv(&recv_buf[n], 0, size, 0, tag, &wn)));
            reqs.push((n, ranks[n].isend(&send_buf[n], 0, size, 0, tag, &wn)));
        }
        loop {
            let mut done = true;
            for (owner, req) in &reqs {
                if !ranks[*owner].request_complete(*req) {
                    done = false;
                }
            }
            for r in ranks.iter().take(k + 1) {
                r.advance();
            }
            if done {
                break;
            }
        }
        for (owner, req) in reqs {
            ranks[owner].wait(req);
        }
    }
    (2 * k * size * reps) as f64 / start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Figures 6–10 (measured): collective latency/throughput at host scale
// ---------------------------------------------------------------------------

/// Which collective to measure functionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollBench {
    /// `MPI_Barrier` (Figure 6).
    Barrier,
    /// Single-double `MPI_Allreduce` (Figure 7); hardware path if true.
    AllreduceLatency { hw: bool },
    /// `size`-byte `MPI_Allreduce` (Figure 8).
    AllreduceBandwidth { size: usize, hw: bool },
    /// `size`-byte `MPI_Bcast` over the collective network (Figure 9).
    Broadcast { size: usize, hw: bool },
    /// `size`-byte 10-color rectangle broadcast (Figure 10).
    RectBroadcast { size: usize },
}

/// Run `rounds` iterations of a collective over `nodes`×`ppn` functional
/// ranks (one thread each) and return rank 0's average time per operation.
pub fn measure_collective(nodes: usize, ppn: usize, rounds: usize, which: CollBench) -> Duration {
    use pami::coll::names;
    let machine = Machine::with_nodes(nodes).ppn(ppn).build();
    let result = Arc::new(parking_lot::Mutex::new(Duration::ZERO));
    let result2 = Arc::clone(&result);
    machine.run(move |env| {
        let mpi = Mpi::init(&env.machine, env.task, MpiConfig::default());
        env.machine.task_barrier();
        let world = mpi.world().clone();
        let hw = match which {
            CollBench::AllreduceLatency { hw }
            | CollBench::AllreduceBandwidth { hw, .. }
            | CollBench::Broadcast { hw, .. } => hw,
            _ => true,
        };
        if hw {
            world.optimize().expect("world is rectangular");
        }
        let (allreduce, bcast) = if hw {
            (names::HW_ALLREDUCE, names::HW_BCAST)
        } else {
            (names::SW_ALLREDUCE, names::SW_BCAST)
        };
        let size = match which {
            CollBench::Barrier => 8,
            CollBench::AllreduceLatency { .. } => 8,
            CollBench::AllreduceBandwidth { size, .. }
            | CollBench::Broadcast { size, .. }
            | CollBench::RectBroadcast { size } => size,
        };
        let src = MemRegion::zeroed(size);
        let dst = MemRegion::zeroed(size);
        // Warm + synchronize.
        mpi.barrier(&world);
        let start = Instant::now();
        for _ in 0..rounds {
            match which {
                CollBench::Barrier => mpi.barrier(&world),
                CollBench::AllreduceLatency { .. } => mpi.allreduce_named(
                    allreduce,
                    (&src, 0),
                    (&dst, 0),
                    1,
                    pami::CollOp::Sum,
                    pami::DataType::Float64,
                    &world,
                ),
                CollBench::AllreduceBandwidth { size, .. } => mpi.allreduce_named(
                    allreduce,
                    (&src, 0),
                    (&dst, 0),
                    size / 8,
                    pami::CollOp::Sum,
                    pami::DataType::Float64,
                    &world,
                ),
                CollBench::Broadcast { size, .. } => {
                    mpi.bcast_named(bcast, &src, 0, size, 0, &world)
                }
                CollBench::RectBroadcast { size } => mpi.bcast_rect(&src, 0, size, 0, &world),
            }
        }
        let elapsed = start.elapsed() / rounds as u32;
        if world.rank() == 0 {
            *result2.lock() = elapsed;
        }
        mpi.barrier(&world);
    });
    let out = *result.lock();
    out
}

// ---------------------------------------------------------------------------
// telemetry.json parsing (pamistat show / diff)
// ---------------------------------------------------------------------------

/// A parsed `telemetry.json` report (the output of
/// `bgq_upc::Snapshot::report_json`). The format is line-oriented and
/// produced by this workspace only, so the parser is deliberately small:
/// no external JSON dependency.
pub mod report {
    /// Histogram summary row as serialized into `telemetry.json`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Hist {
        pub count: u64,
        pub sum: u64,
        pub p50: u64,
        pub p99: u64,
        pub max: u64,
    }

    /// Parsed report: counters and histogram summaries, in file order.
    #[derive(Debug, Clone, Default)]
    pub struct Report {
        pub counters: Vec<(String, u64)>,
        pub histograms: Vec<(String, Hist)>,
    }

    impl Report {
        /// Counter value by exact name (0 if absent).
        pub fn counter(&self, name: &str) -> u64 {
            self.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        }

        /// Histogram summary by exact name.
        pub fn histogram(&self, name: &str) -> Option<Hist> {
            self.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| *h)
        }
    }

    fn quoted_name(line: &str) -> Option<&str> {
        let start = line.find('"')? + 1;
        let end = start + line[start..].find('"')?;
        Some(&line[start..end])
    }

    fn field_u64(line: &str, key: &str) -> u64 {
        let pat = format!("\"{key}\": ");
        let Some(pos) = line.find(&pat) else { return 0 };
        line[pos + pat.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap_or(0)
    }

    /// Parse a `telemetry.json` string. Lines that do not look like
    /// entries (braces, section headers) are skipped, so the parser is
    /// robust to the exact indentation the reporter emits.
    pub fn parse(text: &str) -> Report {
        #[derive(PartialEq)]
        enum Section {
            None,
            Counters,
            Histograms,
        }
        let mut section = Section::None;
        let mut out = Report::default();
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with("\"counters\"") {
                section = Section::Counters;
                continue;
            }
            if t.starts_with("\"histograms\"") {
                section = Section::Histograms;
                continue;
            }
            let Some(name) = quoted_name(t) else { continue };
            match section {
                Section::Counters => {
                    let Some(colon) = t.find(':') else { continue };
                    let value: String = t[colon + 1..]
                        .trim()
                        .chars()
                        .take_while(|c| c.is_ascii_digit())
                        .collect();
                    if let Ok(v) = value.parse() {
                        out.counters.push((name.to_string(), v));
                    }
                }
                Section::Histograms => {
                    out.histograms.push((
                        name.to_string(),
                        Hist {
                            count: field_u64(t, "count"),
                            sum: field_u64(t, "sum"),
                            p50: field_u64(t, "p50"),
                            p99: field_u64(t, "p99"),
                            max: field_u64(t, "max"),
                        },
                    ));
                }
                Section::None => {}
            }
        }
        out
    }
}

/// Functional barrier timing through a named registry entry (the
/// GI-vs-collective-network ablation).
pub fn measure_barrier_alg(nodes: usize, rounds: usize, alg: &'static str) -> Duration {
    use pami::{Client, Geometry, Topology};
    let machine = Machine::with_nodes(nodes).build();
    let result = Arc::new(parking_lot::Mutex::new(Duration::ZERO));
    let r2 = Arc::clone(&result);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "bar", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = Geometry::create(ctx, 1, Topology::world(env.machine.num_tasks() as u32));
        geom.optimize().expect("world rectangular");
        pami::coll::barrier(&geom, ctx);
        let start = Instant::now();
        for _ in 0..rounds {
            pami::coll::barrier_named(&geom, ctx, alg);
        }
        if env.task == 0 {
            *r2.lock() = start.elapsed() / rounds as u32;
        }
        pami::coll::barrier(&geom, ctx);
    });
    let out = *result.lock();
    out
}

// ---------------------------------------------------------------------------
// Chaos harness: the nightly soak's two programs — a flood and a
// kill-a-node drill over a fault-injected fabric.

/// What one chaos flood measured.
pub struct ChaosStats {
    /// Messages per second of wall time.
    pub rate: f64,
    /// `ras.retransmits` after the run (0 when telemetry is compiled out).
    pub retransmits: u64,
    /// `ras.crc_errors` after the run.
    pub crc_errors: u64,
    /// Messages that broke the stream's contract — dispatched out of send
    /// order, more than once, with another message's bytes, or failed with
    /// a delivery fault. The contract is 0.
    pub violations: u64,
}

/// Message `i` of the chaos stream is `CHAOS_SIZES[i % 3]` bytes: an 8 B
/// short-tier send, a 2 KiB eager send of four frames from a region under
/// a local completion counter, and a 16 KiB rendezvous whose put-back is
/// 32 frames — so under a lossy plan messages are split between frames
/// that cross at once and frames that queue.
const CHAOS_SIZES: [usize; 3] = [8, 2048, 16 * 1024];

/// Chaos-stream messages in flight at once (bounds the buffers).
const CHAOS_WINDOW: u64 = 64;

/// Single-context flood 0 → 1 of the mixed chaos stream over a machine
/// with `plan` installed. Every message carries its sequence number in its
/// first and last eight bytes, and the receiver checks it against the
/// order in which messages were dispatched, so a duplicate, an overtake or
/// a tail from another message is a violation. A lost message keeps the
/// loop from ending, which the soak's wall-clock bound reports. The loop
/// ends when every message has arrived and the region sends' local
/// completion has fired (or failed); the returned RAS counters record how
/// hostile the plan actually was.
pub fn measure_chaos_rate(plan: pami::FaultPlan, msgs: usize) -> ChaosStats {
    let machine = Machine::with_nodes(2).fault_plan(plan).build();
    let sender = Client::create(&machine, 0, "chaos", 1);
    let receiver = Client::create(&machine, 1, "chaos", 1);
    let [dispatched, arrived, violations] = [0; 3].map(|_| Arc::new(AtomicU64::new(0)));
    {
        let (dispatched, arrived, violations) =
            (Arc::clone(&dispatched), Arc::clone(&arrived), Arc::clone(&violations));
        receiver.context(0).set_dispatch(
            1,
            Arc::new(move |_: &Context, msg, first| {
                let seq = dispatched.fetch_add(1, Ordering::Relaxed);
                let len = CHAOS_SIZES[seq as usize % CHAOS_SIZES.len()];
                let (arrived, violations) = (Arc::clone(&arrived), Arc::clone(&violations));
                // One arrival of message `seq`: its bytes, and whether its
                // delivery succeeded.
                let check = move |bytes: &[u8], delivered: bool| {
                    let mark = seq.to_le_bytes();
                    let ok = delivered && bytes.len() == len;
                    let ok = ok && bytes[..8] == mark && bytes[len - 8..] == mark;
                    violations.fetch_add(!ok as u64, Ordering::Relaxed);
                    arrived.fetch_add(1, Ordering::Relaxed);
                };
                if first.len() as u64 == msg.len {
                    check(first, true);
                    return Recv::Done;
                }
                let region = MemRegion::zeroed(msg.len as usize);
                let sink = region.clone();
                let on_complete = move |_: &Context, result: pami::PamiResult<()>| {
                    check(&sink.to_vec(), result.is_ok())
                };
                Recv::Into { region, offset: 0, on_complete: Box::new(on_complete) }
            }),
        );
    }
    let advance = || {
        sender.context(0).advance();
        receiver.context(0).advance();
    };
    // The local completion of every region send.
    let done = pami::Counter::new();
    let start = Instant::now();
    for i in 0..msgs {
        while i as u64 >= arrived.load(Ordering::Relaxed) + CHAOS_WINDOW && done.fault().is_none()
        {
            advance();
        }
        let len = CHAOS_SIZES[i % CHAOS_SIZES.len()];
        let mut body = vec![0u8; len];
        body[..8].copy_from_slice(&(i as u64).to_le_bytes());
        body.copy_within(..8, len - 8);
        let (payload, local_done) = if len == CHAOS_SIZES[0] {
            (PayloadSource::Immediate(body.into()), None)
        } else {
            done.add_expected(len as u64);
            let region = MemRegion::from_vec(body);
            (PayloadSource::Region { region, offset: 0, len }, Some(done.clone()))
        };
        let dest = Endpoint::of_task(1);
        let args = SendArgs { dest, dispatch: 1, metadata: Vec::new(), payload, local_done };
        sender.context(0).send(args).unwrap();
        if i % 16 == 0 {
            advance();
        }
    }
    while (arrived.load(Ordering::Relaxed) < msgs as u64 || !done.is_complete())
        && done.fault().is_none()
    {
        advance();
    }
    let rate = msgs as f64 / start.elapsed().as_secs_f64();
    // A duplicate would turn up in these sweeps.
    for _ in 0..64 {
        advance();
    }
    let surplus = dispatched.load(Ordering::Relaxed).saturating_sub(msgs as u64);
    let ras = machine.fabric().ras_counters();
    ChaosStats {
        rate,
        retransmits: ras.retransmits.value(),
        crc_errors: ras.crc_errors.value(),
        violations: violations.load(Ordering::Relaxed) + surplus + done.fault().is_some() as u64,
    }
}

/// What the kill-a-node failover drill observed.
pub struct FailoverStats {
    /// Messages delivered at the primary before its node was cut off.
    pub pre_kill: u64,
    /// Messages drained to the standby after the kill.
    pub drained: u64,
    /// `Unreachable` delivery faults the sender absorbed while the
    /// failover was firing (each one is a resend, not a loss).
    pub unreachable_faults: u64,
    /// Sends that failed with any other fault. The contract is 0.
    pub other_faults: u64,
    /// Messages never delivered anywhere. The failover contract is 0.
    pub lost: u64,
    /// `Machine::resolve_task(1)` after the drill: the standby, 2.
    pub resolved_task: u32,
    /// `Machine::failover_generation(1)` after the drill: above 0.
    pub failover_generation: u64,
    /// Whether the RAS ring holds the `Unreachable` delivery failure that
    /// triggered the failover.
    pub ras_unreachable: bool,
    /// Whether the pre-kill channel step (`0xA0`) reached the primary.
    pub primary_step: bool,
    /// Whether the persistent channel followed the failover: the post into
    /// the dead channel failed, `renegotiate` re-targeted it at the
    /// standby, and the standby received both replayed steps (`0xA1`,
    /// `0xA2`) intact and in order.
    pub channel_replayed: bool,
}

/// Kill-a-node failover drill: flood task 1, cut node 1 off mid-stream,
/// and verify traffic drains to the registered standby (task 2) with zero
/// lost messages.
///
/// Three nodes, one task each. Task 0 sends `msgs` 64-byte messages one at
/// a time (each with a completion counter, so an `Unreachable` fault is
/// observed per message and answered with a resend). Halfway through, node
/// 1 loses every link — its own plus the last hop of each inbound route.
/// The first post-kill send dies `Unreachable`; the RAS observer fires the
/// machine-level failover and the resend lands on the standby. A
/// persistent channel rides along: one step delivered to the primary
/// pre-kill, then a post into the dead channel (which must fail), a
/// `renegotiate()` that follows the failover, and two replayed steps the
/// standby must receive.
///
/// Returns what it observed instead of asserting: the soak archives a
/// failing seed, the `cargo test` drill asserts every field.
///
/// `plan` must be a fault plan, which is what makes links killable and
/// `Unreachable` faults reportable: a clean one (no rates — reliability
/// on, no injected loss) for the `cargo test` drill, a seeded lossy one
/// for the nightly soak, where the failover must fire *while*
/// retransmission is already absorbing drops and corruption.
pub fn measure_failover_drain(msgs: usize, plan: pami::FaultPlan) -> FailoverStats {
    use pami::{Counter, DeliveryFault};

    const DISPATCH: u16 = 9;
    const SLOT: usize = 32;
    let pre = (msgs / 2).max(1) as u64;
    let post = (msgs as u64 - pre).max(1);
    let shape = bgq_torus::TorusShape::for_nodes(3);
    let machine = Machine::builder(shape).fault_plan(plan).build();
    machine.register_standby(1, 2);
    let cell = || Arc::new(AtomicU64::new(0));
    let (arrived1, arrived2, faults, other_faults, lost) = (cell(), cell(), cell(), cell(), cell());
    // What the persistent channel did, one bit per fact.
    const PRIMARY_GOT_STEP: u64 = 1;
    const FOLLOWED_FAILOVER: u64 = 2;
    const STANDBY_GOT_REPLAY: u64 = 4;
    let channel = cell();
    // 1: primary consumed the channel step; 2: links are dead (standby may
    // open its channel); 3: standby consumed the replay; 4: sender done,
    // receivers may stop advancing.
    let stage = cell();
    let (a1, a2, f2, o2, l2, c2, st) = (
        Arc::clone(&arrived1),
        Arc::clone(&arrived2),
        Arc::clone(&faults),
        Arc::clone(&other_faults),
        Arc::clone(&lost),
        Arc::clone(&channel),
        Arc::clone(&stage),
    );
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "failover", 1);
        let ctx = client.context(0);
        let counted = |cell: &Arc<AtomicU64>| {
            let cell = Arc::clone(cell);
            let f: pami::context::DispatchFn = Arc::new(move |_: &Context, _, _| {
                cell.fetch_add(1, Ordering::SeqCst);
                Recv::Done
            });
            f
        };
        match env.task {
            1 => ctx.set_dispatch(DISPATCH, counted(&a1)),
            2 => ctx.set_dispatch(DISPATCH, counted(&a2)),
            _ => {}
        }
        env.machine.task_barrier();
        let send_one = || {
            let done = Counter::new();
            done.add_expected(64);
            ctx.send(SendArgs {
                dest: Endpoint::of_task(1),
                dispatch: DISPATCH,
                metadata: Vec::new(),
                payload: PayloadSource::Immediate(bytes::Bytes::from_static(&[0u8; 64])),
                local_done: Some(done.clone()),
            })
            .unwrap();
            ctx.advance_until(|| done.is_complete());
            done
        };
        match env.task {
            0 => {
                let mut ch = ctx.channel(Endpoint::of_task(1), SLOT).unwrap();
                for _ in 0..pre {
                    if !send_one().is_ok() {
                        l2.fetch_add(1, Ordering::SeqCst);
                    }
                }
                ch.post(&[0xA0; SLOT]).unwrap();
                ctx.advance_until(|| st.load(Ordering::SeqCst) >= 1);
                // Cut node 1 off: its own links plus the last hop of every
                // inbound route.
                let fab = env.machine.fabric();
                for dir in bgq_torus::Dir::all() {
                    fab.kill_link(1, dir);
                }
                let c1 = shape.coords_of(1);
                fab.kill_link(0, bgq_torus::det_route(shape, shape.coords_of(0), c1)[0]);
                fab.kill_link(2, bgq_torus::det_route(shape, shape.coords_of(2), c1)[0]);
                // Drain the rest, resending on fault; the retry bound
                // converts a failover that never fires into lost counts
                // instead of a hang.
                for _ in 0..post {
                    let mut delivered = false;
                    for _ in 0..8 {
                        let done = send_one();
                        if done.is_ok() {
                            delivered = true;
                            break;
                        }
                        let kind = match done.fault() {
                            Some(DeliveryFault::Unreachable) => &f2,
                            _ => &o2,
                        };
                        kind.fetch_add(1, Ordering::SeqCst);
                    }
                    if !delivered {
                        l2.fetch_add(1, Ordering::SeqCst);
                    }
                }
                // Channel replay: the post into the dead channel must
                // fail, the renegotiated channel must reach the standby.
                // (If renegotiation itself fails the standby's side hangs
                // in its handshake — the soak bounds the whole drill with
                // a wall clock, so that surfaces as a failure, not a
                // wedged run.)
                let dead_post_failed = ch.post(&[0xA1; SLOT]).is_err();
                st.store(2, Ordering::SeqCst);
                if ch.renegotiate().is_ok() && ch.peer().task == 2 {
                    ch.post(&[0xA1; SLOT]).unwrap();
                    ch.post(&[0xA2; SLOT]).unwrap();
                    if dead_post_failed {
                        c2.fetch_or(FOLLOWED_FAILOVER, Ordering::SeqCst);
                    }
                    // Dropping the channel destroys the window the standby
                    // is about to bind against: hold it until the standby
                    // has consumed the replay.
                    ctx.advance_until(|| st.load(Ordering::SeqCst) >= 3);
                }
                st.store(4, Ordering::SeqCst);
            }
            1 => {
                let mut ch = ctx.channel(Endpoint::of_task(0), SLOT).unwrap();
                let mut buf = [0u8; SLOT];
                if ch.wait(&mut buf).is_ok() && buf == [0xA0; SLOT] {
                    c2.fetch_or(PRIMARY_GOT_STEP, Ordering::SeqCst);
                }
                st.store(1, Ordering::SeqCst);
                ctx.advance_until(|| st.load(Ordering::SeqCst) >= 4);
            }
            2 => {
                ctx.advance_until(|| st.load(Ordering::SeqCst) >= 2);
                let mut ch = ctx.channel(Endpoint::of_task(0), SLOT).unwrap();
                let mut buf = [0u8; SLOT];
                let mut step = |want: u8| ch.wait(&mut buf).is_ok() && buf == [want; SLOT];
                if step(0xA1) && step(0xA2) {
                    c2.fetch_or(STANDBY_GOT_REPLAY, Ordering::SeqCst);
                }
                st.store(3, Ordering::SeqCst);
                ctx.advance_until(|| st.load(Ordering::SeqCst) >= 4);
            }
            _ => unreachable!(),
        }
    });
    let delivered1 = arrived1.load(Ordering::SeqCst);
    let delivered2 = arrived2.load(Ordering::SeqCst);
    let channel = channel.load(Ordering::SeqCst);
    let (events, _) = machine.fabric().ras_events();
    FailoverStats {
        pre_kill: delivered1,
        drained: delivered2,
        unreachable_faults: faults.load(Ordering::SeqCst),
        other_faults: other_faults.load(Ordering::SeqCst),
        lost: lost.load(Ordering::SeqCst) + (pre + post).saturating_sub(delivered1 + delivered2),
        resolved_task: machine.resolve_task(1),
        failover_generation: machine.failover_generation(1),
        ras_unreachable: events.iter().any(|e| {
            matches!(e.kind, pami::RasEventKind::DeliveryFailure)
                && e.detail == DeliveryFault::Unreachable as u64
        }),
        primary_step: channel & PRIMARY_GOT_STEP != 0,
        channel_replayed: channel & FOLLOWED_FAILOVER != 0 && channel & STANDBY_GOT_REPLAY != 0,
    }
}
