//! Harnesses behind the tool binaries: `repro`'s formatters, `pamistat`'s
//! whole-stack sample and its report parser, and the chaos flood.
//!
//! `repro` prints every paper table and figure from the `bgq-netsim`
//! timing models at the paper's scale (2048 nodes, 32 ppn, ten links) and
//! reads no clock; rates and latencies with a stated noise are
//! `pamibench`'s.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pami::{Client, Context, Endpoint, Machine, MemRegion, PayloadSource, Recv, SendArgs};
use pami_mpi::{Mpi, MpiConfig, ANY_SOURCE};

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
