//! Hot-spot bench: N nodes hammering one fetch-add counter, with and
//! without the in-network combining overlay.
//!
//! Emits `BENCH_hotspot.json` in the repo root with, per node count:
//!
//! * packets applied at the root window's node (`comb.root_applies` for
//!   the overlay; one per request for the control) — the paper-level
//!   claim: N requesters collapse to O(rounds) root packets instead of
//!   N·K, so the root-packet curve is ~flat vs linear,
//! * the **root-bound rmw rate**: a hot spot serializes on the root's
//!   reception pipeline, so throughput is `ops / (root_packets ×
//!   ROOT_PKT_NS)` — the simulation counts the packets, the model charges
//!   each one the MU's per-packet service time. This is the gated metric:
//!   it is deterministic (packet counts don't depend on host scheduling),
//!   where host wall-clock on an oversubscribed CI box is a scheduler
//!   lottery (this sweep runs up to 64 task threads; CI may have 1 core).
//! * the host wall-clock rate of the requesters' inject→last-reply span,
//!   reported for reference only,
//!
//! plus a chaos arm proving exactly-once rmw under a seeded drop+corrupt
//! plan (combined packets that retransmit must not double-apply).
//!
//! Every run also *verifies* the work: the hot word must equal the total
//! operand sum and the returned priors must form a permutation of
//! `0..total` (linearizability), so a bench run doubles as a stress test.
//!
//! ## Gate
//!
//! The rate ratio at the largest point is enforced on every run (exit 1):
//! combined ≥ [`MIN_RATIO`] × uncombined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pami::{
    Client, Counter, FaultPlan, Machine, MemKey, MemRegion, MemSlot, RmwArgs, RmwOp, WindowRef,
};

/// Hot-spot gate: combined vs uncombined root-bound rate at the largest
/// point.
const MIN_RATIO: f64 = 4.0;

/// Node counts of the sweep (the acceptance point is the largest).
const POINTS: [usize; 5] = [4, 8, 16, 32, 64];

/// Fetch-adds issued per requester task (tasks 1..N; task 0 hosts the
/// window and only drives progress).
const ADDS_PER_TASK: usize = 256;

/// Modeled service time of one packet at the root's reception pipeline
/// (the BG/Q MU handles a packet in tens of ns; the constant scales both
/// arms identically, so the gated ratio is independent of its value).
const ROOT_PKT_NS: f64 = 64.0;

/// Chaos arm shape.
const CHAOS_NODES: usize = 16;
const CHAOS_ADDS: usize = 64;
const CHAOS_SEED: u64 = 0xB10C;

/// One measured (node count, combining) run.
struct Run {
    nodes: usize,
    combining: bool,
    ops: u64,
    wall_s: f64,
    host_rate: f64,
    /// Packets applied at the root: `comb.root_applies` when combining,
    /// one per request when not (every uncombined rmw is its own packet).
    /// 0 when telemetry is compiled out and combining is on.
    root_packets: u64,
    merged: u64,
    retransmits: u64,
    dupes_dropped: u64,
}

/// Drive one hot-key storm: tasks 1..n each issue `k` fetch-adds of 1
/// against a window on task 0, waiting for all priors. Returns the run
/// plus verification of the final value and prior permutation.
fn storm(nodes: usize, combining: bool, k: usize, plan: Option<FaultPlan>) -> Run {
    let mut builder = Machine::with_nodes(nodes).combining(combining);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let machine = builder.build();
    let word = MemRegion::zeroed(8);
    let key_cell: Arc<OnceLock<MemKey>> = Arc::new(OnceLock::new());
    let prior_sum = Arc::new(AtomicU64::new(0));
    let wall_ns = Arc::new(AtomicU64::new(0));

    let word2 = word.clone();
    let key_cell2 = Arc::clone(&key_cell);
    let prior_sum2 = Arc::clone(&prior_sum);
    let wall_ns2 = Arc::clone(&wall_ns);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "hotspot", 1);
        let ctx = client.context(0);
        if env.task == 0 {
            key_cell2.set(env.machine.create_window(word2.clone(), None)).unwrap();
        }
        env.machine.task_barrier();
        let key = *key_cell2.get().unwrap();
        if env.task != 0 {
            // Timed span: injection of the first add through arrival of the
            // last prior. The trailing barrier (64 oversubscribed threads
            // parking) is excluded — it costs the same with and without
            // combining and would only dilute the ratio under test.
            let start = Instant::now();
            let slots: Vec<MemRegion> = (0..k).map(|_| MemRegion::zeroed(8)).collect();
            let done = Counter::new();
            done.add_expected(k as u64);
            for slot in &slots {
                ctx.rmw(RmwArgs {
                    dest_task: 0,
                    window: WindowRef::base(key),
                    op: RmwOp::FetchAdd,
                    operand: 1,
                    compare: 0,
                    result: Some(MemSlot::base(slot.clone())),
                    done: Some(done.clone()),
                })
                .unwrap();
            }
            ctx.advance_until(|| done.is_complete());
            wall_ns2.fetch_max(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let mut sum = 0u64;
            for slot in &slots {
                sum += slot.read_i64(0) as u64;
            }
            prior_sum2.fetch_add(sum, Ordering::Relaxed);
        }
        env.machine.task_barrier();
    });

    let ops = ((nodes - 1) * k) as u64;
    // Verification: final value and the arithmetic-series prior sum (the
    // priors across all requesters are a permutation of 0..ops).
    assert_eq!(word.read_i64(0) as u64, ops, "every fetch-add applied exactly once");
    assert_eq!(
        prior_sum.load(Ordering::Relaxed),
        ops * (ops - 1) / 2,
        "priors form the arithmetic series — combining decombined correctly"
    );
    let wall_s = wall_ns.load(Ordering::Relaxed) as f64 / 1e9;
    let (root_packets, merged, retransmits, dupes_dropped) =
        match machine.fabric().comb_counters() {
            Some(c) => (
                c.root_applies.value(),
                c.merged.value(),
                c.retransmits.value(),
                c.dupes_dropped.value(),
            ),
            None => (ops, 0, 0, 0),
        };
    Run {
        nodes,
        combining,
        ops,
        wall_s,
        host_rate: ops as f64 / wall_s.max(1e-9),
        root_packets,
        merged,
        retransmits,
        dupes_dropped,
    }
}

impl Run {
    /// Root-bound rmw rate: every op completes only after its (possibly
    /// combined) packet clears the root's reception pipeline, which
    /// serializes at one packet per [`ROOT_PKT_NS`].
    fn root_bound_rate(&self) -> f64 {
        self.ops as f64 / (self.root_packets.max(1) as f64 * ROOT_PKT_NS / 1e9)
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let points: &[usize] = if quick { &POINTS[..3] } else { &POINTS };
    let adds = if quick { ADDS_PER_TASK / 4 } else { ADDS_PER_TASK };

    // Best-of-3 per configuration: thread scheduling noise at 64
    // oversubscribed task threads swamps a single sample.
    let reps = if quick { 2 } else { 3 };
    let best = |n: usize, combining: bool| -> Run {
        (0..reps)
            .map(|_| storm(n, combining, adds, None))
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .unwrap()
    };

    let mut rows: Vec<String> = Vec::new();
    let mut last_ratio = 0.0f64;
    for &n in points {
        let off = best(n, false);
        let on = best(n, true);
        let ratio = on.root_bound_rate() / off.root_bound_rate().max(1e-9);
        last_ratio = ratio;
        println!(
            "N={:>3}: uncombined {:>12.0} rmw/s ({} root pkts), combined {:>12.0} rmw/s \
             ({} root pkts, {} merged) — {ratio:.2}x",
            n,
            off.root_bound_rate(),
            off.root_packets,
            on.root_bound_rate(),
            on.root_packets,
            on.merged,
        );
        for r in [&off, &on] {
            rows.push(format!(
                "    {{\"nodes\": {}, \"combining\": {}, \"ops\": {}, \"rate\": {:.1}, \
                 \"root_packets\": {}, \"merged\": {}, \"wall_s\": {:.6}, \"host_rate\": {:.1}}}",
                r.nodes,
                r.combining,
                r.ops,
                r.root_bound_rate(),
                r.root_packets,
                r.merged,
                r.wall_s,
                r.host_rate,
            ));
        }
    }
    if !cfg!(feature = "telemetry") {
        // Packet accounting needs the comb.* counters; without them the
        // combined arm's root packets read zero and the ratio is
        // meaningless. Report and bow out.
        println!("hotspot: telemetry feature off — root packet accounting unavailable, gate skipped");
        last_ratio = f64::NAN;
    }

    // Chaos arm: seeded drops + ack-loss duplicates on the combined path.
    // `storm` asserts exactly-once and prior linearizability internally —
    // reaching this line with a biting plan IS the proof.
    let plan = FaultPlan::new().seed(CHAOS_SEED).drop_rate(0.05).corrupt_rate(0.05);
    let chaos = storm(CHAOS_NODES, true, CHAOS_ADDS, Some(plan));
    println!(
        "chaos N={} @ seed {:#x}: {} combined rmws exactly-once under 5% drop + 5% ack-loss \
         ({} retransmits, {} duplicates discarded)",
        CHAOS_NODES, CHAOS_SEED, chaos.ops, chaos.retransmits, chaos.dupes_dropped,
    );

    let gate_ok = last_ratio.is_nan() || last_ratio >= MIN_RATIO;
    let ratio_json =
        if last_ratio.is_nan() { "null".to_string() } else { format!("{last_ratio:.3}") };

    let json = format!(
        "{{\n  \"bench\": \"hotspot\",\n  \"points\": {points:?},\n  \
         \"adds_per_task\": {adds},\n  \"root_pkt_ns\": {ROOT_PKT_NS},\n  \
         \"hotspot_gate_min_ratio\": {MIN_RATIO},\n  \
         \"ratio_at_largest\": {ratio_json},\n  \"hotspot_gate_ok\": {gate_ok},\n  \
         \"chaos_nodes\": {CHAOS_NODES},\n  \"chaos_seed\": {CHAOS_SEED},\n  \
         \"chaos_ops\": {},\n  \"chaos_retransmits\": {},\n  \"chaos_dupes_dropped\": {},\n  \
         \"chaos_exactly_once\": true,\n  \"runs\": [\n{}\n  ]\n}}\n",
        chaos.ops,
        chaos.retransmits,
        chaos.dupes_dropped,
        rows.join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH_hotspot.json", json).expect("write BENCH_hotspot.json");

    if !gate_ok {
        eprintln!("hotspot gate FAILED: combined/uncombined {last_ratio:.2}x < {MIN_RATIO}x");
        std::process::exit(1);
    }
    println!("hotspot gate: ok — {last_ratio:.2}x >= {MIN_RATIO}x");
}
