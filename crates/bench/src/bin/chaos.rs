//! Chaos regression harness for the reliability layer.
//!
//! Emits `BENCH_chaos.json` in the repo root and enforces the fair-weather
//! budget: with a clean fault plan installed (0% drop/corrupt — every
//! packet still pays CRC-32C stamping, link sequence numbers and
//! ack-window bookkeeping), the single-context eager message rate must stay
//! within **5%** of the bare fast path. The process exits non-zero when the
//! gate fails, so CI can run it directly.
//!
//! The JSON also records the genuinely hostile arm (1% drop + 1% corrupt,
//! fixed seed, **gated** — slowdown vs the lossless baseline must stay
//! under 15%) with its RAS history — retransmits, SACK retransmits, CRC
//! errors, injector drops. A kill-a-node failover drill
//! rides along and is gated too: mid-flood the destination node loses
//! every link, traffic must drain to the registered standby with zero
//! lost messages, and the persistent channel must renegotiate and replay.
//!
//! ## Soak / replay
//!
//! `chaos --soak [runs] [msgs]` is the nightly mode: it draws fresh fault
//! seeds from the wall clock, runs each hostile plan under a wall-clock
//! bound — a point-to-point flood plus a kill-a-node failover drill per
//! seed — and **never fails the job**: a seed that hangs, panics, loses a
//! message across the failover, or exhausts its retry budget is instead
//! appended to `ci/chaos_regression_seeds.jsonl` (one JSON object per
//! line, tagged with its scenario) so it is archived as a deterministic
//! regression fixture. `chaos --replay` re-runs every archived seed under
//! its recorded scenario and exits non-zero if any still fails, which is
//! how a fix proves itself against the whole graveyard.

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use pami::{FaultPlan, RetryConfig};
use pami_bench::{
    measure_aggr_chaos, measure_chaos_rate, measure_failover_drain, ChaosStats, FailoverStats,
};

/// Fair-weather budget: CRC + sequence numbers + acks at 0% faults may
/// cost at most this fraction of the bare message rate.
const GATE_PCT: f64 = 5.0;

/// Hostile budget: the 1%+1% plan under selective repeat may slow the
/// eager flood by at most this fraction of the lossless rate. (Go-back-N,
/// which this protocol replaced, ran the same plan at 33–35%; that A/B is
/// recorded in EXPERIMENTS.md and the control arm was removed with it.)
const HOSTILE_GATE_PCT: f64 = 15.0;

/// Archived failing soak seeds (JSON lines, committed as fixtures).
const SEED_FILE: &str = "ci/chaos_regression_seeds.jsonl";

/// The soak's hostile plan for one seed: the same 1% drop + 1% corrupt mix
/// as the committed hostile arm, so an archived seed replays the exact run.
fn soak_plan(seed: u64) -> FaultPlan {
    FaultPlan::new()
        .seed(seed)
        .drop_rate(0.01)
        .corrupt_rate(0.01)
        .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 64 })
}

/// Run one hostile seed on its own thread with a wall-clock bound, so a
/// delivery bug that wedges the flood loop (the failure mode worth
/// archiving) cannot wedge the soak.
fn bounded_run(seed: u64, msgs: usize, timeout: Duration) -> Result<ChaosStats, &'static str> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(measure_chaos_rate(Some(soak_plan(seed)), msgs, false));
    });
    match rx.recv_timeout(timeout) {
        Ok(stats) => Ok(stats),
        Err(RecvTimeoutError::Timeout) => Err("timeout: delivery never completed"),
        Err(RecvTimeoutError::Disconnected) => Err("panic: run aborted"),
    }
}

/// One kill-a-node failover drill under a seeded *lossy* plan, bounded the
/// same way: the failover has to fire while retransmission is already
/// absorbing drops and corruption. Fails on any lost message or a channel
/// that never replayed, same contract as the gated clean-plan drill.
fn bounded_failover(seed: u64, msgs: usize, timeout: Duration) -> Result<(), &'static str> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(measure_failover_drain(msgs, Some(soak_plan(seed))));
    });
    match rx.recv_timeout(timeout) {
        Ok(f) if f.lost == 0 && f.drained > 0 && f.channel_replayed => Ok(()),
        Ok(f) if f.lost > 0 => Err("failover: messages lost"),
        Ok(_) => Err("failover: channel never replayed"),
        Err(RecvTimeoutError::Timeout) => Err("timeout: drain never completed"),
        Err(RecvTimeoutError::Disconnected) => Err("panic: run aborted"),
    }
}

/// Message count of one soak failover drill — small, because the drill
/// sends one message at a time and what it probes (the kill, the drain to
/// the standby, the channel replay) happens once per run regardless.
const FAILOVER_SOAK_MSGS: usize = 64;

/// `(seed, scenario)` pairs already archived in [`SEED_FILE`], in file
/// order. Lines without a `"scenario"` tag predate the failover arm and
/// replay as floods.
fn archived_seeds() -> Vec<(u64, String)> {
    let Ok(text) = std::fs::read_to_string(SEED_FILE) else { return Vec::new() };
    text.lines()
        .filter_map(|line| {
            let pos = line.find("\"seed\": ")? + "\"seed\": ".len();
            let seed = line[pos..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .ok()?;
            let scenario = if line.contains("\"scenario\": \"failover\"") {
                "failover"
            } else {
                "flood"
            };
            Some((seed, scenario.to_owned()))
        })
        .collect()
}

/// Append one failing seed to [`SEED_FILE`] (unless already archived).
fn archive_seed(known: &[(u64, String)], seed: u64, scenario: &str, msgs: usize, outcome: &str) {
    if known.iter().any(|(s, sc)| *s == seed && sc == scenario) {
        return;
    }
    let line = format!(
        "{{\"seed\": {seed}, \"scenario\": \"{scenario}\", \"msgs\": {msgs}, \
         \"drop_rate\": 0.01, \"corrupt_rate\": 0.01, \"outcome\": \"{outcome}\"}}\n"
    );
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(SEED_FILE)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => eprintln!("soak: archived {scenario} seed {seed} in {SEED_FILE}"),
        Err(e) => eprintln!("soak: could not archive seed {seed}: {e}"),
    }
}

/// Nightly randomized-seed soak: report-only, archives failures.
fn soak(runs: usize, msgs: usize) {
    let wall = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64);
    let known = archived_seeds();
    let mut failures = 0usize;
    for i in 0..runs {
        // splitmix64-style draw: independent seeds from one wall-clock read.
        let mut z = wall.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let seed = z ^ (z >> 31);
        match bounded_run(seed, msgs, Duration::from_secs(120)) {
            Ok(stats) => println!(
                "soak {i}/{runs} seed {seed}: ok ({:.0} msg/s, {} retransmits, {} crc errors)",
                stats.rate, stats.retransmits, stats.crc_errors
            ),
            Err(outcome) => {
                failures += 1;
                eprintln!("soak {i}/{runs} seed {seed}: FAILED ({outcome})");
                archive_seed(&known, seed, "flood", msgs, outcome);
            }
        }
        // The failover scenario soaks alongside the flood: same seed (the
        // drill is a different machine shape, so the dice sequences do
        // not overlap), lossy plan, kill-and-drain contract.
        match bounded_failover(seed, FAILOVER_SOAK_MSGS, Duration::from_secs(120)) {
            Ok(()) => println!("soak {i}/{runs} seed {seed}: failover ok"),
            Err(outcome) => {
                failures += 1;
                eprintln!("soak {i}/{runs} seed {seed}: failover FAILED ({outcome})");
                archive_seed(&known, seed, "failover", FAILOVER_SOAK_MSGS, outcome);
            }
        }
    }
    // Report-only by design: the nightly job stays green; the archive (and
    // the next `--replay`) is the signal.
    println!("soak done: {runs} runs, {failures} failures (report-only)");
}

/// Re-run every archived seed; exit non-zero while any still fails.
fn replay(msgs: usize) {
    let seeds = archived_seeds();
    if seeds.is_empty() {
        println!("replay: no archived seeds in {SEED_FILE}");
        return;
    }
    let mut failing = 0usize;
    for (seed, scenario) in &seeds {
        let outcome = match scenario.as_str() {
            "failover" => {
                bounded_failover(*seed, FAILOVER_SOAK_MSGS, Duration::from_secs(120)).map(|()| {
                    format!("replay seed {seed} (failover): ok")
                })
            }
            _ => bounded_run(*seed, msgs, Duration::from_secs(120)).map(|stats| {
                format!(
                    "replay seed {seed}: ok ({:.0} msg/s, {} retransmits)",
                    stats.rate, stats.retransmits
                )
            }),
        };
        match outcome {
            Ok(line) => println!("{line}"),
            Err(why) => {
                failing += 1;
                eprintln!("replay seed {seed} ({scenario}): still FAILING ({why})");
            }
        }
    }
    if failing > 0 {
        eprintln!("replay: {failing}/{} archived seeds still fail", seeds.len());
        std::process::exit(1);
    }
    println!("replay: all {} archived seeds pass", seeds.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--soak") => {
            let runs = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(20);
            let msgs = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(20_000);
            soak(runs, msgs);
            return;
        }
        Some("--replay") => {
            let msgs = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(20_000);
            replay(msgs);
            return;
        }
        _ => {}
    }
    let msgs = args.first().and_then(|a| a.parse().ok()).unwrap_or(60_000usize);
    const ROUNDS: usize = 5;

    // Warm-up so allocator effects do not skew the first round.
    let _ = measure_chaos_rate(None, msgs / 10, true);
    let _ = measure_chaos_rate(Some(FaultPlan::new().seed(7)), msgs / 10, true);

    // Interleave the arms round-robin and let each arm keep its best
    // round: transient host noise (this is a functional simulation on a
    // shared host, not isolated silicon) must hit *both* best-of series
    // to move the ratio.
    //
    // The gated arms pin the flood to the eager protocol: the 5% budget
    // was calibrated against the eager machinery, and an 8-byte send now
    // rides the short tier whose lossless baseline is lean enough that the
    // same percentage would gate CRC arithmetic itself. The short tier's
    // clean-plan cost is measured below as a separate, report-only pair.
    let mut baseline: Option<ChaosStats> = None;
    let mut clean: Option<ChaosStats> = None;
    let mut short_base: Option<ChaosStats> = None;
    let mut short_clean: Option<ChaosStats> = None;
    for _ in 0..ROUNDS {
        let base_run = measure_chaos_rate(None, msgs, true);
        if baseline.as_ref().is_none_or(|b| b.rate < base_run.rate) {
            baseline = Some(base_run);
        }
        let clean_run = measure_chaos_rate(Some(FaultPlan::new().seed(7)), msgs, true);
        if clean.as_ref().is_none_or(|c| c.rate < clean_run.rate) {
            clean = Some(clean_run);
        }
        let sb_run = measure_chaos_rate(None, msgs, false);
        if short_base.as_ref().is_none_or(|b| b.rate < sb_run.rate) {
            short_base = Some(sb_run);
        }
        let sc_run = measure_chaos_rate(Some(FaultPlan::new().seed(7)), msgs, false);
        if short_clean.as_ref().is_none_or(|c| c.rate < sc_run.rate) {
            short_clean = Some(sc_run);
        }
    }
    let (baseline, clean) = (baseline.unwrap(), clean.unwrap());
    let (short_base, short_clean) = (short_base.unwrap(), short_clean.unwrap());
    let overhead_pct = (baseline.rate - clean.rate) / baseline.rate * 100.0;
    let short_overhead_pct =
        (short_base.rate - short_clean.rate) / short_base.rate * 100.0;

    // Hostile arm: 1% drop + 1% corrupt, deterministic seed, gated — the
    // slowdown against the lossless baseline must stay under
    // [`HOSTILE_GATE_PCT`]. Correctness is gated by `measure_chaos_rate`
    // itself (it loops until every message arrives). Best-of rounds for
    // the same reason as above: host noise must hit both series to move
    // the ratio.
    let hostile_plan = || {
        FaultPlan::new()
            .seed(4242)
            .drop_rate(0.01)
            .corrupt_rate(0.01)
            .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 64 })
    };
    const HOSTILE_ROUNDS: usize = 4;
    let mut hostile: Option<ChaosStats> = None;
    // The hostile ratio gets its own lossless reference, interleaved into
    // the same loop: a noise burst that lands on this loop's time window
    // then hits reference and hostile arms alike instead of comparing a
    // hostile run against a baseline measured minutes of CPU-weather
    // earlier.
    let mut hostile_ref: f64 = 0.0;
    for _ in 0..HOSTILE_ROUNDS {
        let ref_run = measure_chaos_rate(None, msgs, true);
        hostile_ref = hostile_ref.max(ref_run.rate);
        let sr_run = measure_chaos_rate(Some(hostile_plan()), msgs, true);
        if hostile.as_ref().is_none_or(|h| h.rate < sr_run.rate) {
            hostile = Some(sr_run);
        }
    }
    let hostile = hostile.unwrap();

    // Aggregated-frames arm (report-only): the same 1%+1% plan over the
    // TRAM coalescing tier. `measure_aggr_chaos` hard-asserts exactly-once
    // after an over-pumped drain; the JSON records the batching and RAS
    // evidence so a run where the plan never bit (or frames never
    // coalesced) is visible rather than vacuous.
    let (aggr_stats, aggr_ras) = measure_aggr_chaos(hostile_plan(), msgs);

    // Kill-a-node failover drill, wall-clock bounded so a failover bug
    // that wedges the drain (the exact failure mode worth gating) reports
    // instead of hanging CI.
    let failover: Option<FailoverStats> = {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(measure_failover_drain(256, None));
        });
        rx.recv_timeout(Duration::from_secs(120)).ok()
    };

    let gate_ok = overhead_pct < GATE_PCT;
    let hostile_slowdown = (hostile_ref - hostile.rate) / hostile_ref * 100.0;
    let hostile_gate_ok = hostile_slowdown < HOSTILE_GATE_PCT;
    let failover_ok = failover.as_ref().is_some_and(|f| {
        f.lost == 0 && f.drained > 0 && f.unreachable_faults >= 1 && f.channel_replayed
    });
    let (fo_pre, fo_drained, fo_faults, fo_lost, fo_replayed) = failover
        .as_ref()
        .map_or((0, 0, 0, u64::MAX, false), |f| {
            (f.pre_kill, f.drained, f.unreachable_faults, f.lost, f.channel_replayed)
        });
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"msgs\": {msgs},\n  \"baseline_rate\": {base:.1},\n  \"crcseq_rate\": {clean_rate:.1},\n  \"crcseq_overhead_pct\": {overhead_pct:.3},\n  \"gate_pct\": {GATE_PCT},\n  \"gate_ok\": {gate_ok},\n  \"short_baseline_rate\": {short_base:.1},\n  \"short_crcseq_rate\": {short_clean_rate:.1},\n  \"short_crcseq_overhead_pct\": {short_overhead_pct:.3},\n  \"hostile_drop_rate\": 0.01,\n  \"hostile_corrupt_rate\": 0.01,\n  \"hostile_seed\": 4242,\n  \"hostile_ref_rate\": {hostile_ref:.1},\n  \"hostile_rate\": {hostile_rate:.1},\n  \"hostile_slowdown_pct\": {hostile_slowdown:.3},\n  \"hostile_gate_pct\": {HOSTILE_GATE_PCT},\n  \"hostile_gate_ok\": {hostile_gate_ok},\n  \"hostile_retransmits\": {retransmits},\n  \"hostile_sack_retransmits\": {sacks},\n  \"hostile_crc_errors\": {crc_errors},\n  \"hostile_packets_dropped\": {dropped},\n  \"aggr_hostile_rate\": {aggr_rate:.1},\n  \"aggr_hostile_frames\": {aggr_frames},\n  \"aggr_hostile_mean_batch\": {aggr_mean_batch:.2},\n  \"aggr_hostile_retransmits\": {aggr_retransmits},\n  \"aggr_hostile_crc_errors\": {aggr_crc_errors},\n  \"failover_msgs\": 256,\n  \"failover_pre_kill\": {fo_pre},\n  \"failover_drained\": {fo_drained},\n  \"failover_unreachable_faults\": {fo_faults},\n  \"failover_lost\": {fo_lost},\n  \"failover_channel_replayed\": {fo_replayed},\n  \"failover_ok\": {failover_ok},\n  \"telemetry_enabled\": {telemetry}\n}}\n",
        base = baseline.rate,
        clean_rate = clean.rate,
        short_base = short_base.rate,
        short_clean_rate = short_clean.rate,
        hostile_rate = hostile.rate,
        retransmits = hostile.retransmits,
        sacks = hostile.sack_retransmits,
        crc_errors = hostile.crc_errors,
        dropped = hostile.packets_dropped,
        aggr_rate = aggr_stats.rate,
        aggr_frames = aggr_stats.frames,
        aggr_mean_batch = aggr_stats.mean_batch(),
        aggr_retransmits = aggr_ras.retransmits,
        aggr_crc_errors = aggr_ras.crc_errors,
        fo_lost = if fo_lost == u64::MAX { "null".to_string() } else { fo_lost.to_string() },
        telemetry = bgq_upc::ENABLED,
    );
    print!("{json}");
    std::fs::write("BENCH_chaos.json", json).expect("write BENCH_chaos.json");

    let mut failed = false;
    if !gate_ok {
        failed = true;
        eprintln!(
            "chaos gate FAILED: CRC+seq at 0% faults costs {overhead_pct:.2}% \
             (budget {GATE_PCT}%)"
        );
    } else {
        println!("chaos gate OK: CRC+seq at 0% faults costs {overhead_pct:.2}% (< {GATE_PCT}%)");
    }
    if !hostile_gate_ok {
        failed = true;
        eprintln!(
            "hostile gate FAILED: 1%+1% chaos slows the flood {hostile_slowdown:.2}% \
             (budget {HOSTILE_GATE_PCT}%)"
        );
    } else {
        println!(
            "hostile gate OK: 1%+1% chaos costs {hostile_slowdown:.2}% under selective \
             repeat (< {HOSTILE_GATE_PCT}%)"
        );
    }
    if !failover_ok {
        failed = true;
        match &failover {
            Some(f) => eprintln!(
                "failover gate FAILED: lost={}, drained={}, faults={}, replayed={}",
                f.lost, f.drained, f.unreachable_faults, f.channel_replayed
            ),
            None => eprintln!("failover gate FAILED: drill wedged past its 120s wall clock"),
        }
    } else {
        println!(
            "failover gate OK: node kill drained {fo_drained} msgs to the standby \
             (0 lost, {fo_faults} unreachable faults absorbed, channel replayed)"
        );
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "short tier (report): clean plan costs {short_overhead_pct:.2}% \
         ({sb:.0} -> {sc:.0} msg/s)",
        sb = short_base.rate,
        sc = short_clean.rate,
    );
    println!(
        "aggregated frames (report): 1%+1% chaos delivered exactly-once at \
         {ar:.0} msg/s, mean batch {mb:.1}, {rt} retransmits / {ce} CRC errors absorbed",
        ar = aggr_stats.rate,
        mb = aggr_stats.mean_batch(),
        rt = aggr_ras.retransmits,
        ce = aggr_ras.crc_errors,
    );
}
