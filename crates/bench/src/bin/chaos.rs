//! Chaos soak and replay for the reliability layer.
//!
//! `chaos --soak [runs] [msgs]` is the nightly mode: it draws fresh fault
//! seeds from the wall clock, runs each hostile plan under a wall-clock
//! bound — a point-to-point flood of mixed short, eager and rendezvous
//! messages plus a kill-a-node failover drill per seed — and **never fails
//! the job**: a seed that hangs, panics, delivers a flood message twice or
//! out of order, loses a message across the failover, or exhausts its
//! retry budget is instead
//! appended to `ci/chaos_regression_seeds.jsonl` (one JSON object per
//! line, tagged with its scenario) so it is archived as a deterministic
//! regression fixture. `chaos --replay [msgs]` re-runs every archived seed
//! under its recorded scenario and exits non-zero if any still fails,
//! which is how a fix proves itself against the whole graveyard.
//!
//! The fair-weather and hostile budgets this binary used to time are
//! exact counts in `crates/bench/tests/counts.rs`; their time halves are
//! `pamibench`'s `halo_mixed` / `halo_lossy` rows.

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use pami::{FaultPlan, RetryConfig};
use pami_bench::{measure_chaos_rate, measure_failover_drain, ChaosStats};

/// Archived failing soak seeds (JSON lines, committed as fixtures).
const SEED_FILE: &str = "ci/chaos_regression_seeds.jsonl";

/// The soak's hostile plan for one seed: 1% drop + 1% corrupt, fixed retry
/// shape, so an archived seed replays the exact run.
fn soak_plan(seed: u64) -> FaultPlan {
    FaultPlan::new()
        .seed(seed)
        .drop_rate(0.01)
        .corrupt_rate(0.01)
        .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 64 })
}

/// Run one hostile seed on its own thread with a wall-clock bound, so a
/// delivery bug that wedges the flood loop (the failure mode worth
/// archiving) cannot wedge the soak. A message delivered twice, out of
/// order or with another message's bytes fails the seed too.
fn bounded_run(seed: u64, msgs: usize, timeout: Duration) -> Result<ChaosStats, &'static str> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(measure_chaos_rate(soak_plan(seed), msgs));
    });
    match rx.recv_timeout(timeout) {
        Ok(stats) if stats.violations == 0 => Ok(stats),
        Ok(_) => Err("violation: a message duplicated, reordered, corrupted or failed"),
        Err(RecvTimeoutError::Timeout) => Err("timeout: delivery never completed"),
        Err(RecvTimeoutError::Disconnected) => Err("panic: run aborted"),
    }
}

/// One kill-a-node failover drill under a seeded *lossy* plan, bounded the
/// same way: the failover has to fire while retransmission is already
/// absorbing drops and corruption. Fails on any lost message or a channel
/// that never replayed, same contract as the clean-plan drill in
/// `crates/bench/tests/counts.rs`.
fn bounded_failover(seed: u64, msgs: usize, timeout: Duration) -> Result<(), &'static str> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(measure_failover_drain(msgs, soak_plan(seed)));
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
    let dir = std::path::Path::new(SEED_FILE).parent().expect("the seed file sits in a directory");
    let appended = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(SEED_FILE))
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
    let num = |i: usize, default: usize| args.get(i).and_then(|a| a.parse().ok()).unwrap_or(default);
    match args.first().map(String::as_str) {
        Some("--soak") => soak(num(1, 20), num(2, 20_000)),
        Some("--replay") => replay(num(1, 20_000)),
        _ => {
            eprintln!("usage: chaos --soak [runs] [msgs] | --replay [msgs]");
            std::process::exit(2);
        }
    }
}
