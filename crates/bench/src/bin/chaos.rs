//! Chaos soak and replay for the reliability layer.
//!
//! `chaos --soak [runs] [msgs]` is the nightly mode: it draws fresh fault
//! seeds from the wall clock, runs each hostile plan under a wall-clock
//! bound — a point-to-point flood of mixed short, eager and rendezvous
//! messages per seed — and **never fails the job**: a seed that hangs,
//! panics, delivers a message twice or out of order, or exhausts its retry
//! budget is instead appended to `ci/chaos_regression_seeds.jsonl` (one
//! JSON object per line) so it is archived as a deterministic regression
//! fixture. `chaos --replay [msgs]` re-runs every archived seed and exits
//! non-zero if any still fails, which is how a fix proves itself against
//! the whole graveyard.
//!
//! The fair-weather and hostile budgets this binary used to time are
//! exact counts in `crates/bench/tests/counts.rs`; their time halves are
//! `pamibench`'s `halo_mixed` / `halo_lossy` rows.

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use pami::{FaultPlan, RetryConfig};
use pami_bench::{measure_chaos_rate, ChaosStats};

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

/// Seeds already archived in [`SEED_FILE`], in file order.
fn archived_seeds() -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(SEED_FILE) else { return Vec::new() };
    text.lines()
        .filter_map(|line| {
            let pos = line.find("\"seed\": ")? + "\"seed\": ".len();
            line[pos..].chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().ok()
        })
        .collect()
}

/// Append one failing seed to [`SEED_FILE`] (unless already archived).
fn archive_seed(known: &[u64], seed: u64, msgs: usize, outcome: &str) {
    if known.contains(&seed) {
        return;
    }
    let line = format!(
        "{{\"seed\": {seed}, \"msgs\": {msgs}, \
         \"drop_rate\": 0.01, \"corrupt_rate\": 0.01, \"outcome\": \"{outcome}\"}}\n"
    );
    use std::io::Write as _;
    let dir = std::path::Path::new(SEED_FILE).parent().expect("the seed file sits in a directory");
    let appended = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(SEED_FILE))
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => eprintln!("soak: archived seed {seed} in {SEED_FILE}"),
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
                archive_seed(&known, seed, msgs, outcome);
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
    for &seed in &seeds {
        match bounded_run(seed, msgs, Duration::from_secs(120)) {
            Ok(stats) => println!(
                "replay seed {seed}: ok ({:.0} msg/s, {} retransmits)",
                stats.rate, stats.retransmits
            ),
            Err(why) => {
                failing += 1;
                eprintln!("replay seed {seed}: still FAILING ({why})");
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
