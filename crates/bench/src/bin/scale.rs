//! Scale bench: endpoint-count curves for the bgq-scale co-simulation,
//! which runs the real PAMI stack over the synchronous MU fabric.
//!
//! Emits `BENCH_scale.json` in the repo root with, per endpoint count and
//! scenario (incast, all-to-all, and — at `AGGR_MIN_ENDPOINTS` endpoints
//! and up — all-to-all with TRAM-style per-destination coalescing, whose
//! points carry the batch telemetry `aggr_frames`/`aggr_mean_batch`):
//!
//! * aggregate wall-clock message rate,
//! * per-endpoint peak memory (VmHWM of an isolated child process divided
//!   by the endpoint count),
//! * p50/p99 `Context::advance` latency over the run,
//!
//! plus one seeded failure-storm arm asserting the zero-silent-loss
//! property (every message arrives or fails its counter with a typed
//! fault).
//!
//! ## Memory accounting
//!
//! Each (endpoint count, scenario) point runs in a *child process* of this
//! same binary (`--child`), so its `VmHWM` is the peak RSS of exactly that
//! run — one allocator, no cross-point contamination. The parent subtracts
//! the smallest point's baseline only implicitly: the curve itself is the
//! deliverable, and the O(1)-per-endpoint claim shows up as
//! `rss_per_endpoint` *falling* with scale (fixed cost amortizes; the
//! marginal cost per endpoint is a single endpoint-table slot).
//!
//! ## Gate
//!
//! Two curve shapes are enforced on every run (exit 1): the aggregate rate
//! at the largest point must hold at least `RATE_RETENTION` of the
//! smallest point's rate, and per-endpoint peak memory at the largest
//! point must not exceed the previous point's by more than
//! `MEM_GROWTH_BUDGET`×.

use bgq_scale::{failure_storm, ScaleConfig, ScaleHarness, Scenario};

/// Default endpoint counts (the `--full` flag appends 1M).
const POINTS: [usize; 4] = [1_000, 10_000, 32_000, 100_000];

/// Scale gate: rate at the largest point vs the smallest.
const RATE_RETENTION: f64 = 0.10;

/// Scale gate: per-endpoint VmHWM at the largest point vs the previous.
const MEM_GROWTH_BUDGET: f64 = 2.0;

/// Storm arm shape (seed chosen once; the plan is deterministic per seed).
const STORM_ENDPOINTS: usize = 4096;
const STORM_SEED: u64 = 0x5CA1E;

/// Smallest point that also runs the aggregated all-to-all arm: below
/// this, per-destination buckets barely fill and the batch telemetry is
/// noise rather than a curve.
const AGGR_MIN_ENDPOINTS: usize = 10_000;

/// One measured (endpoint count, scenario) point, parsed back from the
/// child process.
#[derive(Debug, Clone)]
struct Point {
    scenario: String,
    endpoints: u64,
    nodes: u64,
    sent: u64,
    arrived: u64,
    wall_s: f64,
    msg_rate: f64,
    advance_p50_ns: u64,
    advance_p99_ns: u64,
    rss_peak_bytes: u64,
    aggr_frames: u64,
    aggr_batched: u64,
}

impl Point {
    fn rss_per_endpoint(&self) -> f64 {
        self.rss_peak_bytes as f64 / self.endpoints.max(1) as f64
    }

    fn aggr_mean_batch(&self) -> f64 {
        if self.aggr_frames > 0 { self.aggr_batched as f64 / self.aggr_frames as f64 } else { 0.0 }
    }

    fn json(&self) -> String {
        format!(
            "    {{\"scenario\": \"{}\", \"endpoints\": {}, \"nodes\": {}, \"sent\": {}, \
             \"arrived\": {}, \"wall_s\": {:.3}, \"msg_rate\": {:.1}, \
             \"advance_p50_ns\": {}, \"advance_p99_ns\": {}, \
             \"rss_peak_bytes\": {}, \"rss_per_endpoint_bytes\": {:.1}, \
             \"aggr_frames\": {}, \"aggr_batched\": {}, \"aggr_mean_batch\": {:.2}}}",
            self.scenario,
            self.endpoints,
            self.nodes,
            self.sent,
            self.arrived,
            self.wall_s,
            self.msg_rate,
            self.advance_p50_ns,
            self.advance_p99_ns,
            self.rss_peak_bytes,
            self.rss_per_endpoint(),
            self.aggr_frames,
            self.aggr_batched,
            self.aggr_mean_batch(),
        )
    }
}

/// Peak RSS of this process in bytes (`VmHWM` from `/proc/self/status`);
/// 0 when the proc filesystem is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 =
                rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Child mode: run exactly one (scenario, endpoint count) point and print
/// one machine-readable `key=value` line on stdout.
fn run_child(scenario: Scenario, endpoints: usize, aggregated: bool) {
    let mut cfg = ScaleConfig::for_endpoints(endpoints, scenario);
    if aggregated {
        cfg = cfg.aggregated();
    }
    let harness = ScaleHarness::new(cfg);
    let stats = harness.run();
    assert_eq!(stats.sent, stats.arrived, "lost messages on a clean fabric");
    println!(
        "SCALE_POINT scenario={} endpoints={} nodes={} sent={} arrived={} wall_s={:.6} \
         msg_rate={:.1} advance_p50_ns={} advance_p99_ns={} rss_peak_bytes={} aggr_frames={} \
         aggr_batched={}",
        stats.scenario,
        stats.endpoints,
        stats.nodes,
        stats.sent,
        stats.arrived,
        stats.wall_s,
        stats.msg_rate,
        stats.advance_p50_ns,
        stats.advance_p99_ns,
        peak_rss_bytes(),
        stats.aggr_frames,
        stats.aggr_batched,
    );
}

/// Spawn this binary in `--child` mode for one point and parse the result.
fn measure_point(scenario: Scenario, endpoints: usize, aggregated: bool) -> Result<Point, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut args = vec!["--child".to_string(), scenario.name().to_string(), endpoints.to_string()];
    if aggregated {
        args.push("--aggr".to_string());
    }
    let out = std::process::Command::new(exe)
        .args(&args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {} {endpoints} exited with {}: {}",
            scenario.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr),
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("SCALE_POINT "))
        .ok_or_else(|| format!("no SCALE_POINT line in {stdout:?}"))?;
    let get = |key: &str| -> Result<String, String> {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")).map(str::to_string))
            .ok_or_else(|| format!("missing {key} in {line:?}"))
    };
    Ok(Point {
        scenario: get("scenario")?,
        endpoints: get("endpoints")?.parse().map_err(|e| format!("endpoints: {e}"))?,
        nodes: get("nodes")?.parse().map_err(|e| format!("nodes: {e}"))?,
        sent: get("sent")?.parse().map_err(|e| format!("sent: {e}"))?,
        arrived: get("arrived")?.parse().map_err(|e| format!("arrived: {e}"))?,
        wall_s: get("wall_s")?.parse().map_err(|e| format!("wall_s: {e}"))?,
        msg_rate: get("msg_rate")?.parse().map_err(|e| format!("msg_rate: {e}"))?,
        advance_p50_ns: get("advance_p50_ns")?.parse().map_err(|e| format!("p50: {e}"))?,
        advance_p99_ns: get("advance_p99_ns")?.parse().map_err(|e| format!("p99: {e}"))?,
        rss_peak_bytes: get("rss_peak_bytes")?.parse().map_err(|e| format!("rss: {e}"))?,
        aggr_frames: get("aggr_frames")?.parse().map_err(|e| format!("aggr_frames: {e}"))?,
        aggr_batched: get("aggr_batched")?.parse().map_err(|e| format!("aggr_batched: {e}"))?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Child mode: one point, one line, exit.
    if args.first().map(String::as_str) == Some("--child") {
        let scenario = match args.get(1).map(String::as_str) {
            Some("incast") => Scenario::Incast,
            Some("alltoall") => Scenario::AllToAll,
            other => panic!("unknown child scenario {other:?}"),
        };
        let endpoints: usize =
            args.get(2).and_then(|a| a.parse().ok()).expect("child endpoint count");
        let aggregated = args.get(3).map(String::as_str) == Some("--aggr");
        run_child(scenario, endpoints, aggregated);
        return;
    }

    // Point list: defaults, `--full` appends 1M, `--points 1000,10000`
    // overrides outright (the CI smoke job runs the two smallest).
    let mut points: Vec<usize> = POINTS.to_vec();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => points.push(1_000_000),
            "--points" => {
                let list = iter.next().expect("--points takes a comma list");
                points = list
                    .split(',')
                    .map(|p| p.trim().parse().expect("endpoint count"))
                    .collect();
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    points.sort_unstable();
    points.dedup();

    let mut curve: Vec<Point> = Vec::new();
    for &n in &points {
        let mut arms = vec![(Scenario::Incast, false), (Scenario::AllToAll, false)];
        // The coalescing arm only at scale: small points barely fill
        // per-destination buckets and would report noise, not a curve.
        if n >= AGGR_MIN_ENDPOINTS {
            arms.push((Scenario::AllToAll, true));
        }
        for (scenario, aggregated) in arms {
            match measure_point(scenario, n, aggregated) {
                Ok(p) => {
                    println!(
                        "{} @ {:>7} endpoints ({} nodes): {:>12.0} msg/s, \
                         p99 advance {:>7} ns, {:>6.1} B/endpoint peak{}",
                        p.scenario,
                        p.endpoints,
                        p.nodes,
                        p.msg_rate,
                        p.advance_p99_ns,
                        p.rss_per_endpoint(),
                        if aggregated {
                            format!(
                                ", {} frames @ {:.1} records/frame",
                                p.aggr_frames,
                                p.aggr_mean_batch()
                            )
                        } else {
                            String::new()
                        },
                    );
                    curve.push(p);
                }
                Err(e) => {
                    eprintln!("scale point {} {n} FAILED: {e}", scenario.name());
                    std::process::exit(1);
                }
            }
        }
    }

    // Failure-storm arm: small and in-process (its claim is correctness
    // under faults, not memory), deterministic per seed.
    let storm = failure_storm(STORM_ENDPOINTS, STORM_SEED);
    println!(
        "failure-storm @ {} endpoints: sent {} arrived {} failed {} \
         (links killed {}, retransmits {})",
        STORM_ENDPOINTS, storm.sent, storm.arrived, storm.failed, storm.links_killed,
        storm.retransmits,
    );
    assert!(
        storm.zero_lost,
        "failure storm lost messages silently: {storm:?}"
    );
    assert!(storm.links_killed > 0, "storm kill schedule never fired");

    // Gate evaluation over the incast curve (the harsher scenario).
    let incast: Vec<&Point> = curve.iter().filter(|p| p.scenario == "incast").collect();
    let (mut gate_ok, mut gate_detail) = (true, Vec::new());
    if incast.len() >= 2 {
        let first = incast.first().unwrap();
        let last = incast.last().unwrap();
        let prev = incast[incast.len() - 2];
        let retention = last.msg_rate / first.msg_rate.max(1e-9);
        if retention < RATE_RETENTION {
            gate_ok = false;
            gate_detail.push(format!(
                "rate retention {retention:.3} < {RATE_RETENTION} \
                 ({:.0} msg/s at {} vs {:.0} at {})",
                last.msg_rate, last.endpoints, first.msg_rate, first.endpoints,
            ));
        }
        let growth = last.rss_per_endpoint() / prev.rss_per_endpoint().max(1e-9);
        if last.rss_peak_bytes > 0 && growth > MEM_GROWTH_BUDGET {
            gate_ok = false;
            gate_detail.push(format!(
                "per-endpoint memory grew {growth:.2}x from {} to {} endpoints \
                 ({:.1} -> {:.1} B)",
                prev.endpoints,
                last.endpoints,
                prev.rss_per_endpoint(),
                last.rss_per_endpoint(),
            ));
        }
    }

    let body: Vec<String> = curve.iter().map(Point::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"points\": {points:?},\n  \
         \"rate_retention_min\": {RATE_RETENTION},\n  \
         \"mem_growth_budget\": {MEM_GROWTH_BUDGET},\n  \
         \"scale_gate_ok\": {gate_ok},\n  \
         \"storm_endpoints\": {STORM_ENDPOINTS},\n  \"storm_seed\": {STORM_SEED},\n  \
         \"storm_sent\": {},\n  \"storm_arrived\": {},\n  \"storm_failed\": {},\n  \
         \"storm_links_killed\": {},\n  \"storm_retransmits\": {},\n  \
         \"storm_zero_lost\": {},\n  \"curve\": [\n{}\n  ]\n}}\n",
        storm.sent,
        storm.arrived,
        storm.failed,
        storm.links_killed,
        storm.retransmits,
        storm.zero_lost,
        body.join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH_scale.json", json).expect("write BENCH_scale.json");

    if !gate_ok {
        for d in &gate_detail {
            eprintln!("scale gate FAILED: {d}");
        }
        std::process::exit(1);
    }
    println!("scale gate: ok");
}
