//! One run of one workload: several segments, each a fresh set-up followed
//! by fixed-size timed rounds, until the asked number of seconds has been
//! measured; then what was seen is turned into metrics. End-to-end numbers
//! come from untraced rounds only; a traced run alternates untraced and
//! traced rounds so the tracing overhead is measured inside one process.
//!
//! Four things keep the numbers steady on a shared host, each measured
//! before it was adopted (see `NOISE.md`):
//!
//! * round and set-up times are taken on the **CPU-time clock**
//!   ([`probes::cpu_ns`]), which leaves out what the hypervisor stole and
//!   what other processes of the guest took — the driver never sleeps, so
//!   nothing else is left out;
//! * they are then put on the **reference clock** — scaled by the speed
//!   witness read right before and after each measurement ([`RefClock`]),
//!   a small message pipeline that the core clock and a busy sibling
//!   hardware thread slow the way they slow the program;
//! * a run measures **many set-ups**, not one: a machine has a
//!   "personality" (hash seeds, heap layout, page colours) worth up to 30%
//!   on `mpi_exchange` that lasts as long as it lives, and the median over
//!   rounds from thirty-two machines sits closer to the typical one than
//!   rounds from one or from eight;
//! * the metrics are medians over the **quieter half** of the rounds — those
//!   beside which the memory witness ([`HostCal`]) read fastest and which
//!   spent least time off the CPU — because the host's caches and memory
//!   are shared with neighbours whose busy spells slow a round by 5–20% and
//!   come and go within a run.

use std::path::Path;
use std::process::Command;

use bgq_upc::Snapshot;

use crate::probes::{self, HostCal, RefClock};
use crate::result::{Metric, RunResult};
use crate::stats::{median, median_mut, tail_percentile};
use crate::trace::{self, now_ns, Ledger, SpanId};
use crate::workloads::{mailbox_pushes, settle, Spec, Workload};

/// How big a run is. The default is the benchmark proper; `smoke` is the
/// quick all-checks-on pass for CI.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Rounds are this fraction of their frozen size.
    pub units_divisor: u64,
    /// Set-ups per run, each followed by its share of the timed rounds;
    /// `setup_s` is the median over them.
    pub segments: usize,
    /// Stop a segment after this many timed rounds even if time remains.
    pub max_rounds: usize,
}

impl Scale {
    /// Set-ups per full run: at 4–9 ms each, 2% of a 15 s run.
    const SEGMENTS: usize = 32;

    pub const FULL: Scale = Scale {
        units_divisor: 1,
        segments: Self::SEGMENTS,
        // Every segment its own share, so a long run cannot leave the last
        // set-ups without rounds.
        max_rounds: MAX_ROUNDS / Self::SEGMENTS,
    };
    pub const SMOKE: Scale = Scale {
        units_divisor: 20,
        segments: 1,
        max_rounds: 1,
    };
}

/// Timed rounds a run can hold results for; reserved up front so the
/// process's memory does not depend on how many rounds fit the time.
const MAX_ROUNDS: usize = 4096;

/// The warm-up a set-up ends with, as a fraction of a round: enough to
/// bind channels, size queues and fault in buffers, small enough that the
/// machine and client build still shows in `setup_s`.
const WARMUP_DIVISOR: u64 = 8;

pub struct RunArgs<'a> {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    /// The quick all-checks-on pass instead of the benchmark proper.
    pub smoke: bool,
    /// Where the traced run writes its chrome trace.
    pub out_dir: &'a Path,
    /// The telemetry-off build of this binary, if there is one; without it
    /// `bgq-upc.overhead_ns_per_op` is null.
    pub off_binary: Option<&'a Path>,
}

impl RunArgs<'_> {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }
}

/// A workload set up and warmed, with what that cost.
struct SetUp {
    workload: Box<dyn Workload>,
    /// CPU seconds of set-up plus warm-up, on the reference clock.
    secs: f64,
    attempted: u64,
    failed: u64,
}

fn set_up(spec: &Spec, seed: u64, scale: Scale) -> SetUp {
    let units = (spec.units_per_round / scale.units_divisor / WARMUP_DIVISOR).max(1);
    let ((mut workload, cpu_ns, failed), to_ref) = RefClock::beside(|| {
        let t0 = probes::cpu_ns();
        let mut w = (spec.setup)(seed);
        let out = w.round(units);
        let failed = out.failed + settle(w.as_mut());
        (w, probes::cpu_ns() - t0, failed)
    });
    workload.drain_samples(&mut Vec::new());
    SetUp {
        workload,
        secs: cpu_ns as f64 * to_ref / 1e9,
        attempted: units * spec.ops_per_unit,
        failed,
    }
}

/// What one timed round measured.
struct Round {
    /// Verified operations per CPU second on the reference clock.
    ops_per_s: f64,
    /// Measured ns → reference-clock ns for anything timed inside this round.
    to_ref: f64,
    /// What the round took on the CPU-time clock and on the wall clock.
    cpu_ns: u64,
    wall_ns: u64,
    ops: u64,
    failed: u64,
}

fn timed_round(w: &mut dyn Workload, units: u64, traced: bool) -> Round {
    let ((out, cpu_ns, wall_ns), to_ref) = RefClock::beside(|| {
        trace::set_enabled(traced);
        trace::begin_round();
        let (c0, t0) = (probes::cpu_ns(), now_ns());
        let out = w.round(units);
        let (cpu_ns, wall_ns) = (probes::cpu_ns() - c0, now_ns() - t0);
        trace::end_round();
        trace::set_enabled(false);
        (out, cpu_ns, wall_ns)
    });
    let failed = out.failed + settle(w);
    let ops_per_s = out.ops as f64 * 1e9 / (cpu_ns.max(1) as f64 * to_ref);
    Round {
        ops_per_s,
        to_ref,
        cpu_ns,
        wall_ns,
        ops: out.ops,
        failed,
    }
}

/// What an untraced run keeps of one timed round.
struct Sample {
    /// The weather the round was measured in, as time the host took, ns:
    /// the memory witness read right before and right after the round
    /// (their mean, wall clock) plus what the round itself spent off the CPU.
    weather_ns: f64,
    /// The memory witness alone.
    host_cal_ns: f64,
    ops_per_s: f64,
    wall_ops_per_s: f64,
    /// The round's median delivery time on the reference clock, and as
    /// measured.
    p50_ns: f64,
    wall_p50_ns: f64,
    to_ref: f64,
}

/// The half of `rounds` measured in the quietest weather.
fn quieter_half(mut rounds: Vec<Sample>) -> Vec<Sample> {
    rounds.sort_by(|a, b| a.weather_ns.total_cmp(&b.weather_ns));
    rounds.truncate(rounds.len().div_ceil(2));
    rounds
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: the four end-to-end metrics, and as diagnostics the
/// wall-clock medians and the correction factor behind them, so a reader
/// can tell a change in the program from a change in the correction.
pub fn run_untraced(args: &RunArgs) -> RunResult {
    let (spec, scale) = (args.spec, args.scale());
    let units = (spec.units_per_round / scale.units_divisor).max(1);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut cpu_ns, mut wall_ns) = (0u64, 0u64);

    let cal = HostCal::new();
    let mut setup_s = Vec::with_capacity(scale.segments);
    let mut rounds = Vec::with_capacity(MAX_ROUNDS);
    let mut samples = Vec::with_capacity(1 << 17);
    let segment_ns = args.seconds * 1e9 / scale.segments as f64;
    for _ in 0..scale.segments {
        let SetUp {
            workload: mut w,
            secs,
            attempted: ops,
            failed: bad,
        } = set_up(spec, args.seed, scale);
        setup_s.push(secs);
        attempted += ops;
        failed += bad;
        let (start, first) = (now_ns(), rounds.len());
        let mut weather_before = cal.run();
        while rounds.len() - first < scale.max_rounds
            && (rounds.len() == first || ((now_ns() - start) as f64) < segment_ns)
        {
            let r = timed_round(w.as_mut(), units, false);
            let weather_after = cal.run();
            attempted += units * spec.ops_per_unit;
            failed += r.failed;
            samples.clear();
            w.drain_samples(&mut samples);
            let wall_p50_ns = median_mut(&mut samples);
            let host_cal_ns = (weather_before + weather_after) / 2.0;
            cpu_ns += r.cpu_ns;
            wall_ns += r.wall_ns;
            rounds.push(Sample {
                weather_ns: host_cal_ns + r.wall_ns.saturating_sub(r.cpu_ns) as f64,
                host_cal_ns,
                ops_per_s: r.ops_per_s,
                wall_ops_per_s: r.ops as f64 * 1e9 / r.wall_ns.max(1) as f64,
                p50_ns: wall_p50_ns * r.to_ref,
                wall_p50_ns,
                to_ref: r.to_ref,
            });
            weather_before = weather_after;
        }
    }

    println!(
        "# {}: {} set-ups, {} rounds of {} ops",
        spec.name,
        scale.segments,
        rounds.len(),
        units * spec.ops_per_unit,
    );
    let timed = rounds.len();
    let quiet = quieter_half(rounds);
    let over_quiet =
        |f: fn(&Sample) -> f64| median_mut(&mut quiet.iter().map(f).collect::<Vec<_>>());
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("ops_per_s", "op/s", over_quiet(|r| r.ops_per_s)),
            Metric::new("delivery_p50_ns", "ns", over_quiet(|r| r.p50_ns)),
            Metric::new("setup_s", "s", median(&setup_s)),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        ],
        diagnostics: vec![
            Metric::new(
                "driver.wall_ops_per_s",
                "op/s",
                over_quiet(|r| r.wall_ops_per_s),
            ),
            Metric::new(
                "driver.wall_delivery_p50_ns",
                "ns",
                over_quiet(|r| r.wall_p50_ns),
            ),
            Metric::new("driver.ref_clock_factor", "ratio", over_quiet(|r| r.to_ref)),
            Metric::new("driver.host_cal_ns", "ns", over_quiet(|r| r.host_cal_ns)),
            Metric::new(
                "driver.off_cpu_share",
                "ratio",
                1.0 - ratio(cpu_ns as f64, wall_ns as f64),
            ),
            Metric::new("driver.rounds", "count", timed as f64),
        ],
    }
}

/// `a / b`, 0 over nothing.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counter deltas between two telemetry snapshots.
struct Deltas<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Deltas<'_> {
    fn of(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }
}

/// `ops_per_s` of one untraced run of this run's workload by `binary`, in
/// a child process. `None` if it failed.
fn child_rate(binary: &Path, args: &RunArgs, seconds: u64) -> Option<f64> {
    let mut cmd = Command::new(binary);
    cmd.args(["--workload", args.spec.name, "--trace", "0"])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .env_remove("PAMI_FAULT_PLAN");
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().ok()?;
    let result = RunResult::from_stdout(&String::from_utf8_lossy(&out.stdout)).ok()?;
    result.metric("ops_per_s").filter(|_| result.correct)
}

/// What the telemetry probes cost per op of this run's workload: ns per op
/// of this build minus ns per op of the telemetry-off build, from untraced
/// child runs of one shape (same workload, seed, seconds and set-ups) in
/// the order on, off, off, on, so that a host that drifts over the four
/// drifts under both builds alike. `None` if a child failed.
fn telemetry_overhead_ns(off_binary: &Path, args: &RunArgs, seconds: u64) -> Option<f64> {
    let on_binary = std::env::current_exe().ok()?;
    let ns_per_op = |binary: &Path| Some(1e9 / child_rate(binary, args, seconds)?);
    let (on1, off1) = (ns_per_op(&on_binary)?, ns_per_op(off_binary)?);
    let (off2, on2) = (ns_per_op(off_binary)?, ns_per_op(&on_binary)?);
    let (on, off) = ((on1 + on2) / 2.0, (off1 + off2) / 2.0);
    println!("# telemetry on {on:.2} ns/op, off {off:.2} ns/op (two {seconds} s child runs each)");
    Some(on - off)
}

/// Delivery samples pooled across the traced pass's untraced rounds for
/// the tail diagnostic.
const TAIL_POOL: usize = 1 << 20;

/// The traced run: every per-layer metric.
pub fn run_traced(args: &RunArgs) -> RunResult {
    let (spec, scale) = (args.spec, args.scale());
    let units = (spec.units_per_round / scale.units_divisor).max(1);
    let cost = trace::calibrate(200_000);

    // The telemetry-overhead row takes four child runs; they and the rounds
    // here share the asked-for seconds, so a traced run is no longer than
    // an untraced one.
    let off_binary = args.off_binary.filter(|_| bgq_upc::ENABLED);
    let child_seconds = ((args.seconds / 8.0).round() as u64).max(1);
    let loop_ns = 1e9
        * match off_binary {
            Some(_) => (args.seconds - 4.0 * child_seconds as f64).max(args.seconds / 4.0),
            None => args.seconds,
        };

    let SetUp {
        workload: mut w,
        mut attempted,
        mut failed,
        ..
    } = set_up(spec, args.seed, scale);
    let before = w.machine().telemetry().snapshot();
    let pushes_before = mailbox_pushes(w.as_ref());

    let cal = HostCal::new();
    let (mut plain, mut traced, mut cals, mut to_refs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_wall_ns, mut ops) = (0u64, 0u64);
    let (mut samples, mut tail_pool) = (Vec::new(), Vec::<f64>::new());
    let start = now_ns();
    while traced.len() < scale.max_rounds
        && (traced.is_empty() || ((now_ns() - start) as f64) < loop_ns)
    {
        cals.push(cal.run());
        let r = timed_round(w.as_mut(), units, false);
        plain.push(r.ops_per_s);
        // The tail diagnostic, like every delivery number, is untraced.
        samples.clear();
        w.drain_samples(&mut samples);
        let room = TAIL_POOL - tail_pool.len();
        tail_pool.extend(samples.iter().take(room).map(|ns| ns * r.to_ref));
        let t = timed_round(w.as_mut(), units, true);
        samples.clear();
        w.drain_samples(&mut samples);
        traced.push(t.ops_per_s);
        to_refs.push(t.to_ref);
        traced_wall_ns += t.wall_ns;
        ops += r.ops + t.ops;
        failed += r.failed + t.failed;
        attempted += 2 * units * spec.ops_per_unit;
    }
    let after = w.machine().telemetry().snapshot();
    let pushes_after = mailbox_pushes(w.as_ref());
    let tracer = trace::take();

    let trace_path = args.out_dir.join(format!("trace_{}.json", spec.name));
    let written = std::fs::create_dir_all(args.out_dir)
        .and_then(|()| std::fs::write(&trace_path, trace::chrome_trace_json(&tracer)));
    match written {
        Ok(()) => println!(
            "# {} spans kept, written to {}",
            tracer.kept.len(),
            trace_path.display()
        ),
        Err(e) => eprintln!("pamibench: cannot write {}: {e}", trace_path.display()),
    }

    let ledger = Ledger {
        tracer: &tracer,
        cost,
    };
    let d = Deltas {
        before: &before,
        after: &after,
    };
    let ops = ops as f64;
    let kops = ops / 1000.0;
    // Count-derived metrics exist only where the probes are compiled in.
    let counted = |v: f64| bgq_upc::ENABLED.then_some(v);
    let hist_p50 = |name: &str| counted(after.histogram(name).map_or(0.0, |h| h.p50 as f64));

    let sends: f64 = ["short", "eager", "rzv", "aggr", "shm"]
        .iter()
        .map(|t| d.of(&format!("ctx.sends_{t}")))
        .sum();
    let share = |tier: &str| counted(ratio(d.of(&format!("ctx.sends_{tier}")), sends));
    let frames = d.of("aggr.frames");
    let matched = d.of("match.matched_posted") + d.of("match.matched_unexpected");
    let advances = tracer.stat(SpanId::AdvanceBusy).count + tracer.stat(SpanId::AdvanceIdle).count;
    let machine = w.machine();
    let upc_overhead_ns = off_binary.and_then(|b| telemetry_overhead_ns(b, args, child_seconds));
    tail_pool.sort_by(f64::total_cmp);
    let (tail_p, tail_ns) = tail_percentile(&tail_pool);
    println!(
        "# driver.delivery_p99_ns is the p{:.0} of {} samples",
        tail_p * 100.0,
        tail_pool.len()
    );

    // Span times go on the reference clock of the traced rounds; each
    // isolated probe reads the witness for itself.
    let span_to_ref = median(&to_refs);
    let ns = |name: &str, v: f64| Metric::new(name, "ns", v);
    let mean =
        |name: &str, id: SpanId| Metric::new(name, "ns", ledger.mean_self_ns(id) * span_to_ref);
    let probe = |name: &str, f: &dyn Fn() -> f64| {
        let (v, to_ref) = RefClock::beside(f);
        Metric::new(name, "ns", v * to_ref)
    };
    let count = |name: &str, unit: &str, v: Option<f64>| Metric::maybe(name, unit, v);
    let metrics = vec![
        mean("pami.send_ns", SpanId::Send),
        mean("pami.send_immediate_ns", SpanId::SendImmediate),
        mean("pami.advance_ns", SpanId::AdvanceBusy),
        mean("pami.advance_idle_ns", SpanId::AdvanceIdle),
        Metric::new(
            "pami.advance_useful_share",
            "ratio",
            ratio(
                tracer.stat(SpanId::AdvanceBusy).count as f64,
                advances as f64,
            ),
        ),
        count(
            "pami.events_per_advance",
            "count",
            counted(ratio(d.of("ctx.advance_events"), d.of("ctx.advance_calls"))),
        ),
        mean("pami.post_ns", SpanId::Post),
        probe("bgq-hw.queue.push_pop_ns", &probes::queue_push_pop_ns),
        Metric::new(
            "bgq-hw.queue.overflow_share",
            "ratio",
            ratio(
                (pushes_after.0 - pushes_before.0) as f64,
                (pushes_after.1 - pushes_before.1) as f64,
            ),
        ),
        count("pami.policy.short_share", "ratio", share("short")),
        count("pami.policy.eager_share", "ratio", share("eager")),
        count("pami.policy.rzv_share", "ratio", share("rzv")),
        count("pami.policy.aggr_share", "ratio", share("aggr")),
        count("pami.policy.shm_share", "ratio", share("shm")),
        probe("pami.policy.select_ns", &|| {
            probes::policy_select_ns(machine, spec.size_mix)
        }),
        count(
            "pami.aggr.mean_batch",
            "count",
            counted(ratio(d.of("aggr.batched_msgs"), frames)),
        ),
        count(
            "pami.aggr.flush_fill_share",
            "ratio",
            counted(ratio(d.of("aggr.flush_fill"), frames)),
        ),
        count(
            "pami.aggr.flush_age_share",
            "ratio",
            counted(ratio(d.of("aggr.flush_age"), frames)),
        ),
        count(
            "pami.aggr.frame_fill",
            "ratio",
            counted(ratio(
                d.of("aggr.frame_bytes"),
                frames * pami::AggrConfig::default().max_frame as f64,
            )),
        ),
        count(
            "pami.aggr.added_latency_p50_ns",
            "ns",
            hist_p50("aggr.added_latency_ns"),
        ),
        mean("pami.flush_aggr_ns", SpanId::FlushAggr),
        mean("pami.put_ns", SpanId::Put),
        mean("pami.get_ns", SpanId::Get),
        mean("pami.rmw_ns", SpanId::Rmw),
        mean("pami.channel_post_ns", SpanId::ChannelPost),
        mean("pami.channel_wait_ns", SpanId::ChannelWait),
        count(
            "bgq-mu.packets_per_op",
            "count",
            counted(ratio(d.of("mu.packets_injected"), ops)),
        ),
        count(
            "bgq-mu.descriptors_per_op",
            "count",
            counted(ratio(d.of("mu.descriptors_executed"), ops)),
        ),
        count(
            "bgq-mu.copies_per_op",
            "count",
            counted(ratio(d.of("mu.payload_copies"), ops)),
        ),
        count(
            "bgq-mu.remote_gets_per_op",
            "count",
            counted(ratio(d.of("mu.remote_gets_serviced"), ops)),
        ),
        count(
            "bgq-mu.link.retransmits_per_kop",
            "count",
            counted(ratio(d.of("ras.retransmits"), kops)),
        ),
        count(
            "bgq-mu.link.sack_share",
            "ratio",
            counted(ratio(d.of("ras.sack_retransmits"), d.of("ras.retransmits"))),
        ),
        count(
            "bgq-mu.link.crc_errors_per_kop",
            "count",
            counted(ratio(d.of("ras.crc_errors"), kops)),
        ),
        count(
            "bgq-mu.link.dropped_per_kop",
            "count",
            counted(ratio(d.of("mu.packets_dropped"), kops)),
        ),
        count(
            "bgq-mu.link.reorder_per_kop",
            "count",
            counted(ratio(d.of("ras.reorder_depth"), kops)),
        ),
        count(
            "bgq-mu.link.delivery_failures",
            "count",
            counted(d.of("ras.delivery_failures")),
        ),
        probe("bgq-mu.crc32c_ns_per_512B", &probes::crc32c_ns_per_512b),
        probe("bgq-mu.batch.push_ns", &|| {
            probes::batch_push_ns(spec.size_mix)
        }),
        probe("bgq-mu.batch.walk_ns", &|| {
            probes::batch_walk_ns(spec.size_mix)
        }),
        probe("bgq-torus.det_route_ns", &|| {
            probes::det_route_ns(machine.shape())
        }),
        mean("pami-mpi.isend_ns", SpanId::MpiIsend),
        mean("pami-mpi.irecv_ns", SpanId::MpiIrecv),
        mean("pami-mpi.advance_ns", SpanId::MpiAdvance),
        mean("pami-mpi.test_ns", SpanId::MpiTest),
        count(
            "pami-mpi.match.unexpected_share",
            "ratio",
            counted(ratio(d.of("match.matched_unexpected"), matched)),
        ),
        count(
            "pami-mpi.match.wildcard_share",
            "ratio",
            counted(ratio(d.of("match.wildcard_hits"), matched)),
        ),
        count(
            "pami-mpi.match.posted_depth_p50",
            "count",
            hist_p50("match.posted_depth"),
        ),
        count(
            "pami-mpi.match.unexpected_depth_p50",
            "count",
            hist_p50("match.unexpected_depth"),
        ),
        count("bgq-upc.overhead_ns_per_op", "ns", upc_overhead_ns),
        probe("bgq-upc.snapshot_ns", &|| probes::snapshot_ns(machine)),
        mean("driver.handler_ns", SpanId::Handler),
        Metric::new("driver.share", "ratio", ledger.driver_share(traced_wall_ns)),
        Metric::new(
            "driver.ledger_closure",
            "ratio",
            ledger.closure(traced_wall_ns),
        ),
        Metric::new(
            "driver.trace_overhead_pct",
            "%",
            100.0 * (1.0 - ratio(median(&traced), median(&plain))),
        ),
        ns("driver.delivery_p99_ns", tail_ns),
        ns("driver.host_cal_ns", median(&cals)),
        Metric::new("driver.ref_clock_factor", "ratio", span_to_ref),
        Metric::new("driver.build_s", "s", w.build_s() * span_to_ref),
    ];
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        diagnostics: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    /// `field` of every entry under `key` in the repository's
    /// `BENCHMARK.json`.
    fn declared(key: &str, field: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = bgq_mu::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = doc.as_obj().unwrap().get(key).unwrap().as_arr().unwrap();
        list.iter()
            .map(|m| {
                m.as_obj()
                    .unwrap()
                    .get(field)
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect()
    }

    /// The run reports exactly the metrics `BENCHMARK.json` declares under
    /// `key`, in order, with the declared units.
    fn assert_reports(r: &RunResult, key: &str) {
        let names: Vec<_> = r.metrics.iter().map(|m| m.name.clone()).collect();
        let units: Vec<_> = r.metrics.iter().map(|m| m.unit.clone()).collect();
        assert_eq!(names, declared(key, "name"));
        assert_eq!(units, declared(key, "unit"));
    }

    fn smoke(spec: &'static Spec, traced: bool) -> RunResult {
        let out_dir = std::env::temp_dir().join(format!("pamibench-test-{}", std::process::id()));
        let args = RunArgs {
            spec,
            seed: 11,
            seconds: 1.0,
            smoke: true,
            out_dir: &out_dir,
            off_binary: None,
        };
        let r = if traced {
            run_traced(&args)
        } else {
            run_untraced(&args)
        };
        let _ = std::fs::remove_dir_all(&out_dir);
        r
    }

    #[test]
    fn the_quieter_half_is_chosen_by_the_witness_alone() {
        let round = |weather_ns: f64, ops_per_s: f64| Sample {
            weather_ns,
            host_cal_ns: weather_ns,
            ops_per_s,
            wall_ops_per_s: 0.0,
            p50_ns: 0.0,
            wall_p50_ns: 0.0,
            to_ref: 1.0,
        };
        let rounds = vec![
            round(5.0, 900.0),
            round(1.0, 100.0),
            round(4.0, 800.0),
            round(2.0, 700.0),
            round(3.0, 300.0),
        ];
        let kept: Vec<f64> = quieter_half(rounds).iter().map(|r| r.ops_per_s).collect();
        assert_eq!(kept, [100.0, 700.0, 300.0], "3 of 5, fast or slow");
        assert!(quieter_half(Vec::new()).is_empty());
        assert_eq!(quieter_half(vec![round(1.0, 1.0)]).len(), 1);
    }

    #[test]
    fn every_workload_passes_its_checks_and_reports_the_declared_metrics() {
        assert_eq!(
            SPECS.iter().map(|s| s.name.to_owned()).collect::<Vec<_>>(),
            declared("workloads", "name"),
            "BENCHMARK.json lists the workloads the binary has"
        );
        for spec in &SPECS {
            let r = smoke(spec, false);
            assert!(
                r.correct && r.failed == 0 && r.attempted > 0,
                "{}: {r:?}",
                spec.name
            );
            assert_reports(&r, "end_to_end");
            assert!(
                r.metrics.iter().all(|m| m.value.is_some_and(|v| v > 0.0)),
                "{}: {r:?}",
                spec.name
            );
        }
    }

    #[test]
    fn the_traced_pass_closes_its_ledger_and_tells_the_workloads_apart() {
        let by_name = |name: &str| smoke(crate::workloads::spec(name).unwrap(), true);
        let (flood, lossy, scatter) = (
            by_name("flood_short"),
            by_name("halo_lossy"),
            by_name("scatter_aggr"),
        );
        for r in [&flood, &lossy, &scatter] {
            assert!(r.correct, "{r:?}");
            assert_reports(r, "per_layer");
            let closure = r.metric("driver.ledger_closure").unwrap();
            assert!((0.9..=1.1).contains(&closure), "ledger closure {closure}");
        }
        if bgq_upc::ENABLED {
            assert_eq!(flood.metric("pami.policy.short_share"), Some(1.0));
            assert_eq!(flood.metric("pami.aggr.mean_batch"), Some(0.0));
            assert_eq!(flood.metric("bgq-mu.link.retransmits_per_kop"), Some(0.0));
            assert!(scatter.metric("pami.aggr.mean_batch").unwrap() > 1.0);
            assert!(
                lossy.metric("bgq-mu.link.retransmits_per_kop").unwrap() > 0.0,
                "the fault plan bit"
            );
            assert!(lossy.metric("bgq-mu.link.crc_errors_per_kop").unwrap() > 0.0);
        } else {
            assert_eq!(
                flood.metric("pami.policy.short_share"),
                None,
                "null, not 0, without telemetry"
            );
        }
    }
}
