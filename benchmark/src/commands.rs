//! The multi-run commands: `run` (every workload, untraced then traced,
//! each in a fresh child process), `noise` (the acceptance rule applied to
//! our own runs) and `diff` (two result files side by side).

use std::path::Path;
use std::process::Command;

use bgq_mu::json::{self, Json};

use crate::result::{ResultFile, RunResult, WorkloadResult};
use crate::stats::{median, spread};
use crate::workloads::SPECS;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// What the commands need from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Contract {
    pub run_seconds: u64,
    pub end_to_end: Vec<Declared>,
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let v = json::parse(text).map_err(|e| format!("BENCHMARK.json is not JSON: {e}"))?;
        let o = v.as_obj().ok_or("BENCHMARK.json is not an object")?;
        let run_seconds = o
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("BENCHMARK.json lacks `run_seconds`")?;
        let end_to_end = o
            .get("end_to_end")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json lacks `end_to_end`")?
            .iter()
            .map(|m| {
                let m = m.as_obj().ok_or("an end_to_end entry is not an object")?;
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or(format!("an end_to_end entry lacks `{k}`"))
                };
                Ok(Declared {
                    name: text("name")?,
                    unit: text("unit")?,
                    higher_is_better: text("better")? == "higher",
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("an end_to_end entry lacks `bound`")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Contract {
            run_seconds,
            end_to_end,
        })
    }

    pub fn load(path: &Path) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Contract::parse(&text)
    }
}

impl Declared {
    /// By what share of `base` is `new` worse (negative: better).
    pub fn worsening(&self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        let change = (new - base) / base.abs();
        if self.higher_is_better {
            -change
        } else {
            change
        }
    }
}

/// Options shared by the multi-run commands.
pub struct Common {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
}

/// Runs in one set of `noise`: the acceptance rule is stated for ten.
const RUNS_PER_SET: u64 = 10;

/// Run this binary once on one workload in a fresh process — so every
/// workload gets its own machine, allocator state and peak-RSS reading —
/// and parse what it printed. One child is alive at a time. `echo` repeats
/// the child's `#` lines.
fn run_child(
    workload: &str,
    seed: u64,
    common: &Common,
    traced: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &common.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .env_remove("PAMI_FAULT_PLAN");
    if common.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        for line in stdout.lines().filter(|l| l.starts_with('#')) {
            println!("{line}");
        }
    }
    // A run that found failed operations says so in its result (and exits
    // 0); only a run without a result is an error here.
    RunResult::from_stdout(&stdout).map_err(|e| {
        format!(
            "{workload}: {e} (exit {}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

fn print_metrics(workload: &str, r: &RunResult) {
    for m in r.metrics.iter().chain(&r.diagnostics) {
        match m.value {
            Some(v) => println!("{workload:<15} {:<38} {v:>18.4} {}", m.name, m.unit),
            None => println!("{workload:<15} {:<38} {:>18} {}", m.name, "null", m.unit),
        }
    }
}

/// `pamibench run`: every workload, end to end and per layer, into one
/// result file. Returns whether every check passed.
pub fn run(common: &Common, out_file: &Path) -> Result<bool, String> {
    let mut file = ResultFile {
        seed: common.seed,
        seconds: common.seconds,
        workloads: Vec::new(),
    };
    let mut all_correct = true;
    for spec in &SPECS {
        let end_to_end = run_child(spec.name, common.seed, common, false, true)?;
        let per_layer = run_child(spec.name, common.seed, common, true, true)?;
        all_correct &= end_to_end.correct && per_layer.correct;
        println!(
            "{:<15} attempted {} failed {} ({})",
            spec.name,
            end_to_end.attempted + per_layer.attempted,
            end_to_end.failed + per_layer.failed,
            if end_to_end.correct && per_layer.correct {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        print_metrics(spec.name, &end_to_end);
        print_metrics(spec.name, &per_layer);
        file.workloads.push(WorkloadResult {
            name: spec.name.into(),
            end_to_end,
            per_layer,
        });
    }
    if let Some(dir) = out_file.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out_file, file.to_json())
        .map_err(|e| format!("cannot write {}: {e}", out_file.display()))?;
    println!("# result file: {}", out_file.display());
    Ok(all_correct)
}

/// Per workload, per declared metric, the values of one set's runs.
type SetValues = Vec<Vec<Vec<f64>>>;

/// One set of `noise`: [`RUNS_PER_SET`] untraced runs per workload, one
/// per seed from `common.seed` up.
fn noise_set(
    contract: &Contract,
    common: &Common,
    cals: &mut Vec<f64>,
) -> Result<(SetValues, bool), String> {
    let mut correct = true;
    let mut set = Vec::new();
    for spec in &SPECS {
        let mut values = vec![Vec::new(); contract.end_to_end.len()];
        for i in 0..RUNS_PER_SET {
            let r = run_child(spec.name, common.seed + i, common, false, false)?;
            correct &= r.correct;
            cals.extend(r.diagnostic("driver.host_cal_ns"));
            for (slot, m) in values.iter_mut().zip(&contract.end_to_end) {
                slot.push(
                    r.metric(&m.name)
                        .ok_or(format!("{}: run did not report {}", spec.name, m.name))?,
                );
            }
        }
        set.push(values);
    }
    Ok((set, correct))
}

/// `pamibench noise`: two sets back to back, judged the way the benchmark
/// itself is judged — per metric × workload, each set's quartile spread
/// (but `setup_s`'s) within the bound, and the second set's median not
/// worse than the first's by more than the bound.
pub fn noise(contract: &Contract, common: &Common) -> Result<bool, String> {
    let mut cals = Vec::new();
    let (first, ok1) = noise_set(contract, common, &mut cals)?;
    let (second, ok2) = noise_set(contract, common, &mut cals)?;
    let mut pass = ok1 && ok2;
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "spread1", "spread2", "shift", "bound"
    );
    for (w, spec) in SPECS.iter().enumerate() {
        for (m, decl) in contract.end_to_end.iter().enumerate() {
            let (a, b) = (&first[w][m], &second[w][m]);
            let (sa, sb) = (spread(a), spread(b));
            let shift = decl.worsening(median(a), median(b));
            let steady = decl.name == "setup_s" || (sa <= decl.bound && sb <= decl.bound);
            let ok = steady && shift <= decl.bound;
            pass &= ok;
            println!(
                "{:<15} {:<16} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>5.0}%  {}",
                spec.name,
                decl.name,
                median(a),
                median(b),
                sa * 100.0,
                sb * 100.0,
                shift * 100.0,
                decl.bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    println!(
        "# driver.host_cal_ns over all {} runs: median {:.0} ns, quartile spread {:.2}% — a spread of this size in a metric is the host, not the code",
        cals.len(),
        median(&cals),
        spread(&cals) * 100.0
    );
    if !(ok1 && ok2) {
        println!("# at least one run reported failed operations");
    }
    Ok(pass)
}

/// `pamibench diff base.json new.json`: one row per workload × metric or
/// diagnostic with base, new, ratio and (for end-to-end metrics) the bound.
/// Returns whether no end-to-end metric got worse by more than its bound.
pub fn diff(contract: &Contract, base: &ResultFile, new: &ResultFile) -> bool {
    let mut pass = true;
    println!(
        "{:<15} {:<38} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for b in &base.workloads {
        let Some(n) = new.workloads.iter().find(|w| w.name == b.name) else {
            println!("{:<15} missing from the new file", b.name);
            pass = false;
            continue;
        };
        if !n.end_to_end.correct || !n.per_layer.correct {
            println!("{:<15} the new run reported failed operations", b.name);
            pass = false;
        }
        for (old_run, new_run) in [(&b.end_to_end, &n.end_to_end), (&b.per_layer, &n.per_layer)] {
            for m in old_run.metrics.iter().chain(&old_run.diagnostics) {
                let now = new_run.metric(&m.name).or(new_run.diagnostic(&m.name));
                let (Some(old), Some(now)) = (m.value, now) else {
                    continue;
                };
                let ratio = if old == 0.0 { 0.0 } else { now / old };
                let decl = contract.end_to_end.iter().find(|d| d.name == m.name);
                let (bound, verdict) = match decl {
                    Some(d) if d.worsening(old, now) > d.bound => {
                        pass = false;
                        (format!("{:.0}%", d.bound * 100.0), "WORSE")
                    }
                    Some(d) => (format!("{:.0}%", d.bound * 100.0), "ok"),
                    None => ("-".into(), ""),
                };
                println!(
                    "{:<15} {:<38} {old:>16.4} {now:>16.4} {ratio:>8.3} {bound:>6}  {verdict}",
                    b.name, m.name
                );
            }
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Metric;

    const CONTRACT: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 10,
        "workloads": [{"name": "flood_short", "why": "x"}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ],
        "per_layer": []
    }"#;

    fn file(ops_per_s: f64, setup_s: f64) -> ResultFile {
        let run = |metrics| RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            diagnostics: Vec::new(),
        };
        ResultFile {
            seed: 1,
            seconds: 10,
            workloads: vec![WorkloadResult {
                name: "flood_short".into(),
                end_to_end: run(vec![
                    Metric::new("ops_per_s", "op/s", ops_per_s),
                    Metric::new("setup_s", "s", setup_s),
                ]),
                per_layer: run(vec![Metric::new("pami.send_ns", "ns", 40.0)]),
            }],
        }
    }

    #[test]
    fn contract_parses_bounds_and_directions() {
        let c = Contract::parse(CONTRACT).unwrap();
        assert_eq!(c.run_seconds, 10);
        assert_eq!(c.end_to_end.len(), 2);
        assert!(c.end_to_end[0].higher_is_better && !c.end_to_end[1].higher_is_better);
        assert_eq!(c.end_to_end[1].bound, 0.25);
        assert!(Contract::parse("{}").is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let c = Contract::parse(CONTRACT).unwrap();
        let (rate, setup) = (&c.end_to_end[0], &c.end_to_end[1]);
        assert!((rate.worsening(100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((rate.worsening(100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((setup.worsening(1.0, 1.3) - 0.3).abs() < 1e-12);
        assert_eq!(setup.worsening(0.0, 1.0), 0.0);
    }

    #[test]
    fn diff_passes_within_bounds_and_fails_beyond() {
        let c = Contract::parse(CONTRACT).unwrap();
        assert!(diff(&c, &file(100.0, 1.0), &file(95.0, 1.2)));
        assert!(
            !diff(&c, &file(100.0, 1.0), &file(85.0, 1.0)),
            "rate fell 15% against a 10% bound"
        );
        assert!(
            !diff(&c, &file(100.0, 1.0), &file(100.0, 1.3)),
            "set-up rose 30% against a 25% bound"
        );
        assert!(
            diff(&c, &file(100.0, 1.0), &file(150.0, 0.5)),
            "getting better is not a failure"
        );
    }
}
