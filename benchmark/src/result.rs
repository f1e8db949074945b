//! What a run reports, and its JSON forms: the one-line result the driver
//! reads from a single run, and the result file `pamibench run` writes for
//! `diff` and `noise`.

use std::fmt::Write as _;

use bgq_mu::json::{self, Json};

/// One named measurement. `value` is `None` where the build cannot measure
/// it (a count-derived metric on the telemetry-off build) — printed as
/// `null`, never as a made-up 0.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: Option<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric::maybe(name, unit, Some(value))
    }

    pub fn maybe(name: &str, unit: &str, value: Option<f64>) -> Metric {
        // A metric is always a number or null: a ratio over nothing is 0.
        Metric {
            name: name.into(),
            unit: unit.into(),
            value: value.map(|v| if v.is_finite() { v } else { 0.0 }),
        }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::with_capacity(2 + metrics.len() * 64);
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {{\"value\": ", m.name);
        match m.value {
            // `{}` on an f64 prints the shortest digits that read back to
            // the same value: all of them, and no more.
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"unit\": \"{}\"}}", m.unit);
    }
    out.push('}');
    out
}

fn metrics_from_json(v: &Json) -> Result<Vec<Metric>, String> {
    v.as_obj()
        .ok_or("metrics are not an object")?
        .0
        .iter()
        .map(|(name, m)| {
            let m = m
                .as_obj()
                .ok_or(format!("metric `{name}` is not an object"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("metric `{name}` lacks a unit"))?;
            let value = match m.get("value") {
                Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or(format!("metric `{name}` has a non-numeric value"))?,
                ),
                None => return Err(format!("metric `{name}` lacks a value")),
            };
            Ok(Metric {
                name: name.clone(),
                unit: unit.into(),
                value,
            })
        })
        .collect()
}

/// What a run's diagnostics line starts with.
const DIAGNOSTICS: &str = "# diagnostics: ";

/// The outcome of one run of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` declares for this kind of run, all of
    /// them and nothing else.
    pub metrics: Vec<Metric>,
    /// What the run measured beside them (the wall-clock medians behind the
    /// reference-clock metrics, the correction factor, the host witness).
    /// The result line has no room for them; they travel on a line of
    /// commentary and in the result file.
    pub diagnostics: Vec<Metric>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    pub fn diagnostic(&self, name: &str) -> Option<f64> {
        self.diagnostics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    /// `"correct": …, "attempted": …, "failed": …, "metrics": {…}`.
    fn contract_fields(&self) -> String {
        format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The single JSON object a run prints as its last line: `correct`,
    /// `attempted`, `failed`, `metrics`, and nothing else.
    pub fn result_line(&self) -> String {
        format!("{{{}}}", self.contract_fields())
    }

    /// What a run prints: a readable line per measurement, the diagnostics
    /// in a form [`RunResult::from_stdout`] reads back, then the result
    /// line.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.diagnostics) {
            match m.value {
                Some(v) => println!("# {:<38} {v:>18.4} {}", m.name, m.unit),
                None => println!("# {:<38} {:>18} {}", m.name, "null", m.unit),
            }
        }
        println!("{DIAGNOSTICS}{}", metrics_json(&self.diagnostics));
        println!("{}", self.result_line());
    }

    /// The result-file form: the result line's keys plus `diagnostics`.
    pub fn to_json(&self) -> String {
        format!(
            "{{{}, \"diagnostics\": {}}}",
            self.contract_fields(),
            metrics_json(&self.diagnostics)
        )
    }

    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let o = v.as_obj().ok_or("result is not an object")?;
        let correct = match o.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("result lacks a boolean `correct`".into()),
        };
        let count = |key: &str| {
            o.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("result lacks a whole-number `{key}`"))
        };
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: metrics_from_json(o.get("metrics").ok_or("result lacks `metrics`")?)?,
            diagnostics: o
                .get("diagnostics")
                .map_or(Ok(Vec::new()), metrics_from_json)?,
        })
    }

    /// Parse a run's standard output: the result in its last line, the
    /// diagnostics in the commentary above it.
    pub fn from_stdout(stdout: &str) -> Result<RunResult, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("no output")?;
        let v = json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
        let mut result = RunResult::from_json(&v)?;
        if let Some(d) = stdout.lines().find_map(|l| l.strip_prefix(DIAGNOSTICS)) {
            let v = json::parse(d).map_err(|e| format!("diagnostics are not JSON: {e}"))?;
            result.diagnostics = metrics_from_json(&v)?;
        }
        Ok(result)
    }
}

/// Everything `pamibench run` measured: per workload, the untraced run
/// (end-to-end metrics) and the traced run (per-layer metrics).
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFile {
    pub seed: u64,
    pub seconds: u64,
    pub workloads: Vec<WorkloadResult>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub end_to_end: RunResult,
    pub per_layer: RunResult,
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{",
            self.seed, self.seconds
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\n\"{}\": {{\"end_to_end\": {},\n  \"per_layer\": {}}}",
                w.name,
                w.end_to_end.to_json(),
                w.per_layer.to_json()
            );
        }
        out.push_str("\n}}\n");
        out
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let v = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let o = v.as_obj().ok_or("result file is not an object")?;
        let num = |key: &str| {
            o.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("result file lacks `{key}`"))
        };
        let workloads = o
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("result file lacks `workloads`")?
            .0
            .iter()
            .map(|(name, w)| {
                let part = |key: &str| {
                    w.as_obj()
                        .and_then(|w| w.get(key))
                        .ok_or(format!("workload `{name}` lacks `{key}`"))
                        .and_then(RunResult::from_json)
                };
                Ok(WorkloadResult {
                    name: name.clone(),
                    end_to_end: part("end_to_end")?,
                    per_layer: part("per_layer")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResultFile {
            seed: num("seed")?,
            seconds: num("seconds")?,
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(correct: bool) -> RunResult {
        RunResult {
            correct,
            attempted: 4_000_000,
            failed: if correct { 0 } else { 3 },
            metrics: vec![
                Metric::new("ops_per_s", "op/s", 6_812_345.678_901_2),
                Metric::new("setup_s", "s", 0.012_345_678_9),
                Metric::maybe("bgq-mu.packets_per_op", "count", None),
            ],
            diagnostics: vec![Metric::new(
                "driver.wall_ops_per_s",
                "op/s",
                6_543_210.123_4,
            )],
        }
    }

    #[test]
    fn run_result_round_trips_with_all_digits_and_nulls() {
        let r = sample(true);
        let line = r.result_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"value\": 6812345.6789012"));
        assert!(line.contains("\"bgq-mu.packets_per_op\": {\"value\": null"));
        let diagnostics = format!("{DIAGNOSTICS}{}", metrics_json(&r.diagnostics));
        assert_eq!(
            RunResult::from_stdout(&format!("# chatter\n{diagnostics}\n{line}\n\n")).unwrap(),
            r
        );
        assert_eq!(r.metric("setup_s"), Some(0.012_345_678_9));
        assert_eq!(r.metric("bgq-mu.packets_per_op"), None);
        assert_eq!(r.diagnostic("driver.wall_ops_per_s"), Some(6_543_210.123_4));
    }

    #[test]
    fn the_result_line_holds_the_four_contract_keys_only() {
        let v = json::parse(&sample(true).result_line()).unwrap();
        let keys: Vec<_> = v
            .as_obj()
            .unwrap()
            .0
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // Without a diagnostics line the result still parses.
        let bare = RunResult::from_stdout(&sample(true).result_line()).unwrap();
        assert!(bare.diagnostics.is_empty());
    }

    #[test]
    fn non_finite_values_never_reach_the_output() {
        assert_eq!(Metric::new("x", "ns", f64::NAN).value, Some(0.0));
        assert_eq!(Metric::new("x", "ns", f64::INFINITY).value, Some(0.0));
    }

    #[test]
    fn result_file_round_trips() {
        let f = ResultFile {
            seed: 7,
            seconds: 10,
            workloads: vec![
                WorkloadResult {
                    name: "flood_short".into(),
                    end_to_end: sample(true),
                    per_layer: sample(true),
                },
                WorkloadResult {
                    name: "halo_lossy".into(),
                    end_to_end: sample(false),
                    per_layer: sample(true),
                },
            ],
        };
        assert_eq!(ResultFile::parse(&f.to_json()).unwrap(), f);
    }

    #[test]
    fn malformed_results_are_refused() {
        assert!(RunResult::from_stdout("").is_err());
        assert!(RunResult::from_stdout("not json").is_err());
        assert!(RunResult::from_stdout("{\"correct\": true}").is_err());
        assert!(ResultFile::parse("{\"seed\": 1}").is_err());
    }
}
