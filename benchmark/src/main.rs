//! `pamibench` — the repository's benchmark. See `benchmark/README.md` for
//! the workloads and metrics, `BENCHMARK.json` for the contract.
//!
//! ```text
//! pamibench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! pamibench run   [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//! pamibench noise [--seed <n>] [--seconds <s>]
//! pamibench diff  <base.json> <new.json>
//! ```
//!
//! The first form is one run of one workload: it prints `#` commentary and,
//! as its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Every form is run from the repository root
//! (`run.sh` goes there): the contract is `./BENCHMARK.json` and outputs go
//! to `benchmark/out/`.

mod commands;
mod gen;
mod harness;
mod probes;
mod result;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use commands::{Common, Contract};
use harness::RunArgs;
use result::ResultFile;

const USAGE: &str = "usage:
  pamibench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  pamibench run   [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
  pamibench noise [--seed <n>] [--seconds <s>]
  pamibench diff  <base.json> <new.json>";

/// The benchmark's contract, relative to the repository root.
const CONTRACT: &str = "BENCHMARK.json";
/// Where `run` writes its result file and a traced run its chrome trace.
const OUT_DIR: &str = "benchmark/out";

/// Command-line options, all optional here; each command checks its own.
#[derive(Default)]
struct Options {
    command: Option<String>,
    files: Vec<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("`{s}` is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => o.seed = Some(number(value("a number")?)?),
            "--seconds" => o.seconds = Some(number(value("a number of seconds")?)?),
            "--trace" => {
                o.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value("a file")?.into()),
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            _ if o.command.is_none() && o.workload.is_none() => o.command = Some(arg),
            _ => o.files.push(arg.into()),
        }
    }
    Ok(o)
}

fn one_run(o: &Options) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("no --workload given")?;
    let spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            names.join(", ")
        )
    })?;
    let off_binary = std::env::var_os("PAMIBENCH_OFF_BINARY").map(PathBuf::from);
    let args = RunArgs {
        spec,
        seed: o.seed.ok_or("no --seed given")?,
        seconds: o.seconds.ok_or("no --seconds given")? as f64,
        smoke: o.smoke,
        out_dir: Path::new(OUT_DIR),
        off_binary: off_binary.as_deref().filter(|p| p.is_file()),
    };
    let result = match o.trace.ok_or("no --trace given")? {
        false => harness::run_untraced(&args),
        true => harness::run_traced(&args),
    };
    result.print();
    // Failed operations are reported in the result, not in the exit code:
    // a reader of the last line sees `correct: false` and how many.
    Ok(ExitCode::SUCCESS)
}

fn dispatch(o: &Options) -> Result<ExitCode, String> {
    let contract = || Contract::load(Path::new(CONTRACT));
    let common = |contract: Option<&Contract>| Common {
        seed: o.seed.unwrap_or(1),
        seconds: o.seconds.or(contract.map(|c| c.run_seconds)).unwrap_or(10),
        smoke: o.smoke,
    };
    let verdict = |pass: bool| {
        if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match o.command.as_deref() {
        None => one_run(o),
        Some("run") => {
            let out_file = o
                .out
                .clone()
                .unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
            commands::run(&common(contract().ok().as_ref()), &out_file).map(verdict)
        }
        Some("noise") => {
            let contract = contract()?;
            commands::noise(&contract, &common(Some(&contract))).map(verdict)
        }
        Some("diff") => {
            let [base, new] = o.files.as_slice() else {
                return Err("diff takes two result files".into());
            };
            let contract = contract()?;
            let load = |p: &PathBuf| {
                let text = std::fs::read_to_string(p)
                    .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
                ResultFile::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
            };
            Ok(verdict(commands::diff(
                &contract,
                &load(base)?,
                &load(new)?,
            )))
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    // A fault plan in the environment would arm the reliability layer on
    // the workloads that are meant to run lossless; `halo_lossy` installs
    // its own plan explicitly. Nothing else is running yet.
    std::env::remove_var("PAMI_FAULT_PLAN");
    match parse_args(std::env::args().skip(1)).and_then(|o| dispatch(&o)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pamibench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_single_run_form_parses() {
        let o = parse("--workload halo_lossy --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(o.workload.as_deref(), Some("halo_lossy"));
        assert_eq!(
            (o.seed, o.seconds, o.trace),
            (Some(42), Some(10), Some(true))
        );
        assert!(o.command.is_none() && !o.smoke);
    }

    #[test]
    fn commands_and_their_files_parse() {
        let o = parse("diff a.json b.json").unwrap();
        assert_eq!(o.command.as_deref(), Some("diff"));
        assert_eq!(o.files, [PathBuf::from("a.json"), PathBuf::from("b.json")]);
        let o = parse("run --smoke --seed 3 --out parent.json").unwrap();
        assert!(o.smoke && o.seed == Some(3));
        assert_eq!(o.out, Some(PathBuf::from("parent.json")));
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("noise --runs 2").is_err(), "a set is ten runs");
    }
}
