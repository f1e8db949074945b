//! CI cannot dangle. Nobody here can run GitHub Actions, so what the
//! workflows, the regenerate script and the verify notes name — binaries,
//! test targets, files under `ci/`, `repro` experiments — is checked
//! against the tree instead. The same goes for the options census of
//! DESIGN.md §17: nobody re-counts a table by hand, so the tree is read.

use std::path::{Path, PathBuf};

const FILES: [&str; 4] = [
    ".github/workflows/ci.yml",
    ".github/workflows/nightly-chaos.yml",
    "scripts/regenerate.sh",
    ".claude/skills/verify/SKILL.md",
];

fn entries(dir: &Path) -> Vec<PathBuf> {
    let listing = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    listing.map(|entry| entry.expect("directory entry").path()).collect()
}

#[test]
fn every_named_binary_test_and_ci_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &str| std::fs::read_to_string(root.join(path));
    let bin_source = |bin: &str| read(&format!("crates/bench/src/bin/{bin}.rs"));
    let pamibench = read("benchmark/Cargo.toml").expect("benchmark/Cargo.toml");
    let crates: Vec<_> = entries(&root.join("crates")).into_iter().chain([root.clone()]).collect();
    for file in FILES {
        let text = read(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        // Words, with a "\n" closing each line: a flag that ends a line
        // (`-- --test`) takes no argument.
        let words: Vec<&str> = text
            .lines()
            .flat_map(|line| line.split_whitespace().chain(["\n"]))
            .flat_map(|w| w.split(['`', '\'', '"', '(', ')']))
            .map(|w| w.trim_end_matches(['.', ',', ';', ':']))
            .filter(|w| !w.is_empty())
            .collect();
        let after = |flag: &'static str| {
            let takes_arg = move |pair: &&[&str]| pair[0] == flag && pair[1] != "\n";
            words.windows(2).filter(takes_arg).map(|pair| pair[1])
        };
        let run_directly =
            words.iter().filter_map(|w| w.trim_start_matches("./").strip_prefix("target/release/"));
        let bins: Vec<&str> = after("--bin").chain(run_directly).collect();
        for bin in &bins {
            assert!(
                bin_source(bin).is_ok() || pamibench.contains(&format!("name = \"{bin}\"")),
                "{file} names binary `{bin}`: no crates/bench/src/bin/{bin}.rs"
            );
        }
        for test in after("--test") {
            assert!(
                crates.iter().any(|dir| dir.join(format!("tests/{test}.rs")).exists()),
                "{file} names test target `{test}`: no crate has tests/{test}.rs"
            );
        }
        // A file under `ci/` is committed, or written by a binary this
        // same file runs.
        for path in words.iter().filter(|w| w.starts_with("ci/")) {
            let written_here =
                || bins.iter().any(|bin| bin_source(bin).is_ok_and(|src| src.contains(path)));
            assert!(
                root.join(path).exists() || written_here(),
                "{file} names `{path}`: not in the tree, and no binary it runs writes it"
            );
        }
    }
}

/// `repro <experiment>`: wherever a command names one — the four files
/// above, README.md, the fenced blocks of EXPERIMENTS.md — the experiment
/// is an arm of `repro.rs`'s `match`, so removing or renaming one cannot
/// leave the regenerate script or "Reproducing this file" dangling.
#[test]
fn every_named_repro_experiment_is_a_match_arm() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &str| {
        std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let source = read("crates/bench/src/bin/repro.rs");
    let arms: Vec<&str> = source
        .lines()
        .skip_while(|line| !line.contains("match experiment {"))
        .take_while(|line| !line.contains("other =>"))
        .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\" =>"))
        .map(|(arm, _)| arm)
        .collect();
    assert!(arms.contains(&"all"), "no experiment arms found in repro.rs: {arms:?}");
    let fenced_only = |text: String| {
        let mut inside = false;
        let keep = |line: &&str| {
            let fence = line.trim_start().starts_with("```");
            inside ^= fence;
            inside && !fence
        };
        text.lines().filter(keep).collect::<Vec<_>>().join("\n")
    };
    let texts = FILES
        .into_iter()
        .chain(["README.md"])
        .map(|file| (file, read(file)))
        .chain([("EXPERIMENTS.md", fenced_only(read("EXPERIMENTS.md")))]);
    let mut checked = 0;
    for (file, text) in texts {
        // A backtick closes a command as a line end does: `` `repro` `` in
        // prose names the binary and takes no argument.
        for command_line in text.lines().flat_map(|line| line.split('`')) {
            let mut words = command_line.split_whitespace();
            while let Some(word) = words.next() {
                // `repro`, `./target/release/repro`, `--bin repro --`.
                let command = word.trim_start_matches("./");
                if command.strip_prefix("target/release/").unwrap_or(command) != "repro" {
                    continue;
                }
                // The experiment is the first argument that is neither a
                // `--flag` nor a `<placeholder>`; a pipe ends the command.
                let experiment = words
                    .by_ref()
                    .take_while(|arg| *arg != "|")
                    .find(|arg| !arg.starts_with("--") && !arg.starts_with('<'));
                if let Some(name) = experiment {
                    assert!(
                        arms.contains(&name),
                        "{file} names `repro {name}`: not an experiment of repro.rs ({arms:?})"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 4, "the scan found only {checked} `repro <experiment>` references");
}

/// Every independently settable value on the machine-construction surface
/// — builder methods, config fields, environment variables, cargo features,
/// tool flags — has a row in the options table of DESIGN.md §17, which
/// names the caller that keeps it. Adding an option without writing down
/// who needs it fails here.
#[test]
fn options_census() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    // The lines of the item opened by `header`, up to its closing brace.
    let item = |file: &str, header: String| -> Vec<String> {
        let source = read(&root.join(file));
        let body: Vec<String> = source
            .lines()
            .skip_while(|line| line.trim_end() != header)
            .skip(1)
            .take_while(|line| *line != "}")
            .map(|line| line.trim().to_string())
            .collect();
        assert!(!body.is_empty(), "{file} has no `{header}`");
        body
    };
    let mut options: Vec<String> = Vec::new();

    for (file, builder) in [
        ("crates/core/src/machine.rs", "MachineBuilder"),
        ("crates/bgq-mu/src/fabric.rs", "MuFabricBuilder"),
        ("crates/bgq-mu/src/faults.rs", "FaultPlan"),
    ] {
        for line in item(file, format!("impl {builder} {{")) {
            let method = line.strip_prefix("pub fn ").and_then(|rest| rest.split_once("(mut self"));
            options.extend(method.map(|(name, _)| format!("{builder}::{name}")));
        }
    }
    for (file, config) in [
        ("crates/core/src/aggr.rs", "AggrConfig"),
        ("crates/bgq-mu/src/faults.rs", "RetryConfig"),
        ("crates/bgq-mu/src/faults.rs", "FaultRates"),
        ("crates/bgq-mu/src/faults.rs", "LinkFault"),
        ("crates/mpi/src/mpi.rs", "MpiConfig"),
    ] {
        for line in item(file, format!("pub struct {config} {{")) {
            let field = line.strip_prefix("pub ").and_then(|rest| rest.split_once(':'));
            options.extend(field.map(|(name, _)| format!("{config}.{name}")));
        }
    }
    // Literal names read with `env::var` / `env::var_os` under `crates/`.
    let mut pending = entries(&root.join("crates"));
    while let Some(path) = pending.pop() {
        if path.is_dir() {
            pending.extend(entries(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            for after in read(&path).split("env::var").skip(1) {
                let name = after.trim_start_matches("_os").strip_prefix("(\"");
                options.extend(name.and_then(|n| n.split_once('"')).map(|(n, _)| n.to_string()));
            }
        }
    }
    // `[features]` keys of every workspace manifest.
    for dir in entries(&root.join("crates")).into_iter().chain([root.clone()]) {
        let manifest = read(&dir.join("Cargo.toml"));
        let features = manifest.lines().skip_while(|line| *line != "[features]").skip(1);
        for line in features.take_while(|line| !line.starts_with('[')) {
            let key = line.split_once(" = ").filter(|(key, _)| !key.starts_with([' ', '#', '"']));
            options.extend(key.map(|(key, _)| key.to_string()));
        }
    }
    // `"--flag"` literals of the tool binaries, as `tool --flag`.
    for path in entries(&root.join("crates/bench/src/bin")) {
        let tool = path.file_stem().expect("bin file").to_string_lossy().into_owned();
        for after in read(&path).split("\"--").skip(1) {
            let flag = after.split_once('"').map(|(flag, _)| flag);
            let is_flag = |f: &&str| f.chars().all(|c| c.is_ascii_lowercase() || c == '-');
            options.extend(flag.filter(is_flag).map(|flag| format!("{tool} --{flag}")));
        }
    }
    options.sort();
    options.dedup();
    assert!(options.len() >= 40, "the scan found only {} options: {options:?}", options.len());

    let design = read(&root.join("DESIGN.md"));
    let table: Vec<&str> = design
        .lines()
        .skip_while(|line| !line.starts_with("| option | where |"))
        .take_while(|line| line.starts_with('|'))
        // The row of a deleted option keeps nothing alive.
        .filter(|line| !line.contains("**deleted**"))
        .collect();
    assert!(table.len() > 2, "DESIGN.md §17 has no `| option | where | …` table");
    let table = table.join("\n");
    let missing: Vec<&String> =
        options.iter().filter(|option| !table.contains(&format!("`{option}`"))).collect();
    assert!(
        missing.is_empty(),
        "options with no row in the census of DESIGN.md §17 (write the row, with the \
         non-test caller that needs a second value — or delete the option): {missing:?}"
    );
}
