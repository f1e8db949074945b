//! CI cannot dangle. Nobody here can run GitHub Actions, so what the
//! workflows, the regenerate script and the verify notes name — binaries,
//! test targets, files under `ci/`, `repro` experiments — is checked
//! against the tree instead.

use std::path::Path;

const FILES: [&str; 4] = [
    ".github/workflows/ci.yml",
    ".github/workflows/nightly-chaos.yml",
    "scripts/regenerate.sh",
    ".claude/skills/verify/SKILL.md",
];

#[test]
fn every_named_binary_test_and_ci_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &str| std::fs::read_to_string(root.join(path));
    let bin_source = |bin: &str| read(&format!("crates/bench/src/bin/{bin}.rs"));
    let pamibench = read("benchmark/Cargo.toml").expect("benchmark/Cargo.toml");
    let crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("crates/ entry").path())
        .chain([root.clone()])
        .collect();
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
