//! CI cannot dangle. Nobody here can run GitHub Actions, so what the
//! workflows, the regenerate script and the verify notes name — binaries,
//! test targets, files under `ci/` — is checked against the tree instead.

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
