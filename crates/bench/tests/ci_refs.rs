//! CI cannot dangle. Nobody here can run GitHub Actions, so what the
//! workflows, the regenerate script and the verify notes name — binaries,
//! benches, test targets, examples, files under `ci/`, `repro` experiments
//! and flags — is checked against the tree instead. The same goes for the
//! options census of TRIALS.md, the substrate crates' `pub` surface, every
//! manifest's dependencies, the code names DESIGN.md points at and the
//! locked or hashed fields of `Machine`: nobody re-counts them by hand, so
//! the tree is read.

use std::collections::HashSet;
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

/// The words of `text`, with a "\n" closing each line: a flag that ends a
/// line (`-- --test`) takes no argument.
fn command_words(text: &str) -> Vec<&str> {
    text.lines()
        .flat_map(|line| line.split_whitespace().chain(["\n"]))
        .flat_map(|w| w.split(['`', '\'', '"', '(', ')']))
        .map(|w| w.trim_end_matches(['.', ',', ';', ':']))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The argument of every `flag` in `words` that takes one.
fn after<'a>(words: &'a [&'a str], flag: &'static str) -> impl Iterator<Item = &'a str> {
    let takes_arg = move |pair: &&[&str]| pair[0] == flag && pair[1] != "\n";
    words.windows(2).filter(takes_arg).map(|pair| pair[1])
}

#[test]
fn every_named_binary_test_and_ci_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &str| std::fs::read_to_string(root.join(path));
    let bin_source = |bin: &str| read(&format!("crates/bench/src/bin/{bin}.rs"));
    let pamibench = read("benchmark/Cargo.toml").expect("benchmark/Cargo.toml");
    let crates: Vec<_> = entries(&root.join("crates")).into_iter().chain([root.clone()]).collect();
    let mut ci_examples = Vec::new();
    for file in FILES {
        let text = read(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        let words = command_words(&text);
        let run_directly =
            words.iter().filter_map(|w| w.trim_start_matches("./").strip_prefix("target/release/"));
        let bins: Vec<&str> = after(&words, "--bin").chain(run_directly).collect();
        for bin in &bins {
            assert!(
                bin_source(bin).is_ok() || pamibench.contains(&format!("name = \"{bin}\"")),
                "{file} names binary `{bin}`: no crates/bench/src/bin/{bin}.rs"
            );
        }
        for test in after(&words, "--test") {
            assert!(
                crates.iter().any(|dir| dir.join(format!("tests/{test}.rs")).exists()),
                "{file} names test target `{test}`: no crate has tests/{test}.rs"
            );
        }
        for example in after(&words, "--example") {
            assert!(
                root.join(format!("examples/{example}.rs")).exists(),
                "{file} runs example `{example}`: no examples/{example}.rs"
            );
            if file == ".github/workflows/ci.yml" {
                ci_examples.push(example.to_string());
            }
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
    // An example is compiled by `cargo test`; CI also runs every one.
    for path in entries(&root.join("examples")) {
        if path.extension().is_some_and(|ext| ext == "rs") {
            let example = path.file_stem().expect("example file").to_string_lossy();
            assert!(
                ci_examples.iter().any(|run| *run == example),
                "examples/{example}.rs: no `cargo run --example {example}` step in ci.yml"
            );
        }
    }
}

/// `--bench <name>` in the four files above, README.md or EXPERIMENTS.md
/// is a `[[bench]]` target of `crates/bench/Cargo.toml`, so a deleted bench
/// cannot stay advertised.
#[test]
fn every_named_bench_is_a_bench_target() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &str| {
        std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let manifest = read("crates/bench/Cargo.toml");
    let stanzas = manifest.split("[[bench]]\nname = \"").skip(1);
    let targets: Vec<&str> = stanzas.filter_map(|rest| Some(rest.split_once('"')?.0)).collect();
    assert!(!targets.is_empty(), "crates/bench/Cargo.toml has no [[bench]] target");
    for file in FILES.into_iter().chain(["README.md", "EXPERIMENTS.md"]) {
        for bench in after(&command_words(&read(file)), "--bench") {
            assert!(
                targets.contains(&bench),
                "{file} names `--bench {bench}`: not a [[bench]] of crates/bench/Cargo.toml \
                 ({targets:?})"
            );
        }
    }
}

/// `repro <experiment>`: wherever a command names one — the four files
/// above, README.md, DESIGN.md, the fenced blocks of EXPERIMENTS.md — the
/// experiment is an arm of `repro.rs`'s `match`, and every `--flag` after
/// it is one `repro.rs` parses. Removing or renaming either cannot leave
/// the regenerate script or "Reproducing this file" dangling.
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
        .chain(["README.md", "DESIGN.md"])
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
                // The arguments run to a pipe. `[--a|--b]` offers two flags,
                // and a bare `--` is cargo's separator.
                let args: Vec<&str> = words.by_ref().take_while(|arg| *arg != "|").collect();
                let flags = args.iter().flat_map(|arg| arg.trim_matches(['[', ']']).split('|'));
                for flag in flags.filter(|flag| flag.starts_with("--") && flag.len() > 2) {
                    assert!(
                        source.contains(&format!("\"{flag}\"")),
                        "{file} passes `repro {flag}`: repro.rs parses no such flag"
                    );
                }
                // The experiment is the first argument that is neither a
                // flag nor a `<placeholder>`.
                let experiment = args
                    .into_iter()
                    .find(|arg| !arg.starts_with("--") && !arg.starts_with(['<', '[']));
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
/// tool flags — has a row in the options table of TRIALS.md, which
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

    let trials = read(&root.join("TRIALS.md"));
    let table: Vec<&str> = trials
        .lines()
        .skip_while(|line| !line.starts_with("| option | where |"))
        .take_while(|line| line.starts_with('|'))
        // The row of a deleted option keeps nothing alive.
        .filter(|line| !line.contains("**deleted**"))
        .collect();
    assert!(table.len() > 2, "TRIALS.md has no `| option | where | …` table");
    let table = table.join("\n");
    let missing: Vec<&String> =
        options.iter().filter(|option| !table.contains(&format!("`{option}`"))).collect();
    assert!(
        missing.is_empty(),
        "options with no row in the census of TRIALS.md (write the row, with the \
         non-test caller that needs a second value — or delete the option): {missing:?}"
    );
}

/// The crates below the `pami` / `pami-mpi` façade.
const SUBSTRATE: [&str; 7] =
    ["bgq-hw", "bgq-mu", "bgq-torus", "bgq-collnet", "netsim", "upc", "bgq-scale"];

/// Substrate `pub` items that nothing outside their crate names, and why
/// each stays `pub` all the same.
const SURFACE_ALLOWLIST: [(&str, &str); 3] = [
    (
        "update_portable",
        "bgq-hw's reference CRC-32C kernel: tests/properties.rs holds the CPU kernel to it \
         at every alignment and split, on hosts that never dispatch to it",
    ),
    (
        "bfs_order",
        "a spanning tree's member order: bgq-torus's tests/properties.rs checks through it that \
         every tree kind covers its rectangle",
    ),
    (
        "trace_events",
        "the merged trace timeline: tests/telemetry.rs checks the trace ring's drop-oldest \
         wraparound and cross-thread merge through it",
    ),
];

/// Every `.rs` file under `dir`, build output skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in entries(dir) {
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// One `pub` item of a substrate crate's `src/`.
struct PubItem {
    name: String,
    at: String,
    is_type: bool,
}

/// The `pub` items `text` declares outside its test modules, and the
/// signatures that can reach a type without naming it: each `pub fn`'s,
/// keyed by the fn, and each iterator's `type Item`, keyed by the type the
/// impl is for.
fn pub_surface(path: &Path, text: &str) -> (Vec<PubItem>, Vec<(String, String)>) {
    let lines: Vec<&str> = text.lines().collect();
    let (mut items, mut signatures, mut impl_for) = (Vec::new(), Vec::new(), String::new());
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        let at = format!("{}:{}", path.display(), i + 1);
        // The declaration starting here, up to its body or its `;`.
        let head = || {
            let rest = lines[i..lines.len().min(i + 12)].join("\n");
            rest[..rest.find(['{', ';']).unwrap_or(rest.len())].to_string()
        };
        if lines[i] == "#[cfg(test)]" {
            // A test module: skip to its closing brace.
            i += lines[i..].iter().position(|l| *l == "}").unwrap_or(0);
        } else if line.starts_with("impl") {
            let words: Vec<String> = idents(&head()).map(str::to_string).collect();
            impl_for = words.iter().skip_while(|w| *w != "for").nth(1).cloned().unwrap_or_default();
        } else if line.starts_with("type Item ") {
            signatures.push((impl_for.clone(), head()));
        } else if line.starts_with("pub use ") {
            for part in head().split(['{', '}', ',']).map(str::trim) {
                let leaf = part.rsplit(" as ").next().unwrap().rsplit("::").next().unwrap();
                if !["", "self", "*"].contains(&leaf) {
                    items.push(PubItem { name: leaf.to_string(), at: at.clone(), is_type: false });
                }
            }
        } else if line.starts_with("pub ") {
            let head = head();
            let mut words = idents(&head).skip(1).skip_while(|w| ["unsafe", "async"].contains(w));
            let mut kind = words.next().unwrap_or("");
            if kind == "const" && head.contains("const fn") {
                kind = words.next().unwrap_or("");
            }
            let name = words.next().unwrap_or("").to_string();
            if kind == "fn" {
                signatures.push((name.clone(), head.clone()));
            }
            // A type alias is expanded where it is used, so no signature
            // needs it `pub`.
            let is_type = ["struct", "enum", "trait", "union"].contains(&kind);
            if is_type || ["fn", "const", "static", "mod", "type"].contains(&kind) {
                items.push(PubItem { name, at, is_type });
            }
        }
        i += 1;
    }
    (items, signatures)
}

/// rustc cannot call a `pub` item dead, so a substrate crate's `pub` surface
/// is held here instead. Every `pub` fn, method, const, static, type, trait,
/// module and re-export in a substrate crate's `src/` (test modules aside)
/// is named by some `.rs` file outside that crate — another crate, `src/`,
/// `tests/`, `examples/`, `benchmark/`; the crate's own `tests/` and
/// `benches/` do not count — or has a row in [`SURFACE_ALLOWLIST`]. A
/// struct, enum, trait or union also passes when a signature that passes
/// names it (a `pub fn`'s, or an iterator's `type Item`): rustc's
/// `private_interfaces` lint would refuse to narrow it. Anything else is
/// narrowed to `pub(crate)`, and `dead_code` then says whether it is needed
/// at all.
#[test]
fn substrate_surface_census() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark"] {
        rust_files(&root.join(dir), &mut files);
    }
    // This file names the allowlist's rows; that keeps nothing alive.
    files.retain(|path| !path.ends_with("crates/bench/tests/ci_refs.rs"));
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable source");
            (path.strip_prefix(&root).expect("under the root").to_path_buf(), text)
        })
        .collect();
    let allowed = |name: &str| SURFACE_ALLOWLIST.iter().any(|(row, _)| *row == name);
    let (mut scanned, mut missing, mut rows) = (0, Vec::new(), HashSet::new());
    for krate in SUBSTRATE {
        let home = Path::new("crates").join(krate);
        let outside: HashSet<&str> = sources
            .iter()
            .filter(|(path, _)| !path.starts_with(&home))
            .flat_map(|(_, text)| idents(text))
            .collect();
        let named = |name: &str| outside.contains(name) || allowed(name);
        let (mut items, mut signatures) = (Vec::new(), Vec::new());
        for (path, text) in sources.iter().filter(|(path, _)| path.starts_with(home.join("src"))) {
            let (declared, reaching) = pub_surface(path, text);
            items.extend(declared);
            signatures.extend(reaching);
        }
        let reached = |ty: &str| {
            signatures.iter().any(|(key, sig)| named(key) && idents(sig).any(|w| w == ty))
        };
        for item in &items {
            let kept = named(&item.name) || (item.is_type && reached(&item.name));
            if !kept {
                missing.push(format!("{krate}: `{}` ({})", item.name, item.at));
            }
            if allowed(&item.name) && !outside.contains(item.name.as_str()) {
                rows.insert(item.name.clone());
            }
        }
        scanned += items.len();
    }
    assert!(scanned > 300, "the scan found only {scanned} substrate `pub` items");
    for (row, _) in SURFACE_ALLOWLIST {
        let why = "no such item, or named outside its crate";
        assert!(rows.contains(row), "SURFACE_ALLOWLIST row `{row}`: {why}");
    }
    assert!(
        missing.is_empty(),
        "substrate `pub` items that nothing outside their crate names (narrow each to \
         `pub(crate)` and let `dead_code` judge it, or give it a row with a reason in \
         SURFACE_ALLOWLIST):\n{}",
        missing.join("\n")
    );
}

/// Names DESIGN.md keeps as history, and the change that removed each
/// from the tree.
const RETIRED_NAMES: [(&str, &str); 26] = [
    ("put_raw", "tuple-taking put shim, deprecated for one PR, deleted with aggregation"),
    ("get_raw", "tuple-taking get shim, deprecated for one PR, deleted with aggregation"),
    ("read_vec", "`MemRegion::read_vec`, deleted in ISSUE 15 with its last caller"),
    ("with_flag", "`RequestInner::with_flag`, folded into `armed(credit)` in ISSUE 15"),
    ("with_counter", "`RequestInner::with_counter`, folded into `armed(credit)` in ISSUE 15"),
    ("scaling_gate", "`msgrate`'s multi-context gate, retired with `msgrate` in ISSUE 17"),
    ("multi_context_rate", "a `scaling_gate` operand, retired with `msgrate` in ISSUE 17"),
    ("single_context_rate", "a `scaling_gate` operand, retired with `msgrate` in ISSUE 17"),
    ("short_rate", "a `short_gate` operand, retired with `msgrate` in ISSUE 17"),
    ("alloc_budget", "`crates/mpi/tests/alloc_budget.rs`, moved into `counts.rs` in ISSUE 17"),
    ("win_key", "the window key that picked the rmw lock stripe, dropped in ISSUE 20"),
    ("register_standby", "endpoint failover's standby registration, deleted with failover"),
    ("resolve_task", "endpoint failover's per-send task remap, deleted with failover"),
    ("failover_generation", "endpoint failover's remap generation, deleted with failover"),
    ("measure_failover_drain", "the kill-a-node failover drill, deleted with failover"),
    ("eager_limit", "`MachineBuilder::eager_limit`, deleted with `repro table3`'s measured arms"),
    ("deliver_body", "per-frame delivery, replaced by `deliver_frames` and the message queue"),
    ("whole_body", "a one-sided descriptor as a frame body, replaced by `delivery_of`"),
    ("split_payload", "a put's head/tail split, deleted with the per-frame frame bodies"),
    ("fail_body", "a frame body's counter failure, folded into `Message::fail`"),
    ("inject_handle", "queued a descriptor on an injection FIFO; `MuFabric::inject` executes it"),
    ("pump_inj_handle", "drained an injection FIFO in `advance`; nothing is queued any more"),
    ("execute_now", "the node-lane bypass for channel traffic, folded into `MuFabric::inject`"),
    ("sync_to", "inferred the receive cursor from the queue front; the channel's one lock moves it"),
    ("sys_fifo", "a node's queue of put-backs for its `advance`; a get is served as it arrives"),
    ("pump_sys", "ran the system FIFO's put-backs in `advance`; deleted with the queue"),
];

/// Every backticked lowercase name with an `_` in DESIGN.md — a code span
/// split into identifiers, so `Machine::task_node` checks
/// `task_node` — is a word of some `.rs`, `.toml`, `.yml` or `.sh` file
/// of the tree (`vendor/` and build output aside), a file stem, or a
/// [`RETIRED_NAMES`] row. A rename or a deletion cannot leave the design
/// document pointing at nothing, and a row cannot outlive its mention.
#[test]
fn design_names_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut pending, mut known) = (entries(&root), HashSet::new());
    while let Some(path) = pending.pop() {
        let name = path.file_name().expect("entry name").to_string_lossy();
        if path.is_dir() {
            if !["target", "vendor", ".git"].contains(&name.as_ref()) {
                pending.extend(entries(&path));
            }
            continue;
        }
        known.extend(path.file_stem().map(|stem| stem.to_string_lossy().into_owned()));
        let ext = path.extension().map(|ext| ext.to_string_lossy());
        if ext.is_some_and(|ext| ["rs", "toml", "yml", "sh"].contains(&ext.as_ref())) {
            let mut text = std::fs::read_to_string(&path).unwrap_or_default();
            if path.ends_with("crates/bench/tests/ci_refs.rs") {
                // This file names the allowlist's rows; that keeps nothing alive.
                let rows = text.find("const RETIRED_NAMES").expect("the allowlist");
                let end = rows + text[rows..].find("];").expect("the allowlist's end");
                text.replace_range(rows..end, "");
            }
            known.extend(idents(&text).map(str::to_string));
        }
    }
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let spans = design.split('`').skip(1).step_by(2);
    let named: std::collections::BTreeSet<&str> = spans
        .flat_map(idents)
        .filter(|word| word.contains('_') && !word.chars().any(char::is_uppercase))
        .collect();
    assert!(named.len() > 150, "the scan found only {} names in DESIGN.md", named.len());
    for (row, _) in RETIRED_NAMES {
        assert!(
            named.contains(row) && !known.contains(row),
            "RETIRED_NAMES row `{row}`: DESIGN.md no longer names it, or the tree still does"
        );
    }
    let retired = |name: &&str| RETIRED_NAMES.iter().any(|(row, _)| row == name);
    let dangling: Vec<&str> =
        named.into_iter().filter(|name| !known.contains(*name) && !retired(name)).collect();
    assert!(
        dangling.is_empty(),
        "DESIGN.md names what the tree does not (fix the pointer, or give a removed name a \
         RETIRED_NAMES row saying which change removed it): {dangling:?}"
    );
}

/// Fields of `struct Machine`, and of the `machine.rs` structs its fields
/// name (as `field.subfield`), that hold a lock or a hash map, and why
/// each is off the message path of a context.
const MACHINE_SHARED_STATE: [(&str, &str); 4] = [
    ("clients", "client creation only: each context then holds its client's endpoint table"),
    ("link_pump", "per node, and `advance` skips it while the node's links are idle"),
    (
        "geometries",
        "set-up only: `Geometry::create` looks a geometry up once per member and forgets the \
         dead ones; the members' handles own each geometry, and no message reaches it",
    ),
    ("init_fence", "set-up barrier: `task_barrier` parks threads before communication"),
];

/// `(name, type)` of every field of `struct {name}` in `text`, `None` when
/// `text` declares no such struct.
fn struct_fields<'a>(text: &'a str, name: &str) -> Option<Vec<(&'a str, &'a str)>> {
    let start = text.find(&format!("struct {name} {{"))?;
    let body = &text[start..start + text[start..].find("\n}\n").expect("its closing brace")];
    let fields = body
        .lines()
        .skip(1)
        .map(str::trim)
        .filter(|line| !line.starts_with("//"))
        .filter_map(|line| line.split_once(": "))
        .map(|(name, ty)| (name.rsplit(' ').next().expect("field name"), ty))
        .collect();
    Some(fields)
}

/// ROADMAP item 2: a context consults no machine-wide lock or hash on its
/// message path. Every field of `struct Machine` whose type names `Mutex<`,
/// `RwLock<` or `HashMap<` has a [`MACHINE_SHARED_STATE`] row saying why it
/// is off that path, and every row names such a field. A field whose type
/// names a struct `machine.rs` declares is looked into as well, one level
/// down, so a lock cannot hide inside a `Vec<…>` or an `Arc<…>` of one.
/// This holds the structure; how often a run takes each lock is not
/// counted here.
#[test]
fn machine_shared_state_census() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("crates/core/src/machine.rs")).expect("machine.rs");
    let fields = struct_fields(&text, "Machine").expect("struct Machine");
    assert_eq!(fields.len(), 15, "the scan found {} fields of `Machine`", fields.len());
    let locked = |ty: &str| ["Mutex<", "RwLock<", "HashMap<"].iter().any(|g| ty.contains(g));
    let mut guarded: Vec<String> = Vec::new();
    let mut inner_structs = 0;
    for (name, ty) in &fields {
        if locked(ty) {
            guarded.push(name.to_string());
        }
        for inner in ty.split(|c: char| !c.is_alphanumeric() && c != '_') {
            let Some(subfields) = struct_fields(&text, inner) else { continue };
            inner_structs += 1;
            let inner_guarded = subfields.iter().filter(|(_, ty)| locked(ty));
            guarded.extend(inner_guarded.map(|(sub, _)| format!("{name}.{sub}")));
        }
    }
    assert_eq!(inner_structs, 2, "the scan looked inside {inner_structs} structs");
    for (row, _) in MACHINE_SHARED_STATE {
        assert!(
            guarded.iter().any(|name| name == row),
            "MACHINE_SHARED_STATE row `{row}`: `Machine` has no such locked or hashed field"
        );
    }
    let unexplained: Vec<&str> = guarded
        .iter()
        .map(String::as_str)
        .filter(|name| MACHINE_SHARED_STATE.iter().all(|(row, _)| row != name))
        .collect();
    assert!(
        unexplained.is_empty(),
        "`Machine` fields behind a lock or a hash with no MACHINE_SHARED_STATE row (keep the \
         state off the message path and write the row, or give it a lock-free shape): \
         {unexplained:?}"
    );
}

/// Whether `line` shifts left an operand named `seq` or `…_seq`, bare,
/// parenthesized or cast.
fn shifts_seq(line: &str) -> bool {
    line.match_indices("<<").any(|(at, _)| {
        let operand = line[..at].trim_end().trim_end_matches(')').trim_end();
        let operand = match operand.rsplit_once(" as ") {
            Some((value, ty)) if ty.chars().all(|c| c.is_alphanumeric()) => value,
            _ => operand,
        };
        let name = operand.rsplit(|c: char| !(c.is_alphanumeric() || c == '_')).next();
        name.is_some_and(|name| name == "seq" || name.ends_with("_seq"))
    })
}

/// A software collective's tag has one layout, written once in
/// `pami::coll::tag` with the sequence number, class and step in bits of
/// their own. Packed by hand, the ring allgather's step 64 once ran into
/// the class field and matched step 0's tag. No source outside that
/// function shifts a sequence number.
#[test]
fn one_constructor_builds_every_collective_tag() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let (mut inside, mut outside) = (0, Vec::new());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable source");
        let at = path.strip_prefix(&root).expect("under the root").display().to_string();
        let mut in_tag = false;
        for (i, line) in text.lines().enumerate() {
            if at.ends_with("core/src/coll/mod.rs") && line.starts_with("pub fn tag(") {
                in_tag = true;
            }
            if shifts_seq(line) {
                if in_tag {
                    inside += 1;
                } else {
                    outside.push(format!("{at}:{}", i + 1));
                }
            }
            in_tag &= line != "}";
        }
    }
    assert!(
        outside.is_empty(),
        "sequence numbers shifted outside `pami::coll::tag` (build the tag with it): {outside:?}"
    );
    assert_eq!(inside, 1, "the scan found {inside} sequence shifts inside `pami::coll::tag`");
}

/// Manifest dependencies that no source of their crate names, and why each
/// stays: every row lies inside `pamibench`'s dependency graph, so pruning it
/// rewrites `benchmark/Cargo.lock`, which changes only with `benchmark/`.
const DEPENDENCY_ALLOWLIST: [(&str, &str, &str); 6] = [
    ("bgq-collnet", "crossbeam", "pamibench → pami → bgq-collnet"),
    ("bgq-mu", "crossbeam", "pamibench → bgq-mu"),
    ("bgq-torus", "crossbeam", "pamibench → bgq-torus"),
    ("bgq-torus", "parking_lot", "pamibench → bgq-torus"),
    ("pami", "crossbeam", "pamibench → pami"),
    ("pami-mpi", "crossbeam", "pamibench → pami-mpi"),
];

/// Every dependency a workspace manifest declares is named by some `.rs`
/// file of that crate's `src/`, `tests/`, `benches/` or `examples/`, or is
/// forwarded to by one of its `[features]` (as `"bgq-mu/telemetry"` keeps
/// `bench`'s `bgq-mu`), or has a row in [`DEPENDENCY_ALLOWLIST`]. An edge
/// nothing uses costs build time and misstates what the crate needs.
#[test]
fn every_dependency_is_named() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut edges, mut unnamed) = (0, Vec::new());
    for dir in entries(&root.join("crates")).into_iter().chain([root.clone()]) {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
        let package = manifest.lines().find_map(|line| line.strip_prefix("name = \""));
        let package = package.and_then(|name| name.split_once('"')).expect("package name").0;
        let (mut section, mut deps, mut forwarded) = ("", Vec::new(), HashSet::new());
        for line in manifest.lines() {
            if line.starts_with('[') {
                section = line;
            } else if section.ends_with("dependencies]") && !section.contains("workspace") {
                let key = line.split(['.', ' ', '=']).next().unwrap_or("");
                deps.extend(Some(key).filter(|key| !key.is_empty() && !key.starts_with('#')));
            } else if section == "[features]" {
                for quoted in line.split('"').skip(1).step_by(2) {
                    forwarded.extend(quoted.trim_start_matches("dep:").split(['/', '?']).next());
                }
            }
        }
        let mut files = Vec::new();
        for sub in ["src", "tests", "benches", "examples"].map(|sub| dir.join(sub)) {
            if sub.is_dir() {
                rust_files(&sub, &mut files);
            }
        }
        // This file names the allowlist's rows; that keeps nothing alive.
        files.retain(|path| !path.ends_with("crates/bench/tests/ci_refs.rs"));
        let texts: Vec<String> = files.iter().map(|f| std::fs::read_to_string(f).unwrap()).collect();
        let named: HashSet<&str> = texts.iter().flat_map(|text| idents(text)).collect();
        edges += deps.len();
        let used = |dep: &&str| named.contains(dep.replace('-', "_").as_str()) || forwarded.contains(dep);
        unnamed.extend(deps.into_iter().filter(|dep| !used(dep)).map(|dep| format!("{package}: {dep}")));
    }
    assert!(edges > 40, "the scan found only {edges} manifest dependencies");
    for (krate, dep, _) in DEPENDENCY_ALLOWLIST {
        let row = format!("{krate}: {dep}");
        assert!(unnamed.contains(&row), "DEPENDENCY_ALLOWLIST row `{row}`: no such edge, or named");
        unnamed.retain(|edge| *edge != row);
    }
    assert!(
        unnamed.is_empty(),
        "manifest dependencies that no source of their crate names (delete the edge, or give \
         it a row with a reason in DEPENDENCY_ALLOWLIST):\n{}",
        unnamed.join("\n")
    );
}
