//! The documents say what the program prints, and name files and modules
//! that exist.
//!
//! `README.md` and `docs/PAPER_MAP.md` quote counts a reader can
//! reproduce with one `nbc` command. Each such number is a row below: the
//! document, the command line, the fragment the command prints, and the
//! fragment the document prints. Both fragments must be found, so a count
//! that moves in the program or is edited in the document fails here
//! instead of drifting. A number no command prints (a wall-clock figure)
//! cites its EXPERIMENTS table instead, and is not checked.
//!
//! The second test reads every repository path README, DESIGN,
//! EXPERIMENTS and `docs/PAPER_MAP.md` name under `crates/`, `tests/`,
//! `specs/`, `examples/` or `docs/`, and checks that it exists, so a
//! moved or deleted file cannot leave a stale pointer behind. The third
//! does the same for the `crate::module` paths they name (`core::reach`,
//! `simnet::net`). The last checks that README's library example is the
//! crate-doc example of `src/lib.rs`, which `cargo test` compiles and runs.

use std::path::Path;

/// `(document, argv, printed by the command, printed by the document)`.
/// The command's stdout and stderr are searched together, since a refused
/// line prints its limit on stderr.
const ROWS: &[(&str, &str, &str, &str)] = &[
    (
        README,
        "analyze central-3pc -n 16",
        "reachable state graph: 5114688108 global states",
        "5 114 688 108 global states",
    ),
    (
        README,
        "graph central-2pc -n 9",
        "203426 global states",
        "`nbc graph central-2pc -n 9`, 203 426 states",
    ),
    (
        README,
        "analyze central-3pc -n 10",
        "872676 global states",
        "central-3pc -n 10` (872 676 states",
    ),
    (
        README,
        "verify central-3pc -n 10",
        "model-checked 892747548 (global state x survivor subset) cases",
        "892 747 548 cases",
    ),
    (
        README,
        "sweep central-3pc --detector-timeout 2 --seed 7 --json",
        "{\"total\":30,\"consistent\":12,",
        "# 18/30 crash runs inconsistent under Skeen's rule",
    ),
    (
        README,
        "sweep central-3pc --detector-timeout 2 --seed 7 --rule quorum --json",
        "{\"total\":30,\"consistent\":30,",
        "# same storm: 30/30 consistent",
    ),
    (
        README,
        "check central-3pc -n 3",
        "explored: 8 vote plans, 1546 distinct states",
        "# all four oracles, exhaustive, 1 546 states: PASS",
    ),
    (
        README,
        "check paxos:1 -n 2 --votes yyyyy",
        "explored: 1 vote plan, 340 distinct states",
        "340 for `paxos:1`",
    ),
    (
        README,
        "check paxos:1 -n 3",
        "explored: 8 vote plans, 20518 distinct states",
        "20 518 states",
    ),
    (
        PAPER_MAP,
        "check paxos:1 -n 3",
        "explored: 8 vote plans, 20518 distinct states",
        "passes all four oracles (20 518 states, exhaustive)",
    ),
    (
        README,
        "analyze central-2pc -n 65",
        "error: -n 65 is over the limit of 64 sites",
        "`-n` takes 2..=64",
    ),
];

const README: &str = "README.md";
const PAPER_MAP: &str = "docs/PAPER_MAP.md";

/// The documents whose paths and module names are checked.
const DOCS: [&str; 4] = [README, "DESIGN.md", "EXPERIMENTS.md", PAPER_MAP];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn readme_numbers_are_what_the_binary_prints() {
    for &(doc, line, printed, quoted) in ROWS {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let outcome = nbc_cli::run_argv(&argv);
        let output = format!("{}{}", outcome.stdout, outcome.stderr);
        assert!(output.contains(printed), "`nbc {line}` no longer prints {printed:?}:\n{output}");
        assert!(
            read(doc).contains(quoted),
            "{doc} no longer says {quoted:?}, which `nbc {line}` backs"
        );
    }
}

/// Every maximal run of path characters that starts, at a word boundary,
/// with one of the repository's top-level directories.
fn named_paths(text: &str) -> Vec<String> {
    const ROOTS: &[&str] = &["crates/", "tests/", "specs/", "examples/", "docs/"];
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./*".contains(c);
    let mut found = Vec::new();
    for (at, _) in text.char_indices() {
        let rest = &text[at..];
        let boundary = text[..at].chars().next_back().is_none_or(|c| !is_path(c));
        if !boundary || !ROOTS.iter().any(|root| rest.starts_with(root)) {
            continue;
        }
        let end = rest.find(|c: char| !is_path(c)).unwrap_or(rest.len());
        // A sentence's full stop is not part of the path.
        found.push(rest[..end].trim_end_matches('.').to_string());
    }
    found
}

/// Whether `path` names something in the tree. A glob is checked up to
/// the directory of its first `*`: `specs/linear-*.nbc` needs `specs`.
fn exists(root: &Path, path: &str) -> bool {
    let concrete = match path.find('*') {
        Some(star) => &path[..path[..star].rfind('/').unwrap_or(0)],
        None => path,
    };
    root.join(concrete.trim_end_matches('/')).exists()
}

#[test]
fn every_path_the_documents_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for doc in DOCS {
        for path in named_paths(&read(doc)) {
            if !exists(root, &path) {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "the documents name paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_path_scan_reads_what_a_document_writes() {
    let text = "see `crates/core/src/reach/mod.rs`, then tests/golden/. and \
                `specs/linear-*.nbc`; not core/tests/y.rs";
    let named = named_paths(text);
    assert_eq!(named, ["crates/core/src/reach/mod.rs", "tests/golden/", "specs/linear-*.nbc"]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(named.iter().all(|path| exists(root, path)));
    assert!(!exists(root, "specs/no-such-file.nbc"));
}

/// Every `crate::module` a text names, as `(crate directory, module)`: a
/// crate directory under `crates/`, written bare (`core::reach`, not
/// `my_core::reach`, whose second segment may be an item), then `::` and
/// a lower-case name. A role of the umbrella (`model::spec`) is not a
/// crate directory and is not read.
fn named_modules(text: &str) -> Vec<(String, String)> {
    const CRATES: &[&str] = &[
        "bench", "check", "cli", "core", "engine", "obs", "paxos", "pipeline", "simnet", "spec",
        "storage", "txn",
    ];
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = Vec::new();
    for (at, _) in text.match_indices("::") {
        let head = &text[..at];
        let start = head.rfind(|c: char| !is_ident(c)).map_or(0, |i| i + 1);
        let (krate, before) = (&head[start..], head[..start].chars().next_back());
        if !CRATES.contains(&krate) || before == Some(':') {
            continue;
        }
        let tail = &text[at + 2..];
        let module = &tail[..tail.find(|c: char| !is_ident(c)).unwrap_or(tail.len())];
        if module.starts_with(|c: char| c.is_ascii_lowercase()) {
            found.push((krate.to_string(), module.to_string()));
        }
    }
    found
}

/// Whether `module` is a module of the crate in `crates/<krate>`: a file
/// or directory of that name under its `src`, or a `mod` its `lib.rs`
/// declares inline.
fn module_exists(root: &Path, krate: &str, module: &str) -> bool {
    let src = root.join("crates").join(krate).join("src");
    let declared =
        |lib: &str| lib.lines().any(|l| l.trim_start().contains(&format!("mod {module} ")));
    src.join(format!("{module}.rs")).exists()
        || src.join(module).is_dir()
        || std::fs::read_to_string(src.join("lib.rs")).is_ok_and(|lib| declared(&lib))
}

#[test]
fn every_module_the_documents_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for doc in DOCS {
        for (krate, module) in named_modules(&read(doc)) {
            if !module_exists(root, &krate, &module) {
                missing.push(format!("{doc}: {krate}::{module}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "the documents name modules that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_module_scan_reads_what_a_document_writes() {
    let text = "`core::reach::graph`, engine::Runner, my_core::spec, `simnet::partition` \
                model::spec and std::core::mem";
    let named = named_modules(text);
    let pair = |k: &str, m: &str| (k.to_string(), m.to_string());
    assert_eq!(named, [pair("core", "reach"), pair("simnet", "partition")]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(module_exists(root, "core", "reach"));
    assert!(module_exists(root, "paxos", "tests"));
    assert!(!module_exists(root, "simnet", "partition"));
}

/// The lines of the first example in `src/lib.rs`'s crate doc.
fn crate_doc_example() -> Vec<String> {
    read("src/lib.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//!"))
        .map(|line| line.strip_prefix(' ').unwrap_or(line))
        .skip_while(|line| *line != "```")
        .skip(1)
        .take_while(|line| *line != "```")
        .map(str::to_string)
        .collect()
}

#[test]
fn readme_quotes_the_crate_doc_example() {
    let example = crate_doc_example();
    assert!(example.len() > 1, "src/lib.rs has no crate-doc example");
    let block = format!("```rust\n{}\n```\n", example.join("\n"));
    assert!(
        read(README).contains(&block),
        "README no longer quotes src/lib.rs's example:\n{block}"
    );
}
