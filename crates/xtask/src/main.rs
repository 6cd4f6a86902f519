//! `cargo xtask` — dependency-free static checks for the ERIS tree.
//!
//! Two passes share one lexer (`lexer.rs`), one item parser
//! (`parser.rs`) and one violation/self-check machinery:
//!
//! * `cargo xtask lint [--self-check]` — the per-line discipline rules
//!   R1–R5 (ordering comments, no locks on hot paths, unsafe
//!   allowlist, eris-sync facade, deny(unsafe_op_in_unsafe_fn)); see
//!   `lint.rs`.
//! * `cargo xtask analyze [--self-check]` — the transitive rules A1–A4
//!   (panic-freedom, allocation-freedom, ordering pairing, no blocking
//!   calls) over a conservative call graph rooted at `HOT-PATH-ROOT`
//!   annotations; see `analyze.rs` and `graph.rs`.
//!
//! Neither pass is a verifier: loom (see `shims/loom`) explores
//! interleavings, Miri and TSan catch undefined behaviour, and these
//! tools keep the source reviewable — every ordering choice justified
//! and paired, every unsafe block argued, every panic/allocation/lock
//! provably absent from (or explicitly argued on) the latch-free paths.
//! `--self-check` runs each pass against seeded violations in
//! `crates/xtask/fixtures` and fails unless every rule fires with the
//! exact seeded count, so a refactor that neuters or over-fires a rule
//! cannot land silently.

mod analyze;
mod graph;
mod lexer;
mod lint;
mod parser;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How many lines above a flagged line a justifying comment may sit.
const LOOKBACK: usize = 10;

/// Hot-path modules: the latch-free structures and the counters updated
/// per command.  R1, R2, and the A3 pairing audit apply here.
const HOT_PATHS: &[&str] = &[
    "crates/core/src/routing/incoming.rs",
    "crates/core/src/routing/outgoing.rs",
    "crates/core/src/routing/mod.rs",
    "crates/core/src/aeu.rs",
    "crates/core/src/telemetry.rs",
    "crates/obs/src/ring.rs",
    "crates/obs/src/latency.rs",
    "crates/obs/src/exemplar.rs",
    "crates/server/src/admission.rs",
];

/// Hot-path files allowed to hold a lock, with the reason reviewers
/// accepted.  Everything here is control-plane: never per-command.
/// Shared by R2 (textual) and A4 (transitive).
const LOCK_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/core/src/routing/mod.rs",
        "RwLock guards partition-table reconfiguration; lookups on the \
         command path read under a shared guard that is uncontended \
         outside rebalancing",
    ),
    (
        "crates/core/src/telemetry.rs",
        "RwLock guards object-counter registration (engine start-up); \
         per-command bumps go through relaxed atomics",
    ),
    (
        "crates/obs/src/latency.rs",
        "Mutex guards the latency-series map on the reporting path; the \
         record hot path only touches relaxed counters",
    ),
    (
        "crates/index/src/shared_tree.rs",
        "Mutex guards arena segment installation, taken only on the \
         first allocation in each 64Ki-node segment; the per-node fast \
         path is a fetch_add plus an Acquire null check",
    ),
];

/// Files allowed to contain `unsafe`.  Everything else must stay safe.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/column/src/simd.rs",
    "crates/core/src/routing/incoming.rs",
    // The crate's one prefetch hint (hash probe + prefix-tree descent).
    "crates/index/src/prefetch.rs",
    "crates/index/src/shared_tree.rs",
    "crates/numa/src/affinity.rs",
    "crates/obs/src/exemplar.rs",
    "crates/obs/src/ring.rs",
    // The loom shim's own checker test builds deliberately racy cells
    // to prove the model catches them; every site is argued.
    "shims/loom/tests/model_checker.rs",
];

/// Modules ported onto the `eris-sync` facade: direct std primitives
/// here would silently escape loom model checking (R4).
const PORTED_FILES: &[&str] = &[
    "crates/core/src/routing/incoming.rs",
    "crates/obs/src/exemplar.rs",
    "crates/obs/src/ring.rs",
];

const R4_FORBIDDEN: &[&str] = &[
    "std::sync::atomic",
    "std::cell::UnsafeCell",
    "std::hint::spin_loop",
];

/// The call-graph universe: library crates only.  `bench`, `tests` and
/// `xtask` host harness code that legitimately panics and allocates;
/// the shims are test-only stand-ins for external crates (loom's own
/// `lock`/`store` impls must not swallow resolution of those names).
const GRAPH_CRATES: &[&str] = &[
    "crates/column",
    "crates/core",
    "crates/durability",
    "crates/index",
    "crates/mem",
    "crates/numa",
    "crates/obs",
    "crates/query",
    "crates/server",
    "crates/sync",
    "crates/workloads",
];

pub struct Violation {
    pub rule: &'static str,
    pub file: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule,
            self.file.display(),
            self.line,
            self.message
        )
    }
}

/// Which per-file rules to run and with what file classification.  The
/// real tree and the self-check fixtures share every code path.
pub struct Config {
    pub hot_paths: Vec<PathBuf>,
    pub lock_allowlist: Vec<PathBuf>,
    pub unsafe_allowlist: Vec<PathBuf>,
    pub ported_files: Vec<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    let self_check = args.iter().any(|a| a == "--self-check");
    match args.first().map(String::as_str) {
        Some("lint") => {
            if self_check {
                run_self_check(&root)
            } else {
                run_lint(&root)
            }
        }
        Some("analyze") => {
            if self_check {
                analyze::run_analyze_self_check(&root)
            } else {
                analyze::run_analyze(&root)
            }
        }
        _ => {
            eprintln!("usage: cargo xtask <lint|analyze> [--self-check]");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: xtask always runs via `cargo xtask`, so
/// CARGO_MANIFEST_DIR is `<root>/crates/xtask`.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

fn run_lint(root: &Path) -> ExitCode {
    let config = Config {
        hot_paths: HOT_PATHS.iter().map(|p| root.join(p)).collect(),
        lock_allowlist: LOCK_ALLOWLIST.iter().map(|(p, _)| root.join(p)).collect(),
        unsafe_allowlist: UNSAFE_ALLOWLIST.iter().map(|p| root.join(p)).collect(),
        ported_files: PORTED_FILES.iter().map(|p| root.join(p)).collect(),
    };
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    // The loom shim is protocol-adjacent (the model checker the ported
    // files run under), so it is linted like first-party code.
    collect_rs_files(&root.join("shims/loom"), &mut files);
    files.sort();
    let mut violations = Vec::new();
    for file in &files {
        lint::lint_file(file, &config, &mut violations);
    }
    lint::lint_crate_attrs(root, &mut violations);
    if violations.is_empty() {
        println!("invariant lint: {} files clean ({} rules)", files.len(), 5);
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("invariant lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Prove the rules still bite: every rule must fire on the seeded
/// fixtures, and the fixture violations must be *exactly* the seeded
/// ones (`// seed:` manifest lines inside the fixtures).
fn run_self_check(root: &Path) -> ExitCode {
    let fixtures = root.join("crates/xtask/fixtures");
    let hot = fixtures.join("hot_path.rs");
    let cold = fixtures.join("cold_path.rs");
    let fake_lib = fixtures.join("fake_crate/src/lib.rs");
    let config = Config {
        hot_paths: vec![hot.clone()],
        lock_allowlist: vec![],
        unsafe_allowlist: vec![hot.clone()],
        ported_files: vec![hot.clone()],
    };
    let mut violations = Vec::new();
    for file in [&hot, &cold, &fake_lib] {
        lint::lint_file(file, &config, &mut violations);
    }
    // R5 on the fixture crate: it contains unsafe but no deny attribute.
    lint::check_crate_deny_attr(&fixtures.join("fake_crate"), &mut violations);

    let mut failed = false;
    for rule in ["R1", "R2", "R3", "R4", "R5"] {
        let n = violations.iter().filter(|v| v.rule == rule).count();
        let seeded = seeded_count(rule, &[&hot, &cold, &fake_lib]);
        if n == seeded && n > 0 {
            println!("self-check {rule}: {n}/{seeded} seeded violations caught");
        } else {
            eprintln!(
                "self-check {rule}: caught {n}, seeded {seeded} — rule is \
                 {}",
                if n == 0 { "dead" } else { "miscounting" }
            );
            failed = true;
        }
    }
    if failed {
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    } else {
        println!("self-check: all rules fire on the seeded fixtures");
        ExitCode::SUCCESS
    }
}

/// Fixtures carry a manifest of their own seeded violations as
/// `// seed: R<N>`/`// seed: A<N>` lines, one per expected hit, so the
/// expected counts live next to the code that triggers them.
pub fn seeded_count(rule: &str, files: &[&PathBuf]) -> usize {
    files
        .iter()
        .filter_map(|f| std::fs::read_to_string(f).ok())
        .flat_map(|text| {
            text.lines()
                .filter(|l| l.trim_start().starts_with("// seed: "))
                .filter_map(|l| {
                    l.trim_start()["// seed: ".len()..]
                        .split_whitespace()
                        .next()
                        .map(str::to_string)
                })
                .collect::<Vec<_>>()
        })
        .filter(|r| r == rule)
        .count()
}

pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // The seeded-violation fixtures are linted only by
            // --self-check, and generated build output is not source.
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
