//! `cargo xtask analyze [--self-check]` — the dependency-free static
//! checker for the ERIS tree.
//!
//! One lexer (`lexer.rs`), one item parser (`parser.rs`) and one
//! conservative call graph (`graph.rs`) feed a single pass
//! (`analyze.rs`): panic-freedom (A1), allocation-freedom (A2) and no
//! blocking (A4) over everything reachable from a `HOT-PATH-ROOT`; the
//! ordering audit (A3) and a file-wide lock ban (A4) on the hot-path
//! files; the `eris-sync` facade (A5) in every file that imports it; and
//! A0 on the checker's own inputs.  What the compiler can check, it
//! checks: the workspace `[lints]` table denies `unsafe_code`,
//! `unsafe_op_in_unsafe_fn` and clippy's `undocumented_unsafe_blocks`,
//! and A0 holds every member to that table.
//!
//! This is not a verifier: loom (see `shims/loom`) explores
//! interleavings, Miri and TSan catch undefined behaviour, and this pass
//! keeps the source reviewable — every ordering choice justified and
//! paired, every panic/allocation/lock provably absent from (or
//! explicitly argued on) the latch-free paths.  `--self-check` runs the
//! pass over the seeded violations in `crates/xtask/fixtures` and fails
//! unless every rule fires with the exact seeded count, so a refactor
//! that neuters or over-fires a rule cannot land silently.

mod analyze;
mod graph;
mod lexer;
mod parser;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How many lines above a flagged line a justifying comment may sit.
const LOOKBACK: usize = 10;

/// Hot-path modules: the latch-free structures and the counters updated
/// per command.  A3 and the file-wide lock ban of A4 apply here.
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
    "crates/server/src/tenant.rs",
];

/// The most lines of the analyzed crates whose comment names `ALLOC-OK`.
/// Each is an allocation argued rather than removed: a change that
/// removes one lowers this, and one that adds one must say why here.
const ALLOC_OK_CEILING: usize = 39;

/// Files allowed to hold a lock, with the reason reviewers accepted.
/// Everything here is control-plane: never per-command.
const LOCK_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/core/src/routing/mod.rs",
        "RwLock guards partition-table registration and reconfiguration; \
         a routed command reads its router's own table handles and takes \
         the shared guard only to re-read them after a change",
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    match args.first().map(String::as_str) {
        Some("analyze") if args.iter().any(|a| a == "--self-check") => {
            analyze::run_analyze_self_check(&root)
        }
        Some("analyze") => analyze::run_analyze(&root),
        _ => {
            eprintln!("usage: cargo xtask analyze [--self-check]");
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

pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // The seeded-violation fixtures are checked only by
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
