//! `cargo xtask analyze` — the one static-check pass (A0–A5).
//!
//! Every file of the call-graph universe is lexed and parsed once.
//! Reachability starts at functions annotated `// HOT-PATH-ROOT:` and
//! follows every call edge the name-based resolver admits (see
//! `graph.rs`).  `// HOT-PATH-CUT:` marks a reviewed amortization or
//! control-plane boundary: the cut function and everything only
//! reachable through it are out of scope.  Test code (from the first
//! column-0 `#[cfg(test)]` on) is never checked.
//!
//! * **A0 inputs** — every file the lists name is one the pass loads (a
//!   stale entry would switch its rules off without a word), and every
//!   member manifest opts into the workspace lints (`[lints]` with
//!   `workspace = true`), where rustc and clippy enforce the `unsafe`
//!   rules.
//! * **A1 panic-freedom** — no `unwrap`/`expect`, no panicking macro
//!   (`panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`
//!   family), no index/slice expression, unless a `// BOUNDS:` comment
//!   within the lookback window argues why it cannot fire.
//!   `debug_assert!` is exempt (compiled out of release hot paths).
//! * **A2 allocation-freedom** — no allocating call (`Vec::push`,
//!   `collect`, `format!`, `Box::new`, `to_vec`, …) unless the site
//!   carries `// ALLOC-OK:` or the whole function is blessed with
//!   `// ALLOC-OK(fn):` (reviewed warm-up/amortized allocation).
//! * **A3 ordering** — in the hot-path files, every `Ordering::` site
//!   has an `// ordering:` comment within the lookback window, every
//!   `Release`/`AcqRel` site names its paired acquire end via
//!   `pairs-with: <label>` (comma-separated list, labels `[a-z0-9-]`),
//!   and every named label appears on both a release-side and an
//!   acquire-side line of the same file.
//! * **A4 no-blocking** — no `.lock()`, `Mutex`/`RwLock` usage, `sleep`,
//!   `std::io`/`std::fs`/`std::net`/`std::process`, or stdout printing
//!   reachable from a root, and no `Mutex`/`RwLock` anywhere in a
//!   hot-path file.  Lock hits are excused only by the file-level lock
//!   allowlist; io and sleep have no escape hatch short of a reviewed
//!   `HOT-PATH-CUT`.
//! * **A5 facade** — a file that imports `eris_sync` uses no
//!   `std::sync::atomic`, `std::cell::UnsafeCell` or
//!   `std::hint::spin_loop`, which would silently escape loom.
//! * **A6 `ALLOC-OK` ceiling** — the lines outside test code whose
//!   comment names `ALLOC-OK` number at most the committed ceiling, so
//!   an argued allocation is added only by raising it in review.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::graph::{FnMarks, Graph};
use crate::lexer::{lex, Lexed};
use crate::parser::{parse_fns, Call, CallKind, FnItem};
use crate::{Violation, ALLOC_OK_CEILING, GRAPH_CRATES, HOT_PATHS, LOCK_ALLOWLIST, LOOKBACK};

const RULES: &[&str] = &["A0", "A1", "A2", "A3", "A4", "A5", "A6"];

const A1_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
const A1_METHODS: &[&str] = &["unwrap", "expect"];

const A2_MACROS: &[&str] = &["vec", "format"];
const A2_NAMES: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "reserve",
    "resize",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "with_capacity",
];
/// `Q::new` allocates for these qualifiers (`Vec::new`/`String::new`
/// do not — they defer to the first push, which A2 catches).
const A2_NEW_QUALS: &[&str] = &["Box", "Arc", "Rc"];
const A2_FROM_QUALS: &[&str] = &["Box", "Arc", "Rc", "String", "Vec"];

const A4_METHODS: &[&str] = &["lock"];
const A4_NAMES: &[&str] = &["sleep"];
const A4_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];
const A4_IO_SUBSTRINGS: &[&str] = &["std::io::", "std::fs::", "std::net::", "std::process::"];
const A4_LOCK_TYPES: &[&str] = &["Mutex", "RwLock"];

const A5_FORBIDDEN: &[&str] = &[
    "std::sync::atomic",
    "std::cell::UnsafeCell",
    "std::hint::spin_loop",
];

/// Inputs of one run; the real tree and the self-check fixtures share
/// every code path.
pub struct AnalyzeConfig {
    /// Directories whose `.rs` files form the call-graph universe.
    pub graph_dirs: Vec<PathBuf>,
    /// Files under A3 and the file-wide lock ban of A4.
    pub hot_paths: Vec<PathBuf>,
    /// Files allowed to hold locks.
    pub lock_allowlist: Vec<PathBuf>,
    /// Member manifests that must opt into the workspace lints.
    pub manifests: Vec<PathBuf>,
    /// The most `ALLOC-OK` lines the universe may hold (A6).
    pub alloc_ok_ceiling: usize,
}

/// One lexed + parsed source file with per-fn annotation marks.
pub struct LoadedFile {
    pub path: PathBuf,
    pub lexed: Lexed,
    /// First line of test code (`usize::MAX` when there is none).
    pub cut: usize,
    pub fns: Vec<FnItem>,
    pub marks: Vec<FnMarks>,
}

pub fn load_file(path: &Path) -> Option<LoadedFile> {
    let text = std::fs::read_to_string(path).ok()?;
    let lexed = lex(&text);
    let cut = lexed.test_cut(&text);
    let fns = parse_fns(&lexed, cut);
    let marks = fns.iter().map(|f| fn_marks(&lexed, f)).collect();
    Some(LoadedFile {
        path: path.to_path_buf(),
        lexed,
        cut,
        fns,
        marks,
    })
}

/// Read a function's annotations from the contiguous comment/attribute
/// block directly above its signature (and the signature line itself).
/// Unlike site justifications this is *not* a fixed lookback window: a
/// blank non-comment line ends the block, so an annotation can never
/// bleed onto the next function.
fn fn_marks(lexed: &Lexed, item: &FnItem) -> FnMarks {
    let mut j = item.sig_line;
    let mut marks = FnMarks::default();
    loop {
        let comment = lexed.comments.get(j).map(String::as_str).unwrap_or("");
        if comment.contains("HOT-PATH-ROOT") {
            marks.root = true;
        }
        if comment.contains("HOT-PATH-CUT") {
            marks.cut = true;
        }
        if comment.contains("ALLOC-OK(fn):") {
            marks.alloc_ok_fn = true;
        }
        if j == 0 {
            break;
        }
        let above_code = lexed.code.get(j - 1).map(String::as_str).unwrap_or("");
        let above_comment = lexed.comments.get(j - 1).map(String::as_str).unwrap_or("");
        let is_attr = above_code.trim_start().starts_with('#');
        let is_comment_only = above_code.trim().is_empty() && !above_comment.is_empty();
        if is_attr || is_comment_only {
            j -= 1;
        } else {
            break;
        }
    }
    marks
}

/// True when a comment containing `marker` sits on `idx` or within the
/// lookback window above it.  Searches comment text only.
fn has_comment_within_lookback(comments: &[String], idx: usize, marker: &str) -> bool {
    let start = idx.saturating_sub(LOOKBACK);
    let end = idx.min(comments.len().saturating_sub(1));
    comments[start..=end].iter().any(|c| c.contains(marker))
}

/// Violations, each reported once per (file, line, rule, key): the
/// reachable-fn and file-wide halves of A4 can hit the same line.
#[derive(Default)]
struct Report {
    seen: HashSet<(PathBuf, usize, &'static str, String)>,
    out: Vec<Violation>,
}

impl Report {
    fn push(&mut self, rule: &'static str, file: &Path, line0: usize, key: &str, message: String) {
        if self
            .seen
            .insert((file.to_path_buf(), line0, rule, key.to_string()))
        {
            self.out.push(Violation {
                rule,
                file: file.to_path_buf(),
                line: line0 + 1,
                message,
            });
        }
    }
}

/// The heart of the analyzer: load every file once, check the inputs,
/// walk the graph from the roots applying A1/A2/A4 to every reachable
/// function, then apply the per-file rules.
pub fn run_analyze_with(config: &AnalyzeConfig) -> (Vec<Violation>, AnalyzeStats) {
    let mut report = Report::default();
    let mut paths = Vec::new();
    for dir in &config.graph_dirs {
        if !dir.is_dir() {
            report.push("A0", dir, 0, "", "listed directory does not exist".into());
        }
        crate::collect_rs_files(dir, &mut paths);
    }
    paths.sort();
    let files: Vec<LoadedFile> = paths.iter().filter_map(|p| load_file(p)).collect();
    for path in config.hot_paths.iter().chain(&config.lock_allowlist) {
        if !files.iter().any(|f| f.path == *path) {
            let msg = "listed file is not in the analyzed tree, so its rules are off";
            report.push("A0", path, 0, "", msg.into());
        }
    }
    for manifest in &config.manifests {
        if !opts_into_workspace_lints(manifest) {
            let msg = "member does not opt into the workspace lints (`[lints] workspace = true`)";
            report.push("A0", manifest, 0, "", msg.into());
        }
    }

    let graph = Graph::new(
        files.iter().map(|f| f.fns.iter().collect()).collect(),
        files.iter().map(|f| f.marks.clone()).collect(),
    );
    let (reachable, cuts) = graph.reachable();
    for &(fi, ii) in &reachable {
        let file = &files[fi];
        check_fn(file, &file.fns[ii], &file.marks[ii], config, &mut report);
    }
    for file in &files {
        check_file(file, config, &mut report);
    }
    let alloc_ok = (files.iter())
        .map(|f| {
            let code = f.lexed.comments.iter().take(f.cut);
            code.filter(|c| c.contains("ALLOC-OK")).count()
        })
        .sum();
    if alloc_ok > config.alloc_ok_ceiling {
        let at = config
            .graph_dirs
            .first()
            .map_or(Path::new(""), PathBuf::as_path);
        let msg = format!(
            "{alloc_ok} lines name ALLOC-OK, past the ceiling of {}: remove an \
             allocation, or raise the ceiling with the reason",
            config.alloc_ok_ceiling
        );
        report.push("A6", at, 0, "", msg);
    }
    let mut out = report.out;
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let stats = AnalyzeStats {
        files: files.len(),
        roots: graph.roots().len(),
        reachable: reachable.len(),
        cuts: cuts.len(),
        alloc_ok,
    };
    (out, stats)
}

pub struct AnalyzeStats {
    pub files: usize,
    pub roots: usize,
    pub reachable: usize,
    pub cuts: usize,
    /// Lines outside test code whose comment names `ALLOC-OK`.
    pub alloc_ok: usize,
}

/// True when `manifest` has a `[lints]` table with `workspace = true`.
fn opts_into_workspace_lints(manifest: &Path) -> bool {
    let Ok(text) = std::fs::read_to_string(manifest) else {
        return false;
    };
    let mut in_lints = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

fn check_fn(
    file: &LoadedFile,
    item: &FnItem,
    marks: &FnMarks,
    config: &AnalyzeConfig,
    report: &mut Report,
) {
    let lock_allowed = config.lock_allowlist.contains(&file.path);
    let qual = item.qualified();
    let bounds_ok =
        |line: usize| has_comment_within_lookback(&file.lexed.comments, line, "BOUNDS:");
    let alloc_ok =
        |line: usize| has_comment_within_lookback(&file.lexed.comments, line, "ALLOC-OK:");

    for call in &item.calls {
        if let Some(kind_word) = a1_call(call) {
            if !bounds_ok(call.line) {
                report.push(
                    "A1",
                    &file.path,
                    call.line,
                    &call.name,
                    format!(
                        "{kind_word} `{}` reachable from a hot-path root (in \
                         `{qual}`) with no `// BOUNDS:` justification within \
                         {LOOKBACK} lines",
                        call.name
                    ),
                );
            }
        }
        if !marks.alloc_ok_fn {
            if let Some(kind_word) = a2_call(call) {
                if !alloc_ok(call.line) {
                    report.push(
                        "A2",
                        &file.path,
                        call.line,
                        &call.name,
                        format!(
                            "{kind_word} `{}` reachable from a hot-path root \
                             (in `{qual}`) with no `// ALLOC-OK:` \
                             justification within {LOOKBACK} lines",
                            call.name
                        ),
                    );
                }
            }
        }
        if let Some(kind_word) = a4_call(call) {
            let excused = call.name == "lock" && lock_allowed;
            if !excused {
                report.push(
                    "A4",
                    &file.path,
                    call.line,
                    &call.name,
                    format!(
                        "{kind_word} `{}` reachable from a hot-path root (in \
                         `{qual}`) — blocking is not allowed on latch-free \
                         paths (cut the boundary with `// HOT-PATH-CUT:` if \
                         this is reviewed control-plane)",
                        call.name
                    ),
                );
            }
        }
    }

    for &line in &item.index_sites {
        if !bounds_ok(line) {
            report.push(
                "A1",
                &file.path,
                line,
                "[index]",
                format!(
                    "index expression reachable from a hot-path root (in \
                     `{qual}`) with no `// BOUNDS:` justification within \
                     {LOOKBACK} lines"
                ),
            );
        }
    }

    // A4 type/path usage inside the body: io modules and lock types.
    let (b0, b1) = item.body;
    for line in b0..=b1.min(file.lexed.code.len().saturating_sub(1)) {
        let code = &file.lexed.code[line];
        for s in A4_IO_SUBSTRINGS.iter().filter(|s| code.contains(*s)) {
            report.push(
                "A4",
                &file.path,
                line,
                s,
                format!("`{s}` usage reachable from a hot-path root (in `{qual}`)"),
            );
        }
        if !lock_allowed {
            for s in A4_LOCK_TYPES.iter().filter(|s| code.contains(*s)) {
                report.push(
                    "A4",
                    &file.path,
                    line,
                    s,
                    format!(
                        "`{s}` usage reachable from a hot-path root (in \
                         `{qual}`) — latch-free paths must not touch locks"
                    ),
                );
            }
        }
    }
}

fn a1_call(call: &Call) -> Option<&'static str> {
    match &call.kind {
        CallKind::Macro if A1_MACROS.contains(&call.name.as_str()) => Some("panicking macro"),
        CallKind::Method if A1_METHODS.contains(&call.name.as_str()) => Some("panicking call"),
        _ => None,
    }
}

fn a2_call(call: &Call) -> Option<&'static str> {
    match &call.kind {
        CallKind::Macro if A2_MACROS.contains(&call.name.as_str()) => Some("allocating macro"),
        CallKind::Method | CallKind::Path(_) if A2_NAMES.contains(&call.name.as_str()) => {
            Some("allocating call")
        }
        CallKind::Path(q) if call.name == "new" && A2_NEW_QUALS.contains(&q.as_str()) => {
            Some("allocating constructor")
        }
        CallKind::Path(q) if call.name == "from" && A2_FROM_QUALS.contains(&q.as_str()) => {
            Some("allocating constructor")
        }
        _ => None,
    }
}

fn a4_call(call: &Call) -> Option<&'static str> {
    match &call.kind {
        CallKind::Macro if A4_MACROS.contains(&call.name.as_str()) => Some("io macro"),
        CallKind::Method if A4_METHODS.contains(&call.name.as_str()) => Some("lock acquisition"),
        _ if A4_NAMES.contains(&call.name.as_str()) => Some("blocking call"),
        _ => None,
    }
}

/// The per-file rules: A3 and the lock ban of A4 on the hot-path files,
/// A5 on every file that imports `eris_sync` (in its tests or not).
fn check_file(file: &LoadedFile, config: &AnalyzeConfig, report: &mut Report) {
    let hot = config.hot_paths.contains(&file.path);
    if hot {
        check_a3(file, report);
    }
    let lock_ban = hot && !config.lock_allowlist.contains(&file.path);
    let facade = file.lexed.code.iter().any(|l| l.contains("eris_sync"));
    for (line, code) in file.lexed.code.iter().enumerate().take(file.cut) {
        if lock_ban {
            for s in A4_LOCK_TYPES.iter().filter(|s| code.contains(*s)) {
                report.push(
                    "A4",
                    &file.path,
                    line,
                    s,
                    format!(
                        "`{s}` in a hot-path file (allowlist the file in \
                         xtask with a reason if this is control-plane): `{}`",
                        code.trim()
                    ),
                );
            }
        }
        if facade {
            for s in A5_FORBIDDEN.iter().filter(|s| code.contains(*s)) {
                report.push(
                    "A5",
                    &file.path,
                    line,
                    s,
                    format!(
                        "`{s}` bypasses the eris-sync facade (and loom): `{}`",
                        code.trim()
                    ),
                );
            }
        }
    }
}

/// A3: every ordering choice is justified, every release-side ordering
/// names its acquire end, and every named label has both ends in the
/// file.
fn check_a3(file: &LoadedFile, report: &mut Report) {
    let code = &file.lexed.code;
    let comments = &file.lexed.comments;
    // (label, line) per side.
    let mut release_labels: Vec<(String, usize)> = Vec::new();
    let mut acquire_labels: Vec<(String, usize)> = Vec::new();

    for (idx, line) in code.iter().enumerate().take(file.cut) {
        if line.contains("Ordering::")
            && !has_comment_within_lookback(comments, idx, "// ordering:")
        {
            report.push(
                "A3",
                &file.path,
                idx,
                "ordering",
                format!(
                    "`Ordering::` with no `// ordering:` comment within \
                     {LOOKBACK} lines: `{}`",
                    line.trim()
                ),
            );
        }
        let is_release = line.contains("Ordering::Release") || line.contains("Ordering::AcqRel");
        let is_acquire = line.contains("Ordering::Acquire") || line.contains("Ordering::AcqRel");
        if !is_release && !is_acquire {
            continue;
        }
        let labels = pair_labels_in_window(comments, idx);
        if is_release {
            if labels.is_empty() {
                report.push(
                    "A3",
                    &file.path,
                    idx,
                    "pairs-with",
                    format!(
                        "release-side ordering with no `pairs-with:` label \
                         within {LOOKBACK} lines: `{}`",
                        line.trim()
                    ),
                );
            }
            for l in &labels {
                release_labels.push((l.clone(), idx));
            }
        }
        if is_acquire {
            for l in &labels {
                acquire_labels.push((l.clone(), idx));
            }
        }
    }

    let acq_set: HashSet<&String> = acquire_labels.iter().map(|(l, _)| l).collect();
    let rel_set: HashSet<&String> = release_labels.iter().map(|(l, _)| l).collect();
    let mut reported: HashSet<&String> = HashSet::new();
    for (label, line) in &release_labels {
        if !acq_set.contains(label) && reported.insert(label) {
            report.push(
                "A3",
                &file.path,
                *line,
                label,
                format!(
                    "pairing label `{label}` has a release side but no \
                     acquire side in this file"
                ),
            );
        }
    }
    for (label, line) in &acquire_labels {
        if !rel_set.contains(label) && reported.insert(label) {
            report.push(
                "A3",
                &file.path,
                *line,
                label,
                format!(
                    "pairing label `{label}` has an acquire side but no \
                     release side in this file"
                ),
            );
        }
    }
}

/// Parse `pairs-with: a, b` labels from the comments in the lookback
/// window of `idx`.  The list is comma-continued: it ends at the first
/// token without a trailing comma, so prose may follow on the same
/// comment.  Labels are `[a-z0-9-]+`.
fn pair_labels_in_window(comments: &[String], idx: usize) -> Vec<String> {
    let start = idx.saturating_sub(LOOKBACK);
    let end = idx.min(comments.len().saturating_sub(1));
    let mut out = Vec::new();
    for c in &comments[start..=end] {
        let mut rest = c.as_str();
        while let Some(i) = rest.find("pairs-with:") {
            rest = &rest[i + "pairs-with:".len()..];
            let mut more = true;
            let mut iter = rest.split_whitespace();
            while more {
                let Some(tok) = iter.next() else { break };
                more = tok.ends_with(',');
                let label: &str = tok.trim_matches(|ch: char| {
                    !(ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '-')
                });
                if !label.is_empty()
                    && label
                        .chars()
                        .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '-')
                {
                    out.push(label.to_string());
                } else {
                    break;
                }
            }
        }
    }
    out
}

/// Real-tree configuration: the graph over the library crates, the
/// hot-path and lock lists, and every member under `crates/` plus the
/// loom shim (the other shims stand in for external crates and keep
/// their own lint policy).
fn tree_config(root: &Path) -> AnalyzeConfig {
    let mut manifests: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path().join("Cargo.toml"))
        .filter(|p| p.exists())
        .collect();
    manifests.push(root.join("shims/loom/Cargo.toml"));
    manifests.sort();
    AnalyzeConfig {
        graph_dirs: GRAPH_CRATES
            .iter()
            .map(|c| root.join(c).join("src"))
            .collect(),
        hot_paths: HOT_PATHS.iter().map(|p| root.join(p)).collect(),
        lock_allowlist: LOCK_ALLOWLIST.iter().map(|(p, _)| root.join(p)).collect(),
        manifests,
        alloc_ok_ceiling: ALLOC_OK_CEILING,
    }
}

pub fn run_analyze(root: &Path) -> ExitCode {
    let (violations, stats) = run_analyze_with(&tree_config(root));
    if violations.is_empty() {
        println!(
            "static analysis: {} roots, {} reachable fns ({} cut boundaries) \
             across {} files — clean; {} ALLOC-OK lines (ceiling {})",
            stats.roots, stats.reachable, stats.cuts, stats.files, stats.alloc_ok, ALLOC_OK_CEILING
        );
        if stats.roots == 0 {
            eprintln!("static analysis: no HOT-PATH-ROOT annotations found — nothing was proved");
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!(
            "static analysis: {} violation(s) over {} reachable fns from {} roots",
            violations.len(),
            stats.reachable,
            stats.roots
        );
        ExitCode::FAILURE
    }
}

/// Mutation-test the rules: every rule must fire on the seeded fixtures
/// with exactly the seeded counts, and the negative controls
/// (unreachable, cut, justified, test code, a compliant manifest) must
/// stay silent — any over-fire breaks the exact-count match just like a
/// dead rule does.
pub fn run_analyze_self_check(root: &Path) -> ExitCode {
    let fixtures = root.join("crates/xtask/fixtures");
    let config = AnalyzeConfig {
        graph_dirs: vec![fixtures.clone()],
        // `missing.rs` does not exist: the seeded stale list entry.
        hot_paths: vec![fixtures.join("hot_file.rs"), fixtures.join("missing.rs")],
        lock_allowlist: vec![],
        manifests: vec![
            fixtures.join("member.toml"),
            fixtures.join("member_ok.toml"),
        ],
        // The lines of `hot.rs`; `ceiling.rs` holds one more.
        alloc_ok_ceiling: 3,
    };
    let (violations, stats) = run_analyze_with(&config);
    let mut failed = false;
    for &rule in RULES {
        let n = violations.iter().filter(|v| v.rule == rule).count();
        let seeded = seeded_count(rule, &fixtures);
        if n == seeded && n > 0 {
            println!("self-check {rule}: {n}/{seeded} seeded violations caught");
        } else {
            eprintln!(
                "self-check {rule}: caught {n}, seeded {seeded} — rule is {}",
                if n == 0 { "dead" } else { "miscounting" }
            );
            failed = true;
        }
    }
    if stats.roots == 0 {
        eprintln!("self-check: fixture root annotation was not recognised");
        failed = true;
    }
    if failed {
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    } else {
        println!("self-check: every rule fires on the seeded fixtures");
        ExitCode::SUCCESS
    }
}

/// Fixtures carry a manifest of their own seeded violations as
/// `// seed: A<N>` (or, in TOML, `# seed: A<N>`) lines, one per expected
/// hit, so the expected counts live next to what triggers them.
fn seeded_count(rule: &str, dir: &Path) -> usize {
    let seed_of = |line: &str| {
        let l = line.trim_start();
        let body = l.strip_prefix("//").or_else(|| l.strip_prefix('#'))?;
        let seed = body.trim_start().strip_prefix("seed: ")?;
        seed.split_whitespace().next().map(str::to_string)
    };
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .map(|text| {
            text.lines()
                .filter(|l| seed_of(l).as_deref() == Some(rule))
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_label_lists_are_comma_continued() {
        let comments = vec![
            "// ordering: Release publishes; pairs-with: ring-slot-seq.".to_string(),
            "// ordering: pairs-with: incoming-reserve, incoming-retire, then prose".to_string(),
        ];
        let labels = pair_labels_in_window(&comments, 1);
        assert_eq!(
            labels,
            vec![
                "ring-slot-seq",
                "incoming-reserve",
                "incoming-retire",
                "then"
            ]
        );
    }

    #[test]
    fn pair_label_list_stops_without_comma() {
        let comments =
            vec!["// ordering: pairs-with: incoming-writable the drain loop".to_string()];
        let labels = pair_labels_in_window(&comments, 0);
        assert_eq!(labels, vec!["incoming-writable"]);
    }
}
