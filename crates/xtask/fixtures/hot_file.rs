//! Self-check fixture for the per-file rules: this file plays a hot-path
//! entry that imports `eris_sync` (A3, the file-wide lock ban of A4, A5).
//! Never compiled.  The lexer seeds only count correctly with the real
//! lexer; a per-line string stripper missed or over-fired on each one.
// seed: A0 — the self-check also lists `missing.rs` beside this file as a
// hot path, and that file does not exist.

use eris_sync::sync::atomic::AtomicU64;
// seed: A5 — a facade module reaching for std atomics directly.
use std::sync::atomic::Ordering;

// seed: A3 — an ordering choice with no justifying comment in range.
pub fn unjustified(c: &AtomicU64) {
    c.store(1, Ordering::Relaxed);
}

// seed: A3 — the '"' char literal must not open a phantom string that
// swallows the rest of the line.
pub fn quote_char(c: &AtomicU64) {
    let _sep = '"'; c.store(2, Ordering::Relaxed);
}

// seed: A3 — raw-string contents are masked, not read as a comment.
pub fn raw_string(c: &AtomicU64) {
    let _q = r#"// not a comment, "quotes" inside"#; c.store(3, Ordering::Relaxed);
}

// seed: A3 — a justification marker inside a string is not a comment.
pub fn smuggled_marker(c: &AtomicU64) {
    let _fake = "// ordering: not a real justification";
    c.store(4, Ordering::Relaxed);
}

// The compliant pair: must stay silent.
pub fn publish(slot: &AtomicU64, val: u64) {
    // ordering: Release publishes the payload; pairs-with: fixture-slot-seq.
    slot.store(val, Ordering::Release);
}

pub fn consume(slot: &AtomicU64) -> u64 {
    // ordering: Acquire observes the published payload; pairs-with: fixture-slot-seq.
    slot.load(Ordering::Acquire)
}

// seed: A4 — a lock in a hot-path file; the ban is file-wide, so it fires
// although nothing reaches this function.
pub fn locked() {
    let _guard = Mutex::new(());
}

// seed: A4 — the `//` inside the URL string must not hide the lock.
pub fn url_lock() {
    let _x = ("https://eris.example/metrics", Mutex::new(()));
}

// Control: a per-line stripper never removed block comments, so the word
// inside this one used to over-fire.
pub fn block_comment_control() {
    let _n = 1; /* not a real Mutex, just prose */
}

pub fn unlabeled_release(slot: &AtomicU64) {
    // ordering: Release hand-off, deliberately missing its pair label.
    // seed: A3 — release-side ordering without a pairs-with label.
    slot.store(7, Ordering::Release);
}

pub fn dangling_release(slot: &AtomicU64) {
    // ordering: Release; pairs-with: fixture-missing-acquire.
    // seed: A3 — the named acquire end does not exist in this file.
    slot.store(9, Ordering::Release);
}

#[cfg(test)]
mod tests {
    // Control: test code is exempt from the ordering comment, the lock
    // ban and the facade rule.
    fn unchecked(c: &std::sync::atomic::AtomicU64) -> std::sync::Mutex<u64> {
        std::sync::Mutex::new(c.load(Ordering::Relaxed))
    }
}
