//! Analyzer self-check fixture (A6): the self-check's ceiling admits the
//! justification lines of `hot.rs`, and this file adds one past it.
//! Never compiled — scanned only by `cargo xtask analyze --self-check`.

// seed: A6 — one justification line more than the ceiling admits.
pub fn over_the_ceiling(xs: &mut Vec<u8>) {
    // ALLOC-OK: unreachable from any root, so only the count sees it.
    xs.push(0);
}
