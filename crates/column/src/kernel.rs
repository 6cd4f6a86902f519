//! Chunked, branch-free scan kernels.
//!
//! The coalesced scan stage originally evaluated every `(row, predicate)`
//! pair through a per-row closure — a call and an unpredictable branch per
//! row per consumer.  These kernels process fixed-size chunks instead: a
//! predicate is compiled to inclusive `[lo, hi]` bounds once per sweep, and
//! each chunk is reduced with straight-line arithmetic the compiler can
//! unroll and auto-vectorize (the match test lowers to two compares and an
//! `and`, with no data-dependent branch).
//!
//! [`CHUNK_ROWS`] rows of `u64` are 8 KiB — small enough that a chunk
//! fetched once stays resident in L1 while *all* predicates of a fused
//! sweep ([`crate::scan::SharedScan`]) are evaluated against it, which is
//! what turns N coalesced scans into one memory pass.

use crate::column::Predicate;

/// Rows per kernel chunk.  8 KiB of `u64`s: comfortably inside a 32 KiB L1
/// data cache even with a few consumers' accumulator state alongside, yet
/// long enough to amortize per-chunk dispatch to noise.
pub const CHUNK_ROWS: usize = 1024;

/// Bitmap words needed for one full chunk.
pub const CHUNK_WORDS: usize = CHUNK_ROWS / 64;

/// A predicate compiled to inclusive bounds: `v` matches iff
/// `lo <= v && v <= hi`.  An empty predicate is encoded as `lo > hi`.
///
/// Inclusive bounds are what make the `u64::MAX` boundary representable:
/// `Predicate::Range { lo, hi: u64::MAX }` (the unbounded-above sentinel)
/// compiles to `[lo, u64::MAX]`, and `Predicate::Equals(u64::MAX)` to
/// `[u64::MAX, u64::MAX]` — no `hi + 1` overflow anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledPredicate {
    lo: u64,
    hi: u64,
}

impl CompiledPredicate {
    /// Compile a [`Predicate`] into branch-free inclusive bounds.
    #[inline]
    pub fn compile(pred: Predicate) -> Self {
        match pred.bounds_inclusive() {
            Some((lo, hi)) => CompiledPredicate { lo, hi },
            None => CompiledPredicate { lo: 1, hi: 0 },
        }
    }

    /// Branch-free match test (`&`, not `&&`: both compares always run).
    #[inline(always)]
    pub fn matches(self, v: u64) -> bool {
        (v >= self.lo) & (v <= self.hi)
    }

    /// The inclusive `[lo, hi]` bounds (for the explicit-SIMD kernels,
    /// which broadcast them into vector lanes).
    #[inline]
    pub fn bounds(self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

/// Count matching values in one chunk.
#[inline]
pub fn count(values: &[u64], p: CompiledPredicate) -> u64 {
    let mut n = 0u64;
    for &v in values {
        n += p.matches(v) as u64;
    }
    n
}

/// Wrapping sum of matching values in one chunk.  A non-match contributes
/// `v & 0`, a match `v & !0` — no branch, no select.
#[inline]
pub fn sum(values: &[u64], p: CompiledPredicate) -> u64 {
    let mut s = 0u64;
    for &v in values {
        let sel = (p.matches(v) as u64).wrapping_neg();
        s = s.wrapping_add(v & sel);
    }
    s
}

/// Min and max of matching values in one chunk; `None` when nothing
/// matched.  Non-matches are forced to the identity of each fold
/// (`u64::MAX` for min, `0` for max) by the selection mask.
#[inline]
pub fn min_max(values: &[u64], p: CompiledPredicate) -> Option<(u64, u64)> {
    let mut mn = u64::MAX;
    let mut mx = 0u64;
    let mut any = 0u64;
    for &v in values {
        let sel = (p.matches(v) as u64).wrapping_neg();
        mn = mn.min(v | !sel);
        mx = mx.max(v & sel);
        any |= sel;
    }
    (any != 0).then_some((mn, mx))
}

/// Fill `out` with the selection bitmap of one chunk (bit `i`, LSB-first
/// within each word, set iff `values[i]` matches) and return the match
/// count.  `out` must hold at least `values.len().div_ceil(64)` words;
/// words beyond the chunk's tail are zeroed up to that length.
#[inline]
pub fn select_bitmap(values: &[u64], p: CompiledPredicate, out: &mut [u64]) -> u64 {
    let words = values.len().div_ceil(64);
    // BOUNDS: the documented precondition on `out` (callers size it as
    // CHUNK_WORDS); `out[w]` below stays under the asserted length
    // because w < values.len().div_ceil(64) == words.
    assert!(out.len() >= words, "bitmap buffer too small");
    let mut total = 0u64;
    for (w, chunk) in values.chunks(64).enumerate() {
        let mut word = 0u64;
        for (i, &v) in chunk.iter().enumerate() {
            word |= (p.matches(v) as u64) << i;
        }
        out[w] = word;
        total += word.count_ones() as u64;
    }
    total
}

/// Visit every selected value of a chunk, given its bitmap: calls
/// `f(row_in_chunk, value)` in row order.  `bitmap` selects rows of
/// `values` only: a bit past `values.len()` panics.
#[inline]
pub fn for_each_selected(values: &[u64], bitmap: &[u64], mut f: impl FnMut(usize, u64)) {
    for (w, &word) in bitmap.iter().take(values.len().div_ceil(64)).enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            // BOUNDS: documented precondition — `bitmap` is a selection of
            // `values` (as `select_bitmap` builds it): no bit at or past
            // `values.len()` is set.
            f(i, values[i]);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(values: &[u64], pred: Predicate) -> Vec<u64> {
        values
            .iter()
            .copied()
            .filter(|&v| pred.matches(v))
            .collect()
    }

    fn preds() -> impl Strategy<Value = Predicate> {
        prop_oneof![
            Just(Predicate::All),
            (any::<u64>(), any::<u64>()).prop_map(|(lo, hi)| Predicate::Range { lo, hi }),
            any::<u64>().prop_map(Predicate::Equals),
            // Boundary-heavy forms the uniform u64 draw almost never hits.
            any::<u64>().prop_map(|lo| Predicate::Range { lo, hi: u64::MAX }),
            Just(Predicate::Equals(u64::MAX)),
            Just(Predicate::Range { lo: 0, hi: 0 }),
        ]
    }

    fn values() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            prop_oneof![any::<u64>(), Just(u64::MAX), Just(0u64), 0u64..1000,],
            0..300,
        )
    }

    proptest! {
        #[test]
        fn compiled_matches_interpreted(v in any::<u64>(), pred in preds()) {
            let p = CompiledPredicate::compile(pred);
            prop_assert_eq!(p.matches(v), pred.matches(v));
        }

        #[test]
        fn kernels_match_naive(vals in values(), pred in preds()) {
            let p = CompiledPredicate::compile(pred);
            let want = naive(&vals, pred);
            prop_assert_eq!(count(&vals, p), want.len() as u64);
            let want_sum = want.iter().fold(0u64, |s, &v| s.wrapping_add(v));
            prop_assert_eq!(sum(&vals, p), want_sum);
            let want_mm = (!want.is_empty()).then(|| {
                (*want.iter().min().unwrap(), *want.iter().max().unwrap())
            });
            prop_assert_eq!(min_max(&vals, p), want_mm);
        }

        #[test]
        fn bitmap_selects_exactly_the_matches(vals in values(), pred in preds()) {
            let p = CompiledPredicate::compile(pred);
            let mut words = vec![0u64; vals.len().div_ceil(64)];
            let n = select_bitmap(&vals, p, &mut words);
            prop_assert_eq!(n, count(&vals, p));
            let mut got = Vec::new();
            let mut rows = Vec::new();
            for_each_selected(&vals, &words, |i, v| {
                rows.push(i);
                got.push(v);
            });
            prop_assert_eq!(got, naive(&vals, pred));
            // Row ids are strictly increasing (row order preserved).
            prop_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn max_value_is_reachable() {
        let vals = [0, 5, u64::MAX, u64::MAX - 1];
        let unbounded = CompiledPredicate::compile(Predicate::Range {
            lo: 5,
            hi: u64::MAX,
        });
        assert_eq!(count(&vals, unbounded), 3);
        assert_eq!(
            min_max(&vals, unbounded),
            Some((5, u64::MAX)),
            "u64::MAX participates in min/max"
        );
        let eq_max = CompiledPredicate::compile(Predicate::Equals(u64::MAX));
        assert_eq!(count(&vals, eq_max), 1);
        assert_eq!(sum(&vals, eq_max), u64::MAX);
    }

    #[test]
    fn empty_predicate_matches_nothing() {
        let vals: Vec<u64> = (0..100).collect();
        let p = CompiledPredicate::compile(Predicate::Range { lo: 7, hi: 7 });
        assert_eq!(count(&vals, p), 0);
        assert_eq!(sum(&vals, p), 0);
        assert_eq!(min_max(&vals, p), None);
        let mut words = [0u64; 2];
        assert_eq!(select_bitmap(&vals, p, &mut words), 0);
        assert_eq!(words, [0, 0]);
    }
}
