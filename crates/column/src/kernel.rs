//! Chunked, branch-free scan kernels.
//!
//! The coalesced scan stage originally evaluated every `(row, predicate)`
//! pair through a per-row closure — a call and an unpredictable branch per
//! row per consumer.  These kernels process fixed-size chunks instead: a
//! predicate is compiled to inclusive `[lo, hi]` bounds once per sweep, and
//! each chunk is reduced with straight-line arithmetic (the match test
//! lowers to compares and masks, with no data-dependent branch).
//!
//! [`CHUNK_ROWS`] rows of `u64` are 8 KiB — small enough that a chunk
//! fetched once stays resident in L1 while a fused sweep
//! ([`crate::scan::SharedScan`]) evaluates all its predicates against it.
//! [`count_sum`] is the multi-predicate pass that sweep runs: it reads the
//! chunk once for a block of up to [`BLOCK`] predicates and yields each
//! one's count and sum, so the chunk is read once per *block*, not once per
//! predicate.  The single-predicate [`count`], [`sum`] and [`min_max`] are
//! the one-at-a-time oracles it is tested against ([`min_max`] is also what
//! the sweep runs for MinMax consumers off AVX2).

use crate::column::Predicate;

/// Rows per kernel chunk.  8 KiB of `u64`s: comfortably inside a 32 KiB L1
/// data cache even with a few consumers' accumulator state alongside, yet
/// long enough to amortize per-chunk dispatch to noise.
pub const CHUNK_ROWS: usize = 1024;

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

/// Predicates one [`count_sum`] pass evaluates together.
pub const BLOCK: usize = 4;

/// Count and wrapping sum of the values one predicate matched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountSum {
    pub count: u64,
    pub sum: u64,
}

impl std::ops::AddAssign for CountSum {
    /// Fold another partial in: counts add, sums wrap.
    #[inline]
    fn add_assign(&mut self, other: CountSum) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Count and wrapping sum of matching values in one chunk for each of up
/// to [`BLOCK`] predicates, in one pass: entry `i` is `preds[i]`'s, and
/// entries past `preds.len()` are zero.  Each value is read once and
/// tested against every predicate of the block ([`count`] and [`sum`]
/// semantics for each).
///
/// The test is the offset form of the inclusive bounds: `v` lies in
/// `[lo, hi]` iff `v - lo <= hi - lo` in wrapping unsigned arithmetic, one
/// subtract and one compare.  That form cannot say "nothing", so an empty
/// predicate (`lo > hi`) is evaluated anyway and its entry is zeroed
/// afterwards.
///
/// # Panics
/// If `preds.len() > BLOCK`.
#[inline]
pub fn count_sum(values: &[u64], preds: &[CompiledPredicate]) -> [CountSum; BLOCK] {
    match preds.len() {
        0 => [CountSum::default(); BLOCK],
        1 => count_sum_n::<1>(values, preds),
        2 => count_sum_n::<2>(values, preds),
        3 => count_sum_n::<3>(values, preds),
        4 => count_sum_n::<4>(values, preds),
        // BOUNDS: documented precondition — callers pass blocks of at most
        // BLOCK predicates (`chunks(BLOCK)` or a single predicate).
        n => panic!("count_sum takes at most {BLOCK} predicates, got {n}"),
    }
}

/// [`count_sum`] for exactly `N == preds.len()` predicates: a constant `N`
/// lets the per-predicate loop unroll and the accumulators stay in
/// registers.  Per predicate it counts the misses and sums the missed
/// values; the hits are the rest of the chunk's row count and total.  The
/// miss mask is the borrow of `(hi - lo) - (v - lo)`, taken from a 128-bit
/// subtraction, which lowers to a compare and a subtract-with-borrow with
/// no flag-to-byte moves; of the scalar forms measured (a select-and-mask
/// hit test, a conditional-move sum, two rows per step, two predicates per
/// pass) it is the fastest.
#[inline]
fn count_sum_n<const N: usize>(values: &[u64], preds: &[CompiledPredicate]) -> [CountSum; BLOCK] {
    let mut lo = [0u64; N];
    let mut span = [0u64; N];
    for ((l, s), p) in lo.iter_mut().zip(&mut span).zip(preds) {
        *l = p.lo;
        *s = p.hi.wrapping_sub(p.lo);
    }
    let mut total = 0u64;
    let mut misses = [0u64; N];
    let mut missed = [0u64; N];
    for &v in values {
        total = total.wrapping_add(v);
        for j in 0..N {
            // BOUNDS: j < N, the length of all four arrays.
            let d = v.wrapping_sub(lo[j]);
            // All ones iff d > span, else zero.
            let miss = ((span[j] as u128).wrapping_sub(d as u128) >> 64) as u64;
            misses[j] = misses[j].wrapping_sub(miss);
            missed[j] = missed[j].wrapping_add(v & miss);
        }
    }
    let mut out = [CountSum::default(); BLOCK];
    for (((o, p), &misses), &missed) in out.iter_mut().zip(preds).zip(&misses).zip(&missed) {
        *o = CountSum {
            count: values.len() as u64 - misses,
            sum: total.wrapping_sub(missed),
        };
        clear_if_empty(o, *p);
    }
    out
}

/// Zero the result of an empty predicate, which the offset-form test of
/// [`count_sum`] cannot express.
#[inline]
pub(crate) fn clear_if_empty(out: &mut CountSum, p: CompiledPredicate) {
    if p.lo > p.hi {
        *out = CountSum::default();
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
            // Bounds at the sign bit, where a signed compare goes wrong.
            Just(Predicate::Equals(1 << 63)),
            Just(Predicate::Range { lo: 0, hi: 1 << 63 }),
            Just(Predicate::Range {
                lo: 1 << 63,
                hi: u64::MAX
            }),
            Just(Predicate::Range {
                lo: 1 << 63,
                hi: 1 << 63
            }),
        ]
    }

    fn values() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            prop_oneof![
                any::<u64>(),
                Just(u64::MAX),
                Just(0u64),
                Just(1u64 << 63),
                0u64..1000,
            ],
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
        fn count_sum_matches_one_predicate_at_a_time(
            vals in values(),
            block in proptest::collection::vec(preds(), 0..=BLOCK))
        {
            let ps: Vec<CompiledPredicate> =
                block.iter().map(|&p| CompiledPredicate::compile(p)).collect();
            let got = count_sum(&vals, &ps);
            for (i, r) in got.iter().enumerate() {
                let want = ps.get(i).map_or(CountSum::default(), |&p| CountSum {
                    count: count(&vals, p),
                    sum: sum(&vals, p),
                });
                prop_assert_eq!(*r, want, "entry {} of {:?}", i, block);
            }
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
        let all = CompiledPredicate::compile(Predicate::All);
        let both = count_sum(&vals, &[p, all]);
        assert_eq!(both[0], CountSum::default(), "empty next to a full match");
        assert_eq!(both[1].count, 100);
    }
}
