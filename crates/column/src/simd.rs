//! Explicit-SIMD predicate kernels.
//!
//! The chunked kernels in [`crate::kernel`] are branch-free scalar loops
//! the compiler *may* auto-vectorize — but release builds target the
//! x86-64 baseline (SSE2), which has no 64-bit compares, so the predicate
//! test stays scalar there.  This module lifts the kernels the shared
//! sweep runs — [`count_sum`], the multi-predicate pass, and [`min_max`] —
//! to explicit 4×u64 AVX2 lanes via `std::arch` intrinsics, selected at
//! runtime:
//!
//! * [`level`] detects AVX2 once per process (`is_x86_feature_detected!`)
//!   and honors the `ERIS_SIMD=0` kill switch, which forces the portable
//!   path so CI can prove the fallback is equivalent.
//! * Every entry point falls back to the matching [`crate::kernel`]
//!   function — the only path on hosts without AVX2, and the oracle the
//!   lanes are property-tested against.  Vector tails (fewer than 4
//!   values) run through the same portable kernels.
//! * Unsigned 64-bit compares are built from the signed `_mm256_cmpgt_epi64`
//!   by biasing both sides with `1 << 63` (the "sign-flip" idiom).  In
//!   [`count_sum`] each vector of values is loaded and biased once for the
//!   whole block of predicates; all folds use the same identities as the
//!   scalar kernels (`u64::MAX` for min, `0` for max, masked `AND` for
//!   sum), so results are bit-identical.
//! * [`count`] and [`sum`] are one-predicate calls of [`count_sum`].
#![expect(
    unsafe_code,
    reason = "AVX2 intrinsics behind runtime feature detection"
)]

use crate::kernel::{self, CompiledPredicate, CountSum, BLOCK};

/// Which lane width the explicit-SIMD kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// No usable vector extension (or `ERIS_SIMD=0`): dispatch to the
    /// portable chunked kernels in [`crate::kernel`].
    Portable,
    /// 4×u64 lanes via AVX2 intrinsics.
    Avx2,
}

/// The SIMD level this process dispatches to, detected once.
///
/// `ERIS_SIMD=0` in the environment forces [`SimdLevel::Portable`]
/// regardless of hardware — CI runs the kernel gate both ways.
pub fn level() -> SimdLevel {
    static LEVEL: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var_os("ERIS_SIMD").is_some_and(|v| v == "0") {
            return SimdLevel::Portable;
        }
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Portable
    })
}

/// Count and wrapping sum of matching values in one chunk for each of up
/// to [`BLOCK`] predicates, in one pass ([`kernel::count_sum`]).
///
/// # Panics
/// If `preds.len() > BLOCK`.
#[inline]
pub fn count_sum(values: &[u64], preds: &[CompiledPredicate]) -> [CountSum; BLOCK] {
    match level() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: `level()` returns Avx2 only after runtime detection of
        // the avx2 target feature on this CPU.
        SimdLevel::Avx2 => unsafe { avx2::count_sum(values, preds) },
        _ => kernel::count_sum(values, preds),
    }
}

/// Count matching values in one chunk ([`kernel::count`] semantics).
#[inline]
pub fn count(values: &[u64], p: CompiledPredicate) -> u64 {
    let [one, ..] = count_sum(values, &[p]);
    one.count
}

/// Wrapping sum of matching values in one chunk ([`kernel::sum`]).
#[inline]
pub fn sum(values: &[u64], p: CompiledPredicate) -> u64 {
    let [one, ..] = count_sum(values, &[p]);
    one.sum
}

/// Min and max of matching values in one chunk ([`kernel::min_max`]).
#[inline]
pub fn min_max(values: &[u64], p: CompiledPredicate) -> Option<(u64, u64)> {
    match level() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: `level()` returns Avx2 only after runtime detection of
        // the avx2 target feature on this CPU.
        SimdLevel::Avx2 => unsafe { avx2::min_max(values, p) },
        _ => kernel::min_max(values, p),
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2 {
    //! The AVX2 lane implementations.  Safety rule for the whole module:
    //! every function is `#[target_feature(enable = "avx2")]` and must
    //! only be called after `is_x86_feature_detected!("avx2")`; all loads
    //! are unaligned (`loadu`) from in-bounds `chunks_exact` slices.

    use super::{CompiledPredicate, CountSum, BLOCK};
    use crate::kernel;
    use std::arch::x86_64::*;

    /// Sign-flip bias: XORing both sides of an unsigned compare with
    /// `1 << 63` lets the *signed* `_mm256_cmpgt_epi64` decide it.
    const BIAS: i64 = i64::MIN;

    /// Per-lane match mask (-1 in-range, 0 out) for 4 biased values.
    ///
    /// # Safety
    /// Caller must have verified the `avx2` target feature.
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: declared unsafe for the avx2 target-feature contract
    // (see the doc Safety section); callers go through `level()`.
    unsafe fn in_range(vs: __m256i, lo_s: __m256i, hi_s: __m256i) -> __m256i {
        // Pure register arithmetic: these intrinsics are safe calls once
        // the avx2 target feature is enabled on the enclosing fn.
        let below = _mm256_cmpgt_epi64(lo_s, vs);
        let above = _mm256_cmpgt_epi64(vs, hi_s);
        // NOT(below OR above): andnot(x, -1) complements.
        _mm256_andnot_si256(_mm256_or_si256(below, above), _mm256_set1_epi64x(-1))
    }

    /// [`super::count_sum`] in AVX2 lanes.
    ///
    /// # Safety
    /// Caller must have verified the `avx2` target feature.
    #[target_feature(enable = "avx2")]
    // SAFETY: declared unsafe for the avx2 target-feature contract
    // (see the doc Safety section); callers go through `level()`.
    pub unsafe fn count_sum(values: &[u64], preds: &[CompiledPredicate]) -> [CountSum; BLOCK] {
        match preds.len() {
            0 => [CountSum::default(); BLOCK],
            // SAFETY: this function's avx2 contract carries over.
            1 => unsafe { count_sum_n::<1>(values, preds) },
            // SAFETY: as above.
            2 => unsafe { count_sum_n::<2>(values, preds) },
            // SAFETY: as above.
            3 => unsafe { count_sum_n::<3>(values, preds) },
            // SAFETY: as above.
            4 => unsafe { count_sum_n::<4>(values, preds) },
            // BOUNDS: documented precondition, as `kernel::count_sum`.
            n => panic!("count_sum takes at most {BLOCK} predicates, got {n}"),
        }
    }

    /// [`count_sum`] for exactly `N == preds.len()` predicates.
    ///
    /// Per predicate the lanes test the offset form of the bounds (see
    /// `kernel::count_sum`): with the biased value `v' = v ^ (1 << 63)`,
    /// which is `v + (1 << 63)` mod 2^64, `v' - lo` is the biased `v - lo`,
    /// so one subtract and one signed compare against the biased
    /// `hi - lo` yield the miss mask.  A miss adds -1 to the lane's miss
    /// count (the count is rows minus misses), and a hit adds `v` to the
    /// lane's sum through `andnot(miss, v)`.
    ///
    /// # Safety
    /// Caller must have verified the `avx2` target feature.
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: declared unsafe for the avx2 target-feature contract
    // (see the doc Safety section); callers go through `level()`.
    unsafe fn count_sum_n<const N: usize>(
        values: &[u64],
        preds: &[CompiledPredicate],
    ) -> [CountSum; BLOCK] {
        let bias = _mm256_set1_epi64x(BIAS);
        let mut lo = [bias; N];
        let mut span = [bias; N];
        for ((l, s), p) in lo.iter_mut().zip(&mut span).zip(preds) {
            let (plo, phi) = p.bounds();
            *l = _mm256_set1_epi64x(plo as i64);
            *s = _mm256_set1_epi64x(phi.wrapping_sub(plo) as i64 ^ BIAS);
        }
        let mut misses = [_mm256_setzero_si256(); N];
        let mut sums = [_mm256_setzero_si256(); N];
        let mut chunks = values.chunks_exact(4);
        for c in chunks.by_ref() {
            // SAFETY: the load reads 32 bytes from a 4-element in-bounds slice.
            let v = unsafe { _mm256_loadu_si256(c.as_ptr() as *const __m256i) };
            let vb = _mm256_xor_si256(v, bias);
            for j in 0..N {
                // BOUNDS: j < N, the length of all four arrays.
                let miss = _mm256_cmpgt_epi64(_mm256_sub_epi64(vb, lo[j]), span[j]);
                misses[j] = _mm256_add_epi64(misses[j], miss);
                sums[j] = _mm256_add_epi64(sums[j], _mm256_andnot_si256(miss, v));
            }
        }
        let tail = chunks.remainder();
        let vector_rows = (values.len() - tail.len()) as u64;
        let mut out = kernel::count_sum(tail, preds);
        for (((o, p), m), s) in out.iter_mut().zip(preds).zip(&misses).zip(&sums) {
            let (mut m_l, mut s_l) = ([0u64; 4], [0u64; 4]);
            // SAFETY: each store writes 32 bytes into a [u64; 4].
            unsafe {
                _mm256_storeu_si256(m_l.as_mut_ptr() as *mut __m256i, *m);
                _mm256_storeu_si256(s_l.as_mut_ptr() as *mut __m256i, *s);
            }
            // Lanes hold -1 per miss: their wrapping sum is -(misses).
            let lanes = |l: [u64; 4]| l.iter().fold(0u64, |a, &x| a.wrapping_add(x));
            *o += CountSum {
                count: vector_rows.wrapping_add(lanes(m_l)),
                sum: lanes(s_l),
            };
            kernel::clear_if_empty(o, *p);
        }
        out
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature.
    #[target_feature(enable = "avx2")]
    // SAFETY: declared unsafe for the avx2 target-feature contract
    // (see the doc Safety section); callers go through `level()`.
    pub unsafe fn min_max(values: &[u64], p: CompiledPredicate) -> Option<(u64, u64)> {
        let (lo, hi) = p.bounds();
        let mut chunks = values.chunks_exact(4);
        // SAFETY: loads read 32 bytes from 4-element in-bounds slices.
        let (vec_any, vec_mn, vec_mx) = unsafe {
            let bias = _mm256_set1_epi64x(BIAS);
            let lo_s = _mm256_set1_epi64x(lo as i64 ^ BIAS);
            let hi_s = _mm256_set1_epi64x(hi as i64 ^ BIAS);
            let mut any = _mm256_setzero_si256();
            // Lane identities match the scalar fold: u64::MAX (min), 0 (max).
            let mut mn = _mm256_set1_epi64x(-1);
            let mut mx = _mm256_setzero_si256();
            for c in chunks.by_ref() {
                let v = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
                let m = in_range(_mm256_xor_si256(v, bias), lo_s, hi_s);
                any = _mm256_or_si256(any, m);
                // Non-matches become the fold identity, then an unsigned
                // lane min/max via biased signed compare + byte blend.
                let cand_mn = _mm256_or_si256(v, _mm256_andnot_si256(m, _mm256_set1_epi64x(-1)));
                let cand_mx = _mm256_and_si256(v, m);
                let lt =
                    _mm256_cmpgt_epi64(_mm256_xor_si256(mn, bias), _mm256_xor_si256(cand_mn, bias));
                mn = _mm256_blendv_epi8(mn, cand_mn, lt);
                let gt =
                    _mm256_cmpgt_epi64(_mm256_xor_si256(cand_mx, bias), _mm256_xor_si256(mx, bias));
                mx = _mm256_blendv_epi8(mx, cand_mx, gt);
            }
            let mut mn_l = [0u64; 4];
            let mut mx_l = [0u64; 4];
            _mm256_storeu_si256(mn_l.as_mut_ptr() as *mut __m256i, mn);
            _mm256_storeu_si256(mx_l.as_mut_ptr() as *mut __m256i, mx);
            (
                _mm256_movemask_epi8(any) != 0,
                // BOUNDS: min/max over fixed-size [u64; 4] arrays — never empty.
                mn_l.into_iter().min().unwrap(),
                mx_l.into_iter().max().unwrap(),
            )
        };
        match (
            vec_any.then_some((vec_mn, vec_mx)),
            kernel::min_max(chunks.remainder(), p),
        ) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (v, t) => v.or(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Predicate;
    use proptest::prelude::*;

    fn preds() -> impl Strategy<Value = Predicate> {
        prop_oneof![
            Just(Predicate::All),
            (any::<u64>(), any::<u64>()).prop_map(|(lo, hi)| Predicate::Range { lo, hi }),
            (0u64..2000, 0u64..2000).prop_map(|(lo, hi)| Predicate::Range { lo, hi }),
            any::<u64>().prop_map(Predicate::Equals),
            any::<u64>().prop_map(|lo| Predicate::Range { lo, hi: u64::MAX }),
            Just(Predicate::Equals(u64::MAX)),
            Just(Predicate::Range { lo: 0, hi: 0 }),
            // Bounds at the sign bit, where the bias decides the compare.
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
        // Lengths cover empty, sub-lane tails, and many full lanes;
        // values cover both compare boundaries and the sign-flip bias.
        proptest::collection::vec(
            prop_oneof![
                any::<u64>(),
                Just(u64::MAX),
                Just(0u64),
                Just(1u64 << 63),
                Just((1u64 << 63) - 1),
                0u64..1000,
            ],
            0..300,
        )
    }

    fn block() -> impl Strategy<Value = Vec<CompiledPredicate>> {
        proptest::collection::vec(preds().prop_map(CompiledPredicate::compile), 0..=BLOCK)
    }

    /// `kernel::count`/`kernel::sum` applied one predicate at a time: the
    /// oracle of both multi-predicate kernels.
    fn one_at_a_time(vals: &[u64], ps: &[CompiledPredicate]) -> [CountSum; BLOCK] {
        let mut want = [CountSum::default(); BLOCK];
        for (w, &p) in want.iter_mut().zip(ps) {
            *w = CountSum {
                count: kernel::count(vals, p),
                sum: kernel::sum(vals, p),
            };
        }
        want
    }

    proptest! {
        #[test]
        fn dispatched_simd_matches_scalar_kernels(vals in values(), pred in preds()) {
            let p = CompiledPredicate::compile(pred);
            prop_assert_eq!(count(&vals, p), kernel::count(&vals, p));
            prop_assert_eq!(sum(&vals, p), kernel::sum(&vals, p));
            prop_assert_eq!(min_max(&vals, p), kernel::min_max(&vals, p));
        }

        #[test]
        fn dispatched_count_sum_matches_both_oracles(vals in values(), ps in block()) {
            let want = one_at_a_time(&vals, &ps);
            prop_assert_eq!(kernel::count_sum(&vals, &ps), want);
            prop_assert_eq!(count_sum(&vals, &ps), want);
        }
    }

    // Exercise the AVX2 lane code directly whenever the hardware has
    // it — even under ERIS_SIMD=0, where `level()` hides it.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    mod avx2_direct {
        use super::*;

        proptest! {
            #[test]
            fn avx2_lanes_match_scalar_kernels(vals in values(), pred in preds()) {
                if !std::arch::is_x86_feature_detected!("avx2") {
                    return; // nothing to cross-check on this hardware
                }
                let p = CompiledPredicate::compile(pred);
                // SAFETY: avx2 presence checked by the early return above.
                let ([one, ..], mm) = unsafe { (avx2::count_sum(&vals, &[p]), avx2::min_max(&vals, p)) };
                prop_assert_eq!(one.count, kernel::count(&vals, p));
                prop_assert_eq!(one.sum, kernel::sum(&vals, p));
                prop_assert_eq!(mm, kernel::min_max(&vals, p));
            }

            #[test]
            fn avx2_count_sum_matches_both_oracles(vals in values(), ps in block()) {
                if !std::arch::is_x86_feature_detected!("avx2") {
                    return; // nothing to cross-check on this hardware
                }
                // SAFETY: avx2 presence checked by the early return above.
                let got = unsafe { avx2::count_sum(&vals, &ps) };
                prop_assert_eq!(got, kernel::count_sum(&vals, &ps));
                prop_assert_eq!(got, one_at_a_time(&vals, &ps));
            }
        }
    }

    #[test]
    fn level_is_detected_and_stable() {
        let first = level();
        assert_eq!(level(), first, "cached after first call");
        if std::env::var_os("ERIS_SIMD").is_some_and(|v| v == "0") {
            assert_eq!(first, SimdLevel::Portable, "kill switch honored");
        }
    }

    #[test]
    fn sign_flip_boundaries_are_exact() {
        // Values straddling the i64 sign bit are exactly where a naive
        // signed compare goes wrong; pin the boundary behavior.
        let vals = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX];
        let p = CompiledPredicate::compile(Predicate::Range {
            lo: (1 << 63) - 1,
            hi: u64::MAX,
        });
        assert_eq!(count(&vals, p), kernel::count(&vals, p));
        assert_eq!(count(&vals, p), 4);
        assert_eq!(min_max(&vals, p), Some(((1 << 63) - 1, u64::MAX)));
        // A block whose bounds straddle the bias, values repeated past
        // the 4-lane width so both the lanes and the tail see them.
        let vals: Vec<u64> = vals.iter().copied().cycle().take(27).collect();
        let block = [
            p,
            CompiledPredicate::compile(Predicate::Range { lo: 0, hi: 1 << 63 }),
            CompiledPredicate::compile(Predicate::Equals(1 << 63)),
            CompiledPredicate::compile(Predicate::Range {
                lo: 1,
                hi: u64::MAX,
            }),
        ];
        let got = count_sum(&vals, &block);
        assert_eq!(got, kernel::count_sum(&vals, &block));
        let counts: Vec<u64> = got.iter().map(|r| r.count).collect();
        assert_eq!(counts, [17, 15, 4, 22]);
    }
}
