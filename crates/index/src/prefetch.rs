//! The crate's one cache hint, shared by the batched hash probe and the
//! prefix tree's level-synchronous descent.
// Miri compiles the intrinsic, and with it the only unsafe block, out.
#![cfg_attr(
    not(miri),
    expect(unsafe_code, reason = "the prefetch intrinsic is an unsafe fn")
)]

/// Hint the cache hierarchy that `*r` is about to be read.  A pure
/// performance hint with no semantics: a no-op off x86_64, and under Miri,
/// which has no model for the prefetch intrinsic.
#[inline(always)]
pub(crate) fn prefetch_read<T>(r: &T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: the pointer comes from a live reference, and a prefetch has
    // no architectural effect beyond the cache.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(r as *const T as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = r;
}
