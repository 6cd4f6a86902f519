//! A column load allocates nothing but the segments it fills.
//!
//! A counting global allocator tracks live heap bytes while
//! `Engine::bulk_load_column` deals 2^20 rows onto 4 AEUs.  The load's
//! peak may exceed what was live before it by the segments it fills (the
//! rows' 8 MiB, each AEU's share rounded up to whole segments: at most one
//! more segment per AEU) plus a small slack for the segment lists and the
//! load's per-AEU handles.  Staging the rows anywhere on the way (per-AEU
//! batches, say) shows up as a transient the size of those rows or of one
//! AEU's share.
//!
//! This binary holds one test, so no other test's allocations run beside
//! the load.
#![expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; this one forwards to the system allocator"
)]

use eris_column::DEFAULT_SEGMENT_CAPACITY;
use eris_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated, and the most ever allocated at once since
/// the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_column_load_allocates_only_the_segments_it_fills() {
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig::default(),
    );
    let n = e.num_aeus();
    assert_eq!(n, 4);
    let col = e.create_column("c");
    let rows = 1usize << 20;

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    e.bulk_load_column(col, 0..rows as u64);
    let peak = PEAK.load(Relaxed) - before;

    let segment = DEFAULT_SEGMENT_CAPACITY * 8;
    let filled = n * (rows / n).div_ceil(DEFAULT_SEGMENT_CAPACITY) * segment;
    let slack = 64 << 10;
    eprintln!("load peak: {peak} B over {before} B live before it; segments filled: {filled} B");
    assert_eq!(filled, rows * 8, "2^20 rows fill whole segments");
    assert!(
        peak <= filled + slack,
        "the load peaked {peak} B above its start, past the {filled} B of \
         segments it fills plus {slack} B of slack"
    );
}
