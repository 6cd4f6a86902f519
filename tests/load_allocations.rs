//! A load allocates what it keeps, and an index load one staging chunk
//! per AEU beside it.
//!
//! A counting global allocator tracks live heap bytes while a load puts
//! 2^20 rows or pairs onto 4 AEUs.
//! - `Engine::bulk_load_column`: the peak may exceed what was live before
//!   it by the segments it fills (the rows' 8 MiB, each AEU's share
//!   rounded up to whole segments: at most one more segment per AEU) plus
//!   a small slack for the segment lists and the load's per-AEU handles.
//! - `Engine::bulk_load_index`, prefix tree and hash table: the peak may
//!   exceed what is live after the load by each AEU's staging buffer of
//!   `TRANSFER_CHUNK` pairs, plus one index chunk and a small slack (see
//!   `index_load_peak`).
//!
//! Staging a load's rows or pairs anywhere else on the way (per-AEU
//! batches, say) shows up as a transient the size of one AEU's share.
//! The counters are global, so the tests take turns.
#![expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; this one forwards to the system allocator"
)]

use eris_column::DEFAULT_SEGMENT_CAPACITY;
use eris_core::balancer::TRANSFER_CHUNK;
use eris_core::prelude::*;
use eris_index::CHUNK_BYTES;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

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

/// Held by the running test: another test's allocations would count.
static TURN: Mutex<()> = Mutex::new(());

/// Wait for this test's turn, then an engine of 4 AEUs on 2 nodes.
fn turn_and_engine() -> (MutexGuard<'static, ()>, Engine) {
    let turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let e = Engine::new(
        eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig::default(),
    );
    assert_eq!(e.num_aeus(), 4);
    (turn, e)
}

/// Run `load`; returns its peak live bytes above the start, and what it
/// left live above the start.
fn measure(load: impl FnOnce()) -> (usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    load();
    let peak = PEAK.load(Relaxed) - before;
    (peak, LIVE.load(Relaxed).saturating_sub(before))
}

#[test]
fn a_column_load_allocates_only_the_segments_it_fills() {
    let (_turn, mut e) = turn_and_engine();
    let n = e.num_aeus();
    let col = e.create_column("c");
    let rows = 1usize << 20;

    let (peak, _) = measure(|| e.bulk_load_column(col, 0..rows as u64));

    let segment = DEFAULT_SEGMENT_CAPACITY * 8;
    let filled = n * (rows / n).div_ceil(DEFAULT_SEGMENT_CAPACITY) * segment;
    let slack = 64 << 10;
    eprintln!("load peak: {peak} B; segments filled: {filled} B");
    assert_eq!(filled, rows * 8, "2^20 rows fill whole segments");
    assert!(
        peak <= filled + slack,
        "the load peaked {peak} B above its start, past the {filled} B of \
         segments it fills plus {slack} B of slack"
    );
}

/// Load 2^20 dense pairs on 4 AEUs, twice: into an index whose domain
/// they fill, so that each AEU's range holds its share of the size hint,
/// and into one twice as wide, so that two AEUs take every pair, each
/// twice its share.  Bound each load's peak by what it keeps plus what it
/// may hold on the way:
/// - staging: each AEU's buffer of [`TRANSFER_CHUNK`] 16 B pairs, freed at
///   the end, since the load absorbs a buffer only when it is full;
/// - `chunks` index chunks ([`CHUNK_BYTES`]), by index kind:
///   - a tree arena's first chunk grows by doubling
///     (`ChunkVec::grow_chunks`), so while it reallocates the old block,
///     under one chunk, is live beside the new one: 1 chunk, as the load
///     runs on one thread and arenas reallocate one at a time;
///   - a hash AEU is sized for its share before its first chunk of keys
///     lands, which moves no key; past its share it grows, and a rehash
///     frees each old chunk once its keys are reinserted, in bucket order
///     (`HashTable::rehash`): beside the new array's filled part it holds
///     the old chunk it reads, the new chunk those keys run into, and the
///     new array's last chunk, which the keys that wrapped past the old
///     array's end fill first: 3 chunks;
/// - 64 KiB for the lists that grow beside them: the arenas' and the hash
///   table's chunk lists (one pointer per chunk, the old list freed after
///   the new one is made), and the load's per-AEU handles.
///
/// Staging an AEU's whole share, as a batch, fails the second load of
/// either kind: a batch of 2^19 pairs is 8 MiB.
fn index_load_peak(create: fn(&mut Engine, u64) -> DataObjectId, chunks: usize) {
    let (_turn, mut e) = turn_and_engine();
    let n = e.num_aeus();
    let keys = 1u64 << 20;
    for domain in [keys, 2 * keys] {
        let index = create(&mut e, domain);
        let (peak, live) = measure(|| e.bulk_load_index(index, (0..keys).map(|k| (k, k ^ 0x5EED))));

        let staging = n * TRANSFER_CHUNK * 16;
        let slack = chunks * CHUNK_BYTES + (64 << 10);
        eprintln!("domain {domain}: load peak {peak} B, {live} B live after it");
        assert!(
            peak <= live + staging + slack,
            "domain {domain}: the load peaked {peak} B above its start, past the \
             {live} B it keeps plus {staging} B of staging and {slack} B of slack"
        );
        let held: usize = (0..n as u32)
            .map(|a| e.aeu(AeuId(a)).partition(index).map_or(0, |p| p.data.len()))
            .sum();
        assert_eq!(held, keys as usize, "every pair landed");
    }
}

#[test]
fn a_prefix_tree_load_holds_one_chunk_of_pairs_per_aeu_beside_what_it_keeps() {
    index_load_peak(|e, domain| e.create_index("t", domain), 1);
}

#[test]
fn a_hash_index_load_holds_one_chunk_of_pairs_per_aeu_beside_what_it_keeps() {
    index_load_peak(|e, domain| e.create_hash_index("h", domain), 3);
}
