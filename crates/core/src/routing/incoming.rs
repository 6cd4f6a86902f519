//! The latch-free incoming double buffer of an AEU.
//!
//! Section 3.2, adapted from LLAMA's multi-buffer: *"Each AEU has two
//! incoming buffers of an equal size.  One buffer is currently writable for
//! all AEUs and the other one is currently the processed data command buffer
//! of the owning AEU.  To implement incoming buffers latch-free, each of
//! them contains a 64bit wide buffer descriptor that uses 1bit for
//! determining whether the buffer is still active or not, 32bit to save the
//! current offset inside the buffer, and the remaining 31bit for storing the
//! number of active writers to the buffer."*
//!
//! Writers reserve a byte range and increment the writer count in a single
//! CAS on the descriptor; after copying their commands they decrement the
//! writer count.  The owner swaps buffers by activating the drained buffer,
//! republishing the writable index, clearing the old buffer's active bit,
//! and spinning until its writer count reaches zero — at which point every
//! reserved range has been fully written and can be processed.
//!
//! Concurrency note: this module is written against the `eris-sync`
//! facade, so a build with `RUSTFLAGS="--cfg loom"` model-checks the
//! exact shipping protocol (see the `loom_models` test module and
//! DESIGN.md § Concurrency model).
#![expect(
    unsafe_code,
    reason = "writers copy into byte ranges the descriptor CAS reserved for them"
)]

use eris_sync::cell::UnsafeCell;
use eris_sync::hint;
use eris_sync::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Descriptor bit layout: `[active:1][offset:32][writers:31]`.
const WRITERS_BITS: u32 = 31;
const WRITERS_MASK: u64 = (1 << WRITERS_BITS) - 1;
const OFFSET_SHIFT: u32 = WRITERS_BITS;
const OFFSET_MASK: u64 = 0xFFFF_FFFF;
const ACTIVE_BIT: u64 = 1 << 63;

#[inline]
fn pack(active: bool, offset: u64, writers: u64) -> u64 {
    debug_assert!(offset <= OFFSET_MASK);
    debug_assert!(writers <= WRITERS_MASK);
    (if active { ACTIVE_BIT } else { 0 }) | (offset << OFFSET_SHIFT) | writers
}

#[inline]
fn is_active(d: u64) -> bool {
    d & ACTIVE_BIT != 0
}

#[inline]
fn offset(d: u64) -> u64 {
    (d >> OFFSET_SHIFT) & OFFSET_MASK
}

#[inline]
fn writers(d: u64) -> u64 {
    d & WRITERS_MASK
}

/// Error returned when the writable buffer lacks space; the writer keeps
/// its outgoing buffer and retries after the owner's next swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferFull;

struct Slot {
    desc: AtomicU64,
    bytes: Box<[UnsafeCell<u8>]>,
}

// SAFETY: byte ranges are reserved exclusively through the descriptor CAS,
// so concurrent writers never alias; the owner only reads a buffer after
// clearing its active bit and draining the writer count.
unsafe impl Sync for Slot {}
// SAFETY: the slot owns its buffer; moving it between threads moves plain
// bytes and an atomic descriptor, neither of which is thread-bound.
unsafe impl Send for Slot {}

/// Live write/swap counters of one incoming double buffer, updated with
/// relaxed atomics from both the writer and the owner side.
#[derive(Debug, Default)]
struct LiveIncomingStats {
    writes: AtomicU64,
    rejects: AtomicU64,
    swaps: AtomicU64,
    swapped_bytes: AtomicU64,
    peak_pending_bytes: AtomicU64,
}

/// A point-in-time copy of an incoming buffer's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncomingStats {
    /// Successful reservations (one per flushed outgoing buffer).
    pub writes: u64,
    /// Writes rejected with [`BufferFull`] (the writer retries later).
    pub rejects: u64,
    /// Owner-side buffer swaps.
    pub swaps: u64,
    /// Bytes handed to the owner by those swaps.
    pub swapped_bytes: u64,
    /// High-water mark of bytes pending in the writable buffer.
    pub peak_pending_bytes: u64,
}

/// The double incoming buffer of one AEU.
pub struct IncomingBuffers {
    slots: [Slot; 2],
    writable: AtomicUsize,
    capacity: usize,
    stats: LiveIncomingStats,
}

impl IncomingBuffers {
    /// Two buffers of `capacity` bytes each.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity as u64 <= OFFSET_MASK);
        let mk = || Slot {
            desc: AtomicU64::new(pack(false, 0, 0)),
            bytes: (0..capacity).map(|_| UnsafeCell::new(0)).collect(),
        };
        let b = IncomingBuffers {
            slots: [mk(), mk()],
            writable: AtomicUsize::new(0),
            capacity,
            stats: LiveIncomingStats::default(),
        };
        // ordering: Release publishes the zeroed buffer bytes before any
        // writer can observe the slot as active;
        // pairs-with: incoming-slot-activate.
        b.slots[0].desc.store(pack(true, 0, 0), Ordering::Release);
        b
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Telemetry counters accumulated since construction.
    pub fn stats(&self) -> IncomingStats {
        // ordering: Relaxed throughout — monotonic telemetry counters
        // carry no payload and synchronize nothing.
        IncomingStats {
            writes: self.stats.writes.load(Ordering::Relaxed),
            rejects: self.stats.rejects.load(Ordering::Relaxed),
            swaps: self.stats.swaps.load(Ordering::Relaxed),
            swapped_bytes: self.stats.swapped_bytes.load(Ordering::Relaxed),
            peak_pending_bytes: self.stats.peak_pending_bytes.load(Ordering::Relaxed),
        }
    }

    /// Zero the accumulated counters (start of a measurement window).
    /// Buffered command bytes are untouched.
    pub fn reset_stats(&self) {
        // ordering: Relaxed — counter zeroing needs no synchronization
        // with concurrent bumps; the window boundary is approximate by
        // design.
        self.stats.writes.store(0, Ordering::Relaxed);
        self.stats.rejects.store(0, Ordering::Relaxed);
        self.stats.swaps.store(0, Ordering::Relaxed);
        self.stats.swapped_bytes.store(0, Ordering::Relaxed);
        self.stats.peak_pending_bytes.store(0, Ordering::Relaxed);
    }

    /// Bytes pending in the currently writable buffer.
    pub fn pending_bytes(&self) -> usize {
        // ordering: Acquire on both loads — observe the writable index
        // and descriptor no older than the owner's last publication;
        // pairs-with: incoming-writable, incoming-reserve.
        let w = self.writable.load(Ordering::Acquire);
        // BOUNDS: the writable index is only ever stored as 0 or 1 over
        // the fixed two-slot array.
        offset(self.slots[w].desc.load(Ordering::Acquire)) as usize
    }

    /// Write `data` into the writable buffer (any thread).
    ///
    /// Implements the paper's writer protocol: reserve offset + increment
    /// writer count in one CAS, copy, decrement writer count.
    // HOT-PATH-ROOT: the paper's writer protocol — every producer
    // thread runs this per command; it must never panic, allocate,
    // or block.
    pub fn write(&self, data: &[u8]) -> Result<(), BufferFull> {
        if data.len() > self.capacity {
            // A record no swap could ever make room for: rejecting it as
            // BufferFull (rather than asserting) keeps the writer
            // protocol total — the caller already handles full buffers.
            // ordering: Relaxed — telemetry counter, no payload.
            self.stats.rejects.fetch_add(1, Ordering::Relaxed);
            return Err(BufferFull);
        }
        loop {
            // ordering: Acquire pairs with the owner's Release store of
            // the republished writable index during a swap;
            // pairs-with: incoming-writable.
            let w = self.writable.load(Ordering::Acquire);
            // BOUNDS: the writable index is only ever stored as 0 or 1 over
            // the fixed two-slot array.
            let slot = &self.slots[w];
            // ordering: Acquire pairs with the owner's Release
            // (re)activation store so a writer that sees the active bit
            // also sees a fully initialized descriptor;
            // pairs-with: incoming-slot-activate, incoming-retire, incoming-slot-recycle.
            let d = slot.desc.load(Ordering::Acquire);
            if !is_active(d) {
                // The owner is mid-swap; the writable index will move.
                hint::spin_loop();
                continue;
            }
            let off = offset(d);
            if off as usize + data.len() > self.capacity {
                // ordering: Relaxed — telemetry counter, no payload.
                self.stats.rejects.fetch_add(1, Ordering::Relaxed);
                return Err(BufferFull);
            }
            let nd = pack(true, off + data.len() as u64, writers(d) + 1);
            // ordering: AcqRel — the Acquire half keeps our byte copy
            // below from floating above the reservation; the Release
            // half makes the claimed range visible to the owner's
            // retire CAS.  Failure reloads with Acquire for the retry;
            // pairs-with: incoming-reserve, incoming-slot-activate.
            if slot
                .desc
                .compare_exchange_weak(d, nd, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // Range [off, off+len) is exclusively ours.
            // BOUNDS: the descriptor CAS reserved [off, off+len) with
            // off + len <= capacity == bytes.len().
            slot.bytes[off as usize].with_mut(|dst| {
                // SAFETY: the descriptor CAS reserved [off, off+len)
                // exclusively for this writer; cells are
                // repr(transparent), so the pointer walks contiguous
                // bytes that stay in bounds (off + len <= capacity).
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), dst, data.len());
                }
            });
            // Publish completion: writers -= 1 (offset/active untouched).
            // ordering: the Release half pairs with the owner's Acquire
            // drain-loop load so a writer count of zero proves every
            // reserved byte range is fully copied; AcqRel (not plain
            // Release) also keeps the decrement ordered against the
            // copy above on the writer side;
            // pairs-with: incoming-writer-done.
            slot.desc.fetch_sub(1, Ordering::AcqRel);
            // ordering: Relaxed — telemetry counters, no payload.
            self.stats.writes.fetch_add(1, Ordering::Relaxed);
            self.stats
                .peak_pending_bytes
                .fetch_max(off + data.len() as u64, Ordering::Relaxed);
            return Ok(());
        }
    }

    /// Owner-side swap: activate the drained buffer, retire the filled one,
    /// wait for its writers, and hand its contents to `consume`.
    ///
    /// Returns the number of bytes consumed.
    // HOT-PATH-ROOT: the owner-side swap, once per AEU step; the
    // spin-drain makes any blocking call here a latency cliff.
    pub fn swap_and_consume(&self, mut consume: impl FnMut(&[u8])) -> usize {
        // ordering: Acquire — the owner rereads its own last Release
        // store; Relaxed would do, Acquire keeps the invariant simple:
        // every `writable` load in this module is Acquire;
        // pairs-with: incoming-writable.
        let old = self.writable.load(Ordering::Acquire);
        let new = 1 - old;
        // BOUNDS: the writable index is only ever stored as 0 or 1 over
        // the fixed two-slot array.
        let (old_slot, new_slot) = (&self.slots[old], &self.slots[new]);
        // The other buffer was fully drained by the previous swap.
        debug_assert_eq!(
            // ordering: Acquire — see the drain loop below;
            // pairs-with: incoming-writer-done, incoming-slot-recycle.
            writers(new_slot.desc.load(Ordering::Acquire)),
            0,
            "drained buffer must have no writers"
        );
        // Activate the fresh buffer, then republish the writable index.
        // ordering: Release on both stores, and activation strictly
        // before republication — a writer that reaches the fresh slot
        // through the new index must observe it active, and a writer
        // that reaches it early (stale CAS on a zeroed descriptor)
        // must see the zeroed offset, not a stale one;
        // pairs-with: incoming-slot-activate, incoming-writable.
        new_slot.desc.store(pack(true, 0, 0), Ordering::Release);
        self.writable.store(new, Ordering::Release);
        // Retire the old buffer: clear its active bit so late CAS attempts
        // fail and writers move over to the new buffer.
        // ordering: Acquire load + AcqRel CAS — the retire must observe
        // every reservation that won its CAS before the bit flips, and
        // its Release half publishes the cleared bit to spinning writers;
        // pairs-with: incoming-retire, incoming-reserve.
        let mut d = old_slot.desc.load(Ordering::Acquire);
        loop {
            match old_slot.desc.compare_exchange_weak(
                d,
                d & !ACTIVE_BIT,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(cur) => d = cur,
            }
        }
        // Drain: every writer that reserved a range has to finish copying.
        loop {
            // ordering: Acquire pairs with each writer's AcqRel
            // `fetch_sub`; once the count reads zero, every reserved
            // range's bytes happened-before this load;
            // pairs-with: incoming-writer-done, incoming-reserve.
            let d = old_slot.desc.load(Ordering::Acquire);
            if writers(d) == 0 {
                break;
            }
            hint::spin_loop();
        }
        // ordering: Acquire — same pairing as the drain loop; re-read
        // for the final offset after the active bit was cleared;
        // pairs-with: incoming-writer-done, incoming-reserve.
        let filled = offset(old_slot.desc.load(Ordering::Acquire)) as usize;
        if filled > 0 {
            // BOUNDS: `new` asserts a non-zero capacity.
            old_slot.bytes[0].with(|base| {
                // SAFETY: the buffer is inactive and writer-free, so no
                // writer can alias it; cells are repr(transparent) and
                // `filled <= capacity`, so the slice stays in bounds.
                let data = unsafe { std::slice::from_raw_parts(base, filled) };
                consume(data);
            });
        }
        // Leave the old buffer empty and inactive, ready for the next swap.
        // ordering: Release — the next activation of this slot must not
        // be observable before the owner is done reading its bytes;
        // pairs-with: incoming-slot-recycle.
        old_slot.desc.store(pack(false, 0, 0), Ordering::Release);
        // ordering: Relaxed — telemetry counters, no payload.
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        self.stats
            .swapped_bytes
            .fetch_add(filled as u64, Ordering::Relaxed);
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn descriptor_packing_roundtrips() {
        let d = pack(true, 12345, 17);
        assert!(is_active(d));
        assert_eq!(offset(d), 12345);
        assert_eq!(writers(d), 17);
        let d = pack(false, OFFSET_MASK, WRITERS_MASK);
        assert!(!is_active(d));
        assert_eq!(offset(d), OFFSET_MASK);
        assert_eq!(writers(d), WRITERS_MASK);
    }

    #[test]
    fn write_then_consume() {
        let b = IncomingBuffers::new(1024);
        b.write(b"hello").unwrap();
        b.write(b"world").unwrap();
        assert_eq!(b.pending_bytes(), 10);
        let mut got = Vec::new();
        let n = b.swap_and_consume(|d| got.extend_from_slice(d));
        assert_eq!(n, 10);
        assert_eq!(got, b"helloworld");
        assert_eq!(b.pending_bytes(), 0);
    }

    #[test]
    fn consume_empty_is_noop() {
        let b = IncomingBuffers::new(64);
        let mut called = false;
        assert_eq!(b.swap_and_consume(|_| called = true), 0);
        assert!(!called);
    }

    #[test]
    fn full_buffer_reports_and_recovers_after_swap() {
        let b = IncomingBuffers::new(8);
        b.write(&[1; 6]).unwrap();
        assert_eq!(b.write(&[2; 4]), Err(BufferFull));
        b.swap_and_consume(|_| {});
        assert_eq!(b.write(&[2; 4]), Ok(()));
    }

    #[test]
    fn double_buffering_alternates() {
        let b = IncomingBuffers::new(64);
        for round in 0..10u8 {
            b.write(&[round; 3]).unwrap();
            let mut got = Vec::new();
            b.swap_and_consume(|d| got.extend_from_slice(d));
            assert_eq!(got, vec![round; 3]);
        }
    }

    #[test]
    fn concurrent_writers_with_spinning_owner() {
        // The real protocol under real parallelism: writers publish
        // length-prefixed records; the owner swaps continuously and must
        // recover every record intact.
        let b = Arc::new(IncomingBuffers::new(4096));
        let writers = 4;
        let per = 2000u32;
        let mut handles = Vec::new();
        for t in 0..writers {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let val = (t as u32) << 24 | i;
                    let mut rec = Vec::with_capacity(8);
                    rec.extend_from_slice(&4u32.to_le_bytes());
                    rec.extend_from_slice(&val.to_le_bytes());
                    while b.write(&rec).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut seen: Vec<u32> = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while seen.len() < (writers as usize) * per as usize {
            assert!(std::time::Instant::now() < deadline, "stalled protocol");
            b.swap_and_consume(|mut d| {
                while !d.is_empty() {
                    let len = u32::from_le_bytes(d[..4].try_into().unwrap()) as usize;
                    assert_eq!(len, 4, "record framing intact");
                    let val = u32::from_le_bytes(d[4..8].try_into().unwrap());
                    seen.push(val);
                    d = &d[8..];
                }
            });
        }
        for h in handles {
            h.join().unwrap();
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            (writers as usize) * per as usize,
            "no loss, no dup"
        );
        for t in 0..writers as u32 {
            for i in 0..per {
                assert!(seen.binary_search(&(t << 24 | i)).is_ok());
            }
        }
    }

    #[test]
    fn oversized_write_is_rejected_not_panicking() {
        // A record larger than a whole buffer can never fit, even after
        // a swap: the writer gets BufferFull (counted as a reject), and
        // the buffer stays fully usable for sane records.
        let b = IncomingBuffers::new(8);
        assert_eq!(b.write(&[0; 9]), Err(BufferFull));
        assert_eq!(b.stats().rejects, 1);
        assert_eq!(b.write(&[7; 8]), Ok(()));
        assert_eq!(b.pending_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_beyond_the_32_bit_offset_field_is_rejected() {
        // The offset field is 32 bits wide; a buffer it cannot index is
        // refused up front (the assert fires before any allocation).
        IncomingBuffers::new((OFFSET_MASK as usize) + 1);
    }

    #[test]
    fn write_at_the_exact_full_buffer_boundary() {
        // The reservation arithmetic at `offset == capacity`: a record
        // that lands exactly on the boundary is accepted, the very next
        // byte is rejected, and the swap hands back precisely
        // `capacity` bytes with the descriptor reset to zero.
        let b = IncomingBuffers::new(8);
        b.write(&[0xAA; 5]).unwrap();
        b.write(&[0xBB; 3]).unwrap(); // offset is now exactly 8 == capacity
        assert_eq!(b.pending_bytes(), 8, "offset sits on the boundary");
        assert_eq!(b.write(&[0xCC]), Err(BufferFull), "no room for one byte");
        assert_eq!(b.stats().rejects, 1);
        let mut got = Vec::new();
        let n = b.swap_and_consume(|d| got.extend_from_slice(d));
        assert_eq!(n, 8);
        assert_eq!(got, [[0xAA; 5].as_slice(), [0xBB; 3].as_slice()].concat());
        assert_eq!(b.pending_bytes(), 0, "descriptor reset after the swap");
        // The freshly activated buffer accepts a full-capacity record.
        b.write(&[0xDD; 8]).unwrap();
        assert_eq!(b.write(&[0xEE]), Err(BufferFull));
        let mut got = Vec::new();
        b.swap_and_consume(|d| got.extend_from_slice(d));
        assert_eq!(got, [0xDD; 8]);
    }

    #[test]
    fn live_writer_count_is_bounded_by_the_thread_count() {
        // A silent wrap of the 31-bit writer-count field needs either
        // >2^31 concurrent writers (impossible) or a stray decrement
        // borrowing into the offset bits.  Sample the live descriptors of
        // both slots under real contention: the observed writer count
        // must never exceed the number of writer threads — a borrow would
        // read as a count near WRITERS_MASK.
        let b = Arc::new(IncomingBuffers::new(1 << 13));
        let writers_n = 6u64;
        let per = 3000u32;
        let mut handles = Vec::new();
        for t in 0..writers_n as u32 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let rec = (t << 16 | i).to_le_bytes();
                    while b.write(&rec).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut consumed = 0usize;
        let want = writers_n as usize * per as usize * 4;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while consumed < want {
            assert!(std::time::Instant::now() < deadline, "stalled protocol");
            for s in &b.slots {
                let w = writers(s.desc.load(Ordering::Acquire));
                assert!(
                    w <= writers_n,
                    "writer count {w} exceeds {writers_n} live writers: wrapped"
                );
            }
            consumed += b.swap_and_consume(|d| assert_eq!(d.len() % 4, 0));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumed, want, "every record delivered");
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The descriptor pack/unpack functions round-trip every field over
        /// its full legal range: `[active:1][offset:32][writers:31]`.
        #[test]
        fn descriptor_fields_roundtrip(
            active in proptest::bool::ANY,
            off in 0u64..=OFFSET_MASK,
            wr in 0u64..=WRITERS_MASK,
        ) {
            let d = pack(active, off, wr);
            prop_assert_eq!(is_active(d), active);
            prop_assert_eq!(offset(d), off);
            prop_assert_eq!(writers(d), wr);
        }

        /// The three fields occupy disjoint bit ranges: changing one never
        /// bleeds into another, even at the saturation points of the 32-bit
        /// offset and 31-bit writer-count masks.
        #[test]
        fn descriptor_fields_are_independent(
            off_any in 0u64..=OFFSET_MASK,
            wr_any in 0u64..=WRITERS_MASK,
            off_edge in 0usize..5,
            wr_edge in 0usize..5,
        ) {
            // Bias towards the saturation points of both masks.
            let off = [0, 1, OFFSET_MASK - 1, OFFSET_MASK, off_any][off_edge];
            let wr = [0, 1, WRITERS_MASK - 1, WRITERS_MASK, wr_any][wr_edge];
            // Saturating the offset must leave writers and the active bit
            // untouched, and vice versa.
            let d = pack(false, off, wr);
            prop_assert!(!is_active(d));
            prop_assert_eq!(offset(d), off);
            prop_assert_eq!(writers(d), wr);
            // Setting the active bit changes exactly one bit.
            let da = pack(true, off, wr);
            prop_assert_eq!(d ^ da, 1u64 << 63);
            // The CAS fast paths mutate the packed word directly: writers
            // live in the low bits (fetch_sub(1) on completion) and a
            // reservation adds both an offset delta and one writer.
            if wr > 0 {
                let done = da - 1;
                prop_assert!(is_active(done));
                prop_assert_eq!(offset(done), off);
                prop_assert_eq!(writers(done), wr - 1);
            }
            if off < OFFSET_MASK && wr < WRITERS_MASK {
                let reserved = pack(true, off + 1, wr + 1);
                prop_assert_eq!(offset(reserved), off + 1);
                prop_assert_eq!(writers(reserved), wr + 1);
            }
        }

        /// The descriptor arithmetic the protocol actually performs —
        /// `pack(active, off + len, writers + 1)` on reservation, a raw
        /// `desc - 1` on completion (the `fetch_sub`) — stays exact with
        /// the writer count at the brink of its 31-bit field: no carry
        /// into the offset on the way up, no borrow out of it on the way
        /// down, and a full reserve/complete cycle restores the
        /// descriptor bit-for-bit.
        #[test]
        fn writer_count_is_exact_at_the_31_bit_brink(
            off0 in 0u64..=(OFFSET_MASK - 512),
            lens in proptest::collection::vec(1u64..16, 1..30),
        ) {
            let n = lens.len() as u64;
            for base in [0, 1, WRITERS_MASK - 30 - n, WRITERS_MASK - n] {
                let start = pack(true, off0, base);
                let mut d = start;
                let mut off = off0;
                for (i, &l) in lens.iter().enumerate() {
                    off += l;
                    d = pack(true, off, writers(d) + 1);
                    prop_assert_eq!(writers(d), base + i as u64 + 1);
                    prop_assert_eq!(offset(d), off, "no carry into the offset");
                    prop_assert!(is_active(d));
                }
                for i in 0..n {
                    d -= 1; // exactly what `desc.fetch_sub(1)` publishes
                    prop_assert_eq!(writers(d), base + n - i - 1);
                    prop_assert_eq!(offset(d), off, "no borrow out of the offset");
                    prop_assert!(is_active(d));
                }
                prop_assert_eq!(d, pack(true, off, base), "cycle restores the descriptor");
            }
        }

        /// Any interleaving of writes and swaps preserves every byte:
        /// length-framed records come out exactly once, intact, in
        /// per-producer order.
        #[test]
        fn fuzz_write_swap_sequences(
            capacity in 64usize..512,
            script in proptest::collection::vec(
                // (is_swap, record_len)
                (proptest::bool::ANY, 1usize..40),
                1..120,
            ),
        ) {
            let buf = IncomingBuffers::new(capacity);
            let mut seq = 0u8;
            let mut written: Vec<Vec<u8>> = Vec::new();
            let mut consumed: Vec<u8> = Vec::new();
            for (is_swap, len) in script {
                if is_swap {
                    buf.swap_and_consume(|d| consumed.extend_from_slice(d));
                } else {
                    let len = len.min(capacity - 2);
                    let mut rec = Vec::with_capacity(len + 2);
                    rec.push(len as u8);
                    rec.push(seq);
                    rec.extend(std::iter::repeat_n(seq ^ 0xA5, len));
                    if buf.write(&rec).is_ok() {
                        written.push(rec);
                        seq = seq.wrapping_add(1);
                    }
                }
            }
            // Final drains (double buffer: two swaps flush everything).
            buf.swap_and_consume(|d| consumed.extend_from_slice(d));
            buf.swap_and_consume(|d| consumed.extend_from_slice(d));

            // Reassemble records and compare with what was accepted.
            let mut out: Vec<Vec<u8>> = Vec::new();
            let mut rest = consumed.as_slice();
            while !rest.is_empty() {
                let len = rest[0] as usize;
                prop_assert!(rest.len() >= len + 2, "framing intact");
                out.push(rest[..len + 2].to_vec());
                rest = &rest[len + 2..];
            }
            prop_assert_eq!(out, written, "every accepted record delivered once, in order");
        }
    }
}

/// Model-checked interleaving exploration of the descriptor protocol.
///
/// Under a plain `cargo test` each model runs once with real threads (a
/// smoke test); under `RUSTFLAGS="--cfg loom"` the `eris-sync` facade
/// swaps in the loom shim and every schedule within the preemption
/// bound (`LOOM_MAX_PREEMPTIONS`, default 2) is explored exhaustively.
/// Run with `cargo test -p eris-core --lib loom_`.
#[cfg(test)]
mod loom_models {
    use super::*;
    use eris_sync::sync::Arc;
    use eris_sync::{model, thread};

    /// No write is ever lost or duplicated across a concurrent buffer
    /// swap: two writers race one swapping owner; every accepted byte
    /// comes back out exactly once.
    #[test]
    fn loom_no_lost_writes_across_buffer_swap() {
        model(|| {
            let b = Arc::new(IncomingBuffers::new(8));
            let handles: Vec<_> = [1u8, 2u8]
                .into_iter()
                .map(|tag| {
                    let b = Arc::clone(&b);
                    thread::spawn(move || {
                        while b.write(&[tag]).is_err() {
                            thread::yield_now();
                        }
                    })
                })
                .collect();
            let mut got = Vec::new();
            // One swap races the in-flight writers...
            b.swap_and_consume(|d| got.extend_from_slice(d));
            for h in handles {
                h.join().unwrap();
            }
            // ...and two quiescent swaps drain both buffers.
            b.swap_and_consume(|d| got.extend_from_slice(d));
            b.swap_and_consume(|d| got.extend_from_slice(d));
            got.sort_unstable();
            assert_eq!(
                got,
                vec![1, 2],
                "every accepted write consumed exactly once"
            );
            let st = b.stats();
            assert_eq!(st.writes, 2);
            assert_eq!(st.swapped_bytes, 2, "byte conservation across swaps");
        });
    }

    /// The 31-bit writer count never exceeds the number of live writer
    /// threads at any point the owner can observe, and never borrows
    /// into the offset field — checked at every interleaving of two
    /// writers against a swapping owner.
    #[test]
    fn loom_writer_count_stays_bounded_at_every_interleaving() {
        model(|| {
            let b = Arc::new(IncomingBuffers::new(2));
            let writers_n = 2u64;
            let handles: Vec<_> = (0..writers_n)
                .map(|t| {
                    let b = Arc::clone(&b);
                    thread::spawn(move || {
                        // Each record fills the buffer exactly, forcing
                        // the full-buffer reject path and retries across
                        // swaps.
                        while b.write(&[t as u8; 2]).is_err() {
                            thread::yield_now();
                        }
                    })
                })
                .collect();
            let mut consumed = 0usize;
            while consumed < (writers_n as usize) * 2 {
                for s in &b.slots {
                    // ordering: Acquire — observe the freshest count the
                    // protocol can publish at this point.
                    let w = writers(s.desc.load(Ordering::Acquire));
                    assert!(w <= writers_n, "writer count {w} exceeds {writers_n}");
                }
                consumed += b.swap_and_consume(|d| {
                    assert!(d.len() <= 2, "no range beyond the boundary");
                });
                thread::yield_now();
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(consumed, 4, "both boundary-filling records delivered");
        });
    }

    /// A reservation landing exactly on `offset == capacity` stays
    /// intact across a concurrent swap: the boundary write is either in
    /// the drained buffer or the fresh one, never torn between them.
    #[test]
    fn loom_full_buffer_boundary_survives_concurrent_swap() {
        model(|| {
            let b = Arc::new(IncomingBuffers::new(4));
            let w = {
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    // Fills a buffer to the boundary in one reservation.
                    while b.write(&[7, 8, 9, 10]).is_err() {
                        thread::yield_now();
                    }
                })
            };
            let mut got = Vec::new();
            b.swap_and_consume(|d| got.extend_from_slice(d));
            w.join().unwrap();
            b.swap_and_consume(|d| got.extend_from_slice(d));
            b.swap_and_consume(|d| got.extend_from_slice(d));
            assert_eq!(got, vec![7, 8, 9, 10], "boundary record intact");
        });
    }
}
