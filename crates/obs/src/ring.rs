//! Bounded lock-free trace-event rings.
//!
//! One ring per AEU records the most recent trace events.  Rings are
//! **overwrite-oldest**: emission never blocks the hot path on a slow
//! (or absent) consumer, and a full ring silently recycles its oldest
//! slot — but never silently *loses* an event: the accounting invariant
//!
//! ```text
//! emitted == retained + dropped
//! ```
//!
//! holds exactly at every quiescent point (no in-flight writers).  It is
//! maintained by charging `dropped` at the moment an event becomes
//! unreadable: when a newer write displaces a completed slot, and when a
//! writer abandons its claim because an even newer generation already
//! occupies its slot.
//!
//! ## Concurrency
//!
//! Writers are typically one AEU, but the engine thread also emits into
//! AEU rings (balancer migrations, journal barriers), so the ring is
//! multi-writer.  Each emission claims a unique global generation with
//! one `fetch_add`; the slot is a per-slot seqlock whose sequence word
//! encodes `(generation + 1) << 1 | busy`.  Sequences are monotonic per
//! slot, so a late old-generation writer can never clobber a newer
//! event.  Readers copy slots optimistically and discard torn reads.

//!
//! The module is written against the `eris-sync` facade, so a build
//! with `RUSTFLAGS="--cfg loom"` model-checks the exact shipping
//! protocol (see the `loom_models` test module and DESIGN.md
//! § Concurrency model).
#![expect(
    unsafe_code,
    reason = "seqlock slots are read and written through raw pointers"
)]

use crate::event::Stamped;
use crate::event::TraceEvent;
use eris_sync::cell::UnsafeCell;
use eris_sync::hint;
use eris_sync::sync::atomic::{fence, AtomicU64, Ordering};

struct Slot {
    /// `0` = never written; else `(generation + 1) << 1 | busy_bit`.
    seq: AtomicU64,
    data: UnsafeCell<Stamped>,
}

/// A bounded multi-writer overwrite-oldest event ring.
pub struct TraceRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Total events offered (each `emit` claims one generation).
    head: AtomicU64,
    /// Events no longer readable: displaced by overwrite or abandoned
    /// to a newer generation.
    dropped: AtomicU64,
}

// SAFETY: slot payloads are only read/written under the per-slot
// sequence protocol; torn reads are detected and discarded.
unsafe impl Sync for TraceRing {}
// SAFETY: the ring owns its slots; none of them is thread-bound.
unsafe impl Send for TraceRing {}

/// Accounting snapshot of one ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    pub capacity: u64,
    pub emitted: u64,
    pub retained: u64,
    pub dropped: u64,
}

const PLACEHOLDER: Stamped = Stamped {
    at_ns: 0,
    aeu: 0,
    event: TraceEvent::BufferSwap {
        bytes: 0,
        commands: 0,
    },
};

impl TraceRing {
    /// A ring holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(PLACEHOLDER),
            })
            .collect();
        TraceRing {
            slots,
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record one event.  Wait-free except for a bounded spin when an
    /// older writer is mid-write in the same slot (a full ring-lap race,
    /// vanishingly rare at sane capacities).
    // HOT-PATH-ROOT: called per traced command from the AEU loop;
    // the seqlock claim must stay wait-free.
    pub fn emit(&self, event: Stamped) {
        // ordering: Relaxed — the generation counter only needs
        // atomicity; payload publication is ordered by the per-slot
        // seqlock below, and `stats` tolerates transient skew.
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        // BOUNDS: the claim position is masked to the power-of-two
        // capacity.
        let slot = &self.slots[(pos & self.mask) as usize];
        let done = (pos + 1) << 1;
        let busy = done | 1;
        loop {
            // ordering: Acquire pairs with the Release completion store
            // of whichever writer last owned this slot;
            // pairs-with: ring-slot-seq.
            let cur = slot.seq.load(Ordering::Acquire);
            if cur >= done {
                // A newer generation already owns this slot: our event
                // is stale before it was ever readable.
                // ordering: Relaxed — ledger counter, no payload.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if cur & 1 == 1 {
                hint::spin_loop();
                continue;
            }
            // ordering: Acquire on success — the claim is a lock
            // acquire: an acquire RMW forbids the payload write below
            // from floating above it, so readers can never see new
            // bytes under an old even sequence.  Failure is Relaxed;
            // the retry re-reads with Acquire above.
            if slot
                .seq
                .compare_exchange_weak(cur, busy, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                if cur != 0 {
                    // We displace a completed older event.
                    // ordering: Relaxed — ledger counter, no payload.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                slot.data.with_mut(|p| {
                    // SAFETY: the busy bit exclusively claims the slot.
                    unsafe { std::ptr::write_volatile(p, event) }
                });
                // ordering: Release publishes the payload before the
                // even sequence that readers validate against;
                // pairs-with: ring-slot-seq.
                slot.seq.store(done, Ordering::Release);
                return;
            }
        }
    }

    /// Copy out the currently retained events, oldest first.  Torn slots
    /// (an in-flight overwrite) are skipped; their displacement is
    /// charged to `dropped` by the writer.
    pub fn snapshot(&self) -> Vec<Stamped> {
        let mut entries: Vec<(u64, Stamped)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            for _ in 0..8 {
                // ordering: Acquire pairs with a completing writer's
                // Release store, so an even sequence implies its
                // payload bytes are visible below;
                // pairs-with: ring-slot-seq.
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    break;
                }
                if s1 & 1 == 1 {
                    hint::spin_loop();
                    continue;
                }
                let data = slot.data.with(|p| {
                    // SAFETY: optimistic copy; a torn or stale payload
                    // is discarded by the sequence validation below.
                    unsafe { std::ptr::read_volatile(p) }
                });
                // ordering: the Acquire fence pins the payload copy
                // above the validation load — an Acquire *load* alone
                // would not, since prior accesses may reorder past it.
                // This is the canonical seqlock read-side fence
                // (crossbeam's SeqLock::validate_read does the same).
                fence(Ordering::Acquire);
                // ordering: Relaxed — the fence above already orders
                // this validation load against the payload copy.
                if slot.seq.load(Ordering::Relaxed) == s1 {
                    entries.push((s1 >> 1, data));
                    break;
                }
            }
        }
        entries.sort_unstable_by_key(|(gen, _)| *gen);
        entries.into_iter().map(|(_, d)| d).collect()
    }

    /// Events retained by kind, newest last (convenience for tickers).
    pub fn snapshot_kind(&self, kind: &str) -> Vec<Stamped> {
        self.snapshot()
            .into_iter()
            .filter(|s| s.event.kind() == kind)
            .collect()
    }

    pub fn stats(&self) -> RingStats {
        // ordering: Acquire on both, and load order matters for a
        // quiescent reader: `dropped` first so a concurrent emit can
        // only make `retained` look larger, never negative.
        let dropped = self.dropped.load(Ordering::Acquire);
        let emitted = self.head.load(Ordering::Acquire);
        RingStats {
            capacity: self.slots.len() as u64,
            emitted,
            retained: emitted.saturating_sub(dropped),
            dropped,
        }
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(1024)
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use proptest::prelude::*;

    fn ev(i: u64) -> Stamped {
        Stamped {
            at_ns: i,
            aeu: 0,
            event: TraceEvent::BufferSwap {
                bytes: i,
                commands: i as u32,
            },
        }
    }

    #[test]
    fn under_capacity_everything_is_retained_in_order() {
        let ring = TraceRing::new(8);
        for i in 0..5 {
            ring.emit(ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
        let st = ring.stats();
        assert_eq!((st.emitted, st.retained, st.dropped), (5, 5, 0));
    }

    #[test]
    fn overwrite_keeps_the_newest_and_counts_the_displaced() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.emit(ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|s| s.at_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "the newest `capacity` events survive, oldest first"
        );
        let st = ring.stats();
        assert_eq!(st.emitted, 10);
        assert_eq!(st.dropped, 6);
        assert_eq!(st.retained as usize, snap.len());
    }

    proptest! {
        /// The drop ledger is exact for any emission count and capacity:
        /// at quiescence, emitted == snapshot-visible + dropped.
        #[test]
        fn emitted_equals_retained_plus_dropped(
            cap in 1usize..64,
            n in 0u64..500,
        ) {
            let ring = TraceRing::new(cap);
            for i in 0..n {
                ring.emit(ev(i));
            }
            let st = ring.stats();
            prop_assert_eq!(st.emitted, n);
            let snap = ring.snapshot();
            prop_assert_eq!(st.retained as usize, snap.len());
            prop_assert_eq!(st.emitted, st.retained + st.dropped);
            // Retention is bounded by capacity and keeps the suffix.
            prop_assert!(snap.len() as u64 <= st.capacity);
            let expect_first = n.saturating_sub(st.capacity);
            let got: Vec<u64> = snap.iter().map(|s| s.at_ns).collect();
            let want: Vec<u64> = (expect_first..n).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn concurrent_writers_never_break_the_ledger() {
        let ring = std::sync::Arc::new(TraceRing::new(64));
        let writers = 8u64;
        let per = 5000u64;
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        ring.emit(ev(t * per + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = ring.stats();
        assert_eq!(st.emitted, writers * per);
        assert_eq!(st.emitted, st.retained + st.dropped, "{st:?}");
        let snap = ring.snapshot();
        assert_eq!(snap.len() as u64, st.retained, "{st:?}");
        // Every retained event is one that was actually emitted (no
        // torn payloads): bytes mirrors the write index.
        for s in snap {
            match s.event {
                TraceEvent::BufferSwap { bytes, commands } => {
                    assert_eq!(bytes, s.at_ns);
                    assert_eq!(commands, s.at_ns as u32);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
}

/// Model-checked interleaving exploration of the per-slot seqlock.
///
/// Under a plain `cargo test` each model runs once with real threads (a
/// smoke test); under `RUSTFLAGS="--cfg loom"` the `eris-sync` facade
/// swaps in the loom shim and every schedule within the preemption
/// bound (`LOOM_MAX_PREEMPTIONS`, default 2) is explored exhaustively.
/// Run with `cargo test -p eris-obs --lib loom_`.
///
/// Fidelity note: the shim explores interleavings under sequential
/// consistency only (see `shims/loom`), so it checks the slot-claim
/// and ledger protocol, not C11 reordering.  The reader-side Acquire
/// *fence* bug in `snapshot` (a bare Acquire validation load lets the
/// payload copy sink below it) was found by review against the
/// canonical crossbeam `SeqLock::validate_read` pattern, not by these
/// models — an SC explorer cannot exhibit it.  The ledger models are
/// mutation-tested: dropping the abandon-path `dropped` charge makes
/// `loom_emitted_equals_retained_plus_dropped_under_overwrite` fail.
#[cfg(test)]
mod loom_models {
    use super::*;
    use crate::event::TraceEvent;
    use eris_sync::sync::Arc;
    use eris_sync::{model, thread};

    /// A well-formed event whose fields are mutually redundant, so any
    /// torn mix of two events is detectable.
    fn ev(i: u64) -> Stamped {
        Stamped {
            at_ns: i,
            aeu: 0,
            event: TraceEvent::BufferSwap {
                bytes: i,
                commands: i as u32,
            },
        }
    }

    fn assert_coherent(s: &Stamped) {
        match s.event {
            TraceEvent::BufferSwap { bytes, commands } => {
                assert_eq!(bytes, s.at_ns, "payload torn across writers");
                assert_eq!(commands, s.at_ns as u32, "payload torn across writers");
            }
            ref other => panic!("unexpected event {other:?}"),
        }
    }

    /// A snapshot racing two writers in the same two-slot ring never
    /// observes a torn payload: every returned event is one that some
    /// writer emitted, bit-for-bit.
    #[test]
    fn loom_seqlock_readers_never_observe_torn_slots() {
        model(|| {
            let ring = Arc::new(TraceRing::new(2));
            let handles: Vec<_> = [1u64, 2u64]
                .into_iter()
                .map(|i| {
                    let ring = Arc::clone(&ring);
                    thread::spawn(move || ring.emit(ev(i)))
                })
                .collect();
            // Race a snapshot against the in-flight writers.
            for s in ring.snapshot() {
                assert_coherent(&s);
            }
            for h in handles {
                h.join().unwrap();
            }
            // At quiescence everything emitted is readable and coherent.
            let snap = ring.snapshot();
            let st = ring.stats();
            assert_eq!(st.emitted, 2);
            assert_eq!(st.emitted, st.retained + st.dropped, "{st:?}");
            assert_eq!(snap.len() as u64, st.retained, "{st:?}");
            for s in &snap {
                assert_coherent(s);
            }
        });
    }

    /// Conservation under overwrite pressure: four emissions into a
    /// two-slot ring displace at least two events, and at quiescence
    /// `emitted == retained + dropped` holds exactly at every
    /// interleaving — including the abandon path where a late writer
    /// finds a newer generation already in its slot.
    #[test]
    fn loom_emitted_equals_retained_plus_dropped_under_overwrite() {
        model(|| {
            let ring = Arc::new(TraceRing::new(2));
            let handles: Vec<_> = [0u64, 1u64]
                .into_iter()
                .map(|t| {
                    let ring = Arc::clone(&ring);
                    thread::spawn(move || {
                        ring.emit(ev(t * 2 + 1));
                        ring.emit(ev(t * 2 + 2));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let st = ring.stats();
            assert_eq!(st.emitted, 4);
            assert_eq!(st.emitted, st.retained + st.dropped, "ledger leaks: {st:?}");
            let snap = ring.snapshot();
            assert_eq!(snap.len() as u64, st.retained, "{st:?}");
            assert!(st.retained <= 2, "a two-slot ring retains at most two");
            for s in &snap {
                assert_coherent(s);
            }
        });
    }
}
