//! Histogram exemplars: one seqlock slot per log2 latency bucket
//! retaining the most recent traced request that landed there, so a
//! tail-bucket outlier in the exported histogram links directly to a
//! full-path trace (trace id + span breakdown) without scanning rings.
//!
//! ## Concurrency
//!
//! Writers are the executing AEUs (any thread that records into the
//! latency table); readers are exporters.  Each bucket slot is the same
//! per-slot seqlock as the trace rings: a per-slot write counter claims
//! a unique generation with one `fetch_add`, the sequence word encodes
//! `(write + 1) << 1 | busy`, and readers copy optimistically and
//! discard torn reads.  Unlike the rings there is no conservation
//! ledger — exemplars are deliberately last-write-wins (the *most
//! recent* occupant of a bucket is the useful one), so a displaced or
//! abandoned exemplar is not an accounting event.
//!
//! The module is written against the `eris-sync` facade, so a build
//! with `RUSTFLAGS="--cfg loom"` model-checks the exact shipping
//! protocol (see the `loom_models` test module).
#![expect(
    unsafe_code,
    reason = "seqlock slots are read and written through raw pointers"
)]

use crate::latency::LATENCY_BUCKETS;
use eris_sync::cell::UnsafeCell;
use eris_sync::hint;
use eris_sync::sync::atomic::{fence, AtomicU64, Ordering};

/// The span breakdown of one traced request, retained per bucket.
///
/// `total_ns` is redundantly the sum of the four spans; readers (and
/// the loom torn-read model) use that to detect an incoherent mix of
/// two writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// [`crate::TraceStamp::trace_id`] of the retained request.
    pub trace_id: u64,
    /// Host-clock time the exemplar was recorded.
    pub at_ns: u64,
    /// Full-path latency: `net + admit + queue + exec`.
    pub total_ns: u64,
    /// Network-queue span (0 for engine-born traces).
    pub net_ns: u64,
    /// Admission span (0 for engine-born traces).
    pub admit_ns: u64,
    /// Routing-queue span (submit to start of the coalesced batch).
    pub queue_ns: u64,
    /// Execution span.
    pub exec_ns: u64,
    /// Stray-forwarding hops.
    pub hops: u32,
    /// Originating tenant ([`crate::TENANT_NONE`] for engine-born).
    pub tenant: u32,
}

const PLACEHOLDER: Exemplar = Exemplar {
    trace_id: 0,
    at_ns: 0,
    total_ns: 0,
    net_ns: 0,
    admit_ns: 0,
    queue_ns: 0,
    exec_ns: 0,
    hops: 0,
    tenant: 0,
};

struct Slot {
    /// `0` = never written; else `(write + 1) << 1 | busy_bit`.
    seq: AtomicU64,
    /// Writes offered to this slot (each `record` claims one).
    head: AtomicU64,
    data: UnsafeCell<Exemplar>,
}

/// One seqlock exemplar slot per latency bucket.
pub struct ExemplarTable {
    slots: Box<[Slot]>,
}

// SAFETY: slot payloads are only read/written under the per-slot
// sequence protocol; torn reads are detected and discarded.
unsafe impl Sync for ExemplarTable {}
// SAFETY: the table owns its slots; none of them is thread-bound.
unsafe impl Send for ExemplarTable {}

impl Default for ExemplarTable {
    fn default() -> Self {
        let slots = (0..LATENCY_BUCKETS)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                head: AtomicU64::new(0),
                data: UnsafeCell::new(PLACEHOLDER),
            })
            .collect();
        ExemplarTable { slots }
    }
}

impl ExemplarTable {
    /// Retain `ex` as bucket `bucket`'s exemplar.  Wait-free except for
    /// a bounded spin when another writer is mid-write in the same
    /// bucket; a writer that loses the generation race simply abandons
    /// (a newer exemplar is already there or imminent).
    // HOT-PATH-ROOT: called per sampled command on the latency path;
    // same wait-free seqlock discipline as the trace ring.
    pub fn record(&self, bucket: usize, ex: Exemplar) {
        // BOUNDS: the bucket index is clamped to the fixed table size.
        let slot = &self.slots[bucket.min(LATENCY_BUCKETS - 1)];
        // ordering: Relaxed — the write counter only needs atomicity;
        // payload publication is ordered by the per-slot seqlock below.
        let pos = slot.head.fetch_add(1, Ordering::Relaxed);
        let done = (pos + 1) << 1;
        let busy = done | 1;
        loop {
            // ordering: Acquire pairs with the Release completion store
            // of whichever writer last owned this slot;
            // pairs-with: exemplar-slot-seq.
            let cur = slot.seq.load(Ordering::Acquire);
            if cur >= done {
                // A newer write already owns this bucket: ours is stale
                // before it was ever readable — last-write-wins.
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
                slot.data.with_mut(|p| {
                    // SAFETY: the busy bit exclusively claims the slot.
                    unsafe { std::ptr::write_volatile(p, ex) }
                });
                // ordering: Release publishes the payload before the
                // even sequence that readers validate against;
                // pairs-with: exemplar-slot-seq.
                slot.seq.store(done, Ordering::Release);
                return;
            }
        }
    }

    /// Copy out every bucket's current exemplar (`None` = never
    /// written).  Torn slots (an in-flight overwrite) are skipped after
    /// a bounded number of attempts — the next export sees the slot.
    pub fn snapshot(&self) -> Vec<Option<Exemplar>> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let mut got = None;
            for _ in 0..8 {
                // ordering: Acquire pairs with a completing writer's
                // Release store, so an even sequence implies its
                // payload bytes are visible below;
                // pairs-with: exemplar-slot-seq.
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
                    got = Some(data);
                    break;
                }
            }
            out.push(got);
        }
        out
    }

    /// Forget every exemplar (start of a measurement window).  Callers
    /// must be quiesced — concurrent writers would race the zeroing.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            // ordering: Relaxed — reset is a quiescent-state operation;
            // no payload is published through these stores.
            slot.seq.store(0, Ordering::Relaxed);
            slot.head.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for ExemplarTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.snapshot().iter().flatten().count();
        f.debug_struct("ExemplarTable")
            .field("buckets", &LATENCY_BUCKETS)
            .field("filled", &filled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::bucket_of;

    fn ex(v: u64) -> Exemplar {
        Exemplar {
            trace_id: v,
            at_ns: v,
            total_ns: 4 * v,
            net_ns: v,
            admit_ns: v,
            queue_ns: v,
            exec_ns: v,
            hops: v as u32,
            tenant: v as u32,
        }
    }

    #[test]
    fn empty_table_snapshots_all_none() {
        let t = ExemplarTable::default();
        assert!(t.snapshot().iter().all(|s| s.is_none()));
    }

    #[test]
    fn last_write_wins_per_bucket() {
        let t = ExemplarTable::default();
        t.record(3, ex(1));
        t.record(3, ex(2));
        t.record(7, ex(9));
        let snap = t.snapshot();
        assert_eq!(snap[3], Some(ex(2)));
        assert_eq!(snap[7], Some(ex(9)));
        assert!(snap[0].is_none());
        t.reset();
        assert!(t.snapshot().iter().all(|s| s.is_none()));
    }

    #[test]
    fn out_of_range_bucket_saturates() {
        let t = ExemplarTable::default();
        t.record(LATENCY_BUCKETS + 10, ex(5));
        assert_eq!(t.snapshot()[LATENCY_BUCKETS - 1], Some(ex(5)));
    }

    #[test]
    fn bucket_of_total_matches_histogram_bucketing() {
        // The exemplar a tail bucket retains must be one whose total
        // would land in that same histogram bucket.
        for total in [1u64, 100, 5_000, 1 << 20] {
            let t = ExemplarTable::default();
            let mut e = ex(1);
            e.total_ns = total;
            e.net_ns = total;
            t.record(bucket_of(total), e);
            assert_eq!(t.snapshot()[bucket_of(total)].unwrap().total_ns, total);
        }
    }

    #[test]
    fn concurrent_writers_never_tear_an_exemplar() {
        let t = std::sync::Arc::new(ExemplarTable::default());
        let handles: Vec<_> = (1..=8u64)
            .map(|w| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..2000 {
                        t.record((i % LATENCY_BUCKETS as u64) as usize, ex(w * 10_000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for e in t.snapshot().iter().flatten() {
            assert_eq!(e.total_ns, 4 * e.trace_id, "torn exemplar: {e:?}");
            assert_eq!(e.net_ns, e.trace_id);
            assert_eq!(e.exec_ns, e.trace_id);
        }
    }
}

/// Model-checked interleaving exploration of the per-bucket seqlock —
/// the satellite "seqlock-exemplar torn-read test in the mini-loom
/// harness".
///
/// Under a plain `cargo test` each model runs once with real threads (a
/// smoke test); under `RUSTFLAGS="--cfg loom"` the `eris-sync` facade
/// swaps in the loom shim and every schedule within the preemption
/// bound is explored exhaustively.  Run with
/// `cargo test -p eris-obs --lib loom_`.
///
/// Fidelity note: like the ring models, the shim explores interleavings
/// under sequential consistency only, so these models check the
/// slot-claim protocol (busy-bit exclusion, generation staleness, a
/// coherent quiescent winner), not C11 reordering.  As with the rings,
/// the reader-side Acquire *fence* in `snapshot` is justified by review
/// against the canonical crossbeam `SeqLock::validate_read` pattern —
/// an SC explorer cannot exhibit the reordering it prevents.
#[cfg(test)]
mod loom_models {
    use super::*;
    use eris_sync::sync::Arc;
    use eris_sync::{model, thread};

    /// An exemplar whose fields are mutually redundant, so any torn mix
    /// of two exemplars is detectable.
    fn ex(v: u64) -> Exemplar {
        Exemplar {
            trace_id: v,
            at_ns: v,
            total_ns: 4 * v,
            net_ns: v,
            admit_ns: v,
            queue_ns: v,
            exec_ns: v,
            hops: v as u32,
            tenant: v as u32,
        }
    }

    fn assert_coherent(e: &Exemplar) {
        assert_eq!(e.total_ns, 4 * e.trace_id, "payload torn across writers");
        assert_eq!(
            e.total_ns,
            e.net_ns + e.admit_ns + e.queue_ns + e.exec_ns,
            "span sum torn across writers"
        );
        assert_eq!(e.at_ns, e.trace_id, "payload torn across writers");
        assert_eq!(e.hops as u64, e.trace_id, "payload torn across writers");
    }

    /// A snapshot racing two writers into the same bucket never
    /// observes a torn exemplar, and at quiescence the bucket holds one
    /// of the two writes bit-for-bit.
    #[test]
    fn loom_exemplar_readers_never_observe_torn_slots() {
        model(|| {
            let t = Arc::new(ExemplarTable::default());
            let handles: Vec<_> = [1u64, 2u64]
                .into_iter()
                .map(|i| {
                    let t = Arc::clone(&t);
                    thread::spawn(move || t.record(5, ex(i)))
                })
                .collect();
            // Race a snapshot against the in-flight writers.
            for e in t.snapshot().iter().flatten() {
                assert_coherent(e);
            }
            for h in handles {
                h.join().unwrap();
            }
            // At quiescence the bucket holds a coherent exemplar (one
            // writer may have abandoned to the newer generation).
            let snap = t.snapshot();
            let got = snap[5].expect("at least one write completed");
            assert_coherent(&got);
            assert!(got.trace_id == 1 || got.trace_id == 2);
            assert!(snap.iter().enumerate().all(|(b, s)| b == 5 || s.is_none()));
        });
    }
}
