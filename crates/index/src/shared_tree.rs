//! The NUMA-agnostic baseline: one shared prefix tree synchronized with
//! atomic instructions.
//!
//! Section 4 of the paper: *"For the baseline experiments we use the same
//! data structures as for the AEUs.  The difference is that those data
//! structures are not partitioned and are thus synchronized via atomic
//! instructions for updates, because they are accessed by different
//! transaction threads in parallel."*
//!
//! The tree shape matches [`crate::PrefixTree`]; concurrency comes from
//! CAS-published child pointers (insertion installs a node and races to CAS
//! it into the parent slot; the loser frees nothing — slots are arena ids
//! and the orphaned node is simply unused) and from release/acquire
//! publication of leaf values.  Readers never take a latch.
//!
//! Arenas grow in fixed-size segments appended under a short mutex, so node
//! ids stay stable without relocating memory that concurrent readers might
//! be traversing.
#![expect(
    unsafe_code,
    reason = "arena segments are raw slices that live until Drop"
)]

use crate::prefix_tree::PrefixTreeConfig;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

const NULL: u32 = u32::MAX;
/// Nodes per arena segment.
const SEGMENT: usize = 1024;

/// Maximum number of segments (=> 64 Mi nodes per arena).
const MAX_SEGMENTS: usize = 1 << 16;

/// A segmented, append-only arena of atomic slots with lock-free reads.
///
/// Segment allocation takes a short mutex (it is rare: once per `SEGMENT`
/// nodes); readers go straight through an atomic pointer table, so lookups
/// never serialize — the whole point of the latch-free baseline.
struct AtomicArena<T> {
    ptrs: Box<[std::sync::atomic::AtomicPtr<T>]>,
    grow: Mutex<()>,
    next: AtomicUsize,
    slots_per_node: usize,
}

impl<T: Default> AtomicArena<T> {
    fn new(slots_per_node: usize) -> Self {
        let mut v = Vec::with_capacity(MAX_SEGMENTS);
        v.resize_with(MAX_SEGMENTS, || {
            std::sync::atomic::AtomicPtr::new(std::ptr::null_mut())
        });
        AtomicArena {
            ptrs: v.into_boxed_slice(),
            grow: Mutex::new(()),
            next: AtomicUsize::new(0),
            slots_per_node,
        }
    }

    fn segment_len(&self) -> usize {
        SEGMENT * self.slots_per_node
    }

    /// Allocate one node; returns its id.
    fn alloc_node(&self) -> u32 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let seg = id / SEGMENT;
        // BOUNDS: capacity precondition — the fixed segment-pointer
        // table bounds the arena; exhausting it is a sizing bug, not a
        // data-dependent state, and the check caps `seg` for the
        // pointer-table indexes below.
        assert!(seg < MAX_SEGMENTS, "shared tree arena exhausted");
        if self.ptrs[seg].load(Ordering::Acquire).is_null() {
            // BOUNDS: the grow mutex cannot be poisoned — the critical
            // section below never panics (allocation aborts on OOM).
            // Taken only on the first allocation in each segment
            // (once per SEGMENT nodes); the per-node fast path above is
            // a fetch_add plus an Acquire null check.
            let _g = self.grow.lock().unwrap();
            if self.ptrs[seg].load(Ordering::Acquire).is_null() {
                // ALLOC-OK: segment-granular arena growth — one boxed
                // slice per SEGMENT nodes, amortized across them.
                let mut v: Vec<T> = Vec::with_capacity(self.segment_len());
                v.resize_with(self.segment_len(), T::default);
                let raw = Box::into_raw(v.into_boxed_slice()) as *mut T;
                // BOUNDS: `seg` re-checked under the same capped index.
                self.ptrs[seg].store(raw, Ordering::Release);
            }
        }
        id as u32
    }

    /// The slots of node `id`.
    #[inline]
    fn node(&self, id: u32) -> &[T] {
        let seg = id as usize / SEGMENT;
        let off = (id as usize % SEGMENT) * self.slots_per_node;
        // BOUNDS: node ids come from alloc_node, which asserted
        // seg < MAX_SEGMENTS before handing the id out.
        let ptr = self.ptrs[seg].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null(), "node {id} read before its segment exists");
        // SAFETY: a non-null segment pointer refers to a live boxed slice of
        // `segment_len()` slots that is only freed in `Drop` (which requires
        // exclusive access to the arena).
        unsafe { std::slice::from_raw_parts(ptr.add(off), self.slots_per_node) }
    }

    fn allocated_nodes(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }
}

impl<T> Drop for AtomicArena<T> {
    fn drop(&mut self) {
        for p in self.ptrs.iter() {
            let raw = p.load(Ordering::Acquire);
            if !raw.is_null() {
                // SAFETY: we own the arena exclusively in Drop; the pointer
                // was created by Box::into_raw of a slice of segment_len().
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        raw,
                        SEGMENT * self.slots_per_node,
                    )));
                }
            }
        }
    }
}

/// One shared, latch-free prefix tree (the paper's baseline index).
pub struct SharedPrefixTree {
    cfg: PrefixTreeConfig,
    inner: AtomicArena<AtomicU32>,
    /// Leaf slot = (present flag in bit 63 of a separate word) — we store
    /// per-leaf: `fanout` value words followed by `fanout/64` bitmap words.
    leaves: AtomicArena<AtomicU64>,
    root: u32,
    len: AtomicUsize,
    base_vaddr: u64,
}

impl SharedPrefixTree {
    pub fn new(cfg: PrefixTreeConfig, base_vaddr: u64) -> Self {
        let fanout = cfg.fanout();
        let inner = AtomicArena::new(fanout);
        let leaves = AtomicArena::new(fanout + fanout.div_ceil(64));
        let t = SharedPrefixTree {
            cfg,
            inner,
            leaves,
            root: 0,
            len: AtomicUsize::new(0),
            base_vaddr,
        };
        if cfg.levels() == 1 {
            t.leaves.alloc_node();
        } else {
            let r = t.inner.alloc_node();
            for s in t.inner.node(r) {
                s.store(NULL, Ordering::Relaxed);
            }
        }
        t
    }

    pub fn config(&self) -> PrefixTreeConfig {
        self.cfg
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> u64 {
        (self.inner.allocated_nodes() * self.cfg.fanout() * 4) as u64
            + (self.leaves.allocated_nodes()
                * (self.cfg.fanout() * 8 + self.cfg.fanout().div_ceil(64) * 8)) as u64
    }

    #[inline]
    fn digit(&self, key: u64, level: u32) -> usize {
        let shift = self.cfg.key_bits - (level + 1) * self.cfg.prefix_bits;
        ((key >> shift) & ((1u64 << self.cfg.prefix_bits) - 1)) as usize
    }

    /// Create-and-CAS a child; on a lost race the orphan node stays unused.
    fn get_or_install_child(&self, parent: u32, digit: usize, leaf_level: bool) -> u32 {
        // BOUNDS: `parent` is a live inner node and `digit` is masked
        // to fanout by `digit()`, inside the node's slots_per_node.
        let slot = &self.inner.node(parent)[digit];
        let cur = slot.load(Ordering::Acquire);
        if cur != NULL {
            return cur;
        }
        let fresh = if leaf_level {
            self.leaves.alloc_node()
        } else {
            let id = self.inner.alloc_node();
            for s in self.inner.node(id) {
                s.store(NULL, Ordering::Relaxed);
            }
            id
        };
        match slot.compare_exchange(NULL, fresh, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => fresh,
            Err(winner) => winner, // lost the race; the orphan id is leaked
        }
    }

    /// Insert or overwrite.  Returns `true` when the key was new.
    pub fn upsert(&self, key: u64, value: u64) -> bool {
        let levels = self.cfg.levels();
        let fanout = self.cfg.fanout();
        let mut node = self.root;
        for level in 0..levels.saturating_sub(1) {
            let digit = self.digit(key, level);
            node = self.get_or_install_child(node, digit, level + 2 == levels);
        }
        let digit = self.digit(key, levels - 1);
        let leaf = self.leaves.node(node);
        // BOUNDS: leaf nodes carry fanout value slots plus the presence
        // bitmap words; `digit` is masked to fanout, so both indexes
        // stay inside slots_per_node.
        // Value first, then publish the presence bit with release ordering.
        leaf[digit].store(value, Ordering::Relaxed);
        let word = &leaf[fanout + digit / 64];
        let bit = 1u64 << (digit % 64);
        let prev = word.fetch_or(bit, Ordering::Release);
        let inserted = prev & bit == 0;
        if inserted {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }

    /// Latch-free point lookup.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        let levels = self.cfg.levels();
        let fanout = self.cfg.fanout();
        let mut node = self.root;
        for level in 0..levels.saturating_sub(1) {
            let digit = self.digit(key, level);
            // BOUNDS: `node` is live and `digit` is masked to fanout.
            node = self.inner.node(node)[digit].load(Ordering::Acquire);
            if node == NULL {
                return None;
            }
        }
        let digit = self.digit(key, levels - 1);
        let leaf = self.leaves.node(node);
        let bit = 1u64 << (digit % 64);
        // BOUNDS: same leaf layout as upsert — fanout value slots plus
        // bitmap words, digit masked to fanout.
        if leaf[fanout + digit / 64].load(Ordering::Acquire) & bit == 0 {
            return None;
        }
        Some(leaf[digit].load(Ordering::Relaxed))
    }

    /// Synthetic addresses of the nodes a lookup touches; see
    /// [`crate::PrefixTree::trace_path`].  The shared tree is one global
    /// object, so every thread produces addresses in the same region —
    /// which is exactly why its lines end up `Shared`/`Forward` in the
    /// cache simulation (Figure 11).
    pub fn trace_path(&self, key: u64, out: &mut Vec<u64>) {
        let levels = self.cfg.levels();
        let fanout = self.cfg.fanout() as u64;
        let mut node = self.root;
        for level in 0..levels.saturating_sub(1) {
            let digit = self.digit(key, level);
            out.push(self.base_vaddr + (node as u64 * fanout + digit as u64) * 4);
            // BOUNDS: `node` is live and `digit` is masked to fanout.
            node = self.inner.node(node)[digit].load(Ordering::Acquire);
            if node == NULL {
                return;
            }
        }
        let digit = self.digit(key, levels.saturating_sub(1)) as u64;
        out.push(self.base_vaddr + (1 << 39) + (node as u64 * fanout + digit) * 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tree() -> SharedPrefixTree {
        SharedPrefixTree::new(PrefixTreeConfig::new(4, 16), 0)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let t = tree();
        assert!(t.upsert(42, 420));
        assert!(!t.upsert(42, 421));
        assert_eq!(t.lookup(42), Some(421));
        assert_eq!(t.lookup(43), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn zero_key_zero_value() {
        let t = tree();
        t.upsert(0, 0);
        assert_eq!(t.lookup(0), Some(0));
    }

    #[test]
    fn matches_sequential_tree() {
        let t = tree();
        let mut reference = crate::PrefixTree::with_config(PrefixTreeConfig::new(4, 16), 0);
        for k in (0..0x10000u64).step_by(37) {
            t.upsert(k, k * 3);
            reference.upsert(k, k * 3);
        }
        for k in 0..0x10000u64 {
            assert_eq!(t.lookup(k), reference.lookup(k));
        }
        assert_eq!(t.len(), reference.len());
    }

    #[test]
    fn concurrent_inserts_all_visible() {
        let t = Arc::new(SharedPrefixTree::new(PrefixTreeConfig::new(8, 32), 0));
        let threads = 8;
        let per = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for j in 0..per {
                        let k = i * per + j;
                        t.upsert(k, k + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), (threads * per) as usize);
        for k in 0..threads * per {
            assert_eq!(t.lookup(k), Some(k + 1), "key {k}");
        }
    }

    #[test]
    fn concurrent_reads_during_writes_never_see_garbage() {
        let t = Arc::new(SharedPrefixTree::new(PrefixTreeConfig::new(8, 24), 0));
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for k in 0..50_000u64 {
                    t.upsert(k % (1 << 24), 0xDEAD0000 + k);
                }
            })
        };
        // Readers must see either absence or a value some writer stored.
        for _ in 0..4 {
            for k in 0..10_000u64 {
                if let Some(v) = t.lookup(k) {
                    assert!(v >= 0xDEAD0000, "garbage value {v:#x}");
                }
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn trace_addresses_are_deterministic_per_key() {
        let t = SharedPrefixTree::new(PrefixTreeConfig::new(8, 16), 0x8000);
        t.upsert(0x1234, 1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        t.trace_path(0x1234, &mut a);
        t.trace_path(0x1234, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }
}
