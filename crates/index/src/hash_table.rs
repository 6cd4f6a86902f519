//! A per-partition open-addressing hash table.
//!
//! Section 3.1: *"ERIS primarily uses range partitioning ... Nevertheless,
//! ERIS supports hash tables by using different hash functions on a
//! per-partition level."*  Routing still happens by key range; *within* a
//! partition the AEU may store its keys in a hash table instead of a prefix
//! tree — O(1) point access at the price of losing order (no range scans).
//!
//! The table uses Robin-Hood linear probing over power-of-two buckets and a
//! per-instance multiplicative hash seed (the paper's "different hash
//! functions per partition"), so identical keys land in different probe
//! sequences on different partitions — no cross-partition hot buckets.

/// Load factor threshold (percent) that triggers growth.
const MAX_LOAD_PERCENT: usize = 85;

#[derive(Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: u64,
    value: u64,
    /// Probe-sequence length + 1; 0 = empty.
    psl: u32,
}

const EMPTY: Slot = Slot {
    key: 0,
    value: 0,
    psl: 0,
};

/// Probes kept in flight by the AMAC interleaved batch-lookup path.  Each
/// in-flight probe owns one pending cache line; 12 is enough to cover a
/// DRAM miss (~60-80 ns) with useful work at ~5 ns per bucket inspection,
/// while keeping the state array well inside one L1 set's worth of lines.
pub const AMAC_GROUP: usize = 12;

/// One in-flight probe of the AMAC state machine: where it is in its
/// Robin-Hood displacement chain and where its answer goes.
#[derive(Clone, Copy)]
struct ProbeState {
    idx: usize,
    psl: u32,
    key: u64,
    out: usize,
}

/// An open-addressing hash table from `u64` keys to `u64` values with a
/// per-instance hash function.
pub struct HashTable {
    slots: Vec<Slot>,
    mask: usize,
    len: usize,
    seed: u64,
    base_vaddr: u64,
    rehashes: u64,
}

impl HashTable {
    /// An empty table using hash function `seed` (one per partition).
    pub fn new(seed: u64, base_vaddr: u64) -> Self {
        Self::with_capacity(seed, base_vaddr, 16)
    }

    /// An empty table pre-sized for `capacity` keys.
    pub fn with_capacity(seed: u64, base_vaddr: u64, capacity: usize) -> Self {
        let buckets = (capacity * 100 / MAX_LOAD_PERCENT + 1)
            .next_power_of_two()
            .max(16);
        HashTable {
            slots: vec![EMPTY; buckets],
            mask: buckets - 1,
            len: 0,
            seed: seed | 1,
            base_vaddr,
            rehashes: 0,
        }
    }

    /// How many times the bucket array has been reallocated and every
    /// resident key rehashed (growth or an explicit [`HashTable::reserve`]).
    pub fn rehashes(&self) -> u64 {
        self.rehashes
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident bytes (bucket array).
    pub fn memory_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Slot>()) as u64
    }

    /// The per-partition hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Relocate the synthetic address base (after a partition transfer).
    pub fn set_base_vaddr(&mut self, base: u64) {
        self.base_vaddr = base;
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        // Multiplicative (Fibonacci) hashing, seeded per partition.
        (key.wrapping_add(self.seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> 32) as usize
            & self.mask
    }

    /// Insert or overwrite; returns the previous value if the key existed.
    pub fn upsert(&mut self, key: u64, value: u64) -> Option<u64> {
        if (self.len + 1) * 100 > self.slots.len() * MAX_LOAD_PERCENT {
            self.grow();
        }
        let mut idx = self.bucket_of(key);
        let mut cur = Slot { key, value, psl: 1 };
        // Once the probe displaces an entry, `cur` carries a pre-existing
        // element, and the Robin-Hood invariant guarantees the original key
        // cannot appear further along — so duplicate detection only applies
        // while the original is still being carried.
        let mut carrying_original = true;
        loop {
            // BOUNDS: `idx` starts at bucket_of (masked) and every advance
            // re-masks, so it always lands inside the power-of-two array.
            let s = &mut self.slots[idx];
            if s.psl == 0 {
                *s = cur;
                self.len += 1;
                return None;
            }
            if carrying_original && s.key == key {
                let old = s.value;
                s.value = value;
                return Some(old);
            }
            // Robin Hood: steal the slot from richer entries.
            if cur.psl > s.psl {
                std::mem::swap(s, &mut cur);
                carrying_original = false;
            }
            cur.psl += 1;
            idx = (idx + 1) & self.mask;
        }
    }

    /// Probe for `key` starting at `idx` (its home bucket).
    #[inline]
    fn probe(&self, mut idx: usize, key: u64) -> Option<u64> {
        let mut psl = 1u32;
        loop {
            // BOUNDS: the caller passes a masked home bucket and the advance
            // below re-masks.
            let s = &self.slots[idx];
            if s.psl == 0 || s.psl < psl {
                return None; // Robin Hood invariant: key would be here
            }
            if s.key == key {
                return Some(s.value);
            }
            psl += 1;
            idx = (idx + 1) & self.mask;
        }
    }

    /// Point lookup.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.probe(self.bucket_of(key), key)
    }

    /// Batched point lookups: appends one result per key to `out`, in
    /// input order.  Large batches run through an AMAC-style interleaved
    /// probe state machine ([`HashTable::lookup_batch_grouped`] with the
    /// default [`AMAC_GROUP`]): every in-flight probe's next cache line
    /// is prefetched while the other probes execute, so misses overlap
    /// *by construction* even on long Robin-Hood displacement chains —
    /// the coalesced lookup path hands whole command batches here.
    /// Results are identical to a loop of [`HashTable::lookup`].
    pub fn lookup_batch(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        self.lookup_batch_grouped(keys, out, AMAC_GROUP);
    }

    /// [`HashTable::lookup_batch`] with a tunable number of in-flight
    /// probes.  `group` trades miss overlap (more probes in flight)
    /// against prefetch-to-use distance growing past the cache's ability
    /// to hold the lines; 8-16 is the useful range on current cores.
    pub fn lookup_batch_grouped(&self, keys: &[u64], out: &mut Vec<Option<u64>>, group: usize) {
        // Interleaving only pays once the batch outgrows a few cache
        // lines; short batches probe straight through.
        const BATCH_THRESHOLD: usize = 8;
        if keys.len() < BATCH_THRESHOLD {
            // ALLOC-OK: results append to the caller's reusable output
            // vector (batch API contract).
            out.extend(keys.iter().map(|&k| self.lookup(k)));
            return;
        }
        // AMAC (asynchronous memory access chaining): `group` probes are
        // live at once, each holding its own (bucket, psl, key, out-slot)
        // state.  A round-robin step advances one probe by exactly one
        // bucket inspection — the line it inspects was prefetched a full
        // rotation ago, and the line it will need next is prefetched
        // before moving on.  Unlike the previous fixed 16-ahead prefetch
        // stream (which only covered each probe's *first* bucket and
        // merely duplicated the out-of-order window's overlap), chained
        // probes past the home bucket also get their misses overlapped.
        // Finished probes are refilled from the pending keys so the
        // machine stays `group` wide until the tail drains; output order
        // stays input order because each probe carries its result slot.
        let base = out.len();
        // ALLOC-OK: pre-sizes the caller's reusable output vector once
        // per batch.
        // ALLOC-OK: the probe-state ring below is bounded by `group`
        // (8-16 entries) and lives for one batch.
        out.resize(base + keys.len(), None);
        let group = group.clamp(2, keys.len());
        let mut states: Vec<ProbeState> = Vec::with_capacity(group);
        let mut next = 0usize;
        let feed = |states: &mut Vec<ProbeState>, at: usize, next: &mut usize| {
            // BOUNDS: feed is only invoked while `*next < keys.len()`.
            let key = keys[*next];
            let idx = self.bucket_of(key);
            self.prefetch_slot(idx);
            let st = ProbeState {
                idx,
                psl: 1,
                key,
                out: base + *next,
            };
            *next += 1;
            if at == states.len() {
                // ALLOC-OK: `at == states.len()` appends within the
                // reserved `group` capacity.
                // BOUNDS: otherwise `at` indexes a live slot.
                states.push(st);
            } else {
                states[at] = st;
            }
        };
        while states.len() < group && next < keys.len() {
            let at = states.len();
            feed(&mut states, at, &mut next);
        }
        let mut i = 0usize;
        while !states.is_empty() {
            if i >= states.len() {
                i = 0;
            }
            // BOUNDS: `i` was just wrapped to `< states.len()`, and states is
            // non-empty inside the loop.
            let st = &mut states[i];
            // SAFETY: `st.idx` is always masked into range — `bucket_of`
            // masks at feed time and the advance below re-masks — and
            // `slots` is never resized while `&self` probes are live.
            let s = unsafe { self.slots.get_unchecked(st.idx) };
            if s.psl != 0 && s.psl >= st.psl && s.key != st.key {
                // Not resolved yet: advance one bucket, prefetch it, and
                // hand the core to the next in-flight probe.
                st.psl += 1;
                st.idx = (st.idx + 1) & self.mask;
                self.prefetch_slot(st.idx);
                i += 1;
                continue;
            }
            // Resolved: a hit writes its slot; a miss (empty bucket or
            // Robin-Hood invariant break) leaves the pre-set `None`.
            if s.key == st.key && s.psl != 0 {
                // BOUNDS: `st.out = base + key-index < out.len()` after the
                // resize above.
                out[st.out] = Some(s.value);
            }
            if next < keys.len() {
                feed(&mut states, i, &mut next);
                i += 1; // let the refill's prefetch age a full rotation
            } else {
                states.swap_remove(i);
            }
        }
    }

    /// Hint the cache hierarchy that bucket `idx` is about to be probed.
    #[inline]
    fn prefetch_slot(&self, idx: usize) {
        if let Some(slot) = self.slots.get(idx) {
            crate::prefetch::prefetch_read(slot);
        }
    }

    /// Pre-size the bucket array for `extra` further keys, so a following
    /// batch of upserts never rehashes mid-loop.  The array is sized
    /// directly to the final power of two and every resident key is
    /// rehashed exactly once — not once per doubling.
    pub fn reserve(&mut self, extra: usize) {
        let needed = self.len + extra;
        if (needed + 1) * 100 > self.slots.len() * MAX_LOAD_PERCENT {
            let buckets = ((needed + 1) * 100 / MAX_LOAD_PERCENT + 1)
                .next_power_of_two()
                .max(16);
            self.resize_to(buckets);
        }
    }

    /// Insert or overwrite a whole batch; returns how many keys were
    /// fresh inserts.  Pairs apply in input order (later duplicates win),
    /// so the result is identical to a loop of [`HashTable::upsert`] —
    /// the batch entry point pre-grows the table once (keeping the
    /// per-key loop free of rehash checks that can hit) and walks the
    /// batch in prefetch groups: every group's home buckets are
    /// prefetched before any of its upserts run, so the displacement
    /// chains start from warm lines.  (Full AMAC interleaving does not
    /// apply to upserts: a displacement rewrites the very chain a
    /// concurrent in-flight probe would be walking.)
    pub fn upsert_batch(&mut self, pairs: &[(u64, u64)]) -> u64 {
        // ALLOC-OK: the one pre-grow that keeps the per-key loop
        // rehash-free; amortized over the batch.
        self.reserve(pairs.len());
        let mut fresh = 0u64;
        for group in pairs.chunks(AMAC_GROUP) {
            for &(k, _) in group {
                self.prefetch_slot(self.bucket_of(k));
            }
            for &(k, v) in group {
                fresh += self.upsert(k, v).is_none() as u64;
            }
        }
        fresh
    }

    /// Remove a key; returns its value.  Uses backward-shift deletion to
    /// preserve the Robin-Hood invariant.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let mut idx = self.bucket_of(key);
        let mut psl = 1u32;
        loop {
            let s = self.slots[idx];
            if s.psl == 0 || s.psl < psl {
                return None;
            }
            if s.key == key {
                let value = s.value;
                self.remove_at(idx);
                return Some(value);
            }
            psl += 1;
            idx = (idx + 1) & self.mask;
        }
    }

    /// Delete the occupied slot at `idx` by backward-shifting the chain
    /// behind it, preserving the Robin-Hood invariant.
    fn remove_at(&mut self, idx: usize) {
        let mut prev = idx;
        let mut next = (idx + 1) & self.mask;
        loop {
            let n = self.slots[next];
            if n.psl <= 1 {
                break;
            }
            self.slots[prev] = Slot {
                psl: n.psl - 1,
                ..n
            };
            prev = next;
            next = (next + 1) & self.mask;
        }
        self.slots[prev] = EMPTY;
        self.len -= 1;
    }

    fn grow(&mut self) {
        self.resize_to((self.mask + 1) * 2);
    }

    /// Reallocate the bucket array to exactly `buckets` (a power of two)
    /// and rehash every resident key once.
    fn resize_to(&mut self, buckets: usize) {
        debug_assert!(buckets.is_power_of_two());
        debug_assert!(buckets > self.slots.len());
        self.rehashes += 1;
        // ALLOC-OK: table growth is amortized doubling — reached only
        // when an upsert crosses the load factor.
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; buckets]);
        self.mask = buckets - 1;
        self.len = 0;
        for s in old {
            if s.psl > 0 {
                self.upsert(s.key, s.value);
            }
        }
    }

    /// Visit every `(key, value)` pair in arbitrary (hash) order.
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for s in &self.slots {
            if s.psl > 0 {
                f(s.key, s.value);
            }
        }
    }

    /// Drain all pairs (partition transfer source side).
    pub fn drain_all(&mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len);
        for s in &mut self.slots {
            if s.psl > 0 {
                out.push((s.key, s.value));
                *s = EMPTY;
            }
        }
        self.len = 0;
        out
    }

    /// Extract and remove every key in `[lo, hi)` (range-partitioned
    /// balancing over hash-stored partitions — the table is unordered, so
    /// this is a full sweep).  Collection and deletion happen in a single
    /// pass: a matching slot is backward-shift-deleted in place and the
    /// scan re-examines the slot (the shift pulls the next chain entry
    /// into it) instead of re-probing every extracted key from its home
    /// bucket afterwards, which made dense extractions O(n·k).
    pub fn extract_range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut idx = 0usize;
        while idx < self.slots.len() {
            let s = self.slots[idx];
            if s.psl > 0 && s.key >= lo && s.key < hi {
                out.push((s.key, s.value));
                // Deleting here can only move entries *backward* (toward
                // their home bucket), i.e. into this slot or — across the
                // wrap — from slot 0 to the array's end, which the scan
                // has yet to visit either way: nothing is skipped, and a
                // re-examined non-matching entry is just re-skipped.
                self.remove_at(idx);
            } else {
                idx += 1;
            }
        }
        out
    }

    /// Append a stable little-endian serialization:
    /// `[u64 seed][u64 n][n × (u64 key, u64 value)]`.  Pairs are emitted
    /// in key order so the payload is deterministic regardless of probe
    /// history; the seed pins the partition's hash function identity.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seed.to_le_bytes());
        let mut pairs = Vec::with_capacity(self.len);
        self.for_each(|k, v| pairs.push((k, v)));
        pairs.sort_unstable();
        crate::codec::encode_pairs(&pairs, out);
    }

    /// Refill the table from a [`HashTable::serialize_into`] payload.
    /// Returns `false` on malformed input or if the payload was written
    /// by a partition with a different hash seed (a wiring error: part
    /// files restored into the wrong AEU).
    pub fn restore(&mut self, payload: &[u8]) -> bool {
        if payload.len() < 8 {
            return false;
        }
        let seed = u64::from_le_bytes(payload[..8].try_into().unwrap());
        if seed != self.seed {
            return false;
        }
        let Some(pairs) = crate::codec::decode_pairs(&payload[8..]) else {
            return false;
        };
        for (k, v) in pairs {
            self.upsert(k, v);
        }
        true
    }

    /// Synthetic addresses touched by a lookup of `key` (bucket probes),
    /// for the cache simulator.
    pub fn trace_path(&self, key: u64, out: &mut Vec<u64>) {
        let mut idx = self.bucket_of(key);
        let mut psl = 1u32;
        loop {
            out.push(self.base_vaddr + (idx * std::mem::size_of::<Slot>()) as u64);
            let s = &self.slots[idx];
            if s.psl == 0 || s.psl < psl || s.key == key {
                return;
            }
            psl += 1;
            idx = (idx + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = HashTable::new(7, 0);
        assert_eq!(t.upsert(42, 1), None);
        assert_eq!(t.upsert(42, 2), Some(1));
        assert_eq!(t.lookup(42), Some(2));
        assert_eq!(t.lookup(43), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn serialization_roundtrips_and_checks_the_seed() {
        let mut t = HashTable::new(7, 0);
        for k in 0..100u64 {
            t.upsert(k, k + 1);
        }
        let mut buf = Vec::new();
        t.serialize_into(&mut buf);
        let mut back = HashTable::new(7, 0);
        assert!(back.restore(&buf));
        assert_eq!(back.len(), 100);
        for k in 0..100u64 {
            assert_eq!(back.lookup(k), Some(k + 1));
        }
        let mut wrong_seed = HashTable::new(8, 0);
        assert!(!wrong_seed.restore(&buf), "seed mismatch rejected");
        let mut fresh = HashTable::new(7, 0);
        assert!(!fresh.restore(&buf[..buf.len() - 1]), "truncated payload");
    }

    #[test]
    fn zero_key_works() {
        let mut t = HashTable::new(3, 0);
        t.upsert(0, 0);
        assert_eq!(t.lookup(0), Some(0));
        assert_eq!(t.remove(0), Some(0));
        assert_eq!(t.lookup(0), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = HashTable::with_capacity(1, 0, 4);
        for k in 0..10_000u64 {
            t.upsert(k, k * 2);
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.lookup(k), Some(k * 2), "key {k}");
        }
    }

    #[test]
    fn remove_with_backward_shift() {
        let mut t = HashTable::with_capacity(5, 0, 64);
        for k in 0..50u64 {
            t.upsert(k, k);
        }
        for k in (0..50u64).step_by(2) {
            assert_eq!(t.remove(k), Some(k));
        }
        for k in 0..50u64 {
            assert_eq!(t.lookup(k), if k % 2 == 0 { None } else { Some(k) });
        }
        assert_eq!(t.len(), 25);
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let mut a = HashTable::new(1, 0);
        let mut b = HashTable::new(999, 0);
        for k in 0..100u64 {
            a.upsert(k, k);
            b.upsert(k, k);
        }
        let mut ta = Vec::new();
        let mut tb = Vec::new();
        a.trace_path(50, &mut ta);
        b.trace_path(50, &mut tb);
        // Per-partition hash functions: the same key probes different
        // buckets in different partitions.
        assert_ne!(ta[0], tb[0]);
    }

    #[test]
    fn drain_and_extract_range() {
        let mut t = HashTable::new(11, 0);
        for k in 0..100u64 {
            t.upsert(k, k + 1);
        }
        let moved = t.extract_range(30, 60);
        assert_eq!(moved.len(), 30);
        assert!(moved
            .iter()
            .all(|&(k, v)| (30..60).contains(&k) && v == k + 1));
        assert_eq!(t.len(), 70);
        assert_eq!(t.lookup(45), None);
        assert_eq!(t.lookup(29), Some(30));
        let rest = t.drain_all();
        assert_eq!(rest.len(), 70);
        assert!(t.is_empty());
    }

    #[test]
    fn for_each_visits_everything_once() {
        let mut t = HashTable::new(13, 0);
        for k in 0..500u64 {
            t.upsert(k * 3, k);
        }
        let mut seen = std::collections::BTreeSet::new();
        t.for_each(|k, _| {
            assert!(seen.insert(k), "key {k} visited twice");
        });
        assert_eq!(seen.len(), 500);
    }

    #[test]
    fn lookup_batch_answers_in_input_order() {
        let mut t = HashTable::new(17, 0);
        for k in 0..1000u64 {
            t.upsert(k * 2, k);
        }
        // Duplicates, misses, and u64::MAX all allowed in one batch; 8+
        // keys takes the hoisted prefetching path.
        let keys = vec![4, 9999, 0, 4, u64::MAX, 998 * 2, 6, 1_000_001];
        let mut got = vec![Some(77)]; // pre-existing entries are kept
        t.lookup_batch(&keys, &mut got);
        assert_eq!(
            got,
            vec![
                Some(77),
                Some(2),
                None,
                Some(0),
                Some(2),
                None,
                Some(998),
                Some(3),
                None
            ]
        );
        // The short path (under the batch threshold) agrees.
        let mut short = Vec::new();
        t.lookup_batch(&keys[..3], &mut short);
        assert_eq!(short, vec![Some(2), None, Some(0)]);
    }

    #[test]
    fn upsert_batch_counts_fresh_keys_and_orders_duplicates() {
        let mut t = HashTable::new(19, 0);
        t.upsert(1, 100);
        let fresh = t.upsert_batch(&[(1, 200), (2, 1), (3, 1), (2, 2)]);
        assert_eq!(fresh, 2, "keys 2 and 3 are new; 1 and the dup are not");
        assert_eq!(t.lookup(1), Some(200));
        assert_eq!(t.lookup(2), Some(2), "later duplicate wins");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn reserve_prevents_mid_batch_growth() {
        let mut t = HashTable::with_capacity(23, 0, 4);
        t.reserve(10_000);
        let buckets = t.memory_bytes();
        for k in 0..10_000u64 {
            t.upsert(k, k);
        }
        assert_eq!(t.memory_bytes(), buckets, "no rehash during the batch");
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    fn reserve_rehashes_exactly_once() {
        // A 16-slot table asked for room for 10k keys used to rehash its
        // residents once per doubling (16 → 32 → ... → 16384); it must
        // size the bucket array to the final power of two directly.
        let mut t = HashTable::with_capacity(23, 0, 4);
        assert_eq!(t.memory_bytes(), 16 * std::mem::size_of::<Slot>() as u64);
        for k in 0..10u64 {
            t.upsert(k, k);
        }
        assert_eq!(t.rehashes(), 0, "16 slots hold 10 keys without growth");
        t.reserve(10_000);
        assert_eq!(t.rehashes(), 1, "one reallocation, not one per doubling");
        for k in 0..10_000u64 {
            t.upsert(k, k);
        }
        assert_eq!(t.rehashes(), 1, "reserve covered the whole batch");
        assert_eq!(t.len(), 10_000);
        for k in 0..10u64 {
            assert_eq!(t.lookup(k), Some(k), "residents survive the rehash");
        }
    }

    #[test]
    fn extract_range_matches_per_key_removal_on_dense_ranges() {
        // Equivalence against the old semantics (full sweep, then one
        // backward-shift `remove` per collected key): same extracted
        // multiset, same survivors, on ranges dense enough that the old
        // path went quadratic.
        for (lo, hi) in [(0, 5_000), (100, 4_900), (2_500, 2_501), (0, 0)] {
            let mut fast = HashTable::with_capacity(31, 0, 64);
            let mut slow = HashTable::with_capacity(31, 0, 64);
            for k in 0..5_000u64 {
                fast.upsert(k, k * 7);
                slow.upsert(k, k * 7);
            }
            let mut got = fast.extract_range(lo, hi);
            // Old semantics, spelled out.
            let mut want = Vec::new();
            slow.for_each(|k, v| {
                if k >= lo && k < hi {
                    want.push((k, v));
                }
            });
            for &(k, _) in &want {
                slow.remove(k);
            }
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "extracted set for [{lo}, {hi})");
            assert_eq!(fast.len(), slow.len());
            for k in 0..5_000u64 {
                assert_eq!(fast.lookup(k), slow.lookup(k), "survivor {k}");
            }
        }
    }

    #[test]
    fn amac_lookup_matches_scalar_at_the_growth_brink() {
        // Fill the table to just under the load threshold so probe chains
        // are at their longest, then drive the AMAC path across group
        // sizes and a batch spanning hits, misses, duplicates, and MAX.
        let mut t = HashTable::with_capacity(41, 0, 4);
        let n = {
            // Stop one insert short of the next growth trigger.
            let mut k = 0u64;
            while (t.len() + 2) * 100
                <= t.memory_bytes() as usize / std::mem::size_of::<Slot>() * MAX_LOAD_PERCENT
            {
                t.upsert(k.wrapping_mul(0x9E37_79B9), k);
                k += 1;
            }
            k
        };
        let grown = t.rehashes();
        let keys: Vec<u64> = (0..4 * n)
            .map(|i| {
                if i % 3 == 0 {
                    u64::MAX - (i % 5)
                } else {
                    (i % (2 * n)).wrapping_mul(0x9E37_79B9)
                }
            })
            .collect();
        for group in [2usize, 8, 12, 16, 64] {
            let mut got = Vec::new();
            t.lookup_batch_grouped(&keys, &mut got, group);
            let want: Vec<Option<u64>> = keys.iter().map(|&k| t.lookup(k)).collect();
            assert_eq!(got, want, "group {group}");
        }
        assert_eq!(t.rehashes(), grown, "lookups never grow the table");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            #[test]
            fn batch_entry_points_match_scalar_loops(
                seed in 0u64..1000,
                pairs in proptest::collection::vec(
                    (prop_oneof![0u64..300, Just(u64::MAX)], 0u64..100), 0..300),
                // Batch lengths concentrate around the 8-key threshold
                // (both sides of the scalar/AMAC switch) and stretch into
                // proper interleaving territory.
                keys in prop_oneof![
                    proptest::collection::vec(
                        prop_oneof![0u64..300, Just(u64::MAX)], 0..300),
                    proptest::collection::vec(
                        prop_oneof![0u64..300, Just(u64::MAX)], 6..10),
                ],
                group in 2usize..32)
            {
                let mut batched = HashTable::new(seed, 0);
                let mut scalar = HashTable::new(seed, 0);
                let fresh = batched.upsert_batch(&pairs);
                let mut scalar_fresh = 0u64;
                for &(k, v) in &pairs {
                    scalar_fresh += scalar.upsert(k, v).is_none() as u64;
                }
                prop_assert_eq!(fresh, scalar_fresh);
                prop_assert_eq!(batched.len(), scalar.len());
                let want: Vec<Option<u64>> =
                    keys.iter().map(|&k| scalar.lookup(k)).collect();
                let mut got = Vec::new();
                batched.lookup_batch(&keys, &mut got);
                prop_assert_eq!(&got, &want, "default AMAC group");
                let mut grouped = Vec::new();
                batched.lookup_batch_grouped(&keys, &mut grouped, group);
                prop_assert_eq!(&grouped, &want, "group {}", group);
            }

            #[test]
            fn extract_range_behaves_like_btreemap_split(
                seed in 0u64..1000,
                pairs in proptest::collection::vec(
                    (prop_oneof![0u64..500, Just(u64::MAX)], 0u64..100), 0..400),
                lo in 0u64..600,
                width in 0u64..600)
            {
                let hi = lo.saturating_add(width);
                let mut t = HashTable::new(seed, 0);
                let mut m = BTreeMap::new();
                for &(k, v) in &pairs {
                    t.upsert(k, v);
                    m.insert(k, v);
                }
                let mut got = t.extract_range(lo, hi);
                got.sort_unstable();
                let want: Vec<(u64, u64)> = m
                    .iter()
                    .filter(|(&k, _)| k >= lo && k < hi)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                prop_assert_eq!(got, want);
                m.retain(|&k, _| !(k >= lo && k < hi));
                prop_assert_eq!(t.len(), m.len());
                for (&k, &v) in &m {
                    prop_assert_eq!(t.lookup(k), Some(v));
                }
            }

            #[test]
            fn behaves_like_btreemap(
                seed in 0u64..1000,
                ops in proptest::collection::vec((0u8..3, 0u64..500, 0u64..100), 1..400))
            {
                let mut t = HashTable::new(seed, 0);
                let mut m = BTreeMap::new();
                for (op, k, v) in ops {
                    match op {
                        0 => { prop_assert_eq!(t.upsert(k, v), m.insert(k, v)); }
                        1 => { prop_assert_eq!(t.remove(k), m.remove(&k)); }
                        _ => { prop_assert_eq!(t.lookup(k), m.get(&k).copied()); }
                    }
                    prop_assert_eq!(t.len(), m.len());
                }
                let mut all: Vec<(u64, u64)> = Vec::new();
                t.for_each(|k, v| all.push((k, v)));
                all.sort();
                let expect: Vec<(u64, u64)> = m.into_iter().collect();
                prop_assert_eq!(all, expect);
            }
        }
    }
}
