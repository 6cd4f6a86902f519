//! A per-partition open-addressing hash table.
//!
//! Section 3.1: *"ERIS primarily uses range partitioning ... Nevertheless,
//! ERIS supports hash tables by using different hash functions on a
//! per-partition level."*  Routing still happens by key range; *within* a
//! partition the AEU may store its keys in a hash table instead of a prefix
//! tree — O(1) point access at the price of losing order (no range scans).
//! Robin-Hood linear probing with a per-instance multiplicative hash seed,
//! so identical keys probe different sequences on different partitions.
//!
//! **Layout.**  Buckets live in 64-lane [`Block`]s: 64 one-byte
//! probe-sequence lengths (PSLs), then 64 16 B key/value pairs — 17 B per
//! bucket.  A resident can only be the probed key when its PSL equals the
//! probe's distance from home, so a probe filters on the PSL bytes and
//! reads a pair only on such a match: a hit costs one PSL line plus one
//! pair line, both prefetched when the batched probe is fed.
//!
//! **Sizing.**  The bucket count is any multiple of 64: the home bucket is
//! `(hash32 * buckets) >> 32` and probes wrap by compare, so a table sized
//! for *n* keys sits at the full [`HashTable::MAX_LOAD_PERCENT`].  The
//! reduction is monotone, so bucket order is hash order at every size.  A
//! fresh key past the load limit grows the table by half (or to fit the
//! rest of its batch), and overwrites never grow it, nor does a batch
//! sized for its fresh keys ([`HashTable::reserve_for`]).  A balancing
//! transfer sizes its receiver once, exactly ([`HashTable::reserve_exact`]),
//! and a donor left with a chunk, or half its array, beyond its exact size
//! is rebuilt at that size ([`HashTable::compaction_due`]).
//!
//! **Allocation.**  The array is a list of the crate's equal chunks
//! ([`crate::chunk`]; the last one shorter), each allocated by the first
//! write into it (an absent chunk reads as empty buckets).  A rehash frees
//! the old chunks front to back while it fills the new ones front to back,
//! so it holds about the larger array, not the sum; and as the prefix
//! tree's arenas use the same chunk size, what a shrinking partition of
//! either kind frees is what a growing one is handed.

use crate::chunk::CHUNK_BYTES;
use crate::prefetch::prefetch_read;

/// Buckets per [`Block`].
const LANES: usize = 64;
/// Blocks per chunk: 64 Ki buckets, one [`CHUNK_BYTES`] chunk.
const CHUNK_BLOCKS: usize = CHUNK_BYTES / std::mem::size_of::<Block>();
const CHUNK_BUCKETS: usize = CHUNK_BLOCKS * LANES;
/// Stored PSLs saturate here; the true value is then recomputed from the
/// resident's key ([`HashTable::true_psl`]).  Random hashing stays under
/// ~60 at 85 % load, so only adversarial key sets ever reach it.
const PSL_SAT: u8 = u8::MAX;
/// Probes kept in flight by the batch lookup, one pending cache line each:
/// 12 cover a DRAM miss (~60-80 ns) at a few ns per bucket inspection.
const AMAC_GROUP: usize = 12;

/// 64 buckets: PSL + 1 per lane (0 = empty), then the `(key, value)` pairs.
#[derive(Clone)]
#[repr(C)]
struct Block {
    psl: [u8; LANES],
    pairs: [(u64, u64); LANES],
}

const _: () = assert!(std::mem::size_of::<Block>() == LANES * HashTable::SLOT_BYTES);
const _: () = assert!(CHUNK_BLOCKS == 1024, "bucket indexes split by shifts");

type Chunk = Option<Box<[Block]>>;

/// A bucket index with its block resolved: a probe pays the chunk lookup
/// once per block it walks, not once per bucket.  No block = empty buckets.
#[derive(Clone, Copy, Default)]
struct Cursor<'a> {
    idx: usize,
    block: Option<&'a Block>,
}

impl Cursor<'_> {
    #[inline]
    fn pair(self) -> (u64, u64) {
        // BOUNDS: the lane is reduced modulo the array length.
        self.block.map_or((0, 0), |b| b.pairs[self.idx % LANES])
    }

    /// Hint the cache hierarchy that this bucket is about to be probed.
    #[inline]
    fn prefetch(self) {
        if let Some(b) = self.block {
            // BOUNDS: as in `pair`.
            prefetch_read(&b.psl[self.idx % LANES]);
            prefetch_read(&b.pairs[self.idx % LANES]);
        }
    }

    /// Whether this bucket's pair is the first of a cache line (the
    /// allocator aligns chunks to 16 bytes, so a pair never straddles one).
    #[inline]
    fn starts_line(self) -> bool {
        // BOUNDS: as in `pair`.
        let pair = self
            .block
            .map(|b| std::ptr::from_ref(&b.pairs[self.idx % LANES]));
        pair.is_none_or(|p| p.addr() % 64 == 0)
    }
}

/// One in-flight probe of [`HashTable::lookup_batch`]: where it stands in
/// its displacement chain and where its answer goes.
#[derive(Clone, Copy, Default)]
struct Probe<'a> {
    at: Cursor<'a>,
    dist: usize,
    key: u64,
    out: usize,
}

/// An open-addressing hash table from `u64` keys to `u64` values with a
/// per-instance hash function.
pub struct HashTable {
    /// In chunks of [`CHUNK_BLOCKS`] blocks, `None` until first written.
    chunks: Vec<Chunk>,
    /// A multiple of [`LANES`], below 2^32.
    buckets: usize,
    len: usize,
    seed: u64,
    rehashes: u64,
}

impl HashTable {
    /// Fill (percent of buckets) a table never exceeds.
    pub const MAX_LOAD_PERCENT: usize = 85;
    /// Bytes per bucket: a 16 B pair and its PSL byte.
    pub const SLOT_BYTES: usize = 17;

    /// An empty table using hash function `seed` (one per partition).  The
    /// partition's synthetic address base is accepted and ignored.
    pub fn new(seed: u64, _base_vaddr: u64) -> Self {
        Self::with_capacity(seed, _base_vaddr, 0)
    }

    /// An empty table sized for `capacity` keys.
    pub fn with_capacity(seed: u64, _base_vaddr: u64, capacity: usize) -> Self {
        let mut table = HashTable {
            chunks: Vec::new(),
            buckets: 0,
            len: 0,
            seed: seed | 1,
            rehashes: 0,
        };
        table.replace_blocks(Self::blocks_for(capacity));
        table
    }

    /// How many times the bucket array has been resized and every resident
    /// key rehashed (growth, shrink or [`HashTable::reserve`]).
    pub fn rehashes(&self) -> u64 {
        self.rehashes
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of the bucket array, every chunk counted as allocated.
    pub fn memory_bytes(&self) -> u64 {
        (self.buckets * Self::SLOT_BYTES) as u64
    }

    /// The per-partition hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Blocks that hold `keys` keys at the load limit.
    fn blocks_for(keys: usize) -> usize {
        let buckets = (keys * 100).div_ceil(Self::MAX_LOAD_PERCENT);
        buckets.div_ceil(LANES).max(1)
    }

    /// Whether the blocks beyond [`HashTable::blocks_for`] the keys are due
    /// for a rebuild by the crate's one rule ([`crate::chunk::compaction_due`]).
    pub fn compaction_due(&self) -> bool {
        let spare = (self.buckets / LANES).saturating_sub(Self::blocks_for(self.len));
        crate::chunk::compaction_due((spare * size_of::<Block>()) as u64, self.memory_bytes())
    }

    /// Keys the current bucket array holds before it must grow: the keys
    /// it was last sized for.
    pub fn capacity(&self) -> usize {
        self.buckets * Self::MAX_LOAD_PERCENT / 100
    }

    /// Swap in an empty array of `blocks` blocks; returns the old chunks.
    fn replace_blocks(&mut self, blocks: usize) -> Vec<Chunk> {
        // BOUNDS: the range reduction in `bucket_of` needs the bucket count
        // to fit 32 bits; a table past that (68 GiB) is a caller bug.
        assert!(blocks * LANES <= u32::MAX as usize, "hash table too large");
        self.buckets = blocks * LANES;
        self.len = 0;
        // ALLOC-OK: one pointer per chunk; reached only from growth, shrink
        // and construction, all amortized over the keys moved.
        let chunks = (0..blocks.div_ceil(CHUNK_BLOCKS)).map(|_| None).collect();
        std::mem::replace(&mut self.chunks, chunks)
    }

    /// Resize to `blocks` blocks and reinsert every resident in bucket
    /// order, freeing each old chunk as soon as it is emptied.
    fn rehash(&mut self, blocks: usize) {
        self.rehashes += 1;
        for chunk in self.replace_blocks(blocks) {
            for b in chunk.as_deref().unwrap_or_default() {
                for (psl, &(k, v)) in b.psl.iter().zip(&b.pairs) {
                    if *psl != 0 {
                        self.upsert(k, v);
                    }
                }
            }
        }
    }

    /// Home bucket: seeded multiplicative (Fibonacci) hash, then its top
    /// 32 bits scaled onto `0..buckets`.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        let hash = key
            .wrapping_add(self.seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (((hash >> 32) * self.buckets as u64) >> 32) as usize
    }

    #[inline]
    fn cursor(&self, idx: usize) -> Cursor<'_> {
        // BOUNDS: bucket indexes come from `bucket_of` or `next`, both
        // below `buckets`, which `chunks` (and `block_mut`) are sized for.
        let chunk = self.chunks[idx / CHUNK_BUCKETS].as_ref();
        let block = chunk.map(|c| &c[idx / LANES % CHUNK_BLOCKS]);
        Cursor { idx, block }
    }

    #[inline]
    fn next(&self, idx: usize) -> usize {
        if idx + 1 == self.buckets {
            0
        } else {
            idx + 1
        }
    }

    /// Move `at` one bucket on, wrapping past the last.
    #[inline]
    fn advance<'a>(&'a self, at: &mut Cursor<'a>) {
        at.idx = self.next(at.idx);
        if at.idx.is_multiple_of(LANES) {
            *at = self.cursor(at.idx);
        }
    }

    /// PSL + 1 of the resident of the bucket at `at`; 0 = empty.
    #[inline]
    fn psl_at(&self, at: Cursor<'_>) -> usize {
        // BOUNDS: the lane is reduced modulo the array length.
        match at.block.map_or(0, |b| b.psl[at.idx % LANES]) {
            PSL_SAT => self.true_psl(at),
            stored => stored as usize,
        }
    }

    /// A saturated PSL, recomputed as the resident's distance from home.
    #[cold]
    fn true_psl(&self, at: Cursor<'_>) -> usize {
        let home = self.bucket_of(at.pair().0);
        1 + (at.idx + self.buckets - home) % self.buckets
    }

    /// The block of bucket `idx`, allocating its chunk on first use.
    #[inline]
    fn block_mut(&mut self, idx: usize) -> &mut Block {
        let (chunk, blocks) = (idx / CHUNK_BUCKETS, self.buckets / LANES);
        // ALLOC-OK: a chunk of the bucket array, once per 64 Ki buckets.
        // BOUNDS: as in `cursor`.
        let chunk = self.chunks[chunk].get_or_insert_with(|| {
            let empty = Block {
                psl: [0; LANES],
                pairs: [(0, 0); LANES],
            };
            vec![empty; (blocks - chunk * CHUNK_BLOCKS).min(CHUNK_BLOCKS)].into()
        });
        &mut chunk[idx / LANES % CHUNK_BLOCKS]
    }

    fn set(&mut self, idx: usize, pair: (u64, u64), psl: usize) {
        // BOUNDS: the lane is reduced modulo the array length.
        let b = self.block_mut(idx);
        b.pairs[idx % LANES] = pair;
        b.psl[idx % LANES] = psl.min(PSL_SAT as usize) as u8;
    }

    /// Walk `key`'s probe sequence: `Ok` at the bucket holding it, or
    /// `Err((bucket, psl))` where an insert of it starts.  The table is
    /// never full, so the walk ends at an empty bucket at the latest.
    #[inline]
    fn find(&self, key: u64) -> Result<Cursor<'_>, (usize, usize)> {
        let mut at = self.cursor(self.bucket_of(key));
        let mut dist = 1;
        loop {
            let psl = self.psl_at(at);
            if psl < dist {
                return Err((at.idx, dist)); // Robin Hood: key would be here
            }
            if psl == dist && at.pair().0 == key {
                return Ok(at);
            }
            dist += 1;
            self.advance(&mut at);
        }
    }

    /// Point lookup.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.find(key).ok().map(|at| at.pair().1)
    }

    /// Insert or overwrite; returns the previous value if the key existed.
    pub fn upsert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.upsert_sized(key, value, 1)
    }

    /// [`HashTable::upsert`]; if the key is fresh and the table at its
    /// load limit, grow for `upcoming >= 1` keys (this one included).
    fn upsert_sized(&mut self, key: u64, value: u64, upcoming: usize) -> Option<u64> {
        let (mut idx, mut dist) = match self.find(key).map(|at| at.idx) {
            Ok(idx) => {
                // BOUNDS: the lane is reduced modulo the array length.
                let slot = &mut self.block_mut(idx).pairs[idx % LANES].1;
                return Some(std::mem::replace(slot, value));
            }
            Err(at) => at,
        };
        if self.len >= self.capacity() {
            // ALLOC-OK: growth, amortized over the keys that filled the
            // table; overwrites never reach it.
            self.reserve(upcoming);
            return self.upsert_sized(key, value, upcoming);
        }
        // Robin Hood: take the bucket from the first richer resident and
        // carry the displaced entry on until an empty bucket takes it.
        let mut carry = (key, value);
        loop {
            let at = self.cursor(idx);
            let (psl, displaced) = (self.psl_at(at), at.pair());
            if psl < dist {
                self.set(idx, carry, dist);
                if psl == 0 {
                    break;
                }
                carry = displaced;
                dist = psl;
            }
            dist += 1;
            idx = self.next(idx);
        }
        self.len += 1;
        None
    }

    /// Make room for `extra` further keys in one resize, to fit exactly or
    /// to half again the current array, whichever is larger (growth stays
    /// geometric, so repeated small reserves stay amortized).
    pub fn reserve(&mut self, extra: usize) {
        if self.len + extra > self.capacity() {
            let grown = (self.buckets / LANES * 3).div_ceil(2);
            self.rehash(Self::blocks_for(self.len + extra).max(grown));
        }
    }

    /// [`HashTable::reserve`] for the keys of `pairs` the table does not
    /// hold yet: overwrites need no room.  They are counted, behind the
    /// group prefetch of [`HashTable::upsert_batch`], only when the batch
    /// would not fit otherwise; an empty table takes every pair as fresh.
    pub fn reserve_for(&mut self, pairs: &[(u64, u64)]) {
        if self.is_empty() || self.len + pairs.len() <= self.capacity() {
            return self.reserve(pairs.len());
        }
        let mut fresh = 0;
        for group in pairs.chunks(AMAC_GROUP) {
            for &(k, _) in group {
                self.cursor(self.bucket_of(k)).prefetch();
            }
            fresh += group
                .iter()
                .filter(|&&(k, _)| self.find(k).is_err())
                .count();
        }
        self.reserve(fresh);
    }

    /// Make room for exactly `extra` further fresh keys in one resize, with
    /// no headroom: the receiving side of a balancing transfer, which knows
    /// what it takes.  Anything that inserts repeatedly uses
    /// [`HashTable::reserve`], whose growth stays geometric.
    pub fn reserve_exact(&mut self, extra: usize) {
        if self.len + extra > self.capacity() {
            self.rehash(Self::blocks_for(self.len + extra));
        }
    }

    /// Batched point lookups: appends one result per key to `out`, in
    /// input order, identical to a loop of [`HashTable::lookup`].
    ///
    /// AMAC (asynchronous memory access chaining): up to [`AMAC_GROUP`]
    /// probes are live in a stack array.  A round-robin step runs one probe
    /// to the end of its pair line; if the chain goes on it prefetches the
    /// next line and yields, so a line is requested a full rotation before
    /// it is read.  Finished probes are refilled from the pending keys.
    pub fn lookup_batch(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        let base = out.len();
        // ALLOC-OK: pre-sizes the caller's reusable output vector once
        // per batch.
        out.resize(base + keys.len(), None);
        let mut pending = keys.iter().zip(base..);
        let feed = |(&key, out): (&u64, usize)| {
            let (at, dist) = (self.cursor(self.bucket_of(key)), 1);
            at.prefetch();
            Probe { at, dist, key, out }
        };
        let mut probes = [Probe::default(); AMAC_GROUP];
        let mut live = 0;
        for (slot, key) in probes.iter_mut().zip(&mut pending) {
            *slot = feed(key);
            live += 1;
        }
        let mut i = 0;
        while live > 0 {
            if i >= live {
                i = 0;
            }
            // BOUNDS: `i < live <= AMAC_GROUP` after the wrap above.
            let p = &mut probes[i];
            let result = loop {
                let psl = self.psl_at(p.at);
                if psl < p.dist {
                    break Some(None); // Robin Hood: key would be here
                }
                if psl == p.dist && p.at.pair().0 == p.key {
                    break Some(Some(p.at.pair().1));
                }
                p.dist += 1;
                self.advance(&mut p.at);
                if p.at.starts_line() {
                    p.at.prefetch();
                    break None;
                }
            };
            let Some(result) = result else {
                i += 1;
                continue;
            };
            // BOUNDS: `p.out = base + key index < out.len()` after the
            // resize above; `live - 1 < AMAC_GROUP`.
            out[p.out] = result;
            if let Some(key) = pending.next() {
                *p = feed(key);
                i += 1; // let the refill's prefetch age a full rotation
            } else {
                live -= 1;
                probes[i] = probes[live];
            }
        }
    }

    /// Insert or overwrite a whole batch; returns how many keys were
    /// fresh inserts.  Pairs apply in input order (later duplicates win),
    /// exactly as a loop of [`HashTable::upsert`], behind a group prefetch
    /// (no AMAC: a displacement rewrites the chain an in-flight probe would
    /// be walking).  A fresh key that finds the table full grows it once
    /// for the rest of the batch; [`HashTable::reserve`] first for a batch
    /// in another table's bucket order, whose head would until then pile
    /// onto one stretch of the array.
    pub fn upsert_batch(&mut self, pairs: &[(u64, u64)]) -> u64 {
        let mut fresh = 0;
        let mut left = pairs.len();
        for group in pairs.chunks(AMAC_GROUP) {
            for &(k, _) in group {
                self.cursor(self.bucket_of(k)).prefetch();
            }
            for &(k, v) in group {
                fresh += self.upsert_sized(k, v, left).is_none() as u64;
                left -= 1;
            }
        }
        fresh
    }

    /// Remove a key; returns its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let (idx, value) = self.find(key).map(|at| (at.idx, at.pair().1)).ok()?;
        self.remove_at(idx);
        Some(value)
    }

    /// Delete the occupied bucket `idx` by backward-shifting the chain
    /// behind it, preserving the Robin-Hood invariant.
    fn remove_at(&mut self, mut idx: usize) {
        loop {
            let at = self.cursor(self.next(idx));
            let (next, psl, pair) = (at.idx, self.psl_at(at), at.pair());
            if psl <= 1 {
                break;
            }
            self.set(idx, pair, psl - 1);
            idx = next;
        }
        self.set(idx, (0, 0), 0);
        self.len -= 1;
    }

    /// Visit every `(key, value)` pair in arbitrary (hash) order.
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for chunk in &self.chunks {
            for b in chunk.as_deref().unwrap_or_default() {
                for (psl, &(k, v)) in b.psl.iter().zip(&b.pairs) {
                    if *psl != 0 {
                        f(k, v);
                    }
                }
            }
        }
    }

    /// Keys in `[lo, hi)` (a full read-only sweep: the table is unordered).
    pub fn count_range(&self, lo: u64, hi: u64) -> usize {
        let mut n = 0;
        self.for_each(|k, _| n += (lo..hi).contains(&k) as usize);
        n
    }

    /// Remove every key in `[lo, hi)` and append its pair to `out` (the
    /// balancer's donor side), a bounded step at a time: the table is
    /// unordered, so a step sweeps from bucket `from` until one more pair
    /// would take `out` past `max`, and returns the bucket to resume at
    /// (`None` once the sweep is complete, the donor then rebuilt at its
    /// exact size if [`HashTable::compaction_due`]).
    pub fn extract_chunk(
        &mut self,
        lo: u64,
        hi: u64,
        from: usize,
        out: &mut Vec<(u64, u64)>,
        max: usize,
    ) -> Option<usize> {
        let mut idx = from;
        while idx < self.buckets {
            let at = self.cursor(idx);
            let (psl, (k, v)) = (self.psl_at(at), at.pair());
            if psl != 0 && k >= lo && k < hi {
                if out.len() >= max {
                    return Some(idx);
                }
                out.push((k, v));
                // Deleting here can only move entries *backward* (toward
                // their home bucket), i.e. into this bucket or — across the
                // wrap — from bucket 0 to the array's end, which the scan
                // has yet to visit either way: nothing is skipped, and a
                // re-examined non-matching entry is just re-skipped.
                self.remove_at(idx);
            } else {
                idx += 1;
            }
        }
        if self.compaction_due() {
            self.rehash(Self::blocks_for(self.len));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn pairs(keys: impl IntoIterator<Item = u64>) -> Vec<(u64, u64)> {
        keys.into_iter().map(|k| (k, !k)).collect()
    }

    /// A table sized for `capacity` keys holding `keys`, each mapped to `!key`.
    fn table(seed: u64, capacity: usize, keys: impl IntoIterator<Item = u64>) -> HashTable {
        let mut t = HashTable::with_capacity(seed, 0, capacity);
        t.upsert_batch(&pairs(keys));
        t
    }

    /// `n` keys whose home is bucket `home` at `t`'s current size.
    fn keys_homed_at(t: &HashTable, home: usize, n: usize) -> Vec<u64> {
        let homed = (0u64..).filter(|&k| t.bucket_of(k) == home);
        homed.take(n).collect()
    }

    /// `lookup_batch` appends what a `lookup` loop returns, and `lookup`
    /// finds exactly the keys of `model`.
    fn check_lookups(t: &HashTable, model: &BTreeMap<u64, u64>, keys: &[u64]) {
        let mut got = vec![Some(77)]; // pre-existing entries are kept
        t.lookup_batch(keys, &mut got);
        let want: Vec<_> = keys.iter().map(|k| model.get(k).copied()).collect();
        assert_eq!(got[0], Some(77));
        assert_eq!(&got[1..], &want[..]);
        for (&k, w) in keys.iter().zip(want) {
            assert_eq!(t.lookup(k), w, "key {k}");
        }
        assert_eq!(t.len(), model.len());
    }

    /// Bytes of a table sized exactly for `keys` keys.
    fn exact_bytes(keys: usize) -> u64 {
        HashTable::with_capacity(0, 0, keys).memory_bytes()
    }

    fn model_of(t: &HashTable) -> BTreeMap<u64, u64> {
        let mut m = BTreeMap::new();
        t.for_each(|k, v| assert!(m.insert(k, v).is_none(), "key {k} visited twice"));
        m
    }

    /// `count_range` counts, and `extract_chunk` appends and removes, what
    /// `BTreeMap::range` holds.
    fn check_extract(t: &mut HashTable, m: &mut BTreeMap<u64, u64>, lo: u64, hi: u64) {
        let want: Vec<(u64, u64)> = m.range(lo..hi.max(lo)).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(t.count_range(lo, hi), want.len(), "count of [{lo}, {hi})");
        let mut got = vec![(7, 7)];
        t.extract_chunk(lo, hi, 0, &mut got, usize::MAX);
        assert_eq!(got.remove(0), (7, 7), "appended after what `out` held");
        got.sort_unstable();
        assert_eq!(got, want, "extracted set for [{lo}, {hi})");
        m.retain(|&k, _| !(k >= lo && k < hi));
        assert_eq!(model_of(t), *m, "survivors of [{lo}, {hi})");
    }

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
    fn zero_key_works() {
        let mut t = table(3, 0, [0]);
        assert_eq!(t.lookup(0), Some(!0));
        assert_eq!(t.remove(0), Some(!0));
        assert_eq!(t.lookup(0), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = HashTable::with_capacity(1, 0, 4);
        let mut bytes = t.memory_bytes();
        for k in 0..10_000u64 {
            t.upsert(k, !k);
            let now = t.memory_bytes();
            assert!(now <= bytes * 2, "by half; the first block by one");
            bytes = now;
        }
        assert!(t.rehashes() > 8, "geometric, not one jump");
        assert_eq!(model_of(&t), pairs(0..10_000).into_iter().collect());
    }

    #[test]
    fn remove_with_backward_shift() {
        let mut t = table(5, 64, 0..50);
        for k in (0..50u64).step_by(2) {
            assert_eq!(t.remove(k), Some(!k));
        }
        assert_eq!(t.len(), 25);
        check_lookups(&t, &model_of(&t), &(0..50).collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        // Per-partition hash functions: one key, different home buckets.
        let home = |seed| HashTable::with_capacity(seed, 0, 1000).bucket_of(50);
        assert_ne!(home(1), home(999));
    }

    #[test]
    fn extract_everything_then_refill() {
        let mut t = table(11, 0, 0..100);
        let mut m = model_of(&t);
        check_extract(&mut t, &mut m, 30, 60);
        assert_eq!(t.len(), 70);
        check_extract(&mut t, &mut m, 0, u64::MAX);
        assert!(t.is_empty());
        assert_eq!(t.memory_bytes(), HashTable::new(11, 0).memory_bytes());
        assert_eq!(t.upsert(5, 5), None, "usable after the drain");
    }

    #[test]
    fn lookup_batch_answers_in_input_order() {
        let t = table(17, 0, (0..1000).map(|k| k * 2));
        let m = model_of(&t);
        // Duplicates, misses and u64::MAX in one batch; short batches too.
        let keys = [4, 9999, 0, 4, u64::MAX, 998 * 2, 6, 1_000_001];
        for n in 0..=keys.len() {
            check_lookups(&t, &m, &keys[..n]);
        }
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

    /// A one-block table asked for room for 10k keys sizes the bucket
    /// array once, directly, and inserting them does not resize it again.
    fn check_reserve(insert: impl Fn(&mut HashTable, Vec<(u64, u64)>)) {
        let mut t = table(23, 4, 0..10);
        assert_eq!(t.memory_bytes(), (LANES * HashTable::SLOT_BYTES) as u64);
        assert_eq!(t.rehashes(), 0, "one block holds 10 keys without growth");
        t.reserve(10_000);
        let reserved = (t.memory_bytes(), 1);
        insert(&mut t, pairs(10..10_010));
        assert_eq!((t.memory_bytes(), t.rehashes()), reserved, "one resize");
        assert_eq!(model_of(&t), pairs(0..10_010).into_iter().collect());
    }

    #[test]
    fn reserve_prevents_mid_batch_growth() {
        check_reserve(|t, pairs| assert!(pairs.iter().all(|&(k, v)| t.upsert(k, v).is_none())));
    }

    #[test]
    fn reserve_rehashes_exactly_once() {
        check_reserve(|t, pairs| assert_eq!(t.upsert_batch(&pairs), 10_000));
    }

    #[test]
    fn reserve_exact_sizes_for_what_it_takes_and_no_more() {
        let mut t = table(29, 0, 0..1_000);
        let before = t.rehashes();
        t.reserve_exact(0);
        t.reserve_exact(t.capacity() - t.len());
        assert_eq!(t.rehashes(), before, "room enough: no resize");
        t.reserve_exact(5_000);
        assert_eq!(t.memory_bytes(), exact_bytes(6_000));
        assert_eq!(t.upsert_batch(&pairs(1_000..6_000)), 5_000);
        assert_eq!(t.rehashes(), before + 1, "one resize");
        // At the load limit, room for one more key: one resize, to fit
        // (a block), not half again.
        let full = t.capacity();
        t.upsert_batch(&pairs(6_000..full as u64));
        t.reserve_exact(1);
        assert_eq!(t.memory_bytes(), exact_bytes(full + 1));
        assert_eq!(t.rehashes(), before + 2);
        assert_eq!(model_of(&t), pairs(0..full as u64).into_iter().collect());
    }

    #[test]
    fn a_table_sized_for_n_keys_costs_at_most_21_bytes_per_key() {
        // 2^20 (where a power-of-two array sat at 50 % fill) and 2^22 + 1
        // (its worst brink: one key past a doubling).
        for n in [1u64 << 20, (1 << 22) + 1] {
            let t = table(37, 0, 0..n);
            let per_key = t.memory_bytes() as f64 / t.len() as f64;
            assert!((20.0..=21.0).contains(&per_key), "{n} keys: {per_key} B");
            assert_eq!(t.rehashes(), 1, "a bulk load sizes the table once");
            assert_eq!(t.lookup(n - 1), Some(!(n - 1)));
        }
    }

    #[test]
    fn only_a_fresh_key_grows_a_full_table_and_by_at_most_half() {
        let mut t = HashTable::with_capacity(43, 0, 5_000);
        let resident = pairs(0..t.capacity() as u64);
        t.upsert_batch(&resident);
        assert_eq!(t.len(), t.capacity(), "at the threshold");
        let before = (t.memory_bytes(), t.rehashes());
        assert_eq!(t.upsert_batch(&resident), 0, "overwrites only");
        assert_eq!(t.upsert(7, 7), Some(!7));
        assert_eq!((t.memory_bytes(), t.rehashes()), before);
        assert_eq!(t.upsert(u64::MAX, 1), None, "one fresh key past it");
        assert_eq!(t.rehashes(), before.1 + 1);
        let grown = t.memory_bytes() as f64 / before.0 as f64;
        assert!(grown > 1.4 && grown <= 1.6, "grew {grown}x");
    }

    #[test]
    fn reserve_for_takes_room_for_fresh_keys_only() {
        let mut t = HashTable::with_capacity(53, 0, 5_000);
        let full = t.capacity() as u64;
        let resident = pairs(0..full);
        t.upsert_batch(&resident);
        let before = (t.memory_bytes(), t.rehashes());
        t.reserve_for(&resident);
        assert_eq!((t.memory_bytes(), t.rehashes()), before, "overwrites");
        let mixed = pairs(full - 1_000..full + 3_000);
        t.reserve_for(&mixed);
        let grown = (t.memory_bytes(), t.rehashes());
        assert_eq!(grown.1, before.1 + 1, "one resize");
        assert_eq!(t.upsert_batch(&mixed), 3_000);
        assert_eq!((t.memory_bytes(), t.rehashes()), grown, "the batch fits");
        let mut empty = HashTable::new(53, 0);
        empty.reserve_for(&resident);
        assert_eq!(empty.memory_bytes(), exact_bytes(resident.len()));
    }

    #[test]
    fn a_sparse_table_shrinks_with_hysteresis() {
        let n = 100_000u64;
        let mut t = table(47, 0, 0..n);
        let mut m = model_of(&t);
        let full = t.memory_bytes();
        // 1.8 chunks, so half the array is the threshold.  Down to 60 % of
        // the keys: still half full, kept as it is.
        check_extract(&mut t, &mut m, 0, n * 4 / 10);
        assert_eq!(t.memory_bytes(), full, "no rebuild at half full or more");
        // Down to 40 %: rebuilt at its exact size.
        check_extract(&mut t, &mut m, 0, n * 6 / 10);
        assert_eq!(t.memory_bytes(), exact_bytes(t.len()));
        let small = (t.memory_bytes(), t.rehashes());
        // Giving a third of that away keeps it half full: no rebuild.
        check_extract(&mut t, &mut m, 0, n * 6 / 10 + n * 4 / 30);
        assert_eq!((t.memory_bytes(), t.rehashes()), small);
        check_lookups(&t, &m, &(n / 2..n).step_by(7).collect::<Vec<_>>());
    }

    #[test]
    #[cfg_attr(miri, ignore = "an 8-chunk table; no unsafe to check")]
    fn a_large_table_is_rebuilt_once_one_chunk_is_slack() {
        // Eight chunks: giving 10 % of the keys away frees 0.8 of one, under
        // the threshold; 15 % frees 1.2, though far less than half.
        let n = 8 * CHUNK_BUCKETS as u64 * 85 / 100;
        let mut t = table(71, n as usize, 0..n);
        let mut m = model_of(&t);
        let before = (t.memory_bytes(), t.rehashes());
        check_extract(&mut t, &mut m, 0, n / 10);
        assert!(!t.compaction_due());
        assert_eq!((t.memory_bytes(), t.rehashes()), before, "not rebuilt");
        check_extract(&mut t, &mut m, 0, n * 15 / 100);
        assert!(!t.compaction_due());
        assert_eq!(t.rehashes(), before.1 + 1, "rebuilt once");
        let fresh = table(71, t.len(), m.keys().copied());
        let allocated = |t: &HashTable| t.chunks.iter().filter(|c| c.is_some()).count();
        assert_eq!(t.memory_bytes(), fresh.memory_bytes());
        assert_eq!(allocated(&t), allocated(&fresh));
        check_lookups(&t, &m, &(0..n).step_by(97).collect::<Vec<_>>());
    }

    /// A chain of `n` keys homed `back` buckets before the array's end and
    /// 20 keys homed inside it: lookups, backward shifts, a rehash and a
    /// sweep agree with the model.  Returns the longest PSL reached.
    fn check_chain(seed: u64, capacity: usize, back: usize, n: usize) -> usize {
        let mut t = HashTable::with_capacity(seed, 0, capacity);
        let home = t.buckets - back;
        let mut keys = keys_homed_at(&t, home, n);
        keys.extend(keys_homed_at(&t, (home + n / 2) % t.buckets, 20));
        assert_eq!(t.upsert_batch(&pairs(keys.iter().copied())), n as u64 + 20);
        assert_eq!(t.rehashes(), 0);
        let longest = (0..t.buckets)
            .map(|idx| t.psl_at(t.cursor(idx)))
            .max()
            .unwrap();
        let mut m = model_of(&t);
        check_lookups(&t, &m, &keys);
        for &k in keys.iter().step_by(2) {
            assert_eq!(t.remove(k), m.remove(&k));
        }
        check_lookups(&t, &m, &keys);
        t.reserve(5 * capacity);
        check_lookups(&t, &m, &keys);
        check_extract(&mut t, &mut m, 0, u64::MAX);
        longest
    }

    #[test]
    fn probes_wrap_past_the_last_bucket() {
        // 192 buckets: 40 keys homed in the last one chain on through
        // buckets 0, 1, ... and displace the keys homed there.
        assert!(check_chain(53, 150, 1, 40) >= 40);
    }

    #[test]
    fn psls_past_one_byte_stay_correct() {
        // 300 keys sharing one home bucket: PSLs run past what the side
        // array stores and fall back on the distance from home.
        assert!(check_chain(59, 1_000, 100, 300) > PSL_SAT as usize);
    }

    #[test]
    fn chains_cross_into_a_chunk_not_yet_allocated() {
        // Two chunks; 40 keys homed in the first one's last bucket.
        let t = HashTable::with_capacity(61, 0, 100_000);
        assert_eq!(t.chunks.len(), 2);
        assert!(check_chain(61, 100_000, t.buckets - CHUNK_BUCKETS + 1, 40) >= 40);
    }

    #[test]
    fn a_chunked_extraction_moves_what_one_sweep_moves() {
        let (n, max) = (20_000u64, 1_000);
        let mut t = table(67, 0, 0..n);
        let mut m = model_of(&t);
        let want: Vec<(u64, u64)> = m.range(0..n * 3 / 4).map(|(&k, &v)| (k, v)).collect();
        m.retain(|&k, _| k >= n * 3 / 4);
        let (mut got, mut chunk, mut from) = (Vec::new(), Vec::with_capacity(max), Some(0));
        while let Some(bucket) = from {
            chunk.clear();
            from = t.extract_chunk(0, n * 3 / 4, bucket, &mut chunk, max);
            assert!(chunk.len() == max || from.is_none(), "full until the last");
            got.extend_from_slice(&chunk);
        }
        assert_eq!(chunk.capacity(), max, "the buffer never grew");
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(model_of(&t), m);
        assert_eq!(t.memory_bytes(), exact_bytes(t.len()), "compacted");
        check_lookups(&t, &m, &(0..n).step_by(13).collect::<Vec<_>>());
    }

    #[test]
    fn extract_range_matches_per_key_removal_on_dense_ranges() {
        // Ranges dense enough that sweep-then-remove-each went quadratic,
        // an empty one, and one whose survivors trigger the shrink.
        for (lo, hi) in [(0, 5_000), (100, 4_900), (2_500, 2_501), (0, 0)] {
            let mut t = table(31, 64, 0..5_000);
            let mut m = model_of(&t);
            check_extract(&mut t, &mut m, lo, hi);
            check_lookups(&t, &m, &(0..5_000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn amac_lookup_matches_scalar_at_the_growth_brink() {
        // Chains are longest at the load limit: hits, misses, duplicates
        // and MAX there, one key past it, and on both sides of a shrink.
        let mut t = HashTable::with_capacity(41, 0, 3_000);
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9);
        let n = t.capacity() as u64;
        let probe: Vec<u64> = (0..4 * n)
            .map(|i| match i % 3 {
                0 => u64::MAX - (i % 5),
                _ => key(i % (2 * n)),
            })
            .collect();
        t.upsert_batch(&pairs((0..n).map(key)));
        assert_eq!((t.len(), t.rehashes()), (t.capacity(), 0));
        check_lookups(&t, &model_of(&t), &probe);
        assert_eq!(t.rehashes(), 0, "lookups never grow the table");
        t.upsert(key(n), n);
        assert_eq!(t.rehashes(), 1);
        check_lookups(&t, &model_of(&t), &probe);
        // Left exactly half full, then one key below.
        let sorted: Vec<u64> = model_of(&t).into_keys().collect();
        let cut = sorted[sorted.len() - t.capacity().div_ceil(2)];
        for (hi, rehashes) in [(cut, 1), (cut + 1, 2)] {
            t.extract_chunk(0, hi, 0, &mut Vec::new(), usize::MAX);
            assert_eq!(t.rehashes(), rehashes);
            check_lookups(&t, &model_of(&t), &probe);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn key() -> impl Strategy<Value = u64> {
            prop_oneof![0u64..500, Just(u64::MAX)]
        }

        proptest! {
            #[test]
            fn batch_entry_points_match_scalar_loops(
                seed in 0u64..1000,
                pairs in proptest::collection::vec((key(), 0u64..100), 0..300),
                keys in proptest::collection::vec(key(), 0..300))
            {
                let mut batched = HashTable::new(seed, 0);
                let mut scalar = HashTable::new(seed, 0);
                let fresh = batched.upsert_batch(&pairs);
                let scalar_fresh = pairs.iter().filter(|&&(k, v)| scalar.upsert(k, v).is_none());
                prop_assert_eq!(fresh, scalar_fresh.count() as u64);
                check_lookups(&batched, &model_of(&scalar), &keys);
            }

            /// Every mutation against a map model, keys 0 and MAX included,
            /// on tables that `reserve` and the shrink rule move through
            /// odd block counts, so chains wrap at non-power-of-two ends.
            #[test]
            fn behaves_like_btreemap(
                seed in 0u64..1000,
                ops in proptest::collection::vec((0u8..8, key(), 0u64..100), 1..400))
            {
                let mut t = HashTable::new(seed, 0);
                let mut m = BTreeMap::new();
                for (op, k, v) in ops {
                    match op {
                        0 | 1 => prop_assert_eq!(t.upsert(k, v), m.insert(k, v)),
                        2 => prop_assert_eq!(t.remove(k), m.remove(&k)),
                        3 => prop_assert_eq!(t.lookup(k), m.get(&k).copied()),
                        4 => {
                            let batch: Vec<(u64, u64)> =
                                (0..v).map(|i| (k.wrapping_add(i * 3), v + i)).collect();
                            let before = m.len();
                            m.extend(batch.iter().copied());
                            prop_assert_eq!(t.upsert_batch(&batch), (m.len() - before) as u64);
                        }
                        5 => {
                            check_extract(&mut t, &mut m, k, k.saturating_add(v * 4));
                            prop_assert!(!t.compaction_due(), "slack under the threshold");
                        }
                        6 => {
                            t.reserve(v as usize * 8);
                            prop_assert!(t.len() + v as usize * 8 <= t.capacity());
                        }
                        _ => {
                            t.reserve_exact(v as usize);
                            prop_assert!(t.len() + v as usize <= t.capacity());
                        }
                    }
                    prop_assert!(t.len() == m.len() && t.len() <= t.capacity());
                }
                prop_assert_eq!(&model_of(&t), &m);
                let keys: Vec<u64> = m.keys().copied().chain([0, 1, u64::MAX]).collect();
                check_lookups(&t, &m, &keys);
            }
        }
    }
}
