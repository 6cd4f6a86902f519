//! The generalized prefix tree (Böhm et al., BTW'11), with cache-conscious
//! leaves.
//!
//! Keys are unsigned 64-bit integers split into fixed-width digits of
//! `prefix_bits` bits, consumed from the most significant digit down, which
//! makes the structure order-preserving (unlike a hash table) and gives it
//! O(key_bits / prefix_bits) point-operation cost independent of size
//! (unlike a B+-tree).  Inner nodes are dense child-pointer arrays.
//!
//! **Compact leaves.**  A leaf is a presence bitmap plus a block of the
//! value arena sized by capacity class (4 → 16 → 64 → `fanout`).  Below
//! `fanout` capacity the values sit densely in digit order and a digit is
//! addressed by its rank, `popcount(present & below(digit))`; a block that
//! has reached `fanout` capacity is addressed by the digit directly, so a
//! dense leaf costs what a dense value array costs.  The leaf's own
//! occupancy makes the choice; freed blocks are recycled per class.
//!
//! **Root skip.**  The levels on which the smallest and the largest key
//! ever inserted agree are a single-child chain; every descent starts at
//! the node below that chain, and a key outside the shared prefix is
//! absent without a single node read.
//!
//! **Batch descent.**  [`PrefixTree::lookup_batch`] and
//! [`PrefixTree::upsert_batch`] walk groups of [`GROUP`] keys one level at
//! a time, prefetching every key's next line before any of them is read —
//! Section 3.1's "batches to hide memory latency".  All descents have the
//! same depth, so the group needs no per-key state machine.
//!
//! Nodes live in three arenas indexed by `u32` — cache friendly and
//! trivially relocatable, which matters for the load balancer.  Each arena
//! is a list of the crate's equal chunks ([`crate::chunk`]), as the hash
//! table's bucket array is: growth adds a chunk and never copies one, and a
//! chunk a shrinking partition frees is what a growing one is handed.  The
//! offsets stay logical, so a leaf header or a value block may run from one
//! chunk into the next, and every access resolves its own index.  A
//! transfer moves a sorted `(key, value)` stream in bounded steps: the
//! donor's [`PrefixTree::extract_chunk`] removes whole leaves' worth of
//! pairs at a time, and the receiver inserts each step with
//! [`PrefixTree::upsert_batch`].
//!
//! **Shrinking.**  A removal frees value blocks to the free lists but never
//! a node.  So a donor whose extraction leaves slack worth one chunk, or
//! half its arenas ([`PrefixTree::compaction_due`]), is rebuilt from its
//! remaining pairs in key order, and its old chunks are freed whole.
//!
//! Every arena slot has a synthetic address (base vaddr + arena offset) so
//! the engine can feed lookup paths into the L3 cache simulator
//! ([`PrefixTree::trace_path`]).

use std::ops::ControlFlow;

use crate::chunk::ChunkVec;
use crate::prefetch::prefetch_read;

/// Configuration of a [`PrefixTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixTreeConfig {
    /// Digit width in bits.  The paper's default is 8.
    pub prefix_bits: u32,
    /// Number of significant key bits; must be a multiple of `prefix_bits`.
    pub key_bits: u32,
}

impl Default for PrefixTreeConfig {
    fn default() -> Self {
        PrefixTreeConfig {
            prefix_bits: 8,
            key_bits: 64,
        }
    }
}

impl PrefixTreeConfig {
    /// A tree for keys below `2^key_bits` with the given digit width.
    pub fn new(prefix_bits: u32, key_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&prefix_bits),
            "prefix length must be between 1 and 16 bits"
        );
        assert!(key_bits > 0 && key_bits <= 64);
        assert_eq!(
            key_bits % prefix_bits,
            0,
            "key_bits ({key_bits}) must be a multiple of prefix_bits ({prefix_bits})"
        );
        PrefixTreeConfig {
            prefix_bits,
            key_bits,
        }
    }

    /// Tree depth in levels (inner levels + the leaf level).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.key_bits / self.prefix_bits
    }

    /// Children / slots per node.
    #[inline]
    pub fn fanout(&self) -> usize {
        1usize << self.prefix_bits
    }

    /// Presence-bitmap words per leaf.
    #[inline]
    fn leaf_words(&self) -> usize {
        self.fanout().div_ceil(64)
    }

    /// Words of one leaf header: the block descriptor, then the bitmap.
    #[inline]
    fn header_words(&self) -> usize {
        1 + self.leaf_words()
    }

    /// Bits below the digit of `level`: `key >> shift(level)` is the key's
    /// top `level + 1` digits.
    #[inline]
    fn shift(&self, level: u32) -> u32 {
        self.key_bits - (level + 1) * self.prefix_bits
    }

    #[inline]
    fn digit(&self, key: u64, level: u32) -> usize {
        (key >> self.shift(level)) as usize & (self.fanout() - 1)
    }

    /// Bytes of each level of a tree holding the dense keys `0..keys`, root
    /// first: [`PrefixTree::memory_bytes`] for key counts no tree is built
    /// for, which is what the cost model's cache residency reads.  Level
    /// `l` holds `keys / fanout^(levels - l)` nodes, capped by its width
    /// `fanout^l` and at least one.  An inner node is `fanout` child slots;
    /// a dense leaf is its header and a direct-indexed block of `fanout`
    /// value slots.
    pub fn dense_level_bytes(&self, keys: u64) -> impl Iterator<Item = f64> {
        let levels = self.levels() as i32;
        let fanout = self.fanout() as f64;
        let inner = fanout * CHILD_BYTES as f64;
        let leaf = (self.header_words() as f64 + fanout) * WORD_BYTES as f64;
        (0..levels).map(move |l| {
            let nodes = (keys as f64 / fanout.powi(levels - l))
                .min(fanout.powi(l))
                .max(1.0);
            nodes * if l == levels - 1 { leaf } else { inner }
        })
    }

    /// The largest key of the domain.
    #[inline]
    fn top(&self) -> u64 {
        u64::MAX >> (64 - self.key_bits)
    }

    /// Leading levels on which two keys of the domain have equal digits,
    /// at most `levels - 1`: the leaf level is never skipped.
    fn shared_levels(&self, a: u64, b: u64) -> u32 {
        let shared_bits = (a ^ b).leading_zeros() - (64 - self.key_bits);
        (shared_bits / self.prefix_bits).min(self.levels() - 1)
    }

    fn check_key(&self, key: u64) {
        if self.key_bits < 64 {
            // BOUNDS: documented domain precondition — keys wider than
            // the configured key_bits are a caller bug, rejected once
            // at every tree entry point.
            assert!(
                key < (1u64 << self.key_bits),
                "key {key} exceeds the configured {}-bit domain",
                self.key_bits
            );
        }
    }
}

const NULL: u32 = u32::MAX;

/// Bytes of an inner node's child slot: a `u32` node id.
const CHILD_BYTES: usize = std::mem::size_of::<u32>();

/// Bytes of a leaf-header word (block descriptor or presence word) and of a
/// value slot.
const WORD_BYTES: usize = std::mem::size_of::<u64>();

/// Keys the batch entry points walk together, one level at a time.  Every
/// key of a group has one line in flight per level; 32 covers a DRAM miss
/// with the group's other loads while the group state (keys, nodes, value
/// slots) stays a few hundred bytes of stack.
const GROUP: usize = 32;

/// Pairs a rebuild streams through its buffer per step (1 MiB).
const REBUILD_PAIRS: usize = 1 << 16;

/// Leaf block capacities below `fanout`, in value slots.  A leaf outgrowing
/// the last one is promoted to a direct-indexed block of `fanout` slots.
const BLOCK_CLASSES: [u32; 3] = [4, 16, 64];

/// Where a leaf's values live: `cap` slots of the value arena from `block`.
/// `cap == fanout` means direct-indexed by digit, anything smaller ranked;
/// `cap == 0` is an empty leaf that owns no block.
#[derive(Clone, Copy)]
struct LeafHead {
    block: u32,
    cap: u32,
}

const NO_BLOCK: LeafHead = LeafHead { block: 0, cap: 0 };

impl LeafHead {
    /// The descriptor as the first word of a leaf header.
    fn pack(self) -> u64 {
        u64::from(self.cap) << 32 | u64::from(self.block)
    }

    fn unpack(word: u64) -> Self {
        LeafHead {
            block: word as u32,
            cap: (word >> 32) as u32,
        }
    }
}

/// The set bit positions of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// An order-preserving trie from `u64` keys to `u64` values.
pub struct PrefixTree {
    cfg: PrefixTreeConfig,
    /// Inner child arrays: node `i` occupies `i*fanout .. (i+1)*fanout`.
    inner: ChunkVec<u32>,
    /// Leaf headers: leaf `j` occupies `header_words` words from
    /// `j*header_words` — its packed [`LeafHead`], then its presence
    /// bitmap, so that a lookup finds both on one line more often than not.
    leaves: ChunkVec<u64>,
    /// The value arena the leaf blocks are carved from.
    values: ChunkVec<u64>,
    /// Recycled blocks, one list per capacity class (`fanout` last).
    free: [Vec<u32>; BLOCK_CLASSES.len() + 1],
    /// Value slots held by live blocks.
    live_slots: usize,
    len: usize,
    rebuilds: u64,
    /// Smallest and largest key ever inserted (`MAX`/`0` while there was
    /// none).  Removals never narrow them, so every stored key shares
    /// their common prefix.
    min_key: u64,
    max_key: u64,
    /// Root skip: `min_key` and `max_key` agree on the first `skip_levels`
    /// levels, and `skip_node` is the node their shared digits lead to.
    skip_levels: u32,
    skip_node: u32,
    /// Synthetic base address for cache simulation.
    base_vaddr: u64,
}

impl PrefixTree {
    /// An empty tree with the default configuration (8-bit digits).
    pub fn new() -> Self {
        Self::with_config(PrefixTreeConfig::default(), 0)
    }

    /// An empty tree; `base_vaddr` anchors synthetic node addresses.
    pub fn with_config(cfg: PrefixTreeConfig, base_vaddr: u64) -> Self {
        let mut t = PrefixTree {
            cfg,
            inner: ChunkVec::new(),
            leaves: ChunkVec::new(),
            values: ChunkVec::new(),
            free: Default::default(),
            live_slots: 0,
            len: 0,
            rebuilds: 0,
            min_key: u64::MAX,
            max_key: 0,
            skip_levels: 0,
            skip_node: 0,
            base_vaddr,
        };
        if cfg.levels() == 1 {
            t.new_leaf();
        } else {
            t.new_inner(); // root
        }
        t
    }

    /// The configuration.
    pub fn config(&self) -> PrefixTreeConfig {
        self.cfg
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rebuilds at the exact size that [`PrefixTree::compaction_due`] ran.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Resident bytes: inner nodes, leaf headers (presence bitmap and block
    /// descriptor) and the live value blocks.  Blocks waiting on a free
    /// list are not counted: they are slack, which [`PrefixTree::compaction_due`] bounds.
    pub fn memory_bytes(&self) -> u64 {
        (self.inner.len() * CHILD_BYTES + (self.leaves.len() + self.live_slots) * WORD_BYTES) as u64
    }

    /// Whether the bytes the arenas hold and a rebuild ([`PrefixTree::rebuilt`])
    /// would not — free-listed and oversized blocks, emptied leaves and nodes,
    /// found by one walk — are due by the one rule ([`crate::chunk::compaction_due`]).
    pub fn compaction_due(&self) -> bool {
        let held =
            self.memory_bytes() + ((self.values.len() - self.live_slots) * WORD_BYTES) as u64;
        crate::chunk::compaction_due(held - self.kept_bytes(0, 0) as u64, held)
    }

    /// Bytes a rebuild holds for the subtree of `node` at `level`: 0 if keyless, bar the root.
    fn kept_bytes(&self, node: u32, level: u32) -> usize {
        let (own, below) = if level + 1 == self.cfg.levels() {
            let n = self.leaf_len(node);
            let block = (n > 0) as usize * self.capacity_for(n) as usize;
            (self.cfg.header_words() * WORD_BYTES, block * WORD_BYTES)
        } else {
            let fanout = self.cfg.fanout();
            // BOUNDS: a live inner node owns `fanout` child slots.
            let children = (0..fanout).map(|d| self.inner[node as usize * fanout + d]);
            let kept = children
                .filter(|&c| c != NULL)
                .map(|c| self.kept_bytes(c, level + 1));
            (fanout * CHILD_BYTES, kept.sum())
        };
        (below > 0 || level == 0) as usize * (own + below)
    }

    fn new_inner(&mut self) -> u32 {
        let id = (self.inner.len() / self.cfg.fanout()) as u32;
        self.inner.grow(self.cfg.fanout(), NULL);
        id
    }

    fn new_leaf(&mut self) -> u32 {
        let id = (self.leaves.len() / self.cfg.header_words()) as u32;
        // An all-zero header is NO_BLOCK and an empty bitmap.
        self.leaves.grow(self.cfg.header_words(), 0);
        id
    }

    /// The smallest block capacity that holds `n` values.
    fn capacity_for(&self, n: usize) -> u32 {
        let fanout = self.cfg.fanout();
        BLOCK_CLASSES
            .into_iter()
            .find(|&c| c as usize >= n && (c as usize) < fanout)
            .unwrap_or(fanout as u32)
    }

    /// The free list a block of `cap` slots belongs to.
    fn class_of(cap: u32) -> usize {
        BLOCK_CLASSES
            .iter()
            .position(|&c| c == cap)
            .unwrap_or(BLOCK_CLASSES.len())
    }

    /// A block of `cap` value slots: recycled if the class has one, else
    /// carved from the end of the arena.  Recycled slots hold stale values;
    /// the presence bitmap says which slots mean anything.
    fn alloc_block(&mut self, cap: u32) -> u32 {
        self.live_slots += cap as usize;
        // BOUNDS: class_of returns an index below free.len() by construction.
        if let Some(block) = self.free[Self::class_of(cap)].pop() {
            return block;
        }
        // BOUNDS: a tree holding 2^32 value slots (32 GiB) in one
        // partition is outside the engine's design envelope; failing loudly
        // beats wrapping a block offset.
        let block = u32::try_from(self.values.len())
            .ok()
            .filter(|b| b.checked_add(cap).is_some())
            .expect("value arena outgrew its 32-bit block offsets");
        self.values.grow(cap as usize, 0);
        block
    }

    /// Give a leaf's block back to its class's free list.
    fn free_block(&mut self, head: LeafHead) {
        if head.cap > 0 {
            self.live_slots -= head.cap as usize;
            // BOUNDS: class_of returns an index below free.len().
            // ALLOC-OK: the free list grows by one entry per recycled
            // block — bounded by the blocks ever allocated.
            self.free[Self::class_of(head.cap)].push(head.block);
        }
    }

    /// Index of the first header word of `leaf`.
    #[inline]
    fn header(&self, leaf: u32) -> usize {
        leaf as usize * self.cfg.header_words()
    }

    #[inline]
    fn head(&self, leaf: u32) -> LeafHead {
        // BOUNDS: a live leaf owns `header_words` words from `header(leaf)`.
        LeafHead::unpack(self.leaves[self.header(leaf)])
    }

    #[inline]
    fn set_head(&mut self, leaf: u32, head: LeafHead) {
        let at = self.header(leaf);
        // BOUNDS: a live leaf owns `header_words` words from `header(leaf)`.
        self.leaves[at] = head.pack();
    }

    /// Word `w < leaf_words` of the presence bitmap of `leaf`.
    #[inline]
    fn presence_word(&self, leaf: u32, w: usize) -> u64 {
        // BOUNDS: a live leaf owns `header_words` words from `header(leaf)`.
        self.leaves[self.header(leaf) + 1 + w]
    }

    /// The header word and the bit that say whether `digit` is occupied.
    #[inline]
    fn present_word(&self, leaf: u32, digit: usize) -> (usize, u64) {
        (self.header(leaf) + 1 + digit / 64, 1u64 << (digit % 64))
    }

    /// Keys stored in `leaf`.
    fn leaf_len(&self, leaf: u32) -> usize {
        (0..self.cfg.leaf_words())
            .map(|w| self.presence_word(leaf, w).count_ones() as usize)
            .sum()
    }

    /// Occupied digits of `leaf` below `digit` (`digit < fanout`): the
    /// position of `digit`'s value in a ranked block.
    #[inline]
    fn rank(&self, leaf: u32, digit: usize) -> usize {
        // `digit < fanout` keeps `digit / 64` inside the bitmap.
        let below: usize = (0..digit / 64)
            .map(|w| self.presence_word(leaf, w).count_ones() as usize)
            .sum();
        let partial = self.presence_word(leaf, digit / 64) & ((1u64 << (digit % 64)) - 1);
        below + partial.count_ones() as usize
    }

    /// The value-arena slot of `digit` in `leaf`, if the digit is occupied.
    /// The header is resolved once, as a slice, unless it runs across a
    /// chunk boundary.
    #[inline]
    fn value_slot(&self, leaf: u32, digit: usize) -> Option<usize> {
        let first = self.header(leaf);
        match self.leaves.contiguous(first, self.cfg.header_words()) {
            // BOUNDS: `w < header_words`, the slice's length.
            Some(header) => self.slot_in(|w| header[w], digit),
            // BOUNDS: a live leaf owns `header_words` words from `first`.
            None => self.slot_in(|w| self.leaves[first + w], digit),
        }
    }

    /// [`PrefixTree::value_slot`] over a leaf's header words, `word(0)` its
    /// packed [`LeafHead`] and `word(1 + w)` presence word `w`.
    #[inline]
    fn slot_in(&self, word: impl Fn(usize) -> u64, digit: usize) -> Option<usize> {
        let present = word(1 + digit / 64);
        if present & 1u64 << (digit % 64) == 0 {
            return None;
        }
        let head = LeafHead::unpack(word(0));
        let offset = if head.cap as usize == self.cfg.fanout() {
            digit
        } else {
            let below: usize = (0..digit / 64)
                .map(|w| word(1 + w).count_ones() as usize)
                .sum();
            below + (present & ((1u64 << (digit % 64)) - 1)).count_ones() as usize
        };
        Some(head.block as usize + offset)
    }

    /// Does `key` carry the prefix every stored key shares?
    #[inline]
    fn in_skip(&self, key: u64) -> bool {
        self.skip_levels == 0 || (key ^ self.min_key) >> self.cfg.shift(self.skip_levels - 1) == 0
    }

    /// Widen the key bounds for a key that was just inserted, and move the
    /// root skip up when the wider bounds share fewer levels.  Widening only
    /// ever shortens the shared prefix (or, for the first key, creates it),
    /// and an unchanged level count means an unchanged prefix, so the chain
    /// is walked only when the count moves.
    fn note_bounds(&mut self, key: u64) {
        if (self.min_key..=self.max_key).contains(&key) {
            return;
        }
        self.min_key = self.min_key.min(key);
        self.max_key = self.max_key.max(key);
        let shared = self.cfg.shared_levels(self.min_key, self.max_key);
        if shared != self.skip_levels {
            let fanout = self.cfg.fanout();
            let mut node = 0u32;
            for level in 0..shared {
                // BOUNDS: min_key was inserted and inner nodes are never
                // unlinked, so its path exists; digits are masked to fanout.
                node = self.inner[node as usize * fanout + self.cfg.digit(self.min_key, level)];
            }
            debug_assert_ne!(node, NULL, "the path of min_key exists");
            self.skip_levels = shared;
            self.skip_node = node;
        }
    }

    /// Descend to the leaf of `key`, creating the missing part of its path.
    fn ensure_leaf(&mut self, key: u64) -> u32 {
        let levels = self.cfg.levels();
        let fanout = self.cfg.fanout();
        // A key outside the shared prefix leaves the skipped chain at some
        // level above the skip node: walk it from the root.
        let (mut node, start) = if self.in_skip(key) {
            (self.skip_node, self.skip_levels)
        } else {
            (0, 0)
        };
        for level in start..levels - 1 {
            let slot = node as usize * fanout + self.cfg.digit(key, level);
            // BOUNDS: `node` names a live inner node and `digit` is masked to
            // fanout by `digit()`, so slot < inner.len().
            let child = self.inner[slot];
            node = if child == NULL {
                let fresh = if level + 2 == levels {
                    self.new_leaf()
                } else {
                    self.new_inner()
                };
                // BOUNDS: same slot as the load above.
                self.inner[slot] = fresh;
                fresh
            } else {
                child
            };
        }
        node
    }

    /// Move `leaf` into a block that holds `need` values.
    fn grow_leaf(&mut self, leaf: u32, need: usize) -> LeafHead {
        // BOUNDS: `leaf` is a live leaf id; both blocks lie inside the value
        // arena (alloc_block sized it), the old one holding `old.cap`
        // ranked values and the new one at least as many slots.
        let old = self.head(leaf);
        let cap = self.capacity_for(need);
        let new = LeafHead {
            block: self.alloc_block(cap),
            cap,
        };
        let (from, to) = (old.block as usize, new.block as usize);
        if cap as usize == self.cfg.fanout() {
            // Promotion to direct indexing: scatter the ranked values to
            // their digits.
            let mut rank = 0;
            for w in 0..self.cfg.leaf_words() {
                // BOUNDS: as above — every digit is below fanout = cap, and
                // `rank` counts the leaf's values, all inside the old block.
                for bit in set_bits(self.presence_word(leaf, w)) {
                    self.values[to + w * 64 + bit] = self.values[from + rank];
                    rank += 1;
                }
            }
        } else {
            self.values.copy_within(from..from + old.cap as usize, to);
        }
        self.free_block(old);
        self.set_head(leaf, new);
        new
    }

    /// Insert or overwrite `key` in its (existing) leaf.
    fn put(&mut self, leaf: u32, key: u64, value: u64) -> Option<u64> {
        let fanout = self.cfg.fanout();
        let digit = key as usize & (fanout - 1);
        if let Some(slot) = self.value_slot(leaf, digit) {
            // BOUNDS: value_slot returns slots inside the leaf's block.
            return Some(std::mem::replace(&mut self.values[slot], value));
        }
        let mut head = self.head(leaf);
        let ranked = head.cap as usize != fanout;
        let n = if ranked { self.leaf_len(leaf) } else { 0 };
        if ranked && n == head.cap as usize {
            head = self.grow_leaf(leaf, n + 1);
        }
        let block = head.block as usize;
        // BOUNDS: `leaf` is a live leaf id; `digit` is masked to fanout, so
        // a direct block (fanout slots) holds it, and a ranked block has
        // room for one more value after the grow check.
        if head.cap as usize == fanout {
            self.values[block + digit] = value;
        } else {
            let rank = self.rank(leaf, digit);
            self.values
                .copy_within(block + rank..block + n, block + rank + 1);
            // BOUNDS: rank <= n < cap after the grow check above.
            self.values[block + rank] = value;
        }
        let (word, bit) = self.present_word(leaf, digit);
        // BOUNDS: present_word of a live leaf and a masked digit.
        self.leaves[word] |= bit;
        self.len += 1;
        self.note_bounds(key);
        None
    }

    /// Insert or overwrite; returns the previous value if the key existed.
    pub fn upsert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.cfg.check_key(key);
        let leaf = self.ensure_leaf(key);
        self.put(leaf, key, value)
    }

    /// Apply a strictly increasing run of pairs that share one leaf;
    /// returns how many keys were fresh.  An empty leaf takes the run in
    /// one step: its block is sized once and the values land in rank order.
    fn upsert_run(&mut self, run: &[(u64, u64)]) -> u64 {
        // BOUNDS: callers pass a non-empty run.
        let (first, last) = (run[0].0, run[run.len() - 1].0);
        let leaf = self.ensure_leaf(first);
        if self.head(leaf).cap != 0 {
            let mut fresh = 0;
            for &(k, v) in run {
                fresh += self.put(leaf, k, v).is_none() as u64;
            }
            return fresh;
        }
        let fanout = self.cfg.fanout();
        let cap = self.capacity_for(run.len());
        let block = self.alloc_block(cap) as usize;
        let at = |rank: usize, digit: usize| if cap as usize == fanout { digit } else { rank };
        let words = self.header(leaf) + 1;
        // Presence words and block resolved once, unless one of them runs
        // across a chunk boundary.
        let digits = run.iter().map(|&(k, v)| (k as usize & (fanout - 1), v));
        match (
            self.leaves.contiguous_mut(words, self.cfg.leaf_words()),
            self.values.contiguous_mut(block, cap as usize),
        ) {
            (Some(present), Some(slots)) => {
                for (rank, (digit, v)) in digits.enumerate() {
                    // BOUNDS: digits are masked to fanout; the fresh block
                    // holds `cap >= run.len()` slots, `fanout` of them when
                    // it is addressed by digit.
                    present[digit / 64] |= 1 << (digit % 64);
                    slots[at(rank, digit)] = v;
                }
            }
            _ => {
                for (rank, (digit, v)) in digits.enumerate() {
                    // BOUNDS: as above; the leaf owns `leaf_words` presence
                    // words from `words`.
                    self.leaves[words + digit / 64] |= 1 << (digit % 64);
                    self.values[block + at(rank, digit)] = v;
                }
            }
        }
        self.set_head(
            leaf,
            LeafHead {
                block: block as u32,
                cap,
            },
        );
        self.len += run.len();
        self.note_bounds(first);
        self.note_bounds(last);
        run.len() as u64
    }

    /// Length of the longest strictly increasing prefix of `pairs` whose
    /// keys fall into one leaf (at least 1 for a non-empty slice).
    fn leaf_run_len(&self, pairs: &[(u64, u64)]) -> usize {
        let same_leaf = |a: u64, b: u64| (a ^ b) >> self.cfg.prefix_bits == 0;
        1 + pairs
            .windows(2)
            // BOUNDS: windows(2) yields two-element slices.
            .take_while(|w| w[0].0 < w[1].0 && same_leaf(w[0].0, w[1].0))
            .count()
    }

    /// Read-only level-synchronous descent of one group: `leaf[i]` becomes
    /// the leaf on the path of `keys[i]`, or [`NULL`] where the path does
    /// not exist.  At each level every key's child slot is read — it was
    /// resolved and prefetched while the level above was walked — and the
    /// line the next level needs is prefetched before the walk moves on to
    /// the next key: the child slot one level down or, below the last inner
    /// level, the leaf's block descriptor and presence word.
    #[inline]
    fn descend_group(&self, keys: &[u64], leaf: &mut [u32]) {
        let levels = self.cfg.levels();
        let fanout = self.cfg.fanout();
        // The child slot each key reads at the current level.
        let mut next: [Option<&u32>; GROUP] = [None; GROUP];
        for ((node, slot), &key) in leaf.iter_mut().zip(&mut next).zip(keys) {
            self.cfg.check_key(key);
            *node = if self.in_skip(key) {
                self.skip_node
            } else {
                NULL
            };
            if *node != NULL && self.skip_levels < levels - 1 {
                let at = *node as usize * fanout + self.cfg.digit(key, self.skip_levels);
                *slot = self.inner.get(at);
            }
        }
        for level in self.skip_levels..levels - 1 {
            for ((node, slot), &key) in leaf.iter_mut().zip(&mut next).zip(keys) {
                let Some(&child) = slot.take() else {
                    *node = NULL;
                    continue;
                };
                *node = child;
                if child == NULL {
                    continue;
                }
                if level + 2 < levels {
                    *slot = self
                        .inner
                        .get(child as usize * fanout + self.cfg.digit(key, level + 1));
                    if let Some(s) = *slot {
                        prefetch_read(s);
                    }
                } else if let Some(h) = self
                    .leaves
                    .contiguous(self.header(child), self.cfg.header_words())
                {
                    let digit = key as usize & (fanout - 1);
                    if let (Some(head), Some(word)) = (h.first(), h.get(1 + digit / 64)) {
                        prefetch_read(head);
                        prefetch_read(word);
                    }
                }
            }
        }
    }

    /// The leaf stage of a group: for every key whose leaf exists and holds
    /// it, the value slot — prefetched — else [`NULL`].
    #[inline]
    fn locate_group(&self, keys: &[u64], leaf: &[u32], slot: &mut [u32]) {
        let mask = self.cfg.fanout() - 1;
        for ((slot, &leaf), &key) in slot.iter_mut().zip(leaf).zip(keys) {
            *slot = NULL;
            if leaf == NULL {
                continue;
            }
            if let Some(at) = self.value_slot(leaf, key as usize & mask) {
                if let Some(v) = self.values.get(at) {
                    prefetch_read(v);
                }
                // Block offsets fit `u32` (alloc_block checks), and NULL is
                // no slot: the arena never reaches `u32::MAX` values.
                *slot = at as u32;
            }
        }
    }

    /// Descend to the leaf of `key` without modifying; returns
    /// (leaf node, leaf digit) if the path exists.
    #[inline]
    fn descend(&self, key: u64) -> Option<(u32, usize)> {
        if !self.in_skip(key) {
            return None;
        }
        let levels = self.cfg.levels();
        let fanout = self.cfg.fanout();
        let mut node = self.skip_node;
        for level in self.skip_levels..levels - 1 {
            // BOUNDS: `node` names a live inner node and `digit` is masked to
            // fanout by `digit()`.
            node = self.inner[node as usize * fanout + self.cfg.digit(key, level)];
            if node == NULL {
                return None;
            }
        }
        Some((node, key as usize & (fanout - 1)))
    }

    /// Point lookup.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.cfg.check_key(key);
        let (leaf, digit) = self.descend(key)?;
        // BOUNDS: value_slot returns slots inside the leaf's block.
        self.value_slot(leaf, digit).map(|slot| self.values[slot])
    }

    /// Batched lookup: the per-AEU command grouping of Section 3.1 executes
    /// many lookups in one pass to hide memory latency.  Replaces the
    /// contents of `out` with one result per key, in input order — the
    /// same results as a loop of [`PrefixTree::lookup`].
    pub fn lookup_batch(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        out.clear();
        // ALLOC-OK: pre-sizes the caller's reusable output vector once
        // per batch; the pushes below stay within that reservation.
        out.reserve(keys.len());
        // A group of one has no second descent to overlap its misses with:
        // a 1-key command takes the scalar descent, without the group state.
        if let &[key] = keys {
            // ALLOC-OK: within the reservation above.
            out.push(self.lookup(key));
            return;
        }
        let mut leaf = [NULL; GROUP];
        let mut slot = [NULL; GROUP];
        for group in keys.chunks(GROUP) {
            // BOUNDS: chunks(GROUP) yields at most GROUP keys.
            let (leaf, slot) = (&mut leaf[..group.len()], &mut slot[..group.len()]);
            self.descend_group(group, leaf);
            self.locate_group(group, leaf, slot);
            // BOUNDS: locate_group stores slots inside the value arena.
            // ALLOC-OK: within the reservation above.
            out.extend(
                slot.iter()
                    .map(|&s| (s != NULL).then(|| self.values[s as usize])),
            );
        }
    }

    /// Insert or overwrite a whole batch; returns how many keys were fresh
    /// inserts.  Pairs apply in input order (later duplicates win), so the
    /// result is that of a loop of [`PrefixTree::upsert`].  Each group is
    /// first descended read-only with the lookup path's prefetching, then
    /// applied: a key whose leaf holds keys goes straight to it, and where
    /// the leaf is missing or empty the strictly increasing run that shares
    /// it (sorted input: bulk load, a copy transfer's rebuild, recovery) is
    /// inserted in one step, sizing the leaf's block once.
    pub fn upsert_batch(&mut self, pairs: &[(u64, u64)]) -> u64 {
        // As in `lookup_batch`: one pair is a plain upsert.
        if let &[(key, value)] = pairs {
            return self.upsert(key, value).is_none() as u64;
        }
        let mut fresh = 0u64;
        let mut keys = [0u64; GROUP];
        let mut leaf = [NULL; GROUP];
        let mut slot = [NULL; GROUP];
        let mut at = 0;
        while at < pairs.len() {
            // BOUNDS: `at < pairs.len()`, and the group is at most GROUP
            // pairs, the size of the stack arrays.
            let group = &pairs[at..pairs.len().min(at + GROUP)];
            let n = group.len();
            for (key, pair) in keys.iter_mut().zip(group) {
                *key = pair.0;
            }
            self.descend_group(&keys[..n], &mut leaf[..n]);
            // Overwrites write the slot a lookup would read: warm it.
            self.locate_group(&keys[..n], &leaf[..n], &mut slot[..n]);
            let mut i = 0;
            while i < n {
                // BOUNDS: `i < n <= GROUP`, `at + i < pairs.len()`, and a
                // non-NULL `leaf[i]` is a live leaf id.
                let (key, value) = group[i];
                if leaf[i] != NULL && self.head(leaf[i]).cap != 0 {
                    fresh += self.put(leaf[i], key, value).is_none() as u64;
                    i += 1;
                } else {
                    // The leaf is missing (it was when the group was
                    // descended) or empty.  A run may reach past the group;
                    // the next group starts where it ends.
                    // BOUNDS: `at + i < pairs.len()`, and a run is a prefix
                    // of the slice it was measured on.
                    let rest = &pairs[at + i..];
                    let run = self.leaf_run_len(rest);
                    fresh += self.upsert_run(&rest[..run]);
                    i += run;
                }
            }
            at += i;
        }
        fresh
    }

    /// Remove a key; returns the old value.  Values above it in a ranked
    /// block close the gap; a leaf that becomes empty gives its block back.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.cfg.check_key(key);
        let (leaf, digit) = self.descend(key)?;
        let slot = self.value_slot(leaf, digit)?;
        let old = self.values[slot];
        let head = self.head(leaf);
        let n = self.leaf_len(leaf);
        if head.cap as usize != self.cfg.fanout() {
            self.values
                .copy_within(slot + 1..head.block as usize + n, slot);
        }
        let (word, bit) = self.present_word(leaf, digit);
        self.leaves[word] &= !bit;
        self.len -= 1;
        if n == 1 {
            self.free_block(head);
            self.set_head(leaf, NO_BLOCK);
        }
        Some(old)
    }

    /// Remove the stored keys of `run`, which share one leaf.  A run that
    /// is the whole leaf empties it in one step — its block freed, its
    /// presence words cleared — which leaves the tree as removing the keys
    /// one by one would.
    fn remove_run(&mut self, run: &[(u64, u64)]) {
        // BOUNDS: callers pass runs of stored keys, so the first exists
        // and its path does.
        let Some((leaf, _)) = self.descend(run[0].0) else {
            return;
        };
        if run.len() != self.leaf_len(leaf) {
            for &(k, _) in run {
                self.remove(k);
            }
            return;
        }
        self.len -= run.len();
        self.free_block(self.head(leaf));
        self.set_head(leaf, NO_BLOCK);
        let first = self.header(leaf) + 1;
        for w in 0..self.cfg.leaf_words() {
            // BOUNDS: a live leaf owns `header_words` words from `header`.
            self.leaves[first + w] = 0;
        }
    }

    /// Synthetic addresses of the arena slots a lookup of `key` reads,
    /// appended to `out` — the input for the L3 cache simulator: one child
    /// slot per inner level below the root skip, then the leaf's presence
    /// word and, for a stored key, its block descriptor and value slot.
    /// The trace stops at the first missing node.
    pub fn trace_path(&self, key: u64, out: &mut Vec<u64>) {
        if !self.in_skip(key) {
            return;
        }
        let levels = self.cfg.levels();
        let fanout = self.cfg.fanout();
        let (child, word) = (CHILD_BYTES as u64, WORD_BYTES as u64);
        let leaves_base = self.base_vaddr + self.inner.len() as u64 * child;
        let values_base = leaves_base + self.leaves.len() as u64 * word;
        let mut node = self.skip_node;
        for level in self.skip_levels..levels - 1 {
            let slot = node as usize * fanout + self.cfg.digit(key, level);
            out.push(self.base_vaddr + slot as u64 * child);
            node = self.inner[slot];
            if node == NULL {
                return;
            }
        }
        let digit = key as usize & (fanout - 1);
        out.push(leaves_base + self.present_word(node, digit).0 as u64 * word);
        if let Some(slot) = self.value_slot(node, digit) {
            out.push(leaves_base + self.header(node) as u64 * word);
            out.push(values_base + slot as u64 * word);
        }
    }

    /// In-order visit of all `(key, value)` pairs in the *inclusive* range
    /// `[lo, hi]`, which can reach the top key of the domain: `hi ==
    /// u64::MAX` on a 64-bit tree visits `u64::MAX` itself.  Keys
    /// outside the configured domain are clamped, not panicked on, so a
    /// caller holding engine-level bounds (`[lo, u64::MAX]` from an
    /// unbounded predicate) can pass them to a narrower tree verbatim.
    pub fn scan_range_inclusive(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, u64)) {
        let top = self.cfg.top();
        if lo > hi || lo > top {
            return;
        }
        let _ = self.walk(lo, hi.min(top), &mut |k, v| {
            f(k, v);
            ControlFlow::Continue(())
        });
    }

    /// Visit the pairs of `[lo, hi]` in key order until `f` breaks.
    fn walk(
        &self,
        lo: u64,
        hi: u64,
        f: &mut impl FnMut(u64, u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Every stored key lies below the skip node.
        let prefix = match self.skip_levels {
            0 => 0,
            s => {
                let shift = self.cfg.shift(s - 1);
                self.min_key >> shift << shift
            }
        };
        self.walk_node(self.skip_node, self.skip_levels, prefix, lo, hi, f)
    }

    fn walk_node(
        &self,
        node: u32,
        level: u32,
        prefix: u64,
        lo: u64,
        hi: u64,
        f: &mut impl FnMut(u64, u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if level == self.cfg.levels() - 1 {
            return self.walk_leaf(node, prefix, lo, hi, f);
        }
        let fanout = self.cfg.fanout();
        let shift = self.cfg.shift(level);
        let last = (1u64 << shift) - 1; // a child's last key past its first
        for digit in 0..fanout {
            let child_lo = prefix | (digit as u64) << shift;
            if child_lo > hi {
                break;
            }
            if child_lo | last < lo {
                continue;
            }
            // BOUNDS: `node` names a live inner node and `digit < fanout`.
            let child = self.inner[node as usize * fanout + digit];
            if child != NULL {
                self.walk_node(child, level + 1, child_lo, lo, hi, f)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Visit the keys of `leaf` (whose keys are `prefix | digit`) that lie
    /// in `[lo, hi]`, walking the set bits of its presence words.
    fn walk_leaf(
        &self,
        leaf: u32,
        prefix: u64,
        lo: u64,
        hi: u64,
        f: &mut impl FnMut(u64, u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let fanout = self.cfg.fanout();
        if hi < prefix || lo > prefix | (fanout as u64 - 1) {
            return ControlFlow::Continue(());
        }
        // Digits `from..to` of the leaf lie in the range.
        let from = lo.saturating_sub(prefix) as usize;
        let to = (hi - prefix).min(fanout as u64 - 1) as usize + 1;
        let head = self.head(leaf);
        let direct = head.cap as usize == fanout;
        let mut rank = self.rank(leaf, from);
        for w in from / 64..=(to - 1) / 64 {
            let mut bits = self.presence_word(leaf, w);
            if w == from / 64 {
                bits &= !0u64 << (from % 64);
            }
            if w == to / 64 {
                bits &= (1u64 << (to % 64)) - 1;
            }
            for bit in set_bits(bits) {
                let digit = w * 64 + bit;
                let offset = if direct { digit } else { rank };
                // BOUNDS: a set presence bit has its value inside the leaf's
                // block, at its digit (direct) or rank (compact).
                f(
                    prefix | digit as u64,
                    self.values[head.block as usize + offset],
                )?;
                rank += 1;
            }
        }
        ControlFlow::Continue(())
    }

    /// Append the pairs of `[from, hi]` to `out` in key order, a leaf's
    /// pairs never split: the walk stops before the first key of a leaf
    /// once fewer than `fanout` further pairs would keep `out` within
    /// `max`, and returns that key to resume at.  A step takes at least
    /// one leaf, so `max` bounds it only from `fanout` up.  A run that
    /// `upsert_batch` receives step by step therefore lands as it would
    /// have in one batch.
    fn scan_chunk(&self, from: u64, hi: u64, out: &mut Vec<(u64, u64)>, max: usize) -> Option<u64> {
        let (fanout, bits) = (self.cfg.fanout(), self.cfg.prefix_bits);
        let mut last = None;
        let mut resume = None;
        let _ = self.walk(from, hi, &mut |k, v| {
            if let Some(prev) = last {
                if (prev ^ k) >> bits != 0 && max.saturating_sub(out.len()) < fanout {
                    resume = Some(k);
                    return ControlFlow::Break(());
                }
            }
            last = Some(k);
            // ALLOC-OK: the caller's reused transfer buffer, kept within
            // `max` (from `fanout` up) by the stop above.
            out.push((k, v));
            ControlFlow::Continue(())
        });
        resume
    }

    /// The whole tree as a sorted `(key, value)` stream.
    pub fn flatten(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.scan_range_inclusive(0, u64::MAX, |k, v| out.push((k, v)));
        out
    }

    /// Build a tree from a strictly increasing stream.
    pub fn build_from_sorted(cfg: PrefixTreeConfig, base_vaddr: u64, pairs: &[(u64, u64)]) -> Self {
        let mut t = Self::with_config(cfg, base_vaddr);
        t.upsert_batch(pairs);
        t
    }

    /// Keys in `[lo, hi)`.
    pub fn count_range(&self, lo: u64, hi: u64) -> usize {
        let mut n = 0;
        if lo < hi {
            self.scan_range_inclusive(lo, hi - 1, |_, _| n += 1);
        }
        n
    }

    /// Remove every key in `[lo, hi)` and append its pair to `out` in key
    /// order (the balancer's donor side) in bounded steps, for a transfer
    /// that streams through one reused buffer: a step starts at key `from`
    /// (0 for the first) and stops before the first leaf that could take
    /// `out` past `max` pairs, returning the key to resume at — a leaf is
    /// never split between steps.  `None` means the range is gone, and the
    /// donor rebuilt from its remaining pairs, at its exact size, if its
    /// slack is due ([`PrefixTree::compaction_due`]).
    pub fn extract_chunk(
        &mut self,
        lo: u64,
        hi: u64,
        from: u64,
        out: &mut Vec<(u64, u64)>,
        max: usize,
    ) -> Option<u64> {
        let start = out.len();
        let resume = if lo < hi {
            self.cfg.check_key(lo);
            self.scan_chunk(lo.max(from), hi - 1, out, max)
        } else {
            None
        };
        // BOUNDS: `start` is where this call began appending.
        let bits = self.cfg.prefix_bits;
        for run in out[start..].chunk_by(|a, b| (a.0 ^ b.0) >> bits == 0) {
            self.remove_run(run);
        }
        if resume.is_none() && self.compaction_due() {
            let rebuilds = self.rebuilds + 1;
            *self = Self {
                rebuilds,
                ..self.rebuilt()
            };
        }
        resume
    }

    /// A fresh tree holding this one's pairs, built as one `upsert_batch`
    /// of them all would build it, through a buffer of whole leaves.
    fn rebuilt(&self) -> Self {
        let mut fresh = Self::with_config(self.cfg, self.base_vaddr);
        let mut buf = Vec::with_capacity(self.len.min(REBUILD_PAIRS));
        let mut from = Some(0);
        while let Some(at) = from {
            buf.clear();
            from = self.scan_chunk(at, self.cfg.top(), &mut buf, REBUILD_PAIRS);
            fresh.upsert_batch(&buf);
        }
        fresh
    }
}

impl Default for PrefixTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small() -> PrefixTree {
        PrefixTree::with_config(PrefixTreeConfig::new(4, 16), 0)
    }

    /// The pairs of `[lo, hi)` in key order.
    fn scanned(t: &PrefixTree, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo < hi {
            t.scan_range_inclusive(lo, hi - 1, |k, v| out.push((k, v)));
        }
        out
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = PrefixTree::new();
        assert_eq!(t.upsert(42, 100), None);
        assert_eq!(t.upsert(7, 200), None);
        assert_eq!(t.lookup(42), Some(100));
        assert_eq!(t.lookup(7), Some(200));
        assert_eq!(t.lookup(8), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn upsert_overwrites() {
        let mut t = small();
        assert_eq!(t.upsert(5, 1), None);
        assert_eq!(t.upsert(5, 2), Some(1));
        assert_eq!(t.lookup(5), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn zero_key_and_zero_value() {
        let mut t = small();
        assert_eq!(t.lookup(0), None);
        t.upsert(0, 0);
        assert_eq!(t.lookup(0), Some(0));
    }

    #[test]
    fn max_key_in_domain() {
        let mut t = small();
        t.upsert(0xFFFF, 9);
        assert_eq!(t.lookup(0xFFFF), Some(9));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn key_outside_domain_panics() {
        small().upsert(0x1_0000, 1);
    }

    #[test]
    fn inclusive_scan_reaches_the_top_of_a_64_bit_domain() {
        let mut t = PrefixTree::with_config(PrefixTreeConfig::new(8, 64), 0);
        t.upsert(0, 1);
        t.upsert(u64::MAX - 1, 2);
        t.upsert(u64::MAX, 3);
        let mut got = Vec::new();
        t.scan_range_inclusive(1, u64::MAX, |k, v| got.push((k, v)));
        assert_eq!(got, vec![(u64::MAX - 1, 2), (u64::MAX, 3)]);
        // A half-open range cannot name u64::MAX as its end — that
        // asymmetry is exactly what scan_range_inclusive exists to close.
        assert_eq!(t.count_range(1, u64::MAX), 1);
        // Single-key inclusive scan at the very top.
        let mut top = Vec::new();
        t.scan_range_inclusive(u64::MAX, u64::MAX, |k, v| top.push((k, v)));
        assert_eq!(top, vec![(u64::MAX, 3)]);
    }

    #[test]
    fn inclusive_scan_clamps_to_a_narrow_domain() {
        let mut t = small(); // 16-bit keys
        t.upsert(0xFFFF, 9);
        t.upsert(5, 1);
        // Engine-level unbounded bounds pass through without panicking.
        let mut got = Vec::new();
        t.scan_range_inclusive(1, u64::MAX, |k, v| got.push((k, v)));
        assert_eq!(got, vec![(5, 1), (0xFFFF, 9)]);
        let mut none = Vec::new();
        t.scan_range_inclusive(0x1_0000, u64::MAX, |k, v| none.push((k, v)));
        assert!(
            none.is_empty(),
            "lo beyond the domain is empty, not a panic"
        );
        t.scan_range_inclusive(9, 3, |_, _| panic!("empty inclusive range"));
    }

    #[test]
    fn remove_works() {
        let mut t = small();
        t.upsert(3, 30);
        t.upsert(4, 40);
        assert_eq!(t.remove(3), Some(30));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.lookup(3), None);
        assert_eq!(t.lookup(4), Some(40));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let mut t = small();
        for k in [9u64, 1, 5, 3, 7, 100, 200] {
            t.upsert(k, k * 10);
        }
        let got = scanned(&t, 3, 100);
        assert_eq!(got, vec![(3, 30), (5, 50), (7, 70), (9, 90)]);
        assert_eq!(t.flatten().len(), 7);
        assert!(t.flatten().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn scan_empty_range() {
        let mut t = small();
        t.upsert(5, 1);
        assert!(scanned(&t, 5, 5).is_empty());
        assert!(scanned(&t, 6, 5).is_empty());
    }

    #[test]
    fn full_domain_scan_on_64bit_tree() {
        let mut t = PrefixTree::new();
        t.upsert(u64::MAX, 1);
        t.upsert(0, 2);
        // u64::MAX as hi is exclusive, so only key 0 is returned below MAX...
        assert_eq!(scanned(&t, 0, u64::MAX), vec![(0, 2)]);
        // ...but flatten() must still cover the full domain.
        assert_eq!(t.flatten(), vec![(0, 2), (u64::MAX, 1)]);
        let mut top = Vec::new();
        t.scan_range_inclusive(1, u64::MAX, |k, v| top.push((k, v)));
        assert_eq!(top, vec![(u64::MAX, 1)]);
    }

    #[test]
    fn extract_range_moves_the_range() {
        let mut t = small();
        for k in 0..100u64 {
            t.upsert(k, k);
        }
        assert_eq!(t.count_range(60, 90), 30);
        let held = arenas(&t);
        let mut moved = vec![(7, 7)];
        t.extract_chunk(60, 90, 0, &mut moved, usize::MAX);
        assert_eq!(moved.remove(0), (7, 7), "appended after what `out` held");
        assert_eq!(moved, (60..90).map(|k| (k, k)).collect::<Vec<_>>());
        assert_eq!(
            (t.len(), arenas(&t), t.rebuilds()),
            (70, held, 0),
            "slack not due"
        );
        assert_eq!(t.lookup(59), Some(59));
        assert_eq!(t.lookup(60), None);
        assert_eq!(t.lookup(90), Some(90));
        assert_eq!(t.count_range(60, 90), 0);
    }

    /// Every arena of `t` holds the chunks its length needs and no more,
    /// and — as after a build — no value block waits on a free list.
    fn no_spare_storage(t: &PrefixTree) -> bool {
        chunks_fit(t) && t.values.len() == t.live_slots
    }

    /// Every arena of `t` holds exactly the chunks its length needs.
    fn chunks_fit(t: &PrefixTree) -> bool {
        t.inner.chunk_count() == t.inner.chunks_needed()
            && t.leaves.chunk_count() == t.leaves.chunks_needed()
            && t.values.chunk_count() == t.values.chunks_needed()
    }

    /// The three arena lengths of `t`.
    fn arenas(t: &PrefixTree) -> (usize, usize, usize) {
        (t.inner.len(), t.leaves.len(), t.values.len())
    }

    /// Bytes the arenas of `t` hold, free-listed blocks included.
    fn held(t: &PrefixTree) -> usize {
        t.inner.len() * CHILD_BYTES + (t.leaves.len() + t.values.len()) * WORD_BYTES
    }

    /// `t` holds what a tree built fresh from its pairs holds.
    fn holds_what_a_fresh_build_holds(t: &PrefixTree) -> bool {
        let fresh = PrefixTree::build_from_sorted(t.config(), 0, &t.flatten());
        arenas(t) == arenas(&fresh) && no_spare_storage(t) && t.kept_bytes(0, 0) == held(t)
    }

    /// Hand `t`'s sparse keys (4 per 256-slot leaf) away from the bottom
    /// in `cuts` (fractions of `n` in percent), and check after each that
    /// the tree was rebuilt exactly when `rebuilt` says, and otherwise
    /// kept its arenas.
    fn check_sparse_donor(n: u64, cuts: &[(u64, bool)]) {
        let pairs: Vec<(u64, u64)> = (0..n).map(|r| (r * 64, r)).collect();
        let mut t = PrefixTree::build_from_sorted(PrefixTreeConfig::default(), 0, &pairs);
        for &(cut, rebuilt) in cuts {
            let (before, hi) = (arenas(&t), pairs[(n * cut / 100) as usize].0);
            let rebuilds = t.rebuilds() + rebuilt as u64;
            t.extract_chunk(0, hi, 0, &mut Vec::new(), usize::MAX);
            assert_eq!(t.rebuilds(), rebuilds, "{cut} %");
            assert_eq!(t.flatten(), pairs[(n * cut / 100) as usize..]);
            assert!(!t.compaction_due(), "{cut} %: slack under the threshold");
            match rebuilt {
                true => assert!(holds_what_a_fresh_build_holds(&t), "{cut} %"),
                false => assert_eq!(arenas(&t), before, "{cut} %: not rebuilt"),
            }
        }
    }

    #[test]
    fn a_drained_donor_is_rebuilt_at_its_exact_size() {
        // 84 KB, so half of it is the threshold, less than a chunk.  Giving
        // 40 % of the keys away leaves 36 % of the bytes as slack, 60 %
        // leaves 55 %; then a tenth more is a fifth of what is left.
        check_sparse_donor(1 << 12, &[(40, false), (60, true), (70, false)]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "a 5 MB tree; no unsafe to check")]
    fn a_large_donor_is_rebuilt_once_one_chunk_is_slack() {
        // 5 MB: 10 % of its keys free 0.5 MB, under a chunk; 30 % free
        // 1.5 MB, a chunk and more, though far less than half of it.
        check_sparse_donor(1 << 18, &[(10, false), (30, true), (40, false)]);
    }

    #[test]
    fn flatten_rebuild_roundtrip() {
        let mut t = small();
        for k in (0..1000u64).step_by(7) {
            t.upsert(k % 0x10000, k);
        }
        let flat = t.flatten();
        let r = PrefixTree::build_from_sorted(t.config(), 7777, &flat);
        assert_eq!(r.len(), t.len());
        assert_eq!(r.flatten(), flat);
    }

    #[test]
    fn trace_path_reports_the_slots_a_lookup_reads() {
        let mut t = PrefixTree::with_config(PrefixTreeConfig::new(8, 32), 1 << 20);
        t.upsert(0xAABBCCDD, 1);
        // One key: the root skip reaches down to its leaf, so a lookup reads
        // the presence word, the block descriptor and the value.
        let mut trace = Vec::new();
        t.trace_path(0xAABBCCDD, &mut trace);
        assert_eq!(trace.len(), 3);
        // A key outside the shared prefix is answered without a read.
        let mut outside = Vec::new();
        t.trace_path(0x11223344, &mut outside);
        assert!(outside.is_empty());
        // Two keys that differ in the top digit: no level is skipped, and
        // the three inner levels each add the child slot read.
        t.upsert(0x11223344, 2);
        trace.clear();
        t.trace_path(0xAABBCCDD, &mut trace);
        assert_eq!(trace.len(), 3 + 3, "3 inner levels + the leaf's 3 reads");
        assert!(trace.iter().all(|a| *a >= 1 << 20));
        assert!(trace.windows(2).all(|w| w[0] != w[1]));
        // A missing key stops early at the first absent node.
        let mut missing = Vec::new();
        t.trace_path(0xAA000000, &mut missing);
        assert_eq!(missing.len(), 2, "root slot, then a NULL child slot");
    }

    #[test]
    fn single_level_tree_works() {
        let mut t = PrefixTree::with_config(PrefixTreeConfig::new(8, 8), 0);
        for k in 0..256u64 {
            t.upsert(k, k * 2);
        }
        assert_eq!(t.len(), 256);
        assert_eq!(t.lookup(255), Some(510));
        assert_eq!(t.flatten().len(), 256);
    }

    #[test]
    fn memory_grows_with_keys() {
        let mut t = PrefixTree::new();
        let empty = t.memory_bytes();
        for k in 0..10_000u64 {
            t.upsert(k * 1_000_003, k);
        }
        assert!(t.memory_bytes() > empty);
    }

    /// Configurations the batch tests run over: a 16-slot leaf (classes
    /// 4 and direct), the engine tests' 32-bit tree and the default.
    const CONFIGS: [(u32, u32); 3] = [(4, 16), (8, 32), (8, 64)];

    /// Apply `pairs` through `upsert_batch` to one tree and through the
    /// scalar loop to another, checking both against the map.
    fn upsert_all(
        batch: &mut PrefixTree,
        scalar: &mut PrefixTree,
        map: &mut BTreeMap<u64, u64>,
        pairs: &[(u64, u64)],
    ) {
        let mut fresh = 0;
        for &(k, v) in pairs {
            let old = map.insert(k, v);
            assert_eq!(scalar.upsert(k, v), old, "scalar upsert of {k}");
            fresh += old.is_none() as u64;
        }
        assert_eq!(batch.upsert_batch(pairs), fresh, "fresh count");
        assert_eq!(batch.len(), map.len());
    }

    /// `lookup_batch` == scalar loop == map, on both trees.
    fn lookup_all(batch: &PrefixTree, scalar: &PrefixTree, map: &BTreeMap<u64, u64>, keys: &[u64]) {
        let expect: Vec<Option<u64>> = keys.iter().map(|k| map.get(k).copied()).collect();
        let mut out = vec![Some(7)]; // stale contents are replaced
        batch.lookup_batch(keys, &mut out);
        assert_eq!(out, expect, "lookup_batch on the batch-built tree");
        scalar.lookup_batch(keys, &mut out);
        assert_eq!(out, expect, "lookup_batch on the scalar-built tree");
        let looped: Vec<Option<u64>> = keys.iter().map(|&k| batch.lookup(k)).collect();
        assert_eq!(looped, expect, "scalar lookups on the batch-built tree");
    }

    fn same_contents(batch: &PrefixTree, scalar: &PrefixTree, map: &BTreeMap<u64, u64>) {
        let expect: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(batch.flatten(), expect);
        assert_eq!(scalar.flatten(), expect);
        assert_eq!(batch.len(), map.len());
        // Both trees went through the same occupancies, so they hold the
        // same blocks whichever entry point built them.
        assert_eq!(batch.memory_bytes(), scalar.memory_bytes());
    }

    fn trees(cfg: (u32, u32)) -> (PrefixTree, PrefixTree, BTreeMap<u64, u64>) {
        let cfg = PrefixTreeConfig::new(cfg.0, cfg.1);
        (
            PrefixTree::with_config(cfg, 0),
            PrefixTree::with_config(cfg, 0),
            BTreeMap::new(),
        )
    }

    #[test]
    fn capacity_class_brinks_and_promotion() {
        for cfg in CONFIGS {
            let (mut b, mut s, mut m) = trees(cfg);
            let fanout = b.config().fanout() as u64;
            // One leaf, filled by descending digits: every insert lands at
            // rank 0 and shifts the block; every class brink (3→4→5,
            // 15→16→17, 63→64→65) and the promotion to the direct-indexed
            // block is crossed one key at a time.
            let base = 5 * fanout;
            let all: Vec<u64> = (base..base + fanout).collect();
            for (n, d) in (0..fanout).rev().enumerate() {
                upsert_all(&mut b, &mut s, &mut m, &[(base + d, d * 3)]);
                if [3, 4, 5, 15, 16, 17, 63, 64, 65].contains(&(n + 1)) {
                    lookup_all(&b, &s, &m, &all);
                } else {
                    lookup_all(&b, &s, &m, &[base + d, base + (d + 1) % fanout]);
                }
            }
            lookup_all(&b, &s, &m, &all);
            same_contents(&b, &s, &m);
            // Removals after the promotion: the direct block keeps digits in
            // place, and the last removal gives the block back.
            let full = b.memory_bytes();
            for d in (0..fanout).step_by(3).chain(0..fanout) {
                assert_eq!(b.remove(base + d), m.remove(&(base + d)));
                s.remove(base + d);
                lookup_all(&b, &s, &m, &[base + d, base + (d + 1) % fanout]);
            }
            assert!(b.is_empty());
            assert_eq!(b.memory_bytes(), full - fanout * 8);
            // A ranked leaf filled again to each brink, then shrunk from the
            // middle: values above the removed rank close the gap.
            for n in [3u64, 4, 5, 15, 16, 17, 63, 64, 65] {
                let n = n.min(fanout);
                let pairs: Vec<(u64, u64)> = (0..n).map(|d| (base + d, d + n)).collect();
                upsert_all(&mut b, &mut s, &mut m, &pairs);
                for d in [n / 2, 0, n - 1] {
                    assert_eq!(b.remove(base + d), m.remove(&(base + d)));
                    s.remove(base + d);
                }
                lookup_all(&b, &s, &m, &all);
                same_contents(&b, &s, &m);
            }
        }
    }

    #[test]
    fn root_skip_follows_the_key_bounds() {
        for cfg in CONFIGS {
            let (mut b, mut s, mut m) = trees(cfg);
            let top = if cfg.1 == 64 {
                u64::MAX
            } else {
                (1u64 << cfg.1) - 1
            };
            let mid = top / 2 + 1;
            // Empty tree: nothing is skipped, nothing is found.
            lookup_all(&b, &s, &m, &[0, mid, top]);
            assert_eq!(b.skip_levels, 0);
            // One key: the skip reaches its leaf; keys off the prefix miss.
            upsert_all(&mut b, &mut s, &mut m, &[(mid + 9, 1)]);
            assert_eq!(b.skip_levels, b.config().levels() - 1);
            lookup_all(&b, &s, &m, &[mid + 9, mid + 8, mid - 1, 0, top]);
            // Widen above max within the leaf, then below min and above max
            // across the whole domain, through both entry points.
            upsert_all(&mut b, &mut s, &mut m, &[(mid + 11, 2)]);
            assert_eq!(b.skip_levels, b.config().levels() - 1);
            upsert_all(&mut b, &mut s, &mut m, &[(mid - 1, 3)]);
            lookup_all(&b, &s, &m, &[mid + 9, mid + 11, mid - 1, mid, 0, top]);
            upsert_all(&mut b, &mut s, &mut m, &[(top, 4), (0, 5)]);
            assert_eq!(b.skip_levels, 0);
            assert_eq!(s.skip_levels, 0);
            lookup_all(&b, &s, &m, &[0, 1, mid - 1, mid + 9, mid + 11, top]);
            // Removing min and max never narrows the skip; lookups of the
            // removed keys miss, re-inserting them hits again.
            for k in [0, top] {
                assert_eq!(b.remove(k), m.remove(&k));
                s.remove(k);
            }
            lookup_all(&b, &s, &m, &[0, top, mid - 1, mid + 9]);
            upsert_all(&mut b, &mut s, &mut m, &[(0, 6), (top, 7)]);
            lookup_all(&b, &s, &m, &[0, top, mid - 1, mid + 9]);
            same_contents(&b, &s, &m);
        }
    }

    #[test]
    fn single_level_tree_batches() {
        let (mut b, mut s, mut m) = trees((8, 8));
        let pairs: Vec<(u64, u64)> = (0..256u64).rev().map(|k| (k, k * 2)).collect();
        upsert_all(&mut b, &mut s, &mut m, &pairs[..100]);
        upsert_all(&mut b, &mut s, &mut m, &pairs);
        let all: Vec<u64> = (0..256).collect();
        lookup_all(&b, &s, &m, &all);
        same_contents(&b, &s, &m);
    }

    #[test]
    fn one_key_batches_take_the_scalar_descent() {
        for cfg in CONFIGS {
            let (mut b, mut s, mut m) = trees(cfg);
            // Empty tree, fresh insert, overwrite, a key off the root skip.
            lookup_all(&b, &s, &m, &[9]);
            upsert_all(&mut b, &mut s, &mut m, &[(9, 1)]);
            upsert_all(&mut b, &mut s, &mut m, &[(9, 2)]);
            upsert_all(&mut b, &mut s, &mut m, &[(11, 3)]);
            for key in [9, 10, 11, u64::MAX >> (64 - cfg.1)] {
                lookup_all(&b, &s, &m, &[key]);
            }
            same_contents(&b, &s, &m);
        }
    }

    #[test]
    fn duplicate_keys_in_one_batch_count_once_and_the_last_wins() {
        for cfg in CONFIGS {
            let (mut b, mut s, mut m) = trees(cfg);
            // Duplicates next to each other, across a group boundary, and
            // breaking up an otherwise sorted run into a missing leaf.
            let mut pairs: Vec<(u64, u64)> = (0..70u64).map(|i| (i / 2 * 3, i)).collect();
            pairs.extend([(1000, 1), (1001, 2), (1001, 3), (1002, 4), (1000, 5)]);
            upsert_all(&mut b, &mut s, &mut m, &pairs);
            assert_eq!(b.lookup(1001), Some(3));
            assert_eq!(b.lookup(1000), Some(5));
            upsert_all(&mut b, &mut s, &mut m, &pairs);
            same_contents(&b, &s, &m);
        }
    }

    #[test]
    fn sorted_runs_size_a_leaf_once_and_shuffled_input_matches() {
        for cfg in CONFIGS {
            let (mut b, mut s, mut m) = trees(cfg);
            let fanout = b.config().fanout() as u64;
            // Sorted: runs of every class, a dense leaf, and a run that is
            // longer than the group, into leaves that do not exist yet.
            let mut pairs = Vec::new();
            for (leaf, n) in [
                (1u64, 3),
                (2, 4),
                (3, 5),
                (4, 16),
                (5, 17),
                (6, 65),
                (7, 999),
            ] {
                pairs.extend((0..fanout.min(n)).map(|d| (leaf * fanout + d, leaf ^ d)));
            }
            upsert_all(&mut b, &mut s, &mut m, &pairs);
            same_contents(&b, &s, &m);
            let bytes = b.memory_bytes();
            // The same keys shuffled into fresh trees: same contents, same
            // blocks (shorter and longer than one group).
            let (mut b2, mut s2, mut m2) = trees(cfg);
            let mut shuffled = pairs.clone();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            upsert_all(&mut b2, &mut s2, &mut m2, &shuffled[..GROUP - 1]);
            upsert_all(&mut b2, &mut s2, &mut m2, &shuffled[GROUP - 1..]);
            same_contents(&b2, &s2, &m2);
            assert_eq!(b2.flatten(), b.flatten());
            assert_eq!(b2.memory_bytes(), bytes);
            let keys: Vec<u64> = (0..9 * fanout).collect();
            lookup_all(&b2, &s2, &m2, &keys);
            lookup_all(&b2, &s2, &m2, &keys[..GROUP + 1]);
            lookup_all(&b2, &s2, &m2, &keys[..3]);
            lookup_all(&b2, &s2, &m2, &[]);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "layout arithmetic over 2^16 keys; no unsafe to check")]
    fn bytes_per_key_sparse_and_dense() {
        let n = 1u64 << 16;
        let sparse: Vec<(u64, u64)> = (0..n).map(|r| (r * 64, r)).collect();
        let t = PrefixTree::build_from_sorted(PrefixTreeConfig::new(8, 64), 0, &sparse);
        let per_key = t.memory_bytes() as f64 / n as f64;
        assert!(per_key <= 48.0, "stride-64 keys cost {per_key} B/key");
        // Built key by key, the leaves end in the same blocks.
        let mut scalar = PrefixTree::new();
        for &(k, v) in &sparse {
            scalar.upsert(k, v);
        }
        assert_eq!(scalar.memory_bytes(), t.memory_bytes());
        let dense: Vec<(u64, u64)> = (0..n).map(|r| (r, r)).collect();
        let t = PrefixTree::build_from_sorted(PrefixTreeConfig::new(8, 64), 0, &dense);
        let per_key = t.memory_bytes() as f64 / n as f64;
        assert!(per_key <= 10.0, "dense keys cost {per_key} B/key");
    }

    #[test]
    fn a_shrunk_partition_gives_its_blocks_back() {
        let pairs: Vec<(u64, u64)> = (0..1u64 << 12).map(|r| (r * 16, r)).collect();
        let mut t = PrefixTree::build_from_sorted(PrefixTreeConfig::new(8, 32), 0, &pairs);
        let (loaded, arena) = (t.memory_bytes(), t.values.len());
        let mut upper = Vec::new();
        t.extract_chunk(
            pairs[pairs.len() / 2].0,
            u64::MAX,
            0,
            &mut upper,
            usize::MAX,
        );
        let shrunk = t.memory_bytes();
        assert!(
            shrunk < loaded * 3 / 4,
            "half the keys left, bytes went {loaded} -> {shrunk}"
        );
        assert_eq!(upper.len(), pairs.len() / 2);
        // Moving the keys back recycles the freed blocks.
        t.upsert_batch(&upper);
        assert_eq!(t.len(), pairs.len());
        assert!(t.memory_bytes() <= loaded);
        assert_eq!(t.values.len(), arena, "the arena did not grow");
        assert_eq!(t.flatten(), pairs);
    }

    /// `memory_bytes()` and the `trace_path()` of fixed probe keys of a
    /// default tree built from `pairs` at base address 2^30.
    fn check_layout(pairs: &[(u64, u64)], bytes: u64, traces: [&[u64]; 7]) {
        let probes = [0u64, 64, 4095 * 64, 1000 * 64 + 1, 65535, 12345, 1 << 40];
        let t = PrefixTree::build_from_sorted(PrefixTreeConfig::default(), 1 << 30, pairs);
        assert_eq!(t.memory_bytes(), bytes, "{} keys", pairs.len());
        for (key, want) in probes.into_iter().zip(traces) {
            let mut trace = Vec::new();
            t.trace_path(key, &mut trace);
            assert_eq!(trace, want, "trace of {key} over {} keys", pairs.len());
        }
    }

    /// The arena layout the cost model reads: `memory_bytes()` (cache
    /// residency) and `trace_path()` (the synthetic addresses Figs 10 and
    /// 11 feed the cache simulator) of a 4 Ki-key stride-64 build and a
    /// dense 64 Ki-key build, as contiguous arenas laid them out.
    #[test]
    #[cfg_attr(miri, ignore = "layout arithmetic over 2^16 keys; no unsafe to check")]
    fn the_layout_the_cost_model_reads_is_pinned() {
        let sparse: Vec<(u64, u64)> = (0..1u64 << 12).map(|r| (r * 64, r)).collect();
        check_layout(
            &sparse,
            83_968,
            [
                &[1073746944, 1073747968, 1073752072, 1073752064, 1073793024],
                &[1073746944, 1073747968, 1073752080, 1073752064, 1073793032],
                &[1073746956, 1073752060, 1073793016, 1073792984, 1073825784],
                &[1073746944, 1073748968, 1073762072],
                &[1073746944, 1073748988, 1073762296],
                &[1073746944, 1073748160, 1073753992],
                &[],
            ],
        );
        let dense: Vec<(u64, u64)> = (0..1u64 << 16).map(|r| (r, r)).collect();
        check_layout(
            &dense,
            541_696,
            [
                &[1073747968, 1073749000, 1073748992, 1073759232],
                &[1073747968, 1073749008, 1073748992, 1073759744],
                &[],
                &[1073748968, 1073759000, 1073758992, 1074271240],
                &[1073748988, 1073759224, 1073759192, 1074283512],
                &[1073748160, 1073750920, 1073750912, 1073857992],
                &[],
            ],
        );
        // Built key by key, the sparse tree ends in the same blocks.
        let mut scalar = PrefixTree::with_config(PrefixTreeConfig::default(), 1 << 30);
        for &(k, v) in &sparse {
            scalar.upsert(k, v);
        }
        assert_eq!(scalar.memory_bytes(), 83_968);
    }

    /// Move `[lo, hi)` from `from` to `to` in steps of at most `max` pairs
    /// through one buffer, as the balancer does; returns the steps taken.
    fn transfer(
        from: &mut PrefixTree,
        to: &mut PrefixTree,
        (lo, hi): (u64, u64),
        max: usize,
    ) -> usize {
        let (mut buf, mut at, mut steps) = (Vec::new(), Some(0), 0);
        while let Some(key) = at {
            buf.clear();
            at = from.extract_chunk(lo, hi, key, &mut buf, max);
            assert!(
                buf.len() <= max.max(from.config().fanout()),
                "a step of {}",
                buf.len()
            );
            to.upsert_batch(&buf);
            steps += 1;
        }
        steps
    }

    #[test]
    fn a_streamed_transfer_lands_as_one_batch_would() {
        // Leaves of 1 to 256 keys, so that steps end beside leaves of
        // every block class.
        let pairs: Vec<(u64, u64)> = (0..600u64)
            .flat_map(|leaf| {
                let n = [1, 3, 5, 17, 70, 256][leaf as usize % 6];
                (0..n).map(move |d| ((leaf << 8) | (d * (256 / n)), leaf ^ d))
            })
            .collect();
        let cfg = PrefixTreeConfig::default();
        let (lo, hi) = (pairs[100].0, pairs[pairs.len() - 100].0);
        let mut whole = (
            PrefixTree::build_from_sorted(cfg, 0, &pairs),
            PrefixTree::new(),
        );
        let mut moved = Vec::new();
        whole.0.extract_chunk(lo, hi, 0, &mut moved, usize::MAX);
        whole.1.upsert_batch(&moved);
        for max in [1, 255, 256, 300, 4096, usize::MAX] {
            let mut streamed = (
                PrefixTree::build_from_sorted(cfg, 0, &pairs),
                PrefixTree::new(),
            );
            let steps = transfer(&mut streamed.0, &mut streamed.1, (lo, hi), max);
            assert!(steps > 1 || max > moved.len(), "{max}: one step");
            for (a, b) in [(&whole.0, &streamed.0), (&whole.1, &streamed.1)] {
                assert_eq!(a.flatten(), b.flatten());
                assert_eq!(a.memory_bytes(), b.memory_bytes());
                assert_eq!(
                    (a.inner.len(), a.leaves.len(), a.values.len()),
                    (b.inner.len(), b.leaves.len(), b.values.len())
                );
                for &(k, _) in pairs.iter().step_by(7) {
                    let (mut x, mut y) = (Vec::new(), Vec::new());
                    a.trace_path(k, &mut x);
                    b.trace_path(k, &mut y);
                    assert_eq!(x, y, "{max}: the path of {k}");
                }
            }
        }
    }

    /// Keys that give every arena of a default tree more than two chunks:
    /// 72 Ki keys at stride 256 (a leaf and a 4-slot block each), leaves of
    /// 3 to 256 keys whose blocks of every class cross chunk boundaries,
    /// and 2 300 keys at stride 2^16 far above (a parent node each).
    fn three_chunk_keys() -> Vec<u64> {
        let mut keys: Vec<u64> = (0..72 << 10).map(|r| r << 8).collect();
        for leaf in 0..600u64 {
            let n = [3, 17, 70, 256][leaf as usize % 4];
            keys.extend((0..n).map(|d| (1 << 32) + (leaf << 8) + d * (256 / n)));
        }
        keys.extend((0..2_300).map(|r| (1 << 40) + (r << 16)));
        keys
    }

    #[test]
    #[cfg_attr(miri, ignore = "three 1 MiB chunks of every arena; no unsafe to check")]
    fn a_tree_across_three_chunks_of_every_arena_matches_a_btreemap() {
        let keys = three_chunk_keys();
        let (mut t, mut s, mut m) = trees((8, 64));
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0x5A)).collect();
        upsert_all(&mut t, &mut s, &mut m, &pairs);
        assert!(
            t.inner.chunk_count() >= 3
                && t.leaves.chunk_count() >= 3
                && t.values.chunk_count() >= 3
        );
        assert!(chunks_fit(&t));
        let probe: Vec<u64> = keys.iter().flat_map(|&k| [k, k + 1]).step_by(3).collect();
        lookup_all(&t, &s, &m, &probe);
        // Overwrites and removals across the boundaries: every 5th key,
        // then shifts inside ranked blocks.
        let over: Vec<(u64, u64)> = keys.iter().step_by(5).map(|&k| (k, !k)).collect();
        upsert_all(&mut t, &mut s, &mut m, &over);
        for &k in keys.iter().skip(2).step_by(3) {
            assert_eq!(t.remove(k), m.remove(&k));
            s.remove(k);
        }
        lookup_all(&t, &s, &m, &probe);
        // A range out and back in, a third and nine tenths of the keys:
        // the donor is compacted when its slack is due.
        for cut in [keys.len() / 3, keys.len() * 9 / 10] {
            let hi = keys[cut];
            let mut moved = Vec::new();
            t.extract_chunk(0, hi, 0, &mut moved, usize::MAX);
            let want: Vec<(u64, u64)> = m.range(..hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(moved, want);
            assert!(chunks_fit(&t));
            assert!(!t.compaction_due(), "compacted when due");
            assert_eq!(
                t.flatten(),
                m.range(hi..).map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
            );
            t.upsert_batch(&moved);
            assert!(chunks_fit(&t));
            lookup_all(&t, &s, &m, &probe);
        }
        assert_eq!(
            t.flatten(),
            m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "32 transfers over multi-chunk trees; no unsafe to check"
    )]
    fn two_trees_hand_a_range_back_and_forth_within_the_chunks_they_need() {
        let keys = three_chunk_keys();
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        let cfg = PrefixTreeConfig::default();
        let full = PrefixTree::build_from_sorted(cfg, 0, &pairs);
        let most = |a: &ChunkVec<u64>| a.chunks_needed() + 1;
        let bound = (
            full.inner.chunks_needed() + 1,
            most(&full.leaves),
            most(&full.values),
        );
        let mut a = PrefixTree::build_from_sorted(cfg, 0, &pairs);
        let mut b = PrefixTree::with_config(cfg, 0);
        let range = (keys[keys.len() / 5], keys[keys.len() - 1000]);
        for round in 0..32 {
            let (from, to) = if round % 2 == 0 {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            transfer(from, to, range, 1 << 16);
            for t in [&a, &b] {
                assert!(chunks_fit(t), "round {round}");
                let held = (
                    t.inner.chunk_count(),
                    t.leaves.chunk_count(),
                    t.values.chunk_count(),
                );
                assert!(
                    held.0 <= bound.0 && held.1 <= bound.1 && held.2 <= bound.2,
                    "round {round}: {held:?} > {bound:?}"
                );
            }
            assert_eq!(a.len() + b.len(), pairs.len());
        }
        let mut all = a.flatten();
        all.extend(b.flatten());
        all.sort_unstable();
        assert_eq!(all, pairs);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            #[test]
            fn behaves_like_btreemap(ops in proptest::collection::vec(
                (0u8..4, 0u64..0x10000, 0u64..1000), 1..200))
            {
                let mut t = small();
                let mut m = BTreeMap::new();
                for (op, k, v) in ops {
                    match op {
                        0 | 1 => {
                            prop_assert_eq!(t.upsert(k, v), m.insert(k, v));
                        }
                        2 => {
                            prop_assert_eq!(t.remove(k), m.remove(&k));
                        }
                        _ => {
                            prop_assert_eq!(t.lookup(k), m.get(&k).copied());
                        }
                    }
                    prop_assert_eq!(t.len(), m.len());
                }
                let flat = t.flatten();
                let expect: Vec<(u64, u64)> = m.into_iter().collect();
                prop_assert_eq!(flat, expect);
            }

            #[test]
            fn extract_range_preserves_all_keys(
                keys in proptest::collection::btree_set(0u64..0x10000, 1..100),
                cuts in proptest::collection::vec((0u64..0x10000, 0u64..0x1000), 1..6))
            {
                // Repeated extractions, some of which leave the tree's slack
                // due and rebuild it.
                let mut t = small();
                for &k in &keys {
                    t.upsert(k, k);
                }
                let (mut moved, mut left) = (Vec::new(), keys.clone());
                for (lo, width) in cuts {
                    let hi = (lo + width).min(0x10000);
                    let want: Vec<(u64, u64)> = left.range(lo..hi).map(|&k| (k, k)).collect();
                    left.retain(|k| !(lo..hi).contains(k));
                    prop_assert_eq!(t.count_range(lo, hi), want.len());
                    let before = moved.len();
                    t.extract_chunk(lo, hi, 0, &mut moved, usize::MAX);
                    prop_assert_eq!(&moved[before..], &want[..]);
                    prop_assert!(!t.compaction_due());
                    // The slack is exactly what a rebuild frees.
                    let fresh = PrefixTree::build_from_sorted(t.config(), 0, &t.flatten());
                    prop_assert_eq!(t.kept_bytes(0, 0), held(&fresh));
                }
                for &k in &keys {
                    let gone = moved.contains(&(k, k));
                    prop_assert_eq!(t.lookup(k), (!gone).then_some(k));
                }
                prop_assert_eq!(t.len() + moved.len(), keys.len());
                let mut all: Vec<(u64, u64)> = t.flatten();
                all.extend(&moved);
                all.sort_unstable();
                prop_assert_eq!(all, keys.iter().map(|&k| (k, k)).collect::<Vec<_>>());
            }

            #[test]
            fn scan_matches_filter(keys in proptest::collection::btree_set(0u64..0x10000, 0..100),
                                   lo in 0u64..0x10000, hi in 0u64..0x10000)
            {
                let mut t = small();
                for &k in &keys {
                    t.upsert(k, k ^ 0xFF);
                }
                let got = scanned(&t, lo, hi);
                let expect: Vec<(u64, u64)> = keys.iter()
                    .filter(|&&k| k >= lo && k < hi)
                    .map(|&k| (k, k ^ 0xFF))
                    .collect();
                prop_assert_eq!(got, expect);
            }
        }

        proptest! {
            // Miri interprets the suite in CI: a few cases there, the full
            // count natively.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

            /// The batch family: `upsert_batch` / `lookup_batch` on one
            /// tree, the scalar loop on a second, a `BTreeMap` as the truth.
            /// Keys crowd a few leaves at the bottom, middle and top of the
            /// domain (class brinks, promotions, root-skip moves) with a
            /// tail of arbitrary keys; batches are shorter and longer than
            /// the group, sorted and shuffled, with duplicates.
            #[test]
            fn batch_matches_scalar_matches_btreemap(ops in proptest::collection::vec(
                (0u8..6, proptest::collection::vec((0u8..8, any::<u64>(), 0u64..1000), 0..90)),
                1..24))
            {
                for cfg in CONFIGS {
                    let (mut b, mut s, mut m) = trees(cfg);
                    let top = u64::MAX >> (64 - cfg.1);
                    let fanout = b.config().fanout() as u64;
                    let key_of = |sel: u8, r: u64| match sel {
                        0 => r % (2 * fanout),
                        1 => top - r % (2 * fanout),
                        2..=5 => top / 2 + r % (3 * fanout),
                        _ => r & top,
                    };
                    for (kind, draws) in &ops {
                        let mut pairs: Vec<(u64, u64)> =
                            draws.iter().map(|&(sel, r, v)| (key_of(sel, r), v)).collect();
                        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
                        match kind {
                            0 | 1 => upsert_all(&mut b, &mut s, &mut m, &pairs),
                            2 => {
                                pairs.sort_unstable();
                                upsert_all(&mut b, &mut s, &mut m, &pairs);
                            }
                            3 => {
                                for k in keys.iter().step_by(2) {
                                    prop_assert_eq!(b.remove(*k), m.remove(k));
                                    s.remove(*k);
                                }
                            }
                            _ => {}
                        }
                        lookup_all(&b, &s, &m, &keys);
                    }
                    same_contents(&b, &s, &m);
                }
            }
        }
    }
}
