//! A cache-sensitive B+-tree (Rao & Ross, SIGMOD'00) for range partition
//! tables.
//!
//! The routing layer maps a key to the AEU owning its range.  The paper
//! deploys a CSB+-tree here *"because it works fast for sparsely distributed
//! data and it scales with an increasing number of ranges, respectively
//! AEUs, compared to a simple array"*.
//!
//! The defining CSB+ property — all children of a node stored contiguously
//! so a parent needs no per-child pointers — is realized with a fully
//! implicit static layout: the tree is bulk-built from the sorted boundary
//! array (routing tables change only during load balancing, so rebuild on
//! update is the honest strategy), and the child group of node `j` is the
//! node range `j*(B+1)..` of the level below.  Search within a node is a
//! branch-free count of the keys `<=` the probe over at most
//! [`NODE_KEYS`] keys, which stays inside one or two cache lines.
//!
//! [`FlatRangeMap`] is the "simple array" alternative the paper compares
//! against; both implement the same interface so benches can ablate them.

/// Keys per node (two 64-byte cache lines of u64 keys).
pub const NODE_KEYS: usize = 14;

/// Maps range boundaries to owners: `lookup(k)` returns the value of the
/// greatest boundary `<= k`.
pub struct CsbTree<V> {
    /// Sorted range boundaries; `boundaries[0]` is the domain minimum.
    boundaries: Vec<u64>,
    values: Vec<V>,
    /// Internal levels, root first.  Each level stores its nodes' keys
    /// flattened (`keys`) plus per-node key counts.
    levels: Vec<Level>,
}

struct Level {
    keys: Vec<u64>,
    node_sizes: Vec<u32>,
}

impl<V> CsbTree<V> {
    /// Bulk-build from entries sorted by strictly increasing boundary.
    pub fn build(entries: Vec<(u64, V)>) -> Self {
        assert!(!entries.is_empty(), "a range map needs at least one range");
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "boundaries must be strictly increasing"
        );
        let (boundaries, values): (Vec<u64>, Vec<V>) = entries.into_iter().unzip();

        // Leaf level: nodes of up to NODE_KEYS boundaries each.
        let mut node_mins: Vec<u64> = boundaries.chunks(NODE_KEYS).map(|c| c[0]).collect();
        let mut levels: Vec<Level> = Vec::new();

        // Build internal levels until one node remains.
        while node_mins.len() > 1 {
            let mut keys = Vec::new();
            let mut node_sizes = Vec::new();
            let mut parents = Vec::new();
            for group in node_mins.chunks(NODE_KEYS + 1) {
                // Separators are the mins of children[1..].
                keys.extend_from_slice(&group[1..]);
                node_sizes.push((group.len() - 1) as u32);
                parents.push(group[0]);
            }
            levels.push(Level { keys, node_sizes });
            node_mins = parents;
        }
        levels.reverse(); // root first
        CsbTree {
            boundaries,
            values,
            levels,
        }
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// True when the map holds a single range.
    pub fn is_empty(&self) -> bool {
        false // build() enforces at least one range
    }

    /// The value of the greatest boundary `<= key`.
    ///
    /// # Panics
    /// When `key` is below the first boundary (no owning range).
    #[inline]
    pub fn lookup(&self, key: u64) -> &V {
        // BOUNDS: documented precondition — keys below the domain
        // minimum are a caller bug, checked once at the tree entry;
        // build() guarantees boundaries is non-empty, so boundaries[0]
        // exists.
        assert!(
            key >= self.boundaries[0],
            "key {key} below the domain minimum {}",
            self.boundaries[0]
        );
        // A table of at most NODE_KEYS ranges is one leaf: the lookup is
        // a single in-node count, small enough to inline into a caller's
        // key loop.
        let node = if self.levels.is_empty() {
            0
        } else {
            self.descend(key)
        };
        // Leaf `node` covers boundaries[node*NODE_KEYS ..].
        // BOUNDS: the last level's child index lands inside the leaf
        // array by construction; `hi` is clamped to boundaries.len() and
        // values is parallel to boundaries (idx > 0 is debug-asserted
        // and guaranteed by the entry assert + separator routing).
        let lo = node * NODE_KEYS;
        let hi = (lo + NODE_KEYS).min(self.boundaries.len());
        let idx = count_le(&self.boundaries[lo..hi], key);
        debug_assert!(idx > 0, "internal separators must route above the node min");
        // BOUNDS: idx > 0 (entry assert + separator routing) and
        // lo + idx - 1 < boundaries.len() == values.len().
        &self.values[lo + idx - 1]
    }

    /// The internal levels' descent: the leaf node holding `key`.
    #[inline(never)]
    fn descend(&self, key: u64) -> usize {
        let mut node = 0usize;
        for level in &self.levels {
            // Node j's keys start at sum of preceding node sizes; all nodes
            // except the last are full, so the offset is j * NODE_KEYS when
            // full — track via prefix to stay correct for ragged tails.
            // BOUNDS: `node` is a child index produced by the previous level
            // (at most its separator count + 1), which the bulk build sized
            // this level for; start/size come from the level's own layout,
            // so the key slice stays inside `level.keys`.
            let start = node_key_start(level, node);
            let size = level.node_sizes[node] as usize;
            let keys = &level.keys[start..start + size];
            node = node * (NODE_KEYS + 1) + count_le(keys, key);
        }
        node
    }

    /// Iterate `(boundary, value)` in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.boundaries.iter().copied().zip(self.values.iter())
    }

    /// The boundary starting range `i`.
    pub fn boundary(&self, i: usize) -> u64 {
        self.boundaries[i]
    }
}

/// In-node search: how many of the node's sorted `keys` are `<= key`,
/// which is the index of the child (or range) holding `key`.  A count
/// rather than a scan to the first greater key, so there is no branch on
/// the key to mispredict — random routing keys land anywhere in a node.
#[inline]
fn count_le(keys: &[u64], key: u64) -> usize {
    keys.iter().map(|&k| (k <= key) as usize).sum()
}

#[inline]
fn node_key_start(level: &Level, node: usize) -> usize {
    // All nodes before the last are full (bulk build), so this is exact.
    // BOUNDS: the else branch only runs for the (short) last node,
    // whose recorded size is <= keys.len().
    let full = NODE_KEYS * node;
    if full <= level.keys.len() {
        // May still be ragged if an earlier group was short (only the last
        // group can be short in a bulk build, so `full` is correct).
        full
    } else {
        level.keys.len() - level.node_sizes[node] as usize
    }
}

/// The "simple array" alternative: binary search over sorted boundaries.
pub struct FlatRangeMap<V> {
    boundaries: Vec<u64>,
    values: Vec<V>,
}

impl<V> FlatRangeMap<V> {
    /// Build from entries sorted by strictly increasing boundary.
    pub fn build(entries: Vec<(u64, V)>) -> Self {
        assert!(!entries.is_empty());
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let (boundaries, values) = entries.into_iter().unzip();
        FlatRangeMap { boundaries, values }
    }

    /// The value of the greatest boundary `<= key`.
    pub fn lookup(&self, key: u64) -> &V {
        let idx = self.boundaries.partition_point(|&b| b <= key);
        // BOUNDS: documented precondition, mirrored from CsbTree::lookup;
        // idx > 0 makes `idx - 1` in-bounds for the parallel values array.
        assert!(idx > 0, "key {key} below the domain minimum");
        &self.values[idx - 1]
    }

    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(n: u64, step: u64) -> Vec<(u64, u32)> {
        (0..n).map(|i| (i * step, i as u32)).collect()
    }

    #[test]
    fn single_range_maps_everything() {
        let t = CsbTree::build(vec![(0u64, "all")]);
        assert_eq!(*t.lookup(0), "all");
        assert_eq!(*t.lookup(u64::MAX), "all");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn boundaries_route_exactly() {
        let t = CsbTree::build(vec![(0, 'a'), (10, 'b'), (20, 'c')]);
        assert_eq!(*t.lookup(0), 'a');
        assert_eq!(*t.lookup(9), 'a');
        assert_eq!(*t.lookup(10), 'b');
        assert_eq!(*t.lookup(19), 'b');
        assert_eq!(*t.lookup(20), 'c');
        assert_eq!(*t.lookup(1000), 'c');
    }

    #[test]
    #[should_panic(expected = "below the domain minimum")]
    fn key_below_first_boundary_panics() {
        let t = CsbTree::build(vec![(10u64, ())]);
        t.lookup(9);
    }

    #[test]
    fn multi_level_tree_matches_flat_map() {
        // 10_000 ranges => 3+ levels with NODE_KEYS = 14.
        let entries = ranges(10_000, 37);
        let t = CsbTree::build(entries.clone());
        let f = FlatRangeMap::build(entries);
        for key in (0..370_000u64).step_by(11) {
            assert_eq!(t.lookup(key), f.lookup(key), "key {key}");
        }
        assert_eq!(*t.lookup(u64::MAX), 9_999);
    }

    #[test]
    fn ragged_sizes_route_correctly() {
        // Sizes that leave partially filled nodes at every level.
        for n in [1u64, 2, 13, 14, 15, 29, 196, 197, 225, 3000] {
            let entries = ranges(n, 5);
            let t = CsbTree::build(entries.clone());
            let f = FlatRangeMap::build(entries);
            for key in 0..n * 5 + 10 {
                assert_eq!(t.lookup(key), f.lookup(key), "n={n} key={key}");
            }
        }
    }

    #[test]
    fn iter_returns_build_order() {
        let t = CsbTree::build(ranges(100, 3));
        let collected: Vec<(u64, u32)> = t.iter().map(|(b, v)| (b, *v)).collect();
        assert_eq!(collected, ranges(100, 3));
        assert_eq!(t.boundary(50), 150);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn csb_matches_binary_search(
                bounds in proptest::collection::btree_set(0u64..1_000_000, 1..500),
                probes in proptest::collection::vec(0u64..1_100_000, 1..100))
            {
                let entries: Vec<(u64, usize)> =
                    bounds.iter().copied().enumerate().map(|(i, b)| (b, i)).collect();
                let min = entries[0].0;
                let t = CsbTree::build(entries.clone());
                let f = FlatRangeMap::build(entries);
                for p in probes {
                    if p >= min {
                        prop_assert_eq!(t.lookup(p), f.lookup(p));
                    }
                }
            }
        }
    }
}
