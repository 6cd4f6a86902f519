//! Partition tables: who owns which part of a data object.
//!
//! Section 3.2: *"In the clustered case, the routing table stores the
//! attribute range to AEU mapping (range partition table).  If the data
//! object is not partitioned on any attribute, the routing table only saves
//! whether or not an AEU stores a partition of that data object (bitmap
//! partition table)."*  Range tables are CSB+-trees (Section 4).

use crate::command::AeuId;
use eris_index::CsbTree;

/// Range partition table: sorted range boundaries → owning AEU.
pub struct RangeTable {
    csb: CsbTree<AeuId>,
    /// Bumped on every rebalance; AEUs use it to detect stale commands.
    version: u64,
}

impl RangeTable {
    /// Build from `(boundary, owner)` entries with strictly increasing
    /// boundaries; the first boundary is the domain minimum.
    pub fn new(entries: Vec<(u64, AeuId)>, version: u64) -> Self {
        RangeTable {
            csb: CsbTree::build(entries),
            version,
        }
    }

    /// Evenly partition `[0, domain)` over `owners` (initial partitioning).
    pub fn even(domain: u64, owners: &[AeuId]) -> Self {
        assert!(!owners.is_empty());
        let n = owners.len() as u64;
        let entries = owners
            .iter()
            .enumerate()
            .map(|(i, &a)| (domain / n * i as u64, a))
            .collect();
        Self::new(entries, 0)
    }

    /// The AEU owning `key`.
    #[inline]
    pub fn owner(&self, key: u64) -> AeuId {
        *self.csb.lookup(key)
    }

    /// Current `(boundary, owner)` pairs in key order.
    pub fn ranges(&self) -> Vec<(u64, AeuId)> {
        // ALLOC-OK: materializes the boundary list (bounded by the
        // partition count, typically tens of entries).
        self.csb.iter().map(|(b, a)| (b, *a)).collect()
    }

    /// The half-open range owned by partition index `i`, given the domain
    /// end `domain` for the last partition.
    pub fn range_of(&self, i: usize, domain: u64) -> (u64, u64) {
        let ranges = self.ranges();
        let lo = ranges[i].0;
        let hi = if i + 1 < ranges.len() {
            ranges[i + 1].0
        } else {
            domain
        };
        (lo, hi)
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.csb.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Table version (bumped per rebalance).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Replace the partitioning (load balancer only).
    pub fn rebuild(&mut self, entries: Vec<(u64, AeuId)>) {
        self.csb = CsbTree::build(entries);
        self.version += 1;
    }

    /// The AEU that owns every one of `keys`, if one does (always, for one
    /// key): such a command needs no splitting and is routed as it is.
    /// `None` for keys spanning owners, and for no keys at all.
    pub fn single_owner<K: IntoIterator<Item = u64>>(&self, keys: K) -> Option<AeuId> {
        let mut keys = keys.into_iter();
        let owner = self.owner(keys.next()?);
        keys.all(|k| self.owner(k) == owner).then_some(owner)
    }

    /// Group `keys` by owner: returns `(owner, keys)` groups — the batch
    /// lookup + command splitting of routing step 1.
    pub fn split_by_owner(&self, keys: &[u64]) -> Vec<(AeuId, Vec<u64>)> {
        let mut groups: Vec<(AeuId, Vec<u64>)> = Vec::new();
        for &k in keys {
            let owner = self.owner(k);
            // ALLOC-OK: the split groups own their key vectors by design —
            // each becomes the payload of a per-owner sub-command.
            // ALLOC-OK: group count is bounded by the owner count.
            match groups.iter_mut().find(|(a, _)| *a == owner) {
                Some((_, v)) => v.push(k),
                None => groups.push((owner, vec![k])),
            }
        }
        groups
    }

    /// Group `(key, value)` pairs by owner.
    pub fn split_pairs_by_owner(&self, pairs: &[(u64, u64)]) -> Vec<(AeuId, Vec<(u64, u64)>)> {
        let mut groups: Vec<(AeuId, Vec<(u64, u64)>)> = Vec::new();
        for &(k, v) in pairs {
            let owner = self.owner(k);
            // ALLOC-OK: the split groups own their pair vectors by design —
            // each becomes the payload of a per-owner sub-command.
            // ALLOC-OK: group count is bounded by the owner count.
            match groups.iter_mut().find(|(a, _)| *a == owner) {
                Some((_, g)) => g.push((k, v)),
                None => groups.push((owner, vec![(k, v)])),
            }
        }
        groups
    }

    /// Owners whose range intersects `[lo, hi)` — except that
    /// `hi == u64::MAX` means unbounded-above (matching
    /// [`eris_column::Predicate::Range`]'s sentinel), so a query for
    /// `[u64::MAX, u64::MAX)` still reaches the last partition instead
    /// of silently targeting nobody: the last partition is closed at the
    /// top of the domain, there is no key beyond it.
    pub fn owners_in_range(&self, lo: u64, hi: u64) -> Vec<AeuId> {
        let ranges = self.ranges();
        let unbounded = hi == u64::MAX;
        let mut out = Vec::new();
        for (i, &(b, a)) in ranges.iter().enumerate() {
            let below_hi = unbounded || b < hi;
            let above_lo = match ranges.get(i + 1) {
                Some(r) => r.0 > lo,
                // The last partition owns everything from its boundary
                // up, u64::MAX included.
                None => true,
            };
            if below_hi && above_lo {
                // ALLOC-OK: owner list bounded by the partition count.
                out.push(a);
            }
        }
        out
    }
}

/// Bitmap partition table: the set of AEUs holding a partition.
pub struct BitmapTable {
    members: Vec<AeuId>,
    version: u64,
}

impl BitmapTable {
    pub fn new(members: Vec<AeuId>) -> Self {
        assert!(!members.is_empty());
        BitmapTable {
            members,
            version: 0,
        }
    }

    /// All AEUs storing a partition of the object (multicast target set).
    pub fn members(&self) -> &[AeuId] {
        &self.members
    }

    pub fn contains(&self, aeu: AeuId) -> bool {
        self.members.contains(&aeu)
    }

    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn set_members(&mut self, members: Vec<AeuId>) {
        assert!(!members.is_empty());
        self.members = members;
        self.version += 1;
    }
}

/// A data object's partition table.
pub enum PartitionTable {
    Range(RangeTable),
    Bitmap(BitmapTable),
}

impl PartitionTable {
    /// The owner set for a whole-object scan.
    pub fn scan_targets(&self) -> Vec<AeuId> {
        match self {
            // ALLOC-OK: scan-target lists are bounded by the owner count and
            // become the multicast target set.
            PartitionTable::Range(r) => r.ranges().iter().map(|(_, a)| *a).collect(),
            // ALLOC-OK: same — a copy of the (small) member set.
            PartitionTable::Bitmap(b) => b.members().to_vec(),
        }
    }

    /// The range table, when range partitioned.
    pub fn as_range(&self) -> Option<&RangeTable> {
        match self {
            PartitionTable::Range(r) => Some(r),
            PartitionTable::Bitmap(_) => None,
        }
    }

    pub fn as_range_mut(&mut self) -> Option<&mut RangeTable> {
        match self {
            PartitionTable::Range(r) => Some(r),
            PartitionTable::Bitmap(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aeus(n: u32) -> Vec<AeuId> {
        (0..n).map(AeuId).collect()
    }

    #[test]
    fn even_partitioning_covers_domain() {
        let t = RangeTable::even(1000, &aeus(4));
        assert_eq!(t.len(), 4);
        assert_eq!(t.owner(0), AeuId(0));
        assert_eq!(t.owner(249), AeuId(0));
        assert_eq!(t.owner(250), AeuId(1));
        assert_eq!(t.owner(999), AeuId(3));
        assert_eq!(
            t.owner(u64::MAX),
            AeuId(3),
            "keys beyond domain go to the last"
        );
        assert_eq!(t.range_of(1, 1000), (250, 500));
        assert_eq!(t.range_of(3, 1000), (750, 1000));
    }

    #[test]
    fn split_by_owner_groups_keys() {
        let t = RangeTable::even(100, &aeus(2));
        let groups = t.split_by_owner(&[1, 60, 2, 70, 3]);
        assert_eq!(groups.len(), 2);
        let g0 = groups.iter().find(|(a, _)| *a == AeuId(0)).unwrap();
        let g1 = groups.iter().find(|(a, _)| *a == AeuId(1)).unwrap();
        assert_eq!(g0.1, vec![1, 2, 3]);
        assert_eq!(g1.1, vec![60, 70]);
    }

    #[test]
    fn single_owner_is_some_exactly_when_the_split_has_one_group() {
        let t = RangeTable::even(100, &aeus(2));
        assert_eq!(t.single_owner([60]), Some(AeuId(1)));
        assert_eq!(t.single_owner([1, 49, 2]), Some(AeuId(0)));
        assert_eq!(t.single_owner([u64::MAX, 50]), Some(AeuId(1)));
        assert_eq!(t.single_owner([1, 60, 2]), None);
        assert_eq!(t.single_owner([]), None, "no keys, no sub-command");
    }

    #[test]
    fn owners_in_range_finds_overlaps() {
        let t = RangeTable::even(100, &aeus(4));
        assert_eq!(t.owners_in_range(0, 100), aeus(4));
        assert_eq!(t.owners_in_range(30, 60), vec![AeuId(1), AeuId(2)]);
        assert_eq!(t.owners_in_range(25, 26), vec![AeuId(1)]);
        assert_eq!(t.owners_in_range(90, u64::MAX), vec![AeuId(3)]);
    }

    #[test]
    fn owners_in_range_reaches_the_top_of_the_domain() {
        let t = RangeTable::even(100, &aeus(4));
        // The top key always has an owner, however the range is phrased.
        assert_eq!(t.owners_in_range(u64::MAX, u64::MAX), vec![AeuId(3)]);
        assert_eq!(t.owners_in_range(99, u64::MAX), vec![AeuId(3)]);
        // A full-domain table (domain == u64::MAX) behaves the same at
        // its top boundary.
        let full = RangeTable::even(u64::MAX, &aeus(2));
        assert_eq!(full.owner(u64::MAX), AeuId(1));
        assert_eq!(full.owners_in_range(u64::MAX, u64::MAX), vec![AeuId(1)]);
        assert_eq!(full.owners_in_range(0, u64::MAX), aeus(2));
        // Bounded queries are unchanged by the sentinel handling.
        assert_eq!(t.owners_in_range(0, 25), vec![AeuId(0)]);
        assert_eq!(t.owners_in_range(25, 25), Vec::<AeuId>::new());
    }

    #[test]
    fn rebuild_bumps_version() {
        let mut t = RangeTable::even(100, &aeus(2));
        assert_eq!(t.version(), 0);
        t.rebuild(vec![(0, AeuId(1)), (10, AeuId(0))]);
        assert_eq!(t.version(), 1);
        assert_eq!(t.owner(5), AeuId(1));
        assert_eq!(t.owner(15), AeuId(0));
    }

    #[test]
    fn bitmap_table_members() {
        let mut b = BitmapTable::new(aeus(3));
        assert!(b.contains(AeuId(2)));
        assert!(!b.contains(AeuId(5)));
        b.set_members(vec![AeuId(5)]);
        assert!(b.contains(AeuId(5)));
        assert_eq!(b.version(), 1);
    }

    #[test]
    fn scan_targets_for_both_kinds() {
        let r = PartitionTable::Range(RangeTable::even(100, &aeus(3)));
        assert_eq!(r.scan_targets(), aeus(3));
        let b = PartitionTable::Bitmap(BitmapTable::new(aeus(2)));
        assert_eq!(b.scan_targets(), aeus(2));
    }
}
