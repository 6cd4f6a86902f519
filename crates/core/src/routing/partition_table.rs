//! Partition tables: who owns which part of a data object.
//!
//! Section 3.2: *"In the clustered case, the routing table stores the
//! attribute range to AEU mapping (range partition table).  If the data
//! object is not partitioned on any attribute, the routing table only saves
//! whether or not an AEU stores a partition of that data object (bitmap
//! partition table)."*  Range tables are CSB+-trees (Section 4).

use crate::command::{AeuId, PointItem};
use eris_index::CsbTree;

/// Routing step 1's answer for one point command, in buffers a router
/// reuses from command to command: the owner of every item in input
/// order and, per owner in order of first appearance, how many items it
/// got.  Filled by [`RangeTable::assign_owners`].
#[derive(Debug, Default)]
pub(crate) struct Owners {
    /// The owner of each item, in input order.
    of_item: Vec<AeuId>,
    /// Owners with items in order of first appearance: the first
    /// `distinct` entries (plus one spare slot the pass writes blindly).
    order: Vec<AeuId>,
    /// Items per owner, parallel to `order`.
    count: Vec<u32>,
    /// Per AEU index: 1 + its position in `order`, 0 when it owns none
    /// of the items.
    rank: Vec<u32>,
    distinct: usize,
}

impl Owners {
    /// The owner of each item, in input order.
    pub fn of_items(&self) -> &[AeuId] {
        &self.of_item
    }

    /// The owners with items, in order of first appearance.
    pub fn order(&self) -> &[AeuId] {
        self.order.get(..self.distinct).unwrap_or(&[])
    }

    /// `(owner, item count)` in order of first appearance.
    pub fn groups(&self) -> impl Iterator<Item = (AeuId, usize)> + '_ {
        let counts = self.count.iter().map(|&n| n as usize);
        self.order().iter().copied().zip(counts)
    }

    /// Forget the last command (zeroing only what it touched) and make
    /// room for `items` items over AEU indexes below `slots`.
    fn prepare(&mut self, slots: usize, items: usize) {
        // BOUNDS: `order` and `count` hold `distinct` + 1 entries or more.
        for (&a, n) in self.order[..self.distinct].iter().zip(&mut self.count) {
            // BOUNDS: every owner in `order` was counted at `rank[a]`,
            // which is sized to the table's slot count and never shrinks.
            self.rank[a.index()] = 0;
            *n = 0;
        }
        self.distinct = 0;
        // ALLOC-OK: the buffers grow to the largest table and command
        // routed so far, not per command.
        if self.rank.len() < slots {
            self.rank.resize(slots, 0);
            self.order.resize(slots + 1, AeuId(0));
            self.count.resize(slots + 1, 0);
        }
        self.of_item.clear();
        self.of_item.reserve(items);
    }
}

/// A point key at or past the end of its object's key domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutOfDomain {
    pub key: u64,
    pub domain: u64,
}

/// What [`RangeTable::split_by_owner`] found for a point command's items.
#[derive(Debug, PartialEq, Eq)]
pub enum OwnerSplit<T> {
    /// One AEU owns every item (always, for one item): the command needs
    /// no splitting and is routed as it is.
    One(AeuId),
    /// The `(owner, items)` groups of items spanning owners, in order of
    /// first appearance; no groups for no items.
    Groups(Vec<(AeuId, Vec<T>)>),
    /// `key` lies outside `[0, domain)`: no AEU's validity range contains
    /// it, so once routed it would be forwarded as a stray forever.
    OutOfDomain { key: u64, domain: u64 },
}

/// Range partition table: sorted range boundaries → owning AEU.
#[derive(Clone)]
pub struct RangeTable {
    csb: CsbTree<AeuId>,
    /// The owner of each range, in key order: a whole-object scan's targets.
    owners: Vec<AeuId>,
    /// Keys live in `[0, domain)`; `u64::MAX` means the whole key space,
    /// its top key included (the last partition is closed at the top).
    domain: u64,
    /// One more than the largest owner index.
    slots: usize,
    /// Bumped on every rebalance; AEUs use it to detect stale commands.
    version: u64,
}

/// One more than the largest owner index of `entries`.
fn slots(entries: &[(u64, AeuId)]) -> usize {
    entries
        .iter()
        .map(|(_, a)| a.index() + 1)
        .max()
        .unwrap_or(0)
}

impl RangeTable {
    /// Evenly partition `[0, domain)` over `owners` (initial partitioning).
    pub fn even(domain: u64, owners: &[AeuId]) -> Self {
        assert!(!owners.is_empty());
        let n = owners.len() as u64;
        let entries: Vec<(u64, AeuId)> = owners
            .iter()
            .enumerate()
            .map(|(i, &a)| (domain / n * i as u64, a))
            .collect();
        RangeTable {
            slots: slots(&entries),
            owners: owners.to_vec(),
            csb: CsbTree::build(entries),
            domain,
            version: 0,
        }
    }

    /// The AEU whose range holds `key`; keys past the domain map to the
    /// last range (scan predicates may name them, point commands may not).
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
        self.slots = slots(&entries);
        self.owners = entries.iter().map(|&(_, a)| a).collect();
        self.csb = CsbTree::build(entries);
        self.version += 1;
    }

    /// Routing step 1 for a point command: the batch owner lookup of its
    /// items (keys or pairs, from a slice or decoded where they lie in an
    /// encoding), into `owners`.  One pass, with no branch on
    /// the data: the owner comes from a counting search of the CSB+ node,
    /// first appearances and per-owner counts are blind writes, and the
    /// domain check is an accumulated flag — resolved after the pass to
    /// the first key at or past the end of `[0, domain)`.
    pub(crate) fn assign_owners<T: PointItem>(
        &self,
        items: impl ExactSizeIterator<Item = T> + Clone,
        owners: &mut Owners,
    ) -> Result<(), OutOfDomain> {
        owners.prepare(self.slots, items.len());
        // Slices and a local count, so the pass keeps them in registers.
        let rank = owners.rank.as_mut_slice();
        let (order, count) = (owners.order.as_mut_slice(), owners.count.as_mut_slice());
        let mut distinct = 0;
        let domain = self.domain;
        // A full domain is closed at the top: there no key is outside.
        let bounded = domain != u64::MAX;
        let mut outside = false;
        // ALLOC-OK: within the capacity `prepare` reserved.
        owners.of_item.extend(items.clone().map(|item| {
            let key = item.key();
            outside |= bounded & (key >= domain);
            let owner = *self.csb.lookup(key);
            // BOUNDS: `prepare` sized `rank` to every owner index of this
            // table and `order`/`count` to one past its distinct owners;
            // `r` is 1 + a position in `order`.
            let r = &mut rank[owner.index()];
            let fresh = (*r == 0) as usize;
            order[distinct] = owner;
            *r += ((distinct + 1) * fresh) as u32;
            distinct += fresh;
            count[*r as usize - 1] += 1;
            owner
        }));
        owners.distinct = distinct;
        if !outside {
            return Ok(());
        }
        let key = items.map(|i| i.key()).find(|&k| k >= domain);
        Err(OutOfDomain {
            key: key.unwrap_or(domain),
            domain,
        })
    }

    /// `RangeTable::assign_owners` materialised: `OwnerSplit::One` when
    /// one AEU owns every item (always, for one item), otherwise the
    /// per-owner groups in order of first appearance.  Allocates; the
    /// router scatters from the pass itself.
    pub fn split_by_owner<T: PointItem>(&self, items: &[T]) -> OwnerSplit<T> {
        let mut owners = Owners::default();
        if let Err(OutOfDomain { key, domain }) =
            self.assign_owners(items.iter().copied(), &mut owners)
        {
            return OwnerSplit::OutOfDomain { key, domain };
        }
        if let [owner] = owners.order() {
            return OwnerSplit::One(*owner);
        }
        let mut groups: Vec<(AeuId, Vec<T>)> = owners
            .groups()
            .map(|(a, n)| (a, Vec::with_capacity(n)))
            .collect();
        for (&item, owner) in items.iter().zip(owners.of_items()) {
            groups[owners.rank[owner.index()] as usize - 1].1.push(item);
        }
        OwnerSplit::Groups(groups)
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
#[derive(Clone)]
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
#[derive(Clone)]
pub enum PartitionTable {
    Range(RangeTable),
    Bitmap(BitmapTable),
}

impl PartitionTable {
    /// The owner set for a whole-object scan, as the table holds it.
    pub fn scan_targets(&self) -> &[AeuId] {
        match self {
            PartitionTable::Range(r) => &r.owners,
            PartitionTable::Bitmap(b) => b.members(),
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
            "keys beyond domain map to the last range"
        );
        assert_eq!(t.range_of(1, 1000), (250, 500));
        assert_eq!(t.range_of(3, 1000), (750, 1000));
    }

    #[test]
    fn split_by_owner_groups_keys() {
        let t = RangeTable::even(100, &aeus(2));
        assert_eq!(
            t.split_by_owner(&[1u64, 60, 2, 70, 3]),
            OwnerSplit::Groups(vec![(AeuId(0), vec![1, 2, 3]), (AeuId(1), vec![60, 70])])
        );
        // A shared-owner prefix moves into its group in one piece.
        assert_eq!(
            t.split_by_owner(&[(60u64, 6u64), (70, 7), (1, 8), (61, 9)]),
            OwnerSplit::Groups(vec![
                (AeuId(1), vec![(60, 6), (70, 7), (61, 9)]),
                (AeuId(0), vec![(1, 8)])
            ])
        );
    }

    #[test]
    fn single_owner_is_some_exactly_when_the_split_has_one_group() {
        let t = RangeTable::even(100, &aeus(2));
        assert_eq!(t.split_by_owner(&[60u64]), OwnerSplit::One(AeuId(1)));
        assert_eq!(t.split_by_owner(&[1u64, 49, 2]), OwnerSplit::One(AeuId(0)));
        assert_eq!(
            t.split_by_owner(&[(99u64, 0u64), (50, 1)]),
            OwnerSplit::One(AeuId(1))
        );
        assert!(matches!(t.split_by_owner(&[1u64, 60, 2]), OwnerSplit::Groups(g) if g.len() == 2));
        assert_eq!(
            t.split_by_owner::<u64>(&[]),
            OwnerSplit::Groups(vec![]),
            "no keys, no sub-command"
        );
    }

    #[test]
    fn keys_outside_the_domain_have_no_point_owner() {
        let t = RangeTable::even(100, &aeus(2));
        assert_eq!(t.split_by_owner(&[50u64, 99]), OwnerSplit::One(AeuId(1)));
        assert_eq!(
            t.split_by_owner(&[1u64, 100, 2]),
            OwnerSplit::OutOfDomain {
                key: 100,
                domain: 100
            }
        );
        assert_eq!(
            t.split_by_owner(&[(60u64, 0u64), (1, 0), (u64::MAX, 0)]),
            OwnerSplit::OutOfDomain {
                key: u64::MAX,
                domain: 100
            }
        );
        // A full domain is closed at the top: u64::MAX is a key like any.
        let full = RangeTable::even(u64::MAX, &aeus(2));
        assert_eq!(full.split_by_owner(&[u64::MAX]), OwnerSplit::One(AeuId(1)));
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
