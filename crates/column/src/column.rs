//! Segmented columns with node-homed segments and snapshot visibility.

use eris_numa::NodeId;

/// Default values per segment (512 KiB of u64s).
pub const DEFAULT_SEGMENT_CAPACITY: usize = 64 * 1024;

/// Error returned when a column has no segment space left; the caller
/// (the AEU that owns the column) provisions a segment on its node and
/// retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnFull;

impl std::fmt::Display for ColumnFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "column has no free segment capacity")
    }
}

impl std::error::Error for ColumnFull {}

/// A fixed-capacity run of values homed on one NUMA node.
pub struct Segment {
    home: NodeId,
    data: Vec<u64>,
    capacity: usize,
}

impl Segment {
    pub fn with_capacity(home: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0);
        Segment {
            home,
            data: Vec::with_capacity(capacity),
            capacity,
        }
    }

    #[inline]
    pub fn home(&self) -> NodeId {
        self.home
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.data.len() == self.capacity
    }

    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.data
    }

    /// Bytes of stored values.
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.data.len() * 8) as u64
    }
}

/// A scan predicate.  Analytical scans in the paper are filters over a
/// column; these three forms cover the evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// Every row matches.
    All,
    /// `lo <= v < hi` — except that `hi == u64::MAX` is the unbounded-above
    /// sentinel and *includes* `u64::MAX` itself.  A plain half-open bound
    /// cannot express "everything from `lo` up", so the top key of the
    /// domain would be silently unreachable without the sentinel.
    Range { lo: u64, hi: u64 },
    /// `v == x`.
    Equals(u64),
}

impl Predicate {
    #[inline]
    pub fn matches(&self, v: u64) -> bool {
        match *self {
            Predicate::All => true,
            Predicate::Range { lo, hi } => v >= lo && (v < hi || hi == u64::MAX),
            Predicate::Equals(x) => v == x,
        }
    }

    /// The inclusive `[lo, hi]` value interval this predicate admits, or
    /// `None` when it can match nothing.  Exact for every variant — in
    /// particular `Equals(x)` becomes `[x, x]` with no `x + 1` overflow,
    /// and the `hi == u64::MAX` sentinel becomes `[lo, u64::MAX]` — so
    /// callers that walk an index by bounds visit exactly the matching
    /// keys and need no per-key re-check.
    #[inline]
    pub fn bounds_inclusive(&self) -> Option<(u64, u64)> {
        match *self {
            Predicate::All => Some((0, u64::MAX)),
            Predicate::Range { lo, hi } => {
                if hi == u64::MAX {
                    Some((lo, u64::MAX))
                } else if lo >= hi {
                    None
                } else {
                    Some((lo, hi - 1))
                }
            }
            Predicate::Equals(x) => Some((x, x)),
        }
    }
}

/// An append-only column assembled from node-homed segments.
pub struct Column {
    segments: Vec<Segment>,
    len: usize,
}

impl Column {
    /// An empty column; segments are provisioned by the owner.
    pub fn new() -> Self {
        Column {
            segments: Vec::new(),
            len: 0,
        }
    }

    /// Convenience constructor: a column that self-provisions segments of
    /// `capacity` values homed on `home`.  Used by tests and single-node
    /// tools; the engine's AEUs provision their own.  Segments carry no
    /// address, so `_base_vaddr` is accepted and ignored.
    pub fn new_local(home: NodeId, _base_vaddr: u64, capacity: usize) -> LocalColumn {
        LocalColumn {
            column: Column::new(),
            home,
            capacity,
        }
    }

    /// Add a fresh segment (provisioned by the column's owner).
    pub fn push_segment(&mut self, seg: Segment) {
        assert!(seg.is_empty(), "provisioned segments start empty");
        self.segments.push(seg);
    }

    /// Total rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total value bytes.
    pub fn bytes(&self) -> u64 {
        (self.len * 8) as u64
    }

    /// The segments, for per-segment traffic accounting.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Remaining capacity of the open (last) segment.
    pub fn free_capacity(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |s| s.capacity - s.data.len())
    }

    /// Append one value into the open segment.
    pub fn append(&mut self, v: u64) -> Result<(), ColumnFull> {
        match self.segments.last_mut() {
            Some(seg) if !seg.is_full() => {
                seg.data.push(v);
                self.len += 1;
                Ok(())
            }
            _ => Err(ColumnFull),
        }
    }

    /// Append as many of `values` as fit; returns how many were written.
    pub fn append_slice(&mut self, values: &[u64]) -> usize {
        let mut written = 0;
        while written < values.len() {
            let Some(seg) = self.segments.last_mut() else {
                break;
            };
            let room = seg.capacity - seg.data.len();
            if room == 0 {
                break;
            }
            let take = room.min(values.len() - written);
            // BOUNDS: take = min(room, len - written), so the slice stays in
            // `values`.  ALLOC-OK: room > 0 was just checked, so this extend
            // fills pre-provisioned segment capacity without reallocating.
            seg.data.extend_from_slice(&values[written..written + take]);
            written += take;
        }
        self.len += written;
        written
    }

    /// Read row `i` (0-based across segments).
    pub fn get(&self, mut i: usize) -> Option<u64> {
        if i >= self.len {
            return None;
        }
        for seg in &self.segments {
            if i < seg.data.len() {
                // BOUNDS: guarded by `i < seg.data.len()` on the previous line.
                return Some(seg.data[i]);
            }
            i -= seg.data.len();
        }
        None
    }

    /// Scan the first `snapshot` rows, calling `f(row_id, value)` for every
    /// match.  Returns rows examined (for virtual-time accounting).
    pub fn scan(&self, pred: Predicate, snapshot: usize, mut f: impl FnMut(usize, u64)) -> usize {
        let limit = snapshot.min(self.len);
        let mut row = 0usize;
        for seg in &self.segments {
            if row >= limit {
                break;
            }
            let take = (limit - row).min(seg.data.len());
            for (i, &v) in seg.data[..take].iter().enumerate() {
                if pred.matches(v) {
                    f(row + i, v);
                }
            }
            row += take;
        }
        limit
    }

    /// Visit the first `snapshot` rows as contiguous chunks of at most
    /// [`crate::kernel::CHUNK_ROWS`] values, calling `f(row_base, values)`
    /// per chunk.  Chunks never straddle a segment boundary, so each slice
    /// is one contiguous run of memory a kernel can stream through.
    /// Returns rows examined (for virtual-time accounting).
    pub fn for_each_chunk(&self, snapshot: usize, mut f: impl FnMut(usize, &[u64])) -> usize {
        let limit = snapshot.min(self.len);
        let mut row = 0usize;
        for seg in &self.segments {
            if row >= limit {
                break;
            }
            let take = (limit - row).min(seg.data.len());
            let mut off = 0usize;
            while off < take {
                let end = (off + crate::kernel::CHUNK_ROWS).min(take);
                // BOUNDS: off < end <= take <= seg.data.len().
                f(row + off, &seg.data[off..end]);
                off = end;
            }
            row += take;
        }
        limit
    }

    /// Scan rows `[start, end)` (parallel workers splitting one shared
    /// scan), calling `f(row_id, value)` for matches.  Returns rows
    /// examined.
    pub fn scan_rows(
        &self,
        start: usize,
        end: usize,
        pred: Predicate,
        mut f: impl FnMut(usize, u64),
    ) -> usize {
        let end = end.min(self.len);
        if start >= end {
            return 0;
        }
        let mut row = 0usize;
        let mut examined = 0usize;
        for seg in &self.segments {
            let seg_end = row + seg.data.len();
            if seg_end > start && row < end {
                let lo = start.max(row) - row;
                let hi = end.min(seg_end) - row;
                for (i, &v) in seg.data[lo..hi].iter().enumerate() {
                    if pred.matches(v) {
                        f(row + lo + i, v);
                    }
                }
                examined += hi - lo;
            }
            row = seg_end;
            if row >= end {
                break;
            }
        }
        examined
    }

    /// How many of the rows in `[start, end)` live on each node — the
    /// per-home traffic of a partial scan.
    pub fn rows_per_node(&self, start: usize, end: usize) -> Vec<(eris_numa::NodeId, u64)> {
        let end = end.min(self.len);
        let mut out: Vec<(eris_numa::NodeId, u64)> = Vec::new();
        let mut row = 0usize;
        for seg in &self.segments {
            let seg_end = row + seg.data.len();
            if seg_end > start && row < end {
                let rows = (end.min(seg_end) - start.max(row)) as u64;
                match out.iter_mut().find(|(n, _)| *n == seg.home()) {
                    Some((_, r)) => *r += rows,
                    None => out.push((seg.home(), rows)),
                }
            }
            row = seg_end;
            if row >= end {
                break;
            }
        }
        out
    }

    /// Count rows matching `pred` within the snapshot (chunked kernel).
    pub fn count(&self, pred: Predicate, snapshot: usize) -> u64 {
        let p = crate::kernel::CompiledPredicate::compile(pred);
        let mut n = 0u64;
        self.for_each_chunk(snapshot, |_, chunk| n += crate::kernel::count(chunk, p));
        n
    }

    /// Sum of matching values within the snapshot (chunked kernel).
    pub fn sum(&self, pred: Predicate, snapshot: usize) -> u64 {
        let p = crate::kernel::CompiledPredicate::compile(pred);
        let mut s = 0u64;
        self.for_each_chunk(snapshot, |_, chunk| {
            s = s.wrapping_add(crate::kernel::sum(chunk, p));
        });
        s
    }

    /// Remove and return the last `n` rows — the shrink side of a
    /// physical-size balancing command ("the balancing command includes the
    /// number of tuples that have to be ... handed over to another AEU").
    pub fn drain_tail(&mut self, n: usize) -> Vec<u64> {
        let n = n.min(self.len);
        let mut out = Vec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let seg = self.segments.last_mut().expect("len accounting");
            let take = remaining.min(seg.data.len());
            let at = seg.data.len() - take;
            let mut tail = seg.data.split_off(at);
            tail.append(&mut out);
            out = tail;
            remaining -= take;
            let emptied = seg.data.is_empty();
            if emptied && self.segments.len() > 1 {
                self.segments.pop();
            } else if emptied && remaining > 0 {
                unreachable!("drain_tail({n}) exceeds accounted length");
            }
        }
        self.len -= n;
        out
    }
}

impl Default for Column {
    fn default() -> Self {
        Self::new()
    }
}

/// A self-provisioning column for single-owner use (tests, examples).
pub struct LocalColumn {
    column: Column,
    home: NodeId,
    capacity: usize,
}

impl LocalColumn {
    /// Append, provisioning a fresh local segment when full.
    pub fn append(&mut self, v: u64) {
        if self.column.append(v) == Err(ColumnFull) {
            self.column
                .push_segment(Segment::with_capacity(self.home, self.capacity));
            self.column.append(v).expect("fresh segment has room");
        }
    }

    /// Append many values.
    // HOT-PATH-CUT: self-provisioning column of tests and tools, never
    // on the engine's paths — reached only by name from `Vec::extend`.
    pub fn extend(&mut self, values: impl IntoIterator<Item = u64>) {
        for v in values {
            self.append(v);
        }
    }

    /// The underlying column.
    pub fn column(&self) -> &Column {
        &self.column
    }

    /// Mutable access to the underlying column.
    pub fn column_mut(&mut self) -> &mut Column {
        &mut self.column
    }

    /// Unwrap into the plain column.
    pub fn into_column(self) -> Column {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> LocalColumn {
        let mut c = Column::new_local(NodeId(0), 0, 16);
        c.extend(0..n);
        c
    }

    #[test]
    fn append_without_segment_fails() {
        let mut c = Column::new();
        assert_eq!(c.append(1), Err(ColumnFull));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn append_spans_segments() {
        let c = filled(40);
        assert_eq!(c.column().len(), 40);
        assert_eq!(c.column().segments().len(), 3, "16-value segments");
        assert_eq!(c.column().get(0), Some(0));
        assert_eq!(c.column().get(17), Some(17));
        assert_eq!(c.column().get(39), Some(39));
        assert_eq!(c.column().get(40), None);
    }

    #[test]
    fn scan_respects_snapshot() {
        let c = filled(40);
        let mut seen = Vec::new();
        let examined = c.column().scan(Predicate::All, 20, |_, v| seen.push(v));
        assert_eq!(examined, 20);
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
        // Snapshot beyond len clamps.
        assert_eq!(c.column().scan(Predicate::All, 100, |_, _| {}), 40);
    }

    #[test]
    fn predicates_filter() {
        let c = filled(100);
        assert_eq!(
            c.column().count(Predicate::Range { lo: 10, hi: 20 }, 100),
            10
        );
        assert_eq!(c.column().count(Predicate::Equals(55), 100), 1);
        assert_eq!(
            c.column().count(Predicate::Equals(55), 50),
            0,
            "snapshot hides it"
        );
        assert_eq!(
            c.column().sum(Predicate::Range { lo: 0, hi: 4 }, 100),
            1 + 2 + 3
        );
    }

    #[test]
    fn max_key_is_reachable_through_every_predicate_form() {
        let mut c = Column::new_local(NodeId(0), 0, 16);
        c.extend([1, u64::MAX, 7, u64::MAX - 1]);
        let c = c.column();
        // The unbounded-above sentinel includes u64::MAX...
        let unbounded = Predicate::Range {
            lo: 5,
            hi: u64::MAX,
        };
        assert_eq!(c.count(unbounded, 4), 3);
        assert!(unbounded.matches(u64::MAX));
        // ...while a genuinely half-open range still excludes its hi.
        let half_open = Predicate::Range {
            lo: 5,
            hi: u64::MAX - 1,
        };
        assert_eq!(c.count(half_open, 4), 1, "only the 7");
        assert_eq!(c.count(Predicate::Equals(u64::MAX), 4), 1);
        let mut got = Vec::new();
        c.scan(unbounded, 4, |_, v| got.push(v));
        assert_eq!(got, vec![u64::MAX, 7, u64::MAX - 1]);
    }

    #[test]
    fn bounds_inclusive_is_exact() {
        assert_eq!(Predicate::All.bounds_inclusive(), Some((0, u64::MAX)));
        assert_eq!(
            Predicate::Range { lo: 3, hi: 9 }.bounds_inclusive(),
            Some((3, 8))
        );
        assert_eq!(Predicate::Range { lo: 3, hi: 3 }.bounds_inclusive(), None);
        assert_eq!(Predicate::Range { lo: 9, hi: 3 }.bounds_inclusive(), None);
        assert_eq!(
            Predicate::Range {
                lo: 3,
                hi: u64::MAX
            }
            .bounds_inclusive(),
            Some((3, u64::MAX))
        );
        assert_eq!(
            Predicate::Equals(u64::MAX).bounds_inclusive(),
            Some((u64::MAX, u64::MAX))
        );
    }

    #[test]
    fn chunks_respect_snapshot_and_segment_boundaries() {
        let c = filled(40); // 16-value segments
        let mut bases = Vec::new();
        let mut total = 0usize;
        let examined = c.column().for_each_chunk(35, |base, chunk| {
            bases.push(base);
            total += chunk.len();
        });
        assert_eq!(examined, 35);
        assert_eq!(total, 35);
        assert_eq!(bases, vec![0, 16, 32], "one chunk per partial segment");
    }

    #[test]
    fn scan_reports_row_ids() {
        let c = filled(50);
        let mut rows = Vec::new();
        c.column()
            .scan(Predicate::Equals(33), 50, |row, v| rows.push((row, v)));
        assert_eq!(rows, vec![(33, 33)]);
    }

    #[test]
    fn scan_rows_covers_exact_window() {
        let c = filled(50);
        let mut seen = Vec::new();
        let examined = c
            .column()
            .scan_rows(10, 35, Predicate::All, |_, v| seen.push(v));
        assert_eq!(examined, 25);
        assert_eq!(seen, (10..35).collect::<Vec<u64>>());
        assert_eq!(c.column().scan_rows(40, 40, Predicate::All, |_, _| {}), 0);
        assert_eq!(c.column().scan_rows(45, 100, Predicate::All, |_, _| {}), 5);
    }

    #[test]
    fn rows_per_node_tracks_segment_homes() {
        let mut c = Column::new();
        c.push_segment(Segment::with_capacity(NodeId(0), 4));
        c.append_slice(&[1, 2, 3, 4]);
        c.push_segment(Segment::with_capacity(NodeId(1), 4));
        c.append_slice(&[5, 6, 7, 8]);
        let per = c.rows_per_node(2, 7);
        assert_eq!(per, vec![(NodeId(0), 2), (NodeId(1), 3)]);
        assert_eq!(c.rows_per_node(0, 8).iter().map(|(_, r)| r).sum::<u64>(), 8);
    }

    #[test]
    fn append_slice_fills_open_segment_only() {
        let mut c = Column::new();
        c.push_segment(Segment::with_capacity(NodeId(1), 8));
        let values: Vec<u64> = (0..20).collect();
        assert_eq!(c.append_slice(&values), 8);
        assert_eq!(c.len(), 8);
        c.push_segment(Segment::with_capacity(NodeId(1), 8));
        assert_eq!(c.append_slice(&values[8..]), 8);
        assert_eq!(c.len(), 16);
    }

    #[test]
    fn drain_tail_removes_exactly_n_in_order() {
        let mut c = filled(40).into_column();
        let tail = c.drain_tail(20);
        assert_eq!(tail, (20..40).collect::<Vec<u64>>());
        assert_eq!(c.len(), 20);
        assert_eq!(c.get(19), Some(19));
        assert_eq!(c.get(20), None);
        // Draining more than remains clamps.
        let rest = c.drain_tail(100);
        assert_eq!(rest.len(), 20);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn drain_tail_drops_emptied_segments() {
        let mut c = filled(40).into_column();
        c.drain_tail(33);
        assert_eq!(c.segments().len(), 1);
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn segment_homes_and_bytes() {
        let mut c = Column::new();
        c.push_segment(Segment::with_capacity(NodeId(3), 4));
        c.append(7).unwrap();
        let seg = &c.segments()[0];
        assert_eq!(seg.home(), NodeId(3));
        assert_eq!(seg.bytes(), 8);
        assert_eq!(c.bytes(), 8);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn scan_equals_vec_filter(values in proptest::collection::vec(0u64..1000, 0..300),
                                      lo in 0u64..1000, hi in 0u64..1000,
                                      snapshot in 0usize..350)
            {
                let mut c = Column::new_local(NodeId(0), 0, 7);
                c.extend(values.iter().copied());
                let mut got = Vec::new();
                c.column().scan(Predicate::Range { lo, hi }, snapshot, |_, v| got.push(v));
                let expect: Vec<u64> = values.iter().take(snapshot)
                    .filter(|&&v| v >= lo && v < hi).copied().collect();
                prop_assert_eq!(got, expect);
            }

            #[test]
            fn chunked_aggregates_match_scalar_scan(
                values in proptest::collection::vec(
                    prop_oneof![any::<u64>(), Just(u64::MAX), Just(0u64), 0u64..1000],
                    0..300),
                lo in prop_oneof![any::<u64>(), 0u64..1000],
                hi in prop_oneof![any::<u64>(), Just(u64::MAX), 0u64..1000],
                snapshot in 0usize..350)
            {
                let mut c = Column::new_local(NodeId(0), 0, 7);
                c.extend(values.iter().copied());
                let pred = Predicate::Range { lo, hi };
                // The per-row closure scan is the oracle for the kernels.
                let mut n = 0u64;
                let mut s = 0u64;
                c.column().scan(pred, snapshot, |_, v| {
                    n += 1;
                    s = s.wrapping_add(v);
                });
                prop_assert_eq!(c.column().count(pred, snapshot), n);
                prop_assert_eq!(c.column().sum(pred, snapshot), s);
            }

            #[test]
            fn drain_then_reappend_is_identity(values in proptest::collection::vec(0u64..1000, 1..200),
                                               n in 0usize..220)
            {
                let mut c = Column::new_local(NodeId(0), 0, 16);
                c.extend(values.iter().copied());
                let tail = c.column_mut().drain_tail(n);
                c.extend(tail);
                let mut got = Vec::new();
                c.column().scan(Predicate::All, usize::MAX, |_, v| got.push(v));
                prop_assert_eq!(got, values);
            }
        }
    }
}
