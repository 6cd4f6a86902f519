//! Segmented columns with node-homed segments and snapshot visibility.

use eris_numa::NodeId;

/// Default values per segment (512 KiB of u64s).
pub const DEFAULT_SEGMENT_CAPACITY: usize = 64 * 1024;

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

    /// The rows from row `start` on, one slice per segment they lie in:
    /// what a journal writes as one `AppendRows` record per run.
    pub fn runs_from(&self, start: usize) -> impl Iterator<Item = &[u64]> {
        let mut row = 0usize;
        self.segments.iter().filter_map(move |seg| {
            let first = row;
            row += seg.data.len();
            // BOUNDS: taken only when `start < row`, so `start - first`
            // (0 when the run starts at or after `start`) is below the
            // segment's length.
            (row > start).then(|| &seg.data[start.saturating_sub(first)..])
        })
    }

    /// Append `values` in order.  Each goes into the open (last) segment;
    /// `provide` is asked for a fresh, empty segment only when a value is
    /// left and the open one is full or missing.  The one way rows enter a
    /// column: a load, a routed append, a replayed `AppendRows` and the
    /// cut segment of a split.
    pub fn append(
        &mut self,
        values: impl IntoIterator<Item = u64>,
        mut provide: impl FnMut() -> Segment,
    ) {
        let mut values = values.into_iter();
        while let Some(first) = values.next() {
            let seg = match self.segments.last_mut() {
                Some(seg) if !seg.is_full() => seg,
                _ => self.push_segment(provide()),
            };
            let before = seg.data.len();
            let room = seg.capacity - before;
            // ALLOC-OK: `first` and at most `room - 1` more values fill
            // the open segment's provisioned capacity without reallocating.
            seg.data
                .extend(std::iter::once(first).chain(values.by_ref().take(room - 1)));
            self.len += seg.data.len() - before;
        }
    }

    /// Open a segment a column owner provisioned.
    // HOT-PATH-CUT: amortized segment provisioning — runs once per
    // segment capacity of appended rows, never per command.
    fn push_segment(&mut self, seg: Segment) -> &mut Segment {
        assert!(seg.is_empty(), "provisioned segments start empty");
        self.segments.push(seg);
        self.segments.last_mut().expect("a segment was just pushed")
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

    /// Move the rows from row `at` on to the end of `into`, in order: a
    /// column move ("the balancing command includes the number of tuples
    /// that have to be ... handed over to another AEU").  Whole segments
    /// past `at` change hands, buffers and all, re-homed to `home`.  Only
    /// the rows past `at` inside the one segment it cuts are copied: they
    /// fill `into`'s open segment, and what does not fit a fresh one from
    /// `provide`.  Returns the rows moved.
    pub fn move_tail(
        &mut self,
        at: usize,
        into: &mut Column,
        home: NodeId,
        provide: impl FnMut() -> Segment,
    ) -> usize {
        let at = at.min(self.len);
        // The first segment holding a row at or past `at`, and its first row.
        let (mut k, mut row) = (0, 0);
        while let Some(seg) = self.segments.get(k).filter(|s| row + s.len() <= at) {
            row += seg.len();
            k += 1;
        }
        if let Some(cut) = self.segments.get_mut(k).filter(|_| row < at) {
            into.append(cut.data.drain(at - row..), provide);
            k += 1;
        }
        let whole = self.segments.split_off(k);
        into.len += whole.iter().map(Segment::len).sum::<usize>();
        into.segments.extend(whole.into_iter().map(|mut seg| {
            seg.home = home;
            seg
        }));
        let moved = self.len - at;
        self.len = at;
        moved
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
    /// Append many values, provisioning fresh local segments as needed.
    // HOT-PATH-CUT: self-provisioning column of tests and tools, never
    // on the engine's paths — reached only by name from `Vec::extend`.
    pub fn extend(&mut self, values: impl IntoIterator<Item = u64>) {
        let (home, capacity) = (self.home, self.capacity);
        self.column
            .append(values, || Segment::with_capacity(home, capacity));
    }

    /// The underlying column.
    pub fn column(&self) -> &Column {
        &self.column
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

    /// A provider of `capacity`-value segments homed on `home` that
    /// counts how often it was asked.
    fn provider(home: u16, capacity: usize, asked: &mut usize) -> impl FnMut() -> Segment + '_ {
        move || {
            *asked += 1;
            Segment::with_capacity(NodeId(home), capacity)
        }
    }

    /// All rows of `c`, in order.
    fn rows(c: &Column) -> Vec<u64> {
        let mut got = Vec::new();
        c.scan(Predicate::All, usize::MAX, |_, v| got.push(v));
        got
    }

    #[test]
    fn append_provisions_only_for_a_value_left_over() {
        let mut c = Column::new();
        let mut asked = 0;
        c.append([], provider(0, 4, &mut asked));
        assert_eq!((asked, c.segments().len(), c.len()), (0, 0, 0));
        // Exactly one segment's worth leaves no empty segment behind.
        c.append(0..4, provider(0, 4, &mut asked));
        assert_eq!((asked, c.segments().len(), c.len()), (1, 1, 4));
        c.append([4], provider(0, 4, &mut asked));
        assert_eq!((asked, c.segments().len()), (2, 2));
        assert_eq!(rows(&c), (0..5).collect::<Vec<u64>>());
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
        let (mut c, mut asked) = (Column::new(), 0);
        c.append([1, 2, 3, 4], provider(0, 4, &mut asked));
        c.append([5, 6, 7, 8], provider(1, 4, &mut asked));
        let per = c.rows_per_node(2, 7);
        assert_eq!(per, vec![(NodeId(0), 2), (NodeId(1), 3)]);
        assert_eq!(c.rows_per_node(0, 8).iter().map(|(_, r)| r).sum::<u64>(), 8);
    }

    #[test]
    fn append_slice_fills_open_segment_only() {
        let (mut c, mut asked) = (Column::new(), 0);
        let values: Vec<u64> = (0..20).collect();
        c.append(values[..5].iter().copied(), provider(1, 8, &mut asked));
        assert_eq!((asked, c.len()), (1, 5));
        // The open segment's 3 free values are filled before a second
        // segment is asked for, and the third holds the last 4.
        c.append(values[5..].iter().copied(), provider(1, 8, &mut asked));
        assert_eq!((asked, c.len()), (3, 20));
        let lens: Vec<usize> = c.segments().iter().map(Segment::len).collect();
        assert_eq!(lens, vec![8, 8, 4]);
        assert_eq!(rows(&c), values);
    }

    /// Move the rows of a 40-row column of 16-value segments from `at` on
    /// to a receiver holding 5 rows of its own, homed on node 7.  Returns
    /// (donor, receiver, moved segments that kept their buffer).
    fn split_and_move(at: usize) -> (Column, Column, usize) {
        let mut donor = filled(40).into_column();
        let buffers: Vec<*const u64> = donor
            .segments()
            .iter()
            .map(|s| s.values().as_ptr())
            .collect();
        let mut receiver = Column::new_local(NodeId(7), 0, 16);
        receiver.extend(100..105);
        let mut receiver = receiver.into_column();
        let mut asked = 0;
        let moved = donor.move_tail(at, &mut receiver, NodeId(7), provider(7, 16, &mut asked));
        assert_eq!(moved, 40 - at);
        // The rows past `at` in the segment it cuts fill the receiver's
        // open segment, which has room for 11.
        let cut = (at.next_multiple_of(16).min(40) - at) % 16;
        assert_eq!(
            asked,
            usize::from(cut > 11),
            "a segment for what does not fit"
        );
        let kept = receiver
            .segments()
            .iter()
            .filter(|s| buffers.contains(&s.values().as_ptr()))
            .count();
        (donor, receiver, kept)
    }

    #[test]
    fn a_split_hands_whole_segments_over_and_copies_only_the_cut_one() {
        // (split point, whole segments that move with their buffers)
        for (at, whole) in [
            (0, 3),  // everything: no copy
            (35, 0), // inside the open segment
            (32, 1), // at a segment boundary: the open segment moves
            (16, 2), // across several segments, at a boundary
            (5, 2),  // across several segments, cutting the first
            (3, 2),  // the same, the cut rows overflowing the receiver's room
            (40, 0), // nothing
        ] {
            let (donor, receiver, kept) = split_and_move(at);
            assert_eq!(kept, whole, "split at {at}");
            assert_eq!(donor.len(), at);
            assert_eq!(donor.get(at), None);
            assert_eq!(rows(&donor), (0..at as u64).collect::<Vec<u64>>());
            assert_eq!(receiver.len(), 5 + 40 - at);
            // Donor rows then the moved rows are the original order, after
            // the receiver's own rows.
            let mut expect: Vec<u64> = (100..105).collect();
            expect.extend(at as u64..40);
            assert_eq!(rows(&receiver), expect, "split at {at}");
            assert!(receiver.segments().iter().all(|s| s.home() == NodeId(7)));
            assert!(donor.segments().iter().all(|s| !s.is_empty()));
            assert!(receiver.segments().iter().all(|s| !s.is_empty()));
        }
        // A split past the end clamps: nothing leaves.
        let (mut c, mut none) = (filled(40).into_column(), Column::new());
        assert_eq!(
            c.move_tail(100, &mut none, NodeId(7), || unreachable!("no cut")),
            0
        );
        assert!(none.is_empty() && none.segments().is_empty());
        assert_eq!(c.len(), 40);
    }

    #[test]
    fn drain_tail_removes_exactly_n_in_order() {
        // Taking the last n rows off is a move from `len - n`.
        let mut c = filled(40).into_column();
        let (mut tail, mut asked) = (Column::new(), 0);
        let at = c.len() - 20;
        c.move_tail(at, &mut tail, NodeId(0), provider(0, 16, &mut asked));
        assert_eq!(rows(&tail), (20..40).collect::<Vec<u64>>());
        assert_eq!(c.len(), 20);
        assert_eq!(c.get(19), Some(19));
        assert_eq!(c.get(20), None);
        // Taking more than remains clamps.
        let mut rest = Column::new();
        let at = c.len().saturating_sub(100);
        c.move_tail(at, &mut rest, NodeId(0), || unreachable!("no cut"));
        assert_eq!(rows(&rest), (0..20).collect::<Vec<u64>>());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn drain_tail_drops_emptied_segments() {
        let (mut c, mut tail) = (filled(40).into_column(), Column::new());
        c.move_tail(7, &mut tail, NodeId(0), || {
            Segment::with_capacity(NodeId(0), 16)
        });
        assert_eq!(c.segments().len(), 1);
        assert_eq!(c.len(), 7);
        assert_eq!(tail.len(), 33);
        assert!(tail.segments().iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn a_column_appends_after_an_adopted_partial_segment() {
        // The cut segment's 5 rows filled the receiver's open segment, 5
        // rows of its own with room for 11: appends fill the rest of it,
        // then a fresh one, and no segment is left partly filled
        // mid-column.  Every reader walks each segment by its own length.
        let (_, mut receiver, _) = split_and_move(35);
        let mut asked = 0;
        receiver.append(200..220, provider(7, 16, &mut asked));
        let lens: Vec<usize> = receiver.segments().iter().map(Segment::len).collect();
        assert_eq!(lens, vec![16, 14]);
        assert_eq!(asked, 1);
        let mut expect: Vec<u64> = (100..105).chain(35..40).chain(200..220).collect();
        assert_eq!(rows(&receiver), expect);
        assert_eq!(receiver.get(10), Some(200));
        let mut chunked = Vec::new();
        receiver.for_each_chunk(usize::MAX, |_, c| chunked.extend_from_slice(c));
        assert_eq!(chunked, expect);
        let mut window = Vec::new();
        receiver.scan_rows(3, 12, Predicate::All, |_, v| window.push(v));
        expect.truncate(12);
        assert_eq!(window, expect[3..]);
        assert_eq!(receiver.rows_per_node(3, 12), vec![(NodeId(7), 9)]);
        // Journal runs follow the segments: one per segment from row 8 on.
        let runs: Vec<Vec<u64>> = receiver.runs_from(8).map(<[u64]>::to_vec).collect();
        let first: Vec<u64> = [38, 39].into_iter().chain(200..206).collect();
        assert_eq!(runs, vec![first, (206..220).collect()]);
        assert_eq!(receiver.runs_from(30).count(), 0);
    }

    #[test]
    fn segment_homes_and_bytes() {
        let (mut c, mut asked) = (Column::new(), 0);
        c.append([7], provider(3, 4, &mut asked));
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
                let mut c = Column::new_local(NodeId(0), 0, 16).into_column();
                let mut asked = 0;
                c.append(values.iter().copied(), provider(0, 16, &mut asked));
                let (at, mut tail) = (c.len().saturating_sub(n), Column::new());
                c.move_tail(at, &mut tail, NodeId(0), provider(0, 16, &mut asked));
                prop_assert_eq!(c.len() + tail.len(), values.len());
                tail.move_tail(0, &mut c, NodeId(0), || unreachable!("no cut"));
                prop_assert_eq!(rows(&c), values);
            }
        }
    }
}
