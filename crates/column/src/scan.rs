//! Scan sharing: many scan commands, one pass over the data.
//!
//! Section 3.1: *"an AEU is able to execute multiple scan commands on the
//! same partition with a single scan and is thereby implementing scan
//! sharing in combination with MVCC to ensure isolation."*
//!
//! A [`SharedScan`] collects the coalesced scan commands of one processing
//! round — each with its own predicate, snapshot, and aggregate — and
//! executes them in a single sweep of the column.  Because each consumer
//! carries its own snapshot, isolation is preserved even though the sweep
//! is shared.
//!
//! The sweep pays per distinct predicate, not per consumer.  Its Count and
//! Sum consumers share *evaluations*: one per distinct (compiled
//! predicate, snapshot) pair, which computes both the count and the sum
//! and is kept by the first consumer with that pair, its lead.  Each chunk
//! is reduced for the evaluations that see all of it in blocks of
//! [`BLOCK`] predicates by one multi-predicate pass ([`simd::count_sum`]);
//! an evaluation whose snapshot cuts the chunk runs on its prefix alone.
//! MinMax consumers run their own [`simd::min_max`] pass.

use crate::column::{Column, Predicate};
use crate::kernel::{CompiledPredicate, CountSum, BLOCK};
use crate::simd;

/// Which execution path a shared sweep uses: the production fused sweep
/// or the row-at-a-time oracle it is tested (and benchmarked) against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanKernel {
    /// Fused chunked sweep through [`crate::simd`]: AVX2 u64 lanes where
    /// detected, the portable chunked kernels of [`crate::kernel`]
    /// otherwise (or under `ERIS_SIMD=0`) — bit-identical either way.
    #[default]
    Simd,
    /// Row-at-a-time `Predicate::matches` closure per consumer.
    Scalar,
}

/// The aggregate a scan command computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of matching rows.
    Count,
    /// Sum of matching values (wrapping).
    Sum,
    /// Minimum and maximum of matching values.
    MinMax,
}

/// Result of one consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateResult {
    Count(u64),
    Sum(u64),
    /// `None` when no row matched.
    MinMax(Option<(u64, u64)>),
}

struct Consumer {
    pred: Predicate,
    snapshot: usize,
    agg: Aggregate,
    /// The consumer whose evaluation a Count or Sum consumer reads: the
    /// first one with the same compiled predicate and snapshot, itself when
    /// there is none before it (see [`SharedScan::execute`]).
    lead: usize,
    /// Count and sum of the matches, kept by a lead.
    acc: CountSum,
    min: u64,
    max: u64,
    matched: bool,
}

/// Up to [`BLOCK`] evaluations that see a whole chunk, gathered for one
/// multi-predicate pass over it.
struct Block {
    leads: [usize; BLOCK],
    preds: [CompiledPredicate; BLOCK],
    len: usize,
}

impl Block {
    fn new() -> Self {
        Block {
            leads: [0; BLOCK],
            preds: [CompiledPredicate::compile(Predicate::All); BLOCK],
            len: 0,
        }
    }

    /// Add the evaluation led by consumer `lead`; a full block is reduced.
    fn gather(&mut self, lead: usize, pred: CompiledPredicate, chunk: &[u64], cs: &mut [Consumer]) {
        // BOUNDS: len < BLOCK here — a block that fills up runs and
        // empties before the next gather.
        self.leads[self.len] = lead;
        self.preds[self.len] = pred;
        self.len += 1;
        if self.len == BLOCK {
            self.reduce(chunk, cs);
        }
    }

    /// One [`simd::count_sum`] pass for the gathered evaluations.
    fn reduce(&mut self, chunk: &[u64], cs: &mut [Consumer]) {
        // BOUNDS: len <= BLOCK, and every lead indexes `cs` (`gather`
        // takes them from an enumeration of it).
        let got = simd::count_sum(chunk, &self.preds[..self.len]);
        for (&lead, r) in self.leads[..self.len].iter().zip(got) {
            cs[lead].acc += r;
        }
        self.len = 0;
    }
}

/// A batch of scan commands answered by a single pass.
pub struct SharedScan {
    consumers: Vec<Consumer>,
}

impl SharedScan {
    pub fn new() -> Self {
        SharedScan {
            consumers: Vec::new(),
        }
    }

    /// Register one scan command; returns its consumer index.
    pub fn add(&mut self, pred: Predicate, snapshot: usize, agg: Aggregate) -> usize {
        let id = self.consumers.len();
        // ALLOC-OK: one consumer registration per scan command in the
        // fused batch; the vector's growth amortizes across the sweep
        // that shares it.
        self.consumers.push(Consumer {
            pred,
            snapshot,
            agg,
            lead: id,
            acc: CountSum::default(),
            min: u64::MAX,
            max: 0,
            matched: false,
        });
        id
    }

    /// Number of registered consumers.
    pub fn len(&self) -> usize {
        self.consumers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty()
    }

    /// Execute all consumers in one fused sweep.  Returns the rows
    /// examined — the *maximum* snapshot across consumers, not the sum:
    /// that the data is read once for N commands is exactly the
    /// scan-sharing win the virtual-time model charges for.
    ///
    /// Each chunk is pulled through the cache once, and the sweep pays per
    /// distinct evaluation, not per consumer: Count and Sum consumers with
    /// the same compiled predicate and snapshot read the count and sum of
    /// the first of them, their lead.  For each chunk, the leads whose
    /// snapshot covers all of it are gathered into blocks of [`BLOCK`]
    /// for one [`simd::count_sum`] pass each; a lead whose snapshot cuts
    /// the chunk runs on its prefix alone, and so does every MinMax
    /// consumer, through [`simd::min_max`] (both fall back to the portable
    /// [`crate::kernel`] code on non-AVX2 hardware).  Exactness:
    /// count/sum/min/max are commutative–associative folds, so per-chunk
    /// partials combine to bit-identical results vs. the scalar path.
    pub fn execute(mut self, column: &Column) -> (Vec<AggregateResult>, usize) {
        let sweep = self.consumers.iter().map(|c| c.snapshot).max().unwrap_or(0);
        // ALLOC-OK: one predicate-compilation vector per fused sweep,
        // amortized over every chunk the sweep touches.  Measured: in the
        // `engine-scan` benchmark's repeated setup this small allocation is
        // what keeps glibc from trimming the heap when a large column is
        // dropped; without it the next load faults every page in again
        // (setup +70 %).
        let preds: Vec<CompiledPredicate> = self
            .consumers
            .iter()
            .map(|c| CompiledPredicate::compile(c.pred))
            .collect();
        // What a Count or Sum consumer evaluates; MinMax runs a pass of its own.
        let key = |i: usize, c: &Consumer| {
            // BOUNDS: `preds` has one entry per consumer.
            (c.agg != Aggregate::MinMax).then_some((preds[i], c.snapshot))
        };
        for i in 0..self.consumers.len() {
            // BOUNDS: j < i < consumers.len(), the loop bound.
            let k = key(i, &self.consumers[i]);
            let first = (0..i).find(|&j| k.is_some() && key(j, &self.consumers[j]) == k);
            self.consumers[i].lead = first.unwrap_or(i);
        }
        let cs = &mut self.consumers;
        let examined = column.for_each_chunk(sweep, |base, chunk| {
            let end = base + chunk.len();
            let mut block = Block::new();
            for (i, &pred) in preds.iter().enumerate() {
                // BOUNDS: `preds` has one entry per consumer.
                let c = &mut cs[i];
                if c.lead != i || c.snapshot <= base {
                    continue; // it reads its lead's evaluation, or is done
                }
                // MVCC cut: a consumer sees only its snapshot's prefix.
                // BOUNDS: base < c.snapshot, checked above, and the end is
                // clamped to the chunk.
                let part = &chunk[..(c.snapshot - base).min(chunk.len())];
                if c.agg == Aggregate::MinMax {
                    if let Some((mn, mx)) = simd::min_max(part, pred) {
                        c.min = c.min.min(mn);
                        c.max = c.max.max(mx);
                        c.matched = true;
                    }
                } else if c.snapshot >= end {
                    block.gather(i, pred, chunk, cs);
                } else {
                    let [r, ..] = simd::count_sum(part, &[pred]);
                    c.acc += r;
                }
            }
            block.reduce(chunk, cs);
        });
        (self.results(), examined)
    }

    /// Execute with an explicit kernel choice.
    pub fn execute_with(self, column: &Column, k: ScanKernel) -> (Vec<AggregateResult>, usize) {
        match k {
            ScanKernel::Simd => self.execute(column),
            ScanKernel::Scalar => self.execute_scalar(column),
        }
    }

    /// The row-at-a-time path, kept as the oracle the fused sweep is
    /// tested (and benchmarked) against.
    pub fn execute_scalar(mut self, column: &Column) -> (Vec<AggregateResult>, usize) {
        let sweep = self.consumers.iter().map(|c| c.snapshot).max().unwrap_or(0);
        let examined = column.scan(Predicate::All, sweep, |row, v| {
            for c in &mut self.consumers {
                if row < c.snapshot && c.pred.matches(v) {
                    c.acc += CountSum { count: 1, sum: v };
                    if v < c.min {
                        c.min = v;
                    }
                    if v > c.max {
                        c.max = v;
                    }
                    c.matched = true;
                }
            }
        });
        (self.results(), examined)
    }

    fn results(&self) -> Vec<AggregateResult> {
        self.consumers
            .iter()
            // ALLOC-OK: result materialization, once per completed sweep.
            .map(|c| match c.agg {
                // BOUNDS: a lead indexes the consumers (`execute`).
                Aggregate::Count => AggregateResult::Count(self.consumers[c.lead].acc.count),
                Aggregate::Sum => AggregateResult::Sum(self.consumers[c.lead].acc.sum),
                Aggregate::MinMax => AggregateResult::MinMax(c.matched.then_some((c.min, c.max))),
            })
            .collect()
    }
}

impl Default for SharedScan {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eris_numa::NodeId;

    fn column(n: u64) -> Column {
        let mut c = Column::new_local(NodeId(0), 0, 32);
        c.extend(0..n);
        c.into_column()
    }

    #[test]
    fn shared_scan_matches_individual_scans() {
        let c = column(100);
        let mut s = SharedScan::new();
        s.add(Predicate::All, 100, Aggregate::Count);
        s.add(Predicate::Range { lo: 10, hi: 20 }, 100, Aggregate::Sum);
        s.add(Predicate::Equals(42), 100, Aggregate::MinMax);
        let (r, examined) = s.execute(&c);
        assert_eq!(examined, 100, "one sweep, not three");
        assert_eq!(r[0], AggregateResult::Count(100));
        assert_eq!(r[1], AggregateResult::Sum((10..20).sum()));
        assert_eq!(r[2], AggregateResult::MinMax(Some((42, 42))));
    }

    #[test]
    fn per_consumer_snapshots_isolate() {
        let c = column(50);
        let mut s = SharedScan::new();
        s.add(Predicate::All, 10, Aggregate::Count);
        s.add(Predicate::All, 50, Aggregate::Count);
        let (r, examined) = s.execute(&c);
        assert_eq!(examined, 50, "sweep covers the largest snapshot");
        assert_eq!(r[0], AggregateResult::Count(10));
        assert_eq!(r[1], AggregateResult::Count(50));
    }

    #[test]
    fn minmax_of_empty_match_is_none() {
        let c = column(10);
        let mut s = SharedScan::new();
        s.add(Predicate::Equals(999), 10, Aggregate::MinMax);
        let (r, _) = s.execute(&c);
        assert_eq!(r[0], AggregateResult::MinMax(None));
    }

    #[test]
    fn empty_shared_scan_examines_nothing() {
        let c = column(10);
        let (r, examined) = SharedScan::new().execute(&c);
        assert!(r.is_empty());
        assert_eq!(examined, 0);
    }

    #[test]
    fn snapshot_cut_mid_chunk_isolates() {
        // Snapshots that land inside a kernel chunk must still cut exactly.
        let mut c = Column::new_local(NodeId(0), 0, 1 << 14);
        c.extend(0..3000u64);
        let c = c.into_column();
        for snap in [0usize, 1, 1023, 1024, 1025, 2048, 2999, 3000] {
            let mut s = SharedScan::new();
            s.add(Predicate::All, snap, Aggregate::Count);
            s.add(Predicate::All, snap, Aggregate::Sum);
            let (r, _) = s.execute(&c);
            assert_eq!(r[0], AggregateResult::Count(snap as u64), "snap {snap}");
            let want: u64 = (0..snap as u64).sum();
            assert_eq!(r[1], AggregateResult::Sum(want), "snap {snap}");
        }
    }

    #[test]
    fn consumers_share_evaluations_but_not_across_snapshots() {
        // Six distinct (predicate, snapshot) evaluations — two blocks per
        // chunk — under twelve consumers, one predicate cut at two
        // snapshots, and `Equals(5)` = `Range [5, 6)` compiling alike.
        let c = column(5000);
        let mut s = SharedScan::new();
        for (lo, hi) in [(0, 4000), (100, 200), (3000, 5000), (5, 6)] {
            for agg in [Aggregate::Count, Aggregate::Sum, Aggregate::MinMax] {
                s.add(Predicate::Range { lo, hi }, 5000, agg);
            }
        }
        s.add(Predicate::Equals(5), 5000, Aggregate::Sum);
        s.add(Predicate::Range { lo: 0, hi: 4000 }, 1500, Aggregate::Count);
        s.add(Predicate::Range { lo: 0, hi: 4000 }, 1500, Aggregate::Sum);
        s.add(Predicate::Range { lo: 0, hi: 4000 }, 2049, Aggregate::Count);
        let (r, examined) = s.execute(&c);
        assert_eq!(examined, 5000);
        assert_eq!(r[0], AggregateResult::Count(4000));
        assert_eq!(r[1], AggregateResult::Sum((0..4000).sum()));
        assert_eq!(r[2], AggregateResult::MinMax(Some((0, 3999))));
        assert_eq!(r[4], AggregateResult::Sum((100..200).sum()));
        assert_eq!(r[6], AggregateResult::Count(2000));
        assert_eq!(r[9], AggregateResult::Count(1));
        assert_eq!(r[12], AggregateResult::Sum(5));
        assert_eq!(r[13], AggregateResult::Count(1500));
        assert_eq!(r[14], AggregateResult::Sum((0..1500).sum()));
        assert_eq!(r[15], AggregateResult::Count(2049));
    }

    mod properties {
        use super::*;
        use crate::kernel;
        use proptest::prelude::*;

        fn preds() -> impl Strategy<Value = Predicate> {
            prop_oneof![
                Just(Predicate::All),
                (any::<u64>(), any::<u64>()).prop_map(|(lo, hi)| Predicate::Range { lo, hi }),
                (0u64..2000, 0u64..2000).prop_map(|(lo, hi)| Predicate::Range { lo, hi }),
                any::<u64>().prop_map(|lo| Predicate::Range { lo, hi: u64::MAX }),
                any::<u64>().prop_map(Predicate::Equals),
                (0u64..2000).prop_map(Predicate::Equals),
                Just(Predicate::Equals(u64::MAX)),
            ]
        }

        fn aggs() -> impl Strategy<Value = Aggregate> {
            prop_oneof![
                Just(Aggregate::Count),
                Just(Aggregate::Sum),
                Just(Aggregate::MinMax),
            ]
        }

        /// One consumer's aggregate through the portable chunked kernels.
        fn portable(c: &Column, pred: Predicate, agg: Aggregate, snap: usize) -> AggregateResult {
            let p = CompiledPredicate::compile(pred);
            let (mut count, mut sum, mut mm) = (0u64, 0u64, None::<(u64, u64)>);
            c.for_each_chunk(snap, |_, chunk| {
                count += kernel::count(chunk, p);
                sum = sum.wrapping_add(kernel::sum(chunk, p));
                mm = match (mm, kernel::min_max(chunk, p)) {
                    (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
                    (a, b) => a.or(b),
                };
            });
            match agg {
                Aggregate::Count => AggregateResult::Count(count),
                Aggregate::Sum => AggregateResult::Sum(sum),
                Aggregate::MinMax => AggregateResult::MinMax(mm),
            }
        }

        proptest! {
            /// Consumers draw their predicate from a small pool and their
            /// snapshot from a few cuts, so a sweep holds duplicated
            /// predicates (Count, Sum and MinMax on one predicate share or
            /// skip an evaluation), one predicate under different snapshots
            /// (which must not share one), and often more than [`BLOCK`]
            /// distinct evaluations (several blocks per chunk).
            #[test]
            fn chunked_matches_scalar_oracle(
                values in proptest::collection::vec(
                    prop_oneof![any::<u64>(), Just(u64::MAX), 0u64..2000],
                    0..2600),
                pool in proptest::collection::vec(preds(), 1..10),
                snaps in proptest::collection::vec(0usize..2700, 1..4),
                consumers in proptest::collection::vec(
                    (0usize..10, aggs(), 0usize..4), 1..24),
                seg_cap in prop_oneof![Just(11usize), Just(1024), Just(4096)])
            {
                let mut c = Column::new_local(NodeId(0), 0, seg_cap);
                c.extend(values.iter().copied());
                let c = c.into_column();
                let consumers: Vec<(Predicate, Aggregate, usize)> = consumers
                    .iter()
                    .map(|&(p, a, s)| (pool[p % pool.len()], a, snaps[s % snaps.len()]))
                    .collect();
                let build = || {
                    let mut s = SharedScan::new();
                    for &(p, a, snap) in &consumers {
                        s.add(p, snap, a);
                    }
                    s
                };
                let (simd, ex_v) = build().execute(&c);
                let (scalar, ex_s) = build().execute_scalar(&c);
                prop_assert_eq!(&simd, &scalar);
                prop_assert_eq!(ex_v, ex_s);
                // The portable kernels — what `simd::*` falls back to off
                // AVX2 — folded per chunk, one consumer at a time.
                for (&(p, a, snap), want) in consumers.iter().zip(&scalar) {
                    prop_assert_eq!(portable(&c, p, a, snap), *want);
                }
            }
        }
    }
}
