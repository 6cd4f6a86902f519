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

use crate::column::{Column, Predicate};
use crate::kernel::CompiledPredicate;
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
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    matched: bool,
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
        // ALLOC-OK: one consumer registration per scan command in the
        // fused batch; the vector's growth amortizes across the sweep
        // that shares it.
        self.consumers.push(Consumer {
            pred,
            snapshot,
            agg,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            matched: false,
        });
        self.consumers.len() - 1
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
    /// Each chunk is pulled through the cache once and every consumer's
    /// compiled predicate reduces it branch-free, computing only the
    /// aggregate that consumer asked for, through the [`simd`] kernels
    /// (which fall back to the portable [`crate::kernel`] code on
    /// non-AVX2 hardware).  Exactness: count/sum/min/max are
    /// commutative–associative folds, so per-chunk partials combine to
    /// bit-identical results vs. the scalar path.
    pub fn execute(mut self, column: &Column) -> (Vec<AggregateResult>, usize) {
        let sweep = self.consumers.iter().map(|c| c.snapshot).max().unwrap_or(0);
        // ALLOC-OK: one predicate-compilation vector per fused sweep,
        // amortized over every chunk the sweep touches.
        let preds: Vec<CompiledPredicate> = self
            .consumers
            .iter()
            .map(|c| CompiledPredicate::compile(c.pred))
            .collect();
        let consumers = &mut self.consumers;
        let examined = column.for_each_chunk(sweep, |base, chunk| {
            for (c, &p) in consumers.iter_mut().zip(&preds) {
                if base >= c.snapshot {
                    continue;
                }
                // MVCC cut: this consumer sees only its snapshot prefix.
                // BOUNDS: the end is clamped with min(chunk.len()), and
                // base < c.snapshot was checked above, so the range is valid.
                let part = &chunk[..(c.snapshot - base).min(chunk.len())];
                match c.agg {
                    Aggregate::Count => c.count += simd::count(part, p),
                    Aggregate::Sum => c.sum = c.sum.wrapping_add(simd::sum(part, p)),
                    Aggregate::MinMax => {
                        if let Some((mn, mx)) = simd::min_max(part, p) {
                            c.min = c.min.min(mn);
                            c.max = c.max.max(mx);
                            c.matched = true;
                        }
                    }
                }
            }
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
                    c.count += 1;
                    c.sum = c.sum.wrapping_add(v);
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
                Aggregate::Count => AggregateResult::Count(c.count),
                Aggregate::Sum => AggregateResult::Sum(c.sum),
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
            #[test]
            fn chunked_matches_scalar_oracle(
                values in proptest::collection::vec(
                    prop_oneof![any::<u64>(), Just(u64::MAX), 0u64..2000],
                    0..2600),
                consumers in proptest::collection::vec(
                    (preds(), aggs(), 0usize..2700), 1..8),
                seg_cap in prop_oneof![Just(11usize), Just(1024), Just(4096)])
            {
                let mut c = Column::new_local(NodeId(0), 0, seg_cap);
                c.extend(values.iter().copied());
                let c = c.into_column();
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
