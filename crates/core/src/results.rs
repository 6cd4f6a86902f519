//! Result collection: the "callback function reference" of a data command.
//!
//! Commands carry a `ticket`; AEUs report completions here.  Throughput
//! experiments only need the atomic counters; correctness tests enable
//! value collection and assert on the exact results.

use crate::command::AeuId;
use eris_column::scan::AggregateResult;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared sink for operation results.
#[derive(Debug, Default)]
pub struct ResultCollector {
    pub lookups: AtomicU64,
    pub lookup_hits: AtomicU64,
    pub upserts: AtomicU64,
    pub inserted_new: AtomicU64,
    pub scans: AtomicU64,
    pub rows_scanned: AtomicU64,
    collect_values: bool,
    lookup_values: Mutex<Vec<(u64, u64, Option<u64>)>>,
    scan_results: Mutex<Vec<(u64, AeuId, AggregateResult)>>,
}

impl ResultCollector {
    /// Counters only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters plus full value collection (tests).
    pub fn collecting() -> Self {
        ResultCollector {
            collect_values: true,
            ..Default::default()
        }
    }

    /// Record the results of lookup commands executed as one batch:
    /// `keys` and `values` are the commands' concatenation in execution
    /// order, and `commands` names each command's `(ticket, key count)` in
    /// that order.  Counters are published once for the whole batch; in
    /// collection mode every result is filed under its command's ticket.
    // HOT-PATH-CUT: reply staging — result batches own their payload
    // vectors by design; the collector is the handoff out of the
    // latch-free section.
    pub fn lookup_batch<C: IntoIterator<Item = (u64, usize)>>(
        &self,
        keys: &[u64],
        values: &[Option<u64>],
        commands: C,
    ) {
        debug_assert_eq!(keys.len(), values.len());
        self.lookups.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let hits = values.iter().filter(|v| v.is_some()).count() as u64;
        self.lookup_hits.fetch_add(hits, Ordering::Relaxed);
        if self.collect_values {
            let mut g = self.lookup_values.lock();
            let mut results = keys.iter().zip(values);
            for (ticket, n) in commands {
                g.extend(results.by_ref().take(n).map(|(k, v)| (ticket, *k, *v)));
            }
        }
    }

    /// Record a batch of upserts, `new` of which inserted fresh keys.
    // HOT-PATH-CUT: reply staging — result batches own their payload
    // vectors by design; the collector is the handoff out of the
    // latch-free section.
    pub fn upsert_batch(&self, n: u64, new: u64) {
        self.upserts.fetch_add(n, Ordering::Relaxed);
        self.inserted_new.fetch_add(new, Ordering::Relaxed);
    }

    /// Record one partition's contribution to a scan.
    // HOT-PATH-CUT: reply staging — result batches own their payload
    // vectors by design; the collector is the handoff out of the
    // latch-free section.
    pub fn scan_partial(&self, ticket: u64, from: AeuId, result: AggregateResult, rows: u64) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        if self.collect_values {
            self.scan_results.lock().push((ticket, from, result));
        }
    }

    /// Collected lookup results (collection mode only).
    pub fn take_lookup_values(&self) -> Vec<(u64, u64, Option<u64>)> {
        std::mem::take(&mut self.lookup_values.lock())
    }

    /// Collected scan partials (collection mode only).
    pub fn take_scan_results(&self) -> Vec<(u64, AeuId, AggregateResult)> {
        std::mem::take(&mut self.scan_results.lock())
    }

    /// Combine scan partials of one ticket into a single aggregate.
    pub fn combine_scan(&self, ticket: u64) -> Option<AggregateResult> {
        let partials = self.scan_results.lock();
        let mut acc: Option<AggregateResult> = None;
        for (t, _, r) in partials.iter() {
            if *t != ticket {
                continue;
            }
            acc = Some(match (acc, *r) {
                (None, r) => r,
                (Some(AggregateResult::Count(a)), AggregateResult::Count(b)) => {
                    AggregateResult::Count(a + b)
                }
                (Some(AggregateResult::Sum(a)), AggregateResult::Sum(b)) => {
                    AggregateResult::Sum(a.wrapping_add(b))
                }
                (Some(AggregateResult::MinMax(a)), AggregateResult::MinMax(b)) => {
                    AggregateResult::MinMax(match (a, b) {
                        (None, x) | (x, None) => x,
                        (Some((al, ah)), Some((bl, bh))) => Some((al.min(bl), ah.max(bh))),
                    })
                }
                (Some(a), b) => {
                    panic!("mixed aggregate kinds for ticket {ticket}: {a:?} vs {b:?}")
                }
            });
        }
        acc
    }

    /// Snapshot of the counter values.
    pub fn counts(&self) -> ResultCounts {
        ResultCounts {
            lookups: self.lookups.load(Ordering::Relaxed),
            lookup_hits: self.lookup_hits.load(Ordering::Relaxed),
            upserts: self.upserts.load(Ordering::Relaxed),
            inserted_new: self.inserted_new.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
        }
    }
}

/// A counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCounts {
    pub lookups: u64,
    pub lookup_hits: u64,
    pub upserts: u64,
    pub inserted_new: u64,
    pub scans: u64,
    pub rows_scanned: u64,
}

impl std::ops::Sub for ResultCounts {
    type Output = ResultCounts;
    fn sub(self, rhs: ResultCounts) -> ResultCounts {
        ResultCounts {
            lookups: self.lookups - rhs.lookups,
            lookup_hits: self.lookup_hits - rhs.lookup_hits,
            upserts: self.upserts - rhs.upserts,
            inserted_new: self.inserted_new - rhs.inserted_new,
            scans: self.scans - rhs.scans,
            rows_scanned: self.rows_scanned - rhs.rows_scanned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = ResultCollector::new();
        c.lookup_batch(&[1, 2, 3], &[Some(1), None, Some(3)], [(1, 3)]);
        c.upsert_batch(5, 2);
        c.scan_partial(9, AeuId(0), AggregateResult::Count(7), 100);
        let s = c.counts();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.lookup_hits, 2);
        assert_eq!(s.upserts, 5);
        assert_eq!(s.inserted_new, 2);
        assert_eq!(s.scans, 1);
        assert_eq!(s.rows_scanned, 100);
    }

    #[test]
    fn counting_mode_drops_values() {
        let c = ResultCollector::new();
        c.lookup_batch(&[1], &[Some(1)], [(1, 1)]);
        assert!(c.take_lookup_values().is_empty());
    }

    #[test]
    fn collection_mode_keeps_values() {
        let c = ResultCollector::collecting();
        // Two commands executed as one batch: results split by ticket.
        c.lookup_batch(&[1, 2, 3], &[Some(10), None, Some(30)], [(1, 2), (7, 1)]);
        let v = c.take_lookup_values();
        assert_eq!(v, vec![(1, 1, Some(10)), (1, 2, None), (7, 3, Some(30))]);
        assert_eq!(c.counts().lookups, 3);
        assert_eq!(c.counts().lookup_hits, 2);
        assert!(c.take_lookup_values().is_empty(), "take drains");
    }

    #[test]
    fn combine_scan_partials() {
        let c = ResultCollector::collecting();
        c.scan_partial(5, AeuId(0), AggregateResult::Count(10), 10);
        c.scan_partial(5, AeuId(1), AggregateResult::Count(32), 32);
        c.scan_partial(6, AeuId(0), AggregateResult::Count(1), 1);
        assert_eq!(c.combine_scan(5), Some(AggregateResult::Count(42)));
        assert_eq!(c.combine_scan(7), None);
    }

    #[test]
    fn combine_minmax_with_empty_partials() {
        let c = ResultCollector::collecting();
        c.scan_partial(1, AeuId(0), AggregateResult::MinMax(None), 0);
        c.scan_partial(1, AeuId(1), AggregateResult::MinMax(Some((3, 9))), 5);
        assert_eq!(
            c.combine_scan(1),
            Some(AggregateResult::MinMax(Some((3, 9))))
        );
    }

    #[test]
    fn counts_difference() {
        let a = ResultCounts {
            lookups: 10,
            ..Default::default()
        };
        let b = ResultCounts {
            lookups: 4,
            ..Default::default()
        };
        assert_eq!((a - b).lookups, 6);
    }
}
