//! Per-(object, command-kind) latency attribution.
//!
//! The engine stamps 1-in-N submitted commands at routing time (see
//! `eris-core`'s trace-marker wire records); the AEU that finally
//! executes a stamped command records it here, decomposing the end-to-
//! end latency into **queue wait** (submit → start of the coalesced
//! batch), **execution** (the batch's host-time cost) and **forwarding
//! hops** (how many times the command was re-routed as a stray).
//!
//! Serving-layer traces (originated by `eris-server` at frame decode)
//! additionally carry the **network-queue** and **admission** spans and
//! a `(tenant, conn, seq)` identity; those land in per-tenant full-path
//! histograms and per-bucket [`Exemplar`] slots so a tail outlier in
//! the export links back to its complete span breakdown.
//!
//! Histograms are log2-bucketed: bucket `b` holds values in
//! `[2^b, 2^(b+1))` (bucket 0 also holds 0).  32 buckets cover ~4.3 s
//! in nanoseconds, far beyond any sane command latency.

use crate::event::TENANT_NONE;
use crate::exemplar::{Exemplar, ExemplarTable};
use parking_lot::Mutex;
use std::collections::HashMap;
// ordering: Relaxed is the only ordering this module imports — bucket
// counters are monotonic and independent; readers accept transient
// skew between buckets (documented on `LatencySeries`).
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of log2 buckets per histogram.
pub const LATENCY_BUCKETS: usize = 32;

/// Bucket index for a value: `floor(log2(v))`, saturated.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b` (Prometheus `le` label).
pub fn bucket_le(b: usize) -> u64 {
    (1u64 << (b + 1)) - 1
}

/// A plain log2 histogram (no interior mutability): the one bucket
/// layout of the workspace.  The latency table keeps these under its
/// mutex; `eris-core`'s atomic per-AEU recorders snapshot into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    pub buckets: [u64; LATENCY_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LogHistogram {
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Fold another histogram's samples in.
    pub fn merge(&mut self, o: &LogHistogram) {
        for (b, ob) in self.buckets.iter_mut().zip(&o.buckets) {
            *b += ob;
        }
        self.count += o.count;
        self.sum += o.sum;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`), i.e. a conservative estimate: the true value lies
    /// in the same bucket, so the estimate is within one log2 bucket of
    /// truth by construction.  Returns 0 for an empty histogram.
    pub fn quantile_le(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_le(b);
            }
        }
        bucket_le(LATENCY_BUCKETS - 1)
    }

    /// Median estimate (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile_le(0.50)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile_le(0.99)
    }

    /// Number of recorded samples that *may* exceed `threshold`: the
    /// population of every bucket whose inclusive upper bound is above
    /// it.  Conservative by at most one log2 bucket (a sample in the
    /// straddling bucket counts as bad even if it was just under) —
    /// the SLO engine prefers over-counting badness to under-counting.
    pub fn count_over(&self, threshold: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(b, _)| bucket_le(*b) > threshold)
            .map(|(_, &n)| n)
            .sum()
    }
}

impl std::fmt::Display for LogHistogram {
    /// `n=… mean=…` and every non-empty bucket as `[<=upper bound]=count`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={} mean={:.1}", self.count, self.mean())?;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                write!(f, " [<={}]={c}", bucket_le(b))?;
            }
        }
        Ok(())
    }
}

/// Key of one latency series: (object id, command op tag).
pub type LatencyKey = (u32, u8);

/// The decomposed latency record of one traced command.
///
/// Engine-born traces leave the serving-side fields at their defaults
/// (`tenant == TENANT_NONE`, zero net/admit spans, `trace_id` 0 is
/// accepted but serving traces carry `TraceStamp::trace_id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRecord {
    pub queue_wait_ns: u64,
    pub exec_ns: u64,
    pub hops: u32,
    /// Network-queue span (frame arrival → admission), serving only.
    pub net_ns: u64,
    /// Admission-verdict span, serving only.
    pub admit_ns: u64,
    /// Stable trace id (see `TraceStamp::trace_id`), 0 if unset.
    pub trace_id: u64,
    /// Originating tenant, [`TENANT_NONE`] when engine-born.
    pub tenant: u32,
}

impl Default for LatencyRecord {
    fn default() -> Self {
        LatencyRecord {
            queue_wait_ns: 0,
            exec_ns: 0,
            hops: 0,
            net_ns: 0,
            admit_ns: 0,
            trace_id: 0,
            tenant: TENANT_NONE,
        }
    }
}

impl LatencyRecord {
    /// Full-path latency: every span the trace accumulated.
    pub fn total_ns(&self) -> u64 {
        self.net_ns + self.admit_ns + self.queue_wait_ns + self.exec_ns
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySeries {
    pub queue_wait: LogHistogram,
    pub exec: LogHistogram,
    pub hops: LogHistogram,
}

/// Engine-wide sampled-latency table.
///
/// Writers are the executing AEUs (plus drop accounting from discard
/// paths); the map mutex is effectively uncontended — a stamped command
/// arrives every N-th submission, and each record is a few adds.  The
/// stamped/traced/dropped conservation counters are atomics so readers
/// can check the ledger without the lock.
#[derive(Debug, Default)]
pub struct LatencyTable {
    series: Mutex<HashMap<LatencyKey, LatencySeries>>,
    /// Per-tenant full-path (net + admit + queue + exec) histograms,
    /// fed only by serving-layer traces (`tenant != TENANT_NONE`).
    tenant_full: Mutex<HashMap<u32, LogHistogram>>,
    /// Per-bucket most-recent-trace exemplars for the full-path
    /// histogram (seqlock slots, read lock-free by exporters).
    exemplars: ExemplarTable,
    /// Commands stamped at routing time.
    stamped: AtomicU64,
    /// Stamped commands whose latency was recorded at execution.
    traced: AtomicU64,
    /// Stamped commands discarded before execution (e.g. an incoming
    /// buffer dropped in a crash-injection run, or a serving-side
    /// shed/denial after the stamp was charged).
    dropped: AtomicU64,
}

impl LatencyTable {
    pub fn on_stamped(&self) {
        self.stamped.fetch_add(1, Relaxed);
    }

    pub fn on_dropped(&self, n: u64) {
        self.dropped.fetch_add(n, Relaxed);
    }

    /// Record one traced command's decomposition.
    pub fn record(&self, key: LatencyKey, rec: LatencyRecord) {
        self.traced.fetch_add(1, Relaxed);
        let total = rec.total_ns();
        {
            let mut map = self.series.lock();
            let s = map.entry(key).or_default();
            s.queue_wait.record(rec.queue_wait_ns);
            s.exec.record(rec.exec_ns);
            s.hops.record(rec.hops as u64);
        }
        if rec.tenant != TENANT_NONE {
            self.tenant_full
                .lock()
                .entry(rec.tenant)
                .or_default()
                .record(total);
        }
        self.exemplars.record(
            bucket_of(total),
            Exemplar {
                trace_id: rec.trace_id,
                at_ns: crate::clock::now_ns(),
                total_ns: total,
                net_ns: rec.net_ns,
                admit_ns: rec.admit_ns,
                queue_ns: rec.queue_wait_ns,
                exec_ns: rec.exec_ns,
                hops: rec.hops,
                tenant: rec.tenant,
            },
        );
    }

    /// `(stamped, traced, dropped)` — conservation requires
    /// `stamped == traced + dropped` once the engine is drained.
    pub fn ledger(&self) -> (u64, u64, u64) {
        (
            self.stamped.load(Relaxed),
            self.traced.load(Relaxed),
            self.dropped.load(Relaxed),
        )
    }

    /// Copy of every series, sorted by key for deterministic output.
    pub fn snapshot(&self) -> Vec<(LatencyKey, LatencySeries)> {
        let map = self.series.lock();
        let mut out: Vec<_> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Per-tenant full-path histograms, sorted by tenant id.
    pub fn tenant_snapshot(&self) -> Vec<(u32, LogHistogram)> {
        let map = self.tenant_full.lock();
        let mut out: Vec<_> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Per-bucket exemplars of the full-path histogram (`None` = the
    /// bucket never received a traced command).
    pub fn exemplars(&self) -> Vec<Option<Exemplar>> {
        self.exemplars.snapshot()
    }

    pub fn reset(&self) {
        let mut map = self.series.lock();
        map.clear();
        self.tenant_full.lock().clear();
        self.exemplars.reset();
        self.stamped.store(0, Relaxed);
        self.traced.store(0, Relaxed);
        self.dropped.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_saturation() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_le(0), 1);
        assert_eq!(bucket_le(10), 2047);
    }

    /// Exact quantile over raw samples using the same rank rule the
    /// histogram uses: the rank-th smallest sample, rank = ceil(q·n).
    fn exact_quantile(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The histogram estimate must land in the same log2 bucket as the
    /// exact-sorted oracle: estimate = bucket_le(bucket_of(truth)).
    fn assert_within_one_bucket(samples: &[u64], q: f64) {
        let mut h = LogHistogram::default();
        for &s in samples {
            h.record(s);
        }
        let est = h.quantile_le(q);
        let truth = exact_quantile(samples, q);
        assert_eq!(
            est,
            bucket_le(bucket_of(truth)),
            "q={q}: estimate {est} not in truth's bucket (truth {truth})"
        );
        assert!(est >= truth, "upper bound must dominate truth");
    }

    #[test]
    fn quantiles_match_sorted_oracle_within_one_bucket() {
        // A deterministic long-tailed stream: mostly small, rare spikes.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut samples = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = if x % 100 < 97 {
                x % 4_096
            } else {
                x % 10_000_000
            };
            samples.push(v);
        }
        for q in [0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            assert_within_one_bucket(&samples, q);
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = LogHistogram::default();
        assert_eq!(empty.quantile_le(0.5), 0);
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p99(), 0);

        let mut one = LogHistogram::default();
        one.record(777);
        assert_eq!(one.p50(), bucket_le(bucket_of(777)));
        assert_eq!(one.p99(), one.p50());

        // All-zero samples sit in bucket 0.
        let mut zeros = LogHistogram::default();
        for _ in 0..100 {
            zeros.record(0);
        }
        assert_eq!(zeros.p99(), bucket_le(0));

        // Quantiles are monotone in q.
        let mut h = LogHistogram::default();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let mut last = 0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let e = h.quantile_le(q);
            assert!(e >= last);
            last = e;
        }
        assert!(h.p50() <= h.p99());
    }

    #[test]
    fn quantile_saturates_at_the_top_bucket() {
        let mut h = LogHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.p99(), bucket_le(LATENCY_BUCKETS - 1));
    }

    #[test]
    fn ledger_accounts_for_every_stamp() {
        let t = LatencyTable::default();
        for _ in 0..10 {
            t.on_stamped();
        }
        for i in 0..7u64 {
            t.record(
                (1, 0),
                LatencyRecord {
                    queue_wait_ns: i * 100,
                    exec_ns: i * 10,
                    hops: (i % 2) as u32,
                    ..LatencyRecord::default()
                },
            );
        }
        t.on_dropped(3);
        let (stamped, traced, dropped) = t.ledger();
        assert_eq!(stamped, traced + dropped);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        let (_, s) = &snap[0];
        assert_eq!(s.queue_wait.count, 7);
        assert_eq!(s.exec.count, 7);
        assert_eq!(s.hops.count, 7);
        assert!(s.queue_wait.mean() > 0.0);
    }

    #[test]
    fn count_over_is_conservative_within_one_bucket() {
        let mut h = LogHistogram::default();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        // Exactly at a bucket upper bound: buckets strictly above count.
        assert_eq!(h.count_over(bucket_le(bucket_of(1_000))), 2);
        // Far below everything / above everything.
        assert_eq!(h.count_over(0), 5);
        assert_eq!(h.count_over(u64::MAX), 0);
        // A threshold inside a bucket counts that whole bucket as bad
        // (over-estimate, never under): 70_000 shares 100_000's log2
        // bucket, so the 100_000 sample counts even though 70_000 < it.
        assert_eq!(h.count_over(70_000), 1);
        assert_eq!(LogHistogram::default().count_over(0), 0);
    }

    #[test]
    fn serving_records_feed_tenant_histograms_and_exemplars() {
        let t = LatencyTable::default();
        // Engine-born record: no tenant series, but an exemplar.
        t.on_stamped();
        t.record(
            (1, 0),
            LatencyRecord {
                queue_wait_ns: 50,
                exec_ns: 14,
                ..LatencyRecord::default()
            },
        );
        assert!(t.tenant_snapshot().is_empty());

        // Serving-born record with all four spans.
        let rec = LatencyRecord {
            queue_wait_ns: 300,
            exec_ns: 100,
            hops: 1,
            net_ns: 2_000,
            admit_ns: 600,
            trace_id: 0xdead_beef,
            tenant: 7,
        };
        t.on_stamped();
        t.record((1, 0), rec);

        let tenants = t.tenant_snapshot();
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].0, 7);
        assert_eq!(tenants[0].1.count, 1);
        assert_eq!(tenants[0].1.sum, rec.total_ns());

        let ex = t.exemplars()[bucket_of(rec.total_ns())].expect("exemplar retained");
        assert_eq!(ex.trace_id, 0xdead_beef);
        assert_eq!(ex.tenant, 7);
        assert_eq!(ex.net_ns, 2_000);
        assert_eq!(ex.admit_ns, 600);
        assert_eq!(
            ex.total_ns,
            ex.net_ns + ex.admit_ns + ex.queue_ns + ex.exec_ns
        );

        t.reset();
        assert!(t.tenant_snapshot().is_empty());
        assert!(t.exemplars().iter().all(|e| e.is_none()));
    }
}
