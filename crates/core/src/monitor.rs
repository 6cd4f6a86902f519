//! The monitoring component of the adaption loop (Section 3.3).
//!
//! *"The ERIS adaption loop starts with the monitoring of the different
//! metrics on a per data object level.  Based on the captured metrics, the
//! load balancer periodically checks the load of ERIS for imbalances."*
//!
//! [`Monitor`] keeps a ring of per-partition metric snapshots for every
//! data object, exposes the imbalance (coefficient of variation) per
//! metric, keeps the balancer's decision audit log, and is what an
//! operator dashboard (or the "ERIS live" demo UI) would read.

use crate::command::DataObjectId;
use std::collections::{HashMap, VecDeque};

/// One sampling window's per-partition measurements for one object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Virtual time the sample was taken, seconds.
    pub at_secs: f64,
    /// Accesses per partition in the window.
    pub accesses: Vec<u64>,
    /// Execution time per partition in the window, virtual ns.
    pub exec_ns: Vec<f64>,
    /// Keys/rows per partition at sample time.
    pub lens: Vec<usize>,
    /// Resident bytes per partition at sample time.
    pub bytes: Vec<u64>,
}

impl Sample {
    /// Coefficient of variation of the access histogram.
    pub fn access_cv(&self) -> f64 {
        cv(&self.accesses.iter().map(|&a| a as f64).collect::<Vec<_>>())
    }

    /// Coefficient of variation of the execution-time histogram.
    pub fn exec_cv(&self) -> f64 {
        cv(&self.exec_ns)
    }

    /// Coefficient of variation of the physical sizes.
    pub fn size_cv(&self) -> f64 {
        cv(&self.lens.iter().map(|&l| l as f64).collect::<Vec<_>>())
    }
}

/// Standard deviation over mean (0 for degenerate histograms): the
/// imbalance of a per-partition metric, and the balancer's trigger.
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Balancer evaluations retained in the audit log.
pub const AUDIT_CAPACITY: usize = 256;

/// The outcome of one balancer evaluation of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceVerdict {
    /// The metric CV was under the configured threshold — balanced enough.
    BelowThreshold,
    /// Over threshold, but the previous cycle paid real transfer cost
    /// without improving the imbalance (an indivisible hotspot); the
    /// balancer backed off instead of thrashing.  This entry is the whole
    /// record of the back-off: the periods it skips file none.
    OscillationDetected,
    /// Over threshold, but the target boundaries equal the current ones.
    NoBoundaryChange,
    /// Data moved; see [`BalanceDecision::migrations`].
    Rebalanced,
}

/// One executed partition migration, as recorded in the audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Source partition index (= AEU slot in table order).
    pub src: usize,
    /// Destination partition index.
    pub dst: usize,
    /// Moved key range `[lo, hi)`; `0..0` for size-partitioned row moves,
    /// which shift tail rows rather than a key range.
    pub lo: u64,
    pub hi: u64,
    /// Keys (index objects) or rows (columns) actually moved.
    pub keys: u64,
    /// Payload bytes represented by those keys/rows.
    pub bytes: u64,
}

/// One adaption-loop evaluation: the per-metric CVs the balancer saw, the
/// threshold it compared against, its verdict, and — when it moved data —
/// every migration it executed.
#[derive(Debug, Clone)]
pub struct BalanceDecision {
    /// Virtual time of the evaluation, seconds.
    pub at_secs: f64,
    pub object: DataObjectId,
    /// CV of the access histogram at evaluation time.
    pub access_cv: f64,
    /// CV of the per-partition execution times.
    pub exec_cv: f64,
    /// CV of the per-partition sizes.
    pub size_cv: f64,
    /// The configured trigger threshold the CVs were judged against.
    pub threshold_cv: f64,
    pub verdict: BalanceVerdict,
    /// Executed migrations (empty unless `verdict == Rebalanced`).
    pub migrations: Vec<MigrationRecord>,
}

static EMPTY_HISTORY: VecDeque<Sample> = VecDeque::new();

/// Per-object sample history with a bounded ring, plus the balancer's
/// decision audit log.
pub struct Monitor {
    history: HashMap<DataObjectId, VecDeque<Sample>>,
    capacity: usize,
    audit: VecDeque<BalanceDecision>,
}

impl Monitor {
    /// A monitor retaining the last `capacity` samples per object.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        Monitor {
            history: HashMap::new(),
            capacity,
            audit: VecDeque::new(),
        }
    }

    /// Record one sampling window for `object` (amortized O(1); the ring
    /// is a `VecDeque`, not a `Vec` with `remove(0)` shifts).
    pub fn record(&mut self, object: DataObjectId, sample: Sample) {
        let ring = self.history.entry(object).or_default();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(sample);
    }

    /// The most recent sample of an object.
    pub fn latest(&self, object: DataObjectId) -> Option<&Sample> {
        self.history.get(&object).and_then(|r| r.back())
    }

    /// Full retained history (oldest first).
    pub fn history(&self, object: DataObjectId) -> &VecDeque<Sample> {
        self.history.get(&object).unwrap_or(&EMPTY_HISTORY)
    }

    /// Append one balancer evaluation to the audit log (bounded at
    /// [`AUDIT_CAPACITY`], oldest evicted first).
    pub fn record_decision(&mut self, decision: BalanceDecision) {
        if self.audit.len() == AUDIT_CAPACITY {
            self.audit.pop_front();
        }
        self.audit.push_back(decision);
    }

    /// The retained balancer evaluations, oldest first.
    pub fn audit_log(&self) -> &VecDeque<BalanceDecision> {
        &self.audit
    }

    /// The most recent balancer evaluation of one object.
    pub fn last_decision(&self, object: DataObjectId) -> Option<&BalanceDecision> {
        self.audit.iter().rev().find(|d| d.object == object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: f64, accesses: Vec<u64>) -> Sample {
        Sample {
            at_secs: at,
            lens: vec![0; accesses.len()],
            exec_ns: accesses.iter().map(|&a| a as f64 * 10.0).collect(),
            bytes: vec![0; accesses.len()],
            accesses,
        }
    }

    #[test]
    fn cv_of_uniform_is_zero() {
        assert_eq!(cv(&[5.0, 5.0, 5.0]), 0.0);
        assert!(cv(&[0.0, 10.0]) > 0.9);
        assert_eq!(cv(&[1.0]), 0.0, "single partition is never imbalanced");
        assert_eq!(cv(&[0.0, 0.0]), 0.0, "idle object");
    }

    #[test]
    fn sample_cvs() {
        let s = sample(1.0, vec![0, 0, 100, 100]);
        assert!(s.access_cv() > 0.9);
        assert!(s.exec_cv() > 0.9);
        assert_eq!(s.size_cv(), 0.0);
    }

    #[test]
    fn ring_keeps_last_capacity_samples() {
        let mut m = Monitor::new(3);
        let o = DataObjectId(0);
        for i in 0..5 {
            m.record(o, sample(i as f64, vec![i, i]));
        }
        assert_eq!(m.history(o).len(), 3);
        assert_eq!(m.latest(o).unwrap().at_secs, 4.0);
        assert_eq!(m.history(o)[0].at_secs, 2.0);
        assert!(m.latest(DataObjectId(9)).is_none());
    }

    #[test]
    fn ring_order_and_capacity_semantics_match_a_plain_vec() {
        // The VecDeque ring must be observably identical to the previous
        // `Vec::remove(0)` implementation: oldest-first iteration, exact
        // capacity bound, eviction strictly from the front.
        let cap = 7;
        let mut m = Monitor::new(cap);
        let o = DataObjectId(1);
        let mut oracle: Vec<f64> = Vec::new();
        for i in 0..40 {
            let at = i as f64;
            m.record(o, sample(at, vec![i, i + 1]));
            if oracle.len() == cap {
                oracle.remove(0);
            }
            oracle.push(at);
            let got: Vec<f64> = m.history(o).iter().map(|s| s.at_secs).collect();
            assert_eq!(got, oracle, "after {} records", i + 1);
        }
        assert_eq!(m.history(o).len(), cap);
        assert_eq!(m.latest(o).unwrap().at_secs, 39.0);
        assert_eq!(m.history(o)[0].at_secs, 33.0);
    }

    fn decision(obj: u32, at: f64, verdict: BalanceVerdict) -> BalanceDecision {
        BalanceDecision {
            at_secs: at,
            object: DataObjectId(obj),
            access_cv: 0.5,
            exec_cv: 0.4,
            size_cv: 0.0,
            threshold_cv: 0.3,
            verdict,
            migrations: vec![MigrationRecord {
                src: 0,
                dst: 1,
                lo: 0,
                hi: 10,
                keys: 10,
                bytes: 80,
            }],
        }
    }

    #[test]
    fn audit_log_is_bounded_and_queryable() {
        let mut m = Monitor::new(4);
        for i in 0..AUDIT_CAPACITY + 5 {
            m.record_decision(decision(
                (i % 2) as u32,
                i as f64,
                BalanceVerdict::Rebalanced,
            ));
        }
        assert_eq!(m.audit_log().len(), AUDIT_CAPACITY, "bounded");
        assert_eq!(
            m.audit_log().front().unwrap().at_secs,
            5.0,
            "oldest evicted first"
        );
        let last = m.last_decision(DataObjectId(0)).unwrap();
        assert_eq!(last.at_secs, (AUDIT_CAPACITY + 4) as f64);
        assert_eq!(last.migrations.len(), 1);
        assert!(m.last_decision(DataObjectId(9)).is_none());
    }
}
