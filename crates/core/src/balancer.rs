//! The configurable load balancing algorithm (Section 3.3).
//!
//! The adaption loop samples per-partition metrics (access frequency for
//! range-partitioned objects, physical size for size-partitioned ones),
//! checks the imbalance (standard deviation across AEUs against a
//! threshold), computes a **target partitioning** with a configurable
//! aggressiveness — **One-Shot** (fully balanced immediately) or
//! **Moving Average over a window of k neighbours (MA-k)**, which turns
//! into One-Shot as k covers all partitions (Figure 6) — and emits the
//! balancing/transfer commands that realize it.
//!
//! `Balancer` is that loop; the engine runs epochs and lends it the
//! partitions when a period of virtual time has passed.

use crate::aeu::Aeu;
use crate::command::{AeuId, DataObjectId};
use crate::cost::{CostParams, Moved};
use crate::durability::{ObjectClass, ObjectDescriptor, RedoOp, RedoSink};
use crate::engine::apply_bounds;
use crate::monitor::{cv, BalanceDecision, BalanceVerdict, MigrationRecord, Monitor, Sample};
use crate::routing::RoutingShared;
use eris_numa::{HwCounters, Topology};
use eris_obs::{now_ns, Stamped, TraceEvent};
use std::sync::atomic::Ordering;

/// The metric driving index-object balancing (Section 3.3: access
/// frequency is primary; the mean execution time of a data command is the
/// additional metric that captures tree-depth and cache effects).
/// Size-partitioned objects always balance by physical partition size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceMetric {
    /// Accesses per partition in the sampling window.
    AccessFrequency,
    /// Virtual execution time per partition in the sampling window —
    /// equalizes *work*, not just request counts, so partitions with
    /// deeper trees or worse cache behaviour shed load.
    ExecutionTime,
}

/// Balancing aggressiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceAlgorithm {
    /// Compute a fully balanced target partitioning in one step.
    OneShot,
    /// Smooth the observed metric with a moving average of window `k`
    /// neighbours on each side before balancing.
    MovingAverage(usize),
}

/// Load balancer configuration.
#[derive(Debug, Clone, Copy)]
pub struct BalancerConfig {
    pub enabled: bool,
    pub algorithm: BalanceAlgorithm,
    /// Metric for range-partitioned objects.
    pub metric: BalanceMetric,
    /// Trigger when the coefficient of variation (stddev / mean) of the
    /// partition metric exceeds this.
    pub threshold_cv: f64,
    /// Sampling/adaption period in virtual seconds.
    pub period_s: f64,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            enabled: false,
            algorithm: BalanceAlgorithm::MovingAverage(1),
            metric: BalanceMetric::AccessFrequency,
            threshold_cv: 0.3,
            period_s: 1.0,
        }
    }
}

/// Does the metric distribution warrant rebalancing?
///
/// Degenerate inputs answer `false` explicitly rather than by floating-
/// point accident: fewer than two partitions have nothing to balance,
/// an all-zero (or negative-sum) window means no observed load, and a
/// non-finite mean or CV (samples carrying NaN/∞ from an upstream bug)
/// must not silently win or lose the `>` comparison.
pub fn needs_balancing(weights: &[f64], threshold_cv: f64) -> bool {
    let n = weights.len() as f64;
    let mean = weights.iter().sum::<f64>() / n;
    if n < 2.0 || !mean.is_finite() || mean <= 0.0 {
        return false;
    }
    let cv = cv(weights);
    cv.is_finite() && cv > threshold_cv
}

/// Moving-average smoothing over `k` neighbours on each side (window
/// clipped at the ends).  `k >= n-1` averages everything — the One-Shot
/// configuration (the paper's "turns into the One-Shot algorithm when
/// configured as MA7 in our setup" with 8 partitions).
pub fn smooth(weights: &[f64], k: usize) -> Vec<f64> {
    let n = weights.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(k);
            let hi = (i + k + 1).min(n);
            weights[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Compute the target boundaries for one data object.
///
/// * `boundaries[i]` is the inclusive lower bound of partition `i`
///   (so `boundaries[0]` is the domain minimum); `domain_end` closes the
///   last range.
/// * `weights[i]` is the observed metric of partition `i`.
///
/// The observed weight of a partition is assumed uniform over its key
/// range; the new boundaries are the quantiles of that piecewise-uniform
/// distribution at the target shares.  One-Shot targets equal shares; MA-k
/// targets the smoothed shares, so repeated application converges while
/// moving less data per cycle.
pub fn target_boundaries(
    boundaries: &[u64],
    domain_end: u64,
    weights: &[f64],
    algorithm: BalanceAlgorithm,
) -> Vec<u64> {
    let n = boundaries.len();
    assert_eq!(n, weights.len());
    assert!(n > 0);
    assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
    assert!(*boundaries.last().unwrap() < domain_end);
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || n == 1 {
        return boundaries.to_vec();
    }

    // Target share per partition.
    let targets: Vec<f64> = match algorithm {
        BalanceAlgorithm::OneShot => vec![total / n as f64; n],
        BalanceAlgorithm::MovingAverage(k) => {
            let s = smooth(weights, k);
            let s_total: f64 = s.iter().sum();
            s.iter().map(|w| w / s_total * total).collect()
        }
    };

    // Piecewise-uniform CDF inversion.
    let ranges: Vec<(u64, u64)> = (0..n)
        .map(|i| {
            let hi = if i + 1 < n {
                boundaries[i + 1]
            } else {
                domain_end
            };
            (boundaries[i], hi)
        })
        .collect();
    let mut new_bounds = Vec::with_capacity(n);
    new_bounds.push(boundaries[0]);
    let mut cum_target = 0.0;
    let mut seg = 0usize; // current source partition
    let mut cum_weight = 0.0; // weight fully consumed before `seg`
    for t in targets.iter().take(n - 1) {
        cum_target += t;
        // Advance to the segment containing the quantile.
        while seg < n - 1 && cum_weight + weights[seg] < cum_target - 1e-9 {
            cum_weight += weights[seg];
            seg += 1;
        }
        let (lo, hi) = ranges[seg];
        let within = if weights[seg] > 0.0 {
            ((cum_target - cum_weight) / weights[seg]).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let pos = lo as f64 + within * (hi - lo) as f64;
        new_bounds.push(pos as u64);
    }

    // Enforce strictly increasing boundaries within the domain.
    for i in 1..n {
        let min_allowed = new_bounds[i - 1] + 1;
        let max_allowed = domain_end - (n - i) as u64;
        new_bounds[i] = new_bounds[i].clamp(min_allowed, max_allowed);
    }
    new_bounds
}

/// A range transfer between two partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Source partition index (= AEU slot in table order).
    pub from: usize,
    /// Target partition index.
    pub to: usize,
    /// Transferred key range `[lo, hi)`.
    pub lo: u64,
    pub hi: u64,
}

/// The transfer commands realizing a move from `old_bounds` to
/// `new_bounds`: every overlap of an old owner's range with a *different*
/// new owner's range becomes one transfer.
pub fn transfer_plan(old_bounds: &[u64], new_bounds: &[u64], domain_end: u64) -> Vec<Transfer> {
    assert_eq!(old_bounds.len(), new_bounds.len());
    let n = old_bounds.len();
    let range = |bounds: &[u64], i: usize| -> (u64, u64) {
        (
            bounds[i],
            if i + 1 < n { bounds[i + 1] } else { domain_end },
        )
    };
    let mut plan = Vec::new();
    for from in 0..n {
        let (olo, ohi) = range(old_bounds, from);
        for to in 0..n {
            if from == to {
                continue;
            }
            let (nlo, nhi) = range(new_bounds, to);
            let lo = olo.max(nlo);
            let hi = ohi.min(nhi);
            if lo < hi {
                plan.push(Transfer { from, to, lo, hi });
            }
        }
    }
    plan
}

/// The order to execute `plan` in so that every partition gives away all
/// its outgoing ranges before it absorbs any incoming one: indices into
/// `plan`, each receiver's incoming transfers consecutive and in plan order.
///
/// A donor that gives first never holds its outgoing and its incoming keys
/// at once, and each receiver can be sized once for everything it takes.
/// The moved key sets do not depend on the order: the ranges of a plan are
/// disjoint, each owned by its donor before the cycle.  And the order
/// exists, because an order-preserving repartitioning moves keys across
/// each old boundary in one direction only (left if the boundary moved
/// right, right if it moved left), so the give graph has no cycle.
pub fn donor_first(plan: &[Transfer]) -> Vec<usize> {
    let n = plan.iter().map(|t| t.from.max(t.to) + 1).max().unwrap_or(0);
    let mut gives = vec![0usize; n];
    for t in plan {
        gives[t.from] += 1;
    }
    let mut order = Vec::with_capacity(plan.len());
    // Partitions that have given everything away, ready to receive.
    let mut ready: Vec<usize> = (0..n).filter(|&p| gives[p] == 0).collect();
    while let Some(p) = ready.pop() {
        for (i, t) in plan.iter().enumerate().filter(|(_, t)| t.to == p) {
            order.push(i);
            gives[t.from] -= 1;
            if gives[t.from] == 0 {
                ready.push(t.from);
            }
        }
    }
    assert_eq!(
        order.len(),
        plan.len(),
        "a range repartitioning has no cycle"
    );
    order
}

/// Balance a size-partitioned object: equalize tuple counts.  Returns
/// `(from, to, tuples)` moves computed greedily from the most loaded to
/// the least loaded partitions.
pub fn size_balance_moves(lens: &[usize]) -> Vec<(usize, usize, usize)> {
    let n = lens.len();
    if n < 2 {
        return Vec::new();
    }
    let total: usize = lens.iter().sum();
    let mean = total / n;
    let mut surplus: Vec<(usize, usize)> = Vec::new(); // (idx, extra)
    let mut deficit: Vec<(usize, usize)> = Vec::new(); // (idx, missing)
    for (i, &l) in lens.iter().enumerate() {
        if l > mean {
            surplus.push((i, l - mean));
        } else if l < mean {
            deficit.push((i, mean - l));
        }
    }
    let mut moves = Vec::new();
    let (mut si, mut di) = (0, 0);
    while si < surplus.len() && di < deficit.len() {
        let give = surplus[si].1.min(deficit[di].1);
        if give > 0 {
            moves.push((surplus[si].0, deficit[di].0, give));
        }
        surplus[si].1 -= give;
        deficit[di].1 -= give;
        if surplus[si].1 == 0 {
            si += 1;
        }
        if deficit[di].1 == 0 {
            di += 1;
        }
    }
    moves
}

/// Pairs a transfer moves per step through its reused buffer (1 MiB); a
/// checkpoint part's records hold as many.
pub const TRANSFER_CHUNK: usize = 1 << 16;

/// The oscillation back-off of one data object: after a cycle that moved
/// substantial data *without* improving the imbalance — an indivisible
/// hotspot, e.g. one scorching key — the balancer backs off exponentially
/// instead of thrashing with futile transfers.
#[derive(Debug, Clone, Copy, Default)]
struct BackoffState {
    /// Imbalance measured when the last balancing cycle was decided.
    last_cv: f64,
    /// Current back-off length in periods.
    skip: u32,
    /// Periods of the current back-off still to skip.
    left: u32,
    /// Fraction of the object's keys moved by the last cycle.
    last_moved_frac: f64,
    /// Virtual time the last cycle's transfers cost, in ns.
    last_cost_ns: f64,
}

impl BackoffState {
    /// True while backing off; counts one skipped period down.
    fn skips(&mut self) -> bool {
        let skipping = self.left > 0;
        self.left = self.left.saturating_sub(1);
        skipping
    }

    /// Whether an over-threshold evaluation at imbalance `cv` backs off:
    /// the last cycle paid real transfer cost without lowering the
    /// imbalance by a tenth.  Back-offs double, capped so a genuine
    /// workload change is picked up again within a few periods.
    fn backs_off(&mut self, cv: f64, period_ns: f64) -> bool {
        let costly = self.last_cost_ns > 0.5 * period_ns || self.last_moved_frac > 0.02;
        if self.last_cv > 0.0 && cv >= 0.9 * self.last_cv && costly {
            let skip = (self.skip.max(1) * 2).min(16);
            *self = BackoffState {
                last_cv: cv,
                skip,
                left: skip,
                ..Default::default()
            };
            return true;
        }
        self.last_cv = cv;
        false
    }
}

/// What a cycle works on, lent by the engine (partition i ↔ AEU i).
pub(crate) struct Partitions<'a> {
    pub topo: &'a Topology,
    pub shared: &'a RoutingShared,
    pub aeus: &'a mut [Aeu],
    pub counters: &'a mut HwCounters,
    pub params: CostParams,
    /// Virtual keys or rows per real one a transfer moves.
    pub transfer_scale: f64,
    pub sink: Option<&'a dyn RedoSink>,
}

impl Partitions<'_> {
    /// Charge both AEUs one transfer of `keys` real keys (or rows), as
    /// [`CostParams::transfer_ns`] prices it, and file it on `decision`;
    /// returns the ns charged.
    fn charge_transfer(
        &mut self,
        decision: &mut BalanceDecision,
        t: Transfer,
        keys: usize,
        moved: Moved,
    ) -> f64 {
        let nodes = (self.aeus[t.from].node, self.aeus[t.to].node);
        let scaled = keys as f64 * self.transfer_scale;
        let (src_ns, dst_ns) =
            self.params
                .transfer_ns(self.topo, nodes, scaled, moved, self.counters);
        self.aeus[t.from].add_pending_ns(src_ns);
        self.aeus[t.to].add_pending_ns(dst_ns);
        let m = MigrationRecord {
            src: t.from,
            dst: t.to,
            lo: t.lo,
            hi: t.hi,
            keys: keys as u64,
            bytes: keys as u64 * self.params.moved_bytes(moved),
        };
        self.shared
            .telemetry()
            .shard(AeuId(m.src as u32))
            .ring
            .emit(Stamped {
                at_ns: now_ns(),
                aeu: m.src as u32,
                event: TraceEvent::Migration {
                    object: decision.object.0,
                    src: m.src as u32,
                    dst: m.dst as u32,
                    keys: m.keys,
                    bytes: m.bytes,
                },
            });
        decision.migrations.push(m);
        src_ns + dst_ns
    }

    /// Move the `counts[i]` keys of each transfer donor-first, one receiver
    /// at a time, through one reused buffer: each step a donor extracts is
    /// absorbed, and journaled, before the next.  A hash receiver is sized
    /// once for all it takes; a tree grows by equal chunks.
    fn move_ranges(&mut self, object: DataObjectId, plan: &[Transfer], counts: &[usize]) {
        let mut incoming = vec![0usize; self.aeus.len()];
        for (t, &moved) in plan.iter().zip(counts) {
            incoming[t.to] += moved;
        }
        let most = incoming.iter().copied().max().unwrap_or(0);
        let mut buf = Vec::with_capacity(most.min(TRANSFER_CHUNK));
        for group in donor_first(plan).chunk_by(|&a, &b| plan[a].to == plan[b].to) {
            let to = plan[group[0]].to;
            self.aeus[to].reserve_transfer(object, incoming[to]);
            for &i in group {
                let (t, mut moved) = (plan[i], 0);
                let mut from = Some(0);
                while let Some(at) = from {
                    buf.clear();
                    from = self.aeus[t.from].extract_chunk(
                        object,
                        (t.lo, t.hi),
                        at,
                        &mut buf,
                        TRANSFER_CHUNK,
                    );
                    moved += buf.len();
                    if !buf.is_empty() {
                        self.aeus[to].absorb_pairs(object, &buf);
                    }
                }
                debug_assert_eq!(moved, counts[i], "a transfer moves what it counted");
            }
        }
    }
}

/// The adaption loop (Section 3.3): every period of virtual time it
/// samples each object's partitions into the [`Monitor`], judges the
/// imbalance, and moves key ranges or tail rows between partitions.
pub(crate) struct Balancer {
    cfg: BalancerConfig,
    monitor: Monitor,
    /// Virtual time of the last cycle, seconds.
    last_balance_s: f64,
    /// Per-object back-off, indexed by object id.
    backoff: Vec<BackoffState>,
}

impl Balancer {
    pub(crate) fn new(cfg: BalancerConfig) -> Self {
        Balancer {
            cfg,
            monitor: Monitor::new(64),
            last_balance_s: 0.0,
            backoff: Vec::new(),
        }
    }

    /// The per-object sampling history and the decision audit log.
    pub(crate) fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Start tracking the next data object.
    pub(crate) fn add_object(&mut self) {
        self.backoff.push(BackoffState::default());
    }

    /// Whether a cycle is due at virtual time `now`; if so, its period
    /// starts now.
    pub(crate) fn due(&mut self, now: f64) -> bool {
        let due = self.cfg.enabled && now - self.last_balance_s >= self.cfg.period_s;
        if due {
            self.last_balance_s = now;
        }
        due
    }

    /// Sample every object at virtual time `now`, then rebalance it as
    /// configured.  Returns the virtual time charged for transfers.
    pub(crate) fn run(
        &mut self,
        now: f64,
        objects: &[ObjectDescriptor],
        mut p: Partitions<'_>,
    ) -> f64 {
        let mut total_ns = 0.0;
        for o in objects {
            let id = o.id;
            let mut sample = Sample {
                at_secs: now,
                ..Default::default()
            };
            for aeu in p.aeus.iter_mut() {
                let (accesses, exec_ns, len, bytes) = aeu.take_sample(id);
                sample.accesses.push(accesses);
                sample.exec_ns.push(exec_ns);
                sample.lens.push(len);
                sample.bytes.push(bytes);
            }
            total_ns += match o.class {
                ObjectClass::Column => self.balance_column(&mut p, id, &sample),
                _ => self.balance_index(&mut p, id, o.domain, &sample),
            };
            self.monitor.record(id, sample);
        }
        total_ns
    }

    /// File the audit entry of a cycle that moved data and count it.
    fn close_cycle(
        &mut self,
        shared: &RoutingShared,
        mut decision: BalanceDecision,
        moves: u64,
        keys_moved: u64,
    ) {
        let tel = shared.telemetry();
        tel.balancer_cycles.fetch_add(1, Ordering::Relaxed);
        tel.balancer_moves.fetch_add(moves, Ordering::Relaxed);
        tel.balancer_keys_moved
            .fetch_add(keys_moved, Ordering::Relaxed);
        decision.verdict = BalanceVerdict::Rebalanced;
        self.monitor.record_decision(decision);
    }

    /// The gates of one evaluation.  `None` when the object skips this
    /// period of its back-off (filing nothing), or when the evaluation is
    /// filed here: balanced, or backing off.  Otherwise the audit entry
    /// (the CVs as seen, the threshold) that the cycle completes.  Column
    /// cycles record no cost, so columns never back off.
    fn judge(&mut self, id: DataObjectId, s: &Sample, weights: &[f64]) -> Option<BalanceDecision> {
        let backoff = &mut self.backoff[id.0 as usize];
        if backoff.skips() {
            return None;
        }
        let mut decision = BalanceDecision {
            at_secs: s.at_secs,
            object: id,
            access_cv: s.access_cv(),
            exec_cv: s.exec_cv(),
            size_cv: s.size_cv(),
            threshold_cv: self.cfg.threshold_cv,
            verdict: BalanceVerdict::BelowThreshold,
            migrations: Vec::new(),
        };
        if !needs_balancing(weights, self.cfg.threshold_cv) {
            // Balanced again: the back-off starts over.
            *backoff = BackoffState::default();
        } else if backoff.backs_off(cv(weights), self.cfg.period_s * 1e9) {
            decision.verdict = BalanceVerdict::OscillationDetected;
        } else {
            return Some(decision);
        }
        self.monitor.record_decision(decision);
        None
    }

    fn balance_index(
        &mut self,
        p: &mut Partitions,
        object: DataObjectId,
        domain: u64,
        sample: &Sample,
    ) -> f64 {
        // The configured metric drives the balancing decision.
        let mut weights: Vec<f64> = match self.cfg.metric {
            BalanceMetric::AccessFrequency => sample.accesses.iter().map(|&a| a as f64).collect(),
            BalanceMetric::ExecutionTime => sample.exec_ns.clone(),
        };
        let Some(mut decision) = self.judge(object, sample, &weights) else {
            return 0.0;
        };
        // Additive smoothing: a small weight floor keeps completely cold
        // partitions from collapsing to one-key ranges, which would dump
        // the entire cold region's data onto the partitions bordering the
        // hot range and make later boundary moves disproportionately
        // expensive.
        let mean = weights.iter().sum::<f64>() / weights.len() as f64;
        for w in &mut weights {
            *w = w.max(0.02 * mean);
        }
        let old_bounds: Vec<u64> = p
            .shared
            .with_table(object, |t| t.as_range().unwrap().ranges())
            .expect("balanced object is registered")
            .iter()
            .map(|(b, _)| *b)
            .collect();
        let new_bounds = target_boundaries(&old_bounds, domain, &weights, self.cfg.algorithm);
        if new_bounds == old_bounds {
            decision.verdict = BalanceVerdict::NoBoundaryChange;
            self.monitor.record_decision(decision);
            return 0.0;
        }
        let plan = transfer_plan(&old_bounds, &new_bounds, domain);
        // Each range is its donor's before the cycle, whatever order the
        // transfers then run in: size every transfer up front.
        let counts: Vec<usize> = plan
            .iter()
            .map(|t| p.aeus[t.from].count_range(object, t.lo, t.hi))
            .collect();
        let moved_keys: usize = counts.iter().sum();

        // All involved AEUs synchronize on the routing-table update first,
        // then execute their transfer commands.
        apply_bounds(p.shared, p.aeus, object, domain, &new_bounds);
        // Charge the transfers in plan order, then move them donor-first.
        let mut total_ns = 0.0;
        for (&t, &keys) in plan.iter().zip(&counts) {
            total_ns += p.charge_transfer(&mut decision, t, keys, Moved::Pairs);
        }
        p.move_ranges(object, &plan, &counts);
        // The cycle commits: once the receivers' pairs are durable, one
        // record of the new bounds, on AEU 0's log beside the creations.
        if let Some(s) = p.sink.filter(|s| s.barrier()) {
            let bounds = &new_bounds;
            s.append(AeuId(0), RedoOp::Bounds { object, bounds });
            s.barrier();
        }

        let total_keys: usize = p
            .aeus
            .iter()
            .map(|a| a.partition(object).map_or(0, |part| part.data.len()))
            .sum();
        let backoff = &mut self.backoff[object.0 as usize];
        backoff.last_moved_frac = moved_keys as f64 / total_keys.max(1) as f64;
        backoff.last_cost_ns = total_ns;
        self.close_cycle(p.shared, decision, plan.len() as u64, moved_keys as u64);
        total_ns
    }

    fn balance_column(&mut self, p: &mut Partitions, object: DataObjectId, sample: &Sample) -> f64 {
        let weights: Vec<f64> = sample.lens.iter().map(|l| *l as f64).collect();
        let Some(mut decision) = self.judge(object, sample, &weights) else {
            return 0.0;
        };
        let mut total_ns = 0.0;
        let moves = size_balance_moves(&sample.lens);
        let mut moved_rows = 0u64;
        let num_moves = moves.len() as u64;
        for (from, to, n) in moves {
            // Sealed segments change hands, re-homed to the receiver; only
            // the rows past the split inside the segment it cuts are
            // copied, into the receiver's open segment.  Nothing is
            // journaled: recovery puts a row back where it was last durable.
            let [donor, receiver] = p.aeus.get_disjoint_mut([from, to]).expect("two AEUs");
            let node = receiver.node;
            let into = receiver.column_mut(object).expect("a column receiver");
            let donor = donor.column_mut(object).expect("a column donor");
            let at = donor.len().saturating_sub(n);
            let rows = donor.move_tail(at, into, node, || Aeu::provision_segment(node));
            moved_rows += rows as u64;
            // A row move shifts tail rows, not a key range.
            let t = Transfer {
                from,
                to,
                lo: 0,
                hi: 0,
            };
            total_ns += p.charge_transfer(&mut decision, t, rows, Moved::Rows);
        }
        if num_moves > 0 {
            self.close_cycle(p.shared, decision, num_moves, moved_rows);
        } else {
            // Over threshold but integer row-averaging found nothing to
            // shift — the column analogue of an unchanged boundary set.
            decision.verdict = BalanceVerdict::NoBoundaryChange;
            self.monitor.record_decision(decision);
        }
        total_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 6 scenario: 8 equal ranges, partitions 3–6 get 25% each.
    fn figure6_weights() -> Vec<f64> {
        vec![0.0, 0.0, 25.0, 25.0, 25.0, 25.0, 0.0, 0.0]
    }

    fn even_bounds(n: u64, domain: u64) -> Vec<u64> {
        (0..n).map(|i| domain / n * i).collect()
    }

    #[test]
    fn cv_trigger() {
        assert!(!needs_balancing(&[10.0, 10.0, 10.0], 0.3));
        assert!(needs_balancing(&figure6_weights(), 0.3));
        assert!(
            !needs_balancing(&[0.0, 0.0], 0.3),
            "idle object never triggers"
        );
        assert!(
            !needs_balancing(&[5.0], 0.0),
            "single partition never triggers"
        );
    }

    #[test]
    fn cv_trigger_degenerate_inputs_never_fire() {
        // Empty window: no partitions sampled at all.
        assert!(!needs_balancing(&[], 0.0));
        // Single AEU, even with a zero threshold and zero weight.
        assert!(!needs_balancing(&[0.0], 0.0));
        // All-zero windows of any width (0/0 CV must not become NaN-true
        // or NaN-false by accident — it is answered before division).
        assert!(!needs_balancing(&[0.0, 0.0, 0.0, 0.0], 0.0));
        // Poisoned samples: NaN or infinity anywhere must not trigger a
        // repartitioning storm off garbage.
        assert!(!needs_balancing(&[f64::NAN, 10.0], 0.0));
        assert!(!needs_balancing(&[f64::INFINITY, 10.0], 0.0));
        assert!(!needs_balancing(&[10.0, f64::NEG_INFINITY], 0.0));
        // Negative-sum windows (metric underflow upstream) stay quiet.
        assert!(!needs_balancing(&[-5.0, -5.0], 0.0));
        // A healthy skewed window still fires with the same guards in.
        assert!(needs_balancing(&[0.0, 100.0], 0.3));
    }

    #[test]
    fn smoothing_windows() {
        let w = figure6_weights();
        let s1 = smooth(&w, 1);
        // Partition 2's MA1 = (0 + 25 + 25) / 3.
        assert!((s1[2] - 50.0 / 3.0).abs() < 1e-9);
        // Ends clip the window.
        assert!((s1[0] - 0.0).abs() < 1e-9);
        // MA7 averages everything: equals One-Shot smoothing.
        let s7 = smooth(&w, 7);
        for v in &s7 {
            assert!((v - 100.0 / 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn one_shot_fully_balances_figure6() {
        let bounds = even_bounds(8, 800);
        let nb = target_boundaries(&bounds, 800, &figure6_weights(), BalanceAlgorithm::OneShot);
        // All weight sits in [200, 600); equal eighths of the weight are
        // 50-key slices of that hot range.  Partition 0 keeps the domain
        // start; partition 1's boundary lands at the start of the hot range.
        assert_eq!(nb[0], 0);
        assert_eq!(nb[1], 250, "1/8 of the weight = 50 hot keys into [200,600)");
        assert_eq!(nb[4], 400);
        assert_eq!(nb[7], 550);
        assert!(nb.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ma_with_full_window_equals_one_shot() {
        let bounds = even_bounds(8, 800);
        let w = figure6_weights();
        let one = target_boundaries(&bounds, 800, &w, BalanceAlgorithm::OneShot);
        let ma7 = target_boundaries(&bounds, 800, &w, BalanceAlgorithm::MovingAverage(7));
        assert_eq!(one, ma7, "MA7 turns into One-Shot with 8 partitions");
    }

    #[test]
    fn ma1_moves_less_than_one_shot() {
        let bounds = even_bounds(8, 800);
        let w = figure6_weights();
        let one = target_boundaries(&bounds, 800, &w, BalanceAlgorithm::OneShot);
        let ma1 = target_boundaries(&bounds, 800, &w, BalanceAlgorithm::MovingAverage(1));
        let movement =
            |nb: &[u64]| -> u64 { nb.iter().zip(&bounds).map(|(a, b)| a.abs_diff(*b)).sum() };
        assert!(
            movement(&ma1) < movement(&one),
            "MA1 {} must move less than One-Shot {}",
            movement(&ma1),
            movement(&one)
        );
        assert!(movement(&ma1) > 0, "MA1 still adapts");
    }

    #[test]
    fn repeated_ma_converges_towards_balance() {
        let mut bounds = even_bounds(8, 800);
        let hot = (200u64, 600u64);
        for _ in 0..40 {
            // Re-observe: weight of each partition = overlap with hot range.
            let w: Vec<f64> = (0..8)
                .map(|i| {
                    let lo = bounds[i];
                    let hi = if i + 1 < 8 { bounds[i + 1] } else { 800 };
                    (hi.min(hot.1).saturating_sub(lo.max(hot.0))) as f64
                })
                .collect();
            if !needs_balancing(&w, 0.05) {
                break;
            }
            bounds = target_boundaries(&bounds, 800, &w, BalanceAlgorithm::MovingAverage(1));
        }
        // After convergence every partition holds ~1/8 of the hot range.
        let w: Vec<f64> = (0..8)
            .map(|i| {
                let lo = bounds[i];
                let hi = if i + 1 < 8 { bounds[i + 1] } else { 800 };
                (hi.min(600).saturating_sub(lo.max(200))) as f64
            })
            .collect();
        assert!(
            !needs_balancing(&w, 0.25),
            "converged: {w:?} bounds {bounds:?}"
        );
    }

    #[test]
    fn zero_weight_returns_current() {
        let bounds = even_bounds(4, 400);
        let nb = target_boundaries(&bounds, 400, &[0.0; 4], BalanceAlgorithm::OneShot);
        assert_eq!(nb, bounds);
    }

    #[test]
    fn boundaries_stay_strictly_increasing_under_extreme_skew() {
        // All weight in the last partition.
        let bounds = even_bounds(8, 64);
        let mut w = vec![0.0; 8];
        w[7] = 100.0;
        let nb = target_boundaries(&bounds, 64, &w, BalanceAlgorithm::OneShot);
        assert!(nb.windows(2).all(|x| x[0] < x[1]), "{nb:?}");
        assert!(*nb.last().unwrap() < 64);
    }

    #[test]
    fn transfer_plan_matches_figure7() {
        // Figure 7: partitions 1..4 (of 8) balancing with One-Shot; the
        // workload is symmetric so we reproduce the left half: old equal
        // bounds, new bounds concentrated in the hot upper half.
        let old = vec![0u64, 100, 200, 300];
        let new = vec![0u64, 225, 250, 275]; // partitions 2-4 take hot slices
        let plan = transfer_plan(&old, &new, 400);
        // Partition 1 takes over partition 2's entire old range (the paper's
        // "take over the entire range of partition 2" link transfer).
        assert!(plan.contains(&Transfer {
            from: 1,
            to: 0,
            lo: 100,
            hi: 200
        }));
        // Partition 3 hands the lower part of its range backwards.
        assert!(plan.iter().any(|t| t.from == 2 && t.to < 2));
        // No transfer maps a range onto its current owner.
        assert!(plan.iter().all(|t| t.from != t.to));
        // Transferred ranges are disjoint and within the domain.
        for t in &plan {
            assert!(t.lo < t.hi && t.hi <= 400);
        }
    }

    #[test]
    fn transfer_plan_empty_when_unchanged() {
        let b = vec![0u64, 10, 20];
        assert!(transfer_plan(&b, &b, 30).is_empty());
    }

    #[test]
    fn size_balance_moves_equalize() {
        let moves = size_balance_moves(&[100, 0, 50, 50]);
        // Mean = 50; partition 0 gives 50 to partition 1.
        assert_eq!(moves, vec![(0, 1, 50)]);
        assert!(size_balance_moves(&[10, 10, 10]).is_empty());
        assert!(size_balance_moves(&[7]).is_empty());
    }

    #[test]
    fn a_back_off_is_filed_once_however_long_it_lasts() {
        use crate::command::DataObjectId;
        use crate::monitor::AUDIT_CAPACITY;
        use BalanceVerdict::*;
        let mut b = Balancer::new(BalancerConfig::default());
        b.add_object();
        b.add_object();
        let (hot, other) = (DataObjectId(0), DataObjectId(1));
        let weights = [0.0, 0.0, 100.0, 100.0];
        let sample = Sample {
            accesses: vec![0, 0, 100, 100],
            ..Default::default()
        };
        let cycle = b.judge(hot, &sample, &weights).expect("over threshold");
        b.monitor.record_decision(BalanceDecision {
            verdict: Rebalanced,
            ..cycle
        });
        // Before each round a cycle moved every key without lowering the
        // imbalance: one entry per back-off, none per skipped period.
        for round in 0..AUDIT_CAPACITY - 2 {
            b.backoff[0].last_moved_frac = 1.0;
            assert!(b.judge(hot, &sample, &weights).is_none());
            assert_eq!(
                b.monitor.last_decision(hot).unwrap().verdict,
                OscillationDetected
            );
            let skip = b.backoff[0].skip;
            assert_eq!(skip, if round < 3 { 2 << round } else { 16 });
            for _ in 0..skip {
                assert!(b.judge(hot, &sample, &weights).is_none());
                let held = b.judge(other, &sample, &weights).is_none();
                assert!(!held, "another object is not held");
            }
            let again = b.judge(hot, &sample, &weights).is_some();
            assert!(again, "{skip} periods, then evaluated again");
        }
        let log = b.monitor.audit_log();
        assert_eq!(log.len(), AUDIT_CAPACITY - 1);
        assert_eq!(
            log[0].verdict, Rebalanced,
            "the cycle that moved data stays"
        );
        assert!(log.iter().skip(1).all(|d| d.verdict == OscillationDetected));
    }

    #[test]
    fn size_balance_multiple_donors_and_receivers() {
        let lens = [90usize, 10, 80, 20];
        let moves = size_balance_moves(&lens);
        let mut after = lens;
        for (f, t, n) in moves {
            after[f] -= n;
            after[t] += n;
        }
        assert_eq!(after, [50, 50, 50, 50]);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn bounds_and_weights() -> impl Strategy<Value = (Vec<u64>, u64, Vec<f64>)> {
        (2usize..32)
            .prop_flat_map(|n| {
                (
                    Just(n),
                    proptest::collection::vec(1u64..1000, n),
                    proptest::collection::vec(0u32..1000, n),
                )
            })
            .prop_map(|(_, gaps, weights)| {
                // Strictly increasing boundaries starting at 0.
                let mut bounds = Vec::with_capacity(gaps.len());
                let mut acc = 0u64;
                for g in &gaps {
                    bounds.push(acc);
                    acc += g;
                }
                let domain_end = acc.max(bounds.last().unwrap() + 1);
                (
                    bounds,
                    domain_end,
                    weights.into_iter().map(f64::from).collect(),
                )
            })
    }

    /// Two random strictly increasing bound sets from 0 over one small
    /// domain, and the domain's end.
    fn old_and_new_bounds() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, u64)> {
        (2usize..12, 12u64..400)
            .prop_flat_map(|(n, end)| {
                let cuts = || proptest::collection::btree_set(1..end, n - 1);
                (cuts(), cuts(), Just(end))
            })
            .prop_map(|(a, b, end)| {
                // A set drawn short (duplicates) shortens both alike.
                let n = a.len().min(b.len());
                let bounds =
                    |cuts: BTreeSet<u64>| std::iter::once(0).chain(cuts).take(n + 1).collect();
                (bounds(a), bounds(b), end)
            })
    }

    proptest! {
        #[test]
        fn target_boundaries_always_valid((bounds, end, weights) in bounds_and_weights()) {
            for algo in [
                BalanceAlgorithm::OneShot,
                BalanceAlgorithm::MovingAverage(1),
                BalanceAlgorithm::MovingAverage(4),
            ] {
                let nb = target_boundaries(&bounds, end, &weights, algo);
                prop_assert_eq!(nb.len(), bounds.len());
                prop_assert_eq!(nb[0], bounds[0], "domain minimum never moves");
                prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
                prop_assert!(*nb.last().unwrap() < end, "inside the domain");
            }
        }

        #[test]
        fn transfer_plan_covers_exactly_the_ownership_diff(
            (bounds, end, weights) in bounds_and_weights())
        {
            let nb = target_boundaries(&bounds, end, &weights, BalanceAlgorithm::OneShot);
            let plan = transfer_plan(&bounds, &nb, end);
            let n = bounds.len();
            let owner = |bs: &[u64], k: u64| -> usize {
                bs.iter().rposition(|&b| b <= k).unwrap()
            };
            // Sampled keys: every key whose old and new owner differ must be
            // covered by exactly one transfer (from old to new); keys whose
            // owner is unchanged must not be covered by any.
            let step = (end / 257).max(1);
            for k in (0..end).step_by(step as usize) {
                let old = owner(&bounds, k);
                let new = owner(&nb, k);
                let covering: Vec<&Transfer> =
                    plan.iter().filter(|t| t.lo <= k && k < t.hi).collect();
                if old == new {
                    prop_assert!(covering.is_empty(), "key {} moved needlessly", k);
                } else {
                    prop_assert_eq!(covering.len(), 1, "key {} covered once", k);
                    prop_assert_eq!(covering[0].from, old);
                    prop_assert_eq!(covering[0].to, new);
                }
            }
            let _ = n;
        }

        #[test]
        fn donor_first_reorders_the_plan_without_changing_its_outcome(
            (old, new, end) in old_and_new_bounds())
        {
            let plan = transfer_plan(&old, &new, end);
            let order = donor_first(&plan);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..plan.len()).collect::<Vec<_>>(), "a permutation");
            // No partition receives before its last give.
            for (at, &i) in order.iter().enumerate() {
                let later_give = order[at..].iter().any(|&j| plan[j].from == plan[i].to);
                prop_assert!(!later_give, "{} receives before it gives: {:?}", plan[i].to, plan);
            }
            // Each receiver's transfers run back to back.
            let mut seen = Vec::new();
            for &i in &order {
                if seen.last() != Some(&plan[i].to) {
                    prop_assert!(!seen.contains(&plan[i].to), "{} receives twice", plan[i].to);
                    seen.push(plan[i].to);
                }
            }
            // Moving every owned key of each range from its donor ends in the
            // same ownership either way, and it is the new bounds'.
            let owner = |bs: &[u64], k: u64| bs.iter().rposition(|&b| b <= k).unwrap();
            let apply = |order: &mut dyn Iterator<Item = usize>| {
                let mut own: BTreeMap<u64, usize> = (0..end).map(|k| (k, owner(&old, k))).collect();
                for i in order {
                    let t = plan[i];
                    for (_, o) in own.range_mut(t.lo..t.hi).filter(|(_, o)| **o == t.from) {
                        *o = t.to;
                    }
                }
                own
            };
            let in_plan_order = apply(&mut (0..plan.len()));
            prop_assert_eq!(&apply(&mut order.iter().copied()), &in_plan_order);
            let want: BTreeMap<u64, usize> = (0..end).map(|k| (k, owner(&new, k))).collect();
            prop_assert_eq!(&in_plan_order, &want);
        }

        #[test]
        fn smoothing_preserves_total(weights in proptest::collection::vec(0f64..100.0, 1..64),
                                     k in 0usize..8)
        {
            let s = smooth(&weights, k);
            prop_assert_eq!(s.len(), weights.len());
            // Smoothing is an averaging operator: values stay within the
            // min/max envelope of the input.
            let lo = weights.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = weights.iter().cloned().fold(0.0, f64::max);
            for v in &s {
                prop_assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9);
            }
        }

        #[test]
        fn size_moves_conserve_and_equalize(lens in proptest::collection::vec(0usize..10_000, 2..32)) {
            let moves = size_balance_moves(&lens);
            let mut after = lens.clone();
            for (f, t, n) in &moves {
                prop_assert!(after[*f] >= *n, "never move more than held");
                after[*f] -= n;
                after[*t] += n;
            }
            let before_total: usize = lens.iter().sum();
            let after_total: usize = after.iter().sum();
            prop_assert_eq!(before_total, after_total, "tuples conserved");
            let mean = before_total / lens.len();
            for l in &after {
                prop_assert!(l.abs_diff(mean) <= lens.len() + 1, "near-equal: {:?}", after);
            }
        }
    }
}
