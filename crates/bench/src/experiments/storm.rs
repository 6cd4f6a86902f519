//! The storm scenario — every subsystem under sustained skewed traffic.
//!
//! The paper's figures exercise the engine one mechanism at a time; the
//! storm composes them into the ROADMAP's north-star claim ("heavy traffic
//! from millions of users"): a population of Zipf-skewed clients drives the
//! simulated SGI UV 2000 at 512 AEUs through a six-phase
//! [`Storm`](eris_workloads::Storm) timeline — uniform warmup, a Zipf
//! hotspot, continuous hotspot drift, a write surge, a 1.6×-load flash
//! crowd, cooldown — while the MA-8 balancer adapts live, journaling is on,
//! and a fail point kills the "process" mid-drift.  Recovery rebuilds from
//! the checkpoint + journals and the storm resumes.
//!
//! Traffic is **open loop** under the virtual clock: the warmup phase runs
//! closed loop to calibrate the engine's capacity, then every later phase
//! credits arrival tokens at `load × 80%-of-capacity` per unit regardless
//! of the service rate, so the flash crowd genuinely oversubscribes the
//! engine instead of politely waiting for it.
//!
//! Proof obligations, asserted via [`StormReport::slo_failures`]:
//!
//! * **conservation** — per-object `enqueued == executed` and the trace
//!   ledger `stamped == traced + dropped` balance in *both* process
//!   lifetimes (the dying process's in-memory accounting and the recovered
//!   engine's);
//! * **zero loss** — every storm lookup hits: the checkpoint is the
//!   durable base for the whole key domain, so a single miss would mean
//!   recovery lost a key;
//! * **SLOs** — p50/p99 queue-wait/execution latencies (log2-histogram
//!   quantiles, host time, generous bounds) and a forwarding-hops p99
//!   bound from the latency-attribution tables.
//!
//! Results land in `BENCH_storm.json`; when `ERIS_STORM_BASELINE` names a
//! baseline file (CI commits `ci/BENCH_storm.baseline.json`), the
//! machine-portable metrics are gated exactly like the kernels benchmark.

use super::driver::load_strided_index;
use super::kernels::Metrics;
use crate::{fmt_rate, scale_for, TextTable};
use eris_core::prelude::*;
use eris_core::DataObjectId;
use eris_durability::{Durability, FailPoints, FP_JOURNAL_PRE_SYNC};
use eris_obs::{LatencySeries, SloConfig, SloEngine, SloTotals};
use eris_workloads::{Storm, StormParams, StormSampler};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// One paper second, time-compressed (same model as Figure 13).
const UNIT_S: f64 = 1e-3;
const TIME_COMPRESSION: u64 = 1000;

/// Keys per lookup / pairs per upsert command.
const READ_BATCH: u64 = 64;
const WRITE_BATCH: u64 = 32;

/// Open-loop arrival rate as a fraction of calibrated capacity, so the
/// 1.6× flash crowd oversubscribes (1.28×) while cooldown (0.6×) drains.
const TARGET_UTILIZATION: f64 = 0.8;

/// The simulated client population (ISSUE: "millions of simulated users").
const CLIENTS: u64 = 2 << 20;

/// Metrics gated against `ci/BENCH_storm.baseline.json`.  All are
/// machine-portable: exact conservation booleans (rendered as 1.0),
/// the end-to-end hit rate, and a virtual-time throughput ratio —
/// absolute ns and mops are recorded but track the runner's hardware.
const GATED: &[&str] = &[
    "hit_rate",
    "conservation",
    "trace_conservation",
    "rebalanced",
    "recovered",
    "flash_over_warmup",
    "slo_burn_ok",
];

/// One storm unit in virtual nanoseconds (the SLO tracker's clock).
const UNIT_NS: u64 = (UNIT_S * 1e9) as u64;

/// Engine-wide SLO burn tracking across process lifetimes: one
/// pseudo-tenant (id 0), cumulative totals that survive the crash,
/// global unit time as the clock.  "Bad latency" is `count_over` of the
/// objective threshold on the sampled exec histograms; "errors" are
/// trace stamps dropped before execution.  Both numerators cover only
/// sampled commands while the denominator covers all executed ops, so
/// the burns are diluted lower bounds — a healthy storm must keep them
/// under 1× budget, and that is what `slo_failures` asserts.
struct SloTrack {
    slo: SloEngine,
    acc: SloTotals,
    worst_latency_burn: f64,
    worst_error_burn: f64,
    observations: u64,
    // Per-lifetime cumulative baselines (telemetry restarts at zero in
    // the recovered engine).
    last_ops: u64,
    last_bad: u64,
    last_dropped: u64,
}

impl SloTrack {
    fn new() -> Self {
        SloTrack {
            slo: SloEngine::new(SloConfig {
                // 8-unit fast window, 64-unit slow window: the fast one
                // reacts inside a single storm phase, the slow one spans
                // most of the 110-unit schedule.
                windows_ns: vec![8 * UNIT_NS, 64 * UNIT_NS],
                ..SloConfig::default()
            }),
            acc: SloTotals::default(),
            worst_latency_burn: 0.0,
            worst_error_burn: 0.0,
            observations: 0,
            last_ops: 0,
            last_bad: 0,
            last_dropped: 0,
        }
    }

    fn bad_and_dropped(&self, tel: &TelemetrySnapshot) -> (u64, u64) {
        let threshold = self.slo.config().latency_threshold_ns;
        let bad = tel
            .latency
            .iter()
            .map(|(_, s)| s.exec.count_over(threshold))
            .sum();
        (bad, tel.trace.dropped)
    }

    /// Re-baseline the per-lifetime counters (idempotent; called at the
    /// start of every `run_units` segment).
    fn begin_lifetime(&mut self, e: &Engine, tel: &TelemetrySnapshot) {
        let c = e.results().counts();
        self.last_ops = c.lookups + c.upserts;
        let (bad, dropped) = self.bad_and_dropped(tel);
        self.last_bad = bad;
        self.last_dropped = dropped;
    }

    /// One unit's observation tick: fold the lifetime deltas into the
    /// cross-lifetime totals, feed the tracker, and record the worst
    /// burn seen over any window.
    fn observe_unit(&mut self, e: &Engine, tel: &TelemetrySnapshot, unit: u64) {
        let c = e.results().counts();
        let ops = c.lookups + c.upserts;
        let (bad, dropped) = self.bad_and_dropped(tel);
        self.acc.requests += ops.saturating_sub(self.last_ops);
        self.acc.bad_latency += bad.saturating_sub(self.last_bad);
        self.acc.errors += dropped.saturating_sub(self.last_dropped);
        self.last_ops = ops;
        self.last_bad = bad;
        self.last_dropped = dropped;
        let at_ns = (unit + 1) * UNIT_NS;
        self.slo.observe(0, at_ns, self.acc);
        self.observations += 1;
        for b in self.slo.burn_rates(0, at_ns) {
            self.worst_latency_burn = self.worst_latency_burn.max(b.latency_burn);
            self.worst_error_burn = self.worst_error_burn.max(b.error_burn);
        }
    }
}

/// How a storm run is scaled.
pub struct StormConfig {
    /// Small machine (8 AEUs) and key domain instead of the 512-AEU UV 2000.
    pub quick: bool,
    /// Inject a mid-drift fail-point crash and recover.
    pub chaos: bool,
    /// Schedule compression: divides every phase length (1 = the paper's
    /// 110-unit shape, 5 = a 22-unit squall).
    pub time_div: u64,
    /// Durable directory override (default: a fresh temp dir, removed on
    /// success).
    pub dir: Option<PathBuf>,
}

impl StormConfig {
    /// The CI smoke shape: 8 AEUs, 22 units, chaos on.
    pub fn quick() -> Self {
        StormConfig {
            quick: true,
            chaos: true,
            time_div: 5,
            dir: None,
        }
    }

    /// The full storm: SGI UV 2000, 512 AEUs, the paper's 110-unit length.
    pub fn full() -> Self {
        StormConfig {
            quick: false,
            chaos: true,
            time_div: 1,
            dir: None,
        }
    }
}

/// Aggregated traffic of one storm phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStat {
    pub phase: usize,
    pub units: u64,
    pub ops: u64,
    /// Throughput in million ops per *virtual* second.
    pub mops: f64,
    /// Balancer cycles that ran during the phase.
    pub rebalance_cycles: u64,
}

/// p50/p99 decomposition of one op kind, merged across process lifetimes.
#[derive(Debug, Clone, Copy)]
pub struct OpLatency {
    pub op: &'static str,
    pub traced: u64,
    pub queue_p50_ns: u64,
    pub queue_p99_ns: u64,
    pub exec_p50_ns: u64,
    pub exec_p99_ns: u64,
    pub hops_p99: u64,
}

/// Everything a storm run proves and measures.
#[derive(Debug)]
pub struct StormReport {
    pub aeus: usize,
    pub units: u64,
    pub virtual_keys: u64,
    pub real_keys: u64,
    pub phases: Vec<PhaseStat>,
    pub latencies: Vec<OpLatency>,
    pub hit_rate: f64,
    /// Per-object enqueued == executed, in every process lifetime.
    pub conservation_ok: bool,
    /// stamped == traced + dropped, in every process lifetime.
    pub trace_ok: bool,
    pub rebalance_cycles: u64,
    pub keys_moved: u64,
    pub forwarded: u64,
    pub stamped: u64,
    pub traced: u64,
    pub dropped_stamps: u64,
    /// Chaos actually ran: the fail point fired and recovery restored the
    /// checkpoint base.
    pub recovered: bool,
    pub replayed_records: u64,
    /// Unit at which the injected crash was detected (chaos runs).
    pub crashed_at_unit: Option<u64>,
    /// SLO burn-tracker observation ticks (one per storm unit).
    pub slo_observations: u64,
    /// Worst per-window latency burn seen at any unit (fraction of the
    /// latency error budget consumed per unit of budgeted time).
    pub worst_latency_burn: f64,
    /// Worst per-window error burn (dropped-stamp fraction over budget).
    pub worst_error_burn: f64,
}

/// SLO bounds asserted over a [`StormReport`].  Latency stamps are host
/// time (the simulation's own compute), so the ns bounds are generous
/// catastrophe detectors; the structural checks (conservation, hit rate,
/// hops) are exact.
pub struct Slo {
    pub min_hit_rate: f64,
    pub max_queue_p99_ns: u64,
    pub max_exec_p99_ns: u64,
    pub max_hops_p99: u64,
}

impl Default for Slo {
    fn default() -> Self {
        Slo {
            min_hit_rate: 1.0,
            max_queue_p99_ns: 4_000_000_000,
            max_exec_p99_ns: 500_000_000,
            max_hops_p99: 8,
        }
    }
}

impl StormReport {
    /// Every SLO or proof obligation the run failed (empty = pass).
    pub fn slo_failures(&self, slo: &Slo) -> Vec<String> {
        let mut f = Vec::new();
        if !self.conservation_ok {
            f.push("conservation violated: enqueued != executed".into());
        }
        if !self.trace_ok {
            f.push("trace ledger violated: stamped != traced + dropped".into());
        }
        if self.hit_rate < slo.min_hit_rate {
            f.push(format!(
                "hit rate {:.6} below {:.6}: recovery lost keys",
                self.hit_rate, slo.min_hit_rate
            ));
        }
        if self.rebalance_cycles == 0 {
            f.push("balancer never ran a cycle".into());
        }
        for op in ["lookup", "upsert"] {
            if !self.latencies.iter().any(|l| l.op == op && l.traced > 0) {
                f.push(format!("no traced {op} latencies"));
            }
        }
        for l in &self.latencies {
            if l.traced == 0 {
                continue;
            }
            if l.queue_p50_ns > l.queue_p99_ns || l.exec_p50_ns > l.exec_p99_ns {
                f.push(format!("{}: p50 above p99", l.op));
            }
            if l.queue_p99_ns > slo.max_queue_p99_ns {
                f.push(format!(
                    "{}: queue-wait p99 {}ns over {}ns",
                    l.op, l.queue_p99_ns, slo.max_queue_p99_ns
                ));
            }
            if l.exec_p99_ns > slo.max_exec_p99_ns {
                f.push(format!(
                    "{}: exec p99 {}ns over {}ns",
                    l.op, l.exec_p99_ns, slo.max_exec_p99_ns
                ));
            }
            if l.hops_p99 > slo.max_hops_p99 {
                f.push(format!(
                    "{}: hops p99 {} over {}",
                    l.op, l.hops_p99, slo.max_hops_p99
                ));
            }
        }
        if self.crashed_at_unit.is_some() && !self.recovered {
            f.push("crash injected but recovery did not complete".into());
        }
        if self.slo_observations == 0 {
            f.push("SLO burn tracker never observed a unit".into());
        }
        if self.worst_latency_burn > 1.0 {
            f.push(format!(
                "engine latency budget burned at {:.2}x in some window",
                self.worst_latency_burn
            ));
        }
        if self.worst_error_burn > 1.0 {
            f.push(format!(
                "engine error budget (dropped stamps) burned at {:.2}x in some window",
                self.worst_error_burn
            ));
        }
        f
    }
}

/// Parameters the driver publishes to the per-AEU generators, plus the
/// open-loop token pool.  All accesses are `Relaxed`: the cooperative
/// runtime is single-threaded, and the counters are independent.
struct Control {
    generation: AtomicU64,
    phase: AtomicU64,
    hot_lo: AtomicU64,
    hot_hi: AtomicU64,
    theta_bits: AtomicU64,
    hot_frac_bits: AtomicU64,
    write_frac_bits: AtomicU64,
    /// Arrival tokens, denominated in single-key operations.
    tokens: AtomicU64,
    /// 0 = closed loop (capacity calibration), 1 = metered open loop.
    open_loop: AtomicU64,
}

impl Control {
    fn new(initial: &StormParams) -> Self {
        let c = Control {
            generation: AtomicU64::new(0),
            phase: AtomicU64::new(0),
            hot_lo: AtomicU64::new(0),
            hot_hi: AtomicU64::new(0),
            theta_bits: AtomicU64::new(0),
            hot_frac_bits: AtomicU64::new(0),
            write_frac_bits: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            open_loop: AtomicU64::new(0),
        };
        c.publish(initial);
        c
    }

    fn publish(&self, p: &StormParams) {
        self.phase.store(p.phase as u64, Relaxed);
        self.hot_lo.store(p.hot_lo, Relaxed);
        self.hot_hi.store(p.hot_hi, Relaxed);
        self.theta_bits.store(p.theta.to_bits(), Relaxed);
        self.hot_frac_bits.store(p.hot_fraction.to_bits(), Relaxed);
        self.write_frac_bits
            .store(p.write_fraction.to_bits(), Relaxed);
        self.generation.fetch_add(1, Relaxed);
    }

    fn params(&self) -> StormParams {
        StormParams {
            phase: self.phase.load(Relaxed) as usize,
            hot_lo: self.hot_lo.load(Relaxed),
            hot_hi: self.hot_hi.load(Relaxed),
            hot_fraction: f64::from_bits(self.hot_frac_bits.load(Relaxed)),
            theta: f64::from_bits(self.theta_bits.load(Relaxed)),
            write_fraction: f64::from_bits(self.write_frac_bits.load(Relaxed)),
            load: 1.0,
        }
    }

    /// Claim up to `want` arrival tokens; returns how many were granted.
    fn claim(&self, want: u64) -> u64 {
        let mut got = 0;
        let _ = self.tokens.fetch_update(Relaxed, Relaxed, |t| {
            got = t.min(want);
            if got == 0 {
                None
            } else {
                Some(t - got)
            }
        });
        got
    }
}

fn machine(quick: bool) -> eris_numa::Topology {
    if quick {
        // The CI squall: 2 nodes x 4 cores = 8 AEUs.
        eris_numa::machines::custom_machine("storm-smoke", 2, 4, 20.0, 100.0, 10.0, 60.0)
    } else {
        eris_numa::sgi_machine()
    }
}

fn engine_config(scale: u64) -> EngineConfig {
    EngineConfig {
        size_scale: scale,
        transfer_scale: Some((scale / TIME_COMPRESSION).max(1)),
        balancer: BalancerConfig {
            enabled: true,
            algorithm: BalanceAlgorithm::MovingAverage(8),
            threshold_cv: 0.12,
            period_s: 0.5 * UNIT_S,
            ..Default::default()
        },
        routing: RoutingConfig {
            // Denser than the default 1-in-64 so the short CI squall still
            // populates every per-op histogram.
            trace_sample_every: 16,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Attach a storm generator to every AEU: each epoch the AEU claims one
/// command's worth of arrival tokens and emits a lookup or upsert batch
/// drawn from the current storm parameters.  Upserts write `key → f(key)`
/// (idempotent), so journal replay after a crash is harmless.
fn attach_storm_gens(
    e: &mut Engine,
    idx: DataObjectId,
    ctl: &Arc<Control>,
    storm: &Storm,
    scale: u64,
) {
    let initial = storm.params_at(0.0);
    for a in e.aeu_ids() {
        let ctl = Arc::clone(ctl);
        let mut s = StormSampler::new(
            0x5707 + a.0 as u64 * 0x9E37_79B9,
            storm.domain(),
            CLIENTS,
            initial,
        );
        let mut my_gen = 0u64;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                let g = ctl.generation.load(Relaxed);
                if g != my_gen {
                    my_gen = g;
                    s.retarget(ctl.params(), g);
                }
                let write = s.draw_write();
                let want = if write { WRITE_BATCH } else { READ_BATCH };
                let got = if ctl.open_loop.load(Relaxed) == 1 {
                    ctl.claim(want)
                } else {
                    want
                };
                if got == 0 {
                    return;
                }
                let client = s.draw_client();
                if write {
                    let pairs: Vec<(u64, u64)> = (0..got)
                        .map(|_| {
                            let k = (s.draw_key() / scale) * scale;
                            (k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
                        })
                        .collect();
                    out.push(DataCommand {
                        object: idx,
                        ticket: client,
                        payload: Payload::Upsert { pairs },
                    });
                } else {
                    let keys: Vec<u64> = (0..got).map(|_| (s.draw_key() / scale) * scale).collect();
                    out.push(DataCommand {
                        object: idx,
                        ticket: client,
                        payload: Payload::Lookup { keys },
                    });
                }
            })),
        );
    }
}

fn detach_gens(e: &mut Engine) {
    for a in e.aeu_ids() {
        e.set_generator(a, None);
    }
}

/// One virtual time unit's traffic accounting.
struct UnitSample {
    phase: usize,
    ops: u64,
    cycles_delta: u64,
}

/// Drive `units` of storm traffic on one engine (one process lifetime).
/// Publishes parameters and credits arrival tokens per unit; calibrates
/// the open-loop base rate at the end of the warmup phase.  Returns the
/// unit at which an armed fail point was detected, if any.
#[allow(clippy::too_many_arguments)]
fn run_units(
    e: &mut Engine,
    storm: &Storm,
    ctl: &Control,
    units: std::ops::Range<u64>,
    warmup_until: u64,
    base_rate: &mut Option<f64>,
    fail: Option<&FailPoints>,
    samples: &mut Vec<UnitSample>,
    slo: &mut SloTrack,
) -> Option<u64> {
    let t0 = e.clock().now_secs();
    let base = e.results().counts();
    let mut last_ops = 0u64;
    let tel0 = e.telemetry();
    let mut last_cycles = tel0.balancer.cycles;
    slo.begin_lifetime(e, &tel0);
    let first = units.start;
    for unit in units {
        let p = storm.params_at(unit as f64);
        ctl.publish(&p);
        if unit >= warmup_until {
            if base_rate.is_none() {
                // Calibrate capacity from the closed-loop warmup phase.
                let warmup_ops: u64 = samples.iter().map(|s| s.ops).sum();
                let per_unit = warmup_ops as f64 / warmup_until.max(1) as f64;
                *base_rate = Some(per_unit * TARGET_UTILIZATION);
                ctl.open_loop.store(1, Relaxed);
            }
            let credit = base_rate.unwrap() * storm.load_between(unit as f64, (unit + 1) as f64);
            ctl.tokens.fetch_add(credit.ceil() as u64, Relaxed);
        }
        let end = t0 + (unit - first + 1) as f64 * UNIT_S;
        while e.clock().now_secs() < end {
            e.run_epoch();
        }
        let c = e.results().counts() - base;
        let total = c.lookups + c.upserts;
        let tel = e.telemetry();
        let cycles = tel.balancer.cycles;
        samples.push(UnitSample {
            phase: p.phase,
            ops: total - last_ops,
            cycles_delta: cycles - last_cycles,
        });
        slo.observe_unit(e, &tel, unit);
        last_ops = total;
        last_cycles = cycles;
        if fail.is_some_and(|f| f.crashed()) {
            return Some(unit);
        }
    }
    None
}

/// Merge per-(object, op) latency series into per-op-tag series,
/// accumulating across process lifetimes.
fn merge_latency(into: &mut Vec<(u8, LatencySeries)>, tel: &TelemetrySnapshot) {
    for ((_, op), series) in &tel.latency {
        let slot = match into.iter_mut().find(|(o, _)| o == op) {
            Some((_, s)) => s,
            None => {
                into.push((*op, LatencySeries::default()));
                &mut into.last_mut().unwrap().1
            }
        };
        slot.queue_wait.merge(&series.queue_wait);
        slot.exec.merge(&series.exec);
        slot.hops.merge(&series.hops);
    }
}

/// Run one storm end to end; with `cfg.chaos` the run spans two process
/// lifetimes separated by a fail-point crash and a recovery.
pub fn run_storm(cfg: &StormConfig) -> StormReport {
    let virtual_keys: u64 = if cfg.quick { 1 << 22 } else { 512 << 20 };
    let real_keys: u64 = if cfg.quick { 1 << 16 } else { 1 << 18 };
    let scale = scale_for(virtual_keys, real_keys);
    let storm = Storm::paper_storm(virtual_keys, cfg.time_div);
    let units = storm.duration_s();
    let warmup_until = storm.phases()[0].until_s;
    // Crash mid-drift (phase 2), once the balancer has chased the hotspot.
    let crash_unit = (storm.phases()[1].until_s + storm.phases()[2].until_s) / 2;

    let dir = cfg
        .dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("eris-storm-{}", std::process::id())));
    if cfg.chaos && dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }

    let mut e = Engine::new(machine(cfg.quick), engine_config(scale));
    let aeus = e.num_aeus();
    let idx = e.create_index("storm-keys", virtual_keys);
    load_strided_index(&mut e, idx, real_keys, scale);

    let ctl = Arc::new(Control::new(&storm.params_at(0.0)));
    let fail = Arc::new(FailPoints::new());
    let mut dura = if cfg.chaos {
        let d = Durability::open_with(&dir, aeus, fail.clone()).unwrap();
        d.attach(&mut e);
        Some(d)
    } else {
        None
    };
    if let Some(d) = dura.as_mut() {
        // The checkpoint is the durable base: the full loaded domain.
        d.checkpoint(&mut e).unwrap();
    }

    attach_storm_gens(&mut e, idx, &ctl, &storm, scale);

    let mut samples = Vec::new();
    let mut slo_track = SloTrack::new();
    let mut base_rate = None;
    let mut merged: Vec<(u8, LatencySeries)> = Vec::new();
    let mut crashed_at = None;
    let mut recovered = false;
    let mut replayed = 0u64;
    let (mut lookups, mut hits) = (0u64, 0u64);
    let (mut conservation_ok, mut trace_ok) = (true, true);
    let (mut cycles, mut keys_moved, mut forwarded) = (0u64, 0u64, 0u64);
    let (mut stamped, mut traced, mut dropped) = (0u64, 0u64, 0u64);

    let mut finish_segment = |e: &mut Engine, samples_done: bool| {
        // Drain the engine so conservation is exact, then account this
        // process lifetime.  A post-crash drain models the dying process
        // finishing its in-memory work with a dead journal sink — its
        // unsynced tail is what recovery is allowed to lose.
        let _ = samples_done;
        detach_gens(e);
        e.run_until_drained();
        let tel = e.telemetry();
        conservation_ok &= tel.conservation_holds();
        trace_ok &= tel.trace.balances();
        cycles += tel.balancer.cycles;
        keys_moved += tel.balancer.keys_moved;
        forwarded += tel.totals.forwarded;
        stamped += tel.trace.stamped;
        traced += tel.trace.traced;
        dropped += tel.trace.dropped;
        merge_latency(&mut merged, &tel);
        let c = e.results().counts();
        lookups += c.lookups;
        hits += c.lookup_hits;
    };

    if cfg.chaos {
        // Pre-crash storm: warmup, hotspot, and the first half of the
        // drift phase run journaled and crash-free.
        let pre = run_units(
            &mut e,
            &storm,
            &ctl,
            0..crash_unit,
            warmup_until,
            &mut base_rate,
            None,
            &mut samples,
            &mut slo_track,
        );
        assert!(pre.is_none());
        // Arm mid-drift: one of the next group commits kills the process.
        fail.arm(FP_JOURNAL_PRE_SYNC, 8);
        let crashed = run_units(
            &mut e,
            &storm,
            &ctl,
            crash_unit..units,
            warmup_until,
            &mut base_rate,
            Some(&fail),
            &mut samples,
            &mut slo_track,
        );
        let at = crashed
            .unwrap_or_else(|| panic!("armed {FP_JOURNAL_PRE_SYNC} never fired during the storm"));
        crashed_at = Some(at);
        finish_segment(&mut e, true);
        drop(e);
        drop(dura.take());

        // Phase B: recover into a fresh engine and resume the storm.
        let mut r = Engine::new(machine(cfg.quick), engine_config(scale));
        let report = Durability::recover(&mut r, &dir).unwrap();
        recovered = report.checkpoint == Some(0);
        replayed = report.replayed_records;
        let redura = Durability::open(&dir, aeus).unwrap();
        redura.attach(&mut r);
        attach_storm_gens(&mut r, idx, &ctl, &storm, scale);
        let crashed = run_units(
            &mut r,
            &storm,
            &ctl,
            at + 1..units,
            warmup_until,
            &mut base_rate,
            None,
            &mut samples,
            &mut slo_track,
        );
        assert!(crashed.is_none());
        finish_segment(&mut r, true);
        std::fs::remove_dir_all(&dir).ok();
    } else {
        let crashed = run_units(
            &mut e,
            &storm,
            &ctl,
            0..units,
            warmup_until,
            &mut base_rate,
            None,
            &mut samples,
            &mut slo_track,
        );
        assert!(crashed.is_none());
        finish_segment(&mut e, true);
    }

    // Fold unit samples into per-phase stats.
    let n_phases = storm.phases().len();
    let mut phases: Vec<PhaseStat> = (0..n_phases)
        .map(|phase| PhaseStat {
            phase,
            units: 0,
            ops: 0,
            mops: 0.0,
            rebalance_cycles: 0,
        })
        .collect();
    for s in &samples {
        let p = &mut phases[s.phase];
        p.units += 1;
        p.ops += s.ops;
        p.rebalance_cycles += s.cycles_delta;
    }
    for p in &mut phases {
        if p.units > 0 {
            p.mops = p.ops as f64 / (p.units as f64 * UNIT_S) / 1e6;
        }
    }

    let latencies = merged
        .iter()
        .map(|(op, s)| OpLatency {
            op: StorageOp::from_tag(*op).map_or("?", |o| o.name()),
            traced: s.queue_wait.count,
            queue_p50_ns: s.queue_wait.p50(),
            queue_p99_ns: s.queue_wait.p99(),
            exec_p50_ns: s.exec.p50(),
            exec_p99_ns: s.exec.p99(),
            hops_p99: s.hops.p99(),
        })
        .collect();

    StormReport {
        aeus,
        units,
        virtual_keys,
        real_keys,
        phases,
        latencies,
        hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        conservation_ok,
        trace_ok,
        rebalance_cycles: cycles,
        keys_moved,
        forwarded,
        stamped,
        traced,
        dropped_stamps: dropped,
        recovered: if cfg.chaos { recovered } else { false },
        replayed_records: replayed,
        crashed_at_unit: crashed_at,
        slo_observations: slo_track.observations,
        worst_latency_burn: slo_track.worst_latency_burn,
        worst_error_burn: slo_track.worst_error_burn,
    }
}

const PHASE_NAMES: [&str; 6] = [
    "warmup",
    "hotspot",
    "drift",
    "write surge",
    "flash crowd",
    "cooldown",
];

const PHASE_MOPS_KEYS: [&str; 6] = [
    "phase0_mops",
    "phase1_mops",
    "phase2_mops",
    "phase3_mops",
    "phase4_mops",
    "phase5_mops",
];

fn metrics(r: &StormReport, cfg: &StormConfig) -> Metrics {
    let b = |ok: bool| if ok { 1.0 } else { 0.0 };
    let mut m = Metrics(Vec::new());
    m.put("aeus", r.aeus as f64);
    m.put("units", r.units as f64);
    m.put("hit_rate", r.hit_rate);
    m.put("conservation", b(r.conservation_ok));
    m.put("trace_conservation", b(r.trace_ok));
    m.put("rebalanced", b(r.rebalance_cycles > 0));
    m.put("recovered", b(!cfg.chaos || r.recovered));
    let warm = r.phases.first().map_or(0.0, |p| p.mops);
    let flash = r.phases.get(4).map_or(0.0, |p| p.mops);
    m.put(
        "flash_over_warmup",
        if warm > 0.0 { flash / warm } else { 0.0 },
    );
    for (i, p) in r.phases.iter().enumerate().take(PHASE_MOPS_KEYS.len()) {
        m.put(PHASE_MOPS_KEYS[i], p.mops);
    }
    m.put("rebalance_cycles", r.rebalance_cycles as f64);
    m.put("keys_moved", r.keys_moved as f64);
    m.put("forwarded", r.forwarded as f64);
    m.put("stamped", r.stamped as f64);
    m.put("traced", r.traced as f64);
    m.put("dropped_stamps", r.dropped_stamps as f64);
    m.put("replayed_records", r.replayed_records as f64);
    m.put("slo_observations", r.slo_observations as f64);
    m.put("worst_latency_burn", r.worst_latency_burn);
    m.put("worst_error_burn", r.worst_error_burn);
    m.put(
        "slo_burn_ok",
        b(r.slo_observations > 0 && r.worst_latency_burn <= 1.0 && r.worst_error_burn <= 1.0),
    );
    for l in &r.latencies {
        match l.op {
            "lookup" => {
                m.put("lookup_queue_p50_ns", l.queue_p50_ns as f64);
                m.put("lookup_queue_p99_ns", l.queue_p99_ns as f64);
                m.put("lookup_exec_p50_ns", l.exec_p50_ns as f64);
                m.put("lookup_exec_p99_ns", l.exec_p99_ns as f64);
                m.put("lookup_hops_p99", l.hops_p99 as f64);
            }
            "upsert" => {
                m.put("upsert_queue_p50_ns", l.queue_p50_ns as f64);
                m.put("upsert_queue_p99_ns", l.queue_p99_ns as f64);
                m.put("upsert_exec_p50_ns", l.exec_p50_ns as f64);
                m.put("upsert_exec_p99_ns", l.exec_p99_ns as f64);
                m.put("upsert_hops_p99", l.hops_p99 as f64);
            }
            _ => {}
        }
    }
    m
}

fn to_json(m: &Metrics, quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    for (i, (k, v)) in m.0.iter().enumerate() {
        let comma = if i + 1 < m.0.len() { "," } else { "" };
        s.push_str(&format!("  \"{k}\": {v:.3}{comma}\n"));
    }
    s.push_str("}\n");
    s
}

pub fn run(quick: bool) {
    let cfg = if quick {
        StormConfig::quick()
    } else {
        StormConfig::full()
    };
    println!(
        "Storm scenario: {} AEUs, {}-unit schedule, MA-8 balancer, chaos {}",
        if quick { 8 } else { 512 },
        Storm::paper_storm(1 << 20, cfg.time_div).duration_s(),
        if cfg.chaos { "on" } else { "off" },
    );
    println!("(six phases: warmup, hotspot, drift, write surge, flash crowd, cooldown)\n");

    let r = run_storm(&cfg);

    let mut t = TextTable::new(&["phase", "units", "throughput", "rebalances"]);
    for p in &r.phases {
        t.row(vec![
            format!("{} ({})", p.phase, PHASE_NAMES.get(p.phase).unwrap_or(&"?")),
            format!("{}", p.units),
            fmt_rate(p.mops * 1e6),
            format!("{}", p.rebalance_cycles),
        ]);
    }
    t.print();

    println!("\nlatency attribution (host time, log2-bucket p50/p99):");
    let mut lt = TextTable::new(&[
        "op",
        "traced",
        "queue p50",
        "queue p99",
        "exec p50",
        "exec p99",
        "hops p99",
    ]);
    for l in &r.latencies {
        lt.row(vec![
            l.op.into(),
            format!("{}", l.traced),
            format!("{:.1}us", l.queue_p50_ns as f64 / 1e3),
            format!("{:.1}us", l.queue_p99_ns as f64 / 1e3),
            format!("{:.1}us", l.exec_p50_ns as f64 / 1e3),
            format!("{:.1}us", l.exec_p99_ns as f64 / 1e3),
            format!("{}", l.hops_p99),
        ]);
    }
    lt.print();

    println!(
        "\nconservation: objects {} trace {} | hit rate {:.6} | rebalance cycles {} (keys moved {}) | forwarded {}",
        if r.conservation_ok { "ok" } else { "VIOLATED" },
        if r.trace_ok { "ok" } else { "VIOLATED" },
        r.hit_rate,
        r.rebalance_cycles,
        r.keys_moved,
        r.forwarded,
    );
    if let Some(u) = r.crashed_at_unit {
        println!(
            "chaos: crashed at unit {u}, recovered from checkpoint (replayed {} records)",
            r.replayed_records
        );
    }
    println!(
        "SLO burn: {} observation ticks, worst latency burn {:.3}x, worst error burn {:.3}x",
        r.slo_observations, r.worst_latency_burn, r.worst_error_burn
    );

    let failures = r.slo_failures(&Slo::default());
    let m = metrics(&r, &cfg);
    let json = to_json(&m, quick);
    let out = "BENCH_storm.json";
    std::fs::write(out, &json).expect("write BENCH_storm.json");
    println!("\nwrote {out}");

    super::gate_against_baseline("ERIS_STORM_BASELINE", "storm", GATED, &m);

    if !failures.is_empty() {
        eprintln!("\nSLO FAILURES:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all SLOs met");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::kernels::extract;

    #[test]
    fn storm_json_roundtrips_through_the_extractor() {
        let r = StormReport {
            aeus: 8,
            units: 22,
            virtual_keys: 1 << 22,
            real_keys: 1 << 16,
            phases: vec![PhaseStat {
                phase: 0,
                units: 2,
                ops: 1000,
                mops: 0.5,
                rebalance_cycles: 3,
            }],
            latencies: vec![
                OpLatency {
                    op: "lookup",
                    traced: 10,
                    queue_p50_ns: 100,
                    queue_p99_ns: 1000,
                    exec_p50_ns: 50,
                    exec_p99_ns: 500,
                    hops_p99: 1,
                },
                OpLatency {
                    op: "upsert",
                    traced: 4,
                    queue_p50_ns: 200,
                    queue_p99_ns: 2000,
                    exec_p50_ns: 80,
                    exec_p99_ns: 800,
                    hops_p99: 0,
                },
            ],
            hit_rate: 1.0,
            conservation_ok: true,
            trace_ok: true,
            rebalance_cycles: 3,
            keys_moved: 77,
            forwarded: 5,
            stamped: 12,
            traced: 12,
            dropped_stamps: 0,
            recovered: true,
            replayed_records: 40,
            crashed_at_unit: Some(8),
            slo_observations: 22,
            worst_latency_burn: 0.0,
            worst_error_burn: 0.2,
        };
        let m = metrics(&r, &StormConfig::quick());
        let json = to_json(&m, true);
        assert_eq!(extract(&json, "hit_rate"), Some(1.0));
        assert_eq!(extract(&json, "conservation"), Some(1.0));
        assert_eq!(extract(&json, "recovered"), Some(1.0));
        assert_eq!(extract(&json, "phase0_mops"), Some(0.5));
        assert_eq!(extract(&json, "lookup_queue_p99_ns"), Some(1000.0));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n}"), "no trailing comma: {json}");
        // Every gated key must be present in what we emit.
        for key in GATED {
            assert!(extract(&json, key).is_some(), "gated key {key} missing");
        }
        assert!(r.slo_failures(&Slo::default()).is_empty());
    }

    #[test]
    fn slo_failures_catch_violations() {
        let mut r = StormReport {
            aeus: 8,
            units: 22,
            virtual_keys: 1 << 22,
            real_keys: 1 << 16,
            phases: vec![],
            latencies: vec![OpLatency {
                op: "lookup",
                traced: 10,
                queue_p50_ns: 100,
                queue_p99_ns: u64::MAX,
                exec_p50_ns: 50,
                exec_p99_ns: 500,
                hops_p99: 99,
            }],
            hit_rate: 0.5,
            conservation_ok: false,
            trace_ok: false,
            rebalance_cycles: 0,
            keys_moved: 0,
            forwarded: 0,
            stamped: 0,
            traced: 0,
            dropped_stamps: 0,
            recovered: false,
            replayed_records: 0,
            crashed_at_unit: Some(1),
            slo_observations: 0,
            worst_latency_burn: 2.0,
            worst_error_burn: 3.0,
        };
        let f = r.slo_failures(&Slo::default());
        for needle in [
            "conservation",
            "trace ledger",
            "hit rate",
            "balancer",
            "queue-wait p99",
            "hops p99",
            "recovery did not complete",
            "no traced upsert",
            "burn tracker never observed",
            "latency budget burned",
            "error budget (dropped stamps) burned",
        ] {
            assert!(
                f.iter().any(|m| m.contains(needle)),
                "missing failure for {needle}: {f:?}"
            );
        }
        r.conservation_ok = true;
        assert!(r.slo_failures(&Slo::default()).len() < f.len());
    }

    /// A miniature storm (cooperative runtime, no chaos) exercising the
    /// full driver: calibration, open-loop metering, phase publication,
    /// drain, and the conservation proofs.
    #[test]
    fn mini_storm_conserves_and_hits() {
        let cfg = StormConfig {
            quick: true,
            chaos: false,
            time_div: 10,
            dir: None,
        };
        let r = run_storm(&cfg);
        assert_eq!(r.aeus, 8);
        assert!(r.conservation_ok, "enqueued == executed");
        assert!(r.trace_ok, "stamped == traced + dropped");
        assert!((r.hit_rate - 1.0).abs() < 1e-12, "hit rate {}", r.hit_rate);
        assert!(r.phases.iter().all(|p| p.units > 0));
        assert!(r.phases[0].ops > 0, "warmup produced traffic");
        // Open-loop phases produce traffic too (tokens were credited).
        assert!(r.phases[4].ops > 0, "flash crowd produced traffic");
        // The engine-wide SLO tracker ran and the healthy storm did not
        // burn its budgets.
        assert!(r.slo_observations > 0, "SLO tracker never ticked");
        assert!(
            r.worst_latency_burn <= 1.0 && r.worst_error_burn <= 1.0,
            "healthy mini-storm burned an SLO budget: latency {:.3}x errors {:.3}x",
            r.worst_latency_burn,
            r.worst_error_burn
        );
    }
}
