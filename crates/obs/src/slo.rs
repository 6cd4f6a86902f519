//! Per-tenant SLO tracking with multi-window burn rates.
//!
//! Two objectives per tenant, both defined against an **error budget**
//! (the tolerated bad fraction over the compliance period):
//!
//! * **latency** — a request is bad when its full-path latency (net +
//!   admit + queue + exec) exceeds the configured threshold; the feeder
//!   counts these with `LogHistogram::count_over`.
//! * **errors** — a request is bad when the serving layer rejected it
//!   (shed, quota-denied, protocol/decode/routing reject).
//!
//! The engine itself never touches request state: at every export tick
//! the caller pushes *cumulative* totals per tenant ([`SloTotals`]),
//! and burn rates are computed by diffing the newest sample against a
//! baseline at each window boundary — the standard multi-window
//! burn-rate alerting construction (a burn rate of 1.0 consumes exactly
//! the whole budget if sustained; short windows catch fast burns, long
//! windows catch slow ones).
//!
//! All state lives under one mutex keyed by tenant; callers feed it at
//! export rate (see [`SloEngine::quantum_ns`]), so contention is
//! irrelevant.  Whatever the feed rate, a tenant's history is bounded:
//! observations closer together than the quantum replace the newest
//! sample instead of adding one.

use crate::export::{Metric, MetricKind};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

/// Cumulative per-tenant totals at one observation tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloTotals {
    /// Requests that received *any* verdict (completed + rejected).
    pub requests: u64,
    /// Completed requests whose full-path latency exceeded the
    /// objective threshold.
    pub bad_latency: u64,
    /// Requests rejected by the serving layer.
    pub errors: u64,
}

/// The per-tenant objectives and the burn-rate windows.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Full-path latency above this is a bad request (ns).
    pub latency_threshold_ns: u64,
    /// Tolerated bad-latency fraction (e.g. `0.01` = 1% may be slow).
    pub latency_budget: f64,
    /// Tolerated error fraction.
    pub error_budget: f64,
    /// Burn-rate windows, shortest first (ns).
    pub windows_ns: Vec<u64>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_threshold_ns: 50_000_000, // 50 ms
            latency_budget: 0.01,
            error_budget: 0.05,
            windows_ns: vec![60_000_000_000, 600_000_000_000], // 60 s, 600 s
        }
    }
}

/// One window's burn rates for one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRate {
    pub window_ns: u64,
    /// Requests observed inside the window.
    pub requests: u64,
    /// `bad_latency_fraction / latency_budget` over the window.
    pub latency_burn: f64,
    /// `error_fraction / error_budget` over the window.
    pub error_burn: f64,
}

/// Retained samples per shortest window: the time resolution of every
/// window's baseline, and with it the bound on a tenant's history
/// (`horizon / quantum + 2` samples).
const SAMPLES_PER_SHORTEST_WINDOW: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Sample {
    at_ns: u64,
    totals: SloTotals,
}

#[derive(Debug, Default)]
struct TenantSlo {
    samples: VecDeque<Sample>,
}

/// Multi-window, multi-tenant burn-rate tracker.
#[derive(Debug)]
pub struct SloEngine {
    cfg: SloConfig,
    tenants: Mutex<HashMap<u32, TenantSlo>>,
}

impl SloEngine {
    pub fn new(cfg: SloConfig) -> Self {
        SloEngine {
            cfg,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// The spacing below which observations coalesce: 1/64 of the
    /// shortest window.  Feeding faster than this buys no resolution.
    pub fn quantum_ns(&self) -> u64 {
        let shortest = self.cfg.windows_ns.iter().copied().min().unwrap_or(0);
        shortest / SAMPLES_PER_SHORTEST_WINDOW
    }

    /// Push one tenant's cumulative totals at time `at_ns`.  While the
    /// newest sample is less than a quantum younger than the one before
    /// it, an observation replaces it instead of adding a sample, so
    /// retained samples (but the last) are at least a quantum apart;
    /// samples older than the longest window (plus one baseline beyond
    /// it) are pruned.
    pub fn observe(&self, tenant: u32, at_ns: u64, totals: SloTotals) {
        let horizon = self.cfg.windows_ns.iter().copied().max().unwrap_or(0);
        let quantum = self.quantum_ns();
        let mut map = self.tenants.lock();
        let t = map.entry(tenant).or_default();
        let sample = Sample { at_ns, totals };
        let mut newest_two = t.samples.iter_mut().rev();
        match (newest_two.next(), newest_two.next()) {
            (Some(newest), Some(before)) if newest.at_ns.saturating_sub(before.at_ns) < quantum => {
                *newest = sample
            }
            _ => t.samples.push_back(sample),
        }
        // Keep one sample at-or-before the horizon as the diff baseline.
        while t.samples.len() >= 2 && t.samples[1].at_ns + horizon <= at_ns {
            t.samples.pop_front();
        }
    }

    /// Burn rates for `tenant` at `now_ns`, one entry per configured
    /// window.  A window with no observed requests burns at 0.
    pub fn burn_rates(&self, tenant: u32, now_ns: u64) -> Vec<BurnRate> {
        let map = self.tenants.lock();
        let Some(t) = map.get(&tenant) else {
            return Vec::new();
        };
        let Some(&newest) = t.samples.back() else {
            return Vec::new();
        };
        self.cfg
            .windows_ns
            .iter()
            .map(|&w| {
                let cutoff = now_ns.saturating_sub(w);
                // Baseline: the newest sample at or before the window
                // start (fall back to the oldest retained sample — the
                // window then covers all history we have).
                let base = t
                    .samples
                    .iter()
                    .rev()
                    .find(|s| s.at_ns <= cutoff)
                    .or_else(|| t.samples.front())
                    .copied()
                    .unwrap_or(newest);
                let req = newest.totals.requests.saturating_sub(base.totals.requests);
                let bad_lat = newest
                    .totals
                    .bad_latency
                    .saturating_sub(base.totals.bad_latency);
                let errs = newest.totals.errors.saturating_sub(base.totals.errors);
                let frac = |bad: u64| {
                    if req == 0 {
                        0.0
                    } else {
                        bad as f64 / req as f64
                    }
                };
                BurnRate {
                    window_ns: w,
                    requests: req,
                    latency_burn: frac(bad_lat) / self.cfg.latency_budget.max(1e-12),
                    error_burn: frac(errs) / self.cfg.error_budget.max(1e-12),
                }
            })
            .collect()
    }

    /// Tenants with at least one observation, sorted.
    pub fn tenants(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.tenants.lock().keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// The worst (largest) burn rate across all windows and both
    /// objectives for `tenant` — the single number gating an alert.
    pub fn worst_burn(&self, tenant: u32, now_ns: u64) -> f64 {
        self.burn_rates(tenant, now_ns)
            .iter()
            .map(|b| b.latency_burn.max(b.error_burn))
            .fold(0.0, f64::max)
    }

    /// Export every tenant's burn rates as gauges:
    /// `eris_slo_burn_rate{tenant,objective,window}` plus the raw
    /// in-window request count for context.
    pub fn to_metrics(&self, now_ns: u64) -> Vec<Metric> {
        let mut burn = Metric::new(
            "eris_slo_burn_rate",
            "Error-budget burn rate per tenant, objective, and window \
             (1.0 = consuming exactly the whole budget)",
            MetricKind::Gauge,
        );
        let mut reqs = Metric::new(
            "eris_slo_window_requests",
            "Requests observed inside each burn-rate window",
            MetricKind::Gauge,
        );
        for tenant in self.tenants() {
            for b in self.burn_rates(tenant, now_ns) {
                let window = format!("{}s", b.window_ns / 1_000_000_000);
                let t = tenant.to_string();
                burn = burn
                    .sample(
                        &[
                            ("tenant", &t),
                            ("objective", "latency"),
                            ("window", &window),
                        ],
                        b.latency_burn,
                    )
                    .sample(
                        &[("tenant", &t), ("objective", "errors"), ("window", &window)],
                        b.error_burn,
                    );
                reqs = reqs.sample(&[("tenant", &t), ("window", &window)], b.requests as f64);
            }
        }
        vec![burn, reqs]
    }
}

impl Default for SloEngine {
    fn default() -> Self {
        SloEngine::new(SloConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    fn engine() -> SloEngine {
        SloEngine::new(SloConfig {
            latency_threshold_ns: 1_000_000,
            latency_budget: 0.01,
            error_budget: 0.05,
            windows_ns: vec![10 * S, 100 * S],
        })
    }

    #[test]
    fn no_observations_no_burn() {
        let e = engine();
        assert!(e.burn_rates(1, 50 * S).is_empty());
        assert_eq!(e.worst_burn(1, 50 * S), 0.0);
        assert!(e.tenants().is_empty());
    }

    #[test]
    fn steady_burn_at_exactly_budget_is_one() {
        let e = engine();
        // 1% of requests are slow each tick — exactly the budget.
        for tick in 0..20u64 {
            e.observe(
                7,
                tick * S,
                SloTotals {
                    requests: tick * 1_000,
                    bad_latency: tick * 10,
                    errors: 0,
                },
            );
        }
        for b in e.burn_rates(7, 19 * S) {
            assert!(b.requests > 0);
            assert!(
                (b.latency_burn - 1.0).abs() < 1e-9,
                "window {} burn {}",
                b.window_ns,
                b.latency_burn
            );
            assert_eq!(b.error_burn, 0.0);
        }
    }

    #[test]
    fn short_window_reacts_to_a_fast_burn_before_the_long_one() {
        let e = engine();
        // 100 ticks of clean traffic, then 5 ticks of 50% errors.
        let mut req = 0u64;
        let mut errs = 0u64;
        for tick in 0..105u64 {
            req += 1_000;
            if tick >= 100 {
                errs += 500;
            }
            e.observe(
                1,
                tick * S,
                SloTotals {
                    requests: req,
                    bad_latency: 0,
                    errors: errs,
                },
            );
        }
        let rates = e.burn_rates(1, 104 * S);
        assert_eq!(rates.len(), 2);
        let (short, long) = (&rates[0], &rates[1]);
        // Short window is saturated with the outage; long window dilutes
        // it across the clean history.
        assert!(short.error_burn > long.error_burn * 2.0);
        assert!(short.error_burn > 1.0, "short burn {}", short.error_burn);
        assert_eq!(e.worst_burn(1, 104 * S), short.error_burn);
    }

    #[test]
    fn pruning_keeps_a_baseline_beyond_the_longest_window() {
        let e = engine();
        for tick in 0..500u64 {
            e.observe(
                2,
                tick * S,
                SloTotals {
                    requests: tick,
                    bad_latency: 0,
                    errors: 0,
                },
            );
        }
        // The 100 s window must still find a baseline ~100 s back.
        let rates = e.burn_rates(2, 499 * S);
        assert_eq!(rates[1].requests, 100);
        assert_eq!(rates[0].requests, 10);
    }

    /// A long-lived server pumps thousands of times a second: the
    /// history must not grow with the observation rate, and coalescing
    /// may move a window's baseline by at most one quantum.
    #[test]
    #[cfg_attr(miri, ignore = "a million mutex-guarded pushes; no unsafe to check")]
    fn a_million_observations_a_second_retain_a_bounded_history() {
        const MS: u64 = 1_000_000;
        let e = SloEngine::new(SloConfig {
            windows_ns: vec![100 * MS, 500 * MS],
            ..SloConfig::default()
        });
        let quantum = e.quantum_ns();
        assert_eq!(quantum, 100 * MS / 64);
        // One baseline at or before the horizon, the samples inside it (a
        // quantum apart or more), and the newest.
        let bound = (500 * MS).div_ceil(quantum) as usize + 2;
        // One request per microsecond for a second; every request of the
        // last 20 ms is an error.
        let totals_at = |at_ns: u64| {
            let requests = at_ns / 1_000;
            SloTotals {
                requests,
                bad_latency: 0,
                errors: requests.saturating_sub(980_000),
            }
        };
        let mut peak = 0;
        for i in 1..=1_000_000u64 {
            e.observe(4, i * 1_000, totals_at(i * 1_000));
            if i % 1_000 == 0 {
                peak = peak.max(e.tenants.lock()[&4].samples.len());
            }
        }
        assert!(peak <= bound, "{peak} samples retained, bound {bound}");
        assert!(peak > 64, "every window still has its resolution: {peak}");

        // The uncoalesced reference keeps every observation, so its
        // baseline is the observation at the window start exactly; the
        // coalesced baseline may be up to a quantum (plus one observation
        // interval) older.
        let now = 1_000 * MS;
        let reference = |window: u64, older_by: u64| {
            let base = totals_at(now - window - older_by);
            let newest = totals_at(now);
            let requests = newest.requests - base.requests;
            let errors = newest.errors - base.errors;
            (requests, errors as f64 / requests as f64 / 0.05)
        };
        for b in e.burn_rates(4, now) {
            let (exact_requests, exact_burn) = reference(b.window_ns, 0);
            let (most_requests, least_burn) = reference(b.window_ns, quantum + 1_000);
            assert!(
                (exact_requests..=most_requests).contains(&b.requests),
                "window {}: {} requests, reference {exact_requests}..={most_requests}",
                b.window_ns,
                b.requests
            );
            assert!(
                b.error_burn <= exact_burn && b.error_burn >= least_burn,
                "window {}: burn {}, reference {least_burn}..={exact_burn}",
                b.window_ns,
                b.error_burn
            );
        }
    }

    #[test]
    fn metrics_export_labels_every_window_and_objective() {
        let e = engine();
        e.observe(3, 0, SloTotals::default());
        e.observe(
            3,
            10 * S,
            SloTotals {
                requests: 100,
                bad_latency: 4,
                errors: 10,
            },
        );
        let metrics = e.to_metrics(10 * S);
        let burn = &metrics[0];
        // 2 windows × 2 objectives.
        assert_eq!(burn.samples.len(), 4);
        let text = crate::export::render_prometheus(&metrics);
        assert!(
            text.contains("eris_slo_burn_rate{tenant=\"3\",objective=\"latency\",window=\"10s\"}")
        );
        assert!(text.contains("objective=\"errors\""));
        assert!(text.contains("eris_slo_window_requests"));
    }
}
