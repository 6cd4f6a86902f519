//! The reproduction is itself regression-tested: every experiment runs in
//! quick mode and its headline *shape* is asserted — who wins, roughly by
//! what factor, and in which direction curves move.

use eris_bench::experiments::{fig1, fig10, fig11, fig13, fig5, fig9};
use eris_core::prelude::*;

#[test]
fn fig1_lookup_and_scan_scale_with_nodes() {
    let rows = fig1::sweep(true); // 1, 2, 4 nodes
    assert_eq!(rows.len(), 3);
    // Scans scale essentially linearly with active multiprocessors.
    assert!(
        rows[2].scan_speedup > 3.5,
        "scan speedup {:.2}",
        rows[2].scan_speedup
    );
    // Lookups scale substantially (the full sweep reaches ~50x at 64).
    assert!(
        rows[2].lookup_speedup > 2.0,
        "lookup speedup {:.2}",
        rows[2].lookup_speedup
    );
}

#[test]
fn fig5_raw_routing_improves_with_buffer_size() {
    let rows = fig5::sweep(true); // buffers 1, 8, 64, 512
    assert!(rows
        .windows(2)
        .all(|w| w[1].raw_mcmds >= w[0].raw_mcmds * 0.95));
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    assert!(
        last.raw_mcmds > 3.0 * first.raw_mcmds,
        "buffering wins: {:.1} -> {:.1} M/s",
        first.raw_mcmds,
        last.raw_mcmds
    );
    // With processing enabled the curve is capped by execution, so the
    // spread is much smaller than the raw spread.
    let raw_gain = last.raw_mcmds / first.raw_mcmds;
    let proc_gain = last.processing_mcmds / first.processing_mcmds;
    assert!(
        proc_gain < raw_gain,
        "processing plateaus: {proc_gain:.1} vs {raw_gain:.1}"
    );
    // The routing telemetry behind the curve is live and consistent: the
    // experiment moved real commands through flushes and buffer swaps, and
    // bigger outgoing buffers amortize reservations into fewer, fatter
    // flushes.
    for r in &rows {
        let t = &r.telemetry;
        assert!(t.commands_routed > 0, "buffer {}: routed", r.buffer_cmds);
        assert!(t.flushes > 0 && t.buffer_swaps > 0, "telemetry live");
        // Counters cover only the measurement window (warmup traffic is
        // reset away), so executions may lead window deliveries by at most
        // the pipeline backlog carried in from warmup — a rounding error
        // against the window totals.
        let delivered = t.commands_unicast + t.commands_multicast;
        assert!(
            t.commands_executed as f64 <= delivered as f64 * 1.01,
            "buffer {}: executed {} may exceed window deliveries {} only by \
             the warmup carry-in",
            r.buffer_cmds,
            t.commands_executed,
            delivered
        );
    }
    let cmds_per_flush =
        |r: &fig5::Row| r.telemetry.flush_commands as f64 / r.telemetry.flushes.max(1) as f64;
    assert!(
        cmds_per_flush(last) > 2.0 * cmds_per_flush(first),
        "bigger buffers batch more commands per flush: {:.1} vs {:.1}",
        cmds_per_flush(last),
        cmds_per_flush(first)
    );
}

#[test]
fn fig9_strategy_ordering() {
    let r = fig9::run_measurement(true);
    assert!(r.single_ram_gbps < r.interleaved_gbps);
    assert!(r.eris_gbps > 3.0 * r.interleaved_gbps);
    assert!(r.eris_gbps > 0.5 * r.aggregate_local_gbps);
    assert!(r.eris_gbps <= r.aggregate_local_gbps * 1.01);
}

#[test]
fn fig10_shared_misses_more_at_small_sizes() {
    let rows = fig10::sweep(true);
    // Miss ratios are sane and the shared index misses more often.
    for r in &rows {
        assert!(r.eris_miss_ratio > 0.0 && r.eris_miss_ratio < 1.0);
        assert!(
            r.shared_miss_ratio > r.eris_miss_ratio,
            "{} keys: shared {:.3} vs ERIS {:.3}",
            r.keys,
            r.shared_miss_ratio,
            r.eris_miss_ratio
        );
    }
}

#[test]
fn fig10_shared_misses_more_above_the_cache_floor() {
    // Full mode's 67M point (2^20 real keys against a 96 KB simulated
    // cache), with fewer lookups; quick mode's 2^16 keys put its caches at
    // 24 KB and the 16 KB floor, a different regime.  Both sides walk the
    // same tree layout, so what separates them is that every node walks
    // the whole shared tree: 46 % against ERIS's 27 %.
    let rows = fig10::sweep_at(1 << 20, 40_000, &[64 << 20]);
    let r = &rows[0];
    assert!(
        r.shared_miss_ratio > r.eris_miss_ratio,
        "67M keys: shared {:.3} vs ERIS {:.3}",
        r.shared_miss_ratio,
        r.eris_miss_ratio
    );
}

#[test]
fn fig11_line_states_split_like_the_paper() {
    let r = fig11::run_measurement(true);
    // ERIS: overwhelmingly Modified/Exclusive (paper: 97%).
    assert!(r.eris.modified + r.eris.exclusive > 0.9);
    // Shared: mostly Shared/Forward (paper: 79.3%).
    assert!(r.shared.shared + r.shared.forward > 0.6);
}

#[test]
fn fig13_balancers_dip_and_recover() {
    let one_shot = fig13::run_config(Some(BalanceAlgorithm::OneShot), true);
    let none = fig13::run_config(None, true);
    // Before the change (t<=10) both run at the same level.
    let base: f64 = one_shot[..10].iter().map(|s| s.mops).sum::<f64>() / 10.0;
    // Right after the change One-Shot dips below the non-balancing run...
    let dip = one_shot[10..13]
        .iter()
        .map(|s| s.mops)
        .fold(f64::INFINITY, f64::min);
    let none_after: f64 = none[20..30].iter().map(|s| s.mops).sum::<f64>() / 10.0;
    assert!(dip < none_after, "One-Shot pays a repartitioning dip");
    // ...then recovers above it, towards the pre-change level.
    let recovered: f64 = one_shot[20..30].iter().map(|s| s.mops).sum::<f64>() / 10.0;
    assert!(
        recovered > 1.15 * none_after,
        "recovered {recovered:.0} must beat unbalanced {none_after:.0}"
    );
    assert!(
        recovered > 0.7 * base,
        "recovery approaches the original level"
    );
}

#[test]
fn energy_memory_bound_work_tolerates_frequency_scaling() {
    let rows = eris_bench::experiments::energy::sweep(true); // 100%, 60%
    let base = &rows[0];
    let low = &rows[1];
    let lookup_kept = low.lookup_rate / base.lookup_rate;
    let scan_kept = low.scan_gbps / base.scan_gbps;
    assert!(
        scan_kept > lookup_kept + 0.1,
        "memory-bound scans ({scan_kept:.2}) must tolerate DVFS better than \
         CPU-bound lookups ({lookup_kept:.2})"
    );
    assert!(scan_kept > 0.9, "scans barely notice reduced frequency");
    // Energy per row drops for the memory-bound workload.
    assert!(low.scan_energy < base.scan_energy);
}

#[test]
fn zipf_balancing_helps_under_skew() {
    let rows = eris_bench::experiments::zipf::sweep(true); // theta 0, 0.99
    let uniform = &rows[0];
    let skewed = &rows[1];
    // Skew costs throughput without balancing...
    assert!(skewed.unbalanced < 0.6 * uniform.unbalanced);
    // ...and balancing recovers a substantial part of it.
    assert!(
        skewed.balanced > 1.2 * skewed.unbalanced,
        "balanced {:.2e} vs unbalanced {:.2e}",
        skewed.balanced,
        skewed.unbalanced
    );
}
