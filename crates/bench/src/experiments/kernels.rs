//! Kernel regression benchmark — fused vs scalar AEU execution.
//!
//! Unlike the paper-figure experiments (virtual time on simulated
//! machines), this measures **wall-clock** throughput of the vectorized
//! execution kernels themselves, because they are real compute:
//!
//! * the fused multi-predicate shared sweep (N coalesced scans answered
//!   in one pass) against N unshared sweeps and against the
//!   row-at-a-time scalar oracle — on the production path, i.e. AVX2
//!   lanes where detected and the portable kernels under `ERIS_SIMD=0`,
//! * a consumer sweep: ns per row of one shared sweep with k = 1 … 64
//!   consumers, shaped like `engine-scan` (k/2 ranges x {Count, Sum}) and
//!   with k distinct ranges — the cost follows the distinct predicates,
//!   not the consumers,
//! * the single-predicate count/sum kernels — explicit-AVX2 SIMD vs the
//!   portable chunked loops vs scalar scans,
//! * AMAC interleaved batched hash probes against one-at-a-time lookups,
//!   under a symmetric output contract (both sides materialize
//!   `Option<u64>` results into the same reused buffer),
//! * the prefix tree's level-synchronous prefetched batch descent against
//!   the scalar lookup loop, under the same contract.
//!
//! Results land in `BENCH_kernels.json`.  When `ERIS_BENCH_BASELINE`
//! names a baseline file (CI commits one under `ci/`), the run's
//! *speedup ratios* — machine-portable, unlike absolute rows/s — are
//! gated against it (`experiments::gate_against_baseline`): a measured
//! ratio below half its baseline fails the run.  A baseline may also
//! carry an absolute `<key>_floor` entry; the gate uses whichever floor
//! is *higher*, so design-level claims ("batched probes beat scalar")
//! hold even under the loose relative floor.

use crate::{fmt_rate, TextTable};
use eris_column::{
    simd, Aggregate, Column, CompiledPredicate, Predicate, ScanKernel, SharedScan, SimdLevel,
};
use eris_index::{HashTable, PrefixTree};
use eris_numa::NodeId;
use std::time::Instant;

/// Coalesced consumers in the fused sweep (the paper's scan-sharing N).
const CONSUMERS: usize = 8;

/// Ratio metrics the CI gate always compares against the committed
/// baseline.  Absolute rows/s are recorded but never gated: they track
/// the runner's hardware, not the code.
const GATED: &[&str] = &[
    "shared_vs_unshared_speedup",
    "sweep_single_vs_shared8",
    "chunked_vs_scalar_speedup",
    "chunked_count_speedup",
    "chunked_sum_speedup",
    "batched_probe_speedup",
    "tree_batched_probe_speedup",
];

/// Ratio metrics gated only when explicit SIMD dispatch is active.
/// Under `ERIS_SIMD=0` (or hardware without AVX2) the SIMD entry points
/// dispatch to the portable chunked kernels, so these ratios sit at
/// ~1.0 by construction — gating them against an AVX2 baseline would
/// fail the fallback path for being a fallback.
const SIMD_GATED: &[&str] = &["simd_count_speedup", "simd_sum_speedup"];

/// The keys the gate checks this run: base set, plus the SIMD set when
/// the process actually dispatches to vector lanes.
fn gated_keys() -> Vec<&'static str> {
    let mut keys = GATED.to_vec();
    if simd::level() != SimdLevel::Portable {
        keys.extend_from_slice(SIMD_GATED);
    }
    keys
}

fn column(rows: u64) -> Column {
    let mut c = Column::new_local(NodeId(0), 0, 64 * 1024);
    c.extend((0..rows).map(|i| i.wrapping_mul(0x9E37_79B9) % 100_000));
    c.into_column()
}

/// Consumer counts of the sweep, with the keys their ns/row land under.
const SWEEP: [(usize, &str, &str); 6] = [
    (
        1,
        "sweep_shared_k1_ns_per_row",
        "sweep_distinct_k1_ns_per_row",
    ),
    (
        2,
        "sweep_shared_k2_ns_per_row",
        "sweep_distinct_k2_ns_per_row",
    ),
    (
        4,
        "sweep_shared_k4_ns_per_row",
        "sweep_distinct_k4_ns_per_row",
    ),
    (
        8,
        "sweep_shared_k8_ns_per_row",
        "sweep_distinct_k8_ns_per_row",
    ),
    (
        16,
        "sweep_shared_k16_ns_per_row",
        "sweep_distinct_k16_ns_per_row",
    ),
    (
        64,
        "sweep_shared_k64_ns_per_row",
        "sweep_distinct_k64_ns_per_row",
    ),
];

/// `engine-scan`'s value domain and range selectivities.
const SWEEP_DOMAIN: u64 = 1 << 20;
const SWEEP_SELECTIVITIES: [f64; 4] = [0.001, 0.01, 0.1, 0.5];

/// A column of `rows` values uniform in `[0, SWEEP_DOMAIN)`.
fn sweep_column(rows: u64) -> Column {
    let mut c = Column::new_local(NodeId(0), 0, 64 * 1024);
    c.extend((0..rows).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44));
    c.into_column()
}

/// Range `r` of the sweep: the selectivities in turn, at scattered offsets.
fn sweep_range(r: usize) -> Predicate {
    let width = (SWEEP_DOMAIN as f64 * SWEEP_SELECTIVITIES[r % 4]) as u64;
    let lo = (r as u64).wrapping_mul(0x9E37_79B9) % (SWEEP_DOMAIN - width);
    Predicate::Range { lo, hi: lo + width }
}

/// `k` consumers, Count and Sum in turn: `engine-scan`'s shape (consumer
/// `i` on range `i / 2`) when `shared`, else each on a range of its own.
fn sweep_consumers(k: usize, shared: bool) -> Vec<(Predicate, Aggregate)> {
    (0..k)
        .map(|i| {
            let agg = [Aggregate::Count, Aggregate::Sum][i % 2];
            (sweep_range(if shared { i / 2 } else { i }), agg)
        })
        .collect()
}

/// `n` Sum consumers on overlapping ranges.
fn preds(n: usize) -> Vec<(Predicate, Aggregate)> {
    (0..n)
        .map(|i| {
            let lo = (i as u64) * 5_000;
            (
                Predicate::Range {
                    lo,
                    hi: lo + 20_000,
                },
                Aggregate::Sum,
            )
        })
        .collect()
}

/// One measurement pass: seconds per call of `f` over at least `min_ms`.
fn pass(min_ms: u64, f: &mut dyn FnMut() -> u64, sink: &mut u64) -> f64 {
    let t0 = Instant::now();
    let mut iters = 0u64;
    loop {
        *sink = sink.wrapping_add(f());
        iters += 1;
        if t0.elapsed().as_millis() as u64 >= min_ms {
            break;
        }
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Wall time of `f` in seconds per call: the minimum over three
/// measurement passes of at least `min_ms` each, after one warmup call.
/// Min-of-passes discards scheduler noise (which only ever slows a
/// pass down), so the gated ratios are stable enough for hard floors.
fn time(min_ms: u64, mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(pass(min_ms, &mut f, &mut sink));
    }
    std::hint::black_box(sink);
    best
}

/// [`time`] for an A/B pair whose *ratio* is gated: the passes alternate
/// (A, B, A, B, ...) so both sides sample the same machine conditions —
/// timing all of A and then all of B lets a load shift between them
/// masquerade as a speedup or a regression.
fn time_pair(min_ms: u64, mut a: impl FnMut() -> u64, mut b: impl FnMut() -> u64) -> (f64, f64) {
    let mut sink = a().wrapping_add(b()); // warmup both
    let (mut ta, mut tb) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        ta = ta.min(pass(min_ms, &mut a, &mut sink));
        tb = tb.min(pass(min_ms, &mut b, &mut sink));
    }
    std::hint::black_box(sink);
    (ta, tb)
}

/// Keys per probe call of the batched-vs-scalar index pairs.
const BATCH: usize = 4096;

/// [`time_pair`] of a batched index probe against the scalar lookup loop,
/// seconds per [`BATCH`] keys each.  Both sides rotate through `keys` in
/// windows (re-probing one small batch would run out of cache and measure
/// nothing) and materialize their `Option<u64>` results into a reused
/// buffer of their own before folding them identically — one contract.
fn probe_pair(
    ms: u64,
    keys: &[u64],
    batched: impl Fn(&[u64], &mut Vec<Option<u64>>),
    scalar: impl Fn(u64) -> Option<u64>,
) -> (f64, f64) {
    let windows = keys.len() / BATCH;
    let window = |w: &mut usize| {
        let batch = &keys[*w * BATCH..(*w + 1) * BATCH];
        *w = (*w + 1) % windows;
        batch
    };
    let (mut out_b, mut out_s) = (Vec::new(), Vec::new());
    let (mut wb, mut ws) = (0usize, 0usize);
    time_pair(
        ms,
        || {
            batched(window(&mut wb), &mut out_b);
            out_b.iter().flatten().sum()
        },
        || {
            out_s.clear();
            out_s.extend(window(&mut ws).iter().map(|&k| scalar(k)));
            out_s.iter().flatten().sum()
        },
    )
}

/// One shared sweep of `consumers` over the whole column.
fn sweep(col: &Column, consumers: &[(Predicate, Aggregate)], k: ScanKernel) -> u64 {
    let mut s = SharedScan::new();
    for &(p, a) in consumers {
        s.add(p, usize::MAX, a);
    }
    let (results, examined) = s.execute_with(col, k);
    results.len() as u64 + examined as u64
}

pub(super) struct Metrics(pub(super) Vec<(&'static str, f64)>);

impl Metrics {
    pub(super) fn put(&mut self, key: &'static str, v: f64) {
        self.0.push((key, v));
    }

    pub(super) fn get(&self, key: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    fn to_json(&self, quick: bool, rows: u64) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"quick\": {quick},\n"));
        s.push_str(&format!("  \"rows\": {rows},\n"));
        s.push_str(&format!("  \"consumers\": {CONSUMERS},\n"));
        for (i, (k, v)) in self.0.iter().enumerate() {
            let comma = if i + 1 < self.0.len() { "," } else { "" };
            s.push_str(&format!("  \"{k}\": {v:.3}{comma}\n"));
        }
        s.push_str("}\n");
        s
    }
}

/// Pull `"key": <number>` out of a flat JSON object without a parser.
pub(super) fn extract(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn measure(quick: bool) -> (Metrics, u64) {
    let rows: u64 = if quick { 1 << 16 } else { 1 << 20 };
    let ms: u64 = if quick { 40 } else { 400 };
    let col = column(rows);
    let ps = preds(CONSUMERS);
    let mut m = Metrics(Vec::new());

    // One fused sweep answers all N consumers; the alternatives pay
    // either N sweeps or per-row dispatch.  The fused side is the sweep
    // the engine runs, whichever kernels `simd::level()` selects.
    let t_fused = time(ms, || sweep(&col, &ps, ScanKernel::Simd));
    let t_fused_scalar = time(ms, || sweep(&col, &ps, ScanKernel::Scalar));
    let t_unshared = time(ms, || {
        ps.iter().fold(0u64, |acc, p| {
            acc.wrapping_add(sweep(&col, std::slice::from_ref(p), ScanKernel::Simd))
        })
    });
    let consumer_rows = (rows * CONSUMERS as u64) as f64;
    m.put("fused_rows_per_sec", consumer_rows / t_fused);
    m.put("fused_scalar_rows_per_sec", consumer_rows / t_fused_scalar);
    m.put("unshared_rows_per_sec", consumer_rows / t_unshared);
    m.put("shared_vs_unshared_speedup", t_unshared / t_fused);
    m.put("chunked_vs_scalar_speedup", t_fused_scalar / t_fused);

    // Consumer sweep on the production path.  The gated ratio times one
    // consumer against engine-scan's eight (4 ranges x {Count, Sum})
    // in alternated passes.
    let sweep_col = sweep_column(rows);
    let ns_per_row = |t: f64| t * 1e9 / rows as f64;
    let (one, eight) = (sweep_consumers(1, true), sweep_consumers(8, true));
    let production =
        |consumers: &[(Predicate, Aggregate)]| sweep(&sweep_col, consumers, ScanKernel::Simd);
    let (t_one, t_eight) = time_pair(ms, || production(&one), || production(&eight));
    m.put("sweep_single_vs_shared8", t_one / t_eight);
    for (k, shared_key, distinct_key) in SWEEP {
        let t_shared = match k {
            1 => t_one,
            8 => t_eight,
            _ => {
                let consumers = sweep_consumers(k, true);
                time(ms, || production(&consumers))
            }
        };
        let distinct = sweep_consumers(k, false);
        let t_distinct = time(ms, || production(&distinct));
        m.put(shared_key, ns_per_row(t_shared));
        m.put(distinct_key, ns_per_row(t_distinct));
    }

    // Single-predicate kernels against the row-at-a-time scan.
    let p = Predicate::Range {
        lo: 10_000,
        hi: 60_000,
    };
    let t_count = time(ms, || col.count(p, usize::MAX));
    let t_count_scalar = time(ms, || {
        let mut n = 0u64;
        col.scan(p, usize::MAX, |_, _| n += 1);
        n
    });
    let t_sum = time(ms, || col.sum(p, usize::MAX));
    let t_sum_scalar = time(ms, || {
        let mut s = 0u64;
        col.scan(p, usize::MAX, |_, v| s = s.wrapping_add(v));
        s
    });
    m.put("chunked_count_rows_per_sec", rows as f64 / t_count);
    m.put("chunked_sum_rows_per_sec", rows as f64 / t_sum);
    m.put("chunked_count_speedup", t_count_scalar / t_count);
    m.put("chunked_sum_speedup", t_sum_scalar / t_sum);

    // Explicit SIMD against the portable chunked loops, head-to-head on
    // one flat buffer so segment iteration doesn't dilute the kernels.
    m.put(
        "simd_active",
        if simd::level() == SimdLevel::Portable {
            0.0
        } else {
            1.0
        },
    );
    let flat: Vec<u64> = (0..rows)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % 100_000)
        .collect();
    let cp = CompiledPredicate::compile(p);
    let t_simd_count = time(ms, || simd::count(&flat, cp));
    let t_chunked_count = time(ms, || eris_column::kernel::count(&flat, cp));
    let t_simd_sum = time(ms, || simd::sum(&flat, cp));
    let t_chunked_sum = time(ms, || eris_column::kernel::sum(&flat, cp));
    m.put("simd_count_rows_per_sec", rows as f64 / t_simd_count);
    m.put("simd_sum_rows_per_sec", rows as f64 / t_simd_sum);
    m.put("simd_count_speedup", t_chunked_count / t_simd_count);
    m.put("simd_sum_speedup", t_chunked_sum / t_simd_sum);

    // Batched hash probes: AMAC interleaved probing (a group of
    // in-flight probes, each advancing one bucket inspection per
    // round-robin step — see `HashTable::lookup_batch`).  The table
    // must not fit in cache for the comparison to mean anything.
    //
    // The comparator is symmetric: the scalar loop materializes its
    // `Option<u64>` results into the *same reused buffer* the batched
    // path fills, then folds them identically.  An earlier version let
    // the scalar side fold `filter_map` results without ever writing an
    // output — a cheaper contract that understated the batched win and
    // pushed the gated ratio below 1.0 (see EXPERIMENTS.md).  That
    // fold-only loop is still measured below as an ungated attribution
    // metric, so the cost of the output contract stays visible.
    let keys_n: u64 = if quick { 1 << 20 } else { 1 << 22 };
    let mut h = HashTable::new(0xE515, 0);
    for k in 0..keys_n {
        h.upsert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
    }
    // Rotate through a key set as large as the table so every iteration
    // probes cold buckets — re-probing one small batch would let both
    // sides run out of cache and measure nothing.
    let all_keys: Vec<u64> = (0..keys_n)
        .map(|i| (i * 37 % (2 * keys_n)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let windows = all_keys.len() / BATCH;
    let (t_batched, t_scalar_probe) = probe_pair(
        ms,
        &all_keys,
        |batch, out| {
            out.clear();
            h.lookup_batch(batch, out)
        },
        |k| h.lookup(k),
    );
    let mut w = 0usize;
    let t_scalar_fold = time(ms, || {
        let batch = &all_keys[w * BATCH..(w + 1) * BATCH];
        w = (w + 1) % windows;
        batch.iter().filter_map(|&k| h.lookup(k)).sum()
    });
    m.put("batched_probe_keys_per_sec", BATCH as f64 / t_batched);
    m.put("scalar_probe_keys_per_sec", BATCH as f64 / t_scalar_probe);
    m.put(
        "scalar_probe_fold_keys_per_sec",
        BATCH as f64 / t_scalar_fold,
    );
    m.put("batched_probe_speedup", t_scalar_probe / t_batched);
    m.put("batched_vs_fold_speedup", t_scalar_fold / t_batched);

    // Batched tree probes: the level-synchronous group descent of
    // `PrefixTree::lookup_batch` against the scalar lookup loop, on the
    // sparse shape (stride-64 keys: 4 per leaf, ranked blocks), probed in
    // scrambled rank order so neither side walks neighbouring leaves.
    // Same symmetric contract and interleaved passes as the hash pair.
    const STRIDE: u64 = 64;
    let pairs: Vec<(u64, u64)> = (0..keys_n).map(|r| (r * STRIDE, r)).collect();
    let tree = PrefixTree::build_from_sorted(Default::default(), 0, &pairs);
    let rank_bits = keys_n.trailing_zeros();
    let tree_keys: Vec<u64> = (0..keys_n)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - rank_bits)) * STRIDE)
        .collect();
    let (t_tree_batched, t_tree_scalar) = probe_pair(
        ms,
        &tree_keys,
        |batch, out| tree.lookup_batch(batch, out),
        |k| tree.lookup(k),
    );
    m.put(
        "tree_batched_probe_keys_per_sec",
        BATCH as f64 / t_tree_batched,
    );
    m.put(
        "tree_scalar_probe_keys_per_sec",
        BATCH as f64 / t_tree_scalar,
    );
    m.put("tree_batched_probe_speedup", t_tree_scalar / t_tree_batched);

    (m, rows)
}

pub fn run(quick: bool) {
    println!(
        "Kernel regression benchmark: fused sweep, chunk kernels, batched probes (wall clock)"
    );
    println!(
        "({CONSUMERS} coalesced consumers per fused sweep; simd level {:?})\n",
        simd::level()
    );
    let (m, rows) = measure(quick);

    let mut t = TextTable::new(&["kernel", "throughput", "speedup"]);
    t.row(vec![
        format!("fused shared sweep ({CONSUMERS} preds)"),
        fmt_rate(m.get("fused_rows_per_sec")),
        format!("{:.2}x vs unshared", m.get("shared_vs_unshared_speedup")),
    ]);
    t.row(vec![
        "fused shared sweep (scalar oracle)".into(),
        fmt_rate(m.get("fused_scalar_rows_per_sec")),
        format!("{:.2}x fused/scalar", m.get("chunked_vs_scalar_speedup")),
    ]);
    for (k, shared_key, distinct_key) in SWEEP {
        t.row(vec![
            format!("consumer sweep, k = {k}"),
            format!(
                "{:.2} ns/row shared, {:.2} distinct",
                m.get(shared_key),
                m.get(distinct_key)
            ),
            if k == 8 {
                format!("{:.2}x 1 over 8 shared", m.get("sweep_single_vs_shared8"))
            } else {
                String::new()
            },
        ]);
    }
    t.row(vec![
        "chunked count".into(),
        fmt_rate(m.get("chunked_count_rows_per_sec")),
        format!("{:.2}x vs scalar", m.get("chunked_count_speedup")),
    ]);
    t.row(vec![
        "chunked sum".into(),
        fmt_rate(m.get("chunked_sum_rows_per_sec")),
        format!("{:.2}x vs scalar", m.get("chunked_sum_speedup")),
    ]);
    t.row(vec![
        "simd count".into(),
        fmt_rate(m.get("simd_count_rows_per_sec")),
        format!("{:.2}x vs chunked", m.get("simd_count_speedup")),
    ]);
    t.row(vec![
        "simd sum".into(),
        fmt_rate(m.get("simd_sum_rows_per_sec")),
        format!("{:.2}x vs chunked", m.get("simd_sum_speedup")),
    ]);
    t.row(vec![
        "batched hash probe (AMAC)".into(),
        fmt_rate(m.get("batched_probe_keys_per_sec")),
        format!("{:.2}x vs scalar", m.get("batched_probe_speedup")),
    ]);
    t.row(vec![
        "batched tree probe (group descent)".into(),
        fmt_rate(m.get("tree_batched_probe_keys_per_sec")),
        format!("{:.2}x vs scalar", m.get("tree_batched_probe_speedup")),
    ]);
    t.print();

    let json = m.to_json(quick, rows);
    let out = "BENCH_kernels.json";
    std::fs::write(out, &json).expect("write BENCH_kernels.json");
    println!("\nwrote {out}");

    super::gate_against_baseline("ERIS_BENCH_BASELINE", "kernel", &gated_keys(), &m);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_through_the_extractor() {
        let mut m = Metrics(Vec::new());
        m.put("shared_vs_unshared_speedup", 4.25);
        m.put("chunked_vs_scalar_speedup", 2.0);
        let json = m.to_json(true, 1024);
        assert_eq!(extract(&json, "shared_vs_unshared_speedup"), Some(4.25));
        assert_eq!(extract(&json, "chunked_vs_scalar_speedup"), Some(2.0));
        assert_eq!(extract(&json, "rows"), Some(1024.0));
        assert_eq!(extract(&json, "missing"), None);
        // Structural sanity without a parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n}"), "no trailing comma: {json}");
    }

    #[test]
    fn absolute_floor_keys_extract_independently() {
        // `<key>_floor` must not shadow `<key>` (or vice versa) in the
        // parserless extractor the gate relies on.
        let json = "{\n  \"batched_probe_speedup\": 1.18,\n  \
                    \"batched_probe_speedup_floor\": 1.02\n}\n";
        assert_eq!(extract(json, "batched_probe_speedup"), Some(1.18));
        assert_eq!(extract(json, "batched_probe_speedup_floor"), Some(1.02));
    }

    #[test]
    fn gated_keys_track_the_simd_level() {
        let keys = gated_keys();
        for key in GATED {
            assert!(keys.contains(key), "base key {key} always gated");
        }
        let simd_gated = keys.iter().any(|k| SIMD_GATED.contains(k));
        assert_eq!(
            simd_gated,
            simd::level() != SimdLevel::Portable,
            "SIMD ratios gated exactly when vector dispatch is active"
        );
    }

    #[test]
    fn quick_measurement_produces_sane_ratios() {
        let (m, rows) = measure(true);
        assert!(rows > 0);
        for key in gated_keys() {
            let v = m.get(key);
            assert!(v.is_finite() && v > 0.0, "{key} = {v}");
        }
        assert!(
            m.get("simd_active")
                == if simd::level() == SimdLevel::Portable {
                    0.0
                } else {
                    1.0
                },
            "simd_active flag matches dispatch level"
        );
        // The fused sweep must beat the per-row scalar path.
        // Optimized builds only: debug codegen neither vectorizes the
        // kernels nor inlines the scalar dispatch, so the ratio there
        // measures the compiler, not the design.
        if cfg!(not(debug_assertions)) {
            assert!(
                m.get("chunked_vs_scalar_speedup") > 1.0,
                "fused sweep beats the scalar oracle: {:?}",
                m.0
            );
        }
    }
}
