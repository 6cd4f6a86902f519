//! Figure 10 — L3 cache miss ratio on the AMD machine.
//!
//! The paper computes misses / requests from the AMD hardware counters
//! while running lookups against ERIS and the shared index at different
//! index sizes.  Here the MESIF cache simulator replays the *actual* node
//! paths of lookups (via `trace_path`) against the per-node LLCs.  Both
//! sides are the same `PrefixTree` layout and trace the same reads; the
//! shared index differs only in being one tree that every node walks.
//!
//! Scale model: a tree of `real × s` keys against a cache of `C` bytes has
//! the same miss ratio as a tree of `real` keys against `C / s` bytes, so
//! each x-axis point scales the simulated cache instead of materializing
//! billions of keys (both axes shrink by the same factor; see DESIGN.md).

use super::driver::XorShift;
use crate::{fmt_size, TextTable};
use eris_index::{PrefixTree, PrefixTreeConfig};
use eris_numa::{CacheConfig, CacheSim, NodeId, Topology};

pub struct Row {
    pub keys: u64,
    pub eris_miss_ratio: f64,
    pub shared_miss_ratio: f64,
}

/// A tree of the keys `lo..hi`, inserted one by one, at synthetic base
/// `base`.
fn build_tree(cfg: PrefixTreeConfig, base: u64, lo: u64, hi: u64) -> PrefixTree {
    let mut t = PrefixTree::with_config(cfg, base);
    for k in lo..hi {
        t.upsert(k, k);
    }
    t
}

/// Replay lookups through the cache simulator; returns the miss ratio.
fn simulate(
    topo: &Topology,
    cache_bytes: u64,
    lookups: u64,
    mut path_of: impl FnMut(&mut XorShift, &mut Vec<u64>) -> NodeId,
) -> f64 {
    let cfg = CacheConfig {
        llc_bytes: cache_bytes.max(16 * 1024),
        ways: 16,
        line_size: 64,
        sample_shift: 0,
    };
    let mut sim = CacheSim::new(topo.num_nodes(), cfg);
    let mut rng = XorShift::new(99);
    let mut trace = Vec::with_capacity(8);
    // Warmup pass fills the caches, then the measured pass.
    for phase in 0..2 {
        if phase == 1 {
            sim.reset_stats();
        }
        for _ in 0..lookups {
            trace.clear();
            let node = path_of(&mut rng, &mut trace);
            for &addr in &trace {
                sim.access(node, addr, false);
            }
        }
    }
    sim.stats().miss_ratio()
}

pub fn sweep(quick: bool) -> Vec<Row> {
    if quick {
        sweep_at(1 << 16, 20_000, &[16 << 20, 2 << 30])
    } else {
        let sizes = [16 << 20, 64 << 20, 256 << 20, 1 << 30, 2 << 30];
        sweep_at(1 << 20, 150_000, &sizes)
    }
}

/// One row per entry of `sizes`: trees of `real` keys, `lookups` replayed
/// per phase and side.  ERIS is one tree per AEU (core) over its key range,
/// looked up from the AEU's node; the shared index is the same tree built
/// once over all keys, looked up from any node.
pub fn sweep_at(real: u64, lookups: u64, sizes: &[u64]) -> Vec<Row> {
    let topo = eris_numa::amd_machine();
    let cfg = PrefixTreeConfig::new(8, 32);
    let aeus = topo.num_cores();
    let nodes = topo.num_nodes() as u64;
    let aeus_per_node = aeus / topo.num_nodes();
    let llc = topo.node_spec(NodeId(0)).llc_mib as u64 * 1048576;
    let per = real / aeus as u64;

    // Well-separated synthetic bases, one per partition.
    let eris_trees: Vec<PrefixTree> = (0..aeus as u64)
        .map(|a| build_tree(cfg, a << 36, a * per, (a + 1) * per))
        .collect();
    let shared = build_tree(cfg, 0, 0, real);

    sizes
        .iter()
        .map(|&keys| {
            let scale = (keys / real).max(1);
            let scaled_llc = (llc / scale).max(16 * 1024);
            let eris = simulate(&topo, scaled_llc, lookups, |rng, trace| {
                let a = rng.below(aeus as u64) as usize;
                let key = a as u64 * per + rng.below(per);
                eris_trees[a].trace_path(key, trace);
                NodeId((a / aeus_per_node) as u16)
            });
            let shared_ratio = simulate(&topo, scaled_llc, lookups, |rng, trace| {
                let key = rng.below(real);
                shared.trace_path(key, trace);
                NodeId(rng.below(nodes) as u16)
            });
            Row {
                keys,
                eris_miss_ratio: eris,
                shared_miss_ratio: shared_ratio,
            }
        })
        .collect()
}

pub fn run(quick: bool) {
    println!("Figure 10: L3 Cache Miss Ratio on the AMD Machine");
    println!("(MESIF cache simulation over real lookup paths; scale-model sizes)\n");
    let rows = sweep(quick);
    let mut t = TextTable::new(&["index size", "ERIS miss ratio", "shared miss ratio"]);
    for r in &rows {
        t.row(vec![
            fmt_size(r.keys),
            format!("{:.1}%", 100.0 * r.eris_miss_ratio),
            format!("{:.1}%", 100.0 * r.shared_miss_ratio),
        ]);
    }
    t.print();
    let small = &rows[0];
    println!(
        "\nat {}: shared misses {:.1}x more than ERIS (the Figure 10 gap)",
        fmt_size(small.keys),
        small.shared_miss_ratio / small.eris_miss_ratio.max(1e-6),
    );
}
