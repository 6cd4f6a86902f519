//! Figure 11 — L3 cache line states at hit time on the Intel machine
//! (1 B keys).
//!
//! The paper reads the LLC_HITS C-Box counter extensions: for the shared
//! index, 79.3% of all hits land on `Shared`/`Forward` lines — the same
//! line is replicated in other caches, shrinking effective capacity —
//! while 97% of ERIS hits land on `Modified`/`Exclusive` lines.
//!
//! Reproduced with the MESIF simulator: a mixed upsert+lookup stream over
//! per-AEU trees (ERIS) versus one shared instance of the same tree
//! accessed from every node.

use super::driver::XorShift;
use crate::TextTable;
use eris_index::{PrefixTree, PrefixTreeConfig};
use eris_numa::{CacheConfig, CacheSim, NodeId};

pub struct Shares {
    pub modified: f64,
    pub exclusive: f64,
    pub shared: f64,
    pub forward: f64,
}

pub struct Result {
    pub eris: Shares,
    pub shared: Shares,
}

fn shares(sim: &CacheSim) -> Shares {
    let s = sim.stats();
    let hits = s.hits().max(1) as f64;
    Shares {
        modified: s.hits_modified as f64 / hits,
        exclusive: s.hits_exclusive as f64 / hits,
        shared: s.hits_shared as f64 / hits,
        forward: s.hits_forward as f64 / hits,
    }
}

pub fn run_measurement(quick: bool) -> Result {
    let topo = eris_numa::intel_machine();
    let cfg = PrefixTreeConfig::new(8, 32);
    let real: u64 = if quick { 1 << 15 } else { 1 << 19 };
    let virtual_keys: u64 = 1 << 30; // 1B keys
    let scale = virtual_keys / real;
    let llc = topo.node_spec(NodeId(0)).llc_mib as u64 * 1048576;
    let scaled = CacheConfig {
        llc_bytes: (llc / scale).max(16 * 1024),
        ways: 16,
        line_size: 64,
        sample_shift: 0,
    };
    let nodes = topo.num_nodes();
    let aeus = topo.num_cores();
    let aeus_per_node = aeus / nodes;
    let ops: u64 = if quick { 30_000 } else { 200_000 };
    // 10% upserts in the stream: the workload of Section 4.1 runs an
    // insert phase before the lookup phase, leaving Modified lines behind.
    let write_every = 10;

    // ERIS: one private tree per AEU.
    let per = real / aeus as u64;
    let trees: Vec<PrefixTree> = (0..aeus)
        .map(|a| {
            let mut t = PrefixTree::with_config(cfg, (a as u64) << 36);
            for k in 0..per {
                t.upsert(a as u64 * per + k, k);
            }
            t
        })
        .collect();
    let mut sim = CacheSim::new(nodes, scaled.clone());
    let mut rng = XorShift::new(5);
    let mut trace = Vec::new();
    for phase in 0..2 {
        if phase == 1 {
            sim.reset_stats();
        }
        for i in 0..ops {
            let a = rng.below(aeus as u64) as usize;
            let key = a as u64 * per + rng.below(per);
            trace.clear();
            trees[a].trace_path(key, &mut trace);
            let node = NodeId((a / aeus_per_node) as u16);
            let write = i % write_every == 0;
            for &addr in &trace {
                sim.access(node, addr, write);
            }
        }
    }
    let eris = shares(&sim);

    // Shared index: every node walks the same tree.
    let mut tree = PrefixTree::with_config(cfg, 0);
    for k in 0..real {
        tree.upsert(k, k);
    }
    let mut sim = CacheSim::new(nodes, scaled);
    let mut rng = XorShift::new(6);
    for phase in 0..2 {
        if phase == 1 {
            sim.reset_stats();
        }
        for i in 0..ops {
            let key = rng.below(real);
            trace.clear();
            tree.trace_path(key, &mut trace);
            let node = NodeId(rng.below(nodes as u64) as u16);
            let write = i % write_every == 0;
            for &addr in &trace {
                sim.access(node, addr, write);
            }
        }
    }
    let shared_shares = shares(&sim);

    Result {
        eris,
        shared: shared_shares,
    }
}

pub fn run(quick: bool) {
    println!("Figure 11: L3 Cache Line States on Intel — Percentage of all Hits (1B keys)\n");
    let r = run_measurement(quick);
    let mut t = TextTable::new(&["state", "ERIS", "shared index"]);
    let pct = |x: f64| format!("{:.1}%", 100.0 * x);
    t.row(vec![
        "Modified".into(),
        pct(r.eris.modified),
        pct(r.shared.modified),
    ]);
    t.row(vec![
        "Exclusive".into(),
        pct(r.eris.exclusive),
        pct(r.shared.exclusive),
    ]);
    t.row(vec![
        "Shared".into(),
        pct(r.eris.shared),
        pct(r.shared.shared),
    ]);
    t.row(vec![
        "Forward".into(),
        pct(r.eris.forward),
        pct(r.shared.forward),
    ]);
    t.print();
    println!(
        "\nERIS Modified+Exclusive: {:.1}% (paper: 97%);  shared Shared+Forward: {:.1}% (paper: 79.3%)",
        100.0 * (r.eris.modified + r.eris.exclusive),
        100.0 * (r.shared.shared + r.shared.forward),
    );
}
