//! Baseline semantics and headline performance relationships: the shared
//! index computes the same answers as the partitioned engine, and the
//! paper's qualitative results hold in the simulation.

use eris_core::baseline::{ScanPlacement, SharedIndexBench, SharedScanBench};
use eris_core::prelude::*;
use eris_numa::NodeId;
use std::collections::BTreeMap;

#[test]
fn shared_tree_agrees_with_partitioned_trees() {
    // The baseline's one tree answers like the map the partitioned engine
    // is tested against: every loaded key, and nothing beyond them.
    let loaded = 100_003u64;
    let mut b = SharedIndexBench::new(
        eris_numa::amd_machine(),
        PrefixTreeConfig::new(8, 32),
        CostParams::default(),
        loaded,
        1,
        5,
    );
    b.load_dense(loaded);
    let oracle: BTreeMap<u64, u64> = (0..loaded).map(|k| (k, k)).collect();
    assert_eq!(b.tree().len(), oracle.len());
    for k in (0..2 * loaded).step_by(13).chain([0, loaded - 1, loaded]) {
        assert_eq!(b.tree().lookup(k), oracle.get(&k).copied(), "key {k}");
    }
}

#[test]
fn eris_beats_shared_index_on_big_numa_machines() {
    // The Figure 8 headline on the SGI machine: memory-bound lookups run
    // several times faster on ERIS than on the NUMA-agnostic shared index.
    let real_keys: u64 = 1 << 16;
    let scale = (16u64 << 30) / real_keys; // model 16B keys
    let mut shared = SharedIndexBench::new(
        eris_numa::sgi_machine(),
        PrefixTreeConfig::new(8, 64),
        CostParams::default(),
        real_keys,
        scale,
        3,
    );
    shared.load_dense(real_keys);
    let shared_rate = shared.run_lookup_phase(3e-4).ops_per_sec();

    let mut e = Engine::new(
        eris_numa::sgi_machine(),
        EngineConfig {
            size_scale: scale,
            ..Default::default()
        },
    );
    let idx = e.create_index("t", real_keys * scale);
    e.bulk_load_index(idx, (0..real_keys).map(|i| (i * scale, i)));
    for a in e.aeu_ids() {
        let mut x = (a.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                let keys = (0..128)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % real_keys) * scale
                    })
                    .collect();
                out.push(DataCommand {
                    object: eris_core::DataObjectId(0),
                    ticket: 0,
                    payload: Payload::Lookup { keys },
                });
            })),
        );
    }
    e.run_for_virtual_secs(1e-4);
    let t0 = e.clock().now_secs();
    let ops = e.run_for_virtual_secs(3e-4);
    let eris_rate = ops.lookups as f64 / (e.clock().now_secs() - t0);

    assert!(
        eris_rate > 2.0 * shared_rate,
        "paper: ~3.5x at 16B keys; measured {:.1}x ({:.1e} vs {:.1e})",
        eris_rate / shared_rate,
        eris_rate,
        shared_rate
    );
}

#[test]
fn scan_strategies_order_like_figure_9() {
    // ERIS (NUMA-local) > Interleaved > Single RAM, and Single RAM is
    // bounded by one memory controller.
    let rows = 1 << 18;
    let scale = (8u64 << 30) / rows as u64;
    let params = CostParams::default();
    let gbps = |placement| {
        let mut b = SharedScanBench::new(eris_numa::sgi_machine(), placement, params, rows, scale);
        let (bytes, dur) = b.scan_once();
        bytes as f64 / dur
    };
    let single = gbps(ScanPlacement::SingleRam(NodeId(0)));
    let inter = gbps(ScanPlacement::Interleaved);
    assert!(single <= 36.2 * 1.01, "one IMC bound: {single}");
    assert!(inter > 2.0 * single, "interleaving beats a single hotspot");

    let mut e = Engine::new(
        eris_numa::sgi_machine(),
        EngineConfig {
            size_scale: scale,
            ..Default::default()
        },
    );
    let col = e.create_column("c");
    e.bulk_load_column(col, 0..rows as u64);
    e.submit(
        AeuId(0),
        DataCommand {
            object: col,
            ticket: 0,
            payload: Payload::Scan {
                pred: Predicate::All,
                agg: Aggregate::Sum,
                snapshot: u64::MAX,
            },
        },
    )
    .unwrap();
    let t0 = e.clock().now_secs();
    e.run_until_drained();
    let eris = (rows as u64 * 8 * scale) as f64 / ((e.clock().now_secs() - t0) * 1e9);
    assert!(
        eris > 4.0 * inter,
        "paper: 6.6x over interleaved; measured {:.1}x",
        eris / inter
    );
}

#[test]
fn shared_upserts_pay_cas_penalty() {
    let real_keys: u64 = 1 << 14;
    let mk = || {
        let mut b = SharedIndexBench::new(
            eris_numa::amd_machine(),
            PrefixTreeConfig::new(8, 64),
            CostParams::default(),
            real_keys,
            1 << 16,
            9,
        );
        b.load_dense(real_keys);
        b
    };
    let up = mk().run_upsert_phase(2e-4).ops_per_sec();
    let lk = mk().run_lookup_phase(2e-4).ops_per_sec();
    assert!(lk > up, "lookups must outpace CAS-synchronized upserts");
}

#[test]
fn interleaving_beats_memory_agnostic_single_node_for_shared_index() {
    // Section 4.1: "Interleaving the memory resulted in slightly higher
    // throughputs of the shared index" — the counters show why: traffic
    // spreads over all controllers instead of hammering one.
    let mut b = SharedIndexBench::new(
        eris_numa::intel_machine(),
        PrefixTreeConfig::new(8, 64),
        CostParams::default(),
        1 << 14,
        1 << 16,
        4,
    );
    b.load_dense(1 << 14);
    b.run_lookup_phase(2e-4);
    let per_node: Vec<u64> = (0..4).map(|n| b.counters.imc_bytes(NodeId(n))).collect();
    let max = *per_node.iter().max().unwrap() as f64;
    let min = *per_node.iter().min().unwrap() as f64;
    assert!(max / min < 1.5, "interleaved traffic is even: {per_node:?}");
}
