//! Load-balancer invariants: whatever the algorithm and workload dynamics,
//! no key is ever lost or duplicated, lookups stay correct across
//! repartitionings (including in-flight commands that get forwarded), and
//! adaption actually reduces the imbalance.

use eris_core::prelude::*;
use eris_core::DataObjectId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn skewed_engine(algorithm: BalanceAlgorithm) -> (Engine, DataObjectId, u64) {
    let domain: u64 = 1 << 18;
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 4, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            collect_results: false,
            tree: PrefixTreeConfig::new(8, 32),
            balancer: BalancerConfig {
                enabled: true,
                algorithm,
                threshold_cv: 0.2,
                period_s: 1e-4,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let idx = e.create_index("t", domain);
    e.bulk_load_index(idx, (0..domain).map(|k| (k, k ^ 0xABCD)));
    (e, idx, domain)
}

fn attach_hot_gens(e: &mut Engine, lo: Arc<AtomicU64>, hi: Arc<AtomicU64>) {
    for a in e.aeu_ids() {
        let (lo, hi) = (Arc::clone(&lo), Arc::clone(&hi));
        let mut x = (a.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                let (lo, hi) = (lo.load(Ordering::Relaxed), hi.load(Ordering::Relaxed));
                let keys = (0..32)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        lo + x % (hi - lo)
                    })
                    .collect();
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload: Payload::Lookup { keys },
                });
            })),
        );
    }
}

fn total_keys(e: &Engine, idx: DataObjectId) -> usize {
    e.aeu_ids()
        .iter()
        .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
        .sum()
}

fn ranges_are_consistent(e: &Engine, idx: DataObjectId, domain: u64) {
    // Every AEU's recorded range must match what its partition holds, and
    // the ranges must tile the domain.
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for a in e.aeu_ids() {
        let p = e.aeu(a).partition(idx).expect("partition exists");
        ranges.push(p.range);
        if let eris_core::PartitionData::Index(tree) = &p.data {
            // No key outside the recorded range.
            let outside_low = tree.count_range(0, p.range.0);
            let mut outside_high = 0;
            tree.scan_range_inclusive(p.range.1, u64::MAX, |_, _| outside_high += 1);
            assert_eq!(
                outside_low + outside_high,
                0,
                "{a:?} holds keys outside its range"
            );
        }
    }
    ranges.sort();
    assert_eq!(ranges[0].0, 0, "first range starts at the domain minimum");
    for w in ranges.windows(2) {
        assert_eq!(w[0].1, w[1].0, "ranges tile without gaps or overlaps");
    }
    assert_eq!(ranges.last().unwrap().1, domain);
}

#[test]
fn one_shot_preserves_everything_under_shifting_hotspots() {
    let (mut e, idx, domain) = skewed_engine(BalanceAlgorithm::OneShot);
    let lo = Arc::new(AtomicU64::new(0));
    let hi = Arc::new(AtomicU64::new(domain));
    attach_hot_gens(&mut e, Arc::clone(&lo), Arc::clone(&hi));
    // Shift the hotspot several times.
    for phase in 0..4u64 {
        lo.store(phase * domain / 8, Ordering::Relaxed);
        hi.store(phase * domain / 8 + domain / 16, Ordering::Relaxed);
        e.run_for_virtual_secs(1.5e-3);
        assert_eq!(total_keys(&e, idx), domain as usize, "phase {phase}");
        ranges_are_consistent(&e, idx, domain);
    }
}

#[test]
fn moving_average_preserves_everything() {
    for k in [1usize, 4, 8] {
        let (mut e, idx, domain) = skewed_engine(BalanceAlgorithm::MovingAverage(k));
        let lo = Arc::new(AtomicU64::new(0));
        let hi = Arc::new(AtomicU64::new(domain / 10));
        attach_hot_gens(&mut e, lo, hi);
        e.run_for_virtual_secs(3e-3);
        assert_eq!(total_keys(&e, idx), domain as usize, "MA-{k}");
        ranges_are_consistent(&e, idx, domain);
    }
}

#[test]
fn lookups_stay_correct_across_rebalancing() {
    // Collect results while the balancer moves partitions underneath:
    // every hit must still return the right value (stray commands are
    // forwarded to the new owner).
    let domain: u64 = 1 << 16;
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 4, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            collect_results: true,
            tree: PrefixTreeConfig::new(8, 32),
            balancer: BalancerConfig {
                enabled: true,
                algorithm: BalanceAlgorithm::OneShot,
                threshold_cv: 0.15,
                period_s: 5e-5,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let idx = e.create_index("t", domain);
    e.bulk_load_index(idx, (0..domain).map(|k| (k, k.wrapping_mul(31))));

    // Skewed generator traffic to force rebalancing...
    let lo = Arc::new(AtomicU64::new(0));
    let hi = Arc::new(AtomicU64::new(domain / 20));
    attach_hot_gens(&mut e, lo, hi);
    // ...plus tracked probe lookups injected between epochs.
    let mut ticket = 1_000_000u64;
    let mut probes: Vec<(u64, u64, Option<u64>)> = Vec::new();
    // Keep only probe answers; drop the background traffic's values each
    // round to bound memory.
    let harvest = |e: &Engine, probes: &mut Vec<(u64, u64, Option<u64>)>| {
        for r in e.results().take_lookup_values() {
            if r.0 >= 1_000_000 {
                probes.push(r);
            }
        }
    };
    for round in 0..40 {
        let key = (round * 1117) % domain;
        ticket += 1;
        e.submit(
            AeuId((round % 8) as u32),
            DataCommand {
                object: idx,
                ticket,
                payload: Payload::Lookup { keys: vec![key] },
            },
        )
        .unwrap();
        for _ in 0..3 {
            e.run_epoch();
        }
        harvest(&e, &mut probes);
    }
    // Detach generators so the engine can drain.
    e.drain_and_quiesce();
    harvest(&e, &mut probes);
    assert_eq!(probes.len(), 40, "every probe answered exactly once");
    for (_, k, v) in probes {
        assert_eq!(v, Some(k.wrapping_mul(31)), "key {k} correct despite moves");
    }
}

#[test]
fn balancing_reduces_imbalance() {
    let (mut e, idx, domain) = skewed_engine(BalanceAlgorithm::OneShot);
    let lo = Arc::new(AtomicU64::new(0));
    let hi = Arc::new(AtomicU64::new(domain / 16));
    attach_hot_gens(&mut e, lo, hi);
    e.run_for_virtual_secs(2e-3);
    // The hot 1/16 of the domain must now be split across most AEUs.
    let owners: std::collections::BTreeSet<u32> = e
        .aeu_ids()
        .iter()
        .filter(|a| {
            let p = e.aeu(**a).partition(idx).unwrap();
            p.range.0 < domain / 16 && p.range.0 < p.range.1
        })
        .map(|a| a.0)
        .collect();
    assert!(owners.len() >= 6, "hot range split {} ways", owners.len());
}

#[test]
fn disabled_balancer_never_moves_anything() {
    let domain: u64 = 1 << 16;
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            tree: PrefixTreeConfig::new(8, 32),
            ..Default::default()
        },
    );
    let idx = e.create_index("t", domain);
    e.bulk_load_index(idx, (0..domain).map(|k| (k, k)));
    let before: Vec<usize> = e
        .aeu_ids()
        .iter()
        .map(|a| e.aeu(*a).partition(idx).unwrap().data.len())
        .collect();
    let lo = Arc::new(AtomicU64::new(0));
    let hi = Arc::new(AtomicU64::new(domain / 100));
    attach_hot_gens(&mut e, lo, hi);
    e.run_for_virtual_secs(1e-3);
    let after: Vec<usize> = e
        .aeu_ids()
        .iter()
        .map(|a| e.aeu(*a).partition(idx).unwrap().data.len())
        .collect();
    assert_eq!(before, after);
}

#[test]
fn audited_migrations_match_the_partition_table() {
    // ISSUE 4: every migration in the balancer's audit log must describe
    // an ownership change that the partition table actually shows.  Run
    // until the first `Rebalanced` verdict, stop immediately, and check
    // that each audited range is now owned by its recorded destination.
    use eris_core::BalanceVerdict;

    let (mut e, idx, domain) = skewed_engine(BalanceAlgorithm::OneShot);
    let lo = Arc::new(AtomicU64::new(0));
    let hi = Arc::new(AtomicU64::new(domain / 20));
    attach_hot_gens(&mut e, Arc::clone(&lo), Arc::clone(&hi));

    let mut decision = None;
    for _ in 0..200 {
        e.run_for_virtual_secs(1e-4);
        if let Some(d) = e.monitor().last_decision(idx) {
            if d.verdict == BalanceVerdict::Rebalanced {
                decision = Some(d.clone());
                break;
            }
        }
    }
    let decision = decision.expect("hotspot forced a rebalance within 2e-2 vsecs");
    assert!(
        !decision.migrations.is_empty(),
        "a rebalance audited its transfers"
    );
    assert!(
        decision.access_cv > decision.threshold_cv || decision.exec_cv > decision.threshold_cv,
        "audited CVs justify the trigger: {decision:?}"
    );
    for m in &decision.migrations {
        assert!(m.lo < m.hi, "audited range is non-empty: {m:?}");
        assert!(m.keys > 0, "audited transfer moved keys: {m:?}");
        // Ownership of the moved range — probe both ends and the middle.
        for probe in [m.lo, m.lo + (m.hi - m.lo) / 2, m.hi - 1] {
            assert_eq!(
                e.owner_of(idx, probe),
                Some(AeuId(m.dst as u32)),
                "audit says [{}, {}) moved to aeu {}, table disagrees at {probe}",
                m.lo,
                m.hi,
                m.dst
            );
        }
    }
    // The audit's key totals agree with the engine-wide balancer counters,
    // and with the migration events in the trace rings.
    let audited: u64 = e
        .monitor()
        .audit_log()
        .iter()
        .flat_map(|d| &d.migrations)
        .map(|m| m.keys)
        .sum();
    let snap = e.telemetry();
    assert_eq!(
        audited, snap.balancer.keys_moved,
        "audit == telemetry counter"
    );
    let ring_keys: u64 = e
        .trace_events()
        .iter()
        .filter_map(|ev| match ev.event {
            eris_obs::TraceEvent::Migration { keys, .. } => Some(keys),
            _ => None,
        })
        .sum();
    assert_eq!(ring_keys, audited, "ring migration events == audit log");
    // Nothing was lost or duplicated by the audited moves.
    assert_eq!(total_keys(&e, idx) as u64, domain);
    ranges_are_consistent(&e, idx, domain);
}

/// The `engine-batch` shape in small: 4 AEUs, one index of `KEYS` keys
/// (rank `r` stored as key `r * stride`), Zipf(1) lookups by rank, low
/// keys hot.  The balancer evens out *accesses*, so the hot AEUs keep
/// handing their cold keys on until one AEU holds most of the index.
/// Runs at least 8 balancing cycles and until one AEU holds over 80 % of
/// the keys, calling `check` after every cycle with each partition's
/// length and bytes before and after it; then checks that every key still
/// answers, wherever it now lives.
fn drain_by_zipf(
    hash: bool,
    stride: u64,
    mut check: impl FnMut(&Engine, DataObjectId, usize),
) -> (Engine, DataObjectId) {
    const KEYS: u64 = 1 << 18;
    let value = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            collect_results: true,
            balancer: BalancerConfig {
                enabled: true,
                algorithm: BalanceAlgorithm::OneShot,
                threshold_cv: 0.1,
                period_s: 1e-4,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let idx = if hash {
        e.create_hash_index("h", KEYS * stride)
    } else {
        e.create_index("t", KEYS * stride)
    };
    e.bulk_load_index(idx, (0..KEYS).map(|r| (r * stride, value(r * stride))));
    for a in e.aeu_ids() {
        let mut x = (a.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                let keys = (0..64)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // rank = KEYS^u - 1 for uniform u: density ∝ 1/rank.
                        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                        (((KEYS as f64).powf(u) as u64).clamp(1, KEYS) - 1) * stride
                    })
                    .collect();
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload: Payload::Lookup { keys },
                });
            })),
        );
    }

    let mut cycles = 0;
    let mut epochs = 0;
    loop {
        let balanced = e.run_epoch().balance_ns > 0.0;
        e.results().take_lookup_values(); // generator traffic: not checked
        epochs += 1;
        assert!(epochs < 50_000, "cycle {cycles}: no AEU holds 80 % yet");
        if !balanced {
            continue;
        }
        cycles += 1;
        assert_eq!(
            total_keys(&e, idx) as u64,
            KEYS,
            "cycle {cycles}: nothing lost or duplicated"
        );
        check(&e, idx, cycles);
        // One AEU holds over 80 % after two cycles; the cycles after that
        // shuffle the hot head between ever smaller donors.
        let lens = e.aeu_ids().into_iter();
        let most = lens.map(|a| e.aeu(a).partition(idx).unwrap().data.len());
        if cycles >= 8 && most.max().unwrap() as u64 * 10 > KEYS * 8 {
            break;
        }
    }

    e.drain_and_quiesce();
    e.results().take_lookup_values();
    for (n, lo) in (0..KEYS).step_by(4096).enumerate() {
        e.submit(
            AeuId((n % e.num_aeus()) as u32),
            DataCommand {
                object: idx,
                ticket: 7,
                payload: Payload::Lookup {
                    keys: (lo..lo + 4096).map(|r| r * stride).collect(),
                },
            },
        )
        .unwrap();
    }
    e.run_until_drained();
    let mut answers = e.results().take_lookup_values();
    answers.sort_unstable();
    assert_eq!(answers.len() as u64, KEYS);
    for (r, (_, key, v)) in answers.into_iter().enumerate() {
        let k = r as u64 * stride;
        assert_eq!((key, v), (k, Some(value(k))));
    }
    (e, idx)
}

#[test]
fn a_drained_hash_partition_gives_its_memory_back() {
    // A hash partition's `bytes()` — the physical size the balancer
    // samples — has to follow its keys both ways: each receiver is sized
    // once for exactly what it then holds, and a donor whose slack is due
    // (a chunk, or half its array) is rebuilt at its exact size.
    use eris_core::PartitionData;
    use eris_index::{HashTable, CHUNK_BYTES};
    // One bucket at the table's load limit, and the slack that donors
    // under the compaction threshold may add.
    const BYTES_PER_KEY: f64 = 20.0;
    const SLACK: f64 = 1.15;
    let tables = |e: &Engine, idx: DataObjectId| -> Vec<(usize, bool, u64)> {
        let table = |a: AeuId| match &e.aeu(a).partition(idx).unwrap().data {
            PartitionData::Hash(h) => (h.len(), h.compaction_due(), h.memory_bytes()),
            _ => panic!("a hash index has hash partitions"),
        };
        e.aeu_ids().into_iter().map(table).collect()
    };
    let exact = |len| HashTable::with_capacity(0, 0, len).memory_bytes();
    let mut loaded = Vec::new();
    let mut drained = std::collections::BTreeSet::new();
    drain_by_zipf(true, 1, |e, idx, cycle| {
        let now = tables(e, idx);
        if loaded.is_empty() {
            loaded = now.clone();
        }
        let keys: usize = now.iter().map(|t| t.0).sum();
        let bytes: u64 = now.iter().map(|t| t.2).sum();
        assert!(
            bytes as f64 <= SLACK * BYTES_PER_KEY * keys as f64,
            "cycle {cycle}: {bytes} B for {keys} keys, partitions {now:?}"
        );
        let exact_bytes: u64 = now.iter().map(|t| exact(t.0)).sum();
        assert!(
            bytes <= exact_bytes + (now.len() * CHUNK_BYTES) as u64,
            "cycle {cycle}: {bytes} B where exact tables take {exact_bytes} B"
        );
        // No table's slack is due: a donor left with that much was rebuilt
        // at its exact size (and a receiver sized once for what it took).
        for (a, &(len, due, bytes)) in now.iter().enumerate() {
            assert!(!due, "cycle {cycle}, aeu {a}: {len} keys in {bytes} B");
            if len * 4 < loaded[a].0 {
                drained.insert(a);
            }
        }
    });
    assert!(!drained.is_empty(), "some AEU gave most of its keys away");
}

#[test]
fn a_drained_prefix_tree_partition_gives_its_memory_back() {
    // The tree twin, with the sparse keys of `engine-batch` (4 per
    // 256-slot leaf): a removal frees value blocks but no node, so a donor
    // whose slack is due is rebuilt from what it keeps.  After every cycle
    // the partitions cost at most a fifth more than a fresh load of the
    // same keys at the same bounds, and at most a chunk per partition more.
    use eris_core::PartitionData;
    use eris_index::{PrefixTree, CHUNK_BYTES};
    drain_by_zipf(false, 64, |e, idx, cycle| {
        let (mut bytes, mut fresh) = (0, 0);
        for a in e.aeu_ids() {
            let p = e.aeu(a).partition(idx).unwrap();
            let PartitionData::Index(tree) = &p.data else {
                panic!("an index has tree partitions")
            };
            assert!(!tree.compaction_due(), "cycle {cycle}, {a:?}");
            let pairs = tree.flatten();
            bytes += tree.memory_bytes();
            fresh += PrefixTree::build_from_sorted(tree.config(), 0, &pairs).memory_bytes();
        }
        assert!(
            bytes as f64 <= 1.2 * fresh as f64,
            "cycle {cycle}: {bytes} B where a fresh load takes {fresh} B"
        );
        let chunks = (e.aeu_ids().len() * CHUNK_BYTES) as u64;
        assert!(
            bytes <= fresh + chunks,
            "cycle {cycle}: {bytes} B, a fresh load {fresh} B"
        );
    });
}
