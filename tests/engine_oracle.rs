//! End-to-end correctness: commands routed through the full engine must
//! behave exactly like a BTreeMap oracle, across partitions, objects, and
//! submission points.

use eris_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn engine(nodes: u16, cores: u16) -> Engine {
    Engine::new(
        eris_numa::machines::custom_machine("t", nodes, cores, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            collect_results: true,
            tree: PrefixTreeConfig::new(8, 32),
            ..Default::default()
        },
    )
}

#[test]
fn randomized_ops_match_btreemap() {
    let mut rng = StdRng::seed_from_u64(0xE515);
    let domain: u64 = 1 << 20;
    let mut e = engine(4, 2);
    let idx = e.create_index("t", domain);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ticket = 0u64;

    for round in 0..30 {
        // A burst of upserts from random submission points.
        let n_upserts = rng.gen_range(1..100);
        let pairs: Vec<(u64, u64)> = (0..n_upserts)
            .map(|_| (rng.gen_range(0..domain), rng.gen()))
            .collect();
        for &(k, v) in &pairs {
            oracle.insert(k, v);
        }
        let via = AeuId(rng.gen_range(0..e.num_aeus() as u32));
        ticket += 1;
        e.submit(
            via,
            DataCommand {
                object: idx,
                ticket,
                payload: Payload::Upsert { pairs },
            },
        )
        .unwrap();
        e.run_until_drained();

        // Probe lookups: mix of present and absent keys.
        let keys: Vec<u64> = (0..50).map(|_| rng.gen_range(0..domain)).collect();
        ticket += 1;
        let via = AeuId(rng.gen_range(0..e.num_aeus() as u32));
        e.submit(
            via,
            DataCommand {
                object: idx,
                ticket,
                payload: Payload::Lookup { keys: keys.clone() },
            },
        )
        .unwrap();
        e.run_until_drained();
        let got = e.results().take_lookup_values();
        assert_eq!(got.len(), 50, "round {round}: every key answered once");
        for (t, k, v) in got {
            assert_eq!(t, ticket);
            assert_eq!(v, oracle.get(&k).copied(), "round {round}, key {k}");
        }
    }
    // Total count matches.
    let total: usize = e
        .aeu_ids()
        .iter()
        .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
        .sum();
    assert_eq!(total, oracle.len());
}

#[test]
fn index_batches_stranded_by_a_rebalance_match_the_scalar_oracle() {
    // Multi-key index commands are split by the routing table at submit
    // time; a balancer cycle before the epoch that executes them moves the
    // ranges underneath.  Sub-commands whose keys all stayed with their
    // owner take the AEU's all-mine path (decoded slice straight into the
    // tree's batch entry points), the others are partitioned into mine and
    // stray and the strays forwarded.  Both must answer like a BTreeMap
    // driven one key at a time.
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let domain: u64 = 1 << 16;
    let mut e = engine(2, 2);
    let idx = e.create_index("t", domain);
    let mut oracle: BTreeMap<u64, u64> = (0..domain).step_by(3).map(|k| (k, k ^ 0xABCD)).collect();
    e.bulk_load_index(idx, oracle.iter().map(|(&k, &v)| (k, v)));
    let mut ticket = 0u64;
    let mut submit = |e: &mut Engine, payload: Payload| {
        ticket += 1;
        let cmd = DataCommand {
            object: idx,
            ticket,
            payload,
        };
        e.submit(AeuId((ticket % 4) as u32), cmd).unwrap();
        ticket
    };

    let mut stranded = [0, 0]; // rounds whose [lookups, upserts] met moved ranges
    for round in 0..6u64 {
        // Skew: every access of this window lands in one eighth of the
        // domain, so the next balancer cycle has boundaries to move.
        let hot = (round % 4) * domain / 4;
        for _ in 0..8 {
            let keys = (0..256)
                .map(|_| hot + rng.gen_range(0..domain / 8))
                .collect();
            submit(&mut e, Payload::Lookup { keys });
        }
        e.run_until_drained();
        e.results().take_lookup_values();

        // Whole-domain batches, routed by the ranges as they are now...
        let upserts = round % 2 == 0;
        let mut expect: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for _ in 0..8 {
            let keys: Vec<u64> = (0..300).map(|_| rng.gen_range(0..domain)).collect();
            if upserts {
                // One value per key and round: the order in which stranded
                // sub-commands of two commands apply cannot matter.
                let pairs: Vec<(u64, u64)> =
                    keys.iter().map(|&k| (k, (round + 1) << 32 | k)).collect();
                oracle.extend(pairs.iter().copied());
                submit(&mut e, Payload::Upsert { pairs });
            } else {
                let t = submit(&mut e, Payload::Lookup { keys: keys.clone() });
                expect.insert(t, keys);
            }
        }
        // ...then stranded: the ranges move before the commands execute.
        let before = e.telemetry().totals.forwarded;
        e.run_balancer();
        e.run_until_drained();
        // (Not every cycle moves boundaries: the balancer backs off after
        // a costly one.)
        if e.telemetry().totals.forwarded > before {
            stranded[upserts as usize] += 1;
        }
        let mut got: BTreeMap<u64, Vec<(u64, Option<u64>)>> = BTreeMap::new();
        for (t, k, v) in e.results().take_lookup_values() {
            got.entry(t).or_default().push((k, v));
        }
        for (t, keys) in expect {
            let mut want: Vec<_> = keys.iter().map(|k| (*k, oracle.get(k).copied())).collect();
            let mut answers = got.remove(&t).unwrap_or_default();
            want.sort_unstable();
            answers.sort_unstable();
            assert_eq!(answers, want, "round {round}, ticket {t}");
        }
    }

    assert!(
        stranded[0] > 0 && stranded[1] > 0,
        "lookups and upserts both had strays to forward: {stranded:?}"
    );

    // Settled: every key through the all-mine path, and the partitions
    // hold exactly the oracle.
    let all: Vec<u64> = (0..domain).collect();
    for chunk in all.chunks(1 << 12) {
        let t = submit(
            &mut e,
            Payload::Lookup {
                keys: chunk.to_vec(),
            },
        );
        e.run_until_drained();
        let before = e.telemetry().totals.forwarded;
        let mut got = e.results().take_lookup_values();
        got.sort_unstable();
        let want: Vec<_> = chunk
            .iter()
            .map(|k| (t, *k, oracle.get(k).copied()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(e.telemetry().totals.forwarded, before);
    }
    let total: usize = e
        .aeu_ids()
        .iter()
        .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
        .sum();
    assert_eq!(total, oracle.len());
}

/// Submit one command per entry of `payloads` through `via`; returns the
/// tickets in submission order.
fn submit_each(
    e: &mut Engine,
    object: DataObjectId,
    ticket: &mut u64,
    via: impl Fn(u64) -> AeuId,
    payloads: impl IntoIterator<Item = Payload>,
) -> Vec<u64> {
    payloads
        .into_iter()
        .map(|payload| {
            *ticket += 1;
            let cmd = DataCommand {
                object,
                ticket: *ticket,
                payload,
            };
            e.submit(via(*ticket), cmd).unwrap();
            *ticket
        })
        .collect()
}

/// The collected lookup results, per ticket, as `(key, value)` in key order.
fn answers_by_ticket(e: &Engine) -> BTreeMap<u64, Vec<(u64, Option<u64>)>> {
    let mut got: BTreeMap<u64, Vec<(u64, Option<u64>)>> = BTreeMap::new();
    for (t, k, v) in e.results().take_lookup_values() {
        got.entry(t).or_default().push((k, v));
    }
    got.values_mut().for_each(|a| a.sort_unstable());
    got
}

#[test]
fn groups_of_one_key_commands_match_the_oracle() {
    // The serving path: hundreds of 1-key commands per AEU and epoch.  An
    // AEU executes the lookups (upserts) of one epoch as one group — one
    // kernel call over all their keys — and every ticket must still get
    // exactly its own answer, as from a BTreeMap driven one command at a
    // time.  Twice: a dense 16-bit key space, and a few hundred keys spread
    // over the whole 64-bit domain with `u64::MAX` among them.
    let dense: Vec<u64> = (0..1 << 16).collect();
    let mut wide: Vec<u64> = (0..512).map(|i| i * (u64::MAX / 512) + i).collect();
    wide.push(u64::MAX);
    for (hash, domain, universe) in [
        (false, 1 << 16, &dense),
        (true, 1 << 16, &dense),
        (false, u64::MAX, &wide),
        (true, u64::MAX, &wide),
    ] {
        let case = format!("hash={hash} domain={domain}");
        let mut rng = StdRng::seed_from_u64(0x1CE + hash as u64);
        let mut e = Engine::new(
            eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                collect_results: true,
                tree: if domain == u64::MAX {
                    EngineConfig::default().tree
                } else {
                    PrefixTreeConfig::new(8, 32)
                },
                ..Default::default()
            },
        );
        let idx = if hash {
            e.create_hash_index("t", domain)
        } else {
            e.create_index("t", domain)
        };
        // Every other key but the last is there from the start (a bulk
        // load takes keys below `domain` only).
        let last = universe.len() - 1;
        let mut oracle: BTreeMap<u64, u64> = universe[..last]
            .iter()
            .step_by(2)
            .map(|&k| (k, k ^ 0x5EED))
            .collect();
        e.bulk_load_index(idx, oracle.iter().map(|(&k, &v)| (k, v)));
        let n = e.num_aeus() as u64;
        let mut ticket = 0u64;
        // A few keys every round hits again and again, the top of the
        // universe among them.
        let hot = [7, 8, last / 2, last - 1, last].map(|i| universe[i]);
        let mut pick = |i: usize, every: usize| match i % every {
            0 => hot[rng.gen_range(0..hot.len())],
            _ => universe[rng.gen_range(0..universe.len())],
        };

        for round in 0..12u64 {
            // Upserts.  Every key goes through the AEU `key % n`, so the
            // commands that write one key arrive in submission order; the
            // hot keys are written by many commands of the same group.
            let before = e.results().counts();
            let mut fresh = 0;
            for i in 0..600 {
                let (k, v) = (pick(i, 5), round << 32 | i as u64);
                fresh += oracle.insert(k, v).is_none() as u64;
                let pairs = vec![(k, v)];
                let via = |_| AeuId((k % n) as u32);
                submit_each(&mut e, idx, &mut ticket, via, [Payload::Upsert { pairs }]);
            }
            e.run_until_drained();
            let counts = e.results().counts() - before;
            assert_eq!(counts.upserts, 600, "{case} round {round}");
            assert_eq!(
                counts.inserted_new, fresh,
                "{case} round {round}: a key first written by several commands of one \
                 group is new once"
            );

            // Lookups, through every AEU: a key asked for by several
            // commands of one group is answered to each of them.
            let keys: Vec<u64> = (0..600).map(|i| pick(i, 4)).collect();
            let tickets = submit_each(
                &mut e,
                idx,
                &mut ticket,
                |t| AeuId((t % n) as u32),
                keys.iter().map(|&k| Payload::Lookup { keys: vec![k] }),
            );
            e.run_until_drained();
            let got = answers_by_ticket(&e);
            assert_eq!(got.len(), tickets.len(), "{case} round {round}");
            for (t, k) in tickets.iter().zip(&keys) {
                assert_eq!(
                    got[t],
                    vec![(*k, oracle.get(k).copied())],
                    "{case} round {round}: ticket {t}, key {k}"
                );
            }
            assert_eq!(e.telemetry().totals.forwarded, 0, "nothing moved");
        }
        let snap = e.telemetry();
        assert!(snap.conservation_holds(), "{snap}");
        // The groups were groups: far fewer kernel batches than commands.
        let t = &snap.totals;
        assert!(
            t.exec_batches * 8 < t.commands_executed,
            "{case}: {} commands in {} groups",
            t.commands_executed,
            t.exec_batches
        );
        let total: usize = e
            .aeu_ids()
            .iter()
            .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
            .sum();
        assert_eq!(total, oracle.len(), "{case}");
    }
}

#[test]
fn groups_mixing_all_mine_and_stray_commands_match_the_oracle() {
    // Small commands routed before a balancer cycle, executed after it: a
    // group then holds commands whose keys all stayed (they execute as one
    // batch) between commands that carry strays (each executes alone and
    // forwards the rest).  Pairs must still apply in arrival order across
    // the whole group, whichever way a command went.
    for hash in [false, true] {
        let mut rng = StdRng::seed_from_u64(0x57A7 + hash as u64);
        let domain: u64 = 1 << 16;
        let mut e = engine(2, 2);
        let idx = if hash {
            e.create_hash_index("t", domain)
        } else {
            e.create_index("t", domain)
        };
        let mut oracle: BTreeMap<u64, u64> =
            (0..domain).step_by(3).map(|k| (k, k ^ 0xABCD)).collect();
        e.bulk_load_index(idx, oracle.iter().map(|(&k, &v)| (k, v)));
        let mut ticket = 0u64;
        // Everything goes through one AEU: the commands that write a key
        // reach its owner — old, and after forwarding new — in submission
        // order, so the last one submitted wins.
        let via = |_| AeuId(1);
        // Keys many commands of a round write, spread over the domain.
        let hot: Vec<u64> = (0..64).map(|i| i * (domain / 64) + 5).collect();
        let mut stranded = [0, 0];

        for round in 0..8u64 {
            // Skew, so that the next balancer cycle has boundaries to move.
            let base = (round % 4) * domain / 4;
            let skew: Vec<Payload> = (0..8)
                .map(|_| Payload::Lookup {
                    keys: (0..256)
                        .map(|_| base + rng.gen_range(0..domain / 8))
                        .collect(),
                })
                .collect();
            submit_each(&mut e, idx, &mut ticket, via, skew);
            e.run_until_drained();
            e.results().take_lookup_values();

            // 1- to 3-key commands over the whole domain: one hot key and
            // up to two keys of their own.
            let upserts = round % 2 == 0;
            let mut asked: Vec<Vec<u64>> = Vec::new();
            let payloads: Vec<Payload> = (0..400u64)
                .map(|i| {
                    let mut keys = vec![hot[rng.gen_range(0..hot.len())]];
                    keys.extend((0..i % 3).map(|_| rng.gen_range(0..domain)));
                    if upserts {
                        let pairs: Vec<(u64, u64)> = keys
                            .iter()
                            .enumerate()
                            .map(|(j, &k)| (k, (round + 1) << 32 | i << 2 | j as u64))
                            .collect();
                        oracle.extend(pairs.iter().copied());
                        Payload::Upsert { pairs }
                    } else {
                        asked.push(keys.clone());
                        Payload::Lookup { keys }
                    }
                })
                .collect();
            let tickets = submit_each(&mut e, idx, &mut ticket, via, payloads);
            // Stranded: the ranges move before the commands execute.
            let before = e.telemetry().totals.forwarded;
            e.run_balancer();
            e.run_until_drained();
            if e.telemetry().totals.forwarded > before {
                stranded[upserts as usize] += 1;
            }
            let got = answers_by_ticket(&e);
            for (t, keys) in tickets.iter().zip(&asked) {
                let mut want: Vec<_> = keys.iter().map(|k| (*k, oracle.get(k).copied())).collect();
                want.sort_unstable();
                assert_eq!(
                    got.get(t),
                    Some(&want),
                    "hash={hash} round {round} ticket {t}"
                );
            }

            // Read everything back with 1-key commands.
            let keys: Vec<u64> = oracle
                .keys()
                .copied()
                .filter(|k| k % 7 == round % 7)
                .collect();
            let tickets = submit_each(
                &mut e,
                idx,
                &mut ticket,
                via,
                hot.iter()
                    .chain(&keys)
                    .map(|&k| Payload::Lookup { keys: vec![k] }),
            );
            e.run_until_drained();
            let got = answers_by_ticket(&e);
            for (t, k) in tickets.iter().zip(hot.iter().chain(&keys)) {
                assert_eq!(
                    got[t],
                    vec![(*k, oracle.get(k).copied())],
                    "hash={hash} round {round}: key {k}"
                );
            }
        }
        assert!(
            stranded[0] > 0 && stranded[1] > 0,
            "hash={hash}: lookups and upserts both had strays to forward: {stranded:?}"
        );
        let snap = e.telemetry();
        assert!(snap.conservation_holds(), "{snap}");
        let total: usize = e
            .aeu_ids()
            .iter()
            .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
            .sum();
        assert_eq!(total, oracle.len(), "hash={hash}");
    }
}

#[test]
fn scans_match_oracle_aggregates() {
    let mut rng = StdRng::seed_from_u64(7);
    let domain: u64 = 1 << 16;
    let mut e = engine(2, 2);
    let idx = e.create_index("t", domain);
    let data: Vec<(u64, u64)> = (0..5000)
        .map(|_| (rng.gen_range(0..domain), rng.gen_range(0..1000)))
        .collect();
    let mut oracle = BTreeMap::new();
    for &(k, v) in &data {
        oracle.insert(k, v);
    }
    e.bulk_load_index(idx, oracle.iter().map(|(&k, &v)| (k, v)));

    for t in 0..20u64 {
        let lo = rng.gen_range(0..domain);
        let hi = rng.gen_range(lo..=domain);
        e.submit(
            AeuId(0),
            DataCommand {
                object: idx,
                ticket: t,
                payload: Payload::Scan {
                    pred: Predicate::Range { lo, hi },
                    agg: Aggregate::Sum,
                    snapshot: u64::MAX,
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let want: u64 = oracle.range(lo..hi).map(|(_, &v)| v).sum();
        match e.results().combine_scan(t) {
            Some(eris_column::scan::AggregateResult::Sum(s)) => {
                assert_eq!(s, want, "range [{lo},{hi})")
            }
            other => panic!("expected a sum, got {other:?}"),
        }
    }
}

#[test]
fn coalesced_scans_match_unshared_baseline() {
    // Scan sharing (coalesced execution of simultaneous scans through one
    // SharedScan sweep) is a pure throughput optimization: the results must
    // be bit-identical to running the very same scans one at a time, where
    // no coalescing can occur.  Telemetry proves each mode did what the
    // test assumes.
    let mut rng = StdRng::seed_from_u64(0xC0A1);
    let domain: u64 = 1 << 16;
    let rows: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..domain)).collect();
    let queries: Vec<(Predicate, Aggregate)> = (0..40)
        .map(|i| {
            let pred = match i % 3 {
                0 => Predicate::All,
                1 => {
                    let lo = rng.gen_range(0..domain);
                    Predicate::Range {
                        lo,
                        hi: rng.gen_range(lo..=domain),
                    }
                }
                _ => Predicate::Equals(rows[rng.gen_range(0..rows.len())]),
            };
            let agg = match i % 4 {
                0 => Aggregate::Count,
                1 | 2 => Aggregate::Sum,
                _ => Aggregate::MinMax,
            };
            (pred, agg)
        })
        .collect();

    let run = |batched: bool| {
        let mut e = engine(2, 2);
        let col = e.create_column("c");
        e.bulk_load_column(col, rows.iter().copied());
        let mut results = Vec::with_capacity(queries.len());
        for (t, &(pred, agg)) in queries.iter().enumerate() {
            e.submit(
                AeuId((t % 4) as u32),
                DataCommand {
                    object: col,
                    ticket: t as u64,
                    payload: Payload::Scan {
                        pred,
                        agg,
                        snapshot: u64::MAX,
                    },
                },
            )
            .unwrap();
            if !batched {
                // One scan in flight at a time: nothing to coalesce with.
                e.run_until_drained();
            }
        }
        e.run_until_drained();
        for t in 0..queries.len() as u64 {
            results.push(e.results().combine_scan(t));
        }
        (results, e.telemetry().totals)
    };

    let (shared_results, shared_tel) = run(true);
    let (solo_results, solo_tel) = run(false);

    assert!(
        shared_tel.coalesced_scans > 0,
        "batched submission actually exercised scan sharing: {shared_tel:?}"
    );
    assert_eq!(
        solo_tel.coalesced_scans, 0,
        "one-at-a-time submission must not coalesce: {solo_tel:?}"
    );
    assert_eq!(shared_tel.scans, solo_tel.scans, "same scan count");
    for (t, (s, u)) in shared_results.iter().zip(&solo_results).enumerate() {
        assert!(s.is_some(), "query {t} answered");
        assert_eq!(s, u, "query {t} ({:?}): shared == unshared", queries[t]);
    }
}

#[test]
fn chunked_and_scalar_kernels_agree_end_to_end() {
    // The fused chunked sweep (AVX2 lanes or the portable kernels,
    // whichever `simd::level()` selects) is the engine's only scan path;
    // the row-at-a-time scalar path survives as the oracle.  Every AEU's
    // partial result must equal the scalar oracle run over that AEU's
    // partition column — including at MVCC snapshot cuts that land
    // mid-chunk and at the very top of the u64 value domain — and
    // telemetry must show the one dispatch counted what actually ran.
    use eris_column::{simd, SharedScan, SimdLevel};
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let domain: u64 = 1 << 16;
    let mut rows: Vec<u64> = (0..30_000).map(|_| rng.gen_range(0..domain)).collect();
    rows.extend([0, u64::MAX - 1, u64::MAX]);
    let queries: Vec<(Predicate, Aggregate, u64)> = (0..48)
        .map(|i| {
            let pred = match i % 4 {
                0 => Predicate::All,
                1 => {
                    let lo = rng.gen_range(0..domain);
                    Predicate::Range {
                        lo,
                        hi: rng.gen_range(lo..=domain),
                    }
                }
                // Unbounded-above sentinel: reaches u64::MAX.
                2 => Predicate::Range {
                    lo: rng.gen_range(0..domain),
                    hi: u64::MAX,
                },
                _ => Predicate::Equals(rows[rng.gen_range(0..rows.len())]),
            };
            let agg = match i % 3 {
                0 => Aggregate::Count,
                1 => Aggregate::Sum,
                _ => Aggregate::MinMax,
            };
            // Snapshots cutting before, inside, and past the first chunk of
            // each per-AEU partition (30k rows over 4 AEUs ≈ 7.5k each).
            let snapshot = [0, 1, 1023, 1024, 1025, 5000, u64::MAX][i % 7];
            (pred, agg, snapshot)
        })
        .collect();

    let mut e = engine(2, 2);
    let col = e.create_column("c");
    e.bulk_load_column(col, rows.iter().copied());
    for (t, &(pred, agg, snapshot)) in queries.iter().enumerate() {
        e.submit(
            AeuId((t % 4) as u32),
            DataCommand {
                object: col,
                ticket: t as u64,
                payload: Payload::Scan {
                    pred,
                    agg,
                    snapshot,
                },
            },
        )
        .unwrap();
    }
    e.run_until_drained();

    let mut got = e.results().take_scan_results();
    got.sort_by_key(|&(t, a, _)| (t, a));
    let mut want = Vec::new();
    for (t, &(pred, agg, snapshot)) in queries.iter().enumerate() {
        for a in e.aeu_ids() {
            let part = &e.aeu(a).partition(col).unwrap().data;
            let eris_core::PartitionData::Column(part) = part else {
                panic!("column partition expected");
            };
            let mut oracle = SharedScan::new();
            oracle.add(pred, snapshot.min(part.len() as u64) as usize, agg);
            want.push((t as u64, a, oracle.execute_scalar(part).0[0]));
        }
    }
    assert_eq!(got.len(), want.len(), "one partial per query and AEU");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "query {:?}: engine == scalar oracle",
            queries[g.0 as usize]
        );
    }

    let t = e.telemetry().totals;
    let (ran, idle) = match simd::level() {
        SimdLevel::Avx2 => (t.simd_sweeps, t.chunked_sweeps),
        SimdLevel::Portable => (t.chunked_sweeps, t.simd_sweeps),
    };
    assert!(
        ran > 0 && idle == 0 && t.scalar_sweeps == 0,
        "exactly the counter of the kernels that ran moved ({:?}): {t:?}",
        simd::level()
    );
}

#[test]
fn one_sweep_per_partition_answers_many_scans() {
    // Eleven scans of one epoch: three ranges x {Count, Sum, MinMax}, and
    // the first range's Count and Sum again under a snapshot that cuts a
    // chunk.  Submitted through one AEU, they reach every partition in
    // one batch, and each AEU answers them in one shared sweep, in which the
    // Count and Sum of a range share one evaluation and the cut copy gets
    // an evaluation of its own.  Every AEU's partial must equal the
    // scalar oracle over that AEU's partition column, and the sweep
    // counters must show one sweep per AEU.
    use eris_column::{simd, SharedScan, SimdLevel};
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    let domain: u64 = 1 << 16;
    let rows: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..domain)).collect();
    let mut queries: Vec<(Predicate, Aggregate, u64)> = Vec::new();
    for (lo, hi) in [(100, 30_000), (20_000, 20_500), (0, u64::MAX)] {
        for agg in [Aggregate::Count, Aggregate::Sum, Aggregate::MinMax] {
            queries.push((Predicate::Range { lo, hi }, agg, u64::MAX));
        }
    }
    for agg in [Aggregate::Count, Aggregate::Sum] {
        queries.push((
            Predicate::Range {
                lo: 100,
                hi: 30_000,
            },
            agg,
            2500,
        ));
    }

    let mut e = engine(2, 2);
    let col = e.create_column("c");
    e.bulk_load_column(col, rows.iter().copied());
    let before = e.telemetry().totals;
    for (t, &(pred, agg, snapshot)) in queries.iter().enumerate() {
        e.submit(
            AeuId(0),
            DataCommand {
                object: col,
                ticket: t as u64,
                payload: Payload::Scan {
                    pred,
                    agg,
                    snapshot,
                },
            },
        )
        .unwrap();
    }
    e.run_until_drained();

    let mut got = e.results().take_scan_results();
    got.sort_by_key(|&(t, a, _)| (t, a));
    let mut want = Vec::new();
    for (t, &(pred, agg, snapshot)) in queries.iter().enumerate() {
        for a in e.aeu_ids() {
            let eris_core::PartitionData::Column(part) = &e.aeu(a).partition(col).unwrap().data
            else {
                panic!("column partition expected");
            };
            assert!(part.len() > 2500, "the cut lands inside the partition");
            let mut oracle = SharedScan::new();
            oracle.add(pred, snapshot.min(part.len() as u64) as usize, agg);
            want.push((t as u64, a, oracle.execute_scalar(part).0[0]));
        }
    }
    assert_eq!(got, want, "engine == scalar oracle, per AEU and query");

    let t = e.telemetry().totals;
    let (ran, idle) = match simd::level() {
        SimdLevel::Avx2 => (
            t.simd_sweeps - before.simd_sweeps,
            t.chunked_sweeps - before.chunked_sweeps,
        ),
        SimdLevel::Portable => (
            t.chunked_sweeps - before.chunked_sweeps,
            t.simd_sweeps - before.simd_sweeps,
        ),
    };
    assert_eq!(
        (ran, idle, t.scalar_sweeps),
        (e.num_aeus() as u64, 0, 0),
        "one sweep per AEU, counted by the kernels that ran: {t:?}"
    );
}

#[test]
fn a_key_outside_the_domain_is_rejected_at_submit() {
    // A key at or past an index's domain used to be routed to the last
    // AEU, judged a stray there and forwarded to itself forever: one
    // hostile command hung `run_until_drained`.  It is a typed error at
    // submit now, for lookups and upserts, tree and hash partitions, alone
    // or next to valid keys — nothing is enqueued, the ledgers stay shut.
    let domain: u64 = 1 << 16;
    for hash in [false, true] {
        let mut e = engine(2, 2);
        let idx = if hash {
            e.create_hash_index("t", domain)
        } else {
            e.create_index("t", domain)
        };
        e.bulk_load_index(idx, (0..100u64).map(|k| (k, k + 1)));
        for (ticket, key) in [domain, domain + 7, u64::MAX - 1, u64::MAX]
            .into_iter()
            .enumerate()
        {
            for payload in [
                Payload::Lookup { keys: vec![key] },
                Payload::Lookup {
                    keys: vec![3, domain - 1, key, 4],
                },
                Payload::Upsert {
                    pairs: vec![(key, 1)],
                },
                Payload::Upsert {
                    pairs: vec![(5, 50), (key, 1)],
                },
            ] {
                let res = e.submit(
                    AeuId(ticket as u32 % 4),
                    DataCommand {
                        object: idx,
                        ticket: ticket as u64,
                        payload,
                    },
                );
                // A bounded drain: this must fail, not hang, where the
                // command is accepted and circulates.
                let mut epochs = 0;
                while !e.is_idle() && epochs < 64 {
                    e.run_epoch();
                    epochs += 1;
                }
                assert!(
                    e.is_idle(),
                    "hash={hash}, key {key}: still circulating after {epochs} epochs"
                );
                assert_eq!(
                    res,
                    Err(RoutingError::KeyOutOfDomain {
                        object: idx,
                        key,
                        domain
                    }),
                    "hash={hash}"
                );
                assert_eq!(epochs, 0, "nothing was enqueued");
            }
        }
        let snap = e.telemetry();
        assert!(snap.conservation_holds() && snap.trace.balances());
        assert_eq!(snap.totals.commands_executed, 0);
        assert_eq!(
            e.results().counts().upserts,
            0,
            "no pair of a rejected command applied"
        );
        // The engine is unharmed: the domain's own keys still answer.
        e.submit(
            AeuId(1),
            DataCommand {
                object: idx,
                ticket: 99,
                payload: Payload::Lookup {
                    keys: vec![5, domain - 1],
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let mut got = e.results().take_lookup_values();
        got.sort();
        assert_eq!(got, vec![(99, 5, Some(6)), (99, domain - 1, None)]);
    }
}

#[test]
fn the_top_key_of_the_domain_round_trips() {
    // Key u64::MAX used to be unreachable: half-open ranges saturate at
    // the top of the domain, so the key routed correctly but every
    // validity check called it a stray and every scan bound excluded it.
    // Upsert → lookup → scan must all see it now, for both in-partition
    // structures that store keys.
    for hash in [false, true] {
        let mut e = Engine::new(
            eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                collect_results: true,
                // Default 64-bit tree: the full u64 key domain.
                ..Default::default()
            },
        );
        let idx = if hash {
            e.create_hash_index("t", u64::MAX)
        } else {
            e.create_index("t", u64::MAX)
        };
        e.submit(
            AeuId(0),
            DataCommand {
                object: idx,
                ticket: 1,
                payload: Payload::Upsert {
                    pairs: vec![(u64::MAX, 42), (0, 7), (1 << 40, 9)],
                },
            },
        )
        .unwrap();
        e.run_until_drained();

        e.submit(
            AeuId(1),
            DataCommand {
                object: idx,
                ticket: 2,
                payload: Payload::Lookup {
                    keys: vec![u64::MAX, 0, 12345],
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let mut got = e.results().take_lookup_values();
        got.sort();
        assert_eq!(
            got,
            vec![(2, 0, Some(7)), (2, 12345, None), (2, u64::MAX, Some(42)),],
            "hash={hash}: the top key answers like any other"
        );

        // Scans phrase the top key three ways; all must include it.
        for (t, pred, want) in [
            (3, Predicate::Equals(u64::MAX), 42u64),
            // `hi == u64::MAX` is the unbounded-above sentinel.
            (
                4,
                Predicate::Range {
                    lo: u64::MAX,
                    hi: u64::MAX,
                },
                42,
            ),
            (5, Predicate::All, 42 + 7 + 9),
        ] {
            e.submit(
                AeuId(0),
                DataCommand {
                    object: idx,
                    ticket: t,
                    payload: Payload::Scan {
                        pred,
                        agg: Aggregate::Sum,
                        snapshot: u64::MAX,
                    },
                },
            )
            .unwrap();
            e.run_until_drained();
            assert_eq!(
                e.results().combine_scan(t),
                Some(eris_column::scan::AggregateResult::Sum(want)),
                "hash={hash}, ticket {t}: {pred:?}"
            );
        }
    }
}

#[test]
fn multiple_objects_are_independent() {
    let mut e = engine(2, 2);
    let a = e.create_index("a", 1 << 16);
    let b = e.create_index("b", 1 << 16);
    let col = e.create_column("c");
    e.bulk_load_index(a, (0..100u64).map(|k| (k, k)));
    e.bulk_load_index(b, (0..100u64).map(|k| (k, k * 100)));
    e.bulk_load_column(col, 0..1000u64);

    e.submit(
        AeuId(0),
        DataCommand {
            object: a,
            ticket: 1,
            payload: Payload::Lookup { keys: vec![50] },
        },
    )
    .unwrap();
    e.submit(
        AeuId(1),
        DataCommand {
            object: b,
            ticket: 2,
            payload: Payload::Lookup { keys: vec![50] },
        },
    )
    .unwrap();
    e.submit(
        AeuId(2),
        DataCommand {
            object: col,
            ticket: 3,
            payload: Payload::Scan {
                pred: Predicate::All,
                agg: Aggregate::Count,
                snapshot: u64::MAX,
            },
        },
    )
    .unwrap();
    e.run_until_drained();
    let mut got = e.results().take_lookup_values();
    got.sort();
    assert_eq!(got, vec![(1, 50, Some(50)), (2, 50, Some(5000))]);
    assert_eq!(
        e.results().combine_scan(3),
        Some(eris_column::scan::AggregateResult::Count(1000))
    );
}

#[test]
fn column_appends_distribute_over_members() {
    let mut e = engine(2, 2);
    let col = e.create_column("c");
    for i in 0..40u64 {
        e.submit(
            AeuId(0),
            DataCommand {
                object: col,
                ticket: i,
                payload: Payload::Upsert {
                    pairs: vec![(0, i)],
                },
            },
        )
        .unwrap();
    }
    e.run_until_drained();
    let lens: Vec<usize> = e
        .aeu_ids()
        .iter()
        .map(|a| e.aeu(*a).partition(col).map_or(0, |p| p.data.len()))
        .collect();
    assert_eq!(lens.iter().sum::<usize>(), 40);
    assert!(
        lens.iter().all(|&l| l == 10),
        "round-robin appends: {lens:?}"
    );
}

#[test]
fn real_machines_route_correctly() {
    // Smoke the three paper machines end to end: index lookups and
    // column scans.
    for topo in [
        eris_numa::intel_machine(),
        eris_numa::amd_machine(),
        eris_numa::sgi_machine(),
    ] {
        let name = topo.name().to_string();
        let mut e = Engine::new(
            topo,
            EngineConfig {
                collect_results: true,
                tree: PrefixTreeConfig::new(8, 32),
                ..Default::default()
            },
        );
        let idx = e.create_index("t", 1 << 24);
        e.bulk_load_index(idx, (0..10_000u64).map(|k| (k * 1000, k)));
        let col = e.create_column("c");
        e.bulk_load_column(col, (0..1000u64).map(|i| i % 100));
        let scans = [
            (Predicate::Range { lo: 90, hi: 100 }, Aggregate::Count),
            (Predicate::All, Aggregate::MinMax),
        ];
        for (ticket, (pred, agg)) in (2u64..).zip(scans) {
            let payload = Payload::Scan {
                pred,
                agg,
                snapshot: u64::MAX,
            };
            let scan = DataCommand {
                object: col,
                ticket,
                payload,
            };
            e.submit(AeuId(0), scan).unwrap();
        }
        e.submit(
            AeuId(0),
            DataCommand {
                object: idx,
                ticket: 1,
                payload: Payload::Lookup {
                    keys: vec![0, 5_000_000, 9_999_000, 13],
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let mut got = e.results().take_lookup_values();
        got.sort();
        assert_eq!(
            got,
            vec![
                (1, 0, Some(0)),
                (1, 13, None),
                (1, 5_000_000, Some(5000)),
                (1, 9_999_000, Some(9999)),
            ],
            "{name}"
        );
        assert_eq!(
            e.results().combine_scan(2),
            Some(eris_column::scan::AggregateResult::Count(100)),
            "{name}"
        );
        assert_eq!(
            e.results().combine_scan(3),
            Some(eris_column::scan::AggregateResult::MinMax(Some((0, 99)))),
            "{name}"
        );
    }
}
