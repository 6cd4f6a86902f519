//! The telemetry design invariant (ISSUE: engine-wide telemetry layer):
//! after `run_until_drained()`, commands-enqueued must equal
//! commands-executed for every data object — under both the cooperative
//! single-threaded runtime and the real-thread runtime.

use eris_core::prelude::*;
use eris_core::DataObjectId;
use std::time::Duration;

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
fn conservation_single_threaded_mixed_workload() {
    let domain: u64 = 1 << 16;
    let mut e = engine(4, 2);
    let idx = e.create_index("t", domain);
    let col = e.create_column("c");
    e.bulk_load_index(idx, (0..domain).step_by(3).map(|k| (k, k + 1)));
    e.bulk_load_column(col, 0..1000u64);

    let mut ticket = 0u64;
    let num_aeus = e.num_aeus() as u32;
    for round in 0..50u64 {
        let via = AeuId((round as u32 * 7) % num_aeus);
        ticket += 1;
        // Unicast-ish: point lookups land on few partitions.
        e.submit(
            via,
            DataCommand {
                object: idx,
                ticket,
                payload: Payload::Lookup {
                    keys: (0..16).map(|i| (round * 31 + i * 97) % domain).collect(),
                },
            },
        )
        .unwrap();
        ticket += 1;
        // Upserts.
        e.submit(
            via,
            DataCommand {
                object: idx,
                ticket,
                payload: Payload::Upsert {
                    pairs: (0..8)
                        .map(|i| ((round * 131 + i) % domain, round))
                        .collect(),
                },
            },
        )
        .unwrap();
        ticket += 1;
        // Multicast: a full scan fans out to every member AEU.
        e.submit(
            via,
            DataCommand {
                object: col,
                ticket,
                payload: Payload::Scan {
                    pred: Predicate::All,
                    agg: Aggregate::Sum,
                    snapshot: u64::MAX,
                },
            },
        )
        .unwrap();
    }
    e.run_until_drained();

    let snap = e.telemetry();
    assert!(
        snap.conservation_holds(),
        "enqueued == executed per object after drain:\n{snap}"
    );
    for f in &snap.objects {
        assert_eq!(
            f.in_flight(),
            0,
            "object {:?}: enqueued {} vs executed {}",
            f.object,
            f.enqueued,
            f.executed
        );
    }
    // The workload actually exercised every counter family we rely on.
    let t = &snap.totals;
    assert!(t.commands_routed > 0, "routed: {t:?}");
    assert!(t.commands_unicast > 0, "unicast: {t:?}");
    assert!(t.commands_multicast > 0, "multicast (scans fan out): {t:?}");
    assert!(t.flushes > 0 && t.flush_bytes > 0, "flushes: {t:?}");
    assert!(t.buffer_swaps > 0 && t.swapped_bytes > 0, "swaps: {t:?}");
    assert!(t.lookups > 0 && t.upserts > 0 && t.scans > 0, "ops: {t:?}");
    // `commands_routed` counts routing decisions (one per command), while
    // unicast/multicast count per-target deliveries; after a full drain the
    // deliveries are exactly what got executed.
    assert_eq!(
        t.commands_executed,
        t.commands_unicast + t.commands_multicast,
        "every delivered command is executed after drain"
    );
    assert!(
        t.commands_routed <= t.commands_unicast + t.commands_multicast,
        "multicast fan-out can only add deliveries"
    );
    // Per-AEU shards roll up to the engine totals.
    let rollup: u64 = snap.per_aeu.iter().map(|c| c.commands_executed).sum();
    assert_eq!(rollup, t.commands_executed, "shard rollup");
    // Per-node roll-up covers the same commands.
    let node_sum: u64 = snap.per_node.iter().map(|(_, c)| c.commands_executed).sum();
    assert_eq!(node_sum, t.commands_executed, "node rollup");
    // Histograms saw the executed batches.
    assert!(
        snap.swap_batch.count() > 0,
        "swap batch histogram populated"
    );
    assert!(
        snap.exec_group.count() > 0,
        "exec group histogram populated"
    );
}

#[test]
fn conservation_under_real_threads() {
    let domain: u64 = 1 << 16;
    let mut e = engine(2, 4);
    let idx = e.create_index("t", domain);
    e.bulk_load_index(idx, (0..domain).map(|k| (k, k + 1)));
    for a in e.aeu_ids() {
        let mut x = (a.0 as u64 + 11).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let keys: Vec<u64> = (0..16).map(|i| (x >> i) % (1 << 16)).collect();
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload: Payload::Lookup { keys },
                });
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 1,
                    payload: Payload::Upsert {
                        pairs: vec![(x % (1 << 16), x)],
                    },
                });
            })),
        );
    }
    e.run_threaded_for(Duration::from_millis(300));
    // Stop generating, then drain stragglers cooperatively.
    e.drain_and_quiesce();

    let snap = e.telemetry();
    assert!(
        snap.conservation_holds(),
        "threaded: enqueued == executed per object:\n{snap}"
    );
    let t = &snap.totals;
    assert!(
        t.commands_routed > 1000,
        "threaded run made progress: {t:?}"
    );
    assert_eq!(
        t.commands_unicast + t.commands_multicast,
        t.commands_executed,
        "nothing lost between routing and execution"
    );
    assert!(t.lookups > 0 && t.upserts > 0);
}

#[test]
fn epoch_reports_carry_telemetry_deltas() {
    let domain: u64 = 1 << 14;
    let mut e = engine(2, 2);
    let idx = e.create_index("t", domain);
    e.bulk_load_index(idx, (0..domain).map(|k| (k, k)));

    e.submit(
        AeuId(0),
        DataCommand {
            object: idx,
            ticket: 1,
            payload: Payload::Lookup {
                keys: (0..64).collect(),
            },
        },
    )
    .unwrap();
    // `submit` routes before any epoch runs, so deltas account for
    // everything *after* this baseline.
    let base = e.telemetry().totals;
    let mut delta_routed = 0u64;
    let mut delta_executed = 0u64;
    for _ in 0..50 {
        let r = e.run_epoch();
        delta_routed += r.telemetry.commands_routed;
        delta_executed += r.telemetry.commands_executed;
    }
    let totals = e.telemetry().totals;
    assert_eq!(
        delta_routed,
        totals.commands_routed - base.commands_routed,
        "deltas sum to totals"
    );
    assert_eq!(
        delta_executed,
        totals.commands_executed - base.commands_executed
    );
    assert!(delta_executed > 0, "the lookup actually ran");

    // A drained engine produces an all-quiet epoch delta for sums, while
    // peak gauges keep reporting the high-water mark.
    let quiet = e.run_epoch();
    assert_eq!(quiet.telemetry.commands_routed, 0);
    assert_eq!(quiet.telemetry.commands_executed, 0);
    assert!(quiet.telemetry.peak_incoming_bytes > 0, "gauge survives");
}

#[test]
fn deltas_survive_a_mid_window_counter_reset() {
    // `CounterSnapshot::since` subtracts an earlier baseline — but when
    // `reset_counters` lands inside the window, every counter restarts
    // from zero and a plain saturating subtraction would clamp the whole
    // delta to 0, silently masking all post-reset work.  Snapshots carry
    // a reset generation: across a reset, the post-reset values *are* the
    // delta.
    let mut e = engine(2, 2);
    let idx = e.create_index("t", 1 << 14);
    e.bulk_load_index(idx, (0..100u64).map(|k| (k, k)));

    let lookups = |e: &mut Engine, ticket: u64, n: u64| {
        e.submit(
            AeuId(0),
            DataCommand {
                object: idx,
                ticket,
                payload: Payload::Lookup {
                    keys: (0..n).collect(),
                },
            },
        )
        .unwrap();
        e.run_until_drained();
    };

    lookups(&mut e, 1, 64);
    let before = e.telemetry().totals;

    // Same-generation windows subtract as usual.
    lookups(&mut e, 2, 5);
    let mid = e.telemetry().totals;
    assert_eq!(mid.generation, before.generation);
    assert_eq!(mid.since(&before).lookups, 5, "ordinary window");

    // A reset lands mid-window: the old baseline is void.
    e.reset_counters();
    lookups(&mut e, 3, 7);
    let after = e.telemetry().totals;
    assert_ne!(
        after.generation, before.generation,
        "reset bumps the generation"
    );
    let delta = after.since(&before);
    assert_eq!(
        delta.lookups, 7,
        "post-reset counts are the delta — not clamped to zero: {delta:?}"
    );
    assert!(
        delta.commands_executed > 0,
        "the post-reset lookup's routing work survives: {delta:?}"
    );
}

#[test]
fn trace_ledger_balances_under_cooperative_runtime() {
    // Sampled-latency conservation (ISSUE 4): every command stamped at
    // routing time is either recorded at execution or accounted as
    // dropped — never silently lost.  Dense sampling (1-in-4) so a small
    // workload still stamps plenty.
    let domain: u64 = 1 << 14;
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 4, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            tree: PrefixTreeConfig::new(8, 32),
            routing: RoutingConfig {
                trace_sample_every: 4,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let idx = e.create_index("t", domain);
    e.bulk_load_index(idx, (0..domain).map(|k| (k, k)));
    let num_aeus = e.num_aeus() as u32;
    for round in 0..200u64 {
        let via = AeuId((round as u32 * 5) % num_aeus);
        let payload = if round.is_multiple_of(3) {
            Payload::Upsert {
                pairs: (0..8)
                    .map(|i| ((round * 131 + i) % domain, round))
                    .collect(),
            }
        } else {
            Payload::Lookup {
                keys: (0..16).map(|i| (round * 31 + i * 97) % domain).collect(),
            }
        };
        e.submit(
            via,
            DataCommand {
                object: idx,
                ticket: round,
                payload,
            },
        )
        .unwrap();
    }
    e.run_until_drained();

    let snap = e.telemetry();
    assert!(
        snap.trace.stamped > 0,
        "sampler stamped commands: {:?}",
        snap.trace
    );
    assert!(
        snap.trace.balances(),
        "stamped == traced + dropped after drain: {:?}",
        snap.trace
    );
    // Every traced command landed in exactly one latency series.
    let recorded: u64 = snap.latency.iter().map(|(_, s)| s.queue_wait.count).sum();
    assert_eq!(
        recorded, snap.trace.traced,
        "latency table covers every trace"
    );
    // Both command kinds were sampled (round % 3 breaks sampler aliasing).
    assert!(
        snap.latency.len() >= 2,
        "lookup and upsert series: {:?}",
        snap.latency
    );
    // Ring accounting is exact on every AEU.
    for (i, r) in snap.rings.iter().enumerate() {
        assert_eq!(
            r.emitted,
            r.retained + r.dropped,
            "ring {i} conserves: {r:?}"
        );
        assert!(r.retained <= r.capacity, "ring {i} within capacity");
    }
}

#[test]
fn trace_ledger_balances_under_real_threads() {
    // The same conservation law under the real-thread runtime: stamps are
    // taken on 8 concurrent routers and resolved on whichever AEU executes
    // the batch.
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 4, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            tree: PrefixTreeConfig::new(8, 32),
            routing: RoutingConfig {
                trace_sample_every: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let domain: u64 = 1 << 16;
    let _ = e.create_index("t", domain);
    for a in e.aeu_ids() {
        let mut x = (a.0 as u64 + 17).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let payload = if x.is_multiple_of(4) {
                    Payload::Upsert {
                        pairs: (0..4).map(|i| ((x >> i) % (1 << 16), x)).collect(),
                    }
                } else {
                    Payload::Lookup {
                        keys: (0..16).map(|i| (x >> i) % (1 << 16)).collect(),
                    }
                };
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload,
                });
            })),
        );
    }
    e.run_threaded_for(Duration::from_millis(250));
    e.drain_and_quiesce();

    let snap = e.telemetry();
    assert!(
        snap.trace.stamped > 0,
        "threaded sampler stamped: {:?}",
        snap.trace
    );
    assert!(
        snap.trace.balances(),
        "threaded: stamped == traced + dropped: {:?}",
        snap.trace
    );
    let recorded: u64 = snap.latency.iter().map(|(_, s)| s.queue_wait.count).sum();
    assert_eq!(
        recorded, snap.trace.traced,
        "latency table covers every trace"
    );
    for (i, r) in snap.rings.iter().enumerate() {
        assert_eq!(
            r.emitted,
            r.retained + r.dropped,
            "ring {i} conserves: {r:?}"
        );
    }
    assert!(
        snap.rings.iter().map(|r| r.emitted).sum::<u64>() > 0,
        "execution emitted trace events"
    );
}

#[test]
fn one_key_command_groups_conserve_under_both_runtimes() {
    // The serving shape: many 1-key commands per AEU and step, executed
    // as one batch per (object, op) group, on a prefix tree and a hash
    // index at once.  Group execution publishes its counters per group;
    // both ledgers must still balance command for command — per object
    // enqueued == executed, and stamped == traced + dropped with every
    // fourth command stamped.
    let build = || {
        let mut e = Engine::new(
            eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                tree: PrefixTreeConfig::new(8, 32),
                routing: RoutingConfig {
                    trace_sample_every: 4,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let domain = 1 << 16;
        let tree = e.create_index("tree", domain);
        let hash = e.create_hash_index("hash", domain);
        e.bulk_load_index(tree, (0..domain).step_by(2).map(|k| (k, k)));
        e.bulk_load_index(hash, (0..domain).step_by(2).map(|k| (k, k)));
        (e, [tree, hash])
    };
    // 64 one-key commands: x picks object, op and key.
    let burst = |mut x: u64, objects: [DataObjectId; 2], out: &mut Vec<DataCommand>| {
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x >> 8) % (1 << 16);
            out.push(DataCommand {
                object: objects[(x & 1) as usize],
                ticket: x,
                payload: if x & 6 == 0 {
                    Payload::Upsert {
                        pairs: vec![(key, x)],
                    }
                } else {
                    Payload::Lookup { keys: vec![key] }
                },
            });
        }
    };
    let check = |e: &Engine, runtime: &str| {
        let snap = e.telemetry();
        assert!(snap.conservation_holds(), "{runtime}:\n{snap}");
        for f in &snap.objects {
            assert!(f.enqueued > 0, "{runtime}: {:?} saw traffic", f.object);
            assert_eq!(f.in_flight(), 0, "{runtime}: {:?}", f.object);
        }
        assert!(snap.trace.stamped > 0, "{runtime}: {:?}", snap.trace);
        assert!(snap.trace.balances(), "{runtime}: {:?}", snap.trace);
        let recorded: u64 = snap.latency.iter().map(|(_, s)| s.queue_wait.count).sum();
        assert_eq!(
            recorded, snap.trace.traced,
            "{runtime}: every trace recorded"
        );
        let t = &snap.totals;
        assert_eq!(t.commands_executed, t.commands_unicast, "{runtime}");
        assert_eq!(
            t.lookups + t.upserts,
            t.commands_executed,
            "{runtime}: one operation per command"
        );
        assert!(
            t.exec_batches * 4 < t.commands_executed,
            "{runtime}: {} commands in {} groups",
            t.commands_executed,
            t.exec_batches
        );
    };

    // Cooperative: 64 commands through each AEU before every epoch.
    let (mut e, objects) = build();
    let mut cmds = Vec::new();
    for epoch in 0..40u64 {
        for a in e.aeu_ids() {
            burst(epoch * 31 + a.0 as u64 + 1, objects, &mut cmds);
            for cmd in cmds.drain(..) {
                e.submit(a, cmd).unwrap();
            }
        }
        e.run_epoch();
    }
    e.run_until_drained();
    check(&e, "cooperative");

    // Real threads: every AEU generates a burst per step.
    let (mut e, objects) = build();
    for a in e.aeu_ids() {
        e.set_generator(
            a,
            Some(Box::new(move |step, out| {
                burst(step * 131 + a.0 as u64 + 1, objects, out)
            })),
        );
    }
    e.run_threaded_for(Duration::from_millis(150));
    e.drain_and_quiesce();
    check(&e, "threaded");
}

#[test]
fn snapshot_renders_text_and_json() {
    let mut e = engine(2, 2);
    let idx = e.create_index("t", 1 << 12);
    e.bulk_load_index(idx, (0..100u64).map(|k| (k, k)));
    e.submit(
        AeuId(0),
        DataCommand {
            object: idx,
            ticket: 1,
            payload: Payload::Lookup {
                keys: vec![1, 2, 3],
            },
        },
    )
    .unwrap();
    e.run_until_drained();
    let snap = e.telemetry();
    let text = snap.to_string();
    assert!(text.contains("telemetry:"), "text render: {text}");
    assert!(text.contains("routed"), "text render: {text}");
}
