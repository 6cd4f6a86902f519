//! The threaded runtime: real OS threads exercising the latch-free
//! incoming-buffer protocol (64-bit descriptor CAS) under true parallelism.

use eris_core::prelude::*;
use eris_core::routing::IncomingBuffers;
use eris_core::DataObjectId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Stress depth: the default tier-1 run uses reduced loop depths so the
/// suite stays fast; `ERIS_STRESS=1` (set by the dedicated CI stress job)
/// restores the original full-depth loops.
fn stress() -> bool {
    std::env::var("ERIS_STRESS").is_ok_and(|v| v == "1")
}

fn stress_ms(full: u64, reduced: u64) -> Duration {
    Duration::from_millis(if stress() { full } else { reduced })
}

fn stress_n(full: u64, reduced: u64) -> u64 {
    if stress() {
        full
    } else {
        reduced
    }
}

#[test]
fn threaded_engine_loses_no_lookups() {
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 4, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            tree: PrefixTreeConfig::new(8, 32),
            ..Default::default()
        },
    );
    let domain: u64 = 1 << 16;
    let idx = e.create_index("t", domain);
    e.bulk_load_index(idx, (0..domain).map(|k| (k, k + 1)));
    // Every generated key is in the domain, so every lookup must hit:
    // lookups == hits proves no command was lost, duplicated, or corrupted
    // in the buffers.
    let issued = Arc::new(AtomicU64::new(0));
    for a in e.aeu_ids() {
        let mut x = (a.0 as u64 + 5).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let issued = Arc::clone(&issued);
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                let keys: Vec<u64> = (0..32)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % (1 << 16)
                    })
                    .collect();
                issued.fetch_add(keys.len() as u64, Ordering::Relaxed);
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload: Payload::Lookup { keys },
                });
            })),
        );
    }
    e.run_threaded_for(stress_ms(300, 120));
    let c = e.results().counts();
    assert!(
        c.lookups > stress_n(10_000, 3_000),
        "made progress: {}",
        c.lookups
    );
    assert_eq!(c.lookups, c.lookup_hits, "every in-domain key must hit");
}

#[test]
fn threaded_upserts_are_all_applied() {
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 2, 4, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            tree: PrefixTreeConfig::new(8, 32),
            ..Default::default()
        },
    );
    let domain: u64 = 1 << 20;
    let idx = e.create_index("t", domain);
    // Each AEU upserts a disjoint key slice; afterwards every key must be
    // present exactly once.
    let per_aeu = 2000u64;
    let num_aeus = e.num_aeus() as u64;
    for a in e.aeu_ids() {
        let base = a.0 as u64 * per_aeu;
        let mut next = 0u64;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                if next >= per_aeu {
                    return;
                }
                let hi = (next + 50).min(per_aeu);
                let pairs: Vec<(u64, u64)> = (next..hi).map(|i| (base + i, base + i + 7)).collect();
                next = hi;
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: a.0 as u64,
                    payload: Payload::Upsert { pairs },
                });
            })),
        );
    }
    e.run_threaded_for(stress_ms(400, 150));
    // Drain any stragglers cooperatively.
    e.drain_and_quiesce();
    let c = e.results().counts();
    assert_eq!(c.upserts, num_aeus * per_aeu, "all upserts applied");
    assert_eq!(c.inserted_new, num_aeus * per_aeu, "all keys distinct");
    let total: usize = e
        .aeu_ids()
        .iter()
        .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
        .sum();
    assert_eq!(total as u64, num_aeus * per_aeu);
}

#[test]
fn contended_buffer_swap_loses_no_bytes() {
    // Many writers hammer one incoming double buffer while the owner swaps
    // as fast as it can — maximum descriptor-CAS contention.  Every
    // checksummed record must come back exactly once and intact, and the
    // buffer's own telemetry must account for every consumed byte.
    let buf = Arc::new(IncomingBuffers::new(2048));
    let writers = 8u32;
    let per = stress_n(4000, 1500) as u32;
    let stop = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..writers)
        .map(|t| {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || {
                for i in 0..per {
                    // Record: [len=12][writer:4][seq:4][checksum:4]
                    let sum = (t ^ i).wrapping_mul(0x9E37_79B9);
                    let mut rec = Vec::with_capacity(16);
                    rec.extend_from_slice(&12u32.to_le_bytes());
                    rec.extend_from_slice(&t.to_le_bytes());
                    rec.extend_from_slice(&i.to_le_bytes());
                    rec.extend_from_slice(&sum.to_le_bytes());
                    while buf.write(&rec).is_err() {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    // Owner: swap continuously, even when there is nothing pending — that
    // is the contended case where writers race a mid-swap descriptor.
    let owner = {
        let buf = Arc::clone(&buf);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen: Vec<Vec<u32>> = vec![Vec::new(); writers as usize];
            let mut consumed_bytes = 0u64;
            while !stop.load(Ordering::Acquire) || buf.pending_bytes() > 0 {
                consumed_bytes += buf.swap_and_consume(|mut d| {
                    while !d.is_empty() {
                        let len = u32::from_le_bytes(d[..4].try_into().unwrap()) as usize;
                        assert_eq!(len, 12, "no torn length prefix");
                        let t = u32::from_le_bytes(d[4..8].try_into().unwrap());
                        let i = u32::from_le_bytes(d[8..12].try_into().unwrap());
                        let sum = u32::from_le_bytes(d[12..16].try_into().unwrap());
                        assert_eq!(
                            sum,
                            (t ^ i).wrapping_mul(0x9E37_79B9),
                            "no torn record body (writer {t}, seq {i})"
                        );
                        seen[t as usize].push(i);
                        d = &d[16..];
                    }
                }) as u64;
            }
            // One extra swap pair drains whatever the last check missed.
            for _ in 0..2 {
                consumed_bytes += buf.swap_and_consume(|mut d| {
                    while !d.is_empty() {
                        let t = u32::from_le_bytes(d[4..8].try_into().unwrap());
                        let i = u32::from_le_bytes(d[8..12].try_into().unwrap());
                        seen[t as usize].push(i);
                        d = &d[16..];
                    }
                }) as u64;
            }
            (seen, consumed_bytes)
        })
    };

    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let (mut seen, consumed_bytes) = owner.join().unwrap();

    for (t, got) in seen.iter_mut().enumerate() {
        got.sort_unstable();
        assert_eq!(got.len(), per as usize, "writer {t}: nothing lost");
        got.dedup();
        assert_eq!(got.len(), per as usize, "writer {t}: nothing duplicated");
        assert_eq!(*got.last().unwrap(), per - 1, "writer {t}: full range");
    }
    // The buffer's own counters agree with what the owner observed.
    let stats = buf.stats();
    let total_bytes = (writers as u64) * (per as u64) * 16;
    assert_eq!(consumed_bytes, total_bytes, "all bytes consumed");
    assert_eq!(stats.swapped_bytes, total_bytes, "telemetry: swapped bytes");
    assert_eq!(
        stats.writes,
        (writers as u64) * (per as u64),
        "telemetry: one write per record"
    );
    assert!(stats.swaps >= 2, "owner actually swapped");
    assert!(stats.peak_pending_bytes <= 2048, "gauge within capacity");
}

#[test]
fn threaded_run_conserves_telemetry_commands() {
    // Telemetry conservation under real threads: after the threaded run is
    // drained, per-object enqueued == executed and the engine-wide delivery
    // counters balance.
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 4, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            tree: PrefixTreeConfig::new(8, 32),
            ..Default::default()
        },
    );
    let domain: u64 = 1 << 16;
    let _ = e.create_index("t", domain);
    for a in e.aeu_ids() {
        let mut x = (a.0 as u64 + 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload: Payload::Upsert {
                        pairs: (0..4).map(|i| ((x >> i) % (1 << 16), x)).collect(),
                    },
                });
            })),
        );
    }
    e.run_threaded_for(stress_ms(250, 100));
    e.drain_and_quiesce();

    let snap = e.telemetry();
    assert!(
        snap.conservation_holds(),
        "per-object enqueued == executed after threaded drain:\n{snap}"
    );
    let t = &snap.totals;
    assert!(t.commands_routed > 0, "threaded run routed commands");
    assert_eq!(
        t.commands_unicast + t.commands_multicast,
        t.commands_executed,
        "deliveries balance executions"
    );
    assert!(t.buffer_swaps > 0, "real swaps happened");
}

#[test]
fn trace_rings_conserve_under_threaded_overwrite_pressure() {
    // ISSUE 4: the per-AEU trace rings under real threads, sized small
    // enough (64 slots) that sustained execution *must* overwrite old
    // events.  The accounting has to stay exact anyway:
    // emitted == retained + dropped on every ring, with retained bounded
    // by the capacity.
    let mut e = Engine::new(
        eris_numa::machines::custom_machine("t", 4, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            tree: PrefixTreeConfig::new(8, 32),
            routing: RoutingConfig {
                trace_sample_every: 8,
                trace_ring_capacity: 64,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let domain: u64 = 1 << 16;
    let _ = e.create_index("t", domain);
    for a in e.aeu_ids() {
        let mut x = (a.0 as u64 + 29).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        e.set_generator(
            a,
            Some(Box::new(move |_, out| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload: Payload::Lookup {
                        keys: (0..16).map(|i| (x >> i) % (1 << 16)).collect(),
                    },
                });
            })),
        );
    }
    e.run_threaded_for(stress_ms(300, 120));
    e.drain_and_quiesce();

    let snap = e.telemetry();
    let mut total_emitted = 0u64;
    let mut total_dropped = 0u64;
    for (i, r) in snap.rings.iter().enumerate() {
        assert_eq!(
            r.emitted,
            r.retained + r.dropped,
            "ring {i}: emitted == retained + dropped: {r:?}"
        );
        assert!(
            r.retained <= r.capacity,
            "ring {i}: retained within capacity: {r:?}"
        );
        total_emitted += r.emitted;
        total_dropped += r.dropped;
    }
    assert!(
        total_emitted > 1000,
        "execution emitted events: {total_emitted}"
    );
    assert!(
        total_dropped > 0,
        "64-slot rings under sustained batches must have overwritten"
    );
    // Snapshots taken after quiescence decode cleanly and in order.
    for a in e.aeu_ids() {
        let events = e.telemetry_shard(a).ring.snapshot();
        assert!(events.len() <= 64, "snapshot bounded by capacity");
        for w in events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns, "per-ring events are time-ordered");
        }
    }
    // The sampled-latency ledger survived the same run intact.
    assert!(
        snap.trace.stamped > 0 && snap.trace.balances(),
        "{:?}",
        snap.trace
    );
}
