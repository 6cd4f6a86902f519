//! Crash-matrix: for every fail point compiled into the durability
//! paths, crash a journaled engine there, recover from whatever reached
//! disk, re-drive the post-checkpoint workload in full, and assert the
//! result is indistinguishable from a twin engine that never crashed —
//! identical scan/lookup oracles per object and a balanced conservation
//! ledger.
//!
//! The workload is split so the equality is exact rather than "close":
//!
//! * **WA** (pre-checkpoint): tree/hash/column loads with a skew that
//!   triggers balancing transfers.  WA is always durable — a checkpoint
//!   syncs every journal before it writes a single part file.
//! * **WB** (post-checkpoint): idempotent tree/hash upserts (`key →
//!   f(key)`).  A journal crash may lose any suffix of WB, so recovery
//!   re-drives WB in full; idempotency makes replayed-then-redriven
//!   records harmless.
//!
//! Runs under both the cooperative virtual-time runtime and the real
//! thread-per-AEU runtime (WB via generators on real threads).

use eris_column::scan::AggregateResult;
use eris_core::prelude::*;
use eris_core::PartitionData;
use eris_durability::{
    Durability, FailPoints, RecoveryError, ALL_FAIL_POINTS, FP_CHECKPOINT_PARTIAL,
    FP_CHECKPOINT_PRE_MANIFEST, FP_JOURNAL_PRE_SYNC, FP_JOURNAL_TORN_WRITE, FP_RECOVERY_MID_REPLAY,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DOMAIN: u64 = 1 << 16;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eris-crash-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn engine() -> Engine {
    Engine::new(
        eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            collect_results: true,
            tree: PrefixTreeConfig::new(8, 32),
            ..Default::default()
        },
    )
}

struct Objects {
    tree: DataObjectId,
    hash: DataObjectId,
    col: DataObjectId,
}

fn setup_objects(e: &mut Engine) -> Objects {
    Objects {
        tree: e.create_index("orders", DOMAIN),
        hash: e.create_hash_index("customers", DOMAIN),
        col: e.create_column("events"),
    }
}

/// Pre-checkpoint load: skewed tree pairs (to provoke balancing
/// transfers), hash pairs, and column appends.
fn drive_wa(e: &mut Engine, o: &Objects) {
    let tree_pairs: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % (DOMAIN / 8), i * 7)).collect();
    let hash_pairs: Vec<(u64, u64)> = (0..1500u64).map(|i| (i * 11 % DOMAIN, i + 5)).collect();
    let rows: Vec<u64> = (0..2000u64).map(|i| i * 3).collect();
    for (chunk, object) in [(tree_pairs, o.tree), (hash_pairs, o.hash)] {
        for (n, batch) in chunk.chunks(500).enumerate() {
            e.submit(
                AeuId((n % e.num_aeus()) as u32),
                DataCommand {
                    object,
                    ticket: 1000 + n as u64,
                    payload: Payload::Upsert {
                        pairs: batch.to_vec(),
                    },
                },
            )
            .unwrap();
        }
    }
    for (n, batch) in rows.chunks(500).enumerate() {
        e.submit(
            AeuId((n % e.num_aeus()) as u32),
            DataCommand {
                object: o.col,
                ticket: 2000 + n as u64,
                payload: Payload::Upsert {
                    pairs: batch.iter().map(|&r| (0, r)).collect(),
                },
            },
        )
        .unwrap();
    }
    e.run_until_drained();
    // The skewed tree load makes the low AEUs heavy; rebalancing
    // journals the receivers' UpsertPairs and commits each object's
    // cycle with one Bounds record.
    e.run_balancer();
    e.run_until_drained();
}

/// The idempotent post-checkpoint workload: same key set and value
/// function every time it is driven.
fn wb_commands(o: &Objects) -> Vec<DataCommand> {
    let mut cmds = Vec::new();
    for n in 0..16u64 {
        let tree_pairs: Vec<(u64, u64)> = (0..200u64)
            .map(|i| ((n * 331 + i * 17) % DOMAIN, i * 3 + 1))
            .collect();
        let hash_pairs: Vec<(u64, u64)> = (0..120u64)
            .map(|i| ((n * 577 + i * 29) % DOMAIN, i + 9))
            .collect();
        cmds.push(DataCommand {
            object: o.tree,
            ticket: 3000 + n,
            payload: Payload::Upsert { pairs: tree_pairs },
        });
        cmds.push(DataCommand {
            object: o.hash,
            ticket: 3100 + n,
            payload: Payload::Upsert { pairs: hash_pairs },
        });
    }
    cmds
}

fn drive_wb_cooperative(e: &mut Engine, o: &Objects) {
    for (n, cmd) in wb_commands(o).into_iter().enumerate() {
        e.submit(AeuId((n % e.num_aeus()) as u32), cmd).unwrap();
        // Interleave processing so group commits happen mid-workload —
        // that is where the journal fail points live.
        e.run_epoch();
    }
    e.run_until_drained();
}

/// WB on the real thread-per-AEU runtime: every AEU drains its share of
/// the command set through a generator while journaling concurrently.
fn drive_wb_threaded(e: &mut Engine, o: &Objects) {
    let all = wb_commands(o);
    let n_aeus = e.num_aeus();
    for a in 0..n_aeus {
        let mut mine: Vec<DataCommand> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| i % n_aeus == a)
            .map(|(_, c)| c.clone())
            .collect();
        mine.reverse();
        e.set_generator(
            AeuId(a as u32),
            Some(Box::new(move |_epoch, out| {
                if let Some(cmd) = mine.pop() {
                    out.push(cmd);
                }
            })),
        );
    }
    e.run_threaded_for(std::time::Duration::from_millis(200));
    e.drain_and_quiesce();
}

/// Everything externally observable about the logical database state:
/// full-scan aggregates per object plus a lookup probe over a key grid.
#[derive(Debug, PartialEq, Eq)]
struct Oracle {
    scans: Vec<(u32, Option<eris_column::scan::AggregateResult>)>,
    lookups: Vec<(u64, u64, Option<u64>)>,
}

fn oracle(e: &mut Engine, o: &Objects) -> Oracle {
    let mut scans = Vec::new();
    for (t, object) in [(9001u64, o.tree), (9002, o.hash), (9003, o.col)] {
        e.submit(
            AeuId(0),
            DataCommand {
                object,
                ticket: t,
                payload: Payload::Scan {
                    pred: Predicate::All,
                    agg: Aggregate::Sum,
                    snapshot: u64::MAX,
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        scans.push((object.0, e.results().combine_scan(t)));
    }
    let keys: Vec<u64> = (0..DOMAIN).step_by(97).collect();
    for (t, object) in [(9004u64, o.tree), (9005, o.hash)] {
        e.submit(
            AeuId(0),
            DataCommand {
                object,
                ticket: t,
                payload: Payload::Lookup { keys: keys.clone() },
            },
        )
        .unwrap();
    }
    e.run_until_drained();
    let mut lookups = e.results().take_lookup_values();
    lookups.sort_unstable();
    Oracle { scans, lookups }
}

/// The never-crashed reference: WA + checkpoint-equivalent drain + WB.
fn twin_oracle() -> Oracle {
    let mut e = engine();
    let o = setup_objects(&mut e);
    drive_wa(&mut e, &o);
    drive_wb_cooperative(&mut e, &o);
    assert!(e.telemetry().conservation_holds());
    oracle(&mut e, &o)
}

/// Crash at `fp`, recover, re-drive WB, compare against `expected`.
fn crash_and_recover(fp: &'static str, threaded: bool, expected: &Oracle) {
    let dir = temp_dir(fp);
    let fail = Arc::new(FailPoints::new());
    let mut dura = Durability::open_with(&dir, engine().num_aeus(), fail.clone()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let o = setup_objects(&mut e);
    drive_wa(&mut e, &o);
    dura.checkpoint(&mut e).unwrap();
    assert!(!fail.crashed(), "WA and checkpoint 0 are crash-free");

    // Arm the point, then run the lossy tail.  Journal points fire
    // during WB's group commits; checkpoint points fire in checkpoint 1;
    // the recovery point fires later, in the first recovery attempt.
    fail.arm(fp, 0);
    if threaded {
        drive_wb_threaded(&mut e, &o);
    } else {
        drive_wb_cooperative(&mut e, &o);
    }
    match fp {
        FP_CHECKPOINT_PARTIAL | FP_CHECKPOINT_PRE_MANIFEST => {
            // The armed point kills checkpoint 1 partway through.
            let _ = dura.checkpoint(&mut e);
            assert!(fail.crashed(), "{fp} must have fired");
        }
        FP_JOURNAL_TORN_WRITE | FP_JOURNAL_PRE_SYNC => {
            assert!(fail.crashed(), "{fp} must have fired during WB");
        }
        _ => {}
    }
    drop(e);
    drop(dura);

    // A recovery attempt that itself crashes is discarded and re-run.
    if fp == FP_RECOVERY_MID_REPLAY {
        let mut half = engine();
        let crash = FailPoints::new();
        crash.arm(FP_RECOVERY_MID_REPLAY, 4);
        match eris_durability::recovery::recover_into(&mut half, &dir, &crash) {
            Err(RecoveryError::InjectedCrash) => {}
            other => panic!("expected an injected mid-replay crash, got {other:?}"),
        }
    }

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!(
        report.checkpoint,
        Some(0),
        "checkpoint 0 is the durable base"
    );

    // Re-attach and re-drive the idempotent tail in full.
    let dura = Durability::open(&dir, r.num_aeus()).unwrap();
    dura.attach(&mut r);
    drive_wb_cooperative(&mut r, &o);

    assert!(
        r.telemetry().conservation_holds(),
        "{fp}: recovered ledger must balance (enqueued == executed)"
    );
    assert_eq!(
        &oracle(&mut r, &o),
        expected,
        "{fp}: oracle mismatch vs twin"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_matrix_cooperative() {
    let expected = twin_oracle();
    for fp in ALL_FAIL_POINTS {
        crash_and_recover(fp, false, &expected);
    }
}

#[test]
fn crash_matrix_threaded() {
    let expected = twin_oracle();
    for fp in [FP_JOURNAL_TORN_WRITE, FP_JOURNAL_PRE_SYNC] {
        crash_and_recover(fp, true, &expected);
    }
}

/// Idempotent dynamic-workload traffic: one upsert batch per virtual
/// second against the tree and the hash index, keys drawn from the phase
/// active at that second, values a pure function of the key — so a
/// recovery re-drive converges to the same state no matter which suffix
/// the crash lost.
fn drive_dynamic(
    e: &mut Engine,
    o: &Objects,
    w: &eris_workloads::DynamicWorkload,
    secs: std::ops::Range<u64>,
) {
    for t in secs {
        let (lo, hi) = w.range_at(t as f64);
        let width = hi - lo;
        let pairs = |stride: u64| -> Vec<(u64, u64)> {
            (0..120u64)
                .map(|i| {
                    let k = lo + (t.wrapping_mul(stride).wrapping_add(i.wrapping_mul(17))) % width;
                    (k, k.wrapping_mul(0x9E37_79B9).wrapping_add(1))
                })
                .collect()
        };
        for (object, ticket, stride) in [(o.tree, 5000 + t, 131u64), (o.hash, 5200 + t, 269)] {
            e.submit(
                AeuId((t % e.num_aeus() as u64) as u32),
                DataCommand {
                    object,
                    ticket,
                    payload: Payload::Upsert {
                        pairs: pairs(stride),
                    },
                },
            )
            .unwrap();
        }
        // Interleave processing so group commits happen mid-phase.
        e.run_epoch();
    }
    e.run_until_drained();
}

/// Mid-traffic chaos: the journal fail point fires *between* dynamic
/// workload phases — phase 1 commits durably, the crash lands in the
/// middle of phase 2's traffic — and after recovery plus a full re-drive
/// the engine is indistinguishable from a never-crashed twin.
#[test]
fn mid_traffic_crash_between_dynamic_phases_matches_twin() {
    let w = eris_workloads::DynamicWorkload::paper_schedule(DOMAIN);

    let expected = {
        let mut e = engine();
        let o = setup_objects(&mut e);
        drive_wa(&mut e, &o);
        drive_dynamic(&mut e, &o, &w, 0..w.duration_s());
        assert!(e.telemetry().conservation_holds());
        oracle(&mut e, &o)
    };

    let dir = temp_dir("dynamic");
    let fail = Arc::new(FailPoints::new());
    let mut dura = Durability::open_with(&dir, engine().num_aeus(), fail.clone()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let o = setup_objects(&mut e);
    drive_wa(&mut e, &o);
    dura.checkpoint(&mut e).unwrap();

    // Phase 1 runs crash-free; the fail point is armed exactly at the
    // first workload change, so the crash hits a group commit a couple of
    // syncs into the shifted hot range.
    let boundary = w.change_times()[0];
    drive_dynamic(&mut e, &o, &w, 0..boundary);
    assert!(!fail.crashed(), "phase 1 must be crash-free");
    fail.arm(FP_JOURNAL_PRE_SYNC, 2);
    drive_dynamic(&mut e, &o, &w, boundary..w.duration_s());
    assert!(fail.crashed(), "the crash must fire during phase 2 traffic");
    drop(e);
    drop(dura);

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!(
        report.checkpoint,
        Some(0),
        "checkpoint 0 is the durable base"
    );

    let dura = Durability::open(&dir, r.num_aeus()).unwrap();
    dura.attach(&mut r);
    drive_dynamic(&mut r, &o, &w, 0..w.duration_s());

    assert!(
        r.telemetry().conservation_holds(),
        "recovered ledger must balance (enqueued == executed)"
    );
    assert_eq!(oracle(&mut r, &o), expected, "oracle mismatch vs twin");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_and_reopen_read_a_journal_from_its_cut_past_damage_before_it() {
    // A byte flipped inside a journal record that the checkpoint holds is
    // never read: recovery replays the tail from the cut, and reopening
    // the journal neither stops at the damage nor cuts the file back to
    // it, so traffic after the reopen is recovered too.
    let w = eris_workloads::DynamicWorkload::paper_schedule(DOMAIN);
    let after_wb = twin_oracle();
    let after_more = {
        let mut e = engine();
        let o = setup_objects(&mut e);
        drive_wa(&mut e, &o);
        drive_wb_cooperative(&mut e, &o);
        drive_dynamic(&mut e, &o, &w, 0..w.duration_s());
        oracle(&mut e, &o)
    };

    let dir = temp_dir("damage-before-cut");
    let mut dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let o = setup_objects(&mut e);
    drive_wa(&mut e, &o);
    dura.checkpoint(&mut e).unwrap();
    drive_wb_cooperative(&mut e, &o);
    drop((e, dura));
    let (_, manifest) = eris_durability::checkpoint::find_latest(&dir)
        .unwrap()
        .unwrap();
    let log = dir.join("wal/aeu-1.log");
    let mut bytes = std::fs::read(&log).unwrap();
    let cut = manifest.cuts[1] as usize;
    assert!(
        cut > 8 && bytes.len() > cut,
        "records on both sides of the cut"
    );
    // A payload byte of the log's first record, which the checkpoint holds.
    bytes[8 + 8 + 2] ^= 0x10;
    std::fs::write(&log, &bytes).unwrap();

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!((report.checkpoint, report.torn_bytes), (Some(0), 0));
    assert_eq!(oracle(&mut r, &o), after_wb, "the tail past the damage");

    // Reattach, drive more traffic, crash, and recover once more.
    let dura = Durability::open(&dir, r.num_aeus()).unwrap();
    dura.attach(&mut r);
    drive_dynamic(&mut r, &o, &w, 0..w.duration_s());
    drop((r, dura));
    let grown = std::fs::read(&log).unwrap();
    assert!(
        grown[..bytes.len()] == bytes[..],
        "the journal was appended to"
    );
    let mut r = engine();
    assert_eq!(
        Durability::recover(&mut r, &dir).unwrap().checkpoint,
        Some(0)
    );
    assert_eq!(
        oracle(&mut r, &o),
        after_more,
        "the traffic after the reopen"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_of_a_journal_cut_short_of_its_checkpoint_is_corruption() {
    // A journal that ends before its checkpoint's cut lost records the
    // checkpoint counts on: recovery is an error, never an empty tail,
    // and reopening it to append is one too, leaving the file as it is.
    let dir = temp_dir("short-journal");
    let mut dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let o = setup_objects(&mut e);
    drive_wa(&mut e, &o);
    dura.checkpoint(&mut e).unwrap();
    drop((e, dura));
    let (_, manifest) = eris_durability::checkpoint::find_latest(&dir)
        .unwrap()
        .unwrap();
    let (log, short) = (dir.join("wal/aeu-2.log"), manifest.cuts[2] - 1);
    let file = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    file.set_len(short).unwrap();
    drop(file);

    let got = Durability::recover(&mut engine(), &dir);
    assert!(matches!(got, Err(RecoveryError::Corrupt(_))), "{got:?}");
    let opened = Durability::open(&dir, engine().num_aeus()).map(drop);
    let opened = opened.map_err(|e| e.kind());
    assert_eq!(opened, Err(std::io::ErrorKind::InvalidData));
    assert_eq!(std::fs::metadata(&log).unwrap().len(), short);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_without_any_checkpoint_is_journal_only() {
    let dir = temp_dir("no-ckpt");
    let dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let o = setup_objects(&mut e);
    drive_wa(&mut e, &o);
    e.run_until_drained();
    // Sync the journals the way a clean shutdown would, but never
    // checkpoint: recovery must rebuild purely from the logs.
    let expected = oracle(&mut e, &o);
    drop(e);

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!(report.checkpoint, None);
    assert!(report.replayed_records > 0);
    assert_eq!(oracle(&mut r, &o), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_of_a_journaled_column_load_reads_each_row_back_once_in_order() {
    // Three full segments and part of a fourth per AEU, loaded with the
    // journal attached and synced by one epoch's group commits; then a
    // crash (the engine is not called again) and journal-only recovery.
    let dir = temp_dir("column-load");
    let dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let col = e.create_column("events");
    let n = e.num_aeus() as u64;
    let rows = n * (3 * eris_column::DEFAULT_SEGMENT_CAPACITY as u64 + 1000);
    e.bulk_load_column(col, (0..rows).map(|i| i * 3 + 1));
    e.run_until_drained();
    let loaded = column_rows(&e, col);
    drop(e);

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!(report.checkpoint, None);
    let recovered = column_rows(&r, col);
    // Value i went to AEU i mod n, and each partition holds its own in
    // the order they were dealt, once.
    for (a, got) in recovered.iter().enumerate() {
        let dealt: Vec<u64> = (a as u64..rows)
            .step_by(n as usize)
            .map(|i| i * 3 + 1)
            .collect();
        assert_eq!(got, &dealt, "AEU {a}");
    }
    assert_eq!(recovered, loaded);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_of_a_journaled_index_load_past_one_record_brings_every_key_back() {
    // 2^22 pairs on one AEU: a 64 MiB + 21 B payload if journaled as one
    // record, past the 64 MiB a reader takes.  The journal must cut it
    // into records the reader reads back.
    let one_aeu = || {
        Engine::new(
            eris_numa::machines::custom_machine("one", 1, 1, 20.0, 100.0, 10.0, 60.0),
            EngineConfig::default(),
        )
    };
    let n = 1u64 << 22;
    let dir = temp_dir("index-load");
    let dura = Durability::open(&dir, 1).unwrap();
    let mut e = one_aeu();
    dura.attach(&mut e);
    let idx = e.create_hash_index("big", n);
    e.bulk_load_index(idx, (0..n).map(|k| (k, k ^ 0x5EED)));
    e.run_until_drained();
    drop(e);

    let mut r = one_aeu();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!((report.checkpoint, report.torn_bytes), (None, 0));
    let Some(PartitionData::Hash(h)) = r.aeu(AeuId(0)).partition(idx).map(|p| &p.data) else {
        panic!("the recovered AEU holds a hash partition of the index");
    };
    assert_eq!(h.len() as u64, n, "every key comes back");
    assert!((0..n).all(|k| h.lookup(k) == Some(k ^ 0x5EED)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_checkpoints_pick_the_newest() {
    let dir = temp_dir("multi-ckpt");
    let mut dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let o = setup_objects(&mut e);
    drive_wa(&mut e, &o);
    assert_eq!(dura.checkpoint(&mut e).unwrap(), 0);
    drive_wb_cooperative(&mut e, &o);
    assert_eq!(dura.checkpoint(&mut e).unwrap(), 1);
    let expected = oracle(&mut e, &o);
    drop(e);

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!(report.checkpoint, Some(1));
    // Everything was inside checkpoint 1; only oracle traffic could
    // follow it, and none did — the tails are empty.
    assert_eq!(report.replayed_records, 0);
    assert_eq!(oracle(&mut r, &o), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_of_resized_hash_partitions_restores_every_key() {
    // Hash partitions that grew (by half) and shrank (rebuilt smaller)
    // under the balancer are checkpointed as their pairs, whatever their
    // bucket count; restoring sizes each table once, for its own
    // population, and every key comes back.
    use eris_core::PartitionData;
    let value = |k: u64| k.wrapping_mul(31) | 1;
    let dir = temp_dir("hash-resized");
    let mut dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let hash = e.create_hash_index("customers", DOMAIN);
    e.bulk_load_index(hash, (0..DOMAIN).map(|k| (k, value(k))));
    // Hammer the low keys and rebalance until the partitions differ 8x.
    let lens = |e: &Engine| -> Vec<usize> {
        let len = |a: &AeuId| e.aeu(*a).partition(hash).unwrap().data.len();
        e.aeu_ids().iter().map(len).collect()
    };
    for round in 0.. {
        assert!(
            round < 64,
            "the balancer never skewed the sizes: {:?}",
            lens(&e)
        );
        let hot = DataCommand {
            object: hash,
            ticket: round,
            payload: Payload::Lookup {
                keys: (0..2048).map(|i| i * 7 % (DOMAIN / 64)).collect(),
            },
        };
        e.submit(AeuId(0), hot).unwrap();
        e.run_until_drained();
        e.run_balancer();
        e.run_until_drained();
        let lens = lens(&e);
        if lens.iter().max().unwrap() / lens.iter().min().unwrap().max(&1) >= 8 {
            break;
        }
    }
    e.results().take_lookup_values();
    assert_eq!(dura.checkpoint(&mut e).unwrap(), 0);
    let expected = lens(&e);
    drop(e);

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!((report.checkpoint, report.replayed_records), (Some(0), 0));
    assert_eq!(lens(&r), expected, "every partition holds what it held");
    for a in r.aeu_ids() {
        let PartitionData::Hash(h) = &r.aeu(a).partition(hash).unwrap().data else {
            panic!("a hash partition restores as one");
        };
        assert!(h.rehashes() <= 1, "{a:?}: sized once, for its population");
        let ceiling = 21 * h.len() as u64 + 2048;
        assert!(h.memory_bytes() <= ceiling, "{a:?}: {} B", h.memory_bytes());
    }
    let all = DataCommand {
        object: hash,
        ticket: 1,
        payload: Payload::Lookup {
            keys: (0..DOMAIN).collect(),
        },
    };
    r.submit(AeuId(1), all).unwrap();
    r.run_until_drained();
    let mut answers = r.results().take_lookup_values();
    answers.sort_unstable();
    assert_eq!(answers.len() as u64, DOMAIN);
    for (k, (_, key, v)) in answers.into_iter().enumerate() {
        assert_eq!((key, v), (k as u64, Some(value(k as u64))));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_overwrite_tail_after_a_checkpoint_leaves_restored_hash_partitions_sized_once() {
    // A restore sizes each hash partition once, exactly, for the count
    // the manifest gives; a journal tail that only overwrites keys the
    // partitions hold must not grow them.
    use eris_core::PartitionData;
    let value = |round: u64, k: u64| round << 32 | k;
    let dir = temp_dir("overwrite-tail");
    let mut dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let hash = e.create_hash_index("customers", DOMAIN);
    e.bulk_load_index(hash, (0..DOMAIN).map(|k| (k, value(0, k))));
    assert_eq!(dura.checkpoint(&mut e).unwrap(), 0);
    let rounds = 4;
    for round in 1..=rounds {
        for lo in (0..DOMAIN).step_by(1 << 12) {
            let pairs = (lo..lo + (1 << 12)).map(|k| (k, value(round, k))).collect();
            let cmd = DataCommand {
                object: hash,
                ticket: round,
                payload: Payload::Upsert { pairs },
            };
            e.submit(AeuId((lo >> 12) as u32 % 4), cmd).unwrap();
        }
        e.run_until_drained();
    }
    drop(e);

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!(report.checkpoint, Some(0));
    assert!(report.replayed_records > 0);
    for a in r.aeu_ids() {
        let PartitionData::Hash(h) = &r.aeu(a).partition(hash).unwrap().data else {
            panic!("a hash partition restores as one");
        };
        assert_eq!(h.rehashes(), 1, "{a:?}: sized once, by the restore");
        let bytes = h.memory_bytes();
        assert!(
            bytes <= 21 * h.len() as u64,
            "{a:?}: {bytes} B, {} keys",
            h.len()
        );
    }
    let all = DataCommand {
        object: hash,
        ticket: 0,
        payload: Payload::Lookup {
            keys: (0..DOMAIN).collect(),
        },
    };
    r.submit(AeuId(1), all).unwrap();
    r.run_until_drained();
    let mut answers = r.results().take_lookup_values();
    answers.sort_unstable();
    let want: Vec<_> = (0..DOMAIN)
        .map(|k| (0, k, Some(value(rounds, k))))
        .collect();
    assert!(answers == want, "every key reads its last write");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_damaged_committed_checkpoint_is_an_error_never_a_shorter_partition() {
    // A committed checkpoint whose part was cut at a record boundary, has
    // a byte flipped inside a record, or is another AEU's part fails
    // recovery; none of them restores fewer keys as if nothing happened.
    let dir = temp_dir("damaged-ckpt");
    let mut dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let o = setup_objects(&mut e);
    drive_wa(&mut e, &o);
    // Keys on every AEU, so that every part holds records.
    let spread = e.create_hash_index("spread", DOMAIN);
    e.bulk_load_index(spread, (0..DOMAIN).step_by(64).map(|k| (k, k)));
    assert_eq!(dura.checkpoint(&mut e).unwrap(), 0);
    let n_aeus = e.num_aeus();
    drop(e);
    let part = |a: usize| dir.join(format!("ckpt-0/aeu-{a}.part"));
    let intact: Vec<Vec<u8>> = (0..n_aeus)
        .map(|a| std::fs::read(part(a)).unwrap())
        .collect();
    // Where each part's records start: after the 12-byte header, each
    // record is `[u32 len][u32 crc][payload]`.
    let boundaries = |bytes: &[u8]| {
        let mut at = vec![12];
        while let Some(&off) = at.last().filter(|&&off| off < bytes.len()) {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            at.push(off + 8 + len as usize);
        }
        assert_eq!(at.pop(), Some(bytes.len()), "records fill the part");
        at
    };
    let mut damaged = Vec::new();
    for (a, bytes) in intact.iter().enumerate() {
        let starts = boundaries(bytes);
        assert!(starts.len() > 1, "AEU {a}'s part holds records");
        for &cut in &starts {
            damaged.push((
                format!("AEU {a}'s part cut at {cut}"),
                a,
                bytes[..cut].to_vec(),
            ));
        }
        let mut flipped = bytes.clone();
        flipped[starts[0] + 8 + 2] ^= 0x10;
        damaged.push((format!("a byte flipped in AEU {a}'s part"), a, flipped));
        let other = intact[(a + 1) % n_aeus].clone();
        damaged.push((format!("AEU {a}'s part replaced by another's"), a, other));
    }
    for (case, a, bytes) in damaged {
        std::fs::write(part(a), bytes).unwrap();
        let got = Durability::recover(&mut engine(), &dir);
        assert!(got.is_err(), "{case}: {got:?}");
        std::fs::write(part(a), &intact[a]).unwrap();
    }
    let report = Durability::recover(&mut engine(), &dir).unwrap();
    assert_eq!(report.checkpoint, Some(0), "the intact checkpoint restores");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_only_recovery_right_after_a_cascade_cycle_restores_every_partition() {
    // Recovering from the journals alone, right after a cycle in which
    // AEUs both gave and took, restores every key and the same per-AEU
    // key counts: the committed bounds keep the receivers' copies of
    // each moved range and drop the donors'.
    use eris_core::BalanceVerdict;
    let value = |k: u64| k.wrapping_mul(31) | 1;
    let dir = temp_dir("cascade");
    let dura = Durability::open(&dir, engine().num_aeus()).unwrap();
    let mut e = engine();
    dura.attach(&mut e);
    let tree = e.create_index("orders", DOMAIN);
    let hash = e.create_hash_index("customers", DOMAIN);
    for object in [tree, hash] {
        e.bulk_load_index(object, (0..DOMAIN).map(|k| (k, value(k))));
    }
    // Every access on AEU 0's lowest keys: the cycle hands AEU 0's range
    // out over all four AEUs and AEUs 1 and 2 give theirs to AEU 3.
    for (ticket, object) in [(1, tree), (2, hash)] {
        let keys = (0..DOMAIN / 64).collect();
        let hot = DataCommand {
            object,
            ticket,
            payload: Payload::Lookup { keys },
        };
        e.submit(AeuId(0), hot).unwrap();
    }
    e.run_until_drained();
    e.results().take_lookup_values();
    e.run_balancer();
    e.run_until_drained();
    for object in [tree, hash] {
        let d = e.monitor().last_decision(object).unwrap();
        assert_eq!(d.verdict, BalanceVerdict::Rebalanced);
        let m = &d.migrations;
        let gives_and_takes = m.iter().any(|t| m.iter().any(|u| u.dst == t.src));
        assert!(m.len() >= 3 && gives_and_takes, "a cascade: {m:?}");
    }
    let lens = |e: &Engine| -> Vec<usize> {
        let len = |object, a: AeuId| e.aeu(a).partition(object).unwrap().data.len();
        let per_aeu = |object| e.aeu_ids().into_iter().map(move |a| len(object, a));
        per_aeu(tree).chain(per_aeu(hash)).collect()
    };
    let expected = lens(&e);
    drop(e);
    drop(dura);

    let mut r = engine();
    let report = Durability::recover(&mut r, &dir).unwrap();
    assert_eq!(report.checkpoint, None);
    assert_eq!(lens(&r), expected, "every partition holds what it held");
    for (ticket, object) in [(3, tree), (4, hash)] {
        let all = DataCommand {
            object,
            ticket,
            payload: Payload::Lookup {
                keys: (0..DOMAIN).collect(),
            },
        };
        r.submit(AeuId(1), all).unwrap();
    }
    r.run_until_drained();
    let answers = r.results().take_lookup_values();
    assert_eq!(answers.len() as u64, 2 * DOMAIN);
    for (_, key, v) in answers {
        assert_eq!(v, Some(value(key)), "key {key}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every key of `object`'s domain looked up, and a full-domain `Count`
/// and `Sum` scan, as the engine answers them, against the oracle.
/// `ticket` numbers the commands; each call needs its own three.
fn assert_matches_oracle(
    e: &mut Engine,
    object: DataObjectId,
    oracle: &BTreeMap<u64, u64>,
    ticket: u64,
    cut: &str,
) {
    let domain = oracle.len() as u64;
    // Lookups of 8 Ki keys each: a sub-command must fit an incoming buffer.
    for lo in (0..domain).step_by(1 << 13) {
        let lookup = DataCommand {
            object,
            ticket,
            payload: Payload::Lookup {
                keys: (lo..domain.min(lo + (1 << 13))).collect(),
            },
        };
        e.submit(AeuId(1), lookup).unwrap();
        e.run_until_drained();
    }
    let mut got: Vec<(u64, Option<u64>)> = e
        .results()
        .take_lookup_values()
        .into_iter()
        .map(|(_, key, v)| (key, v))
        .collect();
    got.sort_unstable();
    let want: Vec<_> = oracle.iter().map(|(&k, &v)| (k, Some(v))).collect();
    assert!(got == want, "{cut}: lookups of object {} differ", object.0);
    let sum = oracle.values().sum();
    for (ticket, agg, want) in [
        (ticket + 1, Aggregate::Count, AggregateResult::Count(domain)),
        (ticket + 2, Aggregate::Sum, AggregateResult::Sum(sum)),
    ] {
        let scan = DataCommand {
            object,
            ticket,
            payload: Payload::Scan {
                pred: Predicate::All,
                agg,
                snapshot: u64::MAX,
            },
        };
        e.submit(AeuId(0), scan).unwrap();
        e.run_until_drained();
        let got = e.results().combine_scan(ticket);
        assert_eq!(got, Some(want), "{cut}: scan of object {}", object.0);
    }
}

/// Each AEU's lower bound of `object`, in AEU order.
fn bounds(e: &Engine, object: DataObjectId) -> Vec<u64> {
    let lo = |a: AeuId| e.aeu(a).partition(object).unwrap().range.0;
    e.aeu_ids().into_iter().map(lo).collect()
}

#[test]
fn every_cut_of_a_cascade_cycle_recovers_the_bounds_before_or_after_it() {
    // Three AEUs share a tree and a hash index of 2^18 keys each, and a
    // hot head makes one cycle cascade: AEU 0 hands most of its range to
    // AEUs 1 and 2, and AEU 1 hands over to AEU 2 a range of more than
    // one transfer step (64 Ki pairs).  Every step a receiver absorbs is
    // a group commit of its journal; each object's `Bounds` record is one
    // more, on AEU 0's.  A crash at any of them, torn or before its sync,
    // and one after the cycle's last sync, recover every key once, in the
    // partition that the bounds before or after the cycle give it.
    const DOMAIN: u64 = 1 << 18;
    let engine = || {
        Engine::new(
            eris_numa::machines::custom_machine("t3", 3, 1, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                collect_results: true,
                tree: PrefixTreeConfig::new(8, 32),
                balancer: BalancerConfig {
                    algorithm: BalanceAlgorithm::OneShot,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    };
    let oracle: BTreeMap<u64, u64> = (0..DOMAIN).map(|k| (k, k.wrapping_mul(31) | 1)).collect();
    // Load, heat AEU 0's lowest keys, then run one cycle with `crash`
    // armed at the given visit of its fail point.  Returns the journal
    // directory, the objects, each object's bounds before and after the
    // cycle, and the group commits the cycle made.
    let run = |tag: &str, crash: Option<(&'static str, u64)>| {
        let dir = temp_dir(tag);
        let fail = Arc::new(FailPoints::new());
        let dura = Durability::open_with(&dir, engine().num_aeus(), fail.clone()).unwrap();
        let mut e = engine();
        dura.attach(&mut e);
        let objects = [
            e.create_index("orders", DOMAIN),
            e.create_hash_index("customers", DOMAIN),
        ];
        for (ticket, object) in (0..).zip(objects) {
            e.bulk_load_index(object, oracle.iter().map(|(&k, &v)| (k, v)));
            for t in 0..16 {
                let hot = DataCommand {
                    object,
                    ticket: 16 * ticket + t,
                    payload: Payload::Lookup {
                        keys: (0..DOMAIN / 64).collect(),
                    },
                };
                e.submit(AeuId(0), hot).unwrap();
            }
        }
        e.run_until_drained();
        e.results().take_lookup_values();
        let before = objects.map(|o| bounds(&e, o));
        let fsyncs = e.telemetry().totals.journal_fsyncs;
        if let Some((fp, survive)) = crash {
            fail.arm(fp, survive);
        }
        e.run_balancer();
        e.run_until_drained();
        assert_eq!(fail.crashed(), crash.is_some(), "{tag}");
        let commits = e.telemetry().totals.journal_fsyncs - fsyncs;
        for object in objects {
            let m = &e.monitor().last_decision(object).unwrap().migrations;
            let moves = |src, dst| m.iter().find(|t| (t.src, t.dst) == (src, dst));
            assert!(moves(0, 1).is_some(), "a cascade: {m:?}");
            assert!(moves(1, 2).is_some_and(|t| t.keys > 1 << 16), "{m:?}");
        }
        let after = objects.map(|o| bounds(&e, o));
        (dir, objects, before, after, commits)
    };
    type Bounds = [Vec<u64>; 2];
    let recover =
        |cut: &str, dir: &PathBuf, objects: [DataObjectId; 2], before: &Bounds, after: &Bounds| {
            let mut r = engine();
            let report = Durability::recover(&mut r, dir).unwrap();
            assert_eq!(report.checkpoint, None);
            for (i, object) in objects.into_iter().enumerate() {
                let got = bounds(&r, object);
                assert!(got == before[i] || got == after[i], "{cut}: bounds {got:?}");
                for a in r.aeu_ids() {
                    let p = r.aeu(a).partition(object).unwrap();
                    let (lo, hi) = p.range;
                    let mine = r.aeu(a).count_range(object, lo, hi);
                    assert_eq!(
                        p.data.len(),
                        mine,
                        "{cut}: {a:?} holds only keys of {lo}..{hi}"
                    );
                }
                assert_matches_oracle(&mut r, object, &oracle, 10 * i as u64, cut);
            }
            objects.map(|o| bounds(&r, o))
        };

    // No crash inside the cycle: the cut after its last sync.
    let (dir, objects, before, after, commits) = run("cycle-synced", None);
    assert_ne!(before, after, "the cycle moved keys");
    let got = recover("after the last sync", &dir, objects, &before, &after);
    assert_eq!(got, after, "the committed cycle is recovered whole");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        commits >= 6,
        "several steps per object: {commits} group commits"
    );

    // A crash at every group commit of the cycle, torn or before its sync.
    for visit in 0..commits {
        for fp in [FP_JOURNAL_TORN_WRITE, FP_JOURNAL_PRE_SYNC] {
            let cut = format!("{fp} at group commit {visit} of {commits}");
            let (dir, objects, b, a, _) = run(fp, Some((fp, visit)));
            assert_eq!((&b, &a), (&before, &after), "{cut}: the runs are alike");
            recover(&cut, &dir, objects, &b, &a);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Rows a column move test loads, nearly all onto AEU 0, before its move.
const LOADED_ROWS: u64 = 100_000;
/// Rounds of appends after the move; each round appends `ROUND_ROWS`
/// distinct rows through each AEU.
const ROUNDS: u64 = 4;
const ROUND_ROWS: u64 = 1000;

/// Two AEUs, the balancer enabled or not (a cycle only runs when asked).
fn two_aeus(balancer: bool) -> Engine {
    Engine::new(
        eris_numa::machines::custom_machine("t2", 2, 1, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            collect_results: true,
            balancer: BalancerConfig {
                enabled: balancer,
                threshold_cv: 0.2,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

/// Append each of `batches` to `col` as one command through `via`.
fn append_rows<'a>(
    e: &mut Engine,
    col: DataObjectId,
    via: AeuId,
    batches: impl Iterator<Item = &'a [u64]>,
) {
    for batch in batches {
        let append = DataCommand {
            object: col,
            ticket: 0,
            payload: Payload::Upsert {
                pairs: batch.iter().map(|&r| (0, r)).collect(),
            },
        };
        e.submit(via, append).unwrap();
    }
}

/// Each AEU's rows of column `col`.
fn column_rows(e: &Engine, col: DataObjectId) -> Vec<Vec<u64>> {
    let rows = |a: AeuId| {
        let PartitionData::Column(c) = &e.aeu(a).partition(col).unwrap().data else {
            panic!("a column partition")
        };
        let mut rows = Vec::new();
        c.for_each_chunk(usize::MAX, |_, chunk| rows.extend_from_slice(chunk));
        rows
    };
    e.aeu_ids().into_iter().map(rows).collect()
}

fn lens(rows: &[Vec<u64>]) -> Vec<usize> {
    rows.iter().map(Vec::len).collect()
}

/// A column move test's run, up to its crash.
struct ColumnRun {
    dir: PathBuf,
    col: DataObjectId,
    /// Every row appended after the move, sorted.
    appended: Vec<u64>,
    /// Group commits made from the arming on.
    commits: u64,
    /// Each AEU's loaded rows where the durable state holds them: after
    /// the load, or after the move once a checkpoint holds it.
    placed: Vec<usize>,
}

/// Load `LOADED_ROWS` distinct rows and sync them, run one balancing
/// cycle (it moves half of them to AEU 1), optionally take a checkpoint,
/// then append `ROUNDS` rounds of distinct rows through both AEUs, one
/// group commit per AEU and round.  `crash` is armed right before the
/// move.
fn move_column_rows(tag: &str, checkpoint: bool, crash: Option<(&'static str, u64)>) -> ColumnRun {
    let dir = temp_dir(tag);
    let fail = Arc::new(FailPoints::new());
    let mut dura = Durability::open_with(&dir, 2, fail.clone()).unwrap();
    let mut e = two_aeus(false);
    dura.attach(&mut e);
    let col = e.create_column("events");
    // Appends are dealt round-robin, one command to each AEU in turn (to
    // AEU 1 first): one-row commands between 8 Ki-row ones load AEU 0.
    let load: Vec<u64> = (0..LOADED_ROWS).collect();
    for chunk in load.chunks(1 << 13) {
        let (one, rest) = chunk.split_at(1);
        append_rows(&mut e, col, AeuId(0), [one, rest].into_iter());
    }
    e.run_until_drained();
    let loaded = lens(&column_rows(&e, col));
    assert!(loaded[1] < 100, "{tag}: the load is on AEU 0: {loaded:?}");
    let fsyncs = e.telemetry().totals.journal_fsyncs;
    if let Some((fp, survive)) = crash {
        fail.arm(fp, survive);
    }
    e.run_balancer();
    let moved = lens(&column_rows(&e, col));
    assert!(
        moved[0].abs_diff(moved[1]) <= 1,
        "{tag}: the move: {moved:?}"
    );
    if checkpoint {
        dura.checkpoint(&mut e).unwrap();
    }
    let mut appended = Vec::new();
    for round in 0..ROUNDS {
        for a in e.aeu_ids() {
            let first = LOADED_ROWS + (2 * round + a.0 as u64) * ROUND_ROWS;
            let rows: Vec<u64> = (first..first + ROUND_ROWS).collect();
            append_rows(&mut e, col, a, std::iter::once(&rows[..]));
            appended.extend(rows);
        }
        e.run_until_drained();
    }
    assert_eq!(fail.crashed(), crash.is_some(), "{tag}");
    ColumnRun {
        dir,
        col,
        appended,
        commits: e.telemetry().totals.journal_fsyncs - fsyncs,
        placed: if checkpoint { moved } else { loaded },
    }
}

/// Recover `run`'s column and check it: every loaded row once, where
/// `run.placed` says, no row twice and none that was not appended, and
/// `Count`/`Sum` scans that agree with the rows.  Returns the engine and
/// every recovered row, sorted.
fn recover_column(cut: &str, run: &ColumnRun, balancer: bool) -> (Engine, Vec<u64>) {
    let mut r = two_aeus(balancer);
    Durability::recover(&mut r, &run.dir).unwrap();
    let per_aeu = column_rows(&r, run.col);
    let loaded = |rows: &Vec<u64>| rows.iter().filter(|&&v| v < LOADED_ROWS).count();
    let placed: Vec<usize> = per_aeu.iter().map(loaded).collect();
    let n = placed.iter().sum::<usize>();
    assert_eq!(n, LOADED_ROWS as usize, "{cut}: rows of the load recovered");
    let mut rows: Vec<u64> = per_aeu.concat();
    rows.sort_unstable();
    assert!(rows.windows(2).all(|w| w[0] < w[1]), "{cut}: a row twice");
    let appended = |v: &u64| run.appended.binary_search(v).is_ok();
    let tail = &rows[LOADED_ROWS as usize..];
    assert!(tail.iter().all(appended), "{cut}: a row never appended");
    assert_eq!(placed, run.placed, "{cut}: where the loaded rows came back");
    for (ticket, agg, want) in [
        (
            1,
            Aggregate::Count,
            AggregateResult::Count(rows.len() as u64),
        ),
        (2, Aggregate::Sum, AggregateResult::Sum(rows.iter().sum())),
    ] {
        let scan = DataCommand {
            object: run.col,
            ticket,
            payload: Payload::Scan {
                pred: Predicate::All,
                agg,
                snapshot: u64::MAX,
            },
        };
        r.submit(AeuId(0), scan).unwrap();
        r.run_until_drained();
        assert_eq!(r.results().combine_scan(ticket), Some(want), "{cut}: scan");
    }
    (r, rows)
}

#[test]
fn column_move_recovery_brings_each_row_back_once_at_every_cut() {
    // A column move journals nothing: each row stays durable on the log
    // (or checkpoint part) of the AEU that last held it there.  A crash
    // at any group commit from the move on, torn or before its sync, and
    // one after the last sync, recover every loaded row exactly once, on
    // AEU 0 (the move undone) or, with a checkpoint taken after the move,
    // where the move put it.
    for checkpoint in [false, true] {
        let tag = if checkpoint { "moved-ckpt" } else { "moved" };
        let synced = move_column_rows(tag, checkpoint, None);
        let commits = synced.commits;
        assert!(commits >= 2 * ROUNDS, "{tag}: {commits} group commits");
        for visit in 0..commits {
            for fp in [FP_JOURNAL_TORN_WRITE, FP_JOURNAL_PRE_SYNC] {
                let cut = format!("{tag}: {fp} at group commit {visit} of {commits}");
                let run = move_column_rows(tag, checkpoint, Some((fp, visit)));
                recover_column(&cut, &run, false);
                std::fs::remove_dir_all(&run.dir).unwrap();
            }
        }
        let cut = format!("{tag}: after the last sync");
        let (_, rows) = recover_column(&cut, &synced, false);
        let all = rows.len() == LOADED_ROWS as usize + synced.appended.len();
        assert!(all, "{cut}: every synced row, {} rows", rows.len());
        std::fs::remove_dir_all(&synced.dir).unwrap();
    }
}

#[test]
fn a_column_levels_again_after_recovery_undid_its_move() {
    // Recovery brings the moved rows back to their donor; one cycle of
    // the enabled balancer levels the partitions again, within
    // `column_balancer_equalizes_sizes`' bound, and loses no row.
    let run = move_column_rows("relevel", false, None);
    let (mut r, rows) = recover_column("recovered without the move", &run, true);
    let undone = lens(&column_rows(&r, run.col));
    assert!(undone[0] > 2 * undone[1], "the move was undone: {undone:?}");
    r.run_balancer();
    let per_aeu = column_rows(&r, run.col);
    let levelled = lens(&per_aeu);
    let (max, min) = (levelled.iter().max(), levelled.iter().min());
    assert!(
        max.unwrap() - min.unwrap() <= rows.len() / 4,
        "{levelled:?}"
    );
    let mut after = per_aeu.concat();
    after.sort_unstable();
    assert!(after == rows, "no row lost or duplicated");
    std::fs::remove_dir_all(&run.dir).unwrap();
}
