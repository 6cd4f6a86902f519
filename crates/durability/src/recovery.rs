//! Crash recovery: newest complete checkpoint + per-AEU journal tails.
//!
//! Recovery is deterministic and purely local per AEU, mirroring the
//! write path: every journal holds only the effects its AEU applied to
//! partitions it owned at the time, so the logs replay independently and
//! in order with no cross-log merge.  The sequence:
//!
//! 1. Pick the newest `ckpt-<seq>` whose manifest decodes (CRC-valid);
//!    torn `.tmp` staging directories are invisible here.
//! 2. Re-create every manifest object (same ids — creation order is the
//!    id order), restore each AEU's partition images and the per-object
//!    conservation ledgers.
//! 3. Replay each AEU's journal tail from the manifest's LSN cut:
//!    first every `Create` record (object births since the checkpoint,
//!    all on AEU 0's log and barrier-synced before any data record can
//!    reference them), then the data records of each log in order.
//! 4. Rebuild the routing tables of range-partitioned objects from the
//!    recovered per-AEU partition bounds, and settle what a balancing
//!    transfer cut short by the crash left outside its partition's range
//!    ([`settle_strays`]).
//!
//! Recovery itself writes nothing; crashing *during* recovery (see
//! [`FP_RECOVERY_MID_REPLAY`]) just means discarding the half-built
//! engine and running recovery again from the same on-disk state.

use crate::checkpoint::{self, Manifest};
use crate::failpoint::{FailPoints, FP_RECOVERY_MID_REPLAY};
use crate::wal::{read_tail, JournalOp, WAL_MAGIC};
use eris_core::durability::ObjectClass;
use eris_core::{AeuId, DataObjectId, Engine, PartitionData};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;

/// What recovery rebuilt, for logging and assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint restored (None = journals only).
    pub checkpoint: Option<u64>,
    /// Data objects alive after recovery.
    pub objects: usize,
    /// Journal records re-applied past the checkpoint cut.
    pub replayed_records: u64,
    /// Torn bytes discarded from journal tails.
    pub torn_bytes: u64,
}

#[derive(Debug)]
pub enum RecoveryError {
    Io(std::io::Error),
    /// On-disk state decoded but is inconsistent (e.g. an object id that
    /// does not line up with creation order).
    Corrupt(String),
    /// An armed [`FP_RECOVERY_MID_REPLAY`] fired; the half-recovered
    /// engine must be discarded and recovery re-run.
    InjectedCrash,
    /// The target engine already holds objects or has a sink attached.
    EngineNotFresh,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery I/O error: {e}"),
            RecoveryError::Corrupt(m) => write!(f, "corrupt durable state: {m}"),
            RecoveryError::InjectedCrash => write!(f, "injected crash during recovery"),
            RecoveryError::EngineNotFresh => {
                write!(f, "recovery target must be a fresh engine with no objects")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

fn create_object(
    engine: &mut Engine,
    class: ObjectClass,
    expect: DataObjectId,
    domain: u64,
    name: &str,
) -> Result<(), RecoveryError> {
    let got = match class {
        ObjectClass::Tree => engine.create_index(name, domain),
        ObjectClass::Hash => engine.create_hash_index(name, domain),
        ObjectClass::Column => engine.create_column(name),
    };
    if got != expect {
        return Err(RecoveryError::Corrupt(format!(
            "object \"{name}\" recovered as id {} but was journaled as {}",
            got.0, expect.0
        )));
    }
    Ok(())
}

/// Rebuild engine state from the durable directory `base` (layout:
/// `base/wal/aeu-<i>.log` + `base/ckpt-<seq>/`).  `engine` must be
/// freshly constructed — same topology and config as the crashed one —
/// with no objects and no redo sink attached.
pub fn recover_into(
    engine: &mut Engine,
    base: &Path,
    fail: &FailPoints,
) -> Result<RecoveryReport, RecoveryError> {
    if engine.has_redo_sink() || !engine.describe_objects().is_empty() {
        return Err(RecoveryError::EngineNotFresh);
    }
    let n_aeus = engine.num_aeus();

    // Phase 0: newest complete checkpoint (if any).
    let latest = checkpoint::find_latest(base)?;
    let (cuts, classes) = match &latest {
        Some((ckpt_path, manifest)) => {
            restore_checkpoint(engine, ckpt_path, manifest)?;
            let classes: HashMap<DataObjectId, ObjectClass> = manifest
                .objects
                .iter()
                .map(|o| (o.descriptor.id, o.descriptor.class))
                .collect();
            if manifest.cuts.len() != n_aeus {
                return Err(RecoveryError::Corrupt(format!(
                    "manifest cut count {} != {} AEUs",
                    manifest.cuts.len(),
                    n_aeus
                )));
            }
            (manifest.cuts.clone(), classes)
        }
        None => (vec![WAL_MAGIC.len() as u64; n_aeus], HashMap::new()),
    };
    let mut classes = classes;

    // Phase 1: read every journal tail; apply object creations first.
    let wal_dir = base.join("wal");
    let mut tails = Vec::with_capacity(n_aeus);
    let mut torn_bytes = 0;
    for (i, cut) in cuts.iter().enumerate() {
        let (ops, torn) = read_tail(&wal_dir.join(format!("aeu-{i}.log")), *cut)?;
        torn_bytes += torn;
        tails.push(ops);
    }
    for tail in &tails {
        for op in tail {
            if let JournalOp::Create {
                class,
                object,
                domain,
                name,
            } = op
            {
                create_object(engine, *class, *object, *domain, name)?;
                classes.insert(*object, *class);
            }
        }
    }

    // Phase 2: replay each AEU's data records in log order.  Consecutive
    // upserts into one object are applied as one batch (one `reserve`, one
    // `upsert_batch`) in log order, so the last write of a key still wins.
    let mut replayed = 0u64;
    for (i, tail) in tails.into_iter().enumerate() {
        let aeu = AeuId(i as u32);
        let records = tail.len() as u64;
        let mut run: Option<(DataObjectId, Vec<(u64, u64)>)> = None;
        for op in tail {
            if fail.hit(FP_RECOVERY_MID_REPLAY) {
                return Err(RecoveryError::InjectedCrash);
            }
            replayed += 1;
            match (op, &mut run) {
                (JournalOp::UpsertPairs { object, pairs }, Some((run_object, run_pairs)))
                    if *run_object == object && run_pairs.len() < REPLAY_RUN_PAIRS =>
                {
                    run_pairs.extend_from_slice(&pairs);
                }
                (JournalOp::UpsertPairs { object, pairs }, _) => {
                    apply_run(engine, aeu, run.replace((object, pairs)));
                }
                (op, _) => {
                    apply_run(engine, aeu, run.take());
                    replay_one(engine, aeu, op);
                }
            }
        }
        apply_run(engine, aeu, run);
        engine
            .telemetry_shard(aeu)
            .counters
            .replayed_records
            .fetch_add(records, Relaxed);
    }

    // Phase 3: routing tables from recovered partition bounds.
    let objects: Vec<(DataObjectId, ObjectClass)> = classes.into_iter().collect();
    for (object, class) in objects {
        if class == ObjectClass::Column {
            continue;
        }
        let bounds: Vec<u64> = (0..n_aeus)
            .map(|i| {
                engine
                    .aeu(AeuId(i as u32))
                    .partition(object)
                    .map(|p| p.range.0)
                    .ok_or_else(|| {
                        RecoveryError::Corrupt(format!(
                            "AEU {i} has no partition for recovered object {}",
                            object.0
                        ))
                    })
            })
            .collect::<Result<_, _>>()?;
        engine.restore_partition_bounds(object, &bounds);
        settle_strays(engine, object);
    }

    Ok(RecoveryReport {
        checkpoint: latest.as_ref().map(|(_, m)| m.seq),
        objects: engine.describe_objects().len(),
        replayed_records: replayed,
        torn_bytes,
    })
}

/// Settle every pair a point partition holds outside its recovered
/// range: dropped where the partition owning the key holds it too, moved
/// there where it does not.  A balancing cycle journals each AEU's new
/// range (`SetRange`) before it moves keys, and a transfer streams into
/// its receiver in steps, each one group commit of the receiver's
/// journal, while the donor's `RemoveRange` — on another journal — is
/// written when the whole range is gone.  A crash inside the cycle can
/// therefore leave the receiver holding part of the range, under its old
/// range or its new one, and the donor holding all of it, under its old
/// range or its new one.  A pair is the same on both sides (no command
/// runs inside a cycle), so whichever copy the routing table can reach
/// stays, once, and the rest of the range follows it.
fn settle_strays(engine: &mut Engine, object: DataObjectId) {
    fn part(engine: &Engine, object: DataObjectId, a: AeuId) -> &eris_core::Partition {
        engine
            .aeu(a)
            .partition(object)
            .expect("bounds were restored")
    }
    let aeus = engine.aeu_ids();
    let owner = |engine: &Engine, key: u64| {
        let owns = |&&a: &&AeuId| {
            let (lo, hi) = part(engine, object, a).range;
            (lo..hi).contains(&key)
        };
        *aeus.iter().find(owns).expect("the ranges cover the domain")
    };
    let holds = |engine: &Engine, a: AeuId, key: u64| match &part(engine, object, a).data {
        PartitionData::Index(tree) => tree.lookup(key).is_some(),
        PartitionData::Hash(h) => h.lookup(key).is_some(),
        PartitionData::Column(_) => false,
    };
    for &a in &aeus {
        let p = part(engine, object, a);
        let (lo, hi) = p.range;
        let mut strays = Vec::new();
        match &p.data {
            PartitionData::Index(tree) => {
                tree.scan_range(0, lo, |k, v| strays.push((k, v)));
                tree.scan_range_inclusive(hi, u64::MAX, |k, v| strays.push((k, v)));
            }
            PartitionData::Hash(h) => h.for_each(|k, v| {
                if !(lo..hi).contains(&k) {
                    strays.push((k, v));
                }
            }),
            PartitionData::Column(_) => return,
        }
        for (k, v) in strays {
            let to = owner(engine, k);
            let keep = !holds(engine, to, k);
            let from = engine
                .aeu_mut(a)
                .partition_mut(object)
                .expect("bounds were restored");
            match &mut from.data {
                PartitionData::Index(tree) => tree.remove(k),
                PartitionData::Hash(h) => h.remove(k),
                PartitionData::Column(_) => None,
            };
            if keep {
                let into = engine
                    .aeu_mut(to)
                    .partition_mut(object)
                    .expect("bounds were restored");
                match &mut into.data {
                    PartitionData::Index(tree) => tree.upsert(k, v),
                    PartitionData::Hash(h) => h.upsert(k, v),
                    PartitionData::Column(_) => None,
                };
            }
        }
    }
}

/// Pairs one replayed upsert batch gathers at most.  `absorb_pairs`
/// reserves room for every pair, but replayed pairs mostly overwrite keys
/// the checkpoint restored: an unbounded run would grow a table for keys
/// it already holds.
const REPLAY_RUN_PAIRS: usize = 1 << 12;

/// Apply a gathered run of upserts into one object.
fn apply_run(engine: &mut Engine, aeu: AeuId, run: Option<(DataObjectId, Vec<(u64, u64)>)>) {
    if let Some((object, pairs)) = run {
        engine.aeu_mut(aeu).absorb_pairs(object, &pairs);
    }
}

/// Re-apply one journal record.
fn replay_one(engine: &mut Engine, aeu: AeuId, op: JournalOp) {
    let aeu = engine.aeu_mut(aeu);
    match op {
        JournalOp::Create { .. } => {}
        JournalOp::UpsertPairs { object, pairs } => aeu.absorb_pairs(object, &pairs),
        JournalOp::AppendRows { object, rows } => {
            aeu.absorb_rows(object, &rows)
                .expect("replay targets partitions the redo log provisioned");
        }
        JournalOp::RemoveRange { object, lo, hi } => {
            aeu.extract_range(object, lo, hi, &mut Vec::new());
        }
        JournalOp::RemoveTail { object, n } => {
            aeu.extract_tail_rows(object, n as usize);
        }
        JournalOp::SetRange { object, lo, hi } => aeu.set_range(object, (lo, hi)),
    }
}

fn restore_checkpoint(
    engine: &mut Engine,
    ckpt_path: &Path,
    manifest: &Manifest,
) -> Result<(), RecoveryError> {
    for o in &manifest.objects {
        let d = &o.descriptor;
        create_object(engine, d.class, d.id, d.domain, &d.name)?;
        engine.restore_object_ledger(d.id, o.enqueued, o.executed);
    }
    for i in 0..engine.num_aeus() {
        let images = checkpoint::read_part(ckpt_path, i)?;
        let aeu = engine.aeu_mut(AeuId(i as u32));
        for img in images {
            if !aeu.restore_partition(img.object, img.range, &img.payload) {
                return Err(RecoveryError::Corrupt(format!(
                    "partition image of object {} rejected by AEU {i}",
                    img.object.0
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::REPLAY_RUN_PAIRS;
    use crate::Durability;
    use eris_core::prelude::*;

    #[test]
    fn batched_replay_keeps_the_last_write_of_every_key() {
        const KEYS: u64 = 1 << 12;
        let value = |round: u64, k: u64| round << 32 | k;
        let dir = std::env::temp_dir().join(format!("eris-replay-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            collect_results: true,
            ..Default::default()
        };
        let machine =
            || eris_numa::machines::custom_machine("replay", 2, 2, 20.0, 100.0, 10.0, 60.0);
        let mut e = Engine::new(machine(), cfg.clone());
        let dura = Durability::open(&dir, e.num_aeus()).unwrap();
        dura.attach(&mut e);
        let hash = e.create_hash_index("h", KEYS);
        let tree = e.create_index("t", KEYS);
        // Every round overwrites every hash key; every eighth also writes
        // the tree, which ends the hash runs in each log.  Eight rounds
        // of hash records are twice one replay batch.
        let rounds = 16;
        assert!(8 * KEYS / e.num_aeus() as u64 >= 2 * REPLAY_RUN_PAIRS as u64);
        for round in 0..rounds {
            let mut writes = vec![hash];
            if round % 8 == 7 {
                writes.push(tree);
            }
            for object in writes {
                let pairs = (0..KEYS).map(|k| (k, value(round, k))).collect();
                let cmd = DataCommand {
                    object,
                    ticket: round,
                    payload: Payload::Upsert { pairs },
                };
                e.submit(AeuId(0), cmd).unwrap();
            }
            e.run_until_drained();
        }
        drop(e);

        let mut r = Engine::new(machine(), cfg);
        let report = Durability::recover(&mut r, &dir).unwrap();
        assert_eq!(report.checkpoint, None);
        for (object, last) in [(hash, rounds - 1), (tree, rounds - 1)] {
            let cmd = DataCommand {
                object,
                ticket: 0,
                payload: Payload::Lookup {
                    keys: (0..KEYS).collect(),
                },
            };
            r.submit(AeuId(0), cmd).unwrap();
            r.run_until_drained();
            let mut got = r.results().take_lookup_values();
            got.sort_unstable();
            let want: Vec<_> = (0..KEYS).map(|k| (0, k, Some(value(last, k)))).collect();
            assert_eq!(got, want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
