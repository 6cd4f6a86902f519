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
//! 4. Rebuild the routing table of each point object from its committed
//!    bounds — its last `Bounds` record past the cut, else the checkpoint
//!    images' or the creation's — and keep in each partition only the
//!    pairs of its range.  A balancing cycle the crash cut before its
//!    `Bounds` commit leaves the receivers' copies outside their ranges,
//!    one past its commit the donors': no pair moves between partitions,
//!    and with no deletes the order across logs does not matter.
//!
//! Recovery itself writes nothing; crashing *during* recovery (see
//! [`FP_RECOVERY_MID_REPLAY`]) just means discarding the half-built
//! engine and running recovery again from the same on-disk state.

use crate::checkpoint::{self, Manifest};
use crate::failpoint::{FailPoints, FP_RECOVERY_MID_REPLAY};
use crate::wal::{read_tail, JournalOp, WAL_MAGIC};
use eris_core::durability::ObjectClass;
use eris_core::{AeuId, DataObjectId, Engine};
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
    let cuts = match &latest {
        Some((ckpt_path, manifest)) => {
            restore_checkpoint(engine, ckpt_path, manifest)?;
            if manifest.cuts.len() != n_aeus {
                return Err(RecoveryError::Corrupt(format!(
                    "manifest cut count {} != {} AEUs",
                    manifest.cuts.len(),
                    n_aeus
                )));
            }
            manifest.cuts.clone()
        }
        None => vec![WAL_MAGIC.len() as u64; n_aeus],
    };

    // Phase 1: read every journal tail; apply object creations first and
    // note each object's last committed bounds.
    let wal_dir = base.join("wal");
    let mut tails = Vec::with_capacity(n_aeus);
    let mut torn_bytes = 0;
    for (i, cut) in cuts.iter().enumerate() {
        let (ops, torn) = read_tail(&wal_dir.join(format!("aeu-{i}.log")), *cut)?;
        torn_bytes += torn;
        tails.push(ops);
    }
    let mut committed = HashMap::new();
    for op in tails.iter().flatten() {
        match op {
            JournalOp::Create {
                class,
                object,
                domain,
                name,
            } => create_object(engine, *class, *object, *domain, name)?,
            JournalOp::Bounds { object, bounds } => {
                committed.insert(*object, bounds.clone());
            }
            _ => {}
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

    // Phase 3: routing tables from the committed bounds; each partition
    // keeps the pairs of its range.
    for d in engine.describe_objects() {
        if d.class == ObjectClass::Column {
            continue;
        }
        let bounds = match committed.remove(&d.id) {
            Some(bounds) => check_bounds(d.id, bounds, n_aeus, d.domain)?,
            None => (0..n_aeus)
                .map(|i| {
                    engine
                        .aeu(AeuId(i as u32))
                        .partition(d.id)
                        .map(|p| p.range.0)
                        .ok_or_else(|| {
                            RecoveryError::Corrupt(format!(
                                "AEU {i} has no partition for recovered object {}",
                                d.id.0
                            ))
                        })
                })
                .collect::<Result<_, _>>()?,
        };
        engine.restore_partition_bounds(d.id, &bounds);
        // Drop what lies outside each range as a donor gives a range away
        // (compacting a partition whose slack is then due).
        for a in engine.aeu_ids() {
            let aeu = engine.aeu_mut(a);
            let (lo, hi) = aeu.partition(d.id).expect("bounds were restored").range;
            for outside in [(0, lo), (hi, d.domain)] {
                if aeu.count_range(d.id, outside.0, outside.1) > 0 {
                    aeu.extract_chunk(d.id, outside, 0, &mut Vec::new(), usize::MAX);
                }
            }
        }
    }
    if let Some(object) = committed.keys().next() {
        return Err(RecoveryError::Corrupt(format!(
            "bounds journaled for object {}, which is no point object",
            object.0
        )));
    }

    Ok(RecoveryReport {
        checkpoint: latest.as_ref().map(|(_, m)| m.seq),
        objects: engine.describe_objects().len(),
        replayed_records: replayed,
        torn_bytes,
    })
}

/// `bounds` as a journaled `Bounds` record holds them, if they are what
/// the balancer writes: one lower bound per AEU, the first 0, strictly
/// ascending inside the domain.  A record that passed its CRC but not
/// this is corruption, not a routing table.
fn check_bounds(
    object: DataObjectId,
    bounds: Vec<u64>,
    n_aeus: usize,
    domain: u64,
) -> Result<Vec<u64>, RecoveryError> {
    if bounds.len() == n_aeus
        && bounds.first() == Some(&0)
        && bounds.windows(2).all(|w| w[0] < w[1])
        && bounds.last().is_some_and(|&b| b < domain)
    {
        return Ok(bounds);
    }
    Err(RecoveryError::Corrupt(format!(
        "bounds {bounds:?} of object {} do not split its domain {domain} over {n_aeus} AEUs",
        object.0
    )))
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
        JournalOp::Create { .. } | JournalOp::Bounds { .. } => {}
        JournalOp::UpsertPairs { object, pairs } => aeu.absorb_pairs(object, &pairs),
        JournalOp::AppendRows { object, rows } => {
            aeu.absorb_rows(object, &rows)
                .expect("replay targets partitions the redo log provisioned");
        }
        JournalOp::RemoveTail { object, n } => {
            aeu.extract_tail_rows(object, n as usize);
        }
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
    use super::{RecoveryError, REPLAY_RUN_PAIRS};
    use crate::failpoint::FailPoints;
    use crate::wal::Wal;
    use crate::Durability;
    use eris_core::durability::RedoOp;
    use eris_core::prelude::*;

    #[test]
    fn bounds_that_do_not_split_the_domain_are_corruption() {
        const DOMAIN: u64 = 1 << 10;
        let machine =
            || eris_numa::machines::custom_machine("bounds", 2, 2, 20.0, 100.0, 10.0, 60.0);
        let cases: [&[u64]; 5] = [
            &[0, 10, 20],
            &[1, 10, 20, 30],
            &[0, 20, 10, 30],
            &[0, 10, 10, 30],
            &[0, 10, 20, DOMAIN],
        ];
        for (i, bounds) in cases.into_iter().enumerate() {
            let dir =
                std::env::temp_dir().join(format!("eris-bad-bounds-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut e = Engine::new(machine(), EngineConfig::default());
            let dura = Durability::open(&dir, e.num_aeus()).unwrap();
            dura.attach(&mut e);
            let object = e.create_index("t", DOMAIN);
            drop((e, dura));
            // A CRC-valid record the balancer would never write.
            let wal = Wal::open(&dir.join("wal/aeu-0.log")).unwrap();
            wal.append_op(&RedoOp::Bounds { object, bounds });
            assert!(wal.flush(&FailPoints::new(), None) > 0);
            drop(wal);

            let mut r = Engine::new(machine(), EngineConfig::default());
            let got = Durability::recover(&mut r, &dir);
            assert!(
                matches!(got, Err(RecoveryError::Corrupt(_))),
                "{bounds:?}: {got:?}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

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
