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
//!    id order) and its conservation ledger, then stream each AEU's part
//!    through the path a balancing receiver uses: hash partitions sized
//!    once for the manifest's count ([`Aeu::reserve_transfer`]), every
//!    record absorbed as it is read.  A part that does not walk cleanly to
//!    its end, names another AEU, or restores a partition to another count
//!    than the manifest's is corruption.
//! 3. Replay each AEU's journal tail from the manifest's LSN cut:
//!    first every `Create` record (object births since the checkpoint,
//!    all on AEU 0's log and barrier-synced before any data record can
//!    reference them), then the data records of each log in order.
//! 4. Rebuild the routing table of each point object from its committed
//!    bounds — its last `Bounds` record, in the checkpoint's part 0 or a
//!    tail, else the creation's — and keep in each partition only the
//!    pairs of its range.  A balancing cycle the crash cut before its
//!    `Bounds` commit leaves the receivers' copies outside their ranges,
//!    one past its commit the donors': no pair moves between partitions,
//!    and with no deletes the order across logs does not matter.
//!
//! Recovery itself writes nothing; crashing *during* recovery (see
//! [`FP_RECOVERY_MID_REPLAY`]) just means discarding the half-built
//! engine and running recovery again from the same on-disk state.

use crate::checkpoint::{self, Manifest, ManifestObject};
use crate::failpoint::{FailPoints, FP_RECOVERY_MID_REPLAY};
use crate::wal::{decode_op, read_tail, walk_records, JournalOp, WAL_MAGIC};
use eris_core::durability::ObjectClass;
use eris_core::{Aeu, AeuId, DataObjectId, Engine, PartitionData};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
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

    // Phase 0: newest complete checkpoint (if any), its bounds committed
    // ahead of the tails'.
    let latest = checkpoint::find_latest(base)?;
    let mut committed = HashMap::new();
    let cuts = match &latest {
        Some((ckpt_path, manifest)) => {
            if manifest.cuts.len() != n_aeus {
                return Err(RecoveryError::Corrupt(format!(
                    "manifest cut count {} != {} AEUs",
                    manifest.cuts.len(),
                    n_aeus
                )));
            }
            restore_checkpoint(engine, ckpt_path, manifest, &mut committed)?;
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

    // Phase 2: replay each AEU's data records in log order.
    let mut replayed = 0u64;
    for (i, tail) in tails.into_iter().enumerate() {
        let aeu = AeuId(i as u32);
        let records = tail.len() as u64;
        for op in tail {
            if fail.hit(FP_RECOVERY_MID_REPLAY) {
                return Err(RecoveryError::InjectedCrash);
            }
            replayed += 1;
            absorb(engine.aeu_mut(aeu), op)?;
        }
        engine
            .telemetry_shard(aeu)
            .counters
            .replayed_records
            .fetch_add(records, Relaxed);
    }

    // Phase 3: routing tables from the committed bounds (an object with
    // none keeps those of its creation); each partition keeps the pairs of
    // its range.
    for d in engine.describe_objects() {
        if d.class == ObjectClass::Column {
            continue;
        }
        if let Some(bounds) = committed.remove(&d.id) {
            let bounds = check_bounds(d.id, bounds, n_aeus, d.domain)?;
            engine.restore_partition_bounds(d.id, &bounds);
        }
        // Drop what lies outside each range as a donor gives a range away
        // (compacting a partition whose slack is then due).
        for a in engine.aeu_ids() {
            let aeu = engine.aeu_mut(a);
            let (lo, hi) = aeu.partition(d.id).expect("a point partition").range;
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

/// Apply one data record of a journal tail or a checkpoint part to
/// `aeu`.  A record naming no partition of its kind on this AEU is an
/// `InvalidData` error, as an undecodable one is.
fn absorb(aeu: &mut Aeu, op: JournalOp) -> std::io::Result<()> {
    let column = |aeu: &Aeu, object| {
        let data = aeu.partition(object).map(|p| &p.data);
        data.map(|data| matches!(data, PartitionData::Column(_)))
    };
    match op {
        JournalOp::UpsertPairs { object, pairs } if column(aeu, object) == Some(false) => {
            aeu.absorb_pairs(object, &pairs)
        }
        JournalOp::AppendRows { object, rows } if column(aeu, object) == Some(true) => {
            aeu.absorb_rows(object, &rows).expect("a column partition")
        }
        JournalOp::RemoveTail { object, n } if column(aeu, object) == Some(true) => {
            aeu.extract_tail_rows(object, n as usize);
        }
        JournalOp::Create { .. } | JournalOp::Bounds { .. } => {}
        _ => {
            return Err(corrupt(format!(
                "{:?} has no partition of the record's kind",
                aeu.id
            )))
        }
    }
    Ok(())
}

fn corrupt(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Re-create the manifest's objects and stream every AEU's part into
/// them; the `Bounds` records of part 0 go to `committed`.
fn restore_checkpoint(
    engine: &mut Engine,
    ckpt_path: &Path,
    manifest: &Manifest,
    committed: &mut HashMap<DataObjectId, Vec<u64>>,
) -> Result<(), RecoveryError> {
    for o in &manifest.objects {
        let d = &o.descriptor;
        create_object(engine, d.class, d.id, d.domain, &d.name)?;
        engine.restore_object_ledger(d.id, o.enqueued, o.executed);
    }
    for i in 0..engine.num_aeus() {
        let aeu = engine.aeu_mut(AeuId(i as u32));
        let path = checkpoint::part_path(ckpt_path, i);
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        for o in &manifest.objects {
            if o.descriptor.class == ObjectClass::Hash {
                // A key takes 16 bytes of the part: a count beyond that is
                // no size to reserve (the count check below rejects it).
                aeu.reserve_transfer(o.descriptor.id, o.lens[i].min(len / 16) as usize);
            }
        }
        let (at, magic) = (path.display(), checkpoint::part_header(i));
        let valid = walk_records(
            BufReader::new(file),
            &magic,
            |off, payload| match decode_op(payload) {
                Some(JournalOp::Bounds { object, bounds }) => {
                    committed.insert(object, bounds);
                    Ok(())
                }
                Some(op) => absorb(aeu, op),
                None => Err(corrupt(format!("undecodable record at {at}:{off}"))),
            },
        )?;
        if valid == 0 || valid != len {
            let msg = format!("{at} holds {len} bytes, of which {valid} walk as records");
            return Err(RecoveryError::Corrupt(msg));
        }
        for o in &manifest.objects {
            let (id, want) = (o.descriptor.id, o.lens[i]);
            let got = aeu.partition(id).map_or(0, |p| p.data.len() as u64);
            if got != want {
                let msg = format!("{at} restores {got} keys of object {}, not {want}", id.0);
                return Err(RecoveryError::Corrupt(msg));
            }
        }
    }
    let unbounded = |o: &&ManifestObject| {
        o.descriptor.class != ObjectClass::Column && !committed.contains_key(&o.descriptor.id)
    };
    if let Some(o) = manifest.objects.iter().find(unbounded) {
        return Err(RecoveryError::Corrupt(format!(
            "checkpoint {} holds no bounds of object {}",
            manifest.seq, o.descriptor.id.0
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::RecoveryError;
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
        // the tree, interleaving the two objects' records in each log.
        let rounds = 16;
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
