//! Crash recovery: newest complete checkpoint + per-AEU journal tails.
//!
//! Recovery is deterministic and purely local per AEU, mirroring the
//! write path: every journal holds only the effects its AEU applied to
//! partitions it owned at the time, so the logs replay independently and
//! in order with no cross-log merge.  A column row comes back once, where
//! its part or log last held it: a tail move journals nothing.
//! Checkpoint parts and journal tails go through one applier: each record
//! is decoded into the [`RedoOp`] that wrote it and applied at once — a
//! creation re-creates its object, a `Bounds` record commits its
//! object's bounds, a data record is absorbed through the path a
//! balancing receiver uses.  The sequence:
//!
//! 1. Pick the newest `ckpt-<seq>` whose manifest decodes (CRC-valid;
//!    torn `.tmp` staging directories are invisible), re-create its
//!    objects (same ids) and ledgers, and stream each AEU's part in, hash
//!    partitions sized once for the manifest's count
//!    ([`Aeu::reserve_transfer`]).  A part that does not walk cleanly to
//!    its end, names another AEU, or restores a partition to another
//!    count than the manifest's is corruption.
//! 2. Replay each AEU's journal from the manifest's LSN cut, reading no
//!    byte before it, AEU 0's first: every creation is on AEU 0's log and
//!    barrier-synced before any record on any log references the object.
//!    A journal that ends before its cut is corruption.
//! 3. Rebuild the routing table of each point object from its committed
//!    bounds — its last `Bounds` record, in the checkpoint's part 0 or a
//!    tail, else the creation's — and keep in each partition only the
//!    pairs of its range.  A cycle cut before its `Bounds` commit leaves
//!    the receivers' copies outside their ranges, one past it the
//!    donors': no pair moves between partitions, and with no deletes the
//!    order across logs does not matter.
//!
//! Recovery itself writes nothing; crashing *during* recovery (see
//! [`FP_RECOVERY_MID_REPLAY`]) just means discarding the half-built
//! engine and running recovery again from the same on-disk state.

use crate::checkpoint::{self, Manifest, ManifestObject};
use crate::failpoint::{FailPoints, FP_RECOVERY_MID_REPLAY};
use crate::wal::{decode_op, journal_path, short_journal, walk_records, DecodeBuf, WAL_MAGIC};
use eris_core::balancer::TRANSFER_CHUNK;
use eris_core::durability::{ObjectClass, RedoOp};
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

    // 1: the newest complete checkpoint (if any).
    let (latest, cuts) = checkpoint::latest_cuts(base, n_aeus)?;
    let mut replay = Replay::default();
    if let Some((ckpt_path, manifest)) = &latest {
        replay.checkpoint(engine, ckpt_path, manifest)?;
    }

    // 2: each AEU's journal from its cut, AEU 0's (every creation) first.
    let (mut replayed, mut torn_bytes) = (0, 0);
    for (i, &cut) in cuts.iter().enumerate() {
        let (aeu, path) = (AeuId(i as u32), journal_path(base, i));
        if cut == 0 && !path.exists() {
            continue;
        }
        let mut records = 0;
        let (valid, len) = replay.file(engine, aeu, &path, WAL_MAGIC, cut, || {
            if fail.hit(FP_RECOVERY_MID_REPLAY) {
                return Err(RecoveryError::InjectedCrash);
            }
            records += 1;
            Ok(())
        })?;
        torn_bytes += len - valid;
        replayed += records;
        let counters = &engine.telemetry_shard(aeu).counters;
        counters.replayed_records.fetch_add(records, Relaxed);
    }

    // 3: routing tables from the committed bounds (an object with none
    // keeps those of its creation); each partition keeps the pairs of its
    // range, the others dropped in steps through one reused buffer, as a
    // donor gives a range away (compacting a partition whose slack is
    // then due).
    let mut committed = replay.committed;
    let mut strays = Vec::new();
    for d in engine.describe_objects() {
        if d.class == ObjectClass::Column {
            continue;
        }
        if let Some(bounds) = committed.remove(&d.id) {
            let bounds = check_bounds(d.id, bounds, n_aeus, d.domain)?;
            engine.restore_partition_bounds(d.id, &bounds);
        }
        for a in engine.aeu_ids() {
            let aeu = engine.aeu_mut(a);
            let (lo, hi) = aeu.partition(d.id).expect("a point partition").range;
            for outside in [(0, lo), (hi, d.domain)] {
                let mut from = (aeu.count_range(d.id, outside.0, outside.1) > 0).then_some(0);
                while let Some(at) = from {
                    strays.clear();
                    from = aeu.extract_chunk(d.id, outside, at, &mut strays, TRANSFER_CHUNK);
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

/// Each point object's last committed bounds, and the buffer every
/// record is decoded into: what replay carries from one record to the
/// next, and from the checkpoint to the tails.
#[derive(Default)]
struct Replay {
    committed: HashMap<DataObjectId, Vec<u64>>,
    buf: DecodeBuf,
}

impl Replay {
    /// Stream the records of the part or journal at `path` from byte
    /// `start` into AEU `aeu`, each applied as it is read, `before` called
    /// ahead of each.  Returns the offset where the valid records end and
    /// the file's length; a file that ends before `start` is corruption.
    fn file(
        &mut self,
        engine: &mut Engine,
        aeu: AeuId,
        path: &Path,
        magic: &[u8],
        start: u64,
        mut before: impl FnMut() -> Result<(), RecoveryError>,
    ) -> Result<(u64, u64), RecoveryError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < start {
            return Err(RecoveryError::Corrupt(short_journal(path, len, start)));
        }
        let reader = BufReader::with_capacity(1 << 16, file);
        let valid = walk_records(reader, magic, start, |off, payload| {
            before()?;
            let Some(op) = decode_op(payload, &mut self.buf) else {
                let at = path.display();
                return Err(RecoveryError::Corrupt(format!(
                    "undecodable record at {at}:{off}"
                )));
            };
            apply(engine, &mut self.committed, aeu, op)
        })?;
        Ok((valid, len))
    }

    /// Re-create the manifest's objects and stream every AEU's part into
    /// them.
    fn checkpoint(
        &mut self,
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
            let (aeu, path) = (AeuId(i as u32), checkpoint::part_path(ckpt_path, i));
            let len = std::fs::metadata(&path)?.len();
            for o in &manifest.objects {
                if o.descriptor.class == ObjectClass::Hash {
                    // A key takes 16 bytes of the part: a count beyond that
                    // is no size to reserve (the count check rejects it).
                    let keys = o.lens[i].min(len / 16) as usize;
                    engine.aeu_mut(aeu).reserve_transfer(o.descriptor.id, keys);
                }
            }
            let magic = checkpoint::part_header(i);
            let (valid, len) = self.file(engine, aeu, &path, &magic, 0, || Ok(()))?;
            let at = path.display();
            if valid == 0 || valid != len {
                let msg = format!("{at} holds {len} bytes, of which {valid} walk as records");
                return Err(RecoveryError::Corrupt(msg));
            }
            for o in &manifest.objects {
                let (id, want) = (o.descriptor.id, o.lens[i]);
                let partition = engine.aeu(aeu).partition(id);
                let got = partition.map_or(0, |p| p.data.len() as u64);
                if got != want {
                    let msg = format!("{at} restores {got} keys of object {}, not {want}", id.0);
                    return Err(RecoveryError::Corrupt(msg));
                }
            }
        }
        let unbounded = |o: &&ManifestObject| {
            o.descriptor.class != ObjectClass::Column
                && !self.committed.contains_key(&o.descriptor.id)
        };
        if let Some(o) = manifest.objects.iter().find(unbounded) {
            return Err(RecoveryError::Corrupt(format!(
                "checkpoint {} holds no bounds of object {}",
                manifest.seq, o.descriptor.id.0
            )));
        }
        Ok(())
    }
}

/// Apply one record of a checkpoint part or a journal tail of AEU `aeu`:
/// a creation re-creates its object, a `Bounds` record commits its
/// object's bounds, a data record is absorbed into `aeu`'s partition.  A
/// data record naming no partition of its kind on `aeu` is corruption.
fn apply(
    engine: &mut Engine,
    committed: &mut HashMap<DataObjectId, Vec<u64>>,
    aeu: AeuId,
    op: RedoOp<'_>,
) -> Result<(), RecoveryError> {
    let column = |aeu: &Aeu, object| {
        let data = aeu.partition(object).map(|p| &p.data);
        data.map(|data| matches!(data, PartitionData::Column(_)))
    };
    let aeu = engine.aeu_mut(aeu);
    match op {
        RedoOp::CreateObject {
            class,
            object,
            domain,
            name,
        } => return create_object(engine, class, object, domain, name),
        RedoOp::Bounds { object, bounds } => {
            committed.insert(object, bounds.to_vec());
        }
        RedoOp::UpsertPairs { object, pairs } if column(aeu, object) == Some(false) => {
            aeu.absorb_pairs(object, pairs)
        }
        RedoOp::AppendRows { object, rows } if column(aeu, object) == Some(true) => {
            aeu.absorb_rows(object, rows).expect("a column partition")
        }
        _ => {
            return Err(RecoveryError::Corrupt(format!(
                "{:?} has no partition of the record's kind",
                aeu.id
            )))
        }
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
    fn an_undecodable_tail_record_is_corruption() {
        let dir = std::env::temp_dir().join(format!("eris-undecodable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let machine =
            || eris_numa::machines::custom_machine("undecodable", 2, 2, 20.0, 100.0, 10.0, 60.0);
        let mut e = Engine::new(machine(), EngineConfig::default());
        let dura = Durability::open(&dir, e.num_aeus()).unwrap();
        dura.attach(&mut e);
        e.create_index("t", 1 << 10);
        drop((e, dura));
        // A CRC-valid record of no known tag, on a log other than AEU 0's.
        let wal = Wal::open(&dir.join("wal/aeu-1.log")).unwrap();
        wal.append_payload(&[0xEE]);
        assert!(wal.flush(&FailPoints::new(), None) > 0);
        drop(wal);

        let got = Durability::recover(&mut Engine::new(machine(), EngineConfig::default()), &dir);
        let undecodable = |m: &str| m.contains("undecodable record") && m.contains("aeu-1.log");
        assert!(
            matches!(&got, Err(RecoveryError::Corrupt(m)) if undecodable(m)),
            "{got:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_keeps_the_last_write_of_every_key() {
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
