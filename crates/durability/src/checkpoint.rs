//! NUMA-partitioned checkpoints.
//!
//! A checkpoint is a directory `ckpt-<seq>/` holding one *part file per
//! AEU* plus a `MANIFEST`.  A part is a journal of its AEU's partitions:
//! the redo records that rebuild them, framed and checksummed by the
//! journal's own codec ([`crate::wal`]), so that recovery restores a part
//! the way a balancing receiver absorbs a transfer, on the partition's
//! home node and with no cross-partition merge.  The manifest makes the
//! checkpoint atomic: it is written last, into a `.tmp` staging directory
//! that is fsynced and renamed into place.  A crash at any earlier point
//! leaves a manifest-less `.tmp` directory that recovery ignores.
//!
//! The manifest records the *journal cut*: each AEU's synced LSN at
//! checkpoint time.  Recovery loads the newest complete checkpoint and
//! replays only journal records at offsets ≥ the cut.  It also records
//! each partition's key (or row) count, which a restored part must match.
//!
//! ## Part file format
//!
//! ```text
//! [8B magic "ERISPRT2"][u32 aeu]
//! repeat:  [u32 len][u32 crc32(payload)][payload: len bytes]
//! ```
//!
//! The records are journal records ([`crate::wal`]).  Part 0 opens with
//! one `Bounds` record per point object.  Then, object by object: a tree
//! or hash partition as `UpsertPairs` records of at most a balancing
//! transfer's step, 64 Ki pairs (a hash table in bucket order), a column
//! as one `AppendRows` record per segment.
//!
//! ## Manifest format
//!
//! ```text
//! [8B magic "ERISCKP2"][u64 seq]
//! [u32 n_aeus]  n_aeus × [u64 cut]
//! [u32 n_objects]  n × ( [u32 id][u8 class][u64 domain]
//!                        [u32 name_len][name][u64 enqueued][u64 executed]
//!                        n_aeus × [u64 partition len] )
//! [u32 crc32(everything before)]
//! ```

use crate::crc::crc32;
use crate::failpoint::{FailPoints, FP_CHECKPOINT_PARTIAL, FP_CHECKPOINT_PRE_MANIFEST};
use crate::wal::{frame_op, take_u32, take_u64, take_u8};
use eris_core::balancer::TRANSFER_CHUNK;
use eris_core::durability::{ObjectClass, ObjectDescriptor};
use eris_core::{AeuId, DataObjectId, Engine, Partition, PartitionData, RedoOp};
use eris_obs::{now_ns, Stamped, TraceEvent, PHASE_BEGIN, PHASE_COMMITTED, PHASE_PARTS_WRITTEN};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

pub const PART_MAGIC: &[u8; 8] = b"ERISPRT2";
pub const MANIFEST_MAGIC: &[u8; 8] = b"ERISCKP2";

/// One object's manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestObject {
    pub descriptor: ObjectDescriptor,
    /// Conservation-ledger state at checkpoint time (drained, so the two
    /// are equal for a healthy engine; both are kept for diagnosis).
    pub enqueued: u64,
    pub executed: u64,
    /// Keys (rows, of a column) of each AEU's partition.
    pub lens: Vec<u64>,
}

/// The decoded `MANIFEST` of one complete checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    pub seq: u64,
    /// Per-AEU journal LSN at checkpoint time; replay starts here.
    pub cuts: Vec<u64>,
    pub objects: Vec<ManifestObject>,
}

fn ckpt_dir(base: &Path, seq: u64) -> PathBuf {
    base.join(format!("ckpt-{seq}"))
}

/// The part file of AEU `aeu` in checkpoint directory `ckpt`.
pub(crate) fn part_path(ckpt: &Path, aeu: usize) -> PathBuf {
    ckpt.join(format!("aeu-{aeu}.part"))
}

/// The header a part of AEU `aeu` opens with.
pub(crate) fn part_header(aeu: usize) -> [u8; 12] {
    let mut header = [0; 12];
    header[..8].copy_from_slice(PART_MAGIC);
    header[8..].copy_from_slice(&(aeu as u32).to_le_bytes());
    header
}

/// Write and sync one AEU's part: `bounds` as `Bounds` records, then the
/// records that rebuild each of `partitions`.  One record is held in
/// memory at a time.
fn write_part(
    path: &Path,
    aeu: usize,
    bounds: &[(DataObjectId, Vec<u64>)],
    partitions: &[(DataObjectId, &Partition)],
) -> std::io::Result<()> {
    let mut file = File::create(path)?;
    file.write_all(&part_header(aeu))?;
    let (mut record, mut written) = (Vec::new(), Ok(()));
    // Frame one record and write it out; nothing after a failed write.
    let mut put = |op: RedoOp<'_>| {
        if written.is_ok() {
            frame_op(&mut record, &op);
            written = file.write_all(&record);
            record.clear();
        }
    };
    for &(object, ref bounds) in bounds {
        put(RedoOp::Bounds { object, bounds });
    }
    let mut run = Vec::new();
    for &(object, p) in partitions {
        let mut push = |k, v| {
            run.push((k, v));
            if run.len() == TRANSFER_CHUNK {
                let pairs = &run;
                put(RedoOp::UpsertPairs { object, pairs });
                run.clear();
            }
        };
        match &p.data {
            PartitionData::Index(tree) => tree.scan_range_inclusive(0, u64::MAX, &mut push),
            PartitionData::Hash(h) => h.for_each(&mut push),
            PartitionData::Column(col) => {
                for rows in col.segments().iter().map(|seg| seg.values()) {
                    put(RedoOp::AppendRows { object, rows });
                }
            }
        }
        if !run.is_empty() {
            let pairs = &run;
            put(RedoOp::UpsertPairs { object, pairs });
            run.clear();
        }
    }
    written?;
    file.sync_data()
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&m.seq.to_le_bytes());
    out.extend_from_slice(&(m.cuts.len() as u32).to_le_bytes());
    for cut in &m.cuts {
        out.extend_from_slice(&cut.to_le_bytes());
    }
    out.extend_from_slice(&(m.objects.len() as u32).to_le_bytes());
    for o in &m.objects {
        out.extend_from_slice(&o.descriptor.id.0.to_le_bytes());
        out.push(o.descriptor.class.tag());
        out.extend_from_slice(&o.descriptor.domain.to_le_bytes());
        out.extend_from_slice(&(o.descriptor.name.len() as u32).to_le_bytes());
        out.extend_from_slice(o.descriptor.name.as_bytes());
        out.extend_from_slice(&o.enqueued.to_le_bytes());
        out.extend_from_slice(&o.executed.to_le_bytes());
        debug_assert_eq!(o.lens.len(), m.cuts.len(), "one length per AEU");
        for len in &o.lens {
            out.extend_from_slice(&len.to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode and validate a manifest image; `None` rejects corruption.
pub fn decode_manifest(bytes: &[u8]) -> Option<Manifest> {
    if bytes.len() < MANIFEST_MAGIC.len() + 12 || &bytes[..8] != MANIFEST_MAGIC {
        return None;
    }
    let body = &bytes[..bytes.len() - 4];
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != crc {
        return None;
    }
    let mut cur = &body[8..];
    let seq = take_u64(&mut cur)?;
    let n_aeus = take_u32(&mut cur)? as usize;
    if cur.len() < n_aeus.checked_mul(8)? {
        return None;
    }
    let mut cuts = Vec::with_capacity(n_aeus);
    for _ in 0..n_aeus {
        cuts.push(take_u64(&mut cur)?);
    }
    let n_objects = take_u32(&mut cur)? as usize;
    let mut objects = Vec::with_capacity(n_objects.min(cur.len() / 33));
    for _ in 0..n_objects {
        let id = DataObjectId(take_u32(&mut cur)?);
        let class = ObjectClass::from_tag(take_u8(&mut cur)?)?;
        let domain = take_u64(&mut cur)?;
        let name_len = take_u32(&mut cur)? as usize;
        if cur.len() < name_len {
            return None;
        }
        let name = String::from_utf8(cur[..name_len].to_vec()).ok()?;
        cur = &cur[name_len..];
        let enqueued = take_u64(&mut cur)?;
        let executed = take_u64(&mut cur)?;
        let lens = (0..n_aeus)
            .map(|_| take_u64(&mut cur))
            .collect::<Option<_>>()?;
        objects.push(ManifestObject {
            descriptor: ObjectDescriptor {
                id,
                class,
                domain,
                name,
            },
            enqueued,
            executed,
            lens,
        });
    }
    if cur.is_empty() {
        Some(Manifest { seq, cuts, objects })
    } else {
        None
    }
}

/// Trace one checkpoint phase transition.  Checkpoints are engine-level,
/// not AEU-level; their events land in AEU 0's ring by convention.  A
/// crashed checkpoint leaves `PHASE_BEGIN` (and possibly
/// `PHASE_PARTS_WRITTEN`) without a `PHASE_COMMITTED` — exactly the
/// signature an observer needs to spot an abandoned `.tmp` directory.
fn emit_phase(engine: &Engine, seq: u64, phase: u8) {
    engine.telemetry_shard(AeuId(0)).ring.emit(Stamped {
        at_ns: now_ns(),
        aeu: 0,
        event: TraceEvent::CheckpointPhase { seq, phase },
    });
}

fn write_file_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    Ok(())
}

fn sync_dir(path: &Path) -> std::io::Result<()> {
    File::open(path)?.sync_all()
}

/// Write checkpoint `seq` of a **drained** engine under `base`.
///
/// The engine must be quiesced (`run_until_drained`) and every journal
/// synced (`cuts` are the post-sync LSNs) before calling.  The part files
/// are written and fsynced by one thread per file, the NUMA-partitioned
/// analogue of parallel checkpoint writers.
pub fn write_checkpoint(
    engine: &Engine,
    base: &Path,
    seq: u64,
    cuts: &[u64],
    fail: &FailPoints,
) -> std::io::Result<()> {
    emit_phase(engine, seq, PHASE_BEGIN);
    let tmp = base.join(format!("ckpt-{seq}.tmp"));
    if tmp.exists() {
        fs::remove_dir_all(&tmp)?;
    }
    fs::create_dir_all(&tmp)?;

    let objects = engine.describe_objects();
    let partitions: Vec<Vec<(DataObjectId, &Partition)>> = engine
        .aeu_ids()
        .into_iter()
        .map(|a| {
            let aeu = engine.aeu(a);
            let of = |d: &ObjectDescriptor| aeu.partition(d.id).map(|p| (d.id, p));
            objects.iter().filter_map(of).collect()
        })
        .collect();
    let bounds: Vec<(DataObjectId, Vec<u64>)> = objects
        .iter()
        .filter(|d| d.class != ObjectClass::Column)
        .map(|d| {
            let lower = |a| engine.aeu(a).partition(d.id).map_or(0, |p| p.range.0);
            (d.id, engine.aeu_ids().into_iter().map(lower).collect())
        })
        .collect();

    let results: Vec<std::io::Result<()>> = std::thread::scope(|s| {
        let handles: Vec<_> = partitions
            .iter()
            .enumerate()
            .map(|(i, parts)| {
                let (tmp, bounds) = (&tmp, if i == 0 { &bounds[..] } else { &[] });
                s.spawn(move || {
                    if fail.crashed() || fail.hit(FP_CHECKPOINT_PARTIAL) {
                        return Ok(());
                    }
                    write_part(&part_path(tmp, i), i, bounds, parts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        r?;
    }

    if fail.crashed() {
        return Ok(());
    }
    emit_phase(engine, seq, PHASE_PARTS_WRITTEN);
    if fail.hit(FP_CHECKPOINT_PRE_MANIFEST) {
        return Ok(());
    }

    let telemetry = engine.telemetry();
    let ledger: std::collections::HashMap<DataObjectId, (u64, u64)> = telemetry
        .objects
        .iter()
        .map(|o| (o.object, (o.enqueued, o.executed)))
        .collect();
    let manifest = Manifest {
        seq,
        cuts: cuts.to_vec(),
        objects: objects
            .into_iter()
            .map(|descriptor| {
                let (enqueued, executed) = ledger.get(&descriptor.id).copied().unwrap_or((0, 0));
                let len = |a| {
                    engine
                        .aeu(a)
                        .partition(descriptor.id)
                        .map_or(0, |p| p.data.len())
                };
                ManifestObject {
                    lens: engine
                        .aeu_ids()
                        .into_iter()
                        .map(|a| len(a) as u64)
                        .collect(),
                    descriptor,
                    enqueued,
                    executed,
                }
            })
            .collect(),
    };
    write_file_synced(&tmp.join("MANIFEST"), &encode_manifest(&manifest))?;
    sync_dir(&tmp)?;
    fs::rename(&tmp, ckpt_dir(base, seq))?;
    sync_dir(base)?;
    emit_phase(engine, seq, PHASE_COMMITTED);
    Ok(())
}

/// A complete checkpoint: its directory and its manifest.
pub type Found = (PathBuf, Manifest);

/// Find the newest *complete* checkpoint under `base`: a `ckpt-<seq>`
/// directory whose manifest exists and passes its CRC.  Incomplete
/// `.tmp` staging directories and corrupt manifests are skipped; a
/// manifest of another format is an `InvalidData` error, so that its
/// checkpoint is never silently passed over.
pub fn find_latest(base: &Path) -> std::io::Result<Option<Found>> {
    let mut best: Option<Found> = None;
    let entries = match fs::read_dir(base) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq_str) = name.strip_prefix("ckpt-") else {
            continue;
        };
        if seq_str.parse::<u64>().is_err() {
            continue; // `.tmp` staging or stray files
        }
        let path = entry.path();
        let Ok(bytes) = fs::read(path.join("MANIFEST")) else {
            continue;
        };
        if !bytes.starts_with(MANIFEST_MAGIC) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} is not an {MANIFEST_MAGIC:?} manifest", path.display()),
            ));
        }
        let Some(manifest) = decode_manifest(&bytes) else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| manifest.seq > b.seq) {
            best = Some((path, manifest));
        }
    }
    Ok(best)
}

/// The newest complete checkpoint under `base` ([`find_latest`]) and the
/// cut each of `n_aeus` journals is read from: the manifest's, or 0 (the
/// journal's start) with no checkpoint.  A manifest of another AEU count
/// is an `InvalidData` error.
pub(crate) fn latest_cuts(
    base: &Path,
    n_aeus: usize,
) -> std::io::Result<(Option<Found>, Vec<u64>)> {
    let latest = find_latest(base)?;
    let cuts = match &latest {
        Some((_, m)) if m.cuts.len() != n_aeus => {
            let msg = format!("manifest cut count {} != {n_aeus} AEUs", m.cuts.len());
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
        }
        Some((_, m)) => m.cuts.clone(),
        None => vec![0; n_aeus],
    };
    Ok((latest, cuts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let m = Manifest {
            seq: 7,
            cuts: vec![8, 120, 8, 4096],
            objects: vec![ManifestObject {
                descriptor: ObjectDescriptor {
                    id: DataObjectId(0),
                    class: ObjectClass::Hash,
                    domain: 1 << 16,
                    name: "orders".into(),
                },
                enqueued: 10,
                executed: 10,
                lens: vec![3, 0, 5, 2],
            }],
        };
        let bytes = encode_manifest(&m);
        assert_eq!(decode_manifest(&bytes), Some(m));
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert_eq!(decode_manifest(&corrupt), None, "flip at byte {i}");
        }
        assert_eq!(decode_manifest(&bytes[..bytes.len() - 1]), None);
    }
}
