//! The per-AEU write-ahead journal.
//!
//! ERIS routes every mutation to the one AEU that owns the target
//! partition, so the journal is partitioned the same way the data is:
//! one append-only log per AEU, written by that AEU alone (no log latch,
//! no cross-socket cache-line bouncing — the redo analogue of the
//! paper's "exclusive ownership" rule).  Each AEU logs the *local
//! effects* it applied (post-routing), so replay is deterministic per
//! log and never re-routes.  A record is encoded once, straight into the
//! group-commit buffer ([`Wal::append_op`]), and checksummed where it lies.
//!
//! ## File format
//!
//! ```text
//! [8B magic "ERISWAL3"]
//! repeat:  [u32 len][u32 crc32(payload)][payload: len bytes]
//! ```
//!
//! A record's payload is `[u8 tag][body]` (tags below).  All integers are
//! little-endian.  The *LSN* of a log is simply its synced byte length;
//! checkpoint manifests record one LSN cut per AEU, and recovery and a
//! reopen seek to it and read nothing before it.  The reader stops at the
//! first short, oversized, or CRC-failing record — a torn group commit
//! truncates cleanly instead of corrupting replay.

use crate::crc::crc32;
use crate::failpoint::{FailPoints, FP_JOURNAL_PRE_SYNC, FP_JOURNAL_TORN_WRITE};
use eris_core::balancer::TRANSFER_CHUNK;
use eris_core::durability::{ObjectClass, RedoOp};
use eris_core::telemetry::TelemetryShard;
use eris_core::{AeuId, DataObjectId};
use eris_obs::{now_ns, Stamped, TraceEvent};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::{self, Relaxed};
use std::sync::Arc;

pub const WAL_MAGIC: &[u8; 8] = b"ERISWAL3";

/// Bytes buffered before a group commit flushes mid-step.  One AEU step
/// normally commits once at `end_of_step`; this bounds memory when a
/// single step journals a huge bulk absorb.
pub const GROUP_COMMIT_BYTES: usize = 256 * 1024;

/// Upper bound on one record's payload; the reader treats larger length
/// prefixes as corruption (stops replay there).
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

const TAG_CREATE: u8 = 1;
const TAG_UPSERT_PAIRS: u8 = 2;
const TAG_APPEND_ROWS: u8 = 3;
const TAG_BOUNDS: u8 = 5;

/// Payload length of `op`'s record: exactly what [`encode_op`] writes.
fn encoded_len(op: &RedoOp<'_>) -> usize {
    // [tag][u32 object] open every record.
    5 + match op {
        RedoOp::CreateObject { name, .. } => 1 + 8 + 4 + name.len(),
        RedoOp::UpsertPairs { pairs, .. } => 8 + 16 * pairs.len(),
        RedoOp::AppendRows { rows: words, .. } | RedoOp::Bounds { bounds: words, .. } => {
            8 + 8 * words.len()
        }
    }
}

/// Fills a pre-sized payload front to back.
struct Writer<'a>(&'a mut [u8]);

impl<'a> Writer<'a> {
    /// The next `n` bytes, to be filled by the caller.
    fn next(&mut self, n: usize) -> &'a mut [u8] {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(n);
        self.0 = rest;
        head
    }

    fn put(&mut self, bytes: &[u8]) {
        self.next(bytes.len()).copy_from_slice(bytes);
    }
}

/// Serialize one redo operation into `out`, which is exactly
/// [`encoded_len`] bytes long: one pass, no allocation.
fn encode_op(op: &RedoOp<'_>, out: &mut [u8]) {
    let mut w = Writer(out);
    match *op {
        RedoOp::CreateObject {
            class,
            object,
            domain,
            name,
        } => {
            w.put(&[TAG_CREATE, class.tag()]);
            w.put(&object.0.to_le_bytes());
            w.put(&domain.to_le_bytes());
            w.put(&(name.len() as u32).to_le_bytes());
            w.put(name.as_bytes());
        }
        RedoOp::UpsertPairs { object, pairs } => {
            w.put(&[TAG_UPSERT_PAIRS]);
            w.put(&object.0.to_le_bytes());
            w.put(&(pairs.len() as u64).to_le_bytes());
            for (slot, (k, v)) in w.next(16 * pairs.len()).chunks_exact_mut(16).zip(pairs) {
                let (ks, vs) = slot.split_at_mut(8);
                ks.copy_from_slice(&k.to_le_bytes());
                vs.copy_from_slice(&v.to_le_bytes());
            }
        }
        RedoOp::AppendRows { object, rows } => put_words(&mut w, TAG_APPEND_ROWS, object, rows),
        RedoOp::Bounds { object, bounds } => put_words(&mut w, TAG_BOUNDS, object, bounds),
    }
    debug_assert!(w.0.is_empty(), "encoded_len disagrees with encode_op");
}

/// `[tag][u32 object][u64 n][n × u64]`: rows appended, or bounds.
fn put_words(w: &mut Writer<'_>, tag: u8, object: DataObjectId, words: &[u64]) {
    w.put(&[tag]);
    w.put(&object.0.to_le_bytes());
    w.put(&(words.len() as u64).to_le_bytes());
    for (slot, x) in w.next(8 * words.len()).chunks_exact_mut(8).zip(words) {
        slot.copy_from_slice(&x.to_le_bytes());
    }
}

/// Frame one record at the end of the group-commit buffer `buf`: reserve
/// the header and `len` payload bytes, let `write` fill the payload where
/// it lies, then checksum it and fill in `[u32 len][u32 crc]`.  Returns
/// the bytes now pending.  The one framing path of the journal and of
/// checkpoint parts.
fn frame(buf: &mut Vec<u8>, len: usize, write: impl FnOnce(&mut [u8])) -> usize {
    debug_assert!(
        len <= MAX_RECORD_BYTES as usize,
        "a record the reader refuses"
    );
    let start = buf.len();
    buf.resize(start + 8 + len, 0);
    let (header, payload) = buf[start..].split_at_mut(8);
    write(payload);
    header[..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    buf.len()
}

/// Frame `op` at the end of `buf`, encoded where it lies: its pairs or
/// rows in records of at most [`TRANSFER_CHUNK`] each, which replay in
/// order to the same state, so that no record outgrows what the reader
/// takes ([`MAX_RECORD_BYTES`]).  Returns the records framed.
pub(crate) fn frame_op(buf: &mut Vec<u8>, op: &RedoOp<'_>) -> u64 {
    let mut one = |op: &RedoOp<'_>| {
        frame(buf, encoded_len(op), |payload| encode_op(op, payload));
        1u64
    };
    match *op {
        RedoOp::UpsertPairs { object, pairs } if pairs.len() > TRANSFER_CHUNK => pairs
            .chunks(TRANSFER_CHUNK)
            .map(|pairs| one(&RedoOp::UpsertPairs { object, pairs }))
            .sum(),
        RedoOp::AppendRows { object, rows } if rows.len() > TRANSFER_CHUNK => rows
            .chunks(TRANSFER_CHUNK)
            .map(|rows| one(&RedoOp::AppendRows { object, rows }))
            .sum(),
        _ => one(op),
    }
}

pub(crate) fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = buf.split_first()?;
    *buf = rest;
    Some(b)
}

pub(crate) fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    if buf.len() < 4 {
        return None;
    }
    let v = u32::from_le_bytes(buf[..4].try_into().unwrap());
    *buf = &buf[4..];
    Some(v)
}

pub(crate) fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    if buf.len() < 8 {
        return None;
    }
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    *buf = &buf[8..];
    Some(v)
}

/// The buffers [`decode_op`] decodes a record's pairs or words into,
/// reused from one record to the next.
#[derive(Default)]
pub struct DecodeBuf {
    pairs: Vec<(u64, u64)>,
    words: Vec<u64>,
}

/// Decode one record payload into the [`RedoOp`] that wrote it, borrowing
/// the payload and `scratch`.  `None` rejects malformed input — the
/// payload passed its CRC, so this only fires on version skew or bugs,
/// and recovery surfaces it as corruption rather than panicking.
pub fn decode_op<'a>(mut buf: &'a [u8], scratch: &'a mut DecodeBuf) -> Option<RedoOp<'a>> {
    let tag = take_u8(&mut buf)?;
    let op = match tag {
        TAG_CREATE => {
            let class = ObjectClass::from_tag(take_u8(&mut buf)?)?;
            let object = DataObjectId(take_u32(&mut buf)?);
            let domain = take_u64(&mut buf)?;
            let len = take_u32(&mut buf)? as usize;
            if buf.len() != len {
                return None;
            }
            let name = std::str::from_utf8(std::mem::take(&mut buf)).ok()?;
            RedoOp::CreateObject {
                class,
                object,
                domain,
                name,
            }
        }
        TAG_UPSERT_PAIRS => {
            let object = DataObjectId(take_u32(&mut buf)?);
            let n = take_u64(&mut buf)? as usize;
            if buf.len() != n.checked_mul(16)? {
                return None;
            }
            let pairs = &mut scratch.pairs;
            pairs.clear();
            for _ in 0..n {
                let k = take_u64(&mut buf)?;
                let v = take_u64(&mut buf)?;
                pairs.push((k, v));
            }
            RedoOp::UpsertPairs { object, pairs }
        }
        TAG_APPEND_ROWS | TAG_BOUNDS => {
            let object = DataObjectId(take_u32(&mut buf)?);
            let n = take_u64(&mut buf)? as usize;
            if buf.len() != n.checked_mul(8)? {
                return None;
            }
            let words = &mut scratch.words;
            words.clear();
            for _ in 0..n {
                words.push(take_u64(&mut buf)?);
            }
            match tag {
                TAG_BOUNDS => RedoOp::Bounds {
                    object,
                    bounds: words,
                },
                _ => RedoOp::AppendRows {
                    object,
                    rows: words,
                },
            }
        }
        _ => return None,
    };
    buf.is_empty().then_some(op)
}

struct WalInner {
    file: File,
    /// Records framed but not yet written + synced (the group commit).
    buf: Vec<u8>,
    /// Byte offset where the last complete write ended: the next group
    /// commit is written here.
    end: u64,
    /// Byte offset up to which the file content is known durable.
    synced_lsn: u64,
    /// Records framed since the last flush published the count.
    records: u64,
}

/// One AEU's append-only journal.  The mutex is uncontended in steady
/// state — only the owning AEU appends — but makes the sink `Sync` for
/// the real-thread runtime and for barriers issued by the engine thread.
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// Open (or create) the journal at `path`, reading it from its start.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Self::open_from(path, 0)
    }

    /// Open (or create) the journal at `path`, whose records before byte
    /// `cut` a checkpoint holds: they are never read.  The file is scanned
    /// from `cut` and truncated back to its last intact record, so a torn
    /// tail from a previous crash is never appended after.  A file shorter
    /// than the magic (its creation was torn) starts over; one with another
    /// magic, or one that ends before `cut`, is an
    /// [`std::io::ErrorKind::InvalidData`] error.
    pub fn open_from(path: &Path, cut: u64) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len < cut {
            let msg = short_journal(path, len, cut);
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
        }
        let reader = BufReader::new(&mut file);
        let mut valid = walk_records(reader, WAL_MAGIC, cut, |_, _| Ok::<_, std::io::Error>(()))?;
        if valid == 0 {
            file.set_len(0)?;
            file.rewind()?;
            file.write_all(WAL_MAGIC)?;
            valid = WAL_MAGIC.len() as u64;
        } else if valid < len {
            file.set_len(valid)?;
        }
        if valid != len {
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid))?;
        Ok(Wal {
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                end: valid,
                synced_lsn: valid,
                records: 0,
            }),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Encode `op` straight into the group-commit buffer, as one record
    /// or, past [`TRANSFER_CHUNK`] pairs or rows, several.  Returns the
    /// bytes now pending so the caller can trigger an early flush.
    pub fn append_op(&self, op: &RedoOp<'_>) -> usize {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.records += frame_op(&mut inner.buf, op);
        inner.buf.len()
    }

    /// Frame an already encoded `payload` into the group-commit buffer.
    /// Returns the bytes now pending, as [`Wal::append_op`].
    pub fn append_payload(&self, payload: &[u8]) -> usize {
        let mut inner = self.inner.lock();
        inner.records += 1;
        frame(&mut inner.buf, payload.len(), |out| {
            out.copy_from_slice(payload)
        })
    }

    /// Group commit: write the pending buffer and `fsync`.  Fail points
    /// model a crash with a torn write or before the sync.  Returns the
    /// number of records' bytes made durable (0 when nothing pended, an
    /// I/O error kept them pending, or the crash fired).
    // HOT-PATH-CUT: group-commit flush — file IO on the durability
    // thread, never under the AEU's latch-free section.
    pub fn flush(&self, fail: &FailPoints, shard: Option<&Arc<TelemetryShard>>) -> u64 {
        if fail.crashed() {
            return 0;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if inner.buf.is_empty() {
            return 0;
        }
        let records = std::mem::take(&mut inner.records);
        if let Some(shard) = shard {
            shard.counters.journal_records.fetch_add(records, Relaxed);
        }
        if fail.hit(FP_JOURNAL_TORN_WRITE) {
            // Die mid-`write(2)`: a prefix that ends inside the last
            // record's framing reaches the file, and no sync happens.
            let torn = inner.buf.len().saturating_sub(3);
            let _ = inner.file.write_all(&inner.buf[..torn]);
            return 0;
        }
        // A write that failed earlier may have left part of its buffer
        // after `end`: cut the file back first, so this commit lands where
        // its records belong and not after debris the reader stops at.
        if inner.file.stream_position().ok() != Some(inner.end)
            && (inner.file.set_len(inner.end).is_err()
                || inner.file.seek(SeekFrom::Start(inner.end)).is_err())
        {
            return 0;
        }
        if inner.file.write_all(&inner.buf).is_err() {
            // The buffer stays for the retry.
            return 0;
        }
        inner.end += inner.buf.len() as u64;
        // Keep the buffer's capacity for the next commit, unless one huge
        // record (a bulk load) grew it far past a group commit's size.
        if inner.buf.capacity() > 2 * GROUP_COMMIT_BYTES {
            inner.buf = Vec::new();
        } else {
            inner.buf.clear();
        }
        if fail.hit(FP_JOURNAL_PRE_SYNC) {
            // Written but never synced: the bytes may or may not survive
            // a real crash; this harness keeps them (the reader must
            // tolerate either outcome — both are valid torn states).
            return 0;
        }
        if inner.file.sync_data().is_err() {
            return 0;
        }
        // The sync covers the whole file up to `end`, including bytes an
        // earlier commit wrote but failed to sync: a checkpoint cut taken
        // from this LSN never falls before records its parts contain.
        let n = inner.end - inner.synced_lsn;
        inner.synced_lsn = inner.end;
        if let Some(shard) = shard {
            shard.counters.journal_bytes.fetch_add(n, Relaxed);
            shard.counters.journal_fsyncs.fetch_add(1, Relaxed);
        }
        n
    }

    /// The durable byte offset (the LSN recorded by checkpoint cuts).
    pub fn synced_lsn(&self) -> u64 {
        self.inner.lock().synced_lsn
    }

    /// The durable LSN, or `None` while a failed write or sync leaves
    /// framed records that are not known to be on disk.
    fn settled_lsn(&self) -> Option<u64> {
        let inner = self.inner.lock();
        (inner.buf.is_empty() && inner.end == inner.synced_lsn).then_some(inner.synced_lsn)
    }
}

/// The journal of AEU `aeu` under the durable directory `base`.
pub(crate) fn journal_path(base: &Path, aeu: usize) -> PathBuf {
    base.join("wal").join(format!("aeu-{aeu}.log"))
}

/// What is wrong with a journal that ends at byte `len`, before `cut`: it
/// lost records that a checkpoint counts on.
pub(crate) fn short_journal(path: &Path, len: u64, cut: u64) -> String {
    let path = path.display();
    format!("journal {path} ends at byte {len}, before its checkpoint's cut {cut}")
}

/// Walk the records of a journal or a checkpoint part in order from byte
/// `start` (0, or any offset inside the magic, for the first record):
/// check the `magic` (a part's names its AEU too), seek to `start`, and
/// hand every intact record's `(offset, payload)` to `on_record`.  No byte
/// between the magic and `start` is read.  Stops at the first short,
/// oversized or CRC-failing record and returns the offset where the valid
/// records end (0 when the input ends inside the magic); the caller checks
/// that the input reaches `start`.  Another magic is an `InvalidData`
/// error: a foreign file, or one of another format, is never read as
/// empty.  Streams: only one record is held at a time, however long the
/// file.
pub(crate) fn walk_records<E: From<std::io::Error>>(
    mut r: impl Read + Seek,
    magic: &[u8],
    start: u64,
    mut on_record: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<u64, E> {
    /// `Ok(false)` at the end of the input, short or not.
    fn fill(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
        match r.read_exact(buf) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
            Err(e) => Err(e),
        }
    }
    let mut payload = vec![0; magic.len()];
    if !fill(&mut r, &mut payload)? {
        return Ok(0);
    }
    if payload != magic {
        let error = std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "magic {:?} is not {:?}",
                String::from_utf8_lossy(&payload),
                String::from_utf8_lossy(magic)
            ),
        );
        return Err(error.into());
    }
    let mut off = magic.len() as u64;
    if start > off {
        off = r.seek(SeekFrom::Start(start))?;
    }
    loop {
        let mut header = [0u8; 8];
        if !fill(&mut r, &mut header)? {
            return Ok(off);
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if len > MAX_RECORD_BYTES {
            return Ok(off);
        }
        payload.resize(len as usize, 0);
        if !fill(&mut r, &mut payload)? || crc32(&payload) != crc {
            return Ok(off);
        }
        on_record(off, &payload)?;
        off += 8 + len as u64;
    }
}

/// The engine-facing sink: fan-in point for all AEUs' redo streams.
pub struct JournalSink {
    wals: Vec<Wal>,
    /// Telemetry shards, captured at attach time (empty before).
    shards: parking_lot::RwLock<Vec<Arc<TelemetryShard>>>,
    fail: Arc<FailPoints>,
    /// Set by a barrier that could not make every log durable: the sink
    /// journals nothing more and takes no cut, as after a crash, so no
    /// record lands past the gap and nothing later is reported durable.
    stopped: AtomicBool,
}

impl JournalSink {
    pub fn new(wals: Vec<Wal>, fail: Arc<FailPoints>) -> Self {
        JournalSink {
            wals,
            shards: parking_lot::RwLock::new(Vec::new()),
            fail,
            stopped: AtomicBool::new(false),
        }
    }

    pub fn num_wals(&self) -> usize {
        self.wals.len()
    }

    pub fn set_shards(&self, shards: Vec<Arc<TelemetryShard>>) {
        *self.shards.write() = shards;
    }

    pub fn fail_points(&self) -> &Arc<FailPoints> {
        &self.fail
    }

    /// Flush + sync every AEU's log, each one even after another failed;
    /// returns the per-AEU LSN cuts, or an error naming the first log
    /// whose records could not all be made durable (its LSN would cut
    /// before effects the engine already holds).  A sink stopped by a
    /// failed barrier takes no cut.
    pub fn sync_all(&self) -> std::io::Result<Vec<u64>> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(std::io::Error::other(
                "journaling stopped at a barrier that could not sync every log",
            ));
        }
        let settled: Vec<Option<u64>> = (0..self.wals.len())
            .map(|i| {
                self.flush_wal(i);
                self.wals[i].settled_lsn()
            })
            .collect();
        settled
            .iter()
            .zip(&self.wals)
            .map(|(lsn, wal)| {
                lsn.ok_or_else(|| {
                    std::io::Error::other(format!(
                        "journal {} holds records that could not be written and synced",
                        wal.path().display()
                    ))
                })
            })
            .collect()
    }

    /// Whether the sink journals nothing more: a fail point fired, or a
    /// barrier failed.
    fn halted(&self) -> bool {
        self.fail.crashed() || self.stopped.load(Ordering::Acquire)
    }

    /// Group-commit one AEU's log, publish its record count, and trace
    /// the commit when it made bytes durable.
    // HOT-PATH-CUT: group-commit flush entry, as Wal::flush.
    fn flush_wal(&self, idx: usize) -> u64 {
        let shards = self.shards.read();
        let shard = shards.get(idx);
        let n = self.wals[idx].flush(&self.fail, shard);
        if n > 0 {
            if let Some(shard) = shard {
                shard.ring.emit(Stamped {
                    at_ns: now_ns(),
                    aeu: idx as u32,
                    event: TraceEvent::GroupCommit {
                        aeu: idx as u32,
                        bytes: n,
                    },
                });
            }
        }
        n
    }
}

impl eris_core::durability::RedoSink for JournalSink {
    // HOT-PATH-CUT: journal append — buffers the redo record on the
    // durability path; reviewed with the WAL, not the AEU loop.
    fn append(&self, aeu: AeuId, op: RedoOp<'_>) {
        if self.halted() {
            return;
        }
        if self.wals[aeu.index()].append_op(&op) >= GROUP_COMMIT_BYTES {
            self.flush_wal(aeu.index());
        }
    }

    fn end_of_step(&self, aeu: AeuId) {
        if self.halted() {
            return;
        }
        self.flush_wal(aeu.index());
    }

    fn barrier(&self) -> bool {
        if self.halted() {
            return false;
        }
        let synced = self.sync_all().is_ok();
        if !synced {
            self.stopped.store(true, Ordering::Release);
        }
        synced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32_bytewise;
    use eris_core::durability::RedoSink;

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Relaxed);
        std::env::temp_dir().join(format!(
            "eris-wal-test-{}-{tag}-{n}.log",
            std::process::id()
        ))
    }

    /// The record encoder the journal shipped with before records were
    /// encoded in place: the golden reference for the format.
    fn oracle_encode(op: &RedoOp<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        match op {
            RedoOp::CreateObject {
                class,
                object,
                domain,
                name,
            } => {
                out.push(TAG_CREATE);
                out.push(class.tag());
                out.extend_from_slice(&object.0.to_le_bytes());
                out.extend_from_slice(&domain.to_le_bytes());
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
            RedoOp::UpsertPairs { object, pairs } => {
                out.push(TAG_UPSERT_PAIRS);
                out.extend_from_slice(&object.0.to_le_bytes());
                out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
                for (k, v) in pairs.iter() {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            RedoOp::AppendRows { object, rows } => {
                out.push(TAG_APPEND_ROWS);
                out.extend_from_slice(&object.0.to_le_bytes());
                out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                for r in rows.iter() {
                    out.extend_from_slice(&r.to_le_bytes());
                }
            }
            RedoOp::Bounds { object, bounds } => {
                out.push(TAG_BOUNDS);
                out.extend_from_slice(&object.0.to_le_bytes());
                out.extend_from_slice(&(bounds.len() as u64).to_le_bytes());
                for b in bounds.iter() {
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
        }
        out
    }

    /// `op`'s payload as the in-place encoder writes it.
    fn encode(op: &RedoOp<'_>) -> Vec<u8> {
        let mut payload = vec![0; encoded_len(op)];
        encode_op(op, &mut payload);
        payload
    }

    /// The payloads of the journal at `path` from byte `cut`, walked as
    /// recovery walks a tail, and the torn bytes after them.
    fn tail(path: &Path, cut: u64) -> std::io::Result<(Vec<Vec<u8>>, u64)> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut payloads = Vec::new();
        let valid = walk_records(BufReader::new(file), WAL_MAGIC, cut, |_, payload| {
            payloads.push(payload.to_vec());
            Ok::<_, std::io::Error>(())
        })?;
        Ok((payloads, len - valid))
    }

    /// Every tag, a record without pairs, and `big`'s record.
    fn sample_ops(big: &[(u64, u64)]) -> Vec<RedoOp<'_>> {
        vec![
            RedoOp::CreateObject {
                class: ObjectClass::Tree,
                object: DataObjectId(3),
                domain: 1 << 20,
                name: "orders",
            },
            RedoOp::UpsertPairs {
                object: DataObjectId(1),
                pairs: &[(1, 2), (u64::MAX, 0)],
            },
            RedoOp::UpsertPairs {
                object: DataObjectId(1),
                pairs: &[],
            },
            RedoOp::AppendRows {
                object: DataObjectId(2),
                rows: &[5, 6, 7],
            },
            RedoOp::Bounds {
                object: DataObjectId(1),
                bounds: &[0, 10, 20],
            },
            RedoOp::UpsertPairs {
                object: DataObjectId(1),
                pairs: big,
            },
            RedoOp::AppendRows {
                object: DataObjectId(2),
                rows: &[2],
            },
        ]
    }

    /// One pair more than a group commit holds.
    fn big_pairs() -> Vec<(u64, u64)> {
        (0..GROUP_COMMIT_BYTES as u64 / 16 + 1)
            .map(|k| (k * 7, !k))
            .collect()
    }

    #[test]
    fn ops_roundtrip_through_the_record_codec() {
        let mut buf = DecodeBuf::default();
        for op in &sample_ops(&[(9, 9); 3]) {
            let payload = encode(op);
            assert_eq!(payload, oracle_encode(op));
            assert_eq!(decode_op(&payload, &mut buf), Some(*op));
            // Every truncation of a payload is rejected.
            for cut in 0..payload.len() {
                let decoded = decode_op(&payload[..cut], &mut buf);
                assert!(decoded.is_none(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn records_encoded_in_place_match_the_golden_journal() {
        let path = temp_path("golden");
        let big = big_pairs();
        let ops = sample_ops(&big);
        let sink = JournalSink::new(vec![Wal::open(&path).unwrap()], Arc::new(FailPoints::new()));
        for (i, op) in ops.iter().enumerate() {
            sink.append(AeuId(0), *op);
            if i % 3 == 2 {
                sink.end_of_step(AeuId(0));
            }
        }
        sink.end_of_step(AeuId(0));

        // The old framing, by hand, with the bytewise CRC.
        let mut golden = WAL_MAGIC.to_vec();
        for op in &ops {
            let payload = oracle_encode(op);
            golden.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            golden.extend_from_slice(&crc32_bytewise(&payload).to_le_bytes());
            golden.extend_from_slice(&payload);
        }
        assert!(
            std::fs::read(&path).unwrap() == golden,
            "journal bytes differ"
        );
        let read = tail(&path, 0).unwrap();
        assert_eq!(read, (ops.iter().map(encode).collect(), 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_log_does_not_keep_the_others_from_syncing() {
        let paths = [temp_path("sync-all-0"), temp_path("sync-all-1")];
        let wals = paths.iter().map(|p| Wal::open(p).unwrap()).collect();
        let sink = JournalSink::new(wals, Arc::new(FailPoints::new()));
        let op = RedoOp::AppendRows {
            object: DataObjectId(1),
            rows: &[3],
        };
        sink.wals[0].inner.lock().file = File::open(&paths[0]).unwrap();
        sink.append(AeuId(0), op);
        sink.append(AeuId(1), op);
        assert!(sink.sync_all().is_err(), "log 0 cannot be written");
        let lsn = sink.wals[1].settled_lsn();
        assert!(
            lsn.is_some_and(|l| l > WAL_MAGIC.len() as u64),
            "log 1 is synced"
        );
        assert!(!sink.barrier(), "a barrier reports the failed log");
        sink.wals[0].inner.lock().file = OpenOptions::new().write(true).open(&paths[0]).unwrap();
        sink.append(AeuId(1), op);
        assert!(
            !sink.barrier() && sink.sync_all().is_err(),
            "the sink stays stopped"
        );
        assert_eq!(tail(&paths[1], 0).unwrap().0, vec![encode(&op)]);
        for p in paths {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn a_cycle_whose_receiver_cannot_sync_is_not_committed() {
        use eris_core::prelude::*;
        const DOMAIN: u64 = 1 << 14;
        let engine = || {
            Engine::new(
                eris_numa::machines::custom_machine("t2", 2, 1, 20.0, 100.0, 10.0, 60.0),
                EngineConfig {
                    balancer: BalancerConfig {
                        algorithm: BalanceAlgorithm::OneShot,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        };
        let dir = temp_path("unsynced-cycle");
        let dura = crate::Durability::open(&dir, 2).unwrap();
        let mut e = engine();
        dura.attach(&mut e);
        let object = e.create_hash_index("t", DOMAIN);
        e.bulk_load_index(object, (0..DOMAIN).map(|k| (k, k + 1)));
        for ticket in 0..16 {
            let keys = (0..DOMAIN / 64).collect();
            let hot = DataCommand {
                object,
                ticket,
                payload: Payload::Lookup { keys },
            };
            e.submit(AeuId(0), hot).unwrap();
        }
        e.run_until_drained();
        assert!(dura.sink.sync_all().is_ok());
        let lower = |e: &Engine| e.aeu(AeuId(1)).partition(object).unwrap().range.0;
        let before = lower(&e);

        // The receiver's log cannot be written: its absorbed pairs never
        // reach the disk, so the cycle's bounds must not either.
        let receiver = &dura.sink.wals[1];
        receiver.inner.lock().file = File::open(receiver.path()).unwrap();
        e.run_balancer();
        assert_ne!(lower(&e), before, "the cycle moved keys");
        assert!(dura.sink.sync_all().is_err());
        drop((e, dura));

        let mut r = engine();
        crate::Durability::recover(&mut r, &dir).unwrap();
        assert_eq!(lower(&r), before, "the pre-cycle bounds");
        let mut held = 0;
        for a in r.aeu_ids() {
            let p = r.aeu(a).partition(object).unwrap();
            assert_eq!(
                r.aeu(a).count_range(object, p.range.0, p.range.1),
                p.data.len()
            );
            held += p.data.len();
        }
        assert_eq!(held, DOMAIN as usize, "every key, once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_is_cut_back_and_retried_at_the_same_lsn() {
        let path = temp_path("write-error");
        let fail = FailPoints::new();
        let big = big_pairs();
        let ops = sample_ops(&big);
        let sink = JournalSink::new(vec![Wal::open(&path).unwrap()], Arc::new(FailPoints::new()));
        let wal = &sink.wals[0];
        wal.append_op(&ops[0]);
        assert!(wal.flush(&fail, None) > 0);

        let read_only = File::open(&path).unwrap();
        drop(std::mem::replace(&mut wal.inner.lock().file, read_only));
        for op in &ops[1..] {
            wal.append_op(op);
        }
        assert_eq!(wal.flush(&fail, None), 0, "a read-only handle cannot write");
        assert!(sink.sync_all().is_err(), "no cut while records are pending");
        // What a short write leaves behind.
        let mut debris = OpenOptions::new().append(true).open(&path).unwrap();
        debris.write_all(&[0xAB; 5]).unwrap();

        // A writable handle again, positioned at 0, not at the LSN.
        let writable = OpenOptions::new().write(true).open(&path).unwrap();
        wal.inner.lock().file = writable;
        assert!(wal.flush(&fail, None) > 0);
        let read = tail(&path, 0).unwrap();
        assert_eq!(read, (ops.iter().map(encode).collect(), 0));
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(wal.synced_lsn(), len);
        assert_eq!(sink.sync_all().unwrap(), vec![len]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let path = temp_path("torn");
        let fail = FailPoints::new();
        {
            let wal = Wal::open(&path).unwrap();
            wal.append_op(&RedoOp::AppendRows {
                object: DataObjectId(1),
                rows: &[9],
            });
            assert!(wal.flush(&fail, None) > 0);
        }
        let intact = std::fs::metadata(&path).unwrap().len();
        // Simulate a torn group commit: garbage half-record at the end.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 7]).unwrap();
        drop(f);

        let (payloads, torn) = tail(&path, 0).unwrap();
        assert_eq!(payloads.len(), 1);
        assert_eq!(torn, 7);
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.synced_lsn(), intact);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_journal_torn_inside_its_magic_starts_over() {
        let path = temp_path("short-magic");
        std::fs::write(&path, &WAL_MAGIC[..4]).unwrap();
        let op = RedoOp::AppendRows {
            object: DataObjectId(1),
            rows: &[3],
        };
        let wal = Wal::open(&path).unwrap();
        wal.append_op(&op);
        assert!(wal.flush(&FailPoints::new(), None) > 0);
        drop(wal);
        assert_eq!(tail(&path, 0).unwrap(), (vec![encode(&op)], 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_journal_with_another_magic_is_an_error_not_an_empty_log() {
        let payload = encode(&RedoOp::AppendRows {
            object: DataObjectId(1),
            rows: &[3],
        });
        // Older formats' logs, and a file of nobody's.
        for magic in [b"ERISWAL2", b"ERISWAL1", b"ERISWAL0"] {
            let path = temp_path("foreign-magic");
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            std::fs::write(&path, &bytes).unwrap();
            let kind = |e: std::io::Error| e.kind();
            let opened = Wal::open(&path).map(drop).map_err(kind);
            assert_eq!(opened, Err(std::io::ErrorKind::InvalidData));
            let read = tail(&path, 0).map(drop).map_err(kind);
            assert_eq!(read, Err(std::io::ErrorKind::InvalidData));
            // The magic is checked before any seek to a cut.
            let from_end = Wal::open_from(&path, bytes.len() as u64);
            let from_end = from_end.map(drop).map_err(kind);
            assert_eq!(from_end, Err(std::io::ErrorKind::InvalidData));
            let kept = std::fs::read(&path).unwrap();
            assert!(kept == bytes, "the file is left as it was");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_corrupt_record_ends_the_valid_prefix_of_a_streamed_journal() {
        let path = temp_path("corrupt-mid");
        let fail = FailPoints::new();
        let record = |n: u64| {
            let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k, k * 3)).collect();
            encode(&RedoOp::UpsertPairs {
                object: DataObjectId(1),
                pairs: &pairs,
            })
        };
        // Far more bytes than the reader buffers at once.
        let wal = Wal::open(&path).unwrap();
        for n in 0..400 {
            wal.append_payload(&record(n % 64));
        }
        wal.flush(&fail, None);
        let cut = wal.synced_lsn();
        for _ in 0..3 {
            wal.append_payload(&record(5));
        }
        wal.flush(&fail, None);
        drop(wal);
        let (payloads, torn) = tail(&path, 0).unwrap();
        assert_eq!((payloads.len(), torn), (403, 0));
        assert_eq!(tail(&path, cut).unwrap().0.len(), 3);

        // Flip one payload byte of the second record after the cut: the
        // first stays, the rest is torn — the third record too, intact
        // as it is.
        let mut bytes = std::fs::read(&path).unwrap();
        let second = cut as usize + 8 + record(5).len();
        bytes[second + 8 + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (payloads, torn) = tail(&path, cut).unwrap();
        assert_eq!(payloads.len(), 1);
        assert_eq!(torn, (bytes.len() - second) as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cut_skips_checkpointed_records() {
        let path = temp_path("cut");
        let fail = FailPoints::new();
        let wal = Wal::open(&path).unwrap();
        let ops = [1, 2].map(|n| RedoOp::AppendRows {
            object: DataObjectId(n),
            rows: &[9],
        });
        wal.append_op(&ops[0]);
        wal.flush(&fail, None);
        let cut = wal.synced_lsn();
        wal.append_op(&ops[1]);
        wal.flush(&fail, None);
        drop(wal);

        assert_eq!(tail(&path, 0).unwrap().0.len(), 2);
        assert_eq!(tail(&path, cut).unwrap(), (vec![encode(&ops[1])], 0));
        // A record before the cut is never read: damaged, it neither ends
        // the tail nor gets the journal cut back on reopen.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[WAL_MAGIC.len() + 8 + 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(tail(&path, cut).unwrap(), (vec![encode(&ops[1])], 0));
        let wal = Wal::open_from(&path, cut).unwrap();
        assert_eq!(wal.synced_lsn(), bytes.len() as u64);
        drop(wal);
        assert!(std::fs::read(&path).unwrap() == bytes, "the file is kept");
        // A journal that ends before its cut is no journal to append to.
        let short = Wal::open_from(&path, bytes.len() as u64 + 1).map(drop);
        let short = short.map_err(|e| e.kind());
        assert_eq!(short, Err(std::io::ErrorKind::InvalidData));
        std::fs::remove_file(&path).unwrap();
    }
}
