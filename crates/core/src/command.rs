//! Data commands and their byte-buffer wire format.
//!
//! Section 3.2: *"A data command consists of a storage operation type (i.e.,
//! scan, lookup, or insert/upsert), a data object identifier, a reference to
//! a callback function, a data segment that contains all the necessary
//! parameters for the storage operation (e.g., a batch of keys for the
//! lookup or filters for a scan)."*
//!
//! Commands are serialized into the routing layer's byte buffers exactly
//! because the incoming-buffer descriptor of the paper reserves *byte*
//! ranges (32-bit offsets); the encoding here is the little-endian layout
//! written into those ranges.

use bytes::{Buf, BufMut};
use eris_column::{Aggregate, Predicate};
use eris_obs::TraceStamp;

/// Identifier of a data object (a table or index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataObjectId(pub u32);

/// Identifier of an AEU.  AEUs are numbered like the platform's cores, so
/// `AeuId(i)` runs on core `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AeuId(pub u32);

impl AeuId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AeuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEU{}", self.0)
    }
}

/// The storage operation of a data command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StorageOp {
    Lookup,
    Upsert,
    Scan,
}

impl StorageOp {
    /// Stable wire/telemetry tag of this op (the `OP_*` byte).
    pub fn tag(self) -> u8 {
        match self {
            StorageOp::Lookup => OP_LOOKUP,
            StorageOp::Upsert => OP_UPSERT,
            StorageOp::Scan => OP_SCAN,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StorageOp::Lookup => "lookup",
            StorageOp::Upsert => "upsert",
            StorageOp::Scan => "scan",
        }
    }

    /// Inverse of [`StorageOp::tag`] (telemetry labelling of recorded
    /// latency keys).
    pub fn from_tag(tag: u8) -> Option<StorageOp> {
        match tag {
            OP_LOOKUP => Some(StorageOp::Lookup),
            OP_UPSERT => Some(StorageOp::Upsert),
            OP_SCAN => Some(StorageOp::Scan),
            _ => None,
        }
    }
}

/// The parameters ("data segment") of a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A batch of keys to look up.
    Lookup { keys: Vec<u64> },
    /// A batch of key/value pairs to insert or update.
    Upsert { pairs: Vec<(u64, u64)> },
    /// A predicate + aggregate over the snapshot visible at issue time.
    Scan {
        pred: Predicate,
        agg: Aggregate,
        snapshot: u64,
    },
}

impl Payload {
    pub fn op(&self) -> StorageOp {
        match self {
            Payload::Lookup { .. } => StorageOp::Lookup,
            Payload::Upsert { .. } => StorageOp::Upsert,
            Payload::Scan { .. } => StorageOp::Scan,
        }
    }

    /// Number of elementary storage operations this command carries.
    pub fn op_count(&self) -> u64 {
        match self {
            Payload::Lookup { keys } => keys.len() as u64,
            Payload::Upsert { pairs } => pairs.len() as u64,
            Payload::Scan { .. } => 1,
        }
    }
}

/// One item of a point command's data segment: a lookup key or an upsert
/// pair.  The routing split and the AEU's group execution are written
/// once over this trait instead of once per operation, and so is the
/// item's wire form: little-endian words, the key first.
pub trait PointItem: Copy {
    /// The storage operation whose commands carry items of this type.
    const OP: StorageOp;

    /// Encoded size of one item.
    const BYTES: usize;

    /// The key that places the item in a partition.
    fn key(self) -> u64;

    /// Append the item's encoding to `out`.
    fn put(self, out: &mut Vec<u8>);

    /// The items encoded back to back in `bytes`, in order (a trailing
    /// partial item is ignored).
    fn decode_items(bytes: &[u8]) -> impl ExactSizeIterator<Item = Self> + Clone + '_;
}

impl PointItem for u64 {
    const OP: StorageOp = StorageOp::Lookup;
    const BYTES: usize = 8;

    #[inline]
    fn key(self) -> u64 {
        self
    }

    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        // ALLOC-OK: writes within the capacity the sub-command header
        // reserved for its items.
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn decode_items(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        bytes
            .as_chunks::<8>()
            .0
            .iter()
            .map(|&k| u64::from_le_bytes(k))
    }
}

impl PointItem for (u64, u64) {
    const OP: StorageOp = StorageOp::Upsert;
    const BYTES: usize = 16;

    #[inline]
    fn key(self) -> u64 {
        self.0
    }

    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        // ALLOC-OK: as for keys — within the reserved capacity.
        out.extend_from_slice(&self.0.to_le_bytes());
        out.extend_from_slice(&self.1.to_le_bytes());
    }

    #[inline]
    fn decode_items(bytes: &[u8]) -> impl ExactSizeIterator<Item = (u64, u64)> + Clone + '_ {
        let words = bytes.as_chunks::<8>().0;
        words
            .as_chunks::<2>()
            .0
            .iter()
            .map(|&[k, v]| (u64::from_le_bytes(k), u64::from_le_bytes(v)))
    }
}

/// A routable data command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataCommand {
    pub object: DataObjectId,
    /// Callback reference: correlates results with the issuing query.
    pub ticket: u64,
    pub payload: Payload,
}

const OP_LOOKUP: u8 = 0;
const OP_UPSERT: u8 = 1;
const OP_SCAN: u8 = 2;
/// Not a storage op: an in-band latency-trace marker that annotates the
/// *next* command in the stream (see [`encode_trace_marker`]).
const OP_TRACE: u8 = 5;

const PRED_ALL: u8 = 0;
const PRED_RANGE: u8 = 1;
const PRED_EQ: u8 = 2;

const AGG_COUNT: u8 = 0;
const AGG_SUM: u8 = 1;
const AGG_MINMAX: u8 = 2;

/// Command header size in bytes: op + object + ticket + payload length.
pub const HEADER_BYTES: usize = 1 + 4 + 8 + 4;

/// Why a byte stream failed to decode as a [`DataCommand`].  Routing
/// buffers are process-internal, but the same wire format is persisted by
/// the durability journal, where truncated or corrupt input is a normal
/// crash outcome and must be rejected, not panicked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the encoding was complete.
    Truncated,
    /// The payload was shorter than its declared length.
    TrailingPayloadBytes {
        declared: u32,
        consumed: u32,
    },
    UnknownOp(u8),
    UnknownPredicate(u8),
    UnknownAggregate(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated command encoding"),
            DecodeError::TrailingPayloadBytes { declared, consumed } => write!(
                f,
                "payload declared {declared} bytes but decoding consumed {consumed}"
            ),
            DecodeError::UnknownOp(t) => write!(f, "unknown op tag {t}"),
            DecodeError::UnknownPredicate(t) => write!(f, "unknown predicate tag {t}"),
            DecodeError::UnknownAggregate(t) => write!(f, "unknown aggregate tag {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[inline]
fn next_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    if buf.is_empty() {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u8())
}

#[inline]
fn next_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    if buf.len() < 4 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u32_le())
}

#[inline]
fn next_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    if buf.len() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u64_le())
}

impl DataCommand {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + payload_len(&self.payload)
    }

    /// Append the wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match &self.payload {
            Payload::Lookup { keys } => {
                encode_point_header::<u64>(self.object, self.ticket, keys.len(), out);
                keys.iter().for_each(|k| k.put(out));
            }
            Payload::Upsert { pairs } => {
                encode_point_header::<(u64, u64)>(self.object, self.ticket, pairs.len(), out);
                pairs.iter().for_each(|p| p.put(out));
            }
            Payload::Scan {
                pred,
                agg,
                snapshot,
            } => {
                // ALLOC-OK: one exact reserve into the caller's reusable
                // buffer; steady state writes in place.
                out.reserve(self.encoded_len());
                let plen = payload_len(&self.payload);
                encode_header(OP_SCAN, self.object, self.ticket, plen, out);
                encode_pred(out, pred);
                out.put_u8(match agg {
                    Aggregate::Count => AGG_COUNT,
                    Aggregate::Sum => AGG_SUM,
                    Aggregate::MinMax => AGG_MINMAX,
                });
                out.put_u64_le(*snapshot);
            }
        }
    }

    /// Decode one command from the front of `buf`, advancing it only on
    /// success.  Never panics: malformed, truncated, or corrupt input is
    /// reported as a [`DecodeError`] and leaves `buf` untouched.
    pub fn try_decode(buf: &mut &[u8]) -> Result<DataCommand, DecodeError> {
        if buf.len() < HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        let mut cur = *buf;
        let op = cur.get_u8();
        let object = DataObjectId(cur.get_u32_le());
        let ticket = cur.get_u64_le();
        let plen = cur.get_u32_le() as usize;
        if cur.len() < plen {
            return Err(DecodeError::Truncated);
        }
        let mut body = &cur[..plen];
        let payload = match op {
            OP_LOOKUP => {
                let n = next_u32(&mut body)? as usize;
                // Cap the pre-allocation by what the body can actually
                // hold, so a corrupt count cannot demand gigabytes.
                let mut keys = Vec::with_capacity(n.min(body.len() / 8));
                for _ in 0..n {
                    keys.push(next_u64(&mut body)?);
                }
                Payload::Lookup { keys }
            }
            OP_UPSERT => {
                let n = next_u32(&mut body)? as usize;
                let mut pairs = Vec::with_capacity(n.min(body.len() / 16));
                for _ in 0..n {
                    let k = next_u64(&mut body)?;
                    let v = next_u64(&mut body)?;
                    pairs.push((k, v));
                }
                Payload::Upsert { pairs }
            }
            OP_SCAN => {
                let pred = decode_pred(&mut body)?;
                let agg = match next_u8(&mut body)? {
                    AGG_COUNT => Aggregate::Count,
                    AGG_SUM => Aggregate::Sum,
                    AGG_MINMAX => Aggregate::MinMax,
                    t => return Err(DecodeError::UnknownAggregate(t)),
                };
                let snapshot = next_u64(&mut body)?;
                Payload::Scan {
                    pred,
                    agg,
                    snapshot,
                }
            }
            t => return Err(DecodeError::UnknownOp(t)),
        };
        if !body.is_empty() {
            return Err(DecodeError::TrailingPayloadBytes {
                declared: plen as u32,
                consumed: (plen - body.len()) as u32,
            });
        }
        *buf = &cur[plen..];
        Ok(DataCommand {
            object,
            ticket,
            payload,
        })
    }

    /// Encode the command into `out`, which is cleared first, and return
    /// the encoding as a checked command.  The routing front end routes
    /// an owned command this way, through one reused buffer.
    pub(crate) fn encode_checked<'a>(&self, out: &'a mut Vec<u8>) -> CommandRef<'a> {
        out.clear();
        self.encode(out);
        CommandRef {
            object: self.object,
            ticket: self.ticket,
            op: self.payload.op(),
            bytes: out,
        }
    }
}

/// Append a record header: `[op][object:u32][ticket:u64][plen:u32]`.
fn encode_header(op: u8, object: DataObjectId, ticket: u64, plen: usize, out: &mut Vec<u8>) {
    out.put_u8(op);
    out.put_u32_le(object.0);
    out.put_u64_le(ticket);
    out.put_u32_le(plen as u32);
}

/// Read the record header [`encode_header`] writes at the front of `buf`:
/// the op tag, object, ticket and payload length.
fn read_header(buf: &[u8]) -> Result<(u8, DataObjectId, u64, usize), DecodeError> {
    let Some(mut cur) = buf.get(..HEADER_BYTES) else {
        return Err(DecodeError::Truncated);
    };
    let op = cur.get_u8();
    let object = DataObjectId(cur.get_u32_le());
    let ticket = cur.get_u64_le();
    Ok((op, object, ticket, cur.get_u32_le() as usize))
}

/// The longest run of whole commands at the front of the encoded records
/// `buf` that is at most `max` bytes long — or the first command alone
/// when even it is longer — with each trace marker kept with the command
/// after it.  Returns the run's length in bytes and its command count.
pub(crate) fn whole_commands_within(buf: &[u8], max: usize) -> (usize, u64) {
    let (mut at, mut run, mut commands) = (0, 0, 0);
    while let Some(Ok((op, _, _, plen))) = buf.get(at..).map(read_header) {
        at += HEADER_BYTES + plen;
        if op == OP_TRACE {
            continue;
        }
        if at > max && commands > 0 {
            break;
        }
        (run, commands) = (at, commands + 1);
    }
    (run, commands)
}

/// Append the header and item count of a point command carrying `n`
/// items of type `T`, reserving room for the items, which the caller
/// appends next with [`PointItem::put`].  Header, count and items are
/// byte for byte what [`DataCommand::encode`] writes for such a command.
pub(crate) fn encode_point_header<T: PointItem>(
    object: DataObjectId,
    ticket: u64,
    n: usize,
    out: &mut Vec<u8>,
) {
    let plen = 4 + n * T::BYTES;
    // ALLOC-OK: one exact reserve into the caller's reusable buffer for
    // the whole command; the items are written within it.
    out.reserve(HEADER_BYTES + plen);
    encode_header(StorageOp::tag(T::OP), object, ticket, plen, out);
    out.put_u32_le(n as u32);
}

/// Elementary storage operations a payload of `plen` bytes carries, as
/// [`Payload::op_count`].
fn op_count(op: StorageOp, plen: usize) -> u64 {
    let items = plen.saturating_sub(4) as u64;
    match op {
        StorageOp::Lookup => items / u64::BYTES as u64,
        StorageOp::Upsert => items / <(u64, u64)>::BYTES as u64,
        StorageOp::Scan => 1,
    }
}

/// A command checked where it lies in its encoding: a serving-layer
/// frame payload, an owned command encoded once, or a command in a
/// routing-buffer region.  Routing reads a point command's items and a
/// scan's predicate from the bytes and copies them unchanged to each
/// owner, so a command is never decoded into an owned [`DataCommand`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRef<'a> {
    pub(crate) object: DataObjectId,
    pub(crate) ticket: u64,
    pub(crate) op: StorageOp,
    /// The whole encoding: header, then payload.
    pub(crate) bytes: &'a [u8],
}

impl<'a> CommandRef<'a> {
    /// Check that `bytes` hold exactly one command: accepted and rejected
    /// exactly as [`DataCommand::try_decode`] decodes them with nothing
    /// left over.  Bytes after the command are reported as
    /// [`DecodeError::TrailingPayloadBytes`] of the whole input.
    pub fn check(bytes: &'a [u8]) -> Result<CommandRef<'a>, DecodeError> {
        let mut rest = bytes;
        let v = CommandView::try_read(&mut rest, 0, None)?;
        if !rest.is_empty() {
            return Err(DecodeError::TrailingPayloadBytes {
                declared: bytes.len() as u32,
                consumed: (bytes.len() - rest.len()) as u32,
            });
        }
        Ok(v.command_in(bytes))
    }

    /// The encoded items of a point command of `T`'s operation — whole
    /// items, back to back (see [`PointItem::decode_items`]); empty for
    /// another operation's command.
    pub(crate) fn items<T: PointItem>(&self) -> &'a [u8] {
        match self.op == T::OP {
            true => self.bytes.get(HEADER_BYTES + 4..).unwrap_or(&[]),
            false => &[],
        }
    }

    /// A scan's predicate, aggregate and snapshot.
    pub(crate) fn scan_params(&self) -> Result<(Predicate, Aggregate, u64), DecodeError> {
        read_scan(self.bytes.get(HEADER_BYTES..).unwrap_or(&[]))
    }

    /// Elementary storage operations carried, as [`Payload::op_count`].
    pub fn op_count(&self) -> u64 {
        op_count(self.op, self.bytes.len().saturating_sub(HEADER_BYTES))
    }
}

/// A command read in place from a routing-buffer region: its header
/// fields, the stamp of the trace marker before it, and where it lies in
/// the region.  The AEU groups commands on views and reads each one's
/// items, predicate or encoding from the region through
/// [`CommandView::command_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CommandView {
    pub object: DataObjectId,
    pub ticket: u64,
    pub op: StorageOp,
    pub stamp: Option<TraceStamp>,
    /// Offset of the command's header in the region.
    at: usize,
    /// Payload length in bytes.
    plen: usize,
}

impl CommandView {
    /// Read every command of a filled routing-buffer region into `out`,
    /// attaching each trace marker's stamp to the command that follows
    /// it.  Each payload is checked as [`CommandRef::check`] checks it.
    ///
    /// # Panics
    /// On a malformed region, a dangling trace marker included: routing
    /// buffers are process-internal.
    pub fn decode_all(region: &[u8], out: &mut Vec<CommandView>) {
        let mut rest = region;
        let mut pending: Option<TraceStamp> = None;
        while let Some(&tag) = rest.first() {
            if tag == OP_TRACE {
                let (_object, stamp) = match try_decode_trace_marker(&mut rest) {
                    Ok(m) => m,
                    Err(e) => panic!("malformed trace marker: {e}"),
                };
                assert!(
                    !rest.is_empty(),
                    "dangling trace marker at end of command buffer"
                );
                pending = Some(stamp);
                continue;
            }
            let at = region.len() - rest.len();
            let view = match CommandView::try_read(&mut rest, at, pending.take()) {
                Ok(view) => view,
                Err(e) => panic!("malformed command buffer: {e}"),
            };
            out.push(view);
        }
    }

    /// Read and check the command at the front of `buf` (at offset `at`
    /// of its region) and step over it: a point payload must hold exactly
    /// its item count, a scan payload its predicate, aggregate and
    /// snapshot.
    fn try_read(
        buf: &mut &[u8],
        at: usize,
        stamp: Option<TraceStamp>,
    ) -> Result<CommandView, DecodeError> {
        let (tag, object, ticket, plen) = read_header(buf)?;
        let op = StorageOp::from_tag(tag).ok_or(DecodeError::UnknownOp(tag))?;
        let Some(payload) = buf.get(HEADER_BYTES..HEADER_BYTES + plen) else {
            return Err(DecodeError::Truncated);
        };
        let item_bytes = match op {
            StorageOp::Lookup => u64::BYTES,
            StorageOp::Upsert => <(u64, u64)>::BYTES,
            StorageOp::Scan => {
                read_scan(payload)?;
                0
            }
        };
        if item_bytes > 0 {
            let n = next_u32(&mut { payload })? as usize;
            let want = 4 + n * item_bytes;
            if plen != want {
                return Err(if plen < want {
                    DecodeError::Truncated
                } else {
                    DecodeError::TrailingPayloadBytes {
                        declared: plen as u32,
                        consumed: want as u32,
                    }
                });
            }
        }
        *buf = buf.get(HEADER_BYTES + plen..).unwrap_or(&[]);
        Ok(CommandView {
            object,
            ticket,
            op,
            stamp,
            at,
            plen,
        })
    }

    /// The command, read from the region the view was read from.
    pub fn command_in<'a>(&self, region: &'a [u8]) -> CommandRef<'a> {
        CommandRef {
            object: self.object,
            ticket: self.ticket,
            op: self.op,
            bytes: region
                .get(self.at..self.at + HEADER_BYTES + self.plen)
                .unwrap_or(&[]),
        }
    }

    /// The encoded items of a point command of `T`'s operation, from the
    /// region the view was read from (see [`CommandRef::items`]).
    pub fn items<'a, T: PointItem>(&self, region: &'a [u8]) -> &'a [u8] {
        self.command_in(region).items::<T>()
    }

    /// Elementary storage operations carried, as [`Payload::op_count`].
    pub fn op_count(&self) -> u64 {
        op_count(self.op, self.plen)
    }
}

/// Trace-marker body length: hops + tenant + conn + net_ns + admit_ns
/// (4 bytes each) + seq (8 bytes).
const TRACE_BODY_BYTES: usize = 4 * 5 + 8;

/// Encoded size of one trace marker record.
pub const TRACE_MARKER_BYTES: usize = HEADER_BYTES + TRACE_BODY_BYTES;

/// Append an in-band latency-trace marker annotating the next command in
/// the stream.  The marker reuses the command-header shape
/// (`[op][object:u32][u64][plen:u32]`) so stream walking stays uniform:
/// the ticket slot carries the submit-time clock reading and the body
/// the stray-forwarding hop count plus the serving-side trace context
/// (`tenant`/`conn`/`seq` identity and the net-queue / admission spans
/// accumulated before routing).
pub fn encode_trace_marker(object: DataObjectId, stamp: TraceStamp, out: &mut Vec<u8>) {
    // ALLOC-OK: as DataCommand::encode — one exact reserve into the
    // caller's reusable buffer.
    out.reserve(TRACE_MARKER_BYTES);
    encode_header(OP_TRACE, object, stamp.submit_ns, TRACE_BODY_BYTES, out);
    out.put_u32_le(stamp.hops);
    out.put_u32_le(stamp.tenant);
    out.put_u32_le(stamp.conn);
    out.put_u32_le(stamp.net_ns);
    out.put_u32_le(stamp.admit_ns);
    out.put_u64_le(stamp.seq);
}

/// Decode one trace marker from the front of `buf`, advancing it only on
/// success.
fn try_decode_trace_marker(buf: &mut &[u8]) -> Result<(DataObjectId, TraceStamp), DecodeError> {
    let (op, object, submit_ns, plen) = read_header(buf)?;
    debug_assert_eq!(op, OP_TRACE);
    let Some(mut cur) = buf.get(HEADER_BYTES..TRACE_MARKER_BYTES) else {
        return Err(DecodeError::Truncated);
    };
    if plen != TRACE_BODY_BYTES {
        return Err(DecodeError::TrailingPayloadBytes {
            declared: plen as u32,
            consumed: TRACE_BODY_BYTES as u32,
        });
    }
    let hops = cur.get_u32_le();
    let tenant = cur.get_u32_le();
    let conn = cur.get_u32_le();
    let net_ns = cur.get_u32_le();
    let admit_ns = cur.get_u32_le();
    let seq = cur.get_u64_le();
    *buf = &buf[TRACE_MARKER_BYTES..];
    Ok((
        object,
        TraceStamp {
            submit_ns,
            hops,
            tenant,
            conn,
            seq,
            net_ns,
            admit_ns,
        },
    ))
}

fn payload_len(p: &Payload) -> usize {
    match p {
        Payload::Lookup { keys } => 4 + keys.len() * 8,
        Payload::Upsert { pairs } => 4 + pairs.len() * 16,
        Payload::Scan { .. } => 1 + 8 + 8 + 1 + 8,
    }
}

fn encode_pred(out: &mut Vec<u8>, pred: &Predicate) {
    match *pred {
        Predicate::All => {
            out.put_u8(PRED_ALL);
            out.put_u64_le(0);
            out.put_u64_le(0);
        }
        Predicate::Range { lo, hi } => {
            out.put_u8(PRED_RANGE);
            out.put_u64_le(lo);
            out.put_u64_le(hi);
        }
        Predicate::Equals(x) => {
            out.put_u8(PRED_EQ);
            out.put_u64_le(x);
            out.put_u64_le(0);
        }
    }
}

/// Read a scan payload — predicate, aggregate and snapshot — with
/// nothing left over, as [`DataCommand::try_decode`] decodes one.
fn read_scan(mut body: &[u8]) -> Result<(Predicate, Aggregate, u64), DecodeError> {
    let declared = body.len();
    let pred = decode_pred(&mut body)?;
    let agg = match next_u8(&mut body)? {
        AGG_COUNT => Aggregate::Count,
        AGG_SUM => Aggregate::Sum,
        AGG_MINMAX => Aggregate::MinMax,
        t => return Err(DecodeError::UnknownAggregate(t)),
    };
    let snapshot = next_u64(&mut body)?;
    if !body.is_empty() {
        return Err(DecodeError::TrailingPayloadBytes {
            declared: declared as u32,
            consumed: (declared - body.len()) as u32,
        });
    }
    Ok((pred, agg, snapshot))
}

fn decode_pred(buf: &mut &[u8]) -> Result<Predicate, DecodeError> {
    let ptag = next_u8(buf)?;
    let a = next_u64(buf)?;
    let b = next_u64(buf)?;
    match ptag {
        PRED_ALL => Ok(Predicate::All),
        PRED_RANGE => Ok(Predicate::Range { lo: a, hi: b }),
        PRED_EQ => Ok(Predicate::Equals(a)),
        t => Err(DecodeError::UnknownPredicate(t)),
    }
}

/// Every command of a routing-buffer region, read by views and decoded
/// by the reference decoder, each with the stamp of the trace marker
/// before it.
#[cfg(test)]
pub(crate) fn decode_region(region: &[u8]) -> Vec<(DataCommand, Option<TraceStamp>)> {
    let mut views = Vec::new();
    CommandView::decode_all(region, &mut views);
    let decode = |v: &CommandView| DataCommand::try_decode(&mut v.command_in(region).bytes);
    views
        .iter()
        .map(|v| (decode(v).expect("a checked command decodes"), v.stamp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cmd: DataCommand) {
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        assert_eq!(buf.len(), cmd.encoded_len());
        let mut slice = buf.as_slice();
        let back = DataCommand::try_decode(&mut slice).unwrap();
        assert!(slice.is_empty(), "decoder must consume exactly one command");
        assert_eq!(back, cmd);
    }

    #[test]
    fn lookup_roundtrip() {
        roundtrip(DataCommand {
            object: DataObjectId(7),
            ticket: 0xDEADBEEF,
            payload: Payload::Lookup {
                keys: vec![1, 2, u64::MAX],
            },
        });
    }

    #[test]
    fn empty_lookup_roundtrip() {
        roundtrip(DataCommand {
            object: DataObjectId(0),
            ticket: 0,
            payload: Payload::Lookup { keys: vec![] },
        });
    }

    #[test]
    fn upsert_roundtrip() {
        roundtrip(DataCommand {
            object: DataObjectId(1),
            ticket: 42,
            payload: Payload::Upsert {
                pairs: vec![(5, 50), (6, 60)],
            },
        });
    }

    #[test]
    fn scan_variants_roundtrip() {
        for pred in [
            Predicate::All,
            Predicate::Range { lo: 3, hi: 9 },
            Predicate::Equals(77),
        ] {
            for agg in [Aggregate::Count, Aggregate::Sum, Aggregate::MinMax] {
                roundtrip(DataCommand {
                    object: DataObjectId(9),
                    ticket: 1,
                    payload: Payload::Scan {
                        pred,
                        agg,
                        snapshot: 12345,
                    },
                });
            }
        }
    }

    #[test]
    fn decode_all_splits_concatenated_commands() {
        let a = DataCommand {
            object: DataObjectId(1),
            ticket: 1,
            payload: Payload::Lookup { keys: vec![9] },
        };
        let b = DataCommand {
            object: DataObjectId(2),
            ticket: 2,
            payload: Payload::Scan {
                pred: Predicate::All,
                agg: Aggregate::Count,
                snapshot: 5,
            },
        };
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        assert_eq!(decode_region(&buf), vec![(a, None), (b, None)]);
    }

    #[test]
    fn op_counts() {
        assert_eq!(
            Payload::Lookup {
                keys: vec![1, 2, 3]
            }
            .op_count(),
            3
        );
        assert_eq!(
            Payload::Upsert {
                pairs: vec![(1, 1)]
            }
            .op_count(),
            1
        );
        assert_eq!(
            Payload::Scan {
                pred: Predicate::All,
                agg: Aggregate::Count,
                snapshot: 0
            }
            .op_count(),
            1
        );
    }

    #[test]
    fn try_decode_rejects_every_truncation() {
        let cmd = DataCommand {
            object: DataObjectId(3),
            ticket: 9,
            payload: Payload::Upsert {
                pairs: vec![(1, 2), (3, 4)],
            },
        };
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut short = &buf[..cut];
            let before = short;
            assert_eq!(
                DataCommand::try_decode(&mut short),
                Err(DecodeError::Truncated),
                "prefix of {cut} bytes"
            );
            assert_eq!(short, before, "buffer untouched on error");
        }
        let mut full = buf.as_slice();
        assert_eq!(DataCommand::try_decode(&mut full), Ok(cmd));
        assert!(full.is_empty());
    }

    #[test]
    fn try_decode_rejects_unknown_tags() {
        let cmd = DataCommand {
            object: DataObjectId(0),
            ticket: 0,
            payload: Payload::Scan {
                pred: Predicate::All,
                agg: Aggregate::Count,
                snapshot: 0,
            },
        };
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        let mut bad_op = buf.clone();
        bad_op[0] = 99;
        assert_eq!(
            DataCommand::try_decode(&mut bad_op.as_slice()),
            Err(DecodeError::UnknownOp(99))
        );
        let mut bad_pred = buf.clone();
        bad_pred[HEADER_BYTES] = 77;
        assert_eq!(
            DataCommand::try_decode(&mut bad_pred.as_slice()),
            Err(DecodeError::UnknownPredicate(77))
        );
        let mut bad_agg = buf.clone();
        bad_agg[HEADER_BYTES + 17] = 55;
        assert_eq!(
            DataCommand::try_decode(&mut bad_agg.as_slice()),
            Err(DecodeError::UnknownAggregate(55))
        );
    }

    #[test]
    fn tags_3_and_4_are_not_storage_ops() {
        // The engine executes the paper's three storage operations only:
        // a record under tag 3 or 4 is an unknown op however well formed
        // its body (here an object id, a predicate and a snapshot), and
        // the cursor stays where it was.
        for tag in [3u8, 4] {
            let mut body = Vec::new();
            body.put_u32_le(42);
            encode_pred(&mut body, &Predicate::Range { lo: 0, hi: 10 });
            body.put_u64_le(u64::MAX);
            let mut frame = Vec::new();
            encode_header(tag, DataObjectId(1), 7, body.len(), &mut frame);
            frame.extend_from_slice(&body);
            let mut cur = frame.as_slice();
            assert_eq!(
                DataCommand::try_decode(&mut cur),
                Err(DecodeError::UnknownOp(tag))
            );
            assert_eq!(cur, frame.as_slice(), "tag {tag}: buf untouched");
            assert_eq!(StorageOp::from_tag(tag), None);
        }
    }

    #[test]
    fn try_decode_survives_corrupt_element_counts() {
        let cmd = DataCommand {
            object: DataObjectId(0),
            ticket: 0,
            payload: Payload::Lookup { keys: vec![42] },
        };
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        // Blow up the key count without growing the payload: must fail
        // cleanly instead of over-allocating or panicking.
        buf[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            DataCommand::try_decode(&mut buf.as_slice()),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn trace_marker_attaches_to_the_following_command() {
        let a = DataCommand {
            object: DataObjectId(1),
            ticket: 1,
            payload: Payload::Lookup { keys: vec![9] },
        };
        let b = DataCommand {
            object: DataObjectId(2),
            ticket: 2,
            payload: Payload::Upsert {
                pairs: vec![(3, 4)],
            },
        };
        let stamp = TraceStamp {
            hops: 2,
            tenant: 11,
            conn: 4,
            seq: 900,
            net_ns: 5_000,
            admit_ns: 250,
            ..TraceStamp::engine(123_456_789)
        };
        let mut buf = Vec::new();
        a.encode(&mut buf);
        let before = buf.len();
        encode_trace_marker(b.object, stamp, &mut buf);
        assert_eq!(buf.len() - before, TRACE_MARKER_BYTES);
        b.encode(&mut buf);

        let traced = decode_region(&buf);
        assert_eq!(traced, vec![(a, None), (b, Some(stamp))]);
    }

    #[test]
    fn trace_marker_is_rejected_by_the_external_decoder() {
        // `try_decode` guards external input (journal replay); markers
        // are routing-internal and must not decode as commands there.
        let mut buf = Vec::new();
        encode_trace_marker(DataObjectId(7), TraceStamp::engine(1), &mut buf);
        let mut cur = buf.as_slice();
        assert_eq!(
            DataCommand::try_decode(&mut cur),
            Err(DecodeError::UnknownOp(5))
        );
    }

    #[test]
    #[should_panic(expected = "dangling trace marker")]
    fn dangling_trace_marker_panics() {
        let mut buf = Vec::new();
        encode_trace_marker(DataObjectId(0), TraceStamp::engine(0), &mut buf);
        CommandView::decode_all(&buf, &mut Vec::new());
    }

    #[test]
    fn a_view_of_a_point_payload_must_hold_its_item_count() {
        let mut buf = Vec::new();
        DataCommand {
            object: DataObjectId(1),
            ticket: 1,
            payload: Payload::Lookup { keys: vec![1, 2] },
        }
        .encode(&mut buf);
        let view = |buf: &[u8]| CommandView::try_read(&mut &buf[..], 0, None);
        assert!(view(&buf).is_ok());
        // The 20-byte payload claims three keys, then one.
        let trailing = DecodeError::TrailingPayloadBytes {
            declared: 20,
            consumed: 12,
        };
        for (n, err) in [(3u32, DecodeError::Truncated), (1, trailing)] {
            let mut bad = buf.clone();
            bad[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&n.to_le_bytes());
            assert_eq!(view(&bad), Err(err), "{n} keys claimed");
        }
    }

    /// The wire format, pinned byte for byte: the round trips above would
    /// not notice a change made to the encoder and the decoders alike.
    /// Fields are spaced apart: header (op, object, ticket, payload
    /// length), then the payload.
    #[test]
    fn encodings_match_the_golden_bytes() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let golden = |s: &str| s.replace(' ', "");
        let cmd = |payload| {
            let mut out = Vec::new();
            DataCommand {
                object: DataObjectId(7),
                ticket: 0x0102_0304_0506_0708,
                payload,
            }
            .encode(&mut out);
            hex(&out)
        };
        let header = "07000000 0807060504030201";
        let keys = vec![1, 0x1122_3344_5566_7788];
        assert_eq!(
            cmd(Payload::Lookup { keys }),
            golden(&format!(
                "00 {header} 14000000 02000000 0100000000000000 8877665544332211"
            ))
        );
        assert_eq!(
            cmd(Payload::Upsert {
                pairs: vec![(2, 3)]
            }),
            golden(&format!(
                "01 {header} 14000000 01000000 0200000000000000 0300000000000000"
            ))
        );
        let preds = [
            (Predicate::All, "00 0000000000000000 0000000000000000"),
            (
                Predicate::Range { lo: 0x10, hi: 0x20 },
                "01 1000000000000000 2000000000000000",
            ),
            (
                Predicate::Equals(0x30),
                "02 3000000000000000 0000000000000000",
            ),
        ];
        let aggs = [
            (Aggregate::Count, "00"),
            (Aggregate::Sum, "01"),
            (Aggregate::MinMax, "02"),
        ];
        for (pred, p) in preds {
            for (agg, a) in aggs {
                assert_eq!(
                    cmd(Payload::Scan {
                        pred,
                        agg,
                        snapshot: 0x40
                    }),
                    golden(&format!("02 {header} 1a000000 {p} {a} 4000000000000000")),
                    "{pred:?} {agg:?}"
                );
            }
        }
        let stamp = TraceStamp {
            submit_ns: 0x0a0b_0c0d_0e0f_1011,
            hops: 1,
            tenant: 2,
            conn: 3,
            seq: 0x0405_0607_0809_0a0b,
            net_ns: 5,
            admit_ns: 6,
        };
        let mut marker = Vec::new();
        encode_trace_marker(DataObjectId(7), stamp, &mut marker);
        assert_eq!(
            hex(&marker),
            golden(
                "05 07000000 11100f0e0d0c0b0a 1c000000 \
                 01000000 02000000 03000000 05000000 06000000 0b0a090807060504"
            )
        );
    }

    #[test]
    fn storage_op_tags_roundtrip() {
        for op in [StorageOp::Lookup, StorageOp::Upsert, StorageOp::Scan] {
            assert_eq!(StorageOp::from_tag(op.tag()), Some(op));
            assert!(!op.name().is_empty());
        }
        assert_eq!(StorageOp::from_tag(5), None, "trace tag is not an op");
    }

    /// A routing-buffer region is process-internal: a command cut short
    /// there is a logic error, and its walker panics.
    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_buffer_panics() {
        let cmd = DataCommand {
            object: DataObjectId(1),
            ticket: 1,
            payload: Payload::Lookup { keys: vec![1, 2] },
        };
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        decode_region(&buf[..HEADER_BYTES - 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use eris_column::{Aggregate, Predicate};
    use proptest::prelude::*;

    const FULL: core::ops::RangeInclusive<u64> = 0..=u64::MAX;

    fn arb_pred() -> impl Strategy<Value = Predicate> {
        (0u8..3, FULL, FULL).prop_map(|(tag, a, b)| match tag {
            0 => Predicate::All,
            1 => Predicate::Range { lo: a, hi: b },
            _ => Predicate::Equals(a),
        })
    }

    fn arb_command() -> impl Strategy<Value = DataCommand> {
        (
            (0u8..3, 0u32..1 << 20, FULL),
            proptest::collection::vec(FULL, 0..48),
            proptest::collection::vec((FULL, FULL), 0..48),
            (arb_pred(), 0u8..3, FULL),
        )
            .prop_map(
                |((op, object, ticket), keys, pairs, (pred, agg, snapshot))| {
                    let agg = match agg {
                        0 => Aggregate::Count,
                        1 => Aggregate::Sum,
                        _ => Aggregate::MinMax,
                    };
                    let payload = match op {
                        0 => Payload::Lookup { keys },
                        1 => Payload::Upsert { pairs },
                        _ => Payload::Scan {
                            pred,
                            agg,
                            snapshot,
                        },
                    };
                    DataCommand {
                        object: DataObjectId(object),
                        ticket,
                        payload,
                    }
                },
            )
    }

    fn arb_stamp() -> impl Strategy<Value = TraceStamp> {
        (
            (FULL, 0u32..=u32::MAX, 0u32..=u32::MAX),
            (0u32..=u32::MAX, FULL, 0u32..=u32::MAX, 0u32..=u32::MAX),
        )
            .prop_map(
                |((submit_ns, hops, tenant), (conn, seq, net_ns, admit_ns))| TraceStamp {
                    submit_ns,
                    hops,
                    tenant,
                    conn,
                    seq,
                    net_ns,
                    admit_ns,
                },
            )
    }

    proptest! {
        /// The extended trace-context marker (identity + serving-side
        /// spans) round-trips bit-for-bit through the in-band wire
        /// encoding, and the stamp lands on the command it precedes.
        #[test]
        fn trace_marker_roundtrips_full_context(
            stamp in arb_stamp(),
            cmd in arb_command(),
        ) {
            let mut buf = Vec::new();
            encode_trace_marker(cmd.object, stamp, &mut buf);
            prop_assert_eq!(buf.len(), TRACE_MARKER_BYTES);
            cmd.encode(&mut buf);
            let traced = decode_region(&buf);
            prop_assert_eq!(traced.len(), 1);
            let (back, got) = traced.into_iter().next().unwrap();
            prop_assert_eq!(back, cmd);
            prop_assert_eq!(got, Some(stamp));
            // Derived trace ids are stable across the round trip.
            prop_assert_eq!(got.unwrap().trace_id(), stamp.trace_id());
        }

        /// Truncating a marker anywhere must yield a clean typed error
        /// from the guarded entry point used on external bytes (the
        /// region walker panics, as malformed *internal* buffers do).
        #[test]
        fn truncated_marker_is_rejected_externally(stamp in arb_stamp()) {
            let mut buf = Vec::new();
            encode_trace_marker(DataObjectId(3), stamp, &mut buf);
            for cut in 1..buf.len() {
                let mut cur = &buf[..cut];
                prop_assert!(DataCommand::try_decode(&mut cur).is_err());
            }
        }

        /// The AEU's intake reads views of a region: over a region of
        /// random commands of every kind, some behind trace markers, the
        /// views describe what was written — header fields, stamps,
        /// operation counts, the point items and the scan parameters read
        /// in place — and the reference decoder, run at each view's
        /// offset, decodes the command written there.
        #[test]
        fn views_read_what_the_owned_decoder_decodes(
            cmds in proptest::collection::vec(
                (arb_command(), proptest::bool::ANY, arb_stamp()),
                0..12,
            ),
        ) {
            let mut region = Vec::new();
            for (cmd, stamped, stamp) in &cmds {
                if *stamped {
                    encode_trace_marker(cmd.object, *stamp, &mut region);
                }
                cmd.encode(&mut region);
            }
            let mut views = Vec::new();
            CommandView::decode_all(&region, &mut views);
            prop_assert_eq!(views.len(), cmds.len());
            for (v, (cmd, stamped, stamp)) in views.iter().zip(&cmds) {
                prop_assert_eq!(
                    (v.object, v.ticket, v.op, v.stamp),
                    (cmd.object, cmd.ticket, cmd.payload.op(), stamped.then_some(*stamp))
                );
                prop_assert_eq!(v.op_count(), cmd.payload.op_count());
                let mut at = &region[v.at..];
                prop_assert_eq!(&DataCommand::try_decode(&mut at).unwrap(), cmd);
                prop_assert_eq!(view_payload(&v.command_in(&region)), cmd.payload.clone());
            }
        }

        #[test]
        fn encoding_roundtrips(cmd in arb_command()) {
            let mut buf = Vec::new();
            cmd.encode(&mut buf);
            prop_assert_eq!(buf.len(), cmd.encoded_len());
            let mut cur = buf.as_slice();
            let back = DataCommand::try_decode(&mut cur).expect("own encoding decodes");
            prop_assert!(cur.is_empty(), "decode consumes the whole encoding");
            prop_assert_eq!(back, cmd);
        }

        #[test]
        fn every_truncation_is_rejected(cmd in arb_command()) {
            let mut buf = Vec::new();
            cmd.encode(&mut buf);
            // Every strict prefix must fail cleanly and leave the cursor put.
            for cut in 0..buf.len() {
                let mut cur = &buf[..cut];
                let before = cur;
                prop_assert!(DataCommand::try_decode(&mut cur).is_err());
                prop_assert_eq!(cur, before, "cursor untouched on error");
            }
        }

        /// Network bytes are hostile: feeding *arbitrary* byte strings to
        /// the external decoder must never panic, never over-allocate, and
        /// on failure must leave the cursor exactly where it was.  On
        /// success the decoded command must survive a re-encode/re-decode
        /// round trip of the same length (the predicate encoding is
        /// fixed-width with ignored pad words, so byte-for-byte equality
        /// is deliberately not required).
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let mut cur = bytes.as_slice();
            let before = cur;
            match DataCommand::try_decode(&mut cur) {
                Ok(cmd) => {
                    let consumed = before.len() - cur.len();
                    let mut re = Vec::new();
                    cmd.encode(&mut re);
                    prop_assert_eq!(re.len(), consumed, "re-encode preserves length");
                    let back = DataCommand::try_decode(&mut re.as_slice()).expect("re-decode");
                    prop_assert_eq!(back, cmd, "round trip is idempotent");
                }
                Err(_) => prop_assert_eq!(cur, before, "cursor untouched on error"),
            }
        }

        /// Corrupting any single byte of a valid encoding must produce
        /// either a clean typed error or a different-but-valid command —
        /// never a panic, never a command that fails to round-trip.
        #[test]
        fn single_byte_corruption_is_contained(cmd in arb_command(), pos in 0usize..4096, flip in 1u8..=255) {
            let mut buf = Vec::new();
            cmd.encode(&mut buf);
            let pos = pos % buf.len();
            buf[pos] ^= flip;
            let mut cur = buf.as_slice();
            if let Ok(decoded) = DataCommand::try_decode(&mut cur) {
                let consumed = buf.len() - cur.len();
                let mut re = Vec::new();
                decoded.encode(&mut re);
                prop_assert_eq!(re.len(), consumed);
                let back = DataCommand::try_decode(&mut re.as_slice()).expect("re-decode");
                prop_assert_eq!(back, decoded);
            }
        }
    }

    /// The payload a checked command reads in place: its items, or its
    /// scan parameters.
    fn view_payload(c: &CommandRef<'_>) -> Payload {
        match c.op {
            StorageOp::Lookup => Payload::Lookup {
                keys: u64::decode_items(c.items::<u64>()).collect(),
            },
            StorageOp::Upsert => Payload::Upsert {
                pairs: <(u64, u64)>::decode_items(c.items::<(u64, u64)>()).collect(),
            },
            StorageOp::Scan => {
                let (pred, agg, snapshot) = c.scan_params().expect("a checked scan reads whole");
                Payload::Scan {
                    pred,
                    agg,
                    snapshot,
                }
            }
        }
    }

    /// `CommandRef::check` against the owned decoder on `bytes`: the
    /// check accepts exactly what `try_decode` decodes with nothing left
    /// over, and what it accepts reads as that command, borrowed whole.
    fn check_agrees_with_the_owned_decoder(bytes: &[u8]) {
        let mut cur = bytes;
        let owned = DataCommand::try_decode(&mut cur)
            .ok()
            .filter(|_| cur.is_empty());
        match (CommandRef::check(bytes), owned) {
            (Ok(c), Some(cmd)) => {
                assert_eq!(c.bytes, bytes);
                assert_eq!(
                    (c.object, c.ticket, c.op),
                    (cmd.object, cmd.ticket, cmd.payload.op())
                );
                assert_eq!(c.op_count(), cmd.payload.op_count());
                assert_eq!(view_payload(&c), cmd.payload);
            }
            (Err(_), None) => {}
            (got, want) => panic!("check {got:?}, owned decoder {want:?}"),
        }
    }

    proptest! {
        /// The serving layer checks a frame payload in place exactly as
        /// the owned decoder decodes it: over valid encodings with a
        /// byte flipped, cut short or followed by more bytes, and over
        /// arbitrary bytes.
        #[test]
        fn check_accepts_exactly_what_the_owned_decoder_decodes_whole(
            cmd in arb_command(),
            pos in 0usize..4096,
            flip in 0u8..=255,
            cut in 0usize..4096,
            tail in proptest::collection::vec(0u8..=255, 0..3),
            noise in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            let mut buf = Vec::new();
            cmd.encode(&mut buf);
            check_agrees_with_the_owned_decoder(&buf);
            let mut flipped = buf.clone();
            flipped[pos % buf.len()] ^= flip;
            check_agrees_with_the_owned_decoder(&flipped);
            check_agrees_with_the_owned_decoder(&buf[..cut % (buf.len() + 1)]);
            let mut longer = buf.clone();
            longer.extend_from_slice(&tail);
            check_agrees_with_the_owned_decoder(&longer);
            check_agrees_with_the_owned_decoder(&noise);
        }
    }

    /// Every `DecodeError` variant is reachable from hostile input — the
    /// serving layer maps each onto a typed reject response, so an
    /// unreachable variant would mean dead protocol surface.
    #[test]
    fn every_decode_error_variant_is_reachable() {
        use std::mem::discriminant;

        // Truncated: header shorter than HEADER_BYTES.
        let short = [OP_LOOKUP; 3];
        let got = DataCommand::try_decode(&mut &short[..]).unwrap_err();
        assert_eq!(discriminant(&got), discriminant(&DecodeError::Truncated));

        // Truncated (declared payload longer than the buffer).
        let mut lying = Vec::new();
        DataCommand {
            object: DataObjectId(1),
            ticket: 0,
            payload: Payload::Lookup { keys: vec![7] },
        }
        .encode(&mut lying);
        let plen_at = 1 + 4 + 8;
        lying[plen_at..plen_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let got = DataCommand::try_decode(&mut lying.as_slice()).unwrap_err();
        assert_eq!(discriminant(&got), discriminant(&DecodeError::Truncated));

        // TrailingPayloadBytes: payload longer than its content needs.
        let mut padded = Vec::new();
        DataCommand {
            object: DataObjectId(1),
            ticket: 0,
            payload: Payload::Lookup { keys: vec![] },
        }
        .encode(&mut padded);
        padded[plen_at..plen_at + 4].copy_from_slice(&12u32.to_le_bytes());
        padded.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            DataCommand::try_decode(&mut padded.as_slice()),
            Err(DecodeError::TrailingPayloadBytes {
                declared: 12,
                consumed: 4,
            })
        );

        // UnknownOp.
        let mut bad_op = Vec::new();
        bad_op.push(200u8);
        bad_op.extend_from_slice(&1u32.to_le_bytes());
        bad_op.extend_from_slice(&0u64.to_le_bytes());
        bad_op.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            DataCommand::try_decode(&mut bad_op.as_slice()),
            Err(DecodeError::UnknownOp(200))
        );

        // UnknownPredicate / UnknownAggregate: corrupt a scan's tags.
        let mut scan = Vec::new();
        DataCommand {
            object: DataObjectId(1),
            ticket: 0,
            payload: Payload::Scan {
                pred: Predicate::All,
                agg: Aggregate::Count,
                snapshot: 0,
            },
        }
        .encode(&mut scan);
        let body_at = HEADER_BYTES;
        let mut bad_pred = scan.clone();
        bad_pred[body_at] = 250;
        assert_eq!(
            DataCommand::try_decode(&mut bad_pred.as_slice()),
            Err(DecodeError::UnknownPredicate(250))
        );
        // The predicate field is fixed-width: tag + two u64 words.
        let mut bad_agg = scan.clone();
        bad_agg[body_at + 17] = 251;
        assert_eq!(
            DataCommand::try_decode(&mut bad_agg.as_slice()),
            Err(DecodeError::UnknownAggregate(251))
        );
    }
}
