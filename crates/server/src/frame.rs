//! The length-prefixed binary framing of the serving layer.
//!
//! A frame is a fixed header plus an opaque payload; the only payload
//! the server ever interprets is the stable [`DataCommand`] encoding
//! from `eris_core::command` — this module adds **no** second command
//! wire format, just the connection/tenant/credit bookkeeping around it.
//!
//! ```text
//! request  (client -> server), 22-byte header:
//!   [magic 0x45]['H'|'C'|'B' kind][tenant u32][conn u32][seq u64][len u32]
//!   [len bytes payload]            payload = DataCommand encoding (kind C)
//!
//! response (server -> client), 23-byte header, no payload:
//!   [magic 0x65][kind][code][conn u32][seq u64][credits u32][retry_ms u32]
//! ```
//!
//! `seq` is the connection's credit-window sequence number: the client
//! stamps every command with a monotonically increasing `seq`, and every
//! response echoes the `seq` it settles, so a client can match grants to
//! outstanding commands without any buffering on the server side.
//!
//! Network bytes are hostile.  Decoding never panics, never allocates
//! more than [`MAX_PAYLOAD_BYTES`], and distinguishes "need more bytes"
//! (`Ok(None)`) from a protocol violation (`Err`), which the server
//! answers with a typed reject and a close.

use eris_core::DataCommand;

/// First byte of every request frame.
pub const REQ_MAGIC: u8 = 0x45;
/// First byte of every response frame.
pub const RESP_MAGIC: u8 = 0x65;

/// Request header: magic, kind, tenant, conn, seq, payload length.
pub const REQ_HEADER_BYTES: usize = 1 + 1 + 4 + 4 + 8 + 4;
/// Response header: magic, kind, code, conn, seq, credits, retry_ms.
pub const RESP_HEADER_BYTES: usize = 1 + 1 + 1 + 4 + 8 + 4 + 4;

/// Hard cap on a declared payload length.  A hostile length prefix can
/// therefore demand at most 64 KiB of buffering, never gigabytes.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024;

/// What a client may ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Open a session for `tenant`; answered with `Welcome` + a credit grant.
    Hello,
    /// One `DataCommand` (the payload), charged against credits + quota.
    Command,
    /// Orderly close; answered with `Goodbye`.
    Bye,
}

impl ReqKind {
    pub fn tag(self) -> u8 {
        match self {
            ReqKind::Hello => 1,
            ReqKind::Command => 2,
            ReqKind::Bye => 3,
        }
    }

    pub fn from_tag(t: u8) -> Option<ReqKind> {
        match t {
            1 => Some(ReqKind::Hello),
            2 => Some(ReqKind::Command),
            3 => Some(ReqKind::Bye),
            _ => None,
        }
    }
}

/// How the server settles one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespKind {
    /// Session open; `credits` carries the initial window grant.
    Welcome,
    /// Command admitted and routed; `credits` carries the regrant.
    Accepted,
    /// Load shed: not executed, retry after `retry_after_ms`.  The
    /// consumed credit is returned (`credits`).
    Shed,
    /// Tenant over its token-bucket quota; same credit-return semantics.
    QuotaDenied,
    /// Malformed or unroutable command; `code` says why.
    Rejected,
    /// Session closed (client `Bye` or server shutdown).
    Goodbye,
}

impl RespKind {
    pub fn tag(self) -> u8 {
        match self {
            RespKind::Welcome => 1,
            RespKind::Accepted => 2,
            RespKind::Shed => 3,
            RespKind::QuotaDenied => 4,
            RespKind::Rejected => 5,
            RespKind::Goodbye => 6,
        }
    }

    pub fn from_tag(t: u8) -> Option<RespKind> {
        match t {
            1 => Some(RespKind::Welcome),
            2 => Some(RespKind::Accepted),
            3 => Some(RespKind::Shed),
            4 => Some(RespKind::QuotaDenied),
            5 => Some(RespKind::Rejected),
            6 => Some(RespKind::Goodbye),
            _ => None,
        }
    }
}

/// `code` values carried by `Shed` responses.
pub const SHED_OVERLOAD: u8 = 1;
/// The client sent a command with no credit outstanding — a protocol
/// violation under the credit window, settled (not silently dropped).
pub const SHED_CREDIT_VIOLATION: u8 = 2;

/// `code` values carried by `Rejected` responses.
pub const REJ_DECODE: u8 = 1;
pub const REJ_ROUTING: u8 = 2;
pub const REJ_PROTOCOL: u8 = 3;
pub const REJ_TENANT: u8 = 4;

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    pub kind: ReqKind,
    pub tenant: u32,
    pub conn: u32,
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// One decoded response frame (fixed-size, no payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseFrame {
    pub kind: RespKind,
    pub code: u8,
    pub conn: u32,
    pub seq: u64,
    /// Credits granted (Welcome) or returned to the window (everything
    /// that settles a command).
    pub credits: u32,
    /// Retry hint for `Shed` / `QuotaDenied`, 0 otherwise.
    pub retry_after_ms: u32,
}

/// Why a byte stream is not a valid frame stream.  Any of these is
/// grounds to reject and close the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    BadMagic(u8),
    UnknownKind(u8),
    /// Declared payload length above [`MAX_PAYLOAD_BYTES`].
    Oversized {
        declared: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(b) => write!(f, "bad frame magic {b:#04x}"),
            FrameError::UnknownKind(t) => write!(f, "unknown frame kind {t}"),
            FrameError::Oversized { declared } => write!(
                f,
                "declared payload {declared} bytes exceeds cap {MAX_PAYLOAD_BYTES}"
            ),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

impl RequestFrame {
    /// A `Command` frame wrapping one `DataCommand`.
    pub fn command(tenant: u32, conn: u32, seq: u64, cmd: &DataCommand) -> RequestFrame {
        let mut payload = Vec::with_capacity(cmd.encoded_len());
        cmd.encode(&mut payload);
        RequestFrame {
            kind: ReqKind::Command,
            tenant,
            conn,
            seq,
            payload,
        }
    }

    // HOT-PATH-CUT: network frame assembly on the session thread;
    // the frame owns its output vector by design.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(REQ_MAGIC);
        out.push(self.kind.tag());
        put_u32(out, self.tenant);
        put_u32(out, self.conn);
        put_u64(out, self.seq);
        put_u32(out, self.payload.len() as u32);
        out.extend_from_slice(&self.payload);
    }

    /// Decode one frame from the front of `buf`, advancing it only on
    /// success; the owned form of [`RequestView::try_decode`].
    pub fn try_decode(buf: &mut &[u8]) -> Result<Option<RequestFrame>, FrameError> {
        Ok(RequestView::try_decode(buf)?.map(|v| RequestFrame {
            kind: v.kind,
            tenant: v.tenant,
            conn: v.conn,
            seq: v.seq,
            payload: v.payload.to_vec(),
        }))
    }
}

/// A request frame decoded in place: the header fields, and the payload
/// still in the buffer it was read into (the server's intake path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestView<'a> {
    pub kind: ReqKind,
    pub tenant: u32,
    pub conn: u32,
    pub seq: u64,
    pub payload: &'a [u8],
}

impl<'a> RequestView<'a> {
    /// Decode one frame from the front of `buf`, advancing it only on
    /// success.  `Ok(None)` means the frame is not complete yet (read
    /// more bytes); `Err` means the stream is not speaking this protocol.
    pub fn try_decode(buf: &mut &'a [u8]) -> Result<Option<RequestView<'a>>, FrameError> {
        if buf.len() < REQ_HEADER_BYTES {
            // Partial headers are only "incomplete" if what we have so
            // far could still become a valid header.
            if let Some(&m) = buf.first() {
                if m != REQ_MAGIC {
                    return Err(FrameError::BadMagic(m));
                }
            }
            return Ok(None);
        }
        let b = *buf;
        if b[0] != REQ_MAGIC {
            return Err(FrameError::BadMagic(b[0]));
        }
        let kind = ReqKind::from_tag(b[1]).ok_or(FrameError::UnknownKind(b[1]))?;
        let tenant = read_u32(&b[2..]);
        let conn = read_u32(&b[6..]);
        let seq = read_u64(&b[10..]);
        let len = read_u32(&b[18..]);
        if len > MAX_PAYLOAD_BYTES {
            return Err(FrameError::Oversized { declared: len });
        }
        let total = REQ_HEADER_BYTES + len as usize;
        if b.len() < total {
            return Ok(None);
        }
        *buf = &b[total..];
        Ok(Some(RequestView {
            kind,
            tenant,
            conn,
            seq,
            payload: &b[REQ_HEADER_BYTES..total],
        }))
    }
}

impl ResponseFrame {
    // HOT-PATH-CUT: network frame assembly, as RequestFrame::encode.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(RESP_MAGIC);
        out.push(self.kind.tag());
        out.push(self.code);
        put_u32(out, self.conn);
        put_u64(out, self.seq);
        put_u32(out, self.credits);
        put_u32(out, self.retry_after_ms);
    }

    /// Same contract as [`RequestFrame::try_decode`].
    pub fn try_decode(buf: &mut &[u8]) -> Result<Option<ResponseFrame>, FrameError> {
        if buf.len() < RESP_HEADER_BYTES {
            if let Some(&m) = buf.first() {
                if m != RESP_MAGIC {
                    return Err(FrameError::BadMagic(m));
                }
            }
            return Ok(None);
        }
        let b = *buf;
        if b[0] != RESP_MAGIC {
            return Err(FrameError::BadMagic(b[0]));
        }
        let kind = RespKind::from_tag(b[1]).ok_or(FrameError::UnknownKind(b[1]))?;
        let frame = ResponseFrame {
            kind,
            code: b[2],
            conn: read_u32(&b[3..]),
            seq: read_u64(&b[7..]),
            credits: read_u32(&b[15..]),
            retry_after_ms: read_u32(&b[19..]),
        };
        *buf = &b[RESP_HEADER_BYTES..];
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eris_core::{DataObjectId, Payload};

    fn sample_cmd() -> DataCommand {
        DataCommand {
            object: DataObjectId(3),
            ticket: 42,
            payload: Payload::Lookup {
                keys: vec![1, 2, 3],
            },
        }
    }

    #[test]
    fn request_roundtrip_including_split_delivery() {
        let f = RequestFrame::command(7, 9, 1001, &sample_cmd());
        let mut bytes = Vec::new();
        f.encode(&mut bytes);
        // Every prefix is "incomplete", never an error, never a frame.
        for cut in 0..bytes.len() {
            let mut cur = &bytes[..cut];
            assert_eq!(RequestFrame::try_decode(&mut cur), Ok(None), "cut={cut}");
        }
        let mut cur = bytes.as_slice();
        let back = RequestFrame::try_decode(&mut cur).unwrap().unwrap();
        assert!(cur.is_empty());
        assert_eq!(back, f);
        let mut dec = &back.payload[..];
        assert_eq!(DataCommand::try_decode(&mut dec).unwrap(), sample_cmd());
    }

    #[test]
    fn response_roundtrip() {
        let r = ResponseFrame {
            kind: RespKind::Shed,
            code: SHED_OVERLOAD,
            conn: 4,
            seq: 77,
            credits: 1,
            retry_after_ms: 250,
        };
        let mut bytes = Vec::new();
        r.encode(&mut bytes);
        assert_eq!(bytes.len(), RESP_HEADER_BYTES);
        for cut in 0..bytes.len() {
            let mut cur = &bytes[..cut];
            assert_eq!(ResponseFrame::try_decode(&mut cur), Ok(None));
        }
        let mut cur = bytes.as_slice();
        assert_eq!(ResponseFrame::try_decode(&mut cur), Ok(Some(r)));
        assert!(cur.is_empty());
    }

    #[test]
    fn hostile_lengths_and_magic_are_typed_errors() {
        // Oversized declared length: rejected before any buffering.
        let f = RequestFrame {
            kind: ReqKind::Command,
            tenant: 0,
            conn: 0,
            seq: 0,
            payload: vec![],
        };
        let mut bytes = Vec::new();
        f.encode(&mut bytes);
        bytes[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            RequestFrame::try_decode(&mut bytes.as_slice()),
            Err(FrameError::Oversized { declared: u32::MAX })
        );

        // Wrong magic is rejected from the very first byte.
        assert_eq!(
            RequestFrame::try_decode(&mut &[0xFFu8][..]),
            Err(FrameError::BadMagic(0xFF))
        );
        assert_eq!(
            ResponseFrame::try_decode(&mut &[0x00u8, 1, 2][..]),
            Err(FrameError::BadMagic(0x00))
        );

        // Unknown kinds are typed, not panics.
        let mut bad = bytes.clone();
        bad[18..22].copy_from_slice(&0u32.to_le_bytes());
        bad[1] = 200;
        assert_eq!(
            RequestFrame::try_decode(&mut bad.as_slice()),
            Err(FrameError::UnknownKind(200))
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes never panic the request decoder, and the
        /// cursor only advances when a whole frame came off the front.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
            let mut cur = bytes.as_slice();
            let before = cur;
            match RequestFrame::try_decode(&mut cur) {
                Ok(Some(f)) => {
                    let consumed = before.len() - cur.len();
                    prop_assert_eq!(consumed, REQ_HEADER_BYTES + f.payload.len());
                }
                Ok(None) | Err(_) => prop_assert_eq!(cur, before),
            }
            let mut rcur = bytes.as_slice();
            let rbefore = rcur;
            match ResponseFrame::try_decode(&mut rcur) {
                Ok(Some(_)) => prop_assert_eq!(rbefore.len() - rcur.len(), RESP_HEADER_BYTES),
                Ok(None) | Err(_) => prop_assert_eq!(rcur, rbefore),
            }
        }

        /// A stream of concatenated frames decodes back frame-for-frame
        /// regardless of how the bytes were chunked by the transport.
        #[test]
        fn frame_streams_reassemble(
            frames in proptest::collection::vec(
                (1u8..=3, 0u32..8, 0u32..8, 0u64..1000, proptest::collection::vec(0u8..=255, 0..32)),
                1..8,
            ),
            chunk in 1usize..64,
        ) {
            let frames: Vec<RequestFrame> = frames
                .into_iter()
                .map(|(k, tenant, conn, seq, payload)| RequestFrame {
                    kind: ReqKind::from_tag(k).unwrap(),
                    tenant,
                    conn,
                    seq,
                    payload,
                })
                .collect();
            let mut stream = Vec::new();
            for f in &frames {
                f.encode(&mut stream);
            }
            // Feed the stream in `chunk`-byte slices through a reassembly
            // buffer, the way a transport would.
            let mut buf: Vec<u8> = Vec::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                buf.extend_from_slice(piece);
                loop {
                    let mut cur = buf.as_slice();
                    match RequestFrame::try_decode(&mut cur) {
                        Ok(Some(f)) => {
                            let consumed = buf.len() - cur.len();
                            buf.drain(..consumed);
                            got.push(f);
                        }
                        Ok(None) => break,
                        Err(e) => panic!("unexpected frame error: {e}"),
                    }
                }
            }
            prop_assert!(buf.is_empty());
            prop_assert_eq!(got, frames);
        }
    }
}
