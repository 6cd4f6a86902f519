//! Byte transports behind one trait: in-process loopback pipes (the
//! deterministic tier-1 path) and non-blocking TCP (the network path).
//!
//! The server core is transport-agnostic: it appends whatever bytes are
//! available, parses frames out of its own reassembly buffer, and
//! writes response bytes back.  "Async" here is readiness polling — the
//! workspace has no epoll shim and no async runtime, so every transport
//! is non-blocking and the serving loop multiplexes by polling at batch
//! boundaries (see `crates/server/src/server.rs` and `tcp.rs`).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A non-blocking bidirectional byte stream.
pub trait Transport: Send {
    /// Append any available inbound bytes to `buf`; returns how many
    /// arrived.  `Ok(0)` means nothing available right now (or peer
    /// gone — check [`Transport::is_open`]).
    fn try_read(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;

    /// Write as many of `bytes` as the transport will take without
    /// blocking; returns how many were written.
    fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize>;

    /// False once the peer is gone or the stream was closed locally.
    fn is_open(&self) -> bool;

    /// Close the stream; further reads/writes return `Ok(0)`.
    fn close(&mut self);
}

/// One direction of an in-process pipe.
#[derive(Clone, Default)]
pub struct Pipe {
    inner: Arc<PipeInner>,
}

#[derive(Default)]
struct PipeInner {
    bytes: Mutex<VecDeque<u8>>,
    closed: AtomicBool,
}

impl Pipe {
    // HOT-PATH-CUT: loopback test transport — Mutex-based by design,
    // used by the harness, never on the engine's latch-free paths.
    pub fn push(&self, data: &[u8]) {
        self.inner.bytes.lock().extend(data.iter().copied());
    }

    pub fn drain_into(&self, out: &mut Vec<u8>) -> usize {
        let mut q = self.inner.bytes.lock();
        let n = q.len();
        out.extend(q.drain(..));
        n
    }

    // HOT-PATH-CUT: loopback test transport, as `push`.
    pub fn len(&self) -> usize {
        self.inner.bytes.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Relaxed);
    }

    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Relaxed)
    }
}

/// A transport over two shared pipes (read side + write side).
pub struct PipeTransport {
    rx: Pipe,
    tx: Pipe,
}

/// A connected pair of in-process transports: bytes written on one end
/// become readable on the other.  Deterministic: no sockets, no
/// threads, no timeouts — the tier-1 test path.
pub fn loopback_pair() -> (PipeTransport, PipeTransport) {
    let a_to_b = Pipe::default();
    let b_to_a = Pipe::default();
    (
        PipeTransport {
            rx: b_to_a.clone(),
            tx: a_to_b.clone(),
        },
        PipeTransport {
            rx: a_to_b,
            tx: b_to_a,
        },
    )
}

impl PipeTransport {
    /// Build from explicit pipes (the TCP bridge wires sockets to the
    /// same shape: a worker thread shovels socket bytes into `rx` and
    /// drains `tx` back to the socket).
    pub fn from_pipes(rx: Pipe, tx: Pipe) -> Self {
        PipeTransport { rx, tx }
    }
}

impl Transport for PipeTransport {
    fn try_read(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        Ok(self.rx.drain_into(buf))
    }

    fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.tx.is_closed() {
            return Ok(0);
        }
        self.tx.push(bytes);
        Ok(bytes.len())
    }

    fn is_open(&self) -> bool {
        // Closing either direction closes the connection for both ends;
        // already-piped bytes stay readable via `try_read`.
        !self.rx.is_closed() && !self.tx.is_closed()
    }

    fn close(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

/// A non-blocking TCP transport.
pub struct TcpTransport {
    stream: TcpStream,
    open: bool,
}

impl TcpTransport {
    /// Wrap a connected stream, switching it to non-blocking mode and
    /// disabling Nagle (frames are small; latency matters).
    pub fn new(stream: TcpStream) -> io::Result<TcpTransport> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpTransport { stream, open: true })
    }

    /// Connect to `addr` and wrap the stream.
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<TcpTransport> {
        TcpTransport::new(TcpStream::connect(addr)?)
    }
}

/// Bytes one `read` call may append to the caller's buffer.
const READ_CHUNK: usize = 4096;

impl Transport for TcpTransport {
    /// Reads one chunk per call to `read` and appends what arrived, so
    /// `buf` grows only by bytes received.  A short read proves the socket
    /// empty, so it ends the call: there is no second syscall just to see
    /// `WouldBlock`, and a close by the peer behind the data shows on the
    /// next call.
    fn try_read(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        if !self.open {
            return Ok(0);
        }
        let mut total = 0;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Orderly shutdown by the peer.
                    self.open = false;
                    break;
                }
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.open = false;
                    return Err(e);
                }
            }
        }
        Ok(total)
    }

    fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if !self.open {
            return Ok(0);
        }
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => {
                    self.open = false;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.open = false;
                    return Err(e);
                }
            }
        }
        Ok(written)
    }

    fn is_open(&self) -> bool {
        self.open
    }

    fn close(&mut self) {
        self.open = false;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_carries_bytes_both_ways() {
        let (mut a, mut b) = loopback_pair();
        assert_eq!(a.try_write(b"hello").unwrap(), 5);
        let mut got = Vec::new();
        assert_eq!(b.try_read(&mut got).unwrap(), 5);
        assert_eq!(got, b"hello");
        // Nothing more to read: would-block, not an error.
        assert_eq!(b.try_read(&mut got).unwrap(), 0);
        assert_eq!(b.try_write(b"yo").unwrap(), 2);
        let mut back = Vec::new();
        assert_eq!(a.try_read(&mut back).unwrap(), 2);
        assert_eq!(back, b"yo");
    }

    #[test]
    fn closed_loopback_stops_accepting_writes() {
        let (mut a, mut b) = loopback_pair();
        a.try_write(b"tail").unwrap();
        b.close();
        assert_eq!(a.try_write(b"more").unwrap(), 0);
        assert!(!b.is_open());
    }

    /// A connected pair on 127.0.0.1: the server end wrapped, the peer a
    /// plain blocking stream.
    fn tcp_pair() -> (TcpTransport, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        (TcpTransport::new(ours).unwrap(), peer)
    }

    /// Poll `t` until `buf` holds `want` bytes (the peer's bytes are in
    /// flight on the loopback device for a moment).
    fn read_until(t: &mut TcpTransport, buf: &mut Vec<u8>, want: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while buf.len() < want {
            assert!(std::time::Instant::now() < deadline, "bytes never arrived");
            t.try_read(buf).unwrap();
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_peer_close_behind_its_bytes_shows_on_the_next_read() {
        let (mut t, mut peer) = tcp_pair();
        peer.write_all(b"last words").unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = Vec::new();
        read_until(&mut t, &mut buf, 10);
        assert_eq!(buf, b"last words");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while t.is_open() {
            assert!(std::time::Instant::now() < deadline, "close never seen");
            assert_eq!(t.try_read(&mut buf).unwrap(), 0);
        }
        assert_eq!(buf, b"last words", "nothing but the data");
    }

    #[test]
    fn a_frame_split_across_reads_assembles() {
        use crate::frame::{ReqKind, RequestFrame};
        let frame = RequestFrame {
            kind: ReqKind::Command,
            tenant: 1,
            conn: 2,
            seq: 3,
            // More than one read chunk, so one write is read in pieces.
            payload: (0..READ_CHUNK as u32 + 100).map(|i| i as u8).collect(),
        };
        let mut bytes = Vec::new();
        frame.encode(&mut bytes);
        let (mut t, mut peer) = tcp_pair();
        let mut buf = vec![0xAA];
        let half = bytes.len() / 3;
        peer.write_all(&bytes[..half]).unwrap();
        read_until(&mut t, &mut buf, 1 + half);
        assert_eq!(
            RequestFrame::try_decode(&mut &buf[1..]).unwrap(),
            None,
            "a partial frame waits"
        );
        peer.write_all(&bytes[half..]).unwrap();
        read_until(&mut t, &mut buf, 1 + bytes.len());
        assert_eq!(buf[0], 0xAA, "reads append");
        let mut cur = &buf[1..];
        assert_eq!(RequestFrame::try_decode(&mut cur).unwrap(), Some(frame));
        assert!(cur.is_empty());
        assert!(t.is_open());
    }
}
