//! `served-point`: 1-key commands through the TCP server, closed loop for
//! capacity and open loop at fixed rates for latency.
//!
//! Two busy threads: the serving thread (`TcpServer::serve`, or the same
//! loop under spans when tracing) and this one, the generator, which owns
//! every client connection.  The server acknowledges a command with
//! `Accepted` once the epoch that took it in has run, so the latency
//! measured here is due-time to acknowledgement.

use super::*;
use crate::micro;
use crate::stats::{Rng, Timed};
use eris_obs::now_ns;
use eris_server::frame::{REQ_HEADER_BYTES, RESP_HEADER_BYTES};
use eris_server::{
    ClockSource, EngineServer, ReqKind, RequestFrame, RespKind, ResponseFrame, ServerConfig,
    ShutdownOutcome, TcpServer, TcpTransport, Transport,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Dense keys `0..KEYS` in one prefix tree: the small working set.
const KEYS: u64 = 1 << 20;
const UPSERT_SHARE: f64 = 0.1;
/// Connections of the closed loop, each keeping its 64-credit window full,
/// and one tenant per connection so no tenant's quota is ever the limit.
const CLOSED_CONNS: usize = 8;
/// Connections the open loop spreads its schedule over, round-robin.
const OPEN_CONNS: usize = 4;
/// Pre-encoded request frames, cycled.
const POOL_FRAMES: usize = 1 << 18;
/// The open-loop rate the end-to-end latency is taken at, and the ladder
/// above it (traced runs), in commands per second.  At 25k/s the serving
/// thread sleeps between arrivals on every run; at 50k/s it sits on the
/// edge between sleeping and staying busy, and the median latency swung
/// 50-109 us between identical runs.
const RATE: f64 = 25_000.0;
const LADDER: [f64; 2] = [50_000.0, 100_000.0];
/// The latency limit a ladder rate must meet at its 90th percentile.
const LIMIT_P90_US: f64 = 2_000.0;
/// The generator may run this late at its 99th percentile before the run
/// measures the generator instead of the program.
const GEN_LATE_LIMIT_US: f64 = 1_000.0;
/// `TcpServer::serve`'s idle rule, repeated by the traced serving loop.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

fn first_value(key: u64) -> u64 {
    key ^ 0x5EED_0000_0000_0000
}

/// What the serving loop tallies per phase of a traced run.
#[derive(Debug, Clone, Copy, Default)]
struct PumpTally {
    pumps: u64,
    busy_pumps: u64,
    commands: u64,
    busy_ns: u64,
    idle_ns: u64,
}

struct Served {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Phase the generator is in; indexes the traced loop's tallies.
    phase: Arc<AtomicUsize>,
    tid: Option<u32>,
    thread: Option<JoinHandle<(ShutdownOutcome, Spans, Vec<PumpTally>)>>,
}

const PHASES: usize = 8;

/// `TcpServer::serve` with a span per call and a tally per phase.
fn serve_traced(
    mut tcp: TcpServer,
    stop: &AtomicBool,
    phase: &AtomicUsize,
) -> (ShutdownOutcome, Spans, Vec<PumpTally>) {
    let mut spans = Spans::new(true);
    let mut tally = vec![PumpTally::default(); PHASES];
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let t = &mut tally[phase.load(Ordering::Relaxed).min(PHASES - 1)];
        let t0 = now_ns();
        spans.enter("server.accept", n);
        tcp.poll_accept();
        spans.exit();
        spans.enter("server.pump", n);
        let r = tcp.server_mut().pump();
        spans.exit();
        let t1 = now_ns();
        n += 1;
        t.pumps += 1;
        if r.frames == 0 && r.commands == 0 {
            std::thread::sleep(IDLE_SLEEP);
            t.idle_ns += now_ns() - t1;
        } else {
            t.busy_pumps += 1;
            t.commands += r.commands;
            t.busy_ns += t1 - t0;
        }
    }
    (tcp.shutdown(), spans, tally)
}

impl Served {
    /// Engine with one bulk-loaded index behind a TCP server on its own
    /// thread.  One tenant per closed-loop connection; host clock.
    fn start(trace: bool, collect: bool, keys: u64) -> Served {
        let mut cfg = engine_config(trace);
        cfg.collect_results = collect;
        let mut engine = Engine::new(machine(), cfg);
        let kv = engine.create_index("kv", keys);
        assert_eq!(kv, DataObjectId(0));
        engine.bulk_load_index(kv, (0..keys).map(|k| (k, first_value(k))));
        let mut config = ServerConfig {
            tenants: CLOSED_CONNS as u32,
            clock: ClockSource::Host,
            ..Default::default()
        };
        if trace {
            config.trace_sample_every = 1;
        }
        let tcp = TcpServer::bind(
            "127.0.0.1:0".parse().expect("address"),
            EngineServer::new(engine, config),
        )
        .expect("bind a loopback port");
        let addr = tcp.local_addr().expect("bound address");
        let stop = Arc::new(AtomicBool::new(false));
        let phase = Arc::new(AtomicUsize::new(0));
        let (tid_tx, tid_rx) = mpsc::channel();
        let (stop2, phase2) = (Arc::clone(&stop), Arc::clone(&phase));
        let thread = std::thread::spawn(move || {
            let _ = tid_tx.send(sys::current_tid());
            if trace {
                serve_traced(tcp, &stop2, &phase2)
            } else {
                (tcp.serve(&stop2), Spans::new(false), Vec::new())
            }
        });
        Served {
            addr,
            stop,
            phase,
            tid: tid_rx.recv().ok().flatten(),
            thread: Some(thread),
        }
    }

    fn cpu_s(&self) -> Option<f64> {
        self.tid.and_then(sys::thread_cpu_s)
    }

    fn shutdown(mut self) -> (ShutdownOutcome, Spans, Vec<PumpTally>) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .expect("not yet joined")
            .join()
            .expect("serving thread panicked")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Request frames encoded before any timed window; `conn` and `seq` are
/// patched into the copy that is sent.
struct FramePool {
    bytes: Vec<u8>,
    /// Start of each frame in `bytes`, plus the end of the last.
    starts: Vec<u32>,
    next: usize,
}

impl FramePool {
    /// 90 % 1-key lookups, 10 % 1-key upserts, uniform over the keys.
    fn new(
        seed: u64,
        stream: u64,
        keys: u64,
        frames: usize,
    ) -> (FramePool, Vec<(u64, Option<u64>)>) {
        let mut rng = Rng::new(seed, stream);
        let mut pool = FramePool {
            bytes: Vec::new(),
            starts: vec![0],
            next: 0,
        };
        let mut commands = Vec::with_capacity(frames);
        for i in 0..frames {
            let key = rng.below(keys);
            let value = rng.chance(UPSERT_SHARE).then(|| rng.next_u64());
            let payload = match value {
                Some(v) => Payload::Upsert {
                    pairs: vec![(key, v)],
                },
                None => Payload::Lookup { keys: vec![key] },
            };
            let cmd = DataCommand {
                object: DataObjectId(0),
                ticket: i as u64,
                payload,
            };
            RequestFrame::command(0, 0, 0, &cmd).encode(&mut pool.bytes);
            pool.starts.push(pool.bytes.len() as u32);
            commands.push((key, value));
        }
        (pool, commands)
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    fn next_frame(&mut self) -> &[u8] {
        let i = self.next;
        self.next = (self.next + 1) % self.len();
        self.frame(i)
    }
}

/// The generator's tallies over one phase.
#[derive(Default)]
struct ClientTally {
    sent: u64,
    settled: u64,
    send_ns: u64,
    poll_ns: u64,
    busy_ns: u64,
    wall_ns: u64,
    /// `(seconds since the phase began, microseconds)` per settled request.
    lat_us: Timed,
    late_us: Vec<f64>,
    progress: Progress,
    /// Requests due but unsent, or sent but unsettled, when the phase ended.
    backlog: u64,
    /// The measured part of the phase, in seconds since it began.
    window: (f64, f64),
}

impl ClientTally {
    /// Latency quantile of the phase, robust against bursts (see
    /// [`stats::windowed_percentile`]).
    fn latency(&self, q: f64) -> f64 {
        stats::windowed_percentile(&self.lat_us, self.window.0, self.window.1, q)
    }

    /// Throughput of a closed-loop phase.
    fn throughput(&self) -> stats::Throughput {
        stats::throughput(&self.progress, self.window.0, self.window.1)
    }

    fn raw_latency(&self, q: f64) -> f64 {
        let all: Vec<f64> = self.lat_us.iter().map(|s| s.1).collect();
        stats::percentile(&all, q)
    }
}

/// One client connection: the benchmark's own, over `eris_server::frame`
/// and `TcpTransport`, matching each reply to its request by the echoed
/// `seq` (`eris_server::Client` does not expose it).
struct Conn {
    transport: TcpTransport,
    tenant: u32,
    id: u32,
    credits: u32,
    next_seq: u64,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// `(seq, due_ns)` of requests sent and not yet settled, oldest first.
    pending: VecDeque<(u64, u64)>,
    /// Responses other than `Accepted`, out-of-order or unknown `seq`s,
    /// protocol errors, and (once the run is over) requests never settled.
    failed: u64,
}

impl Conn {
    /// Connect, say `Hello`, and wait for the `Welcome` that grants the
    /// credit window.
    fn open(addr: SocketAddr, tenant: u32) -> Conn {
        let transport = TcpTransport::connect(addr).expect("connect to the loopback server");
        let mut c = Conn {
            transport,
            tenant,
            id: 0,
            credits: 0,
            next_seq: 1,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            pending: VecDeque::new(),
            failed: 0,
        };
        RequestFrame {
            kind: ReqKind::Hello,
            tenant,
            conn: 0,
            seq: 0,
            payload: Vec::new(),
        }
        .encode(&mut c.outbuf);
        let deadline = Instant::now() + Duration::from_secs(10);
        while c.credits == 0 {
            assert!(
                Instant::now() < deadline,
                "no Welcome from the server within 10 s"
            );
            c.flush();
            let _ = c.transport.try_read(&mut c.inbuf);
            let mut cur = c.inbuf.as_slice();
            if let Ok(Some(r)) = ResponseFrame::try_decode(&mut cur) {
                assert_eq!(r.kind, RespKind::Welcome, "first response is the Welcome");
                c.id = r.conn;
                c.credits = r.credits;
                c.inbuf.drain(..RESP_HEADER_BYTES);
            }
            std::thread::yield_now();
        }
        c
    }

    /// Queue a copy of `frame` under this connection's id and next `seq`.
    fn send(&mut self, frame: &[u8], due_ns: u64) {
        let at = self.outbuf.len();
        self.outbuf.extend_from_slice(frame);
        // Header: magic, kind, tenant u32, conn u32, seq u64, length u32.
        self.outbuf[at + 2..at + 6].copy_from_slice(&self.tenant.to_le_bytes());
        self.outbuf[at + 6..at + 10].copy_from_slice(&self.id.to_le_bytes());
        self.outbuf[at + 10..at + 18].copy_from_slice(&self.next_seq.to_le_bytes());
        self.pending.push_back((self.next_seq, due_ns));
        self.next_seq += 1;
        self.credits -= 1;
    }

    fn flush(&mut self) {
        if !self.outbuf.is_empty() {
            if let Ok(n) = self.transport.try_write(&self.outbuf) {
                self.outbuf.drain(..n);
            }
        }
    }

    /// Commands sent so far.
    fn sent(&self) -> u64 {
        self.next_seq - 1
    }

    /// Read and settle responses; returns how many settled.  With
    /// `latencies` and the phase's start, each settled request's latency
    /// from its due time is recorded.
    fn poll(&mut self, mut latencies: Option<(&mut Timed, u64)>) -> u64 {
        if !matches!(self.transport.try_read(&mut self.inbuf), Ok(n) if n > 0) {
            return 0;
        }
        let now = now_ns();
        let mut cur = self.inbuf.as_slice();
        let mut settled = 0;
        loop {
            match ResponseFrame::try_decode(&mut cur) {
                Ok(Some(r)) => {
                    self.credits += r.credits;
                    if r.kind == RespKind::Goodbye {
                        continue;
                    }
                    settled += 1;
                    let matched = self.pending.front().is_some_and(|p| p.0 == r.seq);
                    if r.kind != RespKind::Accepted || !matched {
                        self.failed += 1;
                    }
                    if matched {
                        let (_, due) = self.pending.pop_front().expect("front matched");
                        if let Some((lat_us, t0)) = &mut latencies {
                            lat_us.push((
                                (now - *t0) as f64 / 1e9,
                                now.saturating_sub(due) as f64 / 1e3,
                            ));
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.failed += 1;
                    cur = &[];
                    break;
                }
            }
        }
        let consumed = self.inbuf.len() - cur.len();
        self.inbuf.drain(..consumed);
        settled
    }
}

/// Closed loop: every connection keeps its whole credit window in flight.
fn closed_loop(conns: &mut [Conn], pool: &mut FramePool, warm: f64, measure: f64) -> ClientTally {
    let mut tally = ClientTally {
        window: (warm, warm + measure),
        ..Default::default()
    };
    let t0 = now_ns();
    let (from, to) = ((warm * 1e9) as u64, ((warm + measure) * 1e9) as u64);
    let mut measuring = false;
    let mut last_point = 0u64;
    loop {
        let start = now_ns();
        let elapsed = start - t0;
        if !measuring && elapsed >= from {
            measuring = true;
            tally.settled = 0;
            tally.progress.push((elapsed as f64 / 1e9, 0.0));
        }
        if elapsed >= to {
            tally.wall_ns = elapsed - from;
            break;
        }
        let mut sent = 0;
        for c in conns.iter_mut() {
            while c.credits > 0 {
                c.send(pool.next_frame(), start);
                sent += 1;
            }
            c.flush();
        }
        let mid = now_ns();
        let settled: u64 = conns.iter_mut().map(|c| c.poll(None)).sum();
        let end = now_ns();
        tally.sent += sent;
        tally.settled += settled;
        if measuring {
            tally.send_ns += mid - start;
            tally.poll_ns += end - mid;
            if sent > 0 || settled > 0 {
                tally.busy_ns += end - start;
            }
            if settled > 0 && end - last_point >= 100_000 {
                last_point = end;
                tally
                    .progress
                    .push(((end - t0) as f64 / 1e9, tally.settled as f64));
            }
        }
    }
    tally
}

/// Open loop: request `i` is due at `i / rate` on connection `i % n`, and
/// its latency counts from then, sent late or not.
fn open_loop(
    conns: &mut [Conn],
    pool: &mut FramePool,
    rate: f64,
    warm: f64,
    measure: f64,
) -> ClientTally {
    let mut tally = ClientTally {
        window: (warm, warm + measure),
        ..Default::default()
    };
    let gap = 1e9 / rate;
    let t0 = now_ns();
    let (from, to) = ((warm * 1e9) as u64, ((warm + measure) * 1e9) as u64);
    let due_of = |i: u64| t0 + (i as f64 * gap) as u64;
    let (mut next, mut noticed) = (0u64, 0u64);
    loop {
        let start = now_ns();
        let elapsed = start - t0;
        let measuring = elapsed >= from;
        if elapsed >= to {
            tally.wall_ns = to - from;
            tally.backlog =
                noticed - next + conns.iter().map(|c| c.pending.len() as u64).sum::<u64>();
            break;
        }
        // How late the generator itself runs: when it first sees a request
        // is due, whether or not the server's credits let it go out.
        while due_of(noticed) <= start {
            if measuring {
                tally.late_us.push((start - due_of(noticed)) as f64 / 1e3);
            }
            noticed += 1;
        }
        let mut sent = 0;
        while next < noticed {
            let c = &mut conns[next as usize % conns.len()];
            if c.credits == 0 {
                break;
            }
            c.send(pool.next_frame(), due_of(next));
            next += 1;
            sent += 1;
        }
        for c in conns.iter_mut() {
            c.flush();
        }
        let mid = now_ns();
        let settled: u64 = conns
            .iter_mut()
            .map(|c| c.poll(measuring.then_some((&mut tally.lat_us, t0))))
            .sum();
        let end = now_ns();
        tally.sent += sent;
        tally.settled += settled;
        if measuring {
            tally.send_ns += mid - start;
            tally.poll_ns += end - mid;
            if sent > 0 || settled > 0 {
                tally.busy_ns += end - start;
            }
        }
    }
    tally
}

/// Let every outstanding request settle (bounded), then count what did not
/// as failed.
fn settle_all(conns: &mut [Conn]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while conns
        .iter()
        .any(|c| !c.pending.is_empty() || !c.outbuf.is_empty())
        && Instant::now() < deadline
    {
        for c in conns.iter_mut() {
            c.flush();
            c.poll(None);
        }
    }
    for c in conns.iter_mut() {
        c.failed += c.pending.len() as u64;
    }
}

/// Commands sent and commands failed over the connections' lifetime.
fn sent_and_failed(conns: &[Conn]) -> (u64, u64) {
    let sum = |f: fn(&Conn) -> u64| conns.iter().map(f).sum();
    (sum(Conn::sent), sum(|c| c.failed))
}

/// 1/64 of the keys behind a server whose engine collects results: a few
/// thousand commands through the closed loop, then every lookup value
/// checked.  A key's lookup may see its first value or any value a
/// command of this pass wrote.
fn verify(seed: u64, out: &mut Outcome) {
    let keys = KEYS / VERIFY_SCALE;
    let served = Served::start(false, true, keys);
    let (mut pool, commands) = FramePool::new(seed, 41, keys, 4096);
    let mut conns: Vec<Conn> = (0..2).map(|t| Conn::open(served.addr, t)).collect();
    let mut left = pool.len();
    while left > 0 {
        for c in conns.iter_mut() {
            while c.credits > 0 && left > 0 {
                c.send(pool.next_frame(), 0);
                left -= 1;
            }
            c.flush();
            c.poll(None);
        }
    }
    settle_all(&mut conns);
    let (outcome, _, _) = served.shutdown();
    let (sent, failed) = sent_and_failed(&conns);
    out.attempted += sent;
    out.fail(
        failed,
        "verify: command not accepted, or settled out of order or never",
    );
    out.check(
        outcome.ledger.holds() && outcome.quiesce.clean(),
        "verify: serving ledger or quiesce report",
    );
    let mut written: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
    for &(k, v) in &commands {
        if let Some(v) = v {
            written.entry(k).or_default().push(v);
        }
    }
    let got = outcome.engine.results().take_lookup_values();
    let lookups = commands.iter().filter(|c| c.1.is_none()).count() as u64;
    out.fail(
        lookups.abs_diff(got.len() as u64),
        "verify: lookup results missing or duplicated",
    );
    let wrong = got
        .iter()
        .filter(|&&(_, k, v)| {
            v != Some(first_value(k))
                && !written
                    .get(&k)
                    .is_some_and(|w| w.iter().any(|&x| v == Some(x)))
        })
        .count();
    out.fail(
        wrong as u64,
        "verify: lookup returned a value never written",
    );
}

struct System {
    served: Served,
    conns: Vec<Conn>,
}

fn build(sampling_1_in_1: bool) -> System {
    let served = Served::start(sampling_1_in_1, false, KEYS);
    let conns = (0..CLOSED_CONNS)
        .map(|t| Conn::open(served.addr, t as u32))
        .collect();
    System { served, conns }
}

/// Conservation after the timed phases: every request settled once, the
/// serving ledger holds, the engine quiesced cleanly and executed exactly
/// the accepted commands.
fn finish(sys: System, out: &mut Outcome) -> (ShutdownOutcome, Spans, Vec<PumpTally>) {
    let System { served, mut conns } = sys;
    settle_all(&mut conns);
    let done = served.shutdown();
    let outcome = &done.0;
    let (sent, failed) = sent_and_failed(&conns);
    out.attempted += sent;
    out.fail(
        failed,
        "command not accepted, settled out of order, or never settled",
    );
    out.check(outcome.ledger.holds(), "serving ledger does not hold");
    out.check(outcome.quiesce.clean(), "engine did not quiesce cleanly");
    let c = outcome.engine.results().counts();
    out.fail(
        (c.lookups + c.upserts).abs_diff(outcome.ledger.accepted),
        "accepted commands != executed operations",
    );
    let snap = &outcome.snapshot;
    out.fail(
        snap.shed_total() + snap.quota_denied_total() + snap.rejected_total(),
        "command shed, denied or rejected",
    );
    done
}

/// Phase B with the generator-health guard: a phase in which the generator
/// itself ran late is repeated, twice at most.  Returns the last attempt
/// and, if that one was late too, why the run is generator-bound.
fn guarded_open_loop(
    conns: &mut [Conn],
    pool: &mut FramePool,
    warm: f64,
    measure: f64,
) -> (ClientTally, Option<String>) {
    for attempt in 1.. {
        let t = open_loop(conns, pool, RATE, warm, measure);
        let late = stats::percentile(&t.late_us, 0.99);
        if late <= GEN_LATE_LIMIT_US {
            return (t, None);
        }
        if attempt == 3 {
            let why = format!("client.gen_late_p99_us = {late:.0} > {GEN_LATE_LIMIT_US}");
            return (t, Some(why));
        }
        eprintln!("open loop repeated: the generator ran {late:.0} us late at p99");
    }
    unreachable!("the third attempt returns")
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (mut sys, setup_s, growth) = repeat_setup(
        cfg,
        Clock::Wall,
        || build(cfg.trace),
        || verify(cfg.seed, &mut out),
    );
    let (mut pool, _) = FramePool::new(cfg.seed, 42, KEYS, POOL_FRAMES);
    let s = cfg.seconds;

    if !cfg.trace {
        // Phase A, closed loop: capacity.
        let cpu0 = sys.served.cpu_s();
        let a = closed_loop(&mut sys.conns, &mut pool, s * 0.05, s * 0.45);
        let server_busy = sys
            .served
            .cpu_s()
            .zip(cpu0)
            .map(|(b, a)| (b - a) / (s * 0.5));
        let client_busy = a.busy_ns as f64 / a.wall_ns.max(1) as f64;
        if server_busy.is_some_and(|b| client_busy > b) {
            out.invalid = Some(format!(
                "client.busy_frac {client_busy:.2} > serving thread's {:.2} in the closed loop",
                server_busy.unwrap_or(0.0)
            ));
        }
        // Phase B, open loop: latency.
        let conns = &mut sys.conns[..OPEN_CONNS];
        let (b, late) = guarded_open_loop(conns, &mut pool, s * 0.05, s * 0.45);
        out.invalid = out.invalid.or(late);
        finish(sys, &mut out);
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        m.set("ops_per_s", a.throughput().p90);
        m.set("lat_p50_us", b.latency(0.5));
        m.set("peak_rss_mb", sys::peak_rss_mb());
        m.set("space_amp", growth / (KEYS as f64 * 16.0));
        return out;
    }

    // Traced run.  Reference closed loop at the shipped sampling first.
    let reference = {
        let mut plain = build(false);
        let r = closed_loop(&mut plain.conns, &mut pool, s * 0.05, s * 0.2);
        finish(plain, &mut out);
        r.throughput().p90
    };
    let set_phase = |sys: &System, p: usize| sys.served.phase.store(p, Ordering::Relaxed);
    set_phase(&sys, 1);
    let a = closed_loop(&mut sys.conns, &mut pool, s * 0.05, s * 0.2);
    set_phase(&sys, 2);
    let b = open_loop(
        &mut sys.conns[..OPEN_CONNS],
        &mut pool,
        RATE,
        s * 0.05,
        s * 0.2,
    );
    let mut ladder = vec![(RATE, b.latency(0.5), b.latency(0.9), b.backlog)];
    for (i, rate) in LADDER.into_iter().enumerate() {
        set_phase(&sys, 3 + i);
        let t = open_loop(
            &mut sys.conns[..OPEN_CONNS],
            &mut pool,
            rate,
            s * 0.05,
            s * 0.15,
        );
        ladder.push((rate, t.latency(0.5), t.latency(0.9), t.backlog));
    }
    set_phase(&sys, 0);
    let (outcome, server_spans, tally) = finish(sys, &mut out);
    let snap = outcome.engine.telemetry();
    let (ta, tb) = (tally[1], tally[2]);

    let mut spans = Spans::new(true);
    spans.absorb(server_spans);
    let pumps: u64 = tally.iter().map(|t| t.pumps).sum();
    let commands: u64 = tally.iter().map(|t| t.commands).sum();
    core_metrics_of(
        &snap,
        &spans,
        "server.pump",
        pumps,
        commands,
        &[],
        &mut out.metrics,
    );
    let thr = a.throughput();
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let m = &mut out.metrics;
    m.set("run.failed_frac", failed_frac);
    m.set("run.mean_ops_per_s", thr.mean);
    m.set("run.window_spread", thr.spread);
    m.set("run.samples", b.lat_us.len() as f64);
    m.set("run.lat_p90_us", b.latency(0.9));
    m.set("obs.trace_overhead_frac", 1.0 - thr.p90 / reference);
    m.set(
        "mem.manager.live_mb",
        outcome.engine.memory().live_bytes() as f64 / 1e6,
    );

    // The serving loop, closed loop for costs and open loop for idleness.
    m.set(
        "server.pump.ns_per_cmd",
        ta.busy_ns as f64 / ta.commands.max(1) as f64,
    );
    m.set(
        "server.pump.cmds_per_pump",
        ta.commands as f64 / ta.busy_pumps.max(1) as f64,
    );
    m.set(
        "server.pump.idle_frac",
        tb.idle_ns as f64 / (tb.idle_ns + tb.busy_ns).max(1) as f64,
    );
    let phase_ns = |p: Phase| snap.phases.iter().map(|b| b.get(p)).sum::<u64>() as f64;
    m.set(
        "server.read_admit.ns_per_cmd",
        phase_ns(Phase::ReadAdmit) / commands.max(1) as f64,
    );
    m.set(
        "server.flush.ns_per_cmd",
        phase_ns(Phase::Flush) / commands.max(1) as f64,
    );
    let net_wait = merged(outcome.snapshot.net_wait.iter().cloned());
    m.set("server.net_wait.p50_ns", net_wait.p50() as f64);
    m.set("server.shed", outcome.snapshot.shed_total() as f64);
    m.set(
        "server.quota_denied",
        outcome.snapshot.quota_denied_total() as f64,
    );
    m.set("server.rejected", outcome.snapshot.rejected_total() as f64);
    m.set(
        "server.credit_stalls",
        outcome.snapshot.credits_stalled_total() as f64,
    );

    // The generator: would it have been the limit?
    m.set(
        "client.send_ns_per_cmd",
        a.send_ns as f64 / a.sent.max(1) as f64,
    );
    m.set(
        "client.poll_ns_per_cmd",
        a.poll_ns as f64 / a.settled.max(1) as f64,
    );
    m.set(
        "client.busy_frac",
        a.busy_ns as f64 / a.wall_ns.max(1) as f64,
    );
    m.set(
        "client.gen_late_p99_us",
        stats::percentile(&b.late_us, 0.99),
    );
    m.set("client.lat_p99_us", b.raw_latency(0.99));
    m.set("client.lat_p999_us", b.raw_latency(0.999));
    m.set("client.lat_p50_us.at_50k", ladder[1].1);
    m.set("client.lat_p90_us.at_50k", ladder[1].2);
    m.set("client.lat_p50_us.at_100k", ladder[2].1);
    m.set("client.lat_p90_us.at_100k", ladder[2].2);
    // A backlog worth more than 10 ms of the schedule is one that grows.
    let in_limit = |&&(rate, _, p90, backlog): &&(f64, f64, f64, u64)| {
        p90 <= LIMIT_P90_US && (backlog as f64) < rate * 0.01
    };
    m.set(
        "client.max_rate_in_limit",
        ladder
            .iter()
            .filter(in_limit)
            .map(|l| l.0)
            .fold(0.0, f64::max),
    );

    // Coverage: the share of the serving thread's wall time inside pump
    // and accept; the rest is its idle sleep and loop bookkeeping.
    let wall: u64 = tally.iter().map(|t| t.busy_ns + t.idle_ns).sum();
    let totals = spans.totals();
    let in_calls = totals.get("server.pump").map_or(0, |t| t.total_ns)
        + totals.get("server.accept").map_or(0, |t| t.total_ns);
    m.set("trace.coverage", in_calls as f64 / wall.max(1) as f64);
    m.set(
        "trace.unattributed_ns_per_op",
        wall.saturating_sub(in_calls) as f64 / commands.max(1) as f64,
    );

    let requests: Vec<Vec<u8>> = (0..4096).map(|i| pool.frame(i).to_vec()).collect();
    micro::server_calls(&requests, m);
    let sample: Vec<DataCommand> = requests
        .iter()
        .take(256)
        .map(|r| DataCommand::try_decode(&mut &r[REQ_HEADER_BYTES..]).expect("own command"))
        .collect();
    let keys: Vec<u64> = sample.iter().flat_map(micro::keys_of).collect();
    micro::prefix_tree(&keys, KEYS / NUM_AEUS as u64, 1, m);
    micro::codec_and_routing(&sample, range_table(KEYS), m);
    micro::flow_solver(m);
    micro::obs_and_mem(m);
    crate::write_spans(&spans, "served-point");
    out
}
