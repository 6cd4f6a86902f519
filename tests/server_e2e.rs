//! End-to-end serving-layer tests: loopback connections through the full
//! framed protocol into a real engine, plus one short TCP round trip.
//!
//! The load-bearing claims:
//!
//! * **Zero silent drops** — every command a client sends is settled by
//!   exactly one typed response; `commands_received == accepted + shed +
//!   quota_denied + rejected` on the server, and client-side stats agree.
//! * **Conservation composes** — `accepted == engine_routed` and the
//!   engine's per-object `enqueued == executed` hold after drain, so
//!   accepted == executed end to end, even when the server is shut down
//!   mid-traffic.
//! * **Denials are typed** — over-quota commands get `QuotaDenied` with
//!   a positive retry hint; overload gets `Shed`; malformed payloads get
//!   `Rejected(REJ_DECODE)`; nothing is just dropped.

use eris_core::prelude::*;
use eris_server::{
    loopback_pair, AdmissionConfig, Client, ClockSource, EngineServer, IdleRule, PipeTransport,
    RespKind, ServerConfig, ShutdownOutcome, TcpServer, TcpTransport, Transport, REJ_DECODE,
    REJ_ROUTING,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_engine(nodes: u16, cores: u16) -> (Engine, DataObjectId) {
    let cfg = EngineConfig {
        balancer: BalancerConfig {
            enabled: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut engine = Engine::new(
        eris_numa::machines::custom_machine("t", nodes, cores, 20.0, 100.0, 10.0, 60.0),
        cfg,
    );
    let obj = engine.create_index("kv", 1 << 18);
    engine.bulk_load_index(obj, (0..4096u64).map(|k| (k * 61 % (1 << 18), k)));
    (engine, obj)
}

fn lookup(obj: DataObjectId, seed: u64) -> DataCommand {
    let keys = (0..4u64)
        .map(|i| (seed * 31 + i * 977) % (1 << 18))
        .collect();
    DataCommand {
        object: obj,
        ticket: seed,
        payload: Payload::Lookup { keys },
    }
}

fn upsert(obj: DataObjectId, seed: u64) -> DataCommand {
    let pairs = (0..2u64)
        .map(|i| ((seed * 53 + i * 1009) % (1 << 18), seed))
        .collect();
    DataCommand {
        object: obj,
        ticket: seed,
        payload: Payload::Upsert { pairs },
    }
}

/// N concurrent loopback connections, mixed workload, generous quotas:
/// everything is accepted, and the combined ledger balances exactly.
#[test]
fn loopback_mixed_workload_conserves() {
    let (engine, obj) = small_engine(2, 4);
    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: 3,
            admission: AdmissionConfig {
                credit_limit: 16,
                quota_capacity_ops: 1 << 20,
                quota_refill_ops_per_sec: 1 << 20,
                ..Default::default()
            },
            clock: ClockSource::Virtual,
            ..Default::default()
        },
    );
    let mut clients: Vec<Client<PipeTransport>> = (0..6u32)
        .map(|i| {
            let (server_side, client_side) = loopback_pair();
            server.attach(Box::new(server_side));
            Client::connect(client_side, i % 3)
        })
        .collect();

    let mut sent = 0u64;
    for cycle in 0..120u64 {
        for (i, c) in clients.iter_mut().enumerate() {
            c.poll();
            let seed = cycle * 64 + i as u64;
            let cmd = if (cycle + i as u64).is_multiple_of(3) {
                upsert(obj, seed)
            } else {
                lookup(obj, seed)
            };
            if c.try_send(&cmd) {
                sent += 1;
            }
            c.poll();
        }
        server.pump();
    }
    server.pump_until_quiet(64);
    for c in clients.iter_mut() {
        c.poll();
    }

    assert!(sent > 0);
    let snap = server.snapshot();
    assert_eq!(snap.counters.commands_received, sent);
    // Generous quotas + no overload: everything was accepted.
    assert_eq!(snap.accepted_total(), sent);
    assert_eq!(
        snap.shed_total() + snap.quota_denied_total() + snap.rejected_total(),
        0
    );

    // Client and server agree command for command.
    let client_accepted: u64 = clients.iter().map(|c| c.stats().accepted).sum();
    assert_eq!(client_accepted, sent);
    for c in &clients {
        assert_eq!(c.stats().settled(), c.stats().sent, "no unsettled commands");
        assert_eq!(c.stats().protocol_errors, 0);
    }

    // The conservation chain: accepted == routed, enqueued == executed.
    let ledger = server.ledger();
    assert!(ledger.holds(), "{ledger:?}");
    let outcome = server.shutdown();
    assert!(outcome.quiesce.clean(), "{:?}", outcome.quiesce);
    assert!(outcome.ledger.holds(), "{:?}", outcome.ledger);
}

/// Tight quotas: over-quota commands each get a typed `QuotaDenied` with
/// an honest retry hint; none are silently dropped; the bucketed tenant
/// does not affect its neighbor.
#[test]
fn over_quota_commands_get_typed_denials() {
    let (engine, obj) = small_engine(1, 4);
    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: 2,
            admission: AdmissionConfig {
                credit_limit: 8,
                // Tiny bucket, zero refill: exactly 12 lookup ops fit.
                quota_capacity_ops: 12,
                quota_refill_ops_per_sec: 0,
                ..Default::default()
            },
            clock: ClockSource::Virtual,
            ..Default::default()
        },
    );
    let mk_client = |server: &mut EngineServer, tenant| {
        let (server_side, client_side) = loopback_pair();
        server.attach(Box::new(server_side));
        Client::connect(client_side, tenant)
    };
    let mut greedy = mk_client(&mut server, 0);
    let mut neighbor = mk_client(&mut server, 1);

    for cycle in 0..20u64 {
        greedy.poll();
        neighbor.poll();
        // 4-op lookups: the 12-op bucket admits exactly 3 of them.
        greedy.try_send(&lookup(obj, cycle));
        // (cycle 0 stalls pre-Welcome, so gate on sent count, not cycle)
        if neighbor.stats().sent < 3 {
            neighbor.try_send(&lookup(obj, 1000 + cycle));
        }
        greedy.poll();
        neighbor.poll();
        server.pump();
    }
    server.pump_until_quiet(32);
    greedy.poll();
    neighbor.poll();

    let g = greedy.stats();
    assert_eq!(
        g.accepted, 3,
        "12-op bucket admits exactly three 4-op lookups: {g:?}"
    );
    assert!(g.quota_denied > 0);
    assert_eq!(g.settled(), g.sent, "every command settled");
    // The denial carried a retry hint (u32::MAX for a zero-refill bucket).
    assert_eq!(greedy.take_retry_hint(), Some(u32::MAX));

    // Tenant isolation: the neighbor's bucket was untouched by tenant 0.
    let n = neighbor.stats();
    assert_eq!(n.accepted, 3);
    assert_eq!(n.quota_denied, 0);

    let snap = server.snapshot();
    assert_eq!(snap.tenants[0].quota_denied, g.quota_denied);
    assert!(server.ledger().holds());
}

/// Credit windows bound outstanding commands: a client that never polls
/// responses stalls at the limit, and the server-side window never goes
/// above its bound even across regrants.
#[test]
fn credit_window_bounds_outstanding_commands() {
    let (engine, obj) = small_engine(1, 4);
    let limit = 4u32;
    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: 1,
            admission: AdmissionConfig {
                credit_limit: limit,
                quota_capacity_ops: 1 << 20,
                quota_refill_ops_per_sec: 1 << 20,
                ..Default::default()
            },
            clock: ClockSource::Virtual,
            ..Default::default()
        },
    );
    let (server_side, client_side) = loopback_pair();
    server.attach(Box::new(server_side));
    let mut c = Client::connect(client_side, 0);
    c.poll();
    server.pump();
    c.poll();
    assert_eq!(c.credits(), limit);

    // Send without consuming responses: exactly `limit` go out.
    let mut sent = 0;
    for i in 0..(limit * 3) {
        if c.try_send(&lookup(obj, i as u64)) {
            sent += 1;
        }
    }
    assert_eq!(sent, limit);
    assert_eq!(c.in_flight() as u32, limit);
    c.poll();
    server.pump();
    server.pump_until_quiet(16);
    // After settling, the full window is back — never more.
    c.poll();
    assert_eq!(c.credits(), limit);
    assert_eq!(c.stats().accepted, limit as u64);
    assert!(server.ledger().holds());
}

/// A frame whose payload is not a valid `DataCommand` gets
/// `Rejected(REJ_DECODE)` — typed, credit returned, connection lives on.
/// Records under op tags 3 and 4 are not commands either: the engine
/// executes lookup, upsert and scan only.  Point and scan payloads are
/// checked where they lie, and every malformed one is still rejected
/// before admission: the tenant's `accepted` count does not move.
#[test]
fn malformed_command_payload_is_typed_rejected() {
    let (mut engine, obj) = small_engine(1, 2);
    let fact = engine.create_column("fact");
    engine.bulk_load_column(fact, 0..1024u64);
    let mut server = EngineServer::new(engine, ServerConfig::default());
    let (server_side, mut client_side) = loopback_pair();
    let id = server.attach(Box::new(server_side));

    use eris_server::{ReqKind, RequestFrame, ResponseFrame};
    // A well-formed record under `tag` on the registered column, shaped
    // as a scan that feeds another object: header, target object, range
    // predicate [0, 512), snapshot.
    let producer = |tag: u8, target: u32| {
        let mut p = vec![tag];
        p.extend_from_slice(&fact.0.to_le_bytes());
        p.extend_from_slice(&9u64.to_le_bytes());
        p.extend_from_slice(&29u32.to_le_bytes());
        p.extend_from_slice(&target.to_le_bytes());
        p.push(1);
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(&512u64.to_le_bytes());
        p.extend_from_slice(&u64::MAX.to_le_bytes());
        p
    };
    let encoded = |cmd: DataCommand| {
        let mut p = Vec::new();
        cmd.encode(&mut p);
        p
    };
    // The payload length field and the item count of a point command.
    let (plen_at, count_at) = (1 + 4 + 8, 1 + 4 + 8 + 4);
    let set_u32 = |p: &mut Vec<u8>, at: usize, v: u32| {
        p[at..at + 4].copy_from_slice(&v.to_le_bytes());
    };
    // A point payload with bytes after its last item.
    let mut padded = encoded(lookup(obj, 7));
    let plen = u32::from_le_bytes(padded[plen_at..plen_at + 4].try_into().unwrap());
    set_u32(&mut padded, plen_at, plen + 8);
    padded.extend_from_slice(&[0u8; 8]);
    // An item count larger than its body.
    let mut overcounted = encoded(upsert(obj, 8));
    set_u32(&mut overcounted, count_at, 3);
    // A whole command, then bytes after it in the same frame.
    let mut trailing = encoded(lookup(obj, 9));
    trailing.push(0);
    let scan = encoded(DataCommand {
        object: fact,
        ticket: 10,
        payload: Payload::Scan {
            pred: Predicate::All,
            agg: Aggregate::Count,
            snapshot: 0,
        },
    });
    // The predicate (tag and two words) and the aggregate of a scan.
    let (pred_at, agg_at) = (1 + 4 + 8 + 4, 1 + 4 + 8 + 4 + 17);
    // A scan whose aggregate tag is unknown.
    let mut bad_agg = scan.clone();
    bad_agg[agg_at] = 9;
    // A scan whose predicate tag is unknown.
    let mut bad_pred = scan.clone();
    bad_pred[pred_at] = 9;
    // A scan cut inside its predicate, its length declaring the short body.
    let mut cut_pred = scan[..pred_at + 10].to_vec();
    set_u32(&mut cut_pred, plen_at, 10);
    // A scan with bytes after its snapshot, inside its declared length.
    let mut long_scan = scan.clone();
    set_u32(&mut long_scan, plen_at, (scan.len() - pred_at + 3) as u32);
    long_scan.extend_from_slice(&[0u8; 3]);
    let bad = [
        // Garbage.
        vec![0xFF; 9],
        // Tag 3 naming an index that was never registered.
        producer(3, 42),
        // Tag 4 naming an unregistered destination.
        producer(4, 43),
        padded,
        overcounted,
        trailing,
        bad_agg,
        bad_pred,
        cut_pred,
        long_scan,
    ];
    let mut bytes = Vec::new();
    RequestFrame {
        kind: ReqKind::Hello,
        tenant: 0,
        conn: 0,
        seq: 0,
        payload: vec![],
    }
    .encode(&mut bytes);
    for (seq, payload) in (1u64..).zip(&bad) {
        RequestFrame {
            kind: ReqKind::Command,
            tenant: 0,
            conn: id,
            seq,
            payload: payload.clone(),
        }
        .encode(&mut bytes);
    }
    client_side.try_write(&bytes).unwrap();
    server.pump();

    let mut resp = Vec::new();
    client_side.try_read(&mut resp).unwrap();
    let mut cur = resp.as_slice();
    let welcome = ResponseFrame::try_decode(&mut cur).unwrap().unwrap();
    assert_eq!(welcome.kind, RespKind::Welcome);
    for seq in 1..=bad.len() as u64 {
        let rej = ResponseFrame::try_decode(&mut cur).unwrap().unwrap();
        assert_eq!(
            (rej.kind, rej.code, rej.seq),
            (RespKind::Rejected, REJ_DECODE, seq)
        );
        assert_eq!(rej.credits, 1, "credit returned with reject {seq}");
    }
    let tenant = server.snapshot().tenants[0];
    assert_eq!(
        (tenant.accepted, tenant.rejected),
        (0, bad.len() as u64),
        "rejected before admission"
    );

    // The connection still works: a valid command goes through.
    let mut bytes = Vec::new();
    let next = bad.len() as u64 + 1;
    RequestFrame::command(0, id, next, &lookup(obj, 5)).encode(&mut bytes);
    client_side.try_write(&bytes).unwrap();
    server.pump();
    let mut resp = Vec::new();
    client_side.try_read(&mut resp).unwrap();
    let acc = ResponseFrame::try_decode(&mut resp.as_slice())
        .unwrap()
        .unwrap();
    assert_eq!((acc.kind, acc.seq), (RespKind::Accepted, next));
    server.pump_until_quiet(16);
    let ledger = server.ledger();
    assert!(ledger.holds(), "{ledger:?}");
}

/// A corrupt frame after a window of valid commands on a helloed
/// connection: the commands settle, the frame gets `Rejected(REJ_PROTOCOL)`
/// and the connection closes.  A malformed frame is not a command, so it
/// moves no tenant's command counts and every received command is still
/// settled.
#[test]
fn a_corrupt_frame_after_a_valid_window_settles_every_command() {
    let (engine, obj) = small_engine(1, 2);
    let mut server = EngineServer::new(engine, ServerConfig::default());
    let (server_side, mut client_side) = loopback_pair();
    let id = server.attach(Box::new(server_side));

    use eris_server::{ReqKind, RequestFrame, ResponseFrame, REJ_PROTOCOL};
    let mut bytes = Vec::new();
    RequestFrame {
        kind: ReqKind::Hello,
        tenant: 0,
        conn: 0,
        seq: 0,
        payload: vec![],
    }
    .encode(&mut bytes);
    for seq in 1..=4u64 {
        RequestFrame::command(0, id, seq, &lookup(obj, seq)).encode(&mut bytes);
    }
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    client_side.try_write(&bytes).unwrap();
    server.pump_until_quiet(16);

    let mut resp = Vec::new();
    client_side.try_read(&mut resp).unwrap();
    let mut cur = resp.as_slice();
    let mut got = Vec::new();
    while let Some(r) = ResponseFrame::try_decode(&mut cur).unwrap() {
        got.push((r.kind, r.code, r.seq));
    }
    let mut want = vec![(RespKind::Welcome, 0, 0)];
    want.extend((1..=4).map(|seq| (RespKind::Accepted, 0, seq)));
    want.push((RespKind::Rejected, REJ_PROTOCOL, 0));
    assert_eq!(got, want);
    assert_eq!(server.open_connections(), 0, "connection closed");
    let ledger = server.ledger();
    assert!(ledger.all_commands_settled, "{ledger:?}");
    assert!(ledger.holds(), "{ledger:?}");
    let snap = server.snapshot();
    assert_eq!(snap.counters.protocol_errors, 1);
    assert_eq!(snap.counters.commands_received, 4);
    assert_eq!(snap.rejected_total(), 0, "a frame is not a command");
}

#[test]
fn a_key_outside_the_domain_is_typed_rejected() {
    // One hostile frame naming a key past the index's domain used to be
    // accepted and then forwarded between AEUs forever, pinning the pump.
    // It settles as a typed routing reject; the ledger still balances.
    let (engine, obj) = small_engine(1, 2);
    let mut server = EngineServer::new(engine, ServerConfig::default());
    let (server_side, mut client_side) = loopback_pair();
    let id = server.attach(Box::new(server_side));

    use eris_server::{ReqKind, RequestFrame, ResponseFrame};
    let mut bytes = Vec::new();
    RequestFrame {
        kind: ReqKind::Hello,
        tenant: 0,
        conn: 0,
        seq: 0,
        payload: vec![],
    }
    .encode(&mut bytes);
    let hostile = [
        Payload::Lookup {
            keys: vec![7, 1 << 18],
        },
        Payload::Upsert {
            pairs: vec![(u64::MAX, 1)],
        },
    ];
    for (seq, payload) in hostile.into_iter().enumerate() {
        let cmd = DataCommand {
            object: obj,
            ticket: seq as u64,
            payload,
        };
        RequestFrame::command(0, id, seq as u64 + 1, &cmd).encode(&mut bytes);
    }
    RequestFrame::command(0, id, 3, &lookup(obj, 5)).encode(&mut bytes);
    client_side.try_write(&bytes).unwrap();
    assert!(server.pump_until_quiet(16) < 16, "nothing circulates");

    let mut resp = Vec::new();
    client_side.try_read(&mut resp).unwrap();
    let mut cur = resp.as_slice();
    let mut next = || ResponseFrame::try_decode(&mut cur).unwrap().unwrap();
    assert_eq!(next().kind, RespKind::Welcome);
    for seq in [1, 2] {
        let rej = next();
        assert_eq!(
            (rej.kind, rej.code, rej.seq),
            (RespKind::Rejected, REJ_ROUTING, seq)
        );
    }
    assert_eq!(next().kind, RespKind::Accepted, "the valid command runs");
    let ledger = server.ledger();
    assert!(ledger.holds(), "{ledger:?}");
    assert_eq!(server.snapshot().rejected_total(), 2);
}

/// Mid-traffic graceful shutdown: clients still have commands in flight
/// when the server drains; every admitted command executes, ledgers
/// balance, and every connection gets a `Goodbye`.
#[test]
fn mid_traffic_shutdown_conserves() {
    let (engine, obj) = small_engine(2, 2);
    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: 2,
            admission: AdmissionConfig {
                credit_limit: 32,
                quota_capacity_ops: 1 << 20,
                quota_refill_ops_per_sec: 1 << 20,
                ..Default::default()
            },
            clock: ClockSource::Virtual,
            ..Default::default()
        },
    );
    let mut clients: Vec<Client<PipeTransport>> = (0..4u32)
        .map(|i| {
            let (server_side, client_side) = loopback_pair();
            server.attach(Box::new(server_side));
            Client::connect(client_side, i % 2)
        })
        .collect();

    // Drive traffic but stop abruptly: in-flight commands remain.
    for cycle in 0..30u64 {
        for (i, c) in clients.iter_mut().enumerate() {
            c.poll();
            c.try_send(&upsert(obj, cycle * 16 + i as u64));
            c.poll();
        }
        server.pump();
    }
    // No pump_until_quiet: shut down with work still in the pipeline.
    let outcome = server.shutdown();
    assert!(outcome.quiesce.clean(), "{:?}", outcome.quiesce);
    assert!(outcome.quiesce.epochs >= 1);
    assert!(outcome.ledger.holds(), "{:?}", outcome.ledger);
    assert_eq!(outcome.snapshot.counters.shed_after_accept, 0);

    // Every client hears the Goodbye.
    for c in clients.iter_mut() {
        c.poll();
        assert!(c.is_done());
        assert_eq!(c.stats().goodbyes, 1);
    }
}

/// Shedding engages under an engine-side backlog watermark and every
/// shed is typed with a retry hint; nothing is silently dropped.
#[test]
fn overload_sheds_with_typed_retry_hints() {
    let (engine, obj) = small_engine(1, 2);
    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: 1,
            admission: AdmissionConfig {
                credit_limit: 64,
                quota_capacity_ops: 1 << 20,
                quota_refill_ops_per_sec: 1 << 20,
                // Shed once one sub-command is bound for the coming
                // boundary: each pump admits its first command and sheds
                // the rest of its batch.
                shed_in_flight: 1,
                shed_retry_after_ms: 25,
                ..Default::default()
            },
            clock: ClockSource::Virtual,
            ..Default::default()
        },
    );
    let (server_side, client_side) = loopback_pair();
    server.attach(Box::new(server_side));
    let mut c = Client::connect(client_side, 0);

    for cycle in 0..40u64 {
        c.poll();
        for k in 0..8u64 {
            c.try_send(&upsert(obj, cycle * 8 + k));
        }
        c.poll();
        server.pump();
    }
    server.pump_until_quiet(32);
    c.poll();

    let s = c.stats();
    assert!(s.shed > 0, "watermark must have tripped: {s:?}");
    assert!(s.accepted > 0);
    assert_eq!(s.settled(), s.sent);
    assert_eq!(c.take_retry_hint(), Some(25));
    let snap = server.snapshot();
    assert_eq!(snap.shed_total(), s.shed);
    assert!(server.ledger().holds());
}

/// Regression (trace-ledger accounting at admission): with every command
/// traced and the overload watermark forced to trip, stamps on shed
/// commands must be charged as dropped — `stamped == traced + dropped`
/// holds even though most sampled commands never reach the engine.
#[test]
fn trace_ledger_balances_under_forced_shedding() {
    let (engine, obj) = small_engine(1, 2);
    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: 1,
            admission: AdmissionConfig {
                credit_limit: 64,
                quota_capacity_ops: 1 << 20,
                quota_refill_ops_per_sec: 1 << 20,
                shed_in_flight: 1,
                shed_retry_after_ms: 25,
                ..Default::default()
            },
            clock: ClockSource::Virtual,
            trace_sample_every: 1, // stamp every command
            ..Default::default()
        },
    );
    let (server_side, client_side) = loopback_pair();
    server.attach(Box::new(server_side));
    let mut c = Client::connect(client_side, 0);

    for cycle in 0..40u64 {
        c.poll();
        for k in 0..8u64 {
            c.try_send(&upsert(obj, cycle * 8 + k));
        }
        c.poll();
        server.pump();
    }
    server.pump_until_quiet(32);
    c.poll();

    let s = c.stats();
    assert!(s.shed > 0, "watermark must have tripped: {s:?}");
    assert!(s.accepted > 0, "some commands still got through: {s:?}");
    assert!(server.ledger().holds());

    let outcome = server.shutdown();
    assert!(outcome.quiesce.clean(), "{:?}", outcome.quiesce);
    let trace = outcome.engine.telemetry().trace;
    assert_eq!(
        trace.stamped,
        trace.traced + trace.dropped,
        "trace ledger must balance under forced shedding: {trace:?}"
    );
    assert!(
        trace.dropped >= s.shed,
        "every traced shed command was charged as dropped: {trace:?} vs {s:?}"
    );
    assert!(trace.traced > 0, "accepted traced commands were recorded");
}

/// Short TCP round trip over localhost: the same protocol, admission,
/// and conservation guarantees over real sockets.
#[test]
fn tcp_round_trip_on_localhost() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (engine, obj) = small_engine(1, 2);
    let server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: 1,
            admission: AdmissionConfig::default(),
            clock: ClockSource::Host,
            ..Default::default()
        },
    );
    let tcp = TcpServer::bind("127.0.0.1:0".parse().unwrap(), server).unwrap();
    let addr = tcp.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || tcp.serve(&stop2));

    let mut c = Client::connect_tcp(addr, 0).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut sent = 0u64;
    while std::time::Instant::now() < deadline {
        c.poll();
        if c.is_welcomed() && sent < 50 && c.try_send(&lookup(obj, sent)) {
            sent += 1;
        }
        if c.stats().accepted >= 50 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let s = c.stats();
    assert_eq!(s.accepted, 50, "all 50 lookups accepted over TCP: {s:?}");
    assert_eq!(s.settled(), s.sent);
    assert_eq!(s.protocol_errors, 0);

    stop.store(true, Ordering::Relaxed);
    let outcome = handle.join().unwrap();
    assert!(outcome.quiesce.clean(), "{:?}", outcome.quiesce);
    assert!(outcome.ledger.holds(), "{:?}", outcome.ledger);
    assert_eq!(outcome.snapshot.accepted_total(), 50);
}

/// A host-clock TCP server with one client connected and its `Hello` sent
/// *before* the serve loop starts (the listener's backlog holds the
/// connection), so the loop's first pump already sees traffic.
struct Serving {
    client: Client<TcpTransport>,
    obj: DataObjectId,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<ShutdownOutcome>,
}

impl Serving {
    fn start() -> Serving {
        let (engine, obj) = small_engine(1, 2);
        let server = EngineServer::new(
            engine,
            ServerConfig {
                clock: ClockSource::Host,
                ..Default::default()
            },
        );
        let tcp = TcpServer::bind("127.0.0.1:0".parse().unwrap(), server).unwrap();
        let mut client = Client::connect_tcp(tcp.local_addr().unwrap(), 0).unwrap();
        client.poll();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || tcp.serve(&stop2));
        Serving {
            client,
            obj,
            stop,
            handle,
        }
    }

    /// Raise `stop`, join the loop, and check what every shutdown owes.
    fn stop(self) -> (ShutdownOutcome, Client<TcpTransport>) {
        self.stop.store(true, Ordering::Relaxed);
        let outcome = self.handle.join().unwrap();
        assert!(outcome.quiesce.clean(), "{:?}", outcome.quiesce);
        assert!(outcome.ledger.holds(), "{:?}", outcome.ledger);
        (outcome, self.client)
    }
}

/// One command every 100 us keeps the serve loop polling — it never
/// sleeps through traffic — and `stop` raised while it spins still
/// shuts down cleanly.
#[test]
fn a_steady_trickle_keeps_the_serve_loop_awake() {
    // The claim binds only while the *client* kept its schedule: on a
    // loaded host (the tests beside this one) it can be descheduled for
    // longer than the spin window, and then the server is right to sleep.
    // Such an attempt is repeated.
    let give_up = Instant::now() + Duration::from_secs(30);
    while Instant::now() < give_up {
        let mut s = Serving::start();
        let t0 = Instant::now();
        let (mut sent, mut last_send, mut longest_pause) = (0u64, t0, Duration::ZERO);
        while t0.elapsed() < Duration::from_millis(20) {
            s.client.poll();
            let due = t0 + Duration::from_micros(100) * sent as u32;
            if Instant::now() >= due
                && s.client.is_welcomed()
                && s.client.try_send(&lookup(s.obj, sent))
            {
                longest_pause = longest_pause.max(last_send.elapsed());
                last_send = Instant::now();
                sent += 1;
            }
        }
        longest_pause = longest_pause.max(last_send.elapsed());
        // Mid-trickle: the loop is spinning when it sees the flag.
        let (outcome, _) = s.stop();
        let counters = outcome.snapshot.counters;
        assert_eq!(
            outcome.snapshot.accepted_total(),
            counters.commands_received
        );
        if longest_pause < IdleRule::SPIN_WINDOW / 2 {
            assert!(sent > 100, "the trickle ran: {sent} commands");
            assert!(counters.serve_spins > 0, "{counters:?}");
            assert_eq!(
                counters.serve_sleeps, 0,
                "slept through traffic: {counters:?}"
            );
            return;
        }
    }
    panic!("30 s of attempts, and in each the client itself paused for half the spin window");
}

/// A connected but silent client lets the loop fall back to sleeping, so
/// an idle server does not burn a core; `stop` raised while it sleeps
/// shuts down cleanly, and the silent connection still hears `Goodbye`.
#[test]
fn silence_puts_the_serve_loop_to_sleep() {
    let mut s = Serving::start();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !s.client.is_welcomed() && Instant::now() < deadline {
        s.client.poll();
        std::thread::yield_now();
    }
    assert!(s.client.is_welcomed());
    assert!(s.client.try_send(&lookup(s.obj, 1)));
    s.client.poll();
    std::thread::sleep(Duration::from_millis(50));
    let (outcome, mut client) = s.stop();
    let counters = outcome.snapshot.counters;
    // 50 ms of silence is 49 ms past the window: ~245 sleeps of 200 us.
    assert!(counters.serve_sleeps >= 20, "{counters:?}");
    assert!(
        counters.serve_spins > 0,
        "it polled while there was traffic"
    );
    assert_eq!(outcome.snapshot.accepted_total(), 1);
    client.poll();
    assert!(client.is_done());
    assert_eq!(client.stats().goodbyes, 1);
}
