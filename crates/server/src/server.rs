//! The serving core: multiplexes framed connections into the engine's
//! per-AEU routing buffers with boundary batching.
//!
//! One [`EngineServer`] owns the [`Engine`] and a set of connections
//! behind [`Transport`]s.  Each [`pump`](EngineServer::pump) is one
//! batch cycle aligned to an AEU step boundary:
//!
//! 1. **Read + admit** — drain available bytes from every connection,
//!    parse frames, and settle each command: credit window first (an
//!    empty window *stops reading* that connection — backpressure by
//!    withholding grants, never unbounded buffering), then the overload
//!    watermark, then the tenant's token bucket, then
//!    [`Engine::submit_view`].  A command payload is checked where it
//!    lies ([`CommandRef::check`]) before admission; a point command is
//!    routed from those bytes without being decoded.
//! 2. **Boundary** — `run_epoch()`: every AEU steps once, executing the
//!    batch that was just routed.  On the host clock an epoch that would
//!    find nothing to execute is skipped; on the virtual clock it runs,
//!    because there the epoch *is* the clock.
//! 3. **Settle + flush** — credits consumed by settled commands are
//!    regranted, responses are encoded and written back.
//!
//! Every received command produces exactly one typed response —
//! `Accepted`, `Shed`, `QuotaDenied`, or `Rejected` — so the server can
//! prove "zero silent drops" from its own ledger, and `accepted ==
//! engine-routed` composes with the engine's per-object
//! enqueued-equals-executed conservation law into end-to-end
//! accepted-equals-executed.

use crate::admission::{Admission, AdmissionConfig, Admit, CreditWindow, LoadSignal};
use crate::frame::{
    ReqKind, RequestView, RespKind, ResponseFrame, REJ_DECODE, REJ_PROTOCOL, REJ_ROUTING,
    REJ_TENANT, SHED_OVERLOAD,
};
use crate::tenant::TenantCounts;
use crate::transport::Transport;
use eris_core::telemetry::bump;
use eris_core::{CommandRef, Engine, QuiesceReport};
use eris_obs::latency::LogHistogram;
use eris_obs::{
    render_jsonl, render_prometheus, HistogramFamily, Metric, MetricKind, Phase, SloConfig,
    SloEngine, SloTotals, TraceStamp,
};

/// Where the admission clock comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockSource {
    /// The engine's virtual clock — deterministic; token-bucket refill
    /// advances exactly with simulated epochs (tier-1 tests, bench).
    Virtual,
    /// The process-wide monotonic host clock (TCP serving).
    Host,
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of tenants; frames naming a tenant outside `0..tenants`
    /// are rejected.
    pub tenants: u32,
    pub admission: AdmissionConfig,
    pub clock: ClockSource,
    /// Trace one in N commands end to end (0 disables serving-side
    /// tracing).  A sampled command carries a [`TraceStamp`] born at
    /// frame decode — identity `(tenant, conn, seq)` plus the
    /// network-queue and admission spans — to the executing AEU.  A
    /// sampled command dropped at admission (shed, quota-denied,
    /// rejected) is charged to the engine's trace ledger so
    /// `stamped == traced + dropped` holds under overload.
    pub trace_sample_every: u32,
    /// Per-tenant SLO objectives and burn-rate windows.
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tenants: 1,
            admission: AdmissionConfig::default(),
            clock: ClockSource::Virtual,
            trace_sample_every: 64,
            slo: SloConfig::default(),
        }
    }
}

/// A response settled in phase 1, flushed in phase 3 (after the epoch
/// boundary, so credit regrants really are "after the batch executed").
struct PendingResponse {
    kind: RespKind,
    code: u8,
    seq: u64,
    retry_after_ms: u32,
    /// Credits to return to the window when this response flushes.
    regrant: u32,
}

struct Conn {
    id: u32,
    tenant: Option<u32>,
    transport: Box<dyn Transport>,
    credits: CreditWindow,
    /// Reassembly buffer of not-yet-parsed request bytes.
    inbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the transport.
    outbuf: Vec<u8>,
    pending: Vec<PendingResponse>,
    /// Arrival stamp of the oldest unparsed byte (network-queue wait).
    inbuf_since_ns: Option<u64>,
    /// The AEU this connection submits through (round-robin pinned).
    via: eris_core::AeuId,
    closing: bool,
}

/// Whole-server counters (single-writer: the serving loop).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    pub frames_received: u64,
    pub commands_received: u64,
    pub responses_sent: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub protocol_errors: u64,
    pub connections_opened: u64,
    pub connections_closed: u64,
    /// Commands admitted whose execution was later abandoned.  The
    /// design makes this impossible (admission settles before the
    /// boundary; the engine's conservation law covers everything after
    /// routing), so this stays 0 — exported so the claim is auditable.
    pub shed_after_accept: u64,
    /// Iterations of [`TcpServer::serve`](crate::TcpServer::serve) that
    /// went straight on to the next pump, and that slept first.
    pub serve_spins: u64,
    pub serve_sleeps: u64,
}

/// What one pump cycle did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpReport {
    pub frames: u64,
    pub commands: u64,
    pub accepted: u64,
    pub shed: u64,
    pub quota_denied: u64,
    pub rejected: u64,
    /// Connections that had parsable frames waiting but an exhausted
    /// credit window (reading was withheld).
    pub stalled_conns: u64,
    /// Virtual duration of the cycle's epoch; 0 when the epoch was skipped
    /// (host clock, nothing to execute).
    pub epoch_duration_ns: f64,
}

/// Point-in-time view of the serving layer's telemetry.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    pub tenants: Vec<TenantCounts>,
    pub counters: ServerCounters,
    /// Network-queue wait histograms (frame arrival to engine submit),
    /// one per tenant.
    pub net_wait: Vec<LogHistogram>,
    pub open_connections: u64,
    /// Per-tenant SLO burn-rate gauges, rendered at snapshot time
    /// (`eris_slo_burn_rate{tenant,objective,window}` and friends).
    pub slo_metrics: Vec<Metric>,
}

/// The serving layer's own conservation ledger, combined with the
/// engine's: proves `accepted == executed` and `shed-after-accept == 0`.
#[derive(Debug, Clone, Copy)]
pub struct ServingLedger {
    /// Commands admitted and routed by the server.
    pub accepted: u64,
    /// Commands the engine's routing layer counted (`commands_routed`).
    pub engine_routed: u64,
    /// Per-object enqueued == executed across every data object.
    pub engine_conservation_ok: bool,
    pub shed_after_accept: u64,
    /// Every received command was answered: `commands_received ==
    /// accepted + shed + quota_denied + rejected`.
    pub all_commands_settled: bool,
}

impl ServingLedger {
    /// The end-to-end conservation claim of the serving layer.
    pub fn holds(&self) -> bool {
        self.accepted == self.engine_routed
            && self.engine_conservation_ok
            && self.shed_after_accept == 0
            && self.all_commands_settled
    }
}

impl ServerSnapshot {
    pub fn accepted_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.accepted).sum()
    }

    pub fn shed_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    pub fn quota_denied_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.quota_denied).sum()
    }

    pub fn rejected_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected).sum()
    }

    pub fn credits_stalled_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.credits_stalled).sum()
    }

    /// The serving layer's metric families (per-tenant admission
    /// counters, whole-server counters, network-queue wait histograms),
    /// ready for the Prometheus/JSONL renderers.
    pub fn to_metrics(&self) -> Vec<Metric> {
        let mut accepted = Metric::new(
            "eris_server_accepted_total",
            "Commands admitted and routed into the engine, per tenant.",
            MetricKind::Counter,
        );
        let mut shed = Metric::new(
            "eris_server_shed_total",
            "Commands shed by the overload watermark, per tenant.",
            MetricKind::Counter,
        );
        let mut quota = Metric::new(
            "eris_server_quota_denied_total",
            "Commands denied by the tenant token bucket, per tenant.",
            MetricKind::Counter,
        );
        let mut stalled = Metric::new(
            "eris_server_credits_stalled_total",
            "Pump cycles a connection was stalled on an empty credit window, per tenant.",
            MetricKind::Counter,
        );
        let mut rejected = Metric::new(
            "eris_server_rejected_total",
            "Commands answered with a typed reject, per tenant.",
            MetricKind::Counter,
        );
        for t in &self.tenants {
            let id = t.tenant.to_string();
            let l: &[(&str, &str)] = &[("tenant", &id)];
            accepted = accepted.sample(l, t.accepted as f64);
            shed = shed.sample(l, t.shed as f64);
            quota = quota.sample(l, t.quota_denied as f64);
            stalled = stalled.sample(l, t.credits_stalled as f64);
            rejected = rejected.sample(l, t.rejected as f64);
        }
        let c = &self.counters;
        let mut metrics = vec![
            accepted,
            shed,
            quota,
            stalled,
            rejected,
            Metric::new(
                "eris_server_frames_received_total",
                "Request frames parsed off connections.",
                MetricKind::Counter,
            )
            .sample(&[], c.frames_received as f64),
            Metric::new(
                "eris_server_responses_sent_total",
                "Response frames flushed to connections.",
                MetricKind::Counter,
            )
            .sample(&[], c.responses_sent as f64),
            Metric::new(
                "eris_server_bytes_read_total",
                "Bytes read from transports.",
                MetricKind::Counter,
            )
            .sample(&[], c.bytes_read as f64),
            Metric::new(
                "eris_server_bytes_written_total",
                "Bytes written to transports.",
                MetricKind::Counter,
            )
            .sample(&[], c.bytes_written as f64),
            Metric::new(
                "eris_server_protocol_errors_total",
                "Connections rejected for frame-protocol violations.",
                MetricKind::Counter,
            )
            .sample(&[], c.protocol_errors as f64),
            Metric::new(
                "eris_server_shed_after_accept_total",
                "Admitted commands later abandoned (must stay 0).",
                MetricKind::Counter,
            )
            .sample(&[], c.shed_after_accept as f64),
            Metric::new(
                "eris_server_open_connections",
                "Currently attached connections.",
                MetricKind::Gauge,
            )
            .sample(&[], self.open_connections as f64),
        ];
        let mut wait = HistogramFamily::new(
            "eris_server_net_queue_wait_ns",
            "Network-queue wait from frame arrival to engine submit",
        );
        for (t, h) in self.net_wait.iter().enumerate() {
            let id = t.to_string();
            wait.observe(&[("tenant", &id)], h);
        }
        metrics.extend(wait.into_metrics());
        metrics.extend(self.slo_metrics.iter().cloned());
        metrics
    }

    pub fn to_prometheus(&self) -> String {
        render_prometheus(&self.to_metrics())
    }

    pub fn to_jsonl(&self, at_ns: u64) -> String {
        render_jsonl(&self.to_metrics(), at_ns)
    }
}

/// Outcome of a graceful [`EngineServer::shutdown`].
pub struct ShutdownOutcome {
    pub quiesce: QuiesceReport,
    pub snapshot: ServerSnapshot,
    pub ledger: ServingLedger,
    /// The engine, handed back for post-mortem inspection.
    pub engine: Engine,
}

/// The serving layer around one engine.
pub struct EngineServer {
    engine: Engine,
    cfg: ServerConfig,
    admission: Admission,
    conns: Vec<Option<Conn>>,
    counters: ServerCounters,
    net_wait: Vec<LogHistogram>,
    slo: SloEngine,
    /// When the burn-rate tracker is next due a sample (admission clock).
    slo_due_ns: u64,
    /// Commands seen by the 1-in-N trace sampler.
    trace_seq: u64,
}

impl EngineServer {
    pub fn new(engine: Engine, cfg: ServerConfig) -> Self {
        let admission = Admission::new(cfg.admission.clone(), cfg.tenants);
        let net_wait = (0..cfg.tenants).map(|_| LogHistogram::default()).collect();
        let slo = SloEngine::new(cfg.slo.clone());
        EngineServer {
            engine,
            cfg,
            admission,
            conns: Vec::new(),
            counters: ServerCounters::default(),
            net_wait,
            slo,
            slo_due_ns: 0,
            trace_seq: 0,
        }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The per-tenant SLO burn-rate tracker, fed once per
    /// [`SloEngine::quantum_ns`] of the admission clock and at every
    /// [`EngineServer::snapshot`].
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The admission clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match self.cfg.clock {
            ClockSource::Virtual => self.engine.clock().now_ns() as u64,
            ClockSource::Host => eris_obs::now_ns(),
        }
    }

    /// Attach a connection; returns its id.  The connection stays
    /// un-helloed (commands rejected) until a `Hello` frame names its
    /// tenant.
    pub fn attach(&mut self, transport: Box<dyn Transport>) -> u32 {
        let id = self.conns.len() as u32;
        let via = eris_core::AeuId(id % self.engine.num_aeus() as u32);
        self.conns.push(Some(Conn {
            id,
            tenant: None,
            transport,
            credits: CreditWindow::new(self.cfg.admission.credit_limit),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            pending: Vec::new(),
            inbuf_since_ns: None,
            via,
            closing: false,
        }));
        self.counters.connections_opened += 1;
        id
    }

    pub fn open_connections(&self) -> u64 {
        self.conns.iter().flatten().count() as u64
    }

    pub(crate) fn counters_mut(&mut self) -> &mut ServerCounters {
        &mut self.counters
    }

    /// One batch cycle: read + admit, epoch boundary, settle + flush.
    pub fn pump(&mut self) -> PumpReport {
        let mut report = PumpReport::default();
        let now = self.now_ns();
        let (pending_bytes, capacity) = self.engine.incoming_occupancy();
        let load = LoadSignal {
            occupancy: pending_bytes as f64 / capacity.max(1) as f64,
            in_flight: self.engine.in_flight_commands(),
        };

        // Phase 1: read and admit, bounded by each connection's window.
        // Wall time is charged as `read_admit` to the profiler of the
        // AEU each connection submits through.
        let mut mark = eris_obs::now_ns();
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            self.read_and_admit(&mut conn, now, load, &mut report);
            mark = self.charge_phase(conn.via, Phase::ReadAdmit, mark);
            self.conns[slot] = Some(conn);
        }

        // Phase 2: the AEU step boundary executes the admitted batch.  A
        // wall-clock server skips a boundary with nothing on either side
        // of it; the virtual clock only moves when epochs run.
        if self.cfg.clock == ClockSource::Virtual || !self.engine.is_idle() {
            report.epoch_duration_ns = self.engine.run_epoch().duration_ns;
            mark = eris_obs::now_ns();
        }

        // Phase 3: settle responses (regrants happen here, after the
        // boundary) and flush transports.  Charged as `flush`.
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            self.settle_and_flush(&mut conn);
            mark = self.charge_phase(conn.via, Phase::Flush, mark);
            let dead = !conn.transport.is_open() && conn.inbuf.is_empty();
            if (conn.closing && conn.outbuf.is_empty()) || dead {
                conn.transport.close();
                self.counters.connections_closed += 1;
            } else {
                self.conns[slot] = Some(conn);
            }
        }
        if now >= self.slo_due_ns && self.observe_slo(now) {
            self.slo_due_ns = now + self.slo.quantum_ns();
        }
        report
    }

    /// Charge the wall time since `mark` to `phase` on the profiler of
    /// AEU `via`; returns the new mark.
    fn charge_phase(&self, via: eris_core::AeuId, phase: Phase, mark: u64) -> u64 {
        let now = eris_obs::now_ns();
        self.engine
            .telemetry_shard(via)
            .profiler
            .add(phase, now.saturating_sub(mark));
        now
    }

    /// Feed the burn-rate tracker one observation per tenant that has
    /// received a verdict; returns whether any had.  Admission verdicts
    /// give the request and error totals; the engine's per-tenant
    /// full-path histograms give the bad-latency count, scaled by the
    /// sampling rate (only 1-in-N commands are traced) and clamped so the
    /// estimated bad fraction stays ≤ 1.
    fn observe_slo(&self, now: u64) -> bool {
        let threshold = self.slo.config().latency_threshold_ns;
        let scale = self.cfg.trace_sample_every.max(1) as u64;
        let tenant_full = self.engine.latency().tenant_snapshot();
        let mut observed = false;
        for t in self.admission.counts() {
            let errors = t.shed + t.quota_denied + t.rejected;
            let requests = t.accepted + errors;
            if requests == 0 {
                continue;
            }
            let bad_latency = tenant_full
                .iter()
                .find(|(id, _)| *id == t.tenant)
                .map(|(_, h)| (h.count_over(threshold) * scale).min(requests))
                .unwrap_or(0);
            self.slo.observe(
                t.tenant,
                now,
                SloTotals {
                    requests,
                    bad_latency,
                    errors,
                },
            );
            observed = true;
        }
        observed
    }

    /// 1-in-N serving-side trace sampling decision.
    fn trace_sampled(&mut self) -> bool {
        let every = self.cfg.trace_sample_every as u64;
        if every == 0 {
            return false;
        }
        let hit = self.trace_seq.is_multiple_of(every);
        self.trace_seq += 1;
        hit
    }

    /// A sampled command dropped before routing (shed, quota-denied, or
    /// rejected): charge the engine's trace ledger so
    /// `stamped == traced + dropped` stays balanced under overload.
    fn trace_drop(&self) {
        let lat = self.engine.latency();
        lat.on_stamped();
        lat.on_dropped(1);
    }

    fn read_and_admit(
        &mut self,
        conn: &mut Conn,
        now: u64,
        load: LoadSignal,
        report: &mut PumpReport,
    ) {
        let was_empty = conn.inbuf.is_empty();
        match conn.transport.try_read(&mut conn.inbuf) {
            Ok(n) => {
                self.counters.bytes_read += n as u64;
                if was_empty && n > 0 {
                    conn.inbuf_since_ns = Some(now);
                }
            }
            Err(_) => {
                conn.closing = true;
            }
        }
        // One pass over the buffered frames — payloads decoded where they
        // lie — and one drain of what the pass consumed.
        let inbuf = std::mem::take(&mut conn.inbuf);
        let mut cur = inbuf.as_slice();
        while !conn.closing {
            let mut next = cur;
            match RequestView::try_decode(&mut next) {
                Ok(None) => break,
                Err(_) => {
                    // A malformed frame is not a command: it is answered,
                    // but charged to no tenant's command ledger.
                    self.counters.protocol_errors += 1;
                    report.rejected += 1;
                    conn.pending.push(PendingResponse {
                        kind: RespKind::Rejected,
                        code: REJ_PROTOCOL,
                        seq: 0,
                        retry_after_ms: 0,
                        regrant: 0,
                    });
                    // Nothing after a malformed frame can be trusted.
                    cur = &[];
                    conn.closing = true;
                }
                Ok(Some(frame)) => {
                    if frame.kind == ReqKind::Command && !conn.credits.try_consume() {
                        // Window empty: withhold — leave the frame in
                        // the buffer and stop reading this connection.
                        if let Some(s) = conn.tenant.and_then(|t| self.admission.shard(t)) {
                            // ordering: the serving loop is the one writer.
                            bump(&s.credits_stalled, 1);
                        }
                        report.stalled_conns += 1;
                        break;
                    }
                    cur = next;
                    self.counters.frames_received += 1;
                    report.frames += 1;
                    self.handle_frame(conn, frame, now, load, report);
                }
            }
        }
        let consumed = inbuf.len() - cur.len();
        conn.inbuf = inbuf;
        conn.inbuf.drain(..consumed);
        if conn.inbuf.is_empty() {
            conn.inbuf_since_ns = None;
        } else if conn.inbuf_since_ns.is_none() {
            conn.inbuf_since_ns = Some(now);
        }
    }

    fn handle_frame(
        &mut self,
        conn: &mut Conn,
        frame: RequestView<'_>,
        now: u64,
        load: LoadSignal,
        report: &mut PumpReport,
    ) {
        match frame.kind {
            ReqKind::Hello => {
                if frame.tenant >= self.cfg.tenants {
                    self.counters.protocol_errors += 1;
                    conn.pending.push(PendingResponse {
                        kind: RespKind::Rejected,
                        code: REJ_PROTOCOL,
                        seq: frame.seq,
                        retry_after_ms: 0,
                        regrant: 0,
                    });
                    conn.closing = true;
                    return;
                }
                conn.tenant = Some(frame.tenant);
                conn.pending.push(PendingResponse {
                    kind: RespKind::Welcome,
                    code: 0,
                    seq: frame.seq,
                    retry_after_ms: 0,
                    regrant: 0,
                });
            }
            ReqKind::Bye => {
                conn.pending.push(PendingResponse {
                    kind: RespKind::Goodbye,
                    code: 0,
                    seq: frame.seq,
                    retry_after_ms: 0,
                    regrant: 0,
                });
                conn.closing = true;
            }
            ReqKind::Command => {
                self.counters.commands_received += 1;
                report.commands += 1;
                // The trace decision is made the moment the command frame
                // is seen, so every later verdict — including rejects —
                // accounts for the stamp.
                let sampled = self.trace_sampled();
                let reject = |conn: &mut Conn, code: u8, seq: u64| {
                    conn.pending.push(PendingResponse {
                        kind: RespKind::Rejected,
                        code,
                        seq,
                        retry_after_ms: 0,
                        regrant: 1,
                    });
                };
                let Some(tenant) = conn.tenant else {
                    // Commands before Hello are a protocol violation.
                    self.counters.protocol_errors += 1;
                    if sampled {
                        self.trace_drop();
                    }
                    reject(conn, REJ_PROTOCOL, frame.seq);
                    return;
                };
                if frame.conn != conn.id {
                    self.counters.protocol_errors += 1;
                    if let Some(s) = self.admission.shard(tenant) {
                        // ordering: the serving loop is the one writer.
                        bump(&s.rejected, 1);
                    }
                    report.rejected += 1;
                    if sampled {
                        self.trace_drop();
                    }
                    reject(conn, REJ_PROTOCOL, frame.seq);
                    return;
                }
                // Exactly one command, or a typed reject before admission.
                let cmd = match CommandRef::check(frame.payload) {
                    Ok(cmd) => cmd,
                    Err(_) => {
                        if let Some(s) = self.admission.shard(tenant) {
                            // ordering: the serving loop is the one writer.
                            bump(&s.rejected, 1);
                        }
                        report.rejected += 1;
                        if sampled {
                            self.trace_drop();
                        }
                        reject(conn, REJ_DECODE, frame.seq);
                        return;
                    }
                };
                // Span: network-queue wait, from the arrival of the
                // oldest unparsed byte to now (admission clock domain).
                let net_ns = now.saturating_sub(conn.inbuf_since_ns.unwrap_or(now));
                let ops = cmd.op_count().max(1).min(u32::MAX as u64) as u32;
                // Span: the admission verdict itself, in host wall time
                // (the virtual clock does not advance inside a pump) —
                // clamped to ≥ 1 ns so a traced verdict is never
                // indistinguishable from "not measured".  Only a sampled
                // command pays for the clock reads.
                let admit_t0 = if sampled { eris_obs::now_ns() } else { 0 };
                let verdict = self.admission.admit(tenant, ops, now, load);
                let stamp = sampled.then(|| {
                    let submit_ns = eris_obs::now_ns();
                    let admit_ns = submit_ns.saturating_sub(admit_t0).max(1);
                    TraceStamp {
                        submit_ns,
                        hops: 0,
                        tenant,
                        conn: conn.id,
                        seq: frame.seq,
                        net_ns: net_ns.min(u32::MAX as u64) as u32,
                        admit_ns: admit_ns.min(u32::MAX as u64) as u32,
                    }
                });
                match verdict {
                    Admit::Overloaded { retry_after_ms } => {
                        report.shed += 1;
                        if sampled {
                            self.trace_drop();
                        }
                        conn.pending.push(PendingResponse {
                            kind: RespKind::Shed,
                            code: SHED_OVERLOAD,
                            seq: frame.seq,
                            retry_after_ms,
                            regrant: 1,
                        });
                    }
                    Admit::QuotaDenied { retry_after_ms } => {
                        report.quota_denied += 1;
                        if sampled {
                            self.trace_drop();
                        }
                        conn.pending.push(PendingResponse {
                            kind: RespKind::QuotaDenied,
                            code: 0,
                            seq: frame.seq,
                            retry_after_ms,
                            regrant: 1,
                        });
                    }
                    Admit::UnknownTenant => {
                        // Unreachable through the normal handshake (Hello
                        // validated the id), but admission is total:
                        // answer like any other protocol violation.
                        self.counters.protocol_errors += 1;
                        report.rejected += 1;
                        if sampled {
                            self.trace_drop();
                        }
                        reject(conn, REJ_TENANT, frame.seq);
                    }
                    Admit::Granted => {
                        match self.engine.submit_view(conn.via, cmd, stamp) {
                            Ok(()) => {
                                report.accepted += 1;
                                self.net_wait[tenant as usize].record(net_ns);
                                conn.pending.push(PendingResponse {
                                    kind: RespKind::Accepted,
                                    code: 0,
                                    seq: frame.seq,
                                    retry_after_ms: 0,
                                    regrant: 1,
                                });
                            }
                            Err(_) => {
                                // Admitted but unroutable: settle as a typed
                                // reject and undo the `accepted` bump so the
                                // ledger stays `accepted == routed`.  Routing
                                // errors charge nothing to the trace ledger
                                // themselves, so the dropped stamp is
                                // accounted here.
                                self.admission.unaccept(tenant);
                                report.rejected += 1;
                                if sampled {
                                    self.trace_drop();
                                }
                                reject(conn, REJ_ROUTING, frame.seq);
                            }
                        }
                    }
                }
            }
        }
    }

    fn settle_and_flush(&mut self, conn: &mut Conn) {
        for p in conn.pending.drain(..) {
            let credits = match p.kind {
                RespKind::Welcome => conn.credits.limit(),
                _ if p.regrant > 0 => conn.credits.regrant(p.regrant),
                _ => 0,
            };
            ResponseFrame {
                kind: p.kind,
                code: p.code,
                conn: conn.id,
                seq: p.seq,
                credits,
                retry_after_ms: p.retry_after_ms,
            }
            .encode(&mut conn.outbuf);
            self.counters.responses_sent += 1;
        }
        if !conn.outbuf.is_empty() {
            match conn.transport.try_write(&conn.outbuf) {
                Ok(n) => {
                    conn.outbuf.drain(..n);
                    self.counters.bytes_written += n as u64;
                }
                Err(_) => conn.closing = true,
            }
        }
    }

    /// Pump until a full cycle moves no frames and the engine reports
    /// nothing in flight (or `max_pumps` elapses).  Returns the number
    /// of pumps run.
    pub fn pump_until_quiet(&mut self, max_pumps: usize) -> usize {
        for i in 0..max_pumps {
            let r = self.pump();
            if r.frames == 0 && self.engine.in_flight_commands() == 0 {
                return i + 1;
            }
        }
        max_pumps
    }

    pub fn snapshot(&self) -> ServerSnapshot {
        // Between pumps' quantum-spaced samples: make the export current.
        let now = self.now_ns();
        self.observe_slo(now);
        ServerSnapshot {
            tenants: self.admission.counts(),
            counters: self.counters,
            net_wait: self.net_wait.clone(),
            open_connections: self.open_connections(),
            slo_metrics: self.slo.to_metrics(now),
        }
    }

    /// The combined serving + engine conservation ledger.
    pub fn ledger(&self) -> ServingLedger {
        let snap = self.snapshot();
        let engine_tel = self.engine.telemetry();
        let settled = snap.accepted_total()
            + snap.shed_total()
            + snap.quota_denied_total()
            + snap.rejected_total();
        ServingLedger {
            accepted: snap.accepted_total(),
            engine_routed: engine_tel.totals.commands_routed,
            engine_conservation_ok: engine_tel.conservation_holds(),
            shed_after_accept: self.counters.shed_after_accept,
            all_commands_settled: settled == self.counters.commands_received,
        }
    }

    /// Graceful stop: answer every connection with `Goodbye`, flush,
    /// then [`Engine::drain_and_quiesce`] — commands already admitted
    /// execute to completion; nothing new is read.  The returned ledger
    /// is the mid-traffic-shutdown conservation proof.
    pub fn shutdown(mut self) -> ShutdownOutcome {
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            conn.pending.push(PendingResponse {
                kind: RespKind::Goodbye,
                code: 0,
                seq: 0,
                retry_after_ms: 0,
                regrant: 0,
            });
            self.settle_and_flush(&mut conn);
            conn.transport.close();
            self.counters.connections_closed += 1;
        }
        let quiesce = self.engine.drain_and_quiesce();
        let ledger = self.ledger();
        let snapshot = self.snapshot();
        ShutdownOutcome {
            quiesce,
            snapshot,
            ledger,
            engine: self.engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::RequestFrame;
    use crate::transport::loopback_pair;
    use eris_core::prelude::*;
    use eris_numa::machines::custom_machine;

    fn small_engine() -> (Engine, DataObjectId) {
        let cfg = EngineConfig {
            balancer: BalancerConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Engine::new(custom_machine("t", 1, 4, 20.0, 100.0, 10.0, 60.0), cfg);
        let obj = engine.create_index("kv", 1 << 16);
        engine.bulk_load_index(obj, (0..1000u64).map(|k| (k * 64, k)));
        (engine, obj)
    }

    #[test]
    fn hello_then_command_is_accepted() {
        let (engine, obj) = small_engine();
        let mut server = EngineServer::new(engine, ServerConfig::default());
        let (server_side, mut client_side) = loopback_pair();
        let id = server.attach(Box::new(server_side));

        let mut bytes = Vec::new();
        RequestFrame {
            kind: ReqKind::Hello,
            tenant: 0,
            conn: 0,
            seq: 0,
            payload: vec![],
        }
        .encode(&mut bytes);
        client_side.try_write(&bytes).unwrap();
        server.pump();

        let mut resp = Vec::new();
        client_side.try_read(&mut resp).unwrap();
        let welcome = ResponseFrame::try_decode(&mut resp.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(welcome.kind, RespKind::Welcome);
        assert_eq!(welcome.conn, id);
        assert_eq!(welcome.credits, server.config().admission.credit_limit);

        let cmd = DataCommand {
            object: obj,
            ticket: 1,
            payload: Payload::Lookup { keys: vec![64] },
        };
        let mut bytes = Vec::new();
        RequestFrame::command(0, id, 1, &cmd).encode(&mut bytes);
        client_side.try_write(&bytes).unwrap();
        server.pump();

        let mut resp = Vec::new();
        client_side.try_read(&mut resp).unwrap();
        let acc = ResponseFrame::try_decode(&mut resp.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(acc.kind, RespKind::Accepted);
        assert_eq!(acc.seq, 1);
        assert_eq!(acc.credits, 1);
        // Conservation is a drained-state claim: in-flight sub-commands
        // sit in the double buffers until later epochs execute them.
        server.pump_until_quiet(16);
        let l = server.ledger();
        assert!(l.holds(), "{l:?}");
    }

    #[test]
    fn sampled_command_resolves_to_a_full_path_trace() {
        let (engine, obj) = small_engine();
        let cfg = ServerConfig {
            trace_sample_every: 1, // trace everything
            ..Default::default()
        };
        let mut server = EngineServer::new(engine, cfg);
        let (server_side, mut client_side) = loopback_pair();
        let id = server.attach(Box::new(server_side));

        let mut bytes = Vec::new();
        RequestFrame {
            kind: ReqKind::Hello,
            tenant: 0,
            conn: 0,
            seq: 0,
            payload: vec![],
        }
        .encode(&mut bytes);
        for seq in 1..=8u64 {
            let cmd = DataCommand {
                object: obj,
                ticket: seq,
                payload: Payload::Lookup {
                    keys: vec![(seq % 1000) * 64],
                },
            };
            RequestFrame::command(0, id, seq, &cmd).encode(&mut bytes);
        }
        client_side.try_write(&bytes).unwrap();
        server.pump_until_quiet(32);

        let tel = server.engine().telemetry();
        assert_eq!(
            tel.trace.stamped,
            tel.trace.traced + tel.trace.dropped,
            "trace ledger balanced: {:?}",
            tel.trace
        );
        assert!(
            tel.trace.traced >= 1,
            "at least one command executed traced"
        );
        assert!(
            tel.tenant_latency
                .iter()
                .any(|(t, h)| *t == 0 && h.count > 0),
            "tenant 0 has a full-path latency histogram"
        );
        let ex = tel
            .exemplars
            .iter()
            .flatten()
            .find(|e| e.tenant == 0)
            .expect("a bucket exemplar for tenant 0");
        assert!(ex.admit_ns > 0, "admission span measured: {ex:?}");
        assert!(ex.trace_id != 0, "exemplar carries a trace id");
        assert!(
            ex.total_ns >= ex.net_ns + ex.admit_ns,
            "span breakdown is consistent: {ex:?}"
        );
    }

    #[test]
    fn garbage_bytes_get_a_typed_reject_and_a_close() {
        let (engine, _) = small_engine();
        let mut server = EngineServer::new(engine, ServerConfig::default());
        let (server_side, mut client_side) = loopback_pair();
        server.attach(Box::new(server_side));
        client_side.try_write(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        server.pump();
        let mut resp = Vec::new();
        client_side.try_read(&mut resp).unwrap();
        let r = ResponseFrame::try_decode(&mut resp.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(r.kind, RespKind::Rejected);
        assert_eq!(r.code, REJ_PROTOCOL);
        assert_eq!(server.snapshot().counters.protocol_errors, 1);
        assert_eq!(server.open_connections(), 0, "connection reaped");
    }

    #[test]
    fn command_before_hello_is_rejected_not_dropped() {
        let (engine, obj) = small_engine();
        let mut server = EngineServer::new(engine, ServerConfig::default());
        let (server_side, mut client_side) = loopback_pair();
        let id = server.attach(Box::new(server_side));
        let cmd = DataCommand {
            object: obj,
            ticket: 1,
            payload: Payload::Lookup { keys: vec![0] },
        };
        let mut bytes = Vec::new();
        RequestFrame::command(0, id, 9, &cmd).encode(&mut bytes);
        client_side.try_write(&bytes).unwrap();
        server.pump();
        let mut resp = Vec::new();
        client_side.try_read(&mut resp).unwrap();
        let r = ResponseFrame::try_decode(&mut resp.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(
            (r.kind, r.code, r.seq),
            (RespKind::Rejected, REJ_PROTOCOL, 9)
        );
        // The credit consumed by the read was returned with the reject.
        assert_eq!(r.credits, 1);
    }

    /// A server with one helloed loopback connection; returns the client
    /// end and the connection id.
    fn helloed(
        cfg: ServerConfig,
    ) -> (
        EngineServer,
        crate::transport::PipeTransport,
        u32,
        DataObjectId,
    ) {
        let (engine, obj) = small_engine();
        let mut server = EngineServer::new(engine, cfg);
        let (server_side, mut client_side) = loopback_pair();
        let id = server.attach(Box::new(server_side));
        let mut bytes = Vec::new();
        RequestFrame {
            kind: ReqKind::Hello,
            tenant: 0,
            conn: 0,
            seq: 0,
            payload: vec![],
        }
        .encode(&mut bytes);
        client_side.try_write(&bytes).unwrap();
        server.pump();
        assert_eq!(responses(&mut client_side)[0].kind, RespKind::Welcome);
        (server, client_side, id, obj)
    }

    fn command_bytes(obj: DataObjectId, id: u32, seq: u64) -> Vec<u8> {
        let cmd = DataCommand {
            object: obj,
            ticket: seq,
            payload: Payload::Lookup {
                keys: vec![seq * 64],
            },
        };
        let mut bytes = Vec::new();
        RequestFrame::command(0, id, seq, &cmd).encode(&mut bytes);
        bytes
    }

    /// Every response waiting on the client end.
    fn responses(client_side: &mut impl Transport) -> Vec<ResponseFrame> {
        let mut bytes = Vec::new();
        client_side.try_read(&mut bytes).unwrap();
        let mut cur = bytes.as_slice();
        let mut out = Vec::new();
        while let Some(r) = ResponseFrame::try_decode(&mut cur).unwrap() {
            out.push(r);
        }
        assert!(cur.is_empty(), "whole responses only");
        out
    }

    #[test]
    fn a_full_window_in_one_read_is_admitted_in_one_pass() {
        let (mut server, mut client_side, id, obj) = helloed(ServerConfig::default());
        let window = server.config().admission.credit_limit as u64;
        assert_eq!(window, 64);
        let bytes: Vec<u8> = (1..=window)
            .flat_map(|seq| command_bytes(obj, id, seq))
            .collect();
        client_side.try_write(&bytes).unwrap();
        let r = server.pump();
        assert_eq!((r.frames, r.commands, r.accepted), (window, window, window));
        let got = responses(&mut client_side);
        let seqs: Vec<u64> = got.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=window).collect::<Vec<_>>(), "in arrival order");
        assert!(got.iter().all(|r| r.kind == RespKind::Accepted));
        server.pump_until_quiet(16);
        assert!(server.ledger().holds());
    }

    #[test]
    fn a_frame_split_across_two_reads_keeps_its_partial_tail() {
        let (mut server, mut client_side, id, obj) = helloed(ServerConfig::default());
        let bytes: Vec<u8> = (1..=3)
            .flat_map(|seq| command_bytes(obj, id, seq))
            .collect();
        let frame = bytes.len() / 3;
        // One and a half frames, then the rest but the last byte, then it.
        let cuts = [0, frame + frame / 2, bytes.len() - 1, bytes.len()];
        let mut accepted = Vec::new();
        for w in cuts.windows(2) {
            client_side.try_write(&bytes[w[0]..w[1]]).unwrap();
            accepted.push(server.pump().accepted);
            assert_eq!(server.snapshot().counters.protocol_errors, 0);
        }
        assert_eq!(accepted, [1, 1, 1], "a frame is admitted once it is whole");
        let seqs: Vec<u64> = responses(&mut client_side).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
    }

    #[test]
    fn a_credit_stalled_frame_waits_in_the_buffer_for_the_regrant() {
        let cfg = ServerConfig {
            admission: AdmissionConfig {
                credit_limit: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let (mut server, mut client_side, id, obj) = helloed(cfg);
        // Three commands against a window of two, and half of a fourth.
        let mut bytes: Vec<u8> = (1..=3)
            .flat_map(|seq| command_bytes(obj, id, seq))
            .collect();
        let fourth = command_bytes(obj, id, 4);
        bytes.extend_from_slice(&fourth[..fourth.len() / 2]);
        client_side.try_write(&bytes).unwrap();
        let r = server.pump();
        assert_eq!(
            (r.accepted, r.stalled_conns),
            (2, 1),
            "the third is withheld"
        );
        // The flush of that pump returned the credits: the third goes now,
        // and what follows it in the buffer is still there.
        let r = server.pump();
        assert_eq!((r.accepted, r.stalled_conns), (1, 0));
        client_side.try_write(&fourth[fourth.len() / 2..]).unwrap();
        assert_eq!(server.pump().accepted, 1);
        let seqs: Vec<u64> = responses(&mut client_side).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [1, 2, 3, 4]);
        assert_eq!(server.snapshot().credits_stalled_total(), 1);
        server.pump_until_quiet(16);
        assert!(server.ledger().holds());
    }

    #[test]
    fn a_malformed_frame_mid_buffer_clears_it_and_closes() {
        let (mut server, mut client_side, id, obj) = helloed(ServerConfig::default());
        let mut bytes = command_bytes(obj, id, 1);
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        bytes.extend_from_slice(&command_bytes(obj, id, 2));
        client_side.try_write(&bytes).unwrap();
        let r = server.pump();
        assert_eq!((r.frames, r.accepted, r.rejected), (1, 1, 1));
        let got = responses(&mut client_side);
        assert_eq!(
            got.iter()
                .map(|r| (r.kind, r.code, r.seq))
                .collect::<Vec<_>>(),
            [
                (RespKind::Accepted, 0, 1),
                (RespKind::Rejected, REJ_PROTOCOL, 0)
            ],
            "the frame before the garbage counts, nothing after it does"
        );
        let snap = server.snapshot();
        assert_eq!(snap.counters.protocol_errors, 1);
        assert_eq!(snap.counters.commands_received, 1);
        assert_eq!(server.open_connections(), 0, "connection reaped");
    }
}
