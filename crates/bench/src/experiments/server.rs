//! The serving-layer scenario: storm-style open-loop traffic against the
//! network front end, proving shedding engages *before* the SLO breaks.
//!
//! Two runs on identical engines:
//!
//! 1. **Calibration** (closed loop): the provisioned fleet sends as fast
//!    as its credit windows allow with the overload watermark disabled —
//!    the accepted rate per pump is the serving capacity, and the
//!    largest batch one pump admits at that rate (the sub-commands its
//!    own boundary executes) sets the overload watermark with
//!    [`WATERMARK_HEADROOM`] on top.  The watermark is compared with
//!    what the coming boundary will execute, so it caps the batch a
//!    pump admits.
//! 2. **Storm** (open loop): three times as many connections arrive and
//!    tokens are credited at [`OVERSUBSCRIPTION`] × capacity regardless
//!    of the service rate, with the derived watermark armed.  The server
//!    must shed (typed `Shed` responses with retry hints) rather than
//!    queue without bound, and the commands it *does* accept must keep
//!    their network-queue wait inside the SLO — overload degrades
//!    politely instead of collapsing.
//!
//! Proof obligations, gated against `ci/BENCH_server.baseline.json` via
//! `ERIS_SERVER_BASELINE` (like the kernels/storm gates):
//!
//! * shedding engaged (`shed > 0`) under > 1× load;
//! * accepted p99 network-queue wait within the SLO while shedding;
//! * zero silent drops (`offered == accepted + shed + quota_denied +
//!   rejected`, client and server agree);
//! * the combined serving + engine conservation ledger holds after a
//!   mid-traffic graceful shutdown.
//!
//! Results land in `BENCH_server.json`; the per-tenant telemetry is also
//! exported to `server_telemetry.jsonl` and `server_metrics.prom` (the CI
//! artifact, like obs-smoke).

use super::kernels::Metrics;
use crate::{fmt_rate, TextTable};
use eris_core::prelude::*;
use eris_server::{
    loopback_pair, AdmissionConfig, Client, ClockSource, EngineServer, PipeTransport, ServerConfig,
};

/// Open-loop arrival rate over calibrated capacity (> 1 = overload).
const OVERSUBSCRIPTION: f64 = 1.5;

/// Storm fleet size over the provisioned (calibration) fleet — the extra
/// connections are what let the open loop actually exceed capacity, since
/// per-connection credit windows cap each client at its fair share.
const STORM_FLEET_FACTOR: u32 = 3;

/// The shed watermark sits this far above the largest calibrated batch,
/// so 1× load never sheds and sustained oversubscription does.
const WATERMARK_HEADROOM: f64 = 1.25;

/// Accepted commands must clear the server inside this many epochs of
/// network-queue wait at p99 (wait is virtual time; epochs are the batch
/// cadence, so the bound is machine-portable).
const SLO_P99_EPOCHS: f64 = 64.0;

/// Metrics gated against the committed baseline: exact booleans plus the
/// shed ratio floor.  Wait percentiles are recorded but not gated (they
/// track epoch length, which shifts with engine tuning).
const GATED: &[&str] = &[
    "shed_engaged",
    "slo_met",
    "zero_silent_drops",
    "conservation",
    "quiesce_clean",
    "trace_ledger_balanced",
    "exemplar_ok",
    "phases_ok",
    "slo_burn_exported",
];

/// Serving-side trace sampling for the storm run: low enough that tail
/// buckets retain exemplars, high enough not to distort the measured
/// path.
const TRACE_SAMPLE_EVERY: u32 = 8;

struct BenchShape {
    aeus_nodes: u16,
    aeus_cores: u16,
    conns: u32,
    tenants: u32,
    warmup_pumps: u32,
    storm_pumps: u32,
    keys: u64,
}

fn shape(quick: bool) -> BenchShape {
    if quick {
        BenchShape {
            aeus_nodes: 2,
            aeus_cores: 4,
            conns: 8,
            tenants: 2,
            warmup_pumps: 60,
            storm_pumps: 150,
            keys: 1 << 16,
        }
    } else {
        BenchShape {
            aeus_nodes: 4,
            aeus_cores: 8,
            conns: 32,
            tenants: 4,
            warmup_pumps: 200,
            storm_pumps: 600,
            keys: 1 << 18,
        }
    }
}

const DOMAIN: u64 = 1 << 20;

fn build_engine(s: &BenchShape) -> (Engine, DataObjectId) {
    let mut e = Engine::new(
        eris_numa::machines::custom_machine(
            "server-bench",
            s.aeus_nodes,
            s.aeus_cores,
            20.0,
            100.0,
            10.0,
            60.0,
        ),
        EngineConfig {
            balancer: BalancerConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let idx = e.create_index("kv", DOMAIN);
    let stride = DOMAIN / s.keys;
    e.bulk_load_index(idx, (0..s.keys).map(|k| (k * stride, k)));
    (e, idx)
}

/// `watermark = None` disables overload shedding (calibration); `Some(w)`
/// arms the in-flight watermark (storm).  Quotas stay effectively
/// unlimited in both — this scenario isolates the overload path.
fn admission(watermark: Option<u64>) -> AdmissionConfig {
    AdmissionConfig {
        credit_limit: 16,
        quota_capacity_ops: 1 << 24,
        quota_refill_ops_per_sec: 1 << 24,
        shed_occupancy: f64::INFINITY,
        shed_in_flight: watermark.unwrap_or(u64::MAX),
        shed_retry_after_ms: 10,
    }
}

fn mk_command(idx: DataObjectId, seed: u64) -> DataCommand {
    // 7:1 lookup:upsert mix, 8 keys per command, xorshift-scattered.
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % DOMAIN
    };
    if seed % 8 == 7 {
        let pairs = (0..8).map(|_| (draw(), seed)).collect();
        DataCommand {
            object: idx,
            ticket: seed,
            payload: Payload::Upsert { pairs },
        }
    } else {
        let keys = (0..8).map(|_| draw()).collect();
        DataCommand {
            object: idx,
            ticket: seed,
            payload: Payload::Lookup { keys },
        }
    }
}

struct Fleet {
    clients: Vec<Client<PipeTransport>>,
    next_seed: u64,
}

impl Fleet {
    fn new(server: &mut EngineServer, conns: u32, tenants: u32) -> Fleet {
        let clients = (0..conns)
            .map(|i| {
                let (server_side, client_side) = loopback_pair();
                server.attach(Box::new(server_side));
                Client::connect(client_side, i % tenants)
            })
            .collect();
        Fleet {
            clients,
            next_seed: 1,
        }
    }

    /// One client-side cycle: poll responses, then try to send up to
    /// `budget` commands spread round-robin.  Returns how many went out.
    fn drive(&mut self, idx: DataObjectId, budget: u64) -> u64 {
        let mut sent = 0;
        for c in self.clients.iter_mut() {
            c.poll();
        }
        let n = self.clients.len();
        let mut stalled = vec![false; n];
        'outer: while sent < budget {
            let mut all_stalled = true;
            for (i, c) in self.clients.iter_mut().enumerate() {
                if stalled[i] {
                    continue;
                }
                if sent >= budget {
                    break 'outer;
                }
                let cmd = mk_command(idx, self.next_seed);
                if c.try_send(&cmd) {
                    self.next_seed += 1;
                    sent += 1;
                    all_stalled = false;
                } else {
                    stalled[i] = true;
                }
            }
            if all_stalled {
                break;
            }
        }
        for c in self.clients.iter_mut() {
            c.poll();
        }
        sent
    }

    fn poll_all(&mut self) {
        for c in self.clients.iter_mut() {
            c.poll();
        }
    }

    fn totals(&self) -> (u64, u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0, 0);
        for c in &self.clients {
            let s = c.stats();
            t.0 += s.sent;
            t.1 += s.accepted;
            t.2 += s.shed;
            t.3 += s.quota_denied;
            t.4 += s.rejected;
        }
        t
    }
}

pub struct ServerBenchReport {
    pub aeus: usize,
    pub conns: u32,
    /// Accepted commands per pump under closed-loop calibration.
    pub capacity_per_pump: f64,
    /// Sub-commands of the largest batch one pump admitted at capacity
    /// (watermark basis).
    pub calibrated_batch: u64,
    /// Armed `shed_in_flight` watermark for the storm run.
    pub shed_watermark: u64,
    pub offered: u64,
    pub accepted: u64,
    pub shed: u64,
    pub quota_denied: u64,
    pub rejected: u64,
    pub accepted_p50_wait_ns: u64,
    pub accepted_p99_wait_ns: u64,
    /// Mean epoch length during the storm, the SLO's unit.
    pub mean_epoch_ns: f64,
    pub slo_met: bool,
    pub zero_silent_drops: bool,
    pub conservation_ok: bool,
    pub quiesce_clean: bool,
    /// `stamped == traced + dropped` on the engine's trace ledger after
    /// drain, with stamps actually issued — the full-path tracing proof
    /// under forced shedding.
    pub trace_stamped: u64,
    pub trace_traced: u64,
    pub trace_dropped: u64,
    pub trace_ledger_balanced: bool,
    /// At least one histogram-bucket exemplar resolved to a full-path
    /// serving trace with a nonzero admission span.
    pub exemplar_ok: bool,
    /// Every active AEU's epoch-phase fractions sum to 1 (±1%).
    pub phases_ok: bool,
    /// Worst per-tenant error burn rate over the shortest window at the
    /// end of the storm (> 1 means the error budget is burning faster
    /// than the objective allows — expected while shedding).
    pub worst_error_burn: f64,
    /// Burn-rate gauges made it into the Prometheus export.
    pub slo_burn_exported: bool,
    pub prometheus: String,
    pub jsonl: String,
}

pub fn run_bench(quick: bool) -> ServerBenchReport {
    let s = shape(quick);

    // Phase 1: closed-loop calibration, watermark off.
    let (engine, idx) = build_engine(&s);
    let aeus = engine.num_aeus();
    let mut cal = EngineServer::new(
        engine,
        ServerConfig {
            tenants: s.tenants,
            admission: admission(None),
            clock: ClockSource::Virtual,
            ..Default::default()
        },
    );
    let mut fleet = Fleet::new(&mut cal, s.conns, s.tenants);
    // Let Hellos settle before measuring.
    fleet.poll_all();
    cal.pump();
    fleet.poll_all();
    let accepted_before = cal.snapshot().accepted_total();
    // The storm's admission control compares what the coming boundary
    // will execute with the watermark.  A pump's boundary executes the
    // batch that pump admitted, so the largest batch at capacity, in
    // executed sub-commands, is the calibration's second output.
    let executed = |s: &EngineServer| s.engine().telemetry().totals.commands_executed;
    let mut calibrated_batch = 0u64;
    for p in 0..s.warmup_pumps {
        fleet.drive(idx, u64::MAX);
        let before = executed(&cal);
        cal.pump();
        if p >= s.warmup_pumps / 2 {
            calibrated_batch = calibrated_batch.max(executed(&cal) - before);
        }
    }
    cal.pump_until_quiet(64);
    fleet.poll_all();
    let calibrated = cal.snapshot().accepted_total() - accepted_before;
    let capacity_per_pump = calibrated as f64 / s.warmup_pumps as f64;
    drop(cal);

    // Phase 2: open-loop storm at OVERSUBSCRIPTION × capacity from an
    // over-provisioned fleet, with the derived watermark armed.
    let shed_watermark = ((calibrated_batch as f64 * WATERMARK_HEADROOM).ceil() as u64).max(8);
    let (engine, idx) = build_engine(&s);
    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: s.tenants,
            admission: admission(Some(shed_watermark)),
            clock: ClockSource::Virtual,
            trace_sample_every: TRACE_SAMPLE_EVERY,
            ..Default::default()
        },
    );
    let mut fleet = Fleet::new(&mut server, s.conns * STORM_FLEET_FACTOR, s.tenants);
    fleet.poll_all();
    server.pump();
    fleet.poll_all();

    let rate = (capacity_per_pump * OVERSUBSCRIPTION).max(1.0);
    let mut carry = 0.0f64;
    let mut epochs_ns = 0.0f64;
    let mut epochs = 0u64;
    for _ in 0..s.storm_pumps {
        // Open loop: the arrival process does not care how the server is
        // doing — tokens accrue at the fixed oversubscribed rate and
        // undelivered budget carries over (bounded by client credit).
        carry += rate;
        let budget = carry.floor() as u64;
        let sent = fleet.drive(idx, budget);
        carry -= sent as f64;
        // Bound the backlog the arrival process itself can accumulate:
        // clients model impatient users, not an infinite queue.
        carry = carry.min(rate * 4.0);
        let r = server.pump();
        epochs_ns += r.epoch_duration_ns;
        epochs += 1;
    }
    server.pump_until_quiet(128);
    fleet.poll_all();

    let (sent, c_accepted, c_shed, c_quota, c_rejected) = fleet.totals();
    let snap = server.snapshot();
    let mean_epoch_ns = epochs_ns / epochs.max(1) as f64;

    // Merge per-tenant wait histograms for whole-server percentiles.
    let mut wait = eris_obs::LogHistogram::default();
    for h in &snap.net_wait {
        wait.merge(h);
    }
    let p50 = wait.p50();
    let p99 = wait.p99();
    let slo_ns = mean_epoch_ns * SLO_P99_EPOCHS;
    let slo_met = (p99 as f64) <= slo_ns;

    let zero_silent_drops = snap.counters.commands_received == sent
        && sent == c_accepted + c_shed + c_quota + c_rejected
        && snap.accepted_total() == c_accepted
        && snap.shed_total() == c_shed;

    // Per-tenant burn rates at the end of the storm (the tracker was fed
    // once per pump; while shedding, the error budget must be burning).
    let slo_now = server.now_ns();
    let worst_error_burn = server
        .slo()
        .tenants()
        .iter()
        .flat_map(|t| server.slo().burn_rates(*t, slo_now))
        .map(|b| b.error_burn)
        .fold(0.0f64, f64::max);

    let ledger = server.ledger();
    let outcome = server.shutdown();

    // The engine-side observability proofs: trace ledger conservation,
    // tail-bucket exemplars with full-path spans, per-AEU phase
    // attribution.  All read after drain so nothing is in flight.
    let tel = outcome.engine.telemetry();
    let trace_ledger_balanced =
        tel.trace.stamped > 0 && tel.trace.stamped == tel.trace.traced + tel.trace.dropped;
    let exemplar_ok = tel
        .exemplars
        .iter()
        .flatten()
        .any(|e| e.tenant != eris_obs::TENANT_NONE && e.admit_ns > 0 && e.trace_id != 0);
    let phases_ok = tel.phases.iter().any(|p| p.total_ns() > 0) && tel.phases_sum_to_one(0.01);

    // One artifact: serving-layer metrics (admission, SLO burn) plus the
    // engine's (exemplars, phases, links), so the export self-contains
    // the full request path.
    let mut all_metrics = outcome.snapshot.to_metrics();
    all_metrics.extend(tel.to_metrics());
    let prometheus = eris_obs::render_prometheus(&all_metrics);
    let jsonl = eris_obs::render_jsonl(&all_metrics, eris_obs::now_ns());
    let slo_burn_exported = prometheus.contains("eris_slo_burn_rate");

    ServerBenchReport {
        aeus,
        conns: s.conns * STORM_FLEET_FACTOR,
        capacity_per_pump,
        calibrated_batch,
        shed_watermark,
        offered: sent,
        accepted: c_accepted,
        shed: c_shed,
        quota_denied: c_quota,
        rejected: c_rejected,
        accepted_p50_wait_ns: p50,
        accepted_p99_wait_ns: p99,
        mean_epoch_ns,
        slo_met,
        zero_silent_drops,
        conservation_ok: ledger.holds() && outcome.ledger.holds(),
        quiesce_clean: outcome.quiesce.clean(),
        trace_stamped: tel.trace.stamped,
        trace_traced: tel.trace.traced,
        trace_dropped: tel.trace.dropped,
        trace_ledger_balanced,
        exemplar_ok,
        phases_ok,
        worst_error_burn,
        slo_burn_exported,
        prometheus,
        jsonl,
    }
}

fn metrics(r: &ServerBenchReport) -> Metrics {
    let b = |ok: bool| if ok { 1.0 } else { 0.0 };
    let mut m = Metrics(Vec::new());
    m.put("aeus", r.aeus as f64);
    m.put("conns", r.conns as f64);
    m.put("capacity_per_pump", r.capacity_per_pump);
    m.put("calibrated_batch", r.calibrated_batch as f64);
    m.put("shed_watermark", r.shed_watermark as f64);
    m.put("offered", r.offered as f64);
    m.put("accepted", r.accepted as f64);
    m.put("shed", r.shed as f64);
    m.put("quota_denied", r.quota_denied as f64);
    m.put("rejected", r.rejected as f64);
    m.put(
        "shed_ratio",
        if r.offered > 0 {
            r.shed as f64 / r.offered as f64
        } else {
            0.0
        },
    );
    m.put("shed_engaged", b(r.shed > 0));
    m.put("accepted_p50_wait_ns", r.accepted_p50_wait_ns as f64);
    m.put("accepted_p99_wait_ns", r.accepted_p99_wait_ns as f64);
    m.put("mean_epoch_ns", r.mean_epoch_ns);
    m.put("slo_met", b(r.slo_met));
    m.put("zero_silent_drops", b(r.zero_silent_drops));
    m.put("conservation", b(r.conservation_ok));
    m.put("quiesce_clean", b(r.quiesce_clean));
    m.put("trace_stamped", r.trace_stamped as f64);
    m.put("trace_traced", r.trace_traced as f64);
    m.put("trace_dropped", r.trace_dropped as f64);
    m.put("trace_ledger_balanced", b(r.trace_ledger_balanced));
    m.put("exemplar_ok", b(r.exemplar_ok));
    m.put("phases_ok", b(r.phases_ok));
    m.put("worst_error_burn", r.worst_error_burn);
    m.put("slo_burn_exported", b(r.slo_burn_exported));
    m
}

fn to_json(m: &Metrics, quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    for (i, (k, v)) in m.0.iter().enumerate() {
        let comma = if i + 1 < m.0.len() { "," } else { "" };
        s.push_str(&format!("  \"{k}\": {v:.3}{comma}\n"));
    }
    s.push_str("}\n");
    s
}

pub fn run(quick: bool) {
    let s = shape(quick);
    println!(
        "Serving-layer overload scenario: {} connections, {} tenants, {}x open-loop load",
        s.conns, s.tenants, OVERSUBSCRIPTION
    );
    let r = run_bench(quick);

    let mut t = TextTable::new(&["metric", "value"]);
    t.row(vec!["AEUs".into(), format!("{}", r.aeus)]);
    t.row(vec![
        "calibrated capacity".into(),
        format!("{:.1} cmds/pump", r.capacity_per_pump),
    ]);
    t.row(vec![
        "in-flight watermark".into(),
        format!(
            "{} sub-commands (largest batch at capacity {})",
            r.shed_watermark, r.calibrated_batch
        ),
    ]);
    t.row(vec!["offered".into(), format!("{}", r.offered)]);
    t.row(vec![
        "accepted".into(),
        format!(
            "{} ({:.1}%)",
            r.accepted,
            100.0 * r.accepted as f64 / r.offered.max(1) as f64
        ),
    ]);
    t.row(vec![
        "shed (typed, retry hints)".into(),
        format!(
            "{} ({:.1}%)",
            r.shed,
            100.0 * r.shed as f64 / r.offered.max(1) as f64
        ),
    ]);
    t.row(vec!["quota denied".into(), format!("{}", r.quota_denied)]);
    t.row(vec!["rejected".into(), format!("{}", r.rejected)]);
    t.row(vec![
        "accepted net-queue wait p50/p99".into(),
        format!(
            "{:.1}us / {:.1}us (virtual)",
            r.accepted_p50_wait_ns as f64 / 1e3,
            r.accepted_p99_wait_ns as f64 / 1e3
        ),
    ]);
    t.row(vec![
        "SLO (p99 within N epochs)".into(),
        format!(
            "{:.1}us budget -> {}",
            r.mean_epoch_ns * SLO_P99_EPOCHS / 1e3,
            if r.slo_met { "met" } else { "VIOLATED" }
        ),
    ]);
    t.print();
    println!(
        "\nledger: conservation {} | zero silent drops {} | quiesce {}",
        if r.conservation_ok { "ok" } else { "VIOLATED" },
        if r.zero_silent_drops {
            "ok"
        } else {
            "VIOLATED"
        },
        if r.quiesce_clean { "clean" } else { "DIRTY" },
    );
    println!(
        "tracing: {} stamped = {} traced + {} dropped ({}) | exemplar {} | phases {}",
        r.trace_stamped,
        r.trace_traced,
        r.trace_dropped,
        if r.trace_ledger_balanced {
            "balanced"
        } else {
            "UNBALANCED"
        },
        if r.exemplar_ok { "ok" } else { "MISSING" },
        if r.phases_ok { "ok" } else { "INCONSISTENT" },
    );
    println!(
        "SLO burn: worst tenant error burn {:.2}x budget (shedding is expected to burn)",
        r.worst_error_burn
    );
    println!(
        "throughput while shedding: {}",
        fmt_rate(r.accepted as f64 / (r.mean_epoch_ns * 1e-9 * 150.0).max(1e-9))
    );

    let m = metrics(&r);
    let json = to_json(&m, quick);
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    std::fs::write("server_telemetry.jsonl", &r.jsonl).expect("write server_telemetry.jsonl");
    std::fs::write("server_metrics.prom", &r.prometheus).expect("write server_metrics.prom");
    println!("\nwrote BENCH_server.json, server_telemetry.jsonl, server_metrics.prom");

    super::gate_against_baseline("ERIS_SERVER_BASELINE", "server", GATED, &m);

    let mut failures = Vec::new();
    if r.shed == 0 {
        failures.push("no shedding under oversubscribed open-loop load".to_string());
    }
    if !r.slo_met {
        failures.push(format!(
            "accepted p99 wait {}ns over the {:.0}ns SLO while shedding",
            r.accepted_p99_wait_ns,
            r.mean_epoch_ns * SLO_P99_EPOCHS
        ));
    }
    if !r.zero_silent_drops {
        failures.push("silent drops: offered != settled responses".to_string());
    }
    if !r.conservation_ok {
        failures.push("serving conservation ledger violated".to_string());
    }
    if !r.quiesce_clean {
        failures.push("engine did not quiesce cleanly".to_string());
    }
    if !r.prometheus.contains("eris_server_shed_total") {
        failures.push("shed counters missing from Prometheus export".to_string());
    }
    if !r.trace_ledger_balanced {
        failures.push(format!(
            "trace ledger unbalanced under shedding: {} stamped != {} traced + {} dropped",
            r.trace_stamped, r.trace_traced, r.trace_dropped
        ));
    }
    if !r.exemplar_ok {
        failures.push("no tail-bucket exemplar with a full-path serving trace".to_string());
    }
    if !r.phases_ok {
        failures.push("per-AEU epoch-phase fractions do not sum to 1 (±1%)".to_string());
    }
    if !r.slo_burn_exported {
        failures.push("SLO burn-rate gauges missing from Prometheus export".to_string());
    }
    if !failures.is_empty() {
        eprintln!("\nSERVING FAILURES:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("shedding engaged before SLO violation; all serving proofs hold");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::kernels::extract;

    /// The quick scenario end to end: overload sheds, SLO holds, ledgers
    /// balance.  This is the bench-crate arm of the e2e suite.
    #[test]
    fn quick_bench_sheds_before_slo_violation() {
        let r = run_bench(true);
        assert!(r.capacity_per_pump > 0.0);
        assert!(r.shed > 0, "oversubscribed load must shed");
        assert!(r.slo_met, "p99 {} over budget", r.accepted_p99_wait_ns);
        assert!(r.zero_silent_drops);
        assert!(r.conservation_ok);
        assert!(r.quiesce_clean);
        assert!(r.prometheus.contains("eris_server_shed_total"));
        assert!(r.jsonl.contains("eris_server_accepted_total"));
        // The observability proofs ride the same storm.
        assert!(
            r.trace_ledger_balanced,
            "trace ledger: {} != {} + {}",
            r.trace_stamped, r.trace_traced, r.trace_dropped
        );
        assert!(
            r.trace_dropped > 0,
            "forced shedding must drop sampled stamps"
        );
        assert!(r.exemplar_ok, "full-path exemplar with admission span");
        assert!(r.phases_ok, "phase fractions sum to 1");
        assert!(r.slo_burn_exported);
        assert!(
            r.worst_error_burn > 1.0,
            "shedding under 1.5x oversubscription must burn the error budget: {}",
            r.worst_error_burn
        );
        assert!(r.prometheus.contains("eris_latency_exemplar_ns"));
        assert!(r.prometheus.contains("eris_aeu_phase_ns_total"));
    }

    #[test]
    fn bench_json_roundtrips_through_the_extractor() {
        let r = ServerBenchReport {
            aeus: 8,
            conns: 8,
            capacity_per_pump: 10.0,
            calibrated_batch: 20,
            shed_watermark: 25,
            offered: 100,
            accepted: 60,
            shed: 40,
            quota_denied: 0,
            rejected: 0,
            accepted_p50_wait_ns: 10,
            accepted_p99_wait_ns: 100,
            mean_epoch_ns: 1000.0,
            slo_met: true,
            zero_silent_drops: true,
            conservation_ok: true,
            quiesce_clean: true,
            trace_stamped: 12,
            trace_traced: 7,
            trace_dropped: 5,
            trace_ledger_balanced: true,
            exemplar_ok: true,
            phases_ok: true,
            worst_error_burn: 3.5,
            slo_burn_exported: true,
            prometheus: String::new(),
            jsonl: String::new(),
        };
        let json = to_json(&metrics(&r), true);
        assert_eq!(extract(&json, "shed_engaged"), Some(1.0));
        assert_eq!(extract(&json, "shed"), Some(40.0));
        assert_eq!(extract(&json, "slo_met"), Some(1.0));
        assert!(!json.contains(",\n}"), "no trailing comma: {json}");
        for key in GATED {
            assert!(extract(&json, key).is_some(), "gated key {key} missing");
        }
    }
}
