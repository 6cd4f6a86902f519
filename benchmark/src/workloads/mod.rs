//! The four workloads and what they share: the simulated machine, the
//! epoch loop that drives an engine directly, and the translation of the
//! program's own snapshots into per-layer metrics.

pub mod durable_upsert;
pub mod engine_batch;
pub mod engine_scan;
pub mod served_point;

use crate::report::{Metrics, Outcome};
use crate::spans::Spans;
use crate::stats::{self, Progress, Timed};
use crate::sys::{self, Clock};
use eris_core::prelude::*;
use eris_core::routing::{BitmapTable, PartitionTable, RangeTable};
use eris_core::TelemetrySnapshot;
use eris_numa::machines::custom_machine;
use eris_numa::Topology;
use eris_obs::{LogHistogram, Phase};
use std::collections::VecDeque;
use std::time::Instant;

/// One run's arguments.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: spans on, 1-in-1 latency sampling, per-layer metrics.
    pub trace: bool,
}

/// Set-ups per measured run: at least 3, and more (up to 9) while they
/// have taken under 1.5 s together, so a 50 ms set-up is not judged on 3
/// samples.  `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.5;

/// Divisor of the verify pass: the workload's own generator at 1/64 of
/// the data, checked result by result against an oracle.
pub const VERIFY_SCALE: u64 = 64;

pub const NUM_AEUS: usize = 4;

/// 2 nodes x 2 cores = 4 AEUs, driven by one thread.
pub fn machine() -> Topology {
    custom_machine("bench", 2, 2, 20.0, 100.0, 10.0, 60.0)
}

fn aeu_ids() -> Vec<AeuId> {
    (0..NUM_AEUS as u32).map(AeuId).collect()
}

/// The partition table the engine gives a fresh index over `[0, domain)`.
pub fn range_table(domain: u64) -> PartitionTable {
    PartitionTable::Range(RangeTable::even(domain, &aeu_ids()))
}

/// The partition table the engine gives a column.
pub fn column_table() -> PartitionTable {
    PartitionTable::Bitmap(BitmapTable::new(aeu_ids()))
}

/// The program's shipped defaults; a traced run samples every command's
/// latency instead of 1 in 64.
pub fn engine_config(trace: bool) -> EngineConfig {
    let mut cfg = EngineConfig::default();
    if trace {
        cfg.routing.trace_sample_every = 1;
    }
    cfg
}

/// Set the system up several times (once when tracing): `build` it, then
/// run the `verify` pass, dropping each system before the next is built.
/// Returns the last system, the median wall time of a set-up, and the
/// resident-set growth across the first `build`, in bytes.
pub fn repeat_setup<T>(
    cfg: &RunCfg,
    clock: Clock,
    mut build: impl FnMut() -> T,
    mut verify: impl FnMut(),
) -> (T, f64, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut growth = 0.0;
    let mut last = None;
    loop {
        drop(last.take());
        let rss = sys::rss_bytes();
        let t = clock.now();
        last = Some(build());
        if times.is_empty() {
            growth = sys::rss_bytes() - rss;
        }
        verify();
        times.push(clock.now() - t);
        let enough = times.len() >= MIN_SETUPS
            && (times.iter().sum::<f64>() >= SETUP_BUDGET_S || times.len() >= MAX_SETUPS);
        if cfg.trace || enough {
            return (
                last.expect("a system was just built"),
                stats::median(&times),
                growth,
            );
        }
    }
}

/// A timed loop ends when it has taken this many times its length in wall
/// time, whatever its own clock says.
const WALL_CAP: f64 = 5.0;

/// The commands submitted before one epoch, each through a given AEU.
pub type Batch = Vec<(AeuId, DataCommand)>;

/// When the epoch loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// `warm` seconds unmeasured, then `measure` seconds measured.
    Timed { warm: f64, measure: f64 },
    /// A fixed number of measured epochs: every count repeats exactly.
    Epochs(u64),
}

impl Stop {
    /// A measured run: a tenth of it again as warm-up, then `seconds`.
    pub fn measured(seconds: f64) -> Stop {
        Stop::Timed {
            warm: seconds * 0.1,
            measure: seconds,
        }
    }

    /// The short phase at the shipped 1-in-64 sampling that a traced run
    /// compares itself with.
    pub fn reference(seconds: f64) -> Stop {
        Stop::Timed {
            warm: seconds * 0.05,
            measure: seconds * 0.25,
        }
    }
}

/// `next` for [`drive`]: the batches generated before timing, cycled.
pub fn cycle(pool: &[Batch]) -> impl FnMut(u64) -> Batch + '_ {
    move |epoch| pool[epoch as usize % pool.len()].clone()
}

/// `after` for [`drive`] when nothing happens between epochs.
pub fn no_hook(_: &mut Engine, _: u64, _: &mut Spans) {}

/// What the epoch loop saw.
#[derive(Default)]
pub struct DriveLog {
    /// Measured phase, in seconds of the loop's clock since it started.
    pub from: f64,
    pub to: f64,
    /// Wall seconds the whole loop took, warm-up included.
    pub wall_s: f64,
    /// `(seconds, cumulative ops)` after every epoch; an op is a key looked
    /// up or upserted or a row examined by a scan, as the engine counts.
    pub progress: Progress,
    /// Per batch, at the second it completed: first submit to the end of
    /// the epoch that completed it, in microseconds.
    pub batch_lat_us: Timed,
    /// `(wall ms, balancer ran)` per measured epoch.
    pub epoch_ms: Vec<(f64, bool)>,
    pub epochs: u64,
    /// Executed in the measured phase.
    pub ops: u64,
    pub upserts: u64,
    /// Handed to `submit` over the whole loop, warm-up included: commands,
    /// point keys, rows, and the scan deliveries they must lead to.
    pub commands: u64,
    pub issued_lookups: u64,
    pub issued_upserts: u64,
    pub issued_scans: u64,
}

impl DriveLog {
    pub fn throughput(&self) -> stats::Throughput {
        stats::throughput(&self.progress, self.from, self.to)
    }
}

fn units_of(batch: &Batch) -> (u64, u64, u64) {
    let (mut l, mut u, mut s) = (0, 0, 0);
    for (_, c) in batch {
        match &c.payload {
            Payload::Lookup { keys } => l += keys.len() as u64,
            Payload::Upsert { pairs } => u += pairs.len() as u64,
            // A column scan is delivered to every AEU.
            _ => s += NUM_AEUS as u64,
        }
    }
    (l, u, s)
}

/// Submit `next(epoch)` and run one epoch, again and again, timed on
/// `clock`.  `after` runs once the epoch has returned (checkpoints hook in
/// there).  Spans: `bench.run` > { `bench.generate`, `engine.submit`,
/// `engine.epoch`, and whatever `after` opens }.
pub fn drive(
    engine: &mut Engine,
    clock: Clock,
    stop: Stop,
    spans: &mut Spans,
    mut next: impl FnMut(u64) -> Batch,
    mut after: impl FnMut(&mut Engine, u64, &mut Spans),
) -> DriveLog {
    let mut log = DriveLog::default();
    let (t0, wall0) = (clock.now(), Instant::now());
    let (warm, until_s, until_epochs) = match stop {
        Stop::Timed { warm, measure } => (warm, warm + measure, u64::MAX),
        Stop::Epochs(n) => (0.0, f64::MAX, n),
    };
    log.from = warm;
    // The engine's own tallies say what has executed, whoever ran the
    // epoch (a checkpoint in `after` drains the engine itself).
    let executed = |engine: &Engine| engine.results().counts();
    let units = |c: &ResultCounts| c.lookups + c.upserts + c.scans;
    let ops = |c: &ResultCounts| c.lookups + c.upserts + c.rows_scanned;
    let start = executed(engine);
    let mut at_measure = start;
    // Batches not yet complete: (units issued up to and including it, t).
    let mut pending: VecDeque<(u64, f64)> = VecDeque::new();
    let mut issued = units(&start);
    let mut epoch = 0u64;
    let mut measuring = false;
    spans.enter("bench.run", 0);
    loop {
        let now = clock.now() - t0;
        if !measuring && now >= warm {
            measuring = true;
            at_measure = executed(engine);
            log.progress.push((now, 0.0));
        }
        // A clock that stands still while the process is blocked must not
        // let a stalled disk stretch the run without end.
        let overdue = sys::secs_since(wall0) >= until_s * WALL_CAP;
        if now >= until_s || log.epochs >= until_epochs || overdue {
            log.to = now;
            log.wall_s = sys::secs_since(wall0);
            break;
        }
        spans.enter("bench.generate", epoch);
        let batch = next(epoch);
        spans.exit();
        let (l, u, s) = units_of(&batch);
        issued += l + u + s;
        pending.push_back((issued, now));
        log.commands += batch.len() as u64;
        log.issued_lookups += l;
        log.issued_upserts += u;
        log.issued_scans += s;
        for (via, cmd) in batch {
            spans.enter("engine.submit", epoch);
            engine
                .submit(via, cmd)
                .expect("generated command is routable");
            spans.exit();
        }
        let epoch_start = clock.now() - t0;
        spans.enter("engine.epoch", epoch);
        let r = engine.run_epoch();
        spans.exit();
        let end = clock.now() - t0;
        let epoch_ms = (end - epoch_start) * 1e3;
        let c = executed(engine);
        while pending.front().is_some_and(|&(need, _)| need <= units(&c)) {
            let (_, at) = pending.pop_front().expect("front exists");
            if measuring {
                log.batch_lat_us.push((end, (end - at) * 1e6));
            }
        }
        if measuring {
            log.epochs += 1;
            log.epoch_ms.push((epoch_ms, r.balance_ns > 0.0));
            log.progress
                .push((end, (ops(&c) - ops(&at_measure)) as f64));
        }
        after(engine, epoch, spans);
        epoch += 1;
    }
    spans.exit();
    let c = executed(engine);
    log.ops = ops(&c) - ops(&at_measure);
    log.upserts = c.upserts - at_measure.upserts;
    log
}

/// Drain the engine and check that nothing was lost or duplicated between
/// `submit` and execution.
pub fn check_conservation(engine: &mut Engine, out: &mut Outcome) {
    let q = engine.drain_and_quiesce();
    out.check(
        q.clean(),
        "engine did not quiesce cleanly (conservation, trace ledger or pending bytes)",
    );
}

pub fn merged(series: impl Iterator<Item = LogHistogram>) -> LogHistogram {
    let mut m = LogHistogram::default();
    for h in series {
        for (a, b) in m.buckets.iter_mut().zip(h.buckets) {
            *a += b;
        }
        m.count += h.count;
        m.sum += h.sum;
    }
    m
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Per-layer metrics of `eris-core`, from the engine's telemetry over the
/// traced phase (counters were reset when it began) and the spans around
/// the calls that ran its epochs (`epoch_span`: `engine.epoch`, or
/// `server.pump` when the server drives the engine).
pub fn core_metrics_of(
    snap: &TelemetrySnapshot,
    spans: &Spans,
    epoch_span: &str,
    epochs: u64,
    commands: u64,
    epoch_ms: &[(f64, bool)],
    m: &mut Metrics,
) {
    let t = &snap.totals;
    m.set(
        "core.routing.splits_per_cmd",
        per(t.command_splits as f64, t.commands_routed),
    );
    m.set(
        "core.routing.cmds_per_flush",
        per(t.flush_commands as f64, t.flushes),
    );
    m.set("core.routing.flush_stalls", t.flush_stalls as f64);
    m.set("core.routing.incoming_rejects", t.incoming_rejects as f64);
    m.set("core.routing.forwarded", t.forwarded as f64);
    m.set(
        "core.routing.peak_incoming_bytes",
        t.peak_incoming_bytes as f64,
    );

    let totals = spans.totals();
    let span_ns = |name: &str| totals.get(name).map_or(0.0, |s| s.total_ns as f64);
    let ops = t.lookups + t.upserts + t.scan_rows;
    m.set(
        "core.engine.submit_ns_per_cmd",
        per(span_ns("engine.submit"), commands),
    );
    m.set("core.engine.epoch_ns_per_op", per(span_ns(epoch_span), ops));
    m.set("core.engine.epochs", epochs as f64);
    m.set("core.engine.ops_per_epoch", per(ops as f64, epochs));

    let phase = |p: Phase| snap.phases.iter().map(|b| b.get(p)).sum::<u64>() as f64;
    let in_steps: f64 = Phase::ALL.iter().map(|&p| phase(p)).sum();
    if span_ns(epoch_span) > 0.0 {
        m.set(
            "core.engine.epoch_overhead_frac",
            1.0 - in_steps / span_ns(epoch_span),
        );
    }
    m.set(
        "core.aeu.read_admit_ns_per_op",
        per(phase(Phase::ReadAdmit), ops),
    );
    m.set("core.aeu.route_ns_per_op", per(phase(Phase::Route), ops));
    m.set(
        "core.aeu.probe_ns_per_op",
        per(phase(Phase::Probe), t.lookups),
    );
    m.set(
        "core.aeu.write_ns_per_op",
        per(phase(Phase::Write), t.upserts),
    );
    m.set(
        "core.aeu.scan_ns_per_row",
        per(phase(Phase::ScanKernel), t.scan_rows),
    );
    m.set("core.aeu.flush_ns_per_op", per(phase(Phase::Flush), ops));
    m.set(
        "core.aeu.idle_frac",
        if in_steps > 0.0 {
            phase(Phase::Idle) / in_steps
        } else {
            0.0
        },
    );
    m.set(
        "core.aeu.keys_per_batch",
        per((t.lookups + t.upserts) as f64, t.exec_batches),
    );
    m.set(
        "core.aeu.coalesced_scan_frac",
        per(t.coalesced_scans as f64, t.scans),
    );

    let wait = merged(snap.latency.iter().map(|(_, s)| s.queue_wait.clone()));
    let exec = merged(snap.latency.iter().map(|(_, s)| s.exec.clone()));
    let hops = merged(snap.latency.iter().map(|(_, s)| s.hops.clone()));
    m.set("core.latency.queue_wait_p50_ns", wait.p50() as f64);
    m.set("core.latency.exec_p50_ns", exec.p50() as f64);
    m.set("core.latency.hops_mean", hops.mean());
    m.set(
        "core.latency.ledger_ok",
        f64::from(u8::from(snap.trace.balances())),
    );

    m.set("core.balancer.cycles", snap.balancer.cycles as f64);
    m.set("core.balancer.keys_moved", snap.balancer.keys_moved as f64);
    let plain: Vec<f64> = epoch_ms.iter().filter(|e| !e.1).map(|e| e.0).collect();
    let worst = epoch_ms
        .iter()
        .filter(|e| e.1)
        .map(|e| e.0)
        .fold(0.0, f64::max);
    m.set(
        "core.balancer.stall_max_ms",
        (worst - stats::median(&plain)).max(0.0),
    );

    m.set("column.simd_sweeps", t.simd_sweeps as f64);
    m.set("column.chunked_sweeps", t.chunked_sweeps as f64);
    m.set("column.scalar_sweeps", t.scalar_sweeps as f64);
    m.set("durability.wal.records", t.journal_records as f64);
}

/// The end-to-end metrics every direct-engine workload reports alike.
pub fn engine_end_to_end(log: &DriveLog, setup_s: f64, space_amp: f64, out: &mut Outcome) {
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("ops_per_s", log.throughput().p90);
    m.set(
        "lat_p50_us",
        stats::windowed_percentile(&log.batch_lat_us, log.from, log.to, 0.5),
    );
    m.set("peak_rss_mb", sys::peak_rss_mb());
    m.set("space_amp", space_amp);
}

/// After the timed phases: drain the engine, then check that it quiesced
/// cleanly and executed exactly the operations `issued` since `before`.
pub fn check_engine(
    engine: &mut Engine,
    before: ResultCounts,
    issued: &DriveLog,
    out: &mut Outcome,
) {
    check_conservation(engine, out);
    let c = engine.results().counts();
    let pairs = [
        (c.lookups - before.lookups, issued.issued_lookups, "lookups"),
        (c.upserts - before.upserts, issued.issued_upserts, "upserts"),
        (
            c.scans - before.scans,
            issued.issued_scans,
            "scan deliveries",
        ),
    ];
    for (got, want, what) in pairs {
        out.fail(got.abs_diff(want), &format!("{what} issued != executed"));
        out.attempted += want;
    }
}

/// What every direct-engine traced run reports alike: the `eris-core`
/// layers from `snap`, the run and trace bookkeeping, the tracing overhead
/// against the `reference` phase, the workload-independent
/// microbenchmarks; then the spans go to disk.
pub fn engine_traced(
    workload: &str,
    engine: &Engine,
    snap: &TelemetrySnapshot,
    spans: &Spans,
    log: &DriveLog,
    reference: &DriveLog,
    out: &mut Outcome,
) {
    let throughput = log.throughput();
    let failed_frac = per(out.failed as f64, out.attempted.max(1));
    let (coverage, uncovered_ns) = spans.coverage("bench.run");
    let m = &mut out.metrics;
    core_metrics_of(
        snap,
        spans,
        "engine.epoch",
        log.epochs,
        log.commands,
        &log.epoch_ms,
        m,
    );
    // The snapshot may predate the drain; the trace ledger must balance now.
    let (stamped, traced, dropped) = engine.latency().ledger();
    m.set(
        "core.latency.ledger_ok",
        f64::from(u8::from(stamped == traced + dropped)),
    );
    m.set("trace.coverage", coverage);
    m.set(
        "trace.unattributed_ns_per_op",
        per(uncovered_ns as f64, log.ops),
    );
    m.set("run.failed_frac", failed_frac);
    m.set("run.mean_ops_per_s", throughput.mean);
    m.set("run.window_spread", throughput.spread);
    m.set("run.samples", log.batch_lat_us.len() as f64);
    m.set(
        "run.lat_p90_us",
        stats::windowed_percentile(&log.batch_lat_us, log.from, log.to, 0.9),
    );
    m.set(
        "obs.trace_overhead_frac",
        1.0 - throughput.p90 / reference.throughput().p90,
    );
    m.set(
        "mem.manager.live_mb",
        engine.memory().live_bytes() as f64 / 1e6,
    );
    crate::micro::flow_solver(m);
    crate::micro::obs_and_mem(m);
    crate::write_spans(spans, workload);
}
