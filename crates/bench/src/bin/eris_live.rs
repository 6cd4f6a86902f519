//! `eris-live` — the paper's live monitoring demo as a terminal dashboard.
//!
//! The SIGMOD demo shows ERIS running a skewed workload while the
//! balancer adapts, with per-AEU utilization, per-partition heat, and
//! migration activity updating in real time.  This binary reproduces
//! that view on top of the `eris-obs` plumbing:
//!
//! * per-AEU utilization bars from telemetry counter deltas,
//! * a per-object partition heat map from the monitor's access samples,
//! * a migration ticker fed by the per-AEU trace rings,
//! * the balancer's latest audit verdict with the CVs it saw,
//! * sampled end-to-end latency means (queue-wait / exec / hops),
//! * per-AEU epoch-phase wall-time shares and interconnect link bytes.
//!
//! ```sh
//! cargo run --release -p eris-bench --bin eris-live            # live TUI
//! cargo run --release -p eris-bench --bin eris-live -- --once  # CI smoke
//! ```
//!
//! `--once` runs a short scripted scenario under **both** runtimes
//! (cooperative virtual-time, then real threads), drains, self-checks
//! the observability invariants (ring conservation, trace-ledger
//! balance, audit-vs-partition-table agreement, epoch-profiler phase
//! shares summing to one, SLO burn-rate rendering, JSON round-trips),
//! writes the JSONL trace and collapsed-stack profile artifacts, and
//! exits non-zero on any failure.

use eris_bench::fmt_size;
use eris_core::prelude::*;
use eris_core::BalanceVerdict;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    once: bool,
    interval_ms: u64,
    duration_s: f64,
    sample_every: u64,
    jsonl: Option<String>,
    prom: Option<String>,
    collapsed: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        once: false,
        interval_ms: 500,
        duration_s: 10.0,
        sample_every: 32,
        jsonl: None,
        prom: None,
        collapsed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--once" => args.once = true,
            "--interval-ms" => args.interval_ms = val("--interval-ms").parse().unwrap(),
            "--duration-s" => args.duration_s = val("--duration-s").parse().unwrap(),
            "--sample-every" => args.sample_every = val("--sample-every").parse().unwrap(),
            "--jsonl" => args.jsonl = Some(val("--jsonl")),
            "--prom" => args.prom = Some(val("--prom")),
            "--collapsed" => args.collapsed = Some(val("--collapsed")),
            "--help" | "-h" => {
                println!(
                    "eris-live [--once] [--interval-ms N] [--duration-s S] \
                     [--sample-every N] [--jsonl PATH] [--prom PATH] \
                     [--collapsed PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

const DOMAIN: u64 = 1 << 20;

/// Build the demo engine: one bulk-loaded index, per-AEU generators
/// drawing lookups (and a trickle of upserts) from a hot key range
/// published through atomics, One-Shot balancer armed.
fn build_engine(sample_every: u64) -> (Engine, DataObjectId, Arc<AtomicU64>, Arc<AtomicU64>) {
    let mut engine = Engine::new(
        eris_numa::amd_machine(),
        EngineConfig {
            balancer: BalancerConfig {
                enabled: true,
                algorithm: BalanceAlgorithm::OneShot,
                threshold_cv: 0.2,
                period_s: 1e-4,
                ..Default::default()
            },
            routing: RoutingConfig {
                trace_sample_every: sample_every,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let idx = engine.create_index("events", DOMAIN);
    engine.bulk_load_index(idx, (0..DOMAIN).map(|k| (k, k)));

    let hot_lo = Arc::new(AtomicU64::new(0));
    let hot_hi = Arc::new(AtomicU64::new(DOMAIN));
    for a in engine.aeu_ids() {
        let (lo, hi) = (Arc::clone(&hot_lo), Arc::clone(&hot_hi));
        let mut x = (a.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut batch = 0u64;
        engine.set_generator(
            a,
            Some(Box::new(move |_, out| {
                let (lo, hi) = (lo.load(Ordering::Relaxed), hi.load(Ordering::Relaxed));
                let mut draw = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    lo + x % (hi - lo)
                };
                batch += 1;
                // Mostly lookups, some upsert batches so the latency
                // table sees more than one command kind.  The choice is
                // RNG-driven: a fixed period would alias with the
                // deterministic 1-in-N latency sampler and hide one op.
                let payload = if draw().is_multiple_of(4) {
                    Payload::Upsert {
                        pairs: (0..32).map(|_| (draw(), batch)).collect(),
                    }
                } else {
                    Payload::Lookup {
                        keys: (0..64).map(|_| draw()).collect(),
                    }
                };
                out.push(DataCommand {
                    object: idx,
                    ticket: 0,
                    payload,
                });
            })),
        );
    }
    (engine, idx, hot_lo, hot_hi)
}

fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

fn heat_ramp(frac: f64) -> char {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let i = (frac.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[i] as char
}

/// One rendered frame of the dashboard, as plain text (the live loop
/// prepends a clear-screen escape; `--once` prints it verbatim).
fn render_frame(
    engine: &Engine,
    idx: DataObjectId,
    prev: &TelemetrySnapshot,
    snap: &TelemetrySnapshot,
) -> String {
    let mut out = String::new();
    let n = snap.per_aeu.len();
    out.push_str(&format!(
        "eris-live · {} AEUs · {} commands executed · {} migrated keys\n\n",
        n, snap.totals.commands_executed, snap.balancer.keys_moved,
    ));

    // Per-AEU utilization: executed-command delta since the last frame,
    // normalized by the busiest AEU in the window.
    let deltas: Vec<u64> = snap
        .per_aeu
        .iter()
        .zip(&prev.per_aeu)
        .map(|(now, was)| now.commands_executed.saturating_sub(was.commands_executed))
        .collect();
    let max_delta = deltas.iter().copied().max().unwrap_or(0).max(1);
    out.push_str("AEU utilization (commands this frame)\n");
    for (i, d) in deltas.iter().enumerate() {
        out.push_str(&format!(
            "  aeu {i:>2} |{}| {d}\n",
            bar(*d as f64 / max_delta as f64, 40)
        ));
    }

    // Partition heat map: the monitor's latest access sample if the
    // balancer has taken one, partition sizes otherwise.
    let sample = engine.monitor().latest(idx);
    let heat: Vec<f64> = match sample {
        Some(s) if !s.accesses.is_empty() => s.accesses.iter().map(|&a| a as f64).collect(),
        _ => engine
            .aeu_ids()
            .iter()
            .map(|a| {
                engine
                    .aeu(*a)
                    .partition(idx)
                    .map_or(0.0, |p| p.data.len() as f64)
            })
            .collect(),
    };
    let peak = heat.iter().cloned().fold(1.0f64, f64::max);
    out.push_str("\npartition heat (object 0, one cell per AEU)\n  [");
    for h in &heat {
        out.push(heat_ramp(h / peak));
    }
    out.push_str("]\n");

    // Balancer audit: the latest decision with its CVs and verdict.
    if let Some(d) = engine.monitor().last_decision(idx) {
        out.push_str(&format!(
            "\nbalancer audit @ {:.4}s · cv access {:.3} exec {:.3} size {:.3} (threshold {:.2}) → {:?}, {} migration(s)\n",
            d.at_secs, d.access_cv, d.exec_cv, d.size_cv, d.threshold_cv,
            d.verdict, d.migrations.len(),
        ));
    }

    // Migration ticker: the most recent ring-recorded moves.
    let migrations: Vec<_> = engine
        .trace_events()
        .into_iter()
        .filter(|e| matches!(e.event, eris_obs::TraceEvent::Migration { .. }))
        .collect();
    out.push_str(&format!(
        "\nmigrations ({} total in rings)\n",
        migrations.len()
    ));
    for e in migrations.iter().rev().take(5) {
        if let eris_obs::TraceEvent::Migration {
            object,
            src,
            dst,
            keys,
            bytes,
        } = e.event
        {
            out.push_str(&format!(
                "  obj {object}: aeu {src} → {dst}  {keys} keys, {}\n",
                fmt_size(bytes)
            ));
        }
    }

    // Sampled latency attribution, per (object, command-kind).
    out.push_str(&format!(
        "\nsampled latency (stamped {} · traced {} · dropped {})\n",
        snap.trace.stamped, snap.trace.traced, snap.trace.dropped,
    ));
    for ((obj, op), series) in snap.latency.iter().take(6) {
        let name = StorageOp::from_tag(*op).map_or("?", |o| o.name());
        out.push_str(&format!(
            "  obj {obj} {name:<8} n={:<6} queue {:>9.0} ns · exec {:>9.0} ns · hops {:.2}\n",
            series.queue_wait.count,
            series.queue_wait.mean(),
            series.exec.mean(),
            series.hops.mean(),
        ));
    }

    // Epoch-phase profile: where each AEU's wall time went this run.
    // The breakdown is cumulative, so the panel shows lifetime shares;
    // `Idle` is the unattributed remainder of each epoch.
    if snap.phases.iter().any(|p| p.total_ns() > 0) {
        out.push_str("\nepoch phases (% of attributed wall time)\n");
        for (i, p) in snap.phases.iter().enumerate() {
            if p.total_ns() == 0 {
                continue;
            }
            out.push_str(&format!("  aeu {i:>2} "));
            for ph in eris_obs::Phase::ALL {
                let pct = p.fraction(ph) * 100.0;
                if pct >= 0.5 {
                    out.push_str(&format!(" {} {pct:.0}%", ph.name()));
                }
            }
            out.push('\n');
        }
    }

    // Cross-node interconnect traffic, when the runtime carries the
    // hardware-counter model.
    if !snap.links.is_empty() {
        out.push_str("\ninterconnect links (bytes per direction)\n");
        for l in &snap.links {
            out.push_str(&format!(
                "  node {} <-> node {}  ->{}  <-{}\n",
                l.a,
                l.b,
                fmt_size(l.bytes_ab),
                fmt_size(l.bytes_ba),
            ));
        }
    }

    // Ring accounting roll-up.
    let (emitted, retained, dropped) = snap.rings.iter().fold((0, 0, 0), |acc, r| {
        (acc.0 + r.emitted, acc.1 + r.retained, acc.2 + r.dropped)
    });
    out.push_str(&format!(
        "\ntrace rings: {emitted} emitted = {retained} retained + {dropped} overwritten\n"
    ));
    out
}

/// Live mode: advance virtual time a slice per frame, shift the hotspot
/// periodically, redraw.
fn run_live(args: &Args) {
    let (mut engine, idx, hot_lo, hot_hi) = build_engine(args.sample_every);
    let frames = ((args.duration_s * 1000.0) / args.interval_ms as f64).ceil() as u64;
    let mut prev = engine.telemetry();
    for frame in 0..frames {
        // Every 8 frames the hotspot jumps to a new 5% slice of the
        // domain, so the balancer has something to chase.
        if frame % 8 == 4 {
            let lo = (frame % 16) * (DOMAIN / 16);
            hot_lo.store(lo, Ordering::Relaxed);
            hot_hi.store(lo + DOMAIN / 20, Ordering::Relaxed);
        } else if frame % 8 == 0 {
            hot_lo.store(0, Ordering::Relaxed);
            hot_hi.store(DOMAIN, Ordering::Relaxed);
        }
        engine.run_for_virtual_secs(3e-4);
        let snap = engine.telemetry();
        print!("\x1b[2J\x1b[H{}", render_frame(&engine, idx, &prev, &snap));
        prev = snap;
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
    if let Some(path) = &args.jsonl {
        std::fs::write(path, eris_obs::render_events_jsonl(&engine.trace_events())).unwrap();
    }
    if let Some(path) = &args.prom {
        std::fs::write(path, engine.telemetry().to_prometheus()).unwrap();
    }
    if let Some(path) = &args.collapsed {
        std::fs::write(path, engine.telemetry().collapsed_stack()).unwrap();
    }
}

/// `--once`: scripted scenario + self-checks, for CI.  Exits non-zero
/// (via the failure list) if any observability invariant is violated.
fn run_once(args: &Args) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, what);
        if !ok {
            failures.push(what.to_string());
        }
    };

    let (mut engine, idx, hot_lo, hot_hi) = build_engine(args.sample_every);
    let baseline = engine.telemetry();

    // Cooperative runtime: uniform warm-up, then a hotspot that forces
    // the balancer to migrate.
    engine.run_for_virtual_secs(1e-3);
    hot_lo.store(0, Ordering::Relaxed);
    hot_hi.store(DOMAIN / 20, Ordering::Relaxed);
    engine.run_for_virtual_secs(4e-3);
    hot_lo.store(0, Ordering::Relaxed);
    hot_hi.store(DOMAIN, Ordering::Relaxed);

    // Real-thread runtime over the same engine and rings.
    engine.run_threaded_for(Duration::from_millis(200));

    // Detach the generators, then drain: conservation invariants hold
    // exactly at quiescence.
    engine.drain_and_quiesce();

    let snap = engine.telemetry();
    println!("{}", render_frame(&engine, idx, &baseline, &snap));
    println!("self-checks:");

    check(snap.totals.commands_executed > 0, "commands executed");
    check(snap.conservation_holds(), "enqueued == executed (drained)");
    check(snap.trace.stamped > 0, "latency sampling stamped commands");
    check(
        snap.trace.balances(),
        "trace ledger balances: stamped == traced + dropped",
    );
    check(
        snap.rings
            .iter()
            .all(|r| r.emitted == r.retained + r.dropped),
        "every ring conserves: emitted == retained + dropped",
    );
    check(
        snap.rings.iter().any(|r| r.emitted > 0),
        "trace rings saw events",
    );

    // Epoch profiler invariants: wall time was attributed and every
    // AEU's phase shares sum to one (the Idle phase absorbs the
    // remainder, so this holds by construction unless charging is
    // double-counted or lost).
    check(
        snap.phases.iter().any(|p| p.total_ns() > 0),
        "epoch profiler attributed wall time",
    );
    check(
        snap.phases_sum_to_one(0.01),
        "per-AEU phase fractions sum to 1 (±1%)",
    );
    check(
        snap.exemplars.iter().flatten().any(|e| e.total_ns > 0),
        "latency histogram retained at least one exemplar",
    );

    // SLO burn-rate pipeline: feed the engine-side totals through the
    // same SloEngine the serving layer uses and make sure burn metrics
    // render.  Engine-born traces have no admission verdicts, so the
    // error numerator is the trace ledger's dropped count.
    let slo = eris_obs::SloEngine::new(eris_obs::SloConfig::default());
    let threshold = slo.config().latency_threshold_ns;
    let scale = args.sample_every.max(1);
    let bad: u64 = snap
        .latency
        .iter()
        .map(|(_, s)| s.exec.count_over(threshold))
        .sum::<u64>()
        * scale;
    slo.observe(
        0,
        eris_obs::now_ns(),
        eris_obs::SloTotals {
            requests: snap.totals.commands_executed,
            bad_latency: bad.min(snap.totals.commands_executed),
            errors: snap.trace.dropped,
        },
    );
    let slo_now = eris_obs::now_ns();
    let slo_prom = eris_obs::render_prometheus(&slo.to_metrics(slo_now));
    check(
        slo_prom.contains("eris_slo_burn_rate"),
        "SLO burn-rate metrics render",
    );
    check(
        slo.worst_burn(0, slo_now).is_finite(),
        "SLO burn rates are finite",
    );

    // The hotspot phase must have produced balancer activity, and every
    // audited migration must agree with the live partition table: after
    // the dust settles the audit log's final rebalance decision moved
    // ranges whose keys are now owned by *some* AEU (ownership is total)
    // and the table covers the whole domain.
    let audit = engine.monitor().audit_log();
    check(!audit.is_empty(), "balancer audit log is non-empty");
    let rebalances = audit
        .iter()
        .filter(|d| d.verdict == BalanceVerdict::Rebalanced)
        .count();
    check(rebalances > 0, "at least one rebalance audited");
    let audited_moves: u64 = audit
        .iter()
        .flat_map(|d| &d.migrations)
        .map(|m| m.keys)
        .sum();
    // A donor's ring records each of its migrations; it keeps its newest
    // events, so its migrations are the newest the audit log holds for
    // that donor, and all of them while it has overwritten nothing.
    let events = engine.trace_events();
    let ring_matches_audit = snap.rings.iter().zip(0..).all(|(ring, aeu)| {
        let audited: Vec<(usize, u64)> = audit
            .iter()
            .flat_map(|d| &d.migrations)
            .filter(|m| m.src == aeu)
            .map(|m| (m.dst, m.keys))
            .collect();
        let kept: Vec<(usize, u64)> = events
            .iter()
            .filter_map(|e| match e.event {
                eris_obs::TraceEvent::Migration { src, dst, keys, .. } if src as usize == aeu => {
                    Some((dst as usize, keys))
                }
                _ => None,
            })
            .collect();
        audited.ends_with(&kept) && (ring.dropped > 0 || kept.len() == audited.len())
    });
    check(
        audited_moves == snap.balancer.keys_moved,
        "audit log keys == balancer keys_moved counter",
    );
    check(
        ring_matches_audit,
        "ring migration events == audit log (the newest, once a ring wraps)",
    );
    check(
        (0..DOMAIN)
            .step_by((DOMAIN / 256) as usize)
            .all(|k| engine.owner_of(idx, k).is_some()),
        "partition table covers the domain after migrations",
    );

    // The JSON-lines export parses back line by line through the
    // serde-free parser, and its per-AEU executed samples add up to the
    // totals.
    let metrics_jsonl = eris_obs::render_jsonl(&snap.to_metrics(), eris_obs::now_ns());
    let executed = metrics_jsonl
        .lines()
        .map(|l| eris_obs::json::parse(l).ok())
        .collect::<Option<Vec<_>>>()
        .map(|lines| {
            lines
                .iter()
                .filter(|v| {
                    v.get("metric").and_then(|m| m.as_str()) == Some("eris_commands_executed_total")
                })
                .filter_map(|v| v.get("value")?.as_u64())
                .sum::<u64>()
        });
    check(
        executed == Some(snap.totals.commands_executed),
        "telemetry JSONL parses and round-trips totals",
    );
    let events = engine.trace_events();
    let jsonl = eris_obs::render_events_jsonl(&events);
    check(
        jsonl.lines().count() == events.len()
            && jsonl.lines().all(|l| eris_obs::json::parse(l).is_ok()),
        "every trace event renders as parseable JSONL",
    );
    let prom = snap.to_prometheus();
    check(
        prom.contains("# TYPE") && prom.contains("eris_commands_executed"),
        "prometheus exposition renders",
    );

    // Artifacts.
    let jsonl_path = args
        .jsonl
        .clone()
        .unwrap_or_else(|| "eris-live-trace.jsonl".into());
    std::fs::write(&jsonl_path, &jsonl).unwrap();
    println!("  wrote {} ({} events)", jsonl_path, events.len());
    if let Some(path) = &args.prom {
        std::fs::write(path, &prom).unwrap();
        println!("  wrote {path}");
    }
    let collapsed = snap.collapsed_stack();
    check(
        !collapsed.is_empty() && collapsed.lines().all(|l| l.contains(';')),
        "collapsed stack renders aeu;phase frames",
    );
    let collapsed_path = args
        .collapsed
        .clone()
        .unwrap_or_else(|| "eris-live-profile.collapsed".into());
    std::fs::write(&collapsed_path, &collapsed).unwrap();
    println!(
        "  wrote {} ({} frames)",
        collapsed_path,
        collapsed.lines().count()
    );
    failures
}

fn main() {
    let args = parse_args();
    if args.once {
        let failures = run_once(&args);
        if failures.is_empty() {
            println!("\neris-live --once: OK");
        } else {
            eprintln!("\neris-live --once: {} check(s) FAILED:", failures.len());
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    } else {
        run_live(&args);
    }
}
