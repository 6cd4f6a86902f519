//! `engine-scan`: shared column scans beside appends, straight on the
//! engine.

use super::*;
use crate::micro;
use crate::stats::Rng;
use eris_column::scan::AggregateResult;

/// 128 MB of values, 32 MB per AEU: far beyond the 4 MB L2.
const ROWS: u64 = 1 << 24;
/// Values are uniform in `[0, VALUE_DOMAIN)`.
const VALUE_DOMAIN: u64 = 1 << 20;
/// Share of the value domain each pair of scans (Count, Sum) selects.
const SELECTIVITIES: [f64; 4] = [0.001, 0.01, 0.1, 0.5];
const APPEND_ROWS: u64 = 1024;
const POOL_EPOCHS: usize = 64;
/// Epochs of a traced run per second asked for (see `engine_batch`).
const TRACED_EPOCHS_PER_S: f64 = 12.0;

struct System {
    engine: Engine,
    col: DataObjectId,
    /// Rows per partition after the bulk load.
    base: u64,
}

fn values(seed: u64, rows: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 20);
    (0..rows).map(|_| rng.below(VALUE_DOMAIN)).collect()
}

fn build(cfg: EngineConfig, rows: &[u64]) -> System {
    let mut engine = Engine::new(machine(), cfg);
    let col = engine.create_column("c");
    engine.bulk_load_column(col, rows.iter().copied());
    System {
        engine,
        col,
        base: rows.len() as u64 / NUM_AEUS as u64,
    }
}

struct Generator {
    rng: Rng,
    col: DataObjectId,
    ticket: u64,
}

impl Generator {
    /// 8 scans, 2 through each AEU: every selectivity as a Count and a Sum
    /// over the same random value range.
    fn scans(&mut self, snapshot: u64) -> Batch {
        let mut batch = Vec::with_capacity(8);
        for (i, sel) in SELECTIVITIES.iter().enumerate() {
            let width = (VALUE_DOMAIN as f64 * sel) as u64;
            let lo = self.rng.below(VALUE_DOMAIN - width);
            for (j, agg) in [Aggregate::Count, Aggregate::Sum].into_iter().enumerate() {
                self.ticket += 1;
                let payload = Payload::Scan {
                    pred: Predicate::Range { lo, hi: lo + width },
                    agg,
                    snapshot,
                };
                let via = AeuId(((i * 2 + j) % NUM_AEUS) as u32);
                batch.push((
                    via,
                    DataCommand {
                        object: self.col,
                        ticket: self.ticket,
                        payload,
                    },
                ));
            }
        }
        batch
    }

    /// One 1024-row append (the key half of a pair is ignored by columns).
    fn append(&mut self, via: AeuId) -> (AeuId, DataCommand) {
        self.ticket += 1;
        let pairs = (0..APPEND_ROWS)
            .map(|i| (i, self.rng.below(VALUE_DOMAIN)))
            .collect();
        (
            via,
            DataCommand {
                object: self.col,
                ticket: self.ticket,
                payload: Payload::Upsert { pairs },
            },
        )
    }
}

/// The router sends a column's appends round-robin, so four appends
/// through four different AEUs add 1024 rows to every partition: at epoch
/// `e` the rows visible in every partition are the base plus `e / 4`
/// complete rounds.  A scan issued then must not see the newer rows that
/// some partitions already hold.
fn visible_rows(base: u64, epoch: u64) -> u64 {
    base + epoch / NUM_AEUS as u64 * APPEND_ROWS
}

fn pool(gen: &mut Generator) -> Vec<Batch> {
    (0..POOL_EPOCHS)
        .map(|e| {
            let mut batch = gen.scans(0);
            batch.push(gen.append(AeuId((e % NUM_AEUS) as u32)));
            batch
        })
        .collect()
}

/// Epoch `e`'s commands: the pooled batch with its scans' snapshot set.
fn batch_at(pool: &[Batch], base: u64, epoch: u64) -> Batch {
    let mut batch = pool[epoch as usize % POOL_EPOCHS].clone();
    for (_, c) in &mut batch {
        if let Payload::Scan { snapshot, .. } = &mut c.payload {
            *snapshot = visible_rows(base, epoch);
        }
    }
    batch
}

/// 1/64 of the rows on an engine that collects results: scans alone, then
/// drained and compared with a plain `Vec`, then a round of appends.  Odd
/// rounds cut the snapshot at the bulk-loaded rows, even ones see all.
/// Returns rows examined per row matched.
fn verify(seed: u64, out: &mut Outcome) -> f64 {
    let rows = values(seed, ROWS / VERIFY_SCALE);
    let mut cfg = engine_config(false);
    cfg.collect_results = true;
    let mut sys = build(cfg, &rows);
    let mut gen = Generator {
        rng: Rng::new(seed, 21),
        col: sys.col,
        ticket: 0,
    };
    let mut appended: Vec<u64> = Vec::new();
    let mut matched = 0u64;
    for round in 0..12u64 {
        let cut = round % 2 == 1;
        let scans = gen.scans(if cut { sys.base } else { u64::MAX });
        let wanted: Vec<(u64, AggregateResult)> = scans
            .iter()
            .map(|(_, c)| {
                let Payload::Scan { pred, agg, .. } = c.payload else {
                    unreachable!()
                };
                let seen = rows
                    .iter()
                    .chain(appended.iter().filter(|_| !cut))
                    .filter(|&&v| pred.matches(v));
                let want = match agg {
                    Aggregate::Count => AggregateResult::Count(seen.count() as u64),
                    _ => AggregateResult::Sum(seen.fold(0u64, |a, &v| a.wrapping_add(v))),
                };
                (c.ticket, want)
            })
            .collect();
        for (via, c) in scans {
            sys.engine.submit(via, c).expect("routable");
        }
        sys.engine.run_until_drained();
        out.attempted += wanted.len() as u64;
        for (ticket, want) in wanted {
            let got = sys.engine.results().combine_scan(ticket);
            out.check(
                got == Some(want),
                "verify: scan aggregate differs from the oracle",
            );
            if let Some(AggregateResult::Count(n)) = got {
                matched += 2 * n;
            }
        }
        sys.engine.results().take_scan_results();
        for a in 0..NUM_AEUS {
            let (via, c) = gen.append(AeuId(a as u32));
            let Payload::Upsert { pairs } = &c.payload else {
                unreachable!()
            };
            appended.extend(pairs.iter().map(|p| p.1));
            sys.engine.submit(via, c).expect("routable");
        }
        sys.engine.run_until_drained();
    }
    let examined = sys.engine.results().counts().rows_scanned;
    check_conservation(&mut sys.engine, out);
    examined as f64 / matched.max(1) as f64
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let rows = values(cfg.seed, ROWS);
    let mut rows_per_match = 0.0;
    let (mut sys, setup_s, growth) = repeat_setup(
        cfg,
        Clock::Wall,
        || build(engine_config(cfg.trace), &rows),
        || rows_per_match = verify(cfg.seed, &mut out),
    );
    let mut gen = Generator {
        rng: Rng::new(cfg.seed, 22),
        col: sys.col,
        ticket: 0,
    };
    let pool = pool(&mut gen);
    let base = sys.base;
    let before = sys.engine.results().counts();
    let mut spans = Spans::new(cfg.trace);
    let next = |epoch| batch_at(&pool, base, epoch);

    if !cfg.trace {
        let stop = Stop::measured(cfg.seconds);
        let log = drive(
            &mut sys.engine,
            Clock::Wall,
            stop,
            &mut spans,
            next,
            no_hook,
        );
        check_engine(&mut sys.engine, before, &log, &mut out);
        engine_end_to_end(&log, setup_s, growth / (ROWS as f64 * 8.0), &mut out);
        return out;
    }

    let reference = {
        let mut plain = build(engine_config(false), &rows);
        let stop = Stop::reference(cfg.seconds);
        drive(
            &mut plain.engine,
            Clock::Wall,
            stop,
            &mut Spans::new(false),
            next,
            no_hook,
        )
    };
    sys.engine.reset_counters();
    let stop = Stop::Epochs((cfg.seconds * TRACED_EPOCHS_PER_S) as u64);
    let log = drive(
        &mut sys.engine,
        Clock::Wall,
        stop,
        &mut spans,
        next,
        no_hook,
    );
    check_engine(&mut sys.engine, before, &log, &mut out);
    let snap = sys.engine.telemetry();
    engine_traced(
        "engine-scan",
        &sys.engine,
        &snap,
        &spans,
        &log,
        &reference,
        &mut out,
    );

    let m = &mut out.metrics;
    m.set("column.scan.rows_per_match", rows_per_match);
    let predicates: Vec<(Predicate, Aggregate)> = pool[0]
        .iter()
        .filter_map(|(_, c)| match c.payload {
            Payload::Scan { pred, agg, .. } => Some((pred, agg)),
            _ => None,
        })
        .collect();
    micro::column(&rows[..(ROWS / NUM_AEUS as u64) as usize], &predicates, m);
    let sample: Vec<DataCommand> = pool[0].iter().map(|(_, c)| c.clone()).collect();
    micro::codec_and_routing(&sample, column_table(), m);
    out
}
