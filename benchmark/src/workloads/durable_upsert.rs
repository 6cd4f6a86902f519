//! `durable-upsert`: the upsert path of `engine-batch` with the write-ahead
//! journal attached, periodic checkpoints, then a crash and a recovery.
//!
//! Timed on the process's CPU clock, set-up included: the sandbox's shared
//! disk answers an `fsync` in 0.3 ms in one quarter of an hour and in 5 ms
//! in the next, and on the wall clock this workload measured the disk
//! (`ops_per_s` between 1.9 M and 7.3 M in ten runs, however the epochs
//! were sized).  What the disk is asked to do shows as exact counts
//! (`durability.wal.fsyncs_per_kop`, `durability.write_amp`), what it made
//! the run wait as `durability.blocked_frac`.
//!
//! Flush policy: the engine's own — every AEU group-commits (write +
//! fsync) at each of its step boundaries, so when `run_epoch` returns,
//! everything that epoch applied is on disk.

use super::*;
use crate::micro;
use crate::stats::Rng;
use eris_durability::Durability;
use std::path::{Path, PathBuf};

const CLOCK: Clock = Clock::Cpu;
const KEYS: u64 = 1 << 20;
/// 512 commands of 64 keys through each AEU per epoch, every fourth one an
/// upsert: 128 Ki operations share the epoch's 4 group commits of 140 KB
/// (under the journal's 256 KB mid-step flush).  Few enough bytes per
/// second (25 MB/s) that the run does not wait on the disk for long and
/// leaves it, and the kernel threads behind it, calm for the next run.
const CMDS_PER_AEU: usize = 512;
const UPSERT_EVERY: usize = 4;
const PAIRS_PER_CMD: usize = 64;
const POOL_EPOCHS: usize = 8;
/// A checkpoint every this many epochs: several per run.
const CHECKPOINT_EVERY: u64 = 100;
/// Epochs after the last checkpoint whose journal tail recovery replays:
/// 1 Mi pairs.
const TAIL_EPOCHS: u64 = 32;
/// Rounds of the verify pass.
const VERIFY_ROUNDS: u64 = 8;
/// Epochs of a traced run per second asked for (see `engine_batch`).
const TRACED_EPOCHS_PER_S: f64 = 25.0;

struct System {
    engine: Engine,
    dura: Durability,
    kv: DataObjectId,
    dir: PathBuf,
}

fn first_value(key: u64) -> u64 {
    key | 1 << 63
}

/// A directory of this process under the benchmark's out directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(crate::OUT_DIR)
        .join(format!("durable-upsert-{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("out directory is writable");
    dir
}

fn build(cfg: EngineConfig, keys: u64, name: &str) -> System {
    let dir = scratch(name);
    let mut engine = Engine::new(machine(), cfg);
    let dura = Durability::open(&dir, engine.num_aeus()).expect("open journals");
    dura.attach(&mut engine);
    let kv = engine.create_hash_index("kv", keys);
    engine.bulk_load_index(kv, (0..keys).map(|k| (k, first_value(k))));
    System {
        engine,
        dura,
        kv,
        dir,
    }
}

struct Generator {
    rng: Rng,
    kv: DataObjectId,
    keys: u64,
    ticket: u64,
}

impl Generator {
    /// 512 commands of 64 uniform keys through each AEU, every fourth an
    /// upsert, staggered across the AEUs.  Upsert values are placeholders: [`stamp`] writes the real ones.
    fn batch(&mut self) -> Batch {
        let mut batch = Vec::with_capacity(NUM_AEUS * CMDS_PER_AEU);
        for j in 0..CMDS_PER_AEU {
            for a in 0..NUM_AEUS {
                let keys: Vec<u64> = (0..PAIRS_PER_CMD)
                    .map(|_| self.rng.below(self.keys))
                    .collect();
                self.ticket += 1;
                let payload = if (j + a) % UPSERT_EVERY == 0 {
                    Payload::Upsert {
                        pairs: keys.into_iter().map(|k| (k, 0)).collect(),
                    }
                } else {
                    Payload::Lookup { keys }
                };
                batch.push((
                    AeuId(a as u32),
                    DataCommand {
                        object: self.kv,
                        ticket: self.ticket,
                        payload,
                    },
                ));
            }
        }
        batch
    }
}

/// What every key must read back as.  All upserts of one epoch write the
/// epoch's number, so the order AEUs apply them in cannot matter; the last
/// epoch's writes may still be in flight when the engine stops, so for
/// those either the new or the previous value is right.
struct Oracle {
    value: Vec<u64>,
    /// `(key, value before)` of the last stamped batch's upserts.
    in_flight: Vec<(u64, u64)>,
    /// Batches stamped so far: the value the last one wrote.
    stamped: u64,
}

impl Oracle {
    fn new(keys: u64) -> Self {
        Oracle {
            value: (0..keys).map(first_value).collect(),
            in_flight: Vec::new(),
            stamped: 0,
        }
    }

    /// Give `batch`'s upserts the next epoch number as their value, and
    /// remember them; returns the batch.
    fn stamp(&mut self, mut batch: Batch) -> Batch {
        self.stamped += 1;
        let stamp = self.stamped;
        self.in_flight.clear();
        for (_, c) in &mut batch {
            if let Payload::Upsert { pairs } = &mut c.payload {
                for (k, v) in pairs {
                    *v = stamp;
                    self.in_flight.push((*k, self.value[*k as usize]));
                    self.value[*k as usize] = stamp;
                }
            }
        }
        batch
    }

    /// Read every key back from `engine` (which collects results); count
    /// the keys whose value is neither the acknowledged one nor, for keys
    /// written by the last epoch, the one before it.
    fn lost(&self, engine: &mut Engine, kv: DataObjectId) -> u64 {
        let keys = self.value.len() as u64;
        for (i, chunk) in (0..keys).collect::<Vec<u64>>().chunks(4096).enumerate() {
            let via = AeuId((i % NUM_AEUS) as u32);
            let cmd = DataCommand {
                object: kv,
                ticket: i as u64,
                payload: Payload::Lookup {
                    keys: chunk.to_vec(),
                },
            };
            engine.submit(via, cmd).expect("routable");
            if i % 16 == 15 {
                engine.run_epoch();
            }
        }
        engine.run_until_drained();
        let got = engine.results().take_lookup_values();
        let mut older: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
        for &(k, before) in &self.in_flight {
            older.entry(k).or_default().push(before);
        }
        let wrong = got
            .iter()
            .filter(|&&(_, k, v)| {
                v != Some(self.value[k as usize])
                    && !older
                        .get(&k)
                        .is_some_and(|o| o.iter().any(|&b| v == Some(b)))
            })
            .count() as u64;
        wrong + keys.abs_diff(got.len() as u64)
    }
}

fn collecting() -> EngineConfig {
    let mut cfg = engine_config(false);
    cfg.collect_results = true;
    cfg
}

/// Copy the durable directory as it is on disk: what a crash leaves.
/// `Wal::flush` writes and fsyncs together, so the files hold exactly the
/// flushed bytes; the group-commit buffers in memory are lost.
fn crash_copy(from: &Path, name: &str) -> PathBuf {
    fn copy(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).expect("create crash copy");
        for entry in std::fs::read_dir(from).expect("read durable directory") {
            let entry = entry.expect("directory entry");
            let target = to.join(entry.file_name());
            if entry.file_type().expect("file type").is_dir() {
                copy(&entry.path(), &target);
            } else {
                std::fs::copy(entry.path(), &target).expect("copy file");
            }
        }
    }
    let to = scratch(name);
    copy(from, &to);
    to
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| {
                if e.path().is_dir() {
                    dir_bytes(&e.path())
                } else {
                    e.metadata().map_or(0, |m| m.len())
                }
            })
            .sum()
    })
}

/// Recover `dir` into a fresh engine; returns it with the wall time and
/// the number of journal records replayed.
fn recover(dir: &Path) -> (Engine, f64, u64) {
    let mut engine = Engine::new(machine(), collecting());
    let t = Instant::now();
    let report = Durability::recover(&mut engine, dir).expect("recovery of a crash copy");
    (engine, sys::secs_since(t), report.replayed_records)
}

/// The generator at 1/64 scale: lookups checked value by value while the
/// engine runs, then a crash copy recovered and read back in full.
fn verify(seed: u64, out: &mut Outcome) {
    let keys = KEYS / VERIFY_SCALE;
    let mut sys = build(collecting(), keys, "verify");
    let mut gen = Generator {
        rng: Rng::new(seed, 31),
        kv: sys.kv,
        keys,
        ticket: 0,
    };
    let mut oracle = Oracle::new(keys);
    for round in 1..=VERIFY_ROUNDS {
        let before = oracle.value.clone();
        let batch = oracle.stamp(gen.batch());
        for (via, c) in batch {
            sys.engine.submit(via, c).expect("routable");
        }
        sys.engine.run_until_drained();
        let got = sys.engine.results().take_lookup_values();
        out.attempted += got.len() as u64;
        let wrong = got
            .iter()
            .filter(|&&(_, k, v)| {
                v != Some(before[k as usize]) && v != Some(oracle.value[k as usize])
            })
            .count();
        out.fail(
            wrong as u64,
            "verify: lookup returned a value the oracle does not hold",
        );
        if round == VERIFY_ROUNDS / 2 {
            sys.dura.checkpoint(&mut sys.engine).expect("checkpoint");
        }
    }
    oracle.in_flight.clear();
    let copy = crash_copy(&sys.dir, "verify-crash");
    let (mut recovered, _, _) = recover(&copy);
    out.attempted += keys;
    out.fail(
        oracle.lost(&mut recovered, sys.kv),
        "verify: acknowledged write lost by recovery",
    );
    check_conservation(&mut sys.engine, out);
}

/// Write back what earlier runs and this run's set-ups left dirty or
/// deleted (the filesystem trims deleted blocks at its next commit), so
/// that none of it is charged to the `fsync`s of the timed phase.
fn settle_disk() {
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(crate::OUT_DIR)
        .status();
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    std::fs::create_dir_all(crate::OUT_DIR).expect("out directory is writable");
    settle_disk();
    let (mut sys, setup_s, growth) = repeat_setup(
        cfg,
        CLOCK,
        || build(engine_config(cfg.trace), KEYS, "live"),
        || verify(cfg.seed, &mut out),
    );
    let mut gen = Generator {
        rng: Rng::new(cfg.seed, 32),
        kv: sys.kv,
        keys: KEYS,
        ticket: 0,
    };
    let pool: Vec<Batch> = (0..POOL_EPOCHS).map(|_| gen.batch()).collect();
    let mut oracle = Oracle::new(KEYS);
    let before = sys.engine.results().counts();
    let mut spans = Spans::new(cfg.trace);
    let System {
        engine,
        dura,
        kv,
        dir,
    } = &mut sys;

    // Traced runs only: the same commands on a second durable engine at the
    // shipped sampling.
    let reference = cfg.trace.then(|| {
        let mut plain = build(engine_config(false), KEYS, "reference");
        let stop = Stop::reference(cfg.seconds);
        let log = drive(
            &mut plain.engine,
            CLOCK,
            stop,
            &mut Spans::new(false),
            cycle(&pool),
            no_hook,
        );
        let _ = std::fs::remove_dir_all(&plain.dir);
        log
    });

    if cfg.trace {
        engine.reset_counters();
    }
    settle_disk();
    let journal_before = dir_bytes(&dir.join("wal"));
    let stop = if cfg.trace {
        Stop::Epochs((cfg.seconds * TRACED_EPOCHS_PER_S) as u64)
    } else {
        Stop::measured(cfg.seconds)
    };
    let mut checkpoint_times = Vec::new();
    let log = drive(
        engine,
        CLOCK,
        stop,
        &mut spans,
        |e| oracle.stamp(cycle(&pool)(e)),
        |engine, e, spans| {
            if (e + 1) % CHECKPOINT_EVERY == 0 {
                let t = Instant::now();
                spans.enter("durability.checkpoint", e);
                dura.checkpoint(engine).expect("checkpoint");
                spans.exit();
                checkpoint_times.push(sys::secs_since(t));
            }
        },
    );
    let snap = engine.telemetry();
    let written = dir_bytes(dir) - journal_before;
    eprintln!(
        "{} checkpoints inside the run, median {:.3} s",
        checkpoint_times.len(),
        stats::median(&checkpoint_times)
    );

    // A last checkpoint of the (fixed) population, then a fixed tail.
    let t = Instant::now();
    spans.enter("durability.checkpoint", u64::MAX);
    let seq = dura.checkpoint(engine).expect("checkpoint");
    spans.exit();
    let checkpoint_s = sys::secs_since(t);
    let checkpoint_bytes = dir_bytes(&dir.join(format!("ckpt-{seq}")));
    let at_checkpoint = cfg.trace.then(|| crash_copy(dir, "at-checkpoint"));
    let tail = drive(
        engine,
        CLOCK,
        Stop::Epochs(TAIL_EPOCHS),
        &mut Spans::new(false),
        |e| oracle.stamp(cycle(&pool)(e)),
        no_hook,
    );

    // The crash: the engine is simply not called again before the copy.
    let copy = crash_copy(dir, "crash");
    spans.enter("durability.recover", 0);
    let (mut recovered, recovery_s, replayed) = recover(&copy);
    spans.exit();
    let lost = oracle.lost(&mut recovered, *kv);
    out.attempted += KEYS;
    out.fail(lost, "acknowledged write lost by recovery");
    drop(recovered);

    let issued = DriveLog {
        issued_lookups: log.issued_lookups + tail.issued_lookups,
        issued_upserts: log.issued_upserts + tail.issued_upserts,
        ..Default::default()
    };
    check_engine(engine, before, &issued, &mut out);

    if let (Some(reference), Some(at_checkpoint)) = (reference, at_checkpoint) {
        engine_traced(
            "durable-upsert",
            engine,
            &snap,
            &spans,
            &log,
            &reference,
            &mut out,
        );
        let (_, load_s, _) = recover(&at_checkpoint);
        let t = &snap.totals;
        let m = &mut out.metrics;
        m.set(
            "durability.write_amp",
            written as f64 / (log.upserts as f64 * 16.0),
        );
        m.set(
            "durability.blocked_frac",
            1.0 - (log.to / log.wall_s).min(1.0),
        );
        m.set("durability.checkpoint_s", checkpoint_s);
        m.set("durability.recovery_s", recovery_s);
        m.set(
            "durability.wal.bytes_per_commit",
            t.journal_bytes as f64 / t.journal_fsyncs.max(1) as f64,
        );
        m.set(
            "durability.wal.fsyncs_per_kop",
            t.journal_fsyncs as f64 / (log.ops.max(1) as f64 / 1e3),
        );
        m.set(
            "durability.checkpoint.mb_per_s",
            checkpoint_bytes as f64 / 1e6 / checkpoint_s,
        );
        m.set("durability.checkpoint.bytes", checkpoint_bytes as f64);
        m.set("durability.recovery.checkpoint_load_s", load_s);
        // Replay time is what the tail adds to a recovery of the checkpoint
        // alone; 0 when disk noise made that difference negative.
        let replay_s = recovery_s - load_s;
        let replay_rate = if replay_s > 0.0 {
            replayed as f64 / replay_s
        } else {
            0.0
        };
        m.set("durability.recovery.replay_records_per_s", replay_rate);
        m.set("durability.acked_lost", lost as f64);
        let sample: Vec<DataCommand> = pool[0].iter().map(|(_, c)| c.clone()).collect();
        let keys: Vec<u64> = sample.iter().flat_map(micro::keys_of).collect();
        micro::hash_table(&keys, KEYS / NUM_AEUS as u64, m);
        micro::codec_and_routing(&sample, range_table(KEYS), m);
        // One AEU's share of an upsert command as the journal records it.
        let record = vec![0u8; 13 + PAIRS_PER_CMD / NUM_AEUS * 16];
        micro::wal(&dir.join("micro.log"), &record, CMDS_PER_AEU * NUM_AEUS, m);
    } else {
        engine_end_to_end(&log, setup_s, growth / (KEYS as f64 * 16.0), &mut out);
    }
    let _ = std::fs::remove_dir_all(dir.parent().expect("scratch directories share a parent"));
    // The filesystem trims what was just deleted at its next commit: have
    // that happen now, not under the next run.
    settle_disk();
    out
}
