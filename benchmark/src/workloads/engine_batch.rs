//! `engine-batch`: 256-key Zipf batches on a prefix tree and a hash index,
//! submitted straight to the engine, with the load balancer running.

use super::*;
use crate::micro;
use crate::stats::{Rng, Zipf};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Prefix-tree keys are `rank * 64`: the last tree level holds 4 keys per
/// 256-slot node, the sparse case (hundreds of bytes per key).
const PT_KEYS: u64 = 1 << 20;
const PT_STRIDE: u64 = 64;
/// Hash-index keys are dense ranks (tens of bytes per key).
const HT_KEYS: u64 = 1 << 22;
const CMDS_PER_AEU: usize = 4;
const KEYS_PER_CMD: usize = 256;
/// Every fifth command is an upsert: a fixed share, so that every epoch
/// carries the same mix (3 or 4 upserts in its 16 commands) and epoch times
/// differ by their keys only, not by the luck of the draw.
const UPSERT_EVERY: u64 = 5;
const THETA: f64 = 0.99;
/// Distinct epochs of commands generated before timing and then cycled.
const POOL_EPOCHS: usize = 256;
/// Balancer period in virtual seconds: a few dozen epochs, so several
/// cycles fall inside even a short run.
const BALANCE_PERIOD_S: f64 = 0.02;
/// Epochs of a traced run per second asked for (sized on the sandbox so
/// the traced phase takes about that long; the count, not the time, is
/// what repeats).
const TRACED_EPOCHS_PER_S: f64 = 400.0;

struct System {
    engine: Engine,
    pt: DataObjectId,
    ht: DataObjectId,
}

fn first_value(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

fn build(topo: Topology, cfg: EngineConfig, scale: u64) -> System {
    let mut engine = Engine::new(topo, cfg);
    let (pt_keys, ht_keys) = (PT_KEYS / scale, HT_KEYS / scale);
    let pt = engine.create_index("pt", pt_keys * PT_STRIDE);
    let ht = engine.create_hash_index("ht", ht_keys);
    engine.bulk_load_index(
        pt,
        (0..pt_keys).map(|r| (r * PT_STRIDE, first_value(r * PT_STRIDE))),
    );
    engine.bulk_load_index(ht, (0..ht_keys).map(|k| (k, first_value(k))));
    System { engine, pt, ht }
}

fn config(trace: bool) -> EngineConfig {
    let mut cfg = engine_config(trace);
    cfg.balancer.enabled = true;
    cfg.balancer.period_s = BALANCE_PERIOD_S;
    cfg
}

/// The command stream: everything random comes from the seed.
struct Generator {
    rng: Rng,
    pt: (DataObjectId, Zipf),
    ht: (DataObjectId, Zipf),
    ticket: u64,
}

impl Generator {
    fn new(seed: u64, stream: u64, sys: &System, scale: u64) -> Self {
        Generator {
            rng: Rng::new(seed, stream),
            pt: (sys.pt, Zipf::new(PT_KEYS / scale, THETA)),
            ht: (sys.ht, Zipf::new(HT_KEYS / scale, THETA)),
            ticket: 0,
        }
    }

    /// One command: 256 Zipf keys of one object, a lookup or an upsert.
    /// `value` decides what an upsert writes for a key.
    fn command(
        &mut self,
        on_tree: bool,
        value: &mut impl FnMut(&mut Rng, u64) -> u64,
    ) -> DataCommand {
        let (object, stride) = if on_tree {
            (self.pt.0, PT_STRIDE)
        } else {
            (self.ht.0, 1)
        };
        let zipf = if on_tree { &self.pt.1 } else { &self.ht.1 };
        let keys: Vec<u64> = (0..KEYS_PER_CMD)
            .map(|_| zipf.sample(&mut self.rng) * stride)
            .collect();
        self.ticket += 1;
        let payload = if self.ticket.is_multiple_of(UPSERT_EVERY) {
            Payload::Upsert {
                pairs: keys.iter().map(|&k| (k, value(&mut self.rng, k))).collect(),
            }
        } else {
            Payload::Lookup { keys }
        };
        DataCommand {
            object,
            ticket: self.ticket,
            payload,
        }
    }

    /// 4 commands through each AEU, alternating tree and hash index.
    fn batch(&mut self, aeus: usize, mut value: impl FnMut(&mut Rng, u64) -> u64) -> Batch {
        let mut batch = Vec::with_capacity(aeus * CMDS_PER_AEU);
        for j in 0..CMDS_PER_AEU {
            for a in 0..aeus {
                batch.push((AeuId(a as u32), self.command((a + j) % 2 == 0, &mut value)));
            }
        }
        batch
    }
}

/// The generator at 1/64 scale on an engine that collects results, every
/// lookup checked against a map.  Keys upserted in a batch get one value
/// per batch, so the order the AEUs apply them in cannot matter, and a
/// lookup racing an upsert of the same batch may see either value.
fn verify(seed: u64, out: &mut Outcome) {
    let mut cfg = config(false);
    cfg.collect_results = true;
    let mut sys = build(machine(), cfg, VERIFY_SCALE);
    let mut gen = Generator::new(seed, 1, &sys, VERIFY_SCALE);
    let mut oracle: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for round in 0..48u64 {
        let batch = gen.batch(NUM_AEUS, |_, k| (round + 1) << 40 | (k & 0xFFFF_FFFF));
        let mut object_of: HashMap<u64, u32> = HashMap::new();
        let mut written: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut looked_up = 0u64;
        for (_, c) in &batch {
            object_of.insert(c.ticket, c.object.0);
            match &c.payload {
                Payload::Upsert { pairs } => {
                    written.extend(pairs.iter().map(|&(k, v)| ((c.object.0, k), v)))
                }
                Payload::Lookup { keys } => looked_up += keys.len() as u64,
                _ => unreachable!("point commands only"),
            }
        }
        for (via, c) in batch {
            sys.engine.submit(via, c).expect("routable");
        }
        sys.engine.run_until_drained();
        let got = sys.engine.results().take_lookup_values();
        out.attempted += looked_up;
        out.fail(
            looked_up.abs_diff(got.len() as u64),
            "verify: lookup results missing or duplicated",
        );
        let mut wrong = 0;
        for (ticket, key, value) in got {
            let id = (object_of[&ticket], key);
            let before = oracle.get(&id).copied().or(Some(first_value(key)));
            if value != before && value != written.get(&id).copied() {
                wrong += 1;
            }
        }
        out.fail(
            wrong,
            "verify: lookup returned a value the oracle does not hold",
        );
        oracle.extend(written);
    }
    check_conservation(&mut sys.engine, out);
}

/// Throughput of the same command stream on real threads: 1 node x 2
/// cores, one OS thread per AEU, each generating its own commands.
fn threaded_keys_per_s(cfg: &RunCfg) -> f64 {
    let topo = custom_machine("bench-threaded", 1, 2, 20.0, 100.0, 10.0, 60.0);
    let mut sys = build(topo, engine_config(false), 1);
    for a in 0..2u32 {
        let mut gen = Generator::new(cfg.seed, 10 + u64::from(a), &sys, 1);
        sys.engine.set_generator(
            AeuId(a),
            Some(Box::new(move |_, out: &mut Vec<DataCommand>| {
                for j in 0..CMDS_PER_AEU {
                    out.push(gen.command(j % 2 == 0, &mut |rng: &mut Rng, _| rng.next_u64()));
                }
            })),
        );
    }
    let wall = Duration::from_secs_f64(cfg.seconds * 0.2);
    let before = sys.engine.results().counts();
    let t = Instant::now();
    sys.engine.run_threaded_for(wall);
    let secs = sys::secs_since(t);
    let c = sys.engine.results().counts();
    ((c.lookups - before.lookups) + (c.upserts - before.upserts)) as f64 / secs
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (mut sys, setup_s, growth) = repeat_setup(
        cfg,
        Clock::Wall,
        || build(machine(), config(cfg.trace), 1),
        || verify(cfg.seed, &mut out),
    );
    let pool: Vec<Batch> = {
        let mut gen = Generator::new(cfg.seed, 2, &sys, 1);
        (0..POOL_EPOCHS)
            .map(|_| gen.batch(NUM_AEUS, |rng, _| rng.next_u64()))
            .collect()
    };
    let before = sys.engine.results().counts();
    let mut spans = Spans::new(cfg.trace);

    if !cfg.trace {
        let stop = Stop::measured(cfg.seconds);
        let log = drive(
            &mut sys.engine,
            Clock::Wall,
            stop,
            &mut spans,
            cycle(&pool),
            no_hook,
        );
        check_engine(&mut sys.engine, before, &log, &mut out);
        let user_bytes = (PT_KEYS + HT_KEYS) as f64 * 16.0;
        engine_end_to_end(&log, setup_s, growth / user_bytes, &mut out);
        return out;
    }

    let reference = {
        let mut plain = build(machine(), config(false), 1);
        let stop = Stop::reference(cfg.seconds);
        drive(
            &mut plain.engine,
            Clock::Wall,
            stop,
            &mut Spans::new(false),
            cycle(&pool),
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
        cycle(&pool),
        no_hook,
    );
    check_engine(&mut sys.engine, before, &log, &mut out);
    let snap = sys.engine.telemetry();
    engine_traced(
        "engine-batch",
        &sys.engine,
        &snap,
        &spans,
        &log,
        &reference,
        &mut out,
    );

    let m = &mut out.metrics;
    m.set("core.engine.threaded_keys_per_s", threaded_keys_per_s(cfg));
    let keys_on = |object: DataObjectId| -> Vec<u64> {
        let on_object = pool.iter().flatten().filter(|(_, c)| c.object == object);
        on_object.flat_map(|(_, c)| micro::keys_of(c)).collect()
    };
    micro::prefix_tree(&keys_on(sys.pt), PT_KEYS / NUM_AEUS as u64, PT_STRIDE, m);
    micro::hash_table(&keys_on(sys.ht), HT_KEYS / NUM_AEUS as u64, m);
    let sample: Vec<DataCommand> = pool[0].iter().map(|(_, c)| c.clone()).collect();
    micro::codec_and_routing(&sample, range_table(PT_KEYS * PT_STRIDE), m);
    out
}
