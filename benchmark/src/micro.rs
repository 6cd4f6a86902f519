//! Isolated ns/op microbenchmarks of public functions, on inputs sampled
//! from the workload's own command stream.  They name the layer a change
//! touched; only the end-to-end metrics say whether it mattered.

use crate::report::Metrics;
use eris_column::{Aggregate, Column, Predicate, ScanKernel, SharedScan};
use eris_core::prelude::*;
use eris_core::routing::{IncomingBuffers, PartitionTable, Router, RoutingShared};
use eris_durability::wal::Wal;
use eris_durability::FailPoints;
use eris_index::{CsbTree, HashTable, PrefixTree, PrefixTreeConfig};
use eris_mem::{MemoryManager, Policy};
use eris_numa::{Flow, FlowSolver, NodeId};
use eris_obs::{LatencyRecord, LatencyTable, Stamped, TraceEvent, TraceRing};
use eris_server::{
    Admission, AdmissionConfig, CreditWindow, LoadSignal, RequestFrame, RespKind, ResponseFrame,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median over 5 repetitions of the nanoseconds `f` takes per unit, where
/// one call of `f` does `units` units of work.
fn ns_per(units: usize, mut f: impl FnMut()) -> f64 {
    let mut reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    reps.sort_by(|a, b| a.total_cmp(b));
    reps[2]
}

/// [`ns_per`] one call of `f(i)`, made for `i` in `0..n`.
fn ns_times(n: u64, mut f: impl FnMut(u64)) -> f64 {
    ns_per(n as usize, || (0..n).for_each(&mut f))
}

/// [`ns_per`] one call of `f`, made on every item `passes` times over.
fn ns_each<T>(items: &[T], passes: usize, mut f: impl FnMut(&T)) -> f64 {
    ns_per(items.len() * passes, || {
        for _ in 0..passes {
            items.iter().for_each(&mut f);
        }
    })
}

/// The keys a point command carries.
pub fn keys_of(cmd: &DataCommand) -> Vec<u64> {
    match &cmd.payload {
        Payload::Lookup { keys } => keys.clone(),
        Payload::Upsert { pairs } => pairs.iter().map(|p| p.0).collect(),
        _ => Vec::new(),
    }
}

/// Keys per call of a batched index entry point.
const PROBE_BATCH: usize = 64;

/// One partition's worth of a prefix tree (`keys = rank * stride`).
pub fn prefix_tree(sample: &[u64], partition_keys: u64, stride: u64, m: &mut Metrics) {
    let mut tree = PrefixTree::with_config(PrefixTreeConfig::new(8, 64), 0);
    for r in 0..partition_keys {
        tree.upsert(r * stride, r);
    }
    let keys: Vec<u64> = sample
        .iter()
        .map(|k| k % (partition_keys * stride) / stride * stride)
        .collect();
    let batches: Vec<&[u64]> = keys.chunks_exact(PROBE_BATCH).collect();
    let mut out = Vec::with_capacity(PROBE_BATCH);
    let per_batch = ns_each(&batches, 1, |c| {
        out.clear();
        tree.lookup_batch(black_box(c), &mut out);
        black_box(&out);
    });
    m.set(
        "index.prefix_tree.lookup_ns",
        per_batch / PROBE_BATCH as f64,
    );
    let per_upsert = ns_each(&keys, 1, |&k| {
        black_box(tree.upsert(k, k ^ 1));
    });
    m.set("index.prefix_tree.upsert_ns", per_upsert);
    m.set(
        "index.prefix_tree.bytes_per_key",
        tree.memory_bytes() as f64 / tree.len() as f64,
    );
}

/// One partition's worth of a hash table over dense keys.
pub fn hash_table(sample: &[u64], partition_keys: u64, m: &mut Metrics) {
    let mut table = HashTable::new(7, 0);
    let all: Vec<(u64, u64)> = (0..partition_keys).map(|k| (k, k)).collect();
    table.upsert_batch(&all);
    let keys: Vec<u64> = sample.iter().map(|k| k % partition_keys).collect();
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 1)).collect();
    let key_batches: Vec<&[u64]> = keys.chunks_exact(PROBE_BATCH).collect();
    let pair_batches: Vec<&[(u64, u64)]> = pairs.chunks_exact(PROBE_BATCH).collect();
    let mut out = Vec::with_capacity(PROBE_BATCH);
    let per_batch = ns_each(&key_batches, 1, |c| {
        out.clear();
        table.lookup_batch(black_box(c), &mut out);
        black_box(&out);
    });
    m.set("index.hash_table.lookup_ns", per_batch / PROBE_BATCH as f64);
    let per_batch = ns_each(&pair_batches, 1, |c| {
        black_box(table.upsert_batch(black_box(c)));
    });
    m.set("index.hash_table.upsert_ns", per_batch / PROBE_BATCH as f64);
    m.set(
        "index.hash_table.bytes_per_key",
        table.memory_bytes() as f64 / table.len() as f64,
    );
}

/// Command codec, partition-table descent, router and incoming buffers,
/// on commands of the workload's own shape routed by `table`.
pub fn codec_and_routing(sample: &[DataCommand], table: PartitionTable, m: &mut Metrics) {
    let rounds = (20_000 / sample.len().max(1)).max(1);
    let mut buf = Vec::new();
    let encode_ns = ns_each(sample, rounds, |c| {
        buf.clear();
        black_box(c).encode(&mut buf);
        black_box(&buf);
    });
    m.set("core.command.encode_ns", encode_ns);
    let encoded: Vec<Vec<u8>> = sample
        .iter()
        .map(|c| {
            let mut b = Vec::new();
            c.encode(&mut b);
            b
        })
        .collect();
    let decode_ns = ns_each(&encoded, rounds, |b| {
        black_box(DataCommand::try_decode(&mut black_box(b.as_slice())).is_ok());
    });
    m.set("core.command.decode_ns", decode_ns);

    let keys: Vec<u64> = sample.iter().flat_map(keys_of).collect();
    if let (Some(range), false) = (table.as_range(), keys.is_empty()) {
        let passes = (100_000 / keys.len()).max(1);
        let owner_ns = ns_each(&keys, passes, |&k| {
            black_box(range.owner(black_box(k)));
        });
        m.set("core.routing.owner_ns", owner_ns);
        let per_cmd = (keys.len() / sample.len()).max(1);
        let commands: Vec<&[u64]> = keys.chunks_exact(per_cmd).collect();
        let split_ns = ns_each(&commands, passes, |c| {
            black_box(range.split_by_owner(black_box(c)));
        });
        m.set("core.routing.split_ns_per_key", split_ns / per_cmd as f64);
        // The same descent at the paper's scale: 512 partitions.
        let top = keys.iter().copied().max().unwrap_or(0) / 512 + 1;
        let csb = CsbTree::build((0..512u64).map(|i| (top * i, i)).collect());
        let csb_ns = ns_each(&keys, passes, |&k| {
            black_box(csb.lookup(black_box(k)));
        });
        m.set("index.csb_tree.lookup_ns", csb_ns);
    }

    // Route through a real router into real incoming buffers, draining
    // them as an AEU would so nothing fills up.
    let cfg = RoutingConfig::default();
    let shared = Arc::new(RoutingShared::new(4, cfg));
    let owners: Vec<AeuId> = (0..4).map(AeuId).collect();
    let object = sample.first().map_or(DataObjectId(0), |c| c.object);
    shared.register_object(object, table);
    let mut router = Router::new(AeuId(0), Arc::clone(&shared), cfg);
    let cmds: Vec<DataCommand> = sample
        .iter()
        .map(|c| DataCommand {
            object,
            ..c.clone()
        })
        .collect();
    let (mut route_ns, mut flush_ns, mut routed) = (0u128, 0u128, 0usize);
    for _ in 0..rounds {
        let batch = cmds.clone();
        let t = Instant::now();
        for c in batch {
            black_box(router.route(c).expect("registered object"));
        }
        route_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(router.flush_all());
        flush_ns += t.elapsed().as_nanos();
        routed += cmds.len();
        for a in &owners {
            shared.incoming(*a).swap_and_consume(|d| {
                black_box(d.len());
            });
        }
    }
    m.set(
        "core.routing.route_ns_per_cmd",
        route_ns as f64 / routed as f64,
    );
    m.set(
        "core.routing.flush_ns_per_cmd",
        flush_ns as f64 / routed as f64,
    );
    let incoming = IncomingBuffers::new(cfg.incoming_capacity);
    let record = encoded.first().cloned().unwrap_or_else(|| vec![0u8; 64]);
    let per_swap = (cfg.incoming_capacity / 2 / record.len().max(1)).clamp(1, 256);
    let (mut write_ns, mut swap_ns) = (0u128, 0u128);
    let swaps = 200;
    for _ in 0..swaps {
        let t = Instant::now();
        for _ in 0..per_swap {
            black_box(incoming.write(black_box(&record)).is_ok());
        }
        write_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(incoming.swap_and_consume(|d| {
            black_box(d.len());
        }));
        swap_ns += t.elapsed().as_nanos();
    }
    m.set(
        "core.routing.incoming_write_ns",
        write_ns as f64 / (swaps * per_swap) as f64,
    );
    m.set(
        "core.routing.incoming_swap_ns",
        swap_ns as f64 / swaps as f64,
    );
}

/// One flow solve as an epoch makes it: after coalescing, each of the 4
/// AEUs streams to at most its 2 home nodes.
pub fn flow_solver(m: &mut Metrics) {
    let topo = crate::workloads::machine();
    let flows: Vec<Flow> = (0..8)
        .map(|i| {
            Flow::new(
                NodeId((i % 2) as u16),
                NodeId((i / 2 % 2) as u16),
                4096 + i as u64,
            )
        })
        .collect();
    let ns = ns_times(2000, |_| {
        black_box(FlowSolver::new(&topo).solve(black_box(&flows)));
    });
    m.set("numa.flow_solver.solve_us", ns / 1e3);
}

/// Latency-table record, trace-ring emit, and the memory manager.
pub fn obs_and_mem(m: &mut Metrics) {
    let n = 100_000;
    let table = LatencyTable::default();
    let record_ns = ns_times(n, |i| {
        let record = LatencyRecord {
            queue_wait_ns: 1000 + i,
            exec_ns: 500 + i,
            hops: 0,
            net_ns: 0,
            admit_ns: 0,
            trace_id: i,
            tenant: eris_obs::TENANT_NONE,
        };
        table.record((0, (i % 2) as u8), record);
    });
    m.set("obs.latency.record_ns", record_ns);
    let ring = TraceRing::new(1024);
    let emit_ns = ns_times(n, |i| {
        let event = TraceEvent::BufferSwap {
            bytes: i,
            commands: 1,
        };
        ring.emit(Stamped {
            at_ns: i,
            aeu: 0,
            event,
        });
    });
    m.set("obs.ring.emit_ns", emit_ns);
    let mem = MemoryManager::new(&crate::workloads::machine());
    let alloc_ns = ns_times(n, |i| {
        let a = mem.alloc(Policy::Local(NodeId((i % 2) as u16)), 4096);
        mem.free(black_box(a));
    });
    m.set("mem.manager.alloc_ns", alloc_ns);
}

/// Frame codec and admission, on request frames as the client sends them.
pub fn server_calls(requests: &[Vec<u8>], m: &mut Metrics) {
    let frames: Vec<RequestFrame> = requests
        .iter()
        .map(|b| {
            RequestFrame::try_decode(&mut b.as_slice())
                .expect("own frame")
                .expect("complete")
        })
        .collect();
    let n = frames.len() as u64;
    let mut buf = Vec::new();
    let req_encode_ns = ns_each(&frames, 1, |f| {
        buf.clear();
        black_box(f).encode(&mut buf);
        black_box(&buf);
    });
    m.set("server.frame.req_encode_ns", req_encode_ns);
    let req_decode_ns = ns_each(requests, 1, |b| {
        black_box(RequestFrame::try_decode(&mut black_box(b.as_slice())).is_ok());
    });
    m.set("server.frame.req_decode_ns", req_decode_ns);
    let response = ResponseFrame {
        kind: RespKind::Accepted,
        code: 0,
        conn: 3,
        seq: 77,
        credits: 1,
        retry_after_ms: 0,
    };
    let resp_encode_ns = ns_times(n, |_| {
        buf.clear();
        black_box(&response).encode(&mut buf);
        black_box(&buf);
    });
    m.set("server.frame.resp_encode_ns", resp_encode_ns);
    let mut encoded = Vec::new();
    response.encode(&mut encoded);
    let resp_decode_ns = ns_times(n, |_| {
        black_box(ResponseFrame::try_decode(&mut black_box(encoded.as_slice())).is_ok());
    });
    m.set("server.frame.resp_decode_ns", resp_decode_ns);
    // A bucket that cannot run dry, so every verdict takes the granted path.
    let admission = Admission::new(
        AdmissionConfig {
            quota_capacity_ops: u32::MAX,
            quota_refill_ops_per_sec: u32::MAX,
            ..Default::default()
        },
        1,
    );
    let admit_ns = ns_times(n, |i| {
        black_box(admission.admit(0, 1, i * 1000, LoadSignal::default()));
    });
    m.set("server.admission.admit_ns", admit_ns);
    let window = CreditWindow::new(64);
    let credit_ns = ns_times(n, |_| {
        black_box(window.try_consume());
        black_box(window.regrant(1));
    });
    m.set("server.admission.credit_ns", credit_ns);
}

/// Shared-scan kernels with 1 and 8 fused predicates, and appends, on a
/// column of the workload's values.
pub fn column(values: &[u64], predicates: &[(Predicate, Aggregate)], m: &mut Metrics) {
    let mut local = Column::new_local(NodeId(0), 0, values.len() + 1);
    local.extend(values.iter().copied());
    let col = local.column();
    let rows = col.len();
    let scan = |k: usize| {
        let mut s = SharedScan::new();
        for (p, a) in predicates.iter().cycle().take(k) {
            s.add(*p, rows, *a);
        }
        black_box(s.execute_with(col, ScanKernel::default()));
    };
    m.set("column.scan.rows_per_s", 1e9 / ns_per(rows, || scan(1)));
    m.set(
        "column.scan.shared8_rows_per_s",
        1e9 / ns_per(rows, || scan(8)),
    );
    let chunk = &values[..values.len().min(1024)];
    let appends = 1000;
    m.set(
        "column.append.ns_per_row",
        ns_per(appends * chunk.len(), || {
            let mut c = Column::new_local(NodeId(0), 0, appends * chunk.len());
            (0..appends).for_each(|_| c.extend(black_box(chunk).iter().copied()));
            black_box(c.column().len());
        }),
    );
}

/// WAL append and group commit, on records of the workload's size.
pub fn wal(path: &std::path::Path, record: &[u8], records_per_commit: usize, m: &mut Metrics) {
    let wal = Wal::open(path).expect("journal in the benchmark's out directory");
    let fail = FailPoints::new();
    let commits = 50;
    let (mut append_ns, mut flush_ns) = (0u128, 0u128);
    for _ in 0..commits {
        let t = Instant::now();
        for _ in 0..records_per_commit {
            black_box(wal.append_payload(black_box(record)));
        }
        append_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(wal.flush(&fail, None));
        flush_ns += t.elapsed().as_nanos();
    }
    m.set(
        "durability.wal.append_ns_per_record",
        append_ns as f64 / (commits * records_per_commit) as f64,
    );
    m.set(
        "durability.wal.flush_us",
        flush_ns as f64 / commits as f64 / 1e3,
    );
    let _ = std::fs::remove_file(path);
}
