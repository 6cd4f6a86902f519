//! The NUMA-agnostic baselines of Section 4.
//!
//! * [`SharedIndexBench`] — one shared instance of the engine's own
//!   [`PrefixTree`], memory interleaved across all nodes (the paper runs it
//!   under `numactl --interleave=all`).  Workers operate on the tree
//!   directly — no partitioning, no routing.  The simulated workers run
//!   one after another on the host thread, so the tree needs no
//!   synchronization of its own; what the paper's atomic instructions cost
//!   is charged by the cost model ([`CostParams::shared_cas_ns`] per upsert,
//!   [`CostParams::shared_coherence_factor`] on every miss).
//! * [`SharedScanBench`] — parallel threads scanning one column whose
//!   segments are placed on a single node (*Single RAM*) or interleaved
//!   (*Interleaved*), the two naive allocation strategies of Figure 9.
//!
//! Both run under the same virtual-time accounting as the engine: real
//! data structure operations, with latency/bandwidth charged through the
//! identical cost model and flow solver, so ERIS-vs-baseline ratios are
//! apples-to-apples.  The scan baseline's workers count their sweeps as
//! AEU steps do, and [`CostParams::epoch_ns`] prices them.

use crate::command::DataObjectId;
use crate::cost::{expected_tree_misses, CostParams, Routing, Shape, StepCounts};
use eris_column::{Column, Predicate, Segment, DEFAULT_SEGMENT_CAPACITY};
use eris_index::{PrefixTree, PrefixTreeConfig};
use eris_mem::{MemoryManager, Policy};
use eris_numa::{CostModel, Flow, FlowSolver, HwCounters, NodeId, Topology, VirtualClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Result of one benchmark phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    /// Operations (or rows) completed.
    pub ops: u64,
    /// Virtual time consumed, seconds.
    pub secs: f64,
}

impl PhaseResult {
    /// Throughput in operations per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.ops as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// The shared-index baseline: same prefix tree, no partitioning, charged
/// atomic synchronization, interleaved memory.
pub struct SharedIndexBench {
    topo: Arc<Topology>,
    params: CostParams,
    tree: PrefixTree,
    /// One worker per core; workers[i] runs on node `worker_nodes[i]`.
    worker_nodes: Vec<NodeId>,
    /// Virtual keys the index models (real keys × scale).
    model_keys: u64,
    real_keys: u64,
    batch: usize,
    pub clock: VirtualClock,
    pub counters: HwCounters,
    rng: StdRng,
}

impl SharedIndexBench {
    pub fn new(
        topo: Topology,
        tree_cfg: PrefixTreeConfig,
        params: CostParams,
        real_keys: u64,
        size_scale: u64,
        seed: u64,
    ) -> Self {
        let topo = Arc::new(topo);
        let worker_nodes: Vec<NodeId> = topo.cores().map(|c| topo.node_of_core(c)).collect();
        let counters = HwCounters::new(&topo);
        SharedIndexBench {
            params,
            tree: PrefixTree::with_config(tree_cfg, 0),
            worker_nodes,
            model_keys: real_keys * size_scale,
            real_keys,
            batch: 256,
            clock: VirtualClock::new(),
            counters,
            topo,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The number of worker threads (one per core).
    pub fn num_workers(&self) -> usize {
        self.worker_nodes.len()
    }

    /// Effective aggregate LLC of the shared index: because every node
    /// caches the *same* hot upper tree levels, replicated lines shrink
    /// the fleet of caches to roughly a single node's capacity
    /// (Figure 11: 79.3% of shared-index hits were on replicated lines).
    fn effective_cache_bytes(&self) -> f64 {
        let spec = self.topo.node_spec(NodeId(0));
        spec.llc_mib as f64 * 1048576.0
    }

    /// Mean read latency from `src` to an interleaved home node.
    fn avg_latency_ns(&self, src: NodeId) -> f64 {
        let cm = CostModel::new(&self.topo);
        let n = self.topo.num_nodes() as f64;
        self.topo
            .nodes()
            .map(|h| cm.latency_ns(src, h))
            .sum::<f64>()
            / n
    }

    /// Run one phase of `virtual_secs`, doing real `upsert`s or lookups.
    /// Priced here, not by [`CostParams::epoch_ns`]: a worker's misses
    /// spread over every interleaved home and overlap, so the slowest
    /// home binds it, where an AEU's posted flows share their summed rate.
    fn run_phase(&mut self, virtual_secs: f64, upsert: bool) -> PhaseResult {
        let end = self.clock.now_secs() + virtual_secs;
        let mut ops = 0u64;
        let cfg = self.tree.config();
        let misses =
            expected_tree_misses(self.model_keys.max(1), cfg, self.effective_cache_bytes());
        let levels = cfg.levels() as f64;
        let num_nodes = self.topo.num_nodes() as u64;
        while self.clock.now_secs() < end {
            // One epoch: every worker executes one real batch.
            let mut flows: Vec<Flow> = Vec::new();
            let mut worker_cpu = vec![0f64; self.worker_nodes.len()];
            let mut worker_lat = vec![0f64; self.worker_nodes.len()];
            let mut spans = Vec::with_capacity(self.worker_nodes.len());
            for (w, &src) in self.worker_nodes.iter().enumerate() {
                let start_flow = flows.len();
                for _ in 0..self.batch {
                    let key = self.rng.gen_range(0..self.real_keys);
                    if upsert {
                        self.tree.upsert(key, key.wrapping_mul(3));
                    } else {
                        std::hint::black_box(self.tree.lookup(key));
                    }
                }
                let b = self.batch as f64;
                worker_cpu[w] = b
                    * (self.params.cpu_ns_per_point_op
                        + levels * self.params.cpu_ns_per_tree_level
                        + if upsert {
                            self.params.cpu_ns_per_upsert + self.params.shared_cas_ns
                        } else {
                            0.0
                        });
                worker_lat[w] =
                    b * misses * self.avg_latency_ns(src) * self.params.shared_coherence_factor
                        / self.params.mlp;
                // Miss traffic spreads over the interleaved homes.
                let bytes_total = (b * misses * self.params.cache_line as f64) as u64;
                let per_home = (bytes_total / num_nodes).max(1);
                for home in self.topo.nodes() {
                    flows.push(Flow::new(src, home, per_home));
                }
                spans.push(start_flow..flows.len());
            }
            let rates = FlowSolver::new(&self.topo).solve(&flows);
            for f in &flows {
                self.counters.record(&self.topo, f.src, f.home, f.bytes);
            }
            let mut duration = 0f64;
            for (w, span) in spans.into_iter().enumerate() {
                // Miss traffic overlaps under MLP: the slowest home binds.
                let bw_ns: f64 = span
                    .map(|i| flows[i].bytes as f64 / rates.rates[i])
                    .fold(0.0, f64::max);
                let cpu = worker_cpu[w] / self.params.frequency_scale;
                duration = duration.max(cpu + worker_lat[w].max(bw_ns));
            }
            self.clock.advance_ns(duration.max(1_000.0));
            ops += (self.batch * self.worker_nodes.len()) as u64;
        }
        PhaseResult {
            ops,
            secs: virtual_secs,
        }
    }

    /// Insert phase: random keys for `virtual_secs`.
    pub fn run_upsert_phase(&mut self, virtual_secs: f64) -> PhaseResult {
        self.run_phase(virtual_secs, true)
    }

    /// Lookup phase: random keys for `virtual_secs`.
    pub fn run_lookup_phase(&mut self, virtual_secs: f64) -> PhaseResult {
        self.run_phase(virtual_secs, false)
    }

    /// Pre-populate the tree with `n` real keys (setup, not measured).
    pub fn load_dense(&mut self, n: u64) {
        for k in 0..n {
            self.tree.upsert(k, k);
        }
    }

    /// The shared tree (tests).
    pub fn tree(&self) -> &PrefixTree {
        &self.tree
    }
}

/// The one object a scan worker's counts hold: the shared column.
const SCANNED: DataObjectId = DataObjectId(0);

/// Memory placement of the shared-scan baseline (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPlacement {
    /// All segments on one node.
    SingleRam(NodeId),
    /// Segments round-robin across all nodes (`numactl --interleave=all`).
    Interleaved,
}

/// The shared-scan baseline: parallel threads cooperatively scanning one
/// column placed with a naive allocation strategy.
pub struct SharedScanBench {
    topo: Arc<Topology>,
    params: CostParams,
    column: Column,
    /// One worker per core, counting its share of each sweep.
    workers: Vec<StepCounts>,
    size_scale: u64,
    pub clock: VirtualClock,
    pub counters: HwCounters,
}

impl SharedScanBench {
    /// Build the column with `real_rows` rows placed per `placement`.
    pub fn new(
        topo: Topology,
        placement: ScanPlacement,
        params: CostParams,
        real_rows: usize,
        size_scale: u64,
    ) -> Self {
        let topo = Arc::new(topo);
        let mem = MemoryManager::new(&topo);
        let policy = match placement {
            ScanPlacement::SingleRam(n) => Policy::SingleNode(n),
            ScanPlacement::Interleaved => Policy::Interleaved,
        };
        let mut column = Column::new();
        column.append(0..real_rows as u64, || {
            let bytes = (DEFAULT_SEGMENT_CAPACITY * 8) as u64;
            let home = mem.alloc(policy, bytes).home;
            Segment::with_capacity(home, DEFAULT_SEGMENT_CAPACITY)
        });
        let workers = topo
            .cores()
            .map(|c| {
                let mut w = StepCounts::new(topo.node_of_core(c), topo.num_nodes());
                w.add_object(SCANNED, Shape::Column);
                w
            })
            .collect();
        let counters = HwCounters::new(&topo);
        SharedScanBench {
            params,
            column,
            workers,
            size_scale,
            clock: VirtualClock::new(),
            counters,
            topo,
        }
    }

    /// Scan the whole column once, split evenly over all workers.
    /// Returns the *virtual* bytes read and the virtual duration.
    pub fn scan_once(&mut self) -> (u64, f64) {
        let rows = self.column.len();
        let chunk = rows.div_ceil(self.workers.len());
        let scale = self.size_scale;
        let mut sum = 0u64;
        for (w, counts) in self.workers.iter_mut().enumerate() {
            let start = w * chunk;
            let end = (start + chunk).min(rows);
            let examined = self.column.scan_rows(start, end, Predicate::All, |_, v| {
                sum = sum.wrapping_add(v);
            });
            counts.begin_step(0.0, Routing::default());
            counts.counts_of(SCANNED).scan_rows = examined as u64 * scale;
            for (home, seg_rows) in self.column.rows_per_node(start, end) {
                counts.nodes[home.index()].scan_rows += seg_rows * scale;
            }
        }
        std::hint::black_box(sum);
        let mut step_ns = Vec::with_capacity(self.workers.len());
        let epoch_ns =
            self.params
                .epoch_ns(&self.topo, &self.workers, &mut self.counters, &mut step_ns);
        self.clock.advance_ns(epoch_ns);
        let duration = step_ns.iter().fold(0.0, |d: f64, &t| d.max(t));
        ((rows as u64) * 8 * scale, duration)
    }

    /// Scan repeatedly for `virtual_secs`; returns aggregate GB/s.
    pub fn run(&mut self, virtual_secs: f64) -> f64 {
        let end = self.clock.now_secs() + virtual_secs;
        let mut bytes = 0u64;
        let start = self.clock.now_secs();
        while self.clock.now_secs() < end {
            bytes += self.scan_once().0;
        }
        bytes as f64 / ((self.clock.now_secs() - start) * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eris_numa::machines::{custom_machine, intel_machine};

    #[test]
    fn shared_index_lookup_phase_completes_real_ops() {
        let mut b = SharedIndexBench::new(
            custom_machine("m", 2, 2, 20.0, 100.0, 10.0, 60.0),
            PrefixTreeConfig::new(8, 32),
            CostParams::default(),
            10_000,
            1,
            7,
        );
        b.load_dense(10_000);
        assert_eq!(b.tree().len(), 10_000);
        let r = b.run_lookup_phase(0.001);
        assert!(r.ops > 0);
        assert!(r.ops_per_sec() > 0.0);
        assert!(b.counters.remote_requests + b.counters.local_requests > 0);
    }

    #[test]
    fn shared_index_slows_down_with_bigger_model() {
        let mk = |model_scale: u64| {
            let mut b = SharedIndexBench::new(
                intel_machine(),
                PrefixTreeConfig::new(8, 64),
                CostParams::default(),
                100_000,
                model_scale,
                7,
            );
            b.load_dense(100_000);
            b.run_lookup_phase(0.001).ops_per_sec()
        };
        let small = mk(1); // 100k keys: cache resident
        let large = mk(20_000); // models 2B keys: memory bound
        assert!(
            small > 1.5 * large,
            "cache-resident {small} must beat memory-bound {large}"
        );
    }

    #[test]
    fn single_ram_is_slower_than_interleaved() {
        let params = CostParams::default();
        let rows = 4 * DEFAULT_SEGMENT_CAPACITY;
        let mut single = SharedScanBench::new(
            intel_machine(),
            ScanPlacement::SingleRam(NodeId(0)),
            params,
            rows,
            1,
        );
        let mut inter =
            SharedScanBench::new(intel_machine(), ScanPlacement::Interleaved, params, rows, 1);
        let (b1, d1) = single.scan_once();
        let (b2, d2) = inter.scan_once();
        assert_eq!(b1, b2);
        let gbps_single = b1 as f64 / d1;
        let gbps_inter = b2 as f64 / d2;
        assert!(
            gbps_inter > gbps_single,
            "interleaved {gbps_inter} must beat one IMC {gbps_single}"
        );
        // Single RAM is bounded by one memory controller.
        assert!(gbps_single <= 26.7 * 1.01);
    }

    #[test]
    fn scan_visits_every_row() {
        let mut b = SharedScanBench::new(
            custom_machine("m", 2, 2, 20.0, 100.0, 10.0, 60.0),
            ScanPlacement::Interleaved,
            CostParams::default(),
            1000,
            1,
        );
        let (bytes, _) = b.scan_once();
        assert_eq!(bytes, 8000);
    }
}
