//! The ERIS engine: AEU construction, the cooperative virtual-time
//! runtime, the load-balancer adaption loop, and a threaded runtime that
//! exercises the routing protocol under real parallelism.

use crate::aeu::{Aeu, AeuConfig, CommandGen, OpCounts, PartitionData};
use crate::balancer::{
    donor_first, needs_balancing, size_balance_moves, target_boundaries, transfer_plan,
    BalancerConfig,
};
use crate::command::{AeuId, CommandRef, DataCommand, DataObjectId};
use crate::cost::CostParams;
use crate::durability::{ObjectClass, ObjectDescriptor, RedoOp, RedoSink};
use crate::monitor::{BalanceDecision, BalanceVerdict, MigrationRecord, Monitor, Sample};
use crate::results::ResultCollector;
use crate::routing::{
    BitmapTable, PartitionTable, RangeTable, Router, RoutingConfig, RoutingError, RoutingShared,
};
use crate::telemetry::{CounterSnapshot, TelemetrySnapshot};
use eris_index::PrefixTreeConfig;
use eris_mem::{MemoryManager, Policy};
use eris_numa::{CoreId, FlowSolver, HwCounters, NodeId, Topology, VirtualClock};
use eris_obs::{now_ns, Stamped, TraceEvent, TraceStamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// AEUs per node; `None` = one per core (the paper's deployment).
    pub aeus_per_node: Option<u16>,
    /// Restrict the engine to the first `k` nodes (scalability sweeps).
    pub active_nodes: Option<usize>,
    pub routing: RoutingConfig,
    pub params: CostParams,
    /// Virtual keys/rows per real key/row: experiments model paper-scale
    /// data with a real subsample (see DESIGN.md).
    pub size_scale: u64,
    /// Scale applied to partition-transfer volumes; defaults to
    /// `size_scale`.  Experiments that compress the *time* axis (Figure 13)
    /// compress moved data volume by the same factor to keep transfer
    /// durations proportional to phase lengths.
    pub transfer_scale: Option<u64>,
    /// Collect full results (tests) instead of counters only.
    pub collect_results: bool,
    pub balancer: BalancerConfig,
    /// Shape of index partitions.
    pub tree: PrefixTreeConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            aeus_per_node: None,
            active_nodes: None,
            routing: RoutingConfig::default(),
            params: CostParams::default(),
            size_scale: 1,
            transfer_scale: None,
            collect_results: false,
            balancer: BalancerConfig::default(),
            tree: PrefixTreeConfig::new(8, 64),
        }
    }
}

/// Pairs a hash transfer moves per step through its reused buffer (1 MiB).
const TRANSFER_CHUNK: usize = 1 << 16;

/// Oscillation-backoff state of one data object.
#[derive(Debug, Clone, Copy, Default)]
struct BackoffState {
    /// Imbalance measured when the last balancing cycle was decided.
    last_cv: f64,
    /// Current backoff length in periods (the monitor counts them down).
    skip: u32,
    /// Fraction of the object's keys moved by the last cycle.
    last_moved_frac: f64,
    /// Virtual time the last cycle's transfers cost, in ns.
    last_cost_ns: f64,
}

/// Standard deviation over mean of a weight histogram (0 when degenerate).
fn coefficient_of_variation(weights: &[f64]) -> f64 {
    let n = weights.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = weights.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = weights.iter().map(|w| (w - mean) * (w - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Kind of a data object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// Range-partitioned index over `[0, domain)`.
    Index { domain: u64 },
    /// Size-partitioned column.
    Column,
}

struct ObjectMeta {
    id: DataObjectId,
    kind: ObjectKind,
    class: ObjectClass,
    name: String,
}

/// Aggregated outcome of one epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Virtual duration of the epoch in ns.
    pub duration_ns: f64,
    pub ops: OpCounts,
    /// Virtual time spent balancing in this epoch (charged to AEUs).
    pub balance_ns: f64,
    /// Engine-wide telemetry delta of this epoch (peak gauges carry the
    /// all-time high-water mark, see `CounterSnapshot::since`).
    pub telemetry: CounterSnapshot,
}

/// Outcome of a typed graceful shutdown ([`Engine::drain_and_quiesce`]).
///
/// The report is the serving layer's proof obligation: a front end that
/// stops accepting, drains, and then observes `conservation_ok` knows
/// every admitted command was executed — nothing was silently dropped
/// between routing and execution.
#[derive(Debug, Clone)]
pub struct QuiesceReport {
    /// Epochs run to reach the drained state.
    pub epochs: u64,
    /// Per-object conservation at quiesce: enqueued == executed for
    /// every registered data object.
    pub conservation_ok: bool,
    /// Latency-trace conservation at quiesce: stamped == traced + dropped.
    pub trace_ok: bool,
    /// Commands executed over the engine's lifetime (post-drain total).
    pub commands_executed: u64,
    /// Bytes still pending in incoming buffers (must be 0 when drained).
    pub pending_bytes: usize,
}

impl QuiesceReport {
    /// True when the engine quiesced cleanly: buffers empty and both
    /// conservation ledgers balanced.
    pub fn clean(&self) -> bool {
        self.conservation_ok && self.trace_ok && self.pending_bytes == 0
    }
}

/// The ERIS storage engine on a simulated NUMA machine.
pub struct Engine {
    topo: Arc<Topology>,
    cfg: EngineConfig,
    shared: Arc<RoutingShared>,
    results: Arc<ResultCollector>,
    aeus: Vec<Aeu>,
    node_of: Arc<Vec<NodeId>>,
    clock: VirtualClock,
    counters: HwCounters,
    objects: Vec<ObjectMeta>,
    last_balance_s: f64,
    /// Per-object oscillation backoff: when a balancing cycle moved a
    /// substantial amount of data *without* improving the imbalance — the
    /// signature of an indivisible hotspot, e.g. one scorching key that no
    /// range split can divide — the balancer backs off exponentially
    /// instead of thrashing with futile transfers.
    balance_backoff: Vec<BackoffState>,
    monitor: Monitor,
    stop: Arc<AtomicBool>,
    /// Durability sink shared with every AEU (None = volatile engine).
    sink: Option<Arc<dyn RedoSink>>,
}

impl Engine {
    /// Build an engine with one AEU per (active) core.
    pub fn new(topo: Topology, cfg: EngineConfig) -> Self {
        let topo = Arc::new(topo);
        let active_nodes = cfg
            .active_nodes
            .unwrap_or(topo.num_nodes())
            .min(topo.num_nodes());
        assert!(active_nodes > 0, "need at least one active node");

        // AEU placement: cores of the first `active_nodes` nodes.
        let mut placement: Vec<(NodeId, CoreId)> = Vec::new();
        for node in topo.nodes().take(active_nodes) {
            let cores = topo.cores_of_node(node);
            let take = cfg
                .aeus_per_node
                .map(|k| k as usize)
                .unwrap_or(cores.len())
                .min(cores.len());
            for c in cores.take(take) {
                placement.push((node, CoreId(c)));
            }
        }
        let num_aeus = placement.len();
        let node_of: Arc<Vec<NodeId>> = Arc::new(placement.iter().map(|(n, _)| *n).collect());

        let shared = Arc::new(RoutingShared::new(num_aeus, cfg.routing));
        let results = Arc::new(if cfg.collect_results {
            ResultCollector::collecting()
        } else {
            ResultCollector::new()
        });

        let counters = HwCounters::new(&topo);
        let mut aeus = Vec::with_capacity(num_aeus);
        for (i, (node, core)) in placement.into_iter().enumerate() {
            let id = AeuId(i as u32);
            let aeus_on_node = node_of.iter().filter(|n| **n == node).count() as f64;
            let spec = topo.node_spec(node);
            let aeu_cfg = AeuConfig {
                params: cfg.params,
                llc_share_bytes: (spec.llc_mib as f64) * 1048576.0 / aeus_on_node,
                size_scale: cfg.size_scale,
                local_latency_ns: spec.local_latency_ns,
                node_of: Arc::clone(&node_of),
            };
            let router = Router::new(id, Arc::clone(&shared), cfg.routing);
            let incoming = Arc::clone(shared.incoming(id));
            aeus.push(Aeu::new(
                id,
                node,
                core,
                aeu_cfg,
                router,
                incoming,
                Arc::clone(&results),
            ));
        }

        Engine {
            topo,
            cfg,
            shared,
            results,
            aeus,
            node_of,
            clock: VirtualClock::new(),
            counters,
            objects: Vec::new(),
            last_balance_s: 0.0,
            balance_backoff: Vec::new(),
            monitor: Monitor::new(64),
            stop: Arc::new(AtomicBool::new(false)),
            sink: None,
        }
    }

    /// Attach (or detach) a durability sink.  Every AEU reports its
    /// applied mutations there; object creations and balancing barriers
    /// are reported by the engine itself.  Attach only while quiesced
    /// (freshly built or drained) — mutations applied before the sink was
    /// attached are not retroactively journaled.
    pub fn set_redo_sink(&mut self, sink: Option<Arc<dyn RedoSink>>) {
        for aeu in self.aeus.iter_mut() {
            aeu.set_redo_sink(sink.clone());
        }
        self.sink = sink;
    }

    /// True when a durability sink is attached.
    pub fn has_redo_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// The platform the engine runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of AEUs.
    pub fn num_aeus(&self) -> usize {
        self.aeus.len()
    }

    /// All AEU ids.
    pub fn aeu_ids(&self) -> Vec<AeuId> {
        (0..self.aeus.len() as u32).map(AeuId).collect()
    }

    /// The node an AEU runs on.
    pub fn node_of(&self, aeu: AeuId) -> NodeId {
        self.node_of[aeu.index()]
    }

    /// The shared result sink.
    pub fn results(&self) -> &Arc<ResultCollector> {
        &self.results
    }

    /// The virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Hardware counters accumulated so far.
    pub fn counters(&self) -> &HwCounters {
        &self.counters
    }

    /// Reset the traffic counters *and* the telemetry shards (start of a
    /// measurement window).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
        self.reset_telemetry();
    }

    /// Zero every per-AEU telemetry shard, histogram, and incoming-buffer
    /// statistic so a measurement window starts from a clean slate.  The
    /// per-object conservation ledgers are left untouched — commands in
    /// flight at reset time would otherwise unbalance them forever.
    pub fn reset_telemetry(&mut self) {
        self.shared.telemetry().reset_shards();
        for i in 0..self.shared.num_aeus() {
            self.shared.incoming(AeuId(i as u32)).reset_stats();
        }
    }

    /// Where the engine's data is homed: every partition's resident bytes
    /// ([`crate::aeu::PartitionData::bytes`]) placed on its AEU's node, the
    /// node-local policy of Section 3.1.  A census taken at the call: the
    /// engine allocates from the global allocator and keeps no per-node
    /// books of its own.
    pub fn memory(&self) -> MemoryManager {
        let mem = MemoryManager::new(&self.topo);
        for aeu in &self.aeus {
            for o in &self.objects {
                if let Some(p) = aeu.partition(o.id) {
                    mem.alloc(Policy::Local(aeu.node), p.data.bytes());
                }
            }
        }
        mem
    }

    /// A consistent point-in-time snapshot of the engine's telemetry:
    /// per-AEU, per-node and engine-wide counters, merged histograms, and
    /// the per-object enqueued-equals-executed conservation ledger.
    /// Cross-node link traffic from the hardware-counter model is
    /// attributed per link and direction.
    // HOT-PATH-CUT: report assembly — snapshots every counter into an
    // owned struct; called by harnesses and the stats endpoint only.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self.shared.telemetry_snapshot(&self.node_of);
        snap.links = self
            .topo
            .links()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let d = self.counters.link_bytes(i);
                crate::telemetry::LinkTraffic {
                    a: l.a.0 as u32,
                    b: l.b.0 as u32,
                    bytes_ab: d[0],
                    bytes_ba: d[1],
                }
            })
            .collect();
        snap
    }

    /// All retained trace events across every AEU's ring, merged in
    /// emission-time order (the `eris-live` dashboard's raw feed).
    pub fn trace_events(&self) -> Vec<Stamped> {
        let tel = self.shared.telemetry();
        let mut events: Vec<Stamped> = (0..self.aeus.len())
            .flat_map(|i| tel.shard(AeuId(i as u32)).ring.snapshot())
            .collect();
        events.sort_by_key(|e| e.at_ns);
        events
    }

    /// The partition-table owner of `key` in a range-partitioned object
    /// (`None` for columns and unregistered objects).
    pub fn owner_of(&self, object: DataObjectId, key: u64) -> Option<AeuId> {
        self.shared
            .with_table(object, |t| t.as_range().map(|r| r.owner(key)))
            .ok()
            .flatten()
    }

    /// Direct access to an AEU (benchmarks, tests).
    pub fn aeu(&self, id: AeuId) -> &Aeu {
        &self.aeus[id.index()]
    }

    /// Mutable access to an AEU (benchmarks, tests).
    pub fn aeu_mut(&mut self, id: AeuId) -> &mut Aeu {
        &mut self.aeus[id.index()]
    }

    /// Create a range-partitioned index over `[0, domain)`, evenly split
    /// across all AEUs.
    pub fn create_index(&mut self, name: &str, domain: u64) -> DataObjectId {
        self.create_object(name, ObjectKind::Index { domain }, ObjectClass::Tree)
    }

    /// Create a range-partitioned object stored as per-partition hash
    /// tables: O(1) point access, no ordered range scans (Section 3.1).
    /// Routing is identical to [`Engine::create_index`]; only the in-
    /// partition structure differs, and each partition draws its own hash
    /// function seed.
    pub fn create_hash_index(&mut self, name: &str, domain: u64) -> DataObjectId {
        self.create_object(name, ObjectKind::Index { domain }, ObjectClass::Hash)
    }

    /// Create a size-partitioned column held by all AEUs.
    pub fn create_column(&mut self, name: &str) -> DataObjectId {
        self.create_object(name, ObjectKind::Column, ObjectClass::Column)
    }

    /// Give every AEU its partition of a new object, register the
    /// partition table and journal the creation.
    fn create_object(&mut self, name: &str, kind: ObjectKind, class: ObjectClass) -> DataObjectId {
        let id = DataObjectId(self.objects.len() as u32);
        let owners = self.aeu_ids();
        let (table, domain) = match kind {
            ObjectKind::Index { domain } => {
                let table = RangeTable::even(domain, &owners);
                for (i, aeu) in self.aeus.iter_mut().enumerate() {
                    let range = table.range_of(i, domain);
                    match class {
                        ObjectClass::Hash => aeu.create_hash_partition(id, range),
                        _ => aeu.create_index_partition(id, self.cfg.tree, range),
                    }
                }
                (PartitionTable::Range(table), domain)
            }
            ObjectKind::Column => {
                for aeu in self.aeus.iter_mut() {
                    aeu.create_column_partition(id);
                }
                (PartitionTable::Bitmap(BitmapTable::new(owners)), 0)
            }
        };
        self.shared.register_object(id, table);
        self.objects.push(ObjectMeta {
            id,
            kind,
            class,
            name: name.into(),
        });
        self.balance_backoff.push(BackoffState::default());
        self.journal_create(class, id, domain, name);
        id
    }

    /// Journal an object creation on AEU 0's log — creations are engine
    /// operations, but replay needs them ordered before AEU 0's data ops.
    fn journal_create(&self, class: ObjectClass, id: DataObjectId, domain: u64, name: &str) {
        if let Some(s) = &self.sink {
            s.append(
                AeuId(0),
                RedoOp::CreateObject {
                    class,
                    object: id,
                    domain,
                    name,
                },
            );
            // An object must never be referenced by a journal tail without
            // its creation record being durable first.
            s.barrier();
        }
    }

    /// Describe every data object for checkpoint manifests: id, storage
    /// class, key domain, and name.
    pub fn describe_objects(&self) -> Vec<ObjectDescriptor> {
        self.objects
            .iter()
            .map(|o| ObjectDescriptor {
                id: o.id,
                class: o.class,
                domain: match o.kind {
                    ObjectKind::Index { domain } => domain,
                    ObjectKind::Column => 0,
                },
                name: o.name.clone(),
            })
            .collect()
    }

    /// Rebuild a range-partitioned object's routing table from restored
    /// per-AEU lower bounds (recovery only; mirrors the balancer's
    /// table-rebuild + `set_range` sequence).
    pub fn restore_partition_bounds(&mut self, object: DataObjectId, bounds: &[u64]) {
        assert_eq!(bounds.len(), self.aeus.len(), "one bound per AEU");
        let domain = match self.objects[object.0 as usize].kind {
            ObjectKind::Index { domain } => domain,
            ObjectKind::Column => return,
        };
        self.apply_bounds(object, domain, bounds);
    }

    /// Make `bounds` (one lower bound per AEU) the object's partitioning:
    /// the routing table first, then every AEU's validity range.
    fn apply_bounds(&mut self, object: DataObjectId, domain: u64, bounds: &[u64]) {
        let entries = bounds.iter().copied().zip(self.aeu_ids()).collect();
        self.shared
            .with_table_mut(object, |t| {
                t.as_range_mut().expect("range object").rebuild(entries)
            })
            .expect("repartitioned object is registered");
        for (i, aeu) in self.aeus.iter_mut().enumerate() {
            let hi = bounds.get(i + 1).copied().unwrap_or(domain);
            aeu.set_range(object, (bounds[i], hi));
        }
    }

    /// Overwrite one object's conservation ledger from a checkpoint
    /// manifest (recovery only).
    pub fn restore_object_ledger(&self, object: DataObjectId, enqueued: u64, executed: u64) {
        self.shared
            .telemetry()
            .restore_object_ledger(object, enqueued, executed);
    }

    /// One AEU's telemetry shard (durability-layer counter updates).
    pub fn telemetry_shard(&self, aeu: AeuId) -> &Arc<crate::telemetry::TelemetryShard> {
        self.shared.telemetry().shard(aeu)
    }

    /// The engine-wide live latency table.  The serving layer charges
    /// stamps it drops at admission (shed / quota-denied / rejected)
    /// directly against this `stamped == traced + dropped` ledger so the
    /// trace conservation law holds across the full request path.
    pub fn latency(&self) -> &Arc<eris_obs::LatencyTable> {
        self.shared.telemetry().latency()
    }

    /// Object name (diagnostics).
    pub fn object_name(&self, id: DataObjectId) -> &str {
        &self.objects[id.0 as usize].name
    }

    /// Bulk-load an index directly into the owning partitions (setup path;
    /// routed upserts are the measured path).
    pub fn bulk_load_index(
        &mut self,
        object: DataObjectId,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let domain = match self.objects[object.0 as usize].kind {
            ObjectKind::Index { domain } => domain,
            ObjectKind::Column => panic!("bulk_load_index on a column"),
        };
        // Group into per-owner batches, then absorb.
        let mut batches: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.aeus.len()];
        self.shared
            .with_table(object, |t| {
                let table = t.as_range().expect("index object");
                for (k, v) in pairs {
                    assert!(k < domain, "key {k} outside domain {domain}");
                    batches[table.owner(k).index()].push((k, v));
                }
            })
            .expect("bulk-loaded object is registered");
        for (i, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                self.aeus[i].absorb_pairs(object, &batch);
            }
        }
    }

    /// Bulk-load a column round-robin across AEUs (setup path).
    pub fn bulk_load_column(
        &mut self,
        object: DataObjectId,
        values: impl IntoIterator<Item = u64>,
    ) {
        let n = self.aeus.len();
        // Each batch is allocated once, at its final size.  Grown by
        // doubling, the batches' reallocations interleave with the
        // segments the load provisions, and how much of a dropped
        // engine's heap the next load reuses then hinges on allocation
        // sizes: a 128 MB load peaked 47 MB higher once `Segment` was
        // 8 bytes smaller.
        let values = values.into_iter();
        let per_aeu = values.size_hint().0.div_ceil(n);
        let mut batches: Vec<Vec<u64>> = (0..n).map(|_| Vec::with_capacity(per_aeu)).collect();
        for (i, v) in values.enumerate() {
            batches[i % n].push(v);
        }
        for (i, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                self.aeus[i]
                    .absorb_rows(object, &batch)
                    .expect("load targets a provisioned column");
            }
        }
    }

    /// Attach a command generator to one AEU.
    pub fn set_generator(&mut self, aeu: AeuId, gen: Option<CommandGen>) {
        self.aeus[aeu.index()].set_generator(gen);
    }

    /// Submit one command through an AEU's router (client path for tests
    /// and examples; generators are the benchmark path).  Undeliverable
    /// commands — unknown object, point op on a size-partitioned object,
    /// key outside an index's domain — are rejected with a
    /// [`RoutingError`] and enqueue nothing.
    pub fn submit(&mut self, via: AeuId, cmd: DataCommand) -> Result<(), RoutingError> {
        self.submit_view(via, CommandRef::Owned(cmd), None)
    }

    /// Submit a command as the serving layer holds it: a point command is
    /// routed where it lies in its encoding (see [`CommandRef::check`]),
    /// without an owned copy, and copied unchanged into the outgoing
    /// buffer of a single owner.  Owned commands take the same path.  A
    /// trace stamp born at frame decode (full-path tracing: identity +
    /// net/admit spans) rides to the executing AEU.
    pub fn submit_view(
        &mut self,
        via: AeuId,
        cmd: CommandRef<'_>,
        stamp: Option<TraceStamp>,
    ) -> Result<(), RoutingError> {
        let node = self.node_of[via.index()];
        let mut w = crate::aeu::WorkSummary::new(node);
        self.aeus[via.index()].route_external(cmd, stamp, &mut w)?;
        // Submission costs are charged to the next epoch via pending ns.
        self.aeus[via.index()].add_pending_ns(w.cpu_ns + w.latency_ns);
        Ok(())
    }

    /// Run one cooperative epoch: step every AEU, fair-share the traffic,
    /// advance the virtual clock, and run the balancer when due.
    pub fn run_epoch(&mut self) -> EpochReport {
        let mut report = EpochReport::default();
        let tel_before = self.shared.telemetry_totals();
        let mut summaries = Vec::with_capacity(self.aeus.len());
        for aeu in self.aeus.iter_mut() {
            let mut s = aeu.step();
            s.coalesce_flows();
            summaries.push(s);
        }
        // Fair-share all memory traffic of the epoch.
        let mut flows = Vec::new();
        let mut kinds = Vec::new();
        let mut spans = Vec::with_capacity(summaries.len());
        for s in &summaries {
            let start = flows.len();
            for (f, k) in &s.flows {
                flows.push(f.clone());
                kinds.push(*k);
            }
            spans.push(start..flows.len());
        }
        let rates = FlowSolver::new(&self.topo).solve(&flows);
        for f in &flows {
            self.counters.record(&self.topo, f.src, f.home, f.bytes);
        }
        let mut duration: f64 = 0.0;
        for (s, span) in summaries.iter().zip(spans) {
            // Streaming (serial) flows add up; posted (overlapped) flows
            // proceed concurrently and share the worker's aggregate rate:
            // time = total posted bytes / summed fair-share rates.
            let mut serial_ns = 0.0f64;
            let mut over_bytes = 0.0f64;
            let mut over_rate = 0.0f64;
            for i in span {
                match kinds[i] {
                    crate::aeu::FlowKind::Serial => {
                        serial_ns += flows[i].bytes as f64 / rates.rates[i];
                    }
                    crate::aeu::FlowKind::Overlapped => {
                        over_bytes += flows[i].bytes as f64;
                        over_rate += rates.rates[i];
                    }
                }
            }
            let overlapped_ns = if over_rate > 0.0 {
                over_bytes / over_rate
            } else {
                0.0
            };
            let bw_ns = serial_ns + overlapped_ns;
            let cpu_ns = s.cpu_ns / self.cfg.params.frequency_scale;
            let t = cpu_ns + s.latency_ns.max(bw_ns);
            duration = duration.max(t);
            report.ops.add(&s.ops);
        }
        // An idle epoch still advances a scheduling quantum.
        report.duration_ns = duration.max(1_000.0);
        self.clock.advance_ns(report.duration_ns);

        // Balancer adaption loop.
        if self.cfg.balancer.enabled
            && self.clock.now_secs() - self.last_balance_s >= self.cfg.balancer.period_s
        {
            self.last_balance_s = self.clock.now_secs();
            report.balance_ns = self.run_balancer();
        }
        report.telemetry = self.shared.telemetry_totals().since(&tel_before);
        report
    }

    /// Run epochs until `virtual_secs` have elapsed; returns aggregate ops.
    pub fn run_for_virtual_secs(&mut self, virtual_secs: f64) -> OpCounts {
        let end = self.clock.now_secs() + virtual_secs;
        let mut ops = OpCounts::default();
        while self.clock.now_secs() < end {
            let r = self.run_epoch();
            ops.add(&r.ops);
        }
        ops
    }

    /// Run epochs until every AEU's buffers are drained and no new work
    /// appeared (command completion for synchronous callers).  Returns
    /// the number of epochs run.
    pub fn run_until_drained(&mut self) -> u64 {
        let mut epochs = 0;
        loop {
            let r = self.run_epoch();
            epochs += 1;
            let idle = r.ops.lookups == 0
                && r.ops.upserts == 0
                && r.ops.scans == 0
                && r.ops.commands_routed == 0
                && r.ops.forwarded == 0;
            if idle && self.aeus.iter().all(|a| a.is_drained()) {
                return epochs;
            }
        }
    }

    /// Bytes pending across every AEU's incoming buffers, plus the total
    /// capacity of those buffers.  The serving layer's overload watermark
    /// reads this at batch boundaries: occupancy = pending / capacity.
    pub fn incoming_occupancy(&self) -> (usize, usize) {
        let mut pending = 0;
        let mut capacity = 0;
        for i in 0..self.shared.num_aeus() {
            let buf = self.shared.incoming(AeuId(i as u32));
            pending += buf.pending_bytes();
            capacity += buf.capacity();
        }
        (pending, capacity)
    }

    /// Sub-commands enqueued by routing but not yet executed, summed over
    /// every object's conservation ledger.  A queue-depth signal for
    /// admission control (exact at epoch boundaries, approximate while
    /// AEUs are stepping).
    pub fn in_flight_commands(&self) -> u64 {
        self.shared.telemetry().in_flight_commands()
    }

    /// True when an epoch would execute nothing: no sub-command in flight,
    /// every AEU's buffers drained and no generator attached.  A caller on
    /// a wall clock may skip the epoch; on the virtual clock an idle epoch
    /// still advances time by its scheduling quantum.
    pub fn is_idle(&self) -> bool {
        self.in_flight_commands() == 0 && !self.aeus.iter().any(Aeu::has_work)
    }

    /// Typed graceful shutdown: detach every command generator, run
    /// epochs until all buffers drain and no AEU holds deferred work,
    /// then audit both conservation ledgers.  Callers that stop feeding
    /// [`Engine::submit`] before invoking this get a proof that every
    /// accepted command executed (see [`QuiesceReport`]).
    pub fn drain_and_quiesce(&mut self) -> QuiesceReport {
        for aeu in self.aeus.iter_mut() {
            aeu.set_generator(None);
        }
        let epochs = self.run_until_drained();
        let snap = self.telemetry();
        let (stamped, traced, dropped) = self.shared.telemetry().latency().ledger();
        let (pending_bytes, _) = self.incoming_occupancy();
        QuiesceReport {
            epochs,
            conservation_ok: snap.conservation_holds(),
            trace_ok: stamped == traced + dropped,
            commands_executed: snap.totals.commands_executed,
            pending_bytes,
        }
    }

    // ------------------------------------------------------------------
    // Load balancing (engine-orchestrated, Section 3.3)
    // ------------------------------------------------------------------

    /// The per-object sampling history collected by the adaption loop.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Check every object for imbalance and rebalance as configured.
    /// Returns the total virtual time charged for transfers.
    pub fn run_balancer(&mut self) -> f64 {
        let mut total_ns = 0.0;
        let object_ids: Vec<(DataObjectId, ObjectKind)> =
            self.objects.iter().map(|o| (o.id, o.kind)).collect();
        let now = self.clock.now_secs();
        for (id, kind) in object_ids {
            // Sample every partition (table order: partition i ↔ AEU i)
            // and feed the monitoring component before deciding.
            let mut sample = Sample {
                at_secs: now,
                ..Default::default()
            };
            for i in 0..self.aeus.len() {
                let (accesses, exec_ns, len, bytes) = self.aeus[i].take_sample(id);
                sample.accesses.push(accesses);
                sample.exec_ns.push(exec_ns);
                sample.lens.push(len);
                sample.bytes.push(bytes);
            }
            total_ns += match kind {
                ObjectKind::Index { domain } => self.balance_index(id, domain, &sample),
                ObjectKind::Column => self.balance_column(id, &sample),
            };
            self.monitor.record(id, sample);
        }
        // A transfer's remove/absorb records live on two different AEU
        // logs; sync them together so a crash cannot split the pair.
        if let Some(s) = &self.sink {
            s.barrier();
        }
        total_ns
    }

    /// Every balancer evaluation leaves an audit entry: the CVs as seen,
    /// the threshold judged against, and (filled in by the caller) why the
    /// balancer did what it did.
    fn open_decision(&self, object: DataObjectId, sample: &Sample) -> BalanceDecision {
        BalanceDecision {
            at_secs: sample.at_secs,
            object,
            access_cv: sample.access_cv(),
            exec_cv: sample.exec_cv(),
            size_cv: sample.size_cv(),
            threshold_cv: self.cfg.balancer.threshold_cv,
            verdict: BalanceVerdict::BelowThreshold,
            migrations: Vec::new(),
        }
    }

    /// File the audit entry of a cycle that moved data and count it.
    fn close_cycle(&mut self, mut decision: BalanceDecision, moves: u64, keys_moved: u64) {
        let tel = self.shared.telemetry();
        tel.balancer_cycles.fetch_add(1, Ordering::Relaxed);
        tel.balancer_moves.fetch_add(moves, Ordering::Relaxed);
        tel.balancer_keys_moved
            .fetch_add(keys_moved, Ordering::Relaxed);
        decision.verdict = BalanceVerdict::Rebalanced;
        self.monitor.record_decision(decision);
    }

    /// Record one executed transfer: an audit entry on its decision and a
    /// `Migration` event in the donor's trace ring.
    fn record_migration(&self, decision: &mut BalanceDecision, m: MigrationRecord) {
        self.shared
            .telemetry()
            .shard(AeuId(m.src as u32))
            .ring
            .emit(Stamped {
                at_ns: now_ns(),
                aeu: m.src as u32,
                event: TraceEvent::Migration {
                    object: decision.object.0,
                    src: m.src as u32,
                    dst: m.dst as u32,
                    keys: m.keys,
                    bytes: m.bytes,
                },
            });
        decision.migrations.push(m);
    }

    fn balance_index(&mut self, object: DataObjectId, domain: u64, sample: &Sample) -> f64 {
        // The configured metric drives the balancing decision.
        let metric = self.cfg.balancer.metric;
        let mut weights: Vec<f64> = match metric {
            crate::balancer::BalanceMetric::AccessFrequency => {
                sample.accesses.iter().map(|&a| a as f64).collect()
            }
            crate::balancer::BalanceMetric::ExecutionTime => sample.exec_ns.clone(),
        };
        // Oscillation backoff: while cooling down, only accumulate samples.
        if self.monitor.skip_period(object) {
            return 0.0;
        }
        let mut decision = self.open_decision(object, sample);
        let backoff = &mut self.balance_backoff[object.0 as usize];
        let cv = coefficient_of_variation(&weights);
        if !needs_balancing(&weights, self.cfg.balancer.threshold_cv) {
            // Balanced again: reset the backoff state.
            *backoff = BackoffState::default();
            self.monitor.record_decision(decision);
            return 0.0;
        }
        let period_ns = self.cfg.balancer.period_s * 1e9;
        let costly = backoff.last_cost_ns > 0.5 * period_ns || backoff.last_moved_frac > 0.02;
        if backoff.last_cv > 0.0 && cv >= 0.9 * backoff.last_cv && costly {
            // The previous cycle paid real transfer cost without improving
            // the imbalance — an indivisible hotspot (e.g. one scorching
            // key).  Back off exponentially, capped so a genuine workload
            // change is picked up again within a few periods.
            let skip = (backoff.skip.max(1) * 2).min(16);
            *backoff = BackoffState {
                last_cv: cv,
                skip,
                ..Default::default()
            };
            decision.verdict = BalanceVerdict::OscillationDetected;
            self.monitor.back_off(decision, skip);
            return 0.0;
        }
        backoff.last_cv = cv;
        // Additive smoothing: a small weight floor keeps completely cold
        // partitions from collapsing to one-key ranges, which would dump
        // the entire cold region's data onto the partitions bordering the
        // hot range and make later boundary moves disproportionately
        // expensive.
        let mean = weights.iter().sum::<f64>() / weights.len() as f64;
        for w in &mut weights {
            *w = w.max(0.02 * mean);
        }
        let old_bounds: Vec<u64> = self
            .shared
            .with_table(object, |t| t.as_range().unwrap().ranges())
            .expect("balanced object is registered")
            .iter()
            .map(|(b, _)| *b)
            .collect();
        let new_bounds =
            target_boundaries(&old_bounds, domain, &weights, self.cfg.balancer.algorithm);
        if new_bounds == old_bounds {
            decision.verdict = BalanceVerdict::NoBoundaryChange;
            self.monitor.record_decision(decision);
            return 0.0;
        }
        let plan = transfer_plan(&old_bounds, &new_bounds, domain);
        let num_moves = plan.len() as u64;
        // Each range is its donor's before the cycle, whatever order the
        // transfers then run in: size every transfer up front.
        let counts: Vec<usize> = plan
            .iter()
            .map(|t| self.aeus[t.from].count_range(object, t.lo, t.hi))
            .collect();
        let moved_keys_total: usize = counts.iter().sum();

        // All involved AEUs synchronize on the routing-table update first,
        // then execute their transfer commands.
        self.apply_bounds(object, domain, &new_bounds);

        // Charge the transfers in plan order: link within a node, copy
        // across nodes.
        let params = self.cfg.params;
        let scale = self.cfg.transfer_scale.unwrap_or(self.cfg.size_scale) as f64;
        let mut total_ns = 0.0;
        for (t, &moved) in plan.iter().zip(&counts) {
            let keys = moved as f64 * scale;
            let from_node = self.node_of[t.from];
            let to_node = self.node_of[t.to];
            let (src_ns, dst_ns) = if from_node == to_node {
                // Link: unlink + relink inside one memory-management domain.
                (params.link_transfer_ns, params.link_transfer_ns)
            } else {
                // Copy: flatten, stream, rebuild.
                let bytes = keys * params.transfer_bytes_per_key as f64;
                let route = self.topo.route(from_node, to_node).expect("connected");
                let stream_ns = route.latency_ns + bytes / route.bandwidth_gbps;
                self.counters
                    .record(&self.topo, to_node, from_node, bytes as u64);
                (stream_ns, stream_ns + keys * params.rebuild_ns_per_key)
            };
            self.aeus[t.from].add_pending_ns(src_ns);
            self.aeus[t.to].add_pending_ns(dst_ns);
            total_ns += src_ns + dst_ns;
            self.record_migration(
                &mut decision,
                MigrationRecord {
                    src: t.from,
                    dst: t.to,
                    lo: t.lo,
                    hi: t.hi,
                    keys: moved as u64,
                    bytes: moved as u64 * params.transfer_bytes_per_key,
                },
            );
        }

        // Move the keys donor-first, one receiver at a time, sizing each
        // receiver once for all it takes.  A hash transfer streams through
        // one bounded buffer.  A tree receiver sizes its arenas from the
        // whole sorted run, so a tree's donors give into one buffer, sized
        // once for the largest receiver.
        let order = donor_first(&plan);
        let mut incoming = vec![0usize; self.aeus.len()];
        for (t, &moved) in plan.iter().zip(&counts) {
            incoming[t.to] += moved;
        }
        let most = incoming.iter().copied().max().unwrap_or(0);
        let hash = self.aeus[0]
            .partition(object)
            .is_some_and(|p| matches!(p.data, PartitionData::Hash(_)));
        let mut buf = Vec::with_capacity(if hash { most.min(TRANSFER_CHUNK) } else { most });
        for group in order.chunk_by(|&a, &b| plan[a].to == plan[b].to) {
            let to = plan[group[0]].to;
            if hash {
                self.aeus[to].reserve_transfer(object, incoming[to], &[]);
                for t in group.iter().map(|&i| plan[i]) {
                    let mut from = Some(0);
                    while let Some(bucket) = from {
                        buf.clear();
                        from = self.aeus[t.from].extract_hash_chunk(
                            object,
                            (t.lo, t.hi),
                            bucket,
                            &mut buf,
                            TRANSFER_CHUNK,
                        );
                        if !buf.is_empty() {
                            self.aeus[to].absorb_pairs(object, &buf);
                        }
                    }
                }
            } else {
                buf.clear();
                for t in group.iter().map(|&i| plan[i]) {
                    self.aeus[t.from].extract_range(object, t.lo, t.hi, &mut buf);
                }
                debug_assert_eq!(buf.len(), incoming[to], "a transfer moves what it counted");
                self.aeus[to].reserve_transfer(object, buf.len(), &buf);
                // One journal record per transfer, as the plan has them.
                let mut at = 0;
                for &i in group {
                    let pairs = &buf[at..at + counts[i]];
                    at += counts[i];
                    if !pairs.is_empty() {
                        self.aeus[to].absorb_pairs(object, pairs);
                    }
                }
            }
        }
        let total_keys: usize = (0..self.aeus.len())
            .map(|i| self.aeus[i].partition(object).map_or(0, |p| p.data.len()))
            .sum();
        let backoff = &mut self.balance_backoff[object.0 as usize];
        backoff.last_moved_frac = moved_keys_total as f64 / total_keys.max(1) as f64;
        backoff.last_cost_ns = total_ns;
        self.close_cycle(decision, num_moves, moved_keys_total as u64);
        total_ns
    }

    fn balance_column(&mut self, object: DataObjectId, sample: &Sample) -> f64 {
        let lens = &sample.lens;
        let weights: Vec<f64> = lens.iter().map(|l| *l as f64).collect();
        let mut decision = self.open_decision(object, sample);
        if !needs_balancing(&weights, self.cfg.balancer.threshold_cv) {
            self.monitor.record_decision(decision);
            return 0.0;
        }
        let params = self.cfg.params;
        let scale = self.cfg.transfer_scale.unwrap_or(self.cfg.size_scale) as f64;
        let mut total_ns = 0.0;
        let moves = size_balance_moves(lens);
        let mut moved_rows = 0u64;
        let num_moves = moves.len() as u64;
        for (from, to, n) in moves {
            let rows = self.aeus[from].extract_tail_rows(object, n);
            moved_rows += rows.len() as u64;
            let from_node = self.node_of[from];
            let to_node = self.node_of[to];
            let ns = if from_node == to_node {
                params.link_transfer_ns
            } else {
                let bytes = rows.len() as f64 * scale * 8.0;
                let route = self.topo.route(from_node, to_node).expect("connected");
                self.counters
                    .record(&self.topo, to_node, from_node, bytes as u64);
                route.latency_ns + bytes / route.bandwidth_gbps
            };
            self.aeus[to]
                .absorb_rows(object, &rows)
                .expect("migration lands on the freshly provisioned column");
            self.aeus[from].add_pending_ns(ns);
            self.aeus[to].add_pending_ns(ns);
            total_ns += 2.0 * ns;
            let row_bytes = rows.len() as u64 * 8;
            self.record_migration(
                &mut decision,
                MigrationRecord {
                    src: from,
                    dst: to,
                    lo: 0,
                    hi: 0,
                    keys: rows.len() as u64,
                    bytes: row_bytes,
                },
            );
        }
        if num_moves > 0 {
            self.close_cycle(decision, num_moves, moved_rows);
        } else {
            // Over threshold but integer row-averaging found nothing to
            // shift — the column analogue of an unchanged boundary set.
            decision.verdict = BalanceVerdict::NoBoundaryChange;
            self.monitor.record_decision(decision);
        }
        total_ns
    }

    // ------------------------------------------------------------------
    // Threaded runtime
    // ------------------------------------------------------------------

    /// Run every AEU as a real OS thread (pinned round-robin to host
    /// cores) for `wall` time.  Virtual time does not advance; this mode
    /// exists to exercise the latch-free routing protocol under true
    /// parallelism — correctness is asserted through the result collector.
    pub fn run_threaded_for(&mut self, wall: std::time::Duration) {
        let stop = Arc::clone(&self.stop);
        stop.store(false, Ordering::Relaxed);
        let aeus = std::mem::take(&mut self.aeus);
        let mut done: Vec<Option<Aeu>> = (0..aeus.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for aeu in aeus {
                let stop = Arc::clone(&stop);
                handles.push(s.spawn(move || {
                    let _ = eris_numa::affinity::pin_current_thread(aeu.core.index());
                    let mut aeu = aeu;
                    while !stop.load(Ordering::Relaxed) {
                        aeu.step();
                    }
                    // Drain before exiting so no commands are stranded.
                    for _ in 0..32 {
                        aeu.step();
                    }
                    aeu
                }));
            }
            std::thread::sleep(wall);
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                let aeu = h.join().expect("AEU thread panicked");
                let idx = aeu.id.index();
                done[idx] = Some(aeu);
            }
        });
        self.aeus = done
            .into_iter()
            .map(|a| a.expect("all AEUs returned"))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Payload;
    use eris_column::scan::AggregateResult;
    use eris_column::{Aggregate, Predicate};
    use eris_numa::machines::custom_machine;

    fn small_engine(collect: bool) -> Engine {
        Engine::new(
            custom_machine("m", 4, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                collect_results: collect,
                tree: PrefixTreeConfig::new(8, 32),
                ..Default::default()
            },
        )
    }

    #[test]
    fn engine_places_one_aeu_per_core() {
        let e = small_engine(false);
        assert_eq!(e.num_aeus(), 8);
        assert_eq!(e.node_of(AeuId(0)), NodeId(0));
        assert_eq!(e.node_of(AeuId(7)), NodeId(3));
    }

    #[test]
    fn active_nodes_restricts_placement() {
        let e = Engine::new(
            custom_machine("m", 4, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                active_nodes: Some(2),
                ..Default::default()
            },
        );
        assert_eq!(e.num_aeus(), 4);
    }

    #[test]
    fn aeus_per_node_restricts_placement() {
        let e = Engine::new(
            custom_machine("m", 4, 4, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                aeus_per_node: Some(2),
                ..Default::default()
            },
        );
        assert_eq!(e.num_aeus(), 8);
    }

    #[test]
    fn memory_homes_every_partition_on_its_aeus_node() {
        let mut e = small_engine(false);
        let idx = e.create_index("t", 1 << 16);
        e.bulk_load_index(idx, (0..1u64 << 16).map(|k| (k, k)));
        let col = e.create_column("c");
        // One row past a full 64 Ki-value segment on each of the 8 AEUs.
        e.bulk_load_column(col, 0..8 * ((64 << 10) + 1));
        let mem = e.memory();
        let mut per_node = vec![0u64; e.topology().num_nodes()];
        for a in e.aeu_ids() {
            let (aeu, node) = (e.aeu(a), e.node_of(a));
            let crate::aeu::PartitionData::Column(c) = &aeu.partition(col).unwrap().data else {
                panic!("column partition");
            };
            assert_eq!(c.segments().len(), 2);
            assert!(c.segments().iter().all(|s| s.home() == node));
            for o in [idx, col] {
                per_node[node.index()] += aeu.partition(o).unwrap().data.bytes();
            }
        }
        for n in e.topology().nodes() {
            assert_eq!(mem.node_live_bytes(n), per_node[n.index()]);
        }
        assert_eq!(mem.live_bytes(), per_node.iter().sum::<u64>());
        assert!(mem.live_bytes() >= 8 * ((64 << 10) + 1) * 8);
    }

    #[test]
    fn routed_lookups_return_correct_values() {
        let mut e = small_engine(true);
        let idx = e.create_index("t", 1 << 16);
        e.bulk_load_index(idx, (0..5000u64).map(|k| (k, k + 7)));
        e.submit(
            AeuId(3),
            DataCommand {
                object: idx,
                ticket: 42,
                payload: Payload::Lookup {
                    keys: vec![0, 4999, 5000, 60000],
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let mut got = e.results().take_lookup_values();
        got.sort();
        assert_eq!(
            got,
            vec![
                (42, 0, Some(7)),
                (42, 4999, Some(5006)),
                (42, 5000, None),
                (42, 60000, None),
            ]
        );
    }

    #[test]
    fn routed_upserts_are_visible_to_later_lookups() {
        let mut e = small_engine(true);
        let idx = e.create_index("t", 1 << 16);
        e.submit(
            AeuId(0),
            DataCommand {
                object: idx,
                ticket: 1,
                payload: Payload::Upsert {
                    pairs: vec![(100, 1), (40000, 2), (100, 3)],
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let c = e.results().counts();
        assert_eq!(c.upserts, 3);
        assert_eq!(c.inserted_new, 2, "(100,3) overwrote");
        e.submit(
            AeuId(5),
            DataCommand {
                object: idx,
                ticket: 2,
                payload: Payload::Lookup {
                    keys: vec![100, 40000],
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let mut got = e.results().take_lookup_values();
        got.sort();
        assert_eq!(got, vec![(2, 100, Some(3)), (2, 40000, Some(2))]);
    }

    #[test]
    fn multicast_scan_covers_all_partitions() {
        let mut e = small_engine(true);
        let col = e.create_column("c");
        e.bulk_load_column(col, 0..1000u64);
        e.submit(
            AeuId(0),
            DataCommand {
                object: col,
                ticket: 9,
                payload: Payload::Scan {
                    pred: Predicate::All,
                    agg: Aggregate::Count,
                    snapshot: u64::MAX,
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        assert_eq!(
            e.results().combine_scan(9),
            Some(AggregateResult::Count(1000))
        );
    }

    #[test]
    fn index_range_scan_aggregates() {
        let mut e = small_engine(true);
        let idx = e.create_index("t", 1 << 16);
        e.bulk_load_index(idx, (0..1000u64).map(|k| (k, k)));
        e.submit(
            AeuId(1),
            DataCommand {
                object: idx,
                ticket: 3,
                payload: Payload::Scan {
                    pred: Predicate::Range { lo: 100, hi: 200 },
                    agg: Aggregate::Sum,
                    snapshot: u64::MAX,
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        assert_eq!(
            e.results().combine_scan(3),
            Some(AggregateResult::Sum((100..200).sum()))
        );
    }

    #[test]
    fn clock_advances_and_counters_record_traffic() {
        let mut e = small_engine(false);
        let idx = e.create_index("t", 1 << 16);
        e.bulk_load_index(idx, (0..(1u64 << 16)).map(|k| (k, k)));
        e.submit(
            AeuId(0),
            DataCommand {
                object: idx,
                ticket: 1,
                // Keys spread over the domain so remote AEUs are involved.
                payload: Payload::Lookup {
                    keys: (0..(1u64 << 16)).step_by(97).collect(),
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        assert!(e.clock().now_ns() > 0.0);
        assert!(e.counters().total_imc_bytes() > 0, "misses produce traffic");
        assert!(
            e.counters().total_link_bytes() > 0,
            "routing flushes cross the interconnect"
        );
    }

    #[test]
    fn generators_drive_sustained_throughput() {
        let mut e = small_engine(false);
        let idx = e.create_index("t", 1 << 16);
        e.bulk_load_index(idx, (0..(1 << 16) as u64).map(|k| (k, k)));
        for a in e.aeu_ids() {
            let seed = a.0 as u64;
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            e.set_generator(
                a,
                Some(Box::new(move |_, out| {
                    let mut keys = Vec::with_capacity(64);
                    for _ in 0..64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        keys.push(x % (1 << 16));
                    }
                    out.push(DataCommand {
                        object: DataObjectId(0),
                        ticket: 0,
                        payload: Payload::Lookup { keys },
                    });
                })),
            );
        }
        let ops = e.run_for_virtual_secs(0.0005);
        assert!(ops.lookups > 1000, "sustained lookups: {}", ops.lookups);
        let c = e.results().counts();
        assert_eq!(
            c.lookups, c.lookup_hits,
            "keys drawn from the loaded domain"
        );
    }

    #[test]
    fn balancer_rebalances_skewed_lookups() {
        let mut e = Engine::new(
            custom_machine("m", 4, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                collect_results: false,
                tree: PrefixTreeConfig::new(8, 32),
                balancer: BalancerConfig {
                    enabled: true,
                    algorithm: crate::balancer::BalanceAlgorithm::OneShot,
                    threshold_cv: 0.2,
                    period_s: 0.0001,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let domain = 1u64 << 16;
        let idx = e.create_index("t", domain);
        e.bulk_load_index(idx, (0..domain).map(|k| (k, k)));
        // Hot range: only the first eighth of the domain (AEU 0's range).
        for a in e.aeu_ids() {
            let seed = a.0 as u64 + 1;
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            e.set_generator(
                a,
                Some(Box::new(move |_, out| {
                    let mut keys = Vec::with_capacity(32);
                    for _ in 0..32 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        keys.push(x % (1 << 13));
                    }
                    out.push(DataCommand {
                        object: DataObjectId(0),
                        ticket: 0,
                        payload: Payload::Lookup { keys },
                    });
                })),
            );
        }
        e.run_for_virtual_secs(0.01);
        // After balancing, the hot range must be spread over several AEUs.
        let ranges = e
            .shared
            .with_table(idx, |t| t.as_range().unwrap().ranges())
            .unwrap();
        let hot_owners = ranges.iter().filter(|(b, _)| *b < (1 << 13)).count();
        assert!(
            hot_owners >= 4,
            "hot range split across {hot_owners} owners: {ranges:?}"
        );
        // No data was lost in the transfers.
        let total: usize = e
            .aeu_ids()
            .iter()
            .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
            .sum();
        assert_eq!(total, domain as usize);
    }

    #[test]
    fn column_balancer_equalizes_sizes() {
        let mut e = Engine::new(
            custom_machine("m", 2, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                balancer: BalancerConfig {
                    enabled: true,
                    threshold_cv: 0.2,
                    period_s: 0.0001,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let col = e.create_column("c");
        // Load everything onto AEU 0.
        e.aeu_mut(AeuId(0))
            .absorb_rows(col, &(0..10_000u64).collect::<Vec<_>>())
            .unwrap();
        e.run_for_virtual_secs(0.001);
        let lens: Vec<usize> = e
            .aeu_ids()
            .iter()
            .map(|a| e.aeu(*a).partition(col).map_or(0, |p| p.data.len()))
            .collect();
        assert_eq!(lens.iter().sum::<usize>(), 10_000, "no rows lost");
        let max = *lens.iter().max().unwrap();
        let min = *lens.iter().min().unwrap();
        assert!(max - min <= 2500, "balanced: {lens:?}");
    }

    #[test]
    fn threaded_runtime_processes_commands_correctly() {
        let mut e = small_engine(false);
        let idx = e.create_index("t", 1 << 16);
        e.bulk_load_index(idx, (0..(1 << 16) as u64).map(|k| (k, k)));
        for a in e.aeu_ids() {
            let seed = a.0 as u64 + 99;
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            e.set_generator(
                a,
                Some(Box::new(move |_, out| {
                    let mut keys = Vec::with_capacity(16);
                    for _ in 0..16 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        keys.push(x % (1 << 16));
                    }
                    out.push(DataCommand {
                        object: DataObjectId(0),
                        ticket: 0,
                        payload: Payload::Lookup { keys },
                    });
                })),
            );
        }
        e.run_threaded_for(std::time::Duration::from_millis(200));
        let c = e.results().counts();
        assert!(c.lookups > 0, "threaded AEUs processed lookups");
        assert_eq!(
            c.lookups, c.lookup_hits,
            "every key is in the domain: no lost or corrupted commands"
        );
    }

    #[test]
    fn run_until_drained_is_idempotent() {
        let mut e = small_engine(false);
        e.run_until_drained();
        e.run_until_drained();
    }
}

#[cfg(test)]
mod hash_partition_tests {
    use super::*;
    use crate::command::Payload;
    use eris_column::scan::AggregateResult;
    use eris_column::{Aggregate, Predicate};
    use eris_numa::machines::custom_machine;

    fn engine() -> Engine {
        Engine::new(
            custom_machine("m", 4, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                collect_results: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn hash_index_routes_lookups_and_upserts() {
        let mut e = engine();
        let idx = e.create_hash_index("h", 1 << 16);
        e.submit(
            AeuId(0),
            DataCommand {
                object: idx,
                ticket: 1,
                payload: Payload::Upsert {
                    pairs: vec![(5, 50), (40_000, 77), (5, 51)],
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let c = e.results().counts();
        assert_eq!(c.upserts, 3);
        assert_eq!(c.inserted_new, 2);
        e.submit(
            AeuId(6),
            DataCommand {
                object: idx,
                ticket: 2,
                payload: Payload::Lookup {
                    keys: vec![5, 40_000, 9],
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        let mut got = e.results().take_lookup_values();
        got.sort();
        assert_eq!(
            got,
            vec![(2, 5, Some(51)), (2, 9, None), (2, 40_000, Some(77))]
        );
    }

    #[test]
    fn hash_partitions_use_distinct_seeds() {
        let mut e = engine();
        let idx = e.create_hash_index("h", 1 << 16);
        let seeds: std::collections::BTreeSet<u64> = e
            .aeu_ids()
            .iter()
            .map(|a| match &e.aeu(*a).partition(idx).unwrap().data {
                crate::aeu::PartitionData::Hash(h) => h.seed(),
                _ => panic!("hash partition expected"),
            })
            .collect();
        assert_eq!(seeds.len(), e.num_aeus(), "one hash function per partition");
    }

    #[test]
    fn hash_index_scans_sweep_unordered_partitions() {
        let mut e = engine();
        let idx = e.create_hash_index("h", 1 << 16);
        e.submit(
            AeuId(0),
            DataCommand {
                object: idx,
                ticket: 1,
                payload: Payload::Upsert {
                    pairs: (0..1000u64).map(|k| (k * 65, k)).collect(),
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        e.submit(
            AeuId(1),
            DataCommand {
                object: idx,
                ticket: 2,
                payload: Payload::Scan {
                    pred: Predicate::All,
                    agg: Aggregate::Count,
                    snapshot: u64::MAX,
                },
            },
        )
        .unwrap();
        e.run_until_drained();
        assert_eq!(
            e.results().combine_scan(2),
            Some(AggregateResult::Count(1000))
        );
    }

    #[test]
    fn balancer_moves_hash_partitions() {
        let mut e = Engine::new(
            custom_machine("m", 4, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                balancer: BalancerConfig {
                    enabled: true,
                    algorithm: crate::balancer::BalanceAlgorithm::OneShot,
                    threshold_cv: 0.2,
                    period_s: 1e-4,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let domain = 1u64 << 16;
        let idx = e.create_hash_index("h", domain);
        e.bulk_load_index(idx, (0..domain).map(|k| (k, k ^ 0xF0F0)));
        // Skewed traffic into the first AEU's range.
        for a in e.aeu_ids() {
            let mut x = (a.0 as u64 + 1) | 1;
            e.set_generator(
                a,
                Some(Box::new(move |_, out| {
                    let keys = (0..32)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x % (1 << 13)
                        })
                        .collect();
                    out.push(DataCommand {
                        object: DataObjectId(0),
                        ticket: 0,
                        payload: Payload::Lookup { keys },
                    });
                })),
            );
        }
        e.run_for_virtual_secs(2e-3);
        let total: usize = e
            .aeu_ids()
            .iter()
            .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
            .sum();
        assert_eq!(
            total as u64, domain,
            "no key lost while balancing hash partitions"
        );
        let hot_owners = e
            .shared
            .with_table(idx, |t| t.as_range().unwrap().owners_in_range(0, 1 << 13))
            .unwrap()
            .len();
        assert!(hot_owners >= 4, "hot range split {hot_owners} ways");
    }
}

#[cfg(test)]
mod balance_metric_tests {
    use super::*;
    use crate::balancer::{BalanceAlgorithm, BalanceMetric};
    use crate::command::Payload;
    use eris_numa::machines::custom_machine;

    /// With the execution-time metric, AEUs whose partitions are slower per
    /// access shed range even when access *counts* are even.
    #[test]
    fn execution_time_metric_balances_work_not_requests() {
        let domain: u64 = 1 << 16;
        let mut e = Engine::new(
            custom_machine("m", 4, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                tree: PrefixTreeConfig::new(8, 32),
                // Model huge partitions so misses (and exec time) matter.
                size_scale: 1 << 14,
                balancer: BalancerConfig {
                    enabled: true,
                    algorithm: BalanceAlgorithm::OneShot,
                    metric: BalanceMetric::ExecutionTime,
                    threshold_cv: 0.2,
                    period_s: 1e-4,
                },
                ..Default::default()
            },
        );
        let idx = e.create_index("t", domain);
        e.bulk_load_index(idx, (0..domain).map(|k| (k, k)));
        // Scans hammer one AEU's range (scan exec time is size-driven),
        // lookups spread evenly: exec time is skewed, access counts less so.
        for a in e.aeu_ids() {
            let mut x = (a.0 as u64 + 3) | 1;
            e.set_generator(
                a,
                Some(Box::new(move |_, out| {
                    let keys = (0..16)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x % (1 << 13) // hot eighth of the domain
                        })
                        .collect();
                    out.push(DataCommand {
                        object: DataObjectId(0),
                        ticket: 0,
                        payload: Payload::Lookup { keys },
                    });
                })),
            );
        }
        e.run_for_virtual_secs(2e-3);
        let ranges = e
            .shared
            .with_table(idx, |t| t.as_range().unwrap().ranges())
            .unwrap();
        let hot_owners = ranges.iter().filter(|(b, _)| *b < (1 << 13)).count();
        assert!(
            hot_owners >= 4,
            "exec-time metric split the hot range: {ranges:?}"
        );
        let total: usize = e
            .aeu_ids()
            .iter()
            .map(|a| e.aeu(*a).partition(idx).map_or(0, |p| p.data.len()))
            .sum();
        assert_eq!(total as u64, domain);
    }
}
