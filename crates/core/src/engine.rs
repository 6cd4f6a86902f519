//! The ERIS engine: AEU construction, the cooperative virtual-time runtime
//! (its one epoch loop), and a threaded runtime that exercises the routing
//! protocol under real parallelism.  The adaption loop is the balancer's.

use crate::aeu::{Aeu, AeuConfig, CommandGen, OpCounts};
use crate::balancer::{Balancer, BalancerConfig, Partitions, TRANSFER_CHUNK};
use crate::command::{AeuId, CommandRef, DataCommand, DataObjectId};
use crate::cost::CostParams;
use crate::durability::{ObjectClass, ObjectDescriptor, RedoOp, RedoSink};
use crate::monitor::Monitor;
use crate::results::ResultCollector;
use crate::routing::{
    BitmapTable, PartitionTable, RangeTable, Router, RoutingConfig, RoutingError, RoutingShared,
};
use crate::telemetry::{CounterSnapshot, TelemetrySnapshot};
use eris_column::Column;
use eris_index::PrefixTreeConfig;
use eris_mem::{MemoryManager, Policy};
use eris_numa::{CoreId, HwCounters, NodeId, Topology, VirtualClock};
use eris_obs::{Stamped, TraceStamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
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
    objects: Vec<ObjectDescriptor>,
    balancer: Balancer,
    /// Durability sink shared with every AEU (None = volatile engine).
    sink: Option<Arc<dyn RedoSink>>,
    /// Each AEU's priced time in the last epoch.
    step_ns: Vec<f64>,
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
            for c in topo.cores_of_node(node) {
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
            let aeu_cfg = AeuConfig {
                size_scale: cfg.size_scale,
                node_of: Arc::clone(&node_of),
                nodes: topo.num_nodes(),
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

        let balancer = Balancer::new(cfg.balancer);
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
            balancer,
            sink: None,
            step_ns: Vec::with_capacity(num_aeus),
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
        self.create_object(name, ObjectClass::Tree, domain)
    }

    /// Create a range-partitioned object stored as per-partition hash
    /// tables: O(1) point access, no ordered range scans (Section 3.1).
    /// Routing is identical to [`Engine::create_index`]; only the in-
    /// partition structure differs, and each partition draws its own hash
    /// function seed.
    pub fn create_hash_index(&mut self, name: &str, domain: u64) -> DataObjectId {
        self.create_object(name, ObjectClass::Hash, domain)
    }

    /// Create a size-partitioned column held by all AEUs.
    pub fn create_column(&mut self, name: &str) -> DataObjectId {
        self.create_object(name, ObjectClass::Column, 0)
    }

    /// Give every AEU its partition of a new object, register the
    /// partition table and journal the creation.
    fn create_object(&mut self, name: &str, class: ObjectClass, domain: u64) -> DataObjectId {
        let id = DataObjectId(self.objects.len() as u32);
        let owners = self.aeu_ids();
        let table = match class {
            ObjectClass::Column => {
                for aeu in self.aeus.iter_mut() {
                    aeu.create_column_partition(id);
                }
                PartitionTable::Bitmap(BitmapTable::new(owners))
            }
            _ => {
                let table = RangeTable::even(domain, &owners);
                for (i, aeu) in self.aeus.iter_mut().enumerate() {
                    let range = table.range_of(i, domain);
                    match class {
                        ObjectClass::Hash => aeu.create_hash_partition(id, range),
                        _ => aeu.create_index_partition(id, self.cfg.tree, range),
                    }
                }
                PartitionTable::Range(table)
            }
        };
        self.shared.register_object(id, table);
        self.objects.push(ObjectDescriptor {
            id,
            class,
            domain,
            name: name.into(),
        });
        self.balancer.add_object();
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
        self.objects.clone()
    }

    /// Rebuild a range-partitioned object's routing table from restored
    /// per-AEU lower bounds (recovery only; mirrors the balancer's
    /// table-rebuild + `set_range` sequence).
    pub fn restore_partition_bounds(&mut self, object: DataObjectId, bounds: &[u64]) {
        assert_eq!(bounds.len(), self.aeus.len(), "one bound per AEU");
        let ObjectDescriptor { class, domain, .. } = self.objects[object.0 as usize];
        if class != ObjectClass::Column {
            apply_bounds(&self.shared, &mut self.aeus, object, domain, bounds);
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

    /// Bulk-load an index in one pass (setup path): each owner stages its
    /// pairs in one buffer of [`TRANSFER_CHUNK`], then absorbs and journals
    /// each full one, a hash owner sized on its first for its range's share
    /// of the size hint.
    pub fn bulk_load_index(
        &mut self,
        object: DataObjectId,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let ObjectDescriptor { class, domain, .. } = self.objects[object.0 as usize];
        assert!(class != ObjectClass::Column, "bulk_load_index on a column");
        let pairs = pairs.into_iter();
        let hint = pairs.size_hint().0 as u128;
        let share = |(lo, hi): (u64, u64)| hint * u128::from(hi - lo) / u128::from(domain);
        // Allocated before the load's journal flushes free anything, so an
        // allocator that maps large blocks returns each whole at the end.
        let mut staged: Vec<_> = (self.aeus.iter())
            .map(|aeu| share(aeu.partition(object).expect("index partition").range))
            .map(|share| (Vec::with_capacity(TRANSFER_CHUNK), share))
            .collect();
        self.shared
            .with_table(object, |t| {
                let table = t.as_range().expect("index object");
                for (k, v) in pairs {
                    assert!(k < domain, "key {k} outside domain {domain}");
                    let i = table.owner(k).index();
                    let (buf, share) = &mut staged[i];
                    if buf.len() == TRANSFER_CHUNK {
                        self.aeus[i].reserve_transfer(object, std::mem::take(share) as usize);
                        self.aeus[i].absorb_pairs(object, buf);
                        buf.clear();
                    }
                    buf.push((k, v));
                }
            })
            .expect("bulk-loaded object is registered");
        for (aeu, (buf, _)) in self.aeus.iter_mut().zip(staged) {
            if !buf.is_empty() {
                aeu.absorb_pairs(object, &buf);
            }
        }
    }

    /// Bulk-load a column round-robin across AEUs (setup path): value `i`
    /// goes to AEU `i mod n`, straight into that AEU's open segment, and
    /// each AEU then journals its new rows from its segments.
    pub fn bulk_load_column(
        &mut self,
        object: DataObjectId,
        values: impl IntoIterator<Item = u64>,
    ) {
        let mut columns: Vec<(NodeId, &mut Column)> = self
            .aeus
            .iter_mut()
            .map(|aeu| {
                let node = aeu.node;
                (node, aeu.column_mut(object).expect("load targets a column"))
            })
            .collect();
        let (mut dealt, mut next) = (0, 0);
        for v in values {
            let (node, col) = &mut columns[next];
            col.append([v], || Aeu::provision_segment(*node));
            dealt += 1;
            next = if next + 1 == columns.len() {
                0
            } else {
                next + 1
            };
        }
        let n = self.aeus.len();
        for (i, aeu) in self.aeus.iter().enumerate() {
            aeu.journal_rows(object, dealt / n + usize::from(i < dealt % n));
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
    /// [`RoutingError`] and enqueue nothing.  An accepted command
    /// executes in the next [`Engine::run_epoch`].
    pub fn submit(&mut self, via: AeuId, cmd: DataCommand) -> Result<(), RoutingError> {
        self.aeus[via.index()].route_command(&cmd).map(drop)
    }

    /// Submit a command as the serving layer holds it: checked where it
    /// lies in its encoding (see [`CommandRef::check`]), routed from those
    /// bytes without an owned copy, and copied unchanged into the
    /// outgoing buffer of each owner.  A trace stamp born at frame decode
    /// (full-path tracing: identity + net/admit spans) rides to the
    /// executing AEU.
    ///
    /// Returns the number of sub-commands the command was routed as
    /// (one per owner of a point command, one per multicast target of a
    /// scan): what the coming epoch executes on its behalf.
    pub fn submit_view(
        &mut self,
        via: AeuId,
        cmd: CommandRef<'_>,
        stamp: Option<TraceStamp>,
    ) -> Result<u64, RoutingError> {
        self.aeus[via.index()].route_external(cmd, stamp)
    }

    /// Run one cooperative epoch: deliver everything submitted since the
    /// last epoch, step every AEU, advance the virtual clock by the
    /// epoch's cost ([`CostParams::epoch_ns`] prices what the AEUs
    /// counted; submissions are charged to the step after them), and run
    /// the balancer when
    /// a period of virtual time has passed.  Delivery comes first so that
    /// a command submitted through any AEU executes in this epoch,
    /// whatever the stepping order; generators route inside the step and
    /// are flushed at its end.  Everything but the threaded runtime runs
    /// this loop, so the balancer's cadence is virtual in every run.
    pub fn run_epoch(&mut self) -> EpochReport {
        let mut report = EpochReport::default();
        let tel_before = self.shared.telemetry_totals();
        for aeu in self.aeus.iter_mut() {
            aeu.deliver();
        }
        for aeu in self.aeus.iter_mut() {
            aeu.step();
            report.ops.add(&aeu.counts().ops());
        }
        let params = &self.cfg.params;
        let steps = self.aeus.iter().map(Aeu::counts);
        report.duration_ns =
            params.epoch_ns(&self.topo, steps, &mut self.counters, &mut self.step_ns);
        for (aeu, &ns) in self.aeus.iter_mut().zip(&self.step_ns) {
            aeu.book_step(ns, |o| params.exec_ns(o));
        }
        self.clock.advance_ns(report.duration_ns);
        if self.balancer.due(self.clock.now_secs()) {
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
    // Load balancing (Section 3.3): the adaption loop is the `Balancer`'s
    // ------------------------------------------------------------------

    /// The per-object sampling history collected by the adaption loop.
    pub fn monitor(&self) -> &Monitor {
        self.balancer.monitor()
    }

    /// Run one adaption cycle now, due or not.  Returns the total virtual
    /// time charged for transfers.
    pub fn run_balancer(&mut self) -> f64 {
        let parts = Partitions {
            topo: &self.topo,
            shared: &self.shared,
            aeus: &mut self.aeus,
            counters: &mut self.counters,
            params: self.cfg.params,
            transfer_scale: self.cfg.transfer_scale.unwrap_or(self.cfg.size_scale) as f64,
            sink: self.sink.as_deref(),
        };
        self.balancer
            .run(self.clock.now_secs(), &self.objects, parts)
    }

    // ------------------------------------------------------------------
    // Threaded runtime
    // ------------------------------------------------------------------

    /// Run every AEU as a real OS thread (pinned round-robin to host
    /// cores) for `wall` time, the only wall-clock runtime.  Virtual time
    /// does not advance and the balancer does not run; this mode exists to
    /// exercise the latch-free routing protocol under true parallelism —
    /// correctness is asserted through the result collector.  Commands
    /// still in flight when the threads stop stay in their buffers; a
    /// caller that counts results drains them with
    /// [`Engine::drain_and_quiesce`].
    pub fn run_threaded_for(&mut self, wall: std::time::Duration) {
        let stop = AtomicBool::new(false);
        let aeus = std::mem::take(&mut self.aeus);
        self.aeus = std::thread::scope(|s| {
            let stop = &stop;
            let handles: Vec<_> = aeus
                .into_iter()
                .map(|mut aeu| {
                    s.spawn(move || {
                        let _ = eris_numa::affinity::pin_current_thread(aeu.core.index());
                        while !stop.load(Ordering::Relaxed) {
                            aeu.step();
                        }
                        aeu
                    })
                })
                .collect();
            std::thread::sleep(wall);
            stop.store(true, Ordering::Relaxed);
            // Joined in spawn order, which is AEU order.
            let joined = handles.into_iter().map(|h| h.join());
            joined.map(|r| r.expect("AEU thread panicked")).collect()
        });
    }
}

/// Make `bounds` (one lower bound per AEU) the object's partitioning: the
/// routing table first, then every AEU's validity range.
pub(crate) fn apply_bounds(
    shared: &RoutingShared,
    aeus: &mut [Aeu],
    object: DataObjectId,
    domain: u64,
    bounds: &[u64],
) {
    let entries = bounds.iter().copied().zip((0..).map(AeuId)).collect();
    shared
        .with_table_mut(object, |t| {
            t.as_range_mut().expect("range object").rebuild(entries)
        })
        .expect("repartitioned object is registered");
    for (i, aeu) in aeus.iter_mut().enumerate() {
        let hi = bounds.get(i + 1).copied().unwrap_or(domain);
        aeu.set_range(object, (bounds[i], hi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Payload;
    use eris_column::scan::AggregateResult;
    use eris_column::{Aggregate, Predicate};
    use eris_numa::machines::custom_machine;

    /// Give every AEU a generator of one `n`-key lookup of object 0 per
    /// step, its keys a xorshift stream from `x0(aeu)` modulo `range`.
    pub(super) fn lookup_generators(e: &mut Engine, x0: fn(u64) -> u64, n: usize, range: u64) {
        for a in e.aeu_ids() {
            let mut x = x0(u64::from(a.0));
            let gen = move |_, out: &mut Vec<DataCommand>| {
                let keys = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % range
                    })
                    .collect();
                let payload = Payload::Lookup { keys };
                out.push(DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload,
                });
            };
            e.set_generator(a, Some(Box::new(gen)));
        }
    }

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
    fn a_backlog_larger_than_one_incoming_buffer_is_delivered() {
        // Two AEUs with 4 KiB incoming buffers.  Upserts and scans of keys
        // AEU 1 owns, all routed through AEU 0 with no epoch between them,
        // pile up ~20 KiB for AEU 1 once its buffer is full; every third
        // command carries a trace marker.
        let mut e = Engine::new(
            custom_machine("two", 2, 1, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                collect_results: true,
                routing: RoutingConfig {
                    outgoing_capacity: 256,
                    incoming_capacity: 4096,
                    trace_sample_every: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let domain = 1 << 16;
        let idx = e.create_index("t", domain);
        let value = |k: u64| 3 * k + 1;
        for ticket in 0..128u64 {
            let keys = (0..8).map(|i| domain / 2 + 8 * ticket + i);
            let payload = if ticket % 16 == 15 {
                Payload::Scan {
                    pred: Predicate::All,
                    agg: Aggregate::Count,
                    snapshot: u64::MAX,
                }
            } else {
                Payload::Upsert {
                    pairs: keys.map(|k| (k, value(k))).collect(),
                }
            };
            let cmd = DataCommand {
                object: idx,
                ticket,
                payload,
            };
            e.submit(AeuId(0), cmd).unwrap();
        }
        let mut epochs = 0;
        while !e.is_idle() {
            assert!(epochs < 64, "still in flight after {epochs} epochs");
            e.run_epoch();
            epochs += 1;
        }
        let q = e.drain_and_quiesce();
        assert!(q.conservation_ok && q.trace_ok, "{q:?}");
        for ticket in 0..8 {
            let keys = (0..128).map(|i| domain / 2 + 128 * ticket + i).collect();
            let lookup = DataCommand {
                object: idx,
                ticket: 1000,
                payload: Payload::Lookup { keys },
            };
            e.submit(AeuId(1), lookup).unwrap();
            e.run_until_drained();
        }
        let mut got = e.results().take_lookup_values();
        got.sort_unstable();
        let upserted = |k: u64| (k - domain / 2) / 8 % 16 != 15;
        let want: Vec<_> = (domain / 2..domain / 2 + 8 * 128)
            .map(|k| (1000, k, upserted(k).then(|| value(k))))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_command_no_incoming_buffer_takes_is_refused() {
        // 4 KiB incoming buffers: a 1 024-key lookup one AEU owns is 8 KiB
        // for that AEU, which no flush could ever deliver.
        let mut e = Engine::new(
            custom_machine("two", 2, 1, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                collect_results: true,
                routing: RoutingConfig {
                    incoming_capacity: 4096,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let idx = e.create_index("t", 1 << 16);
        let lookup = |ticket, keys: std::ops::Range<u64>| DataCommand {
            object: idx,
            ticket,
            payload: Payload::Lookup {
                keys: keys.collect(),
            },
        };
        let refused = e.submit(AeuId(0), lookup(1, 0..1024));
        let Err(RoutingError::CommandTooLarge {
            object,
            target,
            bytes,
            capacity,
        }) = refused
        else {
            panic!("refused as too large: {refused:?}");
        };
        assert_eq!(
            (object, target, bytes, capacity),
            (idx, AeuId(0), 21 + 8 * 1024, 4096)
        );
        e.submit(AeuId(0), lookup(2, 0..8)).unwrap();
        e.run_until_drained();
        let got = e.results().take_lookup_values();
        assert_eq!(got, (0..8).map(|k| (2, k, None)).collect::<Vec<_>>());
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

    /// Each AEU's partition of a hash index.
    fn hash_parts(e: &Engine, idx: DataObjectId) -> Vec<&eris_index::HashTable> {
        let part = |a| &e.aeu(a).partition(idx).unwrap().data;
        (e.aeu_ids().into_iter().map(part))
            .map(|data| match data {
                crate::aeu::PartitionData::Hash(h) => h,
                _ => panic!("hash partition"),
            })
            .collect()
    }

    #[test]
    fn a_hash_load_sizes_each_partition_for_the_keys_it_received() {
        // 8 AEUs; each range holds 2^17 keys, two staging chunks.
        let domain = 1u64 << 20;
        let sized = |keys| eris_index::HashTable::with_capacity(1, 0, keys).memory_bytes();
        // Exact size hint, keys spread as the ranges are: each partition
        // is sized once, exactly for its keys.
        let mut e = small_engine(false);
        let even = e.create_hash_index("even", domain);
        e.bulk_load_index(even, (0..domain).map(|k| (k, k)));
        for h in hash_parts(&e, even) {
            assert_eq!((h.len(), h.memory_bytes()), (1 << 17, sized(1 << 17)));
        }
        // Every key in AEU 0's range (8 times its share of the hint), and
        // a hint of 0 (`filter`): a partition that received no keys holds
        // no reservation, and one that did grew for what it received.
        let skewed = e.create_hash_index("skewed", domain);
        e.bulk_load_index(skewed, (0..domain / 8).map(|k| (k, k)));
        let hintless = e.create_hash_index("hintless", domain);
        let every_third = (0..domain).filter(|k| k % 3 != 0);
        e.bulk_load_index(hintless, every_third.map(|k| (k, k)));
        assert_eq!(hash_parts(&e, skewed)[1].memory_bytes(), sized(0));
        for (idx, keys) in [(skewed, 0..domain / 8), (hintless, 1..domain)] {
            let parts = hash_parts(&e, idx);
            for h in &parts {
                let (keys, bytes) = (h.len(), h.memory_bytes());
                assert!(
                    bytes <= sized(keys) * 3 / 2 + sized(0),
                    "{bytes} B for {keys} keys, a table for them is {} B",
                    sized(keys)
                );
            }
            let held = parts.iter().map(|h| h.len() as u64).sum::<u64>();
            let loaded = keys.clone().filter(|k| idx == skewed || k % 3 != 0);
            assert_eq!(held, loaded.clone().count() as u64);
            for k in loaded.step_by(997) {
                assert_eq!(parts.iter().find_map(|h| h.lookup(k)), Some(k));
            }
        }
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
    fn a_scan_charges_the_traffic_of_its_snapshot_rows_only() {
        // Three full segments per AEU: a 100 000-row snapshot reads
        // 100 000 rows of each partition, not up to 100 000 of each of its
        // three segments.
        let segment = eris_column::DEFAULT_SEGMENT_CAPACITY as u64;
        let memory_bytes = |snapshot| {
            let mut e = small_engine(false);
            let col = e.create_column("c");
            e.bulk_load_column(col, 0..3 * segment * e.num_aeus() as u64);
            let payload = Payload::Scan {
                pred: Predicate::All,
                agg: Aggregate::Count,
                snapshot,
            };
            let (object, ticket) = (col, 1);
            e.submit(
                AeuId(0),
                DataCommand {
                    object,
                    ticket,
                    payload,
                },
            )
            .unwrap();
            e.run_until_drained();
            (e.num_aeus() as u64, e.counters().total_imc_bytes())
        };
        let (n, full) = memory_bytes(u64::MAX);
        let (_, cut) = memory_bytes(100_000);
        assert_eq!(full - cut, n * (3 * segment - 100_000) * 8);
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
        lookup_generators(
            &mut e,
            |a| a.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            64,
            1 << 16,
        );
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
        lookup_generators(
            &mut e,
            |a| (a + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1,
            32,
            1 << 13,
        );
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
        lookup_generators(
            &mut e,
            |a| (a + 99).wrapping_mul(0x9E3779B97F4A7C15) | 1,
            16,
            1 << 16,
        );
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

    /// Submit through every AEU a lookup whose one owner steps no later
    /// than that AEU, a lookup and an upsert split over every owner, and
    /// a multicast scan of `col`.
    fn submit_through_every_aeu(e: &mut Engine, idx: DataObjectId, col: DataObjectId, domain: u64) {
        let n = e.num_aeus() as u64;
        let part = domain / n;
        for a in e.aeu_ids() {
            let via = u64::from(a.0);
            let single = via / 2 * part;
            assert!(e.owner_of(idx, single).unwrap() <= a);
            let point = [
                Payload::Lookup { keys: vec![single] },
                Payload::Lookup {
                    keys: (0..n).map(|i| i * part + via).collect(),
                },
                Payload::Upsert {
                    pairs: (0..n).map(|i| (i * part + n + via, via)).collect(),
                },
            ];
            for payload in point {
                let cmd = DataCommand {
                    object: idx,
                    ticket: via,
                    payload,
                };
                e.submit(a, cmd).unwrap();
            }
            let scan = Payload::Scan {
                pred: Predicate::All,
                agg: Aggregate::Count,
                snapshot: u64::MAX,
            };
            let cmd = DataCommand {
                object: col,
                ticket: via,
                payload: scan,
            };
            e.submit(a, cmd).unwrap();
        }
    }

    /// Whatever AEU a command was submitted through, and however it is
    /// routed, it executes in the next epoch.
    #[test]
    fn a_batch_submitted_through_every_aeu_executes_in_one_epoch() {
        let mut e = small_engine(false);
        let domain = 1u64 << 16;
        let idx = e.create_index("t", domain);
        e.bulk_load_index(idx, (0..domain).map(|k| (k, k)));
        let col = e.create_column("c");
        e.bulk_load_column(col, 0..1000u64);
        submit_through_every_aeu(&mut e, idx, col, domain);
        let n = e.num_aeus() as u64;
        e.run_epoch();
        let c = e.results().counts();
        assert_eq!(c.lookups, n * (1 + n), "one-owner and split lookups");
        assert_eq!(c.upserts, n * n, "split upserts");
        assert_eq!(c.scans, n * n, "every partition's part of every scan");
        assert_eq!(c.rows_scanned, 1000, "one shared pass per partition");
        assert_eq!(e.in_flight_commands(), 0);
        assert!(e.is_idle());
    }

    /// A batch executes before the cycle at the end of its epoch moves a
    /// boundary, so none of it reaches a former owner as a stray.
    #[test]
    fn a_balancer_cycle_in_the_batch_epoch_forwards_none_of_it() {
        let mut e = Engine::new(
            custom_machine("m", 4, 2, 20.0, 100.0, 10.0, 60.0),
            EngineConfig {
                tree: PrefixTreeConfig::new(8, 32),
                balancer: BalancerConfig {
                    enabled: true,
                    algorithm: crate::balancer::BalanceAlgorithm::OneShot,
                    threshold_cv: 0.2,
                    // Due at the end of the first epoch.
                    period_s: 1e-9,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let domain = 1u64 << 16;
        let idx = e.create_index("t", domain);
        e.bulk_load_index(idx, (0..domain).map(|k| (k, k)));
        // Every AEU sends lookups into AEU 0's range: skew the cycle acts on.
        let hot = domain / e.num_aeus() as u64;
        for a in e.aeu_ids() {
            let keys = (0..64).map(|i| (i * 127 + u64::from(a.0)) % hot).collect();
            let cmd = DataCommand {
                object: idx,
                ticket: 0,
                payload: Payload::Lookup { keys },
            };
            e.submit(a, cmd).unwrap();
        }
        let report = e.run_epoch();
        let tel = e.telemetry();
        assert_eq!(tel.balancer.cycles, 1, "the cycle ran in the batch's epoch");
        assert!(tel.balancer.keys_moved > 0 && report.balance_ns > 0.0);
        assert_eq!(e.results().counts().lookups, 64 * e.num_aeus() as u64);
        e.run_until_drained();
        assert_eq!(e.telemetry().totals.forwarded, 0);
        assert_eq!(e.results().counts().lookups, 64 * e.num_aeus() as u64);
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
        super::tests::lookup_generators(&mut e, |a| (a + 1) | 1, 32, 1 << 13);
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
        // Lookups into the hot eighth of the domain.
        super::tests::lookup_generators(&mut e, |a| (a + 3) | 1, 16, 1 << 13);
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
