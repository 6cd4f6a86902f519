//! Autonomous Execution Units.
//!
//! Section 3.1: an AEU is pinned to one core, owns one partition per data
//! object, and loops over three stages: **group** the incoming data command
//! buffer by (data object, command type), **process** the groups (shared
//! scans, batched lookups/upserts), and **handle balancing/transfer
//! commands**.  All data structure accesses are latch-free because the AEU
//! is the only writer of its partitions.

use crate::command::{
    AeuId, CommandRef, CommandView, DataCommand, DataObjectId, Payload, PointItem, StorageOp,
};
use crate::cost::{expected_tree_misses, CostParams};
use crate::durability::{RedoOp, RedoSink};
use crate::results::ResultCollector;
use crate::routing::RoutingError;
use crate::routing::{FlushInfo, IncomingBuffers, Router};
use crate::telemetry::{bump, TelemetryShard};
use eris_column::{simd, Column, Segment, SharedScan, SimdLevel};
use eris_index::{HashTable, PrefixTree, PrefixTreeConfig};
use eris_numa::{CoreId, Flow, NodeId};
use eris_obs::{
    now_ns, LatencyRecord, LatencyTable, Phase, Stamped, TraceEvent, TraceStamp, NUM_PHASES,
};
use std::collections::BTreeMap;
// ordering: Relaxed is the only ordering this module imports — every
// atomic here is a monotonic telemetry counter that carries no payload;
// command data flows through the incoming/outgoing buffer protocols.
// The shard's execution counters have one writer, this AEU's thread, and
// are bumped with a load and a store (`telemetry::bump`); the per-object
// ledgers have many and keep `fetch_add`.
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Values per provisioned column segment.
const SEGMENT_VALUES: usize = 64 * 1024;

/// Does the half-open validity range `[lo, hi)` contain `k`?  Matching
/// [`eris_column::Predicate::Range`], `hi == u64::MAX` is a sentinel for
/// unbounded-above: the top partition is closed at the top of the
/// domain, so a key of `u64::MAX` is *mine*, not a stray — otherwise it
/// would be forwarded forever (no half-open range can contain it).
#[inline]
fn range_contains(lo: u64, hi: u64, k: u64) -> bool {
    k >= lo && (k < hi || hi == u64::MAX)
}

/// How many of the encoded `items` have a key the validity range
/// `[lo, hi)` contains: all of them outside a migration.
fn count_mine<T: PointItem>(items: &[u8], (lo, hi): (u64, u64)) -> usize {
    T::decode_items(items)
        .map(|item| range_contains(lo, hi, item.key()) as usize)
        .sum()
}

/// Split the encoded `items` of a command carrying strays: those whose
/// key the validity range `[lo, hi)` contains are appended to `mine`, the
/// strays are returned.  Mid-migration only — a command straddling a
/// moved boundary.
fn split_strays<T: PointItem>(items: &[u8], (lo, hi): (u64, u64), mine: &mut Vec<T>) -> Vec<T> {
    let mut stray = Vec::new();
    for item in T::decode_items(items) {
        // ALLOC-OK: `mine` is the reused gather buffer; the strays ride
        // out as an owned payload.
        if range_contains(lo, hi, item.key()) {
            mine.push(item);
        } else {
            stray.push(item);
        }
    }
    stray
}

/// The `(ticket, point operations)` of a command inside a group run.
fn command_extent(v: &CommandView) -> (u64, usize) {
    (v.ticket, v.op_count() as usize)
}

/// The modelled cost of one point operation on a partition; fixed for the
/// group it was computed for.
#[derive(Clone, Copy)]
struct PointCost {
    /// Expected LLC misses.
    misses: f64,
    /// CPU time: structure traversal, plus the write for an upsert.
    cpu_ns: f64,
}

/// What a point group adds up over its runs.
#[derive(Default)]
struct PointTally {
    /// Keys probed or pairs applied locally.
    ops: u64,
    /// Modelled execution time.
    exec_ns: f64,
}

/// What differs between lookups and upserts in a point run, implemented on
/// the run's items: the kernel call with result delivery, and what settles
/// one command (its reply, or its redo record).
trait PointRun {
    /// ONE batched kernel call over the run; results go to `results`,
    /// each of `commands` — a `(ticket, item count)` — taking its slice.
    fn run_kernel<C: Iterator<Item = (u64, usize)>>(
        &self,
        data: &mut PartitionData,
        values: &mut Vec<Option<u64>>,
        results: &ResultCollector,
        commands: C,
    );

    /// Settle the one command whose local items these are.
    fn settle_command(&self, aeu: &mut Aeu, object: DataObjectId, w: &mut WorkSummary);
}

impl PointRun for [u64] {
    fn run_kernel<C: Iterator<Item = (u64, usize)>>(
        &self,
        data: &mut PartitionData,
        values: &mut Vec<Option<u64>>,
        results: &ResultCollector,
        commands: C,
    ) {
        match data {
            // Level-synchronous prefetched group descent.
            PartitionData::Index(tree) => tree.lookup_batch(self, values),
            PartitionData::Hash(h) => {
                values.clear();
                // AMAC interleaved state machine — every in-flight probe's
                // next bucket is prefetched while the others execute,
                // results in input order.
                h.lookup_batch(self, values);
            }
            PartitionData::Column(_) => {
                debug_assert!(false, "lookup on a column partition");
                return;
            }
        }
        results.lookup_batch(self, values, commands);
    }

    /// Result reply path: the callback owner receives the values.
    fn settle_command(&self, aeu: &mut Aeu, _: DataObjectId, w: &mut WorkSummary) {
        let n = self.len() as u64;
        aeu.reply_rr = (aeu.reply_rr + 1) % aeu.cfg.node_of.len();
        // BOUNDS: reply_rr was just reduced modulo node_of.len().
        let reply_node = aeu.cfg.node_of[aeu.reply_rr];
        w.latency_ns += FLUSH_BASE_LATENCY_NS / (2.0 * aeu.cfg.params.mlp);
        w.cpu_ns += n as f64 * 2.0;
        w.add_flow(
            Flow::new(aeu.node, reply_node, n * 16),
            FlowKind::Overlapped,
        );
    }
}

impl PointRun for [(u64, u64)] {
    fn run_kernel<C: Iterator<Item = (u64, usize)>>(
        &self,
        data: &mut PartitionData,
        _: &mut Vec<Option<u64>>,
        results: &ResultCollector,
        _: C,
    ) {
        let fresh = match data {
            // Read-only prefetched group descent, input-order application.
            PartitionData::Index(tree) => tree.upsert_batch(self),
            // Group-prefetched home buckets, input-order application; only
            // a fresh key can grow the table.
            PartitionData::Hash(h) => h.upsert_batch(self),
            PartitionData::Column(_) => {
                debug_assert!(false, "point upsert on a column partition");
                return;
            }
        };
        results.upsert_batch(self.len() as u64, fresh);
    }

    /// One redo record per command, as if it had been applied alone.
    fn settle_command(&self, aeu: &mut Aeu, object: DataObjectId, _: &mut WorkSummary) {
        aeu.journal(RedoOp::UpsertPairs {
            object,
            pairs: self,
        });
    }
}

/// Why [`Aeu::absorb_rows`] refused a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsorbError {
    /// The AEU holds no partition of that object.
    UnknownPartition(DataObjectId),
    /// The partition exists but is an index, not a column.
    NotAColumn(DataObjectId),
}

/// The storage of one partition.
pub enum PartitionData {
    /// Range-partitioned prefix tree (order-preserving; supports range scans).
    Index(PrefixTree),
    /// Range-partitioned hash table with a per-partition hash function
    /// (Section 3.1) — O(1) point access, no range scans.
    Hash(HashTable),
    /// Size-partitioned column.
    Column(Column),
}

impl PartitionData {
    /// Keys or rows stored.
    pub fn len(&self) -> usize {
        match self {
            PartitionData::Index(t) => t.len(),
            PartitionData::Hash(h) => h.len(),
            PartitionData::Column(c) => c.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            PartitionData::Index(t) => t.memory_bytes(),
            PartitionData::Hash(h) => h.memory_bytes(),
            PartitionData::Column(c) => c.bytes(),
        }
    }

    /// Expected LLC misses per point operation, given the modelled key
    /// count and the AEU's effective cache share.
    fn point_misses(&self, model_keys: u64, cache_bytes: f64) -> f64 {
        match self {
            PartitionData::Index(t) => {
                expected_tree_misses(model_keys.max(1), t.config(), cache_bytes)
            }
            PartitionData::Hash(_) => {
                crate::cost::expected_hash_misses(model_keys.max(1), cache_bytes)
            }
            PartitionData::Column(_) => 0.0,
        }
    }

    /// CPU cost of one point operation's structure traversal.
    fn point_cpu_ns(&self, params: &CostParams) -> f64 {
        match self {
            PartitionData::Index(t) => {
                params.cpu_ns_per_point_op
                    + t.config().levels() as f64 * params.cpu_ns_per_tree_level
            }
            // A hash probe touches ~1.3 buckets: constant work.
            PartitionData::Hash(_) => {
                params.cpu_ns_per_point_op + 2.0 * params.cpu_ns_per_tree_level
            }
            PartitionData::Column(_) => params.cpu_ns_per_point_op,
        }
    }
}

/// One AEU-owned partition of a data object, plus its monitoring state.
pub struct Partition {
    pub data: PartitionData,
    /// The key range this AEU is responsible for (index objects).
    pub range: (u64, u64),
    /// Accesses since the last monitor sample.
    pub accesses: u64,
    /// Execution time since the last monitor sample (virtual ns).
    pub exec_ns: f64,
}

/// A per-epoch command generator: workload traffic modelled as commands
/// arising *at* each AEU, routed like any client's command.
pub type CommandGen = Box<dyn FnMut(u64, &mut Vec<DataCommand>) + Send>;

/// Operation tallies of one step.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    pub lookups: u64,
    pub upserts: u64,
    pub scans: u64,
    pub scan_rows: u64,
    pub commands_routed: u64,
    pub forwarded: u64,
}

impl OpCounts {
    pub fn add(&mut self, o: &OpCounts) {
        self.lookups += o.lookups;
        self.upserts += o.upserts;
        self.scans += o.scans;
        self.scan_rows += o.scan_rows;
        self.commands_routed += o.commands_routed;
        self.forwarded += o.forwarded;
    }
}

/// How a worker's flow occupies its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Streaming consumption: the worker advances only as bytes arrive
    /// (column scans).  Serial flows of one worker add up.
    Serial,
    /// Posted/overlapped traffic: transfers proceed concurrently (lookup
    /// miss traffic under MLP, buffer flush copies).  Only the slowest
    /// overlapped flow bounds the worker.
    Overlapped,
}

/// What one worker did in one step, for the virtual-time solver.
pub struct WorkSummary {
    pub node: NodeId,
    /// Pure compute time.
    pub cpu_ns: f64,
    /// Serialized memory/communication latency.
    pub latency_ns: f64,
    /// Memory traffic to be fair-shared.
    pub flows: Vec<(Flow, FlowKind)>,
    pub ops: OpCounts,
}

impl WorkSummary {
    pub fn new(node: NodeId) -> Self {
        WorkSummary {
            node,
            cpu_ns: 0.0,
            latency_ns: 0.0,
            flows: Vec::new(),
            ops: OpCounts::default(),
        }
    }

    /// Add one flow record, merged into the entry of the same `(src, home,
    /// kind)` when there is one — the entry [`Self::coalesce_flows`] would
    /// merge it into — so a point command adds to the worker's stream
    /// instead of a record of its own.  The coalesced order and sums are
    /// those of pushing every record and coalescing once.
    pub fn add_flow(&mut self, flow: Flow, kind: FlowKind) {
        let same = |(m, mk): &&mut (Flow, FlowKind)| {
            m.src == flow.src && m.home == flow.home && *mk == kind
        };
        match self.flows.iter_mut().find(same) {
            Some((m, _)) => m.bytes += flow.bytes,
            // ALLOC-OK: one record per distinct stream, drained every epoch.
            None => self.flows.push((flow, kind)),
        }
    }

    /// Merge flows sharing the same (src, home) pair.  One worker's traffic
    /// to one home is a single stream: splitting it into per-command flows
    /// would both over-claim fair shares and over-serialize the worker's
    /// own transfer time.
    pub fn coalesce_flows(&mut self) {
        if self.flows.len() < 2 {
            return;
        }
        let mut merged: Vec<(Flow, FlowKind)> = Vec::with_capacity(self.flows.len().min(16));
        for (f, k) in self.flows.drain(..) {
            match merged
                .iter_mut()
                .find(|(m, mk)| m.src == f.src && m.home == f.home && *mk == k)
            {
                Some((m, _)) => m.bytes += f.bytes,
                None => merged.push((f, k)),
            }
        }
        self.flows = merged;
    }
}

/// Per-AEU configuration resolved by the engine.
pub struct AeuConfig {
    pub params: CostParams,
    /// LLC bytes effectively available to this AEU (node LLC / AEUs per node).
    pub llc_share_bytes: f64,
    /// Virtual keys per real key: experiments model paper-scale data with a
    /// real subsample; lengths entering the cost model are scaled by this.
    pub size_scale: u64,
    /// Local memory read latency of this AEU's node.
    pub local_latency_ns: f64,
    /// AEU index → home node, for flush traffic accounting.
    pub node_of: Arc<Vec<NodeId>>,
}

/// An Autonomous Execution Unit.
pub struct Aeu {
    pub id: AeuId,
    pub node: NodeId,
    pub core: CoreId,
    cfg: AeuConfig,
    partitions: BTreeMap<DataObjectId, Partition>,
    router: Router,
    incoming: Arc<IncomingBuffers>,
    results: Arc<ResultCollector>,
    generator: Option<CommandGen>,
    /// Raw-routing mode: swap and decode incoming commands but skip the
    /// processing stage (the "raw routing throughput" arm of Figure 5).
    discard_incoming: bool,
    /// Balancing work charged to the next step (partition transfers).
    pending_ns: f64,
    epoch: u64,
    /// Rotating destination for result replies (statistical stand-in for
    /// the callback owner, which is uniformly distributed in the
    /// symmetric benchmark workloads).
    reply_rr: usize,
    // Scratch buffers reused across steps.
    /// Views of the commands in the swapped incoming bytes.
    scratch_cmds: Vec<CommandView>,
    scratch_gen: Vec<DataCommand>,
    /// Gather buffers for the local keys (pairs) of a point group's
    /// current run, and the lookup results of its one batched kernel call.
    scratch_keys: Vec<u64>,
    scratch_pairs: Vec<(u64, u64)>,
    scratch_values: Vec<Option<u64>>,
    /// Stamps of the commands executed by the current group, recorded into
    /// the latency table once the group's host-time cost is known.
    traced_pending: Vec<TraceStamp>,
    /// This AEU's telemetry shard (execution-side counters), shared with
    /// the router.
    tel: Arc<TelemetryShard>,
    /// The engine-wide sampled-latency table.
    latency: Arc<LatencyTable>,
    /// Durability hook: every applied local mutation is reported here.
    sink: Option<Arc<dyn RedoSink>>,
}

impl Aeu {
    pub fn new(
        id: AeuId,
        node: NodeId,
        core: CoreId,
        cfg: AeuConfig,
        router: Router,
        incoming: Arc<IncomingBuffers>,
        results: Arc<ResultCollector>,
    ) -> Self {
        let tel = Arc::clone(router.telemetry_shard());
        let latency = Arc::clone(router.shared().telemetry().latency());
        Aeu {
            id,
            node,
            core,
            cfg,
            partitions: BTreeMap::new(),
            router,
            incoming,
            results,
            generator: None,
            discard_incoming: false,
            pending_ns: 0.0,
            epoch: 0,
            reply_rr: id.index(),
            scratch_cmds: Vec::new(),
            scratch_gen: Vec::new(),
            scratch_keys: Vec::new(),
            scratch_pairs: Vec::new(),
            scratch_values: Vec::new(),
            traced_pending: Vec::new(),
            tel,
            latency,
            sink: None,
        }
    }

    /// Emit one structured trace event into this AEU's ring.
    #[inline]
    fn emit(&self, event: TraceEvent) {
        self.tel.ring.emit(Stamped {
            at_ns: now_ns(),
            aeu: self.id.0,
            event,
        });
    }

    /// Forward a stray command, preserving an attached trace stamp with
    /// its hop count bumped (the stamp's journey continues at the new
    /// owner).  No fresh sampling happens on this path.
    // HOT-PATH-CUT: rebalancing slow path — a command that landed on
    // the wrong AEU mid-migration is re-routed; rare by construction.
    fn forward_stray(&mut self, cmd: DataCommand, stamp: Option<TraceStamp>, w: &mut WorkSummary) {
        let stamp = stamp.map(|s| TraceStamp {
            hops: s.hops + 1,
            ..s
        });
        let fl = self
            .router
            .route_traced(cmd, stamp)
            .expect("internally produced command targets a registered object");
        charge_flushes_to(w, &self.cfg.node_of, &fl, &self.cfg.params, false);
    }

    /// Attach (or detach) the durability sink.  Must happen while the
    /// engine is quiesced; recovery runs with the sink detached so replay
    /// does not re-journal itself.
    pub fn set_redo_sink(&mut self, sink: Option<Arc<dyn RedoSink>>) {
        self.sink = sink;
    }

    /// Report one applied mutation to the attached sink, if any.
    #[inline]
    // HOT-PATH-CUT: durability handoff — the WAL shard buffers the
    // redo record and group-commits off the latch-free path; the
    // journal subsystem is reviewed (and fsync-gated) separately.
    fn journal(&self, op: RedoOp<'_>) {
        if let Some(s) = &self.sink {
            s.append(self.id, op);
        }
    }

    /// Attach (or clear) this AEU's command generator.
    pub fn set_generator(&mut self, g: Option<CommandGen>) {
        self.generator = g;
    }

    /// Enable raw-routing mode: incoming commands are swapped in and
    /// decoded, then dropped without processing (Figure 5, "raw").
    pub fn set_discard_incoming(&mut self, discard: bool) {
        self.discard_incoming = discard;
    }

    /// Create an index partition responsible for `range`.
    pub fn create_index_partition(
        &mut self,
        object: DataObjectId,
        cfg: PrefixTreeConfig,
        range: (u64, u64),
    ) {
        self.partitions.insert(
            object,
            Partition {
                // Synthetic addresses only matter to the cache-simulation
                // figures, which trace trees of their own.
                data: PartitionData::Index(PrefixTree::with_config(cfg, 0)),
                range,
                accesses: 0,
                exec_ns: 0.0,
            },
        );
    }

    /// Create a hash partition responsible for `range`, using a hash
    /// function seeded per partition (Section 3.1).
    pub fn create_hash_partition(&mut self, object: DataObjectId, range: (u64, u64)) {
        // The AEU id seeds the per-partition hash function.
        let seed = (self.id.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.partitions.insert(
            object,
            Partition {
                data: PartitionData::Hash(HashTable::new(seed, 0)),
                range,
                accesses: 0,
                exec_ns: 0.0,
            },
        );
    }

    /// Create an (initially empty) column partition.
    pub fn create_column_partition(&mut self, object: DataObjectId) {
        self.partitions.insert(
            object,
            Partition {
                data: PartitionData::Column(Column::new()),
                range: (0, u64::MAX),
                accesses: 0,
                exec_ns: 0.0,
            },
        );
    }

    /// The partition of `object`, if this AEU holds one.
    pub fn partition(&self, object: DataObjectId) -> Option<&Partition> {
        self.partitions.get(&object)
    }

    /// Mutable partition access (engine-side balancing).
    pub fn partition_mut(&mut self, object: DataObjectId) -> Option<&mut Partition> {
        self.partitions.get_mut(&object)
    }

    /// Monitor sampling: returns `(accesses, exec_ns, len, bytes)` since the
    /// last sample and resets the window counters.
    pub fn take_sample(&mut self, object: DataObjectId) -> (u64, f64, usize, u64) {
        match self.partitions.get_mut(&object) {
            Some(p) => {
                let s = (p.accesses, p.exec_ns, p.data.len(), p.data.bytes());
                p.accesses = 0;
                p.exec_ns = 0.0;
                s
            }
            None => (0, 0.0, 0, 0),
        }
    }

    /// Charge balancing/transfer work to this AEU's next step.
    pub fn add_pending_ns(&mut self, ns: f64) {
        self.pending_ns += ns;
    }

    /// Route one command through this AEU's routing front end — for an
    /// external client ([`crate::Engine::submit`]), or one this AEU's
    /// generator produced — charging `w` CPU per emitted sub-command (the
    /// batch target lookup + encode of routing step 1) and the flush
    /// costs.  A `stamp` born at the serving layer's frame decode rides
    /// along (full-path tracing: `(tenant, conn, seq)` and the
    /// net-queue/admission spans); without one the router's sampler
    /// decides.
    // HOT-PATH-ROOT: routing step 1 for every submitted or generated
    // command: partition-table split, outgoing buffers, threshold flushes.
    pub fn route_external(
        &mut self,
        cmd: CommandRef<'_>,
        stamp: Option<TraceStamp>,
        w: &mut WorkSummary,
    ) -> Result<(), RoutingError> {
        let keys = cmd.op_count();
        let (fl, emitted) = self.router.route_counted(&cmd, stamp)?;
        let emitted = emitted.max(1);
        w.cpu_ns += emitted as f64 * self.cfg.params.cpu_ns_per_routed_cmd
            + keys as f64 * self.cfg.params.cpu_ns_per_routed_key;
        w.ops.commands_routed += 1;
        charge_flushes_to(w, &self.cfg.node_of, &fl, &self.cfg.params, false);
        Ok(())
    }

    /// Append `rows` to `col`, provisioning fresh segments homed on `node`
    /// on demand.
    fn fill_column(node: NodeId, col: &mut Column, rows: &[u64]) {
        let mut written = 0;
        while written < rows.len() {
            // BOUNDS: the loop guard keeps written < rows.len().
            written += col.append_slice(&rows[written..]);
            if written < rows.len() {
                Self::provision_segment(node, col);
            }
        }
    }

    /// Provision a fresh segment, homed on `node`, for a column partition.
    // HOT-PATH-CUT: amortized segment provisioning — runs once per
    // SEGMENT_ROWS appends, never per command.
    fn provision_segment(node: NodeId, col: &mut Column) {
        col.push_segment(Segment::with_capacity(node, SEGMENT_VALUES));
    }

    /// Append rows to a column partition, provisioning segments on demand.
    ///
    /// Total over its inputs: callers that hand it an unknown object or
    /// an index partition get a typed error instead of a panicked AEU.
    pub fn absorb_rows(&mut self, object: DataObjectId, rows: &[u64]) -> Result<(), AbsorbError> {
        let node = self.node;
        let Some(p) = self.partitions.get_mut(&object) else {
            return Err(AbsorbError::UnknownPartition(object));
        };
        let PartitionData::Column(col) = &mut p.data else {
            return Err(AbsorbError::NotAColumn(object));
        };
        Self::fill_column(node, col, rows);
        self.journal(RedoOp::AppendRows { object, rows });
        Ok(())
    }

    /// Insert pairs into an index or hash partition (redo-log replay, and
    /// the chunks of a hash transfer after [`Aeu::reserve_transfer`]).  A
    /// hash partition grows geometrically, as inserts grow it.
    pub fn absorb_pairs(&mut self, object: DataObjectId, pairs: &[(u64, u64)]) {
        let p = self
            .partitions
            .get_mut(&object)
            .expect("point partition exists");
        match &mut p.data {
            PartitionData::Index(tree) => {
                tree.upsert_batch(pairs);
            }
            PartitionData::Hash(h) => {
                // A transfer arrives in the donor's bucket order, which is
                // this table's too (the seeds only rotate it): growing
                // part-way through would first pile the batch's head onto
                // one stretch of the old array.  Size for all of it first.
                h.reserve(pairs.len());
                h.upsert_batch(pairs);
            }
            PartitionData::Column(_) => panic!("absorb_pairs on a column partition"),
        }
        self.journal(RedoOp::UpsertPairs { object, pairs });
    }

    /// Size a point partition once for the `keys` keys a balancing cycle
    /// is about to move into it, in `sorted` when they are all at hand (a
    /// tree sizes its arenas from the run itself): a hash partition then
    /// holds exactly its keys, with no growth headroom.
    pub fn reserve_transfer(&mut self, object: DataObjectId, keys: usize, sorted: &[(u64, u64)]) {
        match &mut self
            .partitions
            .get_mut(&object)
            .expect("point partition exists")
            .data
        {
            PartitionData::Index(tree) => tree.reserve_sorted(sorted),
            PartitionData::Hash(h) => h.reserve_exact(keys),
            PartitionData::Column(_) => panic!("reserve_transfer on a column partition"),
        }
    }

    /// Keys of a point partition in `[lo, hi)`: what a transfer of that
    /// range moves.
    pub fn count_range(&self, object: DataObjectId, lo: u64, hi: u64) -> usize {
        match &self
            .partitions
            .get(&object)
            .expect("point partition exists")
            .data
        {
            PartitionData::Index(tree) => tree.count_range(lo, hi),
            PartitionData::Hash(h) => h.count_range(lo, hi),
            PartitionData::Column(_) => panic!("count_range on a column partition"),
        }
    }

    /// Remove all keys of `[lo, hi)` and append their pairs to `out`
    /// (balancing shrink side, and its replay); a partition left under
    /// half of what it was sized for is compacted.
    pub fn extract_range(
        &mut self,
        object: DataObjectId,
        lo: u64,
        hi: u64,
        out: &mut Vec<(u64, u64)>,
    ) {
        let p = self
            .partitions
            .get_mut(&object)
            .expect("point partition exists");
        match &mut p.data {
            PartitionData::Index(tree) => tree.extract_range(lo, hi, out),
            PartitionData::Hash(h) => h.extract_range(lo, hi, out),
            PartitionData::Column(_) => panic!("extract_range on a column partition"),
        }
        self.journal(RedoOp::RemoveRange { object, lo, hi });
    }

    /// [`Aeu::extract_range`] on a hash partition in bounded steps
    /// ([`HashTable::extract_chunk`]), so that a transfer streams through
    /// one reused buffer.  Returns the bucket to resume at; the range's
    /// one `RemoveRange` record is journaled when it is gone (`None`).
    pub fn extract_hash_chunk(
        &mut self,
        object: DataObjectId,
        (lo, hi): (u64, u64),
        from: usize,
        out: &mut Vec<(u64, u64)>,
        max: usize,
    ) -> Option<usize> {
        let p = self
            .partitions
            .get_mut(&object)
            .expect("point partition exists");
        let PartitionData::Hash(h) = &mut p.data else {
            panic!("extract_hash_chunk on a partition that is not a hash table")
        };
        let next = h.extract_chunk(lo, hi, from, out, max);
        if next.is_none() {
            self.journal(RedoOp::RemoveRange { object, lo, hi });
        }
        next
    }

    /// Remove the last `n` rows of a column partition.
    pub fn extract_tail_rows(&mut self, object: DataObjectId, n: usize) -> Vec<u64> {
        let p = self
            .partitions
            .get_mut(&object)
            .expect("column partition exists");
        let PartitionData::Column(col) = &mut p.data else {
            panic!("extract_tail_rows on an index partition")
        };
        let rows = col.drain_tail(n);
        self.journal(RedoOp::RemoveTail {
            object,
            n: rows.len() as u64,
        });
        rows
    }

    /// Update the responsibility range after a balancing command.
    pub fn set_range(&mut self, object: DataObjectId, range: (u64, u64)) {
        if let Some(p) = self.partitions.get_mut(&object) {
            p.range = range;
            self.journal(RedoOp::SetRange {
                object,
                lo: range.0,
                hi: range.1,
            });
        }
    }

    /// Model length of a partition: real length × size scale.
    fn model_len(&self, p: &Partition) -> u64 {
        p.data.len() as u64 * self.cfg.size_scale
    }

    /// What one point operation on `p` costs in the model, at its
    /// current size.
    fn point_cost(&self, p: &Partition) -> PointCost {
        PointCost {
            misses: p
                .data
                .point_misses(self.model_len(p), self.cfg.llc_share_bytes),
            cpu_ns: p.data.point_cpu_ns(&self.cfg.params),
        }
    }

    /// One iteration of the AEU loop.
    pub fn step(&mut self) -> WorkSummary {
        self.epoch += 1;
        let mut w = WorkSummary::new(self.node);
        w.cpu_ns += std::mem::take(&mut self.pending_ns);
        // Epoch profiler: host wall time is attributed to phases as the
        // step moves through its stages; whatever the stage timeline and
        // the per-group kernel timings below don't claim is charged as
        // idle at the end, so the per-AEU phase sums always equal the
        // measured wall time.
        let mut phase_ns = [0u64; NUM_PHASES];
        let step_t0 = now_ns();
        let mut mark = step_t0;

        // Stage 0: command generation (the workload's per-AEU traffic).
        if let Some(gen) = &mut self.generator {
            self.scratch_gen.clear();
            gen(self.epoch, &mut self.scratch_gen);
            let gen_cmds: Vec<DataCommand> = self.scratch_gen.drain(..).collect();
            for cmd in gen_cmds {
                self.route_external(CommandRef::Owned(cmd), None, &mut w)
                    .expect("generated command targets a registered object");
            }
            let now = now_ns();
            phase_ns[Phase::Route as usize] += now.saturating_sub(mark);
            mark = now;
        }

        // Stages 1 and 2: swap the incoming buffers, then group and process
        // the commands where they lie in the swapped bytes.
        let incoming = Arc::clone(&self.incoming);
        let swapped = incoming.swap_and_consume(|region| {
            self.process_incoming(region, mark, &mut phase_ns, &mut w);
        });
        if swapped == 0 {
            // Nothing arrived: the swap alone was the intake.
            phase_ns[Phase::ReadAdmit as usize] += now_ns().saturating_sub(mark);
        }

        // Stage 2 epilogue: flush outgoing buffers before starting over.
        mark = now_ns();
        let flushes = self.router.flush_all();
        charge_flushes_to(&mut w, &self.cfg.node_of, &flushes, &self.cfg.params, true);
        phase_ns[Phase::Flush as usize] += now_ns().saturating_sub(mark);

        // Fold the step's operation tallies into the telemetry shard
        // (routing-side counters are maintained by the router itself).
        // ordering: one writer, this AEU's thread.
        let ops = &w.ops;
        let c = &self.tel.counters;
        if ops.lookups > 0 {
            bump(&c.lookups, ops.lookups);
        }
        if ops.upserts > 0 {
            bump(&c.upserts, ops.upserts);
        }
        if ops.scans > 0 {
            bump(&c.scans, ops.scans);
        }
        if ops.scan_rows > 0 {
            bump(&c.scan_rows, ops.scan_rows);
        }
        if ops.forwarded > 0 {
            bump(&c.forwarded, ops.forwarded);
        }
        self.tel.step_ns.record((w.cpu_ns + w.latency_ns) as u64);
        if let Some(s) = &self.sink {
            s.end_of_step(self.id);
        }
        // Close the profiler's books: idle is the wall-time remainder.
        let wall = now_ns().saturating_sub(step_t0);
        let attributed: u64 = phase_ns.iter().sum();
        phase_ns[Phase::Idle as usize] += wall.saturating_sub(attributed);
        for (i, &ns) in phase_ns.iter().enumerate() {
            if ns > 0 {
                self.tel.profiler.add(Phase::ALL[i], ns);
            }
        }
        w
    }

    /// Read the commands of a swapped incoming `region` in place, count
    /// them delivered, group them by (object, op) and process the groups.
    /// Host time from `mark` to the end of the intake is charged to
    /// `ReadAdmit`, each group's execution to its kernel phase.
    fn process_incoming(
        &mut self,
        region: &[u8],
        mark: u64,
        phase_ns: &mut [u64; NUM_PHASES],
        w: &mut WorkSummary,
    ) {
        let mut cmds = std::mem::take(&mut self.scratch_cmds);
        cmds.clear();
        CommandView::decode_all(region, &mut cmds);
        // Telemetry: every delivered command counts as executed for the
        // conservation ledger — including raw-routing discard mode, where
        // delivery is the whole point of the measurement.
        if !cmds.is_empty() {
            // ordering: one writer, this AEU's thread.
            bump(&self.tel.counters.commands_executed, cmds.len() as u64);
            self.tel.swap_batch.record(cmds.len() as u64);
            self.emit(TraceEvent::BufferSwap {
                bytes: region.len() as u64,
                commands: cmds.len() as u32,
            });
            for run in cmds.chunk_by(|a, b| a.object == b.object) {
                self.router
                    .object_ledger(run[0].object)
                    .executed
                    .fetch_add(run.len() as u64, Relaxed);
            }
        }
        if self.discard_incoming {
            // Discarded stamps leave the system here; charge them to the
            // trace ledger so stamped == traced + dropped stays exact.
            let stamped = cmds.iter().filter(|v| v.stamp.is_some()).count() as u64;
            if stamped > 0 {
                self.latency.on_dropped(stamped);
            }
            cmds.clear();
        }
        // Everything since the mark — buffer swap, header reads,
        // conservation tallies, discard — is input intake.
        phase_ns[Phase::ReadAdmit as usize] += now_ns().saturating_sub(mark);
        // Grouping: stable sort by (object, op) so equal groups are
        // adjacent; cheap relative to processing.  Stamps ride along with
        // their command.
        cmds.sort_by_key(|v| (v.object, v.op));
        for group in cmds.chunk_by(|a, b| (a.object, a.op) == (b.object, b.op)) {
            let (object, op) = (group[0].object, group[0].op);
            // ordering: one writer, this AEU's thread.
            bump(&self.tel.counters.exec_batches, 1);
            self.tel.exec_group.record(group.len() as u64);
            if op == StorageOp::Scan && group.len() >= 2 {
                bump(&self.tel.counters.coalesced_scans, 1);
            }
            let group_t0 = now_ns();
            self.traced_pending.clear();
            self.process_group(object, op, group, region, w);
            let exec_ns = now_ns().saturating_sub(group_t0);
            phase_ns[kernel_phase(op) as usize] += exec_ns;
            let mut max_wait = 0u64;
            for stamp in &self.traced_pending {
                let wait = group_t0.saturating_sub(stamp.submit_ns);
                max_wait = max_wait.max(wait);
                self.latency.record(
                    (object.0, op.tag()),
                    LatencyRecord {
                        queue_wait_ns: wait,
                        exec_ns,
                        hops: stamp.hops,
                        net_ns: stamp.net_ns as u64,
                        admit_ns: stamp.admit_ns as u64,
                        trace_id: stamp.trace_id(),
                        tenant: stamp.tenant,
                    },
                );
            }
            self.emit(TraceEvent::BatchExecuted {
                object: object.0,
                op: op.tag(),
                batch: group.len() as u32,
                queue_wait_ns: max_wait,
                exec_ns,
            });
        }
        self.scratch_cmds = cmds;
    }

    /// Process one (object, op) group — the coalesced execution stage —
    /// of commands read in place from `region`.
    // HOT-PATH-ROOT: the AEU's per-group execution dispatch; every
    // command the engine processes flows through here.
    fn process_group(
        &mut self,
        object: DataObjectId,
        op: StorageOp,
        cmds: &[CommandView],
        region: &[u8],
        w: &mut WorkSummary,
    ) {
        let Some(p) = self.partitions.get(&object) else {
            return self.forward_group(object, cmds, region, w);
        };
        let column = matches!(p.data, PartitionData::Column(_));
        match op {
            StorageOp::Lookup => {
                let gather = std::mem::take(&mut self.scratch_keys);
                self.scratch_keys = self.process_points(object, cmds, region, gather, w);
            }
            StorageOp::Upsert if column => self.process_appends(object, cmds, region, w),
            StorageOp::Upsert => {
                let gather = std::mem::take(&mut self.scratch_pairs);
                self.scratch_pairs = self.process_points(object, cmds, region, gather, w);
            }
            StorageOp::Scan => self.process_scans(object, cmds, region, w),
        }
    }

    /// The partition moved away entirely: forward every command of the
    /// group to the AEU now responsible.
    fn forward_group(
        &mut self,
        object: DataObjectId,
        cmds: &[CommandView],
        region: &[u8],
        w: &mut WorkSummary,
    ) {
        for v in cmds {
            w.ops.forwarded += v.op_count();
            self.forward_stray(v.to_command(region), v.stamp, w);
        }
        self.emit(TraceEvent::ForwardedStray {
            object: object.0,
            count: cmds.len() as u32,
        });
    }

    /// Execute one group of point commands on the local index or hash
    /// partition: lookups (`T` = key) or upserts (`T` = pair), their items
    /// read from `region`.  `gathered` is the operation's reused gather
    /// buffer, handed back at the end.
    fn process_points<T: PointItem>(
        &mut self,
        object: DataObjectId,
        cmds: &[CommandView],
        region: &[u8],
        mut gathered: Vec<T>,
        w: &mut WorkSummary,
    ) -> Vec<T>
    where
        [T]: PointRun,
    {
        let Some(p) = self.partitions.get(&object) else {
            return gathered;
        };
        let range = p.range;
        let params = self.cfg.params;
        let mut cost = self.point_cost(p);
        if T::OP == StorageOp::Upsert {
            cost.cpu_ns += params.cpu_ns_per_upsert;
        }
        let mut tally = PointTally::default();
        let mut strays: Vec<(u64, Vec<T>, Option<TraceStamp>)> = Vec::new();
        // Group execution: the items of consecutive all-mine commands are
        // gathered and handed to ONE batched kernel call, so the kernels'
        // prefetched descent sees the group, not 1-key commands one at a
        // time.
        gathered.clear();
        let mut run_from = 0;
        for (i, v) in cmds.iter().enumerate() {
            let items = v.items::<T>(region);
            // Validity check: keys outside the updated range are forwarded
            // to the AEU now responsible (Section 3.3.2).
            let (n, mine) = (items.len() / T::BYTES, count_mine::<T>(items, range));
            // A stamp is recorded where work happens: here if any items
            // are local, otherwise it rides on with the strays.
            let fully_stray = mine == 0 && n > 0;
            if let Some(s) = v.stamp {
                if !fully_stray {
                    // ALLOC-OK: trace bookkeeping for the sampled minority;
                    // the pending vector drains every epoch.
                    self.traced_pending.push(s);
                }
            }
            if mine == n {
                // ALLOC-OK: the reused gather buffer; steady state appends
                // within its capacity.
                gathered.extend(T::decode_items(items));
                continue;
            }
            // A command carrying strays ends the run and executes its own
            // items as a run of one, so that pairs apply in arrival order
            // across the whole group (last write wins).
            let run = cmds.iter().skip(run_from).take(i - run_from);
            let run = run.map(command_extent);
            self.point_run(object, run, &gathered, cost, &mut tally, w);
            gathered.clear();
            run_from = i + 1;
            let stray = split_strays(items, range, &mut gathered);
            let one = std::iter::once((v.ticket, gathered.len()));
            self.point_run(object, one, &gathered, cost, &mut tally, w);
            gathered.clear();
            // ALLOC-OK: strays ride out as owned payloads to their new
            // owner; the vector drains at the end of the group.
            strays.push((v.ticket, stray, if fully_stray { v.stamp } else { None }));
        }
        let run = cmds.iter().skip(run_from).map(command_extent);
        self.point_run(object, run, &gathered, cost, &mut tally, w);
        w.cpu_ns += tally.exec_ns;
        match T::OP {
            StorageOp::Upsert => w.ops.upserts += tally.ops,
            _ => w.ops.lookups += tally.ops,
        }
        if let Some(p) = self.partitions.get_mut(&object) {
            p.accesses += tally.ops;
            p.exec_ns += tally.exec_ns;
        }
        if !strays.is_empty() {
            let stray_items: u64 = strays.iter().map(|(_, s, _)| s.len() as u64).sum();
            self.emit(TraceEvent::ForwardedStray {
                object: object.0,
                count: stray_items as u32,
            });
        }
        for (ticket, items, stamp) in strays {
            w.ops.forwarded += items.len() as u64;
            w.cpu_ns += items.len() as f64 * params.cpu_ns_per_routed_cmd;
            let cmd = DataCommand {
                object,
                ticket,
                payload: T::payload(items),
            };
            self.forward_stray(cmd, stamp, w);
        }
        gathered
    }

    /// Execute `items` — the local items of `commands`, each a `(ticket,
    /// item count)`, concatenated in arrival order — with one batched
    /// kernel call, then settle every command (its slice of the results,
    /// or its redo record) and charge the cost model per command exactly
    /// as if each had been executed alone.
    fn point_run<T, C>(
        &mut self,
        object: DataObjectId,
        commands: C,
        items: &[T],
        cost: PointCost,
        tally: &mut PointTally,
        w: &mut WorkSummary,
    ) where
        T: PointItem,
        [T]: PointRun,
        C: Iterator<Item = (u64, usize)> + Clone,
    {
        if items.is_empty() {
            return;
        }
        let Some(p) = self.partitions.get_mut(&object) else {
            debug_assert!(false, "partition vanished mid-group");
            return;
        };
        if let PartitionData::Hash(_) = p.data {
            // ordering: one writer, this AEU's thread.
            bump(&self.tel.counters.batched_probe_keys, items.len() as u64);
        }
        let values = &mut self.scratch_values;
        items.run_kernel(&mut p.data, values, &self.results, commands.clone());
        tally.ops += items.len() as u64;
        let mut rest = items;
        for (_, n) in commands.filter(|&(_, n)| n > 0) {
            // A run's counts add up to `items.len()`; a shortfall would
            // settle less, never panic.
            let (mine, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            mine.settle_command(self, object, w);
            let n = mine.len() as u64;
            tally.exec_ns += n as f64 * cost.cpu_ns;
            self.charge_point_misses(n, cost, w);
        }
    }

    /// Charge the expected cache misses of `n` point operations: their
    /// (overlapped) latency, and the lines they pull from local memory.
    fn charge_point_misses(&self, n: u64, cost: PointCost, w: &mut WorkSummary) {
        let params = &self.cfg.params;
        w.latency_ns += n as f64 * cost.misses * self.cfg.local_latency_ns / params.mlp;
        let bytes = (n as f64 * cost.misses * params.cache_line as f64) as u64;
        w.add_flow(Flow::new(self.node, self.node, bytes), FlowKind::Overlapped);
    }

    /// Upserts on a column partition are appends: materialize the values
    /// into the local column.
    fn process_appends(
        &mut self,
        object: DataObjectId,
        cmds: &[CommandView],
        region: &[u8],
        w: &mut WorkSummary,
    ) {
        let params = self.cfg.params;
        let mut rows: Vec<u64> = Vec::new();
        for v in cmds {
            // Column appends are always fully local: a stamp completes
            // its journey here.
            // ALLOC-OK: trace bookkeeping for the sampled minority; the
            // pending vector drains every epoch.
            if let Some(s) = v.stamp {
                self.traced_pending.push(s);
            }
            let pairs = <(u64, u64)>::decode_items(v.items::<(u64, u64)>(region));
            // ALLOC-OK: `rows` stages the whole batch for one absorb call
            // into pre-provisioned segments.
            rows.extend(pairs.map(|(_, value)| value));
        }
        let n = rows.len() as u64;
        // process_group found a local column, so the absorb cannot fail; a
        // debug build still screams if that invariant ever rots.
        let absorbed = self.absorb_rows(object, &rows);
        debug_assert!(absorbed.is_ok(), "{absorbed:?}");
        self.results.upsert_batch(n, n);
        let exec_ns = n as f64 * (params.cpu_ns_per_scan_row + params.cpu_ns_per_upsert);
        w.cpu_ns += exec_ns;
        w.ops.upserts += n;
        w.flows
            // ALLOC-OK: one flow record per absorbed batch.
            .push((Flow::new(self.node, self.node, n * 8), FlowKind::Overlapped));
        if let Some(p) = self.partitions.get_mut(&object) {
            p.accesses += n;
            p.exec_ns += exec_ns;
        }
    }

    fn process_scans(
        &mut self,
        object: DataObjectId,
        cmds: &[CommandView],
        region: &[u8],
        w: &mut WorkSummary,
    ) {
        let params = self.cfg.params;
        let scale = self.cfg.size_scale;
        let Some(p) = self.partitions.get_mut(&object) else {
            return;
        };
        match &mut p.data {
            PartitionData::Column(col) => {
                // Scan sharing: all coalesced scan commands in one sweep.
                let mut shared = SharedScan::new();
                for v in cmds {
                    // BOUNDS: dispatch invariant — process_group groups by op, so
                    // every payload in this batch is a Scan; registration into the
                    // shared sweep allocates per command (ALLOC-OK, fused batch).
                    let Payload::Scan {
                        pred,
                        agg,
                        snapshot,
                    } = v.to_command(region).payload
                    else {
                        unreachable!()
                    };
                    shared.add(pred, snapshot.min(col.len() as u64) as usize, agg);
                }
                let (outcomes, examined) = shared.execute(col);
                // The one dispatch feeds the sweep counters by what ran.
                // ordering: one writer, this AEU's thread.
                let sweeps = match simd::level() {
                    SimdLevel::Avx2 => &self.tel.counters.simd_sweeps,
                    SimdLevel::Portable => &self.tel.counters.chunked_sweeps,
                };
                bump(sweeps, 1);
                let examined = examined as u64;
                for (i, (v, r)) in cmds.iter().zip(outcomes).enumerate() {
                    // The sweep is shared: attribute the examined rows once,
                    // not once per coalesced consumer.
                    let rows = if i == 0 { examined * scale } else { 0 };
                    self.results.scan_partial(v.ticket, self.id, r, rows);
                }
                let exec_ns = examined as f64 * scale as f64 * params.cpu_ns_per_scan_row;
                w.cpu_ns += exec_ns;
                w.ops.scans += cmds.len() as u64;
                w.ops.scan_rows += examined * scale;
                // One sweep of bytes regardless of the number of consumers:
                // the scan-sharing win.  Traffic per segment home.
                for seg in col.segments() {
                    let seg_rows = (seg.len() as u64).min(examined);
                    if seg_rows > 0 {
                        // ALLOC-OK: one flow record per scanned batch.
                        w.flows.push((
                            Flow::new(self.node, seg.home(), seg_rows * 8 * scale),
                            FlowKind::Serial,
                        ));
                    }
                }
                p.accesses += cmds.len() as u64;
                p.exec_ns += exec_ns;
            }
            PartitionData::Index(_) | PartitionData::Hash(_) => {
                // Range scan: in order over the index, full-sweep filter
                // over a hash partition (unordered, Section 3.1 trade-off).
                let mut total_rows = 0u64;
                for cmd in cmds {
                    // BOUNDS: dispatch invariant, as the column branch above.
                    let Payload::Scan { pred, agg, .. } = cmd.to_command(region).payload else {
                        unreachable!()
                    };
                    let mut count = 0u64;
                    let mut sum = 0u64;
                    let mut minmax: Option<(u64, u64)> = None;
                    let mut visit = |v: u64| {
                        count += 1;
                        sum = sum.wrapping_add(v);
                        minmax = Some(match minmax {
                            None => (v, v),
                            Some((a, b)) => (a.min(v), b.max(v)),
                        });
                    };
                    // Exact inclusive bounds: `Equals(u64::MAX)` and
                    // unbounded-above ranges reach the top key instead of
                    // losing it to half-open saturation.
                    if let Some((lo, hi)) = pred.bounds_inclusive() {
                        match &p.data {
                            PartitionData::Index(tree) => {
                                tree.scan_range_inclusive(lo, hi, |_, v| visit(v))
                            }
                            PartitionData::Hash(h) => h.for_each(|k, v| {
                                if k >= lo && k <= hi {
                                    visit(v);
                                }
                            }),
                            // BOUNDS: this match runs under Index|Hash only.
                            PartitionData::Column(_) => unreachable!(),
                        }
                    }
                    let r = match agg {
                        eris_column::Aggregate::Count => {
                            eris_column::scan::AggregateResult::Count(count * scale)
                        }
                        eris_column::Aggregate::Sum => eris_column::scan::AggregateResult::Sum(sum),
                        eris_column::Aggregate::MinMax => {
                            eris_column::scan::AggregateResult::MinMax(minmax)
                        }
                    };
                    self.results
                        .scan_partial(cmd.ticket, self.id, r, count * scale);
                    total_rows += count;
                }
                let exec_ns = total_rows as f64 * scale as f64 * params.cpu_ns_per_scan_row;
                w.cpu_ns += exec_ns;
                w.ops.scans += cmds.len() as u64;
                w.ops.scan_rows += total_rows * scale;
                // ALLOC-OK: one flow record per scanned batch.
                w.flows.push((
                    Flow::new(self.node, self.node, total_rows * 16 * scale),
                    FlowKind::Serial,
                ));
                p.accesses += cmds.len() as u64;
                p.exec_ns += exec_ns;
            }
        }
    }

    /// Serialize every partition this AEU owns, in object order:
    /// `(object, range, payload)`.  Payload formats are owned by the
    /// structures themselves (`PrefixTree`/`HashTable`/`Column`
    /// `serialize_into`).
    pub fn serialize_partitions(&self) -> Vec<(DataObjectId, (u64, u64), Vec<u8>)> {
        self.partitions
            .iter()
            .map(|(&object, p)| {
                let mut payload = Vec::new();
                match &p.data {
                    PartitionData::Index(tree) => tree.serialize_into(&mut payload),
                    PartitionData::Hash(h) => h.serialize_into(&mut payload),
                    PartitionData::Column(col) => col.serialize_into(&mut payload),
                }
                (object, p.range, payload)
            })
            .collect()
    }

    /// Refill one (freshly created, empty) partition from a checkpoint
    /// payload and restore its responsibility range.  Returns `false` if
    /// this AEU holds no such partition or the payload is malformed.
    /// Runs before the redo sink is attached, so nothing is re-journaled.
    pub fn restore_partition(
        &mut self,
        object: DataObjectId,
        range: (u64, u64),
        payload: &[u8],
    ) -> bool {
        let node = self.node;
        let Some(p) = self.partitions.get_mut(&object) else {
            return false;
        };
        p.range = range;
        match &mut p.data {
            PartitionData::Index(tree) => tree.restore(payload),
            PartitionData::Hash(h) => h.restore(payload),
            PartitionData::Column(col) => {
                let Some(rows) = Column::decode_values(payload) else {
                    return false;
                };
                Self::fill_column(node, col, &rows);
                true
            }
        }
    }

    /// True when the outgoing buffers are fully drained.
    pub fn is_drained(&self) -> bool {
        self.router.is_drained() && self.incoming.pending_bytes() == 0
    }

    /// True when a step could do anything but poll: buffered commands in
    /// either direction, or a generator that makes new ones.
    pub fn has_work(&self) -> bool {
        self.generator.is_some() || !self.is_drained()
    }
}

/// The profiler phase a coalesced `(object, op)` group's execution wall
/// time is charged to: scans hit the chunked scan kernels, lookups the
/// hash/index probe kernels, upserts the write path.
fn kernel_phase(op: StorageOp) -> Phase {
    match op {
        StorageOp::Scan => Phase::ScanKernel,
        StorageOp::Lookup => Phase::Probe,
        StorageOp::Upsert => Phase::Write,
    }
}

/// Base latency of one incoming-buffer reservation (CAS round trip).
const FLUSH_BASE_LATENCY_NS: f64 = 250.0;

/// Charge flush traffic: one reservation (CAS) round trip per flush, plus
/// the copied bytes as a flow homed at the target's node.
///
/// Threshold flushes (`overlapped = false`) hammer the *same* remote
/// descriptor line back to back, so each CAS pays the full round trip —
/// the small-buffer penalty of Figure 5.  Loop-end flushes
/// (`overlapped = true`) go to distinct targets and overlap like posted
/// stores, divided by twice the load MLP.  Pre-buffering amortizes both
/// over whole buffers.
fn charge_flushes_to(
    w: &mut WorkSummary,
    node_of: &[NodeId],
    flushes: &[FlushInfo],
    params: &CostParams,
    overlapped: bool,
) {
    let per_flush = if overlapped {
        FLUSH_BASE_LATENCY_NS / (2.0 * params.mlp)
    } else {
        FLUSH_BASE_LATENCY_NS
    };
    for f in flushes {
        w.latency_ns += params.flush_latency_factor * per_flush;
        // Pushed, not merged: scan routing flushes here too, and the scan
        // path's allocation pattern is what keeps glibc from trimming the
        // heap between `engine-scan`'s repeated builds.
        // ALLOC-OK: flow records drain into the epoch's work summary.
        // BOUNDS: FlushInfo targets come from the router, which only
        // issues AEU ids it owns — always within node_of.
        w.flows.push((
            Flow::new(w.node, node_of[f.target.index()], f.bytes),
            FlowKind::Overlapped,
        ));
    }
}
