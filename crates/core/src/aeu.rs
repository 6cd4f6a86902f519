//! Autonomous Execution Units.
//!
//! Section 3.1: an AEU is pinned to one core, owns one partition per data
//! object, and loops over three stages: **group** the incoming data command
//! buffer by (data object, command type), **process** the groups (shared
//! scans, batched lookups/upserts), and **handle balancing/transfer
//! commands**.  All data structure accesses are latch-free because the AEU
//! is the only writer of its partitions.

use crate::command::{
    encode_point_header, encode_trace_marker, AeuId, CommandRef, CommandView, DataCommand,
    DataObjectId, PointItem, StorageOp,
};
use crate::cost::{ObjectCounts, Routing, Shape, StepCounts};
use crate::durability::{RedoOp, RedoSink};
use crate::results::ResultCollector;
use crate::routing::{IncomingBuffers, Router, RoutingError};
use crate::telemetry::{bump, TelemetryShard};
use eris_column::{simd, Column, Segment, SharedScan, SimdLevel, DEFAULT_SEGMENT_CAPACITY};
use eris_index::{HashTable, PrefixTree, PrefixTreeConfig};
use eris_numa::{CoreId, NodeId};
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
/// strays to `strays`, after the sub-command header the caller wrote
/// there.  Mid-migration only — a command straddling a moved boundary.
fn split_strays<T: PointItem>(
    items: &[u8],
    (lo, hi): (u64, u64),
    mine: &mut Vec<T>,
    strays: &mut Vec<u8>,
) {
    for item in T::decode_items(items) {
        if range_contains(lo, hi, item.key()) {
            // ALLOC-OK: `mine` is the reused gather buffer.
            mine.push(item);
        } else {
            item.put(strays);
        }
    }
}

/// The `(ticket, point operations)` of a command inside a group run.
fn command_extent(v: &CommandView) -> (u64, usize) {
    (v.ticket, v.op_count() as usize)
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
    fn settle_command(&self, aeu: &mut Aeu, object: DataObjectId);
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
    fn settle_command(&self, aeu: &mut Aeu, _: DataObjectId) {
        aeu.reply_rr = (aeu.reply_rr + 1) % aeu.cfg.node_of.len();
        // BOUNDS: reply_rr was just reduced modulo node_of.len(), and the
        // counts hold a slot for every node of the machine.
        let reply_node = aeu.cfg.node_of[aeu.reply_rr].index();
        aeu.counts.nodes[reply_node].reply_keys += self.len() as u64;
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
    fn settle_command(&self, aeu: &mut Aeu, object: DataObjectId) {
        aeu.journal(RedoOp::UpsertPairs {
            object,
            pairs: self,
        });
    }
}

/// Why [`Aeu::absorb_rows`] refused a batch, or a column operation its
/// partition.
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

/// Per-AEU configuration resolved by the engine.
pub struct AeuConfig {
    /// Virtual keys per real key: experiments model paper-scale data with a
    /// real subsample; lengths entering the cost model are scaled by this.
    pub size_scale: u64,
    /// AEU index → home node, for flush traffic accounting.
    pub node_of: Arc<Vec<NodeId>>,
    /// Nodes of the machine, for the per-node traffic counts.
    pub nodes: usize,
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
    /// Commands submitted through this AEU since its last step.
    submitted: Routing,
    /// What the current (or last) step did, for the cost model.
    counts: StepCounts,
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
        let counts = StepCounts::new(node, cfg.nodes);
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
            submitted: Routing::default(),
            counts,
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

    /// Forward a stray command as its encoding, preserving an attached
    /// trace stamp with its hop count bumped (the stamp's journey
    /// continues at the new owner).  No fresh sampling happens on this
    /// path.
    // HOT-PATH-CUT: rebalancing slow path — a command that landed on
    // the wrong AEU mid-migration is re-routed; rare by construction.
    fn forward_stray(&mut self, cmd: CommandRef<'_>, stamp: Option<TraceStamp>) {
        let stamp = stamp.map(|s| TraceStamp {
            hops: s.hops + 1,
            ..s
        });
        let fl = self
            .router
            .route_forwarded(&cmd, stamp)
            .expect("internally produced command targets a registered object");
        self.counts.routed.flushes += fl.len() as u64;
        self.counts.add_flushes(&fl, &self.cfg.node_of);
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
    pub(crate) fn journal(&self, op: RedoOp<'_>) {
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
        self.counts.add_object(object, Shape::Tree(cfg));
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
        self.counts.add_object(object, Shape::Hash);
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
        self.counts.add_object(object, Shape::Column);
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

    /// Route one checked command through this AEU's routing front end —
    /// a served one ([`crate::Engine::submit_view`]) — counting it, with
    /// its sub-commands (the batch target lookup + encode of the first
    /// routing step) and threshold flushes, towards this AEU's next step.  A `stamp`
    /// born at the serving layer's frame decode rides along (full-path
    /// tracing: `(tenant, conn, seq)` and the net-queue/admission spans);
    /// without one the router's sampler decides.  Returns the number of
    /// sub-commands enqueued.
    // HOT-PATH-ROOT: routing step 1 for every served command:
    // partition-table split, outgoing buffers, threshold flushes.
    pub fn route_external(
        &mut self,
        cmd: CommandRef<'_>,
        stamp: Option<TraceStamp>,
    ) -> Result<u64, RoutingError> {
        let (flushes, emitted) = self.router.route_counted(&cmd, stamp)?;
        Ok(self
            .submitted
            .add_command(cmd.op_count(), emitted, flushes.len()))
    }

    /// Route an owned command [`crate::Engine::submit`] takes, as
    /// [`Aeu::route_external`] routes a checked one, encoding it once.
    // HOT-PATH-ROOT: routing step 1 for every submitted command.
    pub(crate) fn route_command(&mut self, cmd: &DataCommand) -> Result<u64, RoutingError> {
        let (flushes, emitted) = self.router.route_command(cmd)?;
        let keys = cmd.payload.op_count();
        Ok(self.submitted.add_command(keys, emitted, flushes.len()))
    }

    /// A fresh segment homed on `node`, for a column partition.
    // HOT-PATH-CUT: amortized segment provisioning — runs once per
    // DEFAULT_SEGMENT_CAPACITY appended rows, never per command.
    pub(crate) fn provision_segment(node: NodeId) -> Segment {
        Segment::with_capacity(node, DEFAULT_SEGMENT_CAPACITY)
    }

    /// The column of a column partition, for appends that provision
    /// their segments with [`Aeu::provision_segment`] on this AEU's node.
    ///
    /// Total over its inputs: callers that hand it an unknown object or
    /// an index partition get a typed error instead of a panicked AEU.
    pub(crate) fn column_mut(&mut self, object: DataObjectId) -> Result<&mut Column, AbsorbError> {
        let Some(p) = self.partitions.get_mut(&object) else {
            return Err(AbsorbError::UnknownPartition(object));
        };
        let PartitionData::Column(col) = &mut p.data else {
            return Err(AbsorbError::NotAColumn(object));
        };
        Ok(col)
    }

    /// Append rows to a column partition (redo-log replay), provisioning
    /// segments on demand.  Journals nothing: rows are journaled where
    /// they enter the engine.
    pub fn absorb_rows(&mut self, object: DataObjectId, rows: &[u64]) -> Result<(), AbsorbError> {
        let node = self.node;
        let col = self.column_mut(object)?;
        col.append(rows.iter().copied(), || Self::provision_segment(node));
        Ok(())
    }

    /// Journal the last `appended` rows of a column partition where they
    /// lie, one `AppendRows` record per segment run.
    pub(crate) fn journal_rows(&self, object: DataObjectId, appended: usize) {
        let (Some(sink), Some(p)) = (&self.sink, self.partitions.get(&object)) else {
            return;
        };
        if let PartitionData::Column(col) = &p.data {
            for rows in col.runs_from(col.len() - appended) {
                sink.append(self.id, RedoOp::AppendRows { object, rows });
            }
        }
    }

    /// Insert pairs into an index or hash partition (redo-log replay, and
    /// the steps of a load, a transfer or a checkpoint restore, a hash
    /// partition after [`Aeu::reserve_transfer`]).  A hash partition grows
    /// geometrically, as inserts grow it.
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
                // one stretch of the old array.  Size for its fresh keys
                // first; replay's overwrites of a restored table take none.
                h.reserve_for(pairs);
                h.upsert_batch(pairs);
            }
            PartitionData::Column(_) => panic!("absorb_pairs on a column partition"),
        }
        self.journal(RedoOp::UpsertPairs { object, pairs });
    }

    /// Size a hash partition once for the `keys` keys a balancing cycle,
    /// a checkpoint restore or a load is about to move into it: it then
    /// holds exactly its keys, with no growth headroom.  A tree's arenas grow by
    /// equal chunks and need no sizing.
    pub fn reserve_transfer(&mut self, object: DataObjectId, keys: usize) {
        let p = self
            .partitions
            .get_mut(&object)
            .expect("point partition exists");
        if let PartitionData::Hash(h) = &mut p.data {
            h.reserve_exact(keys);
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

    /// Remove the keys of `[lo, hi)` in bounded steps
    /// ([`HashTable::extract_chunk`], [`PrefixTree::extract_chunk`]),
    /// appending their pairs to `out` (the balancing donor side), so that
    /// a transfer streams through one reused buffer.  `from` is where the
    /// previous step stopped, 0 for the first — a bucket of a hash table,
    /// a key of a tree — and the result is where the next one starts,
    /// `None` once the range is gone; a partition whose slack is then due
    /// is compacted.  Nothing is journaled: the cycle's `Bounds` record
    /// drops the donor's copies at recovery.
    pub fn extract_chunk(
        &mut self,
        object: DataObjectId,
        (lo, hi): (u64, u64),
        from: u64,
        out: &mut Vec<(u64, u64)>,
        max: usize,
    ) -> Option<u64> {
        let p = self
            .partitions
            .get_mut(&object)
            .expect("point partition exists");
        match &mut p.data {
            PartitionData::Index(tree) => tree.extract_chunk(lo, hi, from, out, max),
            PartitionData::Hash(h) => h
                .extract_chunk(lo, hi, from as usize, out, max)
                .map(|bucket| bucket as u64),
            PartitionData::Column(_) => panic!("extract_chunk on a column partition"),
        }
    }

    /// Update the responsibility range after a balancing command.
    pub fn set_range(&mut self, object: DataObjectId, range: (u64, u64)) {
        if let Some(p) = self.partitions.get_mut(&object) {
            p.range = range;
        }
    }

    /// Model length of a partition: real length × size scale.
    fn model_len(&self, p: &Partition) -> u64 {
        p.data.len() as u64 * self.cfg.size_scale
    }

    /// One iteration of the AEU loop; what it did is in [`Aeu::counts`]
    /// until the next one.
    pub fn step(&mut self) {
        self.epoch += 1;
        let submitted = std::mem::take(&mut self.submitted);
        self.counts
            .begin_step(std::mem::take(&mut self.pending_ns), submitted);
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
            let mut cmds = std::mem::take(&mut self.scratch_gen);
            gen(self.epoch, &mut cmds);
            for cmd in &cmds {
                let (flushes, emitted) = self
                    .router
                    .route_command(cmd)
                    .expect("a generated command is routable");
                let keys = cmd.payload.op_count();
                self.counts.routed.add_command(keys, emitted, flushes.len());
                self.counts.add_flushes(&flushes, &self.cfg.node_of);
            }
            cmds.clear();
            self.scratch_gen = cmds;
            let now = now_ns();
            phase_ns[Phase::Route as usize] += now.saturating_sub(mark);
            mark = now;
        }

        // Stages 1 and 2: swap the incoming buffers, then group and process
        // the commands where they lie in the swapped bytes.
        let incoming = Arc::clone(&self.incoming);
        let swapped = incoming.swap_and_consume(|region| {
            self.process_incoming(region, mark, &mut phase_ns);
        });
        if swapped == 0 {
            // Nothing arrived: the swap alone was the intake.
            phase_ns[Phase::ReadAdmit as usize] += now_ns().saturating_sub(mark);
        }

        // Stage 2 epilogue: flush outgoing buffers before starting over,
        // and count these flushes with the ones the engine's delivery
        // pass made for this AEU before it stepped.
        mark = now_ns();
        let flushes = self.router.flush_all();
        self.counts.loop_end_flushes += flushes.len() as u64;
        self.counts.add_flushes(flushes, &self.cfg.node_of);
        flushes.clear();
        phase_ns[Phase::Flush as usize] += now_ns().saturating_sub(mark);

        // Fold the step's operation tallies into the telemetry shard
        // (routing-side counters are maintained by the router itself).
        // ordering: one writer, this AEU's thread.
        let ops = self.counts.ops();
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
    }

    /// What the last step did.
    pub fn counts(&self) -> &StepCounts {
        &self.counts
    }

    /// Book the last step as the cost model priced it: its virtual time
    /// into the step histogram, and each partition's execution time, as
    /// `exec_ns` prices its counts, into the monitor's window.
    pub(crate) fn book_step(&mut self, step_ns: f64, exec_ns: impl Fn(&ObjectCounts) -> f64) {
        self.tel.step_ns.record(step_ns as u64);
        for (object, p) in self.partitions.iter_mut() {
            p.exec_ns += exec_ns(self.counts.counts_of(*object));
        }
    }

    /// Deliver what was routed through this AEU since its last step —
    /// commands [`crate::Engine::submit`] buffered between epochs — into
    /// the targets' incoming buffers, so every AEU executes them in the
    /// coming epoch.  The flushes are charged in this AEU's next step
    /// epilogue, with its own.
    pub(crate) fn deliver(&mut self) {
        self.router.flush_all();
    }

    /// Read the commands of a swapped incoming `region` in place, count
    /// them delivered, group them by (object, op) and process the groups.
    /// Host time from `mark` to the end of the intake is charged to
    /// `ReadAdmit`, each group's execution to its kernel phase.
    fn process_incoming(&mut self, region: &[u8], mark: u64, phase_ns: &mut [u64; NUM_PHASES]) {
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
            self.process_group(object, op, group, region);
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
    ) {
        let Some(p) = self.partitions.get(&object) else {
            return self.forward_group(object, cmds, region);
        };
        let column = matches!(p.data, PartitionData::Column(_));
        match op {
            StorageOp::Lookup => {
                let gather = std::mem::take(&mut self.scratch_keys);
                self.scratch_keys = self.process_points(object, cmds, region, gather);
            }
            StorageOp::Upsert if column => self.process_appends(object, cmds, region),
            StorageOp::Upsert => {
                let gather = std::mem::take(&mut self.scratch_pairs);
                self.scratch_pairs = self.process_points(object, cmds, region, gather);
            }
            StorageOp::Scan => self.process_scans(object, cmds, region),
        }
    }

    /// The partition moved away entirely: forward every command of the
    /// group to the AEU now responsible.
    fn forward_group(&mut self, object: DataObjectId, cmds: &[CommandView], region: &[u8]) {
        for v in cmds {
            self.counts.forwarded += v.op_count();
            self.forward_stray(v.command_in(region), v.stamp);
        }
        self.emit(TraceEvent::ForwardedStray {
            object: object.0,
            count: cmds.len() as u32,
        });
    }

    /// Forward the sub-commands of a point group's strays, encoded back to
    /// back in `strays` (each behind its trace marker when it carries the
    /// command's stamp).
    // HOT-PATH-CUT: rebalancing slow path, as `forward_stray`.
    fn forward_strays(&mut self, object: DataObjectId, strays: &[u8]) {
        let mut views = Vec::new();
        CommandView::decode_all(strays, &mut views);
        let items: u64 = views.iter().map(CommandView::op_count).sum();
        self.emit(TraceEvent::ForwardedStray {
            object: object.0,
            count: items as u32,
        });
        for v in views {
            self.counts.forwarded += v.op_count();
            self.forward_stray(v.command_in(strays), v.stamp);
        }
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
    ) -> Vec<T>
    where
        [T]: PointRun,
    {
        let Some(p) = self.partitions.get(&object) else {
            return gathered;
        };
        let range = p.range;
        // The miss model prices the group at the partition's length now.
        let model_len = self.model_len(p);
        self.counts.counts_of(object).points(T::OP).model_len = model_len;
        // The strays' sub-commands, encoded back to back.
        let mut strays: Vec<u8> = Vec::new();
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
            self.point_run(object, run, &gathered);
            gathered.clear();
            run_from = i + 1;
            // The strays ride out as one sub-command to their new owner.
            if let Some(s) = v.stamp.filter(|_| fully_stray) {
                encode_trace_marker(object, s, &mut strays);
            }
            encode_point_header::<T>(object, v.ticket, n - mine, &mut strays);
            split_strays(items, range, &mut gathered, &mut strays);
            let one = std::iter::once((v.ticket, gathered.len()));
            self.point_run(object, one, &gathered);
            gathered.clear();
        }
        let run = cmds.iter().skip(run_from).map(command_extent);
        self.point_run(object, run, &gathered);
        let ops = self.counts.counts_of(object).points(T::OP).ops;
        if let Some(p) = self.partitions.get_mut(&object) {
            p.accesses += ops;
        }
        if !strays.is_empty() {
            self.forward_strays(object, &strays);
        }
        gathered
    }

    /// Execute `items` — the local items of `commands`, each a `(ticket,
    /// item count)`, concatenated in arrival order — with one batched
    /// kernel call, then settle every command (its slice of the results,
    /// or its redo record) and count it as if it had been executed alone.
    fn point_run<T, C>(&mut self, object: DataObjectId, commands: C, items: &[T])
    where
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
        let mut rest = items;
        for (_, n) in commands.filter(|&(_, n)| n > 0) {
            // A run's counts add up to `items.len()`; a shortfall would
            // settle less, never panic.
            let (mine, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            mine.settle_command(self, object);
            let group = self.counts.counts_of(object).points(T::OP);
            group.commands += 1;
            group.ops += mine.len() as u64;
        }
    }

    /// Upserts on a column partition are appends: each command's values
    /// go straight into the local column's segments, and the new rows are
    /// journaled from there.
    fn process_appends(&mut self, object: DataObjectId, cmds: &[CommandView], region: &[u8]) {
        let node = self.node;
        // process_group found a local column, so this cannot fail; a debug
        // build still screams if that invariant ever rots.
        let Some(Partition {
            data: PartitionData::Column(col),
            ..
        }) = self.partitions.get_mut(&object)
        else {
            debug_assert!(false, "appends on a partition that is not a column");
            return;
        };
        let start = col.len();
        for v in cmds {
            // Column appends are always fully local: a stamp completes
            // its journey here.
            // ALLOC-OK: trace bookkeeping for the sampled minority; the
            // pending vector drains every epoch.
            if let Some(s) = v.stamp {
                self.traced_pending.push(s);
            }
            let pairs = <(u64, u64)>::decode_items(v.items::<(u64, u64)>(region));
            col.append(pairs.map(|(_, value)| value), || {
                Self::provision_segment(node)
            });
        }
        let rows = col.len() - start;
        self.journal_rows(object, rows);
        let n = rows as u64;
        self.results.upsert_batch(n, n);
        let appends = &mut self.counts.counts_of(object).upserts;
        appends.commands += cmds.len() as u64;
        appends.ops += n;
        if let Some(p) = self.partitions.get_mut(&object) {
            p.accesses += n;
        }
    }

    fn process_scans(&mut self, object: DataObjectId, cmds: &[CommandView], region: &[u8]) {
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
                    // every command in this batch is a scan, which the intake
                    // read whole; registration into the shared sweep allocates
                    // per command (ALLOC-OK, fused batch).
                    let Ok((pred, agg, snapshot)) = v.command_in(region).scan_params() else {
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
                let counts = self.counts.counts_of(object);
                counts.scans += cmds.len() as u64;
                counts.scan_rows += examined * scale;
                // One sweep of bytes regardless of the number of consumers:
                // the scan-sharing win.  Traffic per segment home.
                let mut left = examined;
                for seg in col.segments() {
                    let seg_rows = (seg.len() as u64).min(left);
                    left -= seg_rows;
                    // BOUNDS: segments are homed on nodes of the machine,
                    // which the counts hold a slot for each of.
                    self.counts.nodes[seg.home().index()].scan_rows += seg_rows * scale;
                }
                p.accesses += cmds.len() as u64;
            }
            PartitionData::Index(_) | PartitionData::Hash(_) => {
                // Range scan: in order over the index, full-sweep filter
                // over a hash partition (unordered, Section 3.1 trade-off).
                let mut total_rows = 0u64;
                for cmd in cmds {
                    // BOUNDS: dispatch invariant, as the column branch above.
                    let Ok((pred, agg, _)) = cmd.command_in(region).scan_params() else {
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
                let counts = self.counts.counts_of(object);
                counts.scans += cmds.len() as u64;
                counts.scan_rows += total_rows * scale;
                p.accesses += cmds.len() as u64;
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
