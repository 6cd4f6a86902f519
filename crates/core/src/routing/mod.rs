//! The NUMA-optimized high-throughput data command routing layer.
//!
//! Routing of a command happens in three steps (Figure 4 of the paper):
//!
//! 1. **Batch target lookup** in the object's partition table (a CSB+-tree
//!    for range-partitioned objects, a bitmap for size-partitioned ones);
//!    commands whose data segments span partitions are split.
//! 2. **Local pre-buffering**: per-target unicast buffers, a multicast
//!    buffer plus per-target reference buffers — all in the source AEU's
//!    local memory.
//! 3. **Flush**: when a buffer fills or the AEU loop starts over, the whole
//!    buffer is copied with one reservation into the target's latch-free
//!    incoming double buffer.

pub mod incoming;
pub mod outgoing;
pub mod partition_table;

pub use incoming::{BufferFull, IncomingBuffers, IncomingStats};
pub use outgoing::{FlushInfo, OutgoingBuffers};
pub use partition_table::{BitmapTable, OwnerSplit, PartitionTable, RangeTable};
use partition_table::{OutOfDomain, Owners};

use crate::command::{
    AeuId, CommandRef, DataCommand, DataObjectId, PointItem, StorageOp, HEADER_BYTES,
    TRACE_MARKER_BYTES,
};
use crate::telemetry::{bump, raise, CounterSnapshot, ObjectCounters, Telemetry, TelemetryShard};
use eris_column::Predicate;
use eris_numa::NodeId;
use eris_obs::{now_ns, LatencyTable, TraceStamp};
use parking_lot::RwLock;
// ordering: Relaxed is this module's default — every counter here is
// monotonic routing telemetry, and delivery synchronization lives in the
// incoming-buffer descriptor protocol.  The table epoch alone is
// Release/Acquire (`table-epoch` below).
use std::sync::atomic::{AtomicU64, Ordering, Ordering::Relaxed};
use std::sync::Arc;

/// A command the routing layer cannot deliver.  Surfaced through
/// `Engine::submit` so callers see a typed error instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingError {
    /// The command names an object id that was never registered.
    UnknownObject(DataObjectId),
    /// Point lookups need a range-partitioned object; this object is
    /// size-partitioned (a column), where keys carry no placement.
    PointOpOnSizePartitioned(DataObjectId),
    /// A point command names a key at or past the end of the object's
    /// key domain `[0, domain)`: no partition is responsible for it.
    KeyOutOfDomain {
        object: DataObjectId,
        key: u64,
        domain: u64,
    },
    /// A point command's sub-command for one owner is larger than an
    /// incoming buffer takes with a trace marker ahead of it
    /// (`RoutingConfig::incoming_capacity` less `TRACE_MARKER_BYTES`), so
    /// no flush could ever deliver it.  The serving layer answers it, like
    /// every submit error, with `Rejected`; its 64 KiB frame payload cap
    /// (`MAX_PAYLOAD_BYTES`) keeps its commands under the default 1 MiB.
    CommandTooLarge {
        object: DataObjectId,
        target: AeuId,
        bytes: usize,
        capacity: usize,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::UnknownObject(id) => {
                write!(f, "data object {} is not registered", id.0)
            }
            RoutingError::PointOpOnSizePartitioned(id) => {
                write!(
                    f,
                    "point lookups need a range-partitioned object, but object {} is size-partitioned",
                    id.0
                )
            }
            RoutingError::KeyOutOfDomain {
                object,
                key,
                domain,
            } => {
                write!(
                    f,
                    "key {key} is outside the domain [0, {domain}) of object {}",
                    object.0
                )
            }
            RoutingError::CommandTooLarge {
                object,
                target,
                bytes,
                capacity,
            } => write!(
                f,
                "a {bytes}-byte command of object {} for AEU {} exceeds its {capacity}-byte incoming buffer",
                object.0, target.0
            ),
        }
    }
}

impl std::error::Error for RoutingError {}

/// Sizing of the routing buffers and trace sampling.
#[derive(Debug, Clone, Copy)]
pub struct RoutingConfig {
    /// Flush threshold per outgoing target buffer, in bytes.
    pub outgoing_capacity: usize,
    /// Capacity of each of the two incoming buffers, in bytes.
    pub incoming_capacity: usize,
    /// Stamp every N-th routed command with an end-to-end trace marker
    /// (0 disables sampling entirely).
    pub trace_sample_every: u64,
    /// Capacity of each AEU's trace-event ring (rounded up to a power
    /// of two).
    pub trace_ring_capacity: usize,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        // 128 single-key lookup commands (~29 bytes each) is the paper's
        // sweet spot for processing-bound routing (Figure 5).
        RoutingConfig {
            outgoing_capacity: 128 * 29,
            incoming_capacity: 1 << 20,
            trace_sample_every: 64,
            trace_ring_capacity: 1024,
        }
    }
}

/// The partition tables, one slot per data object id.
type Tables = Vec<Option<Arc<PartitionTable>>>;

/// Shared routing state: the partition tables and every AEU's incoming
/// buffers.  Tables are read on every routed command and written only
/// during load balancing, mirroring the paper's "rarely updated, frequently
/// read" design: each router routes by its own handle on the table list
/// and takes a new one only when the epoch says a table changed.
pub struct RoutingShared {
    /// The current table list.  A registration or a change replaces the
    /// list and the changed table (clone on write), so the list a router
    /// holds never changes under it.
    tables: RwLock<Arc<Tables>>,
    /// Bumped under the write guard after every registration or table
    /// change.
    epoch: AtomicU64,
    incoming: Vec<Arc<IncomingBuffers>>,
    telemetry: Telemetry,
}

impl RoutingShared {
    pub fn new(num_aeus: usize, cfg: RoutingConfig) -> Self {
        RoutingShared {
            tables: RwLock::new(Arc::default()),
            epoch: AtomicU64::new(0),
            incoming: (0..num_aeus)
                .map(|_| Arc::new(IncomingBuffers::new(cfg.incoming_capacity)))
                .collect(),
            telemetry: Telemetry::with_ring_capacity(num_aeus, cfg.trace_ring_capacity),
        }
    }

    /// Register a data object's partition table; its id indexes the slot.
    pub fn register_object(&self, id: DataObjectId, table: PartitionTable) {
        let mut guard = self.tables.write();
        let tables = Arc::make_mut(&mut guard);
        if tables.len() <= id.0 as usize {
            tables.resize_with(id.0 as usize + 1, || None);
        }
        assert!(
            tables[id.0 as usize].is_none(),
            "object {id:?} already registered"
        );
        tables[id.0 as usize] = Some(Arc::new(table));
        // ordering: Release, under the write guard: a router that sees the
        // bump re-reads its handles; pairs-with: table-epoch.
        self.epoch.fetch_add(1, Ordering::Release);
        // Pre-create the object's conservation ledger.
        let _ = self.telemetry.object(id);
    }

    /// Read access to an object's partition table.
    pub fn with_table<R>(
        &self,
        id: DataObjectId,
        f: impl FnOnce(&PartitionTable) -> R,
    ) -> Result<R, RoutingError> {
        let tables = self.tables.read();
        match tables.get(id.0 as usize).and_then(|t| t.as_ref()) {
            Some(t) => Ok(f(t)),
            None => Err(RoutingError::UnknownObject(id)),
        }
    }

    /// Write access (load balancer only).  The change is made to a copy
    /// of the table (and of the list) while routers hold the old ones, and
    /// every router routes its next command by the changed table.
    pub fn with_table_mut<R>(
        &self,
        id: DataObjectId,
        f: impl FnOnce(&mut PartitionTable) -> R,
    ) -> Result<R, RoutingError> {
        let mut guard = self.tables.write();
        if !matches!(guard.get(id.0 as usize), Some(Some(_))) {
            return Err(RoutingError::UnknownObject(id));
        }
        let slot = Arc::make_mut(&mut guard).get_mut(id.0 as usize);
        let Some(Some(t)) = slot else {
            return Err(RoutingError::UnknownObject(id));
        };
        let r = f(Arc::make_mut(t));
        // ordering: Release, under the write guard, after the change;
        // pairs-with: table-epoch.
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(r)
    }

    /// The current table list and the epoch it belongs to.
    fn table_list(&self) -> (Arc<Tables>, u64) {
        let tables = self.tables.read();
        // ordering: writers bump the epoch under the write guard, so under
        // the read guard it is the list's own.
        (Arc::clone(&tables), self.epoch.load(Relaxed))
    }

    /// The incoming buffers of one AEU.
    pub fn incoming(&self, aeu: AeuId) -> &Arc<IncomingBuffers> {
        // BOUNDS: AeuId is constructed by the router/engine from the
        // configured AEU count, which sized this vector.
        &self.incoming[aeu.index()]
    }

    /// Number of AEUs.
    pub fn num_aeus(&self) -> usize {
        self.incoming.len()
    }

    /// The engine-wide telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Patch one AEU's incoming-buffer counters into its shard snapshot
    /// (the incoming side is owned by `IncomingBuffers`, not the shard).
    fn fill_incoming(&self, aeu: usize, c: &mut CounterSnapshot) {
        let s = self.incoming[aeu].stats();
        c.incoming_writes = s.writes;
        c.incoming_rejects = s.rejects;
        c.buffer_swaps = s.swaps;
        c.swapped_bytes = s.swapped_bytes;
        c.peak_incoming_bytes = c.peak_incoming_bytes.max(s.peak_pending_bytes);
    }

    /// Engine-wide counter totals (cheap; used for per-epoch deltas).
    pub fn telemetry_totals(&self) -> CounterSnapshot {
        self.telemetry.totals_with(|i, c| self.fill_incoming(i, c))
    }

    /// A full [`crate::telemetry::TelemetrySnapshot`]: per-AEU counters
    /// with the incoming-buffer side patched in, rolled up per node via
    /// `node_of`, plus the per-object conservation ledger and histograms.
    pub fn telemetry_snapshot(&self, node_of: &[NodeId]) -> crate::telemetry::TelemetrySnapshot {
        self.telemetry
            .snapshot_with(node_of, |i, c| self.fill_incoming(i, c))
    }
}

/// The per-AEU routing front end.
pub struct Router {
    src: AeuId,
    shared: Arc<RoutingShared>,
    out: OutgoingBuffers,
    /// This router's handle on the table list, as of `tables_epoch`.
    tables: Arc<Tables>,
    tables_epoch: u64,
    /// Routing step 1's scratch: the owners of the point command being
    /// routed.
    owners: Owners,
    /// Targets whose outgoing buffer crossed the flush threshold during
    /// the command being routed.
    full: Vec<AeuId>,
    /// The reused buffer an owned command is encoded into once, to be
    /// routed as its bytes ([`Router::route_command`]).
    encoded: Vec<u8>,
    /// The flush report: one record per end-of-loop flush not yet
    /// charged by the owning AEU (see [`Router::flush_all`]).
    flushed: Vec<FlushInfo>,
    /// Round-robin cursor for appends to bitmap-partitioned objects.
    rr_cursor: usize,
    /// This AEU's telemetry shard (routing-side counters).
    tel: Arc<TelemetryShard>,
    /// Per-object conservation ledgers, cached to keep the hot path off
    /// the registry lock.
    tel_objects: Vec<Option<Arc<ObjectCounters>>>,
    /// Stamp every N-th routed command (0 disables).
    trace_sample_every: u64,
    /// Commands seen by the sampler so far.
    trace_counter: u64,
    /// The engine-wide latency table (stamp accounting).
    latency: Arc<LatencyTable>,
}

impl Router {
    pub fn new(src: AeuId, shared: Arc<RoutingShared>, cfg: RoutingConfig) -> Self {
        let n = shared.num_aeus();
        let (tables, tables_epoch) = shared.table_list();
        let tel = Arc::clone(shared.telemetry().shard(src));
        let latency = Arc::clone(shared.telemetry().latency());
        Router {
            src,
            shared,
            out: OutgoingBuffers::new(n, cfg.outgoing_capacity),
            tables,
            tables_epoch,
            owners: Owners::default(),
            full: Vec::new(),
            // Sized here, like the report below: a per-router buffer first
            // allocated while routing moves glibc's heap top.
            encoded: Vec::with_capacity(cfg.outgoing_capacity),
            // Room for the two rounds a step charges together (delivery
            // pass, epilogue), one record per target each.
            flushed: Vec::with_capacity(2 * n),
            rr_cursor: src.index(),
            tel,
            tel_objects: Vec::new(),
            trace_sample_every: cfg.trace_sample_every,
            trace_counter: 0,
            latency,
        }
    }

    /// The source AEU this router belongs to.
    pub fn src(&self) -> AeuId {
        self.src
    }

    /// The telemetry shard shared with this router's AEU.
    pub(crate) fn telemetry_shard(&self) -> &Arc<TelemetryShard> {
        &self.tel
    }

    /// The shared routing state (telemetry registry access for the AEU).
    pub(crate) fn shared(&self) -> &Arc<RoutingShared> {
        &self.shared
    }

    /// The cached conservation ledger of `id`; routing counts `enqueued`
    /// on it, this router's AEU `executed`.
    // HOT-PATH-CUT: first-touch ledger registration; allocates the
    // counter arc once per object, steady state is a vector hit.
    pub(crate) fn object_ledger(&mut self, id: DataObjectId) -> &ObjectCounters {
        let i = id.0 as usize;
        if self.tel_objects.len() <= i {
            self.tel_objects.resize_with(i + 1, || None);
        }
        let shared = &self.shared;
        // BOUNDS: the vector was just grown past `i`.
        self.tel_objects[i].get_or_insert_with(|| shared.telemetry().object(id))
    }

    /// Bring this router's table list up to date: one Acquire load, and
    /// a new handle taken under the shared guard only when a table was
    /// registered or changed since the last one.
    #[inline]
    fn sync_tables(&mut self) {
        // ordering: Acquire; pairs-with: table-epoch.
        if self.shared.epoch.load(Ordering::Acquire) != self.tables_epoch {
            self.reload_tables();
        }
    }

    // HOT-PATH-CUT: runs once per registration or rebalance, not per
    // command; takes the list under the shared guard.
    fn reload_tables(&mut self) {
        (self.tables, self.tables_epoch) = self.shared.table_list();
    }

    /// The trace stamp for the next routed command, if the deterministic
    /// 1-in-N sampler selects it.
    fn maybe_stamp(&mut self) -> Option<TraceStamp> {
        if self.trace_sample_every == 0 {
            return None;
        }
        self.trace_counter += 1;
        if self.trace_counter.is_multiple_of(self.trace_sample_every) {
            Some(TraceStamp::engine(now_ns()))
        } else {
            None
        }
    }

    /// Route one command: split by partition table, buffer, flush full
    /// targets.  Returns the flushes performed (for traffic accounting),
    /// or a [`RoutingError`] if the command is undeliverable — in which
    /// case nothing was enqueued.  Every N-th command is stamped with an
    /// end-to-end trace marker (see [`RoutingConfig::trace_sample_every`]).
    pub fn route(&mut self, cmd: DataCommand) -> Result<Vec<FlushInfo>, RoutingError> {
        Ok(self.route_command(&cmd)?.0)
    }

    /// Route an owned command as [`Router::route_counted`] routes its
    /// encoding, which is written once into this router's reused buffer.
    pub(crate) fn route_command(
        &mut self,
        cmd: &DataCommand,
    ) -> Result<(Vec<FlushInfo>, u64), RoutingError> {
        let mut encoded = std::mem::take(&mut self.encoded);
        let routed = self.route_counted(&cmd.encode_checked(&mut encoded), None);
        self.encoded = encoded;
        routed
    }

    /// Route a command as [`Router::route`] does, and also return the
    /// number of sub-commands emitted, which the AEU charges CPU for.
    /// A `stamp` given here was born *in the serving layer* at frame
    /// decode (it carries the `(tenant, conn, seq)` identity and the
    /// net-queue/admission spans): it is charged to stamp accounting like
    /// a fresh stamp and bypasses the router's 1-in-N sampler entirely.
    pub(crate) fn route_counted(
        &mut self,
        cmd: &CommandRef<'_>,
        stamp: Option<TraceStamp>,
    ) -> Result<(Vec<FlushInfo>, u64), RoutingError> {
        let stamp = stamp.or_else(|| self.maybe_stamp());
        self.route_with(cmd, stamp, true)
    }

    /// Route a command that already carries a trace stamp (stray
    /// forwarding): the stamp is preserved — with the caller-bumped hop
    /// count — and no new sampling happens.
    pub(crate) fn route_forwarded(
        &mut self,
        cmd: &CommandRef<'_>,
        stamp: Option<TraceStamp>,
    ) -> Result<Vec<FlushInfo>, RoutingError> {
        Ok(self.route_with(cmd, stamp, false)?.0)
    }

    /// Route `cmd`; returns the flushes performed and the number of
    /// sub-commands emitted (unicast plus multicast deliveries).
    fn route_with(
        &mut self,
        cmd: &CommandRef<'_>,
        mut stamp: Option<TraceStamp>,
        fresh: bool,
    ) -> Result<(Vec<FlushInfo>, u64), RoutingError> {
        let had_stamp = stamp.is_some();
        let object = cmd.object;
        self.sync_tables();
        // Cleared after every flush round below; an error leaves it empty.
        let mut full_targets = std::mem::take(&mut self.full);
        let full = &mut full_targets;
        // Telemetry tallies of this call, published in one batch below:
        // unicast sub-commands and multicast deliveries.
        let (uni, multi) = match cmd.op {
            StorageOp::Lookup => (self.route_point::<u64>(cmd, &mut stamp, full)?, 0),
            StorageOp::Upsert => (self.route_point::<(u64, u64)>(cmd, &mut stamp, full)?, 0),
            StorageOp::Scan => {
                // BOUNDS: a `CommandRef` holds a checked encoding, whose
                // scan payload reads whole.
                let Ok((pred, _, _)) = cmd.scan_params() else {
                    unreachable!("a checked scan reads whole")
                };
                // Scans multicast to every owner intersecting the
                // predicate.
                let (owned, one);
                let targets = match (table_in(&self.tables, object)?, pred) {
                    (PartitionTable::Range(r), Predicate::Range { lo, hi }) => {
                        owned = r.owners_in_range(lo, hi);
                        &owned
                    }
                    (PartitionTable::Range(r), Predicate::Equals(x)) => {
                        // A point predicate has exactly one owner; going
                        // through `owners_in_range(x, x + 1)` would lose
                        // `x == u64::MAX` to bound saturation.
                        one = r.owner(x);
                        std::slice::from_ref(&one)
                    }
                    (t, _) => t.scan_targets(),
                };
                self.out.push_multicast(targets, cmd.bytes, full);
                (0, targets.len() as u64)
            }
        };
        // A point command owned by more than one AEU was split.
        let split = u64::from(uni > 1);
        // Stamp accounting at the emission point: a fresh stamp enters
        // the `stamped == traced + dropped` ledger only when its marker
        // actually hit a unicast buffer (multicast deliveries are never
        // stamped).  A *forwarded* stamp was counted at its original
        // stamping; if it could not be re-emitted here it is charged as
        // dropped so the ledger stays exact.
        if had_stamp {
            if stamp.is_none() {
                if fresh {
                    self.latency.on_stamped();
                }
            } else if !fresh {
                self.latency.on_dropped(1);
            }
        }
        // ordering: one writer, this router's AEU thread (the router is
        // owned by its AEU), so plain relaxed stores keep every read exact.
        let c = &self.tel.counters;
        bump(&c.commands_routed, 1);
        if uni > 0 {
            bump(&c.commands_unicast, uni);
        }
        if multi > 0 {
            bump(&c.commands_multicast, multi);
        }
        if split > 0 {
            bump(&c.command_splits, split);
        }
        raise(&c.peak_outgoing_bytes, self.out.peak_pending_bytes() as u64);
        // Conservation ledger: every sub-command enqueued towards an owner
        // must eventually be counted as executed by that owner.  Many
        // routers write it, so it keeps its read-modify-write.
        let enqueued = uni + multi;
        if enqueued > 0 {
            self.object_ledger(object)
                .enqueued
                .fetch_add(enqueued, Relaxed);
        }
        let mut flushed = Vec::new();
        for &t in &full_targets {
            self.flush_target(t, &mut flushed);
        }
        full_targets.clear();
        self.full = full_targets;
        Ok((flushed, enqueued))
    }

    /// Routing steps 1 and 2 of a point command carrying items of `T`,
    /// read from its encoding: one owner pass, then the encoding copied
    /// unchanged when one AEU owns every item (always, for one item), or
    /// each owner's sub-command scattered straight into that owner's
    /// outgoing buffer.  Returns the number of sub-commands emitted.  On
    /// a size-partitioned object upserts are appends, dealt round-robin
    /// over the member set, and lookups have no placement to go by.
    fn route_point<T: PointItem>(
        &mut self,
        cmd: &CommandRef<'_>,
        stamp: &mut Option<TraceStamp>,
        full: &mut Vec<AeuId>,
    ) -> Result<u64, RoutingError> {
        let object = cmd.object;
        let items = T::decode_items(cmd.items::<T>());
        let owners = &mut self.owners;
        let members = match table_in(&self.tables, object)? {
            PartitionTable::Range(r) => match r.assign_owners(items.clone(), owners) {
                Ok(()) => None,
                Err(OutOfDomain { key, domain }) => {
                    return Err(RoutingError::KeyOutOfDomain {
                        object,
                        key,
                        domain,
                    })
                }
            },
            t @ PartitionTable::Bitmap(_) if T::OP == StorageOp::Upsert => Some(t.scan_targets()),
            PartitionTable::Bitmap(_) => {
                return Err(RoutingError::PointOpOnSizePartitioned(object))
            }
        };
        if let Some(members) = members {
            let cursor = (self.rr_cursor + 1) % members.len();
            // BOUNDS: the cursor was just reduced modulo `members.len()`,
            // which a provisioned bitmap table keeps non-empty.
            let owner = members[cursor];
            self.fits::<T>(object, owner, items.len())?;
            self.rr_cursor = cursor;
            self.push_unicast(owner, cmd, stamp, full);
            return Ok(1);
        }
        for (owner, n) in self.owners.groups() {
            self.fits::<T>(object, owner, n)?;
        }
        match *self.owners.order() {
            // No items: no sub-command.
            [] => Ok(0),
            [owner] => {
                self.push_unicast(owner, cmd, stamp, full);
                Ok(1)
            }
            ref split => {
                let emitted = split.len() as u64;
                self.out
                    .push_split(object, cmd.ticket, items, &self.owners, stamp.take(), full);
                Ok(emitted)
            }
        }
    }

    /// Refuse a sub-command of `n` items that `target`'s incoming buffer
    /// could not take behind a trace marker: a flush writes it whole.
    fn fits<T: PointItem>(
        &self,
        object: DataObjectId,
        target: AeuId,
        n: usize,
    ) -> Result<(), RoutingError> {
        let bytes = HEADER_BYTES + 4 + n * T::BYTES;
        let capacity = self.shared.incoming(target).capacity();
        match bytes + TRACE_MARKER_BYTES <= capacity {
            true => Ok(()),
            false => Err(RoutingError::CommandTooLarge {
                object,
                target,
                bytes,
                capacity,
            }),
        }
    }

    /// Buffer a whole command for its single owner, preceded by the
    /// command's trace marker if it is still to be emitted; notes the
    /// owner in `full` when its buffer crossed the flush threshold.
    fn push_unicast(
        &mut self,
        owner: AeuId,
        cmd: &CommandRef<'_>,
        stamp: &mut Option<TraceStamp>,
        full: &mut Vec<AeuId>,
    ) {
        if self
            .out
            .push_whole(owner, cmd.object, stamp.take(), cmd.bytes)
        {
            // ALLOC-OK: the full-target list is bounded by the AEU count
            // and lives for one routing call.
            full.push(owner);
        }
    }

    fn flush_target(&mut self, target: AeuId, flushed: &mut Vec<FlushInfo>) {
        match self.out.flush_into(target, self.shared.incoming(target)) {
            Ok(Some(info)) => {
                // ordering: one writer, this router's AEU thread.
                let c = &self.tel.counters;
                bump(&c.flushes, 1);
                bump(&c.flush_commands, info.commands);
                bump(&c.flush_bytes, info.bytes);
                // ALLOC-OK: flush summaries accumulate into the caller's reusable
                // report vector, one entry per flushed target.
                flushed.push(info);
            }
            Ok(None) => {}
            Err(BufferFull) => {
                // ordering: one writer, this router's AEU thread.
                bump(&self.tel.counters.flush_stalls, 1);
            }
        }
    }

    /// End-of-loop flush of every pending target (routing step 3 "or the
    /// AEU starts over its processing loop").  Targets whose incoming
    /// buffer is full stay pending for the next round.  Each flush adds
    /// its record to the router's reusable report, which is returned:
    /// the caller clears it once it has charged the records, so flushes
    /// made before the AEU steps (the engine's delivery pass) are
    /// charged with the step's own.
    pub fn flush_all(&mut self) -> &mut Vec<FlushInfo> {
        let mut flushed = std::mem::take(&mut self.flushed);
        for t in 0..self.shared.num_aeus() as u32 {
            self.flush_target(AeuId(t), &mut flushed);
        }
        self.out.reclaim_multicast();
        self.flushed = flushed;
        &mut self.flushed
    }

    /// True when nothing is waiting in the outgoing buffers.
    pub fn is_drained(&self) -> bool {
        self.out.is_drained()
    }
}

/// `object`'s table among a router's handles.
fn table_in(tables: &Tables, object: DataObjectId) -> Result<&PartitionTable, RoutingError> {
    tables
        .get(object.0 as usize)
        .and_then(|t| t.as_deref())
        .ok_or(RoutingError::UnknownObject(object))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{decode_region, Payload};
    use eris_column::Aggregate;

    fn setup(num_aeus: u32, domain: u64) -> (Arc<RoutingShared>, Router) {
        let shared = Arc::new(RoutingShared::new(
            num_aeus as usize,
            RoutingConfig::default(),
        ));
        let owners: Vec<AeuId> = (0..num_aeus).map(AeuId).collect();
        shared.register_object(
            DataObjectId(0),
            PartitionTable::Range(RangeTable::even(domain, &owners)),
        );
        let router = Router::new(AeuId(0), Arc::clone(&shared), RoutingConfig::default());
        (shared, router)
    }

    fn drain(shared: &RoutingShared, aeu: AeuId) -> Vec<DataCommand> {
        let mut out = Vec::new();
        shared
            .incoming(aeu)
            .swap_and_consume(|d| out = decode_region(d).into_iter().map(|(c, _)| c).collect());
        out
    }

    #[test]
    fn lookup_splits_across_owners() {
        let (shared, mut router) = setup(4, 400);
        router
            .route(DataCommand {
                object: DataObjectId(0),
                ticket: 5,
                payload: Payload::Lookup {
                    keys: vec![10, 110, 210, 310, 20],
                },
            })
            .unwrap();
        let c = router.telemetry_shard().counters.snapshot();
        assert_eq!(c.command_splits, 1);
        assert_eq!(c.commands_unicast + c.commands_multicast, 4);
        router.flush_all();
        assert!(router.is_drained());
        let c0 = drain(&shared, AeuId(0));
        assert_eq!(c0[0].payload, Payload::Lookup { keys: vec![10, 20] });
        let c3 = drain(&shared, AeuId(3));
        assert_eq!(c3[0].payload, Payload::Lookup { keys: vec![310] });
    }

    #[test]
    fn scan_multicasts_to_overlapping_owners() {
        let (shared, mut router) = setup(4, 400);
        router
            .route(DataCommand {
                object: DataObjectId(0),
                ticket: 1,
                payload: Payload::Scan {
                    pred: Predicate::Range { lo: 150, hi: 250 },
                    agg: Aggregate::Count,
                    snapshot: 0,
                },
            })
            .unwrap();
        router.flush_all();
        assert!(drain(&shared, AeuId(0)).is_empty());
        assert_eq!(drain(&shared, AeuId(1)).len(), 1);
        assert_eq!(drain(&shared, AeuId(2)).len(), 1);
        assert!(drain(&shared, AeuId(3)).is_empty());
    }

    #[test]
    fn full_scan_reaches_everyone() {
        let (shared, mut router) = setup(3, 300);
        router
            .route(DataCommand {
                object: DataObjectId(0),
                ticket: 1,
                payload: Payload::Scan {
                    pred: Predicate::All,
                    agg: Aggregate::Sum,
                    snapshot: 9,
                },
            })
            .unwrap();
        router.flush_all();
        for a in 0..3 {
            assert_eq!(drain(&shared, AeuId(a)).len(), 1, "AEU{a}");
        }
    }

    #[test]
    fn bitmap_appends_round_robin() {
        let shared = Arc::new(RoutingShared::new(3, RoutingConfig::default()));
        shared.register_object(
            DataObjectId(0),
            PartitionTable::Bitmap(BitmapTable::new(vec![AeuId(0), AeuId(1), AeuId(2)])),
        );
        let mut router = Router::new(AeuId(0), Arc::clone(&shared), RoutingConfig::default());
        for i in 0..6 {
            router
                .route(DataCommand {
                    object: DataObjectId(0),
                    ticket: i,
                    payload: Payload::Upsert {
                        pairs: vec![(i, i)],
                    },
                })
                .unwrap();
        }
        router.flush_all();
        for a in 0..3 {
            assert_eq!(drain(&shared, AeuId(a)).len(), 2, "even spread");
        }
    }

    #[test]
    fn sampler_stamps_every_nth_command() {
        let shared = Arc::new(RoutingShared::new(1, RoutingConfig::default()));
        shared.register_object(
            DataObjectId(0),
            PartitionTable::Range(RangeTable::even(100, &[AeuId(0)])),
        );
        let cfg = RoutingConfig {
            trace_sample_every: 4,
            ..Default::default()
        };
        let mut router = Router::new(AeuId(0), Arc::clone(&shared), cfg);
        for i in 0..8 {
            router
                .route(DataCommand {
                    object: DataObjectId(0),
                    ticket: i,
                    payload: Payload::Lookup { keys: vec![i] },
                })
                .unwrap();
        }
        router.flush_all();
        let mut decoded = Vec::new();
        shared
            .incoming(AeuId(0))
            .swap_and_consume(|d| decoded = decode_region(d));
        assert_eq!(decoded.len(), 8);
        let stamped_at: Vec<usize> = decoded
            .iter()
            .enumerate()
            .filter(|(_, (_, s))| s.is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(stamped_at, vec![3, 7], "1-in-4 stamps the 4th and 8th");
        assert!(decoded
            .iter()
            .filter_map(|(_, s)| *s)
            .all(|s| s.hops == 0 && s.submit_ns > 0));
        let (stamped, traced, dropped) = shared.telemetry().latency().ledger();
        assert_eq!((stamped, traced, dropped), (2, 0, 0));
    }

    #[test]
    fn forwarded_stamps_keep_their_hop_count() {
        let (shared, mut router) = setup(2, 100);
        let stamp = Some(TraceStamp {
            hops: 3,
            ..TraceStamp::engine(42)
        });
        let mut encoded = Vec::new();
        let cmd = DataCommand {
            object: DataObjectId(0),
            ticket: 9,
            payload: Payload::Lookup { keys: vec![60] },
        };
        router
            .route_forwarded(&cmd.encode_checked(&mut encoded), stamp)
            .unwrap();
        router.flush_all();
        let mut decoded = Vec::new();
        shared
            .incoming(AeuId(1))
            .swap_and_consume(|d| decoded = decode_region(d));
        assert_eq!(decoded.len(), 1);
        assert_eq!(
            decoded[0].1,
            Some(TraceStamp {
                hops: 3,
                ..TraceStamp::engine(42)
            }),
            "the stamp rides along unchanged"
        );
        let (stamped, _, _) = shared.telemetry().latency().ledger();
        assert_eq!(stamped, 0, "re-emission never double-counts stamping");
    }

    #[test]
    fn serving_stamps_charge_the_ledger_and_carry_context() {
        let (shared, mut router) = setup(2, 100);
        let stamp = TraceStamp {
            tenant: 9,
            conn: 3,
            seq: 77,
            net_ns: 1_000,
            admit_ns: 50,
            ..TraceStamp::engine(1234)
        };
        let mut encoded = Vec::new();
        let cmd = DataCommand {
            object: DataObjectId(0),
            ticket: 1,
            payload: Payload::Lookup { keys: vec![60] },
        };
        router
            .route_counted(&cmd.encode_checked(&mut encoded), Some(stamp))
            .unwrap();
        router.flush_all();
        let mut decoded = Vec::new();
        shared
            .incoming(AeuId(1))
            .swap_and_consume(|d| decoded = decode_region(d));
        assert_eq!(decoded.len(), 1);
        assert_eq!(
            decoded[0].1,
            Some(stamp),
            "identity and serving spans survive the wire"
        );
        let (stamped, traced, dropped) = shared.telemetry().latency().ledger();
        assert_eq!(
            (stamped, traced, dropped),
            (1, 0, 0),
            "a serving stamp enters the ledger at marker emission"
        );
    }

    #[test]
    fn threshold_crossing_flushes_inline() {
        let cfg = RoutingConfig {
            // Sampling off: `flush_bytes % 29 == 0` below relies on
            // an unstamped 29-byte-per-command byte stream.
            trace_sample_every: 0,
            outgoing_capacity: 64,
            incoming_capacity: 4096,
            ..Default::default()
        };
        let shared = Arc::new(RoutingShared::new(2, cfg));
        shared.register_object(
            DataObjectId(0),
            PartitionTable::Range(RangeTable::even(100, &[AeuId(0), AeuId(1)])),
        );
        let mut router = Router::new(AeuId(0), Arc::clone(&shared), cfg);
        let mut flushed = Vec::new();
        for i in 0..10 {
            flushed.extend(
                router
                    .route(DataCommand {
                        object: DataObjectId(0),
                        ticket: i,
                        payload: Payload::Lookup { keys: vec![60 + i] },
                    })
                    .unwrap(),
            );
        }
        assert!(!flushed.is_empty(), "auto-flush on threshold");
        let c = router.telemetry_shard().counters.snapshot();
        assert!(c.flushes > 0);
        assert_eq!(c.flush_bytes % 29, 0, "whole commands only");
    }

    #[test]
    fn unknown_object_is_a_typed_error() {
        let (_, mut router) = setup(2, 100);
        let err = router
            .route(DataCommand {
                object: DataObjectId(7),
                ticket: 0,
                payload: Payload::Lookup { keys: vec![1] },
            })
            .unwrap_err();
        assert_eq!(err, RoutingError::UnknownObject(DataObjectId(7)));
        assert!(err.to_string().contains("not registered"));
        assert!(router.is_drained(), "nothing enqueued on error");
    }

    #[test]
    fn point_lookup_on_column_is_a_typed_error() {
        let shared = Arc::new(RoutingShared::new(2, RoutingConfig::default()));
        shared.register_object(
            DataObjectId(0),
            PartitionTable::Bitmap(BitmapTable::new(vec![AeuId(0), AeuId(1)])),
        );
        let mut router = Router::new(AeuId(0), Arc::clone(&shared), RoutingConfig::default());
        let err = router
            .route(DataCommand {
                object: DataObjectId(0),
                ticket: 0,
                payload: Payload::Lookup { keys: vec![1] },
            })
            .unwrap_err();
        assert_eq!(err, RoutingError::PointOpOnSizePartitioned(DataObjectId(0)));
        let snap = shared.telemetry_snapshot(&[]);
        assert!(
            snap.conservation_holds(),
            "rejected command enqueued nothing"
        );
    }

    #[test]
    fn version_visible_after_rebuild() {
        let (shared, _) = setup(2, 100);
        shared
            .with_table_mut(DataObjectId(0), |t| {
                t.as_range_mut()
                    .unwrap()
                    .rebuild(vec![(0, AeuId(1)), (90, AeuId(0))]);
            })
            .unwrap();
        shared
            .with_table(DataObjectId(0), |t| {
                let r = t.as_range().unwrap();
                assert_eq!(r.version(), 1);
                assert_eq!(r.owner(50), AeuId(1));
            })
            .unwrap();
    }

    #[test]
    fn a_table_change_between_two_commands_routes_the_second_by_the_new_bounds() {
        let (shared, mut router) = setup(2, 100);
        let lookup = |ticket| DataCommand {
            object: DataObjectId(0),
            ticket,
            payload: Payload::Lookup { keys: vec![10] },
        };
        let mut encoded = Vec::new();
        lookup(2).encode(&mut encoded);
        router.route(lookup(1)).unwrap();
        // Key 10 moves from AEU0 to AEU1.
        shared
            .with_table_mut(DataObjectId(0), |t| {
                t.as_range_mut()
                    .unwrap()
                    .rebuild(vec![(0, AeuId(1)), (90, AeuId(0))]);
            })
            .unwrap();
        router.route(lookup(2)).unwrap();
        router
            .route_counted(&CommandRef::check(&encoded).unwrap(), None)
            .unwrap();
        router.flush_all();
        let tickets = |a| -> Vec<u64> { drain(&shared, a).iter().map(|c| c.ticket).collect() };
        assert_eq!(tickets(AeuId(0)), vec![1], "routed before the change");
        assert_eq!(tickets(AeuId(1)), vec![2, 2], "owned and encoded, after it");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::command::Payload;
    use proptest::prelude::*;

    const DOMAIN: u64 = 400;

    /// Routing step 1 as the split path does it for every command: group
    /// by owner, wrap each group in a sub-command, encode it towards its
    /// owner.  The bytes each AEU must find in its incoming buffer.
    fn split_oracle(table: &RangeTable, cmd: &DataCommand, aeus: usize) -> (Vec<Vec<u8>>, usize) {
        let mut per_target = vec![Vec::new(); aeus];
        let subs = sub_commands(table, cmd);
        for (owner, sub) in &subs {
            sub.encode(&mut per_target[owner.index()]);
        }
        (per_target, subs.len())
    }

    /// The split of a point command into per-owner sub-commands, each its
    /// group of items wrapped as a payload; a shared owner gets the
    /// command as it is.
    fn sub_commands(table: &RangeTable, cmd: &DataCommand) -> Vec<(AeuId, DataCommand)> {
        fn groups<T: PointItem>(
            table: &RangeTable,
            items: &[T],
            payload: fn(Vec<T>) -> Payload,
        ) -> Vec<(AeuId, Payload)> {
            let groups = match table.split_by_owner(items) {
                OwnerSplit::One(owner) => vec![(owner, items.to_vec())],
                OwnerSplit::Groups(groups) => groups,
                OwnerSplit::OutOfDomain { key, .. } => panic!("key {key} outside the domain"),
            };
            groups.into_iter().map(|(a, g)| (a, payload(g))).collect()
        }
        let groups = match &cmd.payload {
            Payload::Lookup { keys } => groups(table, keys, |keys| Payload::Lookup { keys }),
            Payload::Upsert { pairs } => groups(table, pairs, |pairs| Payload::Upsert { pairs }),
            _ => unreachable!("point commands only"),
        };
        groups
            .into_iter()
            .map(|(owner, payload)| {
                let sub = DataCommand {
                    object: cmd.object,
                    ticket: cmd.ticket,
                    payload,
                };
                (owner, sub)
            })
            .collect()
    }

    /// Routing as the materialised split does it: each sub-command
    /// encoded on its own into its owner's outgoing bytes (the trace
    /// marker before the first), the owners that crossed `capacity`
    /// flushed after the command in the order they crossed it, and every
    /// target with bytes left flushed at the end, in AEU order.
    struct SplitRouter {
        capacity: usize,
        pending: Vec<Vec<u8>>,
        delivered: Vec<Vec<u8>>,
        flushes: u64,
        peak: usize,
        splits: u64,
        unicast: u64,
        /// Stamps whose marker was written.
        stamped: u64,
    }

    impl SplitRouter {
        fn new(aeus: usize, capacity: usize) -> Self {
            SplitRouter {
                capacity,
                pending: vec![Vec::new(); aeus],
                delivered: vec![Vec::new(); aeus],
                flushes: 0,
                peak: 0,
                splits: 0,
                unicast: 0,
                stamped: 0,
            }
        }

        fn route(&mut self, table: &RangeTable, cmd: &DataCommand, mut stamp: Option<TraceStamp>) {
            let subs = sub_commands(table, cmd);
            self.splits += (subs.len() > 1) as u64;
            self.unicast += subs.len() as u64;
            self.stamped += (stamp.is_some() && !subs.is_empty()) as u64;
            let mut full = Vec::new();
            for (owner, sub) in subs {
                let out = &mut self.pending[owner.index()];
                if let Some(s) = stamp.take() {
                    crate::command::encode_trace_marker(sub.object, s, out);
                }
                sub.encode(out);
                self.peak = self.peak.max(out.len());
                if out.len() >= self.capacity {
                    full.push(owner.index());
                }
            }
            for a in full {
                self.flush(a);
            }
        }

        fn flush(&mut self, a: usize) {
            if !self.pending[a].is_empty() {
                let bytes = std::mem::take(&mut self.pending[a]);
                self.delivered[a].extend(bytes);
                self.flushes += 1;
            }
        }

        fn flush_all(&mut self) {
            (0..self.pending.len()).for_each(|a| self.flush(a));
        }
    }

    /// SplitMix64: the test's own generator for the structured draws.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        /// A command whose keys have one owner is routed as it is, the
        /// others are split; either way every AEU receives exactly the
        /// bytes the split path alone would have sent it, and
        /// `command_splits` counts the commands that had more than one
        /// owner, no others.
        #[test]
        fn single_owner_commands_route_like_the_split_path(
            aeus in 1usize..=4,
            cmds in proptest::collection::vec(
                (
                    proptest::bool::ANY,
                    // Mostly one owner's stretch of the domain, sometimes all of it.
                    (0u64..4, 0u64..5),
                    proptest::collection::vec((0u64..100, 0u64..1000), 0..6),
                ),
                1..24,
            ),
        ) {
            let cfg = RoutingConfig {
                trace_sample_every: 0,
                // Flush only at the end: one contiguous run per target.
                outgoing_capacity: 1 << 20,
                ..Default::default()
            };
            let shared = Arc::new(RoutingShared::new(aeus, cfg));
            let owners: Vec<AeuId> = (0..aeus as u32).map(AeuId).collect();
            shared.register_object(
                DataObjectId(0),
                PartitionTable::Range(RangeTable::even(DOMAIN, &owners)),
            );
            let table = RangeTable::even(DOMAIN, &owners);
            let mut router = Router::new(AeuId(0), Arc::clone(&shared), cfg);
            let mut want = vec![Vec::new(); aeus];
            let (mut want_splits, mut want_unicast) = (0u64, 0u64);
            for (ticket, (upsert, (stretch, spread), items)) in cmds.into_iter().enumerate() {
                // `spread == 0` scatters the keys over the whole domain.
                let key = |k: u64| if spread == 0 { k * 4 } else { stretch * 100 + k };
                let payload = if upsert {
                    Payload::Upsert { pairs: items.iter().map(|&(k, v)| (key(k), v)).collect() }
                } else {
                    Payload::Lookup { keys: items.iter().map(|&(k, _)| key(k)).collect() }
                };
                let cmd = DataCommand { object: DataObjectId(0), ticket: ticket as u64, payload };
                let (bytes, groups) = split_oracle(&table, &cmd, aeus);
                for (w, b) in want.iter_mut().zip(bytes) {
                    w.extend(b);
                }
                want_splits += (groups > 1) as u64;
                want_unicast += groups as u64;
                router.route(cmd).unwrap();
            }
            router.flush_all();
            for (a, want) in owners.iter().zip(&want) {
                let mut got = Vec::new();
                shared.incoming(*a).swap_and_consume(|d| got = d.to_vec());
                prop_assert_eq!(&got, want, "bytes towards {}", a);
            }
            let c = router.telemetry_shard().counters.snapshot();
            prop_assert_eq!(c.command_splits, want_splits);
            let totals = shared.telemetry_totals();
            prop_assert_eq!(totals.command_splits, want_splits);
            prop_assert_eq!(totals.commands_unicast, want_unicast);
        }

        /// The scatter writes what the materialised split writes.  Over
        /// random range tables (1-16 ranges over 1-16 AEUs, random bounds,
        /// domains up to the whole key space), lookups and upserts of
        /// 0-300 items with repeated keys, stamped or not, and outgoing
        /// buffers small enough to flush in the middle of a batch, each
        /// command routed from its encoding: every AEU receives the bytes
        /// `SplitRouter` delivers; the split, unicast, flush and outgoing
        /// high-water counts agree; the object's ledger counts every
        /// sub-command enqueued right after its command; and the latency
        /// ledger counts every stamp whose marker was written.
        #[test]
        fn the_scatter_writes_the_bytes_of_the_materialised_split(
            aeus in 1usize..=16,
            ranges in 1usize..=16,
            domain_kind in 0u8..3,
            // 29 and 37 bytes: exactly one one-item lookup or upsert.
            capacity in prop_oneof![
                Just(1usize), Just(29), Just(37), Just(512), Just(4096), Just(1 << 16)
            ],
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let mut draw = move || splitmix(&mut rng);
            let domain = match domain_kind {
                0 => 1 + draw() % (1 << 12),
                1 => (1 << 12) + draw() % (u64::MAX - (1 << 12)),
                _ => u64::MAX,
            };
            let key_below = |x: u64| if domain == u64::MAX { x } else { x % domain };
            let mut bounds: Vec<u64> = (1..ranges)
                .map(|_| 1 + draw() % (domain - 1).max(1))
                .filter(|&b| b < domain)
                .collect();
            bounds.push(0);
            bounds.sort_unstable();
            bounds.dedup();
            let entries: Vec<(u64, AeuId)> = bounds
                .iter()
                .map(|&b| (b, AeuId((draw() % aeus as u64) as u32)))
                .collect();
            let table = || {
                let mut t = RangeTable::even(domain, &[AeuId(0)]);
                t.rebuild(entries.clone());
                t
            };
            // Keys that repeat: every boundary, the top of the domain, a
            // few more.
            let mut pool = bounds.clone();
            pool.push(key_below(u64::MAX));
            pool.extend((0..4).map(|_| key_below(draw())));

            let cfg = RoutingConfig {
                trace_sample_every: 0,
                outgoing_capacity: capacity,
                incoming_capacity: 1 << 17,
                ..Default::default()
            };
            let shared = Arc::new(RoutingShared::new(aeus, cfg));
            shared.register_object(DataObjectId(3), PartitionTable::Range(table()));
            let mut router = Router::new(AeuId(0), Arc::clone(&shared), cfg);
            let mut oracle = SplitRouter::new(aeus, capacity);
            let oracle_table = table();
            let mut got = vec![Vec::new(); aeus];
            let drain = |got: &mut Vec<Vec<u8>>| {
                for (a, got) in got.iter_mut().enumerate() {
                    shared
                        .incoming(AeuId(a as u32))
                        .swap_and_consume(|d| got.extend_from_slice(d));
                }
            };
            let ledger = shared.telemetry().object(DataObjectId(3));
            let enqueued = || ledger.enqueued.load(Relaxed);
            for ticket in 0..1 + draw() % 16 {
                // Small commands half the time, so groups of one item are
                // common.
                let n = draw() % if draw() % 2 == 0 { 4 } else { 301 };
                let keys: Vec<u64> = (0..n)
                    .map(|_| match draw() % 3 {
                        0 => pool[(draw() % pool.len() as u64) as usize],
                        _ => key_below(draw()),
                    })
                    .collect();
                let payload = if draw() % 2 == 0 {
                    Payload::Lookup { keys }
                } else {
                    Payload::Upsert { pairs: keys.into_iter().map(|k| (k, draw())).collect() }
                };
                let cmd = DataCommand { object: DataObjectId(3), ticket, payload };
                let stamp = (draw() % 3 == 0).then(|| TraceStamp {
                    hops: (draw() % 4) as u32,
                    tenant: 7,
                    conn: 2,
                    seq: ticket,
                    ..TraceStamp::engine(draw())
                });
                oracle.route(&oracle_table, &cmd, stamp);
                let mut encoded = Vec::new();
                cmd.encode(&mut encoded);
                let checked = CommandRef::check(&encoded).unwrap();
                router.route_counted(&checked, stamp).unwrap();
                prop_assert_eq!(enqueued(), oracle.unicast);
                drain(&mut got);
            }
            oracle.flush_all();
            router.flush_all();
            drain(&mut got);
            for (a, (got, want)) in got.iter().zip(&oracle.delivered).enumerate() {
                prop_assert_eq!(got, want, "bytes towards AEU{}", a);
            }
            let c = router.telemetry_shard().counters.snapshot();
            prop_assert_eq!(c.command_splits, oracle.splits);
            prop_assert_eq!(c.flushes, oracle.flushes);
            let totals = shared.telemetry_totals();
            prop_assert_eq!(totals.command_splits, oracle.splits);
            prop_assert_eq!(totals.commands_unicast, oracle.unicast);
            prop_assert_eq!(totals.flushes, oracle.flushes);
            prop_assert_eq!(totals.peak_outgoing_bytes, oracle.peak as u64);
            prop_assert_eq!(shared.telemetry().latency().ledger(), (oracle.stamped, 0, 0));
        }

    }
}
