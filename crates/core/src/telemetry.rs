//! Engine-wide telemetry: live counters and log2 histograms.
//!
//! Every AEU owns one [`TelemetryShard`] — a cache-friendly block of
//! relaxed atomic counters updated from the routing and processing hot
//! paths.  A shard's routing and execution counters have one writer, the
//! AEU's own thread (its router and its step), so they are bumped with a
//! relaxed load and store (`bump`, `raise`) instead of a locked
//! read-modify-write; the per-object ledgers have many writers and keep
//! `fetch_add`.  Shards live in the engine's [`RoutingShared`] state, so the
//! same registry serves the cooperative single-threaded runtime and the
//! threaded runtime without any extra synchronization: writers touch only
//! their own shard, readers fold shards into a consistent-enough
//! [`TelemetrySnapshot`] on demand.
//!
//! The design invariant backing the test suite is a conservation law:
//! for every data object, the number of sub-commands *enqueued* by the
//! routing layer equals the number of commands *executed* (decoded and
//! delivered to the processing stage) once the engine is drained.
//! Forwarded strays re-enter the routing layer, incrementing both sides
//! symmetrically, so the books balance in the steady state.
//!
//! [`RoutingShared`]: crate::routing::RoutingShared

use crate::command::{AeuId, DataObjectId};
use eris_numa::NodeId;
use eris_obs::latency::{bucket_of, LATENCY_BUCKETS};
use eris_obs::{
    Exemplar, LatencyKey, LatencySeries, LatencyTable, LogHistogram, Metric, MetricKind, Phase,
    PhaseBreakdown, PhaseProfiler, RingStats, TraceRing,
};
use parking_lot::RwLock;
use std::fmt;
// ordering: Relaxed is the only ordering this module imports — every
// counter is monotonic telemetry with no payload to publish; snapshots
// tolerate transient skew between counters by design.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

macro_rules! counter_fields {
    (
        sum { $($(#[$smeta:meta])* $sum:ident,)* }
        max { $($(#[$mmeta:meta])* $max:ident,)* }
    ) => {
        /// The live atomic counters of one telemetry shard.  All updates
        /// use relaxed ordering: counters are monotonic diagnostics, not
        /// synchronization points.
        #[derive(Debug, Default)]
        pub struct LiveCounters {
            $($(#[$smeta])* pub $sum: AtomicU64,)*
            $($(#[$mmeta])* pub $max: AtomicU64,)*
        }

        /// A point-in-time copy of [`LiveCounters`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct CounterSnapshot {
            /// Reset-epoch stamp: [`Telemetry`] bumps it on every
            /// counter reset and stamps it into the snapshots it hands
            /// out.  [`CounterSnapshot::since`] uses it to detect that a
            /// baseline predates a reset instead of silently clamping
            /// every delta to zero.  Not a counter — excluded from
            /// [`CounterSnapshot::fields`].
            pub generation: u64,
            $($(#[$smeta])* pub $sum: u64,)*
            $($(#[$mmeta])* pub $max: u64,)*
        }

        impl LiveCounters {
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    generation: 0,
                    $($sum: self.$sum.load(Relaxed),)*
                    $($max: self.$max.load(Relaxed),)*
                }
            }

            /// Zero every counter and peak gauge (measurement-window reset).
            pub fn reset(&self) {
                $(self.$sum.store(0, Relaxed);)*
                $(self.$max.store(0, Relaxed);)*
            }
        }

        impl CounterSnapshot {
            /// Fold another AEU's counters in: monotonic counters add,
            /// peak gauges take the maximum.
            pub fn merge(&mut self, o: &CounterSnapshot) {
                self.generation = self.generation.max(o.generation);
                $(self.$sum += o.$sum;)*
                $(self.$max = self.$max.max(o.$max);)*
            }

            /// Delta since `earlier`: monotonic counters subtract, peak
            /// gauges keep the current high-water mark.  When a counter
            /// reset landed between the two snapshots (the generation
            /// stamps differ), the `earlier` baseline no longer exists
            /// inside the live counters — the post-reset absolute values
            /// *are* the delta since the reset, so they are returned
            /// as-is instead of being clamped against a stale baseline.
            pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
                if self.generation != earlier.generation {
                    return *self;
                }
                CounterSnapshot {
                    generation: self.generation,
                    $($sum: self.$sum.saturating_sub(earlier.$sum),)*
                    $($max: self.$max,)*
                }
            }

            /// `(name, value)` pairs in declaration order, for renderers.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $((stringify!($sum), self.$sum),)*
                    $((stringify!($max), self.$max),)*
                ]
            }
        }
    };
}

counter_fields! {
    sum {
        /// Commands handed to `Router::route`.
        commands_routed,
        /// Unicast sub-commands pushed after partition splitting.
        commands_unicast,
        /// Multicast command deliveries (one per target AEU).
        commands_multicast,
        /// Commands that spanned partitions and were split.
        command_splits,
        /// Successful outgoing-buffer flushes into incoming buffers.
        flushes,
        /// Commands delivered by those flushes.
        flush_commands,
        /// Bytes copied by those flushes.
        flush_bytes,
        /// Flush attempts rejected by a full incoming buffer (retried).
        flush_stalls,
        /// Reservations written into this AEU's incoming buffers.
        incoming_writes,
        /// Incoming-buffer writes rejected with `BufferFull`.
        incoming_rejects,
        /// Incoming double-buffer swaps performed by this AEU.
        buffer_swaps,
        /// Bytes handed to the processing stage by those swaps.
        swapped_bytes,
        /// Commands decoded and delivered to the processing stage.
        commands_executed,
        /// Coalesced `(object, op)` execution batches.
        exec_batches,
        /// Scan batches that shared one sweep over two or more commands.
        coalesced_scans,
        /// Keys looked up.
        lookups,
        /// Pairs upserted.
        upserts,
        /// Scan commands executed.
        scans,
        /// Rows examined by scans.
        scan_rows,
        /// Shared column sweeps that ran on the AVX2 lanes.
        simd_sweeps,
        /// Shared column sweeps that ran on the portable chunked kernels
        /// (no AVX2, or `ERIS_SIMD=0`).
        chunked_sweeps,
        /// Always 0: the scalar path is a test oracle the engine never
        /// dispatches to (a `benchmark/` contract name).
        scalar_sweeps,
        /// Keys probed through the batched hash-lookup entry point.
        batched_probe_keys,
        /// Keys/commands forwarded after partition moves (Section 3.3.2).
        forwarded,
        /// Redo records appended to this AEU's journal.
        journal_records,
        /// Journal bytes made durable (payload + framing).
        journal_bytes,
        /// Explicit journal syncs (group commits + barriers).
        journal_fsyncs,
        /// Redo records re-applied during recovery.
        replayed_records,
    }
    max {
        /// High-water mark of bytes pending in the outgoing buffers.
        peak_outgoing_bytes,
        /// High-water mark of bytes pending in the incoming buffers.
        peak_incoming_bytes,
    }
}

/// Add `n` to a counter that only one thread writes: a relaxed load and
/// a relaxed store, no locked instruction.  Every read stays exact, as
/// with `fetch_add`; only a second writer could lose an update, so each
/// call site names its one writer.  The serving layer's per-tenant
/// counters use this too, so the rule has one definition.
#[inline]
pub fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Relaxed).wrapping_add(n), Relaxed);
}

/// Raise a peak gauge that only one thread writes to `v`: compare, then
/// store.
#[inline]
pub fn raise(gauge: &AtomicU64, v: u64) {
    if v > gauge.load(Relaxed) {
        gauge.store(v, Relaxed);
    }
}

/// The atomic recorder of a [`LogHistogram`]: same log2 bucket layout,
/// updated with relaxed `fetch_add`s from an AEU's hot path and copied
/// out as a plain histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        // BOUNDS: `bucket_of` saturates at `LATENCY_BUCKETS - 1`.
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    pub fn snapshot(&self) -> LogHistogram {
        // BOUNDS: `from_fn` hands out indices below the shared bucket count.
        let buckets: [u64; LATENCY_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Relaxed));
        LogHistogram {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum.load(Relaxed),
        }
    }

    /// Zero every bucket (measurement-window reset).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
    }
}

/// The conservation-law ledger of one data object: sub-commands enqueued
/// by the routing layer vs. commands executed by the owning AEUs.
#[derive(Debug, Default)]
pub struct ObjectCounters {
    /// Unicast pushes + multicast target deliveries for this object.
    pub enqueued: AtomicU64,
    /// Commands decoded and handed to the processing stage.
    pub executed: AtomicU64,
}

/// One AEU's telemetry: counters plus hot-path histograms and the
/// bounded trace-event ring.
#[derive(Debug, Default)]
pub struct TelemetryShard {
    pub counters: LiveCounters,
    /// Commands delivered per incoming-buffer swap.
    pub swap_batch: Histogram,
    /// Commands per coalesced `(object, op)` execution group.
    pub exec_group: Histogram,
    /// Virtual nanoseconds charged per AEU step.
    pub step_ns: Histogram,
    /// The structured trace events of this AEU (overwrite-oldest).
    pub ring: TraceRing,
    /// Epoch wall time attributed to execution phases (the per-AEU
    /// epoch profiler; idle is charged as the unattributed remainder,
    /// so phase fractions sum to 1 by construction).
    pub profiler: PhaseProfiler,
}

impl TelemetryShard {
    fn with_ring_capacity(cap: usize) -> Self {
        TelemetryShard {
            ring: TraceRing::new(cap),
            ..Default::default()
        }
    }

    /// Zero the shard's counters and histograms.  The trace ring is left
    /// alone: it is a log of the recent past, not a measurement window.
    pub fn reset(&self) {
        self.counters.reset();
        self.swap_batch.reset();
        self.exec_group.reset();
        self.step_ns.reset();
        self.profiler.reset();
    }
}

/// The engine-wide registry: one shard per AEU, one conservation ledger
/// per data object, plus balancer-cycle counters.
pub struct Telemetry {
    shards: Vec<Arc<TelemetryShard>>,
    objects: RwLock<Vec<Arc<ObjectCounters>>>,
    /// Bumped by [`Telemetry::reset_shards`]; stamped into every
    /// snapshot so [`CounterSnapshot::since`] can tell whether its
    /// baseline predates a reset.
    reset_generation: AtomicU64,
    /// Balancing cycles that moved data.
    pub balancer_cycles: AtomicU64,
    /// Individual partition transfers executed by those cycles.
    pub balancer_moves: AtomicU64,
    /// Keys/rows moved by those transfers.
    pub balancer_keys_moved: AtomicU64,
    /// The sampled end-to-end command-latency table (engine-wide: stamps
    /// are recorded wherever the command finally executes).
    latency: Arc<LatencyTable>,
}

impl Telemetry {
    pub fn new(num_aeus: usize) -> Self {
        Self::with_ring_capacity(num_aeus, 1024)
    }

    /// Like [`Telemetry::new`] with an explicit per-AEU trace-ring
    /// capacity (rounded up to a power of two by the ring).
    pub fn with_ring_capacity(num_aeus: usize, ring_capacity: usize) -> Self {
        Telemetry {
            shards: (0..num_aeus)
                .map(|_| Arc::new(TelemetryShard::with_ring_capacity(ring_capacity)))
                .collect(),
            objects: RwLock::new(Vec::new()),
            reset_generation: AtomicU64::new(0),
            balancer_cycles: AtomicU64::new(0),
            balancer_moves: AtomicU64::new(0),
            balancer_keys_moved: AtomicU64::new(0),
            latency: Arc::new(LatencyTable::default()),
        }
    }

    /// The shard of one AEU.
    pub fn shard(&self, aeu: AeuId) -> &Arc<TelemetryShard> {
        &self.shards[aeu.index()]
    }

    /// The engine-wide sampled-latency table.
    pub fn latency(&self) -> &Arc<LatencyTable> {
        &self.latency
    }

    /// The conservation ledger of one data object.  Slots are created on
    /// first use so stand-alone routers (benchmarks) need no registration
    /// step; `RoutingShared::register_object` pre-creates them.
    // HOT-PATH-CUT: object-counter registration under the allowlisted
    // RwLock; per-command bumps use the returned arc's relaxed atomics.
    pub fn object(&self, id: DataObjectId) -> Arc<ObjectCounters> {
        {
            let objects = self.objects.read();
            if let Some(c) = objects.get(id.0 as usize) {
                return Arc::clone(c);
            }
        }
        let mut objects = self.objects.write();
        while objects.len() <= id.0 as usize {
            objects.push(Arc::new(ObjectCounters::default()));
        }
        Arc::clone(&objects[id.0 as usize])
    }

    /// `enqueued − executed` summed over the object ledgers: what a full
    /// [`TelemetrySnapshot`] reports, without building one (the serving
    /// pump reads this every cycle).
    pub fn in_flight_commands(&self) -> u64 {
        let objects = self.objects.read();
        objects
            .iter()
            .map(|c| {
                // `executed` first: it trails `enqueued`, so while AEUs
                // step the difference errs high, never below zero.
                let executed = c.executed.load(Relaxed);
                c.enqueued.load(Relaxed).saturating_sub(executed)
            })
            .sum()
    }

    /// Reset every per-AEU shard and the balancer counters.  The
    /// per-object conservation ledgers are deliberately left alone:
    /// commands in flight at reset time would permanently unbalance
    /// `enqueued == executed` if the ledgers were zeroed mid-stream.
    /// The latency table's `stamped == traced + dropped` ledger survives
    /// resets for the same reason (stamps may be in flight).
    pub fn reset_shards(&self) {
        // Bump first: a snapshot racing with the reset may mix pre- and
        // post-reset counters either way; stamping the new generation
        // before zeroing means `since` never trusts such a baseline.
        self.reset_generation.fetch_add(1, Relaxed);
        for s in &self.shards {
            s.reset();
        }
        self.balancer_cycles.store(0, Relaxed);
        self.balancer_moves.store(0, Relaxed);
        self.balancer_keys_moved.store(0, Relaxed);
    }

    /// Number of shard resets so far (the current snapshot generation).
    pub fn reset_generation(&self) -> u64 {
        self.reset_generation.load(Relaxed)
    }

    /// Overwrite one object's conservation ledger (recovery only: the
    /// checkpoint manifest carries the ledger of the quiesced engine).
    pub fn restore_object_ledger(&self, id: DataObjectId, enqueued: u64, executed: u64) {
        let c = self.object(id);
        c.enqueued.store(enqueued, Relaxed);
        c.executed.store(executed, Relaxed);
    }

    /// Engine-wide counter totals.  `fill` patches per-AEU externals
    /// (incoming-buffer counters) into each shard's snapshot before it is
    /// folded in.
    pub fn totals_with(&self, fill: impl Fn(usize, &mut CounterSnapshot)) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let mut c = shard.counters.snapshot();
            fill(i, &mut c);
            total.merge(&c);
        }
        total.generation = self.reset_generation();
        total
    }

    /// A full snapshot: per-AEU counters, per-node and engine-wide
    /// rollups, the per-object conservation ledger, and merged histograms.
    pub fn snapshot_with(
        &self,
        node_of: &[NodeId],
        fill: impl Fn(usize, &mut CounterSnapshot),
    ) -> TelemetrySnapshot {
        let generation = self.reset_generation();
        let per_aeu: Vec<CounterSnapshot> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut c = s.counters.snapshot();
                fill(i, &mut c);
                c.generation = generation;
                c
            })
            .collect();

        let mut per_node: Vec<(NodeId, CounterSnapshot)> = Vec::new();
        let mut totals = CounterSnapshot::default();
        for (i, c) in per_aeu.iter().enumerate() {
            totals.merge(c);
            let node = node_of.get(i).copied().unwrap_or(NodeId(0));
            match per_node.iter_mut().find(|(n, _)| *n == node) {
                Some((_, agg)) => agg.merge(c),
                None => per_node.push((node, *c)),
            }
        }
        per_node.sort_by_key(|(n, _)| n.0);

        let objects: Vec<ObjectFlow> = self
            .objects
            .read()
            .iter()
            .enumerate()
            .map(|(i, c)| ObjectFlow {
                object: DataObjectId(i as u32),
                enqueued: c.enqueued.load(Relaxed),
                executed: c.executed.load(Relaxed),
            })
            .collect();

        let mut swap_batch = LogHistogram::default();
        let mut exec_group = LogHistogram::default();
        let mut step_ns = LogHistogram::default();
        for s in &self.shards {
            swap_batch.merge(&s.swap_batch.snapshot());
            exec_group.merge(&s.exec_group.snapshot());
            step_ns.merge(&s.step_ns.snapshot());
        }

        let (stamped, traced, dropped) = self.latency.ledger();

        TelemetrySnapshot {
            per_aeu,
            per_node,
            totals,
            objects,
            balancer: BalancerCounters {
                cycles: self.balancer_cycles.load(Relaxed),
                moves: self.balancer_moves.load(Relaxed),
                keys_moved: self.balancer_keys_moved.load(Relaxed),
            },
            swap_batch,
            exec_group,
            step_ns,
            trace: TraceLedger {
                stamped,
                traced,
                dropped,
            },
            latency: self.latency.snapshot(),
            tenant_latency: self.latency.tenant_snapshot(),
            exemplars: self.latency.exemplars(),
            phases: self.shards.iter().map(|s| s.profiler.snapshot()).collect(),
            // Cross-node link traffic lives in the engine's HwCounters,
            // not the registry; `Engine::telemetry` patches it in.
            links: Vec::new(),
            rings: self.shards.iter().map(|s| s.ring.stats()).collect(),
        }
    }
}

/// Per-object conservation state in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectFlow {
    pub object: DataObjectId,
    pub enqueued: u64,
    pub executed: u64,
}

impl ObjectFlow {
    /// Sub-commands still sitting in routing buffers (0 once drained).
    pub fn in_flight(&self) -> u64 {
        self.enqueued.saturating_sub(self.executed)
    }
}

/// Balancer activity in a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BalancerCounters {
    pub cycles: u64,
    pub moves: u64,
    pub keys_moved: u64,
}

/// The trace-sampling conservation ledger in a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceLedger {
    /// Commands stamped at routing time.
    pub stamped: u64,
    /// Stamped commands whose latency was recorded at execution.
    pub traced: u64,
    /// Stamped commands discarded before execution.
    pub dropped: u64,
}

impl TraceLedger {
    /// `stamped == traced + dropped`; holds exactly once the engine is
    /// drained.
    pub fn balances(&self) -> bool {
        self.stamped == self.traced + self.dropped
    }
}

/// A consistent-enough point-in-time view of the whole engine's
/// telemetry: per-AEU counters, per-node and engine rollups, the
/// per-object conservation ledger, balancer activity, and merged
/// histograms.  Obtain one via `Engine::telemetry()`.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    pub per_aeu: Vec<CounterSnapshot>,
    pub per_node: Vec<(NodeId, CounterSnapshot)>,
    pub totals: CounterSnapshot,
    pub objects: Vec<ObjectFlow>,
    pub balancer: BalancerCounters,
    pub swap_batch: LogHistogram,
    pub exec_group: LogHistogram,
    pub step_ns: LogHistogram,
    /// Sampled-trace conservation: stamped vs. traced + dropped.
    pub trace: TraceLedger,
    /// Per-(object, op) sampled latency series, sorted by key.
    pub latency: Vec<(LatencyKey, LatencySeries)>,
    /// Per-tenant full-path latency histograms (serving traces only),
    /// sorted by tenant id.
    pub tenant_latency: Vec<(u32, LogHistogram)>,
    /// Per-bucket most-recent full-path trace exemplars.
    pub exemplars: Vec<Option<Exemplar>>,
    /// Per-AEU epoch-phase wall-time attribution, indexed like
    /// `per_aeu`.
    pub phases: Vec<PhaseBreakdown>,
    /// Cross-node interconnect traffic per link and direction (empty
    /// when the runtime has no hardware-counter model attached).
    pub links: Vec<LinkTraffic>,
    /// Per-AEU trace-ring accounting, indexed like `per_aeu`.
    pub rings: Vec<RingStats>,
}

/// Byte traffic over one interconnect link, per direction, as recorded
/// by the engine's `eris_numa::HwCounters` model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Endpoint node ids (the topology's link endpoint order).
    pub a: u32,
    pub b: u32,
    /// Bytes that flowed `a → b`.
    pub bytes_ab: u64,
    /// Bytes that flowed `b → a`.
    pub bytes_ba: u64,
}

impl TelemetrySnapshot {
    /// The conservation law: every enqueued sub-command was executed.
    /// Holds exactly when the engine is drained.
    pub fn conservation_holds(&self) -> bool {
        self.objects.iter().all(|o| o.enqueued == o.executed)
    }

    /// Profiler invariant: for every AEU that attributed any wall time,
    /// the phase fractions sum to 1 within `tol` (the `server`
    /// experiment asserts this at ±1%).
    pub fn phases_sum_to_one(&self, tol: f64) -> bool {
        self.phases.iter().all(|p| {
            if p.total_ns() == 0 {
                return true;
            }
            let sum: f64 = Phase::ALL.iter().map(|&ph| p.fraction(ph)).sum();
            (sum - 1.0).abs() <= tol
        })
    }

    /// Collapsed-stack (flamegraph input) render of the per-AEU epoch
    /// phase profile: one `aeu{i};{phase} {ns}` line per nonzero pair.
    pub fn collapsed_stack(&self) -> String {
        eris_obs::collapsed_stack(&self.phases)
    }

    /// Convert to the exporter's neutral metric representation: one
    /// metric per counter (per-AEU samples labelled `aeu`), the
    /// conservation ledgers, balancer activity, trace-ring accounting
    /// and the sampled latency sums.
    pub fn to_metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        // Per-AEU counters.  Peak gauges are recognizable by name; all
        // other fields are monotonic counters.
        let names: Vec<&'static str> = CounterSnapshot::default()
            .fields()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for (fi, name) in names.iter().enumerate() {
            let kind = if name.starts_with("peak_") {
                MetricKind::Gauge
            } else {
                MetricKind::Counter
            };
            let suffix = if kind == MetricKind::Counter {
                "_total"
            } else {
                ""
            };
            let mut m = Metric::new(
                &format!("eris_{name}{suffix}"),
                &format!("Engine counter `{name}` per AEU."),
                kind,
            );
            for (aeu, c) in self.per_aeu.iter().enumerate() {
                let v = c.fields()[fi].1;
                m = m.sample(&[("aeu", &aeu.to_string())], v as f64);
            }
            out.push(m);
        }
        // Per-object conservation ledger.
        let mut enq = Metric::new(
            "eris_object_enqueued_total",
            "Sub-commands enqueued by the routing layer, per data object.",
            MetricKind::Counter,
        );
        let mut exe = Metric::new(
            "eris_object_executed_total",
            "Commands executed by the owning AEUs, per data object.",
            MetricKind::Counter,
        );
        for o in &self.objects {
            let id = o.object.0.to_string();
            enq = enq.sample(&[("object", &id)], o.enqueued as f64);
            exe = exe.sample(&[("object", &id)], o.executed as f64);
        }
        out.push(enq);
        out.push(exe);
        // Balancer activity.
        for (name, help, v) in [
            (
                "eris_balancer_cycles_total",
                "Balancing cycles that moved data.",
                self.balancer.cycles,
            ),
            (
                "eris_balancer_moves_total",
                "Partition transfers executed by balancing cycles.",
                self.balancer.moves,
            ),
            (
                "eris_balancer_keys_moved_total",
                "Keys or rows moved by partition transfers.",
                self.balancer.keys_moved,
            ),
        ] {
            out.push(Metric::new(name, help, MetricKind::Counter).sample(&[], v as f64));
        }
        // Trace-sampling ledger.
        for (name, help, v) in [
            (
                "eris_trace_stamped_total",
                "Commands stamped with a trace marker at routing time.",
                self.trace.stamped,
            ),
            (
                "eris_trace_traced_total",
                "Stamped commands whose latency was recorded at execution.",
                self.trace.traced,
            ),
            (
                "eris_trace_dropped_total",
                "Stamped commands discarded before execution.",
                self.trace.dropped,
            ),
        ] {
            out.push(Metric::new(name, help, MetricKind::Counter).sample(&[], v as f64));
        }
        // Trace-ring accounting.
        for (name, help, get) in [
            (
                "eris_ring_emitted_total",
                "Trace events offered to the per-AEU ring.",
                0usize,
            ),
            (
                "eris_ring_retained",
                "Trace events currently readable in the per-AEU ring.",
                1,
            ),
            (
                "eris_ring_dropped_total",
                "Trace events displaced or abandoned in the per-AEU ring.",
                2,
            ),
        ] {
            let kind = if get == 1 {
                MetricKind::Gauge
            } else {
                MetricKind::Counter
            };
            let mut m = Metric::new(name, help, kind);
            for (aeu, r) in self.rings.iter().enumerate() {
                let v = match get {
                    0 => r.emitted,
                    1 => r.retained,
                    _ => r.dropped,
                };
                m = m.sample(&[("aeu", &aeu.to_string())], v as f64);
            }
            out.push(m);
        }
        // Sampled latency: count + sum per (object, op) and stage, so
        // mean = sum / count is recoverable downstream.
        for (stage, help) in [
            ("queue_wait", "submit to start of the coalesced batch"),
            ("exec", "host-time cost of the executing batch"),
        ] {
            let mut cnt = Metric::new(
                &format!("eris_latency_{stage}_ns_count"),
                &format!("Sampled command latencies recorded ({help})."),
                MetricKind::Counter,
            );
            let mut sum = Metric::new(
                &format!("eris_latency_{stage}_ns_sum"),
                &format!("Sum of sampled command latencies in ns ({help})."),
                MetricKind::Counter,
            );
            for ((object, op), series) in &self.latency {
                let h = if stage == "queue_wait" {
                    &series.queue_wait
                } else {
                    &series.exec
                };
                let labels = [("object", object.to_string()), ("op", op.to_string())];
                let labels: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
                cnt = cnt.sample(&labels, h.count as f64);
                sum = sum.sample(&labels, h.sum as f64);
            }
            out.push(cnt);
            out.push(sum);
        }
        // Per-tenant full-path latency (serving traces).
        let mut tcnt = Metric::new(
            "eris_tenant_full_latency_ns_count",
            "Serving-layer traces recorded per tenant (full path: net + admit + queue + exec).",
            MetricKind::Counter,
        );
        let mut tsum = Metric::new(
            "eris_tenant_full_latency_ns_sum",
            "Sum of per-tenant full-path trace latencies in ns.",
            MetricKind::Counter,
        );
        let mut tp99 = Metric::new(
            "eris_tenant_full_latency_p99_ns",
            "Per-tenant full-path p99 latency estimate (log2 bucket upper bound).",
            MetricKind::Gauge,
        );
        for (tenant, h) in &self.tenant_latency {
            let t = tenant.to_string();
            tcnt = tcnt.sample(&[("tenant", &t)], h.count as f64);
            tsum = tsum.sample(&[("tenant", &t)], h.sum as f64);
            tp99 = tp99.sample(&[("tenant", &t)], h.p99() as f64);
        }
        out.push(tcnt);
        out.push(tsum);
        out.push(tp99);
        // Histogram exemplars: one sample per retained bucket occupant
        // and span, so a tail bucket resolves to its full-path trace.
        let mut exm = Metric::new(
            "eris_latency_exemplar_ns",
            "Most recent full-path trace retained per latency bucket, decomposed by span.",
            MetricKind::Gauge,
        );
        for (bucket, e) in self.exemplars.iter().enumerate() {
            let Some(e) = e else { continue };
            let le = eris_obs::latency::bucket_le(bucket).to_string();
            let id = format!("{:016x}", e.trace_id);
            let tenant = e.tenant.to_string();
            for (span, v) in [
                ("total", e.total_ns),
                ("net", e.net_ns),
                ("admit", e.admit_ns),
                ("queue", e.queue_ns),
                ("exec", e.exec_ns),
            ] {
                exm = exm.sample(
                    &[
                        ("le", &le),
                        ("trace_id", &id),
                        ("tenant", &tenant),
                        ("span", span),
                    ],
                    v as f64,
                );
            }
        }
        out.push(exm);
        // Per-AEU epoch-phase attribution.
        let mut phase = Metric::new(
            "eris_aeu_phase_ns_total",
            "Epoch wall time attributed to each execution phase, per AEU.",
            MetricKind::Counter,
        );
        for (aeu, p) in self.phases.iter().enumerate() {
            let a = aeu.to_string();
            for &ph in Phase::ALL.iter() {
                phase = phase.sample(&[("aeu", &a), ("phase", ph.name())], p.get(ph) as f64);
            }
        }
        out.push(phase);
        // Cross-node link traffic.
        let mut link = Metric::new(
            "eris_link_bytes_total",
            "Bytes that crossed each interconnect link, per direction.",
            MetricKind::Counter,
        );
        for l in &self.links {
            let (a, b) = (l.a.to_string(), l.b.to_string());
            link = link
                .sample(&[("a", &a), ("b", &b), ("dir", "ab")], l.bytes_ab as f64)
                .sample(&[("a", &a), ("b", &b), ("dir", "ba")], l.bytes_ba as f64);
        }
        out.push(link);
        out
    }

    /// Render the whole snapshot in the Prometheus text exposition
    /// format.
    pub fn to_prometheus(&self) -> String {
        eris_obs::render_prometheus(&self.to_metrics())
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = &self.totals;
        writeln!(
            f,
            "telemetry: {} AEUs on {} nodes",
            self.per_aeu.len(),
            self.per_node.len()
        )?;
        writeln!(
            f,
            "  routed   {:>12}  (unicast {}, multicast {}, splits {})",
            t.commands_routed, t.commands_unicast, t.commands_multicast, t.command_splits
        )?;
        writeln!(
            f,
            "  flushes  {:>12}  (commands {}, bytes {}, stalls {})",
            t.flushes, t.flush_commands, t.flush_bytes, t.flush_stalls
        )?;
        writeln!(
            f,
            "  incoming {:>12}  writes (rejects {}), {} swaps, {} bytes swapped",
            t.incoming_writes, t.incoming_rejects, t.buffer_swaps, t.swapped_bytes
        )?;
        writeln!(
            f,
            "  executed {:>12}  in {} batches ({} coalesced scan batches)",
            t.commands_executed, t.exec_batches, t.coalesced_scans
        )?;
        writeln!(
            f,
            "  ops: {} lookups, {} upserts, {} scans ({} rows), {} forwarded",
            t.lookups, t.upserts, t.scans, t.scan_rows, t.forwarded
        )?;
        writeln!(
            f,
            "  kernels: {} simd sweeps, {} chunked sweeps, {} scalar sweeps, {} batched probe keys",
            t.simd_sweeps, t.chunked_sweeps, t.scalar_sweeps, t.batched_probe_keys
        )?;
        writeln!(
            f,
            "  peaks: outgoing {} B, incoming {} B",
            t.peak_outgoing_bytes, t.peak_incoming_bytes
        )?;
        writeln!(
            f,
            "  balancer: {} cycles, {} moves, {} keys moved",
            self.balancer.cycles, self.balancer.moves, self.balancer.keys_moved
        )?;
        writeln!(
            f,
            "  journal: {} records, {} bytes, {} fsyncs, {} replayed",
            t.journal_records, t.journal_bytes, t.journal_fsyncs, t.replayed_records
        )?;
        let ring_emitted: u64 = self.rings.iter().map(|r| r.emitted).sum();
        let ring_dropped: u64 = self.rings.iter().map(|r| r.dropped).sum();
        writeln!(
            f,
            "  trace: {} stamped, {} traced, {} dropped; {} latency series; {} ring events ({} displaced)",
            self.trace.stamped,
            self.trace.traced,
            self.trace.dropped,
            self.latency.len(),
            ring_emitted,
            ring_dropped
        )?;
        for (n, c) in &self.per_node {
            writeln!(
                f,
                "  node {:>2}: routed {:>10} executed {:>10} flush bytes {:>12}",
                n.0, c.commands_routed, c.commands_executed, c.flush_bytes
            )?;
        }
        for o in &self.objects {
            writeln!(
                f,
                "  object {:>2}: enqueued {:>10} executed {:>10} {}",
                o.object.0,
                o.enqueued,
                o.executed,
                if o.enqueued == o.executed {
                    "(balanced)".to_string()
                } else {
                    format!("({} in flight)", o.in_flight())
                }
            )?;
        }
        let filled = self.exemplars.iter().flatten().count();
        if !self.tenant_latency.is_empty() || filled > 0 {
            writeln!(
                f,
                "  serving: {} tenant latency series, {} bucket exemplars",
                self.tenant_latency.len(),
                filled
            )?;
        }
        let mut agg = PhaseBreakdown::default();
        for p in &self.phases {
            for (slot, v) in agg.ns.iter_mut().zip(p.ns.iter()) {
                *slot += v;
            }
        }
        if agg.total_ns() > 0 {
            write!(f, "  phases:")?;
            for &ph in Phase::ALL.iter() {
                write!(f, " {} {:.0}%", ph.name(), agg.fraction(ph) * 100.0)?;
            }
            writeln!(f)?;
        }
        for l in &self.links {
            if l.bytes_ab + l.bytes_ba > 0 {
                writeln!(
                    f,
                    "  link {}<->{}: {} B ->, {} B <-",
                    l.a, l.b, l.bytes_ab, l.bytes_ba
                )?;
            }
        }
        writeln!(f, "  swap batch: {}", self.swap_batch)?;
        writeln!(f, "  exec group: {}", self.exec_group)?;
        write!(f, "  step ns:    {}", self.step_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_value_range() {
        // The atomic recorder files every value where the plain
        // histogram does: one layout, two views.
        let (h, mut plain) = (Histogram::default(), LogHistogram::default());
        for v in [
            0,
            1,
            2,
            3,
            4,
            (1 << 14) + 1,
            1 << 15,
            1 << 40,
            u64::MAX >> 1,
        ] {
            h.record(v);
            plain.record(v);
        }
        assert_eq!(h.snapshot(), plain);
        assert_eq!(
            plain.buckets[LATENCY_BUCKETS - 1],
            2,
            "saturating top bucket"
        );
    }

    #[test]
    fn histogram_records_and_merges() {
        let h = Histogram::default();
        for v in [0, 1, 1, 5, 40_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 40_007);
        assert_eq!(s.buckets[0], 3, "0 and 1 share the first bucket");
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[15], 1);
        let mut m = s.clone();
        m.merge(&s);
        assert_eq!(m.count(), 10);
        assert_eq!(m.sum, 2 * 40_007);
        h.reset();
        assert_eq!(h.snapshot(), LogHistogram::default());
    }

    #[test]
    fn counters_merge_sums_and_maxes() {
        let a = LiveCounters::default();
        a.commands_routed.store(5, Relaxed);
        a.peak_outgoing_bytes.store(100, Relaxed);
        let b = LiveCounters::default();
        b.commands_routed.store(7, Relaxed);
        b.peak_outgoing_bytes.store(60, Relaxed);
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.commands_routed, 12);
        assert_eq!(total.peak_outgoing_bytes, 100, "peaks take the max");
    }

    #[test]
    fn since_subtracts_counters_but_keeps_peaks() {
        let earlier = CounterSnapshot {
            lookups: 10,
            peak_incoming_bytes: 500,
            ..Default::default()
        };
        let later = CounterSnapshot {
            lookups: 25,
            peak_incoming_bytes: 800,
            ..earlier
        };
        let d = later.since(&earlier);
        assert_eq!(d.lookups, 15);
        assert_eq!(d.peak_incoming_bytes, 800);
    }

    #[test]
    fn since_across_a_reset_returns_post_reset_values() {
        let t = Telemetry::new(1);
        t.shard(AeuId(0)).counters.lookups.fetch_add(100, Relaxed);
        let before = t.totals_with(|_, _| {});
        assert_eq!(before.lookups, 100);
        t.reset_shards();
        t.shard(AeuId(0)).counters.lookups.fetch_add(7, Relaxed);
        let after = t.totals_with(|_, _| {});
        assert_ne!(after.generation, before.generation, "reset is stamped");
        // Without the generation stamp this delta would clamp to 0 and
        // mask the 7 post-reset lookups.
        assert_eq!(after.since(&before).lookups, 7);
        // Same-generation deltas still subtract normally.
        t.shard(AeuId(0)).counters.lookups.fetch_add(3, Relaxed);
        assert_eq!(t.totals_with(|_, _| {}).since(&after).lookups, 3);
    }

    #[test]
    fn registry_hands_out_stable_object_ledgers() {
        let t = Telemetry::new(2);
        let a = t.object(DataObjectId(3));
        a.enqueued.fetch_add(4, Relaxed);
        let b = t.object(DataObjectId(3));
        assert_eq!(b.enqueued.load(Relaxed), 4, "same ledger");
        // Gaps below the max id are materialized too.
        assert_eq!(t.object(DataObjectId(1)).enqueued.load(Relaxed), 0);
    }

    #[test]
    fn snapshot_rolls_up_nodes_and_detects_imbalance() {
        let t = Telemetry::new(4);
        let node_of = [NodeId(0), NodeId(0), NodeId(1), NodeId(1)];
        t.shard(AeuId(0)).counters.lookups.fetch_add(3, Relaxed);
        t.shard(AeuId(2)).counters.lookups.fetch_add(9, Relaxed);
        t.object(DataObjectId(0)).enqueued.fetch_add(2, Relaxed);
        let snap = t.snapshot_with(&node_of, |_, _| {});
        assert_eq!(snap.totals.lookups, 12);
        assert_eq!(snap.per_node.len(), 2);
        assert_eq!(snap.per_node[0].1.lookups, 3);
        assert_eq!(snap.per_node[1].1.lookups, 9);
        assert!(!snap.conservation_holds(), "2 enqueued, 0 executed");
        t.object(DataObjectId(0)).executed.fetch_add(2, Relaxed);
        let snap = t.snapshot_with(&node_of, |_, _| {});
        assert!(snap.conservation_holds());
    }

    #[test]
    fn fill_patches_external_counters_into_shards() {
        let t = Telemetry::new(2);
        let totals = t.totals_with(|i, c| c.incoming_writes = (i as u64 + 1) * 10);
        assert_eq!(totals.incoming_writes, 30);
    }

    #[test]
    fn in_flight_commands_is_the_snapshot_figure_without_the_snapshot() {
        let t = Telemetry::new(1);
        for (object, enqueued, executed) in [(0, 9, 4), (1, 3, 3), (2, 7, 0)] {
            t.object(DataObjectId(object))
                .enqueued
                .fetch_add(enqueued, Relaxed);
            t.object(DataObjectId(object))
                .executed
                .fetch_add(executed, Relaxed);
        }
        let snap = t.snapshot_with(&[NodeId(0)], |_, _| {});
        let from_snapshot: u64 = snap.objects.iter().map(ObjectFlow::in_flight).sum();
        assert_eq!(t.in_flight_commands(), from_snapshot);
        assert_eq!(from_snapshot, 12);
    }

    #[test]
    fn reset_clears_shards_but_keeps_object_ledgers() {
        let t = Telemetry::new(2);
        t.shard(AeuId(0)).counters.lookups.fetch_add(7, Relaxed);
        t.shard(AeuId(1))
            .counters
            .journal_bytes
            .fetch_add(9, Relaxed);
        t.shard(AeuId(1)).swap_batch.record(3);
        t.balancer_cycles.fetch_add(2, Relaxed);
        t.object(DataObjectId(0)).enqueued.fetch_add(5, Relaxed);
        t.object(DataObjectId(0)).executed.fetch_add(5, Relaxed);
        t.reset_shards();
        let snap = t.snapshot_with(&[NodeId(0), NodeId(0)], |_, _| {});
        assert_eq!(snap.totals.lookups, 0);
        assert_eq!(snap.totals.journal_bytes, 0);
        assert_eq!(snap.swap_batch.count(), 0);
        assert_eq!(snap.balancer.cycles, 0);
        assert_eq!(snap.objects[0].enqueued, 5, "ledger survives reset");
        assert!(snap.conservation_holds());
        t.restore_object_ledger(DataObjectId(0), 8, 8);
        assert_eq!(t.object(DataObjectId(0)).executed.load(Relaxed), 8);
    }

    #[test]
    fn render_mentions_every_section() {
        let t = Telemetry::new(2);
        t.shard(AeuId(0)).counters.scans.fetch_add(4, Relaxed);
        t.shard(AeuId(0)).swap_batch.record(8);
        t.object(DataObjectId(0)).enqueued.fetch_add(1, Relaxed);
        let snap = t.snapshot_with(&[NodeId(0), NodeId(1)], |_, _| {});
        let text = snap.to_string();
        for needle in [
            "routed",
            "flushes",
            "executed",
            "balancer",
            "object",
            "swap batch",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
