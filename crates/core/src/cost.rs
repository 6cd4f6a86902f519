//! Virtual-time cost parameters, the counts a step records, and the one
//! function that prices them.
//!
//! An AEU step only counts what it did ([`StepCounts`]): point operations
//! per data object, routed commands, flushes, replies and scanned rows
//! per node.  [`CostParams::epoch_ns`] turns the counts of every AEU into
//! CPU time, memory latency and memory traffic, fair-shares the traffic
//! with the max-min flow solver of `eris-numa`, and yields the epoch's
//! virtual duration; [`CostParams::transfer_ns`] prices partition
//! transfers.  The per-lookup *miss count* comes from an analytic model
//! of the prefix tree against the last-level cache: the top levels of the
//! tree are hot and cache-resident, the bottom levels miss — the exact
//! effect Figures 8 and 10 of the paper attribute the ERIS/shared gap to.

use crate::aeu::OpCounts;
use crate::command::{DataObjectId, StorageOp};
use crate::routing::FlushInfo;
use eris_index::{HashTable, PrefixTreeConfig};
use eris_numa::{Flow, FlowSolver, HwCounters, NodeId, Topology};

/// Calibration constants of the virtual-time model.
///
/// Values are chosen to sit in the plausible range of the paper's hardware
/// generation (Sandy Bridge / Interlagos era); the reproduction targets
/// *shapes and ratios*, not absolute numbers.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Fixed CPU cost per point operation (dispatch, hashing the digit
    /// path, result handling).
    pub cpu_ns_per_point_op: f64,
    /// CPU cost per tree level traversed.
    pub cpu_ns_per_tree_level: f64,
    /// Extra CPU per upsert (slot write, presence bit, occasional node
    /// allocation).
    pub cpu_ns_per_upsert: f64,
    /// Extra cost per upsert on the *shared* tree: the CAS-based
    /// synchronization the baseline needs ("synchronized via atomic
    /// instructions").
    pub shared_cas_ns: f64,
    /// CPU cost per row during a column scan (predicate + aggregate).
    pub cpu_ns_per_scan_row: f64,
    /// CPU cost of routing one command (partition-table lookup, encode).
    pub cpu_ns_per_routed_cmd: f64,
    /// CPU cost per key examined while splitting a command's data segment
    /// by owner (routing step 1's batch lookup), plus encode/decode copy.
    pub cpu_ns_per_routed_key: f64,
    /// Latency multiplier for the shared baseline's remote accesses: the
    /// snooping cache-coherence overhead of uncoordinated sharing
    /// (Hackenberg et al., MICRO'09; Section 2.1 of the paper).
    pub shared_coherence_factor: f64,
    /// Latency charge per flush into a remote incoming buffer (one
    /// reservation round trip).
    pub flush_latency_factor: f64,
    /// Memory-level parallelism: outstanding misses a batched lookup loop
    /// overlaps (the command-grouping optimization of Section 3.1).
    pub mlp: f64,
    /// Cache line size in bytes.
    pub cache_line: u64,
    /// Fixed cost of a *link* partition transfer (pointer relink inside a
    /// memory-management domain).
    pub link_transfer_ns: f64,
    /// CPU cost per key to rebuild an index from a flattened stream on the
    /// target side of a *copy* transfer.
    pub rebuild_ns_per_key: f64,
    /// Bytes per key in the flattened exchange format (key + value).
    pub transfer_bytes_per_key: u64,
    /// Core frequency relative to nominal (DVFS), scaling all CPU work.
    /// Memory latency and bandwidth are unaffected — the lever behind the
    /// paper's future-work question of energy awareness on a data-oriented
    /// architecture (Section 6): memory-bound AEUs lose little throughput
    /// at reduced frequency.
    pub frequency_scale: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cpu_ns_per_point_op: 14.0,
            cpu_ns_per_tree_level: 1.6,
            cpu_ns_per_upsert: 8.0,
            shared_cas_ns: 55.0,
            cpu_ns_per_scan_row: 0.12,
            cpu_ns_per_routed_cmd: 11.0,
            cpu_ns_per_routed_key: 7.0,
            shared_coherence_factor: 1.5,
            flush_latency_factor: 1.0,
            mlp: 4.0,
            cache_line: 64,
            link_transfer_ns: 4_000.0,
            rebuild_ns_per_key: 18.0,
            transfer_bytes_per_key: 16,
            frequency_scale: 1.0,
        }
    }
}

/// Base latency of one incoming-buffer reservation (CAS round trip).
const FLUSH_BASE_LATENCY_NS: f64 = 250.0;

/// What the cost model knows of a partition's structure.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Tree(PrefixTreeConfig),
    Hash,
    Column,
}

/// One step's point operations of one kind on one object.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointCounts {
    /// Commands with at least one local operation.
    pub commands: u64,
    /// Keys looked up or pairs applied (rows appended, on a column).
    pub ops: u64,
    /// The partition's modelled length when the group started.
    pub model_len: u64,
}

/// One step's work on one data object's partition.
#[derive(Debug, Clone, Copy)]
pub struct ObjectCounts {
    pub shape: Shape,
    pub lookups: PointCounts,
    /// Point upserts, or appends on a column.
    pub upserts: PointCounts,
    /// Scan commands, and the modelled rows their sweeps examined.
    pub scans: u64,
    pub scan_rows: u64,
}

impl ObjectCounts {
    /// The point counts of `op`: lookups, or upserts.
    pub fn points(&mut self, op: StorageOp) -> &mut PointCounts {
        match op {
            StorageOp::Lookup => &mut self.lookups,
            _ => &mut self.upserts,
        }
    }
}

/// Commands routed, and what routing them took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Routing {
    pub commands: u64,
    /// Sub-commands emitted, at least one per command.
    pub subcommands: u64,
    /// Keys split by owner.
    pub keys: u64,
    /// Threshold flushes made on the way.
    pub flushes: u64,
}

impl Routing {
    /// Count one command of `keys` keys routed as `emitted` sub-commands
    /// with `flushes` threshold flushes; returns `emitted`.
    pub(crate) fn add_command(&mut self, keys: u64, emitted: u64, flushes: usize) -> u64 {
        self.commands += 1;
        self.subcommands += emitted.max(1);
        self.keys += keys;
        self.flushes += flushes as u64;
        emitted
    }
}

/// One step's traffic towards one node.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeCounts {
    /// Bytes flushed into incoming buffers of AEUs on the node.
    pub flush_bytes: u64,
    /// Lookup results replied to the node.
    pub reply_keys: u64,
    /// Modelled column rows scanned in segments homed on the node.
    pub scan_rows: u64,
}

/// What one AEU did in one step, in counts: the input of the cost model.
/// Sized when the AEU and its partitions are created, cleared at the
/// start of each step; recording never allocates.
#[derive(Debug, Clone)]
pub struct StepCounts {
    pub node: NodeId,
    /// Work priced before the step and charged to it as CPU: partition
    /// transfers.
    pub transfer_ns: f64,
    /// Commands submitted through the AEU since its last step, charged to
    /// it as CPU (their flushes' round trips included, their traffic not).
    pub submitted: Routing,
    /// Commands the step routed (generated ones; forwarded strays add
    /// their flushes only).
    pub routed: Routing,
    /// Stray items forwarded.
    pub forwarded: u64,
    /// Flushes of the step's closing flush round.
    pub loop_end_flushes: u64,
    /// Per node, by index.
    pub nodes: Vec<NodeCounts>,
    /// Per data object, by id.
    pub objects: Vec<ObjectCounts>,
}

impl StepCounts {
    /// Counts of an AEU on `node`, on a machine of `nodes` nodes.
    pub fn new(node: NodeId, nodes: usize) -> Self {
        StepCounts {
            node,
            transfer_ns: 0.0,
            submitted: Routing::default(),
            routed: Routing::default(),
            forwarded: 0,
            loop_end_flushes: 0,
            nodes: vec![NodeCounts::default(); nodes],
            objects: Vec::new(),
        }
    }

    /// Make room for `object`, a partition shaped `shape`.
    pub fn add_object(&mut self, object: DataObjectId, shape: Shape) {
        let at = object.0 as usize;
        let empty = ObjectCounts {
            shape: Shape::Column,
            lookups: PointCounts::default(),
            upserts: PointCounts::default(),
            scans: 0,
            scan_rows: 0,
        };
        if self.objects.len() <= at {
            self.objects.resize(at + 1, empty);
        }
        self.objects[at] = ObjectCounts { shape, ..empty };
    }

    /// Start a step: nothing counted yet but what was priced or submitted
    /// before it.
    pub fn begin_step(&mut self, transfer_ns: f64, submitted: Routing) {
        self.transfer_ns = transfer_ns;
        self.submitted = submitted;
        self.routed = Routing::default();
        self.forwarded = 0;
        self.loop_end_flushes = 0;
        self.nodes.fill(NodeCounts::default());
        for o in &mut self.objects {
            *o = ObjectCounts {
                shape: o.shape,
                lookups: PointCounts::default(),
                upserts: PointCounts::default(),
                scans: 0,
                scan_rows: 0,
            };
        }
    }

    /// The counts of `object`'s partition.
    pub fn counts_of(&mut self, object: DataObjectId) -> &mut ObjectCounts {
        // BOUNDS: every partition an AEU holds got its slot when it was
        // created (`add_object`).
        &mut self.objects[object.0 as usize]
    }

    /// Count the bytes of `flushes`, whose targets live on `node_of`.
    pub(crate) fn add_flushes(&mut self, flushes: &[FlushInfo], node_of: &[NodeId]) {
        for f in flushes {
            // BOUNDS: flush targets are AEUs of the engine, and `node_of`
            // maps each of them to one of the machine's nodes.
            self.nodes[node_of[f.target.index()].index()].flush_bytes += f.bytes;
        }
    }

    /// The step's operation tallies.
    pub fn ops(&self) -> OpCounts {
        let mut ops = OpCounts {
            commands_routed: self.routed.commands,
            forwarded: self.forwarded,
            ..OpCounts::default()
        };
        for o in &self.objects {
            ops.lookups += o.lookups.ops;
            ops.upserts += o.upserts.ops;
            ops.scans += o.scans;
            ops.scan_rows += o.scan_rows;
        }
        ops
    }
}

/// What a partition transfer moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Moved {
    /// Index pairs: flattened, streamed, rebuilt by the receiver.
    Pairs,
    /// Column rows: streamed, no rebuild.
    Rows,
}

impl CostParams {
    /// Virtual duration of an epoch in which the AEUs did `steps`, whose
    /// traffic is fair-shared all at once (and recorded on `counters`);
    /// each step's own time goes to `step_ns`, in order.  Per AEU,
    /// streaming (serial) flows add up, while posted (overlapped) flows
    /// share the worker's aggregate rate; an AEU takes `cpu /
    /// frequency_scale + max(latency, bandwidth)`.  The slowest AEU sets
    /// the epoch, and an idle epoch still advances a 1 µs quantum.
    pub fn epoch_ns<'a>(
        &self,
        topo: &Topology,
        steps: impl IntoIterator<Item = &'a StepCounts>,
        counters: &mut HwCounters,
        step_ns: &mut Vec<f64>,
    ) -> f64 {
        let mut flows = Vec::new();
        // Per step: CPU, latency, and where its serial flows start and
        // its overlapped flows start and end.
        let mut work = Vec::new();
        for s in steps {
            let start = flows.len();
            let (cpu, latency, overlapped) = self.step_work(topo, s, &mut flows);
            work.push((cpu, latency, start..overlapped, overlapped..flows.len()));
        }
        let rates = FlowSolver::new(topo).solve(&flows).rates;
        for f in &flows {
            counters.record(topo, f.src, f.home, f.bytes);
        }
        step_ns.clear();
        let mut duration: f64 = 0.0;
        for (cpu, latency, serial, overlapped) in work {
            let serial_ns = serial.fold(0.0, |ns, i| ns + flows[i].bytes as f64 / rates[i]);
            let (over_bytes, over_rate) = overlapped.fold((0.0, 0.0), |(b, r), i| {
                (b + flows[i].bytes as f64, r + rates[i])
            });
            let overlapped_ns = if over_rate > 0.0 {
                over_bytes / over_rate
            } else {
                0.0
            };
            let t = cpu / self.frequency_scale + latency.max(serial_ns + overlapped_ns);
            step_ns.push(t);
            duration = duration.max(t);
        }
        duration.max(1_000.0)
    }

    /// The CPU and latency time of step `s`; its memory traffic goes to
    /// `flows`, one flow per (home, kind) it touched: the serial ones
    /// (scans) first, then, from the returned index on, the overlapped
    /// ones (miss lines, replies, appends, flush copies).
    fn step_work(
        &self,
        topo: &Topology,
        s: &StepCounts,
        flows: &mut Vec<Flow>,
    ) -> (f64, f64, usize) {
        let spec = topo.node_spec(s.node);
        let cache_bytes = spec.llc_mib as f64 * 1048576.0 / spec.cores as f64;
        // Threshold flushes hammer the *same* remote descriptor line back
        // to back, so each CAS pays the full round trip — the small-buffer
        // penalty of Figure 5.  Loop-end flushes go to distinct targets
        // and overlap like posted stores, divided by twice the load MLP,
        // as do replies.  Pre-buffering amortizes both over whole buffers.
        let flush_ns = self.flush_latency_factor * FLUSH_BASE_LATENCY_NS;
        let posted_ns = FLUSH_BASE_LATENCY_NS / (2.0 * self.mlp);
        let mut cpu = s.transfer_ns
            + self.routing_ns(&s.submitted)
            + s.submitted.flushes as f64 * flush_ns
            + self.routing_ns(&s.routed)
            + s.forwarded as f64 * self.cpu_ns_per_routed_cmd;
        let mut latency = s.routed.flushes as f64 * flush_ns
            + s.loop_end_flushes as f64 * (self.flush_latency_factor * posted_ns);
        // Local traffic that is not per node: miss lines and appended
        // rows (posted), index range scans (serial).  A point group whose
        // misses round to no bytes still streams, as does an empty scan.
        let (mut posted, mut posted_any) = (0u64, false);
        let (mut scanned, mut scanned_any) = (0u64, false);
        for o in &s.objects {
            cpu += self.exec_ns(o) + o.lookups.ops as f64 * 2.0;
            latency += o.lookups.commands as f64 * posted_ns;
            let mut points = [o.lookups, o.upserts];
            if let Shape::Column = o.shape {
                posted += o.upserts.ops * 8;
                posted_any |= o.upserts.commands > 0;
                points[1].ops = 0;
            } else if o.scans > 0 {
                scanned += o.scan_rows * 16;
                scanned_any = true;
            }
            for g in points.iter().filter(|g| g.ops > 0) {
                let misses = self.point_misses(o.shape, g.model_len, cache_bytes);
                latency += g.ops as f64 * misses * spec.local_latency_ns / self.mlp;
                posted += (g.ops as f64 * misses * self.cache_line as f64) as u64;
                posted_any = true;
            }
        }
        let homes = s
            .nodes
            .iter()
            .enumerate()
            .map(|(n, c)| (NodeId(n as u16), c));
        for (home, c) in homes.clone() {
            let local = home == s.node;
            if c.scan_rows > 0 || (local && scanned_any) {
                let bytes = c.scan_rows * 8 + if local { scanned } else { 0 };
                flows.push(Flow::new(s.node, home, bytes));
            }
        }
        let overlapped = flows.len();
        for (home, c) in homes {
            let local = home == s.node;
            let bytes = c.flush_bytes + c.reply_keys * 16 + if local { posted } else { 0 };
            if bytes > 0 || (local && posted_any) {
                flows.push(Flow::new(s.node, home, bytes));
            }
        }
        (cpu, latency, overlapped)
    }

    /// CPU time of routing: the batch target lookup and encode of each
    /// sub-command, and the split of each key.
    fn routing_ns(&self, r: &Routing) -> f64 {
        r.subcommands as f64 * self.cpu_ns_per_routed_cmd
            + r.keys as f64 * self.cpu_ns_per_routed_key
    }

    /// CPU time of one point operation on a partition shaped `shape`.
    fn point_cpu_ns(&self, shape: Shape) -> f64 {
        match shape {
            Shape::Tree(cfg) => {
                self.cpu_ns_per_point_op + cfg.levels() as f64 * self.cpu_ns_per_tree_level
            }
            // A hash probe touches ~1.3 buckets: constant work.
            Shape::Hash => self.cpu_ns_per_point_op + 2.0 * self.cpu_ns_per_tree_level,
            Shape::Column => self.cpu_ns_per_point_op,
        }
    }

    /// Expected LLC misses per point operation on a partition of
    /// `model_len` modelled keys, given the AEU's cache share.
    fn point_misses(&self, shape: Shape, model_len: u64, cache_bytes: f64) -> f64 {
        match shape {
            Shape::Tree(cfg) => expected_tree_misses(model_len.max(1), cfg, cache_bytes),
            Shape::Hash => expected_hash_misses(model_len.max(1), cache_bytes),
            Shape::Column => 0.0,
        }
    }

    /// Execution (CPU) time of one step's work on one partition: its
    /// point operations, appended rows and scanned rows.  The monitor's
    /// execution-time metric adds these up.
    pub fn exec_ns(&self, o: &ObjectCounts) -> f64 {
        let point = self.point_cpu_ns(o.shape);
        let upsert = match o.shape {
            Shape::Column => self.cpu_ns_per_scan_row + self.cpu_ns_per_upsert,
            _ => point + self.cpu_ns_per_upsert,
        };
        o.lookups.ops as f64 * point
            + o.upserts.ops as f64 * upsert
            + o.scan_rows as f64 * self.cpu_ns_per_scan_row
    }

    /// Bytes one moved key or row takes on the way.
    pub fn moved_bytes(&self, moved: Moved) -> u64 {
        match moved {
            Moved::Pairs => self.transfer_bytes_per_key,
            Moved::Rows => 8,
        }
    }

    /// Virtual time a transfer of `scaled` modelled keys or rows from an
    /// AEU on `from` to one on `to` costs the donor and the receiver.
    /// Within a node it is a *link*; across nodes a *copy* streams the
    /// bytes over the route (recorded on `counters`) and the receiver
    /// rebuilds an index from them.
    pub fn transfer_ns(
        &self,
        topo: &Topology,
        (from, to): (NodeId, NodeId),
        scaled: f64,
        moved: Moved,
        counters: &mut HwCounters,
    ) -> (f64, f64) {
        if from == to {
            return (self.link_transfer_ns, self.link_transfer_ns);
        }
        let bytes = scaled * self.moved_bytes(moved) as f64;
        let route = topo.route(from, to).expect("connected");
        let stream_ns = route.latency_ns + bytes / route.bandwidth_gbps;
        counters.record(topo, to, from, bytes as u64);
        let rebuild = match moved {
            Moved::Pairs => self.rebuild_ns_per_key,
            Moved::Rows => 0.0,
        };
        (stream_ns, stream_ns + scaled * rebuild)
    }
}

/// Expected LLC misses per lookup for a tree of `keys` dense keys when
/// `cache_bytes` of LLC are effectively available to it.  The level sizes
/// are the tree's own ([`PrefixTreeConfig::dense_level_bytes`]), checked
/// against a built tree below.
///
/// Greedy top-down residency: hot levels (touched by *every* lookup) occupy
/// the cache first; a partially resident level misses with the uncovered
/// fraction.  This is the standard "cache the top of the tree" model and
/// reproduces the measured behaviour: small trees run cache-resident, big
/// trees pay roughly one miss per uncached level.
pub fn expected_tree_misses(keys: u64, cfg: PrefixTreeConfig, cache_bytes: f64) -> f64 {
    let mut budget = cache_bytes;
    let mut misses = 0.0;
    for bytes in cfg.dense_level_bytes(keys) {
        if budget >= bytes {
            budget -= bytes;
        } else if budget > 0.0 {
            misses += 1.0 - budget / bytes;
            budget = 0.0;
        } else {
            misses += 1.0;
        }
    }
    misses
}

/// Bytes a hash partition spends per key: one bucket at the table's load
/// limit.  Taken from the structure's own constants, and checked against a
/// built table below, so model and table cannot drift apart.
pub const HASH_BYTES_PER_KEY: f64 =
    HashTable::SLOT_BYTES as f64 * 100.0 / HashTable::MAX_LOAD_PERCENT as f64;

/// Expected LLC misses per point access of a per-partition hash table of
/// `keys` entries against `cache_bytes` of effective cache.
///
/// The bucket array ([`HASH_BYTES_PER_KEY`]) is accessed uniformly, so
/// the resident fraction is simply cache/array; a Robin-Hood probe touches
/// ~1.3 lines of it on average.
pub fn expected_hash_misses(keys: u64, cache_bytes: f64) -> f64 {
    const AVG_PROBES: f64 = 1.3;
    let array_bytes = keys as f64 * HASH_BYTES_PER_KEY;
    let resident = (cache_bytes / array_bytes).clamp(0.0, 1.0);
    AVG_PROBES * (1.0 - resident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eris_index::PrefixTree;

    fn cfg() -> PrefixTreeConfig {
        PrefixTreeConfig::new(8, 64)
    }

    #[test]
    fn level_bytes_grow_towards_leaves() {
        let lv: Vec<f64> = cfg().dense_level_bytes(1 << 30).collect();
        assert_eq!(lv.len(), 8);
        for w in lv.windows(2) {
            assert!(w[0] <= w[1] * 1.01, "levels grow monotonically: {lv:?}");
        }
        // Leaf level of a 2^30-key dense tree: 2^22 leaves, each a 2048 B
        // value block behind a descriptor and four presence words.
        let expected_leaf = (1u64 << 22) as f64 * (256.0 * 8.0 + 40.0);
        assert!((lv[7] - expected_leaf).abs() / expected_leaf < 0.01);
    }

    #[test]
    fn tree_level_bytes_match_a_built_tree() {
        // A power of two and an odd size, bulk-loaded as the engine loads a
        // partition, over a 32- and a 64-bit domain.
        for key_bits in [32, 64] {
            let cfg = PrefixTreeConfig::new(8, key_bits);
            for n in [1u64 << 16, 100_003] {
                let mut t = PrefixTree::with_config(cfg, 0);
                t.upsert_batch(&(0..n).map(|k| (k, k)).collect::<Vec<_>>());
                let built = t.memory_bytes() as f64;
                let model: f64 = cfg.dense_level_bytes(n).sum();
                let off = (model / built - 1.0).abs();
                assert!(
                    off < 0.05,
                    "{key_bits}-bit, {n} keys: built {built} B, model {model} B"
                );
            }
        }
    }

    #[test]
    fn tiny_tree_is_fully_cached() {
        // 65k keys ~ a few MB; fits in a 24 MiB LLC entirely.
        let m = expected_tree_misses(1 << 16, cfg(), 24.0 * (1 << 20) as f64);
        assert!(m < 0.01, "expected ~0 misses, got {m}");
    }

    #[test]
    fn huge_tree_misses_in_lower_levels() {
        // 2^31 keys ~ 50+ GB of tree; only the top fits in 24 MiB.
        // Dense trees are flat: the leaf level always misses and the level
        // above misses partially once it outgrows the cache.
        let m = expected_tree_misses(1 << 31, cfg(), 24.0 * (1 << 20) as f64);
        assert!(m > 1.0, "bottom levels must miss, got {m}");
        assert!(m < 8.0);
    }

    #[test]
    fn misses_decrease_with_more_cache() {
        let keys = 1 << 28;
        let small = expected_tree_misses(keys, cfg(), 2.0 * (1 << 20) as f64);
        let large = expected_tree_misses(keys, cfg(), 64.0 * (1 << 20) as f64);
        assert!(large < small);
    }

    #[test]
    fn misses_increase_with_tree_size() {
        let cache = 12.0 * (1 << 20) as f64;
        let mut prev = 0.0;
        for keys in [1u64 << 20, 1 << 24, 1 << 28, 1 << 32] {
            let m = expected_tree_misses(keys, cfg(), cache);
            assert!(m >= prev, "monotone in size");
            prev = m;
        }
    }

    #[test]
    fn partitioning_reduces_misses() {
        // The ERIS effect: 64 partitions of K/64 keys with LLC/8 each miss
        // less than one shared tree of K keys with one node's LLC.
        let llc = 16.0 * (1 << 20) as f64;
        let keys = 1u64 << 30;
        let eris = expected_tree_misses(keys / 64, cfg(), llc / 8.0);
        let shared = expected_tree_misses(keys, cfg(), llc);
        assert!(
            eris < shared,
            "partitioned: {eris} misses, shared: {shared} misses"
        );
    }

    #[test]
    fn hash_misses_scale_with_size() {
        let cache = 4.0 * (1 << 20) as f64;
        // Table fits in cache: no misses.
        assert_eq!(expected_hash_misses(1 << 10, cache), 0.0);
        // Table far larger than cache: ~1.3 misses per probe.
        let big = expected_hash_misses(1 << 30, cache);
        assert!(big > 1.2 && big <= 1.3, "{big}");
        // Hash point access beats a deep tree when both are uncached.
        let tree = expected_tree_misses(1 << 30, cfg(), cache);
        assert!(big < tree + 0.5, "hash {big} vs tree {tree}");
    }

    #[test]
    fn epoch_cost_composes_cpu_latency_and_fair_shared_bandwidth() {
        use eris_numa::machines::custom_machine;
        let topo = custom_machine("m", 2, 1, 20.0, 100.0, 10.0, 60.0);
        let params = CostParams {
            frequency_scale: 0.5,
            ..CostParams::default()
        };
        let mut counters = HwCounters::new(&topo);
        let mut step_ns = Vec::new();
        // AEU 0 scans rows homed on both nodes (serial flows), AEU 1
        // flushes to both (overlapped ones).
        let mut both = [StepCounts::new(NodeId(0), 2), StepCounts::new(NodeId(1), 2)];
        both[0].nodes[0].scan_rows = (1 << 20) / 8;
        both[0].nodes[1].scan_rows = (1 << 18) / 8;
        both[1].nodes[0].flush_bytes = 1 << 19;
        both[1].nodes[1].flush_bytes = 1 << 21;
        // The flows the counts stand for, in the order they are priced.
        let flows = [
            Flow::new(NodeId(0), NodeId(0), 1 << 20),
            Flow::new(NodeId(0), NodeId(1), 1 << 18),
            Flow::new(NodeId(1), NodeId(0), 1 << 19),
            Flow::new(NodeId(1), NodeId(1), 1 << 21),
        ];
        let r = FlowSolver::new(&topo).solve(&flows).rates;
        let b = |i: usize| flows[i].bytes as f64;
        // Serial flows add; overlapped ones move their bytes at their
        // summed rates.  CPU runs at the scaled frequency, and the slower
        // AEU sets the epoch.
        let (serial_ns, overlapped_ns) = (b(0) / r[0] + b(1) / r[1], (b(2) + b(3)) / (r[2] + r[3]));
        both[0].transfer_ns = 1e6;
        let epoch = params.epoch_ns(&topo, &both, &mut counters, &mut step_ns);
        assert_eq!(epoch, 1e6 / 0.5 + serial_ns);
        assert_eq!(step_ns, [1e6 / 0.5 + serial_ns, overlapped_ns]);
        both[1].transfer_ns = 4e6;
        let epoch = params.epoch_ns(&topo, &both, &mut counters, &mut step_ns);
        assert_eq!(epoch, 4e6 / 0.5 + overlapped_ns);
        // Latency beyond the bandwidth time bounds an AEU instead: four
        // million threshold flushes of 250 ns round trip each.
        both[1].routed.flushes = 4_000_000;
        let epoch = params.epoch_ns(&topo, &both, &mut counters, &mut step_ns);
        assert_eq!(epoch, 4e6 / 0.5 + 1e9);
        // An empty epoch lasts one scheduling quantum.
        assert_eq!(
            params.epoch_ns(&topo, &[], &mut counters, &mut step_ns),
            1_000.0
        );
        assert!(step_ns.is_empty());
        let moved: u64 = flows.iter().map(|f| f.bytes).sum();
        assert_eq!(counters.total_imc_bytes(), 3 * moved, "traffic recorded");
    }

    #[test]
    fn a_cached_point_group_still_streams_and_submissions_are_cpu_only() {
        use eris_numa::machines::custom_machine;
        let topo = custom_machine("m", 2, 1, 20.0, 100.0, 10.0, 60.0);
        let params = CostParams {
            frequency_scale: 0.5,
            ..CostParams::default()
        };
        let mut counters = HwCounters::new(&topo);
        let mut step_ns = Vec::new();
        // 256 lookups in one command on a hash partition small enough to
        // stay cached: no misses, so its local miss stream has 0 bytes,
        // beside the replies to node 1.
        let object = DataObjectId(0);
        let mut s = StepCounts::new(NodeId(0), 2);
        s.add_object(object, Shape::Hash);
        let g = s.counts_of(object).points(StorageOp::Lookup);
        *g = PointCounts {
            commands: 1,
            ops: 256,
            model_len: 1000,
        };
        s.nodes[1].reply_keys = 256;
        let spec = topo.node_spec(NodeId(0));
        let cache_bytes = spec.llc_mib as f64 * 1048576.0 / spec.cores as f64;
        assert_eq!(params.point_misses(Shape::Hash, 1000, cache_bytes), 0.0);
        // The 0-byte stream still takes its fair share, and its rate adds
        // into the step's overlapped rate.
        let flows = [
            Flow::new(NodeId(0), NodeId(0), 0),
            Flow::new(NodeId(0), NodeId(1), 256 * 16),
        ];
        let r = FlowSolver::new(&topo).solve(&flows).rates;
        let cpu = 256.0 * params.point_cpu_ns(Shape::Hash) + 256.0 * 2.0;
        let replies_ns = 256.0 * 16.0 / (r[0] + r[1]);
        let latency = FLUSH_BASE_LATENCY_NS / (2.0 * params.mlp);
        assert!(replies_ns > latency);
        let epoch = params.epoch_ns(&topo, [&s], &mut counters, &mut step_ns);
        assert_eq!(epoch, cpu / 0.5 + replies_ns);
        assert_eq!((counters.local_requests, counters.remote_requests), (1, 1));

        // A submission's routing — its split, its encodes and its
        // threshold flushes' round trips — is CPU of the next step, and
        // the bytes those flushes copied are not counted.
        let mut s = StepCounts::new(NodeId(0), 2);
        s.submitted = Routing {
            commands: 1,
            subcommands: 2,
            keys: 256,
            flushes: 3,
        };
        let mut counters = HwCounters::new(&topo);
        let epoch = params.epoch_ns(&topo, [&s], &mut counters, &mut step_ns);
        let routing = 2.0 * params.cpu_ns_per_routed_cmd + 256.0 * params.cpu_ns_per_routed_key;
        assert_eq!(epoch, (routing + 3.0 * FLUSH_BASE_LATENCY_NS) / 0.5);
        assert_eq!(counters.total_imc_bytes(), 0);
        assert_eq!((counters.local_requests, counters.remote_requests), (0, 0));
    }

    #[test]
    fn hash_bytes_per_key_match_a_built_table() {
        // A power of two (where a power-of-two array would sit half empty)
        // and an odd size, bulk-loaded as the engine loads a partition.
        for n in [1u64 << 16, 100_003] {
            let mut t = HashTable::new(7, 0);
            t.upsert_batch(&(0..n).map(|k| (k, k)).collect::<Vec<_>>());
            let built = t.memory_bytes() as f64 / t.len() as f64;
            let off = (built / HASH_BYTES_PER_KEY - 1.0).abs();
            assert!(
                off < 0.05,
                "{n} keys: built {built} B/key, model {HASH_BYTES_PER_KEY}"
            );
        }
    }
}
