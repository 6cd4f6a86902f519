//! # eris-core — a NUMA-aware in-memory storage engine
//!
//! A from-scratch reproduction of **ERIS** ("ERIS: A NUMA-Aware In-Memory
//! Storage Engine for Analytical Workloads", Kissinger, Kiefer, Schlegel,
//! Habich, Molka, Lehner; ADMS'14 — demonstrated at SIGMOD 2014 as "ERIS
//! live").  ERIS is a data-oriented (DORA-style) engine: data objects are
//! partitioned over **Autonomous Execution Units** — one worker pinned per
//! core — that exclusively own their partitions and exchange *data
//! commands* (scan, lookup, insert/upsert) through a NUMA-optimized
//! high-throughput routing layer.  A configurable, NUMA-aware load
//! balancer adapts the partitioning to the workload.
//!
//! ## Quick start
//!
//! ```
//! use eris_core::prelude::*;
//!
//! // An engine on a simulated 4-node Intel box (Table 1 of the paper).
//! let mut engine = Engine::new(eris_numa::intel_machine(), EngineConfig {
//!     collect_results: true,
//!     ..Default::default()
//! });
//! let idx = engine.create_index("orders", 1 << 20);
//! engine.bulk_load_index(idx, (0..1000u64).map(|k| (k, k * 2)));
//!
//! // Route a lookup through the data command routing layer.
//! engine.submit(AeuId(0), DataCommand {
//!     object: idx,
//!     ticket: 1,
//!     payload: Payload::Lookup { keys: vec![21, 999_999] },
//! }).unwrap();
//! engine.run_until_drained();
//!
//! let mut results = engine.results().take_lookup_values();
//! results.sort();
//! assert_eq!(results, vec![(1, 21, Some(42)), (1, 999_999, None)]);
//! ```
//!
//! ## Crate map
//!
//! * [`command`] — data commands and their wire format.
//! * [`routing`] — partition tables (CSB+-tree backed), per-target
//!   outgoing + multicast buffers, and the latch-free incoming double
//!   buffer with the 64-bit `[active|offset|writers]` descriptor.
//! * [`aeu`] — the AEU loop: group → process (scan sharing, batched
//!   lookups) → balancing.
//! * [`balancer`] — One-Shot and Moving-Average target partitioning,
//!   transfer planning, link/copy execution.
//! * [`engine`] — construction, the cooperative virtual-time runtime, and
//!   a threaded runtime exercising the real atomics.
//! * [`telemetry`] — shard-per-AEU live counters and histograms, folded
//!   into consistent `TelemetrySnapshot`s with a per-object
//!   enqueued-equals-executed conservation ledger.
//! * [`durability`] — the redo-sink seam the `eris-durability` crate plugs
//!   into: per-AEU journaling of applied effects plus checkpoint metadata.
//! * [`baseline`] — the NUMA-agnostic shared index / shared scan the paper
//!   compares against.
//! * [`cost`] — virtual-time calibration and the analytic LLC model.

pub mod aeu;
pub mod balancer;
pub mod baseline;
pub mod command;
pub mod cost;
pub mod durability;
pub mod engine;
pub mod monitor;
pub mod results;
pub mod routing;
pub mod telemetry;

pub use aeu::{AbsorbError, Aeu, OpCounts, Partition, PartitionData};
pub use balancer::{BalanceAlgorithm, BalanceMetric, BalancerConfig};
pub use command::{AeuId, CommandRef, DataCommand, DataObjectId, DecodeError, Payload, StorageOp};
pub use cost::{CostParams, StepCounts};
pub use durability::{ObjectClass, ObjectDescriptor, RedoOp, RedoSink};
pub use engine::{Engine, EngineConfig, EpochReport, QuiesceReport};
pub use monitor::{BalanceDecision, BalanceVerdict, MigrationRecord, Monitor, Sample};
pub use results::{ResultCollector, ResultCounts};
pub use routing::{RoutingConfig, RoutingError};
pub use telemetry::{CounterSnapshot, Telemetry, TelemetrySnapshot};

/// Everything needed to drive the engine.
pub mod prelude {
    pub use crate::aeu::{CommandGen, OpCounts};
    pub use crate::balancer::{BalanceAlgorithm, BalanceMetric, BalancerConfig};
    pub use crate::command::{AeuId, DataCommand, DataObjectId, Payload, StorageOp};
    pub use crate::cost::CostParams;
    pub use crate::engine::{Engine, EngineConfig, EpochReport, QuiesceReport};
    pub use crate::results::{ResultCollector, ResultCounts};
    pub use crate::routing::{RoutingConfig, RoutingError};
    pub use crate::telemetry::{CounterSnapshot, TelemetrySnapshot};
    pub use eris_column::{Aggregate, Predicate};
    pub use eris_index::PrefixTreeConfig;
}
