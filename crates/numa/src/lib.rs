//! # eris-numa — simulated NUMA platform
//!
//! ERIS ("ERIS: A NUMA-Aware In-Memory Storage Engine for Analytical
//! Workloads", Kissinger et al., ADMS'14) was evaluated on three physical
//! NUMA machines: a 4-node Intel box, an 8-node AMD box, and a 64-node SGI
//! UV 2000.  This crate reproduces those platforms in software so the engine
//! above it can be exercised and measured without the hardware:
//!
//! * [`topology`] — nodes, cores, and the interconnect graph (QPI,
//!   HyperTransport with split sublinks, NumaLink hypercubes), with
//!   precomputed shortest routes between every node pair.
//! * [`machines`] — faithful builders for the three machines of Table 1 of
//!   the paper, plus a generic builder for custom platforms.
//! * [`cost`] — the per-distance latency/bandwidth cost model calibrated
//!   against Table 2 of the paper.
//! * [`flows`] — a max-min fair bandwidth-sharing solver that turns a set of
//!   concurrent memory flows into per-flow throughput, modelling link and
//!   memory-controller contention.
//! * [`clock`] — the virtual clock used by the cooperative runtime.
//! * [`counters`] — per-link and per-memory-controller byte counters, the
//!   software analogue of the likwid/linkstat measurements of Section 4.
//! * [`cache`] — a set-associative last-level-cache simulator with MESIF
//!   line states and a coherence directory (Figures 10 and 11).
//! * [`affinity`] — thread-to-core pinning via `libc` for the threaded
//!   runtime.

pub mod affinity;
pub mod cache;
pub mod clock;
pub mod cost;
pub mod counters;
pub mod flows;
pub mod machines;
pub mod topology;

pub use cache::{CacheConfig, CacheSim, LineState};
pub use clock::VirtualClock;
pub use cost::{CostModel, DistanceClass};
pub use counters::HwCounters;
pub use flows::{Flow, FlowSolver};
pub use machines::{amd_machine, intel_machine, sgi_machine, MachineSpec};
pub use topology::{CoreId, LinkId, LinkKind, NodeId, Topology};
