//! # eris-obs — observability primitives for the ERIS engine
//!
//! The SIGMOD 2014 source paper is a *demo*: a live monitoring UI over
//! the engine showing per-AEU utilization, per-partition heat, and
//! balancer activity in real time.  This crate provides the plumbing
//! that view is built on, as a **leaf crate** (no dependency on
//! `eris-core`) so the engine, the durability layer, and the harness can
//! all emit into it without a dependency cycle:
//!
//! * [`event`] — the typed trace-event taxonomy ([`TraceEvent`]) and the
//!   wall-clock-stamped form stored in rings ([`Stamped`]).
//! * [`ring`] — [`TraceRing`], a bounded lock-free multi-writer
//!   overwrite-oldest event ring with exact drop accounting
//!   (`emitted == retained + dropped`, always).
//! * [`latency`] — [`LatencyTable`], per-(object, command-kind) latency
//!   histograms decomposing sampled end-to-end command latency into
//!   queue-wait vs execution vs forwarding hops, plus per-tenant
//!   full-path histograms fed by serving-layer traces.
//! * [`exemplar`] — [`ExemplarTable`], one seqlock slot per latency
//!   bucket retaining the most recent trace id + span breakdown so a
//!   tail-bucket outlier links to its full-path trace.
//! * [`slo`] — [`SloEngine`], per-tenant latency/error objectives with
//!   multi-window error-budget burn-rate computation.
//! * [`profiler`] — [`PhaseProfiler`], lock-free per-AEU attribution of
//!   epoch wall time to phases, with a collapsed-stack (flamegraph)
//!   renderer.
//! * [`clock`] — a process-wide monotonic nanosecond clock valid under
//!   both the cooperative and the real-thread runtime.
//! * [`export`] — a neutral [`Metric`] IR with Prometheus text-format
//!   and JSON-lines renderers.
//! * [`json`] — a minimal JSON parser used by round-trip tests and the
//!   `eris-live` self-check (the workspace has no serde).
//!
//! Identifiers cross this crate's boundary as raw integers (`u32`
//! object/AEU ids, `u8` op tags); `eris-core` owns the typed wrappers.

pub mod clock;
pub mod event;
pub mod exemplar;
pub mod export;
pub mod json;
pub mod latency;
pub mod profiler;
pub mod ring;
pub mod slo;

pub use clock::now_ns;
pub use event::{
    Stamped, TraceEvent, TraceStamp, PHASE_BEGIN, PHASE_COMMITTED, PHASE_PARTS_WRITTEN, TENANT_NONE,
};
pub use exemplar::{Exemplar, ExemplarTable};
pub use export::{
    render_events_jsonl, render_jsonl, render_prometheus, HistogramFamily, Metric, MetricKind,
    MetricSample,
};
pub use latency::{LatencyKey, LatencyRecord, LatencySeries, LatencyTable, LogHistogram};
pub use profiler::{collapsed_stack, Phase, PhaseBreakdown, PhaseProfiler, NUM_PHASES};
pub use ring::{RingStats, TraceRing};
pub use slo::{BurnRate, SloConfig, SloEngine, SloTotals};
