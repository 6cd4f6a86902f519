//! # eris-column — the column store of an AEU partition
//!
//! Each AEU stores its column-partition as a sequence of fixed-capacity
//! [`Segment`]s, each homed on a NUMA node (for ERIS, always the AEU's own
//! node; the baselines home segments on one node or round-robin across all,
//! reproducing the *Single RAM* and *Interleaved* strategies of Figure 9).
//!
//! Analytical workloads are append-only; visibility is snapshot-by-length
//! (an MVCC degenerate that is exact for insert-only data): a scan opened at
//! snapshot `s` sees exactly the first `s` rows.  Combined with
//! [`scan::SharedScan`], multiple scan commands coalesce into a single pass
//! over the data — the scan-sharing optimization of Section 3.1.

pub mod column;
pub mod kernel;
pub mod scan;
pub mod simd;

pub use column::{Column, Predicate, Segment, DEFAULT_SEGMENT_CAPACITY};
pub use kernel::{CompiledPredicate, CHUNK_ROWS};
pub use scan::{Aggregate, ScanKernel, SharedScan};
pub use simd::SimdLevel;
