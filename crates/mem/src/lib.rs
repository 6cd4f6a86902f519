//! # eris-mem — where a span of memory is homed
//!
//! Section 3.1 of the paper gives ERIS one memory manager per
//! multiprocessor so that every AEU allocation is node-local.  In this
//! reproduction the engine has one allocator, the process's global one:
//! each AEU creates and fills its own partitions (tree arenas, hash chunks,
//! column segments), and which node that memory is homed on is a fact of
//! the simulated machine — the cost model charges an AEU's structures to
//! its own node, and every column segment carries its home tag.  DESIGN.md
//! lists this under "Known deviations".
//!
//! What this crate keeps is the decision Section 4.2.2 (Figure 9) varies:
//! on which node a span is homed ([`Policy`]), with a per-node tally of
//! the bytes placed there ([`MemoryManager`]).

pub mod manager;

pub use manager::{Allocation, MemoryManager, Policy};
