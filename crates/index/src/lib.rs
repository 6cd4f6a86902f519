//! # eris-index — in-memory index structures
//!
//! Section 4 of the paper: *"An AEU implements a simple column store as well
//! as a prefix tree as index.  We decided to use a prefix tree, because this
//! index structure is order-preserving, in-memory optimized, and offers a
//! high update performance.  To implement the range partition tables of
//! ERIS, we decided to deploy a CSB+-Tree."*
//!
//! * [`PrefixTree`] — the generalized prefix tree (Böhm et al., BTW'11):
//!   order-preserving trie over fixed-width key digits with a configurable
//!   prefix length (default 8 bit), supporting point and range operations,
//!   splitting/merging for partition rebalancing, and flattening to a
//!   sorted stream for inter-node *copy* transfers.  The NUMA-agnostic
//!   baseline of Section 4 is one unpartitioned instance of the same tree
//!   (`eris_core::baseline`).
//! * [`CsbTree`] — a cache-sensitive B+-tree mapping range boundaries to
//!   targets, used for the routing layer's range partition tables.
//! * [`HashTable`] — a per-partition Robin-Hood hash table with a
//!   per-instance hash function ("ERIS supports hash tables by using
//!   different hash functions on a per-partition level"), for partitions
//!   that never need range scans.

mod chunk;
pub mod csb_tree;
pub mod hash_table;
mod prefetch;
pub mod prefix_tree;

pub use chunk::CHUNK_BYTES;
pub use csb_tree::CsbTree;
pub use hash_table::HashTable;
pub use prefix_tree::{PrefixTree, PrefixTreeConfig};
