//! Engine-side durability hooks.
//!
//! ERIS is an in-memory engine and the paper leaves persistence out of
//! scope; this module is the narrow seam the `eris-durability` crate
//! plugs into.  The engine stays free of any file I/O: AEUs report every
//! *local state mutation* to an attached [`RedoSink`] as a [`RedoOp`],
//! and the sink (a per-AEU write-ahead journal) makes it durable.
//!
//! Ops are recorded **post-routing** — an AEU only reports the pairs it
//! actually applied to its own partition, never the strays it forwarded —
//! so replay is purely local and needs no re-routing: each AEU's log can
//! be re-applied to its own partitions independently and in order.
//! A balancing cycle of a point object is one durable unit: receivers
//! journal the pairs they absorb, donors journal nothing, and once every
//! log is synced one [`RedoOp::Bounds`] record on AEU 0's log commits the
//! cycle.  Recovery keeps in each partition only the pairs inside its
//! committed range.  A column, having no keys, journals no tail move:
//! recovery undoes a move made since the last checkpoint.

use crate::command::{AeuId, DataObjectId};

/// The storage layout of a data object: what creates it, and what
/// recovery needs to re-create it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectClass {
    /// Range-partitioned prefix tree (`Engine::create_index`).
    Tree,
    /// Range-partitioned per-AEU hash tables (`Engine::create_hash_index`).
    Hash,
    /// Size-partitioned column (`Engine::create_column`).
    Column,
}

impl ObjectClass {
    /// Stable one-byte tag for manifests and journal records.
    pub fn tag(self) -> u8 {
        match self {
            ObjectClass::Tree => 0,
            ObjectClass::Hash => 1,
            ObjectClass::Column => 2,
        }
    }

    /// Inverse of [`ObjectClass::tag`].
    pub fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(ObjectClass::Tree),
            1 => Some(ObjectClass::Hash),
            2 => Some(ObjectClass::Column),
            _ => None,
        }
    }
}

/// Metadata of one data object, for checkpoint manifests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectDescriptor {
    pub id: DataObjectId,
    pub class: ObjectClass,
    /// Key domain of range-partitioned objects (0 for columns).
    pub domain: u64,
    pub name: String,
}

/// One local state mutation, reported to the sink *after* it was applied
/// in memory.  Borrowed payloads keep the hot path allocation-free; a
/// sink that needs to retain them encodes immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedoOp<'a> {
    /// A data object came into existence (always reported via AEU 0's
    /// log, before any data op references the object).
    CreateObject {
        class: ObjectClass,
        object: DataObjectId,
        domain: u64,
        name: &'a str,
    },
    /// Pairs applied to this AEU's index/hash partition (routed upserts
    /// that passed the range validity check, bulk loads, or the absorb
    /// side of a balancing transfer).
    UpsertPairs {
        object: DataObjectId,
        pairs: &'a [(u64, u64)],
    },
    /// Rows appended to this AEU's column partition (routed appends and
    /// bulk loads; a balancing move journals nothing).
    AppendRows {
        object: DataObjectId,
        rows: &'a [u64],
    },
    /// A balancing cycle of a point object committed: its new lower
    /// bound per AEU, in AEU order (always reported via AEU 0's log,
    /// after every log holding the cycle's absorbed pairs was synced).
    Bounds {
        object: DataObjectId,
        bounds: &'a [u64],
    },
}

/// Where AEUs push their redo stream.  Implemented by the per-AEU
/// write-ahead journal in `eris-durability`; all methods may be called
/// concurrently from different AEU threads (each AEU only ever passes its
/// own id).
pub trait RedoSink: Send + Sync {
    /// Record one applied mutation of `aeu`'s state.
    fn append(&self, aeu: AeuId, op: RedoOp<'_>);

    /// The AEU finished one loop iteration — a natural group-commit
    /// boundary for buffered records.
    fn end_of_step(&self, _aeu: AeuId) {}

    /// Make every log durable before the engine goes on: what was
    /// journaled before the barrier is on disk before anything after it.
    /// It orders an object's creation before its data records, a cycle's
    /// absorbed pairs before its [`RedoOp::Bounds`] commit, and that
    /// commit before the commands that run under the new bounds.  Returns
    /// whether every log is durable up to the barrier; a sink that
    /// returns `false` journals nothing more, so a later record (a
    /// cycle's commit) never lands past a gap.
    fn barrier(&self) -> bool {
        true
    }
}
