//! Per-tenant admission counters.
//!
//! A [`TenantShard`] has one writer, the serving loop that owns the
//! [`Admission`](crate::Admission), so its counters are bumped with
//! `eris_core::telemetry::bump` (a relaxed load and store) rather than a
//! locked read-modify-write.  They are not part of any loom model: one
//! writer leaves no interleaving to explore.

// ordering: Relaxed is the only ordering this module imports — the
// counters are monotonic telemetry with no payload to publish.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Per-tenant admission counter shard (exported per tenant as
/// `eris_server_*_total{tenant=...}`).  Its one writer is the serving
/// loop that owns the [`Admission`](crate::Admission); any thread may
/// read it.
#[derive(Debug, Default)]
pub struct TenantShard {
    /// Commands admitted and routed into the engine.
    pub accepted: AtomicU64,
    /// Commands shed by the overload watermark.
    pub shed: AtomicU64,
    /// Commands denied by the tenant's token bucket.
    pub quota_denied: AtomicU64,
    /// Pump cycles in which a connection of this tenant had frames
    /// waiting but an empty credit window (backpressure engaged).
    pub credits_stalled: AtomicU64,
    /// Commands answered with a typed reject (decode/routing/protocol).
    pub rejected: AtomicU64,
}

/// A plain-integer copy of one tenant's shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounts {
    pub tenant: u32,
    pub accepted: u64,
    pub shed: u64,
    pub quota_denied: u64,
    pub credits_stalled: u64,
    pub rejected: u64,
}

impl TenantShard {
    pub fn counts(&self, tenant: u32) -> TenantCounts {
        TenantCounts {
            tenant,
            accepted: self.accepted.load(Relaxed),
            shed: self.shed.load(Relaxed),
            quota_denied: self.quota_denied.load(Relaxed),
            credits_stalled: self.credits_stalled.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
        }
    }
}
