//! Admission control: credit windows, per-tenant token buckets, and the
//! overload-shed decision — the serving layer's hot path.
//!
//! Everything here is latch-free: credit consumption happens once per
//! received command and the per-tenant counters once per decision, so
//! this module must never take a lock (`cargo xtask analyze`, rule A4).
//! It is written against the `eris-sync` facade, so a build with
//! `RUSTFLAGS="--cfg loom"` model-checks the token bucket's CAS protocol
//! (see the `loom_models` test module).  The three protocols:
//!
//! * [`CreditWindow`] — bounded outstanding commands per connection.
//!   The server consumes one credit per command it *reads* and regrants
//!   it only when the command is settled at a batch boundary; when the
//!   window is empty the server simply stops reading that connection
//!   (backpressure by withholding grants, not by buffering).  The window
//!   belongs to its connection: a plain count in a `Cell`, which keeps
//!   the type from being shared between threads at all.
//!   Invariant: `available <= limit`, always — proptested below.
//! * [`TokenBucket`] — per-tenant rate limit in milli-ops, refilled by
//!   wall (or virtual) time.  Packs `(last_refill_ms, tokens_milli)`
//!   into one atomic word so refill+take is a single CAS.
//! * [`Admission`] — the per-command decision combining the watermark
//!   shed check (computed by the server at batch boundaries) with the
//!   tenant's bucket, bumping the tenant's counter shard
//!   ([`TenantShard`]) as it decides.  The shard's counters have one
//!   writer, the serving loop, so a bump is a relaxed load and store
//!   (`eris_core::telemetry::bump`); the bucket is shared by all of a
//!   tenant's connections and keeps its CAS.

// ordering: Relaxed is the only ordering this module imports — the
// token word updated by CAS is its own ground truth; no other memory is
// published through it, so no Acquire/Release pairing is needed.
use crate::tenant::{TenantCounts, TenantShard};
use eris_core::telemetry::bump;
use eris_sync::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::cell::Cell;

/// A bounded credit window: at most `limit` commands outstanding.
#[derive(Debug)]
pub struct CreditWindow {
    available: Cell<u32>,
    limit: u32,
}

impl CreditWindow {
    /// A full window of `limit` credits (the Welcome grant).
    pub fn new(limit: u32) -> Self {
        CreditWindow {
            available: Cell::new(limit),
            limit,
        }
    }

    pub fn limit(&self) -> u32 {
        self.limit
    }

    pub fn available(&self) -> u32 {
        self.available.get()
    }

    /// Consume one credit; `false` when the window is exhausted (the
    /// caller must stall, not buffer).
    // HOT-PATH-ROOT: per-request credit check on the accept path.
    pub fn try_consume(&self) -> bool {
        let cur = self.available.get();
        if cur == 0 {
            return false;
        }
        self.available.set(cur - 1);
        true
    }

    /// Return `n` credits to the window, saturating at `limit`.  Returns
    /// how many were actually granted — the total ever available can
    /// therefore never exceed the configured bound.
    // HOT-PATH-ROOT: per-completion credit return on the reply path.
    pub fn regrant(&self, n: u32) -> u32 {
        let cur = self.available.get();
        let granted = n.min(self.limit - cur);
        self.available.set(cur + granted);
        granted
    }
}

/// Milli-ops per op: bucket arithmetic is in 1/1000 ops so slow refill
/// rates stay representable.
const MILLI: u64 = 1_000;

fn pack(last_ms: u32, tokens_milli: u32) -> u64 {
    ((last_ms as u64) << 32) | tokens_milli as u64
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// A per-tenant token bucket over a caller-supplied clock.
///
/// Time is passed in (`now_ns`) rather than read here so the
/// deterministic loopback tests and the virtual-clock runtime can drive
/// refill boundaries exactly.
#[derive(Debug)]
pub struct TokenBucket {
    /// `(last_refill_ms << 32) | tokens_milli`, CAS-updated.
    state: AtomicU64,
    capacity_milli: u32,
    refill_milli_per_sec: u64,
}

impl TokenBucket {
    /// A bucket holding at most `capacity_ops`, refilled at
    /// `refill_ops_per_sec`, starting full at time 0.
    pub fn new(capacity_ops: u32, refill_ops_per_sec: u32) -> Self {
        let capacity_milli = capacity_ops.saturating_mul(MILLI as u32);
        TokenBucket {
            state: AtomicU64::new(pack(0, capacity_milli)),
            capacity_milli,
            refill_milli_per_sec: refill_ops_per_sec as u64 * MILLI,
        }
    }

    /// Tokens currently in the bucket, in whole ops (after a refill to
    /// `now_ns`; read-only, does not update the bucket).
    pub fn level_ops(&self, now_ns: u64) -> u32 {
        let (last_ms, tokens) = unpack(self.state.load(Relaxed));
        (self.refilled(last_ms, tokens, now_ns) / MILLI as u32)
            .min(self.capacity_milli / MILLI as u32)
    }

    fn refilled(&self, last_ms: u32, tokens_milli: u32, now_ns: u64) -> u32 {
        let now_ms = (now_ns / 1_000_000) as u32;
        let elapsed_ms = now_ms.wrapping_sub(last_ms) as u64;
        let refill = elapsed_ms * self.refill_milli_per_sec / 1_000;
        (tokens_milli as u64 + refill).min(self.capacity_milli as u64) as u32
    }

    /// Take `ops` whole ops from the bucket.  On failure returns the
    /// retry-after hint in milliseconds (how long until the bucket will
    /// hold `ops` again at the configured refill rate).
    pub fn try_take(&self, ops: u32, now_ns: u64) -> Result<(), u32> {
        let cost = ops as u64 * MILLI;
        let now_ms = (now_ns / 1_000_000) as u32;
        let mut cur = self.state.load(Relaxed);
        loop {
            let (last_ms, tokens) = unpack(cur);
            let filled = self.refilled(last_ms, tokens, now_ns) as u64;
            if filled < cost {
                let deficit = cost - filled;
                if self.refill_milli_per_sec == 0 {
                    return Err(u32::MAX);
                }
                let ms = deficit * 1_000 / self.refill_milli_per_sec;
                return Err((ms.max(1)).min(u32::MAX as u64) as u32);
            }
            let next = pack(now_ms, (filled - cost) as u32);
            match self.state.compare_exchange(cur, next, Relaxed, Relaxed) {
                Ok(_) => return Ok(()),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Admission-control configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Outstanding-command credits per connection.
    pub credit_limit: u32,
    /// Token-bucket burst capacity per tenant, in ops.
    pub quota_capacity_ops: u32,
    /// Token-bucket refill rate per tenant, in ops/second.
    pub quota_refill_ops_per_sec: u32,
    /// Shed once incoming-buffer occupancy (pending/capacity) crosses
    /// this fraction at a batch boundary.
    pub shed_occupancy: f64,
    /// Shed once routed-but-unexecuted commands cross this depth.
    pub shed_in_flight: u64,
    /// Retry hint attached to overload sheds.
    pub shed_retry_after_ms: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            credit_limit: 64,
            quota_capacity_ops: 100_000,
            quota_refill_ops_per_sec: 1_000_000,
            shed_occupancy: 0.75,
            shed_in_flight: u64::MAX,
            shed_retry_after_ms: 50,
        }
    }
}

/// The outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    Granted,
    /// Over the tenant's token bucket.
    QuotaDenied {
        retry_after_ms: u32,
    },
    /// Engine-side watermark crossed.
    Overloaded {
        retry_after_ms: u32,
    },
    /// The tenant id is not in the admission table at all (handshake
    /// bypass or config mismatch): a protocol violation, never retried.
    UnknownTenant,
}

/// The engine-side load signals the server samples at batch boundaries
/// and holds fixed for every decision in that batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadSignal {
    /// Incoming-buffer occupancy in `[0, 1]`.
    pub occupancy: f64,
    /// Sub-commands enqueued but not yet executed.
    pub in_flight: u64,
}

/// Per-tenant admission state: one bucket + one counter shard each.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    tenants: Vec<(TokenBucket, TenantShard)>,
}

impl Admission {
    pub fn new(cfg: AdmissionConfig, num_tenants: u32) -> Self {
        let tenants = (0..num_tenants)
            .map(|_| {
                (
                    TokenBucket::new(cfg.quota_capacity_ops, cfg.quota_refill_ops_per_sec),
                    TenantShard::default(),
                )
            })
            .collect();
        Admission { cfg, tenants }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    pub fn num_tenants(&self) -> u32 {
        self.tenants.len() as u32
    }

    /// The counter shard of `tenant`, or `None` for an id the table
    /// does not know — admission is total over untrusted tenant ids.
    pub fn shard(&self, tenant: u32) -> Option<&TenantShard> {
        self.tenants.get(tenant as usize).map(|(_, s)| s)
    }

    /// Decide one command of `ops` logical operations for `tenant`.
    /// Overload is checked first so a shedding server stops draining
    /// quota; the bucket is only charged for commands that pass it.
    /// Bumps the tenant's `shed` / `quota_denied` / `accepted` counters.
    // HOT-PATH-ROOT: the per-request admission decision; runs on
    // every network frame before any queueing.
    pub fn admit(&self, tenant: u32, ops: u32, now_ns: u64, load: LoadSignal) -> Admit {
        // Total over untrusted input: an id beyond the table (a handshake
        // bypass or a config mismatch) is a verdict, not a panic.
        let Some((bucket, shard)) = self.tenants.get(tenant as usize) else {
            return Admit::UnknownTenant;
        };
        // ordering: the shard's one writer is the serving loop (`bump`).
        if load.occupancy >= self.cfg.shed_occupancy || load.in_flight >= self.cfg.shed_in_flight {
            bump(&shard.shed, 1);
            return Admit::Overloaded {
                retry_after_ms: self.cfg.shed_retry_after_ms,
            };
        }
        match bucket.try_take(ops, now_ns) {
            Ok(()) => {
                bump(&shard.accepted, 1);
                Admit::Granted
            }
            Err(retry_after_ms) => {
                bump(&shard.quota_denied, 1);
                Admit::QuotaDenied { retry_after_ms }
            }
        }
    }

    /// Undo the `accepted` bump for a command that later failed to
    /// route (it becomes `rejected` instead) — keeps the conservation
    /// ledger `accepted == routed` exact.
    pub fn unaccept(&self, tenant: u32) {
        // An unknown id never had an `accepted` bump to undo.
        if let Some((_, shard)) = self.tenants.get(tenant as usize) {
            // ordering: the shard's one writer is the serving loop; the
            // `accepted` it takes back (a wrapping add of -1) was bumped
            // by the same loop.
            bump(&shard.accepted, 1u64.wrapping_neg());
            bump(&shard.rejected, 1);
        }
    }

    pub fn counts(&self) -> Vec<TenantCounts> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, (_, shard))| shard.counts(t as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_exhaustion_stall_regrant_cycle() {
        let w = CreditWindow::new(3);
        assert_eq!(w.available(), 3);
        assert!(w.try_consume());
        assert!(w.try_consume());
        assert!(w.try_consume());
        // Exhausted: the caller must stall.
        assert!(!w.try_consume());
        assert_eq!(w.available(), 0);
        // Regrant one — exactly one more command may proceed.
        assert_eq!(w.regrant(1), 1);
        assert!(w.try_consume());
        assert!(!w.try_consume());
        // Over-regranting saturates at the limit, never above.
        assert_eq!(w.regrant(100), 3);
        assert_eq!(w.available(), 3);
        assert_eq!(w.regrant(1), 0);
        assert_eq!(w.available(), 3);
    }

    #[test]
    fn token_bucket_refill_boundaries() {
        // 10 ops capacity, 1000 ops/s refill = 1 op/ms.
        let b = TokenBucket::new(10, 1000);
        let ms = |m: u64| m * 1_000_000;
        assert_eq!(b.level_ops(0), 10);
        for _ in 0..10 {
            assert_eq!(b.try_take(1, 0), Ok(()));
        }
        // Empty at t=0: retry hint is the exact refill time for 1 op.
        assert_eq!(b.try_take(1, 0), Err(1));
        // 999us later: still short (refill granularity is whole ms).
        assert!(b.try_take(1, 999_000).is_err());
        // At t=1ms exactly one op has refilled.
        assert_eq!(b.try_take(1, ms(1)), Ok(()));
        assert!(b.try_take(1, ms(1)).is_err());
        // A long sleep refills to capacity, not beyond.
        assert_eq!(b.level_ops(ms(100_000)), 10);
        assert_eq!(b.try_take(10, ms(100_000)), Ok(()));
        assert!(b.try_take(1, ms(100_000)).is_err());
        // Multi-op costs give proportional retry hints.
        assert_eq!(b.try_take(5, ms(100_000)), Err(5));
    }

    #[test]
    fn zero_refill_bucket_denies_forever_once_drained() {
        let b = TokenBucket::new(2, 0);
        assert_eq!(b.try_take(2, 0), Ok(()));
        assert_eq!(b.try_take(1, u64::MAX / 2), Err(u32::MAX));
    }

    #[test]
    fn admission_orders_overload_before_quota() {
        let cfg = AdmissionConfig {
            credit_limit: 4,
            quota_capacity_ops: 2,
            quota_refill_ops_per_sec: 0,
            shed_occupancy: 0.5,
            shed_in_flight: 100,
            shed_retry_after_ms: 77,
        };
        let adm = Admission::new(cfg, 2);
        let calm = LoadSignal::default();
        let hot = LoadSignal {
            occupancy: 0.9,
            in_flight: 0,
        };
        // Overloaded: shed without charging the bucket.
        assert_eq!(
            adm.admit(0, 1, 0, hot),
            Admit::Overloaded { retry_after_ms: 77 }
        );
        // Calm again: the two banked ops are still there.
        assert_eq!(adm.admit(0, 1, 0, calm), Admit::Granted);
        assert_eq!(adm.admit(0, 1, 0, calm), Admit::Granted);
        assert!(matches!(
            adm.admit(0, 1, 0, calm),
            Admit::QuotaDenied { .. }
        ));
        // Tenants are isolated: tenant 1 still has its full bucket.
        assert_eq!(adm.admit(1, 1, 0, calm), Admit::Granted);
        // Deep in-flight backlog sheds too.
        let deep = LoadSignal {
            occupancy: 0.0,
            in_flight: 100,
        };
        assert!(matches!(adm.admit(1, 1, 0, deep), Admit::Overloaded { .. }));
        let counts = adm.counts();
        assert_eq!(counts[0].accepted, 2);
        assert_eq!(counts[0].shed, 1);
        assert_eq!(counts[0].quota_denied, 1);
        assert_eq!(counts[1].accepted, 1);
        assert_eq!(counts[1].shed, 1);
    }

    #[test]
    fn out_of_range_tenant_ids_are_a_verdict_not_a_panic() {
        let adm = Admission::new(AdmissionConfig::default(), 2);
        assert_eq!(
            adm.admit(2, 1, 0, LoadSignal::default()),
            Admit::UnknownTenant
        );
        assert_eq!(
            adm.admit(u32::MAX, 1, 0, LoadSignal::default()),
            Admit::UnknownTenant
        );
        assert!(adm.shard(2).is_none());
        // unaccept on an unknown id is a no-op, not an underflow.
        adm.unaccept(7);
        assert!(adm.counts().iter().all(|c| c.rejected == 0));
        // Known tenants are unaffected.
        assert_eq!(adm.admit(1, 1, 0, LoadSignal::default()), Admit::Granted);
    }

    #[test]
    fn unaccept_moves_accepted_to_rejected() {
        let adm = Admission::new(AdmissionConfig::default(), 1);
        assert_eq!(adm.admit(0, 1, 0, LoadSignal::default()), Admit::Granted);
        adm.unaccept(0);
        let c = adm.counts()[0];
        assert_eq!((c.accepted, c.rejected), (0, 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any interleaving of consumes and regrants the window
        /// never exceeds its configured bound and never goes negative
        /// (`available` is unsigned; the model tracks it exactly).
        #[test]
        fn credits_never_exceed_the_bound(
            limit in 1u32..32,
            ops in proptest::collection::vec((0u8..2, 1u32..8), 0..200),
        ) {
            let w = CreditWindow::new(limit);
            let mut model = limit;
            let mut granted_total = limit as u64;
            for (kind, n) in ops {
                if kind == 0 {
                    let got = w.try_consume();
                    prop_assert_eq!(got, model > 0);
                    if got {
                        model -= 1;
                    }
                } else {
                    let granted = w.regrant(n);
                    prop_assert_eq!(granted, n.min(limit - model));
                    model += granted;
                    granted_total += granted as u64;
                }
                prop_assert!(w.available() <= limit, "window above bound");
                prop_assert_eq!(w.available(), model);
            }
            // Total credits ever granted == initial grant + regrants the
            // window actually accepted; consumed+available never exceeds it.
            prop_assert!(w.available() as u64 <= granted_total);
        }

        /// The bucket never holds more than its capacity and never goes
        /// negative, for any op/time sequence (time is monotone).
        #[test]
        fn token_bucket_conserves(
            cap in 1u32..64,
            rate in 0u32..5000,
            steps in proptest::collection::vec((0u64..5_000_000, 1u32..4), 0..100),
        ) {
            let b = TokenBucket::new(cap, rate);
            let mut now = 0u64;
            for (dt, ops) in steps {
                now += dt;
                let level_before = b.level_ops(now);
                prop_assert!(level_before <= cap);
                match b.try_take(ops, now) {
                    Ok(()) => prop_assert!(level_before >= ops),
                    Err(retry) => {
                        prop_assert!(level_before < ops);
                        prop_assert!(retry >= 1);
                        // The hint is honest: waiting that long refills
                        // enough tokens (when the rate is nonzero).
                        if rate > 0 && retry != u32::MAX {
                            let later = now + retry as u64 * 1_000_000 + 1_000_000;
                            prop_assert!(b.level_ops(later) >= ops.min(cap));
                        }
                    }
                }
            }
        }
    }
}

/// Model-checked interleaving exploration of the token bucket's CAS
/// protocol.  Under a plain `cargo test` each model runs once on real
/// threads; under `RUSTFLAGS="--cfg loom"` every schedule within the
/// preemption bound is explored.  Run with
/// `cargo test -p eris-server --lib loom_`.
#[cfg(test)]
mod loom_models {
    use super::*;
    use eris_sync::sync::Arc;
    use eris_sync::{model, thread};

    /// Two takers race for 2 ops each from a bucket holding 3: exactly
    /// one wins and the bucket keeps the op it did not spend — the
    /// takers never spend more milli-ops than the bucket held.
    #[test]
    fn loom_token_bucket_takers_never_overspend() {
        model(|| {
            let b = Arc::new(TokenBucket::new(3, 0));
            let takers: Vec<_> = (0..2)
                .map(|_| {
                    let b = Arc::clone(&b);
                    thread::spawn(move || b.try_take(2, 0).is_ok())
                })
                .collect();
            let won = takers
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&ok| ok)
                .count() as u32;
            assert_eq!(won, 1, "3 ops cover one 2-op take, never two");
            assert_eq!(b.level_ops(0), 3 - 2 * won);
        });
    }
}
