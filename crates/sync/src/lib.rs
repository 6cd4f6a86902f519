//! Synchronization facade for the ERIS lock-free hot paths.
//!
//! Code that builds on this crate compiles against `std` primitives in
//! normal builds — every wrapper here is a zero-cost re-export or a
//! `#[repr(transparent)]` newtype with `#[inline]` accessors — and
//! against the [loom](../../shims/loom) model checker when built with
//! `RUSTFLAGS="--cfg loom"`.  That lets the exact shipping source of
//! the latch-free structures (incoming-buffer descriptor, trace-ring
//! seqlock, outgoing handoff) be explored under every thread
//! interleaving the preemption bound admits, without a test-only fork
//! of the protocol code.
//!
//! Usage rules:
//! - a module that imports `eris_sync` must not also reach for
//!   `std::sync::atomic`, `std::cell::UnsafeCell` or
//!   `std::hint::spin_loop` outside its tests (`cargo xtask analyze`,
//!   rule A5);
//! - protocol data guarded by an atomic protocol goes through
//!   [`cell::UnsafeCell`], whose accesses become scheduling points
//!   under loom.

/// Atomics and `Arc`.
pub mod sync {
    #[cfg(not(loom))]
    pub use std::sync::Arc;

    #[cfg(loom)]
    pub use loom::sync::Arc;

    #[cfg(not(loom))]
    pub mod atomic {
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
        };
    }

    #[cfg(loom)]
    pub mod atomic {
        pub use loom::sync::atomic::{
            fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
        };
    }
}

/// Thread spawn/yield (used by loom models and threaded helpers).
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(loom)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

/// Spin-loop hint; a voluntary yield under loom so cooperative
/// exploration never livelocks on a spin-wait.
pub mod hint {
    #[cfg(not(loom))]
    pub use std::hint::spin_loop;

    #[cfg(loom)]
    pub use loom::hint::spin_loop;
}

/// Interior mutability for protocol-guarded data.
pub mod cell {
    /// `std::cell::UnsafeCell` with loom's closure-based API.
    ///
    /// `#[repr(transparent)]` in both modes: arrays of cells stay
    /// contiguous, so pointer arithmetic across elements (the
    /// incoming-buffer byte array) is layout-identical to a plain
    /// `[u8]`.
    #[cfg(not(loom))]
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    #[cfg(not(loom))]
    impl<T> UnsafeCell<T> {
        #[inline(always)]
        pub const fn new(v: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(v))
        }

        /// Immutable access to the contents via raw pointer.
        #[inline(always)]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Mutable access to the contents via raw pointer.
        #[inline(always)]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }

    #[cfg(loom)]
    pub use loom::cell::UnsafeCell;
}

/// Run `f` under exhaustive schedule exploration when built with
/// `--cfg loom`; otherwise run it once as a plain smoke test, so the
/// same model doubles as a tier-1 unit test.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    #[cfg(loom)]
    loom::model(f);
    #[cfg(not(loom))]
    f();
}
