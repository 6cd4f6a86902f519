//! What a steady-state epoch allocates, per kind of work.
//!
//! A counting global allocator counts the allocations (`alloc`,
//! `alloc_zeroed` and `realloc` calls) the current thread makes while a
//! closure runs.  Each test drives 4 AEUs on a 2-node machine, balancer
//! off: 16 commands per epoch, submitted round-robin through the AEUs,
//! then one `run_epoch`.  After 50 warm-up epochs it measures 200 more
//! and asserts that no measured epoch allocated more than the committed
//! bound, counted apart for the submissions and for the epoch itself.
//! A change that allocates less lowers a bound; one that allocates more
//! fails here first.
//!
//! The counters are per thread, and the cooperative runtime runs every
//! AEU on the calling thread, so the tests may run side by side.
#![expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; this one forwards to the system allocator"
)]

use eris_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread made since counting began, if it counts.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn count() {
        // A thread being torn down has no counter left: nothing to count.
        let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// only observes the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).unwrap_or(0)
}

const DOMAIN: u64 = 1 << 16;
const COMMANDS: u64 = 16;
const WARMUP: u64 = 50;
const MEASURED: u64 = 200;

fn engine() -> Engine {
    let e = Engine::new(
        eris_numa::machines::custom_machine("t", 2, 2, 20.0, 100.0, 10.0, 60.0),
        EngineConfig::default(),
    );
    assert_eq!(e.num_aeus(), 4);
    e
}

/// A deterministic key stream over the domain.
fn keys(seed: u64) -> impl Iterator<Item = u64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % DOMAIN
    })
}

/// The most any measured epoch allocated, in its submissions and in
/// `run_epoch`.  `epoch` gives an epoch's commands; `between` runs after
/// the submissions and before `run_epoch`, uncounted.
fn peak_allocations(
    e: &mut Engine,
    mut epoch: impl FnMut(u64) -> Vec<DataCommand>,
    mut between: impl FnMut(&mut Engine, u64),
) -> (u64, u64) {
    let (mut submit_peak, mut epoch_peak) = (0, 0);
    for i in 0..WARMUP + MEASURED {
        let cmds = epoch(i);
        let submitted = allocations(|| {
            for (n, cmd) in cmds.into_iter().enumerate() {
                e.submit(AeuId(n as u32 % 4), cmd).unwrap();
            }
        });
        between(e, i);
        let ran = allocations(|| {
            e.run_epoch();
        });
        if i >= WARMUP {
            submit_peak = submit_peak.max(submitted);
            epoch_peak = epoch_peak.max(ran);
        }
    }
    (submit_peak, epoch_peak)
}

fn index(e: &mut Engine) -> DataObjectId {
    let idx = e.create_index("t", DOMAIN);
    e.bulk_load_index(idx, (0..DOMAIN).map(|k| (k, k)));
    idx
}

fn lookup(object: DataObjectId, ticket: u64, keys: impl Iterator<Item = u64>) -> DataCommand {
    let keys = keys.take(256).collect();
    let payload = Payload::Lookup { keys };
    DataCommand {
        object,
        ticket,
        payload,
    }
}

/// Assert the peaks against the committed bounds, reporting both.
fn check(kind: &str, (submit, epoch): (u64, u64), (submit_bound, epoch_bound): (u64, u64)) {
    eprintln!("{kind}: at most {submit} allocations in submit, {epoch} in run_epoch");
    assert!(
        submit <= submit_bound && epoch <= epoch_bound,
        "{kind}: an epoch allocated {submit} times in submit (bound {submit_bound}) \
         and {epoch} in run_epoch (bound {epoch_bound})"
    );
}

#[test]
fn a_lookup_epoch_allocates_at_most_its_bound() {
    let mut e = engine();
    let idx = index(&mut e);
    let peaks = peak_allocations(
        &mut e,
        |i| {
            let cmd = |c| lookup(idx, i * COMMANDS + c, keys(i * COMMANDS + c));
            (0..COMMANDS).map(cmd).collect()
        },
        |_, _| {},
    );
    check("lookups", peaks, LOOKUP_BOUND);
}

#[test]
fn an_upsert_epoch_allocates_at_most_its_bound() {
    let mut e = engine();
    let idx = index(&mut e);
    let peaks = peak_allocations(
        &mut e,
        |i| {
            let cmd = |c| {
                let pairs = keys(i * COMMANDS + c).take(256).map(|k| (k, i)).collect();
                let payload = Payload::Upsert { pairs };
                DataCommand {
                    object: idx,
                    ticket: i * COMMANDS + c,
                    payload,
                }
            };
            (0..COMMANDS).map(cmd).collect()
        },
        |_, _| {},
    );
    check("upserts", peaks, UPSERT_BOUND);
}

#[test]
fn a_column_scan_epoch_allocates_at_most_its_bound() {
    let mut e = engine();
    let col = e.create_column("c");
    e.bulk_load_column(col, 0..DOMAIN);
    let peaks = peak_allocations(
        &mut e,
        |i| {
            let cmd = |c: u64| {
                let lo = c * DOMAIN / COMMANDS;
                let payload = Payload::Scan {
                    pred: Predicate::Range {
                        lo,
                        hi: lo + DOMAIN / 4,
                    },
                    agg: [Aggregate::Count, Aggregate::Sum][c as usize % 2],
                    snapshot: u64::MAX,
                };
                DataCommand {
                    object: col,
                    ticket: i * COMMANDS + c,
                    payload,
                }
            };
            (0..COMMANDS).map(cmd).collect()
        },
        |_, _| {},
    );
    check("column scans", peaks, SCAN_BOUND);
}

#[test]
fn a_mixed_epoch_with_strays_allocates_at_most_its_bound() {
    // Between the submissions and the epoch, AEU 1's lower bound moves
    // by an eighth of the domain, and back the next epoch: each epoch a
    // command whose keys all lie in the moved range is forwarded whole,
    // one straddling its edge executes in part and forwards the rest,
    // and last epoch's forwards arrive.
    let mut e = engine();
    let idx = index(&mut e);
    let quarter = DOMAIN / 4;
    let bounds = [
        [0, quarter, 2 * quarter, 3 * quarter],
        [0, quarter + quarter / 2, 2 * quarter, 3 * quarter],
    ];
    let peaks = peak_allocations(
        &mut e,
        |i| {
            let ticket = i * COMMANDS;
            let moved = (quarter..quarter + quarter / 2).cycle();
            let edge = (quarter + quarter / 4..quarter + 3 * quarter / 4).cycle();
            let mut cmds = vec![lookup(idx, ticket, moved), lookup(idx, ticket + 1, edge)];
            let cmd = |c| lookup(idx, ticket + c, keys(ticket + c));
            cmds.extend((2..COMMANDS).map(cmd));
            cmds
        },
        |e, i| e.restore_partition_bounds(idx, &bounds[(i as usize + 1) % 2]),
    );
    check("mixed with strays", peaks, MIXED_BOUND);
}

/// Committed bounds, `(submit, run_epoch)` allocations per epoch, set at
/// the counts measured when steps began to record counts for the cost
/// model instead of building flow records.  A scan's submission routes
/// to the member list its partition table holds, without a copy.
const LOOKUP_BOUND: (u64, u64) = (0, 32);
const UPSERT_BOUND: (u64, u64) = (5, 27);
const SCAN_BOUND: (u64, u64) = (0, 80);
const MIXED_BOUND: (u64, u64) = (2, 43);
