//! Self-tests for the in-tree loom shim: the checker must *find*
//! genuine interleaving bugs (a lost update, a torn two-word read) and
//! must *pass* correct protocols after exploring every schedule within
//! the preemption bound.
#![expect(unsafe_code, reason = "deliberately racy cells the checker must catch")]

use loom::cell::UnsafeCell;
use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;

/// A non-atomic read-modify-write from two threads loses an update in
/// some interleaving; exhaustive exploration must find it.
#[test]
#[should_panic(expected = "loom model failed")]
fn finds_the_classic_lost_update() {
    loom::model(|| {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                loom::thread::spawn(move || {
                    let v = n.load(Ordering::Relaxed);
                    n.store(v + 1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::Relaxed), 2, "update lost");
    });
}

/// The same counter with a proper RMW never loses an update.
#[test]
fn fetch_add_never_loses_an_update() {
    loom::model(|| {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                loom::thread::spawn(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::Relaxed), 2);
    });
}

/// Two racy cells behind the same `unsafe impl Sync` idiom the product
/// code uses for its protocol-protected slots.
struct Pair(UnsafeCell<u64>, UnsafeCell<u64>);
// SAFETY: test fixture; deliberately unsound sharing — the model is
// expected to catch the resulting tear.
unsafe impl Sync for Pair {}
// SAFETY: the cells hold plain `u64`s; nothing is thread-bound.
unsafe impl Send for Pair {}

/// A writer updating two cells with no protocol can be observed
/// half-done; the checker must surface the torn read.
#[test]
#[should_panic(expected = "loom model failed")]
fn finds_a_torn_two_word_read() {
    loom::model(|| {
        let pair = Arc::new(Pair(UnsafeCell::new(0u64), UnsafeCell::new(0u64)));
        let ready = Arc::new(AtomicBool::new(false));
        let (p2, r2) = (Arc::clone(&pair), Arc::clone(&ready));
        let w = loom::thread::spawn(move || {
            // SAFETY: test fixture; deliberately unsynchronized — the
            // model is expected to catch the tear.
            p2.0.with_mut(|a| unsafe { *a = 7 });
            r2.store(true, Ordering::Relaxed);
            // SAFETY: as above — the unsynchronized second write.
            p2.1.with_mut(|b| unsafe { *b = 7 });
        });
        if ready.load(Ordering::Relaxed) {
            // SAFETY: test fixture; reads race the writer on purpose.
            let a = pair.0.with(|a| unsafe { *a });
            // SAFETY: as above.
            let b = pair.1.with(|b| unsafe { *b });
            assert_eq!(a, b, "torn read observed");
        }
        w.join().unwrap();
    });
}

/// A spin-wait on a flag set by another thread terminates under the
/// cooperative scheduler (voluntary yields hand control over) and the
/// flag's effects are visible afterwards.
#[test]
fn spin_wait_handshake_terminates() {
    loom::model(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let data = Arc::new(AtomicU64::new(0));
        let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
        let h = loom::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Release);
        });
        while !flag.load(Ordering::Acquire) {
            loom::hint::spin_loop();
        }
        assert_eq!(data.load(Ordering::Relaxed), 42);
        h.join().unwrap();
    });
}

/// `join` returns the child's value, and exploration actually visits
/// more than one schedule for a contended model.
#[test]
fn join_returns_values_and_multiple_schedules_run() {
    let executions = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counter = std::sync::Arc::clone(&executions);
    loom::model(move || {
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let a = Arc::new(AtomicUsize::new(1));
        let a2 = Arc::clone(&a);
        let h = loom::thread::spawn(move || a2.fetch_add(1, Ordering::Relaxed));
        let other = loom::thread::spawn(|| 40usize);
        let prev = h.join().unwrap();
        assert!(
            prev == 1 || prev == 2,
            "fetch_add returned a valid prior value"
        );
        assert_eq!(other.join().unwrap(), 40);
        assert_eq!(a.load(Ordering::Relaxed), 2);
    });
    assert!(
        executions.load(std::sync::atomic::Ordering::Relaxed) > 1,
        "contended model must explore multiple schedules"
    );
}

/// A child panic is reported as a model failure, not swallowed.
#[test]
#[should_panic(expected = "loom model failed")]
fn child_panic_fails_the_model() {
    loom::model(|| {
        let h = loom::thread::spawn(|| panic!("child exploded"));
        let _ = h.join();
    });
}
