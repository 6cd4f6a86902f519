//! Analyzer self-check fixture (A1/A2/A4): seeded violations reachable
//! from a fixture root, plus negative controls that must stay silent.
//! Never compiled — scanned only by `cargo xtask analyze --self-check`.
//! The `// seed: A<N>` lines are the manifest of expected violations;
//! exact-count matching means an over-firing rule fails the self-check
//! just like a dead one.

// HOT-PATH-ROOT: fixture root — analyzer reachability starts here.
pub fn root_dispatch(xs: &[u8], q: &mut Queue) -> u8 {
    let head = first_or_die(xs);
    stage_two(q);
    noisy_macro(head == 0);
    cut_refill(q);
    let a = justified(xs, head as usize);
    bulk_setup(&mut q.rows);
    let scratch = make_scratch();
    let last = fold_each(xs, |x| x);
    // seed: A1 — index expression without a BOUNDS justification.
    let tail = xs[xs.len() - 1];
    head ^ tail ^ a ^ scratch ^ last
}

/// `impl Trait` in the signature is an argument type, not an impl block:
/// the body is scanned like any other.
fn fold_each(xs: &[u8], f: impl Fn(u8) -> u8) -> u8 {
    // seed: A1 — unwrap in a body behind an `impl Trait` parameter.
    f(*xs.last().unwrap())
}

fn first_or_die(xs: &[u8]) -> u8 {
    // seed: A1 — transitive unwrap, two hops below the root.
    *xs.first().unwrap()
}

fn stage_two(q: &mut Queue) {
    // seed: A2 — Vec::push with no ALLOC-OK justification.
    q.items.push(0u64);
    blocked_leaf();
}

fn noisy_macro(flag: bool) {
    if flag {
        // seed: A1 — panicking macro reachable from the root.
        panic!("fixture panic");
    }
}

fn blocked_leaf() {
    // seed: A4 — lock acquisition on a latch-free path.
    let _g = FIXTURE_LOCK.lock();
    // seed: A4 — blocking sleep on a latch-free path.
    std::thread::sleep(core::time::Duration::from_millis(1));
}

fn make_scratch() -> u8 {
    // seed: A2 — allocating macro reachable from the root.
    let v = vec![0u8; 4];
    // BOUNDS: v always has four elements, built on the line above.
    v[0]
}

/// Unreachable from any root: the unwrap here must NOT be flagged — if
/// the analyzer scans it, the A1 exact count breaks.
pub fn cold_helper(xs: &[u8]) -> u8 {
    *xs.first().unwrap()
}

// HOT-PATH-CUT: reviewed boundary — amortized refill off the epoch
// loop; the reserve below must NOT be flagged.
fn cut_refill(q: &mut Queue) {
    q.items.reserve(128);
    beyond_the_cut();
}

/// Only reachable through the cut: must NOT be scanned.
fn beyond_the_cut() {
    panic!("never flagged");
}

fn justified(xs: &[u8], n: usize) -> u8 {
    // BOUNDS: n is masked to the table size on the line below.
    let a = xs[n & 3];
    // ALLOC-OK: warm-up slab registration, once per epoch.
    SCRATCH.push(a);
    a
}

// ALLOC-OK(fn): builds the per-epoch scratch tables; reviewed
// amortized allocation, every site in this body is blessed at once.
fn bulk_setup(rows: &mut Vec<u64>) {
    rows.push(1);
    rows.extend_from_slice(&[2, 3]);
    let _s = format!("fixture {}", rows.len());
}
