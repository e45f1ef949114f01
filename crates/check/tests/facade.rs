//! Facade equivalence: with the `orc_check` feature on (it is, for this
//! whole crate), the instrumented atomics must behave exactly like
//! `std::sync::atomic` both *outside* any exploration (passthrough: no
//! scheduler exists, ops hit the real atomics directly) and *inside* a
//! single-threaded model (every op becomes a scheduling step, but the
//! values must be unchanged).
//!
//! The "without the feature" half of the equivalence lives in
//! `orc_util::atomics`' own unit tests, which compile the passthrough
//! re-exports when the default feature set is used (`cargo test -p
//! orc-util`).

use check::{explore, Config};
use orc_util::atomics::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// The value-level protocol both halves must agree on.
fn exercise() -> (usize, u64, bool, bool, usize) {
    let a = AtomicUsize::new(5);
    assert_eq!(a.fetch_add(3, Ordering::SeqCst), 5);
    assert_eq!(a.swap(40, Ordering::SeqCst), 8);
    assert!(a
        .compare_exchange(40, 41, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok());
    assert_eq!(
        a.compare_exchange(40, 99, Ordering::SeqCst, Ordering::SeqCst),
        Err(41)
    );
    fence(Ordering::SeqCst);

    let b = AtomicU64::new(u64::MAX);
    assert_eq!(b.fetch_sub(1, Ordering::SeqCst), u64::MAX);

    let flag = AtomicBool::new(false);
    let was = flag.fetch_or(true, Ordering::SeqCst);

    let mut slot = 7u32;
    let p = AtomicPtr::new(std::ptr::null_mut::<u32>());
    let prev = p.swap(&mut slot, Ordering::SeqCst);
    let roundtrip = p.load(Ordering::SeqCst);
    // SAFETY: `roundtrip` is the `&mut slot` stored two lines up; `slot`
    // is still in scope.
    assert_eq!(unsafe { *roundtrip }, 7);

    (
        a.load(Ordering::SeqCst),
        b.load(Ordering::SeqCst),
        was,
        prev.is_null(),
        roundtrip as usize,
    )
}

#[test]
fn shims_match_std_outside_a_model() {
    // No explore() anywhere near this: the shims must pass straight
    // through to the real atomics.
    let (a, b, was, prev_null, _) = exercise();
    assert_eq!(a, 41);
    assert_eq!(b, u64::MAX - 1);
    assert!(!was);
    assert!(prev_null);
}

#[test]
fn shims_match_std_inside_a_model() {
    let report = explore(Config::default(), || {
        let (a, b, was, prev_null, _) = exercise();
        assert_eq!(a, 41);
        assert_eq!(b, u64::MAX - 1);
        assert!(!was);
        assert!(prev_null);
    })
    .expect("a single-threaded body has exactly one (passing) schedule");
    assert_eq!(report.schedules, 1, "no concurrency, no branching");
    assert!(
        report.steps > 8,
        "every atomic op must have become a scheduling step (saw {})",
        report.steps
    );
}
