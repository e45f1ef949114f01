//! The registry's exit drain (`registry::set_exit_drain`): it runs exactly
//! once per exiting tid, answers `registry::tid()` with its argument, runs
//! after the thread's `defer_at_exit` closures, runs under
//! `registry::retire_thread` too, and holds the tid until it returns.
//!
//! A binary of its own: the drain slot is process-wide and set once here.
//! The tests serialize on one lock and never ask for a tid on the test
//! thread, so the lowest free tid is the one a test's own thread let go.

use orc_util::registry;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::thread;

/// One call of the drain.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Call {
    /// The drain's argument.
    tid: usize,
    /// `registry::tid()` inside the drain.
    seen: usize,
    /// Whether the thread's `defer_at_exit` closure had run.
    after_closure: bool,
}

/// Every call so far, with the calling thread's `LABEL`.
static CALLS: Mutex<Vec<(u32, Call)>> = Mutex::new(Vec::new());

/// The label whose drain waits while `HOLD` is set; `HELD` says it waits.
const HELD_LABEL: u32 = 5;
static HOLD: AtomicBool = AtomicBool::new(false);
static HELD: AtomicBool = AtomicBool::new(false);

thread_local! {
    // No destructors: both stay readable during the exit sequence.
    static LABEL: Cell<u32> = const { Cell::new(0) };
    static CLOSURE_RAN: Cell<bool> = const { Cell::new(false) };
}

fn drain(tid: usize) {
    let call = Call {
        tid,
        seen: registry::tid(),
        after_closure: CLOSURE_RAN.get(),
    };
    let label = LABEL.get();
    if label == HELD_LABEL {
        HELD.store(true, Ordering::Release);
        while HOLD.load(Ordering::Acquire) {
            thread::yield_now();
        }
    }
    CALLS.lock().unwrap().push((label, call));
}

fn serial() -> MutexGuard<'static, ()> {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| registry::set_exit_drain(drain));
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn calls_of(label: u32) -> Vec<Call> {
    let calls = CALLS.lock().unwrap();
    calls.iter().filter(|c| c.0 == label).map(|c| c.1).collect()
}

/// Runs `f` on a new thread labelled `label` and joins it.
fn labelled<R: Send + 'static>(label: u32, f: impl FnOnce() -> R + Send + 'static) -> R {
    thread::spawn(move || {
        LABEL.set(label);
        f()
    })
    .join()
    .unwrap()
}

#[test]
fn the_drain_runs_once_per_exited_tid_after_the_closures() {
    let _g = serial();
    let tid = labelled(1, || {
        registry::defer_at_exit(|| CLOSURE_RAN.set(true));
        registry::tid()
    });
    let expected = Call {
        tid,
        seen: tid,
        after_closure: true,
    };
    assert_eq!(calls_of(1), [expected]);

    let tid = labelled(2, registry::tid);
    let expected = Call {
        tid,
        seen: tid,
        after_closure: false,
    };
    assert_eq!(calls_of(2), [expected]);

    labelled(3, || ());
    assert_eq!(
        calls_of(3),
        [],
        "a thread without a tid has nothing to drain"
    );
}

#[test]
fn the_drain_runs_under_retire_thread() {
    let _g = serial();
    let (first, second) = labelled(4, || {
        registry::defer_at_exit(|| CLOSURE_RAN.set(true));
        let first = registry::tid();
        registry::retire_thread();
        let ran = calls_of(4);
        assert_eq!(ran.len(), 1, "the drain ran inside retire_thread");
        assert!(ran[0].after_closure);
        registry::retire_thread(); // no tid held: nothing runs
        assert_eq!(calls_of(4).len(), 1);
        CLOSURE_RAN.set(false);
        (first, registry::tid())
    });
    let tids: Vec<(usize, usize)> = calls_of(4).iter().map(|c| (c.tid, c.seen)).collect();
    assert_eq!(tids, [(first, first), (second, second)]);
}

#[test]
fn a_tid_is_reused_only_once_its_drain_has_finished() {
    let _g = serial();
    HOLD.store(true, Ordering::Release);
    let held = thread::spawn(|| {
        LABEL.set(HELD_LABEL);
        registry::tid()
    });
    while !HELD.load(Ordering::Acquire) {
        thread::yield_now();
    }
    let during = labelled(6, registry::tid);
    HOLD.store(false, Ordering::Release);
    let tid = held.join().unwrap();
    assert_ne!(during, tid, "a tid was handed out while its drain ran");
    assert_eq!(calls_of(HELD_LABEL).len(), 1);
    assert_eq!(
        labelled(7, registry::tid),
        tid,
        "the drained tid is free again"
    );
}
