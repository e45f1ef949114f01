//! Process-wide thread registry.
//!
//! Every lock-free reclamation scheme in this workspace keeps per-thread
//! state (hazard-pointer slots, handover slots, retired lists, era
//! reservations) in flat arrays indexed by a dense *thread id*. This module
//! assigns those ids and is the one place that knows a thread's: the first
//! time a thread calls [`tid`] it claims the lowest free slot of a
//! fixed-capacity bitmap and keeps it in a thread-local cell, and every
//! later call is one read of that cell.
//!
//! The same first call arms a second thread-local whose destructor runs
//! the thread's exit sequence while the tid is still owned exclusively:
//!
//! 1. the thread's [`defer_at_exit`] closures, in registration order;
//! 2. the process's exit drain ([`set_exit_drain`]: OrcGC's handover-row
//!    drain, registered once when its domain is built);
//! 3. the thread's pool state;
//! 4. the release of the tid.
//!
//! A new thread that later reuses the tid therefore always observes clean
//! per-thread state. The tid cell has no destructor, so [`tid`] keeps
//! answering with the exiting tid throughout the sequence; once the tid is
//! released the cell is reset, and a later [`tid`] registers afresh under
//! [`retire_thread`] and panics after TLS teardown.

use crate::atomics::{AtomicBool, AtomicUsize, Ordering};
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Maximum number of concurrently *registered* threads.
///
/// The paper's arrays are `[maxThreads][maxHPs]`; we fix the same capacity at
/// compile time. Threads beyond this limit panic at registration with a
/// clear message. 128 comfortably covers the paper's largest evaluation
/// (64 hardware threads on the AMD machine) plus test-harness threads.
pub const MAX_THREADS: usize = 128;

static USED: [AtomicBool; MAX_THREADS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const FREE: AtomicBool = AtomicBool::new(false);
    [FREE; MAX_THREADS]
};

/// High-water mark of tids ever handed out; lets scanners iterate
/// `0..registered_watermark()` instead of the full capacity.
static WATERMARK: AtomicUsize = AtomicUsize::new(0);

/// Step 2 of the exit sequence, called with every exiting tid.
static DRAIN: OnceLock<fn(usize)> = OnceLock::new();

/// The value of `TID` on a thread that holds no tid.
const UNREGISTERED: usize = usize::MAX;

/// Owns the exit sequence: the [`defer_at_exit`] closures, and a
/// destructor that runs the sequence at thread exit.
struct Guard(RefCell<Vec<Box<dyn FnOnce()>>>);

impl Drop for Guard {
    fn drop(&mut self) {
        exit(std::mem::take(self.0.get_mut()));
    }
}

thread_local! {
    /// The calling thread's tid, or `UNREGISTERED`. No destructor, so it
    /// stays readable while `GUARD`'s destructor runs the exit sequence
    /// (an OrcGC drain that destroys a node drops its link fields, and
    /// every such drop asks for the tid — and a panic in a TLS destructor
    /// aborts the process).
    static TID: Cell<usize> = const { Cell::new(UNREGISTERED) };
    static GUARD: Guard = const { Guard(RefCell::new(Vec::new())) };
}

/// Runs the exit sequence (module docs) of the calling thread, if it
/// holds a tid.
fn exit(closures: Vec<Box<dyn FnOnce()>>) {
    let tid = TID.get();
    if tid == UNREGISTERED {
        return;
    }
    for f in closures {
        f();
    }
    if let Some(drain) = DRAIN.get() {
        drain(tid);
    }
    // Last user of the tid: the pool's per-thread state, whose counter
    // shard is single-writer only while the tid is held.
    crate::pool::thread_exit();
    TID.set(UNREGISTERED);
    USED[tid].store(false, Ordering::Release);
}

fn claim() -> usize {
    for (tid, slot) in USED.iter().enumerate() {
        if !slot.load(Ordering::Relaxed)
            && slot
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            WATERMARK.fetch_max(tid + 1, Ordering::AcqRel);
            return tid;
        }
    }
    panic!(
        "orc-util: thread registry exhausted ({MAX_THREADS} threads); \
         raise orc_util::registry::MAX_THREADS"
    );
}

/// Returns the dense thread id of the calling thread, registering it on
/// first use. The id is released, after the exit sequence (module docs),
/// when the thread exits.
#[inline]
pub fn tid() -> usize {
    match TID.get() {
        UNREGISTERED => register(),
        tid => tid,
    }
}

/// [`tid`]'s first call on a thread. Out of line, so registration adds
/// nothing to [`tid`]'s callers but a cold call.
#[cold]
#[inline(never)]
fn register() -> usize {
    try_tid().expect("registry::tid() called after thread-local teardown")
}

/// [`tid`], or `None` past the calling thread's TLS teardown: nothing
/// would release a tid claimed then.
pub(crate) fn try_tid() -> Option<usize> {
    if TID.get() == UNREGISTERED {
        // The first touch arms `GUARD`'s destructor.
        GUARD.try_with(|_| ()).ok()?;
        TID.set(claim());
    }
    Some(TID.get())
}

/// Registers a callback that runs when the calling thread exits, before its
/// tid is released. Callbacks run in registration order.
///
/// Reclamation schemes use this to drain per-thread retired lists and
/// handover slots so that objects are not stranded when a worker thread
/// terminates.
pub fn defer_at_exit(f: impl FnOnce() + 'static) {
    tid();
    GUARD.with(|g| g.0.borrow_mut().push(Box::new(f)));
}

/// Registers `drain` as step 2 of every thread's exit sequence (module
/// docs): it runs with the exiting tid after that thread's
/// [`defer_at_exit`] closures and before the tid is released, on every
/// exiting thread that holds a tid. There is one slot, which the OrcGC
/// domain fills when it is built.
///
/// # Panics
/// If a drain is already registered.
pub fn set_exit_drain(drain: fn(usize)) {
    assert!(
        DRAIN.set(drain).is_ok(),
        "orc-util: the registry's exit drain is already set"
    );
}

/// Releases the calling thread's tid *now*, running its exit sequence,
/// instead of waiting for thread exit. A later [`tid`] call on the same
/// thread re-registers.
///
/// The orc-check model checker calls this at the end of every model
/// thread's body so scheme exit-cleanups (handover drains, retired-list
/// flushes) execute inside the checked, scheduled region rather than in an
/// unscheduled TLS destructor.
pub fn retire_thread() {
    if let Ok(closures) = GUARD.try_with(|g| std::mem::take(&mut *g.0.borrow_mut())) {
        exit(closures);
    }
}

/// Upper bound on tids that have ever been handed out. Scanners iterate
/// `0..registered_watermark()`.
#[inline]
pub fn registered_watermark() -> usize {
    WATERMARK.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn tid_is_stable_within_a_thread() {
        let a = tid();
        let b = tid();
        assert_eq!(a, b);
    }

    #[test]
    fn tids_are_distinct_across_live_threads() {
        let mine = tid();
        let other = std::thread::spawn(tid).join().unwrap();
        assert_ne!(mine, other);
    }

    #[test]
    fn tid_below_capacity() {
        assert!(tid() < MAX_THREADS);
        assert!(registered_watermark() <= MAX_THREADS);
        assert!(registered_watermark() > tid());
    }

    #[test]
    fn exit_callbacks_run_before_release() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r1 = ran.clone();
        let r2 = ran.clone();
        std::thread::spawn(move || {
            defer_at_exit(move || {
                r1.fetch_add(1, Ordering::SeqCst);
            });
            defer_at_exit(move || {
                r2.fetch_add(10, Ordering::SeqCst);
            });
        })
        .join()
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn exit_callbacks_can_still_ask_for_the_tid() {
        // At thread exit the callbacks run inside the registry's own TLS
        // destructor; a panic there aborts the process.
        let seen = Arc::new(AtomicUsize::new(usize::MAX));
        let s = seen.clone();
        let mine = std::thread::spawn(move || {
            defer_at_exit(move || s.store(tid(), Ordering::SeqCst));
            tid()
        })
        .join()
        .unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), mine);
    }

    #[test]
    fn retire_thread_releases_early_and_runs_cleanups() {
        std::thread::spawn(|| {
            let ran = Arc::new(AtomicUsize::new(0));
            let r = ran.clone();
            let first = tid();
            defer_at_exit(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            retire_thread();
            assert_eq!(ran.load(Ordering::SeqCst), 1, "cleanup must run at retire");
            // Re-registration hands out a (possibly identical) fresh tid.
            let second = tid();
            assert!(second < MAX_THREADS);
            let _ = first;
            retire_thread();
            retire_thread(); // idempotent
        })
        .join()
        .unwrap();
    }

    #[test]
    fn tids_are_reused_after_exit() {
        // A freshly spawned thread's tid becomes free again on join; a
        // subsequent thread should be able to claim a slot at or below the
        // current watermark rather than growing it unboundedly.
        let before = registered_watermark();
        for _ in 0..MAX_THREADS * 2 {
            std::thread::spawn(tid).join().unwrap();
        }
        let after = registered_watermark();
        // Sequential spawn/join must not consume more than a couple of
        // extra slots (other tests may run concurrently).
        assert!(
            after.saturating_sub(before) < MAX_THREADS / 2,
            "watermark grew from {before} to {after}: tids are not reused"
        );
    }

    #[test]
    fn many_concurrent_threads_get_unique_tids() {
        let n = 32;
        let mut handles = Vec::new();
        let barrier = Arc::new(std::sync::Barrier::new(n));
        for _ in 0..n {
            let b = barrier.clone();
            handles.push(std::thread::spawn(move || {
                b.wait();
                let t = tid();
                // Hold the tid until every thread has registered; otherwise a
                // finished thread's slot could be legitimately reused.
                b.wait();
                t
            }));
        }
        let mut tids: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), n, "duplicate tids handed out concurrently");
    }
}
