//! Process-wide thread registry.
//!
//! Every lock-free reclamation scheme in this workspace keeps per-thread
//! state (hazard-pointer slots, handover slots, retired lists, era
//! reservations) in flat arrays indexed by a dense *thread id*. This module
//! assigns those ids: the first time a thread calls [`tid`] it claims the
//! lowest free slot of a fixed-capacity bitmap, and a `thread_local`
//! destructor releases the slot when the thread exits.
//!
//! Schemes register per-thread cleanup work through [`defer_at_exit`]; the
//! callbacks run *before* the tid is released, so a scheme can drain the
//! exiting thread's handover/retired state while its slots are still owned
//! exclusively. A new thread that later reuses the same tid therefore always
//! observes clean per-thread state. At thread exit the callbacks run inside
//! this module's own TLS destructor, and there [`tid`] keeps answering with
//! the exiting tid. (Under [`retire_thread`] the thread-local is alive and
//! already empty, so a callback that asks registers afresh, as it always
//! has.)

use crate::atomics::{AtomicBool, AtomicUsize, Ordering};
use std::cell::{Cell, RefCell};

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

struct TidGuard {
    tid: usize,
    cleanups: Vec<Box<dyn FnOnce()>>,
}

impl Drop for TidGuard {
    fn drop(&mut self) {
        EXITING.set(Some(self.tid));
        for f in self.cleanups.drain(..) {
            f();
        }
        // Last user of the tid: the pool's per-thread state, whose
        // counter shard is single-writer only while the tid is held.
        crate::pool::thread_exit();
        EXITING.set(None);
        USED[self.tid].store(false, Ordering::Release);
    }
}

thread_local! {
    static GUARD: RefCell<Option<TidGuard>> = const { RefCell::new(None) };
    /// The tid of a thread that is inside [`TidGuard::drop`]. At thread
    /// exit `GUARD` is unreachable from its own destructor, yet the exit
    /// callbacks running there still ask for the tid (an OrcGC handover
    /// drain that destroys a node drops its link fields, and every such
    /// drop asks) — and a panic in a TLS destructor aborts the process.
    /// This cell has no destructor, so it stays readable throughout.
    static EXITING: Cell<Option<usize>> = const { Cell::new(None) };
}

fn register() -> TidGuard {
    for (tid, slot) in USED.iter().enumerate() {
        if !slot.load(Ordering::Relaxed)
            && slot
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            WATERMARK.fetch_max(tid + 1, Ordering::AcqRel);
            return TidGuard {
                tid,
                cleanups: Vec::new(),
            };
        }
    }
    panic!(
        "orc-util: thread registry exhausted ({MAX_THREADS} threads); \
         raise orc_util::registry::MAX_THREADS"
    );
}

/// Returns the dense thread id of the calling thread, registering it on
/// first use. The id is released (and [`defer_at_exit`] callbacks run) when
/// the thread exits.
#[inline]
pub fn tid() -> usize {
    match try_tid() {
        Some(tid) => tid,
        None => exiting_tid(),
    }
}

/// [`tid`] where the thread-local is gone: the exiting tid while the TLS
/// destructor runs its callbacks, a panic after it. Out of line, so the
/// teardown case adds nothing to [`tid`]'s callers but a cold call.
#[cold]
#[inline(never)]
fn exiting_tid() -> usize {
    EXITING
        .get()
        .expect("registry::tid() called after thread-local teardown")
}

/// [`tid`], or `None` where the registry's thread-local is being (or has
/// been) destroyed.
#[inline]
pub(crate) fn try_tid() -> Option<usize> {
    GUARD
        .try_with(|g| {
            let mut g = g.borrow_mut();
            if let Some(ref guard) = *g {
                guard.tid
            } else {
                let guard = register();
                let tid = guard.tid;
                *g = Some(guard);
                tid
            }
        })
        .ok()
}

/// Registers a callback that runs when the calling thread exits, before its
/// tid is released. Callbacks run in registration order.
///
/// Reclamation schemes use this to drain per-thread retired lists and
/// handover slots so that objects are not stranded when a worker thread
/// terminates.
pub fn defer_at_exit(f: impl FnOnce() + 'static) {
    GUARD.with(|g| {
        let mut g = g.borrow_mut();
        if g.is_none() {
            *g = Some(register());
        }
        g.as_mut().unwrap().cleanups.push(Box::new(f));
    });
}

/// Releases the calling thread's tid *now*, running its [`defer_at_exit`]
/// callbacks, instead of waiting for thread exit. A later [`tid`] call on
/// the same thread re-registers.
///
/// The orc-check model checker calls this at the end of every model
/// thread's body so scheme exit-cleanups (handover drains, retired-list
/// flushes) execute inside the checked, scheduled region rather than in an
/// unscheduled TLS destructor.
pub fn retire_thread() {
    let guard = GUARD.try_with(|g| g.borrow_mut().take()).ok().flatten();
    drop(guard);
}

/// Fixed registry capacity (the paper's `maxThreads`).
#[inline]
pub const fn max_threads() -> usize {
    MAX_THREADS
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
