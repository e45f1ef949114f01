//! The "None" baseline: no reclamation at all.
//!
//! The paper's queue figures (Figs. 1–2) normalize every scheme against a
//! leaky run, and the list figures include a `None` series. Retired nodes
//! are simply abandoned *for the lifetime of the scheme*; `protect`
//! degenerates to a plain load. This is the upper bound on throughput and
//! the lower bound on memory hygiene.
//!
//! Retired nodes are parked on an intrusive stack and freed only when the
//! last handle to the scheme drops — never during the run, preserving the
//! baseline's semantics, but leaving the process (and the torture
//! harness's leak ledger) clean at teardown.
//!
//! In policy terms (see [`crate::policy`]): no protection policy, no
//! reclamation policy — only the [`RetireLedger`]'s counters, and even
//! those on a guarded path so the baseline's hot retire stays a single
//! `fetch_add` when stats are off (the unguarded ledger prologue would
//! call `registry::tid()` unconditionally, whose registration side effect
//! this baseline must not pay for).

use crate::hazard::OrphanStack;
use crate::header::{mark_retired, SmrHeader};
use crate::policy::RetireLedger;
use crate::Smr;
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::stats::{self, StatsSnapshot};
use orc_util::{registry, stall};
use std::sync::Arc;

struct Inner {
    /// Everything ever retired; freed wholesale in `Drop`.
    retired: OrphanStack,
    ledger: RetireLedger,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Exclusive access at teardown: the leak ends with the scheme.
        for h in self.retired.drain() {
            // SAFETY: `&mut self` in `drop` proves no user remains; every
            // parked retiree is exclusively ours and freed exactly once.
            unsafe { SmrHeader::destroy(h) };
        }
    }
}

/// No-op reclamation scheme (leaks every retired node until teardown).
pub struct Leaky {
    inner: Arc<Inner>,
}

impl Leaky {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                retired: OrphanStack::new(),
                ledger: RetireLedger::new(),
            }),
        }
    }
}

impl Default for Leaky {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Leaky {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Smr for Leaky {
    fn name(&self) -> &'static str {
        "None"
    }

    fn alloc<T: Send>(&self, value: T) -> *mut T {
        SmrHeader::alloc(value, 0)
    }

    #[inline]
    fn end_op(&self) {}

    #[inline]
    fn protect(&self, _idx: usize, addr: &AtomicUsize) -> usize {
        // Nothing is ever reclaimed; Acquire covers data visibility.
        let word = addr.load(Ordering::Acquire);
        stall::hit(stall::StallPoint::Protect);
        word
    }

    #[inline]
    fn publish(&self, _idx: usize, _word: usize) {}

    #[inline]
    fn clear(&self, _idx: usize) {}

    unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        let now = self.inner.ledger.gauge_add_one();
        if stats::enabled() {
            self.inner.ledger.record_retire(registry::tid(), now as u64);
        }
        // SAFETY: `ptr` came from `Smr::alloc` (retire's contract), so it
        // is the value field of a live tracked allocation.
        let h = unsafe { SmrHeader::of_value(ptr) };
        orc_util::chk_hooks::on_retire(h as usize);
        if stats::enabled() || orc_util::trace::enabled() {
            // SAFETY: `h` is the live header just recovered from `ptr`.
            unsafe { mark_retired(registry::tid(), h) };
        }
        // SAFETY: pushing transfers the retired object's ownership to the
        // parked stack; it is never freed before `Inner::drop`.
        unsafe { self.inner.retired.push(h) };
    }

    fn flush(&self) {
        // Nothing to reclaim — the pass is still counted so consumers can
        // see the baseline was flushed like every other scheme.
        if stats::enabled() {
            self.inner
                .ledger
                .stats()
                .bump(registry::tid(), orc_util::stats::Event::Flush);
        }
    }

    fn unreclaimed(&self) -> usize {
        self.inner.ledger.unreclaimed()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.ledger.snapshot()
    }

    fn is_lock_free(&self) -> bool {
        // Trivially non-blocking, but provides no reclamation guarantee:
        // the unreclaimed bound is infinite for the scheme's lifetime.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protect_is_plain_load() {
        let l = Leaky::new();
        let a = AtomicUsize::new(77);
        assert_eq!(l.protect(0, &a), 77);
    }

    #[test]
    fn retire_counts_but_never_frees_while_alive() {
        let l = Leaky::new();
        let p = l.alloc(123u64);
        // SAFETY: `p` came from this scheme's `alloc`, retired once.
        unsafe { l.retire(p) };
        assert_eq!(l.unreclaimed(), 1);
        l.flush();
        assert_eq!(l.unreclaimed(), 1);
        // The object is still readable — that is the point of the baseline.
        // SAFETY: Leaky never frees while alive, so `p` is still live.
        assert_eq!(unsafe { *p }, 123);
    }

    #[test]
    fn teardown_frees_the_leak() {
        struct Probe(std::sync::Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = std::sync::Arc::new(AtomicUsize::new(0));
        {
            let l = Leaky::new();
            let l2 = l.clone();
            for _ in 0..10 {
                let p = l.alloc(Probe(drops.clone()));
                // SAFETY: allocated above, unshared, retired once.
                unsafe { l2.retire(p) };
            }
            assert_eq!(drops.load(Ordering::SeqCst), 0, "no frees while alive");
            assert_eq!(l.unreclaimed(), 10);
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            10,
            "teardown must free every parked retiree"
        );
    }

    #[test]
    fn dealloc_now_frees_immediately() {
        struct Probe(std::sync::Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let l = Leaky::new();
        let drops = std::sync::Arc::new(AtomicUsize::new(0));
        let p = l.alloc(Probe(drops.clone()));
        // SAFETY: allocated above and never shared — exclusive ownership.
        unsafe { l.dealloc_now(p) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
