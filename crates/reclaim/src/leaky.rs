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
//! reclamation policy — only the [`RetireLedger`], inside the same
//! [`Scheme`] shell as every other manual scheme. None of its per-op
//! methods asks the [`Caller`] for its tid, so a thread that only reads
//! never touches the registry; `retire` and `flush` attach, as the shell's
//! prologues do for every scheme.

use crate::hazard::OrphanStack;
use crate::header::SmrHeader;
use crate::policy::RetireLedger;
use crate::scheme::{Caller, Core, Scheme};
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::stall;

/// The None algorithm; [`Leaky`] is its handle.
pub struct LeakyCore {
    /// Everything ever retired; freed wholesale in `Drop`.
    stash: OrphanStack,
    ledger: RetireLedger,
}

/// No-op reclamation scheme (leaks every retired node until teardown).
pub type Leaky = Scheme<LeakyCore>;

impl Leaky {
    pub fn new() -> Self {
        Self::from_core(LeakyCore {
            stash: OrphanStack::new(),
            ledger: RetireLedger::new(),
        })
    }
}

impl Default for Leaky {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LeakyCore {
    fn drop(&mut self) {
        // Exclusive access at teardown: the leak ends with the scheme.
        for h in self.stash.drain() {
            // SAFETY: `&mut self` in `drop` proves no user remains; every
            // parked retiree is exclusively ours and freed exactly once.
            unsafe { SmrHeader::destroy(h) };
        }
    }
}

impl Core for LeakyCore {
    const NAME: &'static str = "None";
    /// Trivially non-blocking, but with no reclamation guarantee: the
    /// unreclaimed bound is infinite for the scheme's lifetime.
    const LOCK_FREE: bool = true;

    fn ledger(&self) -> &RetireLedger {
        &self.ledger
    }

    #[inline]
    fn end_op(&self, _me: Caller<'_, Self>) {}

    #[inline]
    fn protect(&self, _me: Caller<'_, Self>, _idx: usize, addr: &AtomicUsize) -> usize {
        // Nothing is ever reclaimed; Acquire covers data visibility.
        let word = addr.load(Ordering::Acquire);
        stall::hit(stall::StallPoint::Protect);
        word
    }

    #[inline]
    fn publish(&self, _me: Caller<'_, Self>, _idx: usize, _word: usize) {}

    #[inline]
    fn clear(&self, _me: Caller<'_, Self>, _idx: usize) {}

    #[inline]
    unsafe fn retire(&self, _tid: usize, h: *mut SmrHeader, _stamp: u64) {
        // SAFETY: pushing transfers the retired object's ownership to the
        // stash; it is never freed before `LeakyCore::drop`.
        unsafe { self.stash.push(h) };
    }

    /// Nothing to reclaim; the shell still counts the pass, so consumers
    /// see the baseline flushed like every other scheme.
    fn flush(&self, _tid: usize) {}

    /// The stash outlives every thread: nothing is per-thread.
    fn thread_exit(&self, _tid: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Smr;
    use std::sync::Arc;

    struct Probe(Arc<AtomicUsize>);

    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

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
        let drops = Arc::new(AtomicUsize::new(0));
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

    /// A retiring thread attaches, so its exit runs the shell's hook and
    /// with it `thread_exit`; the stash must come through untouched and be
    /// freed once, by the drop of the last handle.
    #[test]
    fn retirees_of_an_exited_thread_are_freed_once_at_teardown() {
        let drops = Arc::new(AtomicUsize::new(0));
        let l = Leaky::new();
        let (l2, d2) = (l.clone(), drops.clone());
        std::thread::spawn(move || {
            for _ in 0..10 {
                let p = l2.alloc(Probe(d2.clone()));
                // SAFETY: allocated above, unshared, retired once.
                unsafe { l2.retire(p) };
            }
        })
        .join()
        .unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "the exit hook freed");
        assert_eq!(l.unreclaimed(), 10);
        drop(l);
        assert_eq!(drops.load(Ordering::SeqCst), 10, "each retiree once");
    }

    #[test]
    fn dealloc_now_frees_immediately() {
        let l = Leaky::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let p = l.alloc(Probe(drops.clone()));
        // SAFETY: allocated above and never shared — exclusive ownership.
        unsafe { l.dealloc_now(p) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
