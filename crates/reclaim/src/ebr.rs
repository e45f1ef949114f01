//! Epoch-based reclamation (Fraser 2004; RCU-style).
//!
//! The quiescence baseline: a global epoch advances only when every pinned
//! thread has observed the current value; objects retired in epoch `e` are
//! freed once the epoch reaches `e + 2`. Reads need no per-pointer
//! publication (`protect` is a plain load), which makes EBR the fastest
//! scheme on read paths — but a single stalled reader halts reclamation
//! entirely, so the unreclaimed bound is **unbounded** (Table 1 lists EBR
//! as *blocking*, the reason it cannot give lock-free structures lock-free
//! reclamation).
//!
//! As a composition (see [`crate::policy`]): **EBR =
//! [`EpochPin`] × [`LimboBins`]** — no per-object query at all; whole bins
//! are freed once two grace periods have elapsed.

use crate::header::SmrHeader;
use crate::policy::{EpochPin, LimboBins, RetireLedger};
use crate::scheme::{Caller, Core, Scheme};
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::sample::Pass;

/// Retires between advance attempts.
const ADVANCE_FREQ: usize = 64;

/// The EBR algorithm; [`Ebr`] is its handle.
pub struct EbrCore {
    epoch: EpochPin,
    limbo: LimboBins,
    ledger: RetireLedger,
}

/// Epoch-based reclamation.
pub type Ebr = Scheme<EbrCore>;

impl Ebr {
    pub fn new() -> Self {
        Self::from_core(EbrCore {
            epoch: EpochPin::new(),
            limbo: LimboBins::new(),
            ledger: RetireLedger::new(),
        })
    }
}

impl Default for Ebr {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EbrCore {
    fn drop(&mut self) {
        self.limbo.teardown();
    }
}

impl Core for EbrCore {
    const NAME: &'static str = "EBR";
    /// EBR's retire is blocking: a stalled pinned thread stops reclamation.
    const LOCK_FREE: bool = false;

    fn ledger(&self) -> &RetireLedger {
        &self.ledger
    }

    /// Pin: publish the current global epoch (with a full fence, via swap).
    #[inline]
    fn begin_op(&self, me: Caller<'_, Self>) {
        self.epoch.pin(me.tid());
    }

    /// Unpin.
    fn end_op(&self, me: Caller<'_, Self>) {
        self.epoch.unpin(me.tid());
    }

    /// No per-pointer publication: epoch pinning already protects every
    /// object reachable during the operation. None of the three per-hop
    /// methods asks for the tid, so none of them touches the registry.
    #[inline]
    fn protect(&self, _me: Caller<'_, Self>, _idx: usize, addr: &AtomicUsize) -> usize {
        // The pin (SC xchg in begin_op) already protects everything
        // reachable; Acquire is only needed for data visibility.
        let word = addr.load(Ordering::Acquire);
        orc_util::stall::hit(orc_util::stall::StallPoint::Protect);
        word
    }

    #[inline]
    fn publish(&self, _me: Caller<'_, Self>, _idx: usize, _word: usize) {}

    #[inline]
    fn clear(&self, _me: Caller<'_, Self>, _idx: usize) {}

    #[inline]
    unsafe fn retire(&self, tid: usize, h: *mut SmrHeader, stamp: u64) {
        let e = self.epoch.current();
        // SAFETY: `tid` is the calling thread's slot; ownership of `h`
        // transfers to the limbo bin.
        unsafe { self.limbo.push(tid, e, h) };
        // SAFETY: owner-only tick counter.
        if unsafe { self.limbo.tick(tid, ADVANCE_FREQ) } {
            let e = self.epoch.try_advance();
            let mut pass = Pass::of_retire(stamp);
            // SAFETY: owner-only collect on our own tid.
            unsafe { self.limbo.collect(tid, e, &self.ledger, &mut pass) };
        }
    }

    fn flush(&self, tid: usize) {
        // Unpinned flush can advance up to three times, emptying all bins
        // if no other thread is pinned behind — one call, one pass clock.
        let mut pass = Pass::drawn();
        for _ in 0..3 {
            let e = self.epoch.try_advance();
            // SAFETY: owner-only collect on our own tid.
            unsafe { self.limbo.collect(tid, e, &self.ledger, &mut pass) };
        }
    }

    fn thread_exit(&self, tid: usize) {
        self.epoch.unpin_sync(tid);
        // SAFETY: called by the exiting owner thread (exit hook), the only
        // remaining user of slot `tid`.
        unsafe { self.limbo.orphan_all(tid) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Smr;
    use orc_util::atomics::AtomicPtr;
    use std::sync::Arc;

    #[test]
    fn retire_then_flush_reclaims_when_quiescent() {
        let ebr = Ebr::new();
        for i in 0..10 {
            let p = ebr.alloc(i as u64);
            // SAFETY: `p` came from this scheme's `alloc` and is retired
            // exactly once.
            unsafe { ebr.retire(p) };
        }
        assert!(ebr.unreclaimed() > 0);
        ebr.flush();
        assert_eq!(ebr.unreclaimed(), 0);
    }

    #[test]
    fn pinned_straggler_blocks_reclamation() {
        let ebr = Ebr::new();
        let ebr2 = ebr.clone();
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            ebr2.begin_op(); // pin and stall
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            ebr2.end_op();
        });
        pinned_rx.recv().unwrap();
        let p = ebr.alloc(1u64);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { ebr.retire(p) };
        ebr.flush();
        assert_eq!(
            ebr.unreclaimed(),
            1,
            "stalled pinned reader must block epoch advance"
        );
        release_tx.send(()).unwrap();
        t.join().unwrap();
        ebr.flush();
        assert_eq!(ebr.unreclaimed(), 0);
    }

    #[test]
    fn objects_survive_while_reader_pinned_in_same_epoch() {
        let ebr = Ebr::new();
        ebr.begin_op();
        let p = ebr.alloc(5u64);
        let addr = AtomicPtr::new(p);
        let got = ebr.protect_ptr(0, &addr);
        // SAFETY: `got` came from `alloc` above and is retired once.
        unsafe { ebr.retire(got) };
        // We are pinned; even aggressive flushing from this thread cannot
        // free the object out from under us... but flush from the same
        // thread while pinned would deadlock semantics — EBR contract says
        // retire defers. Simply check the object is still readable.
        // SAFETY: we are pinned in the retire epoch, so the object cannot
        // have been freed.
        assert_eq!(unsafe { *got }, 5);
        ebr.end_op();
        ebr.flush();
        assert_eq!(ebr.unreclaimed(), 0);
    }

    #[test]
    fn concurrent_stress() {
        let ebr = Arc::new(Ebr::new());
        let addr = Arc::new(AtomicPtr::new(ebr.alloc(0u64)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ebr = ebr.clone();
                let addr = addr.clone();
                std::thread::spawn(move || {
                    for i in 0..4_000u64 {
                        ebr.begin_op();
                        if t % 2 == 0 {
                            let n = ebr.alloc(i);
                            let old = addr.swap(n, Ordering::SeqCst);
                            // SAFETY: the swap made us the unlinker; each
                            // object is retired by exactly one thread.
                            unsafe { ebr.retire(old) };
                        } else {
                            let p = ebr.protect_ptr(0, &addr);
                            // SAFETY: we are pinned; EBR defers any
                            // concurrent retire of `p` past our `end_op`.
                            assert!(unsafe { *p } < 4_000);
                        }
                        ebr.end_op();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let last = addr.load(Ordering::SeqCst);
        // SAFETY: all threads joined; `last` is the one live object and is
        // retired exactly once.
        unsafe { ebr.retire(last) };
        ebr.flush();
        assert_eq!(ebr.unreclaimed(), 0);
    }
}
