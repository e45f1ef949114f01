//! Hazard pointers (Michael 2004).
//!
//! The classic pointer-based scheme and the primary manual baseline of the
//! paper's Figures 3–4. Protection publishes the pointer in a per-thread
//! hazard slot and re-validates; retirement appends to a thread-local list
//! and, once the list exceeds a threshold proportional to `H × t`, scans
//! all published slots and frees the unprotected entries. The total number
//! of retired-but-unfreed objects is `O(H·t²)` — the quadratic bound PTP
//! improves on.
//!
//! As a composition (see [`crate::policy`]): **HP = pointer publication
//! on the [`Slots`] matrix × [`ScanList`]**, with the keep-predicate "the
//! object's value word appears in a published slot".

use crate::header::SmrHeader;
use crate::policy::{RetireLedger, ScanList};
use crate::scheme::{Caller, Core, Scheme};
use crate::MAX_HPS;
use orc_util::atomics::AtomicUsize;
use orc_util::handover::Slots;
use orc_util::sample::Pass;

/// The HP algorithm; [`HazardPointers`] is its handle.
pub struct Hp {
    slots: Slots<MAX_HPS>,
    retired: ScanList,
    ledger: RetireLedger,
}

/// Hazard-pointer reclamation (Michael 2004).
pub type HazardPointers = Scheme<Hp>;

impl HazardPointers {
    pub fn new() -> Self {
        Self::with_threshold(0)
    }

    /// `threshold_base = 0` selects the watermark-scaled `2·H·t + 8`
    /// threshold; a nonzero value fixes the per-thread retired-list trigger
    /// (used by the bound experiments).
    pub fn with_threshold(threshold_base: usize) -> Self {
        Self::from_core(Hp {
            slots: Slots::default(),
            retired: ScanList::new(threshold_base),
            ledger: RetireLedger::new(),
        })
    }
}

impl Default for HazardPointers {
    fn default() -> Self {
        Self::new()
    }
}

impl Hp {
    /// Frees every entry of `tid`'s retired list not currently protected.
    fn scan(&self, tid: usize, mut pass: Pass) {
        // SAFETY: `scan` is only called by the thread owning `tid` (retire/
        // flush path) or from the exit hook on that same thread.
        unsafe {
            self.retired.scan(
                tid,
                &self.ledger,
                &mut pass,
                |words, _| self.slots.collect(words),
                // SAFETY(closure, inherits the enclosing unsafe block):
                // retired headers are live until this scan frees them — the
                // Michael 2004 reclamation condition.
                |h, words, _| words.binary_search(&(*h).block.value_word()).is_ok(),
            );
        }
    }
}

impl Drop for Hp {
    fn drop(&mut self) {
        // Exclusive access: free everything still deferred.
        self.retired.teardown();
    }
}

impl Core for Hp {
    const NAME: &'static str = "HP";
    const LOCK_FREE: bool = true;
    type Extra = ();

    fn extra(&self) {}

    fn ledger(&self) -> &RetireLedger {
        &self.ledger
    }

    fn end_op(&self, me: Caller<'_, Self>) {
        self.slots.release_row(me.tid());
    }

    #[inline]
    fn protect(&self, me: Caller<'_, Self>, idx: usize, addr: &AtomicUsize) -> usize {
        self.slots.protect(me.tid(), idx, addr, self.ledger.stats())
    }

    #[inline]
    fn publish(&self, me: Caller<'_, Self>, idx: usize, word: usize) {
        self.slots.publish_copy(me.tid(), idx, word);
    }

    #[inline]
    fn clear(&self, me: Caller<'_, Self>, idx: usize) {
        self.slots.release(me.tid(), idx);
    }

    #[inline]
    unsafe fn retire(&self, tid: usize, h: *mut SmrHeader, stamp: u64) {
        // SAFETY: `tid` is the calling thread's own registry slot; ownership
        // of `h` transfers to the retired list.
        let len = unsafe { self.retired.push(tid, h) };
        if len >= self.retired.threshold() {
            self.scan(tid, Pass::of_retire(stamp));
        }
    }

    fn flush(&self, tid: usize) {
        self.scan(tid, Pass::drawn());
    }

    fn thread_exit(&self, tid: usize) {
        self.scan(tid, Pass::drawn());
        // SAFETY: the exit hook runs on the owning thread before the tid is
        // released.
        unsafe { self.retired.orphan_all(tid) };
        self.slots.release_row(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Smr;
    use orc_util::atomics::{AtomicPtr, Ordering};
    use std::sync::Arc;

    #[test]
    fn protect_then_retire_defers_free() {
        let hp = HazardPointers::with_threshold(1);
        let p = hp.alloc(42u64);
        let addr = AtomicPtr::new(p);
        let got = hp.protect_ptr(0, &addr);
        assert_eq!(got, p);
        // Simulate unlink + retire by another logical owner: with our own
        // hazard published, the scan must NOT free it.
        // SAFETY: `p` came from this scheme's `alloc`, retired once.
        unsafe { hp.retire(p) };
        assert_eq!(hp.unreclaimed(), 1);
        // SAFETY: our hazard slot protects `p`; the scan kept it alive.
        assert_eq!(unsafe { *p }, 42);
        // Dropping protection lets the next flush reclaim it.
        hp.end_op();
        hp.flush();
        assert_eq!(hp.unreclaimed(), 0);
    }

    #[test]
    fn unprotected_retire_frees_on_threshold() {
        let hp = HazardPointers::with_threshold(4);
        for _ in 0..16 {
            let p = hp.alloc(7u32);
            // SAFETY: allocated above, unshared, retired once.
            unsafe { hp.retire(p) };
        }
        hp.flush();
        assert_eq!(hp.unreclaimed(), 0);
    }

    #[test]
    fn exiting_thread_orphans_are_adopted() {
        let hp = HazardPointers::with_threshold(1_000_000); // never auto-scan
        let hp2 = hp.clone();
        std::thread::spawn(move || {
            let p = hp2.alloc(1u8);
            // SAFETY: allocated above, unshared, retired once.
            unsafe { hp2.retire(p) };
        })
        .join()
        .unwrap();
        // The exiting thread scanned; nothing protected it, so it was freed
        // already (exit scan) or pushed to orphans — flush settles both.
        hp.flush();
        assert_eq!(hp.unreclaimed(), 0);
    }

    #[test]
    fn protection_by_other_thread_blocks_reclaim() {
        let hp = HazardPointers::with_threshold(1);
        let p = hp.alloc(9u64);
        let addr = Arc::new(AtomicPtr::new(p));
        let hp2 = hp.clone();
        let addr2 = addr.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            let got = hp2.protect_ptr(0, &addr2);
            tx.send(()).unwrap();
            done_rx.recv().unwrap();
            // SAFETY: our hazard slot protects `got`; the concurrent
            // retire+scan must not free it while the protection stands.
            assert_eq!(unsafe { *got }, 9);
            hp2.end_op();
        });
        rx.recv().unwrap();
        // SAFETY: allocated above, retired once (by this thread only).
        unsafe { hp.retire(p) };
        hp.flush();
        assert_eq!(hp.unreclaimed(), 1, "protected object must survive scan");
        done_tx.send(()).unwrap();
        t.join().unwrap();
        hp.flush();
        assert_eq!(hp.unreclaimed(), 0);
    }

    #[test]
    fn drop_reclaims_everything() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let hp = HazardPointers::with_threshold(1_000_000);
            for _ in 0..100 {
                let p = hp.alloc(Probe(drops.clone()));
                // SAFETY: allocated above, unshared, retired once.
                unsafe { hp.retire(p) };
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn concurrent_hammer_no_crash() {
        let hp = Arc::new(HazardPointers::new());
        let addr = Arc::new(AtomicPtr::new(hp.alloc(0u64)));
        let threads = 4;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let hp = hp.clone();
                let addr = addr.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        if t % 2 == 0 {
                            // Writer: swap in a fresh node, retire the old.
                            let n = hp.alloc(i);
                            let old = addr.swap(n, Ordering::SeqCst);
                            // SAFETY: the swap made us the unlinker; each
                            // object is retired by exactly one thread.
                            unsafe { hp.retire(old) };
                        } else {
                            // Reader: protect and read.
                            let p = hp.protect_ptr(0, &addr);
                            // SAFETY: our hazard slot protects `p`; a
                            // concurrent scan must not free it.
                            let v = unsafe { *p };
                            assert!(v < 5_000);
                            hp.end_op();
                        }
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
        unsafe { hp.retire(last) };
        hp.flush();
        assert_eq!(hp.unreclaimed(), 0);
    }
}
