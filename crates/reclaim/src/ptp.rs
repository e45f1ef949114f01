//! Pass-the-pointer (PTP) — the paper's manual scheme (§3.1, Algorithm 2).
//!
//! Protection is HP's publish-and-revalidate on the same hazard-slot
//! matrix ([`Slots::protect`](orc_util::handover::Slots::protect)), and
//! there is no retired list: `retire` walks the hazard slots at once,
//! parks the object on the handover entry of a slot protecting it and
//! goes on with what the entry held, or deletes it at the end of the walk
//! — the **O(H·t)** bound of Table 1. The handover entries and the
//! protocol are [`orc_util::handover`]'s, shared with OrcGC; this module
//! keeps Algorithm 2's forward-only walk,
//! which relies on a protection never being *copied* to a lower-indexed
//! slot (a fresh one re-validates against a link no retired object is on).

use crate::header::SmrHeader;
use crate::policy::RetireLedger;
use crate::scheme::{Caller, Core, Scheme};
use crate::MAX_HPS;
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::handover::Handover;
use orc_util::sample::Pass;
use orc_util::stats::Event;
use orc_util::trace::EventKind;

/// The PTP algorithm; [`PassThePointer`] is its handle.
pub struct Ptp {
    /// `hp[tid][idx]` publishes a value word; `handovers[tid][idx]` holds
    /// a *header* pointer parked on it.
    slots: Handover<MAX_HPS>,
    ledger: RetireLedger,
}

/// Pass-the-pointer manual reclamation (PPoPP '21, Algorithm 2).
pub type PassThePointer = Scheme<Ptp>;

impl PassThePointer {
    pub fn new() -> Self {
        Self::from_core(Ptp {
            slots: Handover::default(),
            ledger: RetireLedger::new(),
        })
    }
}

impl Default for PassThePointer {
    fn default() -> Self {
        Self::new()
    }
}

impl Ptp {
    /// Algorithm 2, `handoverOrDelete`: walk the hazard matrix from row
    /// `start`; hand the object to any slot protecting it; delete at the
    /// end of the walk. `pass` is the retire's ([`Pass::of_retire`]) or
    /// a drain's own; a traced walk's events all carry the ring's latched
    /// stamp, so the walk reads the clock only to time a stamped object a
    /// drain frees.
    fn handover_or_delete(&self, tid: usize, mut h: *mut SmrHeader, start: usize, mut pass: Pass) {
        self.ledger.open_scan(tid, &pass);
        let mut from = (start, 0);
        loop {
            // SAFETY: `h` is a retired header this walk owns; it stays
            // readable until the walk deletes or parks it.
            let word = unsafe { (*h).block.value_word() };
            let Some((t, i)) = self.slots.find(word, from, MAX_HPS) else {
                break;
            };
            let (prev, back) = self.slots.park(t, i, h as usize, word);
            self.ledger.stats().bump(tid, Event::Handover);
            pass.record(tid, EventKind::Handover, h as u64, 0);
            // A take-back goes on from row `t`: in place of the displaced
            // object when the entry was empty, else in a nested walk.
            let (next, nested) = if prev == 0 { (back, 0) } else { (prev, back) };
            self.walk_on(tid, nested, t);
            if next == 0 {
                pass.record(tid, EventKind::ScanEnd, 0, 0);
                return;
            }
            // Re-check the same slot against the pointer we just took over
            // (Algorithm 2, lines 30–31).
            h = next as *mut SmrHeader;
            from = (t, i);
        }
        // SAFETY: the walk covered every registered row without finding a
        // protector, and forward-only handovers mean no slot behind us can
        // regain a protection on a retired (unreachable) object —
        // Algorithm 2's deletion condition.
        unsafe { self.ledger.free_scanned(tid, h, &mut pass) };
        self.ledger.stats().bump(tid, Event::Reclaim);
        self.ledger.stats().batch(tid, 1);
        pass.record(tid, EventKind::ReclaimBatch, 1, 0);
        pass.record(tid, EventKind::ScanEnd, 1, 0);
    }

    /// Walks a header taken from a handover entry (0: none) on from `start`.
    fn walk_on(&self, tid: usize, parked: usize, start: usize) {
        if parked != 0 {
            self.handover_or_delete(tid, parked as *mut SmrHeader, start, Pass::drawn());
        }
    }

    /// Releases `hp[tid][idx]` and walks on whatever its entry holds.
    fn clear_slot(&self, tid: usize, idx: usize) {
        self.slots.release(tid, idx);
        self.walk_on(tid, self.slots.drain(tid, idx), tid);
    }
}

impl Drop for Ptp {
    fn drop(&mut self) {
        // Exclusive access at teardown: anything still parked is freed.
        for tid in 0..orc_util::registry::MAX_THREADS {
            for idx in 0..MAX_HPS {
                let parked = self.slots.take(tid, idx);
                if parked != 0 {
                    // SAFETY: `&mut self` in `drop` proves no thread still
                    // uses the scheme; a parked object is owned by its
                    // entry and freed exactly once.
                    unsafe { SmrHeader::destroy(parked as *mut SmrHeader) };
                }
            }
        }
    }
}

impl Core for Ptp {
    const NAME: &'static str = "PTP";
    const LOCK_FREE: bool = true;
    type Extra = ();

    fn extra(&self) {}

    fn ledger(&self) -> &RetireLedger {
        &self.ledger
    }

    fn end_op(&self, me: Caller<'_, Self>) {
        let tid = me.tid();
        for idx in 0..MAX_HPS {
            self.clear_slot(tid, idx);
        }
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
        self.clear_slot(me.tid(), idx);
    }

    #[inline]
    unsafe fn retire(&self, tid: usize, h: *mut SmrHeader, stamp: u64) {
        // Algorithm 2, line 22: the walk starts at row 0.
        self.handover_or_delete(tid, h, 0, Pass::of_retire(stamp));
    }

    fn flush(&self, tid: usize) {
        // Drain only released slots (own row: Relaxed); `clear` drains the rest.
        for idx in 0..MAX_HPS {
            if self.slots.hp(tid, idx).load(Ordering::Relaxed) == 0 {
                self.walk_on(tid, self.slots.drain(tid, idx), tid);
            }
        }
    }

    fn thread_exit(&self, tid: usize) {
        // Exit ends whatever operation the thread abandoned: every slot
        // released, every object parked on it walked on.
        for idx in 0..MAX_HPS {
            self.slots.release(tid, idx);
            self.walk_on(tid, self.slots.take(tid, idx), tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Smr;
    use orc_util::atomics::AtomicPtr;
    use std::sync::Arc;

    #[test]
    fn unprotected_retire_frees_immediately() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let ptp = PassThePointer::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let p = ptp.alloc(Probe(drops.clone()));
        // SAFETY: `p` came from this scheme's `alloc`, retired once.
        unsafe { ptp.retire(p) };
        assert_eq!(ptp.unreclaimed(), 0, "no protector: deleted on the spot");
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn protected_retire_parks_in_handover() {
        let ptp = PassThePointer::new();
        let p = ptp.alloc(5u32);
        let addr = AtomicPtr::new(p);
        let got = ptp.protect_ptr(0, &addr);
        assert_eq!(got, p);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { ptp.retire(p) };
        // Parked on our own slot: still readable, counted as unreclaimed.
        assert_eq!(ptp.unreclaimed(), 1);
        // SAFETY: our hazard slot protects `p`; retire parked it instead
        // of freeing it.
        assert_eq!(unsafe { *p }, 5);
        // Clearing the slot continues (and here finishes) the retirement.
        ptp.clear(0);
        assert_eq!(ptp.unreclaimed(), 0);
    }

    #[test]
    fn end_op_drains_all_handovers() {
        let ptp = PassThePointer::new();
        let mut ptrs = Vec::new();
        for i in 0..4 {
            let p = ptp.alloc(i as u64);
            let addr = AtomicPtr::new(p);
            ptp.protect_ptr(i, &addr);
            ptrs.push(p);
        }
        for p in &ptrs {
            // SAFETY: each pointer came from `alloc` and is retired once.
            unsafe { ptp.retire(*p) };
        }
        assert_eq!(ptp.unreclaimed(), 4);
        ptp.end_op();
        assert_eq!(ptp.unreclaimed(), 0);
    }

    #[test]
    fn handover_chain_pushes_forward() {
        // Two objects protected by the same slot in sequence: retiring the
        // second must displace the first from the handover entry and
        // continue its walk (deleting it, since nothing else protects it).
        let ptp = PassThePointer::new();
        let a = ptp.alloc(1u64);
        let b = ptp.alloc(2u64);
        let addr = AtomicPtr::new(a);
        ptp.protect_ptr(0, &addr);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { ptp.retire(a) }; // parked on slot 0
        assert_eq!(ptp.unreclaimed(), 1);
        // Re-protect slot 0 on b, then retire b: b parks, a is displaced and
        // freed (slot no longer protects a).
        addr.store(b, Ordering::SeqCst);
        ptp.protect_ptr(0, &addr);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { ptp.retire(b) };
        assert_eq!(ptp.unreclaimed(), 1, "only b should remain parked");
        // SAFETY: `b` is parked on our slot, not freed.
        assert_eq!(unsafe { *b }, 2);
        ptp.end_op();
        assert_eq!(ptp.unreclaimed(), 0);
    }

    #[test]
    fn cross_thread_handover() {
        let ptp = PassThePointer::new();
        let p = ptp.alloc(77u64);
        let addr = Arc::new(AtomicPtr::new(p));
        let ptp2 = ptp.clone();
        let addr2 = addr.clone();
        let (protected_tx, protected_rx) = std::sync::mpsc::channel();
        let (retired_tx, retired_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            let got = ptp2.protect_ptr(0, &addr2);
            protected_tx.send(()).unwrap();
            retired_rx.recv().unwrap();
            // Object was retired by the main thread while we protect it; we
            // must still be able to read it.
            // SAFETY: our hazard slot protects `got`; the concurrent
            // retire parked it on our handover entry instead of freeing.
            assert_eq!(unsafe { *got }, 77);
            ptp2.end_op(); // draining our handover frees it
        });
        protected_rx.recv().unwrap();
        // SAFETY: allocated above, retired once (by this thread only).
        unsafe { ptp.retire(p) };
        assert_eq!(ptp.unreclaimed(), 1, "parked on the reader's slot");
        retired_tx.send(()).unwrap();
        t.join().unwrap();
        assert_eq!(ptp.unreclaimed(), 0);
    }

    #[test]
    fn linear_bound_holds_under_stress() {
        // t threads each with H protections; an adversary retires objects
        // continuously. PTP guarantees unreclaimed <= t*(H+1) at all times.
        let ptp = Arc::new(PassThePointer::new());
        let readers = 3usize;
        let stop = Arc::new(orc_util::atomics::AtomicBool::new(false));
        let shared: Arc<Vec<AtomicPtr<u64>>> = Arc::new(
            (0..MAX_HPS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        );
        for s in shared.iter() {
            s.store(ptp.alloc(0u64), Ordering::SeqCst);
        }
        let mut handles = Vec::new();
        for _ in 0..readers {
            let ptp = ptp.clone();
            let shared = shared.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for idx in 0..MAX_HPS {
                        let p = ptp.protect_ptr(idx, &shared[idx]);
                        if !p.is_null() {
                            // SAFETY: our hazard slot protects `p`; a
                            // concurrent retire parks it rather than
                            // freeing it while the protection stands.
                            unsafe { std::ptr::read_volatile(p) };
                        }
                    }
                    ptp.end_op();
                }
            }));
        }
        let mut max_seen = 0;
        for round in 0..2_000u64 {
            let idx = (round as usize) % MAX_HPS;
            let fresh = ptp.alloc(round);
            let old = shared[idx].swap(fresh, Ordering::SeqCst);
            // SAFETY: the swap made us the unlinker; each object is
            // retired by exactly one thread.
            unsafe { ptp.retire(old) };
            max_seen = max_seen.max(ptp.unreclaimed());
        }
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let bound = (readers + 2) * (MAX_HPS + 1);
        assert!(
            max_seen <= bound,
            "unreclaimed {max_seen} exceeded linear bound {bound}"
        );
        // Cleanup.
        for s in shared.iter() {
            let p = s.swap(std::ptr::null_mut(), Ordering::SeqCst);
            // SAFETY: readers joined; each remaining object is retired
            // exactly once.
            unsafe { ptp.retire(p) };
        }
        ptp.end_op();
        assert_eq!(ptp.unreclaimed(), 0);
    }
}
