//! Pass-the-pointer (PTP) — the paper's manual scheme (§3.1, Algorithm 2).
//!
//! Protection is identical to HP/PTB: publish in `hp[tid][idx]`, re-read,
//! retry. Retirement is where PTP differs: instead of accumulating a
//! thread-local retired list, `retire` *immediately* walks every published
//! hazard pointer and, on finding a slot protecting the object, atomically
//! `exchange`s the object into that slot's *handover* entry — transferring
//! responsibility for the free to the protecting thread. Whatever pointer
//! previously occupied that handover entry continues the walk from the same
//! position, so pointers only ever move *forward* through the
//! `[maxThreads][maxHPs]` handover matrix and each object is handed over at
//! most `t × H` times. If the walk falls off the end, the object is deleted
//! on the spot.
//!
//! Consequences (Table 1): at most one in-flight pointer per thread plus
//! `t × H` parked in handover entries — an **O(H·t)** bound, the first
//! linear bound for a pointer-based scheme — with no retired lists at all.
//!
//! `clear` additionally drains the slot's handover entry (the "optional"
//! lines 16–19 of Algorithm 2) so parked objects are not stranded when a
//! slot stops being used; the continuation walk starts at the clearing
//! thread's own row, preserving the forward-only invariant. This relies on
//! the documented PTP/OrcGC constraint that protections are never *copied*
//! from a higher-indexed slot to a lower-indexed one (fresh protections
//! always re-validate against a shared link, which retired objects are no
//! longer reachable from).
//!
//! A walk whose park lost the race with the slot's release takes the
//! object back (DESIGN.md §6.1 item 9), so nothing stays on a dead tid.
//!
//! As a composition (see [`crate::policy`]): **PTP =
//! [`PointerProtect`] × handover-matrix** — the forward-only handover walk
//! *is* the scheme, so it stays in this module, sitting on the shared
//! [`RetireLedger`] spine. There is no retired list: reclamation is
//! immediate or delegated.

use crate::hazard::SlotArray;
use crate::header::SmrHeader;
use crate::policy::{PointerProtect, RetireLedger};
use crate::scheme::{Caller, Core, Scheme};
use crate::MAX_HPS;
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::registry;
use orc_util::sample::Pass;
use orc_util::stats::Event;
use orc_util::trace::EventKind;

/// The PTP algorithm; [`PassThePointer`] is its handle.
pub struct Ptp {
    hp: PointerProtect,
    /// `handovers[tid][idx]` holds a *header* pointer (as usize) parked on
    /// the hazard slot `hp[tid][idx]`.
    handovers: SlotArray,
    ledger: RetireLedger,
}

/// Pass-the-pointer manual reclamation (PPoPP '21, Algorithm 2).
pub type PassThePointer = Scheme<Ptp>;

impl PassThePointer {
    pub fn new() -> Self {
        Self::from_core(Ptp {
            hp: PointerProtect::new(),
            handovers: SlotArray::new(),
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
    /// a draining `clear_slot`'s own; a traced walk's events all carry
    /// the ring's latched stamp, so the walk reads the clock only to
    /// time a stamped object a drain frees.
    fn handover_or_delete(&self, tid: usize, mut h: *mut SmrHeader, start: usize, mut pass: Pass) {
        self.ledger.open_scan(tid, &pass);
        let wm = registry::registered_watermark();
        let mut it = start;
        while it < wm {
            let mut idx = 0;
            while idx < MAX_HPS {
                // SAFETY: `h` is a retired-but-not-destroyed header owned
                // by this walk; the header stays readable until the walk
                // deletes it or parks it.
                let word = unsafe { SmrHeader::value_word(h) };
                // orc-lint: allow(seqcst, scan side of the hazard SC argument; pairs with the publish xchg)
                if self.hp.raw().get(it, idx).load(Ordering::SeqCst) == word {
                    let entry = self.handovers.get(it, idx);
                    // orc-lint: allow(seqcst, parking must be a single SC point vs the owner's drain)
                    let mut prev = entry.swap(h as usize, Ordering::SeqCst);
                    self.ledger.stats().bump(tid, Event::Handover);
                    pass.record(tid, EventKind::Handover, h as u64, 0);
                    // The take-back: the walk goes on from this row.
                    // orc-lint: allow(seqcst, take-back re-read: SC after the park so a release the owner's drain missed is seen here)
                    if self.hp.raw().get(it, idx).load(Ordering::SeqCst) != word {
                        // Acquire: it may be another retirer's park.
                        let back = entry.swap(0, Ordering::Acquire);
                        if prev == 0 {
                            prev = back;
                        } else if back != 0 {
                            self.handover_or_delete(tid, back as *mut SmrHeader, it, Pass::drawn());
                        }
                    }
                    if prev == 0 {
                        pass.record(tid, EventKind::ScanEnd, 0, 0);
                        return;
                    }
                    // Re-check the same slot against the pointer we just
                    // took over (Algorithm 2, lines 30–31).
                    h = prev as *mut SmrHeader;
                    continue;
                }
                idx += 1;
            }
            it += 1;
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

    /// Clears `hp[tid][idx]` and continues the retirement of any pointer
    /// parked in the matching handover entry.
    fn clear_slot(&self, tid: usize, idx: usize) {
        self.hp.clear(tid, idx);
        // orc-lint: allow(seqcst, handover entries are SC-ordered against the scanner's park xchg)
        if self.handovers.get(tid, idx).load(Ordering::SeqCst) != 0 {
            self.take_handover(tid, idx);
        }
    }

    /// [`Self::clear_slot`]'s drain without the load: an RMW, so a later
    /// park sees the clear before it (DESIGN.md §6.1 item 9).
    fn take_handover(&self, tid: usize, idx: usize) {
        // orc-lint: allow(seqcst, taking the parked object must be a single SC point vs the scanner)
        let parked = self.handovers.get(tid, idx).swap(0, Ordering::SeqCst);
        if parked != 0 {
            self.handover_or_delete(tid, parked as *mut SmrHeader, tid, Pass::drawn());
        }
    }
}

impl Drop for Ptp {
    fn drop(&mut self) {
        // Exclusive access at teardown: anything still parked is freed.
        for tid in 0..registry::MAX_THREADS {
            for idx in 0..MAX_HPS {
                // Teardown: `&mut self` is exclusive, no ordering needed.
                let parked = self.handovers.get(tid, idx).swap(0, Ordering::Relaxed);
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

    fn ledger(&self) -> &RetireLedger {
        &self.ledger
    }

    fn end_op(&self, tid: usize) {
        for idx in 0..MAX_HPS {
            self.clear_slot(tid, idx);
        }
    }

    #[inline]
    fn protect(&self, me: Caller<'_, Self>, idx: usize, addr: &AtomicUsize) -> usize {
        self.hp.protect(me.tid(), idx, addr, self.ledger.stats())
    }

    #[inline]
    fn publish(&self, me: Caller<'_, Self>, idx: usize, word: usize) {
        self.hp.publish(me.tid(), idx, word);
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
        // PTP keeps no retired lists; nothing to drain beyond our own
        // handover entries, which clear() already services.
        for idx in 0..MAX_HPS {
            // Own row: slots are written only by this thread.
            if self.hp.raw().get(tid, idx).load(Ordering::Relaxed) == 0 {
                self.clear_slot(tid, idx);
            }
        }
    }

    fn thread_exit(&self, tid: usize) {
        // Exit ends whatever operation the thread abandoned: every slot
        // cleared, every object parked on it walked on.
        for idx in 0..MAX_HPS {
            self.hp.clear(tid, idx);
            self.take_handover(tid, idx);
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
