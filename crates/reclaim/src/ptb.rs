//! Pass-the-buck (Herlihy, Luchangco, Moir 2002) — "The Repeat Offender
//! Problem".
//!
//! Protection ("posting a guard") is the same publish-and-revalidate loop
//! as HP. Liberation differs from both HP and PTP: `retire` accumulates a
//! thread-local list and, at a threshold, runs `liberate`, which for each
//! candidate value scans the guards; a guard still trapping the value gets
//! the value *handed off* into its versioned handoff slot with a
//! double-word CAS (value, version), and whatever the slot previously held
//! is taken back into the candidate set. Values that survive the scan
//! unguarded are freed. Because every thread can hold a full candidate
//! list, the scheme's unreclaimed bound is `O(H·t²)` — quadratic, as
//! Table 1 of the OrcGC paper lists.
//!
//! This is a from-scratch reconstruction of the published algorithm on top
//! of this crate's header machinery; the handoff version counter
//! (incremented on every DWCAS) plays the role of the original's trap
//! counter, preventing the A-was-handed-off-and-back ABA.
//!
//! As a composition (see [`crate::policy`]): **PTB = guards on the
//! [`Slots`] matrix × buck-passing**. Liberation looks for a trapping
//! guard with [`Slots::find`], resuming from the guard it just handed off
//! to; the versioned handoff matrix *is* the scheme, so it stays in this
//! module, sitting on the shared [`RetireLedger`] spine and a
//! [`ScanList`] candidate store.

use crate::header::SmrHeader;
use crate::policy::{RetireLedger, ScanList};
use crate::scheme::{Caller, Core, Scheme};
use crate::MAX_HPS;
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::dwcas::{pack, unpack, AtomicU128};
use orc_util::handover::Slots;
use orc_util::sample::Pass;
use orc_util::stats::Event;
use orc_util::trace::EventKind;
use orc_util::{registry, CachePadded};

/// The PTB algorithm; [`PassTheBuck`] is its handle.
pub struct Ptb {
    guards: Slots<MAX_HPS>,
    /// `handoff[tid][idx]` = (header ptr, version), updated only by DWCAS.
    handoff: Box<[CachePadded<[AtomicU128; MAX_HPS]>]>,
    retired: ScanList,
    ledger: RetireLedger,
}

/// Pass-the-buck reclamation (Herlihy et al. 2002).
pub type PassTheBuck = Scheme<Ptb>;

impl PassTheBuck {
    pub fn new() -> Self {
        Self::with_threshold(0)
    }

    pub fn with_threshold(threshold_base: usize) -> Self {
        Self::from_core(Ptb {
            guards: Slots::default(),
            handoff: (0..registry::MAX_THREADS)
                .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicU128::new(0))))
                .collect(),
            retired: ScanList::new(threshold_base),
            ledger: RetireLedger::new(),
        })
    }
}

impl Default for PassTheBuck {
    fn default() -> Self {
        Self::new()
    }
}

impl Ptb {
    /// Attempts to hand `h` off to a guard trapping it; returns the
    /// displaced occupant (to be re-liberated) on success, or `h` itself if
    /// no guard traps it (caller frees). `pass` decides its `Handover`
    /// events.
    fn liberate_one(
        &self,
        tid: usize,
        mut h: *mut SmrHeader,
        pass: &Pass,
    ) -> Option<*mut SmrHeader> {
        let mut from = (0, 0);
        loop {
            // SAFETY: `h` is a retired-but-not-destroyed header from the
            // candidate set; its header stays readable until this scheme
            // frees it.
            let word = unsafe { (*h).block.value_word() };
            let Some((it, idx)) = self.guards.find(word, from, MAX_HPS) else {
                return Some(h);
            };
            // Guard (it, idx) traps h: hand it off with a versioned DWCAS;
            // retry on version races while still trapped. Whatever goes on
            // (h if the guard moved, else the displaced occupant) resumes
            // the scan at this guard.
            from = (it, idx);
            let slot = &self.handoff[it][idx];
            loop {
                let cur = slot.load();
                let (old_ptr, ver) = unpack(cur);
                // orc-lint: allow(seqcst, trap revalidation before the handoff DWCAS stays on the scan's SC order)
                if self.guards.hp(it, idx).load(Ordering::SeqCst) != word {
                    break; // guard moved on; rescan this slot
                }
                let (_, ok) = slot.compare_exchange(cur, pack(h as u64, ver.wrapping_add(1)));
                if ok {
                    self.ledger.stats().bump(tid, Event::Handover);
                    pass.record(tid, EventKind::Handover, h as u64, 0);
                    let displaced = old_ptr as *mut SmrHeader;
                    if displaced.is_null() {
                        return None;
                    }
                    // The displaced value is no longer trapped by this
                    // guard; it is a retired-but-live header owned by the
                    // liberation scan now.
                    h = displaced;
                    break;
                }
            }
        }
    }

    /// One liberation pass over `tid`'s candidates: `pass` is the
    /// triggering retire's ([`Pass::of_retire`]) or a flush / exit's own.
    fn liberate(&self, tid: usize, mut pass: Pass) {
        self.ledger.open_scan(tid, &pass);
        // SAFETY: `tid` is the calling thread's registry slot; only the
        // owner (or its exit hook / `Ptb::drop`) touches this state.
        let candidates = unsafe { self.retired.drain_all(tid) };
        let mut freed = 0u64;
        for h in candidates {
            if let Some(free) = self.liberate_one(tid, h, &pass) {
                // SAFETY: the full guard scan found no trap for `free` and
                // handed nothing off, so no thread can reach it — the PTB
                // liberation condition.
                unsafe { self.ledger.free_scanned(tid, free, &mut pass) };
                freed += 1;
            }
        }
        self.ledger.close_scan(tid, freed, &pass);
    }

    /// Clears guard `(tid, idx)` and reclaims/requeues its handoff value.
    fn clear_slot(&self, tid: usize, idx: usize) {
        self.guards.release(tid, idx);
        let slot = &self.handoff[tid][idx];
        loop {
            let cur = slot.load();
            let (ptr, ver) = unpack(cur);
            if ptr == 0 {
                return;
            }
            let (_, ok) = slot.compare_exchange(cur, pack(0, ver.wrapping_add(1)));
            if ok {
                let h = ptr as *mut SmrHeader;
                // The guard is down; nothing traps it here any more, but
                // another guard might — re-liberate, a drain pass.
                let mut pass = Pass::drawn();
                if let Some(free) = self.liberate_one(tid, h, &pass) {
                    // SAFETY: we took exclusive ownership of `h` via the
                    // DWCAS above, and the re-scan found no other guard
                    // trapping `free`.
                    unsafe { self.ledger.free_scanned(tid, free, &mut pass) };
                    self.ledger.stats().bump(tid, Event::Reclaim);
                    self.ledger.stats().batch(tid, 1);
                }
                return;
            }
        }
    }

    /// Clears every guard of `tid`: `end_op`, and exit's last step.
    fn clear_row(&self, tid: usize) {
        for idx in 0..MAX_HPS {
            self.clear_slot(tid, idx);
        }
    }
}

impl Drop for Ptb {
    fn drop(&mut self) {
        self.retired.teardown();
        for row in self.handoff.iter() {
            for slot in row.iter() {
                let (ptr, _) = unpack(slot.load());
                if ptr != 0 {
                    // SAFETY: a handed-off value is a retired object owned
                    // by its slot; with all users gone it is exclusively
                    // ours and freed exactly once.
                    unsafe { SmrHeader::destroy(ptr as *mut SmrHeader) };
                }
            }
        }
    }
}

impl Core for Ptb {
    const NAME: &'static str = "PTB";
    const LOCK_FREE: bool = true;
    type Extra = ();

    fn extra(&self) {}

    fn ledger(&self) -> &RetireLedger {
        &self.ledger
    }

    fn end_op(&self, me: Caller<'_, Self>) {
        self.clear_row(me.tid());
    }

    #[inline]
    fn protect(&self, me: Caller<'_, Self>, idx: usize, addr: &AtomicUsize) -> usize {
        self.guards
            .protect(me.tid(), idx, addr, self.ledger.stats())
    }

    #[inline]
    fn publish(&self, me: Caller<'_, Self>, idx: usize, word: usize) {
        self.guards.publish_copy(me.tid(), idx, word);
    }

    #[inline]
    fn clear(&self, me: Caller<'_, Self>, idx: usize) {
        self.clear_slot(me.tid(), idx);
    }

    #[inline]
    unsafe fn retire(&self, tid: usize, h: *mut SmrHeader, stamp: u64) {
        // SAFETY: `tid` is the calling thread's slot; ownership of `h`
        // transfers to the candidate list.
        let len = unsafe { self.retired.push(tid, h) };
        if len >= self.retired.threshold() {
            self.liberate(tid, Pass::of_retire(stamp));
        }
    }

    fn flush(&self, tid: usize) {
        self.liberate(tid, Pass::drawn());
    }

    fn thread_exit(&self, tid: usize) {
        self.liberate(tid, Pass::drawn());
        // Every guard down, every value handed to one re-liberated.
        self.clear_row(tid);
        // SAFETY: called by the exiting owner thread (exit hook), the only
        // remaining user of slot `tid`.
        unsafe { self.retired.orphan_all(tid) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::SmrBox;
    use crate::Smr;
    use orc_util::atomics::AtomicPtr;
    use std::sync::Arc;

    #[test]
    fn unguarded_retire_frees_on_liberate() {
        let ptb = PassTheBuck::with_threshold(4);
        for i in 0..16 {
            let p = ptb.alloc(i as u64);
            // SAFETY: `p` came from this scheme's `alloc`, retired once.
            unsafe { ptb.retire(p) };
        }
        ptb.flush();
        assert_eq!(ptb.unreclaimed(), 0);
    }

    #[test]
    fn guarded_value_is_handed_off_not_freed() {
        let ptb = PassTheBuck::with_threshold(1);
        let p = ptb.alloc(3u64);
        let addr = AtomicPtr::new(p);
        ptb.protect_ptr(0, &addr);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { ptb.retire(p) }; // liberate runs; hands p to our own guard
        assert_eq!(ptb.unreclaimed(), 1);
        // SAFETY: our guard traps `p`; liberate handed it off instead of
        // freeing it.
        assert_eq!(unsafe { *p }, 3);
        ptb.clear(0); // dropping the guard reclaims the handoff value
        assert_eq!(ptb.unreclaimed(), 0);
    }

    #[test]
    fn displaced_handoff_value_is_requeued() {
        let ptb = PassTheBuck::with_threshold(1);
        let a = ptb.alloc(1u64);
        let b = ptb.alloc(2u64);
        let addr = AtomicPtr::new(a);
        ptb.protect_ptr(0, &addr);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { ptb.retire(a) }; // a handed to guard 0
        addr.store(b, Ordering::SeqCst);
        ptb.protect_ptr(0, &addr); // guard 0 now traps b
                                   // SAFETY: allocated above, unshared, retired once.
        unsafe { ptb.retire(b) }; // b handed off, a displaced and freed
        assert_eq!(ptb.unreclaimed(), 1);
        ptb.end_op();
        assert_eq!(ptb.unreclaimed(), 0);
    }

    #[test]
    fn a_value_trapped_by_two_guards_passes_from_one_to_the_other() {
        let ptb = PassTheBuck::with_threshold(1);
        let p = ptb.alloc(5u64);
        let addr = AtomicPtr::new(p);
        ptb.protect_ptr(0, &addr);
        ptb.protect_ptr(1, &addr);
        let tid = registry::tid();
        let handed = |idx: usize| unpack(ptb.core().handoff[tid][idx].load()).0 as usize;
        // SAFETY: `p` came from this scheme's `alloc` and is still live.
        let h = unsafe { SmrBox::<(), _>::header_of(p) } as usize;
        // SAFETY: allocated above, unshared, retired once.
        unsafe { ptb.retire(p) };
        assert_eq!((handed(0), handed(1)), (h, 0), "retire hands it to guard 0");
        ptb.clear(0);
        assert_eq!(
            (handed(0), handed(1)),
            (0, h),
            "clear(0) passes it on to guard 1"
        );
        assert_eq!(ptb.unreclaimed(), 1);
        // SAFETY: guard 1 still traps `p`; it was handed off, not freed.
        assert_eq!(unsafe { *p }, 5);
        ptb.clear(1);
        assert_eq!(ptb.unreclaimed(), 0);
        ptb.end_op();
    }

    #[test]
    fn cross_thread_guard_blocks_free() {
        let ptb = PassTheBuck::with_threshold(1);
        let p = ptb.alloc(8u64);
        let addr = Arc::new(AtomicPtr::new(p));
        let ptb2 = ptb.clone();
        let addr2 = addr.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            let got = ptb2.protect_ptr(1, &addr2);
            tx.send(()).unwrap();
            done_rx.recv().unwrap();
            // SAFETY: our guard (slot 1) traps `got`; a concurrent retire
            // hands it off rather than freeing it.
            assert_eq!(unsafe { *got }, 8);
            ptb2.end_op();
        });
        rx.recv().unwrap();
        // SAFETY: allocated above, retired once (by this thread only).
        unsafe { ptb.retire(p) };
        assert_eq!(ptb.unreclaimed(), 1);
        done_tx.send(()).unwrap();
        t.join().unwrap();
        assert_eq!(ptb.unreclaimed(), 0);
    }

    #[test]
    fn concurrent_swap_and_read_stress() {
        let ptb = Arc::new(PassTheBuck::new());
        let addr = Arc::new(AtomicPtr::new(ptb.alloc(0u64)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ptb = ptb.clone();
                let addr = addr.clone();
                std::thread::spawn(move || {
                    for i in 0..4_000u64 {
                        if t % 2 == 0 {
                            let n = ptb.alloc(i);
                            let old = addr.swap(n, Ordering::SeqCst);
                            // SAFETY: the swap made us the unlinker; each
                            // object is retired by exactly one thread.
                            unsafe { ptb.retire(old) };
                        } else {
                            let p = ptb.protect_ptr(0, &addr);
                            // SAFETY: our guard traps `p`; a concurrent
                            // liberate hands it off instead of freeing it.
                            assert!(unsafe { *p } < 4_000);
                            ptb.end_op();
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
        unsafe { ptb.retire(last) };
        ptb.flush();
        assert_eq!(ptb.unreclaimed(), 0);
    }
}
