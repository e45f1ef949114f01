//! Hazard eras (Ramalhete & Correia 2017).
//!
//! Replaces per-pointer publication with per-*era* reservation: a global
//! era clock stamps each object's birth (at `alloc`) and death (at
//! `retire`). `protect` publishes the current era in a reservation slot —
//! skipping the store entirely when the era has not advanced, which is the
//! scheme's performance advantage over HP. An object can be freed once no
//! reservation falls inside its `[birth_era, del_era]` lifetime interval.
//!
//! The cost is memory: every reservation protects *all* objects alive in
//! that era, so the unreclaimed bound grows to `O(#L·H·t²)` (Table 1), and
//! each object carries two extra words (birth/del era) — which our common
//! [`SmrHeader`] already provides.
//!
//! As a composition (see [`crate::policy`]): **HE = [`EraProtect`]
//! reserving in a [`Slots`] matrix × [`ScanList`]**, with the
//! keep-predicate "some era reservation falls inside the object's
//! `[birth, del]` interval".

use crate::header::SmrHeader;
use crate::policy::{EraProtect, RetireLedger, ScanList};
use crate::scheme::{Caller, Core, Scheme};
use crate::MAX_HPS;
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::handover::Slots;
use orc_util::sample::Pass;
use orc_util::trace::EventKind;
use orc_util::trace_event_at;

/// How many retires between era-clock increments (the original paper's
/// "epoch frequency").
const ERA_FREQ: usize = 64;

/// The HE algorithm; [`HazardEras`] is its handle.
pub struct He {
    eras: EraProtect,
    /// Era reservations: `hp[tid][idx]` holds an era (0 = none).
    reservations: Slots<MAX_HPS>,
    retired: ScanList,
    ledger: RetireLedger,
}

/// Hazard-eras reclamation (SPAA 2017 brief announcement).
pub type HazardEras = Scheme<He>;

impl HazardEras {
    pub fn new() -> Self {
        Self::with_threshold(0)
    }

    pub fn with_threshold(threshold_base: usize) -> Self {
        Self::from_core(He {
            eras: EraProtect::new(),
            reservations: Slots::default(),
            retired: ScanList::new(threshold_base),
            ledger: RetireLedger::new(),
        })
    }
}

impl Default for HazardEras {
    fn default() -> Self {
        Self::new()
    }
}

impl He {
    fn scan(&self, tid: usize, mut pass: Pass) {
        // SAFETY: `tid` is the calling thread's registry slot; only the
        // owner (or its exit hook / `He::drop`) touches this state.
        unsafe {
            self.retired.scan(
                tid,
                &self.ledger,
                &mut pass,
                |_, eras| self.reservations.collect(eras),
                // Freed iff no reservation e with birth <= e <= del — the
                // HE reclamation condition.
                // SAFETY(closure, inherits the enclosing unsafe block):
                // headers on the retired list are live (readable) until
                // this scan frees them.
                |h, _, eras| {
                    EraProtect::covers(eras, (*h).birth_era, (*h).del_era.load(Ordering::Relaxed))
                },
            );
        }
    }
}

impl Drop for He {
    fn drop(&mut self) {
        self.retired.teardown();
    }
}

impl Core for He {
    const NAME: &'static str = "HE";
    const LOCK_FREE: bool = true;

    fn ledger(&self) -> &RetireLedger {
        &self.ledger
    }

    #[inline]
    fn birth_era(&self) -> u64 {
        self.eras.current()
    }

    fn end_op(&self, me: Caller<'_, Self>) {
        self.reservations.release_row(me.tid());
    }

    /// The HE protect loop: publish the current era (not the pointer) and
    /// re-read until the era is stable across the load.
    #[inline]
    fn protect(&self, me: Caller<'_, Self>, idx: usize, addr: &AtomicUsize) -> usize {
        self.eras
            .protect(&self.reservations, me.tid(), idx, addr, self.ledger.stats())
    }

    #[inline]
    fn publish(&self, me: Caller<'_, Self>, idx: usize, _word: usize) {
        // Reserving the current era protects every object alive now,
        // including the one being republished.
        self.eras.reserve_now(&self.reservations, me.tid(), idx);
    }

    #[inline]
    fn clear(&self, me: Caller<'_, Self>, idx: usize) {
        self.reservations.release(me.tid(), idx);
    }

    #[inline]
    unsafe fn retire(&self, tid: usize, h: *mut SmrHeader, stamp: u64) {
        // SAFETY: `h` is live until this scheme destroys it, which cannot
        // happen before it lands on the retired list below.
        unsafe { (*h).del_era.store(self.eras.current(), Ordering::Relaxed) };
        // SAFETY: `tid` is the calling thread's slot; ownership of `h`
        // transfers to the retired list.
        let len = unsafe { self.retired.push(tid, h) };
        // SAFETY: owner-only tick counter.
        if unsafe { self.retired.tick(tid, ERA_FREQ) } {
            let new_era = self.eras.advance();
            trace_event_at!(tid, EventKind::EpochAdvance, new_era);
        }
        if len >= self.retired.threshold() {
            self.scan(tid, Pass::of_retire(stamp));
        }
    }

    fn flush(&self, tid: usize) {
        self.eras.advance();
        self.scan(tid, Pass::drawn());
    }

    fn thread_exit(&self, tid: usize) {
        self.reservations.release_row(tid);
        self.scan(tid, Pass::drawn());
        // SAFETY: called by the exiting owner thread (exit hook), the only
        // remaining user of slot `tid`.
        unsafe { self.retired.orphan_all(tid) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Smr;
    use orc_util::atomics::AtomicPtr;
    use orc_util::registry;
    use std::sync::Arc;

    #[test]
    fn object_lifetime_interval_is_respected() {
        let he = HazardEras::with_threshold(1);
        let p = he.alloc(1u64);
        let addr = AtomicPtr::new(p);
        let got = he.protect_ptr(0, &addr);
        assert_eq!(got, p);
        // SAFETY: `p` came from this scheme's `alloc`, retired once.
        unsafe { he.retire(p) };
        // Our reservation covers [birth, del]: must not be freed.
        he.flush();
        assert_eq!(he.unreclaimed(), 1);
        // SAFETY: our era reservation covers `p`'s lifetime interval, so
        // it cannot have been freed.
        assert_eq!(unsafe { *p }, 1);
        he.end_op();
        he.flush();
        assert_eq!(he.unreclaimed(), 0);
    }

    #[test]
    fn old_reservation_does_not_protect_newer_objects() {
        let he = HazardEras::with_threshold(1);
        // Reserve the current era first.
        let dummy = he.alloc(0u64);
        let daddr = AtomicPtr::new(dummy);
        he.protect_ptr(0, &daddr);
        // Advance the clock well past our reservation, then allocate:
        // the new object's birth era exceeds our reserved era.
        for _ in 0..4 {
            he.core().eras.advance();
        }
        let newer = he.alloc(9u64);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { he.retire(newer) };
        he.flush();
        // `newer` was born after our reservation; it must be freed even
        // though slot 0 still holds an (older) era.
        assert_eq!(he.unreclaimed(), 0);
        he.end_op();
        // SAFETY: allocated above, unshared, retired once.
        unsafe { he.retire(dummy) };
        he.flush();
        assert_eq!(he.unreclaimed(), 0);
    }

    #[test]
    fn protect_skips_store_when_era_unchanged() {
        let he = HazardEras::new();
        let p = he.alloc(3u64);
        let addr = AtomicPtr::new(p);
        he.protect_ptr(0, &addr);
        let slot = || he.core().reservations.hp(registry::tid(), 0);
        let reserved = slot().load(Ordering::SeqCst);
        // Second protect with an unchanged clock must leave the same
        // reservation in place (fast path).
        he.protect_ptr(0, &addr);
        assert_eq!(slot().load(Ordering::SeqCst), reserved);
        he.end_op();
        // SAFETY: allocated above, unshared, retired once.
        unsafe { he.retire(p) };
        he.flush();
        assert_eq!(he.unreclaimed(), 0);
    }

    #[test]
    fn concurrent_stress_no_use_after_free() {
        let he = Arc::new(HazardEras::new());
        let addr = Arc::new(AtomicPtr::new(he.alloc(0u64)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let he = he.clone();
                let addr = addr.clone();
                std::thread::spawn(move || {
                    for i in 0..4_000u64 {
                        if t % 2 == 0 {
                            let n = he.alloc(i);
                            let old = addr.swap(n, Ordering::SeqCst);
                            // SAFETY: the swap made us the unlinker; each
                            // object is retired by exactly one thread.
                            unsafe { he.retire(old) };
                        } else {
                            let p = he.protect_ptr(0, &addr);
                            // SAFETY: our reservation covers `p`'s era, so
                            // a concurrent retire cannot free it yet.
                            assert!(unsafe { *p } < 4_000);
                            he.end_op();
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
        unsafe { he.retire(last) };
        he.flush();
        assert_eq!(he.unreclaimed(), 0);
    }
}
