//! Protection policies: how a reader announces what it may still hold.
//!
//! Three announcements exist in the workspace, in increasing coverage
//! (and decreasing precision):
//!
//! * [`PointerProtect`] — the pointer itself, one slot per hand
//!   (HP-exact: publish-and-revalidate, `O(H·t)` words protected);
//! * [`EraProtect`] — an era timestamp, one slot per hand (HE-exact:
//!   a reservation covers every object whose `[birth, del]` interval
//!   contains it);
//! * [`EpochPin`] — a bare epoch pin, one word per thread (EBR-exact:
//!   the pin covers everything retired since it was published).
//!
//! Each policy owns its slot state and its protect-side fast path; the
//! matching scan-side query (`collect_sorted` + keep-predicate) is what
//! the reclamation policies consume.

use crate::hazard::SlotArray;
use crate::MAX_HPS;
use orc_util::atomics::{AtomicU64, AtomicUsize, Ordering};
use orc_util::stats::{Event, SchemeStats};
use orc_util::trace::EventKind;
use orc_util::{registry, trace_event_at, CachePadded};

/// Pointer publication (Michael 2004): per-thread hazard slots holding
/// the protected value words. A thin façade over [`SlotArray`] adding
/// the scan-side collection helper; PTB/PTP reach through [`Self::raw`]
/// for their handoff choreography.
pub struct PointerProtect {
    slots: SlotArray,
}

impl PointerProtect {
    pub fn new() -> Self {
        Self {
            slots: SlotArray::new(),
        }
    }

    /// The protect loop: publish the unmarked word in `(tid, idx)`,
    /// re-validate against the live link, count retries into `stats`.
    #[inline]
    pub fn protect(
        &self,
        tid: usize,
        idx: usize,
        addr: &AtomicUsize,
        stats: &SchemeStats,
    ) -> usize {
        self.slots.protect_loop(tid, idx, addr, stats)
    }

    /// Re-publishes an already-safe pointer (no validation loop).
    #[inline]
    pub fn publish(&self, tid: usize, idx: usize, word: usize) {
        self.slots
            .publish_copy(tid, idx, orc_util::marked::unmark(word));
    }

    #[inline]
    pub fn clear(&self, tid: usize, idx: usize) {
        self.slots.clear(tid, idx);
    }

    #[inline]
    pub fn clear_row(&self, tid: usize) {
        self.slots.clear_row(tid);
    }

    /// Collects every published word into `out`, sorted for the scan's
    /// binary search.
    pub fn collect_sorted(&self, out: &mut Vec<usize>) {
        self.slots.collect(out);
        out.sort_unstable();
    }

    /// Whether `word` appears in the sorted collection from
    /// [`Self::collect_sorted`] — the HP keep-condition.
    #[inline]
    pub fn is_protected(sorted: &[usize], word: usize) -> bool {
        sorted.binary_search(&word).is_ok()
    }

    /// The underlying slot array, for schemes that layer their own
    /// protocol on the slots (PTB's guards, PTP's hazard+handover pair).
    pub fn raw(&self) -> &SlotArray {
        &self.slots
    }
}

impl Default for PointerProtect {
    fn default() -> Self {
        Self::new()
    }
}

/// Era reservation (Ramalhete & Correia 2017): a global era clock plus
/// per-thread reservation slots holding era values (0 = none). The
/// protect fast path is two loads and a compare — no store while the
/// clock is quiet — which is what the adaptive scheme runs when healthy.
pub struct EraProtect {
    clock: AtomicU64,
    /// Reservation slots hold era values, reusing the word-sized slot
    /// array (usize == u64 on the supported 64-bit targets).
    reservations: SlotArray,
}

impl EraProtect {
    pub fn new() -> Self {
        Self {
            clock: AtomicU64::new(1),
            reservations: SlotArray::new(),
        }
    }

    /// Current era-clock value.
    #[inline]
    pub fn current(&self) -> u64 {
        // orc-lint: allow(seqcst, era stamps must be SC-ordered against reservation publishes or an interval can exclude a live reader)
        self.clock.load(Ordering::SeqCst)
    }

    /// Advances the era clock; returns the new era.
    #[inline]
    pub fn advance(&self) -> u64 {
        // orc-lint: allow(seqcst, the clock advance is the SC event that separates birth/del intervals)
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The HE protect loop: publish the current era (not the pointer)
    /// and re-read until the era is stable across the load.
    #[inline]
    pub fn protect(
        &self,
        tid: usize,
        idx: usize,
        addr: &AtomicUsize,
        stats: &SchemeStats,
    ) -> usize {
        let res = self.reservations.get(tid, idx);
        let mut prev = res.load(Ordering::Relaxed) as u64;
        loop {
            // orc-lint: allow(seqcst, HE validation pair: the link read must not be reordered past the clock read)
            let word = addr.load(Ordering::SeqCst);
            // orc-lint: allow(seqcst, HE validation pair: a stable clock across the link read proves the reservation covers it)
            let era = self.clock.load(Ordering::SeqCst);
            if era == prev {
                // Injection point: the era reservation is published; a
                // stalled reader here pins every object alive in `era`.
                orc_util::stall::hit(orc_util::stall::StallPoint::Protect);
                return word;
            }
            // The clock moved past an existing reservation: another
            // publish-and-revalidate round, HE's analogue of the pointer
            // schemes' failed validation. (prev == 0 is the initial
            // publication, not a retry.)
            if prev != 0 {
                stats.bump(tid, Event::ProtectRetry);
                trace_event_at!(tid, EventKind::ProtectRetry, word);
            }
            // orc-lint: allow(seqcst, reservation publish needs the SC xchg store-load fence)
            res.swap(era as usize, Ordering::SeqCst);
            prev = era;
        }
    }

    /// Reserves the current era in `(tid, idx)` unconditionally — the
    /// `publish` analogue (covers every object alive now, including the
    /// one being republished).
    #[inline]
    pub fn reserve_now(&self, tid: usize, idx: usize) {
        let era = self.current();
        self.reservations
            .get(tid, idx)
            // orc-lint: allow(seqcst, reservation publish needs the SC xchg store-load fence)
            .swap(era as usize, Ordering::SeqCst);
    }

    #[inline]
    pub fn clear(&self, tid: usize, idx: usize) {
        self.reservations.clear(tid, idx);
    }

    #[inline]
    pub fn clear_row(&self, tid: usize) {
        self.reservations.clear_row(tid);
    }

    /// Collects every active era reservation into `out`, sorted for the
    /// scan's interval query.
    pub fn collect_sorted(&self, out: &mut Vec<u64>) {
        out.clear();
        let wm = registry::registered_watermark();
        for it in 0..wm {
            for idx in 0..MAX_HPS {
                // orc-lint: allow(seqcst, scan-side SC pairing with the reservation publish xchg)
                let e = self.reservations.get(it, idx).load(Ordering::SeqCst) as u64;
                if e != 0 {
                    out.push(e);
                }
            }
        }
        out.sort_unstable();
    }

    /// Whether some reservation in the sorted collection falls inside
    /// `[birth, del]` — the HE keep-condition.
    #[inline]
    pub fn covers(sorted: &[u64], birth: u64, del: u64) -> bool {
        let lo = sorted.partition_point(|&e| e < birth);
        sorted.get(lo).is_some_and(|&e| e <= del)
    }

    /// Direct access to one reservation slot (tests, diagnostics).
    pub fn reservation(&self, tid: usize, idx: usize) -> &AtomicUsize {
        self.reservations.get(tid, idx)
    }
}

impl Default for EraProtect {
    fn default() -> Self {
        Self::new()
    }
}

/// Epoch pinning (Fraser 2004): one pin word per thread, a global epoch
/// that advances only when every pinned thread has caught up.
pub struct EpochPin {
    global_epoch: AtomicU64,
    /// `local[tid]`: 0 when unpinned, else the epoch the thread is
    /// pinned at.
    local: Box<[CachePadded<AtomicU64>]>,
}

impl EpochPin {
    pub fn new() -> Self {
        Self {
            // Start at 3 so epoch-2 arithmetic never underflows and 0
            // can mean "unpinned".
            global_epoch: AtomicU64::new(3),
            local: (0..registry::MAX_THREADS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// The epoch this instance is currently at (diagnostics).
    #[inline]
    pub fn current(&self) -> u64 {
        // Diagnostics only; Acquire keeps it coherent with try_advance.
        self.global_epoch.load(Ordering::Acquire)
    }

    /// Pin: publish the current global epoch (with a full fence, via
    /// swap), then hit the stall-injection point.
    #[inline]
    pub fn pin(&self, tid: usize) {
        // Reading a stale (older) epoch only makes the pin more
        // conservative — try_advance then treats us as a straggler — so
        // Acquire suffices; the SC swap below is the publication fence.
        let e = self.global_epoch.load(Ordering::Acquire);
        // orc-lint: allow(seqcst, pin publish needs the SC xchg store-load fence against try_advance's scan)
        self.local[tid].swap(e, Ordering::SeqCst);
        // Injection point: the pin is published; a reader stalled here
        // blocks the epoch from ever advancing — EBR's unbounded case.
        orc_util::stall::hit(orc_util::stall::StallPoint::BeginOp);
    }

    /// Unpin (operation end).
    #[inline]
    pub fn unpin(&self, tid: usize) {
        self.local[tid].store(0, Ordering::Release);
    }

    /// Unpin with full ordering — the thread-exit path.
    #[inline]
    pub fn unpin_sync(&self, tid: usize) {
        // orc-lint: allow(seqcst, thread-exit unpin stays on the SC order so a following scan cannot miss it; cold path)
        self.local[tid].store(0, Ordering::SeqCst);
    }

    /// Advances the global epoch if every pinned thread has caught up;
    /// returns the (possibly new) epoch.
    pub fn try_advance(&self) -> u64 {
        // orc-lint: allow(seqcst, the advance decision defines a grace period; all of its reads stay on the SC order (cold, once per scan))
        let e = self.global_epoch.load(Ordering::SeqCst);
        let wm = registry::registered_watermark();
        for t in 0..wm {
            // orc-lint: allow(seqcst, must be SC-ordered against the pin xchg or a just-pinned straggler is missed)
            let le = self.local[t].load(Ordering::SeqCst);
            if le != 0 && le != e {
                return e; // straggler: cannot advance
            }
        }
        // Multiple threads may race; at most one increment wins per epoch.
        if self
            .global_epoch
            // orc-lint: allow(seqcst, the epoch increment is the SC event a grace period is measured from)
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            orc_util::trace_event!(EventKind::EpochAdvance, e + 1);
        }
        // orc-lint: allow(seqcst, returns the settled epoch on the same SC order as the increment)
        self.global_epoch.load(Ordering::SeqCst)
    }
}

impl Default for EpochPin {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era_coverage_is_an_interval_query() {
        // Reservations at eras 5 and 9.
        let sorted = [5u64, 9];
        assert!(EraProtect::covers(&sorted, 1, 5), "5 ∈ [1,5]");
        assert!(EraProtect::covers(&sorted, 5, 7), "5 ∈ [5,7]");
        assert!(EraProtect::covers(&sorted, 6, 20), "9 ∈ [6,20]");
        assert!(!EraProtect::covers(&sorted, 6, 8), "nothing in [6,8]");
        assert!(!EraProtect::covers(&sorted, 10, 20), "born after both");
        assert!(!EraProtect::covers(&[], 0, u64::MAX), "no reservations");
    }

    #[test]
    fn era_clock_starts_at_one_and_advances() {
        let e = EraProtect::new();
        assert_eq!(e.current(), 1);
        assert_eq!(e.advance(), 2);
        assert_eq!(e.current(), 2);
    }

    #[test]
    fn epoch_pin_blocks_and_releases_advance() {
        let ep = EpochPin::new();
        let tid = registry::tid();
        let e0 = ep.current();
        ep.pin(tid);
        // Pinned at the current epoch: advance still possible (we are
        // caught up), and it moves exactly one step per round of catch-up.
        let e1 = ep.try_advance();
        assert_eq!(e1, e0 + 1);
        // Now we are a straggler (pinned at e0): no further advance.
        assert_eq!(ep.try_advance(), e1);
        ep.unpin(tid);
        assert_eq!(ep.try_advance(), e1 + 1);
        ep.unpin_sync(tid);
    }

    #[test]
    fn pointer_membership_uses_the_sorted_set() {
        let sorted = [16usize, 32, 48];
        assert!(PointerProtect::is_protected(&sorted, 32));
        assert!(!PointerProtect::is_protected(&sorted, 40));
    }
}
