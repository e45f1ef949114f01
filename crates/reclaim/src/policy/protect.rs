//! Protection policies: how a reader announces what it may still hold.
//!
//! Three announcements exist in the workspace, in increasing coverage
//! (and decreasing precision):
//!
//! * the pointer itself, one slot per hand — HP-exact
//!   publish-and-revalidate, `O(H·t)` words protected. That is
//!   [`Slots::protect`](orc_util::handover::Slots::protect) on the one
//!   hazard-slot matrix, [`orc_util::handover::Slots`], with no policy
//!   type of its own here;
//! * [`EraProtect`] — an era timestamp, one slot of that same matrix per
//!   hand (HE-exact: a reservation covers every object whose
//!   `[birth, del]` interval contains it);
//! * [`EpochPin`] — a bare epoch pin, a one-slot row of that same matrix
//!   per thread (EBR-exact: the pin covers everything retired since it
//!   was published).
//!
//! The scan side reads a matrix with
//! [`Slots::collect`](orc_util::handover::Slots::collect) and hands the
//! words to a reclamation policy's keep-predicate, or asks
//! [`Slots::scan`](orc_util::handover::Slots::scan) for the first slot a
//! predicate accepts.

use crate::MAX_HPS;
use orc_util::atomics::{AtomicU64, AtomicUsize, Ordering};
use orc_util::handover::Slots;
use orc_util::stats::{Event, SchemeStats};
use orc_util::trace::EventKind;
use orc_util::trace_event_at;

#[cfg(not(target_pointer_width = "64"))]
compile_error!("the reclamation schemes assume a 64-bit platform (u64 eras stored in usize slots)");

/// Era reservation (Ramalhete & Correia 2017): a global era clock whose
/// values a reader reserves in a [`Slots`] matrix (0 = none). The protect
/// fast path is two loads and a compare — no store while the clock is
/// quiet — which is what the adaptive scheme runs when healthy.
pub struct EraProtect {
    clock: AtomicU64,
}

impl EraProtect {
    pub fn new() -> Self {
        Self {
            clock: AtomicU64::new(1),
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

    /// The HE protect loop: publish the current era (not the pointer) in
    /// `res[tid][idx]` and re-read until the era is stable across the load.
    #[inline]
    pub fn protect(
        &self,
        res: &Slots<MAX_HPS>,
        tid: usize,
        idx: usize,
        addr: &AtomicUsize,
        stats: &SchemeStats,
    ) -> usize {
        let mut prev = res.hp(tid, idx).load(Ordering::Relaxed) as u64;
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
            res.publish(tid, idx, era as usize);
            prev = era;
        }
    }

    /// Reserves the current era in `res[tid][idx]` unconditionally — the
    /// `publish` analogue (covers every object alive now, including the
    /// one being republished).
    #[inline]
    pub fn reserve_now(&self, res: &Slots<MAX_HPS>, tid: usize, idx: usize) {
        res.publish(tid, idx, self.current() as usize);
    }

    /// Whether some reservation in the sorted collection falls inside
    /// `[birth, del]` — the HE keep-condition.
    #[inline]
    pub fn covers(sorted: &[usize], birth: u64, del: u64) -> bool {
        let lo = sorted.partition_point(|&e| (e as u64) < birth);
        sorted.get(lo).is_some_and(|&e| e as u64 <= del)
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
    /// `local[tid][0]`: 0 when unpinned, else the epoch the thread is
    /// pinned at.
    local: Slots<1>,
}

impl EpochPin {
    pub fn new() -> Self {
        Self {
            // Start at 3 so epoch-2 arithmetic never underflows and 0
            // can mean "unpinned".
            global_epoch: AtomicU64::new(3),
            local: Slots::default(),
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
        self.local.publish(tid, 0, e as usize);
        // Injection point: the pin is published; a reader stalled here
        // blocks the epoch from ever advancing — EBR's unbounded case.
        orc_util::stall::hit(orc_util::stall::StallPoint::BeginOp);
    }

    /// Unpin (operation end).
    #[inline]
    pub fn unpin(&self, tid: usize) {
        self.local.release(tid, 0);
    }

    /// Unpin with full ordering — the thread-exit path: an SC publish of 0,
    /// so a following scan cannot miss it.
    #[inline]
    pub fn unpin_sync(&self, tid: usize) {
        self.local.publish(tid, 0, 0);
    }

    /// Advances the global epoch if every pinned thread has caught up;
    /// returns the (possibly new) epoch.
    pub fn try_advance(&self) -> u64 {
        // orc-lint: allow(seqcst, the advance decision defines a grace period; all of its reads stay on the SC order (cold, once per scan))
        let e = self.global_epoch.load(Ordering::SeqCst);
        let straggler = |pin: usize| pin != 0 && pin as u64 != e;
        if self.local.scan((0, 0), 1, straggler).is_some() {
            return e; // a thread pinned at an older epoch: cannot advance
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
    use orc_util::registry;

    #[test]
    fn era_coverage_is_an_interval_query() {
        // Reservations at eras 5 and 9.
        let sorted = [5usize, 9];
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
}
