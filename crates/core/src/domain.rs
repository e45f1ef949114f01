//! The `PassThePointerOrcGC` machinery (paper Algorithms 3, 5 and 6).
//!
//! One process-wide [`Domain`] holds the hazard slots and handover
//! entries ([`orc_util::handover`]'s matrix and protocol, shared with PTP)
//! and, per thread, the `used_haz` slot-sharing counts and the
//! recursive-retire state. Slot 0 of every row is the *scratch* slot of
//! `decrement_orc` and `clear_bit_retired` (Proposition 1: the `_orc` word
//! may only be modified while the object is published in some hazard
//! slot); user-visible [`OrcPtr`](crate::OrcPtr) guards occupy indices ≥ 1.
//!
//! Deviations from the C++ listing, with rationale:
//!
//! * `clear` (Algorithm 5, lines 80–90) additionally **drains the handover
//!   entry** of the slot being released, and internal scratch uses drain
//!   `handovers[0]`, so parked objects are never stranded on a slot that
//!   stops being used. The paper notes objects "may be left indefinitely"
//!   otherwise; draining, and taking back a park that lost the race with
//!   the release, keep the bound and make reclamation exact.
//! * The thread claiming `BRETIRED` nulls its own protecting slot *before*
//!   entering `retire`, so the hand-over scan does not immediately park the
//!   object back on the claimant.
//! * An object fresh from `make_orc` is published with a Release store and
//!   counts its first link with a plain store; if its guard drops without
//!   ever installing it, it is freed on the spot (`Domain::free_fresh`).
//!   Nothing else can reach such an object (DESIGN.md §6.2).
//! * `decrementOrc`'s un-count and its claim are one CAS
//!   (`Domain::uncount_claim`): the un-counted word, plus BRETIRED when it
//!   reads zero and unclaimed. It is the paper's `fetch_add` followed at
//!   once by a winning claim CAS, a schedule Algorithm 4 allows.
//! * A successful [`OrcAtomic::cas`](crate::OrcAtomic::cas) whose
//!   `expected` is a non-fresh guard un-counts the displaced object under
//!   that guard's slot, with no scratch publish. A claim the un-count
//!   takes is held on the slot (the `CLAIMED` flag of its `used_haz`
//!   count), and the slot's last `clear` retires the object in one pass;
//!   retiring at the CAS would park it on that slot for a second pass
//!   (DESIGN.md §6.1 item 8).
//! * [`OrcAtomic::cas_moving`](crate::OrcAtomic::cas_moving) poisons the
//!   link its new object came from and hands that link's count to the
//!   link it installs, with no RMW on the object (DESIGN.md §6.1 item 8).
//! * A `cas` of a fresh guard counts the link before the CAS with a plain
//!   store, and takes it back with another if the CAS fails (DESIGN.md
//!   §6.2 item 3).
//! * A protected load reads the link once first (`Domain::read_link`); a
//!   null or poison word there is final and claims, publishes and
//!   releases no slot.
//!
//! How [`Domain::unreclaimed`] is counted: claims, relinquished claims and
//! frees adjust an owner-only `pass_net` in the thread's `TlInfo`, and the
//! outermost retire pass folds it into the shared `retired_now` gauge with
//! one RMW when it ends. Every claim is followed by a `retire` call on the
//! claiming thread, so the gauge is exact at every pass boundary and at
//! quiescence; what it misses is the objects a pass running on another
//! thread holds in flight. The gauge has one peak, the orc-stats
//! `peak_unreclaimed` it feeds when a pass ends; a caller that wants the
//! peak of one phase samples [`Domain::unreclaimed`] itself.

use crate::header::OrcHeader;
use crate::ptr::protectable;
use crate::word::{is_zero_retired, is_zero_unclaimed, BRETIRED, SEQ};
use orc_util::atomics::{AtomicI64, AtomicUsize, Ordering};
use orc_util::handover::{self, Handover};
use orc_util::registry::{self, MAX_THREADS};
use orc_util::sample::{self, Call};
use orc_util::stats::{Event, SchemeStats, StatsSnapshot};
use orc_util::trace::{self, EventKind};
use orc_util::{chk_hooks, tracked, CachePadded};
use std::cell::UnsafeCell;

/// Hazard slots per thread (the paper's `maxHPs` capacity; the live
/// watermark is tracked dynamically in `Domain::max_hps`). Deep skip-list
/// traversals hold two guards per level, so this is sized generously.
pub const MAX_HPS: usize = 80;

/// Sentinel meaning "this OrcPtr occupies no hazard slot" (null/poison).
pub const NO_IDX: u16 = u16::MAX;

/// The `used_haz` flag of a slot whose guards hold the BRETIRED claim of
/// the object it publishes: a guard-pinned un-count
/// ([`Domain::uncount_pinned`]) took it, and the slot's last `clear`
/// retires the object. A flagged count is never 1, so `reprotect` leaves
/// the slot to `clear`.
pub(crate) const CLAIMED: u32 = 1 << 31;

/// Per-thread state (the paper's `TLInfo`, less `hp` and `handovers`).
pub(crate) struct TlInfo {
    /// Slot-sharing counts, plus the `CLAIMED` flag; owner-thread access
    /// only.
    used_haz: UnsafeCell<[u32; MAX_HPS]>,
    /// Owner-thread-only recursive-retire state.
    retire_started: UnsafeCell<bool>,
    recursive_list: UnsafeCell<Vec<*mut OrcHeader>>,
    /// The clock of the reclamation call running on this thread (0 = not
    /// read yet): a sampled claim's stamp, or the lazy read of a pass
    /// that frees a stamped object. The claim, the pass it opens and the
    /// claims and frees of the cascade inside it share the one read;
    /// reset when the pass ends. Owner-thread-only.
    pass_clock: UnsafeCell<u64>,
    /// Claims minus relinquished claims minus frees of the pass running on
    /// this thread, folded into `Domain::retired_now` when the outermost
    /// pass ends. Owner-thread-only.
    pass_net: UnsafeCell<i64>,
    /// Whether this thread has published in its row since its last
    /// [`Domain::flush_thread_slots`]. Owner-thread-only.
    published: UnsafeCell<bool>,
}

// SAFETY: owner-discipline — `used_haz`, `retire_started`,
// `recursive_list`, `pass_clock`, `pass_net` and `published` are only
// touched by the owning tid (enforced by the `tid` parameters below).
unsafe impl Sync for TlInfo {}
// SAFETY: see the `Sync` impl above; the raw pointers inside
// `recursive_list` are domain-owned headers, not thread-affine state.
unsafe impl Send for TlInfo {}

impl TlInfo {
    fn new() -> Self {
        Self {
            used_haz: UnsafeCell::new([0; MAX_HPS]),
            retire_started: UnsafeCell::new(false),
            recursive_list: UnsafeCell::new(Vec::new()),
            pass_clock: UnsafeCell::new(0),
            pass_net: UnsafeCell::new(0),
            published: UnsafeCell::new(false),
        }
    }
}

/// The global OrcGC domain (`PassThePointerOrcGC` + `g_ptp` in the paper).
pub struct Domain {
    /// Hazard slots (unmarked `*mut OrcHeader` words) and handover entries.
    pub(crate) slots: Handover<MAX_HPS>,
    /// One row per registry tid. A constant length, as `slots` has, so a
    /// hop's `tid` bounds checks fold into one.
    tl: Box<[CachePadded<TlInfo>; MAX_THREADS]>,
    /// Watermark of the highest slot index ever used, bounding scans.
    pub(crate) max_hps: AtomicUsize,
    /// Retired-but-not-deleted gauge. It moves once per retire pass
    /// (`TlInfo::pass_net`), so it can dip below zero while an object
    /// handed over from a pass that has not ended yet is freed by another
    /// thread. Padded: every thread's passes write it, and the fields
    /// around it are read on every protect.
    retired_now: CachePadded<AtomicI64>,
    /// Reclamation telemetry (orc-stats); see [`Domain::stats`].
    pub(crate) stats: SchemeStats,
}

impl Domain {
    fn new() -> Self {
        Self {
            slots: Handover::default(),
            tl: (0..MAX_THREADS)
                .map(|_| CachePadded::new(TlInfo::new()))
                .collect::<Box<[_]>>()
                .try_into()
                .ok()
                .expect("one row per tid"),
            max_hps: AtomicUsize::new(1),
            retired_now: CachePadded::new(AtomicI64::new(0)),
            stats: SchemeStats::new(),
        }
    }

    #[inline]
    pub(crate) fn tl(&self, tid: usize) -> &TlInfo {
        &self.tl[tid]
    }

    // ---- accounting ---------------------------------------------------

    /// The clock of the reclamation call running on `tid`
    /// (`TlInfo::pass_clock`), read now if the call has none yet.
    #[inline]
    fn pass_clock(&self, tid: usize) -> u64 {
        // SAFETY: `pass_clock` is owner-thread-only; `tid` is ours.
        let clock = unsafe { &mut *self.tl(tid).pass_clock.get() };
        if *clock == 0 {
            // Once per call: its first need of the clock.
            *clock = trace::now_ns();
        }
        *clock
    }

    /// Adds `d` to the `pass_net` of `tid`'s pass (`TlInfo::pass_net`).
    #[inline]
    fn add_pass_net(&self, tid: usize, d: i64) {
        // SAFETY: `pass_net` is owner-thread-only; `tid` is ours.
        unsafe { *self.tl(tid).pass_net.get() += d };
    }

    /// Whether a retire pass is running on `tid`.
    #[inline]
    fn in_pass(&self, tid: usize) -> bool {
        // SAFETY: `retire_started` is owner-thread-only; `tid` is ours.
        unsafe { *self.tl(tid).retire_started.get() }
    }

    /// A retire claim on `h`, whose counter read zero-and-unclaimed as
    /// `lorc`. `Some(traced)` when the claim won ([`Self::note_claim`]; the
    /// caller then retires `h`), `None` when the counter moved first.
    ///
    /// # Safety
    /// One of the caller's hazard slots must publish `h`
    /// (Proposition 1), so the header is alive.
    #[inline]
    unsafe fn try_claim(&self, tid: usize, h: *mut OrcHeader, lorc: u64) -> Option<bool> {
        // SAFETY: the caller's slot pins `h` (this function's contract).
        let won = unsafe {
            (*h).orc
                // orc-lint: allow(seqcst, BRETIRED claim must be SC-ordered against racing transitions)
                .compare_exchange(lorc, lorc + BRETIRED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        };
        won.then(|| self.note_claim(tid, h))
    }

    /// Accounts a won claim on `h`, which opens a retire of `h`: together
    /// with its `OrcZero`, one reclamation call, so it draws
    /// ([`sample::draw`]). Returns whether the retire pass is traced.
    #[inline]
    fn note_claim(&self, tid: usize, h: *mut OrcHeader) -> bool {
        let calls = sample::draw(Call::Retire);
        let traced = calls.is_some() && trace::enabled();
        if traced {
            trace::record_at(tid, EventKind::OrcZero, h as u64, 0);
        }
        self.note_retired(tid, h, calls);
        traced
    }

    /// Accounts a successful BRETIRED claim; a sampled one (`calls`, as
    /// drawn) also stamps the header and records its `BRetired`.
    #[inline]
    fn note_retired(&self, tid: usize, h: *mut OrcHeader, calls: Option<u64>) {
        chk_hooks::on_retire(h as usize);
        if let Some(calls) = calls {
            // One clock value serves both layers: the header stamp and the
            // `BRetired` event's `t_ns` are the same instant.
            let t_ns = self.pass_clock(tid);
            // SAFETY: the caller holds `h`'s BRETIRED claim, so the header
            // is alive for the whole call.
            unsafe { &(*h).block }.stamp(t_ns);
            if trace::enabled() {
                let seq = trace::sequence_retires(tid, calls);
                trace::record_at_ns(tid, EventKind::BRetired, h as u64, seq, t_ns);
            }
        }
        self.add_pass_net(tid, 1);
        self.stats.bump(tid, Event::Retire);
    }

    /// A claim relinquished without deletion (`clearBitRetired` found the
    /// counter nonzero). Counted as a reclaim so that at quiescence
    /// `retires - reclaims == unreclaimed()` holds exactly.
    #[inline]
    fn note_unretired(&self, tid: usize, h: *mut OrcHeader, traced: bool) {
        chk_hooks::on_unretire(h as usize);
        // SAFETY: the caller still holds `h` pinned (scratch slot), so the
        // header is alive; the claim it stamped is being given back.
        unsafe { &(*h).block }.stamp(0);
        if traced {
            trace::record_at(tid, EventKind::Unretire, h as u64, 0);
        }
        self.note_destroyed(tid);
    }

    /// Accounts a free (or a relinquished claim), before the destructor
    /// runs: a value's `Drop` already sees its own reclaim counted.
    #[inline]
    fn note_destroyed(&self, tid: usize) {
        self.add_pass_net(tid, -1);
        self.stats.bump(tid, Event::Reclaim);
    }

    /// Folds the ending pass's `pass_net` into the shared gauge: one RMW,
    /// and none for a pass that freed what it claimed.
    #[inline]
    fn settle_pass(&self, tid: usize) {
        // SAFETY: `pass_net` is owner-thread-only; `tid` is ours.
        let net = std::mem::take(unsafe { &mut *self.tl(tid).pass_net.get() });
        if net != 0 {
            let now = (self.retired_now.fetch_add(net, Ordering::Relaxed) + net).max(0) as u64;
            self.stats.note_unreclaimed(now);
        }
    }

    /// Aggregated domain telemetry (see [`crate::domain_stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Objects currently claimed-retired but not yet deleted.
    ///
    /// Exact at quiescence and as of the last pass each thread ended: a
    /// retire pass folds its claims and frees into the gauge when it ends
    /// (see the module docs), so the objects a pass still running on
    /// another thread holds in flight are not in it.
    pub fn unreclaimed(&self) -> u64 {
        self.retired_now.load(Ordering::Relaxed).max(0) as u64
    }

    // ---- slot management (Algorithm 6) --------------------------------

    /// `getNewIdx`: claims the lowest unused slot index ≥ 1. Raising the
    /// `max_hps` watermark, which only a new highest index does, is out of
    /// line.
    #[inline]
    pub(crate) fn get_new_idx(&self, tid: usize) -> u16 {
        // SAFETY: `used_haz` is owner-thread-only and `tid` is the caller's
        // own row, so no other reference to this array exists.
        let used = unsafe { &mut *self.tl(tid).used_haz.get() };
        for (idx, u) in used.iter_mut().enumerate().skip(1) {
            if *u == 0 {
                *u = 1;
                // SAFETY: `published` is owner-thread-only; `tid` is ours.
                unsafe { *self.tl(tid).published.get() = true };
                let cur = self.max_hps.load(Ordering::Relaxed);
                if cur <= idx {
                    self.raise_max_hps(idx, cur);
                }
                return idx as u16;
            }
        }
        panic!(
            "orcgc: all {MAX_HPS} hazard slots of this thread are in use; \
             too many live OrcPtr guards"
        );
    }

    /// Raises `max_hps` from `cur` (as read) to cover slot `idx`.
    #[cold]
    #[inline(never)]
    fn raise_max_hps(&self, idx: usize, mut cur: usize) {
        while cur <= idx {
            match self
                .max_hps
                .compare_exchange(cur, idx + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }

    /// `usingIdx`: shares an already-claimed slot.
    #[inline]
    pub(crate) fn using_idx(&self, tid: usize, idx: u16) {
        debug_assert_ne!(idx, 0);
        // SAFETY: `used_haz` is owner-thread-only; `tid` is the caller's row.
        let used = unsafe { &mut *self.tl(tid).used_haz.get() };
        used[idx as usize] += 1;
    }

    #[cfg(test)]
    pub(crate) fn used_count(&self, tid: usize, idx: u16) -> u32 {
        // SAFETY: `used_haz` is owner-thread-only; tests pass their own tid.
        unsafe { (*self.tl(tid).used_haz.get())[idx as usize] }
    }

    // ---- protection ----------------------------------------------------

    /// The first read of a protected load. A sentinel (null/poison) it
    /// returns is the load's result: nothing to protect, no slot touched.
    /// Any other word is the hint [`Self::get_protected`] starts from.
    #[inline]
    pub(crate) fn read_link(addr: &AtomicUsize) -> usize {
        // orc-lint: allow(seqcst, a sentinel read is final with no publish-and-reread after it, so it takes the SC position the reread's xchg fence gave it)
        addr.load(Ordering::SeqCst)
    }

    /// The protect loop ([`handover::protect`]) on `hp[tid][idx]`, from the
    /// first read `word` ([`Self::read_link`]); a sentinel publishes 0.
    /// Its first round is inline, a failed validation continues out of
    /// line.
    #[inline]
    pub(crate) fn get_protected(
        &self,
        tid: usize,
        idx: u16,
        addr: &AtomicUsize,
        word: usize,
    ) -> usize {
        let slot = self.slots.hp(tid, idx.into());
        handover::protect(slot, addr, word, protectable, tid, &self.stats)
    }

    /// Publishes a `make_orc` object. A Release store is enough: nobody
    /// reaches the object before a later link install, a SeqCst RMW
    /// sequenced after this store, so every thread that reaches it — and
    /// then may scan for it — acquires through that install and sees the
    /// slot.
    #[inline]
    pub(crate) fn publish_fresh(&self, tid: usize, idx: u16, h: *mut OrcHeader) {
        let slot = self.slots.hp(tid, idx.into());
        slot.store(h as usize, Ordering::Release);
    }

    /// Drops a fresh guard (`OrcPtr`'s `fresh` flag) that was never
    /// installed: its object `h` was never linked and no other reference
    /// to it exists, so it is freed here — no BRETIRED claim, no hazard
    /// scan. Counted as the claim, free and batch of one the general path
    /// would record; a sampled call also records its `BRetired` and a
    /// 0 ns delay.
    pub(crate) fn free_fresh(&self, tid: usize, idx: u16, h: *mut OrcHeader) {
        // SAFETY: `used_haz` is owner-thread-only; `tid` is the caller's row.
        let used = unsafe { &mut (*self.tl(tid).used_haz.get())[idx as usize] };
        debug_assert_eq!(*used, 1, "a fresh guard's slot is not shared");
        *used = 0;
        self.slots.release(tid, idx as usize);
        chk_hooks::on_retire(h as usize);
        if let Some(calls) = sample::draw(Call::Retire) {
            if trace::enabled() {
                let seq = trace::sequence_retires(tid, calls);
                trace::record_at(tid, EventKind::BRetired, h as u64, seq);
            }
            self.stats.reclaim_delay(tid, 0);
        }
        self.stats.bump(tid, Event::Retire);
        self.stats.bump(tid, Event::Reclaim);
        self.stats.batch(tid, 1);
        // SAFETY: never linked and referenced by this guard alone (the
        // `fresh` contract), so it is unreachable and freed exactly once.
        unsafe { tracked::destroy(h.cast()) };
        self.drain(tid, idx.into());
    }

    // ---- clear (Algorithm 5, lines 80–90, plus handover drain) ---------

    /// Releases one use of `idx`, which protects `word`. When the last use
    /// goes away: if the slot holds the object's claim (`CLAIMED`), or
    /// its counter reads zero and a claim wins while the slot pins it,
    /// release the slot, retire the claimed object and continue the
    /// retirement of anything parked on the slot.
    ///
    /// Inline: another use remaining, and the release of a slot whose
    /// object is counted (or a sentinel) with an empty entry. A held claim
    /// ([`Self::clear_claimed`]), a claim ([`Self::clear_claiming`]) and a
    /// non-empty drain are out of line.
    #[inline]
    pub(crate) fn clear(&self, tid: usize, idx: u16, word: usize) {
        debug_assert_ne!(idx, 0);
        // SAFETY: `used_haz` is owner-thread-only; `tid` is the caller's row.
        let used = unsafe { &mut *self.tl(tid).used_haz.get() };
        let u = &mut used[usize::from(idx)];
        debug_assert!(*u & !CLAIMED > 0);
        *u -= 1;
        if *u != 0 {
            if *u == CLAIMED {
                // SAFETY: the slot still publishes the claimed object.
                unsafe { self.clear_claimed(tid, idx, protectable(word) as _) };
            }
            return;
        }
        let h = protectable(word) as *mut OrcHeader;
        if !h.is_null() {
            // SAFETY: `word` is still published in our hazard slot.
            if let Some(lorc) = unsafe { self.zero_unclaimed(h) } {
                // SAFETY: as above — our slot still pins `h`.
                return unsafe { self.clear_claiming(tid, idx, h, lorc) };
            }
        }
        self.slots.release(tid, idx.into());
        self.drain(tid, idx.into());
    }

    /// The rest of [`Self::clear`] when the slot's object `h` read zero
    /// and unclaimed as `lorc`: claim it, release the slot, retire what
    /// was claimed and drain the entry.
    ///
    /// # Safety
    /// Slot `idx` of `tid` publishes `h`.
    #[cold]
    #[inline(never)]
    unsafe fn clear_claiming(&self, tid: usize, idx: u16, h: *mut OrcHeader, lorc: u64) {
        // SAFETY: our slot still pins `h` (this function's contract).
        let claim = unsafe { self.try_claim(tid, h, lorc) };
        self.release_and_retire(tid, idx, h, claim);
    }

    /// The rest of [`Self::clear`] when the last use of slot `idx` holds
    /// the claim of `h` (`CLAIMED`): account the claim, release the slot
    /// and retire `h`. No counter read and no claim CAS: a link installed
    /// since the claim is `retire`'s to find, and it gives the claim back.
    ///
    /// # Safety
    /// Slot `idx` of `tid` publishes `h`, and its `used_haz` count is
    /// `CLAIMED`.
    #[cold]
    #[inline(never)]
    unsafe fn clear_claimed(&self, tid: usize, idx: u16, h: *mut OrcHeader) {
        // SAFETY: `used_haz` is owner-thread-only; `tid` is the caller's row.
        unsafe { (*self.tl(tid).used_haz.get())[usize::from(idx)] = 0 };
        let traced = self.note_claim(tid, h);
        self.release_and_retire(tid, idx, h, Some(traced));
    }

    /// Releases slot `idx`, retires `h` if `claim` holds its claim (as
    /// [`Self::try_claim`] returns) and drains the slot's entry.
    #[inline]
    fn release_and_retire(&self, tid: usize, idx: u16, h: *mut OrcHeader, claim: Option<bool>) {
        // Release before retiring, so the scan does not park the object
        // straight back onto this slot.
        self.slots.release(tid, idx.into());
        if let Some(traced) = claim {
            self.retire(tid, h, traced);
        }
        self.drain(tid, idx.into());
    }

    /// The `_orc` word of `h` if it reads zero and unclaimed. A guard that
    /// lets go of `h` in that state must claim and retire it itself: no
    /// link is left whose decrement would.
    ///
    /// # Safety
    /// One of the caller's hazard slots must publish `h` (Proposition 1).
    #[inline]
    unsafe fn zero_unclaimed(&self, h: *mut OrcHeader) -> Option<u64> {
        // SAFETY: the caller's slot pins `h` (this function's contract).
        // orc-lint: allow(seqcst, orc-counter reads participate in the SC order Lemma 1 quantifies over)
        let lorc = unsafe { (*h).orc.load(Ordering::SeqCst) };
        is_zero_unclaimed(lorc).then_some(lorc)
    }

    /// Re-protects slot `idx`, which publishes `old`, with the word at
    /// `addr` ([`OrcAtomic::load_into`](crate::OrcAtomic::load_into)).
    /// `None`, with nothing touched, when another guard shares the slot,
    /// the slot holds `old`'s claim (`CLAIMED`) or `old` reads zero and
    /// unclaimed: the caller then lets go of `old` through
    /// [`Self::clear`], which retires it. Otherwise the
    /// validated word; a sentinel releases the slot with `clear`'s
    /// Release store.
    ///
    /// Inline, one straight line: a sole use, `old` counted, an object
    /// word validated at the first re-read, an empty entry. A validation
    /// retry, the sentinel release and a non-empty drain are out of line.
    #[inline(always)]
    pub(crate) fn reprotect(
        &self,
        tid: usize,
        idx: u16,
        old: usize,
        addr: &AtomicUsize,
    ) -> Option<usize> {
        // SAFETY: `used_haz` is owner-thread-only; `tid` is the caller's row.
        let used = unsafe { (*self.tl(tid).used_haz.get())[usize::from(idx)] };
        // A shared slot, or one holding a claim (never 1).
        if used != 1 {
            return None;
        }
        // SAFETY: slot `idx` still publishes `old`: read its counter first.
        if unsafe { self.zero_unclaimed(protectable(old) as _) }.is_some() {
            return None;
        }
        // The overwrite ends `old`'s protection. A decrement that takes it
        // to zero after the read above races as one racing `clear` does:
        // its claimant's scan either sees `old` here and parks it on
        // `handovers[idx]`, drained below, or scans after the overwrite
        // and frees it.
        let mut word = Self::read_link(addr);
        if protectable(word) != 0 {
            word = self.get_protected(tid, idx, addr, word);
        }
        if protectable(word) == 0 {
            self.release_sole(tid, idx);
        }
        self.drain(tid, idx.into());
        Some(word)
    }

    /// Releases slot `idx`, whose only use is going away, with `clear`'s
    /// Release store (a re-protect found a sentinel).
    #[cold]
    #[inline(never)]
    fn release_sole(&self, tid: usize, idx: u16) {
        self.slots.release(tid, idx.into());
        // SAFETY: `used_haz` is owner-thread-only; `tid` is the caller's row.
        unsafe { (*self.tl(tid).used_haz.get())[usize::from(idx)] = 0 };
    }

    /// Drains `handovers[tid][idx]` and continues the retirement of what
    /// was parked there.
    #[inline]
    fn drain(&self, tid: usize, idx: usize) {
        self.retire_parked(tid, self.slots.drain(tid, idx));
    }

    /// Continues the retirement of an object taken from a handover entry
    /// (0: none); its BRETIRED claim comes with it.
    #[inline]
    fn retire_parked(&self, tid: usize, parked: usize) {
        if parked != 0 {
            self.retire_taken(tid, parked as *mut OrcHeader);
        }
    }

    /// The body of [`Self::retire_parked`], for a non-empty entry.
    #[cold]
    #[inline(never)]
    fn retire_taken(&self, tid: usize, h: *mut OrcHeader) {
        // A pass running on this thread takes the object over; otherwise
        // the drain is a reclamation call of its own and draws. Its clock
        // is read only if it frees a stamped object, so one that sat
        // parked reports its real delay.
        let traced = !self.in_pass(tid) && sample::draw(Call::Drain).is_some();
        self.retire(tid, h, traced);
    }

    // ---- orc-counter transitions (Algorithm 4 helpers) ------------------

    /// Counts the first link of a fresh object (`OrcPtr`'s `fresh` flag):
    /// `incrementOrc` as a plain store, since no other thread can reach
    /// `h` before the link install that follows publishes it.
    pub(crate) fn count_first_link(&self, h: *mut OrcHeader) {
        Self::add_unshared(h, SEQ + 1);
    }

    /// Takes back [`Self::count_first_link`] after a CAS that did not
    /// link `h`: still nobody else can reach it.
    pub(crate) fn uncount_first_link(&self, h: *mut OrcHeader) {
        Self::add_unshared(h, (SEQ + 1).wrapping_neg());
    }

    /// Adds `delta` to the `_orc` word of `h` with a plain store.
    fn add_unshared(h: *mut OrcHeader, delta: u64) {
        // SAFETY: the caller's fresh guard pins `h`, which nothing else
        // references, so this thread alone accesses its `_orc` word.
        let orc = unsafe { &(*h).orc };
        orc.store(
            orc.load(Ordering::Relaxed).wrapping_add(delta),
            Ordering::Relaxed,
        );
    }

    /// `incrementOrc`: the caller must hold protection on `h` (an OrcPtr).
    pub(crate) fn increment_orc(&self, tid: usize, h: *mut OrcHeader) {
        if h.is_null() {
            return;
        }
        // SAFETY: the caller holds an OrcPtr protection on `h` (documented
        // contract), so the header is alive for the whole call.
        // orc-lint: allow(seqcst, Algorithm 4 counter transition; the SC total order decides the last-to-zero claimant)
        let lorc = unsafe { (*h).orc.fetch_add(SEQ + 1, Ordering::SeqCst) }.wrapping_add(SEQ + 1);
        if !is_zero_unclaimed(lorc) {
            return;
        }
        // Incremented from -1 back to zero: the link we just counted has
        // already been removed. Try to claim the retire.
        // SAFETY: still under the caller's protection, as above.
        if let Some(traced) = unsafe { self.try_claim(tid, h, lorc) } {
            self.retire(tid, h, traced);
        }
    }

    /// `decrementOrc`: `h` may be otherwise unprotected, so it is published
    /// in the scratch slot 0 first (Proposition 1). Its un-count and claim
    /// are one CAS ([`Self::uncount_claim`]).
    pub(crate) fn decrement_orc(&self, tid: usize, h: *mut OrcHeader) {
        if h.is_null() {
            return;
        }
        // SAFETY: `published` is owner-thread-only; `tid` is ours.
        unsafe { *self.tl(tid).published.get() = true };
        let scratch = self.slots.hp(tid, 0);
        // orc-lint: allow(seqcst, Release not SC: a deleter claims with a later RMW on `_orc`, acquires the SC RMW below and so sees this slot; one that claimed earlier cannot pass Lemma 1 while our link is counted — DESIGN.md §6.2)
        scratch.store(h as usize, Ordering::Release);
        // SAFETY: `h` was just published in scratch slot 0 and the caller
        // held a counted (or protected) link, so no deleter can free it
        // before our publish is visible (Proposition 1).
        let claim = unsafe { Self::uncount_claim(h) }.then(|| self.note_claim(tid, h));
        scratch.store(0, Ordering::Release);
        if let Some(traced) = claim {
            self.retire(tid, h, traced);
        }
        // A concurrent retirer may have parked an object on our scratch
        // slot while it was published.
        self.drain(tid, 0);
    }

    /// `decrementOrc` for an `h` that slot `idx` of `tid` publishes until
    /// its last guard lets go: the `expected` of
    /// [`OrcAtomic::cas`](crate::OrcAtomic::cas) or
    /// [`OrcAtomic::cas_moving`](crate::OrcAtomic::cas_moving). The slot
    /// pins `h`, so there is no scratch publish, and a claim the un-count
    /// takes is held on the slot (`CLAIMED`) for its last
    /// [`Self::clear`], which retires `h` in one pass. Retiring at once
    /// would find the slot in the hazard scan, park `h` on it and leave
    /// the free to a second pass at the release.
    ///
    /// # Safety
    /// Slot `idx` of `tid` publishes `h`, and a guard holds the slot.
    #[inline]
    pub(crate) unsafe fn uncount_pinned(&self, tid: usize, idx: u16, h: *mut OrcHeader) {
        // SAFETY: slot `idx` pins `h` (this function's contract).
        if unsafe { Self::uncount_claim(h) } {
            // SAFETY: `used_haz` is owner-thread-only; `tid` is ours.
            let used = unsafe { &mut (*self.tl(tid).used_haz.get())[usize::from(idx)] };
            // A held claim keeps BRETIRED set until the slot's release, so
            // no second un-count can claim for it.
            debug_assert_eq!(*used & CLAIMED, 0);
            *used |= CLAIMED;
        }
    }

    /// The counter step of `decrementOrc` and its claim in one CAS:
    /// un-counts one link of `h` and, when that leaves the counter zero
    /// and unclaimed, sets BRETIRED in the same CAS — the paper's
    /// `fetch_add` followed at once by a winning claim CAS. True when it
    /// claimed; the caller then accounts the claim and retires `h`.
    ///
    /// # Safety
    /// One of the caller's hazard slots must publish `h` (Proposition 1).
    #[inline]
    unsafe fn uncount_claim(h: *mut OrcHeader) -> bool {
        // SAFETY: the caller's slot pins `h` (this function's contract).
        let orc = unsafe { &(*h).orc };
        // Relaxed: the read is only the CAS's expected value, and a failed
        // CAS returns the word to retry from.
        let mut cur = orc.load(Ordering::Relaxed);
        loop {
            let uncounted = cur.wrapping_add(SEQ - 1);
            let claim = is_zero_unclaimed(uncounted);
            let new = uncounted + if claim { BRETIRED } else { 0 };
            // orc-lint: allow(seqcst, Algorithm 4 counter transition; the SC total order decides the last-to-zero claimant)
            match orc.compare_exchange(cur, new, Ordering::SeqCst, Ordering::Relaxed) {
                Ok(_) => return claim,
                Err(seen) => cur = seen,
            }
        }
    }

    // ---- retire (Algorithm 5, lines 92–118) ------------------------------

    /// Retires `h` (whose BRETIRED claim we hold): verify Lemma 1 — counter
    /// at zero and no hazard pointer published, atomically via the
    /// sequence — handing the object over to any protector found, then
    /// delete. Deletion may cascade through the object's `OrcAtomic`
    /// fields; recursion is flattened through `recursive_list`.
    ///
    /// `traced` is the draw of the call that opened the pass — the claim
    /// ([`Self::try_claim`]) or the drain — and holds for the whole pass,
    /// so its `ScanBegin` … `ScanEnd` bracket is whole even when a
    /// cascade claim inside it draws again. The pass runs on one clock
    /// value (`pass_clock`): a sampled claim's stamp, else read at the
    /// first stamped object it frees; every delay it records, and every
    /// sampled claim its cascade makes, is measured against that.
    pub(crate) fn retire(&self, tid: usize, first: *mut OrcHeader, traced: bool) {
        let tl = self.tl(tid);
        // SAFETY: `retire_started` is owner-thread-only; `tid` is ours.
        let started = unsafe { &mut *tl.retire_started.get() };
        if *started {
            // SAFETY: `recursive_list` is owner-thread-only. We are inside
            // the outer `retire` of this same thread (started == true), and
            // that frame only touches the list between objects, never
            // across this nested call.
            unsafe { (*tl.recursive_list.get()).push(first) };
            return;
        }
        *started = true;
        self.stats.bump(tid, Event::Scan);
        if traced {
            trace::record_at(tid, EventKind::ScanBegin, 0, 0);
        }
        let mut destroyed = 0u64;
        let mut h = first;
        let mut i = 0usize;
        loop {
            'obj: while !h.is_null() {
                // SAFETY: we hold `h`'s BRETIRED claim (ours or inherited
                // through a handover), which keeps the header alive.
                // orc-lint: allow(seqcst, orc-counter reads participate in the SC order Lemma 1 quantifies over)
                let mut lorc = unsafe { (*h).orc.load(Ordering::SeqCst) };
                if !is_zero_retired(lorc) {
                    // The counter moved after the claim: relinquish and
                    // possibly re-claim.
                    lorc = self.clear_bit_retired(tid, h, traced);
                    if lorc == 0 {
                        break 'obj;
                    }
                }
                loop {
                    if self.try_handover(tid, &mut h, traced) {
                        continue 'obj;
                    }
                    // SAFETY: BRETIRED claim held, as above.
                    // orc-lint: allow(seqcst, Lemma 1 revalidation: must observe any transition SC-ordered before the hazard scan)
                    let lorc2 = unsafe { (*h).orc.load(Ordering::SeqCst) };
                    if lorc2 == lorc {
                        // Lemma 1 established: delete. The value's own
                        // OrcAtomic fields drop here, feeding
                        // recursive_list through nested retire calls.
                        // SAFETY: `h` is still live here (freed below).
                        if let Some(at) = unsafe { &(*h).block }.stamp_of() {
                            let since = self.pass_clock(tid).saturating_sub(at);
                            self.stats.reclaim_delay(tid, since);
                        }
                        self.note_destroyed(tid);
                        destroyed += 1;
                        // SAFETY: counter at zero, claim held, and the
                        // hazard scan found no protector — `h` is ours to
                        // free, exactly once.
                        unsafe { tracked::destroy(h.cast()) };
                        break 'obj;
                    }
                    if !is_zero_retired(lorc2) {
                        lorc = self.clear_bit_retired(tid, h, traced);
                        if lorc == 0 {
                            break 'obj;
                        }
                    } else {
                        lorc = lorc2;
                    }
                }
            }
            // SAFETY: owner-thread-only list; nested `retire` calls (which
            // also borrow it) cannot be live here — we are between objects.
            let list = unsafe { &mut *tl.recursive_list.get() };
            if list.len() == i {
                break;
            }
            h = list[i];
            i += 1;
        }
        // SAFETY: as above — the drain loop is done, no other borrow exists.
        unsafe { (*tl.recursive_list.get()).clear() };
        // SAFETY: owner-thread-only, as above.
        unsafe { *tl.pass_clock.get() = 0 };
        *started = false;
        self.settle_pass(tid);
        // One retire pass = one reclamation batch (the recursive cascade
        // included), matching the batch semantics of the manual schemes.
        self.stats.batch(tid, destroyed);
        if traced {
            if destroyed != 0 {
                trace::record_at(tid, EventKind::ReclaimBatch, destroyed, 0);
            }
            trace::record_at(tid, EventKind::ScanEnd, destroyed, 0);
        }
    }

    /// `tryHandover` (Algorithm 6): find a slot up to the slot watermark
    /// that publishes `h`, park `h` on its handover entry and take over
    /// whatever was parked there. A take-back is pushed onto this pass.
    fn try_handover(&self, tid: usize, h: &mut *mut OrcHeader, traced: bool) -> bool {
        let lmax = self.max_hps.load(Ordering::Acquire);
        let word = *h as usize;
        let Some((t, i)) = self.slots.find(word, (0, 0), lmax) else {
            return false;
        };
        let (prev, back) = self.slots.park(t, i, word, word);
        self.stats.bump(tid, Event::Handover);
        if traced {
            trace::record_at(tid, EventKind::Handover, word as u64, 0);
        }
        self.retire_parked(tid, back);
        *h = prev as *mut OrcHeader;
        true
    }

    /// `clearBitRetired` (Algorithm 6): momentarily relinquish the claim;
    /// if the counter is (still) at zero, re-claim and return the fresh
    /// word; otherwise return 0 — some later transition will re-retire.
    /// Part of the running pass, so its events follow the pass's
    /// `traced`; a re-claim is the pass's own, not a new call.
    fn clear_bit_retired(&self, tid: usize, h: *mut OrcHeader, traced: bool) -> u64 {
        let scratch = self.slots.hp(tid, 0);
        // orc-lint: allow(seqcst, Release not SC: we hold the claim, and a re-claimer's CAS is a later RMW on `_orc` that acquires the SC RMW below, so its scan sees this slot — DESIGN.md §6.2)
        scratch.store(h as usize, Ordering::Release);
        // SAFETY: we hold `h`'s BRETIRED claim *and* just published it in
        // scratch slot 0, so the header is alive.
        // orc-lint: allow(seqcst, Algorithm 6 relinquish; the SC total order decides who re-claims)
        let lorc = unsafe { (*h).orc.fetch_sub(BRETIRED, Ordering::SeqCst) } - BRETIRED;
        let mut reclaimed = false;
        if is_zero_unclaimed(lorc) {
            if traced {
                trace::record_at(tid, EventKind::OrcZero, h as u64, 0);
            }
            // SAFETY: still pinned by scratch slot 0.
            reclaimed = unsafe {
                (*h).orc
                    // orc-lint: allow(seqcst, BRETIRED claim must be SC-ordered against racing transitions)
                    .compare_exchange(lorc, lorc + BRETIRED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            };
        }
        let out = if reclaimed {
            lorc + BRETIRED
        } else {
            self.note_unretired(tid, h, traced);
            0
        };
        scratch.store(0, Ordering::Release);
        self.drain(tid, 0);
        out
    }

    // ---- thread lifecycle ----------------------------------------------

    /// Clears all hazard slots of `tid` and drains every handover entry.
    /// Runs as the registry's exit drain and from [`crate::flush_thread`],
    /// which alone counts a flush: a thread exit is not one, as for the
    /// manual schemes. A row not published in since the last flush holds
    /// nothing (nothing parks on a slot that never published) and is left
    /// untouched, so a thread that never used OrcGC takes no step here.
    pub(crate) fn flush_thread_slots(&self, tid: usize) {
        let published = self.tl(tid).published.get();
        // SAFETY: owner-thread-only, and this runs on `tid`'s own thread;
        // no reference to the flag is held across the cascade below.
        if !unsafe { *published } {
            return;
        }
        let lmax = self.max_hps.load(Ordering::Acquire);
        for idx in 0..lmax {
            // Only release slots not currently claimed by live OrcPtrs.
            // SAFETY: `used_haz` is owner-thread-only; this runs on `tid`'s
            // own thread (flush_thread or its exit drain).
            let in_use = unsafe { (*self.tl(tid).used_haz.get())[idx] } != 0;
            if !in_use {
                self.slots.release(tid, idx);
                self.retire_parked(tid, self.slots.take(tid, idx));
            }
        }
        // Cleared last: a cascade above may publish in the scratch slot
        // again, and releases and drains it itself.
        // SAFETY: owner-thread-only, as above.
        unsafe { *published = false };
    }
}

static GLOBAL: std::sync::OnceLock<Domain> = std::sync::OnceLock::new();

/// The process-wide OrcGC domain. Building it registers the registry's
/// exit drain, which clears every exiting thread's hazard row, and the
/// model checker's per-schedule reset of the slot watermark.
#[inline]
pub fn domain() -> &'static Domain {
    GLOBAL.get_or_init(|| {
        registry::set_exit_drain(|tid| domain().flush_thread_slots(tid));
        chk_hooks::on_schedule(reset_max_hps);
        Domain::new()
    })
}

/// [`domain`] without its `OnceLock` check, for the owner of a guard with
/// a hazard slot.
///
/// # Safety
/// The caller holds a guard with a slot. A slot index is only handed out
/// by `get_new_idx` on what a [`domain`] call on this thread returned
/// (guards are `!Send`), and `GLOBAL` is never reset, so it is built.
#[inline]
pub(crate) unsafe fn built() -> &'static Domain {
    debug_assert!(GLOBAL.get().is_some());
    // SAFETY: `GLOBAL` is initialised (this function's contract).
    unsafe { GLOBAL.get().unwrap_unchecked() }
}

/// Lowers `max_hps` to 1, a new domain's value, before a model schedule:
/// sound as no registry tid is claimed then, so every thread that used a
/// slot exited, and its exit drain released its slots and entries.
fn reset_max_hps() -> Result<(), String> {
    // Relaxed: the schedule's threads are spawned after this, which orders it.
    domain().max_hps.store(1, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_indices_start_at_one_and_are_reused() {
        let d = domain();
        let tid = registry::tid();
        let a = d.get_new_idx(tid);
        let b = d.get_new_idx(tid);
        assert!(a >= 1);
        assert_ne!(a, b);
        d.clear(tid, a, 0);
        let c = d.get_new_idx(tid);
        assert_eq!(c, a, "freed slot should be reused");
        d.clear(tid, b, 0);
        d.clear(tid, c, 0);
    }

    #[test]
    fn shared_slots_release_on_last_clear() {
        let d = domain();
        let tid = registry::tid();
        let idx = d.get_new_idx(tid);
        d.using_idx(tid, idx);
        assert_eq!(d.used_count(tid, idx), 2);
        d.clear(tid, idx, 0);
        assert_eq!(d.used_count(tid, idx), 1);
        d.clear(tid, idx, 0);
        assert_eq!(d.used_count(tid, idx), 0);
    }

    #[test]
    fn max_hps_watermark_grows() {
        let d = domain();
        let tid = registry::tid();
        let mut idxs = Vec::new();
        for _ in 0..5 {
            idxs.push(d.get_new_idx(tid));
        }
        let max = *idxs.iter().max().unwrap() as usize;
        assert!(d.max_hps.load(Ordering::SeqCst) > max);
        for idx in idxs {
            d.clear(tid, idx, 0);
        }
    }

    #[test]
    fn get_protected_publishes_unmarked() {
        let d = domain();
        let tid = registry::tid();
        let h = crate::header::OrcHeader::alloc(7u32);
        let addr = AtomicUsize::new(orc_util::marked::mark(h as usize));
        let idx = d.get_new_idx(tid);
        let word = d.get_protected(tid, idx, &addr, Domain::read_link(&addr));
        assert!(orc_util::marked::is_marked(word));
        assert_eq!(
            d.slots.hp(tid, idx as usize).load(Ordering::SeqCst),
            h as usize
        );
        // Clearing with counter at zero claims BRETIRED and deletes (no
        // other protector).
        d.clear(tid, idx, word);
        assert_eq!(d.slots.hp(tid, idx as usize).load(Ordering::SeqCst), 0);
    }
}
