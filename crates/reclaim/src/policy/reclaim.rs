//! Reclamation policies: how retired objects become free memory — plus
//! [`RetireLedger`], the bookkeeping spine every policy shares.
//!
//! The ledger owns the two invariants the rest of the workspace builds
//! on: the orc-stats exactness contract (every `unreclaimed += 1` pairs
//! with a `Retire` event, every decrement with a `Reclaim`, so
//! `retires − reclaims == unreclaimed()` at quiescence) and the trace
//! emission order (`ScanBegin` → per-object frees → `ReclaimBatch` →
//! `ScanEnd`). [`ScanList`] and [`LimboBins`] are the two in-tree
//! reclamation shapes; PTB's versioned handoff lives in its scheme module
//! and PTP's handover entries in [`orc_util::handover`], and both feed the
//! same ledger.

use crate::hazard::{OrphanStack, PerThread};
use crate::header::{mark_retired, record_reclaim_delay, SmrHeader};
use crate::MAX_HPS;
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::sample::Pass;
use orc_util::stats::{Event, SchemeStats, StatsSnapshot};
use orc_util::trace::{self, EventKind};
use orc_util::{registry, CachePadded};

/// The shared retire/free bookkeeping of every manual scheme: the
/// `unreclaimed` gauge (this is its one owner), the per-instance
/// [`SchemeStats`] and the shadow-heap hooks, sequenced identically to
/// the pre-split schemes.
pub struct RetireLedger {
    /// Every retire and free of every thread writes it, so it has a line
    /// of its own: next to the scheme's read-mostly fields it would make
    /// each protect and retire miss.
    unreclaimed: CachePadded<AtomicUsize>,
    stats: SchemeStats,
}

impl RetireLedger {
    pub fn new() -> Self {
        Self {
            unreclaimed: CachePadded::new(AtomicUsize::new(0)),
            stats: SchemeStats::new(),
        }
    }

    /// The instance's stats sink (protect loops bump retries here).
    #[inline]
    pub fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    /// Objects currently retired but not yet freed.
    #[inline]
    pub fn unreclaimed(&self) -> usize {
        self.unreclaimed.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The retire prologue shared by every scheme: shadow-heap hook,
    /// the sampled retire stamp + trace event, gauge increment, `Retire`
    /// count and watermark. Returns the retire stamp ([`mark_retired`]; 0
    /// for an unsampled call) — whatever pass this retire call goes on to
    /// run is [`Pass::of_retire`] of it.
    ///
    /// # Safety
    /// `h` must be a live header owned by the retiring thread (`tid` is
    /// the caller's registry tid), retired exactly once.
    #[inline]
    pub unsafe fn on_retire(&self, tid: usize, h: *mut SmrHeader) -> u64 {
        orc_util::chk_hooks::on_retire(h as usize);
        // SAFETY: `h` is live per this function's contract.
        let stamp = unsafe { mark_retired(tid, h) };
        let now = self.unreclaimed.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.bump(tid, Event::Retire);
        self.stats.note_unreclaimed(now as u64);
        stamp
    }

    /// Frees one scanned-out object: delay histogram (a stamped object
    /// only), destructor, gauge decrement — the HP/HE per-object free
    /// sequence.
    ///
    /// # Safety
    /// `h` must be a retired, unreachable header freed exactly once.
    #[inline]
    pub unsafe fn free_scanned(&self, tid: usize, h: *mut SmrHeader, pass: &mut Pass) {
        // SAFETY: `h` is still live here (freed on the next line).
        unsafe { record_reclaim_delay(&self.stats, tid, h, pass) };
        // SAFETY: forwarded contract — retired, unreachable, freed once.
        unsafe { SmrHeader::destroy(h) };
        self.unreclaimed.fetch_sub(1, Ordering::Relaxed);
    }

    /// Frees one object of a deferred batch *without* touching the gauge
    /// (EBR settles the gauge once per bin via [`Self::settle_batch`]).
    ///
    /// # Safety
    /// Same contract as [`Self::free_scanned`].
    #[inline]
    pub unsafe fn free_deferred(&self, tid: usize, h: *mut SmrHeader, pass: &mut Pass) {
        // SAFETY: `h` is still live here (freed on the next line).
        unsafe { record_reclaim_delay(&self.stats, tid, h, pass) };
        // SAFETY: forwarded contract — retired, unreachable, freed once.
        unsafe { SmrHeader::destroy(h) };
    }

    /// Settles the gauge for a batch freed via [`Self::free_deferred`].
    #[inline]
    pub fn settle_batch(&self, n: usize) {
        self.unreclaimed.fetch_sub(n, Ordering::Relaxed);
    }

    /// Opens a scan pass: `Scan` count + `ScanBegin` trace event (a
    /// traced pass only).
    #[inline]
    pub fn open_scan(&self, tid: usize, pass: &Pass) {
        self.stats.bump(tid, Event::Scan);
        pass.record(tid, EventKind::ScanBegin, 0, 0);
    }

    /// Closes a list / bin scan pass that freed `freed` objects:
    /// `Reclaim` count, batch histogram and, for a traced pass,
    /// `ReclaimBatch` (when nonzero) and `ScanEnd`. The `ScanEnd` is
    /// stamped with a clock read of its own — paid once per traced batch
    /// examined, it is what gives a batch scan its real duration in the
    /// trace.
    #[inline]
    pub fn close_scan(&self, tid: usize, freed: u64, pass: &Pass) {
        self.stats.add(tid, Event::Reclaim, freed);
        self.stats.batch(tid, freed);
        if pass.traced() {
            if freed != 0 {
                trace::record_at(tid, EventKind::ReclaimBatch, freed, 0);
            }
            // Once per pass: the end of a batch scan.
            trace::record_at_ns(tid, EventKind::ScanEnd, freed, 0, trace::now_ns());
        }
    }
}

impl Default for RetireLedger {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-thread retired state of a [`ScanList`].
#[derive(Default)]
struct Retired {
    list: Vec<*mut SmrHeader>,
    /// Scratch for the pointer-protection collection (sorted words).
    words: Vec<usize>,
    /// Scratch for the era-protection collection (sorted eras).
    eras: Vec<usize>,
    /// Retires since the last periodic action ([`ScanList::tick`]).
    ticks: usize,
}

// SAFETY: raw header pointers are plain data here — ownership is
// transferred through the retired-list protocol, and the state itself is
// only accessed by the owning tid.
unsafe impl Send for Retired {}

/// Scan-and-free reclamation: per-thread retired lists plus an orphan
/// stack for exited threads, freed by scanning the live protection set
/// with a scheme-supplied keep-predicate. HP's keep-predicate is word
/// membership, HE's is era-interval coverage, the adaptive scheme's is
/// the disjunction of both.
pub struct ScanList {
    threads: PerThread<Retired>,
    orphans: OrphanStack,
    /// Retired-list length that triggers a scan, per thread (0 selects
    /// the watermark-scaled `2·H·t + 8` formula).
    threshold_base: usize,
}

impl ScanList {
    pub fn new(threshold_base: usize) -> Self {
        Self {
            threads: PerThread::new(),
            orphans: OrphanStack::new(),
            threshold_base,
        }
    }

    /// The scan trigger: `threshold_base`, or `2·H·t + 8` when 0.
    pub fn threshold(&self) -> usize {
        if self.threshold_base != 0 {
            self.threshold_base
        } else {
            2 * MAX_HPS * registry::registered_watermark() + 8
        }
    }

    /// Appends `h` to `tid`'s retired list; returns the new length.
    ///
    /// # Safety
    /// `tid` must be the calling thread's own registry slot, and `h` a
    /// retired header whose ownership transfers to the list.
    #[inline]
    pub unsafe fn push(&self, tid: usize, h: *mut SmrHeader) -> usize {
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        st.list.push(h);
        st.list.len()
    }

    /// Bumps `tid`'s periodic counter; returns true (and resets) every
    /// `freq`-th call — the era-bump / controller-sampling cadence.
    ///
    /// # Safety
    /// `tid` must be the calling thread's own registry slot.
    #[inline]
    pub unsafe fn tick(&self, tid: usize, freq: usize) -> bool {
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        st.ticks += 1;
        if st.ticks >= freq {
            st.ticks = 0;
            true
        } else {
            false
        }
    }

    /// One scan pass over `tid`'s retired list (after adopting orphans):
    /// `collect` fills the word/era scratch from the live protection
    /// set (the scan sorts both), `keep` decides survival per object, and everything else —
    /// stats, traces, frees, the gauge — flows through `ledger` in the
    /// canonical order. `pass` is [`Pass::of_retire`] of the triggering
    /// retire's stamp, or [`Pass::drawn`] for a flush / exit scan.
    ///
    /// # Safety
    /// `tid` must be the calling thread's own registry slot (or be
    /// exclusively owned: exit hook / teardown).
    pub unsafe fn scan<C, K>(
        &self,
        tid: usize,
        ledger: &RetireLedger,
        pass: &mut Pass,
        collect: C,
        keep: K,
    ) where
        C: FnOnce(&mut Vec<usize>, &mut Vec<usize>),
        K: Fn(*mut SmrHeader, &[usize], &[usize]) -> bool,
    {
        ledger.open_scan(tid, pass);
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        // Adopt orphaned retirements from exited threads.
        for h in self.orphans.drain() {
            st.list.push(h);
        }
        let Retired {
            list, words, eras, ..
        } = st;
        collect(words, eras);
        words.sort_unstable();
        eras.sort_unstable();
        let mut kept = Vec::with_capacity(list.len());
        let mut freed = 0u64;
        for &h in list.iter() {
            if keep(h, words, eras) {
                kept.push(h);
            } else {
                // SAFETY: the keep-predicate said no live protection
                // covers `h`; it is retired and unreachable, freed once.
                unsafe { ledger.free_scanned(tid, h, pass) };
                freed += 1;
            }
        }
        ledger.close_scan(tid, freed, pass);
        *list = kept;
    }

    /// Takes `tid`'s whole retired list (after adopting orphans) — the
    /// liberation-style policies (PTB's buck-passing) drain candidates
    /// wholesale and re-insert survivors, instead of scanning in place.
    ///
    /// # Safety
    /// `tid` must be the calling thread's own registry slot (or be
    /// exclusively owned: exit hook / teardown).
    pub unsafe fn drain_all(&self, tid: usize) -> Vec<*mut SmrHeader> {
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        for h in self.orphans.drain() {
            st.list.push(h);
        }
        st.list.drain(..).collect()
    }

    /// Moves `tid`'s retired list onto the orphan stack (thread exit).
    ///
    /// # Safety
    /// Must run on the exiting owner thread (exit hook), the only
    /// remaining user of slot `tid`.
    pub unsafe fn orphan_all(&self, tid: usize) {
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        for h in st.list.drain(..) {
            // SAFETY: draining the list transfers exclusive ownership of
            // each live retired header to the orphan stack.
            unsafe { self.orphans.push(h) };
        }
    }

    /// Destroys everything still deferred — the `Drop` path. `&mut self`
    /// proves exclusivity.
    pub fn teardown(&mut self) {
        for tid in 0..self.threads.len() {
            // SAFETY: `&mut self` is exclusive access to every row.
            let st = unsafe { self.threads.get_mut(tid) };
            for h in st.list.drain(..) {
                // SAFETY: no user of the scheme remains; every retired
                // header is unreachable and freed exactly once.
                unsafe { SmrHeader::destroy(h) };
            }
        }
        for h in self.orphans.drain() {
            // SAFETY: as above — teardown owns the orphans exclusively.
            unsafe { SmrHeader::destroy(h) };
        }
    }
}

/// Per-thread limbo state of a [`LimboBins`].
#[derive(Default)]
struct Bins {
    /// Three limbo bins, indexed by `epoch % 3`.
    limbo: [Vec<*mut SmrHeader>; 3],
    retires: usize,
}

// SAFETY: the raw header pointers in the limbo bins are retired objects
// whose ownership was transferred to this state by `retire`; no other
// thread dereferences them until `collect`/teardown destroys them here.
unsafe impl Send for Bins {}

/// Limbo-list reclamation (EBR): objects retired in epoch `e` are freed
/// wholesale once the epoch reaches `e + 2` — no per-object query at
/// all, which is why the batch sizes are avalanches and the bound is
/// unbounded under a stalled pin.
pub struct LimboBins {
    threads: PerThread<Bins>,
    orphans: OrphanStack,
}

impl LimboBins {
    pub fn new() -> Self {
        Self {
            threads: PerThread::new(),
            orphans: OrphanStack::new(),
        }
    }

    /// Parks `h` in `tid`'s bin for `epoch`.
    ///
    /// # Safety
    /// `tid` must be the calling thread's own registry slot, and `h` a
    /// retired header whose ownership transfers to the bin.
    #[inline]
    pub unsafe fn push(&self, tid: usize, epoch: u64, h: *mut SmrHeader) {
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        st.limbo[(epoch % 3) as usize].push(h);
    }

    /// Bumps `tid`'s retire counter; true (and resets) every `freq`-th
    /// call — the advance-attempt cadence.
    ///
    /// # Safety
    /// `tid` must be the calling thread's own registry slot.
    #[inline]
    pub unsafe fn tick(&self, tid: usize, freq: usize) -> bool {
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        st.retires += 1;
        if st.retires >= freq {
            st.retires = 0;
            true
        } else {
            false
        }
    }

    /// Frees the limbo bin that is two epochs stale (adopting orphans
    /// into the current bin first). `pass` is [`Pass::of_retire`] of the
    /// triggering retire's stamp, or the flush's [`Pass::drawn`].
    ///
    /// # Safety
    /// `tid` must be the calling thread's own registry slot (or be
    /// exclusively owned: exit hook / teardown).
    pub unsafe fn collect(&self, tid: usize, epoch: u64, ledger: &RetireLedger, pass: &mut Pass) {
        ledger.open_scan(tid, pass);
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        // Adopt orphans into the *current* bin: we don't know their retire
        // epoch, so conservatively treat them as retired now (they wait the
        // full two advances before being freed).
        for h in self.orphans.drain() {
            st.limbo[(epoch % 3) as usize].push(h);
        }
        let stale = &mut st.limbo[((epoch + 1) % 3) as usize];
        // Bin (e+1)%3 == (e-2)%3 holds objects retired at e-2: all threads
        // have since passed through at least one quiescent transition.
        let n = stale.len();
        for h in stale.drain(..) {
            // SAFETY: `h` was retired at least two epoch advances ago, so
            // every thread pinned at retire time has since unpinned — no
            // live reference can remain (Fraser's grace-period argument).
            unsafe { ledger.free_deferred(tid, h, pass) };
        }
        ledger.settle_batch(n);
        ledger.close_scan(tid, n as u64, pass);
    }

    /// Moves every bin of `tid` onto the orphan stack (thread exit).
    ///
    /// # Safety
    /// Must run on the exiting owner thread (exit hook), the only
    /// remaining user of slot `tid`.
    pub unsafe fn orphan_all(&self, tid: usize) {
        // SAFETY: owner-only access per this function's contract.
        let st = unsafe { self.threads.get_mut(tid) };
        for bin in &mut st.limbo {
            for h in bin.drain(..) {
                // SAFETY: `h` is a retired header drained from our own
                // bin; pushing transfers its ownership to the orphan
                // stack.
                unsafe { self.orphans.push(h) };
            }
        }
    }

    /// Destroys everything still parked — the `Drop` path.
    pub fn teardown(&mut self) {
        for tid in 0..self.threads.len() {
            // SAFETY: `&mut self` is exclusive access to every row.
            let st = unsafe { self.threads.get_mut(tid) };
            for bin in &mut st.limbo {
                for h in bin.drain(..) {
                    // SAFETY: all users are gone; every retired object is
                    // now unreachable and destroyed exactly once.
                    unsafe { SmrHeader::destroy(h) };
                }
            }
        }
        for h in self.orphans.drain() {
            // SAFETY: as above — orphaned retirees are exclusively ours.
            unsafe { SmrHeader::destroy(h) };
        }
    }
}

impl Default for LimboBins {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::SmrBox;
    use orc_util::{stats, track};

    #[test]
    fn ledger_pairs_gauge_with_events() {
        let ledger = RetireLedger::new();
        let tid = registry::tid();
        let p = SmrBox::alloc((), 7u64);
        // SAFETY: `p` was just allocated, unshared; retired exactly once.
        let h = unsafe { SmrBox::<(), _>::header_of(p) };
        // SAFETY: live header owned by this thread.
        let mut pass = Pass::of_retire(unsafe { ledger.on_retire(tid, h) });
        assert_eq!(ledger.unreclaimed(), 1);
        ledger.open_scan(tid, &pass);
        // SAFETY: retired above, unreachable, freed once.
        unsafe { ledger.free_scanned(tid, h, &mut pass) };
        ledger.close_scan(tid, 1, &pass);
        assert_eq!(ledger.unreclaimed(), 0);
        // `ORC_STATS=0` zeroes the event counters by design; the gauge
        // above does not depend on them.
        if stats::enabled() {
            let s = ledger.snapshot();
            assert_eq!(s.retires, 1);
            assert_eq!(s.reclaims, 1);
            assert_eq!(s.scans, 1);
            assert_eq!(s.outstanding(), 0);
        }
    }

    #[test]
    fn scan_list_keeps_and_frees_by_predicate() {
        let ledger = RetireLedger::new();
        let list = ScanList::new(4);
        let tid = registry::tid();
        let keep_me = SmrBox::alloc((), 1u64) as usize;
        let free_me = SmrBox::alloc((), 2u64);
        // SAFETY: both freshly allocated and unshared; each retired once.
        unsafe {
            let hk = SmrBox::<(), _>::header_of(keep_me as *mut u64);
            let hf = SmrBox::<(), _>::header_of(free_me);
            ledger.on_retire(tid, hk);
            ledger.on_retire(tid, hf);
            assert_eq!(list.push(tid, hk), 1);
            assert_eq!(list.push(tid, hf), 2);
        }
        // Keep exactly the object whose word is "protected".
        // SAFETY: owner tid; the keep-predicate protects `keep_me`.
        unsafe {
            list.scan(
                tid,
                &ledger,
                &mut Pass::drawn(),
                |words, _| words.push(keep_me),
                // SAFETY(closure): headers on the list are live until
                // this scan frees them.
                |h, words, _| words.contains(&(*h).block.value_word()),
            );
        }
        assert_eq!(ledger.unreclaimed(), 1, "unprotected object freed");
        // Drop the protection: the next scan frees the survivor.
        // SAFETY: owner tid; nothing protected now.
        unsafe { list.scan(tid, &ledger, &mut Pass::drawn(), |_, _| {}, |_, _, _| false) };
        assert_eq!(ledger.unreclaimed(), 0);
        if stats::enabled() {
            assert_eq!(ledger.snapshot().scans, 2);
        }
    }

    #[test]
    fn scan_list_sorts_what_collect_gathers() {
        let ledger = RetireLedger::new();
        let list = ScanList::new(4);
        let tid = registry::tid();
        let p = SmrBox::alloc((), 3u64);
        // SAFETY: freshly allocated, unshared; retired once, then owned
        // by the list.
        unsafe {
            let h = SmrBox::<(), _>::header_of(p);
            ledger.on_retire(tid, h);
            list.push(tid, h);
        }
        // The keep-predicates binary-search the collections.
        // SAFETY: owner tid; nothing protects the one retired object.
        unsafe {
            list.scan(
                tid,
                &ledger,
                &mut Pass::drawn(),
                |words, eras| {
                    words.extend([48, 16, 32]);
                    eras.extend([9, 5]);
                },
                |_, words, eras| {
                    assert_eq!((words, eras), (&[16, 32, 48][..], &[5, 9][..]));
                    false
                },
            );
        }
        assert_eq!(ledger.unreclaimed(), 0);
    }

    #[test]
    fn scan_list_threshold_formula() {
        assert_eq!(ScanList::new(5).threshold(), 5);
        let scaled = ScanList::new(0).threshold();
        assert_eq!(scaled, 2 * MAX_HPS * registry::registered_watermark() + 8);
    }

    #[test]
    fn limbo_bins_free_two_epochs_late() {
        let ledger = RetireLedger::new();
        let bins = LimboBins::new();
        let tid = registry::tid();
        let p = SmrBox::alloc((), 9u64);
        // SAFETY: freshly allocated, unshared; retired once.
        unsafe {
            let h = SmrBox::<(), _>::header_of(p);
            ledger.on_retire(tid, h);
            bins.push(tid, 3, h);
        }
        // Collect at the retire epoch and the next: bin 3%3=0 is not yet
        // the stale bin ((e+1)%3), so nothing is freed.
        // SAFETY: owner tid throughout.
        unsafe {
            let mut pass = Pass::drawn();
            bins.collect(tid, 3, &ledger, &mut pass); // stale bin = 1: empty
            assert_eq!(ledger.unreclaimed(), 1);
            bins.collect(tid, 4, &ledger, &mut pass); // stale bin = 2: empty
            assert_eq!(ledger.unreclaimed(), 1);
            bins.collect(tid, 5, &ledger, &mut pass); // stale bin = 0: frees it
        }
        assert_eq!(ledger.unreclaimed(), 0);
    }

    #[test]
    fn teardown_frees_everything_left() {
        let ledger = RetireLedger::new();
        let mut list = ScanList::new(0);
        let tid = registry::tid();
        let frees = track::thread().total_frees();
        for i in 0..3u64 {
            let p = SmrBox::alloc((), i);
            // SAFETY: freshly allocated, unshared; retired once, then
            // owned by the list until teardown.
            unsafe {
                let h = SmrBox::<(), _>::header_of(p);
                ledger.on_retire(tid, h);
                list.push(tid, h);
            }
        }
        list.teardown();
        assert_eq!(track::thread().total_frees() - frees, 3);
        // The gauge intentionally survives teardown (the instance is
        // gone); the ledger recorded 3 retires and no scan-side frees.
        assert_eq!(ledger.unreclaimed(), 3);
        if stats::enabled() {
            assert_eq!(ledger.snapshot().retires, 3);
        }
    }
}
