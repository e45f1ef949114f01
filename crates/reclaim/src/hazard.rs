//! Shared hazard-slot machinery.
//!
//! HP, PTB, PTP and HE all keep a `[maxThreads][maxHPs]` array of published
//! words (value pointers for the pointer-based schemes, era reservations for
//! HE), per-thread retired lists, and an orphan stack that adopts the
//! retired lists of exiting threads. This module factors those pieces out.

use crate::header::SmrHeader;
use crate::MAX_HPS;
use orc_util::atomics::{AtomicPtr, AtomicUsize, Ordering};
use orc_util::registry;
use orc_util::stats::{Event, SchemeStats};
use orc_util::CachePadded;
use std::cell::UnsafeCell;

#[cfg(not(target_pointer_width = "64"))]
compile_error!("the reclamation schemes assume a 64-bit platform (u64 eras stored in usize slots)");

/// A `[MAX_THREADS][MAX_HPS]` array of atomically published words, one
/// cache-line-padded row per thread. Row `tid` is written only by thread
/// `tid` but read by every scanner.
pub struct SlotArray {
    rows: Box<[CachePadded<[AtomicUsize; MAX_HPS]>]>,
}

impl SlotArray {
    pub fn new() -> Self {
        let rows = (0..registry::MAX_THREADS)
            .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicUsize::new(0))))
            .collect();
        Self { rows }
    }

    #[inline]
    pub fn get(&self, tid: usize, idx: usize) -> &AtomicUsize {
        &self.rows[tid][idx]
    }

    /// Publishes `word` in `(tid, idx)` with an `xchg` — the paper's chosen
    /// publication instruction (§5 discusses `exchange` vs `mfence`); on
    /// x86 a SeqCst store compiles to the same `xchg`, so both give the
    /// required store-load fence before the validation load.
    #[inline]
    pub fn publish(&self, tid: usize, idx: usize, word: usize) {
        // orc-lint: allow(seqcst, publish needs the SC xchg store-load fence)
        // The validation load must not pass this slot store (paper §5).
        self.rows[tid][idx].swap(word, Ordering::SeqCst);
    }

    #[inline]
    pub fn clear(&self, tid: usize, idx: usize) {
        self.rows[tid][idx].store(0, Ordering::Release);
    }

    /// Publishes a *copy* of an existing protection. A release store
    /// suffices (no validation follows): the copy is ordered before the
    /// source slot's later overwrite, so an ascending scan that misses the
    /// source necessarily sees the copy.
    #[inline]
    pub fn publish_copy(&self, tid: usize, idx: usize, word: usize) {
        self.rows[tid][idx].store(word, Ordering::Release);
    }

    /// The paper's `get_protected` loop (Algorithm 2, lines 4–11): publish
    /// the unmarked pointer, re-read `addr`, repeat until stable. Returns
    /// the full word including tag bits.
    ///
    /// Carries the stalled-reader injection point of HP, PTB and PTP: the
    /// stall fires *after* the protection is published and validated, i.e.
    /// while the victim demonstrably pins the object.
    ///
    /// Each failed validation (the link moved under the reader) is
    /// recorded as an [`Event::ProtectRetry`] on `stats`.
    #[inline]
    pub fn protect_loop(
        &self,
        tid: usize,
        idx: usize,
        addr: &AtomicUsize,
        stats: &SchemeStats,
    ) -> usize {
        // The initial read is only a hint (publish + revalidate below is
        // what establishes protection), so Acquire suffices.
        let mut word = addr.load(Ordering::Acquire);
        loop {
            self.publish(tid, idx, orc_util::marked::unmark(word));
            // The SC xchg inside `publish` already fences this load after
            // the slot store; Acquire is enough to pair with the unlink
            // CAS when reading the link.
            let cur = addr.load(Ordering::Acquire);
            if cur == word {
                orc_util::stall::hit(orc_util::stall::StallPoint::Protect);
                return word;
            }
            stats.bump(tid, Event::ProtectRetry);
            orc_util::trace_event_at!(
                tid,
                orc_util::trace::EventKind::ProtectRetry,
                orc_util::marked::unmark(word)
            );
            word = cur;
        }
    }

    /// Collects every nonzero published word into `out` (cleared first).
    pub fn collect(&self, out: &mut Vec<usize>) {
        out.clear();
        let wm = registry::registered_watermark();
        for row in self.rows.iter().take(wm) {
            for slot in row.iter() {
                // orc-lint: allow(seqcst, scan side of the HP SC argument)
                // This load must be SC-ordered against the reader's publish
                // xchg, or a just-published slot can be missed.
                let w = slot.load(Ordering::SeqCst);
                if w != 0 {
                    out.push(w);
                }
            }
        }
    }

    /// True if `word` is currently published anywhere.
    pub fn is_published(&self, word: usize) -> bool {
        let wm = registry::registered_watermark();
        self.rows
            .iter()
            .take(wm)
            // orc-lint: allow(seqcst, scan-side SC pairing with publish xchg)
            .any(|row| row.iter().any(|s| s.load(Ordering::SeqCst) == word))
    }

    /// Clears every slot of `tid`'s row.
    pub fn clear_row(&self, tid: usize) {
        for idx in 0..MAX_HPS {
            self.clear(tid, idx);
        }
    }
}

impl Default for SlotArray {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-thread mutable state, owner-access only (indexed by the registry
/// tid). `Sync` because each cell is only ever touched by its owning
/// thread; the exit hook runs on the owner thread before the tid is
/// released, and `&mut self` access at teardown is exclusive by borrowck.
pub struct PerThread<T> {
    cells: Box<[CachePadded<UnsafeCell<T>>]>,
}

// SAFETY: each cell is only ever touched by its owning thread (the
// `get_mut` contract); `T: Send` lets ownership follow tid reuse across OS
// threads.
unsafe impl<T: Send> Sync for PerThread<T> {}
// SAFETY: as for `Sync` — the cells hold `Send` data and no thread-affine
// state.
unsafe impl<T: Send> Send for PerThread<T> {}

impl<T: Default> PerThread<T> {
    pub fn new() -> Self {
        let cells = (0..registry::MAX_THREADS)
            .map(|_| CachePadded::new(UnsafeCell::new(T::default())))
            .collect();
        Self { cells }
    }
}

impl<T: Default> Default for PerThread<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PerThread<T> {
    /// # Safety
    /// Caller must be the thread owning `tid` (or hold exclusive access to
    /// the whole scheme, as in `Drop`).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn get_mut(&self, tid: usize) -> &mut T {
        // SAFETY: the caller owns `tid` (this function's contract), so no
        // other reference to this cell can exist.
        unsafe { &mut *self.cells[tid].get() }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Lock-free Treiber stack of retired objects, chained through
/// `SmrHeader::next`. Exiting threads push their leftover retired objects
/// here; scanning threads adopt them.
pub struct OrphanStack {
    head: AtomicPtr<SmrHeader>,
    len: AtomicUsize,
}

impl OrphanStack {
    pub const fn new() -> Self {
        Self {
            head: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }

    /// # Safety
    /// `h` must be a live, exclusively owned retired header.
    pub unsafe fn push(&self, h: *mut SmrHeader) {
        let mut cur = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `h` is live and exclusively ours until the CAS below
            // publishes it (this function's contract).
            unsafe { (*h).next.store(cur, Ordering::Relaxed) };
            match self
                .head
                .compare_exchange_weak(cur, h, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.len.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(c) => cur = c,
            }
        }
    }

    /// Takes the whole stack; returns the headers as a vector.
    pub fn drain(&self) -> Vec<*mut SmrHeader> {
        let mut h = self.head.swap(std::ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !h.is_null() {
            // SAFETY: the swap above made this chain exclusively ours; every
            // header on it is a live retired object.
            let next = unsafe { (*h).next.load(Ordering::Relaxed) };
            out.push(h);
            h = next;
        }
        self.len.fetch_sub(out.len(), Ordering::Relaxed);
        out
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for OrphanStack {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_array_publish_and_collect() {
        let tid = registry::tid();
        let s = SlotArray::new();
        s.publish(tid, 0, 0x1000);
        s.publish(tid, 3, 0x2000);
        let mut v = Vec::new();
        s.collect(&mut v);
        assert!(v.contains(&0x1000));
        assert!(v.contains(&0x2000));
        assert!(s.is_published(0x1000));
        s.clear(tid, 0);
        assert!(!s.is_published(0x1000));
        s.clear_row(tid);
        assert!(!s.is_published(0x2000));
    }

    #[test]
    fn protect_loop_returns_stable_word() {
        let tid = registry::tid();
        let s = SlotArray::new();
        let stats = SchemeStats::new();
        let addr = AtomicUsize::new(0xAB00);
        let w = s.protect_loop(tid, 1, &addr, &stats);
        assert_eq!(w, 0xAB00);
        assert_eq!(s.get(tid, 1).load(Ordering::SeqCst), 0xAB00);
        assert_eq!(
            stats.snapshot().protect_retries,
            0,
            "a stable word validates first try"
        );
    }

    #[test]
    fn protect_loop_strips_marks_from_publication() {
        let tid = registry::tid();
        let s = SlotArray::new();
        let stats = SchemeStats::new();
        let addr = AtomicUsize::new(orc_util::marked::mark(0xAB00));
        let w = s.protect_loop(tid, 2, &addr, &stats);
        assert!(orc_util::marked::is_marked(w));
        assert_eq!(s.get(tid, 2).load(Ordering::SeqCst), 0xAB00);
    }

    #[test]
    fn orphan_stack_roundtrip() {
        let st = OrphanStack::new();
        let a = SmrHeader::alloc(1u32, 0);
        let b = SmrHeader::alloc(2u32, 0);
        // SAFETY: both came from `alloc` above, unshared; pushing hands
        // their ownership to the stack.
        unsafe {
            st.push(SmrHeader::of_value(a));
            st.push(SmrHeader::of_value(b));
        }
        assert_eq!(st.len(), 2);
        let drained = st.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(st.len(), 0);
        for h in drained {
            // SAFETY: draining took the ownership back; destroyed once.
            unsafe { SmrHeader::destroy(h) };
        }
    }

    #[test]
    fn per_thread_is_isolated() {
        let p: PerThread<Vec<u32>> = PerThread::new();
        // SAFETY: single-threaded test — this thread owns every slot.
        unsafe {
            p.get_mut(0).push(1);
            p.get_mut(1).push(2);
            assert_eq!(p.get_mut(0).as_slice(), &[1]);
            assert_eq!(p.get_mut(1).as_slice(), &[2]);
        }
    }
}
