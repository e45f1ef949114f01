//! Shared hazard-slot machinery.
//!
//! HP, PTB and HE keep a `[maxThreads][maxHPs]` array of published words
//! (value pointers for the pointer-based schemes, era reservations for
//! HE), per-thread retired lists, and an orphan stack that adopts the
//! retired lists of exiting threads. This module factors those pieces out;
//! PTP's slots and handover entries are [`orc_util::handover`]'s.

use crate::header::SmrHeader;
use crate::MAX_HPS;
use orc_util::atomics::{AtomicPtr, AtomicUsize, Ordering};
use orc_util::registry;
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

    #[inline]
    pub fn clear(&self, tid: usize, idx: usize) {
        self.rows[tid][idx].store(0, Ordering::Release);
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
        let mut v = Vec::new();
        s.get(tid, 0).store(0x1000, Ordering::Release);
        s.get(tid, 3).store(0x2000, Ordering::Release);
        s.collect(&mut v);
        assert!(v.contains(&0x1000) && v.contains(&0x2000));
        s.clear(tid, 0);
        s.collect(&mut v);
        assert_eq!(v, [0x2000]);
        s.clear_row(tid);
        s.collect(&mut v);
        assert!(v.is_empty());
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
