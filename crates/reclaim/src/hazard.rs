//! Per-thread owner state and the orphan stack the list-based schemes
//! share.
//!
//! [`PerThread`] holds each thread's retired list, limbo bins or adaptive
//! slot masks, and the None baseline's chains of retirees, indexed by
//! registry tid; [`OrphanStack`] adopts the retired objects of exiting
//! threads. The hazard slots themselves, for every scheme
//! that publishes any, are [`orc_util::handover::Slots`].

use crate::header::SmrHeader;
use orc_util::atomics::{AtomicPtr, Ordering};
use orc_util::registry;
use orc_util::CachePadded;
use std::cell::UnsafeCell;

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
}

impl OrphanStack {
    pub const fn new() -> Self {
        Self {
            head: AtomicPtr::new(std::ptr::null_mut()),
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
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Takes the whole stack; returns the headers as a vector. An empty
    /// stack is seen by a load alone, so a scan with no orphans to adopt
    /// makes no read-modify-write on the shared line.
    pub fn drain(&self) -> Vec<*mut SmrHeader> {
        let mut out = Vec::new();
        if self.head.load(Ordering::Acquire).is_null() {
            return out;
        }
        let mut h = self.head.swap(std::ptr::null_mut(), Ordering::AcqRel);
        while !h.is_null() {
            // SAFETY: the swap above made this chain exclusively ours; every
            // header on it is a live retired object.
            let next = unsafe { (*h).next.load(Ordering::Relaxed) };
            out.push(h);
            h = next;
        }
        out
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
    use crate::header::SmrBox;

    #[test]
    fn orphan_stack_roundtrip() {
        let st = OrphanStack::new();
        let a = SmrBox::alloc((), 1u32);
        let b = SmrBox::alloc((), 2u32);
        // SAFETY: both came from `alloc` above, unshared; pushing hands
        // their ownership to the stack.
        unsafe {
            st.push(SmrBox::<(), u32>::header_of(a));
            st.push(SmrBox::<(), u32>::header_of(b));
        }
        let drained = st.drain();
        assert_eq!(drained.len(), 2);
        assert!(st.drain().is_empty(), "the drain took the whole stack");
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
