//! Cache-line padding and bounded spinning, implemented in-tree.
//!
//! The workspace builds with **zero external dependencies** so the tier-1
//! verify runs in network-isolated environments (see README "Building
//! offline & CI"). These two types replace the only pieces of
//! `crossbeam-utils` the codebase used: [`CachePadded`] for the per-thread
//! hazard/handover rows and [`Backoff`] for contended CAS loops. A
//! crate-private third, `TidRows`, lays out one padded row per registry
//! tid in zero pages, so tids a run never uses cost no resident memory.

use crate::registry::MAX_THREADS;
use std::alloc::{self, Layout};
use std::cell::Cell;
use std::mem::{align_of, size_of};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Pads and aligns a value to twice the typical cache-line size, preventing
/// false sharing between adjacent per-thread rows.
///
/// 128 bytes covers the spatial-prefetcher pairing on modern x86_64
/// (adjacent-line prefetch) and the 128-byte lines of apple-silicon
/// aarch64; on other targets it is merely conservative.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// One [`CachePadded`] `T` per registry tid, built from `calloc`'d zero
/// memory that this type never writes: fresh zero pages stay untouched
/// until a thread first uses its row, so a table sized for
/// [`MAX_THREADS`] then costs resident memory only for the tids a run
/// uses. When the allocator reuses freed memory instead, `calloc` clears
/// it and every row is resident. The length is a constant, so a tid's bounds check folds with
/// any other against [`MAX_THREADS`].
pub(crate) struct TidRows<T> {
    /// The zeroed allocation (align 1), `rows` is its 128-byte-aligned
    /// interior.
    base: *mut u8,
    rows: NonNull<[CachePadded<T>; MAX_THREADS]>,
}

// SAFETY: `TidRows` owns its rows as a `Box<[CachePadded<T>; _]>` would;
// the raw pointers are what block the auto impls.
unsafe impl<T: Send> Send for TidRows<T> {}
// SAFETY: as for `Send`: shared access hands out `&T` only.
unsafe impl<T: Sync> Sync for TidRows<T> {}

impl<T> TidRows<T> {
    /// Rows of all-zero bytes.
    ///
    /// # Safety
    /// All-zero bytes must be a valid `T`.
    pub(crate) unsafe fn zeroed() -> Self {
        let layout = Self::layout();
        // SAFETY: the layout's size is non-zero (it holds at least the
        // alignment padding). Align 1 makes std's `alloc_zeroed` a
        // `calloc`, which hands out fresh pages without writing them; at
        // `CachePadded`'s align 128 it would allocate and `memset`. (A
        // `calloc` that reuses freed memory clears it itself.)
        let base = unsafe { alloc::alloc_zeroed(layout) };
        if base.is_null() {
            alloc::handle_alloc_error(layout);
        }
        let rows = base.wrapping_add(base.align_offset(align_of::<CachePadded<T>>()));
        Self {
            base,
            // SAFETY: `rows` lies inside the non-null allocation.
            rows: unsafe { NonNull::new_unchecked(rows.cast()) },
        }
    }

    /// The rows plus the slack to align them, at align 1.
    fn layout() -> Layout {
        let size = size_of::<[CachePadded<T>; MAX_THREADS]>() + align_of::<CachePadded<T>>() - 1;
        Layout::from_size_align(size, 1).expect("tid rows fit in memory")
    }
}

impl<T> Deref for TidRows<T> {
    type Target = [CachePadded<T>; MAX_THREADS];

    // Always: every hazard publish and stats record goes through here,
    // and an unoptimised build would otherwise add a call to each, where
    // the `Box` it replaced derefs in place.
    #[inline(always)]
    fn deref(&self) -> &Self::Target {
        // SAFETY: `rows` is aligned and in bounds of the live allocation
        // (`zeroed`), which holds `MAX_THREADS` valid rows (its contract)
        // and is freed only by `drop`.
        unsafe { self.rows.as_ref() }
    }
}

impl<T> Drop for TidRows<T> {
    fn drop(&mut self) {
        // SAFETY: the rows are valid and dropped once, here; `base` came
        // from `alloc_zeroed` with this layout.
        unsafe {
            std::ptr::drop_in_place(self.rows.as_ptr());
            alloc::dealloc(self.base, Self::layout());
        }
    }
}

/// Exponential backoff for contended retry loops: spin with doubling
/// intensity, then start yielding the thread once spinning stops paying.
/// The step advances through `&self` (interior mutability) so loops can
/// hold an immutable binding.
pub struct Backoff {
    step: Cell<u32>,
}

/// Spin limit: `2^6 = 64` pause instructions per round.
const SPIN_LIMIT: u32 = 6;
/// Beyond this, [`Backoff::is_completed`] suggests parking.
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    pub const fn new() -> Self {
        Self { step: Cell::new(0) }
    }

    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Backs off without ever yielding (for short critical retries).
    #[inline]
    pub fn spin(&self) {
        let step = self.step.get();
        for _ in 0..1u32 << step.min(SPIN_LIMIT) {
            crate::atomics::spin_hint();
        }
        if step <= SPIN_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// Backs off, escalating from spinning to `yield_now` under persistent
    /// contention.
    #[inline]
    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            for _ in 0..1u32 << step {
                crate::atomics::spin_hint();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// True once the backoff has escalated past yielding — callers may
    /// switch to parking instead.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_big_and_aligned() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        let p = CachePadded::new(7u32);
        assert_eq!(*p, 7);
        assert_eq!(p.into_inner(), 7);
    }

    #[test]
    fn cache_padded_deref_mut() {
        let mut p = CachePadded::new(vec![1, 2]);
        p.push(3);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn backoff_escalates_then_completes() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }
}
