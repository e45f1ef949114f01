//! Reclamation-oracle hooks for the orc-check model checker.
//!
//! The one tracked-object funnel, [`crate::tracked`], calls [`on_alloc`] and
//! [`on_reclaim`], and the schemes in `crates/reclaim` and `crates/core`
//! call [`on_retire`] / [`on_unretire`], all unconditionally. Without the `orc_check`
//! feature every function is an inlineable no-op (and [`on_reclaim`] always
//! answers [`ReclaimAction::Free`]), so production builds pay nothing. With
//! the feature they forward to [`crate::chk`], which records the event in
//! the shadow heap when — and only when — the calling thread belongs to a
//! live exploration.

#[cfg(feature = "orc_check")]
pub use crate::chk::ReclaimAction;

/// What a reclaim funnel must do with the memory it is about to free.
#[cfg(not(feature = "orc_check"))]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReclaimAction {
    /// Deallocate for real.
    Free,
    /// Run the destructor in place but leak the allocation (model runs
    /// only; never returned without the `orc_check` feature).
    Quarantine,
}

/// True when the calling thread is a model thread of a live exploration.
#[inline]
pub fn in_model() -> bool {
    #[cfg(feature = "orc_check")]
    {
        crate::chk::in_model()
    }
    #[cfg(not(feature = "orc_check"))]
    {
        false
    }
}

/// True once the current execution is being torn down; unbounded wait
/// loops must break out. Always false outside a model run.
#[inline]
pub fn aborting() -> bool {
    #[cfg(feature = "orc_check")]
    {
        crate::chk::aborting()
    }
    #[cfg(not(feature = "orc_check"))]
    {
        false
    }
}

/// Model-aware blocking on `addr` (see `chk::block_hint`); plain
/// `yield_now` otherwise.
#[inline]
pub fn block_hint(addr: usize) {
    #[cfg(feature = "orc_check")]
    {
        crate::chk::block_hint(addr);
    }
    #[cfg(not(feature = "orc_check"))]
    {
        let _ = addr;
        std::thread::yield_now();
    }
}

/// Records a tracked allocation `[ptr, ptr + len)` in the shadow heap.
#[inline]
pub fn on_alloc(ptr: usize, len: usize) {
    #[cfg(feature = "orc_check")]
    {
        crate::chk::hook_alloc(ptr, len);
    }
    #[cfg(not(feature = "orc_check"))]
    {
        let _ = (ptr, len);
    }
}

/// Marks a tracked allocation retired (double-retire is a checker failure).
#[inline]
pub fn on_retire(ptr: usize) {
    #[cfg(feature = "orc_check")]
    {
        crate::chk::hook_retire(ptr);
    }
    #[cfg(not(feature = "orc_check"))]
    {
        let _ = ptr;
    }
}

/// Reverts a retire (OrcGC's `clear_bit_retired` legally relinquishes).
#[inline]
pub fn on_unretire(ptr: usize) {
    #[cfg(feature = "orc_check")]
    {
        crate::chk::hook_unretire(ptr);
    }
    #[cfg(not(feature = "orc_check"))]
    {
        let _ = ptr;
    }
}

/// Marks a tracked allocation reclaimed and tells the caller whether to
/// free for real or quarantine (model runs quarantine everything so a
/// detected use-after-reclaim stays physically safe).
#[inline]
#[must_use]
pub fn on_reclaim(ptr: usize) -> ReclaimAction {
    #[cfg(feature = "orc_check")]
    {
        crate::chk::hook_reclaim(ptr)
    }
    #[cfg(not(feature = "orc_check"))]
    {
        let _ = ptr;
        ReclaimAction::Free
    }
}
