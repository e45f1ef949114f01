//! The seam between the workspace and the orc-check model checker
//! (`crates/check`).
//!
//! The atomics and dwcas shims call `access` before every shared-memory
//! operation; the one tracked-object funnel, [`crate::tracked`], calls
//! [`on_alloc`] and [`on_reclaim`]; the schemes in `crates/reclaim` and
//! `crates/core` call [`on_retire`] / [`on_unretire`]; the stall gate
//! parks through [`block_hint`]; OrcGC registers its per-schedule reset
//! with [`on_schedule`]. All of them call unconditionally.
//!
//! Without the `orc_check` feature every function is an inlineable no-op
//! (and [`on_reclaim`] always answers [`ReclaimAction::Free`]), so
//! production builds pay nothing. With the feature each one reads the
//! `Hooks` table the checker `install`s for the length of an
//! exploration: outside one that is a single load and a branch, inside one
//! the checker serializes the step and records it in its shadow heap when
//! the calling thread is a model thread.

/// Operation kind declared at a yield point or recorded in the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Acc {
    Load,
    Store,
    Rmw,
    Fence,
    SpinHint,
    /// Pseudo-op: a thread's first scheduling grant.
    Start,
    /// Pseudo-op: re-grant after unblocking (gate release / join target exit).
    Resume,
    /// Trace-only events (not scheduling steps).
    Spawn,
    Exit,
    Block,
    Alloc,
    Retire,
    Unretire,
    Reclaim,
}

impl Acc {
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, Acc::Store | Acc::Rmw)
    }

    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, Acc::Load | Acc::Store | Acc::Rmw)
    }
}

/// What a reclaim funnel must do with the memory it is about to free.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReclaimAction {
    /// Deallocate for real (no exploration running).
    Free,
    /// Run the destructor in place but leak the allocation: the shadow heap
    /// keeps the address poisoned so later accesses report use-after-reclaim
    /// instead of crashing or aliasing a reused block (model runs only).
    Quarantine,
}

/// The checker's entry points, one per function of this module.
#[cfg(feature = "orc_check")]
pub struct Hooks {
    /// Declares the upcoming operation and parks until the scheduler grants
    /// the step.
    pub access: fn(usize, Acc, &'static str),
    pub in_model: fn() -> bool,
    pub aborting: fn() -> bool,
    pub block_hint: fn(usize),
    pub alloc: fn(usize, usize),
    pub retire: fn(usize),
    pub unretire: fn(usize),
    pub reclaim: fn(usize) -> ReclaimAction,
}

#[cfg(feature = "orc_check")]
static TABLE: std::sync::atomic::AtomicPtr<Hooks> =
    std::sync::atomic::AtomicPtr::new(std::ptr::null_mut());

/// Installs the checker's table for one exploration, or removes it (`None`).
#[cfg(feature = "orc_check")]
pub fn install(hooks: Option<&'static Hooks>) {
    let p = hooks.map_or(std::ptr::null_mut(), |h| h as *const Hooks as *mut Hooks);
    TABLE.store(p, std::sync::atomic::Ordering::Release);
}

#[cfg(feature = "orc_check")]
#[inline]
fn table() -> Option<&'static Hooks> {
    let p = TABLE.load(std::sync::atomic::Ordering::Acquire);
    // SAFETY: `TABLE` holds null or a `&'static Hooks` stored by `install`,
    // which the acquire load synchronizes with; the table is never written.
    (!p.is_null()).then(|| unsafe { &*p })
}

/// A crate's reset of its process-wide marks ([`on_schedule`]).
type Reset = fn() -> Result<(), String>;

#[cfg(feature = "orc_check")]
static RESETS: std::sync::Mutex<Vec<Reset>> = std::sync::Mutex::new(Vec::new());

/// Registers `reset`, run before every later model schedule (all model
/// threads joined, no registry tid claimed) to lower the caller's
/// process-wide marks to their starting values; an `Err` fails the
/// exploration with its message. A no-op without `orc_check`.
#[inline]
pub fn on_schedule(reset: Reset) {
    #[cfg(feature = "orc_check")]
    RESETS.lock().unwrap_or_else(|e| e.into_inner()).push(reset);
    let _ = reset;
}

/// Brings the process to a schedule's starting state (the registry's tid
/// watermark, then every [`on_schedule`] registration) before each schedule.
#[cfg(feature = "orc_check")]
pub fn reset() -> Result<(), String> {
    crate::registry::reset_watermark()?;
    let resets = RESETS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    resets.iter().try_for_each(|r| r())
}

/// Facade shim entry: declares the op and parks until the checker grants
/// the step. No-op outside a model thread.
#[cfg(feature = "orc_check")]
#[inline]
pub fn access(addr: usize, acc: Acc, name: &'static str) {
    if let Some(h) = table() {
        (h.access)(addr, acc, name);
    }
}

/// True when the calling thread is a model thread of a live exploration.
#[inline]
pub fn in_model() -> bool {
    #[cfg(feature = "orc_check")]
    if let Some(h) = table() {
        return (h.in_model)();
    }
    false
}

/// True once the current execution is being torn down; unbounded wait
/// loops must break out. Always false outside a model run.
#[inline]
pub fn aborting() -> bool {
    #[cfg(feature = "orc_check")]
    if let Some(h) = table() {
        return (h.aborting)();
    }
    false
}

/// Model-aware blocking: parks a model thread until another thread writes
/// `addr`; plain `yield_now` otherwise.
#[inline]
pub fn block_hint(addr: usize) {
    #[cfg(feature = "orc_check")]
    if let Some(h) = table() {
        return (h.block_hint)(addr);
    }
    let _ = addr;
    std::thread::yield_now();
}

/// Records a tracked allocation `[ptr, ptr + len)` in the shadow heap.
#[inline]
pub fn on_alloc(ptr: usize, len: usize) {
    #[cfg(feature = "orc_check")]
    if let Some(h) = table() {
        (h.alloc)(ptr, len);
    }
    let _ = (ptr, len);
}

/// Marks a tracked allocation retired (double-retire is a checker failure).
#[inline]
pub fn on_retire(ptr: usize) {
    #[cfg(feature = "orc_check")]
    if let Some(h) = table() {
        (h.retire)(ptr);
    }
    let _ = ptr;
}

/// Reverts a retire (OrcGC's `clear_bit_retired` legally relinquishes).
#[inline]
pub fn on_unretire(ptr: usize) {
    #[cfg(feature = "orc_check")]
    if let Some(h) = table() {
        (h.unretire)(ptr);
    }
    let _ = ptr;
}

/// Marks a tracked allocation reclaimed and tells the caller whether to
/// free for real or quarantine (model runs quarantine everything so a
/// detected use-after-reclaim stays physically safe).
#[inline]
#[must_use]
pub fn on_reclaim(ptr: usize) -> ReclaimAction {
    #[cfg(feature = "orc_check")]
    if let Some(h) = table() {
        return (h.reclaim)(ptr);
    }
    let _ = ptr;
    ReclaimAction::Free
}
