//! Manual lock-free memory reclamation schemes.
//!
//! This crate implements the *manual* schemes evaluated in
//! "OrcGC: Automatic Lock-Free Memory Reclamation" (Correia, Ramalhete,
//! Felber — PPoPP 2021):
//!
//! | Scheme | Module | Progress (retire) | Bound | Paper role |
//! |---|---|---|---|---|
//! | Pass-the-pointer (**PTP**) | [`ptp`] | lock-free | `O(Ht)` | §3.1, this paper's manual scheme |
//! | Hazard pointers (HP) | [`hp`] | lock-free | `O(Ht²)` | baseline (Michael 2004) |
//! | Pass-the-buck (PTB) | [`ptb`] | wait-free | `O(Ht²)` | baseline (Herlihy et al. 2002) |
//! | Hazard eras (HE) | [`he`] | wait-free | `O(#L·H·t²)` | baseline (Ramalhete & Correia 2017) |
//! | Adaptive | [`adaptive`] | lock-free | era round → `O(Ht²)` under attack | this repo's hybrid: HE fast path, HP bounded path, switch driven by its own unreclaimed gauge |
//! | Epoch-based (EBR) | [`ebr`] | blocking | unbounded | baseline (Fraser 2004) |
//! | Leaky | [`leaky`] | — (never frees) | unbounded | the "None" baseline of Figs. 1–4 |
//!
//! All schemes share one object layout ([`header::SmrBox`], the same
//! header before each scheme's own extra words) and one
//! data-structure-facing trait ([`Smr`]), so a structure written once —
//! `MichaelList<S: Smr>` — runs unmodified under every scheme, exactly the
//! comparison methodology of the paper's Figures 3–4. Every row is a
//! [`scheme::Core`] — the algorithm alone — inside the one
//! [`scheme::Scheme`] handle, which owns the thread lifecycle and
//! everything else the seven have in common.
//!
//! # Protocol
//!
//! A data-structure operation brackets itself with [`Smr::begin_op`] /
//! [`Smr::end_op`], reads shared links through [`Smr::protect`] (which
//! publishes a hazard slot / era reservation and re-validates), and hands
//! unlinked nodes to [`Smr::retire`]. Nodes are allocated through
//! [`Smr::alloc`] so the scheme can prepend its header.

pub mod adaptive;
pub mod ebr;
pub mod hazard;
pub mod he;
pub mod header;
pub mod hp;
pub mod leaky;
pub mod policy;
pub mod ptb;
pub mod ptp;
pub mod scheme;
pub mod scheme_kind;

/// Stalled-reader fault injection (test support). Every scheme's `protect`
/// calls [`stall::hit`]`(`[`stall::StallPoint::Protect`]`)` after its
/// protection is published and validated, and `begin_op` hits
/// [`stall::StallPoint::BeginOp`] after the epoch pin — letting the
/// torture harness park a victim thread at the most adversarial instant.
/// The machinery lives in `orc_util` so the OrcGC domain shares it.
pub use orc_util::stall;

/// Reclamation telemetry (orc-stats). Every scheme feeds a per-instance
/// [`stats::SchemeStats`] and exposes the aggregate via [`Smr::stats`];
/// `ORC_STATS=0` disables recording process-wide. The machinery lives in
/// `orc_util` so the OrcGC domain shares it.
pub use orc_util::stats;
pub use orc_util::stats::StatsSnapshot;

/// Lock-free event tracing (orc-trace). Every scheme emits `Retire`,
/// `ScanBegin`/`ScanEnd`, `ReclaimBatch` and scheme-specific events into
/// per-thread ring buffers; `ORC_TRACE=0` disables recording process-wide.
/// The machinery lives in `orc_util` so the OrcGC domain shares it.
pub use orc_util::trace;

pub use adaptive::{Adaptive, AdaptiveConfig, AdaptiveMode};
pub use ebr::Ebr;
pub use he::HazardEras;
pub use header::{as_word, SmrBox, SmrHeader};
pub use hp::HazardPointers;
pub use leaky::Leaky;
pub use ptb::PassTheBuck;
pub use ptp::PassThePointer;
pub use scheme_kind::{AnySmr, SchemeKind};

use orc_util::atomics::{AtomicPtr, AtomicUsize};

/// Maximum hazard slots (the paper's `H`) a data structure may use per
/// thread under the manual schemes. Lists/queues need ≤ 3; the NM-tree uses
/// up to 6 (anchor, parent, leaf, successor pair and scratch).
pub const MAX_HPS: usize = 8;

/// Common interface of all manual reclamation schemes.
///
/// # Safety contract (for implementors *and* callers)
///
/// * A word returned by [`Smr::protect`] stays dereferenceable until the
///   slot is overwritten, [`Smr::clear`]ed, or the bracketing
///   [`Smr::end_op`] runs — provided the object had not already been
///   retired *before* the protection was validated (the standard
///   hazard-pointer contract: protection is obtained by re-reading a shared
///   link that still reaches the object).
/// * [`Smr::retire`] may only be called once per object, by the thread that
///   unlinked it, after the object is unreachable from the structure's
///   global references.
/// * Pointers passed to `retire`/published by `protect` must originate from
///   [`Smr::alloc`] of the *same scheme instance*.
pub trait Smr: Send + Sync + 'static {
    /// Human-readable scheme name, as used in the paper's figure legends.
    fn name(&self) -> &'static str;

    /// Allocates a tracked object; returns the value pointer the structure
    /// links and publishes.
    fn alloc<T: Send>(&self, value: T) -> *mut T;

    /// Marks the start of a data-structure operation. No-op for
    /// pointer-based schemes (bar the fault-injection point); pins the
    /// epoch for EBR.
    fn begin_op(&self);

    /// Marks the end of a data-structure operation. Pointer-based schemes
    /// clear all hazard slots; EBR unpins.
    fn end_op(&self);

    /// Reads the link word at `addr`, publishing protection in slot `idx`
    /// and re-validating until stable. Returns the full (possibly
    /// mark-tagged) word; the protection covers the *unmarked* pointer.
    fn protect(&self, idx: usize, addr: &AtomicUsize) -> usize;

    /// Typed convenience over [`Smr::protect`] for untagged links.
    #[inline]
    fn protect_ptr<T>(&self, idx: usize, addr: &AtomicPtr<T>) -> *mut T {
        self.protect(idx, as_word(addr)) as *mut T
    }

    /// Re-publishes protection for an already-safe pointer (e.g. moving a
    /// protected pointer to a different slot while it is still protected by
    /// another slot or known reachable). No validation loop.
    fn publish(&self, idx: usize, word: usize);

    /// Drops the protection in slot `idx`.
    fn clear(&self, idx: usize);

    /// Retires an unlinked object for eventual reclamation.
    ///
    /// The object's destructor runs later, on whichever thread frees it —
    /// often inside another operation's scan. A destructor that unwinds
    /// there aborts the process, with a message naming the object's type
    /// (DESIGN.md §6, §11): no scan is left half done.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn retire<T: Send>(&self, ptr: *mut T);

    /// Immediately destroys an object, bypassing deferral.
    ///
    /// # Safety
    /// Caller must guarantee quiescence (no concurrent readers), e.g. inside
    /// a structure's `Drop` with `&mut self`.
    unsafe fn dealloc_now<T>(&self, ptr: *mut T);

    /// Attempts to reclaim everything reclaimable right now (drains retired
    /// lists / advances epochs). Used by tests and at teardown; never
    /// required for the bound.
    fn flush(&self);

    /// Objects currently retired by this instance but not yet freed.
    fn unreclaimed(&self) -> usize;

    /// Aggregated reclamation telemetry for this scheme instance: retire
    /// and reclaim counts, scan/flush passes, protect validation retries,
    /// handovers, batch-size histogram and the peak of
    /// [`Smr::unreclaimed`]. All zeros when `ORC_STATS=0`.
    ///
    /// At quiescence every scheme satisfies `reclaims ≤ retires` and
    /// `retires − reclaims == unreclaimed()` (asserted by the torture
    /// battery's invariant tests).
    fn stats(&self) -> StatsSnapshot;

    /// Whether `retire` has lock-free (or better) progress, as claimed in
    /// Table 1.
    fn is_lock_free(&self) -> bool;
}

/// Registers `smr` as an orc-obs telemetry source under `label`: the
/// background sampler (or explicit `obs::sample_now` calls) scrape its
/// [`Smr::stats`] snapshot and [`Smr::unreclaimed`] gauge into time
/// series, and the reclamation watchdog watches the gauge for
/// stall-shaped monotone rises.
///
/// The returned guard holds two clones of the scheme handle; **drop it
/// before any teardown assertion that requires the last handle gone**
/// (the torture ledger and leaky-stash protocols) — unregistration is
/// synchronous with respect to in-flight sampling passes, so after the
/// drop returns no sampler reference survives.
pub fn observe<S>(label: &str, smr: &S) -> orc_util::obs::Registration
where
    S: Smr + Clone + Send + Sync + 'static,
{
    let stats = smr.clone();
    let gauge = smr.clone();
    orc_util::obs::register(
        label,
        move || stats.stats(),
        move || gauge.unreclaimed() as u64,
    )
}
