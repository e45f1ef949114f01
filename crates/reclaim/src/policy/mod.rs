//! Schemes as *compositions*: protection policies × reclamation policies.
//!
//! Every manual scheme in this crate answers the same two questions, and
//! answers them independently:
//!
//! 1. **Protection** — how does a reader announce "I may hold this"?
//!    * Pointer publication: publish the pointer itself in a hazard slot
//!      and re-validate. Every scheme that does (HP, PTB's guards, PTP,
//!      the adaptive scheme's bounded path, OrcGC) runs
//!      [`Slots::protect`](orc_util::handover::Slots::protect) on the one
//!      hazard-slot matrix, [`orc_util::handover::Slots`].
//!    * [`EraProtect`]: publish a timestamp from a global era clock in a
//!      slot of that same matrix; one reservation covers every object
//!      alive in that era (HE, and the adaptive scheme's fast path).
//!    * [`EpochPin`]: announce presence by pinning the global epoch; no
//!      per-pointer or per-era work at all on the read path (EBR).
//!
//! 2. **Reclamation** — how do retired objects become free memory?
//!    * [`ScanList`]: per-thread retired lists, freed by collecting the
//!      live protection set ([`Slots::collect`](orc_util::handover::Slots::collect))
//!      and testing a scheme-supplied keep-predicate (HP, HE, adaptive).
//!    * [`LimboBins`]: three epoch-indexed limbo bins, flushed wholesale
//!      once the epoch has advanced twice past them (EBR).
//!    * Handoff matrices — PTB's versioned buck slots in its module, PTP's
//!      entries in [`orc_util::handover`], shared with OrcGC — both sit on
//!      the same [`RetireLedger`] bookkeeping spine.
//!
//! [`RetireLedger`] is the third, shared ingredient: the exactness
//! contract of orc-stats (every `unreclaimed += 1` paired with a
//! `Retire` event, every decrement with a `Reclaim`) and the trace
//! emission order (`ScanBegin` → per-object frees → `ReclaimBatch` →
//! `ScanEnd`) live here once instead of six times.
//! The concrete schemes are thin compositions of these pieces — each a
//! [`crate::scheme::Core`] holding its policies and its ledger, inside
//! the one [`crate::scheme::Scheme`] handle that attaches threads and runs
//! the exit hook for all of them; their public behavior — names, stats
//! fields, trace event kinds — is identical to the pre-split monoliths,
//! which the registry completeness and `orctel stat` smoke tests pin down.

pub mod protect;
pub mod reclaim;

pub use protect::{EpochPin, EraProtect, Eras};
pub use reclaim::{LimboBins, RetireLedger, ScanList};
