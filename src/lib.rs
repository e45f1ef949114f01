//! # orcgc-suite
//!
//! Umbrella crate of the Rust reproduction of *"OrcGC: Automatic
//! Lock-Free Memory Reclamation"* (Correia, Ramalhete, Felber — PPoPP
//! 2021). It re-exports the workspace's public surface:
//!
//! * [`orcgc`] — the automatic scheme (the paper's contribution):
//!   [`orcgc::make_orc`], [`orcgc::OrcAtomic`], [`orcgc::OrcPtr`].
//! * [`reclaim`] — the manual schemes: the paper's pass-the-pointer plus
//!   the HP / PTB / HE / EBR baselines, all behind one [`reclaim::Smr`]
//!   trait.
//! * [`structures`] — the eleven lock-free data structures of the
//!   evaluation, in manual-generic and OrcGC-annotated variants.
//! * [`workloads`] — the benchmark harness that regenerates the paper's
//!   figures and tables.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use orc_util;
pub use orcgc;
pub use reclaim;
pub use structures;
pub use workloads;

/// Convenience prelude: the types most programs need.
///
/// For sweeping schemes or structures, prefer the registry surface
/// ([`SchemeKind`](reclaim::SchemeKind) / [`AnySmr`](reclaim::AnySmr) /
/// [`MatrixFilter`](structures::registry::MatrixFilter)) over naming concrete
/// scheme types — code written against the registry picks up new schemes
/// and structures automatically.
pub mod prelude {
    pub use orcgc::{make_orc, OrcAtomic, OrcPtr};
    pub use reclaim::{AnySmr, SchemeKind, Smr};
    pub use structures::registry::{MatrixFilter, SchemeAxis};
    pub use structures::{ConcurrentQueue, ConcurrentSet};
}
