//! The lock-free data structures evaluated in the OrcGC paper (§5).
//!
//! Eleven structures, in two flavors:
//!
//! * **Manual-scheme generic** (`<S: reclaim::Smr>`): written once against
//!   the [`reclaim::Smr`] trait, so the same code runs under HP, PTB, PTP,
//!   HE, EBR or the leaky baseline — the comparison of Figures 3–4.
//! * **OrcGC-annotated** (`*Orc`): the paper's methodology applied
//!   verbatim — nodes built with `make_orc`, links declared `OrcAtomic`,
//!   locals held in `OrcPtr` — and *no* explicit protect/retire calls.
//!
//! | Structure | Paper source | Manual | OrcGC |
//! |---|---|---|---|
//! | Michael–Scott queue | \[20\] | [`queue::MsQueue`] | [`queue::MsQueueOrc`] |
//! | LCRQ | \[21\] | — | [`queue::LcrqOrc`] |
//! | Kogan–Petrank wait-free queue | \[17\] | — | [`queue::KpQueueOrc`] |
//! | TurnQueue | \[26\] | — | [`queue::TurnQueueOrc`] |
//! | Michael–Harris list | \[18\] | [`list::MichaelList`] | [`list::MichaelListOrc`] |
//! | Harris original list | \[12\] | — | [`list::HarrisListOrc`] |
//! | Herlihy–Shavit list (wait-free lookups) | \[15\] | — | [`list::HsListOrc`] (on Michael's core) |
//! | TBKP wait-free list | \[27\] | — | [`list::TbkpListOrc`] (on Michael's core) |
//! | Natarajan–Mittal BST | \[22\] | [`tree::NmTree`] | [`tree::NmTreeOrc`] |
//! | Herlihy–Shavit skip list | \[15\] | — | [`skiplist::HsSkipListOrc`] |
//! | CRF-skip (this paper) | §5 | — | [`skiplist::CrfSkipListOrc`] |
//!
//! The OrcGC lists have one core, `MichaelListOrc`'s node, search, insert
//! and remove: the HS and TBKP lists add only their wait-free `contains`
//! (and TBKP its descriptors) on top of it, and the Harris list keeps its
//! own segment-snipping search over the same node. The two skip lists
//! share one tower node and keep their own find, add, remove and contains.
//!
//! The structures marked "—" depend on reclamation properties only OrcGC
//! (or FreeAccess) provides — multiple incoming links unlinked in
//! interleaving-dependent order (KP), retired-node traversal (Harris/HS),
//! and re-insertion of unlinked nodes (skip lists) — which is the paper's
//! §2 "limitations of existing schemes" argument.

pub mod list;
pub mod queue;
pub mod registry;
pub mod skiplist;
pub mod traits;
pub mod tree;

pub use traits::{ConcurrentQueue, ConcurrentSet, SmrQueue, SmrSet};

/// The pool slot, in bytes, a node `N` takes under each manual scheme, in
/// [`reclaim::SchemeKind::ALL`] order: the header, the scheme's extra
/// words ([`reclaim::scheme::Core::Extra`]) and `N`, rounded up to a size
/// class.
#[cfg(test)]
pub(crate) fn manual_slots<N>() -> [(&'static str, usize); 7] {
    use reclaim::scheme::Core;
    use reclaim::{adaptive, ebr, he, hp, leaky, ptb, ptp};
    fn slot<C: Core, N>() -> (&'static str, usize) {
        let layout = std::alloc::Layout::new::<reclaim::SmrBox<C::Extra, N>>();
        let class = orc_util::pool::class_of(layout).expect("a pooled size");
        (C::NAME, orc_util::pool::class_slot_size(class))
    }
    [
        slot::<hp::Hp, N>(),
        slot::<ptb::Ptb, N>(),
        slot::<ptp::Ptp, N>(),
        slot::<he::He, N>(),
        slot::<adaptive::AdaptiveCore, N>(),
        slot::<ebr::EbrCore, N>(),
        slot::<leaky::LeakyCore, N>(),
    ]
}
