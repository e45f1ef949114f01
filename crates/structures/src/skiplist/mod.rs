//! The skip lists of the paper's Figures 7–8 and the §5 memory-footprint
//! experiment.
//!
//! * [`HsSkipListOrc`] — the Herlihy–Shavit lock-free skip list (the
//!   paper ported the book's Java version to C++ and annotated it).
//!   `contains` descends from the top level without ever restarting; it
//!   tolerates — and therefore *retains* — marked nodes, which keeps
//!   removed nodes linked to the structure and gives the large memory
//!   footprint the paper measured (~19 GB at 10⁶ keys).
//! * [`CrfSkipListOrc`] — the paper's new skip list: the thread that
//!   physically unlinks a node at a level immediately *poisons* that
//!   level's outgoing link, so removed nodes are fully isolated and
//!   unreachable chains cannot form. Any traversal that steps onto a
//!   poisoned link restarts (making lookups lock-free instead of
//!   wait-free) — and the footprint drops by more than an order of
//!   magnitude.
//!
//! Both run on the one tower `Node` below and share its head-sentinel
//! order (`before`), the [`StalledReader`] probe and the quiescent `len`.
//! Their find, add, remove and contains stay in their own files: they
//! differ by the poison rule at about eight places, and one shared body
//! would branch on its caller at each of them.

mod crf_orc;
mod hs_orc;

pub use crf_orc::CrfSkipListOrc;
pub use hs_orc::HsSkipListOrc;

use orc_util::registry;
use orc_util::rng::XorShift64;
use orcgc::{make_orc, OrcAtomic, OrcPtr};
use std::cell::RefCell;

/// A tower: one `next` link per level, `0..=top`.
pub(crate) struct Node<K: Send + Sync> {
    /// `None` is the head sentinel (compares below every key).
    key: Option<K>,
    top: usize,
    next: Vec<OrcAtomic<Node<K>>>,
}

impl<K: Send + Sync> Node<K> {
    fn new(key: Option<K>, top: usize) -> Self {
        Self {
            key,
            top,
            next: (0..=top).map(|_| OrcAtomic::null()).collect(),
        }
    }

    #[inline]
    fn link(&self, level: usize) -> &OrcAtomic<Node<K>> {
        &self.next[level]
    }
}

impl<K: Ord + Send + Sync> Node<K> {
    /// Whether this node sorts before `key` (the head sentinel always does).
    #[inline]
    fn before(&self, key: &K) -> bool {
        match &self.key {
            None => true,
            Some(k) => k < key,
        }
    }
}

/// A fresh list's head: a full-height sentinel tower.
fn new_head<K: Send + Sync>() -> OrcAtomic<Node<K>> {
    OrcAtomic::new(&make_orc(Node::new(None, MAX_LEVEL - 1)))
}

/// Bench/test support: a *stalled reader* probe — the guard a preempted
/// lookup would hold on the first node of the bottom level. While alive it
/// pins that node, and (through the node's frozen hard links) whatever
/// chain of removed successors hangs behind it — the §5 memory-footprint
/// mechanism. Dropping it releases everything.
pub struct StalledReader<K: Send + Sync> {
    _guard: OrcPtr<Node<K>>,
}

fn stalled_reader_at_front<K: Send + Sync>(head: &OrcAtomic<Node<K>>) -> StalledReader<K> {
    let head = head.load();
    let first = head.link(0).load();
    StalledReader { _guard: first }
}

/// Unmarked-key count; quiescent callers only.
fn len<K: Send + Sync>(head: &OrcAtomic<Node<K>>) -> usize {
    let mut n = 0;
    // SAFETY: quiescent-caller contract — no concurrent writers, so
    // unguarded loads observe only live nodes.
    let head = unsafe { head.load_quiescent() }.expect("head");
    // SAFETY: same quiescence; the head's level-0 link is live.
    let mut cur = unsafe { head.link(0).load_quiescent() };
    while let Some(node) = cur {
        if !orc_util::marked::is_marked(node.link(0).load_raw()) {
            n += 1;
        }
        // SAFETY: same quiescence; every reachable node is live.
        cur = unsafe { node.link(0).load_quiescent() };
    }
    n
}

/// Maximum number of levels (p = 1/2 geometric tower heights).
pub const MAX_LEVEL: usize = 16;

thread_local! {
    static LEVEL_RNG: RefCell<Option<XorShift64>> = const { RefCell::new(None) };
}

/// The top level of a new tower: geometric with p = 1/2, capped at
/// `MAX_LEVEL - 1`, drawn from the calling thread's generator.
fn random_level() -> usize {
    LEVEL_RNG.with(|r| {
        let mut r = r.borrow_mut();
        let rng = r.get_or_insert_with(|| XorShift64::for_thread(registry::tid(), 0xC0FFEE));
        rng.level_p50(MAX_LEVEL)
    })
}
