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

mod crf_orc;
mod hs_orc;

pub use crf_orc::CrfSkipListOrc;
pub use hs_orc::HsSkipListOrc;

use orc_util::registry;
use orc_util::rng::XorShift64;
use std::cell::RefCell;

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
