//! What the process-wide domain counts when objects are freed: a fresh
//! `make_orc` guard dropped before any install is freed on the spot (no
//! hazard scan), and every free is counted before the value's destructor
//! runs.
//!
//! Own process: the checks read deltas of the global `domain_stats()`, so
//! the tests serialize on one lock and nothing else in this binary
//! touches the domain.

use orc_util::atomics::{AtomicU64, Ordering};
use orcgc::{domain_stats, make_orc, OrcAtomic};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The `reclaims` count a [`SeesOwnReclaim`] read from inside its `Drop`.
static SEEN: AtomicU64 = AtomicU64::new(u64::MAX);

struct SeesOwnReclaim;

impl Drop for SeesOwnReclaim {
    fn drop(&mut self) {
        SEEN.store(domain_stats().reclaims, Ordering::SeqCst);
    }
}

#[test]
fn a_never_linked_guard_is_freed_without_a_scan() {
    let _g = serial();
    if !orc_util::stats::enabled() {
        return; // ORC_STATS=0: nothing is counted
    }
    let before = domain_stats();
    let live = orc_util::track::thread().live_objects();
    drop(make_orc(41u64));
    let d = domain_stats().since(&before);
    assert_eq!(orc_util::track::thread().live_objects(), live, "freed");
    assert_eq!((d.retires, d.reclaims, d.batches()), (1, 1, 1));
    assert_eq!(d.scans, 0, "no hazard scan for an object nobody reached");
    assert_eq!(orcgc::domain().unreclaimed(), 0);
}

#[test]
fn a_value_sees_its_own_reclaim_counted() {
    let _g = serial();
    if !orc_util::stats::enabled() {
        return;
    }
    // Fresh guard, never installed: the direct free.
    let before = domain_stats().reclaims;
    drop(make_orc(SeesOwnReclaim));
    assert_eq!(SEEN.load(Ordering::SeqCst), before + 1, "direct free");

    // Linked, then unlinked: the retire pass's free.
    let p = make_orc(SeesOwnReclaim);
    let link = OrcAtomic::new(&p);
    drop(p);
    let before = domain_stats().reclaims;
    drop(link);
    assert_eq!(SEEN.load(Ordering::SeqCst), before + 1, "retire pass");
    assert_eq!(orcgc::domain().unreclaimed(), 0);
}
