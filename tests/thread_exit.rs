//! Thread exit in the middle of an operation, with the tid reused: a dead
//! thread must leave nothing behind for its tid's next owner. For every scheme: a victim thread begins an operation,
//! protects all `MAX_HPS` slots and exits *without* `end_op`; whether the
//! objects it held were retired before it died or after, a quiescent
//! `flush()` must then reclaim every one of them, and the next thread —
//! which is handed the victim's tid — must run a whole operation on
//! clean per-thread state.
//!
//! One test in a binary of its own: "the next thread gets the same tid"
//! holds only while nothing else in the process takes or frees tids.

use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::registry;
use orc_util::track::Ledger;
use orcgc_suite::prelude::*;
use reclaim::MAX_HPS;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;

/// Swaps a fresh object into every slot and retires the old ones.
fn replace_all(smr: &AnySmr, slots: &[AtomicUsize]) {
    for (i, slot) in slots.iter().enumerate() {
        let fresh = smr.alloc(100 + i as u64) as usize;
        let old = slot.swap(fresh, Ordering::SeqCst);
        // SAFETY: the swap unlinked `old`, which came from this scheme's
        // `alloc`; this thread is its only retirer.
        unsafe { smr.retire(old as *mut u64) };
    }
}

fn victim_dies_mid_operation(kind: SchemeKind, retired_before_exit: bool) {
    let label = format!("{kind}, retired_before_exit={retired_before_exit}");
    let smr = kind.build();
    let slots: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..MAX_HPS)
            .map(|i| AtomicUsize::new(smr.alloc(i as u64) as usize))
            .collect(),
    );

    let (holding_tx, holding_rx) = channel();
    let (die_tx, die_rx) = channel::<()>();
    let victim = {
        let (smr, slots) = (smr.clone(), slots.clone());
        thread::spawn(move || {
            smr.begin_op();
            for (idx, slot) in slots.iter().enumerate() {
                let word = smr.protect(idx, slot);
                // SAFETY: slot `idx` protects `word` (EBR: the pin does).
                assert_eq!(unsafe { *(word as *const u64) }, idx as u64);
            }
            holding_tx.send(()).unwrap();
            die_rx.recv().unwrap();
            // No `end_op`: the exit hook is all the cleanup there is.
            registry::tid()
        })
    };
    holding_rx.recv().unwrap();
    if retired_before_exit {
        replace_all(&smr, &slots);
    }
    die_tx.send(()).unwrap();
    let victim_tid = victim.join().unwrap();
    if !retired_before_exit {
        replace_all(&smr, &slots);
    }

    smr.flush();
    if kind.reclaims() {
        assert_eq!(
            smr.unreclaimed(),
            0,
            "{label}: the dead thread still protects"
        );
    } else {
        assert_eq!(smr.unreclaimed(), MAX_HPS, "{label}");
    }

    // The successor inherits the tid, and with it rows the exit hook must
    // have left empty: its own operation protects, retires and drains.
    let successor = {
        let (smr, slots) = (smr.clone(), slots.clone());
        thread::spawn(move || {
            let tid = registry::tid();
            smr.begin_op();
            let word = smr.protect(0, &slots[0]);
            // SAFETY: slot 0 protects `word`.
            assert_eq!(unsafe { *(word as *const u64) }, 100);
            smr.publish(1, word);
            smr.clear(1);
            smr.end_op();
            replace_all(&smr, &slots);
            smr.flush();
            tid
        })
    };
    assert_eq!(
        successor.join().unwrap(),
        victim_tid,
        "{label}: tid not reused"
    );
    smr.flush();
    if kind.reclaims() {
        assert_eq!(
            smr.unreclaimed(),
            0,
            "{label}: after the successor's operation"
        );
    }

    for slot in slots.iter() {
        // SAFETY: every other thread has been joined — quiescent, and each
        // live object is freed exactly once.
        unsafe { smr.dealloc_now(slot.load(Ordering::SeqCst) as *mut u64) };
    }
}

#[test]
fn a_thread_dying_mid_operation_strands_nothing_and_its_tid_is_reusable() {
    let ledger = Ledger::open();
    for kind in SchemeKind::ALL {
        for retired_before_exit in [true, false] {
            victim_dies_mid_operation(kind, retired_before_exit);
        }
    }
    ledger.assert_balanced("thread exit mid-operation, every scheme");
}
