//! Checked end-to-end structure test: Michael's list under exhaustive
//! interleaving exploration.
//!
//! One concurrent insert/delete/contains triple — small enough to exhaust
//! within the preemption bound, large enough to drive the full
//! search/mark/unlink/retire machinery (three rotating hazard slots, a
//! physical unlink racing a traversal). Run under the two schemes with the
//! most distinct retire paths: HP (scan against published slots) and PTP
//! (immediate handover walk). Every schedule checks the answers too: both
//! inserts succeed; after the join, 1 is present iff the remove missed it.

use check::{explore, spawn, Config};
use reclaim::SchemeKind;
use std::sync::{Arc, OnceLock};
use structures::list::MichaelList;

fn triple(kind: SchemeKind) {
    let report = explore(Config::from_env(), move || {
        let list = Arc::new(MichaelList::new(kind.build_with_threshold(1)));
        let removed_1 = Arc::new(OnceLock::new());
        let other = {
            let (list, removed_1) = (Arc::clone(&list), Arc::clone(&removed_1));
            spawn(move || {
                assert!(list.add(2));
                let _ = removed_1.set(list.remove(&1));
            })
        };
        assert!(list.add(1));
        let _ = list.contains(&2);
        other.join();
        let removed_1 = *removed_1.get().expect("the joined thread answered");
        assert_eq!(
            list.contains(&1),
            !removed_1,
            "key 1 after remove -> {removed_1}"
        );
        assert!(list.contains(&2), "key 2 was never removed");
        // `MichaelList::drop` walks the remaining nodes with `dealloc_now`;
        // the leak oracle then requires every node to be accounted for.
    })
    .unwrap_or_else(|f| panic!("{kind} michael-list triple failed:\n{f}"));
    assert!(report.schedules > 1, "{kind}: nothing was explored");
}

#[test]
fn insert_delete_contains_triple_under_hp() {
    triple(SchemeKind::Hp);
}

#[test]
fn insert_delete_contains_triple_under_ptp() {
    triple(SchemeKind::Ptp);
}
