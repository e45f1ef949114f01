//! Checked OrcGC protocol: the `_orc` decrement-vs-retire race on a
//! two-node chain (the paper's Algorithm 3/4 core).
//!
//! A writer severs `head -> A -> B` at the root while a reader traverses
//! it through `orc_atomic::load` guards. The interesting interleavings put
//! the root decrement (and the recursive cascade through A's link fields)
//! concurrent with the reader's protect-and-dereference of both nodes; the
//! shadow heap flags any cascade that frees a node while a guard still
//! covers it, and the leak oracle flags any decrement the cascade loses.
//!
//! A second model races the install of a fresh `make_orc` node against its
//! unlinker (see `a_cas_published_fresh_node_races_its_unlinker`); a third
//! races a guard-expected `cas`, which leaves its claim to that guard,
//! against a reader letting go of the same node
//! (`a_guard_expected_cas_hands_its_claim_to_the_guard`).

use check::{explore, quiet_stats, spawn, Config};
use orcgc::{flush_thread, make_orc, OrcAtomic, OrcPtr};
use std::sync::Arc;

struct Node {
    val: u64,
    next: OrcAtomic<Node>,
}

#[test]
fn root_severing_races_a_traversing_reader() {
    quiet_stats();
    let report = explore(Config::from_env(), || {
        let b = make_orc(Node {
            val: 2,
            next: OrcAtomic::null(),
        });
        let a = make_orc(Node {
            val: 1,
            next: OrcAtomic::new(&b),
        });
        let head = Arc::new(OrcAtomic::new(&a));
        // Drop the creation guards: from here the chain is kept alive by
        // `head`'s hard link (and A's link to B) alone.
        drop(a);
        drop(b);

        let writer = {
            let head = Arc::clone(&head);
            spawn(move || {
                // Sever the root: decrements A, whose destruction cascades
                // a decrement into B through A's `next` OrcAtomic.
                head.store_null();
                flush_thread();
            })
        };

        // Reader: traverse head -> A -> B under load guards.
        {
            let p = head.load();
            if let Some(node_a) = p.as_ref() {
                assert_eq!(node_a.val, 1);
                let q = node_a.next.load();
                if let Some(node_b) = q.as_ref() {
                    assert_eq!(node_b.val, 2);
                }
            }
            // Guards drop here: the last decrement may happen on this
            // thread, queueing the node on *our* retired list.
        }

        writer.join();
        // A pass that read the writer's hazard before it exited may park
        // a node on its tid after its exit hook drained it; the tid's next
        // owner inherits it (torture's `flush_as_heirs`).
        spawn(flush_thread).join();
        // Drain whatever the cascade queued locally; twice, because
        // destroying A during the first flush retires B onto this list.
        flush_thread();
        flush_thread();
        drop(head);
        flush_thread();
    })
    .unwrap_or_else(|f| panic!("orcgc chain protocol failed:\n{f}"));
    assert!(!report.truncated, "config must exhaust the chain protocol");
    assert!(report.schedules > 1, "nothing was explored");
}

/// A fresh node is installed by CAS — which counts its link only after
/// the link is visible — while another thread takes it out of the link
/// and drops it; the publisher then links it a second time from the same
/// guard. A CAS that left the guard fresh would make that second install
/// a plain store over the unlinker's decrement (a lost update: leak or
/// use-after-reclaim), and the guard's drop a direct free of a linked
/// object. Runs at preemption bound 3 at least.
#[test]
fn a_cas_published_fresh_node_races_its_unlinker() {
    quiet_stats();
    let mut cfg = Config::from_env();
    cfg.preemption_bound = cfg.preemption_bound.max(3);
    cfg.max_schedules = cfg.max_schedules.max(200_000);
    let report = explore(cfg, || {
        let head = Arc::new(OrcAtomic::<u64>::null());
        let publisher = {
            let head = Arc::clone(&head);
            spawn(move || {
                let side = OrcAtomic::null();
                let n = make_orc(7u64);
                assert!(head.cas(&OrcPtr::null(), &n));
                side.store(&n);
                drop(n);
                drop(side);
                flush_thread();
            })
        };
        let taken = head.take();
        if let Some(v) = taken.as_ref() {
            assert_eq!(*v, 7);
        }
        drop(taken);
        publisher.join();
        // A pass that read the publisher's hazard before it exited may
        // park the node on its tid after its exit hook drained it; the
        // tid's next owner inherits it (torture's `flush_as_heirs`).
        spawn(flush_thread).join();
        drop(head);
        flush_thread();
    })
    .unwrap_or_else(|f| panic!("fresh-node CAS install failed:\n{f}"));
    assert!(
        !report.truncated,
        "config must exhaust the fresh-install race"
    );
    assert!(report.schedules > 1, "nothing was explored");
}

/// A reader re-protects its sole guard in place (`load_into`) while a
/// writer replaces the guarded node and drops its own guard on the new
/// one, so the `store`'s decrement takes the old node's counter to zero.
/// The reader must read the old node's `_orc` while its slot still pins
/// it: a claimant then either parks the node on that slot, and the
/// reader's drain frees it, or scans after the overwrite and frees it
/// itself. Reading the counter after the overwrite is a use-after-reclaim.
/// Runs at preemption bound 3 at least.
#[test]
fn load_into_reuses_the_slot_of_a_node_being_unlinked() {
    quiet_stats();
    let mut cfg = Config::from_env();
    cfg.preemption_bound = cfg.preemption_bound.max(3);
    cfg.max_schedules = cfg.max_schedules.max(200_000);
    let report = explore(cfg, || {
        let a = make_orc(Node {
            val: 1,
            next: OrcAtomic::null(),
        });
        let head = Arc::new(OrcAtomic::new(&a));
        drop(a);
        let writer = {
            let head = Arc::clone(&head);
            spawn(move || {
                let b = make_orc(Node {
                    val: 2,
                    next: OrcAtomic::null(),
                });
                head.store(&b);
                drop(b);
                flush_thread();
            })
        };
        let mut g = head.load();
        head.load_into(&mut g);
        let val = g.as_ref().map(|n| n.val);
        assert!(matches!(val, Some(1 | 2)), "read {val:?}");
        drop(g);
        writer.join();
        spawn(flush_thread).join();
        drop(head);
        flush_thread();
    })
    .unwrap_or_else(|f| panic!("load_into slot reuse failed:\n{f}"));
    assert!(!report.truncated, "config must exhaust the slot-reuse race");
    assert!(report.schedules > 1, "nothing was explored");
}

/// One thread unlinks X with a `cas` whose `expected` is its own guard on
/// X, so the un-count claims nothing and leaves X's claim to that guard's
/// release; a reader loads X and drops its guard meanwhile. A guard that
/// lets go of X with its counter at zero and unclaimed claims it; if the
/// other guard still pins X, the claimant's scan parks X on that guard's
/// slot and its release frees X. A `clear` that skipped its zero check
/// would leave X unclaimed forever (a leak at quiescence); a free while
/// the other guard still reads X is a use-after-reclaim.
#[test]
fn a_guard_expected_cas_hands_its_claim_to_the_guard() {
    quiet_stats();
    let report = explore(Config::from_env(), || {
        let x = make_orc(Node {
            val: 1,
            next: OrcAtomic::null(),
        });
        let head = Arc::new(OrcAtomic::new(&x));
        drop(x);
        let reader = {
            let head = Arc::clone(&head);
            spawn(move || {
                let g = head.load();
                let val = g.as_ref().map(|n| n.val);
                assert!(matches!(val, Some(1 | 2)), "read {val:?}");
                drop(g);
                flush_thread();
            })
        };
        let g = head.load();
        let y = make_orc(Node {
            val: 2,
            next: OrcAtomic::null(),
        });
        assert!(head.cas(&g, &y), "only this thread writes `head`");
        drop(y);
        assert_eq!(g.val, 1);
        drop(g);
        reader.join();
        spawn(flush_thread).join();
        drop(head);
        flush_thread();
    })
    .unwrap_or_else(|f| panic!("guard-expected cas hand-off failed:\n{f}"));
    assert!(!report.truncated, "config must exhaust the claim hand-off");
    assert!(report.schedules > 1, "nothing was explored");
}
