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
//! races a guard-expected `cas`, whose un-count claims the node and holds
//! the claim on that guard's slot, against a reader letting go of the same
//! node (`a_guard_expected_cas_hands_its_claim_to_the_guard`), and a fourth
//! against a thread that installs the node again
//! (`a_held_claim_races_an_install_of_the_same_object`); a fifth races a
//! dequeue by `cas_moving` against a reader of both nodes it touches
//! (`a_moving_dequeue_races_a_reader_of_both_nodes`); a sixth races an
//! unlink by a guard-expected `cas_tagged`, whose release cascades into
//! the unlinked node's child, against a reader of that child
//! (`a_guard_expected_unlink_cascades_past_a_reader_of_the_child`).
//!
//! No model flushes and no thread inherits a dead tid: every model thread
//! ends in the registry's exit drain, and a retirer whose park lost the
//! race with a slot's release takes the object back, so a path must end
//! with nothing parked. The root-severing, fresh-node and moving-dequeue
//! models reach a pass that parks a node on a slot after its thread's
//! last drain, and at preemption bound 3 so do both held-claim models; a
//! retirer that skips the take-back leaks it there. An un-count claims in
//! the same CAS, so a reader that only drops its guards never claims:
//! the root-severing model runs its reader on the spawned thread, whose
//! exit can come before the writer's park on its slot. The slot-reuse
//! model's reader is the main thread, so its exit drain takes such a park.

use check::{explore, spawn, Config};
use orcgc::{make_orc, OrcAtomic, OrcPtr};
use std::sync::Arc;

struct Node {
    val: u64,
    next: OrcAtomic<Node>,
}

/// Run in both orientations: with the reader on the main thread, and on
/// the spawned thread, whose exit can come before a park on its slot.
#[test]
fn root_severing_races_a_traversing_reader() {
    for reader_spawned in [false, true] {
        let mut cfg = Config::from_env();
        cfg.preemption_bound = cfg.preemption_bound.max(3);
        let report = explore(cfg, move || {
            let b = make_orc(Node {
                val: 2,
                next: OrcAtomic::null(),
            });
            let a = make_orc(Node {
                val: 1,
                next: OrcAtomic::new(&b),
            });
            let head = Arc::new(OrcAtomic::new(&a));
            // Drop the creation guards: from here the chain is kept alive
            // by `head`'s hard link (and A's link to B) alone.
            drop(a);
            drop(b);
            // Sever the root: decrements A, whose destruction cascades a
            // decrement into B through A's `next` OrcAtomic.
            let sever = |head: Arc<OrcAtomic<Node>>| head.store_null();
            // Traverse head -> A -> B under load guards. The guards drop
            // at the end: the last decrement may happen on this thread,
            // which then claims and frees the node.
            let traverse = |head: Arc<OrcAtomic<Node>>| {
                let p = head.load();
                if let Some(node_a) = p.as_ref() {
                    assert_eq!(node_a.val, 1);
                    let q = node_a.next.load();
                    if let Some(node_b) = q.as_ref() {
                        assert_eq!(node_b.val, 2);
                    }
                }
            };
            let other = Arc::clone(&head);
            if reader_spawned {
                let reader = spawn(move || traverse(other));
                sever(Arc::clone(&head));
                reader.join();
            } else {
                let writer = spawn(move || sever(other));
                traverse(Arc::clone(&head));
                writer.join();
            }
            drop(head);
        })
        .unwrap_or_else(|f| {
            panic!("orcgc chain protocol failed (reader spawned: {reader_spawned}):\n{f}")
        });
        report.assert_exhausted("the chain protocol");
    }
}

/// A fresh node is installed by CAS while another thread takes it out of
/// the link and drops it; the publisher then links it a second time from
/// the same guard. A fresh guard's CAS counts its link with a plain store
/// before the CAS and takes it back with another if the CAS fails, so
/// the publisher first makes a CAS that fails: without the undo, the
/// node keeps a count no link holds (a leak). A successful CAS that left
/// the guard fresh would make the second install a plain store over the
/// unlinker's decrement (a lost update: leak or use-after-reclaim), and
/// the guard's drop a direct free of a linked object. Runs at preemption
/// bound 3 at least.
#[test]
fn a_cas_published_fresh_node_races_its_unlinker() {
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
                let poisoned = OrcAtomic::poisoned().load();
                assert!(!head.cas_tagged(&poisoned, &n, 0), "never poisoned");
                assert!(head.cas(&OrcPtr::null(), &n));
                side.store(&n);
                drop(n);
                drop(side);
            })
        };
        let taken = head.take();
        if let Some(v) = taken.as_ref() {
            assert_eq!(*v, 7);
        }
        drop(taken);
        publisher.join();
        drop(head);
    })
    .unwrap_or_else(|f| panic!("fresh-node CAS install failed:\n{f}"));
    report.assert_exhausted("the fresh-install race");
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
            })
        };
        let mut g = head.load();
        head.load_into(&mut g);
        let val = g.as_ref().map(|n| n.val);
        assert!(matches!(val, Some(1 | 2)), "read {val:?}");
        drop(g);
        writer.join();
        drop(head);
    })
    .unwrap_or_else(|f| panic!("load_into slot reuse failed:\n{f}"));
    report.assert_exhausted("the slot-reuse race");
}

/// One thread unlinks X with a `cas` whose `expected` is its own guard on
/// X; the un-count takes X's claim and holds it on that guard's slot, and
/// the guard's release retires X. A reader loads X and drops its guard
/// meanwhile: if it still pins X at the release, the retire pass parks X
/// on the reader's slot and the reader's release frees it. A `clear` that
/// let go of a held claim without retiring would leave X unfreed (a leak
/// at quiescence); a free while the other guard still reads X is a
/// use-after-reclaim.
#[test]
fn a_guard_expected_cas_hands_its_claim_to_the_guard() {
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
        drop(head);
    })
    .unwrap_or_else(|f| panic!("guard-expected cas hand-off failed:\n{f}"));
    report.assert_exhausted("the claim hand-off");
}

/// One thread unlinks X with a guard-expected `cas`, whose un-count claims
/// X when no other link holds it and keeps the claim on the guard's slot
/// until the guard drops. A second thread loads X through the same link
/// and installs it in a side link. An install before the CAS leaves X a
/// link, so the un-count claims nothing; one after the claim raises the
/// counter under BRETIRED, and the release's retire pass must give the
/// claim back and leave X alive for the side link, whose drop frees it.
/// A release that freed X regardless is a use-after-reclaim at the read
/// through the side link; one that dropped the claim without retiring is a
/// leak.
#[test]
fn a_held_claim_races_an_install_of_the_same_object() {
    let report = explore(Config::from_env(), || {
        let x = make_orc(Node {
            val: 1,
            next: OrcAtomic::null(),
        });
        let head = Arc::new(OrcAtomic::new(&x));
        drop(x);
        let side = Arc::new(OrcAtomic::<Node>::null());
        let installer = {
            let (head, side) = (Arc::clone(&head), Arc::clone(&side));
            spawn(move || {
                let g = head.load();
                match g.as_ref().map(|n| n.val) {
                    Some(1) => side.store(&g),
                    read => assert_eq!(read, Some(2), "head is X or Y"),
                }
                drop(g);
            })
        };
        let g = head.load();
        let y = make_orc(Node {
            val: 2,
            next: OrcAtomic::null(),
        });
        assert!(head.cas(&g, &y), "only this thread writes `head`");
        drop(y);
        drop(g);
        installer.join();
        let s = side.load();
        if let Some(n) = s.as_ref() {
            assert_eq!(n.val, 1, "the side link holds X");
        }
        drop(s);
        drop((side, head));
    })
    .unwrap_or_else(|f| panic!("held claim vs. re-install failed:\n{f}"));
    report.assert_exhausted("the held claim's re-install");
}

/// An unlink in the lists' and the NM-tree's shape: `head -> X -> Y`, and
/// one thread holds a guard on X and swings `head` off it with
/// `cas_tagged(&gx, …)`, so the un-count's claim on X is held on `gx`'s
/// slot and `gx`'s release retires X, whose `next` then un-counts Y in
/// the same pass. A reader loads X and, through it, Y, lets go of X first
/// and reads Y last: the cascade must park Y on the reader's slot while it
/// is held, and the reader's release frees it. Freeing Y under that guard
/// is a use-after-reclaim; a claim the release drops, a leak.
#[test]
fn a_guard_expected_unlink_cascades_past_a_reader_of_the_child() {
    let report = explore(Config::from_env(), || {
        let y = make_orc(Node {
            val: 2,
            next: OrcAtomic::null(),
        });
        let x = make_orc(Node {
            val: 1,
            next: OrcAtomic::new(&y),
        });
        let head = Arc::new(OrcAtomic::new(&x));
        drop((x, y));
        let reader = {
            let head = Arc::clone(&head);
            spawn(move || {
                let gx = head.load();
                let Some(x) = gx.as_ref() else { return };
                let gy = x.next.load();
                drop(gx);
                assert_eq!(gy.as_ref().map(|n| n.val), Some(2), "X links Y");
                drop(gy);
            })
        };
        let gx = head.load();
        assert!(
            head.cas_tagged(&gx, &OrcPtr::null(), 0),
            "only this thread writes `head`"
        );
        assert_eq!(gx.val, 1);
        drop(gx);
        reader.join();
        drop(head);
    })
    .unwrap_or_else(|f| panic!("guard-expected unlink cascade failed:\n{f}"));
    report.assert_exhausted("the unlink cascade");
}

/// A dequeue in the MS-queue's shape: `head -> A -> B`, and one thread
/// moves `A.next`'s link into `head` with `cas_moving`, which poisons
/// `A.next`, while a reader holds guards on the head node and on its
/// successor, then drops them. `B`'s count moves with the link, so it is
/// never touched; a `cas_moving` that kept the transfer but skipped the
/// poison would leave `A.next` counted by nothing, and `A`'s free would
/// un-count `B` under `head`'s link: a use-after-reclaim when `head`
/// drops. Runs at preemption bound 3 at least.
#[test]
fn a_moving_dequeue_races_a_reader_of_both_nodes() {
    let mut cfg = Config::from_env();
    cfg.preemption_bound = cfg.preemption_bound.max(3);
    cfg.max_schedules = cfg.max_schedules.max(200_000);
    let report = explore(cfg, || {
        let b = make_orc(Node {
            val: 2,
            next: OrcAtomic::null(),
        });
        let a = make_orc(Node {
            val: 1,
            next: OrcAtomic::new(&b),
        });
        let head = Arc::new(OrcAtomic::new(&a));
        drop((a, b));
        let reader = {
            let head = Arc::clone(&head);
            spawn(move || {
                let first = head.load();
                let second = first.next.load();
                match (first.val, second.as_ref().map(|n| n.val)) {
                    (1, Some(2)) | (2, None) => {}
                    (1, None) => assert!(second.is_poison(), "A.next is B or poison"),
                    read => panic!("read {read:?}"),
                }
                drop((first, second));
            })
        };
        let a = head.load();
        let b = a.next.load();
        assert!(
            head.cas_moving(&a, &b, &a.next),
            "only this thread writes `head`"
        );
        assert_eq!((a.val, b.val), (1, 2));
        drop((a, b));
        reader.join();
        drop(head);
    })
    .unwrap_or_else(|f| panic!("cas_moving dequeue failed:\n{f}"));
    report.assert_exhausted("the moving dequeue");
}
