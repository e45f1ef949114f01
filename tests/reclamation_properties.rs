//! End-to-end reclamation properties across crates: exact leak-freedom,
//! destructor-exactly-once, the linear bound under adversarial stalls,
//! and the paper's §2 "obstacle" behaviors that only OrcGC supports.

use orc_util::atomics::{AtomicUsize, Ordering};
use orcgc::{make_orc, OrcAtomic};
use orcgc_suite::prelude::*;
use std::sync::Arc;
use structures::list::HsListOrc;
use structures::skiplist::CrfSkipListOrc;

struct Probe(Arc<AtomicUsize>);
impl Drop for Probe {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn destructors_run_exactly_once_under_concurrency() {
    let drops = Arc::new(AtomicUsize::new(0));
    let made = Arc::new(AtomicUsize::new(0));
    struct Node {
        _p: Probe,
        next: OrcAtomic<Node>,
    }
    let root: Arc<OrcAtomic<Node>> = Arc::new(OrcAtomic::null());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let root = root.clone();
            let drops = drops.clone();
            let made = made.clone();
            std::thread::spawn(move || {
                for _ in 0..2_500 {
                    // Push a node whose `next` adopts the current chain
                    // head, then occasionally chop the chain.
                    let n = make_orc(Node {
                        _p: Probe(drops.clone()),
                        next: OrcAtomic::null(),
                    });
                    made.fetch_add(1, Ordering::SeqCst);
                    loop {
                        let cur = root.load();
                        n.next.store_tagged(&cur, 0);
                        if root.cas(&cur, &n) {
                            break;
                        }
                    }
                    if made.load(Ordering::Relaxed).is_multiple_of(64) {
                        root.store_null(); // cascade-free the whole chain
                    }
                }
                orcgc::flush_thread();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    root.store_null();
    orcgc::flush_thread();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        made.load(Ordering::SeqCst),
        "every node must be dropped exactly once"
    );
}

#[test]
fn paper_obstacle_2_traversal_of_retired_nodes() {
    // HS list lookups keep walking links of removed nodes. Hammer removal
    // under active lookups; absence of crashes/UB plus correct answers is
    // the property.
    let list = Arc::new(HsListOrc::new());
    for k in 0..300u64 {
        list.add(k);
    }
    let stop = Arc::new(orc_util::atomics::AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let list = list.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut checks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for k in 0..300u64 {
                        let _ = list.contains(&k);
                    }
                    checks += 1;
                }
                orcgc::flush_thread();
                checks
            })
        })
        .collect();
    for _ in 0..40 {
        for k in 0..300u64 {
            list.remove(&k);
        }
        for k in 0..300u64 {
            list.add(k);
        }
    }
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    orcgc::flush_thread();
}

#[test]
fn paper_obstacle_3_reinsertion_of_unlinked_objects() {
    // An object can leave the structure and come back while guarded —
    // OrcGC must neither free it early nor leak it.
    let drops = Arc::new(AtomicUsize::new(0));
    struct Cell {
        _p: Probe,
    }
    let slot_a: OrcAtomic<Cell> = OrcAtomic::null();
    let slot_b: OrcAtomic<Cell> = OrcAtomic::null();
    let obj = make_orc(Cell {
        _p: Probe(drops.clone()),
    });
    slot_a.store(&obj);
    drop(obj);
    for _ in 0..100 {
        // Move the object back and forth: unlink from A (count 0,
        // retired) while a guard revives it into B, and vice versa.
        let g = slot_a.load();
        slot_a.store_null();
        slot_b.store(&g);
        drop(g);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        let g = slot_b.load();
        slot_b.store_null();
        slot_a.store(&g);
        drop(g);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
    }
    slot_a.store_null();
    orcgc::flush_thread();
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn linear_bound_survives_structure_level_stress() {
    // Run a write-heavy CRF-skip workload and check the OrcGC backlog
    // stays small relative to operations performed: every worker samples
    // the domain gauge after each of its operations.
    let set = Arc::new(CrfSkipListOrc::new());
    for k in 0..512u64 {
        set.add(k);
    }
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let set = set.clone();
            std::thread::spawn(move || {
                let mut rng = orc_util::rng::XorShift64::for_thread(t, 77);
                let mut max = 0u64;
                for _ in 0..10_000 {
                    let k = rng.next_bounded(512);
                    if rng.next_bounded(2) == 0 {
                        set.add(k);
                    } else {
                        set.remove(&k);
                    }
                    max = max.max(orcgc::domain().unreclaimed());
                }
                orcgc::flush_thread();
                max
            })
        })
        .collect();
    let max = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .max()
        .unwrap();
    assert!(
        max < 5_000,
        "backlog {max} is far beyond the linear regime for 40k ops"
    );
}

#[test]
fn manual_schemes_reclaim_exactly_when_quiescent() {
    for kind in SchemeKind::ALL {
        if !kind.reclaims() {
            continue;
        }
        for entry in structures::registry::SETS {
            let smr = kind.build();
            let set = (entry.make)(smr.clone());
            for round in 0..3 {
                for k in 0..200u64 {
                    assert!(set.add(k + round * 1000));
                }
                for k in 0..200u64 {
                    assert!(set.remove(&(k + round * 1000)));
                }
            }
            drop(set);
            smr.flush();
            assert_eq!(smr.unreclaimed(), 0, "{kind}/{}", entry.name);
        }
    }
}
