//! Integration tests for the less-traveled parts of the orcgc public API:
//! poison sentinels, exchange operations, guard sharing, and slot
//! exhaustion behavior.

use orc_util::atomics::{AtomicUsize, Ordering};
use orcgc::{is_poison, make_orc, OrcAtomic, OrcPtr};
use std::sync::Arc;

struct Probe(Arc<AtomicUsize>);
impl Drop for Probe {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn probe() -> (Arc<AtomicUsize>, OrcPtr<Probe>) {
    let n = Arc::new(AtomicUsize::new(0));
    let p = make_orc(Probe(n.clone()));
    (n, p)
}

#[test]
fn poisoned_constructor_and_loads() {
    let link: OrcAtomic<Probe> = OrcAtomic::poisoned();
    assert!(is_poison(link.load_raw()));
    let g = link.load();
    assert!(g.is_poison());
    assert!(!g.is_null());
    assert!(g.as_ref().is_none());
}

#[test]
fn a_poisoned_link_counts_the_object_that_replaces_it() {
    let link: OrcAtomic<Probe> = OrcAtomic::poisoned();
    let (drops, q) = probe();
    assert!(link.cas_tagged(&OrcAtomic::poisoned().load(), &q, 0));
    drop(q);
    assert_eq!(drops.load(Ordering::SeqCst), 0, "the link keeps it alive");
    drop(link);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn cas_null_releases_the_link() {
    let (drops, p) = probe();
    let link = OrcAtomic::new(&p);
    drop(p);
    let w = link.load_raw();
    assert!(link.cas_null(w));
    assert!(link.load().is_null());
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn swap_chains_preserve_every_object() {
    let (d1, p1) = probe();
    let (d2, p2) = probe();
    let (d3, p3) = probe();
    let link = OrcAtomic::new(&p1);
    drop(p1);
    let old1 = link.swap(&p2); // returns guard on object 1
    drop(p2);
    let old2 = link.swap(&p3); // returns guard on object 2
    drop(p3);
    assert_eq!(d1.load(Ordering::SeqCst), 0);
    assert_eq!(d2.load(Ordering::SeqCst), 0);
    drop(old1);
    assert_eq!(d1.load(Ordering::SeqCst), 1);
    drop(old2);
    assert_eq!(d2.load(Ordering::SeqCst), 1);
    drop(link);
    assert_eq!(d3.load(Ordering::SeqCst), 1);
}

#[test]
fn take_then_reinsert_roundtrip() {
    let (drops, p) = probe();
    let link = OrcAtomic::new(&p);
    drop(p);
    for _ in 0..50 {
        let g = link.take();
        assert!(!g.is_null());
        assert!(link.load().is_null());
        link.store(&g);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
    }
    drop(link);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn concurrent_swaps_hand_objects_across_threads() {
    let (drops, p) = probe();
    let made = Arc::new(AtomicUsize::new(1));
    let link = Arc::new(OrcAtomic::new(&p));
    drop(p);
    let drops_outer = drops.clone();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let link = link.clone();
            let drops = drops.clone();
            let made = made.clone();
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let fresh = make_orc(Probe(drops.clone()));
                    made.fetch_add(1, Ordering::SeqCst);
                    let old = link.swap(&fresh);
                    drop(old); // may collect an object another thread made
                }
                orcgc::flush_thread();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    link.store_null();
    orcgc::flush_thread();
    assert_eq!(
        drops_outer.load(Ordering::SeqCst),
        made.load(Ordering::SeqCst)
    );
}

#[test]
fn guard_clone_is_deep_sharing_not_reprotection() {
    let p = make_orc(1234u64);
    let clones: Vec<_> = (0..64).map(|_| p.clone()).collect();
    for c in &clones {
        assert_eq!(**c, 1234);
        assert!(c.same_object(&p));
    }
    // 64 clones share ONE hazard slot: plenty of slots remain for fresh
    // guards (MAX_HPS is 80, so 70 fresh loads would otherwise blow up).
    let link = OrcAtomic::new(&p);
    let fresh: Vec<_> = (0..70).map(|_| link.load()).collect();
    assert_eq!(fresh.len(), 70);
    drop(fresh);
    drop(clones);
    drop(p);
    drop(link);
}

#[test]
fn slot_exhaustion_panics_with_clear_message() {
    let result = std::thread::spawn(|| {
        let link = OrcAtomic::new(&make_orc(1u64));
        let mut guards = Vec::new();
        for _ in 0..200 {
            guards.push(link.load()); // each load claims a fresh slot
        }
    })
    .join();
    let err = result.expect_err("must panic on slot exhaustion");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("hazard slots"),
        "panic message should mention hazard slots: {msg}"
    );
}

#[test]
fn null_and_poison_guards_cost_no_slots() {
    let null_link: OrcAtomic<u64> = OrcAtomic::null();
    let poison_link: OrcAtomic<u64> = OrcAtomic::poisoned();
    // Far more than MAX_HPS concurrent guards: fine, none hold a slot.
    let guards: Vec<_> = (0..500)
        .map(|i| {
            if i % 2 == 0 {
                null_link.load()
            } else {
                poison_link.load()
            }
        })
        .collect();
    assert!(guards.iter().step_by(2).all(|g| g.is_null()));
    assert!(guards.iter().skip(1).step_by(2).all(|g| g.is_poison()));
}

#[test]
fn orc_diagnostics_expose_link_counts() {
    let p = make_orc(7u64);
    let w0 = p.orc_word().unwrap();
    assert_eq!(orcgc::word::link_count(w0), 0);
    let l1 = OrcAtomic::new(&p);
    assert_eq!(orcgc::word::link_count(p.orc_word().unwrap()), 1);
    let l2 = OrcAtomic::new(&p);
    assert_eq!(orcgc::word::link_count(p.orc_word().unwrap()), 2);
    drop(l1);
    assert_eq!(orcgc::word::link_count(p.orc_word().unwrap()), 1);
    drop(l2);
    assert_eq!(orcgc::word::link_count(p.orc_word().unwrap()), 0);
}

#[test]
fn store_tagged_preserves_mark_semantics() {
    let (drops, p) = probe();
    let link = OrcAtomic::new(&p);
    // Install the same object with a mark: counter-neutral overall.
    link.store_tagged(&p, orc_util::marked::MARK);
    assert!(orc_util::marked::is_marked(link.load_raw()));
    let g = link.load();
    assert!(g.is_marked());
    assert!(g.same_object(&p));
    drop(g);
    drop(p);
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(link);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}
