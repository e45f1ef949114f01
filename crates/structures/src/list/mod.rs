//! The linked-list sets of the paper's Figures 3–6.
//!
//! * [`MichaelList`] — Michael 2002, generic over the manual schemes
//!   (the structure of Figures 3–4: HP/PTB/PTP/HE/... comparison).
//! * [`MichaelListOrc`] — the same algorithm with OrcGC annotations, and
//!   the core of the three lists below: its file is the only home of the
//!   OrcGC list node, `link_of`, `search`, insert, remove, `len` and the
//!   wait-free lookup walk.
//! * [`HarrisListOrc`] — Harris 2001 *original*: searches traverse marked
//!   (possibly already-retired) nodes and snip whole segments, which
//!   breaks under most manual schemes (paper §2, second obstacle). It
//!   shares the node, `link_of` and `len`; its search, add, remove and
//!   contains are its own.
//! * [`HsListOrc`] — Herlihy–Shavit variant with wait-free lookups that
//!   never restart; retired nodes' links must stay intact. A Michael list
//!   with the wait-free `contains`.
//! * [`TbkpListOrc`] — the Timnat–Braginsky–Kogan–Petrank wait-free list,
//!   reconstructed (see its module docs for the exact scope): a Michael
//!   list whose updates are announced in a descriptor array.

mod harris_orc;
mod hs_orc;
mod michael;
mod michael_orc;
mod tbkp_orc;

pub use harris_orc::HarrisListOrc;
pub use hs_orc::HsListOrc;
pub use michael::MichaelList;
pub use michael_orc::MichaelListOrc;
pub use tbkp_orc::TbkpListOrc;

/// Shared correctness tests run against every set implementation (lists,
/// trees and skip lists alike).
#[cfg(test)]
pub(crate) mod set_tests {
    use crate::ConcurrentSet;
    use orc_util::atomics::{AtomicU64, Ordering};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    pub fn sequential_semantics<S: ConcurrentSet<u64>>(set: &S) {
        assert!(!set.contains(&5));
        assert!(set.add(5));
        assert!(!set.add(5), "duplicate add must fail");
        assert!(set.contains(&5));
        assert!(set.add(3));
        assert!(set.add(7));
        assert!(set.contains(&3));
        assert!(set.contains(&7));
        assert!(!set.contains(&4));
        assert!(set.remove(&5));
        assert!(!set.remove(&5), "double remove must fail");
        assert!(!set.contains(&5));
        assert!(set.contains(&3));
        assert!(set.add(5));
        assert!(set.contains(&5));
    }

    pub fn randomized_against_model<S: ConcurrentSet<u64>>(set: &S, seed: u64, ops: usize) {
        let mut model = BTreeSet::new();
        let mut rng = orc_util::rng::XorShift64::new(seed);
        for _ in 0..ops {
            let key = rng.next_bounded(64);
            match rng.next_bounded(3) {
                0 => assert_eq!(set.add(key), model.insert(key), "add({key})"),
                1 => assert_eq!(set.remove(&key), model.remove(&key), "remove({key})"),
                _ => assert_eq!(set.contains(&key), model.contains(&key), "contains({key})"),
            }
        }
        for key in 0..64 {
            assert_eq!(set.contains(&key), model.contains(&key), "final({key})");
        }
    }

    /// Each thread owns a disjoint key range; all operations on owned keys
    /// must behave as if sequential, while the shared structure is hammered.
    pub fn disjoint_key_stress<S: ConcurrentSet<u64> + 'static>(set: Arc<S>, threads: usize) {
        let per = 400u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let set = set.clone();
                std::thread::spawn(move || {
                    let base = t as u64 * per;
                    for round in 0..3 {
                        for k in base..base + per {
                            assert!(set.add(k), "round {round}: add({k})");
                        }
                        for k in base..base + per {
                            assert!(set.contains(&k), "round {round}: contains({k})");
                        }
                        for k in base..base + per {
                            assert!(set.remove(&k), "round {round}: remove({k})");
                        }
                        for k in base..base + per {
                            assert!(!set.contains(&k), "round {round}: gone({k})");
                        }
                    }
                    orcgc::flush_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Threads race on the SAME keys; add/remove return values must
    /// balance exactly per key.
    pub fn contended_key_stress<S: ConcurrentSet<u64> + 'static>(set: Arc<S>, threads: usize) {
        let keys = 16u64;
        let ops = 3_000;
        let adds = Arc::new(AtomicU64::new(0));
        let removes = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let set = set.clone();
                let adds = adds.clone();
                let removes = removes.clone();
                std::thread::spawn(move || {
                    let mut rng = orc_util::rng::XorShift64::for_thread(t, 99);
                    for _ in 0..ops {
                        let k = rng.next_bounded(keys);
                        if rng.next_bounded(2) == 0 {
                            if set.add(k) {
                                adds.fetch_add(1, Ordering::SeqCst);
                            }
                        } else if set.remove(&k) {
                            removes.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    orcgc::flush_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let residual = (0..keys).filter(|k| set.contains(k)).count() as u64;
        assert_eq!(
            adds.load(Ordering::SeqCst),
            removes.load(Ordering::SeqCst) + residual,
            "successful adds must equal successful removes plus residents"
        );
    }
}
