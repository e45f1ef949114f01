//! # OrcGC — automatic lock-free memory reclamation
//!
//! A from-scratch Rust implementation of the automatic reclamation scheme
//! of *"OrcGC: Automatic Lock-Free Memory Reclamation"* (Andreia Correia,
//! Pedro Ramalhete, Pascal Felber — PPoPP 2021). OrcGC combines
//! per-object **hard-link reference counting** (the `_orc` word) with a
//! **pass-the-pointer** hazard scheme for local references, yielding:
//!
//! * lock-free progress for protection *and* reclamation,
//! * an `O(H·t)` bound on unreclaimed objects,
//! * compatibility with any allocator (the global Rust allocator here),
//! * and zero explicit `protect`/`retire` calls in data-structure code.
//!
//! ## Using it (the paper's §4.1.1 methodology, in Rust)
//!
//! 1. Build nodes with [`make_orc`] instead of `Box::new`.
//! 2. Declare every shared link as [`OrcAtomic<Node>`] instead of
//!    `AtomicPtr<Node>`.
//! 3. Hold loaded references in [`OrcPtr<Node>`] guards (what
//!    [`OrcAtomic::load`] returns). A traversal that advances a cursor
//!    (`cur = next`) can load into the guard it is letting go of with
//!    [`OrcAtomic::load_into`], which reuses that guard's hazard slot.
//!
//! That is the entire integration surface. The Michael–Scott queue of the
//! paper's Algorithm 1 looks like this:
//!
//! ```
//! use orcgc::{make_orc, OrcAtomic, OrcPtr};
//!
//! struct Node {
//!     item: Option<u64>,
//!     next: OrcAtomic<Node>,
//! }
//!
//! struct Queue {
//!     head: OrcAtomic<Node>,
//!     tail: OrcAtomic<Node>,
//! }
//!
//! impl Queue {
//!     fn new() -> Self {
//!         let sentinel = make_orc(Node { item: None, next: OrcAtomic::null() });
//!         Self { head: OrcAtomic::new(&sentinel), tail: OrcAtomic::new(&sentinel) }
//!     }
//!
//!     fn enqueue(&self, item: u64) {
//!         let node = make_orc(Node { item: Some(item), next: OrcAtomic::null() });
//!         loop {
//!             let ltail = self.tail.load();
//!             let lnext = ltail.next.load();
//!             if lnext.is_null() {
//!                 if ltail.next.cas(&lnext, &node) {
//!                     self.tail.cas(&ltail, &node);
//!                     return;
//!                 }
//!             } else {
//!                 self.tail.cas(&ltail, &lnext);
//!             }
//!         }
//!     }
//!
//!     fn dequeue(&self) -> Option<u64> {
//!         let mut node: OrcPtr<Node> = self.head.load();
//!         loop {
//!             let lnext = node.next.load();
//!             if lnext.is_null() {
//!                 return None;
//!             }
//!             if self.head.cas(&node, &lnext) {
//!                 return lnext.item;
//!             }
//!             node = self.head.load();
//!         }
//!     }
//! }
//!
//! let q = Queue::new();
//! q.enqueue(1);
//! q.enqueue(2);
//! assert_eq!(q.dequeue(), Some(1));
//! assert_eq!(q.dequeue(), Some(2));
//! assert_eq!(q.dequeue(), None);
//! // Dropping `q` cascades: head/tail links un-count, nodes retire, free.
//! ```
//!
//! ## Constraints (paper §4)
//!
//! * Unreachable objects must not form reference **cycles** among
//!   themselves (break cycles before the last unlink).
//! * Unreachable objects must not anchor unbounded chains to reachable
//!   ones (the motivation for CRF-skip's poisoned links).
//! * At most 2²² concurrent hard links per object (22-bit counter).

mod atomic;
mod domain;
mod header;
mod ptr;
pub mod word;

pub use atomic::OrcAtomic;
pub use domain::{domain, Domain, MAX_HPS};
pub use ptr::{is_poison, poison_word, OrcPtr};

use orc_util::registry;
use orc_util::stats::Event;

/// Allocates a tracked object and returns a protected guard to it
/// (the paper's `make_orc<T>()`).
///
/// The object starts with zero hard links; if it is never linked into a
/// structure, dropping the last guard collects it automatically.
pub fn make_orc<T: Send + Sync>(value: T) -> OrcPtr<T> {
    let tid = registry::tid();
    let d = domain();
    let h = header::OrcHeader::alloc(value);
    let idx = d.get_new_idx(tid);
    d.publish_fresh(tid, idx, h);
    OrcPtr::fresh(h, idx, tid)
}

/// Drains the calling thread's free hazard slots and handover entries,
/// finishing any reclamation parked on them. Useful in tests and at
/// quiescent points; never required for the memory bound.
pub fn flush_thread() {
    let tid = registry::tid();
    let d = domain();
    d.stats.bump(tid, Event::Flush);
    d.flush_thread_slots(tid);
}

/// Aggregated reclamation telemetry (orc-stats) for the process-wide OrcGC
/// domain: retires (BRETIRED claims, and never-installed `make_orc`
/// objects freed by their guard's drop), reclaims (deletions plus
/// relinquished claims), retire-scan passes, protect validation retries,
/// handovers, batch-size histogram, the retire→reclaim latency histogram
/// (`delay_p50()`/`delay_p99()`/`delay.max`, stamped at a sampled
/// BRETIRED claim — 1 in 64 per thread — and measured at the actual
/// deletion) and the peak of [`Domain::unreclaimed`]. The counters are
/// exact; all zeros when `ORC_STATS=0`.
///
/// The domain also emits orc-trace events (`orc_util::trace`) for the
/// claim transitions of sampled calls: `OrcZero`, `BRetired`, `Unretire`,
/// plus the shared `Alloc`/`ScanBegin`/`ScanEnd`/`ReclaimBatch`/`Handover`
/// taxonomy, and `ProtectRetry` for every retry — see DESIGN.md §10.
///
/// At quiescence `retires - reclaims == domain().unreclaimed()` holds
/// exactly, mirroring the `Smr::stats` contract of the manual schemes in
/// the `reclaim` crate.
pub fn domain_stats() -> orc_util::stats::StatsSnapshot {
    domain().stats()
}

/// Registers the process-wide OrcGC domain as an orc-obs telemetry
/// source under `label` (series + reclamation watchdog; see
/// `orc_util::obs`). The domain is `'static`, so unlike the manual
/// schemes' `reclaim::observe` guard there is no handle-lifetime hazard
/// — but samples only flow while the returned guard is alive, so keep
/// it for the duration of the observed run.
pub fn observe_domain(label: &str) -> orc_util::obs::Registration {
    orc_util::obs::register(label, domain_stats, || domain().unreclaimed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orc_util::atomics::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Probe(Arc<AtomicUsize>);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn cross_thread_protection_blocks_delete() {
        // A reader protects an object; the writer unlinks it. The object
        // must survive until the reader's guard drops (parked handover).
        let drops = Arc::new(AtomicUsize::new(0));
        struct Node {
            v: u64,
            _probe: Probe,
        }
        let link = Arc::new(OrcAtomic::<Node>::null());
        {
            let p = make_orc(Node {
                v: 9,
                _probe: Probe(drops.clone()),
            });
            link.store(&p);
        }
        let link2 = link.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let drops2 = drops.clone();
        let reader = std::thread::spawn(move || {
            let guard = link2.load();
            tx.send(()).unwrap();
            release_rx.recv().unwrap();
            assert_eq!(guard.v, 9);
            assert_eq!(drops2.load(Ordering::SeqCst), 0);
            drop(guard);
        });
        rx.recv().unwrap();
        link.store_null(); // unlink while the reader holds a guard
        release_tx.send(()).unwrap();
        reader.join().unwrap();
        // Reader's guard drop (on the reader thread) finished reclamation.
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_swap_hammer_is_leak_free_and_safe() {
        let drops = Arc::new(AtomicUsize::new(0));
        let made = Arc::new(AtomicUsize::new(0));
        struct Node {
            v: u64,
            _probe: Probe,
        }
        let link = Arc::new(OrcAtomic::<Node>::null());
        let threads = 4;
        let per = 3_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let link = link.clone();
                let drops = drops.clone();
                let made = made.clone();
                std::thread::spawn(move || {
                    // One reader loads a new guard per read, the other
                    // re-protects one guard in place.
                    let mut g = OrcPtr::null();
                    for i in 0..per {
                        if t % 2 == 0 {
                            let p = make_orc(Node {
                                v: i,
                                _probe: Probe(drops.clone()),
                            });
                            made.fetch_add(1, Ordering::SeqCst);
                            link.store(&p);
                        } else {
                            if t == 1 {
                                g = link.load();
                            } else {
                                link.load_into(&mut g);
                            }
                            if let Some(n) = g.as_ref() {
                                assert!(n.v < per);
                            }
                        }
                    }
                    drop(g);
                    crate::flush_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        link.store_null();
        crate::flush_thread();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            made.load(Ordering::SeqCst),
            "every allocated node must be dropped exactly once"
        );
    }

    #[test]
    fn domain_metrics_track_retirements() {
        let d = domain();
        let p = make_orc(77u64);
        let link = OrcAtomic::new(&p);
        let g = link.load();
        drop(p);
        link.store_null(); // retired, parked on g

        // Counted since this thread's pass ended. A sibling test's pass
        // can hold the shared gauge down for the instant between a free
        // and its claimant's settle (DESIGN.md §6.1 item 5), so the read
        // may be repeated.
        let counted = (0..1_000).any(|_| {
            std::thread::yield_now();
            d.unreclaimed() >= 1
        });
        assert!(counted, "nothing parked on g");
        drop(g);
        drop(link);
    }
}
