//! Michael–Scott queue with OrcGC — the paper's Algorithm 1. No retire,
//! no protect: the annotations (`make_orc`, `OrcAtomic`, `OrcPtr`) are the
//! entire integration.
//!
//! `dequeue` deviates from the listing in two lines:
//!
//! * It compares `node` with `tail.load_raw()` instead of a guard on
//!   `tail`, as the manual `MsQueue` does. `node`'s guard keeps its
//!   address from being reused, so the raw word cannot match by accident,
//!   and the dequeue saves a hazard slot claim and release.
//! * Its head CAS moves `node.next`'s link into `head` and poisons
//!   `node.next` (`OrcAtomic::cas_moving`). A dequeued node otherwise
//!   keeps counting its successor, so a guard held on it by a slow or
//!   preempted thread keeps alive every node dequeued after it — an
//!   unbounded chain. Only the winner of the head CAS writes `node.next`
//!   after it (it is not null, so no enqueuer's `next` CAS succeeds), so
//!   the successor's count moves with the link and is never touched.
//!   `tail` is past `node` by then, so a stale enqueuer's `next` or `tail`
//!   CAS on `node`, and a stale dequeuer's head CAS, fail as they would
//!   have without the poison.
//!
//! The head CAS un-counts the last link of `node`, which `dequeue`'s own
//! guard still pins; the un-count claims `node` in the same CAS and holds
//! the claim on that guard's slot, whose drop frees `node` in one retire
//! pass. Both loops re-read a link into the guard
//! they already hold (`load_into`), so a retry keeps its hazard slot.

use crate::ConcurrentQueue;
use orc_util::CachePadded;
use orcgc::{make_orc, OrcAtomic, OrcPtr};
use std::cell::UnsafeCell;

struct Node<T> {
    item: UnsafeCell<Option<T>>,
    next: OrcAtomic<Node<T>>,
}

// SAFETY: `item` is written before `make_orc` publishes the node and taken
// once, by the thread whose head CAS made the node the sentinel; no two
// threads touch the cell at once, so `T: Send` suffices.
unsafe impl<T: Send> Sync for Node<T> {}
// SAFETY: the node owns its `T` and otherwise holds an `OrcAtomic`;
// `T: Send` lets the item leave with whichever thread dequeues or frees it.
unsafe impl<T: Send> Send for Node<T> {}

impl<T: Send> Node<T> {
    fn new(item: Option<T>) -> Self {
        Self {
            item: UnsafeCell::new(item),
            next: OrcAtomic::null(),
        }
    }
}

/// Michael–Scott MPMC queue under OrcGC (paper Algorithm 1). `head` and
/// `tail` sit on lines of their own, as in the manual `MsQueue`.
pub struct MsQueueOrc<T: Send + Sync> {
    head: CachePadded<OrcAtomic<Node<T>>>,
    tail: CachePadded<OrcAtomic<Node<T>>>,
}

assert_ends_apart!(MsQueueOrc<u64>);

impl<T: Send + Sync> MsQueueOrc<T> {
    pub fn new() -> Self {
        let sentinel = make_orc(Node::new(None));
        Self {
            head: CachePadded::new(OrcAtomic::new(&sentinel)),
            tail: CachePadded::new(OrcAtomic::new(&sentinel)),
        }
    }

    pub fn enqueue(&self, item: T) {
        let new_node = make_orc(Node::new(Some(item)));
        let mut ltail = self.tail.load();
        loop {
            let lnext = ltail.next.load();
            if lnext.is_null() {
                if ltail.next.cas(&lnext, &new_node) {
                    self.tail.cas(&ltail, &new_node);
                    return;
                }
            } else {
                self.tail.cas(&ltail, &lnext);
            }
            self.tail.load_into(&mut ltail);
        }
    }

    pub fn dequeue(&self) -> Option<T> {
        let mut node: OrcPtr<Node<T>> = self.head.load();
        // `node`'s guard keeps its address from being reused, so a raw
        // compare with `tail` cannot be fooled.
        while !node.is_object(self.tail.load_raw()) {
            let lnext = node.next.load();
            if lnext.is_null() {
                // Tail is lagging behind a half-finished enqueue; retry.
                self.head.load_into(&mut node);
                continue;
            }
            // `node.next` ends poisoned: a guard still held on `node` pins
            // `node` alone, not the chain dequeued after it (module docs).
            if self.head.cas_moving(&node, &lnext, &node.next) {
                // SAFETY: `lnext` is the new sentinel; its item is ours
                // exclusively (we won the head CAS) and it stays protected
                // by the guard.
                return unsafe { (*lnext.item.get()).take() };
            }
            self.head.load_into(&mut node);
        }
        None
    }
}

impl<T: Send + Sync> Default for MsQueueOrc<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> ConcurrentQueue<T> for MsQueueOrc<T> {
    fn enqueue(&self, item: T) {
        MsQueueOrc::enqueue(self, item)
    }

    fn dequeue(&self) -> Option<T> {
        MsQueueOrc::dequeue(self)
    }

    fn name(&self) -> &'static str {
        "MSQueue-OrcGC"
    }
}

// No Drop impl: dropping `head`/`tail` un-counts the sentinel, which
// cascades down the remaining chain automatically — the whole point.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::queue_tests;
    use orc_util::atomics::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo() {
        queue_tests::fifo(&MsQueueOrc::new(), 1_000);
    }

    #[test]
    fn interleaved_enq_deq() {
        let q = MsQueueOrc::new();
        for round in 0..50 {
            q.enqueue(round * 2);
            q.enqueue(round * 2 + 1);
            assert_eq!(q.dequeue(), Some(round * 2));
            assert_eq!(q.dequeue(), Some(round * 2 + 1));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn drop_reclaims_residual_chain() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q = MsQueueOrc::new();
            for _ in 0..100 {
                q.enqueue(Probe(drops.clone()));
            }
            for _ in 0..30 {
                let _ = q.dequeue();
            }
        }
        orcgc::flush_thread();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            100,
            "all items (dequeued + residual) must drop exactly once"
        );
    }

    /// A guard held on a dequeued node pins that node alone: every node
    /// dequeued after it is freed while the guard is still held.
    #[test]
    fn a_held_guard_pins_one_dequeued_node_not_the_chain() {
        let q = MsQueueOrc::new();
        let held = q.head.load();
        let live = || orc_util::track::thread().live_objects();
        let before = live();
        for i in 0..10_000u64 {
            q.enqueue(i);
            assert_eq!(q.dequeue(), Some(i));
        }
        // `before` counts the held node; the current sentinel is new.
        let retained = live() - before;
        assert!(retained <= 2, "{retained} nodes outlive their dequeue");
        drop(held);
        assert_eq!(live() - before, 0, "the held node goes with its guard");
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        queue_tests::mpmc_no_loss_no_dup(Arc::new(MsQueueOrc::new()), 10_000);
    }

    #[test]
    fn mixed_roles() {
        queue_tests::mixed_roles(Arc::new(MsQueueOrc::new()), 4, 2_000);
    }

    #[test]
    fn per_thread_fifo_is_preserved() {
        // With a single producer, even many consumers must observe the
        // producer's order: each consumed value per producer is increasing.
        let q = Arc::new(MsQueueOrc::new());
        let n = 20_000u64;
        let q2 = q.clone();
        let done = Arc::new(orc_util::atomics::AtomicBool::new(false));
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                q2.enqueue(i);
            }
        });
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    loop {
                        match q.dequeue() {
                            Some(v) => seen.push(v),
                            None => {
                                if done.load(Ordering::SeqCst) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        producer.join().unwrap();
        done.store(true, Ordering::SeqCst);
        for c in consumers {
            let seen = c.join().unwrap();
            assert!(
                seen.windows(2).all(|w| w[0] < w[1]),
                "single-producer order violated within a consumer"
            );
        }
    }
}
