//! Michael–Scott queue with OrcGC — the paper's Algorithm 1, line for
//! line. No retire, no protect: the annotations (`make_orc`, `OrcAtomic`,
//! `OrcPtr`) are the entire integration.

use crate::ConcurrentQueue;
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

/// Michael–Scott MPMC queue under OrcGC (paper Algorithm 1).
pub struct MsQueueOrc<T: Send + Sync> {
    head: OrcAtomic<Node<T>>,
    tail: OrcAtomic<Node<T>>,
}

impl<T: Send + Sync> MsQueueOrc<T> {
    pub fn new() -> Self {
        let sentinel = make_orc(Node::new(None));
        Self {
            head: OrcAtomic::new(&sentinel),
            tail: OrcAtomic::new(&sentinel),
        }
    }

    pub fn enqueue(&self, item: T) {
        let new_node = make_orc(Node::new(Some(item)));
        loop {
            let ltail = self.tail.load();
            let lnext = ltail.next.load();
            if lnext.is_null() {
                if ltail.next.cas(&lnext, &new_node) {
                    self.tail.cas(&ltail, &new_node);
                    return;
                }
            } else {
                self.tail.cas(&ltail, &lnext);
            }
        }
    }

    pub fn dequeue(&self) -> Option<T> {
        let mut node: OrcPtr<Node<T>> = self.head.load();
        while node != self.tail.load() {
            let lnext = node.next.load();
            if lnext.is_null() {
                // Tail is lagging behind a half-finished enqueue; retry.
                node = self.head.load();
                continue;
            }
            if self.head.cas(&node, &lnext) {
                // SAFETY: `lnext` is the new sentinel; its item is ours
                // exclusively (we won the head CAS) and it stays protected
                // by the guard.
                return unsafe { (*lnext.item.get()).take() };
            }
            node = self.head.load();
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
    use orc_util::atomics::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = MsQueueOrc::new();
        assert_eq!(q.dequeue(), None);
        for i in 0..1000 {
            q.enqueue(i);
        }
        for i in 0..1000 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
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

    #[test]
    fn mpmc_stress_no_loss_no_dup() {
        let q = Arc::new(MsQueueOrc::new());
        let producers = 2;
        let consumers = 2;
        let per = 10_000u64;
        let expected: u64 = (0..producers as u64 * per).sum();
        let sum = Arc::new(AtomicU64::new(0));
        let got = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.enqueue(p as u64 * per + i);
                }
                orcgc::flush_thread();
            }));
        }
        for _ in 0..consumers {
            let q = q.clone();
            let sum = sum.clone();
            let got = got.clone();
            handles.push(std::thread::spawn(move || {
                let want = producers as u64 * per;
                while got.load(Ordering::SeqCst) < want {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, Ordering::SeqCst);
                        got.fetch_add(1, Ordering::SeqCst);
                    } else {
                        orc_util::atomics::spin_hint();
                    }
                }
                orcgc::flush_thread();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::SeqCst), expected);
        assert_eq!(q.dequeue(), None);
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
