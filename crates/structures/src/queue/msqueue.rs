//! Michael–Scott queue under a manual reclamation scheme.
//!
//! The classic two-hazard-pointer deployment (Michael 2004, Figure 5): one
//! slot protects the head/tail snapshot, a second protects `next` during
//! dequeue. `retire` is called on the old sentinel after a successful head
//! swing — the one place the MS queue makes a node unreachable.

// orc-lint: allow-file(seqcst, published algorithm: the paper's pseudocode assumes SC atomics and the linearizability argument quantifies over that order; see DESIGN.md §13.2)

use crate::ConcurrentQueue;
use orc_util::atomics::{AtomicPtr, Ordering};
use orc_util::CachePadded;
use reclaim::{as_word, Smr};
use std::cell::UnsafeCell;

struct Node<T> {
    item: UnsafeCell<Option<T>>,
    next: AtomicPtr<Node<T>>,
}

// SAFETY: `item` is written before the node is published and taken once,
// by the thread whose head CAS made the node the sentinel; no two threads
// touch the cell at once, so `T: Send` suffices.
unsafe impl<T: Send> Sync for Node<T> {}
// SAFETY: the node owns its `T` and otherwise holds an atomic link;
// `T: Send` lets the item leave with whichever thread dequeues or frees it.
unsafe impl<T: Send> Send for Node<T> {}

impl<T> Node<T> {
    fn new(item: Option<T>) -> Self {
        Self {
            item: UnsafeCell::new(item),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

/// Michael–Scott MPMC queue, generic over the reclamation scheme.
///
/// `head` and `tail` sit on lines of their own, so an enqueue's tail CAS
/// does not invalidate a dequeuer's `head`, nor the reverse.
pub struct MsQueue<T, S: Smr> {
    head: CachePadded<AtomicPtr<Node<T>>>,
    tail: CachePadded<AtomicPtr<Node<T>>>,
    smr: S,
}

assert_ends_apart!(MsQueue<u64, reclaim::Leaky>);

// SAFETY: `AtomicPtr` is `Sync` for any pointee, so the auto impl would
// not bound `T`; this one does. The queue hands items between threads but
// never shares one (see `Node`), links are dereferenced only under the
// scheme's protection, and `S: Smr` is `Send + Sync`.
unsafe impl<T: Send, S: Smr> Sync for MsQueue<T, S> {}
// SAFETY: as for `Sync`: moving the queue moves the items it owns.
unsafe impl<T: Send, S: Smr> Send for MsQueue<T, S> {}

impl<T: Send, S: Smr> MsQueue<T, S> {
    pub fn new(smr: S) -> Self {
        let sentinel = smr.alloc(Node::new(None));
        Self {
            head: CachePadded::new(AtomicPtr::new(sentinel)),
            tail: CachePadded::new(AtomicPtr::new(sentinel)),
            smr,
        }
    }

    /// The scheme instance (for flushing/metrics in benches).
    pub fn smr(&self) -> &S {
        &self.smr
    }

    pub fn enqueue(&self, item: T) {
        let node = self.smr.alloc(Node::new(Some(item)));
        self.smr.begin_op();
        loop {
            let ltail = self.smr.protect_ptr(0, &self.tail);
            // SAFETY: `ltail` is protected by slot 0, so the node is live.
            let lnext = unsafe { (*ltail).next.load(Ordering::SeqCst) };
            if self.tail.load(Ordering::SeqCst) != ltail {
                continue;
            }
            if lnext.is_null() {
                // SAFETY: `ltail` is still protected by slot 0 and validated
                // against `self.tail` above.
                if unsafe { &(*ltail).next }
                    .compare_exchange(
                        std::ptr::null_mut(),
                        node,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    let _ =
                        self.tail
                            .compare_exchange(ltail, node, Ordering::SeqCst, Ordering::SeqCst);
                    break;
                }
            } else {
                let _ =
                    self.tail
                        .compare_exchange(ltail, lnext, Ordering::SeqCst, Ordering::SeqCst);
            }
        }
        self.smr.end_op();
    }

    pub fn dequeue(&self) -> Option<T> {
        self.smr.begin_op();
        let result = loop {
            let lhead = self.smr.protect_ptr(0, &self.head);
            // SAFETY: `lhead` is protected by slot 0, so its link is live.
            let lnext = self.smr.protect(1, as_word(unsafe { &(*lhead).next })) as *mut Node<T>;
            if self.head.load(Ordering::SeqCst) != lhead {
                continue;
            }
            if lnext.is_null() {
                break None;
            }
            let ltail = self.tail.load(Ordering::SeqCst);
            if lhead == ltail {
                // Tail is lagging: help swing it before the head passes it.
                let _ =
                    self.tail
                        .compare_exchange(ltail, lnext, Ordering::SeqCst, Ordering::SeqCst);
                continue;
            }
            if self
                .head
                .compare_exchange(lhead, lnext, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // SAFETY: we won the head CAS, so lnext is the new sentinel
                // and its item is ours exclusively (still protected, slot 1).
                let item = unsafe { (*(*lnext).item.get()).take() };
                // SAFETY: the head CAS unlinked `lhead`; this thread is its
                // unique unlinker, so it is retired exactly once.
                unsafe { self.smr.retire(lhead) };
                break item;
            }
        };
        self.smr.end_op();
        result
    }
}

impl<S: Smr> crate::traits::SmrQueue<S> for MsQueue<u64, S> {
    fn with_smr(smr: S) -> Self {
        MsQueue::new(smr)
    }
}

impl<T: Send, S: Smr> ConcurrentQueue<T> for MsQueue<T, S> {
    fn enqueue(&self, item: T) {
        MsQueue::enqueue(self, item)
    }

    fn dequeue(&self) -> Option<T> {
        MsQueue::dequeue(self)
    }

    fn name(&self) -> &'static str {
        "MSQueue"
    }
}

impl<T, S: Smr> Drop for MsQueue<T, S> {
    fn drop(&mut self) {
        // Exclusive access: walk and free every node, sentinel included.
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            // SAFETY: `&mut self` in Drop gives exclusive access; every node
            // reachable from head is live.
            let next = unsafe { (*p).next.load(Ordering::Relaxed) };
            // SAFETY: same exclusivity — nothing else can free this node.
            unsafe { self.smr.dealloc_now(p) };
            p = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim::SchemeKind;
    use std::sync::Arc;

    fn fifo_smoke<S: Smr>(smr: S) {
        let q = MsQueue::new(smr);
        assert_eq!(q.dequeue(), None);
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        q.smr().flush();
    }

    #[test]
    fn fifo_under_every_scheme() {
        for kind in SchemeKind::ALL {
            fifo_smoke(kind.build());
        }
    }

    #[test]
    fn drop_frees_residual_nodes() {
        struct Probe(Arc<orc_util::atomics::AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, orc_util::atomics::Ordering::SeqCst);
            }
        }
        let drops = Arc::new(orc_util::atomics::AtomicUsize::new(0));
        {
            let q = MsQueue::new(SchemeKind::Hp.build());
            for _ in 0..10 {
                q.enqueue(Probe(drops.clone()));
            }
            let _ = q.dequeue();
        }
        assert_eq!(drops.load(orc_util::atomics::Ordering::SeqCst), 10);
    }

    fn mpmc_stress<S: Smr + Clone>(smr: S, name: &str) {
        let q = Arc::new(MsQueue::new(smr));
        let producers = 2;
        let consumers = 2;
        let per = 10_000u64;
        let total: u64 = (0..producers as u64 * per).sum();
        let sum = Arc::new(orc_util::atomics::AtomicU64::new(0));
        let got = Arc::new(orc_util::atomics::AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.enqueue(p as u64 * per + i);
                }
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
                        // Yield, not spin: consumers busy-spinning on an
                        // empty queue starve the producers on single-core
                        // hosts and the test hangs.
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            sum.load(Ordering::SeqCst),
            total,
            "{name}: dequeued-sum mismatch (lost or duplicated items)"
        );
        assert_eq!(q.dequeue(), None);
        q.smr().flush();
    }

    #[test]
    fn mpmc_stress_every_scheme() {
        for kind in SchemeKind::ALL {
            mpmc_stress(kind.build(), kind.name());
        }
    }

    #[test]
    fn no_leaks_after_stress() {
        for kind in SchemeKind::ALL {
            if !kind.reclaims() {
                continue;
            }
            let smr = kind.build();
            mpmc_stress(smr.clone(), &format!("{kind}-leakcheck"));
            smr.flush();
            assert_eq!(smr.unreclaimed(), 0, "{kind}");
        }
    }
}
