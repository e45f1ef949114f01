//! TurnQueue — wait-free MPMC queue with turn-based helping, under OrcGC.
//!
//! A reconstruction of the Correia–Ramalhete wait-free queue
//! ("A Wait-Free Queue with Wait-Free Memory Reclamation", PPoPP '17
//! poster — reference [26] of the OrcGC paper). The full algorithm was
//! published only as a poster; this implementation rebuilds it from the
//! published description around its central idea — *turns*: helpers
//! deterministically pick the next announced request to serve in
//! round-robin order keyed to the node currently at the tail (head), so
//! every request is served within `maxThreads` queue transitions and both
//! operations are wait-free without Kogan–Petrank-style phase scans.
//!
//! Completion uses the proven complete-before-advance discipline:
//!
//! * **Enqueue** requests are published nodes in `enqueuers[tid]`; a
//!   request is cleared (CAS to null) *before* the tail advances past its
//!   node, and helpers re-read request slots *after* reading the tail —
//!   together this makes double-linking impossible.
//! * **Dequeue** requests are descriptors in `dequeuers[tid]`; a helper
//!   provisionally installs the observed sentinel into the descriptor
//!   (CAS), *then* stamps the sentinel with the request's tid, then
//!   completes the stamped winner before swinging the head — the
//!   Kogan–Petrank completion order, which closes the race between an
//!   "empty" verdict and a concurrent assignment.
//!
//! Like the KP queue, nodes and descriptors acquire references that are
//! unlinked in interleaving-dependent order — the reason the original
//! pairs this queue with wait-free reclamation and the OrcGC paper lists
//! it among the structures manual schemes cannot serve.

// orc-lint: allow-file(seqcst, published algorithm: the paper's pseudocode assumes SC atomics and the linearizability argument quantifies over that order; see DESIGN.md §13.2)

use crate::ConcurrentQueue;
use orc_util::atomics::{AtomicI64, Ordering};
use orc_util::registry;
use orcgc::{make_orc, OrcAtomic, OrcPtr};
use std::cell::UnsafeCell;

struct Node<T> {
    item: UnsafeCell<Option<T>>,
    next: OrcAtomic<Node<T>>,
    enq_tid: i64,
    /// tid of the dequeuer that wins this node once it is the sentinel
    /// being dequeued.
    deq_tid: AtomicI64,
}

// SAFETY: `item` is written before the node is published and taken once,
// by the unique dequeuer stamped on the preceding sentinel; no two threads
// touch the cell at once, so `T: Send` suffices.
unsafe impl<T: Send> Sync for Node<T> {}
// SAFETY: the node owns its `T` and otherwise holds atomics; `T: Send`
// lets the item leave with whichever thread dequeues or frees it.
unsafe impl<T: Send> Send for Node<T> {}

impl<T: Send> Node<T> {
    fn new(item: Option<T>, enq_tid: i64) -> Self {
        Self {
            item: UnsafeCell::new(item),
            next: OrcAtomic::null(),
            enq_tid,
            deq_tid: AtomicI64::new(-1),
        }
    }
}

/// A dequeue descriptor. `pending == false` completes the request:
/// with the dequeued old sentinel in `node`, or null for EMPTY.
struct DeqDesc<T: Send + Sync> {
    pending: bool,
    node: OrcAtomic<Node<T>>,
}

/// Wait-free "turn" queue (reconstruction of \[26\]) under OrcGC.
pub struct TurnQueueOrc<T: Send + Sync> {
    head: OrcAtomic<Node<T>>,
    tail: OrcAtomic<Node<T>>,
    enqueuers: Box<[OrcAtomic<Node<T>>]>,
    dequeuers: Box<[OrcAtomic<DeqDesc<T>>]>,
}

impl<T: Send + Sync> TurnQueueOrc<T> {
    pub fn new() -> Self {
        let sentinel = make_orc(Node::new(None, -1));
        let mt = registry::MAX_THREADS;
        Self {
            head: OrcAtomic::new(&sentinel),
            tail: OrcAtomic::new(&sentinel),
            enqueuers: (0..mt).map(|_| OrcAtomic::null()).collect(),
            dequeuers: (0..mt)
                .map(|_| {
                    let done = make_orc(DeqDesc {
                        pending: false,
                        node: OrcAtomic::null(),
                    });
                    OrcAtomic::new(&done)
                })
                .collect(),
        }
    }

    /// Clears the appended node's request and advances the tail —
    /// clear-before-advance, the linchpin of the no-double-link argument.
    fn finish_enq(&self, ltail: &OrcPtr<Node<T>>, lnext: &OrcPtr<Node<T>>) {
        let lnext_tid = lnext.enq_tid;
        if lnext_tid >= 0 {
            let _ = self.enqueuers[lnext_tid as usize].cas_null(lnext.raw());
        }
        self.tail.cas(ltail, lnext);
    }

    pub fn enqueue(&self, item: T) {
        let tid = registry::tid();
        let mt = registry::registered_watermark().max(tid + 1);
        let my_node = make_orc(Node::new(Some(item), tid as i64));
        self.enqueuers[tid].store(&my_node);
        loop {
            // Done once our request slot no longer holds our node.
            if self.enqueuers[tid].load_raw() != my_node.raw() {
                return;
            }
            let ltail = self.tail.load();
            let lnext = ltail.next.load();
            if !lnext.is_null() {
                self.finish_enq(&ltail, &lnext);
                continue;
            }
            // Whose turn? First pending request after the tail node's
            // enqueuer, round-robin — slots re-read AFTER the tail.
            let start = (ltail.enq_tid + 1).max(0) as usize;
            let mut chosen: Option<OrcPtr<Node<T>>> = None;
            for j in 0..mt {
                let cand = self.enqueuers[(start + j) % mt].load();
                if !cand.is_null() && cand.raw() != ltail.raw() {
                    chosen = Some(cand);
                    break;
                }
            }
            let Some(req) = chosen else { continue };
            if ltail.next.cas(&lnext, &req) {
                self.finish_enq(&ltail, &req);
            }
        }
    }

    pub fn dequeue(&self) -> Option<T> {
        let tid = registry::tid();
        let my_desc = make_orc(DeqDesc {
            pending: true,
            node: OrcAtomic::null(),
        });
        self.dequeuers[tid].store(&my_desc);
        loop {
            let cur = self.dequeuers[tid].load();
            if cur.as_ref().is_some_and(|d| !d.pending) {
                break;
            }
            self.help_deq_round();
        }
        // Make sure the head is swung past our node before we return (a
        // later operation of ours must observe the advanced head, or a
        // helper could mis-complete it against the stale sentinel).
        self.finish_deq();
        // Harvest.
        let done = self.dequeuers[tid].load();
        let d = done.as_ref().expect("own dequeue descriptor vanished");
        let node = d.node.load();
        if node.is_null() {
            return None;
        }
        // `node` is the old sentinel assigned to us; its successor carries
        // the value.
        let next = node.next.load();
        // SAFETY: exclusive take — we are the unique stamped winner for
        // `node`, and `next` is guard-protected.
        let item = unsafe { (*next.item.get()).take() };
        debug_assert!(item.is_some(), "turn-queue item taken twice");
        item
    }

    /// One helping round for dequeues: serve the turn-chosen pending
    /// request, or help a lagging enqueue.
    fn help_deq_round(&self) {
        let mt = registry::registered_watermark().min(self.dequeuers.len());
        let lhead = self.head.load();
        let ltail = self.tail.load();
        let lnext = lhead.next.load();
        if lhead.raw() != self.head.load_raw() {
            return;
        }
        // Turn order: rotate by the sentinel's enqueuer stamp (agreed upon
        // by all helpers; fairness, not safety).
        let start = (lhead.enq_tid + 1).max(0) as usize;
        let chosen = (0..mt).map(|j| (start + j) % mt).find_map(|d| {
            let cand = self.dequeuers[d].load();
            if cand.as_ref().is_some_and(|c| c.pending) {
                Some((d, cand))
            } else {
                None
            }
        });
        let Some((d, cur)) = chosen else { return };
        if lhead.raw() == ltail.raw() {
            if lnext.is_null() {
                // Queue empty: complete d with the EMPTY verdict — the CAS
                // fails harmlessly if a provisional node was installed
                // meanwhile (KP ordering).
                if ltail.raw() == self.tail.load_raw() {
                    let done = make_orc(DeqDesc {
                        pending: false,
                        node: OrcAtomic::null(),
                    });
                    self.dequeuers[d].cas(&cur, &done);
                }
            } else {
                // Tail lags an in-flight enqueue: help it first.
                self.finish_enq(&ltail, &lnext);
            }
            return;
        }
        // Non-empty: install the sentinel provisionally, stamp, finish.
        let cur_node_raw = cur.as_ref().map_or(0, |c| c.node.load_raw());
        if cur_node_raw != lhead.raw() {
            if lhead.raw() != self.head.load_raw() {
                return;
            }
            let prov = make_orc(DeqDesc {
                pending: true,
                node: OrcAtomic::new(&lhead),
            });
            if !self.dequeuers[d].cas(&cur, &prov) {
                return;
            }
        }
        let _ = lhead
            .deq_tid
            .compare_exchange(-1, d as i64, Ordering::SeqCst, Ordering::SeqCst);
        self.finish_deq();
    }

    /// Completes the stamped winner of the current sentinel, then swings
    /// the head — complete-before-advance.
    fn finish_deq(&self) {
        let first = self.head.load();
        let next = first.next.load();
        let winner = first.deq_tid.load(Ordering::SeqCst);
        if winner < 0 {
            return;
        }
        let winner = winner as usize;
        let cur = self.dequeuers[winner].load();
        if first.raw() == self.head.load_raw() && !next.is_null() {
            let Some(c) = cur.as_ref() else { return };
            if !c.pending {
                // Already completed by another helper; just advance.
                self.head.cas(&first, &next);
                return;
            }
            let node = c.node.load();
            let done = make_orc(DeqDesc {
                pending: false,
                node: if node.is_null() {
                    OrcAtomic::null()
                } else {
                    OrcAtomic::new(&node)
                },
            });
            self.dequeuers[winner].cas(&cur, &done);
            self.head.cas(&first, &next);
        }
    }
}

impl<T: Send + Sync> Default for TurnQueueOrc<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> ConcurrentQueue<T> for TurnQueueOrc<T> {
    fn enqueue(&self, item: T) {
        TurnQueueOrc::enqueue(self, item)
    }

    fn dequeue(&self) -> Option<T> {
        TurnQueueOrc::dequeue(self)
    }

    fn name(&self) -> &'static str {
        "TurnQueue-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::queue_tests;
    use std::sync::Arc;

    #[test]
    fn fifo() {
        queue_tests::fifo(&TurnQueueOrc::new(), 500);
    }

    #[test]
    fn alternating_ops() {
        let q = TurnQueueOrc::new();
        for round in 0..100 {
            q.enqueue(round);
            assert_eq!(q.dequeue(), Some(round));
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        queue_tests::mpmc_no_loss_no_dup(Arc::new(TurnQueueOrc::new()), 3_000);
    }

    #[test]
    fn mixed_roles() {
        queue_tests::mixed_roles(Arc::new(TurnQueueOrc::new()), 4, 1_500);
    }
}
