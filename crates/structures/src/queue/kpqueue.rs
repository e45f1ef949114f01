//! Kogan–Petrank wait-free MPMC queue (PPoPP 2011) under OrcGC.
//!
//! Every operation announces an `OpDesc` in a per-thread `state` array and
//! helps all operations with lower-or-equal phase numbers, making both
//! `enqueue` and `dequeue` wait-free. The queue is the paper's flagship
//! example of §2's *first obstacle*: descriptors and nodes acquire multiple
//! incoming references that are unlinked in interleaving-dependent order,
//! so no manual scheme can place a `retire` call — the original publication
//! ran without any reclamation. With OrcGC, both the nodes *and the helping
//! descriptors* are collected automatically: `state` entries are
//! `OrcAtomic<OpDesc>`, descriptors hold their node through an inner
//! `OrcAtomic`, and superseded descriptors vanish when their last hard link
//! is replaced.

// orc-lint: allow-file(seqcst, published algorithm: the paper's pseudocode assumes SC atomics and the linearizability argument quantifies over that order; see DESIGN.md §13.2)

use crate::ConcurrentQueue;
use orc_util::atomics::{AtomicI64, Ordering};
use orc_util::registry;
use orcgc::{make_orc, OrcAtomic};
use std::cell::UnsafeCell;

struct Node<T> {
    item: UnsafeCell<Option<T>>,
    next: OrcAtomic<Node<T>>,
    enq_tid: i64,
    deq_tid: AtomicI64,
}

// SAFETY: `item` is written before the node is published and taken once,
// by the one dequeuer whose descriptor owns the preceding sentinel; no two
// threads touch the cell at once, so `T: Send` suffices.
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

struct OpDesc<T: Send + Sync> {
    phase: u64,
    pending: bool,
    enqueue: bool,
    node: OrcAtomic<Node<T>>,
}

/// Kogan–Petrank wait-free queue with OrcGC reclamation.
pub struct KpQueueOrc<T: Send + Sync> {
    head: OrcAtomic<Node<T>>,
    tail: OrcAtomic<Node<T>>,
    state: Box<[OrcAtomic<OpDesc<T>>]>,
}

impl<T: Send + Sync> KpQueueOrc<T> {
    pub fn new() -> Self {
        let sentinel = make_orc(Node::new(None, -1));
        let state = (0..registry::MAX_THREADS)
            .map(|_| {
                let desc = make_orc(OpDesc {
                    phase: 0,
                    pending: false,
                    enqueue: true,
                    node: OrcAtomic::null(),
                });
                OrcAtomic::new(&desc)
            })
            .collect();
        Self {
            head: OrcAtomic::new(&sentinel),
            tail: OrcAtomic::new(&sentinel),
            state,
        }
    }

    fn max_phase(&self) -> u64 {
        let mut max = 0;
        let wm = registry::registered_watermark();
        for s in self.state.iter().take(wm) {
            let d = s.load();
            if let Some(d) = d.as_ref() {
                max = max.max(d.phase);
            }
        }
        max
    }

    fn is_still_pending(&self, i: usize, phase: u64) -> bool {
        let d = self.state[i].load();
        d.as_ref().is_some_and(|d| d.pending && d.phase <= phase)
    }

    fn help(&self, phase: u64) {
        let wm = registry::registered_watermark();
        for i in 0..wm.min(self.state.len()) {
            let desc = self.state[i].load();
            let Some(d) = desc.as_ref() else { continue };
            if d.pending && d.phase <= phase {
                if d.enqueue {
                    self.help_enq(i, phase);
                } else {
                    self.help_deq(i, phase);
                }
            }
        }
    }

    pub fn enqueue(&self, item: T) {
        let tid = registry::tid();
        let phase = self.max_phase() + 1;
        let node = make_orc(Node::new(Some(item), tid as i64));
        let desc = make_orc(OpDesc {
            phase,
            pending: true,
            enqueue: true,
            node: OrcAtomic::new(&node),
        });
        self.state[tid].store(&desc);
        self.help(phase);
        self.help_finish_enq();
    }

    fn help_enq(&self, i: usize, phase: u64) {
        while self.is_still_pending(i, phase) {
            let last = self.tail.load();
            let next = last.next.load();
            if last.raw() != self.tail.load_raw() {
                continue;
            }
            if next.is_null() {
                if self.is_still_pending(i, phase) {
                    let desc = self.state[i].load();
                    let Some(d) = desc.as_ref() else { continue };
                    let node = d.node.load();
                    if node.is_null() {
                        continue;
                    }
                    if last.next.cas(&next, &node) {
                        self.help_finish_enq();
                        return;
                    }
                }
            } else {
                self.help_finish_enq();
            }
        }
    }

    fn help_finish_enq(&self) {
        let last = self.tail.load();
        let next = last.next.load();
        if next.is_null() {
            return;
        }
        let enq_tid = next.enq_tid;
        if enq_tid >= 0 {
            let enq_tid = enq_tid as usize;
            let cur = self.state[enq_tid].load();
            if last.raw() == self.tail.load_raw()
                && cur
                    .as_ref()
                    .is_some_and(|d| d.node.load_raw() == next.raw())
            {
                let d = cur.as_ref().unwrap();
                let new_desc = make_orc(OpDesc {
                    phase: d.phase,
                    pending: false,
                    enqueue: true,
                    node: OrcAtomic::new(&next),
                });
                // Clear pending BEFORE advancing the tail: helpers re-read
                // pending after reading the tail, so no node is linked
                // twice.
                self.state[enq_tid].cas(&cur, &new_desc);
                self.tail.cas(&last, &next);
            }
        } else {
            // Sentinel (enq_tid = -1) can only be `next` transiently via
            // re-insertion races that cannot occur here; still, advance.
            self.tail.cas(&last, &next);
        }
    }

    pub fn dequeue(&self) -> Option<T> {
        let tid = registry::tid();
        let phase = self.max_phase() + 1;
        let desc = make_orc(OpDesc {
            phase,
            pending: true,
            enqueue: false,
            node: OrcAtomic::null(),
        });
        self.state[tid].store(&desc);
        self.help(phase);
        self.help_finish_deq();
        // Extract the result from our (now completed) descriptor.
        let d = self.state[tid].load();
        let d = d.as_ref().expect("own descriptor vanished");
        let node = d.node.load();
        if node.is_null() {
            return None; // linearized on empty
        }
        // `node` is the old sentinel we dequeued; the value travels in its
        // successor (which became the new sentinel).
        let next = node.next.load();
        // SAFETY: exclusive take — we are the unique thread whose descriptor
        // owns `node`, and `next` is guard-protected.
        let item = unsafe { (*next.item.get()).take() };
        debug_assert!(item.is_some(), "dequeued item taken twice");
        item
    }

    fn help_deq(&self, i: usize, phase: u64) {
        while self.is_still_pending(i, phase) {
            let first = self.head.load();
            let last = self.tail.load();
            let next = first.next.load();
            if first.raw() != self.head.load_raw() {
                continue;
            }
            if first.raw() == last.raw() {
                if next.is_null() {
                    // Empty queue: complete i with a null node.
                    let cur = self.state[i].load();
                    let Some(d) = cur.as_ref() else { continue };
                    if last.raw() == self.tail.load_raw() && self.is_still_pending(i, phase) {
                        let new_desc = make_orc(OpDesc {
                            phase: d.phase,
                            pending: false,
                            enqueue: false,
                            node: OrcAtomic::null(),
                        });
                        self.state[i].cas(&cur, &new_desc);
                    }
                } else {
                    // Tail lagging behind an in-flight enqueue: help it.
                    self.help_finish_enq();
                }
            } else {
                let cur = self.state[i].load();
                let Some(d) = cur.as_ref() else { continue };
                if !self.is_still_pending(i, phase) {
                    break;
                }
                if first.raw() == self.head.load_raw() && d.node.load_raw() != first.raw() {
                    let new_desc = make_orc(OpDesc {
                        phase: d.phase,
                        pending: true,
                        enqueue: false,
                        node: OrcAtomic::new(&first),
                    });
                    if !self.state[i].cas(&cur, &new_desc) {
                        continue;
                    }
                }
                let _ = first.deq_tid.compare_exchange(
                    -1,
                    i as i64,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                self.help_finish_deq();
            }
        }
    }

    fn help_finish_deq(&self) {
        let first = self.head.load();
        let next = first.next.load();
        let deq_tid = first.deq_tid.load(Ordering::SeqCst);
        if deq_tid < 0 {
            return;
        }
        let deq_tid = deq_tid as usize;
        let cur = self.state[deq_tid].load();
        if first.raw() == self.head.load_raw() && !next.is_null() {
            let Some(d) = cur.as_ref() else { return };
            let node = d.node.load();
            let new_desc = make_orc(OpDesc {
                phase: d.phase,
                pending: false,
                enqueue: false,
                node: if node.is_null() {
                    OrcAtomic::null()
                } else {
                    OrcAtomic::new(&node)
                },
            });
            // Complete the op BEFORE swinging the head (same discipline as
            // the enqueue side).
            self.state[deq_tid].cas(&cur, &new_desc);
            self.head.cas(&first, &next);
        }
    }
}

impl<T: Send + Sync> Default for KpQueueOrc<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> ConcurrentQueue<T> for KpQueueOrc<T> {
    fn enqueue(&self, item: T) {
        KpQueueOrc::enqueue(self, item)
    }

    fn dequeue(&self) -> Option<T> {
        KpQueueOrc::dequeue(self)
    }

    fn name(&self) -> &'static str {
        "KPQueue-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::queue_tests;
    use std::sync::Arc;

    #[test]
    fn fifo() {
        queue_tests::fifo(&KpQueueOrc::new(), 500);
    }

    #[test]
    fn empty_dequeues_between_phases() {
        let q = KpQueueOrc::new();
        for round in 0..20 {
            assert_eq!(q.dequeue(), None);
            q.enqueue(round);
            assert_eq!(q.dequeue(), Some(round));
        }
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        queue_tests::mpmc_no_loss_no_dup(Arc::new(KpQueueOrc::new()), 3_000);
    }

    #[test]
    fn mixed_roles() {
        queue_tests::mixed_roles(Arc::new(KpQueueOrc::new()), 4, 2_000);
    }
}
