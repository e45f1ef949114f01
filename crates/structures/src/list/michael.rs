//! Michael's lock-free list-based set (SPAA 2002), generic over the
//! manual reclamation schemes — the structure of the paper's Figures 3–4.
//!
//! This is the hazard-pointer-compatible reformulation of the Harris list:
//! searches *physically unlink* every marked node they pass (so a node is
//! retired as soon as it becomes unreachable, and traversals never walk
//! through retired nodes), using three hazard slots rotated in scan order:
//! slot 0 = next, slot 1 = curr, slot 2 = prev. Rotations only ever copy a
//! protection to a *higher* slot index, as pass-the-pointer requires.

// orc-lint: allow-file(seqcst, published algorithm: the paper's pseudocode assumes SC atomics and the linearizability argument quantifies over that order; see DESIGN.md §13.2)

use crate::ConcurrentSet;
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::marked::{is_marked, mark, unmark};
use reclaim::Smr;

struct Node<K> {
    key: K,
    /// Link word: pointer to the successor plus the Harris deletion mark.
    next: AtomicUsize,
}

/// Outcome of a search: whether the key was found, the address of the link
/// that points at `curr`, and `curr` itself (word form).
struct Window {
    found: bool,
    prev: *const AtomicUsize,
    curr: usize,
}

/// Michael's lock-free ordered set under any [`Smr`] scheme.
pub struct MichaelList<K, S: Smr> {
    head: AtomicUsize,
    smr: S,
    _pd: std::marker::PhantomData<K>,
}

// SAFETY: the list owns its `Node<K>`s through integer link words, so
// moving it moves their keys: `K: Send`. `S: Smr` is `Send + Sync`.
unsafe impl<K: Send, S: Smr> Send for MichaelList<K, S> {}
// SAFETY: `&self` operations on many threads read keys in shared nodes and
// free unlinked ones, so `K: Send + Sync`; every link dereference runs
// under the scheme's protection.
unsafe impl<K: Send + Sync, S: Smr> Sync for MichaelList<K, S> {}

impl<K, S> MichaelList<K, S>
where
    K: Ord + Copy + Send + Sync + 'static,
    S: Smr,
{
    pub fn new(smr: S) -> Self {
        Self {
            head: AtomicUsize::new(0),
            smr,
            _pd: std::marker::PhantomData,
        }
    }

    pub fn smr(&self) -> &S {
        &self.smr
    }

    /// Michael's `find`: positions on the first node with `node.key >= key`,
    /// unlinking (and retiring) every marked node encountered. Leaves
    /// protections: slot 1 on `curr`, slot 2 on the node holding `prev`.
    fn search(&self, key: &K) -> Window {
        'retry: loop {
            let mut prev: *const AtomicUsize = &self.head;
            // SAFETY: `prev` points at `self.head`, which lives as long as `&self`.
            let mut curr = self.smr.protect(1, unsafe { &*prev });
            debug_assert!(!is_marked(curr));
            loop {
                if curr == 0 {
                    return Window {
                        found: false,
                        prev,
                        curr,
                    };
                }
                let node = curr as *const Node<K>;
                // SAFETY: `curr` is non-null and held in slot 1, so the node
                // it addresses cannot be reclaimed while we read its link.
                let next = self.smr.protect(0, unsafe { &(*node).next });
                // Validate that prev still links to curr, unmarked.
                // SAFETY: `prev` is `&self.head` or the link word of the
                // predecessor node still protected by slot 2.
                if unsafe { &*prev }.load(Ordering::SeqCst) != curr {
                    continue 'retry;
                }
                if is_marked(next) {
                    // curr is logically deleted: unlink it here and now.
                    // SAFETY: `prev` is `&self.head` or the slot-2-protected
                    // predecessor's link word; both outlive this CAS.
                    if unsafe { &*prev }
                        .compare_exchange(curr, unmark(next), Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        continue 'retry;
                    }
                    // SAFETY: the CAS above unlinked `curr`; this thread is
                    // its unique unlinker, so it is retired exactly once.
                    unsafe { self.smr.retire(curr as *mut Node<K>) };
                    curr = unmark(next);
                    // The new curr is protected by slot 0; move it up.
                    self.smr.publish(1, curr);
                } else {
                    // SAFETY: `node` is the slot-1-protected, validated `curr`.
                    let nkey = unsafe { &(*node).key };
                    if nkey >= key {
                        return Window {
                            found: nkey == key,
                            prev,
                            curr,
                        };
                    }
                    // Advance: rotate protections upward (0 -> 1 -> 2).
                    self.smr.publish(2, curr);
                    // SAFETY: `node` is `curr`, now protected by slot 2, so
                    // its link word stays valid while it serves as `prev`.
                    prev = unsafe { &(*node).next };
                    curr = next;
                    self.smr.publish(1, curr);
                }
            }
        }
    }

    pub fn add(&self, key: K) -> bool {
        let node = self.smr.alloc(Node {
            key,
            next: AtomicUsize::new(0),
        });
        self.smr.begin_op();
        let inserted = loop {
            let w = self.search(&key);
            if w.found {
                // SAFETY: `node` was never published; this thread owns it and
                // frees it exactly once.
                unsafe { self.smr.dealloc_now(node) };
                break false;
            }
            // SAFETY: `node` is still thread-private until the CAS below.
            unsafe { (*node).next.store(w.curr, Ordering::Relaxed) };
            // SAFETY: `w.prev` is `&self.head` or the link word of the
            // predecessor the search left protected in slot 2.
            if unsafe { &*w.prev }
                .compare_exchange(w.curr, node as usize, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break true;
            }
        };
        self.smr.end_op();
        inserted
    }

    pub fn remove(&self, key: &K) -> bool {
        self.smr.begin_op();
        let removed = loop {
            let w = self.search(key);
            if !w.found {
                break false;
            }
            let node = w.curr as *const Node<K>;
            // SAFETY: `w.curr` is protected by slot 1 since the search.
            let next = unsafe { (*node).next.load(Ordering::SeqCst) };
            if is_marked(next) {
                continue; // concurrently deleted; settle who wins via search
            }
            // Logical deletion: mark the next pointer.
            // SAFETY: `node` is the slot-1-protected `w.curr`.
            if unsafe { &(*node).next }
                .compare_exchange(next, mark(next), Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            // Physical unlink; on failure a future search will do it.
            // SAFETY: `w.prev` is `&self.head` or the slot-2-protected
            // predecessor's link word left by the search.
            if unsafe { &*w.prev }
                .compare_exchange(w.curr, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // SAFETY: our CAS unlinked the node we marked, making this
                // thread its unique unlinker; it is retired exactly once.
                unsafe { self.smr.retire(w.curr as *mut Node<K>) };
            } else {
                let _ = self.search(key);
            }
            break true;
        };
        self.smr.end_op();
        removed
    }

    pub fn contains(&self, key: &K) -> bool {
        self.smr.begin_op();
        let found = self.search(key).found;
        self.smr.end_op();
        found
    }

    /// Number of (unmarked) nodes; quiescent callers only (tests/benches).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut p = self.head.load(Ordering::SeqCst);
        while p != 0 {
            let node = unmark(p) as *const Node<K>;
            // SAFETY: quiescent-caller contract — no concurrent mutation, so
            // every reachable node is live.
            let next = unsafe { (*node).next.load(Ordering::SeqCst) };
            if !is_marked(next) {
                n += 1;
            }
            p = unmark(next);
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K, S: Smr> Drop for MichaelList<K, S> {
    fn drop(&mut self) {
        let mut p = unmark(*self.head.get_mut());
        while p != 0 {
            let node = p as *mut Node<K>;
            // SAFETY: `&mut self` in Drop gives exclusive access; every node
            // still reachable from head is live and freed exactly once.
            let next = unsafe { (*node).next.load(Ordering::Relaxed) };
            // SAFETY: same exclusivity — the node was just unlinked from the
            // traversal and nothing else can free it.
            unsafe { self.smr.dealloc_now(node) };
            p = unmark(next);
        }
    }
}

impl<S: Smr> crate::traits::SmrSet<S> for MichaelList<u64, S> {
    fn with_smr(smr: S) -> Self {
        MichaelList::new(smr)
    }
}

impl<K, S> ConcurrentSet<K> for MichaelList<K, S>
where
    K: Ord + Copy + Send + Sync + 'static,
    S: Smr,
{
    fn add(&self, key: K) -> bool {
        MichaelList::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        MichaelList::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        MichaelList::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "MichaelList"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::set_tests;
    use reclaim::SchemeKind;
    use std::sync::Arc;

    #[test]
    fn semantics_under_every_scheme() {
        for kind in SchemeKind::ALL {
            set_tests::sequential_semantics(&MichaelList::new(kind.build()));
        }
    }

    #[test]
    fn randomized_model_check() {
        for (i, kind) in SchemeKind::ALL.into_iter().enumerate() {
            set_tests::randomized_against_model(
                &MichaelList::new(kind.build()),
                42 + i as u64,
                4_000,
            );
        }
    }

    #[test]
    fn disjoint_stress_every_scheme() {
        for kind in SchemeKind::ALL {
            set_tests::disjoint_key_stress(Arc::new(MichaelList::new(kind.build())), 4);
        }
    }

    #[test]
    fn contended_stress_every_scheme() {
        for kind in SchemeKind::ALL {
            set_tests::contended_key_stress(Arc::new(MichaelList::new(kind.build())), 4);
        }
    }

    #[test]
    fn reclamation_happens_during_run() {
        let list = MichaelList::new(SchemeKind::Hp.build_with_threshold(8));
        for k in 0..512u64 {
            assert!(list.add(k));
        }
        for k in 0..512u64 {
            assert!(list.remove(&k));
        }
        list.smr().flush();
        assert_eq!(
            list.smr().unreclaimed(),
            0,
            "quiescent flush must reclaim every removed node"
        );
        assert!(list.is_empty());
    }
}
