//! Natarajan–Mittal external BST under the manual reclamation schemes.
//!
//! Same structure as [`NmTreeOrc`](super::NmTreeOrc), but deploying a
//! pointer-based manual scheme soundly requires a stricter traversal
//! discipline. A hazard protection is only trustworthy when obtained from
//! an edge that was **clean** (unflagged, untagged) at validation time:
//! every outgoing edge of a node unlinked by a deletion swing is flagged
//! or tagged, so descending only through clean edges guarantees each
//! protected node was still reachable when protected. When the seek meets
//! a dirty edge it stops *without dereferencing the target*, helps the
//! pending deletion (cleanup only dereferences the already-protected
//! parent and ancestor), and restarts from the root.
//!
//! A pleasant consequence: seeks never descend past a pending deletion, so
//! `successor == parent` always holds and every cleanup retires exactly
//! its `{parent, victim}` pair — no chain-compression leaks. The cost is
//! extra restarts under deletion contention, part of the manual-scheme
//! overhead the paper's Figures 7–8 measure. Hazard slots: 0 = descending
//! child, 1 = leaf, 2 = parent, 3 = successor, 4 = ancestor; blind copies
//! only ever go to higher slot indices (the pass-the-pointer scan order).

// orc-lint: allow-file(seqcst, published algorithm: the paper's pseudocode assumes SC atomics and the linearizability argument quantifies over that order; see DESIGN.md §13.2)

use super::SKey;
use crate::ConcurrentSet;
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::marked::{is_marked as is_flagged, mark as flag, tag, tag_bits, unmark};
use reclaim::Smr;

const HP_CHILD: usize = 0;
const HP_LEAF: usize = 1;
const HP_PARENT: usize = 2;
const HP_SUCC: usize = 3;
const HP_ANC: usize = 4;

struct Node<K: Ord + Copy> {
    key: SKey<K>,
    left: AtomicUsize,
    right: AtomicUsize,
}

impl<K: Ord + Copy> Node<K> {
    fn leaf(key: SKey<K>) -> Self {
        Self {
            key,
            left: AtomicUsize::new(0),
            right: AtomicUsize::new(0),
        }
    }

    fn child_link(&self, key: &SKey<K>) -> &AtomicUsize {
        if key < &self.key {
            &self.left
        } else {
            &self.right
        }
    }
}

/// Successful seek: all four nodes protected, reached via clean edges.
struct SeekRec {
    ancestor: usize,
    successor: usize,
    parent: usize,
    leaf: usize,
}

/// Seek outcome: either a trustworthy window, or "a deletion is pending on
/// the edge out of `parent`" (the dirty edge's target must not be
/// dereferenced).
enum Seek {
    Clean(SeekRec),
    Help(SeekRec),
}

/// Natarajan–Mittal lock-free external BST, generic over the scheme.
pub struct NmTree<K: Ord + Copy, S: Smr> {
    root: usize,
    smr: S,
    _pd: std::marker::PhantomData<K>,
}

// SAFETY: the tree owns its `Node<K>`s through integer link words, so
// moving it moves their keys: `K: Send`. `S: Smr` is `Send + Sync`.
unsafe impl<K: Ord + Copy + Send, S: Smr> Send for NmTree<K, S> {}
// SAFETY: `&self` operations on many threads read keys in shared nodes and
// free unlinked ones, so `K: Send + Sync`; every link dereference runs
// under the scheme's protection.
unsafe impl<K: Ord + Copy + Send + Sync, S: Smr> Sync for NmTree<K, S> {}

impl<K, S> NmTree<K, S>
where
    K: Ord + Copy + Send + Sync + 'static,
    S: Smr,
{
    pub fn new(smr: S) -> Self {
        let l0 = smr.alloc(Node::<K>::leaf(SKey::Inf0)) as usize;
        let l1 = smr.alloc(Node::<K>::leaf(SKey::Inf1)) as usize;
        let l2 = smr.alloc(Node::<K>::leaf(SKey::Inf2)) as usize;
        let s_node = smr.alloc(Node::<K> {
            key: SKey::Inf1,
            left: AtomicUsize::new(l0),
            right: AtomicUsize::new(l1),
        }) as usize;
        let r_node = smr.alloc(Node::<K> {
            key: SKey::Inf2,
            left: AtomicUsize::new(s_node),
            right: AtomicUsize::new(l2),
        }) as usize;
        Self {
            root: r_node,
            smr,
            _pd: std::marker::PhantomData,
        }
    }

    pub fn smr(&self) -> &S {
        &self.smr
    }

    #[inline]
    fn node(word: usize) -> *const Node<K> {
        unmark(word) as *const Node<K>
    }

    /// Descend through clean edges only. On a dirty edge, return
    /// `Seek::Help` with the protected (ancestor, successor, parent) and
    /// the dirty edge's raw target in `leaf` (NOT dereferenceable).
    fn seek(&self, key: &SKey<K>) -> Seek {
        // R and S are immortal sentinels.
        let r = self.root;
        self.smr.publish(HP_ANC, r);
        // SAFETY: R is an immortal sentinel; it is never retired.
        let s_node = unmark(unsafe { (*Self::node(r)).left.load(Ordering::SeqCst) });
        self.smr.publish(HP_SUCC, s_node);
        self.smr.publish(HP_PARENT, s_node);
        let mut ancestor = r;
        let mut successor = s_node;
        let mut parent = s_node;
        // First edge: S.left (fresh protect validates it).
        // SAFETY: `parent` is S, an immortal sentinel.
        let s_left = unsafe { &(*Self::node(parent)).left };
        let edge = self.smr.protect(HP_LEAF, s_left);
        if tag_bits(edge) != 0 {
            return Seek::Help(SeekRec {
                ancestor,
                successor,
                parent,
                leaf: unmark(edge),
            });
        }
        let mut leaf = unmark(edge);
        loop {
            // SAFETY: `leaf` was protected (slot HP_LEAF) through a clean
            // edge, so the node is live while we take its child link.
            let link = unsafe { (*Self::node(leaf)).child_link(key) };
            let child_edge = self.smr.protect(HP_CHILD, link);
            if unmark(child_edge) == 0 {
                return Seek::Clean(SeekRec {
                    ancestor,
                    successor,
                    parent,
                    leaf,
                });
            }
            // Internal node: descend. Shuffle roles upward (all copies to
            // strictly higher slot indices).
            ancestor = parent;
            successor = leaf;
            self.smr.publish(HP_ANC, parent); // 2 -> 4
            self.smr.publish(HP_SUCC, leaf); // 1 -> 3
            parent = leaf;
            self.smr.publish(HP_PARENT, leaf); // 1 -> 2
            if tag_bits(child_edge) != 0 {
                return Seek::Help(SeekRec {
                    ancestor,
                    successor,
                    parent,
                    leaf: unmark(child_edge),
                });
            }
            leaf = unmark(child_edge);
            self.smr.publish(HP_LEAF, leaf); // 0 -> 1
        }
    }

    /// Completes the pending deletion below `s.parent`. Only dereferences
    /// `s.ancestor` and `s.parent` (both protected-from-reachable).
    /// Returns true if this call's swing performed the unlink.
    fn cleanup(&self, key: &SKey<K>, s: &SeekRec) -> bool {
        let ancestor = Self::node(s.ancestor);
        let parent = Self::node(s.parent);
        // SAFETY: `s.parent` is protected by HP_PARENT from a reachable
        // edge, so the parent node is live.
        let (child_link, sibling_link) = unsafe {
            if key < &(*parent).key {
                (&(*parent).left, &(*parent).right)
            } else {
                (&(*parent).right, &(*parent).left)
            }
        };
        // The victim hangs off the flagged edge; the swing keeps the other
        // side.
        let key_side_flagged = is_flagged(child_link.load(Ordering::SeqCst));
        let (victim_link, sibling_link) = if key_side_flagged {
            (child_link, sibling_link)
        } else {
            (sibling_link, child_link)
        };
        if !is_flagged(victim_link.load(Ordering::SeqCst)) {
            // No pending deletion (stale record): nothing to help.
            return false;
        }
        let victim = unmark(victim_link.load(Ordering::SeqCst));
        // Tag the sibling edge so it cannot change under the swing.
        loop {
            let w = sibling_link.load(Ordering::SeqCst);
            if tag_bits(w) & orc_util::marked::TAG != 0 {
                break;
            }
            if sibling_link
                .compare_exchange(w, tag(w), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        let sib_word = sibling_link.load(Ordering::SeqCst);
        // Drop the tag but carry a flag (pending deletion of the sibling)
        // across the swing.
        let sibling = if is_flagged(sib_word) {
            flag(unmark(sib_word))
        } else {
            unmark(sib_word)
        };
        // SAFETY: `s.ancestor` is protected by HP_ANC, so it is live.
        let anc_link = unsafe { (*ancestor).child_link(key) };
        if anc_link
            .compare_exchange(s.successor, sibling, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            // SAFETY: exactly one swing succeeds per parent (the expected
            // value can never reappear while helpers protect it), so the
            // unlinked pair is retired exactly once.
            unsafe {
                self.smr.retire(s.parent as *mut Node<K>);
                self.smr.retire(victim as *mut Node<K>);
            }
            true
        } else {
            false
        }
    }

    pub fn add(&self, key: K) -> bool {
        let skey = SKey::Fin(key);
        self.smr.begin_op();
        let mut new_leaf: *mut Node<K> = std::ptr::null_mut();
        let mut internal: *mut Node<K> = std::ptr::null_mut();
        let added = loop {
            let s = match self.seek(&skey) {
                Seek::Help(rec) => {
                    self.cleanup(&skey, &rec);
                    continue;
                }
                Seek::Clean(rec) => rec,
            };
            // SAFETY: a clean seek leaves `s.leaf` protected by HP_LEAF.
            let leaf_key = unsafe { (*Self::node(s.leaf)).key };
            if leaf_key == skey {
                break false;
            }
            let parent = Self::node(s.parent);
            // SAFETY: `s.parent` is protected by HP_PARENT.
            let child_link = unsafe { (*parent).child_link(&skey) };
            if new_leaf.is_null() {
                new_leaf = self.smr.alloc(Node::leaf(skey));
            }
            if internal.is_null() {
                internal = self.smr.alloc(Node::<K> {
                    key: SKey::Inf0, // overwritten below
                    left: AtomicUsize::new(0),
                    right: AtomicUsize::new(0),
                });
            }
            // SAFETY: `internal` is thread-private until the CAS publishes
            // it below.
            unsafe {
                let i = &mut *internal;
                if skey < leaf_key {
                    i.key = leaf_key;
                    i.left.store(new_leaf as usize, Ordering::Relaxed);
                    i.right.store(s.leaf, Ordering::Relaxed);
                } else {
                    i.key = skey;
                    i.left.store(s.leaf, Ordering::Relaxed);
                    i.right.store(new_leaf as usize, Ordering::Relaxed);
                }
            }
            if child_link
                .compare_exchange(
                    s.leaf,
                    internal as usize,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break true;
            }
        };
        if !added {
            // SAFETY: the nodes were never published (the winning break
            // above is the only path that shares them): free immediately.
            unsafe {
                if !new_leaf.is_null() {
                    self.smr.dealloc_now(new_leaf);
                }
                if !internal.is_null() {
                    self.smr.dealloc_now(internal);
                }
            }
        }
        self.smr.end_op();
        added
    }

    pub fn remove(&self, key: &K) -> bool {
        let skey = SKey::Fin(*key);
        self.smr.begin_op();
        let mut injecting = true;
        let mut victim = 0usize;
        let removed = loop {
            let (s, dirty) = match self.seek(&skey) {
                Seek::Help(rec) => (rec, true),
                Seek::Clean(rec) => (rec, false),
            };
            if injecting {
                if dirty {
                    self.cleanup(&skey, &s);
                    continue;
                }
                // SAFETY: a clean seek leaves `s.leaf` protected (HP_LEAF).
                let leaf_key = unsafe { (*Self::node(s.leaf)).key };
                if leaf_key != skey {
                    break false;
                }
                let parent = Self::node(s.parent);
                // SAFETY: `s.parent` is protected by HP_PARENT.
                let child_link = unsafe { (*parent).child_link(&skey) };
                if child_link
                    .compare_exchange(s.leaf, flag(s.leaf), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    injecting = false;
                    victim = s.leaf;
                    if self.cleanup(&skey, &s) {
                        break true;
                    }
                }
            } else if dirty {
                // A pending deletion on our path: if it is ours, finishing
                // it finishes us; either way, help and re-check.
                let ours = s.leaf == victim;
                if self.cleanup(&skey, &s) && ours {
                    break true;
                }
            } else {
                // Clean seek: our flagged victim is no longer reachable —
                // someone completed the deletion.
                break true;
            }
        };
        self.smr.end_op();
        removed
    }

    pub fn contains(&self, key: &K) -> bool {
        let skey = SKey::Fin(*key);
        self.smr.begin_op();
        let found = loop {
            match self.seek(&skey) {
                Seek::Help(rec) => {
                    self.cleanup(&skey, &rec);
                }
                Seek::Clean(rec) => {
                    // SAFETY: a clean seek leaves `rec.leaf` protected.
                    break unsafe { (*Self::node(rec.leaf)).key } == skey;
                }
            }
        };
        self.smr.end_op();
        found
    }

    /// Finite-key count; quiescent callers only.
    pub fn len(&self) -> usize {
        fn count<K: Ord + Copy>(word: usize) -> usize {
            if unmark(word) == 0 {
                return 0;
            }
            let n = unmark(word) as *const Node<K>;
            // SAFETY: quiescent-caller contract — no concurrent mutation,
            // so every reachable node is live.
            unsafe {
                let l = (*n).left.load(Ordering::Relaxed);
                if unmark(l) == 0 {
                    usize::from((*n).key.fin().is_some())
                } else {
                    count::<K>(l) + count::<K>((*n).right.load(Ordering::Relaxed))
                }
            }
        }
        count::<K>(self.root)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord + Copy, S: Smr> Drop for NmTree<K, S> {
    fn drop(&mut self) {
        fn free<K: Ord + Copy, S: Smr>(smr: &S, word: usize) {
            if unmark(word) == 0 {
                return;
            }
            let n = unmark(word) as *mut Node<K>;
            // SAFETY: `&mut self` in Drop gives exclusive access; each node
            // is reachable exactly once, so it is freed exactly once.
            unsafe {
                free::<K, S>(smr, (*n).left.load(Ordering::Relaxed));
                free::<K, S>(smr, (*n).right.load(Ordering::Relaxed));
                smr.dealloc_now(n);
            }
        }
        free::<K, S>(&self.smr, self.root);
    }
}

impl<S: Smr> crate::traits::SmrSet<S> for NmTree<u64, S> {
    fn with_smr(smr: S) -> Self {
        NmTree::new(smr)
    }
}

impl<K, S> ConcurrentSet<K> for NmTree<K, S>
where
    K: Ord + Copy + Send + Sync + 'static,
    S: Smr,
{
    fn add(&self, key: K) -> bool {
        NmTree::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        NmTree::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        NmTree::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "NMTree"
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
            set_tests::sequential_semantics(&NmTree::new(kind.build()));
        }
    }

    #[test]
    fn randomized_model_check() {
        for (i, kind) in SchemeKind::ALL.into_iter().enumerate() {
            set_tests::randomized_against_model(&NmTree::new(kind.build()), 31 + i as u64, 6_000);
        }
    }

    #[test]
    fn disjoint_stress_every_scheme() {
        for kind in SchemeKind::ALL {
            set_tests::disjoint_key_stress(Arc::new(NmTree::new(kind.build())), 4);
        }
    }

    #[test]
    fn contended_stress_every_scheme() {
        for kind in SchemeKind::ALL {
            set_tests::contended_key_stress(Arc::new(NmTree::new(kind.build())), 4);
        }
    }

    #[test]
    fn exact_reclamation_when_quiescent() {
        let t = NmTree::new(SchemeKind::Hp.build_with_threshold(8));
        for k in 0..256u64 {
            assert!(t.add(k));
        }
        for k in 0..256u64 {
            assert!(t.remove(&k));
        }
        t.smr().flush();
        assert_eq!(
            t.smr().unreclaimed(),
            0,
            "every unlinked pair must be retired and reclaimed"
        );
        assert!(t.is_empty());
    }
}
