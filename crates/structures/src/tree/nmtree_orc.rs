//! Natarajan–Mittal external BST with OrcGC annotations.
//!
//! Deletion is edge-based: the deleter *flags* (low tag bit) the edge from
//! the parent to the victim leaf, *tags* (second tag bit) the edge to the
//! sibling, and finally swings the ancestor's edge from the successor
//! straight to the sibling — unlinking parent and leaf (and, when helping
//! compressed several pending deletions, a short chain of them) in one
//! CAS. With OrcGC, that CAS is the entire reclamation story: the swing
//! drops the successor subtree's hard link and the unreachable chain
//! collapses by cascade.
//!
//! The swing's expected value is the seek's guard on the successor, so
//! the claim its un-count takes is held on that guard's slot, and the
//! guard's last release frees the successor and cascades through the
//! chain below it in one retire pass. That pass frees a node only if no
//! guard still protects it, so a thread lets go of the guards below the
//! successor first: the leaf's (the seek's and `remove`'s `victim`), then
//! the parent's. A leaf still guarded when the cascade reaches it is
//! parked on the guard's slot and freed by a second pass at its release.
//! `SeekRec` declares its fields leaf first, so they drop in that order.

use super::SKey;
use crate::ConcurrentSet;
use orc_util::marked::{is_marked as is_flagged, is_tagged, mark as flag, tag, tag_bits, unmark};
use orcgc::{make_orc, OrcAtomic, OrcPtr};

pub(crate) struct Node<K: Ord + Copy + Send + Sync> {
    key: SKey<K>,
    left: OrcAtomic<Node<K>>,
    right: OrcAtomic<Node<K>>,
}

impl<K: Ord + Copy + Send + Sync + 'static> Node<K> {
    fn leaf(key: SKey<K>) -> Self {
        Self {
            key,
            left: OrcAtomic::null(),
            right: OrcAtomic::null(),
        }
    }
}

/// The seek's window. Fields drop in declaration order, leaf first: the
/// guards below the successor go before the successor's own (module
/// docs).
struct SeekRec<K: Ord + Copy + Send + Sync> {
    leaf: OrcPtr<Node<K>>,
    parent: OrcPtr<Node<K>>,
    /// The child of `ancestor` on the search path.
    successor: OrcPtr<Node<K>>,
    /// Deepest node whose edge toward the key is untagged.
    ancestor: OrcPtr<Node<K>>,
}

/// Natarajan–Mittal lock-free external BST under OrcGC.
pub struct NmTreeOrc<K: Ord + Copy + Send + Sync> {
    /// The R sentinel (key `inf2`); never replaced.
    root: OrcAtomic<Node<K>>,
}

impl<K> NmTreeOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        let l0 = make_orc(Node::leaf(SKey::Inf0));
        let l1 = make_orc(Node::leaf(SKey::Inf1));
        let l2 = make_orc(Node::leaf(SKey::Inf2));
        let s = make_orc(Node {
            key: SKey::Inf1,
            left: OrcAtomic::new(&l0),
            right: OrcAtomic::new(&l1),
        });
        let r = make_orc(Node {
            key: SKey::Inf2,
            left: OrcAtomic::new(&s),
            right: OrcAtomic::new(&l2),
        });
        Self {
            root: OrcAtomic::new(&r),
        }
    }

    fn child_link<'a>(node: &'a Node<K>, key: &SKey<K>) -> &'a OrcAtomic<Node<K>> {
        if key < &node.key {
            &node.left
        } else {
            &node.right
        }
    }

    fn seek(&self, key: &SKey<K>) -> SeekRec<K> {
        let mut ancestor = self.root.load();
        let mut parent = ancestor.left.load();
        let mut successor = parent.clone();
        let mut leaf = parent.left.load();
        // The child of `leaf`; between hops, the guard that left the
        // window, whose hazard slot the next hop's `load_into` reuses.
        let mut next = OrcPtr::null();
        loop {
            let Some(leaf_node) = leaf.as_ref() else {
                // Defensive: an external tree never routes to null, but a
                // torn view during helping restarts cleanly.
                return self.seek(key);
            };
            Self::child_link(leaf_node, key).load_into(&mut next);
            if next.is_null() {
                // `leaf` really is a leaf.
                return SeekRec {
                    leaf,
                    parent,
                    successor,
                    ancestor,
                };
            }
            // `leaf.raw()` is the link word of the edge parent -> leaf.
            if !is_tagged(leaf.raw()) {
                std::mem::swap(&mut ancestor, &mut parent);
                successor = leaf.clone();
            }
            // parent, leaf, next = leaf, next, (old ancestor or parent).
            std::mem::swap(&mut parent, &mut leaf);
            std::mem::swap(&mut leaf, &mut next);
        }
    }

    /// Completes a (possibly foreign) pending deletion around `key`.
    /// Returns true if this call's CAS performed the unlink.
    fn cleanup(&self, key: &SKey<K>, s: &SeekRec<K>) -> bool {
        let Some(ancestor) = s.ancestor.as_ref() else {
            return false;
        };
        let Some(parent) = s.parent.as_ref() else {
            return false;
        };
        let (child_link, mut sibling_link) = if key < &parent.key {
            (&parent.left, &parent.right)
        } else {
            (&parent.right, &parent.left)
        };
        if !is_flagged(child_link.load_raw()) {
            // The flag is on the other edge: the victim is the sibling.
            sibling_link = child_link;
        }
        // Tag the sibling edge so it cannot change under the swing.
        loop {
            let w = sibling_link.load_raw();
            if is_tagged(w) {
                break;
            }
            if sibling_link.cas_tag_only(w, tag(w)) {
                break;
            }
        }
        let sibling = sibling_link.load();
        // Swing the ancestor's edge from the (clean) successor to the
        // sibling. The tag is dropped, but a *flag* on the sibling edge
        // (a pending deletion of the sibling itself) must be carried
        // over, or that deletion would lose its injection.
        let carried = if is_flagged(sibling.raw()) {
            orc_util::marked::MARK
        } else {
            0
        };
        let anc_link = Self::child_link(ancestor, key);
        anc_link.cas_tagged(&s.successor, &sibling, carried)
    }

    pub fn add(&self, key: K) -> bool {
        let skey = SKey::Fin(key);
        // Allocated once, by the first seek that finds the key absent.
        let mut new_leaf = None;
        loop {
            let s = self.seek(&skey);
            let leaf_node = s.leaf.as_ref().expect("seek returned null leaf");
            if leaf_node.key == skey {
                return false;
            }
            let new_leaf = new_leaf.get_or_insert_with(|| make_orc(Node::leaf(skey)));
            let parent_node = s.parent.as_ref().unwrap();
            let child_link = Self::child_link(parent_node, &skey);
            // Internal node: key = max of the two, left = smaller side.
            let internal = if skey < leaf_node.key {
                make_orc(Node {
                    key: leaf_node.key,
                    left: OrcAtomic::new(new_leaf),
                    right: OrcAtomic::new(&s.leaf),
                })
            } else {
                make_orc(Node {
                    key: skey,
                    left: OrcAtomic::new(&s.leaf),
                    right: OrcAtomic::new(new_leaf),
                })
            };
            if child_link.cas_tagged(&s.leaf, &internal, 0) {
                return true;
            }
            // Edge busy: help a pending deletion of this very leaf.
            let cur = child_link.load_raw();
            if unmark(cur) == unmark(s.leaf.raw()) && tag_bits(cur) != 0 {
                self.cleanup(&skey, &s);
            }
        }
    }

    pub fn remove(&self, key: &K) -> bool {
        let skey = SKey::Fin(*key);
        let mut injecting = true;
        // Guard on the victim leaf: keeps it alive through cleanup mode so
        // the identity comparison below cannot be fooled by address reuse.
        let mut victim: Option<OrcPtr<Node<K>>> = None;
        loop {
            let s = self.seek(&skey);
            let leaf_node = s.leaf.as_ref().expect("seek returned null leaf");
            if injecting {
                if leaf_node.key != skey {
                    return false;
                }
                let parent_node = s.parent.as_ref().unwrap();
                let child_link = Self::child_link(parent_node, &skey);
                let clean = unmark(s.leaf.raw());
                // Injection: flag the edge to the victim leaf.
                if child_link.cas_tag_only(clean, flag(clean)) {
                    injecting = false;
                    victim = Some(s.leaf.clone());
                    if self.cleanup(&skey, &s) {
                        // The leaf's guards go before the parent's.
                        drop(victim);
                        return true;
                    }
                } else {
                    let cur = child_link.load_raw();
                    if unmark(cur) == clean && tag_bits(cur) != 0 {
                        self.cleanup(&skey, &s);
                    }
                }
            } else {
                // Cleanup mode: someone may have finished our deletion.
                let vw = victim.as_ref().map_or(0, |v| unmark(v.raw()));
                if unmark(s.leaf.raw()) != vw {
                    return true;
                }
                if self.cleanup(&skey, &s) {
                    drop(victim);
                    return true;
                }
            }
        }
    }

    pub fn contains(&self, key: &K) -> bool {
        let skey = SKey::Fin(*key);
        let s = self.seek(&skey);
        s.leaf.as_ref().is_some_and(|l| l.key == skey)
    }

    /// Number of finite keys; quiescent callers only (unguarded walk, so
    /// arbitrarily deep trees don't exhaust hazard slots).
    pub fn len(&self) -> usize {
        fn count<K: Ord + Copy + Send + Sync + 'static>(n: Option<&Node<K>>) -> usize {
            let Some(node) = n else { return 0 };
            // SAFETY: quiescent-caller contract — no concurrent writers, so
            // unguarded child loads observe only live nodes.
            let l = unsafe { node.left.load_quiescent() };
            if l.is_none() {
                return usize::from(node.key.fin().is_some());
            }
            // SAFETY: same quiescence for the right child.
            count(l) + count(unsafe { node.right.load_quiescent() })
        }
        // SAFETY: same quiescence for the root load.
        count(unsafe { self.root.load_quiescent() })
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord + Copy + Send + Sync + 'static> Default for NmTreeOrc<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ConcurrentSet<K> for NmTreeOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    fn add(&self, key: K) -> bool {
        NmTreeOrc::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        NmTreeOrc::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        NmTreeOrc::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "NMTree-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::set_tests;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        set_tests::sequential_semantics(&NmTreeOrc::new());
    }

    #[test]
    fn randomized_model_check() {
        set_tests::randomized_against_model(&NmTreeOrc::new(), 23, 6_000);
    }

    #[test]
    fn ordered_and_reverse_insertions() {
        let t = NmTreeOrc::new();
        for k in 0..200u64 {
            assert!(t.add(k));
        }
        assert_eq!(t.len(), 200);
        for k in (0..200u64).rev() {
            assert!(t.remove(&k));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn disjoint_stress() {
        set_tests::disjoint_key_stress(Arc::new(NmTreeOrc::new()), 4);
    }

    #[test]
    fn contended_stress() {
        set_tests::contended_key_stress(Arc::new(NmTreeOrc::new()), 4);
    }

    #[test]
    fn no_leak_after_churn() {
        let live_before = orc_util::track::thread().live_objects();
        {
            let t = NmTreeOrc::new();
            for round in 0..3 {
                for k in 0..400u64 {
                    t.add(k);
                }
                for k in 0..400u64 {
                    t.remove(&k);
                }
                let _ = round;
            }
        }
        orcgc::flush_thread();
        let live_after = orc_util::track::thread().live_objects();
        assert_eq!(live_after - live_before, 0, "NM-tree leaked nodes");
    }
}
