//! Harris's *original* lock-free list (DISC 2001) under OrcGC.
//!
//! Unlike Michael's reformulation, Harris's search traverses *through*
//! marked nodes and snips whole marked segments with a single CAS. A
//! snipped segment is unreachable from the list but its interior nodes
//! still point at each other and at the reachable `right` node — which is
//! precisely why "the correctness [of Harris's list] is lost when
//! integrated with most reclamation schemes" (paper §2, second obstacle):
//! a traverser standing inside the segment keeps walking links of nodes a
//! manual scheme would already have freed. Under OrcGC the traverser's
//! guards keep the segment alive, the segment's own hard links keep its
//! suffix alive, and the whole chain collapses automatically once the last
//! guard leaves. (Segments are bounded, satisfying §4's chain condition.)
//!
//! The node, `link_of` and `len` are
//! [`MichaelListOrc`](crate::list::MichaelListOrc)'s; the search, add,
//! remove and contains here are Harris's own.

use super::michael_orc::{MichaelListOrc, Node};
use crate::ConcurrentSet;
use orc_util::marked::mark;
use orcgc::{make_orc, OrcAtomic, OrcPtr};

/// Harris's original lock-free ordered set with OrcGC annotations.
pub struct HarrisListOrc<K: Send + Sync> {
    list: MichaelListOrc<K>,
}

/// An adjacent pair: when `search` returns, `left`'s link held `right`
/// (unmarked) — so `right`'s word, pinned by its guard, is the expected
/// value of any CAS on that link.
struct SearchResult<K: Send + Sync> {
    /// Last unmarked node with key < target (null guard = head).
    left: OrcPtr<Node<K>>,
    /// First unmarked node with key >= target (null = end of list).
    right: OrcPtr<Node<K>>,
}

impl<K> HarrisListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        Self {
            list: MichaelListOrc::new(),
        }
    }

    /// Harris `search`: find adjacent (left, right); snip the marked
    /// segment between them if there is one.
    fn search(&self, key: &K) -> SearchResult<K> {
        'retry: loop {
            let mut left: OrcPtr<Node<K>> = OrcPtr::null();
            let right;
            // 1. Traverse, tracking the last unmarked node < key and its
            //    successor. The traversal walks THROUGH marked nodes
            //    (their guards keep them alive even if concurrently
            //    unlinked).
            let mut t = self.list.head.load();
            // `left`'s successor as observed — the start of any marked
            // segment — held as a guard of its own (the paper's
            // `left_node_next` is an `orc_ptr` too): `t` walks on, and a
            // bare word here could be snipped by a helper, freed, and
            // handed out again for a new node linked right after `left`,
            // which the step-3 CAS would then silently unlink (ABA).
            let mut left_next = t.clone();
            loop {
                let Some(node) = t.as_ref() else {
                    right = t;
                    break;
                };
                let next = node.next.load();
                if !next.is_marked() {
                    if &node.key >= key {
                        right = t;
                        break;
                    }
                    left_next = next.clone();
                    left = t;
                }
                t = next;
            }
            // 2. If left and right are not adjacent, snip the whole
            //    marked segment [left_next, right) with one CAS on left's
            //    link.
            if !left_next.same_object(&right)
                && !self.list.link_of(&left).cas_tagged(&left_next, &right, 0)
            {
                continue 'retry;
            }
            // 3. Adjacent now — unless right got marked under us.
            if right
                .as_ref()
                .is_some_and(|r| orc_util::marked::is_marked(r.next.load_raw()))
            {
                continue 'retry;
            }
            return SearchResult { left, right };
        }
    }

    pub fn add(&self, key: K) -> bool {
        let node = make_orc(Node {
            key,
            next: OrcAtomic::null(),
        });
        loop {
            let w = self.search(&key);
            if w.right.as_ref().is_some_and(|r| r.key == key) {
                return false;
            }
            node.next.store_tagged(&w.right, 0);
            if self.list.link_of(&w.left).cas_tagged(&w.right, &node, 0) {
                return true;
            }
        }
    }

    pub fn remove(&self, key: &K) -> bool {
        loop {
            let w = self.search(key);
            let Some(rnode) = w.right.as_ref() else {
                return false;
            };
            if &rnode.key != key {
                return false;
            }
            let right_next = rnode.next.load();
            if right_next.is_marked() {
                continue;
            }
            // Logical delete.
            if !rnode
                .next
                .cas_tag_only(right_next.raw(), mark(right_next.raw()))
            {
                continue;
            }
            // Best-effort physical snip; otherwise the next search does it.
            if !self
                .list
                .link_of(&w.left)
                .cas_tagged(&w.right, &right_next, 0)
            {
                let _ = self.search(key);
            }
            return true;
        }
    }

    pub fn contains(&self, key: &K) -> bool {
        let w = self.search(key);
        w.right.as_ref().is_some_and(|r| &r.key == key)
    }

    /// Unmarked-node count; quiescent callers only.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl<K: Ord + Copy + Send + Sync + 'static> Default for HarrisListOrc<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ConcurrentSet<K> for HarrisListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    fn add(&self, key: K) -> bool {
        HarrisListOrc::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        HarrisListOrc::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        HarrisListOrc::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "HarrisList-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::set_tests;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        set_tests::sequential_semantics(&HarrisListOrc::new());
    }

    #[test]
    fn randomized_model_check() {
        set_tests::randomized_against_model(&HarrisListOrc::new(), 11, 5_000);
    }

    #[test]
    fn disjoint_stress() {
        set_tests::disjoint_key_stress(Arc::new(HarrisListOrc::new()), 4);
    }

    #[test]
    fn contended_stress() {
        set_tests::contended_key_stress(Arc::new(HarrisListOrc::new()), 4);
    }

    #[test]
    fn segment_snip_under_batch_removal() {
        // Build a long run of keys, mark-delete them all (logically), then
        // verify a single search snips the segment and the set is empty.
        let list = HarrisListOrc::new();
        for k in 0..128u64 {
            assert!(list.add(k));
        }
        for k in (0..128u64).rev() {
            assert!(list.remove(&k));
        }
        assert!(list.is_empty());
        for k in 0..128u64 {
            assert!(!list.contains(&k));
        }
    }

    #[test]
    fn no_leak_after_churn() {
        let live_before = orc_util::track::thread().live_objects();
        {
            let list = HarrisListOrc::new();
            for round in 0..4 {
                for k in 0..200u64 {
                    list.add(k * 2 + round);
                }
                for k in 0..200u64 {
                    list.remove(&(k * 2 + round));
                }
            }
        }
        orcgc::flush_thread();
        let live_after = orc_util::track::thread().live_objects();
        assert_eq!(live_after - live_before, 0, "Harris list leaked nodes");
    }
}
