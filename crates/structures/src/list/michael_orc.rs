//! Michael's list under OrcGC: identical algorithm to
//! [`MichaelList`](crate::list::MichaelList), with the paper's type
//! annotations instead of protect/retire calls. Unlinking a marked node is
//! just a CAS — the node's hard-link count drops to zero and OrcGC does
//! the rest.
//!
//! This file is also the core of the other OrcGC lists: the HS and TBKP
//! lists run on its node, `search`, `insert` and `remove` and use
//! `contains_wait_free` for lookups; the Harris list shares its node,
//! `link_of` and `len`.

use crate::ConcurrentSet;
use orc_util::marked::{mark, unmark};
use orcgc::{make_orc, OrcAtomic, OrcPtr};

pub(crate) struct Node<K: Send + Sync> {
    pub(crate) key: K,
    pub(crate) next: OrcAtomic<Node<K>>,
}

struct Window<K: Send + Sync> {
    found: bool,
    /// Node whose `next` links to `curr`; null guard = the list head.
    prev: OrcPtr<Node<K>>,
    curr: OrcPtr<Node<K>>,
}

/// Michael's lock-free ordered set with OrcGC annotations.
pub struct MichaelListOrc<K: Send + Sync> {
    pub(crate) head: OrcAtomic<Node<K>>,
}

impl<K> MichaelListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        Self {
            head: OrcAtomic::null(),
        }
    }

    pub(crate) fn link_of<'a>(&'a self, prev: &'a OrcPtr<Node<K>>) -> &'a OrcAtomic<Node<K>> {
        match prev.as_ref() {
            None => &self.head,
            Some(node) => &node.next,
        }
    }

    fn search(&self, key: &K) -> Window<K> {
        let mut prev: OrcPtr<Node<K>>;
        let mut curr = OrcPtr::null();
        // `curr`'s successor; between hops, the guard that left the window,
        // whose hazard slot the next hop's `load_into` re-protects into.
        let mut next = OrcPtr::null();
        'retry: loop {
            prev = OrcPtr::null();
            self.head.load_into(&mut curr);
            loop {
                let Some(cnode) = curr.as_ref() else {
                    return Window {
                        found: false,
                        prev,
                        curr,
                    };
                };
                cnode.next.load_into(&mut next);
                // Validate: prev must still link to curr, unmarked.
                if self.link_of(&prev).load_raw() != unmark(curr.raw()) {
                    continue 'retry;
                }
                if next.is_marked() {
                    // Unlink the logically deleted curr (tag bits cleared
                    // on the installed word).
                    if !self.link_of(&prev).cas_tagged(&curr, &next, 0) {
                        continue 'retry;
                    }
                    std::mem::swap(&mut curr, &mut next);
                } else {
                    let nkey = &cnode.key;
                    if nkey >= key {
                        return Window {
                            found: nkey == key,
                            prev,
                            curr,
                        };
                    }
                    // prev, curr, next = curr, next, prev.
                    std::mem::swap(&mut prev, &mut curr);
                    std::mem::swap(&mut curr, &mut next);
                }
            }
        }
    }

    pub fn add(&self, key: K) -> bool {
        // On a duplicate the node guard drops -> collected automatically.
        self.insert(&make_orc(Node {
            key,
            next: OrcAtomic::null(),
        }))
    }

    /// `add` of a node built beforehand (TBKP announces it first).
    pub(crate) fn insert(&self, node: &OrcPtr<Node<K>>) -> bool {
        loop {
            let w = self.search(&node.key);
            if w.found {
                return false;
            }
            node.next.store_tagged(&w.curr, 0);
            if self.link_of(&w.prev).cas_tagged(&w.curr, node, 0) {
                return true;
            }
        }
    }

    pub fn remove(&self, key: &K) -> bool {
        loop {
            let w = self.search(key);
            if !w.found {
                return false;
            }
            let node = w.curr.as_ref().unwrap();
            let next = node.next.load();
            if next.is_marked() {
                continue;
            }
            if !node.next.cas_tag_only(next.raw(), mark(next.raw())) {
                continue;
            }
            // Physical unlink; if it fails, a later search cleans up.
            if !self.link_of(&w.prev).cas_tagged(&w.curr, &next, 0) {
                let _ = self.search(key);
            }
            return true;
        }
    }

    pub fn contains(&self, key: &K) -> bool {
        self.search(key).found
    }

    /// The Herlihy–Shavit wait-free membership test: one pass, no
    /// restarts, walking straight through marked — possibly already
    /// unlinked — nodes, which it never snips.
    pub(crate) fn contains_wait_free(&self, key: &K) -> bool {
        let mut curr = self.head.load();
        let mut next = OrcPtr::null();
        loop {
            let Some(node) = curr.as_ref() else {
                return false;
            };
            if &node.key >= key {
                return &node.key == key && !orc_util::marked::is_marked(node.next.load_raw());
            }
            node.next.load_into(&mut next);
            std::mem::swap(&mut curr, &mut next);
        }
    }

    /// Unmarked-node count; quiescent callers only.
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut curr = self.head.load();
        while let Some(node) = curr.as_ref() {
            let next = node.next.load();
            if !next.is_marked() {
                n += 1;
            }
            curr = next;
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord + Copy + Send + Sync + 'static> Default for MichaelListOrc<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ConcurrentSet<K> for MichaelListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    fn add(&self, key: K) -> bool {
        MichaelListOrc::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        MichaelListOrc::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        MichaelListOrc::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "MichaelList-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::set_tests;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        set_tests::sequential_semantics(&MichaelListOrc::new());
    }

    #[test]
    fn randomized_model_check() {
        set_tests::randomized_against_model(&MichaelListOrc::new(), 7, 5_000);
    }

    #[test]
    fn disjoint_stress() {
        set_tests::disjoint_key_stress(Arc::new(MichaelListOrc::new()), 4);
    }

    #[test]
    fn contended_stress() {
        set_tests::contended_key_stress(Arc::new(MichaelListOrc::new()), 4);
    }

    /// The keys of every node the head's chain still reaches, marked or
    /// not.
    fn linked_keys(list: &MichaelListOrc<u64>) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut curr = list.head.load();
        while let Some(node) = curr.as_ref() {
            keys.push(node.key);
            let next = node.next.load();
            curr = next;
        }
        keys
    }

    #[test]
    fn both_lookups_skip_a_marked_node_and_only_search_snips_it() {
        let list = MichaelListOrc::new();
        for k in 1..=3u64 {
            assert!(list.add(k));
        }
        // Logically delete 2 but leave it linked.
        {
            let w = list.search(&2);
            let two = w.curr.as_ref().unwrap();
            let next = two.next.load();
            assert!(two.next.cas_tag_only(next.raw(), mark(next.raw())));
        }
        assert!(!list.contains_wait_free(&2));
        assert!(list.contains_wait_free(&1));
        assert!(list.contains_wait_free(&3));
        assert_eq!(linked_keys(&list), [1, 2, 3], "the wait-free walk snipped");
        assert!(!list.contains(&2));
        assert_eq!(linked_keys(&list), [1, 3], "search left 2 linked");
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn removed_nodes_are_collected() {
        let list = MichaelListOrc::new();
        let live_before = orc_util::track::thread().live_objects();
        for k in 0..256u64 {
            assert!(list.add(k));
        }
        for k in 0..256u64 {
            assert!(list.remove(&k));
        }
        orcgc::flush_thread();
        let live_after = orc_util::track::thread().live_objects();
        assert_eq!(live_after - live_before, 0, "removed nodes leaked");
        assert!(list.is_empty());
    }

    #[test]
    fn drop_collects_whole_list() {
        let live_before = orc_util::track::thread().live_objects();
        {
            let list = MichaelListOrc::new();
            for k in 0..300u64 {
                list.add(k);
            }
        }
        orcgc::flush_thread();
        let live_after = orc_util::track::thread().live_objects();
        assert_eq!(live_after - live_before, 0, "list drop leaked nodes");
    }
}
