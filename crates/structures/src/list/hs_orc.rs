//! Herlihy–Shavit lock-free list with **wait-free lookups** under OrcGC.
//!
//! The Art of Multiprocessor Programming's `LockFreeList`: add/remove use
//! a Harris/Michael-style `find` that snips marked nodes, but `contains`
//! walks the list exactly once — never restarting, skipping marked nodes
//! by value — so it is wait-free. That guarantee requires that a node's
//! links stay meaningful *after* the node has been unlinked and (under a
//! manual scheme) retired: a lookup standing on a removed node keeps
//! following its `next`. The paper (§2, second obstacle) lists this as a
//! structure only B&C, FreeAccess and OrcGC can serve.

use crate::ConcurrentSet;
use orc_util::marked::{mark, unmark};
use orcgc::{make_orc, OrcAtomic, OrcPtr};

struct Node<K: Send + Sync> {
    key: K,
    next: OrcAtomic<Node<K>>,
}

struct Window<K: Send + Sync> {
    found: bool,
    prev: OrcPtr<Node<K>>,
    curr: OrcPtr<Node<K>>,
}

/// Herlihy–Shavit lock-free list (wait-free lookups) with OrcGC.
pub struct HsListOrc<K: Send + Sync> {
    head: OrcAtomic<Node<K>>,
}

impl<K> HsListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        Self {
            head: OrcAtomic::null(),
        }
    }

    fn link_of<'a>(&'a self, node: &'a OrcPtr<Node<K>>) -> &'a OrcAtomic<Node<K>> {
        match node.as_ref() {
            None => &self.head,
            Some(n) => &n.next,
        }
    }

    /// `find` (HS book): position on the first unmarked node ≥ key,
    /// physically removing marked nodes on the way.
    fn find(&self, key: &K) -> Window<K> {
        let mut prev: OrcPtr<Node<K>>;
        let mut curr = OrcPtr::null();
        // `curr`'s successor; between hops, the guard that left the window.
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
                if self.link_of(&prev).load_raw() != unmark(curr.raw()) {
                    continue 'retry;
                }
                if next.is_marked() {
                    if !self.link_of(&prev).cas_tagged(unmark(curr.raw()), &next, 0) {
                        continue 'retry;
                    }
                    std::mem::swap(&mut curr, &mut next);
                } else {
                    if &cnode.key >= key {
                        return Window {
                            found: &cnode.key == key,
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
        let node = make_orc(Node {
            key,
            next: OrcAtomic::null(),
        });
        loop {
            let w = self.find(&key);
            if w.found {
                return false;
            }
            node.next.store_tagged(&w.curr, 0);
            if self
                .link_of(&w.prev)
                .cas_tagged(unmark(w.curr.raw()), &node, 0)
            {
                return true;
            }
        }
    }

    pub fn remove(&self, key: &K) -> bool {
        loop {
            let w = self.find(key);
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
            if !self
                .link_of(&w.prev)
                .cas_tagged(unmark(w.curr.raw()), &next, 0)
            {
                // Leave physical removal to a later find().
            }
            return true;
        }
    }

    /// Wait-free membership test: one pass, no restarts, walking straight
    /// through marked — possibly already-unlinked — nodes.
    pub fn contains(&self, key: &K) -> bool {
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

impl<K: Ord + Copy + Send + Sync + 'static> Default for HsListOrc<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ConcurrentSet<K> for HsListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    fn add(&self, key: K) -> bool {
        HsListOrc::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        HsListOrc::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        HsListOrc::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "HSList-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::set_tests;
    use orc_util::atomics::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        set_tests::sequential_semantics(&HsListOrc::new());
    }

    #[test]
    fn randomized_model_check() {
        set_tests::randomized_against_model(&HsListOrc::new(), 13, 5_000);
    }

    #[test]
    fn disjoint_stress() {
        set_tests::disjoint_key_stress(Arc::new(HsListOrc::new()), 4);
    }

    #[test]
    fn contended_stress() {
        set_tests::contended_key_stress(Arc::new(HsListOrc::new()), 4);
    }

    #[test]
    fn lookups_survive_concurrent_removal_of_their_position() {
        // Readers walk the full key range while writers delete and
        // re-insert everything; wait-free contains must never miss a key
        // that is stably present.
        let list = Arc::new(HsListOrc::new());
        let stable = 5_000u64; // never removed
        list.add(stable);
        for k in 0..200u64 {
            list.add(k);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let list = list.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for k in 0..200u64 {
                        list.remove(&k);
                    }
                    for k in 0..200u64 {
                        list.add(k);
                    }
                }
                orcgc::flush_thread();
            }));
        }
        for _ in 0..20_000 {
            assert!(list.contains(&stable), "stable key vanished from lookup");
        }
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
    }
}
