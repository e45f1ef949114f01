//! Herlihy–Shavit lock-free skip list under OrcGC.
//!
//! Towers are linked bottom-up; a node is *in the set* iff its bottom
//! level is reachable and unmarked. Removal marks the tower top-down and
//! lets `find` snip marked nodes level by level. `contains` is the book's
//! wait-free descent: it walks straight through marked nodes without ever
//! restarting — which is why the paper could not deploy any manual scheme
//! on this structure (a lookup keeps following links of removed, retired
//! nodes), and why removed-node chains linger (the §5 memory experiment).

use super::{random_level, MAX_LEVEL};
use crate::ConcurrentSet;
use orc_util::marked::{mark, unmark};
use orcgc::{make_orc, OrcAtomic, OrcPtr};

pub(crate) struct Node<K: Send + Sync> {
    /// `None` is the head sentinel (compares below every key).
    key: Option<K>,
    top: usize,
    next: Vec<OrcAtomic<Node<K>>>,
}

impl<K: Send + Sync> Node<K> {
    fn new(key: Option<K>, top: usize) -> Self {
        Self {
            key,
            top,
            next: (0..=top).map(|_| OrcAtomic::null()).collect(),
        }
    }

    #[inline]
    fn link(&self, level: usize) -> &OrcAtomic<Node<K>> {
        &self.next[level]
    }
}

/// Herlihy–Shavit lock-free skip list with OrcGC annotations.
pub struct HsSkipListOrc<K: Send + Sync> {
    head: OrcAtomic<Node<K>>,
}

/// A pinned position held by [`HsSkipListOrc::stalled_reader_at_front`].
pub struct StalledReader<K: Send + Sync> {
    _guard: OrcPtr<Node<K>>,
}

impl<K> HsSkipListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        let head = make_orc(Node::new(None, MAX_LEVEL - 1));
        Self {
            head: OrcAtomic::new(&head),
        }
    }

    #[inline]
    fn before(a: &Option<K>, key: &K) -> bool {
        match a {
            None => true, // head sentinel
            Some(k) => k < key,
        }
    }

    /// Positions `preds`/`succs` around `key` at every level, snipping
    /// marked nodes on the way. Returns true if an unmarked `key` node
    /// sits at the bottom level.
    fn find(
        &self,
        key: &K,
        preds: &mut Vec<OrcPtr<Node<K>>>,
        succs: &mut Vec<OrcPtr<Node<K>>>,
    ) -> bool {
        'retry: loop {
            preds.clear();
            succs.clear();
            preds.resize_with(MAX_LEVEL, OrcPtr::null);
            succs.resize_with(MAX_LEVEL, OrcPtr::null);
            let mut pred = self.head.load();
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = pred.link(level).load();
                #[allow(clippy::while_let_loop)] // curr is reassigned while borrowed
                loop {
                    let Some(cnode) = curr.as_ref() else { break };
                    let succ = cnode.link(level).load();
                    if succ.is_marked() {
                        // curr is logically deleted at this level: snip.
                        if !pred.link(level).cas_tagged(unmark(curr.raw()), &succ, 0) {
                            continue 'retry;
                        }
                        curr = pred.link(level).load();
                        continue;
                    }
                    if Self::before(&cnode.key, key) {
                        pred = curr;
                        curr = succ;
                    } else {
                        break;
                    }
                }
                preds[level] = pred.clone();
                succs[level] = curr;
            }
            return succs[0].as_ref().is_some_and(|n| n.key == Some(*key));
        }
    }

    pub fn add(&self, key: K) -> bool {
        let mut preds = Vec::new();
        let mut succs = Vec::new();
        loop {
            if self.find(&key, &mut preds, &mut succs) {
                return false;
            }
            let top = random_level();
            let node = make_orc(Node::new(Some(key), top));
            for (l, link) in node.next.iter().enumerate() {
                link.store_tagged(&succs[l], 0);
            }
            // Bottom level first: this is the linearization point.
            if !preds[0]
                .link(0)
                .cas_tagged(unmark(succs[0].raw()), &node, 0)
            {
                continue; // key raced in/out; full retry
            }
            // Link the upper levels, refreshing the window as needed.
            for l in 1..=top {
                loop {
                    if preds[l]
                        .link(l)
                        .cas_tagged(unmark(succs[l].raw()), &node, 0)
                    {
                        break;
                    }
                    // Window moved: refresh and re-point our tower level.
                    self.find(&key, &mut preds, &mut succs);
                    let cur = node.link(l).load();
                    if cur.is_marked() {
                        return true; // concurrently removed; stop linking
                    }
                    if !cur.same_object(&succs[l])
                        && !node.link(l).cas_tagged(unmark(cur.raw()), &succs[l], 0)
                    {
                        return true; // marked under us
                    }
                }
            }
            return true;
        }
    }

    pub fn remove(&self, key: &K) -> bool {
        let mut preds = Vec::new();
        let mut succs = Vec::new();
        if !self.find(key, &mut preds, &mut succs) {
            return false;
        }
        let victim = succs[0].clone();
        let vnode = victim.as_ref().unwrap();
        // Mark the tower top-down (upper levels unconditionally).
        for l in (1..=vnode.top).rev() {
            loop {
                let w = vnode.link(l).load_raw();
                if orc_util::marked::is_marked(w) {
                    break;
                }
                if vnode.link(l).cas_tag_only(w, mark(w)) {
                    break;
                }
            }
        }
        // Bottom level decides who wins the removal.
        loop {
            let w = vnode.link(0).load_raw();
            if orc_util::marked::is_marked(w) {
                return false; // someone else removed it
            }
            if vnode.link(0).cas_tag_only(w, mark(w)) {
                // Physical snip.
                let _ = self.find(key, &mut preds, &mut succs);
                return true;
            }
        }
    }

    /// Wait-free lookup: single descent, never restarts, walks through
    /// marked (possibly unlinked) nodes.
    pub fn contains(&self, key: &K) -> bool {
        let mut pred = self.head.load();
        let mut found = false;
        for level in (0..MAX_LEVEL).rev() {
            let mut curr = pred.link(level).load();
            #[allow(clippy::while_let_loop)] // curr is reassigned while borrowed
            loop {
                let Some(cnode) = curr.as_ref() else { break };
                let succ = cnode.link(level).load();
                if succ.is_marked() {
                    // Skip the deleted node without helping.
                    curr = succ;
                    continue;
                }
                if Self::before(&cnode.key, key) {
                    pred = curr;
                    curr = succ;
                } else {
                    if level == 0 {
                        found = cnode.key == Some(*key);
                    }
                    break;
                }
            }
        }
        found
    }

    /// Bench/test support: a *stalled reader* probe — the guard a
    /// preempted lookup would hold on the first node of the bottom level.
    /// While alive it pins that node, and (through the node's frozen hard
    /// links) whatever chain of removed successors hangs behind it — the
    /// §5 memory-footprint mechanism. Dropping it releases everything.
    pub fn stalled_reader_at_front(&self) -> StalledReader<K> {
        let head = self.head.load();
        let first = head.link(0).load();
        StalledReader { _guard: first }
    }

    /// Unmarked-key count; quiescent callers only.
    pub fn len(&self) -> usize {
        let mut n = 0;
        // SAFETY: quiescent-caller contract — no concurrent writers, so
        // unguarded loads observe only live nodes.
        let head = unsafe { self.head.load_quiescent() }.expect("head");
        // SAFETY: same quiescence; the head's level-0 link is live.
        let mut cur = unsafe { head.link(0).load_quiescent() };
        while let Some(node) = cur {
            if !orc_util::marked::is_marked(node.link(0).load_raw()) {
                n += 1;
            }
            // SAFETY: same quiescence; every reachable node is live.
            cur = unsafe { node.link(0).load_quiescent() };
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord + Copy + Send + Sync + 'static> Default for HsSkipListOrc<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ConcurrentSet<K> for HsSkipListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    fn add(&self, key: K) -> bool {
        HsSkipListOrc::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        HsSkipListOrc::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        HsSkipListOrc::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "HS-skip-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::set_tests;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        set_tests::sequential_semantics(&HsSkipListOrc::new());
    }

    #[test]
    fn randomized_model_check() {
        set_tests::randomized_against_model(&HsSkipListOrc::new(), 41, 6_000);
    }

    #[test]
    fn towers_span_levels() {
        let s = HsSkipListOrc::new();
        for k in 0..2_000u64 {
            assert!(s.add(k));
        }
        assert_eq!(s.len(), 2_000);
        for k in 0..2_000u64 {
            assert!(s.contains(&k));
        }
        for k in (0..2_000u64).step_by(2) {
            assert!(s.remove(&k));
        }
        assert_eq!(s.len(), 1_000);
        for k in 0..2_000u64 {
            assert_eq!(s.contains(&k), k % 2 == 1, "key {k}");
        }
    }

    #[test]
    fn disjoint_stress() {
        set_tests::disjoint_key_stress(Arc::new(HsSkipListOrc::new()), 4);
    }

    #[test]
    fn contended_stress() {
        set_tests::contended_key_stress(Arc::new(HsSkipListOrc::new()), 4);
    }
}
