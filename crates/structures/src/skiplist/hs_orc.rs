//! Herlihy–Shavit lock-free skip list under OrcGC.
//!
//! Towers are linked bottom-up; a node is *in the set* iff its bottom
//! level is reachable and unmarked. Removal marks the tower top-down and
//! lets `find` snip marked nodes level by level. `contains` is the book's
//! wait-free descent: it walks straight through marked nodes without ever
//! restarting — which is why the paper could not deploy any manual scheme
//! on this structure (a lookup keeps following links of removed, retired
//! nodes), and why removed-node chains linger (the §5 memory experiment).

use super::{new_head, random_level, Node, StalledReader, MAX_LEVEL};
use crate::ConcurrentSet;
use orc_util::marked::mark;
use orcgc::{make_orc, OrcAtomic, OrcPtr};

/// Herlihy–Shavit lock-free skip list with OrcGC annotations.
pub struct HsSkipListOrc<K: Send + Sync> {
    head: OrcAtomic<Node<K>>,
}

impl<K> HsSkipListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        Self { head: new_head() }
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
                        if !pred.link(level).cas_tagged(&curr, &succ, 0) {
                            continue 'retry;
                        }
                        curr = pred.link(level).load();
                        continue;
                    }
                    if cnode.before(key) {
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
            if !preds[0].link(0).cas_tagged(&succs[0], &node, 0) {
                continue; // key raced in/out; full retry
            }
            // Link the upper levels, refreshing the window as needed.
            for l in 1..=top {
                loop {
                    if preds[l].link(l).cas_tagged(&succs[l], &node, 0) {
                        break;
                    }
                    // Window moved: refresh and re-point our tower level.
                    self.find(&key, &mut preds, &mut succs);
                    let cur = node.link(l).load();
                    if cur.is_marked() {
                        return true; // concurrently removed; stop linking
                    }
                    if !cur.same_object(&succs[l]) && !node.link(l).cas_tagged(&cur, &succs[l], 0) {
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
                if cnode.before(key) {
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

    /// Pins the first node of the bottom level: see [`StalledReader`].
    pub fn stalled_reader_at_front(&self) -> StalledReader<K> {
        super::stalled_reader_at_front(&self.head)
    }

    /// Unmarked-key count; quiescent callers only.
    pub fn len(&self) -> usize {
        super::len(&self.head)
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
