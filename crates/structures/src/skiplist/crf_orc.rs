//! CRF-skip — the paper's new lock-free skip list (§5).
//!
//! Identical to the Herlihy–Shavit skip list except for one rule: the
//! thread whose CAS physically unlinks a node at some level immediately
//! **poisons** that level's outgoing link of the removed node. A poisoned
//! node "can no longer reach the data structure": removed nodes are fully
//! isolated, so unreachable nodes never anchor chains to live nodes and
//! OrcGC's linear bound applies strictly. Every traversal — including
//! `contains` — restarts when it steps onto a poisoned link, which demotes
//! lookups from wait-free to lock-free; in exchange the memory footprint
//! collapses (the paper measured 19 GB → <1 GB; `mem_usage_skiplists`
//! reproduces the shape).

use super::{new_head, random_level, Node, StalledReader, MAX_LEVEL};
use crate::ConcurrentSet;
use orc_util::marked::mark;
use orcgc::{make_orc, OrcAtomic, OrcPtr};

/// The paper's CRF skip list (poisoned isolation) under OrcGC.
pub struct CrfSkipListOrc<K: Send + Sync> {
    head: OrcAtomic<Node<K>>,
}

impl<K> CrfSkipListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        Self { head: new_head() }
    }

    fn find(
        &self,
        key: &K,
        preds: &mut Vec<OrcPtr<Node<K>>>,
        succs: &mut Vec<OrcPtr<Node<K>>>,
    ) -> bool {
        // Restarts are the price of poisoning (§5: lookups become
        // lock-free). Under heavy churn, back off between restarts or the
        // traversal can starve behind a steady stream of fresh poisons —
        // on oversubscribed machines a pure yield storm can starve it
        // indefinitely, so escalate to short sleeps.
        let backoff = orc_util::Backoff::new();
        let mut restarts = 0u64;
        'retry: loop {
            if !backoff.is_completed() {
                backoff.snooze();
            } else {
                restarts += 1;
                std::thread::sleep(std::time::Duration::from_micros(50 * restarts.min(20)));
            }
            preds.clear();
            succs.clear();
            preds.resize_with(MAX_LEVEL, OrcPtr::null);
            succs.resize_with(MAX_LEVEL, OrcPtr::null);
            let mut pred = self.head.load();
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = pred.link(level).load();
                loop {
                    if curr.is_poison() {
                        // We wandered onto an isolated node: restart.
                        continue 'retry;
                    }
                    let Some(cnode) = curr.as_ref() else { break };
                    let succ = cnode.link(level).load();
                    if succ.is_poison() {
                        continue 'retry;
                    }
                    if succ.is_marked() {
                        // Snip curr at this level and poison the removed
                        // level (CRF isolation): the marked link changes
                        // only here, so its count moves to `pred`'s.
                        if !pred.link(level).cas_moving(&curr, &succ, cnode.link(level)) {
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
            if !preds[0].link(0).cas_tagged(&succs[0], &node, 0) {
                continue;
            }
            for l in 1..=top {
                loop {
                    // `node.link(l)` must agree with the `succs[l]` we are
                    // about to splice in front of BEFORE the pred CAS: the
                    // re-finds below (and at lower levels) refresh `succs`
                    // while the node still carries the successor from an
                    // older find. Publishing with that stale forward
                    // pointer can expose an unmarked edge onto an
                    // already-poisoned node — traversals restart on poison
                    // before the snip-heal branch can run, so the edge is
                    // never repaired and every traversal livelocks. With
                    // the fix-up first, the pred CAS and any snip of
                    // `succs[l]` linearize on the same word, so a stale
                    // successor can never become reachable.
                    let cur = node.link(l).load();
                    if cur.is_marked() || cur.is_poison() {
                        return true; // being removed; stop linking
                    }
                    if !cur.same_object(&succs[l]) && !node.link(l).cas_tagged(&cur, &succs[l], 0) {
                        return true;
                    }
                    if preds[l].link(l).cas_tagged(&succs[l], &node, 0) {
                        break;
                    }
                    self.find(&key, &mut preds, &mut succs);
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
        for l in (1..=vnode.top).rev() {
            loop {
                let w = vnode.link(l).load_raw();
                if orc_util::marked::is_marked(w) || orcgc::is_poison(w) {
                    break;
                }
                if vnode.link(l).cas_tag_only(w, mark(w)) {
                    break;
                }
            }
        }
        loop {
            let w = vnode.link(0).load_raw();
            if orc_util::marked::is_marked(w) || orcgc::is_poison(w) {
                return false;
            }
            if vnode.link(0).cas_tag_only(w, mark(w)) {
                let _ = self.find(key, &mut preds, &mut succs);
                return true;
            }
        }
    }

    /// Lock-free lookup: restarts whenever it steps onto a poisoned node
    /// (the paper's trade-off for the linear memory bound).
    pub fn contains(&self, key: &K) -> bool {
        let backoff = orc_util::Backoff::new();
        let mut restarts = 0u64;
        'retry: loop {
            if !backoff.is_completed() {
                backoff.snooze();
            } else {
                // See `find`: sleep escalation so a starved lookup lets
                // the poison storm drain instead of feeding it.
                restarts += 1;
                std::thread::sleep(std::time::Duration::from_micros(50 * restarts.min(20)));
            }
            let mut pred = self.head.load();
            let mut found = false;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = pred.link(level).load();
                loop {
                    if curr.is_poison() {
                        continue 'retry;
                    }
                    let Some(cnode) = curr.as_ref() else { break };
                    let succ = cnode.link(level).load();
                    if succ.is_poison() {
                        continue 'retry;
                    }
                    if succ.is_marked() {
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
            return found;
        }
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

impl<K: Ord + Copy + Send + Sync + 'static> Default for CrfSkipListOrc<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ConcurrentSet<K> for CrfSkipListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    fn add(&self, key: K) -> bool {
        CrfSkipListOrc::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        CrfSkipListOrc::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        CrfSkipListOrc::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "CRF-skip-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::set_tests;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        set_tests::sequential_semantics(&CrfSkipListOrc::new());
    }

    #[test]
    fn randomized_model_check() {
        set_tests::randomized_against_model(&CrfSkipListOrc::new(), 43, 6_000);
    }

    #[test]
    fn disjoint_stress() {
        set_tests::disjoint_key_stress(Arc::new(CrfSkipListOrc::new()), 4);
    }

    #[test]
    fn contended_stress() {
        set_tests::contended_key_stress(Arc::new(CrfSkipListOrc::new()), 4);
    }

    #[test]
    fn removed_nodes_are_isolated_promptly() {
        // Footprint check: after removing everything and flushing, live
        // objects must return to baseline — the CRF property.
        let live_before = orc_util::track::thread().live_objects();
        {
            let s = CrfSkipListOrc::new();
            for k in 0..2_000u64 {
                s.add(k);
            }
            for k in 0..2_000u64 {
                assert!(s.remove(&k));
            }
            assert!(s.is_empty());
        }
        orcgc::flush_thread();
        let live_after = orc_util::track::thread().live_objects();
        assert_eq!(live_after - live_before, 0, "CRF-skip leaked");
    }
}
