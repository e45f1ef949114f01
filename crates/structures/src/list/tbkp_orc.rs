//! TBKP — the Timnat–Braginsky–Kogan–Petrank wait-free linked list
//! (PPoPP 2012) under OrcGC: a documented **reconstruction**.
//!
//! The original achieves wait-free `insert`/`delete` by announcing every
//! operation in a per-thread `state` array of descriptors and having all
//! threads help pending operations through the Timnat–Petrank normalized
//! form (phase numbers, per-node success bits, a three-step delete). The
//! full helping protocol is specified across the original paper and its
//! technical report; this reconstruction keeps what the *OrcGC evaluation*
//! depends on and simplifies the rest:
//!
//! * **kept** — wait-free `contains` (single pass, walks through marked
//!   and even already-unlinked nodes); per-operation descriptor objects
//!   announced in a shared `state` array (the allocation/reclamation
//!   pattern that makes TBKP hostile to manual schemes: descriptors and
//!   nodes acquire multiple incoming hard links released in
//!   interleaving-dependent order — OrcGC collects both kinds
//!   automatically); Harris-style marked links and physical snipping.
//! * **simplified** — `insert`/`remove` are executed lock-free by their
//!   owning thread (announce → execute → complete) instead of the
//!   normalized-form wait-free helping.
//!
//! With the helping gone, an update is announce → Michael's `insert` or
//! `remove` on [`MichaelListOrc`](crate::list::MichaelListOrc) → complete,
//! and `contains` is that list's wait-free walk. DESIGN.md records this
//! substitution; the benchmark role of the structure (fourth list of
//! Figures 5–6, descriptor-heavy) is preserved.

use super::michael_orc::{MichaelListOrc, Node};
use crate::ConcurrentSet;
use orc_util::atomics::{AtomicU8, Ordering};
use orc_util::registry;
use orcgc::{make_orc, OrcAtomic, OrcPtr};

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;
const PENDING: u8 = 2;
const SUCCESS: u8 = 3;
const FAILURE: u8 = 4;

/// Announced operation descriptor (reclaimed by OrcGC once superseded).
struct OpDesc<K: Send + Sync> {
    #[allow(dead_code)]
    op: u8,
    #[allow(dead_code)]
    key: K,
    outcome: AtomicU8,
    /// The node being inserted (insert ops); the hard link pins the node's
    /// lifetime to the announcement (never read back by this
    /// reconstruction, but part of the original's descriptor layout).
    #[allow(dead_code)]
    node: OrcAtomic<Node<K>>,
}

/// TBKP wait-free-lookup list (reconstruction) with OrcGC.
pub struct TbkpListOrc<K: Send + Sync> {
    list: MichaelListOrc<K>,
    state: Box<[OrcAtomic<OpDesc<K>>]>,
}

impl<K> TbkpListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        Self {
            list: MichaelListOrc::new(),
            state: (0..registry::MAX_THREADS)
                .map(|_| OrcAtomic::null())
                .collect(),
        }
    }

    /// Announce `desc` in our state slot; the previous descriptor loses its
    /// hard link and is collected once unreferenced.
    fn announce(&self, desc: &OrcPtr<OpDesc<K>>) {
        let tid = registry::tid();
        self.state[tid].store(desc);
    }

    fn complete(desc: &OrcPtr<OpDesc<K>>, ok: bool) {
        desc.outcome
            // orc-lint: allow(seqcst, the descriptor outcome must be a single SC point all racing helpers agree on)
            .store(if ok { SUCCESS } else { FAILURE }, Ordering::SeqCst);
    }

    pub fn add(&self, key: K) -> bool {
        let node = make_orc(Node {
            key,
            next: OrcAtomic::null(),
        });
        let desc = make_orc(OpDesc {
            op: OP_INSERT,
            key,
            outcome: AtomicU8::new(PENDING),
            node: OrcAtomic::new(&node),
        });
        self.announce(&desc);
        let ok = self.list.insert(&node);
        Self::complete(&desc, ok);
        ok
    }

    pub fn remove(&self, key: &K) -> bool {
        let desc = make_orc(OpDesc {
            op: OP_DELETE,
            key: *key,
            outcome: AtomicU8::new(PENDING),
            node: OrcAtomic::null(),
        });
        self.announce(&desc);
        let ok = self.list.remove(key);
        Self::complete(&desc, ok);
        ok
    }

    /// Wait-free membership test (single pass, never restarts).
    pub fn contains(&self, key: &K) -> bool {
        self.list.contains_wait_free(key)
    }

    /// Unmarked-node count; quiescent callers only.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl<K: Ord + Copy + Send + Sync + 'static> Default for TbkpListOrc<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ConcurrentSet<K> for TbkpListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    fn add(&self, key: K) -> bool {
        TbkpListOrc::add(self, key)
    }

    fn remove(&self, key: &K) -> bool {
        TbkpListOrc::remove(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        TbkpListOrc::contains(self, key)
    }

    fn name(&self) -> &'static str {
        "TBKPList-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::set_tests;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        set_tests::sequential_semantics(&TbkpListOrc::new());
    }

    #[test]
    fn randomized_model_check() {
        set_tests::randomized_against_model(&TbkpListOrc::new(), 17, 5_000);
    }

    #[test]
    fn disjoint_stress() {
        set_tests::disjoint_key_stress(Arc::new(TbkpListOrc::new()), 4);
    }

    #[test]
    fn contended_stress() {
        set_tests::contended_key_stress(Arc::new(TbkpListOrc::new()), 4);
    }

    /// The outcome this thread's announced descriptor reads.
    fn announced_outcome(list: &TbkpListOrc<u64>) -> u8 {
        let desc = list.state[registry::tid()].load();
        desc.outcome.load(Ordering::Acquire)
    }

    #[test]
    fn every_update_is_announced_and_completed() {
        let list = TbkpListOrc::new();
        assert!(list.add(7));
        assert_eq!(announced_outcome(&list), SUCCESS);
        {
            let desc = list.state[registry::tid()].load();
            let announced = desc.node.load();
            let linked = list.list.head.load();
            assert_eq!(announced.key, 7);
            assert!(
                announced.same_object(&linked),
                "desc.node is not the inserted node"
            );
        }
        assert!(!list.add(7));
        assert_eq!(announced_outcome(&list), FAILURE, "duplicate add");
        assert!(!list.remove(&8));
        assert_eq!(announced_outcome(&list), FAILURE, "remove of an absent key");
        assert!(list.remove(&7));
        assert_eq!(announced_outcome(&list), SUCCESS);
    }

    #[test]
    fn descriptors_are_collected_not_accumulated() {
        let live_before = orc_util::track::thread().live_objects();
        {
            let list = TbkpListOrc::new();
            // 2k ops => 2k descriptors; all but the last announcement per
            // thread must be collected.
            for k in 0..1_000u64 {
                list.add(k % 50);
                list.remove(&(k % 50));
            }
        }
        orcgc::flush_thread();
        let live_after = orc_util::track::thread().live_objects();
        assert_eq!(live_after - live_before, 0, "descriptors leaked");
    }
}
