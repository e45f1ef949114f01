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
//!
//! The book's `find`, `add` and `remove` are Michael's, so this list runs
//! on [`MichaelListOrc`](crate::list::MichaelListOrc) and differs only in
//! `contains`. One deviation: when `remove`'s physical snip fails, it
//! re-runs the search to unlink the node, as Michael's list does; the book
//! leaves that cleanup to a later `find`.

use super::michael_orc::MichaelListOrc;
use crate::ConcurrentSet;

/// Herlihy–Shavit lock-free list (wait-free lookups) with OrcGC.
pub struct HsListOrc<K: Send + Sync> {
    list: MichaelListOrc<K>,
}

impl<K> HsListOrc<K>
where
    K: Ord + Copy + Send + Sync + 'static,
{
    pub fn new() -> Self {
        Self {
            list: MichaelListOrc::new(),
        }
    }

    pub fn add(&self, key: K) -> bool {
        self.list.add(key)
    }

    pub fn remove(&self, key: &K) -> bool {
        self.list.remove(key)
    }

    /// Wait-free membership test: one pass, no restarts, walking straight
    /// through marked — possibly already-unlinked — nodes.
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
