//! Allocation accounting: a read-only view of the pool's counters.
//!
//! The paper's evaluation makes two memory claims we reproduce directly:
//! the *bound on unreclaimed objects* (Table 1) and the *memory footprint*
//! of HS-skip vs CRF-skip (§5, 19 GB vs <1 GB). Rather than inferring these
//! from process RSS, tests and benches read exact live object/byte counts.
//!
//! Nothing is counted here. Every tracked object of every scheme is
//! allocated and freed through [`crate::pool::alloc`] /
//! [`crate::pool::dealloc`], which count each event once on the acting
//! thread's own shard (see the pool's accounting contract); this module
//! sums those shards. [`global`] is the process-wide ledger; [`thread`]
//! reads the calling thread's own shard alone, which is what a
//! single-threaded leak test wants — sibling tests allocating in parallel
//! cannot move it. The retired-but-unfreed gauge is not an allocator fact
//! and lives with whoever answers `unreclaimed()` (each scheme's
//! `RetireLedger`, the OrcGC `Domain`).

use crate::pool;

/// A view over the pool's allocation counters: [`global`] or [`thread`].
#[derive(Debug)]
pub struct AllocStats {
    own_thread: bool,
}

impl AllocStats {
    pub fn live_objects(&self) -> i64 {
        self.snapshot().live_objects
    }

    pub fn live_bytes(&self) -> i64 {
        self.snapshot().live_bytes
    }

    pub fn total_allocs(&self) -> u64 {
        self.snapshot().total_allocs
    }

    pub fn total_frees(&self) -> u64 {
        self.snapshot().total_frees
    }

    /// All four counters from one pass over the shards.
    pub fn snapshot(&self) -> Snapshot {
        let (total_allocs, total_frees, live_bytes) = pool::ledger(self.own_thread);
        Snapshot {
            // Two's-complement difference: one thread's shard goes
            // negative when it frees what another thread allocated.
            live_objects: total_allocs.wrapping_sub(total_frees) as i64,
            live_bytes,
            total_allocs,
            total_frees,
        }
    }
}

/// Point-in-time copy of an [`AllocStats`] view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub live_objects: i64,
    pub live_bytes: i64,
    pub total_allocs: u64,
    pub total_frees: u64,
}

/// The process-wide ledger: every allocation and free of every thread.
#[inline]
pub fn global() -> &'static AllocStats {
    &AllocStats { own_thread: false }
}

/// The calling thread's own shard: what *this* thread allocated minus what
/// *this* thread freed. Deltas of it are exact for work that allocates and
/// frees on one thread, whatever other threads do meanwhile.
#[inline]
pub fn thread() -> &'static AllocStats {
    &AllocStats { own_thread: true }
}

/// Serializes [`Ledger`] sections so their deltas are attributable.
static LEDGER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A scoped view over the [`global`] counters: snapshot at `open`, diff at
/// any point later. Used by the leak tests ("allocations == frees after
/// `flush()` + drop") of the torture harness.
///
/// Opening a ledger takes a process-wide lock, and that is all the
/// isolation there is: the lock keeps two *ledgered* sections apart, but
/// the delta is of [`global`], so an allocation or a free by any thread
/// that does not hold the lock lands in whichever section is open. A
/// ledger is therefore sound only in a process where **every**
/// allocating body runs under one — which is why the torture entry
/// points (`ledgered_*_cell`, `stall_cell`) open it themselves rather
/// than leaving it to each test. The lock is not reentrant: a second
/// `open` on the same thread deadlocks.
///
/// Summing only the participating threads' shards would lift that
/// restriction, but a shard is cumulative per *tid* and tids are reused
/// across thread lifetimes by concurrently running tests, so "the
/// workers' shards" needs per-thread open/close bookkeeping — a design
/// of its own, not attempted here.
pub struct Ledger {
    base: Snapshot,
    base_slots: i64,
    _guard: std::sync::MutexGuard<'static, ()>,
}

/// Difference between two [`global`] snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerDelta {
    pub allocs: u64,
    pub frees: u64,
    pub live_objects: i64,
    pub live_bytes: i64,
    /// Pooled subset of `live_objects` ([`pool::PoolSnapshot::live_slots`]).
    pub live_slots: i64,
}

impl LedgerDelta {
    /// Every allocation in the section was freed within the section, in
    /// objects and in bytes.
    pub fn is_balanced(&self) -> bool {
        self.live_objects == 0 && self.live_bytes == 0
    }
}

impl Ledger {
    /// Opens a ledgered section (blocking until any other section closes).
    pub fn open() -> Self {
        let guard = LEDGER_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Self {
            base: global().snapshot(),
            base_slots: pool::snapshot().live_slots(),
            _guard: guard,
        }
    }

    /// Counter movement since `open`.
    pub fn delta(&self) -> LedgerDelta {
        let now = global().snapshot();
        LedgerDelta {
            allocs: now.total_allocs - self.base.total_allocs,
            frees: now.total_frees - self.base.total_frees,
            live_objects: now.live_objects - self.base.live_objects,
            live_bytes: now.live_bytes - self.base.live_bytes,
            live_slots: pool::snapshot().live_slots() - self.base_slots,
        }
    }

    /// Panics with a diagnostic if the section leaked (or double-freed).
    pub fn assert_balanced(&self, label: &str) {
        let d = self.delta();
        assert!(
            d.is_balanced(),
            "{label}: leak ledger unbalanced — {} allocs vs {} frees \
             ({:+} live objects of which {:+} pool slots, {:+} live bytes)",
            d.allocs,
            d.frees,
            d.live_objects,
            d.live_slots,
            d.live_bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::Layout;

    #[test]
    fn thread_view_follows_this_threads_allocations() {
        let layout = Layout::from_size_align(100, 8).unwrap();
        let base = thread().snapshot();
        let (p, tag) = pool::alloc(layout);
        let held = thread().snapshot();
        assert_eq!(held.live_objects - base.live_objects, 1);
        assert_eq!(
            held.live_bytes - base.live_bytes,
            pool::slot_bytes(layout, tag) as i64
        );
        // SAFETY: allocated above with `layout`; freed exactly once.
        unsafe { pool::dealloc(p, layout, tag) };
        let done = thread().snapshot();
        assert_eq!(done.live_objects, base.live_objects);
        assert_eq!(done.live_bytes, base.live_bytes);
        assert_eq!(done.total_allocs - base.total_allocs, 1);
        assert_eq!(done.total_frees - base.total_frees, 1);
    }
}
