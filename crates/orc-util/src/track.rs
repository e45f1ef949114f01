//! Global allocation accounting.
//!
//! The paper's evaluation makes two memory claims we reproduce directly:
//! the *bound on unreclaimed objects* (Table 1) and the *memory footprint*
//! of HS-skip vs CRF-skip (§5, 19 GB vs <1 GB). Rather than inferring these
//! from process RSS, every reclamation scheme in this workspace reports its
//! allocations and frees here, so tests and benches can read exact live
//! object/byte counts.
//!
//! Counters are relaxed atomics — they are statistics, not synchronization —
//! and their cost is noise next to the allocator call they accompany.

// Deliberately NOT the `crate::atomics` facade: these counters are global
// statistics, not synchronization, and every scheme touches them on every
// alloc/retire. Routing them through the orc-check shims would make each
// bump a scheduling point on a globally-shared address, exploding the model
// checker's branch space with interleavings no protocol property depends on.
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A set of allocation counters. The process-wide instance is [`global`];
/// tests that need isolation can carry their own.
#[derive(Debug, Default)]
pub struct AllocStats {
    live_objects: AtomicI64,
    live_bytes: AtomicI64,
    total_allocs: AtomicU64,
    total_frees: AtomicU64,
    /// Objects currently retired but not yet freed (maintained by schemes).
    unreclaimed: AtomicI64,
    /// High-water mark of `unreclaimed`.
    max_unreclaimed: AtomicI64,
}

impl AllocStats {
    pub const fn new() -> Self {
        Self {
            live_objects: AtomicI64::new(0),
            live_bytes: AtomicI64::new(0),
            total_allocs: AtomicU64::new(0),
            total_frees: AtomicU64::new(0),
            unreclaimed: AtomicI64::new(0),
            max_unreclaimed: AtomicI64::new(0),
        }
    }

    #[inline]
    pub fn on_alloc(&self, bytes: usize) {
        self.live_objects.fetch_add(1, Ordering::Relaxed);
        self.live_bytes.fetch_add(bytes as i64, Ordering::Relaxed);
        self.total_allocs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn on_free(&self, bytes: usize) {
        self.live_objects.fetch_sub(1, Ordering::Relaxed);
        self.live_bytes.fetch_sub(bytes as i64, Ordering::Relaxed);
        self.total_frees.fetch_add(1, Ordering::Relaxed);
    }

    /// A scheme reports that an object entered its retired-but-unfreed set.
    #[inline]
    pub fn on_retire(&self) {
        let now = self.unreclaimed.fetch_add(1, Ordering::Relaxed) + 1;
        crate::raise_max!(self.max_unreclaimed, now);
    }

    /// A scheme reports that a retired object was finally freed (or handed
    /// back to the structure, for OrcGC re-insertions).
    #[inline]
    pub fn on_reclaim(&self) {
        self.unreclaimed.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn live_objects(&self) -> i64 {
        self.live_objects.load(Ordering::Relaxed)
    }

    pub fn live_bytes(&self) -> i64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    pub fn total_allocs(&self) -> u64 {
        self.total_allocs.load(Ordering::Relaxed)
    }

    pub fn total_frees(&self) -> u64 {
        self.total_frees.load(Ordering::Relaxed)
    }

    pub fn unreclaimed(&self) -> i64 {
        self.unreclaimed.load(Ordering::Relaxed)
    }

    pub fn max_unreclaimed(&self) -> i64 {
        self.max_unreclaimed.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark (between benchmark phases).
    pub fn reset_max_unreclaimed(&self) {
        self.max_unreclaimed
            .store(self.unreclaimed.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Snapshot of all counters, for the bench harness.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            live_objects: self.live_objects(),
            live_bytes: self.live_bytes(),
            total_allocs: self.total_allocs(),
            total_frees: self.total_frees(),
            unreclaimed: self.unreclaimed(),
            max_unreclaimed: self.max_unreclaimed(),
        }
    }
}

/// Point-in-time copy of [`AllocStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub live_objects: i64,
    pub live_bytes: i64,
    pub total_allocs: u64,
    pub total_frees: u64,
    pub unreclaimed: i64,
    pub max_unreclaimed: i64,
}

static GLOBAL: AllocStats = AllocStats::new();

/// The process-wide allocation counters fed by every scheme in the
/// workspace.
#[inline]
pub fn global() -> &'static AllocStats {
    &GLOBAL
}

/// Serializes [`Ledger`] sections so their deltas are attributable.
static LEDGER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A scoped view over the [`global`] counters: snapshot at `open`, diff at
/// any point later. Used by the leak tests ("allocations == frees after
/// `flush()` + drop") of the torture harness.
///
/// Opening a ledger takes a process-wide lock so concurrent ledgered
/// sections (e.g. parallel `cargo test` threads) cannot pollute each
/// other's deltas — allocation traffic from *non*-ledgered code still
/// shows up, so keep unrelated scheme activity out of ledgered scopes.
pub struct Ledger {
    base: Snapshot,
    _guard: std::sync::MutexGuard<'static, ()>,
}

/// Difference between two [`AllocStats`] snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerDelta {
    pub allocs: u64,
    pub frees: u64,
    pub live_objects: i64,
    pub live_bytes: i64,
    pub unreclaimed: i64,
}

impl LedgerDelta {
    /// Every allocation in the section was freed within the section.
    pub fn is_balanced(&self) -> bool {
        self.allocs == self.frees && self.live_objects == 0 && self.live_bytes == 0
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
            unreclaimed: now.unreclaimed - self.base.unreclaimed,
        }
    }

    /// Panics with a diagnostic if the section leaked (or double-freed).
    pub fn assert_balanced(&self, label: &str) {
        let d = self.delta();
        assert!(
            d.is_balanced(),
            "{label}: leak ledger unbalanced — {} allocs vs {} frees \
             ({:+} live objects, {:+} live bytes, {:+} unreclaimed)",
            d.allocs,
            d.frees,
            d.live_objects,
            d.live_bytes,
            d.unreclaimed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_balance() {
        let s = AllocStats::new();
        s.on_alloc(64);
        s.on_alloc(32);
        assert_eq!(s.live_objects(), 2);
        assert_eq!(s.live_bytes(), 96);
        s.on_free(64);
        assert_eq!(s.live_objects(), 1);
        assert_eq!(s.live_bytes(), 32);
        s.on_free(32);
        assert_eq!(s.live_objects(), 0);
        assert_eq!(s.live_bytes(), 0);
        assert_eq!(s.total_allocs(), 2);
        assert_eq!(s.total_frees(), 2);
    }

    #[test]
    fn unreclaimed_high_water_mark() {
        let s = AllocStats::new();
        for _ in 0..5 {
            s.on_retire();
        }
        for _ in 0..3 {
            s.on_reclaim();
        }
        assert_eq!(s.unreclaimed(), 2);
        assert_eq!(s.max_unreclaimed(), 5);
        s.reset_max_unreclaimed();
        assert_eq!(s.max_unreclaimed(), 2);
    }

    #[test]
    fn snapshot_is_consistent() {
        let s = AllocStats::new();
        s.on_alloc(8);
        s.on_retire();
        let snap = s.snapshot();
        assert_eq!(snap.live_objects, 1);
        assert_eq!(snap.unreclaimed, 1);
        assert_eq!(snap.max_unreclaimed, 1);
    }

    #[test]
    fn ledger_balances_and_detects_leaks() {
        {
            let ledger = Ledger::open();
            global().on_alloc(64);
            global().on_retire();
            let d = ledger.delta();
            assert!(!d.is_balanced());
            assert_eq!(d.allocs, 1);
            assert_eq!(d.unreclaimed, 1);
            global().on_reclaim();
            global().on_free(64);
            ledger.assert_balanced("balanced section");
        }
        // Sections serialize: a second open must not deadlock.
        let ledger = Ledger::open();
        assert!(ledger.delta().is_balanced());
    }

    #[test]
    fn counters_survive_concurrency() {
        let s = std::sync::Arc::new(AllocStats::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.on_alloc(16);
                        s.on_retire();
                        s.on_reclaim();
                        s.on_free(16);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(s.live_objects(), 0);
        assert_eq!(s.live_bytes(), 0);
        assert_eq!(s.unreclaimed(), 0);
        assert_eq!(s.total_allocs(), 40_000);
    }
}
