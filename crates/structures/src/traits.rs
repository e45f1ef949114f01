//! Uniform interfaces over all structures, so the benchmark harness can
//! sweep (structure × scheme × workload) combinations generically.

/// A concurrent multi-producer multi-consumer FIFO queue.
pub trait ConcurrentQueue<T>: Send + Sync {
    /// Appends `item` at the tail.
    fn enqueue(&self, item: T);
    /// Removes and returns the head item, or `None` when empty.
    fn dequeue(&self) -> Option<T>;
    /// The structure's display name (figure legends).
    fn name(&self) -> &'static str;
}

/// A concurrent set of ordered keys (the paper's list/tree/skip-list
/// benchmarks all use integer-keyed sets).
pub trait ConcurrentSet<K>: Send + Sync {
    /// Inserts `key`; `false` if already present.
    fn add(&self, key: K) -> bool;
    /// Removes `key`; `false` if absent.
    fn remove(&self, key: &K) -> bool;
    /// Membership test.
    fn contains(&self, key: &K) -> bool;
    /// The structure's display name (figure legends).
    fn name(&self) -> &'static str;
}

// Boxed structures are still structures: the registry hands out
// `Box<dyn ConcurrentSet<u64>>` and harness code drives it through the
// same trait bounds as a concrete type.
impl<T: ConcurrentQueue<V> + ?Sized, V> ConcurrentQueue<V> for Box<T> {
    fn enqueue(&self, item: V) {
        (**self).enqueue(item)
    }

    fn dequeue(&self) -> Option<V> {
        (**self).dequeue()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<T: ConcurrentSet<K> + ?Sized, K> ConcurrentSet<K> for Box<T> {
    fn add(&self, key: K) -> bool {
        (**self).add(key)
    }

    fn remove(&self, key: &K) -> bool {
        (**self).remove(key)
    }

    fn contains(&self, key: &K) -> bool {
        (**self).contains(key)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Generic construction of a manual-scheme set from a scheme instance, so
/// harnesses (torture, benches) can sweep the full (structure × scheme)
/// matrix without naming concrete types. Keys are fixed to `u64` — the
/// paper's set benchmarks are all integer-keyed.
pub trait SmrSet<S: reclaim::Smr>: ConcurrentSet<u64> + Sized + 'static {
    /// Builds the structure over the given scheme instance.
    fn with_smr(smr: S) -> Self;
}

/// Generic construction of a manual-scheme queue; see [`SmrSet`].
pub trait SmrQueue<S: reclaim::Smr>: ConcurrentQueue<u64> + Sized + 'static {
    /// Builds the structure over the given scheme instance.
    fn with_smr(smr: S) -> Self;
}
