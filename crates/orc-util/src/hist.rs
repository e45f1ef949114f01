//! The one HDR-style histogram behind the reclamation batch sizes and
//! retire→reclaim delays (`stats`) and the operation-latency spans
//! (`obs`).
//!
//! Layout: values 0–3 get exact buckets; above that, each power-of-two
//! octave splits into 4 linear sub-buckets (relative error ≤ 25%),
//! covering 0 to ~2^42 (for nanoseconds, ≈ 73 minutes); larger values
//! land in the last (open) bucket. [`Hist`] is the recorder (relaxed
//! atomics: a snapshot during churn is approximate and exact at
//! quiescence) — any thread records on a shared one, and a per-thread
//! shard's only writer records with [`Hist::record_own`];
//! [`HistSnapshot`] is the plain copy all the arithmetic — quantiles,
//! deltas, monotonicity — runs on.

// `std` atomics: telemetry is never a model step (DESIGN.md §9.1).
use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets in the histogram; see the module docs for the layout.
pub const BUCKETS: usize = 168;

/// Bucket index for `ns`, capped at [`BUCKETS`]` - 1`.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns < 4 {
        return ns as usize;
    }
    let oct = (63 - ns.leading_zeros()) as usize; // ≥ 2
    let sub = ((ns >> (oct - 2)) & 3) as usize;
    ((oct - 2) * 4 + 4 + sub).min(BUCKETS - 1)
}

/// Representative value (midpoint) of bucket `idx` — the inverse of
/// [`bucket_of`] used when reading quantiles back out.
pub fn bucket_value(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let q = idx - 4;
    let oct = q / 4 + 2;
    let sub = (q % 4) as u64;
    let lo = (4 + sub) << (oct - 2);
    lo + (1u64 << (oct - 2)) / 2
}

/// Concurrent recorder: bucket counts, the sum and the exact maximum.
pub struct Hist {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Hist {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        crate::raise_max!(self.max, ns);
    }

    /// [`record`](Self::record) for a recorder with one writer (a
    /// per-thread shard): a relaxed load and store per word, no locked
    /// RMW.
    #[inline]
    pub fn record_own(&self, v: u64) {
        add_own(&self.buckets[bucket_of(v)], 1);
        add_own(&self.sum, v);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Adds this recorder's current contents into `acc` (how per-thread
    /// shards merge into one snapshot).
    pub fn add_to(&self, acc: &mut HistSnapshot) {
        for (a, b) in acc.buckets.iter_mut().zip(&self.buckets) {
            *a += b.load(Ordering::Relaxed);
        }
        acc.sum += self.sum.load(Ordering::Relaxed);
        acc.max = acc.max.max(self.max.load(Ordering::Relaxed));
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut s = HistSnapshot::default();
        self.add_to(&mut s);
        s
    }

    /// Copies the contents out and resets them to zero. A concurrent
    /// [`record`](Self::record) straddles the reset harmlessly but may
    /// split its bucket, sum and max between the two windows.
    pub fn take(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].swap(0, Ordering::Relaxed)),
            sum: self.sum.swap(0, Ordering::Relaxed),
            max: self.max.swap(0, Ordering::Relaxed),
        }
    }
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

/// `c += n` on a word with one writer: a relaxed load + store stands in
/// for the locked RMW (readers see a value as fresh as a relaxed
/// `fetch_add` would give them), and the registry's tid handoff orders a
/// predecessor's last store before its successor's first load.
#[inline]
pub(crate) fn add_own(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Plain copy of a [`Hist`]; fields are public so reports and tests can
/// hand-build one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Count per bucket ([`bucket_of`] layout).
    pub buckets: [u64; BUCKETS],
    /// Sum of the recorded values, ns.
    pub sum: u64,
    /// Largest recorded value, exact (the buckets only bound it).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Value at quantile `q` ∈ (0, 1], ns (bucket midpoint, ≤ 25%
    /// relative error, clamped to the observed maximum so quantiles
    /// never exceed `max`). 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's midpoint can overshoot the true
                // maximum; the clamp keeps p50 ≤ p99 ≤ max invariant.
                return bucket_value(i).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Median, ns (0 when nothing was recorded).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile, ns (0 when nothing was recorded).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean recorded value, ns (0 when nothing was recorded).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Movement since `base`: buckets and sum are differenced
    /// (saturating), the maximum is carried — it is a watermark, not a
    /// counter.
    pub fn since(&self, base: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(base.buckets[i])),
            sum: self.sum.saturating_sub(base.sum),
            max: self.max,
        }
    }

    /// True when every bucket, the sum and the maximum of `self` are ≥
    /// those of `earlier` — snapshots of a live recorder must be
    /// monotone.
    pub fn is_monotone_since(&self, earlier: &HistSnapshot) -> bool {
        self.sum >= earlier.sum
            && self.max >= earlier.max
            && self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .all(|(a, b)| a >= b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        // Exact low range.
        for ns in 0..4u64 {
            assert_eq!(bucket_of(ns), ns as usize);
            assert_eq!(bucket_value(ns as usize), ns);
        }
        // Buckets are non-decreasing in ns and the representative value
        // lands back in its own bucket.
        let mut prev = 0;
        for shift in 2..42 {
            for sub in 0..4u64 {
                let ns = (4 + sub) << (shift - 2);
                let b = bucket_of(ns);
                assert!(b >= prev, "bucket regressed at ns={ns}");
                prev = b;
                assert_eq!(bucket_of(bucket_value(b)), b);
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Relative error of the midpoint representative stays ≤ 25%.
        for ns in [5u64, 100, 1_000, 123_456, 10_000_000] {
            let v = bucket_value(bucket_of(ns)) as f64;
            let err = (v - ns as f64).abs() / ns as f64;
            assert!(err <= 0.25, "ns={ns} rep={v} err={err}");
        }
    }

    #[test]
    fn quantiles_from_synthetic_hist() {
        let h = Hist::new();
        // 99 fast values at ~1 µs, one straggler at ~1 s.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.max, 1_000_000_000);
        assert_eq!(s.mean(), (99 * 1_000 + 1_000_000_000) / 100);
        let p50 = s.p50();
        assert!((750..=1_250).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!(p99 <= 1_250, "p99 rank 99 is still a fast value, got {p99}");
        assert!(s.quantile(1.0) >= 750_000_000);
        assert!(s.quantile(1.0) <= s.max, "quantiles are clamped to max");
        let empty = HistSnapshot::default();
        assert_eq!((empty.p50(), empty.p99(), empty.mean()), (0, 0, 0));
    }

    #[test]
    fn an_owned_record_matches_a_shared_one() {
        let (shared, owned) = (Hist::new(), Hist::new());
        for v in [1u64, 3, 3, 40, 7_000, 2] {
            shared.record(v);
            owned.record_own(v);
        }
        assert_eq!(shared.snapshot(), owned.snapshot());
    }

    #[test]
    fn take_resets_to_zero() {
        let h = Hist::new();
        for ns in [100u64, 200, 300, 400, 100_000] {
            h.record(ns);
        }
        let w = h.take();
        assert_eq!((w.count(), w.sum, w.max), (5, 101_000, 100_000));
        assert_eq!(h.snapshot(), HistSnapshot::default(), "take must reset");
        assert_eq!(h.take(), HistSnapshot::default());
        h.record(7);
        assert_eq!(h.snapshot().count(), 1, "recording resumes after a take");
    }

    #[test]
    fn since_and_monotone() {
        let h = Hist::new();
        h.record(50);
        let a = h.snapshot();
        h.record(50);
        h.record(9_000);
        let b = h.snapshot();
        assert!(b.is_monotone_since(&a) && !a.is_monotone_since(&b));
        let d = b.since(&a);
        assert_eq!((d.count(), d.sum), (2, 9_050));
        assert_eq!(d.max, 9_000, "the maximum is carried, not differenced");
        assert_eq!(a.since(&b).count(), 0, "differences saturate");
    }
}
