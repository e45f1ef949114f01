//! Reclamation telemetry (orc-stats).
//!
//! The paper's whole evaluation (§6, Figs. 1–8) is about *observed*
//! reclamation behavior — throughput, retired-but-unreclaimed counts,
//! memory footprint — yet a single `unreclaimed()` gauge cannot explain
//! *why* a scheme costs what it costs. This module provides the
//! dependency-free, lock-free counters every scheme in the workspace
//! feeds:
//!
//! * **per-thread sharded counters** — one cache-line-padded slot per
//!   registry tid (the same dense-tid layout the hazard arrays use). A
//!   shard is **single-writer**: only the thread holding the tid records
//!   on it (every recording call takes the caller's own tid), so an event
//!   costs a relaxed load and a relaxed store on a line no other thread
//!   writes — no locked RMW — and every counter is exact (the pool
//!   shards' rule, `crate::pool`);
//! * **power-of-two histograms** of reclamation batch sizes — whether a
//!   scheme frees in dribbles (PTP: batch = 1) or avalanches (EBR: whole
//!   limbo bins) is exactly what separates their latency profiles;
//! * a **retire→reclaim delay histogram** over a *sample* of objects: the
//!   ones whose retire call was sampled (1 in
//!   [`crate::sample::SAMPLE_EVERY`] per thread) and so carry a retire
//!   stamp; whichever pass frees such an object records its delay;
//! * a **peak-unreclaimed watermark** (`raise_max!`), the number the
//!   paper's Table 1 bounds.
//!
//! Aggregation ([`SchemeStats::snapshot`]) sums the shards into a plain
//! [`StatsSnapshot`] — the uniform currency returned by `Smr::stats()`
//! and `orcgc::domain_stats()` and consumed by the torture harness, the
//! bench records and the `orctel stat` example.
//!
//! # Kill switch
//!
//! `ORC_STATS=0` disables every recording call for the life of the
//! process ([`crate::switch`]: latched on the first event, after which
//! each call is a single relaxed load and a predicted-not-taken branch
//! — measured noise for overhead-sensitive runs). Counting is **on** by
//! default.
//!
//! # Exactness contract
//!
//! Schemes pair every `unreclaimed += 1` with [`Event::Retire`] and every
//! `unreclaimed -= 1` with [`Event::Reclaim`], so at quiescence (no
//! in-flight operations) the invariant
//! `retires − reclaims == unreclaimed()` holds exactly, and
//! `reclaims ≤ retires` holds at all times. The torture harness asserts
//! both across the whole battery.

// `std` atomics: telemetry is never a model step (DESIGN.md §9.1).
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{self, Hist, HistSnapshot};
use crate::json::Writer;
use crate::registry;
use crate::switch::Switch;
use crate::CachePadded;

/// Number of power-of-two buckets in the batch-size histogram; bucket `i`
/// counts batches of size `[2^i, 2^(i+1))`, with the last bucket open.
pub const BATCH_BUCKETS: usize = 32;

/// Buckets in the retire→reclaim delay histogram (the [`hist`] layout).
pub const DELAY_BUCKETS: usize = hist::BUCKETS;

/// One countable reclamation event.
///
/// The variants cover every scheme in the workspace; schemes simply never
/// bump the events that do not apply to them (EBR has no handovers, PTP
/// has no flush-driven scans beyond its matrix walks, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Event {
    /// An object entered the scheme's retired-but-unfreed set.
    Retire = 0,
    /// An object left the retired set (freed, or for OrcGC the rare
    /// unretire transition when the counter moved after the claim).
    Reclaim = 1,
    /// One scan / liberate / collect / handover-matrix pass.
    Scan = 2,
    /// One explicit `flush()` call.
    Flush = 3,
    /// One failed validation iteration inside a protect loop (the
    /// published word changed under the reader and the loop retried).
    ProtectRetry = 4,
    /// One object parked into (or displaced through) a handover /
    /// handoff slot (PTP, PTB, OrcGC).
    Handover = 5,
}

const EVENTS: usize = 6;

/// Per-tid shard: event counters plus the batch-size and delay
/// histograms. Padded so adjacent tids never share a cache line.
struct Shard {
    counters: [AtomicU64; EVENTS],
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    delay: Hist,
}

impl Shard {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            delay: Hist::new(),
        }
    }
}

/// Sharded telemetry counters for one scheme instance (or the OrcGC
/// domain). See the module docs for layout and cost.
pub struct SchemeStats {
    shards: Box<[CachePadded<Shard>]>,
    /// Process-wide high-water mark of the owner's `unreclaimed` gauge.
    peak_unreclaimed: AtomicU64,
    /// Same watermark, but resettable: [`Self::take_window_peak`] swaps it
    /// back to zero, so consecutive takes partition time into windows and
    /// each take reports the peak *within its window*. The adaptive
    /// controller's "pressure has relaxed" decision needs exactly this —
    /// the process-monotone `peak_unreclaimed` can never come back down.
    window_peak: AtomicU64,
}

impl SchemeStats {
    pub fn new() -> Self {
        Self {
            shards: (0..registry::MAX_THREADS)
                .map(|_| CachePadded::new(Shard::new()))
                .collect(),
            peak_unreclaimed: AtomicU64::new(0),
            window_peak: AtomicU64::new(0),
        }
    }

    /// Records one `ev` on the calling thread's shard (`tid` must be the
    /// caller's registry tid — every scheme hot path already has it).
    #[inline]
    pub fn bump(&self, tid: usize, ev: Event) {
        self.add(tid, ev, 1);
    }

    /// Records `n` occurrences of `ev` at once (scan loops count locally
    /// and publish a single add).
    #[inline]
    pub fn add(&self, tid: usize, ev: Event, n: u64) {
        if n != 0 && enabled() {
            add_own(&self.shards[tid].counters[ev as usize], n);
        }
    }

    /// Records one reclamation batch of `n` objects freed together.
    #[inline]
    pub fn batch(&self, tid: usize, n: u64) {
        if n != 0 && enabled() {
            add_own(&self.shards[tid].batch_hist[bucket_of(n)], 1);
        }
    }

    /// Folds the owner's current `unreclaimed` gauge into the peak
    /// watermark.
    #[inline]
    pub fn note_unreclaimed(&self, now: u64) {
        if enabled() {
            crate::raise_max!(self.peak_unreclaimed, now);
            crate::raise_max!(self.window_peak, now);
        }
    }

    /// The unreclaimed watermark of the current window (the peak gauge
    /// value fed to [`note_unreclaimed`](Self::note_unreclaimed) since the
    /// last [`take_window_peak`](Self::take_window_peak)).
    #[inline]
    pub fn window_peak(&self) -> u64 {
        self.window_peak.load(Ordering::Relaxed)
    }

    /// Closes the current window: returns its peak and starts a new
    /// (zeroed) window. Concurrent `note_unreclaimed` calls land in
    /// whichever window the swap boundary assigns them to — each observed
    /// value is counted in exactly one window either way.
    #[inline]
    pub fn take_window_peak(&self) -> u64 {
        self.window_peak.swap(0, Ordering::Relaxed)
    }

    /// Records one retire→reclaim delay of `ns` nanoseconds (the time a
    /// sampled object spent in the retired set before its memory came
    /// back).
    ///
    /// An object freed inside the call that retired it is measured
    /// against that call's one clock read, so its delay comes out as 0:
    /// shorter than the clock was asked to resolve. It is recorded as
    /// 1 ns, so that `max_delay_ns == 0` keeps meaning "no sample".
    #[inline]
    pub fn reclaim_delay(&self, tid: usize, ns: u64) {
        if enabled() {
            self.shards[tid].delay.record(ns.max(1));
        }
    }

    /// Sums every shard into a point-in-time [`StatsSnapshot`].
    ///
    /// Counters are relaxed, so a snapshot taken during churn is
    /// approximate (each individual counter is exact-eventually); at
    /// quiescence it is exact.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        let mut delay = HistSnapshot::default();
        for shard in self.shards.iter() {
            s.retires += shard.counters[Event::Retire as usize].load(Ordering::Relaxed);
            s.reclaims += shard.counters[Event::Reclaim as usize].load(Ordering::Relaxed);
            s.scans += shard.counters[Event::Scan as usize].load(Ordering::Relaxed);
            s.flushes += shard.counters[Event::Flush as usize].load(Ordering::Relaxed);
            s.protect_retries +=
                shard.counters[Event::ProtectRetry as usize].load(Ordering::Relaxed);
            s.handovers += shard.counters[Event::Handover as usize].load(Ordering::Relaxed);
            for (acc, b) in s.batch_hist.iter_mut().zip(shard.batch_hist.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
            shard.delay.add_to(&mut delay);
        }
        s.peak_unreclaimed = self.peak_unreclaimed.load(Ordering::Relaxed);
        s.window_peak = self.window_peak.load(Ordering::Relaxed);
        s.delay_hist = delay.buckets;
        s.max_delay_ns = delay.max;
        s
    }
}

impl Default for SchemeStats {
    fn default() -> Self {
        Self::new()
    }
}

/// `c += n` on a counter of the caller's own shard: single writer, so a
/// relaxed load + store stands in for the locked RMW (readers see a value
/// as fresh as a relaxed `fetch_add` would give them), and the registry's
/// tid handoff orders a predecessor's last store before its successor's
/// first load.
#[inline]
fn add_own(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Histogram bucket for a batch of `n ≥ 1`: `floor(log2 n)`, capped.
#[inline]
fn bucket_of(n: u64) -> usize {
    ((63 - n.leading_zeros()) as usize).min(BATCH_BUCKETS - 1)
}

/// Compact human formatting of a nanosecond duration for table cells
/// (`"850ns"`, `"12.4us"`, `"3.1ms"`, `"2.50s"`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

static SWITCH: Switch = Switch::new("ORC_STATS");

/// Whether telemetry recording is on (the `ORC_STATS` [`Switch`]).
#[inline]
pub fn enabled() -> bool {
    SWITCH.enabled()
}

/// Aggregated, uniform view of one scheme's telemetry — the return type
/// of `Smr::stats()` and `orcgc::domain_stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Objects that entered the retired set.
    pub retires: u64,
    /// Objects that left the retired set (freed or unretired).
    pub reclaims: u64,
    /// Scan / liberate / collect / matrix-walk passes.
    pub scans: u64,
    /// Explicit `flush()` calls.
    pub flushes: u64,
    /// Failed protect-loop validation iterations.
    pub protect_retries: u64,
    /// Handover / handoff transfers (PTP, PTB, OrcGC).
    pub handovers: u64,
    /// High-water mark of the scheme's `unreclaimed` gauge.
    pub peak_unreclaimed: u64,
    /// Watermark of the current sampling window — resets to zero every
    /// [`SchemeStats::take_window_peak`], so unlike `peak_unreclaimed` it
    /// is *not* monotone across snapshots.
    pub window_peak: u64,
    /// Power-of-two reclamation batch sizes: `batch_hist[i]` counts
    /// batches of `[2^i, 2^(i+1))` objects freed in one pass.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Retire→reclaim delay histogram ([`hist`] buckets); one count per
    /// freed object that carried a retire stamp — the sampled ones, 1
    /// retire in [`crate::sample::SAMPLE_EVERY`] per thread.
    pub delay_hist: [u64; DELAY_BUCKETS],
    /// Longest observed retire→reclaim delay, exact.
    pub max_delay_ns: u64,
}

impl Default for StatsSnapshot {
    fn default() -> Self {
        Self {
            retires: 0,
            reclaims: 0,
            scans: 0,
            flushes: 0,
            protect_retries: 0,
            handovers: 0,
            peak_unreclaimed: 0,
            window_peak: 0,
            batch_hist: [0; BATCH_BUCKETS],
            delay_hist: [0; DELAY_BUCKETS],
            max_delay_ns: 0,
        }
    }
}

impl StatsSnapshot {
    /// `retires − reclaims`: at quiescence, exactly the scheme's
    /// `unreclaimed()` gauge (saturating under mid-churn skew).
    pub fn outstanding(&self) -> u64 {
        self.retires.saturating_sub(self.reclaims)
    }

    /// Total reclamation batches recorded in the histogram.
    pub fn batches(&self) -> u64 {
        self.batch_hist.iter().sum()
    }

    /// Mean objects freed per batch (0.0 when no batches ran).
    pub fn mean_batch(&self) -> f64 {
        let b = self.batches();
        if b == 0 {
            0.0
        } else {
            self.reclaims as f64 / b as f64
        }
    }

    /// Objects with a recorded retire→reclaim delay: the sampled objects
    /// freed so far, about `reclaims / SAMPLE_EVERY` (0 under
    /// `ORC_STATS=0`, which stamps nothing).
    pub fn delays(&self) -> u64 {
        self.delay_hist.iter().sum()
    }

    /// Retire→reclaim delay at quantile `q` ∈ (0, 1], in nanoseconds
    /// (bucket midpoint, ≤ 25% relative error, clamped to the observed
    /// maximum so quantiles never exceed `max_delay_ns`). 0 when none
    /// recorded.
    pub fn delay_quantile(&self, q: f64) -> u64 {
        self.delay().quantile(q)
    }

    /// The delay fields as a [`HistSnapshot`], so quantiles, deltas and
    /// monotonicity have one implementation. The snapshot keeps no sum
    /// of delays (nothing reports a mean), hence the zero.
    fn delay(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.delay_hist,
            sum: 0,
            max: self.max_delay_ns,
        }
    }

    /// Median retire→reclaim delay, ns (0 when none recorded).
    pub fn delay_p50(&self) -> u64 {
        self.delay_quantile(0.50)
    }

    /// 99th-percentile retire→reclaim delay, ns (0 when none recorded).
    pub fn delay_p99(&self) -> u64 {
        self.delay_quantile(0.99)
    }

    /// Counter movement since `base` (peak is carried, not differenced —
    /// it is a watermark, not a counter).
    pub fn since(&self, base: &StatsSnapshot) -> StatsSnapshot {
        let delay = self.delay().since(&base.delay());
        let mut d = StatsSnapshot {
            retires: self.retires.saturating_sub(base.retires),
            reclaims: self.reclaims.saturating_sub(base.reclaims),
            scans: self.scans.saturating_sub(base.scans),
            flushes: self.flushes.saturating_sub(base.flushes),
            protect_retries: self.protect_retries.saturating_sub(base.protect_retries),
            handovers: self.handovers.saturating_sub(base.handovers),
            peak_unreclaimed: self.peak_unreclaimed,
            // Watermarks are carried, not differenced; the window peak is
            // additionally non-monotone (resettable), so the latest
            // observation is the only meaningful value.
            window_peak: self.window_peak,
            batch_hist: [0; BATCH_BUCKETS],
            delay_hist: delay.buckets,
            max_delay_ns: delay.max,
        };
        for (i, b) in d.batch_hist.iter_mut().enumerate() {
            *b = self.batch_hist[i].saturating_sub(base.batch_hist[i]);
        }
        d
    }

    /// True when every counter of `self` is ≥ the matching counter of
    /// `earlier` — snapshots of a live instance must be monotone.
    pub fn is_monotone_since(&self, earlier: &StatsSnapshot) -> bool {
        self.retires >= earlier.retires
            && self.reclaims >= earlier.reclaims
            && self.scans >= earlier.scans
            && self.flushes >= earlier.flushes
            && self.protect_retries >= earlier.protect_retries
            && self.handovers >= earlier.handovers
            && self.peak_unreclaimed >= earlier.peak_unreclaimed
            && self
                .batch_hist
                .iter()
                .zip(earlier.batch_hist.iter())
                .all(|(a, b)| a >= b)
            && self.delay().is_monotone_since(&earlier.delay())
    }

    /// Width of the label column in [`table_header`](Self::table_header) /
    /// [`table_row`](Self::table_row) — sized for registry cell labels
    /// like `OrcGC/CRF-skip-OrcGC`.
    pub const TABLE_LABEL_WIDTH: usize = 22;

    /// Header line for the aligned telemetry table ([`table_row`]
    /// produces the matching rows). `label_col` titles the first column
    /// (`"scheme"` for `orctel stat`, `"cell"` for the torture ledger battery).
    ///
    /// [`table_row`]: Self::table_row
    pub fn table_header(label_col: &str) -> String {
        format!(
            "{:<lw$} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7} {:>6} {:>8} {:>8} {:>8}",
            label_col,
            "Mops/s",
            "retires",
            "reclaims",
            "outst",
            "peak",
            "scans",
            "flushes",
            "p-retry",
            "handover",
            "batches",
            "mean",
            "rd-p50",
            "rd-p99",
            "rd-max",
            lw = Self::TABLE_LABEL_WIDTH,
        )
    }

    /// One aligned table row for this snapshot, under
    /// [`table_header`](Self::table_header). `mops` fills the throughput
    /// column when the caller measured one (`orctel stat`); `None` renders `-`
    /// (the torture batteries churn for correctness, not speed).
    pub fn table_row(&self, label: &str, mops: Option<f64>) -> String {
        let mops = match mops {
            Some(m) => format!("{m:>8.3}"),
            None => format!("{:>8}", "-"),
        };
        let (p50, p99, max) = if self.delays() == 0 {
            ("-".into(), "-".into(), "-".into())
        } else {
            (
                fmt_ns(self.delay_p50()),
                fmt_ns(self.delay_p99()),
                fmt_ns(self.max_delay_ns),
            )
        };
        format!(
            "{label:<lw$} {mops} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7} {:>6.1} {p50:>8} {p99:>8} {max:>8}",
            self.retires,
            self.reclaims,
            self.outstanding(),
            self.peak_unreclaimed,
            self.scans,
            self.flushes,
            self.protect_retries,
            self.handovers,
            self.batches(),
            self.mean_batch(),
            lw = Self::TABLE_LABEL_WIDTH,
        )
    }

    /// Serializes the scalar counters as one JSON object. This is the
    /// nested `"stats"` object of `Measurement::json` in `workloads` and
    /// of the torture bin's `--json` lines: keep the key set append-only
    /// so readers of older `orc-bench/v1` reports keep working.
    pub fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj();
        for (key, v) in [
            ("retires", self.retires),
            ("reclaims", self.reclaims),
            ("scans", self.scans),
            ("flushes", self.flushes),
            ("protect_retries", self.protect_retries),
            ("handovers", self.handovers),
            ("peak_unreclaimed", self.peak_unreclaimed),
            ("window_peak", self.window_peak),
            ("batches", self.batches()),
        ] {
            w.key(key).int(v);
        }
        w.key("mean_batch").f64(self.mean_batch());
        w.end_obj();
        w.finish()
    }

    /// One-line human summary for progress output.
    pub fn summary(&self) -> String {
        format!(
            "retires {} reclaims {} scans {} flushes {} retries {} handovers {} peak {} mean-batch {:.1} rd-p50 {} rd-p99 {} rd-max {}",
            self.retires,
            self.reclaims,
            self.scans,
            self.flushes,
            self.protect_retries,
            self.handovers,
            self.peak_unreclaimed,
            self.mean_batch(),
            fmt_ns(self.delay_p50()),
            fmt_ns(self.delay_p99()),
            fmt_ns(self.max_delay_ns),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_floor_log2() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(7), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(u64::MAX), BATCH_BUCKETS - 1);
    }

    #[test]
    fn delay_quantiles_merge_across_shards() {
        let s = SchemeStats::new();
        // 99 fast frees at ~1 µs on one shard, one straggler at ~1 s on
        // another.
        for _ in 0..99 {
            s.reclaim_delay(0, 1_000);
        }
        s.reclaim_delay(1, 1_000_000_000);
        let snap = s.snapshot();
        assert_eq!(snap.delays(), 100);
        assert_eq!(snap.max_delay_ns, 1_000_000_000);
        let p50 = snap.delay_p50();
        assert!((750..=1_250).contains(&p50), "p50={p50}");
        let p99 = snap.delay_p99();
        assert!(p99 <= 1_250, "p99 rank 99 is still a fast free, got {p99}");
        assert!(snap.delay_quantile(1.0) >= 750_000_000);
        assert_eq!(StatsSnapshot::default().delay_p50(), 0);
    }

    #[test]
    fn fmt_ns_is_compact() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(12_400), "12.4us");
        assert_eq!(fmt_ns(3_100_000), "3.1ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
        for ns in [0, 999, 999_949, 999_949_999, 9_999_994_999_999] {
            assert!(fmt_ns(ns).len() <= 8, "{} too wide", fmt_ns(ns));
        }
    }

    #[test]
    fn events_accumulate_into_snapshot() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        for _ in 0..5 {
            s.bump(tid, Event::Retire);
        }
        s.add(tid, Event::Reclaim, 3);
        s.bump(tid, Event::Scan);
        s.bump(tid, Event::Flush);
        s.bump(tid, Event::ProtectRetry);
        s.bump(tid, Event::Handover);
        s.batch(tid, 3);
        s.note_unreclaimed(5);
        s.note_unreclaimed(2); // watermark must not regress
        let snap = s.snapshot();
        assert_eq!(snap.retires, 5);
        assert_eq!(snap.reclaims, 3);
        assert_eq!(snap.scans, 1);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.protect_retries, 1);
        assert_eq!(snap.handovers, 1);
        assert_eq!(snap.outstanding(), 2);
        assert_eq!(snap.peak_unreclaimed, 5);
        assert_eq!(snap.batches(), 1);
        assert_eq!(snap.batch_hist[1], 1, "batch of 3 lands in [2,4)");
        assert!((snap.mean_batch() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn shards_merge_across_threads() {
        let s = std::sync::Arc::new(SchemeStats::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let tid = registry::tid();
                    for _ in 0..1_000 {
                        s.bump(tid, Event::Retire);
                        s.bump(tid, Event::Reclaim);
                    }
                    s.batch(tid, 1_000);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.retires, 4_000);
        assert_eq!(snap.reclaims, 4_000);
        assert_eq!(snap.batches(), 4);
        assert_eq!(snap.outstanding(), 0);
    }

    #[test]
    fn since_and_monotone() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        s.bump(tid, Event::Retire);
        let a = s.snapshot();
        s.bump(tid, Event::Retire);
        s.bump(tid, Event::Reclaim);
        s.batch(tid, 1);
        let b = s.snapshot();
        assert!(b.is_monotone_since(&a));
        assert!(!a.is_monotone_since(&b));
        let d = b.since(&a);
        assert_eq!(d.retires, 1);
        assert_eq!(d.reclaims, 1);
        assert_eq!(d.batches(), 1);
    }

    #[test]
    fn window_peak_rolls_over_but_process_peak_does_not() {
        let s = SchemeStats::new();
        s.note_unreclaimed(10);
        s.note_unreclaimed(4); // neither watermark regresses
        assert_eq!(s.window_peak(), 10);
        assert_eq!(s.snapshot().window_peak, 10);
        assert_eq!(s.snapshot().peak_unreclaimed, 10);

        // Closing the window reports its peak and starts a zeroed one;
        // the process-monotone peak is untouched.
        assert_eq!(s.take_window_peak(), 10);
        assert_eq!(s.window_peak(), 0);
        assert_eq!(s.snapshot().window_peak, 0);
        assert_eq!(s.snapshot().peak_unreclaimed, 10);

        // A calmer second window: the window peak tracks *this* window
        // (pressure relaxed), the process peak still remembers the spike.
        s.note_unreclaimed(3);
        assert_eq!(s.take_window_peak(), 3);
        assert_eq!(s.snapshot().peak_unreclaimed, 10);

        // An empty window reads (and takes) as zero.
        assert_eq!(s.take_window_peak(), 0);
    }

    #[test]
    fn window_peak_is_carried_by_since_and_exempt_from_monotonicity() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        s.bump(tid, Event::Retire);
        s.note_unreclaimed(8);
        let a = s.snapshot();
        s.take_window_peak();
        s.note_unreclaimed(2);
        let b = s.snapshot();
        // `since` carries the latest window observation, not a difference.
        assert_eq!(b.since(&a).window_peak, 2);
        // The window peak went 8 → 2, yet the snapshots are still
        // monotone: the resettable watermark must not poison the
        // live-instance monotonicity invariant the torture harness asserts.
        assert!(b.is_monotone_since(&a));
        assert!(b.json().contains("\"window_peak\":2"));
    }

    #[test]
    fn zero_counts_are_ignored() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        s.add(tid, Event::Reclaim, 0);
        s.batch(tid, 0);
        let snap = s.snapshot();
        assert_eq!(snap.reclaims, 0);
        assert_eq!(snap.batches(), 0);
    }

    #[test]
    fn table_rows_align_with_header() {
        let header = StatsSnapshot::table_header("cell");
        let snap = StatsSnapshot::default();
        let with_mops = snap.table_row("HP/MichaelList", Some(1.234));
        let without = snap.table_row("OrcGC/CRF-skip-OrcGC", None);
        assert_eq!(header.len(), with_mops.len());
        assert_eq!(header.len(), without.len());
        assert!(with_mops.contains("1.234"));
        assert!(without.contains(" - "));
    }
}
