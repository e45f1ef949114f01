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
//!   registry tid (the same dense-tid layout the hazard arrays use), in
//!   `calloc`'d zero memory: fresh zero pages a tid's first record
//!   touches, so an instance built on fresh pages costs resident memory
//!   only for the tids that record on it (memory the allocator reuses is
//!   cleared, so resident). A
//!   shard is **single-writer**: only the thread holding the tid records
//!   on it (every recording call takes the caller's own tid), so an event
//!   costs a relaxed load and a relaxed store on a line no other thread
//!   writes — no locked RMW — and every counter is exact (the pool
//!   shards' rule, `crate::pool`);
//! * a **histogram of reclamation batch sizes** — whether a scheme frees
//!   in dribbles (PTP: batch = 1) or avalanches (EBR: whole limbo bins)
//!   is exactly what separates their latency profiles;
//! * a **retire→reclaim delay histogram** over a *sample* of objects: the
//!   ones whose retire call was sampled (1 in
//!   [`crate::sample::SAMPLE_EVERY`] per thread) and so carry a retire
//!   stamp; whichever pass frees such an object records its delay;
//! * a **peak-unreclaimed watermark** (`raise_max!`), the number the
//!   paper's Table 1 bounds. It is the only peak of the gauge: each
//!   scheme owns its `unreclaimed` gauge and feeds it here, and reports
//!   read the peak back.
//!
//! Both histograms are [`Hist`]s, recorded on the caller's own shard with
//! [`Hist::record_own`].
//!
//! Telemetry is write-only for reclamation: no scheme reads a counter,
//! histogram or watermark of this module to decide what to free or how
//! to protect (DESIGN.md §9.1), so the kill switch below changes what is
//! reported and nothing else.
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

use crate::hist::{add_own, Hist, HistSnapshot};
use crate::json::Writer;
use crate::switch::Switch;
use crate::sync::TidRows;

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
    batch: Hist,
    delay: Hist,
}

/// Sharded telemetry counters for one scheme instance (or the OrcGC
/// domain). See the module docs for layout and cost.
pub struct SchemeStats {
    shards: TidRows<Shard>,
    /// Process-wide high-water mark of the owner's `unreclaimed` gauge.
    peak_unreclaimed: AtomicU64,
}

impl SchemeStats {
    pub fn new() -> Self {
        Self {
            // SAFETY: a `Shard` is atomic counters and two `Hist`s of
            // atomic words: all-zero bytes are every count at 0.
            shards: unsafe { TidRows::zeroed() },
            peak_unreclaimed: AtomicU64::new(0),
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
            self.shards[tid].batch.record_own(n);
        }
    }

    /// Folds the owner's current `unreclaimed` gauge into the peak
    /// watermark.
    #[inline]
    pub fn note_unreclaimed(&self, now: u64) {
        if enabled() {
            crate::raise_max!(self.peak_unreclaimed, now);
        }
    }

    /// Records one retire→reclaim delay of `ns` nanoseconds (the time a
    /// sampled object spent in the retired set before its memory came
    /// back).
    ///
    /// An object freed inside the call that retired it is measured
    /// against that call's one clock read, so its delay comes out as 0:
    /// shorter than the clock was asked to resolve. It is recorded as
    /// 1 ns, so that a delay maximum of 0 keeps meaning "no sample".
    #[inline]
    pub fn reclaim_delay(&self, tid: usize, ns: u64) {
        if enabled() {
            self.shards[tid].delay.record_own(ns.max(1));
        }
    }

    /// Sums every shard into a point-in-time [`StatsSnapshot`].
    ///
    /// Counters are relaxed, so a snapshot taken during churn is
    /// approximate (each individual counter is exact-eventually); at
    /// quiescence it is exact.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot {
            peak_unreclaimed: self.peak_unreclaimed.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        };
        for shard in self.shards.iter() {
            let count = |ev: Event| shard.counters[ev as usize].load(Ordering::Relaxed);
            s.retires += count(Event::Retire);
            s.reclaims += count(Event::Reclaim);
            s.scans += count(Event::Scan);
            s.flushes += count(Event::Flush);
            s.protect_retries += count(Event::ProtectRetry);
            s.handovers += count(Event::Handover);
            shard.batch.add_to(&mut s.batch);
            shard.delay.add_to(&mut s.delay);
        }
        s
    }
}

impl Default for SchemeStats {
    fn default() -> Self {
        Self::new()
    }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// Reclamation batch sizes: one value per pass that freed objects,
    /// the number it freed.
    pub batch: HistSnapshot,
    /// Retire→reclaim delays, ns; one value per freed object that carried
    /// a retire stamp — the sampled ones, 1 retire in
    /// [`crate::sample::SAMPLE_EVERY`] per thread. `delay.max` is the
    /// longest, exact.
    pub delay: HistSnapshot,
}

impl StatsSnapshot {
    /// `retires − reclaims`: at quiescence, exactly the scheme's
    /// `unreclaimed()` gauge (saturating under mid-churn skew).
    pub fn outstanding(&self) -> u64 {
        self.retires.saturating_sub(self.reclaims)
    }

    /// Total reclamation batches recorded in the histogram.
    pub fn batches(&self) -> u64 {
        self.batch.count()
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
        self.delay.count()
    }

    /// Median retire→reclaim delay, ns (0 when none recorded).
    pub fn delay_p50(&self) -> u64 {
        self.delay.p50()
    }

    /// 99th-percentile retire→reclaim delay, ns (0 when none recorded).
    pub fn delay_p99(&self) -> u64 {
        self.delay.p99()
    }

    /// Counter movement since `base` (peaks are carried, not differenced
    /// — they are watermarks, not counters).
    pub fn since(&self, base: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            retires: self.retires.saturating_sub(base.retires),
            reclaims: self.reclaims.saturating_sub(base.reclaims),
            scans: self.scans.saturating_sub(base.scans),
            flushes: self.flushes.saturating_sub(base.flushes),
            protect_retries: self.protect_retries.saturating_sub(base.protect_retries),
            handovers: self.handovers.saturating_sub(base.handovers),
            peak_unreclaimed: self.peak_unreclaimed,
            batch: self.batch.since(&base.batch),
            delay: self.delay.since(&base.delay),
        }
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
            && self.batch.is_monotone_since(&earlier.batch)
            && self.delay.is_monotone_since(&earlier.delay)
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
                fmt_ns(self.delay.max),
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
            fmt_ns(self.delay.max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

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
        assert_eq!(snap.delay.max, 1_000_000_000);
        let p50 = snap.delay_p50();
        assert!((750..=1_250).contains(&p50), "p50={p50}");
        let p99 = snap.delay_p99();
        assert!(p99 <= 1_250, "p99 rank 99 is still a fast free, got {p99}");
        assert!(snap.delay.quantile(1.0) >= 750_000_000);
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
        assert_eq!((snap.batch.sum, snap.batch.max), (3, 3), "one batch of 3");
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
