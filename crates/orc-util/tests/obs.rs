//! orc-obs through its public surface: ring wraparound through
//! `register`/`sample_now`, tear-free concurrent scrapes, watchdog
//! hysteresis, exporter round-trips, and the op-span stride bound.
//!
//! One process: `init()` latches `ORC_OBS_INTERVAL_MS=0` (no background
//! sampler) before any orc-obs use, so every sampling pass below is an
//! explicit `sample_now()` or `Registration::sample()`, and rings and the
//! watchdog run at their fixed sizes (`obs::CAPACITY`, `obs::STALL_K`).

use orc_util::json;
use orc_util::obs::{self, AnnKind, OpKind, SeriesKind};
use orc_util::stats::{Event, SchemeStats, StatsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock};

const CAP: usize = obs::CAPACITY;
const K: u64 = obs::STALL_K;

fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::env::set_var("ORC_OBS_INTERVAL_MS", "0");
    });
}

/// `sample_now` walks *every* registered source, and the op-span window
/// is process-global — tests that count passes, streaks, or op samples
/// serialise on this lock (the harness runs tests on parallel threads).
fn pass_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    init();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A synthetic source: default (all-zero) stats plus a hand-cranked
/// gauge, so tests steer the watchdog input exactly.
fn synthetic(label: &str) -> (obs::Registration, Arc<AtomicU64>) {
    let gauge = Arc::new(AtomicU64::new(0));
    let g = Arc::clone(&gauge);
    let reg = obs::register(label, StatsSnapshot::default, move || {
        g.load(Ordering::Relaxed)
    });
    (reg, gauge)
}

#[test]
fn ring_wraparound_keeps_newest_cap_samples() {
    let _g = pass_lock();
    let (reg, gauge) = synthetic("test/wrap");
    let total = 3 * CAP as u64;
    for v in 1..=total {
        gauge.store(v * 10, Ordering::Relaxed);
        obs::sample_now();
    }
    let s = reg.series(SeriesKind::Unreclaimed);
    assert_eq!(s.len(), CAP, "ring must cap at obs::CAPACITY");
    let want: Vec<u64> = (total - CAP as u64 + 1..=total).map(|v| v * 10).collect();
    let got: Vec<u64> = s.iter().map(|x| x.v).collect();
    assert_eq!(got, want, "wraparound must keep exactly the newest {CAP}");
    assert!(
        s.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
        "sample timestamps must be monotone"
    );
}

#[test]
fn concurrent_scrape_never_tears() {
    let _g = pass_lock();
    // Gauge values carry low32 == high32; a torn (t_ns, v) read or a
    // half-written slot that slipped past the stamp check would surface
    // as a value violating the pattern.
    let ctr = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&ctr);
    let reg = Arc::new(obs::register(
        "test/tear",
        StatsSnapshot::default,
        move || {
            let x = c.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
            (x << 32) | x
        },
    ));
    const READERS: u64 = 3;
    let stop = Arc::new(AtomicU64::new(0));
    // Readers that have scraped at least one sample: the writer keeps
    // sampling until every reader has, so a release build's 2000 passes
    // cannot finish before a reader's first scrape.
    let started = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                while stop.load(Ordering::Relaxed) == 0 {
                    let before = seen;
                    for s in reg.series(SeriesKind::Unreclaimed) {
                        assert_eq!(s.v >> 32, s.v & 0xffff_ffff, "torn sample read: {:#x}", s.v);
                        seen += 1;
                    }
                    if before == 0 && seen > 0 {
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                }
                seen
            })
        })
        .collect();
    let mut passes = 0u64;
    while passes < 2000 || started.load(Ordering::Relaxed) < READERS {
        obs::sample_now();
        passes += 1;
    }
    stop.store(1, Ordering::Relaxed);
    for r in readers {
        let seen = r.join().unwrap();
        assert!(seen > 0, "reader never observed a sample");
    }
}

#[test]
fn watchdog_hysteresis_needs_k_consecutive_rises() {
    let _g = pass_lock();
    let (reg, gauge) = synthetic("test/hysteresis");
    obs::sample_now(); // baseline: starts the comparison chain, no vote
    for v in 1..K {
        gauge.store(v, Ordering::Relaxed);
        obs::sample_now();
    }
    assert_eq!(reg.alert_count(), 0, "K-1 rises must not alert");
    obs::sample_now(); // flat sample: resets the streak
    for v in K..2 * K - 1 {
        gauge.store(v, Ordering::Relaxed);
        obs::sample_now();
    }
    assert_eq!(
        reg.alert_count(),
        0,
        "the flat sample must have reset the rising streak"
    );
    gauge.store(2 * K, Ordering::Relaxed);
    obs::sample_now(); // K-th consecutive rise
    assert_eq!(reg.alert_count(), 1, "K consecutive rises must alert once");
    gauge.store(2 * K + 1, Ordering::Relaxed);
    obs::sample_now();
    assert_eq!(
        reg.alert_count(),
        1,
        "a continuing streak must not re-alert until it resets"
    );
}

/// `Registration::sample` is a pass over one source: interleaving a
/// flat sibling's passes with a rising source's must neither reset the
/// riser's streak nor show up in its series (a shared `sample_now` pass
/// would stamp both sources with one `t_ns`). The pass lock is still
/// held — the *other* tests here drive the global pass, which would
/// reach these two sources.
#[test]
fn handle_owned_pass_samples_only_its_own_source() {
    let _g = pass_lock();
    let (a, rising) = synthetic("test/own/rising");
    let (b, _flat) = synthetic("test/own/flat");
    a.sample(); // baseline
    b.sample();
    for v in 1..=K {
        rising.store(v, Ordering::Relaxed);
        a.sample();
        b.sample();
    }
    assert_eq!(a.alert_count(), 1, "K uninterrupted rises must alert");
    assert_eq!(b.alert_count(), 0, "the flat sibling must stay silent");
    let ts = |r: &obs::Registration| -> Vec<u64> {
        let s = r.series(SeriesKind::Unreclaimed);
        s.iter().map(|x| x.t_ns).collect()
    };
    let (ta, tb) = (ts(&a), ts(&b));
    assert_eq!((ta.len(), tb.len()), (K as usize + 1, K as usize + 1));
    assert!(
        ta.iter().all(|t| !tb.contains(t)),
        "a pass leaked across sources: {ta:?} vs {tb:?}"
    );
}

#[test]
fn rate_series_derive_from_stats_deltas() {
    let _g = pass_lock();
    let stats = Arc::new(SchemeStats::new());
    let s = Arc::clone(&stats);
    let reg = obs::register("test/rates", move || s.snapshot(), || 0);
    stats.add(0, Event::Retire, 100);
    obs::sample_now(); // first pass: rates undefined, reported as 0
    stats.add(0, Event::Retire, 50);
    obs::sample_now();
    let r = reg.series(SeriesKind::RetireRate);
    assert_eq!(r.len(), 2);
    assert_eq!(r[0].v, 0, "first pass has no interval to rate over");
    assert!(r[1].v > 0, "50 retires in the interval must yield a rate");
}

#[test]
fn exporters_round_trip() {
    let _g = pass_lock();
    // A hostile label exercises both escapers end to end.
    let (reg, gauge) = synthetic("test/export \"q\"\\w");
    gauge.store(7, Ordering::Relaxed);
    for kind in obs::ALL_OPS {
        obs::record_op(kind, 1_000);
    }
    obs::annotate(AnnKind::ModeSwitch, 1);
    obs::sample_now();
    let rep = obs::report();
    let prom = rep.prometheus();
    assert!(
        obs::prom_wellformed(&prom),
        "exposition failed its own validator:\n{prom}"
    );
    assert!(prom.contains("orc_obs_unreclaimed"));
    assert!(prom.contains("orc_obs_op_latency_ns"));
    let jl = rep.json_lines();
    assert!(!jl.is_empty());
    for line in jl.lines() {
        assert!(json::parse(line).is_ok(), "bad JSON line: {line}");
    }
    drop(reg);
}

#[test]
fn op_spans_sample_on_the_stride() {
    let _g = pass_lock();
    let _ = obs::op_take_window(); // drain earlier tests' samples
    let n = 10 * obs::OP_SAMPLE_STRIDE;
    // A fresh thread starts its stride counter at zero, making the
    // sampled count exact rather than phase-dependent.
    let ran = std::thread::spawn(move || {
        let mut ran = 0u64;
        for _ in 0..n {
            obs::time_op(OpKind::Contains, || ran += 1);
        }
        ran
    })
    .join()
    .unwrap();
    assert_eq!(ran, n as u64, "time_op must run the closure exactly once");
    let w = obs::op_take_window();
    assert_eq!(
        w[OpKind::Contains].count(),
        (n / obs::OP_SAMPLE_STRIDE) as u64,
        "stride sampling must record exactly 1 in {} ops",
        obs::OP_SAMPLE_STRIDE
    );
    assert!(w[OpKind::Contains].max >= w[OpKind::Contains].p50());
    assert_eq!(w[OpKind::Insert].count(), 0, "window reset must be total");
}
