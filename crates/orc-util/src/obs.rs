//! orc-obs: live time-series telemetry, operation-latency spans, and a
//! reclamation health watchdog.
//!
//! orc-stats ([`crate::stats`]) aggregates *end-of-run* counters and
//! orc-trace ([`crate::trace`]) records *individual* events; neither can
//! answer the paper's §5 question — does unreclaimed memory stay flat
//! *over time*, even under a stalled reader? — without post-processing.
//! This module closes that gap with three cooperating pieces:
//!
//! 1. **Sampler.** Telemetry sources (one per scheme instance or OrcGC
//!    domain, registered via [`register`]) are scraped periodically — by
//!    a background thread every `ORC_OBS_INTERVAL_MS` milliseconds, or
//!    synchronously via [`sample_now`] — into per-series fixed-capacity
//!    [`SeqRing<2>`](crate::ring::SeqRing)s (one writer pass at a time,
//!    wait-free readers). Each source yields an
//!    `unreclaimed` gauge plus `retire_rate` / `reclaim_rate` /
//!    `protect_retry_rate` / `delay_p99_ns` series derived from
//!    consecutive [`crate::stats::StatsSnapshot`] deltas; a process-wide
//!    source adds `live_slots` (orc-pool) and `live_bytes` (the track
//!    ledger) memory curves.
//! 2. **Operation-latency spans.** [`time_op`] wraps a structure
//!    operation ([`OpKind`]: insert/remove/contains/enqueue/dequeue) and
//!    — on a 1-in-[`OP_SAMPLE_STRIDE`] per-thread [`Stride`] — times it into
//!    a shared [`Hist`] per op kind, so op_p50/p99/max come out of
//!    [`op_snapshot`] for every scheme × structure pair without touching
//!    any structure's code. The stride bounds the added clock reads to
//!    < 1% of operations (overhead budget: DESIGN.md §14).
//! 3. **Watchdog.** Every sampling pass compares each source's
//!    `unreclaimed` gauge to the previous sample; [`STALL_K`]
//!    *consecutive strictly-rising* samples latch an [`ObsAlert`] — the
//!    live signature of a reclamation stall (a stalled reader pinning an
//!    ever-growing retired set, a leaky scheme, a flapping controller).
//!    One rise short of K keeps the streak but raises nothing
//!    (hysteresis), and any non-rise resets it, so bounded schemes whose
//!    gauge sawtooths under healthy churn never alert.
//!
//! [`report`] exports everything as Prometheus text exposition
//! ([`ObsReport::prometheus`], validated by [`prom_wellformed`]) and as
//! JSON lines ([`ObsReport::json_lines`], each line valid per
//! [`crate::json::parse`]). `ModeSwitch` flips (the adaptive
//! controller), stall-injection arms/releases, and watchdog alerts land
//! in a bounded annotation journal ([`annotate`]/[`annotations`]) so the
//! series can be read against the control-plane timeline.
//!
//! Everything is behind the `ORC_OBS` kill switch ([`crate::switch`]).
//! Disabled, nothing materializes: no rings, no histograms, no sampler
//! thread, and [`time_op`] is a single latched branch around the closure
//! — the structural guarantee `tests/obs_killswitch.rs` pins down.

use crate::hist::{Hist, HistSnapshot};
use crate::json::Writer;
use crate::ring::SeqRing;
use crate::sample::Stride;
use crate::stats::StatsSnapshot;
use crate::switch::Switch;
use crate::{pool, trace, track};
use std::collections::VecDeque;
// `std` atomics: telemetry is never a model step (DESIGN.md §9.1).
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Knobs (latched on first use; see EXPERIMENTS.md "Observability") and
// fixed limits.
// ---------------------------------------------------------------------

static SWITCH: Switch = Switch::new("ORC_OBS");

/// Whether orc-obs is on (the `ORC_OBS` [`Switch`]).
#[inline]
pub fn enabled() -> bool {
    SWITCH.enabled()
}

/// Background sampling period in ms (`ORC_OBS_INTERVAL_MS`, default 25).
/// `0` disables the background thread entirely: samples are then taken
/// only by explicit [`sample_now`] calls (what the deterministic tests
/// use).
pub fn interval_ms() -> u64 {
    static INTERVAL: OnceLock<u64> = OnceLock::new();
    *INTERVAL.get_or_init(|| {
        std::env::var("ORC_OBS_INTERVAL_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(25)
            .min(60_000)
    })
}

/// Per-series ring capacity in samples; a full ring overwrites its
/// oldest samples.
pub const CAPACITY: usize = 512;

/// Consecutive strictly-rising samples of a source's `unreclaimed` gauge
/// before the watchdog raises an [`ObsAlert`].
pub const STALL_K: u64 = 5;

// ---------------------------------------------------------------------
// Series rings: one `SeqRing<2>` of (t_ns, value) per series. Sampling
// passes are serialised by the source-registry mutex, which makes them
// the ring's single writer.
// ---------------------------------------------------------------------

/// One (monotone-epoch timestamp, value) telemetry sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Monotone nanoseconds since the process trace epoch
    /// ([`crate::trace::now_ns`] — the same clock as the Perfetto
    /// export and the torture `--json` `t_ns` anchors).
    pub t_ns: u64,
    /// Series value (unit depends on the [`SeriesKind`]).
    pub v: u64,
}

type SeriesRing = SeqRing<2>;

/// The newest ≤ capacity samples of `ring`, oldest first.
fn samples(ring: &SeriesRing) -> Vec<Sample> {
    ring.snapshot()
        .into_iter()
        .map(|(_, [t_ns, v])| Sample { t_ns, v })
        .collect()
}

// ---------------------------------------------------------------------
// Series taxonomy.
// ---------------------------------------------------------------------

/// Which time series a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// The source's `unreclaimed()` gauge (objects retired, not freed).
    Unreclaimed = 0,
    /// Retires per second over the last sampling interval.
    RetireRate = 1,
    /// Reclaims per second over the last sampling interval.
    ReclaimRate = 2,
    /// Protect-loop validation retries per second over the interval.
    ProtectRetryRate = 3,
    /// p99 of the retire→reclaim delay histogram *delta* over the
    /// interval, in nanoseconds — over the sampled objects (1 retire in
    /// [`crate::sample::SAMPLE_EVERY`]) freed in it; 0 when none was.
    DelayP99Ns = 4,
    /// Process-wide orc-pool live slots (allocs − frees); the
    /// memory-over-time curve of the paper's §5 plots. Process source
    /// only.
    LiveSlots = 5,
    /// Process-wide live bytes per the track ledger. Process source
    /// only.
    LiveBytes = 6,
}

/// The per-source series, in ring order.
pub const SOURCE_SERIES: [SeriesKind; 5] = [
    SeriesKind::Unreclaimed,
    SeriesKind::RetireRate,
    SeriesKind::ReclaimRate,
    SeriesKind::ProtectRetryRate,
    SeriesKind::DelayP99Ns,
];

/// The process-wide series, in ring order.
pub const PROCESS_SERIES: [SeriesKind; 2] = [SeriesKind::LiveSlots, SeriesKind::LiveBytes];

impl SeriesKind {
    /// Snake-case series name (JSON keys, Prometheus metric suffixes).
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Unreclaimed => "unreclaimed",
            SeriesKind::RetireRate => "retire_rate",
            SeriesKind::ReclaimRate => "reclaim_rate",
            SeriesKind::ProtectRetryRate => "protect_retry_rate",
            SeriesKind::DelayP99Ns => "delay_p99_ns",
            SeriesKind::LiveSlots => "live_slots",
            SeriesKind::LiveBytes => "live_bytes",
        }
    }
}

// ---------------------------------------------------------------------
// Sources and the registry.
// ---------------------------------------------------------------------

/// Sampler-visible state of one registered source. Shared between the
/// owning [`Registration`] and the registry (which the sampling passes
/// iterate).
struct SourceState {
    id: u64,
    label: String,
    stats: Box<dyn Fn() -> StatsSnapshot + Send + Sync>,
    unreclaimed: Box<dyn Fn() -> u64 + Send + Sync>,
    /// One ring per entry of [`SOURCE_SERIES`].
    rings: Box<[SeriesRing]>,
    /// Watchdog + delta state, touched only by sampling passes (which
    /// hold the registry lock); `alerts` is also read lock-free by
    /// [`Registration::alert_count`].
    pass: Mutex<PassState>,
    alerts: AtomicU64,
}

/// Per-source state carried between consecutive sampling passes.
struct PassState {
    /// Snapshot at the previous pass (for rate deltas).
    last_stats: StatsSnapshot,
    /// `t_ns` of the previous pass; 0 = not yet sampled (baseline).
    last_t_ns: u64,
    /// `unreclaimed` at the previous pass.
    last_unreclaimed: u64,
    /// Consecutive strictly-rising samples so far.
    rising_streak: u64,
}

/// A watchdog alert: `streak` consecutive samples of one source's
/// `unreclaimed` gauge rose without a single dip — retires are outpacing
/// reclaims, the live signature of a stalled reader (or a leaky scheme).
#[derive(Debug, Clone)]
pub struct ObsAlert {
    /// The source's registration label.
    pub source: String,
    /// Monotone-epoch time of the sample that crossed the threshold.
    pub t_ns: u64,
    /// Rising-streak length when the alert latched (== [`STALL_K`]).
    pub streak: u64,
    /// The gauge value at that sample.
    pub unreclaimed: u64,
}

/// Everything captured for one source: label, per-series samples, and
/// how many watchdog alerts it has raised.
#[derive(Debug, Clone)]
pub struct SourceReport {
    pub label: String,
    pub alerts: u64,
    /// `(kind, samples)` per entry of the source's series set.
    pub series: Vec<(SeriesKind, Vec<Sample>)>,
}

impl SourceReport {
    /// `{"unreclaimed":[[t_ns,v],...],...}` — the nested object the
    /// bench `Measurement::json` embeds as `"obs":{"series":...}`.
    pub fn series_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj();
        for (kind, samples) in &self.series {
            w.key(kind.name());
            write_samples(&mut w, samples);
        }
        w.end_obj();
        w.finish()
    }
}

/// `[[t_ns,v],...]`.
fn write_samples(w: &mut Writer, samples: &[Sample]) {
    w.begin_arr();
    for s in samples {
        w.begin_arr().int(s.t_ns).int(s.v).end_arr();
    }
    w.end_arr();
}

type SourceVec = Vec<Arc<SourceState>>;

static SOURCES: OnceLock<Mutex<SourceVec>> = OnceLock::new();
static NEXT_SOURCE_ID: AtomicU64 = AtomicU64::new(1);
/// Completed sampling passes (diagnostics; tests use it to await the
/// background thread).
static PASSES: AtomicU64 = AtomicU64::new(0);

/// The process-wide memory rings ([`PROCESS_SERIES`]).
static PROCESS_RINGS: OnceLock<Box<[SeriesRing]>> = OnceLock::new();

fn sources() -> &'static Mutex<SourceVec> {
    SOURCES.get_or_init(|| Mutex::new(Vec::new()))
}

fn process_rings() -> &'static [SeriesRing] {
    PROCESS_RINGS.get_or_init(|| {
        PROCESS_SERIES
            .iter()
            .map(|_| SeriesRing::new(CAPACITY))
            .collect()
    })
}

/// Whether any orc-obs state has been allocated. Stays `false` for the
/// whole process under `ORC_OBS=0` — the structural zero-cost guarantee
/// (see `tests/obs_killswitch.rs`).
pub fn is_materialized() -> bool {
    SOURCES.get().is_some()
        || PROCESS_RINGS.get().is_some()
        || OP_HIST.get().is_some()
        || ANNOTATIONS.get().is_some()
        || ALERTS.get().is_some()
}

/// Registers a telemetry source: `stats` yields its cumulative
/// [`StatsSnapshot`], `unreclaimed` its current gauge. Returns a
/// [`Registration`] guard — dropping it unregisters the source and is
/// the *only* way the closures (which typically hold a scheme handle)
/// are released, so drop it before any teardown assertion that needs
/// the last handle gone. When orc-obs is disabled the guard is inert
/// and nothing is allocated.
///
/// Registering the first source starts the background sampler thread
/// (unless `ORC_OBS_INTERVAL_MS=0`).
pub fn register(
    label: &str,
    stats: impl Fn() -> StatsSnapshot + Send + Sync + 'static,
    unreclaimed: impl Fn() -> u64 + Send + Sync + 'static,
) -> Registration {
    if !enabled() {
        return Registration { state: None };
    }
    let state = Arc::new(SourceState {
        id: NEXT_SOURCE_ID.fetch_add(1, Ordering::Relaxed),
        label: label.to_string(),
        stats: Box::new(stats),
        unreclaimed: Box::new(unreclaimed),
        rings: SOURCE_SERIES
            .iter()
            .map(|_| SeriesRing::new(CAPACITY))
            .collect(),
        pass: Mutex::new(PassState {
            last_stats: StatsSnapshot::default(),
            last_t_ns: 0,
            last_unreclaimed: 0,
            rising_streak: 0,
        }),
        alerts: AtomicU64::new(0),
    });
    sources().lock().unwrap().push(Arc::clone(&state));
    ensure_sampler();
    Registration { state: Some(state) }
}

/// Guard for one registered source; see [`register`].
pub struct Registration {
    state: Option<Arc<SourceState>>,
}

impl Registration {
    /// The label this source was registered under ("" when inert).
    pub fn label(&self) -> &str {
        self.state.as_ref().map(|s| s.label.as_str()).unwrap_or("")
    }

    /// The newest samples of one of this source's series (empty for
    /// process-only kinds or when orc-obs is off).
    pub fn series(&self, kind: SeriesKind) -> Vec<Sample> {
        let Some(s) = &self.state else {
            return Vec::new();
        };
        match SOURCE_SERIES.iter().position(|k| *k == kind) {
            Some(i) => samples(&s.rings[i]),
            None => Vec::new(),
        }
    }

    /// Watchdog alerts this source has raised so far.
    pub fn alert_count(&self) -> u64 {
        self.state
            .as_ref()
            .map(|s| s.alerts.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Takes one sampling pass over *this source alone*: the same
    /// per-source step as [`sample_now`], but no other registration sees
    /// a sample and the process series are not pushed. This is the
    /// deterministic driver for a test that owns its source — a sibling
    /// test's passes cannot land in it, and its passes cannot reset a
    /// sibling's rising streak. Inert when orc-obs is off.
    pub fn sample(&self) {
        let Some(s) = &self.state else {
            return;
        };
        // Holding the registry lock is what makes a pass the rings'
        // single writer (a background pass may be due).
        let _pass = sources().lock().unwrap();
        sample_source(s, trace::now_ns());
    }

    /// Full capture of this source (label + all series + alert count).
    pub fn report(&self) -> SourceReport {
        match &self.state {
            Some(s) => source_report(s),
            None => SourceReport {
                label: String::new(),
                alerts: 0,
                series: Vec::new(),
            },
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            // A sampling pass holds this lock for its whole iteration,
            // so once `retain` returns, no pass can still be calling the
            // closures — the scheme handles they captured drop here, on
            // the unregistering thread.
            sources().lock().unwrap().retain(|s| s.id != state.id);
        }
    }
}

fn source_report(s: &Arc<SourceState>) -> SourceReport {
    SourceReport {
        label: s.label.clone(),
        alerts: s.alerts.load(Ordering::Relaxed),
        series: SOURCE_SERIES
            .iter()
            .enumerate()
            .map(|(i, kind)| (*kind, samples(&s.rings[i])))
            .collect(),
    }
}

/// Currently registered source count (tests / the dashboard example).
pub fn source_count() -> usize {
    SOURCES.get().map(|m| m.lock().unwrap().len()).unwrap_or(0)
}

/// Completed sampling passes so far.
pub fn passes() -> u64 {
    PASSES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// The sampling pass.
// ---------------------------------------------------------------------

/// Takes one synchronous sampling pass over every registered source
/// (plus the process memory series) — exactly what the background
/// thread does each interval. Deterministic tests drive the sampler
/// with this under `ORC_OBS_INTERVAL_MS=0`. No-op when disabled or when
/// nothing has ever registered.
pub fn sample_now() {
    if !enabled() {
        return;
    }
    let Some(srcs) = SOURCES.get() else {
        return;
    };
    let t = trace::now_ns();
    // Process-wide memory curves (sampled even with zero sources live,
    // so a bench's curve spans scheme teardown too).
    let rings = process_rings();
    let p = pool::snapshot();
    rings[0].push([t, p.live_slots().max(0) as u64]);
    rings[1].push([t, track::global().live_bytes().max(0) as u64]);
    let guard = srcs.lock().unwrap();
    for s in guard.iter() {
        sample_source(s, t);
    }
    drop(guard);
    PASSES.fetch_add(1, Ordering::Relaxed);
}

fn sample_source(s: &Arc<SourceState>, t: u64) {
    let snap = (s.stats)();
    let unr = (s.unreclaimed)();
    let mut pass = s.pass.lock().unwrap();
    let first = pass.last_t_ns == 0;
    let dt_ns = t.saturating_sub(pass.last_t_ns).max(1);
    let d = snap.since(&pass.last_stats);
    let rate = |n: u64| -> u64 {
        if first {
            0
        } else {
            ((n as u128) * 1_000_000_000 / dt_ns as u128) as u64
        }
    };
    s.rings[0].push([t, unr]);
    s.rings[1].push([t, rate(d.retires)]);
    s.rings[2].push([t, rate(d.reclaims)]);
    s.rings[3].push([t, rate(d.protect_retries)]);
    s.rings[4].push([t, d.delay_p99()]);

    // Watchdog: K consecutive strictly-rising unreclaimed samples latch
    // an alert. The baseline sample starts the comparison chain at the
    // gauge's current value, so pre-existing debt alone never alerts.
    if !first {
        if unr > pass.last_unreclaimed {
            pass.rising_streak += 1;
            if pass.rising_streak == STALL_K {
                s.alerts.fetch_add(1, Ordering::Relaxed);
                raise_alert(ObsAlert {
                    source: s.label.clone(),
                    t_ns: t,
                    streak: pass.rising_streak,
                    unreclaimed: unr,
                });
            }
        } else {
            pass.rising_streak = 0;
        }
    }
    pass.last_stats = snap;
    pass.last_t_ns = t;
    pass.last_unreclaimed = unr;
}

/// The process memory series ([`SeriesKind::LiveSlots`] /
/// [`SeriesKind::LiveBytes`]); empty before the first pass.
pub fn process_series(kind: SeriesKind) -> Vec<Sample> {
    let Some(rings) = PROCESS_RINGS.get() else {
        return Vec::new();
    };
    match PROCESS_SERIES.iter().position(|k| *k == kind) {
        Some(i) => samples(&rings[i]),
        None => Vec::new(),
    }
}

fn ensure_sampler() {
    static STARTED: OnceLock<()> = OnceLock::new();
    if interval_ms() == 0 {
        return;
    }
    STARTED.get_or_init(|| {
        let period = std::time::Duration::from_millis(interval_ms());
        // Detached daemon; sleeps out the process tail. Each pass costs
        // one snapshot per live source — idle (no sources), it is a
        // mutex lock + two ring pushes per period.
        let _ = std::thread::Builder::new()
            .name("orc-obs-sampler".into())
            .spawn(move || loop {
                std::thread::sleep(period);
                sample_now();
            });
    });
}

// ---------------------------------------------------------------------
// Watchdog alert journal.
// ---------------------------------------------------------------------

/// Most alerts retained in the journal (per-source counters are exact
/// regardless).
const MAX_ALERTS: usize = 256;

static ALERTS: OnceLock<Mutex<VecDeque<ObsAlert>>> = OnceLock::new();

fn raise_alert(a: ObsAlert) {
    annotate(AnnKind::Alert, a.unreclaimed);
    let q = ALERTS.get_or_init(|| Mutex::new(VecDeque::new()));
    let mut q = q.lock().unwrap();
    if q.len() == MAX_ALERTS {
        q.pop_front();
    }
    q.push_back(a);
}

/// All retained watchdog alerts, oldest first.
pub fn alerts() -> Vec<ObsAlert> {
    ALERTS
        .get()
        .map(|q| q.lock().unwrap().iter().cloned().collect())
        .unwrap_or_default()
}

/// Total alerts ever raised process-wide.
pub fn alert_count() -> u64 {
    TOTAL_ALERTS.load(Ordering::Relaxed)
}

static TOTAL_ALERTS: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------
// Timeline annotations (control-plane events against the series).
// ---------------------------------------------------------------------

/// What a timeline annotation marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnKind {
    /// Adaptive controller switched protection mode (`a` = new mode
    /// word; see DESIGN.md §12).
    ModeSwitch,
    /// A stall gate was armed on some thread (`a` = injection point).
    StallArm,
    /// A stall gate released its parked victim.
    StallRelease,
    /// The watchdog latched an [`ObsAlert`] (`a` = gauge value).
    Alert,
}

impl AnnKind {
    pub fn name(self) -> &'static str {
        match self {
            AnnKind::ModeSwitch => "mode_switch",
            AnnKind::StallArm => "stall_arm",
            AnnKind::StallRelease => "stall_release",
            AnnKind::Alert => "alert",
        }
    }
}

/// One timeline annotation.
#[derive(Debug, Clone, Copy)]
pub struct Annotation {
    pub t_ns: u64,
    pub kind: AnnKind,
    /// Kind-specific payload word.
    pub a: u64,
}

/// Most annotations retained (control-plane events are rare; a bounded
/// mutex-guarded journal is fine off the per-op hot path).
const MAX_ANNOTATIONS: usize = 1024;

static ANNOTATIONS: OnceLock<Mutex<VecDeque<Annotation>>> = OnceLock::new();

/// Journals a control-plane event against the sampler timeline. Called
/// by the adaptive controller on `ModeSwitch` and by the stall-injection
/// machinery on arm/release; no-op (and allocation-free) when orc-obs is
/// off.
pub fn annotate(kind: AnnKind, a: u64) {
    if !enabled() {
        return;
    }
    if kind == AnnKind::Alert {
        TOTAL_ALERTS.fetch_add(1, Ordering::Relaxed);
    }
    let q = ANNOTATIONS.get_or_init(|| Mutex::new(VecDeque::new()));
    let mut q = q.lock().unwrap();
    if q.len() == MAX_ANNOTATIONS {
        q.pop_front();
    }
    q.push_back(Annotation {
        t_ns: trace::now_ns(),
        kind,
        a,
    });
}

/// All retained annotations, oldest first.
pub fn annotations() -> Vec<Annotation> {
    ANNOTATIONS
        .get()
        .map(|q| q.lock().unwrap().iter().cloned().collect())
        .unwrap_or_default()
}

// ---------------------------------------------------------------------
// Operation-latency spans.
// ---------------------------------------------------------------------

/// A structure operation kind, as timed by [`time_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert = 0,
    Remove = 1,
    Contains = 2,
    Enqueue = 3,
    Dequeue = 4,
}

/// Number of [`OpKind`] variants.
pub const OP_KINDS: usize = 5;

/// All op kinds, index-ordered.
pub const ALL_OPS: [OpKind; OP_KINDS] = [
    OpKind::Insert,
    OpKind::Remove,
    OpKind::Contains,
    OpKind::Enqueue,
    OpKind::Dequeue,
];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Contains => "contains",
            OpKind::Enqueue => "enqueue",
            OpKind::Dequeue => "dequeue",
        }
    }
}

/// Per-thread stride between timed operations: 1 in every
/// `OP_SAMPLE_STRIDE` wrapped ops pays the two clock reads; the rest pay
/// a thread-local counter bump ([`crate::sample`]).
pub use crate::sample::OP_SAMPLE_STRIDE;

/// One shared latency histogram per [`OpKind`].
static OP_HIST: OnceLock<[Hist; OP_KINDS]> = OnceLock::new();

/// Records one timed operation. Exposed so harnesses with their own
/// timing can feed the spans; structure wrappers go through [`time_op`].
pub fn record_op(kind: OpKind, ns: u64) {
    if enabled() {
        OP_HIST.get_or_init(Default::default)[kind as usize].record(ns);
    }
}

thread_local! {
    /// Starts at 1: a thread's 128th op is its first timed one.
    static OP_STRIDE: Stride = const { Stride::new(1) };
}

/// Runs `f`, timing it into the `kind` span on a
/// 1-in-[`OP_SAMPLE_STRIDE`] per-thread stride. Disabled
/// (`ORC_OBS=0`), this is one latched branch around `f` — no counter,
/// no clock, nothing materialized.
#[inline]
pub fn time_op<R>(kind: OpKind, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let due = OP_STRIDE.with(|s| s.draw(u64::from(OP_SAMPLE_STRIDE)).is_some());
    if !due {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    record_op(kind, t0.elapsed().as_nanos() as u64);
    r
}

/// Cumulative operation-latency spans: one [`HistSnapshot`] (sampled
/// count ≈ ops / [`OP_SAMPLE_STRIDE`], quantiles, exact maximum) per
/// [`OpKind`] — `window[OpKind::Insert].p99()`.
#[derive(Debug, Clone, Default)]
pub struct OpSnapshot {
    pub hists: Box<[HistSnapshot; OP_KINDS]>,
}

impl std::ops::Index<OpKind> for OpSnapshot {
    type Output = HistSnapshot;

    fn index(&self, kind: OpKind) -> &HistSnapshot {
        &self.hists[kind as usize]
    }
}

impl OpSnapshot {
    /// The kinds that recorded at least one sample, index-ordered.
    fn sampled(&self) -> impl Iterator<Item = OpKind> + '_ {
        ALL_OPS.into_iter().filter(|k| self[*k].count() > 0)
    }

    /// Writes `"count":..,"p50_ns":..,"p99_ns":..,"max_ns":..` for `kind`
    /// into the object `w` is in.
    fn write_span(&self, w: &mut Writer, kind: OpKind) {
        let h = &self[kind];
        w.key("count").int(h.count()).key("p50_ns").int(h.p50());
        w.key("p99_ns").int(h.p99()).key("max_ns").int(h.max);
    }

    /// `{"insert":{"count":..,"p50_ns":..,"p99_ns":..,"max_ns":..},...}`
    /// over the kinds that recorded at least one sample.
    pub fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj();
        for kind in self.sampled() {
            w.key(kind.name()).begin_obj();
            self.write_span(&mut w, kind);
            w.end_obj();
        }
        w.end_obj();
        w.finish()
    }
}

/// Cumulative spans since process start (or the last
/// [`op_take_window`]).
pub fn op_snapshot() -> OpSnapshot {
    op_window(Hist::snapshot)
}

/// Snapshots the spans and resets them to zero — the bench runner
/// brackets each cell with this so per-cell op latencies do not bleed
/// into each other. Only sound when no wrapped structure is mid-op
/// (the runner joins its workers first); concurrent [`time_op`] calls
/// would straddle the reset harmlessly but shift one sample between
/// windows.
pub fn op_take_window() -> OpSnapshot {
    op_window(Hist::take)
}

fn op_window(read: impl Fn(&Hist) -> HistSnapshot) -> OpSnapshot {
    match OP_HIST.get() {
        Some(h) => OpSnapshot {
            hists: Box::new(std::array::from_fn(|k| read(&h[k]))),
        },
        None => OpSnapshot::default(),
    }
}

// ---------------------------------------------------------------------
// ObsReport: Prometheus text exposition + JSON lines.
// ---------------------------------------------------------------------

/// A point-in-time export of everything orc-obs holds: per-source
/// series, the process memory curves, op-latency spans, alerts, and
/// annotations.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Monotone-epoch capture time.
    pub t_ns: u64,
    pub sources: Vec<SourceReport>,
    /// `(kind, samples)` for [`PROCESS_SERIES`].
    pub process: Vec<(SeriesKind, Vec<Sample>)>,
    pub op: OpSnapshot,
    pub alerts: Vec<ObsAlert>,
    pub annotations: Vec<Annotation>,
    pub passes: u64,
}

/// Captures an [`ObsReport`] from the live registry. Cheap enough to
/// call per dashboard refresh; empty (but well-formed) when orc-obs is
/// disabled.
pub fn report() -> ObsReport {
    let sources = SOURCES
        .get()
        .map(|m| m.lock().unwrap().iter().map(source_report).collect())
        .unwrap_or_default();
    let process = if PROCESS_RINGS.get().is_some() {
        PROCESS_SERIES
            .iter()
            .map(|k| (*k, process_series(*k)))
            .collect()
    } else {
        Vec::new()
    };
    ObsReport {
        t_ns: trace::now_ns(),
        sources,
        process,
        op: op_snapshot(),
        alerts: alerts(),
        annotations: annotations(),
        passes: passes(),
    }
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl ObsReport {
    /// Prometheus text exposition (format 0.0.4): the latest value of
    /// every series plus pass/alert counters and op-latency quantiles.
    /// Always well-formed per [`prom_wellformed`], including the empty
    /// report.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE orc_obs_passes_total counter\n");
        out.push_str(&format!("orc_obs_passes_total {}\n", self.passes));
        out.push_str("# TYPE orc_obs_alerts_total counter\n");
        out.push_str(&format!("orc_obs_alerts_total {}\n", alert_count()));

        let mut typed: Vec<(String, Vec<String>)> = Vec::new();
        let mut push_sample = |metric: &str, label: String, v: u64| {
            let line = format!("{metric}{{{label}}} {v}");
            match typed.iter_mut().find(|(m, _)| m == metric) {
                Some((_, lines)) => lines.push(line),
                None => typed.push((metric.to_string(), vec![line])),
            }
        };
        let sources = self
            .sources
            .iter()
            .map(|s| (prom_escape(&s.label), &s.series, Some(s.alerts)));
        for (source, series, alerts) in sources.chain([("process".into(), &self.process, None)]) {
            let label = format!("source=\"{source}\"");
            for (kind, samples) in series {
                if let Some(last) = samples.last() {
                    push_sample(&format!("orc_obs_{}", kind.name()), label.clone(), last.v);
                }
            }
            if let Some(alerts) = alerts {
                push_sample("orc_obs_source_alerts", label, alerts);
            }
        }
        for kind in self.op.sampled() {
            let (op, h) = (prom_escape(kind.name()), &self.op[kind]);
            for (q, v) in [("p50", h.p50()), ("p99", h.p99()), ("max", h.max)] {
                let label = format!("op=\"{op}\",q=\"{q}\"");
                push_sample("orc_obs_op_latency_ns", label, v);
            }
            push_sample(
                "orc_obs_op_samples_total",
                format!("op=\"{op}\""),
                h.count(),
            );
        }
        for (metric, lines) in typed {
            let family = if metric.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!("# TYPE {metric} {family}\n"));
            for l in lines {
                out.push_str(&l);
                out.push('\n');
            }
        }
        out
    }

    /// JSON-lines export: one object per series / op kind / alert /
    /// annotation. Every line is independently valid JSON (checked with
    /// [`crate::json::parse`] in the tests), so `grep` + any line parser
    /// can consume the dump.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        let mut line = |ty: &str, body: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            w.begin_obj().key("type").str(ty);
            body(&mut w);
            w.end_obj();
            out.push_str(&w.finish());
            out.push('\n');
        };
        let sources = self.sources.iter().map(|s| (s.label.as_str(), &s.series));
        for (source, series) in sources.chain([("process", &self.process)]) {
            for (kind, samples) in series {
                line("series", &|w| {
                    w.key("source").str(source).key("series").str(kind.name());
                    w.key("samples");
                    write_samples(w, samples);
                });
            }
        }
        for kind in self.op.sampled() {
            line("op", &|w| {
                w.key("op").str(kind.name());
                self.op.write_span(w, kind);
            });
        }
        for a in &self.alerts {
            line("alert", &|w| {
                w.key("source").str(&a.source).key("t_ns").int(a.t_ns);
                w.key("streak").int(a.streak);
                w.key("unreclaimed").int(a.unreclaimed);
            });
        }
        for a in &self.annotations {
            line("annotation", &|w| {
                w.key("t_ns").int(a.t_ns).key("kind").str(a.kind.name());
                w.key("a").int(a.a);
            });
        }
        out
    }
}

// ---------------------------------------------------------------------
// Prometheus line-format validator (the round-trip check for
// `ObsReport::prometheus`; hand-rolled — no external deps).
// ---------------------------------------------------------------------

/// Validates Prometheus text-exposition output: every line is a comment
/// (`# HELP` / `# TYPE` with a valid metric name, or free-form `#`), or
/// a sample `name{label="value",...} <number> [<timestamp>]`; and every
/// sample's metric family has a `# TYPE` line above it. Empty input is
/// valid (the disabled exposition).
pub fn prom_wellformed(s: &str) -> bool {
    let mut typed: Vec<String> = Vec::new();
    for line in s.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            for key in ["TYPE", "HELP"] {
                if let Some(body) = rest.strip_prefix(key) {
                    let mut parts = body.trim_start().splitn(2, ' ');
                    let name = parts.next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return false;
                    }
                    if key == "TYPE" {
                        let fam = parts.next().unwrap_or("").trim();
                        if !matches!(
                            fam,
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        ) {
                            return false;
                        }
                        typed.push(name.to_string());
                    }
                }
            }
            continue; // any other comment is fine
        }
        if !valid_sample_line(line, &typed) {
            return false;
        }
    }
    true
}

fn valid_metric_name(n: &str) -> bool {
    let mut chars = n.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_sample_line(line: &str, typed: &[String]) -> bool {
    // Split off the metric name (up to `{` or whitespace).
    let name_end = line
        .find(|c: char| c == '{' || c.is_ascii_whitespace())
        .unwrap_or(line.len());
    let (name, mut rest) = line.split_at(name_end);
    if !valid_metric_name(name) {
        return false;
    }
    // The family must have been declared: the metric name itself, or a
    // histogram/summary child (`_bucket`/`_sum`/`_count` suffix).
    let declared = typed.iter().any(|t| {
        name == t
            || (name
                .strip_prefix(t.as_str())
                .is_some_and(|suf| matches!(suf, "_bucket" | "_sum" | "_count")))
    });
    if !declared {
        return false;
    }
    if let Some(after) = rest.strip_prefix('{') {
        let Some(close) = after.find('}') else {
            return false;
        };
        let labels = &after[..close];
        if !valid_labels(labels) {
            return false;
        }
        rest = &after[close + 1..];
    }
    let mut fields = rest.split_ascii_whitespace();
    let Some(value) = fields.next() else {
        return false;
    };
    if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
        return false;
    }
    match fields.next() {
        None => true,
        Some(ts) => ts.parse::<i64>().is_ok() && fields.next().is_none(),
    }
}

fn valid_labels(labels: &str) -> bool {
    if labels.is_empty() {
        return true;
    }
    // Split on commas that sit outside quoted values.
    let mut rest = labels;
    loop {
        let Some(eq) = rest.find('=') else {
            return false;
        };
        let key = &rest[..eq];
        let mut chars = key.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return false;
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return false;
        }
        // Scan the quoted value, honouring `\"` escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        loop {
            if i >= bytes.len() {
                return false; // unterminated value
            }
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => break,
                _ => i += 1,
            }
        }
        let tail = &after[i + 1..];
        if tail.is_empty() {
            return true;
        }
        let Some(t) = tail.strip_prefix(',') else {
            return false;
        };
        if t.is_empty() {
            return true; // trailing comma is legal in the format
        }
        rest = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_validator_accepts_good_rejects_bad() {
        let good = "# TYPE orc_x gauge\norc_x{source=\"HP/MSQueue\"} 42\n\
                    # TYPE orc_y_total counter\norc_y_total 7\n";
        assert!(prom_wellformed(good));
        assert!(prom_wellformed("")); // empty exposition is valid
                                      // Sample without a TYPE declaration.
        assert!(!prom_wellformed("orc_z 1\n"));
        // Bad metric name.
        assert!(!prom_wellformed("# TYPE 9bad gauge\n9bad 1\n"));
        // Bad family.
        assert!(!prom_wellformed("# TYPE orc_x meter\norc_x 1\n"));
        // Unterminated label value.
        assert!(!prom_wellformed("# TYPE orc_x gauge\norc_x{a=\"oops} 1\n"));
        // Non-numeric value.
        assert!(!prom_wellformed("# TYPE orc_x gauge\norc_x fast\n"));
        // Escaped quote inside a label value is fine.
        assert!(prom_wellformed(
            "# TYPE orc_x gauge\norc_x{a=\"q\\\"uote\"} 1\n"
        ));
    }
}
