//! orc-trace: lock-free reclamation event tracing, a flight recorder and
//! a Chrome-trace exporter.
//!
//! PR 2's orc-stats answers "how much" (counts, histograms); this module
//! answers "when" and "in what order". Every scheme and the OrcGC domain
//! record timestamped lifecycle events — [`EventKind::Retire`],
//! [`EventKind::ReclaimBatch`], scan brackets, protect retries, handovers,
//! epoch advances, OrcGC counter transitions — into **per-tid ring
//! buffers** with fixed-size slots and wrapping overwrite, so a crashing
//! torture battery can be reconstructed from the last few thousand events
//! per thread (the flight recorder) and a healthy run can be opened as a
//! per-tid timeline in Perfetto ([`export_chrome`]).
//!
//! # Rings
//!
//! Each registry tid owns one [`SeqRing<4>`](crate::ring::SeqRing)
//! (timestamp, kind, `a`, `b`); only that thread writes it, so the hot
//! path is a handful of relaxed stores, and [`snapshot`] may run
//! concurrently from any thread without ever returning a torn event.
//! The slot protocol is described once, in [`crate::ring`].
//!
//! The rings of all `MAX_THREADS` tids are one zeroed slab, a
//! [`RingSlab`] nothing writes up front (all-zero
//! words are the empty ring); each tid's latch words are a row of zero
//! pages of their own. A ring is 40 B × `ORC_TRACE_CAP` slots (40 KiB at
//! the default); the slab reserves 128 of them, 5 MiB at the default, as
//! fresh pages from `calloc`. A tid's ring becomes resident from its
//! first event, page by page as it fills, so a run pays resident memory
//! only for the tids that record.
//!
//! # Timestamps
//!
//! The clock is nanoseconds since the first trace call in the process
//! (a latched `Instant` epoch — monotonic and cross-thread comparable,
//! unlike `SystemTime`). [`now_ns`] never returns 0, so a 0 retire-stamp
//! in a header always means "never stamped".
//!
//! The clock is a **per-call resource, not a per-event one**, and only a
//! *sampled* reclamation call pays for it ([`crate::sample`]: a thread's
//! first alloc / retire / drain pass, then 1 in
//! [`SAMPLE_EVERY`](crate::sample::SAMPLE_EVERY)). An unsampled call
//! records no event. Each ring carries an owner-only *latched stamp*:
//!
//! * **Stamped kinds are exact.** `Retire` and `BRetired` are recorded
//!   through [`record_at_ns`] with the clock value the sampled retire
//!   read for the object's header, and the `ScanEnd` of a traced list /
//!   bin scan (HP, HE, PTB, EBR, adaptive) with a read of its own,
//!   amortised over the batch the scan examined. `EpochAdvance`,
//!   `ModeSwitch` and `PoolRefill` — once per many operations by
//!   construction, and not sampled — also read the clock. Each such
//!   write latches its value on the ring.
//! * **Every other event carries the thread's latest stamp, at most
//!   [`STAMP_STRIDE`] events old.** [`record`] / [`record_at`] write the
//!   latched value and re-read the clock only when the ring has no stamp
//!   yet or has written `STAMP_STRIDE` events since the last one — a
//!   constant, not a knob. The staleness is bounded in *events*, not in
//!   time: a thread that records nothing for a second and then a
//!   `ProtectRetry` stamps it with its previous event's instant.
//!
//! What a reader may rely on: per tid, `t_ns` never decreases in `seq`
//! order (an invariant of the ring — [`record_at_ns`] clamps to the
//! latch); [`snapshot`] orders by `(t_ns, tid, seq)`, so events that
//! share a stamp keep their recording order; across tids, an unstamped
//! event sorts at its thread's latest stamp. In Perfetto the per-object
//! scan spans of PTP and OrcGC (`ScanBegin` … `ScanEnd` inside one
//! retire call) render zero-width at the retire's instant, while batch
//! scans keep real durations (their `ScanEnd` is a fresh read).
//!
//! # Overhead contract
//!
//! With tracing on, a sampled reclamation call — alloc, retire, and the
//! scan / handover / cascade pass the retire triggers — costs **at most
//! one clock read** (the one that stamps the header, shared with
//! orc-stats' delay histogram) plus a few relaxed stores per event; only
//! a batch scan's `ScanEnd` adds a second read, once per batch. The
//! other `SAMPLE_EVERY − 1` calls in each stride cost a thread-local
//! counter bump: no clock, no event. A pass no sampled retire opened
//! reads the clock only if it frees a stamped object, once.
//!
//! `ORC_TRACE=0` disables tracing for the life of the process
//! ([`crate::switch`]): after the first call, every [`trace_event!`](crate::trace_event)
//! site is one relaxed load and a predicted-not-taken branch, and the
//! ring buffers are **never allocated** ([`is_materialized`] stays
//! false). With `ORC_STATS=0` as well a retire reads the clock zero
//! times. Tracing is on by default; `ORC_TRACE_CAP` sizes each per-tid
//! ring (rounded up to a power of two, default 1024 slots).

// `std` atomics, not the facade: trace counters and flight-recorder
// flags are observation, not synchronisation (DESIGN.md §9.1).
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Writer;
use crate::registry;
use crate::ring::{RingSlab, SeqRing};
use crate::switch::Switch;
use crate::sync::TidRows;

/// Default per-tid ring capacity (slots) when `ORC_TRACE_CAP` is unset.
pub const DEFAULT_CAP: usize = 1024;
const MIN_CAP: usize = 8;
const MAX_CAP: usize = 1 << 20;

/// How many merged events the flight recorder prints on panic.
pub const FLIGHT_TAIL: usize = 64;

/// How many events one latched stamp may serve before [`record`] /
/// [`record_at`] read the clock again (see "Timestamps").
pub const STAMP_STRIDE: u64 = 16;

/// Bits of a retire sequence number that hold the per-tid count; the
/// tid sits above them ([`sequence_retires`]).
const RETIRE_SEQ_BITS: u32 = 48;

/// One kind of traced reclamation lifecycle event. The payload words `a`
/// and `b` are kind-specific (documented per variant); unused words are 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum EventKind {
    /// A tracked object was allocated. `a` = its block (header) address,
    /// `b` = the bytes the pool charges for it.
    Alloc = 0,
    /// An object entered a scheme's retired set (a sampled retire call).
    /// `a` = object address, `b` = retire sequence number
    /// ([`sequence_retires`]).
    Retire = 1,
    /// One reclamation pass freed `a` objects together.
    ReclaimBatch = 2,
    /// A scan / liberate / collect / drain pass began.
    ScanBegin = 3,
    /// The matching pass ended; `a` = objects freed by it.
    ScanEnd = 4,
    /// A protect loop's validation failed and the loop retried.
    /// `a` = the address being protected.
    ProtectRetry = 5,
    /// An object was parked into (or displaced through) a handover /
    /// handoff slot (PTP, PTB, OrcGC). `a` = object address.
    Handover = 6,
    /// A global epoch / era advanced (EBR `try_advance`, HE era clock).
    /// `a` = the new epoch/era value.
    EpochAdvance = 7,
    /// An OrcGC `_orc` word was observed zero-and-unclaimed — the
    /// precondition for a retire claim. `a` = object address.
    OrcZero = 8,
    /// An OrcGC retire claim succeeded (BRETIRED set, object entered the
    /// domain's retired accounting; a sampled claim). `a` = object
    /// address, `b` = retire sequence number ([`sequence_retires`]).
    BRetired = 9,
    /// An OrcGC retire claim was relinquished (the counter moved after
    /// the claim). `a` = object address.
    Unretire = 10,
    /// A pool thread refilled an empty local free list (a spillway
    /// segment adopted or a fresh page). `a` = size class, `b` = slots
    /// gained.
    PoolRefill = 11,
    /// A dying thread parked its cached free slots of one class on the
    /// spillway, where any thread's refill can adopt them. `a` = slots
    /// parked, `b` = size class.
    PoolRemoteFree = 12,
    /// The adaptive scheme's controller latched a new protection mode.
    /// `a` = the new mode (0 = epoch fast path, 1 = bounded pointer
    /// path), `b` = the window watermark that triggered the decision.
    ModeSwitch = 13,
}

impl EventKind {
    /// Every kind, indexed by discriminant (the ring stores kinds as
    /// integers; `kind_roundtrip` keeps this table honest).
    const ALL: [EventKind; 14] = [
        Self::Alloc,
        Self::Retire,
        Self::ReclaimBatch,
        Self::ScanBegin,
        Self::ScanEnd,
        Self::ProtectRetry,
        Self::Handover,
        Self::EpochAdvance,
        Self::OrcZero,
        Self::BRetired,
        Self::Unretire,
        Self::PoolRefill,
        Self::PoolRemoteFree,
        Self::ModeSwitch,
    ];

    fn from_u32(v: u32) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }

    /// Kinds that happen once per many operations and therefore keep a
    /// clock read of their own instead of the ring's latched stamp.
    #[inline]
    fn reads_clock(self) -> bool {
        matches!(
            self,
            Self::EpochAdvance | Self::ModeSwitch | Self::PoolRefill
        )
    }

    /// Short stable name (flight-recorder lines, Chrome event names).
    pub fn name(self) -> &'static str {
        match self {
            Self::Alloc => "alloc",
            Self::Retire => "retire",
            Self::ReclaimBatch => "reclaim_batch",
            Self::ScanBegin => "scan_begin",
            Self::ScanEnd => "scan_end",
            Self::ProtectRetry => "protect_retry",
            Self::Handover => "handover",
            Self::EpochAdvance => "epoch_advance",
            Self::OrcZero => "orc_zero",
            Self::BRetired => "b_retired",
            Self::Unretire => "unretire",
            Self::PoolRefill => "pool_refill",
            Self::PoolRemoteFree => "pool_remote_free",
            Self::ModeSwitch => "mode_switch",
        }
    }
}

/// One decoded event, as returned by [`snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch (see module docs).
    pub t_ns: u64,
    /// Registry tid of the recording thread.
    pub tid: u32,
    /// Per-tid event index (0-based, monotone; gaps mean overwrite).
    pub seq: u64,
    /// Event kind.
    pub kind: EventKind,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

/// One tid's owner-only latch. The words are atomics only because the
/// latches sit in a shared static; nobody but the owning thread reads or
/// writes them, so every access is relaxed. All zero is the fresh latch.
struct Latch {
    /// The latched stamp: the last clock value written to this ring.
    stamp: AtomicU64,
    /// Ring index from which `stamp` is too old to reuse (0 = no stamp).
    stale_at: AtomicU64,
    /// Retires this tid has sequenced ([`sequence_retires`]).
    retires: AtomicU64,
}

/// One ring and one [`Latch`] per registry tid, each written only by its
/// owner, both in zeroed memory nothing writes up front (see "Rings").
struct TraceBuf {
    rings: RingSlab<4, { registry::MAX_THREADS }>,
    latches: TidRows<Latch>,
}

static BUF: OnceLock<TraceBuf> = OnceLock::new();

fn buf() -> &'static TraceBuf {
    BUF.get_or_init(|| TraceBuf {
        rings: RingSlab::zeroed(capacity()),
        // SAFETY: all-zero bytes are a valid `Latch` (its atomics at 0):
        // no stamp, and no retires sequenced.
        latches: unsafe { TidRows::zeroed() },
    })
}

/// Per-tid ring capacity in slots: `ORC_TRACE_CAP` rounded up to a power
/// of two and clamped to `[8, 2^20]`; 1024 when unset or unparsable.
pub fn capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let raw = std::env::var("ORC_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAP);
        raw.clamp(MIN_CAP, MAX_CAP).next_power_of_two()
    })
}

/// True once any event has been recorded (the rings exist). Stays false
/// for the whole process under `ORC_TRACE=0` — the structural form of the
/// "tracing off is free" contract, testable without timing.
pub fn is_materialized() -> bool {
    BUF.get().is_some()
}

static SWITCH: Switch = Switch::new("ORC_TRACE");

/// Whether tracing is on (the `ORC_TRACE` [`Switch`]).
#[inline]
pub fn enabled() -> bool {
    SWITCH.enabled()
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (first call). Monotonic,
/// cross-thread comparable, never 0.
#[inline]
pub fn now_ns() -> u64 {
    (EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64).max(1)
}

/// Sequences `calls ≥ 1` retires of `tid` (the **calling thread's**
/// registry tid) at once and returns the number of the last: the tid in
/// the high bits over that tid's own retire count — process-unique and
/// increasing per thread, with no cache line shared between retiring
/// threads. The count lives with the tid's ring, so it survives tid
/// reuse; with tracing off there is no ring and the result is 0.
///
/// The last retire is a sampled one's, which stands for itself and the
/// unsampled retires before it (`crate::sample::Stride::draw`). A
/// sampled `Retire` / `BRetired` event thus carries its tid's whole
/// retire count, and consecutive ones of a thread differ by the sampling
/// stride. (A previous owner's retires after its last sample are not
/// carried over to the tid's next owner.)
#[inline]
pub fn sequence_retires(tid: usize, calls: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let Some(r) = buf().latches.get(tid) else {
        return 0;
    };
    let n = r.retires.load(Ordering::Relaxed) + calls - 1;
    r.retires.store(n + 1, Ordering::Relaxed);
    ((tid as u64) << RETIRE_SEQ_BITS) | n
}

/// Records one event on the calling thread's ring (resolves the registry
/// tid itself; hot paths that already hold a tid use [`record_at`]).
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    if enabled() {
        push(registry::tid(), kind, a, b, None);
    }
}

/// Records one event on `tid`'s ring, stamped with the ring's latched
/// stamp (see "Timestamps"; the once-per-many-operations kinds read
/// the clock). `tid` must be the **calling thread's** registry tid — the
/// single-writer ring protocol depends on it (a wrong tid can tear
/// another thread's in-flight slot, though it cannot corrupt anything
/// beyond the trace itself).
#[inline]
pub fn record_at(tid: usize, kind: EventKind, a: u64, b: u64) {
    if enabled() {
        push(tid, kind, a, b, None);
    }
}

/// [`record_at`] with a caller-read [`now_ns`] timestamp, for paths that
/// already paid for the clock (the retire path stamps the object's
/// header and the `Retire` event with one read, so the two are the same
/// instant). The value becomes the ring's latched stamp; one older than
/// the latch is raised to it, so per-tid stamps never run backwards.
#[inline]
pub fn record_at_ns(tid: usize, kind: EventKind, a: u64, b: u64, t_ns: u64) {
    if enabled() {
        push(tid, kind, a, b, Some(t_ns));
    }
}

#[inline]
fn push(tid: usize, kind: EventKind, a: u64, b: u64, paid: Option<u64>) {
    let buf = buf();
    // One bounds check: both tables hold `MAX_THREADS` rows.
    let (Some(l), Some(ring)) = (buf.latches.get(tid), buf.rings.get(tid)) else {
        return;
    };
    let i = ring.pushed();
    let latched = l.stamp.load(Ordering::Relaxed);
    let t_ns = match paid {
        None if !kind.reads_clock() && i < l.stale_at.load(Ordering::Relaxed) => latched,
        _ => {
            // `now_ns` cannot run behind an earlier read on this thread;
            // the `max` is for a caller-supplied value that does.
            let t = paid.unwrap_or_else(now_ns).max(latched);
            l.stamp.store(t, Ordering::Relaxed);
            l.stale_at.store(i + STAMP_STRIDE, Ordering::Relaxed);
            t
        }
    };
    ring.push([t_ns, kind as u32 as u64, a, b]);
}

/// Total events ever recorded, across all tids.
pub fn events_recorded() -> u64 {
    let Some(buf) = BUF.get() else { return 0 };
    buf.rings.iter().map(SeqRing::pushed).sum()
}

/// Events lost to ring overwrite (per-tid `recorded − capacity`, summed).
/// Surfaced in `Measurement::json()` so a truncated trace is visible.
pub fn events_dropped() -> u64 {
    let Some(buf) = BUF.get() else { return 0 };
    buf.rings.iter().map(SeqRing::dropped).sum()
}

/// Merges every per-tid ring into one globally timestamp-ordered event
/// list. Ties — the norm, since a call's events share its one stamp —
/// are broken by tid, then per-tid seq, so each thread's events stay in
/// recording order (a `ScanBegin` never sorts after its `ScanEnd`).
///
/// Safe to call while writers are running: slots a writer is touching (or
/// overwrites mid-read) are skipped, so a live snapshot is the *consistent
/// subset* of the newest ≤ capacity events per tid.
pub fn snapshot() -> Vec<TraceEvent> {
    let Some(buf) = BUF.get() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (tid, ring) in buf.rings.iter().enumerate() {
        for (seq, [t_ns, kind, a, b]) in ring.snapshot() {
            if let Some(kind) = EventKind::from_u32(kind as u32) {
                out.push(TraceEvent {
                    t_ns,
                    tid: tid as u32,
                    seq,
                    kind,
                    a,
                    b,
                });
            }
        }
    }
    out.sort_by_key(|e| (e.t_ns, e.tid, e.seq));
    out
}

/// Checks the per-tid promises of "Timestamps" on a [`snapshot`]: in
/// `seq` order no tid's `t_ns` decreases, and every `ScanEnd` closes a
/// `ScanBegin` recorded earlier on its tid. A tid whose ring has wrapped
/// (its oldest retained `seq` is not 0) may have lost the `ScanBegin` of
/// scans that were open where its window starts; only those are excused.
pub fn check_per_tid_order(evs: &[TraceEvent]) -> Result<(), String> {
    let mut by_tid: Vec<&TraceEvent> = evs.iter().collect();
    by_tid.sort_by_key(|e| (e.tid, e.seq));
    for tid_evs in by_tid.chunk_by(|a, b| a.tid == b.tid) {
        if let Some(w) = tid_evs.windows(2).find(|w| w[0].t_ns > w[1].t_ns) {
            return Err(format!(
                "tid {}: t_ns runs backwards from seq {} ({} ns) to seq {} ({} ns)",
                w[0].tid, w[0].seq, w[0].t_ns, w[1].seq, w[1].t_ns
            ));
        }
        // Excused until the window's first `ScanBegin`, if it wrapped.
        let mut excused = tid_evs[0].seq != 0;
        let mut open = 0u64;
        for e in tid_evs {
            match e.kind {
                EventKind::ScanBegin => (open, excused) = (open + 1, false),
                EventKind::ScanEnd if open > 0 => open -= 1,
                EventKind::ScanEnd if !excused => {
                    return Err(format!(
                        "tid {}: scan_end at seq {} closes no scan_begin",
                        e.tid, e.seq
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// The last `n` events of [`snapshot`] (the merged, ordered tail).
pub fn snapshot_tail(n: usize) -> Vec<TraceEvent> {
    let mut evs = snapshot();
    if evs.len() > n {
        evs.drain(..evs.len() - n);
    }
    evs
}

/// Human-readable flight-recorder tail: the last `n` merged events, one
/// line each, plus a header with totals. Empty string when nothing was
/// recorded (or tracing is off).
pub fn format_tail(n: usize) -> String {
    let evs = snapshot_tail(n);
    if evs.is_empty() {
        return String::new();
    }
    let mut s = format!(
        "== orc-trace flight recorder: last {} of {} events ({} overwritten) ==\n",
        evs.len(),
        events_recorded(),
        events_dropped(),
    );
    for e in &evs {
        s.push_str(&format!(
            "  [{:>14.6}ms tid {:>3}] {:<13} a=0x{:x} b={}\n",
            e.t_ns as f64 / 1e6,
            e.tid,
            e.kind.name(),
            e.a,
            e.b,
        ));
    }
    s
}

// Flight-recorder state. DUMPING makes the dump single-shot per panic
// cascade: a second panic raised *while* dumping (e.g. from a destructor
// in a reclaim callback) sees the flag and skips straight to the chained
// hook instead of re-entering the recorder.
static HOOK: OnceLock<()> = OnceLock::new();
static DUMPING: AtomicBool = AtomicBool::new(false);
static DUMPS: AtomicU64 = AtomicU64::new(0);

/// Number of flight-recorder dumps performed (testing / post-mortems).
pub fn flight_dump_count() -> u64 {
    DUMPS.load(Ordering::Relaxed)
}

/// Installs the flight-recorder panic hook: on panic, the merged tail of
/// all rings ([`FLIGHT_TAIL`] events) is printed to stderr before the
/// previously-installed hook runs.
///
/// Idempotent — the hook is registered exactly once per process no matter
/// how many batteries/tests call this — and re-entrancy safe: a panic
/// raised inside the dump itself (or inside a reclaim callback while
/// dumping) cannot deadlock or double-dump.
pub fn install_flight_recorder() {
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // AcqRel: the winning swap acquires any prior dump's writes
            // and releases ours to the next; no SC order is needed.
            if !DUMPING.swap(true, Ordering::AcqRel) {
                let tail = format_tail(FLIGHT_TAIL);
                if !tail.is_empty() {
                    eprint!("{tail}");
                }
                DUMPS.fetch_add(1, Ordering::Relaxed);
                DUMPING.store(false, Ordering::Release);
            }
            prev(info);
        }));
    });
}

/// Writes the merged trace as Chrome trace-event JSON (the format
/// Perfetto and `chrome://tracing` load) to `path`. See README for the
/// open-in-Perfetto quick-start.
pub fn export_chrome(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(chrome_json().as_bytes())?;
    w.flush()
}

/// The Chrome trace-event JSON document for the current [`snapshot`].
pub fn chrome_json() -> String {
    chrome_json_of(&snapshot())
}

/// The Chrome trace-event JSON document for `evs` (pure: the golden
/// tests pin its bytes on hand-built events).
///
/// Scan passes become `B`/`E` duration events on the recording tid's
/// track; everything else becomes a thread-scoped instant (`ph:"i"`).
pub fn chrome_json_of(evs: &[TraceEvent]) -> String {
    let mut tids: Vec<u32> = evs.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut w = Writer::new();
    w.begin_obj().key("displayTimeUnit").str("ms");
    w.key("traceEvents").begin_arr();
    let name_args = |w: &mut Writer, name: &str| {
        w.key("args").begin_obj().key("name").str(name).end_obj();
    };
    w.begin_obj().key("ph").str("M").key("pid").int(1);
    w.key("name").str("process_name");
    name_args(&mut w, "orc-trace");
    w.end_obj();
    for tid in &tids {
        w.begin_obj().key("ph").str("M").key("pid").int(1);
        w.key("tid").int(tid).key("name").str("thread_name");
        name_args(&mut w, &format!("tid {tid}"));
        w.end_obj();
    }
    for e in evs {
        let ph = match e.kind {
            EventKind::ScanBegin => "B",
            EventKind::ScanEnd => "E",
            _ => "i",
        };
        w.begin_obj().key("ph").str(ph);
        if ph == "i" {
            w.key("s").str("t");
        }
        w.key("pid").int(1).key("tid").int(e.tid);
        // trace-event ts unit is µs
        w.key("ts").raw(&format!("{:.3}", e.t_ns as f64 / 1e3));
        match e.kind {
            EventKind::ScanBegin => {
                w.key("name").str("scan");
            }
            EventKind::ScanEnd => {
                w.key("name").str("scan");
                w.key("args").begin_obj().key("freed").int(e.a).end_obj();
            }
            kind => {
                w.key("name").str(kind.name());
                w.key("args").begin_obj();
                w.key("a").int(e.a).key("b").int(e.b).end_obj();
            }
        }
        w.end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

/// Records one trace event from the calling thread (tid resolved
/// internally). Compiles to a latched-flag check first: with `ORC_TRACE=0`
/// the arguments are never evaluated and the rings are never touched.
///
/// ```
/// use orc_util::{trace, trace_event};
/// trace_event!(trace::EventKind::EpochAdvance, 42u64);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($kind:expr) => {
        $crate::trace_event!($kind, 0u64, 0u64)
    };
    ($kind:expr, $a:expr) => {
        $crate::trace_event!($kind, $a, 0u64)
    };
    ($kind:expr, $a:expr, $b:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::record($kind, $a as u64, $b as u64);
        }
    };
}

/// [`trace_event!`](crate::trace_event) for hot paths that already hold the caller's registry
/// tid (skips the thread-local lookup).
#[macro_export]
macro_rules! trace_event_at {
    ($tid:expr, $kind:expr) => {
        $crate::trace_event_at!($tid, $kind, 0u64, 0u64)
    };
    ($tid:expr, $kind:expr, $a:expr) => {
        $crate::trace_event_at!($tid, $kind, $a, 0u64)
    };
    ($tid:expr, $kind:expr, $a:expr, $b:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::record_at($tid, $kind, $a as u64, $b as u64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for (v, k) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, v);
            assert_eq!(EventKind::from_u32(v as u32), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(EventKind::from_u32(EventKind::ALL.len() as u32), None);
    }

    #[test]
    fn retire_seq_is_monotone() {
        if !enabled() {
            return; // ORC_TRACE=0: no ring, no sequence
        }
        let tid = registry::tid();
        let a = sequence_retires(tid, 1);
        let b = sequence_retires(tid, 1);
        assert!(b > a);
        assert_eq!(a >> RETIRE_SEQ_BITS, tid as u64, "tid in the high bits");
    }

    #[test]
    fn per_tid_order_check_catches_both_faults() {
        let ev = |tid, seq, t_ns, kind| TraceEvent {
            t_ns,
            tid,
            seq,
            kind,
            a: 0,
            b: 0,
        };
        use EventKind::{Retire, ScanBegin, ScanEnd};
        // Shared stamps and interleaved tids are fine.
        let ok = [
            ev(0, 0, 5, Retire),
            ev(1, 0, 5, ScanBegin),
            ev(0, 1, 5, ScanBegin),
            ev(0, 2, 5, ScanEnd),
            ev(1, 1, 9, ScanEnd),
        ];
        assert_eq!(check_per_tid_order(&ok), Ok(()));
        let backwards = [
            ev(0, 0, 5, Retire),
            ev(1, 0, 1, Retire),
            ev(0, 1, 4, Retire),
        ];
        assert!(check_per_tid_order(&backwards)
            .unwrap_err()
            .contains("backwards"));
        let orphan = [ev(0, 0, 5, Retire), ev(0, 1, 5, ScanEnd)];
        assert!(check_per_tid_order(&orphan)
            .unwrap_err()
            .contains("scan_end"));
        // A wrapped ring may open mid-scan — but only at its start.
        let wrapped = [
            ev(0, 7, 5, ScanEnd),
            ev(0, 8, 5, ScanBegin),
            ev(0, 9, 5, ScanEnd),
        ];
        assert_eq!(check_per_tid_order(&wrapped), Ok(()));
        let wrapped_orphan = [
            ev(0, 7, 5, ScanBegin),
            ev(0, 8, 5, ScanEnd),
            ev(0, 9, 5, ScanEnd),
        ];
        assert!(check_per_tid_order(&wrapped_orphan).is_err());
    }

    #[test]
    fn now_ns_is_monotone_and_nonzero() {
        let a = now_ns();
        let b = now_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }
}
