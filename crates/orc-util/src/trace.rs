//! orc-trace: lock-free reclamation event tracing, a flight recorder and
//! a Chrome-trace exporter.
//!
//! PR 2's orc-stats answers "how much" (counts, histograms); this module
//! answers "when" and "in what order". Every scheme and the OrcGC domain
//! record timestamped lifecycle events — [`EventKind::Retire`],
//! [`EventKind::ReclaimBatch`], scan brackets, protect retries, handovers,
//! epoch advances, OrcGC counter transitions — into **per-tid,
//! cache-line-padded ring buffers** with fixed-size slots and wrapping
//! overwrite, so a crashing torture battery can be reconstructed from the
//! last few thousand events per thread (the flight recorder) and a healthy
//! run can be opened as a per-tid timeline in Perfetto
//! ([`export_chrome`]).
//!
//! # Ring protocol (single writer, wait-free; torn-read-proof snapshots)
//!
//! Each registry tid owns one ring; only that thread writes it, so writes
//! need no RMW at all — the hot path is five relaxed stores plus one
//! release store and a monotonic-clock read. Readers ([`snapshot`]) may
//! run concurrently from any thread: each slot carries a seqlock-style
//! stamp (`u64::MAX` while the writer is mid-slot, else `event index + 1`)
//! written around the payload with release/acquire fences, so a reader
//! either observes a fully-written event or rejects the slot — never a
//! torn mix of two events.
//!
//! # Timestamps
//!
//! All events are stamped with nanoseconds since the first trace call in
//! the process (a latched `Instant` epoch — monotonic and cross-thread
//! comparable, unlike `SystemTime`). [`now_ns`] never returns 0, so a 0
//! retire-stamp in a header always means "never stamped".
//!
//! # Overhead contract
//!
//! `ORC_TRACE=0` (or `false`/`off`) disables tracing for the life of the
//! process, latched exactly like orc-stats' `ORC_STATS`: after the first
//! call, every [`trace_event!`] site is one relaxed load and a
//! predicted-not-taken branch, and the ring buffers are **never
//! allocated** ([`is_materialized`] stays false). Tracing is on by
//! default; `ORC_TRACE_CAP` sizes each per-tid ring (rounded up to a
//! power of two, default 1024 slots).

// Deliberately NOT the `crate::atomics` facade — the same exemption as
// track.rs: trace slots are observation, not synchronization, and every
// reclamation hot path touches them. Routing them through the orc-check
// shims would make each recorded event several scheduling points on
// shared addresses, exploding the model checker's branch space with
// interleavings no protocol property depends on (and tracing must keep
// working, invisibly, while an exploration runs).
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry;
use crate::CachePadded;

/// Default per-tid ring capacity (slots) when `ORC_TRACE_CAP` is unset.
pub const DEFAULT_CAP: usize = 1024;
const MIN_CAP: usize = 8;
const MAX_CAP: usize = 1 << 20;

/// Stamp value marking a slot whose writer is mid-update.
const WRITING: u64 = u64::MAX;

/// How many merged events the flight recorder prints on panic.
pub const FLIGHT_TAIL: usize = 64;

/// One kind of traced reclamation lifecycle event. The payload words `a`
/// and `b` are kind-specific (documented per variant); unused words are 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum EventKind {
    /// A tracked object was allocated. `a` = object address, `b` = bytes.
    Alloc = 0,
    /// An object entered a scheme's retired set. `a` = object address,
    /// `b` = global retire sequence number ([`next_retire_seq`]).
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
    /// domain's retired accounting). `a` = object address, `b` = global
    /// retire sequence number.
    BRetired = 9,
    /// An OrcGC retire claim was relinquished (the counter moved after
    /// the claim). `a` = object address.
    Unretire = 10,
    /// A pool thread refilled an empty local free list (remote-stack
    /// adoption or a fresh page). `a` = size class, `b` = slots gained.
    PoolRefill = 11,
    /// Pooled slots left the freeing thread for an owner's remote stack
    /// — today that is the thread-exit flush parking a dying thread's
    /// free lists on its own tid's stack (live threads free locally and
    /// overflow through the spillway instead). `a` = slots pushed,
    /// `b` = size class.
    PoolRemoteFree = 12,
    /// The adaptive scheme's controller latched a new protection mode.
    /// `a` = the new mode (0 = epoch fast path, 1 = bounded pointer
    /// path), `b` = the window watermark that triggered the decision.
    ModeSwitch = 13,
}

const KINDS: u32 = 14;

impl EventKind {
    fn from_u32(v: u32) -> Option<Self> {
        if v >= KINDS {
            return None;
        }
        // SAFETY-free decode: match keeps the compiler honest about the
        // discriminants instead of a transmute.
        Some(match v {
            0 => Self::Alloc,
            1 => Self::Retire,
            2 => Self::ReclaimBatch,
            3 => Self::ScanBegin,
            4 => Self::ScanEnd,
            5 => Self::ProtectRetry,
            6 => Self::Handover,
            7 => Self::EpochAdvance,
            8 => Self::OrcZero,
            9 => Self::BRetired,
            10 => Self::Unretire,
            11 => Self::PoolRefill,
            12 => Self::PoolRemoteFree,
            _ => Self::ModeSwitch,
        })
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

/// One ring slot. `stamp` is the seqlock word: `WRITING` while the owner
/// is mid-update, else `event index + 1` (0 = never written). The payload
/// words are themselves atomics so concurrent readers are race-free in
/// the language-semantics sense; the stamp protocol rejects torn reads.
struct Slot {
    stamp: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            stamp: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One tid's ring. Only the owning thread advances `head` or writes
/// slots; any thread may read.
struct Ring {
    /// Events ever recorded by this tid (not capped by the ring size).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Self {
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }
}

struct TraceBuf {
    rings: Box<[CachePadded<Ring>]>,
    mask: usize,
}

static BUF: OnceLock<TraceBuf> = OnceLock::new();

fn buf() -> &'static TraceBuf {
    BUF.get_or_init(|| {
        let cap = capacity();
        TraceBuf {
            rings: (0..registry::max_threads())
                .map(|_| CachePadded::new(Ring::new(cap)))
                .collect(),
            mask: cap - 1,
        }
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

// Kill-switch state: 0 = unread, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether tracing is on (`ORC_TRACE` unset or not one of
/// `0`/`false`/`off`). Latched on first call; a relaxed load afterwards.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = parse_enabled(std::env::var("ORC_TRACE").ok().as_deref());
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// `ORC_TRACE` parsing: only explicit `0`, `false` or `off` disable —
/// same grammar as `ORC_STATS`.
fn parse_enabled(v: Option<&str>) -> bool {
    !matches!(
        v.map(str::trim),
        Some("0") | Some("false") | Some("off") | Some("FALSE") | Some("OFF")
    )
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (first call). Monotonic,
/// cross-thread comparable, never 0.
#[inline]
pub fn now_ns() -> u64 {
    (EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64).max(1)
}

static RETIRE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Next value of the process-wide retire sequence — the key that ties a
/// `Retire{addr,seq}` event to the reclaim that later frees the object.
#[inline]
pub fn next_retire_seq() -> u64 {
    RETIRE_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Records one event on the calling thread's ring (resolves the registry
/// tid itself; hot paths that already hold a tid use [`record_at`]).
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    if enabled() {
        record_at(registry::tid(), kind, a, b);
    }
}

/// Records one event on `tid`'s ring. `tid` must be the **calling
/// thread's** registry tid — the single-writer ring protocol depends on
/// it (a wrong tid can tear another thread's in-flight slot, though it
/// cannot corrupt anything beyond the trace itself).
#[inline]
pub fn record_at(tid: usize, kind: EventKind, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    let buf = buf();
    let Some(ring) = buf.rings.get(tid) else {
        return;
    };
    let i = ring.head.load(Ordering::Relaxed);
    let slot = &ring.slots[(i as usize) & buf.mask];
    // Seqlock write: mark the slot torn, fence, write the payload, then
    // publish the new stamp. Readers pair the fence with an acquire fence
    // after their payload loads, so payload-visible implies torn-visible.
    slot.stamp.store(WRITING, Ordering::Relaxed);
    fence(Ordering::Release);
    slot.t_ns.store(now_ns(), Ordering::Relaxed);
    slot.kind.store(kind as u32 as u64, Ordering::Relaxed);
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    slot.stamp.store(i + 1, Ordering::Release);
    ring.head.store(i + 1, Ordering::Release);
}

/// Total events ever recorded, across all tids.
pub fn events_recorded() -> u64 {
    let Some(buf) = BUF.get() else { return 0 };
    buf.rings
        .iter()
        .map(|r| r.head.load(Ordering::Relaxed))
        .sum()
}

/// Events lost to ring overwrite (per-tid `recorded − capacity`, summed).
/// Surfaced in `Measurement::json()` so a truncated trace is visible.
pub fn events_dropped() -> u64 {
    let Some(buf) = BUF.get() else { return 0 };
    let cap = (buf.mask + 1) as u64;
    buf.rings
        .iter()
        .map(|r| r.head.load(Ordering::Relaxed).saturating_sub(cap))
        .sum()
}

/// Merges every per-tid ring into one globally timestamp-ordered event
/// list (ties broken by tid, then per-tid seq).
///
/// Safe to call while writers are running: slots a writer is touching (or
/// overwrites mid-read) are skipped, so a live snapshot is the *consistent
/// subset* of the newest ≤ capacity events per tid.
pub fn snapshot() -> Vec<TraceEvent> {
    let Some(buf) = BUF.get() else {
        return Vec::new();
    };
    let cap = (buf.mask + 1) as u64;
    let mut out = Vec::new();
    for (tid, ring) in buf.rings.iter().enumerate() {
        let head = ring.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(cap);
        for i in lo..head {
            let slot = &ring.slots[(i as usize) & buf.mask];
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 != i + 1 {
                // Mid-write, or already overwritten by a newer event
                // (which lies outside the head we latched) — skip.
                continue;
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Relaxed) != s1 {
                continue; // torn: the writer lapped us mid-read
            }
            let Some(kind) = EventKind::from_u32(kind as u32) else {
                continue;
            };
            out.push(TraceEvent {
                t_ns,
                tid: tid as u32,
                seq: i,
                kind,
                a,
                b,
            });
        }
    }
    out.sort_by_key(|e| (e.t_ns, e.tid, e.seq));
    out
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
/// Hand-rolled JSON — the workspace builds with zero dependencies.
pub fn chrome_json_of(evs: &[TraceEvent]) -> String {
    let mut tids: Vec<u32> = evs.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &mut String, item: String| {
        if !std::mem::take(&mut first) {
            s.push(',');
        }
        s.push_str(&item);
    };
    push(
        &mut s,
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"orc-trace\"}}"
            .to_string(),
    );
    for tid in &tids {
        push(
            &mut s,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"tid {tid}\"}}}}"
            ),
        );
    }
    for e in evs {
        let ts = e.t_ns as f64 / 1e3; // trace-event ts unit is µs
        let item = match e.kind {
            EventKind::ScanBegin => format!(
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"name\":\"scan\"}}",
                e.tid
            ),
            EventKind::ScanEnd => format!(
                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"name\":\"scan\",\
                 \"args\":{{\"freed\":{}}}}}",
                e.tid, e.a
            ),
            _ => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\
                 \"name\":\"{}\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                e.tid,
                e.kind.name(),
                e.a,
                e.b
            ),
        };
        push(&mut s, item);
    }
    s.push_str("]}");
    s
}

/// Minimal JSON well-formedness check (full grammar: objects, arrays,
/// strings with escapes, numbers, literals). The workspace has no JSON
/// dependency, so CI smoke tests and the `orctrace` example use this to
/// validate exporter output before shipping it to Perfetto.
pub fn json_wellformed(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if b.get(*i) != Some(&b'"') {
            return false;
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return true;
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'u') => {
                            if *i + 4 >= b.len()
                                || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                            {
                                return false;
                            }
                            *i += 5;
                        }
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                        _ => return false,
                    }
                }
                0x00..=0x1f => return false,
                _ => *i += 1,
            }
        }
        false
    }
    fn number(b: &[u8], i: &mut usize) -> bool {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        let digits = |b: &[u8], i: &mut usize| {
            let s = *i;
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
            *i > s
        };
        if !digits(b, i) {
            *i = start;
            return false;
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            if !digits(b, i) {
                return false;
            }
        }
        if matches!(b.get(*i), Some(b'e' | b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+' | b'-')) {
                *i += 1;
            }
            if !digits(b, i) {
                return false;
            }
        }
        true
    }
    fn value(b: &[u8], i: &mut usize, depth: usize) -> bool {
        if depth > 64 {
            return false;
        }
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return true;
                }
                loop {
                    ws(b, i);
                    if !string(b, i) {
                        return false;
                    }
                    ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return false;
                    }
                    *i += 1;
                    if !value(b, i, depth + 1) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return true;
                }
                loop {
                    if !value(b, i, depth + 1) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => {
                if b[*i..].starts_with(b"true") {
                    *i += 4;
                    true
                } else {
                    false
                }
            }
            Some(b'f') => {
                if b[*i..].starts_with(b"false") {
                    *i += 5;
                    true
                } else {
                    false
                }
            }
            Some(b'n') => {
                if b[*i..].starts_with(b"null") {
                    *i += 4;
                    true
                } else {
                    false
                }
            }
            _ => number(b, i),
        }
    }
    if !value(b, &mut i, 0) {
        return false;
    }
    ws(b, &mut i);
    i == b.len()
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

/// [`trace_event!`] for hot paths that already hold the caller's registry
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
    fn parse_enabled_defaults_on() {
        assert!(parse_enabled(None));
        assert!(parse_enabled(Some("1")));
        assert!(parse_enabled(Some("yes")));
        assert!(!parse_enabled(Some("0")));
        assert!(!parse_enabled(Some(" 0 ")));
        assert!(!parse_enabled(Some("false")));
        assert!(!parse_enabled(Some("OFF")));
    }

    #[test]
    fn kind_roundtrip() {
        for v in 0..KINDS {
            let k = EventKind::from_u32(v).unwrap();
            assert_eq!(k as u32, v);
            assert!(!k.name().is_empty());
        }
        assert_eq!(EventKind::from_u32(KINDS), None);
    }

    #[test]
    fn retire_seq_is_monotone() {
        let a = next_retire_seq();
        let b = next_retire_seq();
        assert!(b > a);
    }

    #[test]
    fn now_ns_is_monotone_and_nonzero() {
        let a = now_ns();
        let b = now_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn json_checker_accepts_and_rejects() {
        assert!(json_wellformed("{}"));
        assert!(json_wellformed(
            "[1,2.5,-3e2,\"a\\n\\u00ff\",true,false,null]"
        ));
        assert!(json_wellformed("{\"a\":[{\"b\":1}]} "));
        assert!(!json_wellformed(""));
        assert!(!json_wellformed("{"));
        assert!(!json_wellformed("[1,]"));
        assert!(!json_wellformed("{\"a\":}"));
        assert!(!json_wellformed("{} {}"));
        assert!(!json_wellformed("\"unterminated"));
        assert!(!json_wellformed("nul"));
        assert!(!json_wellformed("01x"));
    }
}
