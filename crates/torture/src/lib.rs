//! Scheme-generic torture harness for the reclamation schemes.
//!
//! Every manual scheme ([`reclaim::Smr`]) and the OrcGC domain run through
//! one uniform battery, driven by the (structure × scheme) registry
//! ([`structures::registry`]) so a new scheme or structure is picked up by
//! every battery without touching this crate:
//!
//! 1. **Stalled-reader fault injection** ([`stalled_reader_churn`]) — a
//!    victim thread is parked *inside* `protect` (via
//!    [`reclaim::stall`]) while writers churn retire traffic. Bounded
//!    schemes (HP, PTB, PTP, HE) must keep `unreclaimed()` under a
//!    rounds-independent ceiling; EBR (and the leaky baseline) must grow
//!    with the churn — the paper's Table 1 bounds, asserted
//!    ([`assert_stall_profile`] dispatches on [`SchemeKind::is_bounded`]).
//! 2. **Leak ledger** ([`churn_set_cell`] and friends) — every
//!    (scheme × structure) cell churns under a [`orc_util::track::Ledger`]
//!    and must end with allocations == frees after `flush()` + drop, and
//!    with its orc-stats snapshot balanced (`retires == reclaims`).
//! 3. **Oversubscription soak** ([`soak_set_cell`]) — waves of
//!    short-lived threads (threads ≫ cores) hammer one structure,
//!    exercising registry tid reuse and thread-exit orphan handoff.
//! 4. **ABA hammer** ([`aba_set_cell`], [`aba_queue_cell`]) — a tiny
//!    key universe forces constant address recycling; per-key conservation
//!    counts catch lost or duplicated nodes.
//!
//! Every battery consumes registry cells ([`structures::registry::Cell`])
//! through one sweep path ([`ledgered_set_cell`] / [`ledgered_queue_cell`])
//! that owns the ledger/drain/teardown protocol. The cell's
//! [`structures::registry::Reclaimer`] reports stats for the manual
//! schemes and the OrcGC domain alike; the one flavour-specific step is
//! the settle before the ledger check (drain a manual scheme to zero, or
//! flush the OrcGC handover slots).
//!
//! The `torture` binary drives the full battery for CI soak runs, scaled
//! by the `TORTURE_ITERS` / `TORTURE_THREADS` environment knobs and
//! sliced by the `ORC_SCHEMES` / `ORC_STRUCTS` matrix filters.

// orc-lint: allow-file(seqcst, adversarial harness: SC pins the exact staged interleavings the stall scenarios measure)

use orc_util::atomics::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use orc_util::registry;
use orc_util::rng::XorShift64;
use orc_util::stall::{self, Gate, StallPoint};
use orc_util::trace;
use orc_util::track::Ledger;
use orcgc::{make_orc, OrcAtomic};
use reclaim::{SchemeKind, Smr, StatsSnapshot, MAX_HPS};
use std::sync::Arc;
use std::time::Duration;
use structures::registry::{
    Cell, DynQueue, DynSet, QueueCell, Reclaimer, SchemeAxis, SetCell, Swept,
};
use structures::{ConcurrentQueue, ConcurrentSet};

/// Battery sizing, from the environment (`TORTURE_*`) or fixed defaults.
#[derive(Debug, Clone)]
pub struct Config {
    /// Operations per worker thread in churn batteries.
    pub iters: u64,
    /// Worker threads per battery, capped by [`cap_threads`].
    pub threads: usize,
    /// Retire-churn rounds per writer in the stall battery.
    pub stall_rounds: u64,
    /// Spawn/join waves in the oversubscription soak.
    pub waves: usize,
}

impl Config {
    /// Reads `TORTURE_ITERS`, `TORTURE_THREADS`, `TORTURE_STALL_ROUNDS`
    /// and `TORTURE_WAVES`, falling back to soak-sized defaults. Thread
    /// counts are capped by [`cap_threads`], with iterations scaled up to
    /// preserve total churn.
    pub fn from_env() -> Self {
        fn get(key: &str, default: u64) -> u64 {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        // Floors, not just defaults: a typo'd `TORTURE_THREADS=0` would
        // hollow every churn battery into a trivially-green no-op.
        let (threads, scale) =
            cap_threads((get("TORTURE_THREADS", cores.clamp(2, 8) as u64) as usize).max(2));
        Self {
            iters: get("TORTURE_ITERS", 20_000).max(1) * scale,
            threads,
            stall_rounds: get("TORTURE_STALL_ROUNDS", 4_000).max(1),
            waves: (get("TORTURE_WAVES", 4) as usize).max(1),
        }
    }

    /// Small fixed sizing for `cargo test` (seconds, not minutes).
    pub fn short() -> Self {
        let (threads, scale) = cap_threads(4);
        Self {
            iters: 3_000 * scale,
            threads,
            stall_rounds: 1_500,
            waves: 3,
        }
    }
}

/// Caps a requested worker-thread count at twice the host's
/// [`std::thread::available_parallelism`] (floor 2 — the batteries need
/// real concurrency), returning the capped count and the iteration
/// multiplier that preserves `threads × iters`. Spin-heavy batteries
/// oversubscribed far beyond the core count hang intermittently on
/// small hosts; scaling iterations instead of skipping keeps the churn
/// volume and the coverage.
pub fn cap_threads(requested: usize) -> (usize, u64) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let cap = (2 * cores).max(2);
    if requested <= cap {
        (requested.max(1), 1)
    } else {
        (cap, (requested as u64).div_ceil(cap as u64))
    }
}

/// Thread count for the oversubscription soak: deliberately above the
/// core count (that is the battery's point) but derived from it, so a
/// single-core host spawns 4 short-lived threads per wave rather than 48.
pub fn soak_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    (4 * cores).clamp(4, 48)
}

/// The threshold the stall battery constructs bounded schemes with
/// (`with_threshold`), so ceilings are deterministic rather than dependent
/// on the watermark-scaled `2·H·t + 8` formula.
pub const STALL_THRESHOLD: usize = 64;

/// What the stall battery observed for one scheme.
#[derive(Debug, Clone)]
pub struct StallReport {
    pub scheme: &'static str,
    /// Total objects retired by the writers while the victim was parked.
    pub churned: u64,
    /// Peak `unreclaimed()` sampled during the churn.
    pub max_unreclaimed: usize,
    /// `unreclaimed()` after a full `flush()` with the victim *still
    /// parked* — the number the paper's Table 1 bounds.
    pub stalled_flush_unreclaimed: usize,
    /// Whether `unreclaimed()` reached 0 after the victim was released
    /// (always `false` for the leaky baseline).
    pub drained: bool,
    /// The scheme's orc-stats snapshot taken after the drain attempt (all
    /// zeros when `ORC_STATS=0`).
    pub stats: StatsSnapshot,
}

/// Ceiling for a bounded scheme's stalled-flush residue: per-writer
/// un-scanned batches plus every protectable slot, independent of the
/// number of churn rounds. (HE additionally keeps objects born in the
/// victim's reserved era — at most one `ERA_FREQ = 64 = STALL_THRESHOLD`
/// batch per writer, already covered by the first term.)
pub fn bounded_ceiling(writers: usize) -> usize {
    2 * writers * STALL_THRESHOLD + MAX_HPS * registry::registered_watermark() + 64
}

/// Runs the stall battery for one scheme off the registry axis: bounded
/// schemes are built with the deterministic [`STALL_THRESHOLD`].
///
/// The run is its own ledgered section, like every other cell entry
/// point here. The churn consumes the last scheme handle, so on return
/// even the leaky baseline's stash is freed: the stall path is
/// leak-*accounted*, not leak-silent. Do not wrap this call in a second
/// `Ledger` — the lock is not reentrant.
pub fn stall_cell(kind: SchemeKind, writers: usize, rounds: u64) -> StallReport {
    let ledger = Ledger::open();
    let r = stalled_reader_churn(kind.build_with_threshold(STALL_THRESHOLD), writers, rounds);
    ledger.assert_balanced(&format!("{kind}/stall"));
    r
}

/// Asserts the Table-1 profile for `kind`: [`assert_bounded`] for the
/// pointer-based schemes, [`assert_unbounded`] for EBR and the leaky
/// baseline (which additionally must never drain).
pub fn assert_stall_profile(kind: SchemeKind, r: &StallReport, writers: usize) {
    if kind.is_bounded() {
        assert_bounded(r, writers);
    } else {
        assert_unbounded(r);
        if kind.reclaims() {
            assert!(
                r.drained,
                "{}: failed to drain after the stalled reader resumed",
                r.scheme
            );
        } else {
            assert!(!r.drained, "the leaky baseline must never reclaim mid-run");
        }
    }
}

/// Parks a victim thread inside `protect` (holding a live protection on a
/// shared node), then churns `rounds` alloc→swap→retire cycles on each of
/// `writers` writer threads. Reports the unreclaimed watermarks; callers
/// assert boundedness per scheme with [`assert_bounded`] /
/// [`assert_unbounded`] (or [`assert_stall_profile`]).
///
/// The victim dereferences its protected pointer *after* the writers have
/// retired it and churned past — the use-after-free check TSan/ASan bite
/// on if a scheme frees protected memory.
pub fn stalled_reader_churn<S: Smr + Clone>(smr: S, writers: usize, rounds: u64) -> StallReport {
    trace::install_flight_recorder();
    let scheme = smr.name();

    // One shared slot per writer plus slot 0 for the victim; each holds a
    // value-pointer word for a tracked u64.
    let slots: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..writers + 1)
            .map(|_| AtomicUsize::new(smr.alloc(42u64) as usize))
            .collect(),
    );

    let victim = park_reader(scheme, {
        let smr = smr.clone();
        let slots = Arc::clone(&slots);
        move || {
            smr.begin_op();
            // Parks inside protect, with the protection (hazard slot, era
            // reservation, or epoch pin) already published.
            let word = smr.protect(0, &slots[0]);
            // SAFETY: the node was retired long ago and the writers have
            // churned thousands of objects past it — the published
            // protection is exactly what must keep this read valid.
            let seen = unsafe { *(word as *const u64) };
            smr.end_op();
            seen
        }
    });

    // Retire the node the victim is protecting: the adversarial case.
    let fresh = smr.alloc(7u64) as usize;
    let old = slots[0].swap(fresh, Ordering::SeqCst);
    // SAFETY: the swap unlinked `old`; we are its unique unlinker.
    unsafe { smr.retire(old as *mut u64) };

    let max_seen = AtomicUsize::new(0);
    run_workers(writers, |w| {
        for i in 0..rounds {
            let next = smr.alloc(i) as usize;
            let old = slots[w + 1].swap(next, Ordering::SeqCst);
            // SAFETY: each writer owns its own slot, so the swapped-
            // out node is unlinked and retired exactly once.
            unsafe { smr.retire(old as *mut u64) };
            max_seen.fetch_max(smr.unreclaimed(), Ordering::Relaxed);
        }
    });

    // All writers done (and their retired lists orphaned at thread exit);
    // flush with the victim still parked. Bounded schemes reclaim all but
    // a rounds-independent residue here; EBR/Leaky keep ~everything.
    smr.flush();
    let stalled_flush_unreclaimed = smr.unreclaimed();
    let churned = writers as u64 * rounds + 1;

    let seen = victim.release();
    assert_eq!(
        seen, 42,
        "{scheme}: victim read {seen} through its protected pointer (use-after-free)"
    );

    let drained = drain(&smr, 400);
    let stats = smr.stats();

    // Quiescent now: free the nodes still sitting in the shared slots.
    for slot in slots.iter() {
        let w = slot.load(Ordering::SeqCst);
        // SAFETY: every thread has joined, so the slots are quiescent and
        // this is the sole owner freeing each residual node once.
        unsafe { smr.dealloc_now(w as *mut u64) };
    }

    StallReport {
        scheme,
        churned,
        max_unreclaimed: max_seen
            .load(Ordering::Relaxed)
            .max(stalled_flush_unreclaimed),
        stalled_flush_unreclaimed,
        drained,
        stats,
    }
}

/// The OrcGC row of the stall battery: a victim parks inside
/// [`OrcAtomic::load`] (the handover protect round, its slot published)
/// while the main thread unlinks the object it protects and `writers`
/// threads each store `rounds` fresh objects into a link of their own,
/// then exit. `max_unreclaimed` and `stalled_flush_unreclaimed` read the
/// domain's gauge, so the report is this cell's only in a binary that
/// runs no other OrcGC code; `drained` is whether the gauge is 0 once the
/// victim has dropped its guard and exited. Its own ledgered section,
/// like [`stall_cell`].
pub fn orc_stall_cell(writers: usize, rounds: u64) -> StallReport {
    let ledger = Ledger::open();
    trace::install_flight_recorder();
    let before = orcgc::domain_stats();
    let domain = orcgc::domain();
    let links: Arc<Vec<OrcAtomic<u64>>> = Arc::new(
        (0..writers + 1)
            .map(|_| OrcAtomic::new(&make_orc(42u64)))
            .collect(),
    );

    let victim = park_reader("OrcGC", {
        let links = Arc::clone(&links);
        move || *links[0].load()
    });
    links[0].store(&make_orc(7u64));
    let max_seen = AtomicU64::new(0);
    run_workers(writers, |w| {
        for i in 0..rounds {
            links[w + 1].store(&make_orc(i));
            max_seen.fetch_max(domain.unreclaimed(), Ordering::Relaxed);
        }
    });
    orcgc::flush_thread();
    let stalled_flush_unreclaimed = domain.unreclaimed() as usize;

    let seen = victim.release();
    assert_eq!(
        seen, 42,
        "OrcGC: victim read {seen} through its guard (use-after-free)"
    );
    orcgc::flush_thread();
    let drained = domain.unreclaimed() == 0;
    let stats = orcgc::domain_stats().since(&before);

    // The victim is joined: this is the last handle, and dropping the
    // links retires and frees what they still hold.
    drop(links);
    orcgc::flush_thread();
    ledger.assert_balanced("OrcGC/stall");
    StallReport {
        scheme: "OrcGC",
        churned: writers as u64 * rounds + 1,
        max_unreclaimed: (max_seen.load(Ordering::Relaxed) as usize).max(stalled_flush_unreclaimed),
        stalled_flush_unreclaimed,
        drained,
        stats,
    }
}

/// A reader thread parked at [`StallPoint::Protect`] by [`park_reader`].
struct Parked<V> {
    gate: Arc<Gate>,
    thread: std::thread::JoinHandle<V>,
}

/// Runs `read` on a thread of its own with [`StallPoint::Protect`] armed
/// and returns once it has parked there, its protection published.
/// `who` names it if it never parks.
fn park_reader<V: Send + 'static>(
    who: &str,
    read: impl FnOnce() -> V + Send + 'static,
) -> Parked<V> {
    let gate = Gate::new();
    let thread = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            stall::arm(StallPoint::Protect, gate);
            read()
        })
    };
    assert!(
        gate.wait_until_parked(Duration::from_secs(30)),
        "{who}: victim never reached the protect injection point"
    );
    Parked { gate, thread }
}

impl<V> Parked<V> {
    /// Releases the reader and joins its thread, exit hooks included;
    /// returns what it read.
    fn release(self) -> V {
        self.gate.release();
        self.thread.join().expect("parked reader panicked")
    }
}

/// Asserts the Table-1 "bounded" column: the stalled-flush residue is
/// below [`bounded_ceiling`] (i.e. independent of churn volume) and the
/// scheme drained to zero once the victim resumed.
pub fn assert_bounded(r: &StallReport, writers: usize) {
    let ceiling = bounded_ceiling(writers);
    assert!(
        r.stalled_flush_unreclaimed <= ceiling,
        "{}: {} unreclaimed after flush under a stalled reader (ceiling {ceiling}, churned {})",
        r.scheme,
        r.stalled_flush_unreclaimed,
        r.churned,
    );
    assert!(
        r.drained,
        "{}: failed to drain to 0 after the stalled reader resumed",
        r.scheme
    );
}

/// Asserts the unbounded case: a stalled reader blocks reclamation, so the
/// residue scales with the churn (EBR; also the leaky baseline, which
/// additionally never drains).
pub fn assert_unbounded(r: &StallReport) {
    assert!(
        r.stalled_flush_unreclaimed as u64 >= r.churned / 2,
        "{}: only {} of {} churned objects unreclaimed under a stalled reader — \
         expected reclamation to be blocked",
        r.scheme,
        r.stalled_flush_unreclaimed,
        r.churned,
    );
}

/// Calls `flush` until `unreclaimed()` reaches 0 or `attempts` runs out.
///
/// A worker that just left a `thread::scope` may still be inside its
/// TLS-destructor exit hooks — the scope unblocks when the closure
/// returns, *before* destructors run — so retired objects can sit in an
/// exiting thread's lists, invisible to our flush until its hook orphans
/// them. Pure `yield_now` spins can all elapse while that thread is
/// descheduled; back off with a real sleep periodically so `attempts`
/// bounds wall-clock waiting, not scheduler luck.
pub fn drain<S: Smr>(smr: &S, attempts: usize) -> bool {
    for i in 0..attempts {
        if smr.unreclaimed() == 0 {
            return true;
        }
        smr.flush();
        if i % 32 == 31 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
    smr.unreclaimed() == 0
}

/// Runs `work(0)`…`work(n - 1)` on `n` scoped threads and joins each
/// *handle*. A bare `thread::scope` unblocks when the closures return —
/// before the workers' TLS destructors, where the schemes' exit hooks
/// orphan their retired lists and hand over their protected rows.
/// Joining the handle waits for the OS thread, so when this returns every
/// worker's exit hook has run and the caller's `flush` sees all they left.
fn run_workers(n: usize, work: impl Fn(usize) + Sync) {
    std::thread::scope(|sc| {
        let work = &work;
        let workers: Vec<_> = (0..n).map(|i| sc.spawn(move || work(i))).collect();
        for w in workers {
            if let Err(panic) = w.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

// ---------------------------------------------------------------------
// Watchdog battery: the orc-obs reclamation watchdog against a
// *progressive* stalled-reader scenario.
// ---------------------------------------------------------------------

/// Outcome of [`watchdog_cell`]: orc-obs watchdog alerts raised under
/// the progressively-stalling scenario vs the identical healthy one.
#[derive(Debug, Clone)]
pub struct WatchdogReport {
    pub scheme: &'static str,
    /// Rounds driven (== parked victims in the stalled arm).
    pub rounds: u64,
    /// Watchdog alerts for the stalled arm's source.
    pub stalled_alerts: u64,
    /// Watchdog alerts for the healthy arm's source.
    pub healthy_alerts: u64,
    /// `unreclaimed()` after the last stalled round's flush (== rounds
    /// for every protection-respecting scheme).
    pub stalled_final_unreclaimed: u64,
}

/// Drives the orc-obs reclamation watchdog for one scheme with a
/// *progressive* stall: each round parks one more victim inside
/// `protect` (pinning the node it validated), retires that node, runs a
/// `flush`, and takes one deterministic sampling pass over its own
/// source ([`orc_util::obs::Registration::sample`]). The post-flush
/// `unreclaimed` gauge then rises by exactly one per round
/// for every scheme that honours protection — bounded schemes included,
/// whose gauge under the *classic* single-victim churn merely sawtooths
/// — so [`orc_util::obs::STALL_K`] consecutive rising samples latch an
/// [`orc_util::obs::ObsAlert`]. The healthy arm repeats the identical
/// choreography with victims that release immediately: the gauge
/// returns to zero after every flush and the watchdog must stay silent
/// (except for the leaky baseline, which *is* a permanent reclamation
/// stall and correctly alerts in both arms).
///
/// **Determinism contract:** callers must latch `ORC_OBS_INTERVAL_MS=0`
/// before the first orc-obs use in the process, so no background pass
/// can interleave an equal-valued sample (which would reset the rising
/// streak). The obs_watchdog test does exactly that. Concurrent cells in
/// one process are fine: each arm samples only the source it registered.
pub fn watchdog_cell(kind: SchemeKind, rounds: u64) -> WatchdogReport {
    let (stalled_alerts, stalled_final_unreclaimed) = watchdog_run(kind, rounds, true);
    let (healthy_alerts, _) = watchdog_run(kind, rounds, false);
    WatchdogReport {
        scheme: kind.name(),
        rounds,
        stalled_alerts,
        healthy_alerts,
        stalled_final_unreclaimed,
    }
}

/// One arm of [`watchdog_cell`]; returns (alerts, final unreclaimed).
fn watchdog_run(kind: SchemeKind, rounds: u64, stall: bool) -> (u64, u64) {
    let smr = kind.build_with_threshold(STALL_THRESHOLD);
    let arm_name = if stall { "stalled" } else { "healthy" };
    let reg = reclaim::observe(&format!("watchdog/{}/{}", kind.name(), arm_name), &smr);
    let slot = Arc::new(AtomicUsize::new(smr.alloc(0u64) as usize));
    reg.sample(); // baseline: gauge 0, starts the comparison chain

    let mut victims = Vec::new();
    for r in 0..rounds {
        if stall {
            // Park one MORE victim inside protect, pinning the node it
            // validated. The pile of parked victims is what makes the
            // post-flush gauge rise monotonically.
            let victim = park_reader(&format!("{}: watchdog victim {r}", kind.name()), {
                let smr = smr.clone();
                let slot = Arc::clone(&slot);
                move || {
                    smr.begin_op();
                    let word = smr.protect(0, &slot);
                    // SAFETY: the published protection is exactly what
                    // must keep this read valid while the driver retires
                    // the node under us (the UAF canary).
                    let seen = unsafe { *(word as *const u64) };
                    smr.end_op();
                    seen
                }
            });
            victims.push((victim, r));
        } else {
            // Healthy reader: protect, read, release immediately.
            smr.begin_op();
            let word = smr.protect(0, &slot);
            // SAFETY: protection is published and validated; the node is
            // only retired after this op ends.
            let seen = unsafe { *(word as *const u64) };
            smr.end_op();
            assert_eq!(seen, r, "{}: healthy reader tore a read", kind.name());
        }
        // Retire the node the reader just observed, then flush: with a
        // parked victim the node stays pinned (gauge := r+1); healthy,
        // the flush frees it (gauge := 0).
        let fresh = smr.alloc(r + 1) as usize;
        let old = slot.swap(fresh, Ordering::SeqCst);
        // SAFETY: the swap unlinked `old`; we are its unique unlinker.
        unsafe { smr.retire(old as *mut u64) };
        smr.flush();
        reg.sample();
    }

    let alerts = reg.alert_count();
    let final_unreclaimed = smr.unreclaimed() as u64;

    for (victim, r) in victims {
        let seen = victim.release();
        assert_eq!(
            seen,
            r,
            "{}: victim {r} read {seen} through its protected pointer (use-after-free)",
            kind.name()
        );
    }
    drain(&smr, 400);
    // SAFETY: every victim joined; the slot is quiescent and this is the
    // sole owner freeing the residual node once.
    unsafe { smr.dealloc_now(slot.load(Ordering::SeqCst) as *mut u64) };
    drop(reg); // release the sampler's scheme handles before teardown
    (alerts, final_unreclaimed)
}

// ---------------------------------------------------------------------
// The sweep path: one ledgered protocol for every (scheme × structure)
// cell, manual or OrcGC.
// ---------------------------------------------------------------------

/// Runs `body` against a freshly built set for one registry cell under
/// the leak ledger, then tears the cell down and asserts the ledger
/// balanced. Returns `body`'s result and the cell's stats (for OrcGC, the
/// domain delta over the cell). `body` must join its workers by handle
/// (`run_workers`): the teardown assumes no exit hook is still pending.
pub fn ledgered_set_cell<R>(cell: &SetCell, body: impl FnOnce(&DynSet) -> R) -> (R, StatsSnapshot) {
    ledgered_cell(cell, body, |_| {})
}

/// Queue flavor of [`ledgered_set_cell`]. The runner drains the queue
/// empty after `body` returns (a queue teardown must not depend on Drop
/// alone to free linked items).
pub fn ledgered_queue_cell<R>(
    cell: &QueueCell,
    body: impl FnOnce(&DynQueue) -> R,
) -> (R, StatsSnapshot) {
    ledgered_cell(cell, body, |q| while q.dequeue().is_some() {})
}

/// The one sweep path, where the ledger/drain/teardown discipline lives —
/// every battery (churn, soak, ABA) layers a different `body` over it.
/// After `body`, `empty` the structure and drop it, then settle: a manual
/// scheme drains to `unreclaimed() == 0` ([`drain`], reclaiming
/// schemes), an OrcGC section flushes this thread's handover slots.
/// Dropping the reclaimer then frees the leaky baseline's stash. The
/// ledger opens before the cell is built: the domain is process-global,
/// so an OrcGC base taken while another section still runs would credit
/// that section's pending reclaims to this delta.
fn ledgered_cell<D: Swept, R>(
    cell: &Cell<D>,
    body: impl FnOnce(&D) -> R,
    empty: impl FnOnce(&D),
) -> (R, StatsSnapshot) {
    trace::install_flight_recorder();
    let label = cell.label();
    let ledger = Ledger::open();
    let (d, reclaimer) = cell.instantiate();
    let r = body(&d);
    empty(&d);
    // The structure frees its remaining nodes in Drop (`dealloc_now`,
    // never a retire), so the settle below sees all the churn.
    drop(d);
    match &reclaimer {
        Reclaimer::Manual(smr) => assert!(
            !smr.kind().reclaims() || drain(smr, 400),
            "{label}: flush left {} objects unreclaimed",
            smr.unreclaimed()
        ),
        Reclaimer::Orc(_) => orcgc::flush_thread(),
    }
    let stats = reclaimer.stats();
    drop(reclaimer);
    ledger.assert_balanced(&label);
    (r, stats)
}

fn churn_set<T: ConcurrentSet<u64> + ?Sized>(set: &T, threads: usize, iters: u64, seed: u64) {
    run_workers(threads, |t| {
        let mut rng = XorShift64::new(seed ^ ((t as u64 + 1) << 32) ^ iters);
        for _ in 0..iters {
            let k = rng.next_bounded(64);
            match rng.next_bounded(4) {
                0 | 1 => {
                    set.add(k);
                }
                2 => {
                    set.remove(&k);
                }
                _ => {
                    set.contains(&k);
                }
            }
        }
    });
}

fn churn_queue<T: ConcurrentQueue<u64> + ?Sized>(q: &T, threads: usize, iters: u64, seed: u64) {
    run_workers(threads, |t| {
        let mut rng = XorShift64::new(seed ^ ((t as u64 + 1) << 24));
        for i in 0..iters {
            if rng.next_bounded(2) == 0 {
                q.enqueue(i);
            } else {
                q.dequeue();
            }
        }
    });
}

/// The orc-stats contract of a cell that churned and then drained (see
/// `orc_util::stats`): every `unreclaimed += 1` is paired with a Retire
/// event and every `-= 1` with a Reclaim, and the runners snapshot after
/// draining to `unreclaimed() == 0` (structure teardown uses
/// `dealloc_now`, which never retires) — so a reclaiming scheme comes
/// back exactly balanced and the leaky baseline with its whole churn
/// outstanding. For OrcGC cells `s` is the domain delta over the cell,
/// balanced once the ledger settled. With `ORC_STATS` off every counter
/// is zero and there is nothing to check.
fn assert_quiescent(label: &str, s: &StatsSnapshot, axis: SchemeAxis) {
    if !orc_util::stats::enabled() {
        return;
    }
    assert!(
        s.reclaims <= s.retires && s.peak_unreclaimed >= s.outstanding(),
        "{label}: counters out of order: {}",
        s.summary()
    );
    if axis.reclaims() {
        assert_eq!(
            s.retires, s.reclaims,
            "{label}: drained to unreclaimed()==0 but stats disagree"
        );
        assert!(
            s.reclaims == 0 || s.batches() > 0,
            "{label}: objects were reclaimed but no batch was recorded"
        );
    } else {
        assert_eq!(s.reclaims, 0, "{label}: the leaky baseline never reclaims");
        assert_eq!(s.batches(), 0, "{label}: no reclaims, no batches");
        assert_eq!(s.peak_unreclaimed, s.retires, "{label}: peak is the total");
    }
}

/// Leak-ledger churn battery for one (scheme × set) cell: the ledger must
/// balance and the cell's stats snapshot (manual: the scheme instance;
/// OrcGC: the domain delta) must satisfy the quiescent telemetry
/// contract. Returns the snapshot.
pub fn churn_set_cell(cell: &SetCell, threads: usize, iters: u64) -> StatsSnapshot {
    let s = ledgered_set_cell(cell, |set| churn_set(set, threads, iters, 0x5e7_c4e8)).1;
    assert_quiescent(&cell.label(), &s, cell.scheme);
    s
}

/// Leak-ledger churn battery for one (scheme × queue) cell; see
/// [`churn_set_cell`].
pub fn churn_queue_cell(cell: &QueueCell, threads: usize, iters: u64) -> StatsSnapshot {
    let s = ledgered_queue_cell(cell, |q| churn_queue(q, threads, iters, 0x9_c4e8)).1;
    assert_quiescent(&cell.label(), &s, cell.scheme);
    s
}

/// Oversubscription soak for one set cell: `waves` successive spawn/join
/// waves of `threads_per_wave` short-lived threads (intended to be ≫
/// cores, see [`soak_threads`]) churn one shared structure. Exercises
/// registry tid reuse, per-thread state re-attachment, and thread-exit
/// orphan handoff — then the usual flush/drop/ledger teardown.
pub fn soak_set_cell(cell: &SetCell, waves: usize, threads_per_wave: usize, iters: u64) {
    assert!(
        threads_per_wave < registry::MAX_THREADS,
        "soak sizing exceeds the registry capacity"
    );
    let label = cell.label();
    ledgered_set_cell(cell, |set| {
        for wave in 0..waves {
            churn_set(set, threads_per_wave, iters, 0x50a_c000 + wave as u64);
            assert!(
                registry::registered_watermark() <= registry::MAX_THREADS,
                "{label}: registry watermark escaped its bound"
            );
        }
    });
}

/// ABA hammer over one set cell: a tiny key universe (8 keys) forces every
/// node address to be freed and re-allocated constantly, so a stale
/// (recycled) pointer surviving a CAS would corrupt the structure. Per-key
/// conservation counts (successful adds − successful removes) must equal
/// the final membership exactly.
pub fn aba_set_cell(cell: &SetCell, threads: usize, iters: u64) {
    const KEYS: u64 = 8;
    let label = cell.label();
    ledgered_set_cell(cell, |set| {
        let net: Vec<AtomicI64> = (0..KEYS).map(|_| AtomicI64::new(0)).collect();
        run_workers(threads, |t| {
            let mut rng = XorShift64::new(0xaba ^ ((t as u64 + 1) << 40));
            for _ in 0..iters {
                let k = rng.next_bounded(KEYS);
                if rng.next_bounded(2) == 0 {
                    if set.add(k) {
                        net[k as usize].fetch_add(1, Ordering::Relaxed);
                    }
                } else if set.remove(&k) {
                    net[k as usize].fetch_sub(1, Ordering::Relaxed);
                }
            }
        });
        for (k, n) in net.iter().enumerate() {
            let n = n.load(Ordering::Relaxed);
            assert!(
                n == 0 || n == 1,
                "{label}: key {k} net count {n} — a node was lost or duplicated (ABA)"
            );
            assert_eq!(
                n == 1,
                set.contains(&(k as u64)),
                "{label}: key {k} membership disagrees with its conservation count"
            );
        }
    });
}

/// ABA hammer over one queue cell: producers enqueue a known arithmetic
/// series, consumers drain it; the dequeued sum must match exactly (no
/// lost or duplicated items) and the queue must end empty.
pub fn aba_queue_cell(cell: &QueueCell, producers: usize, consumers: usize, per: u64) {
    let label = cell.label();
    ledgered_queue_cell(cell, |q| {
        let want = producers as u64 * per;
        let expected: u64 = (0..want).sum();
        let sum = AtomicU64::new(0);
        let got = AtomicU64::new(0);
        run_workers(producers + consumers, |t| {
            if t < producers {
                for i in 0..per {
                    q.enqueue(t as u64 * per + i);
                }
                return;
            }
            while got.load(Ordering::SeqCst) < want {
                if let Some(v) = q.dequeue() {
                    sum.fetch_add(v, Ordering::SeqCst);
                    got.fetch_add(1, Ordering::SeqCst);
                } else {
                    // Yield, don't spin: oversubscribed consumers
                    // busy-spinning on an empty queue starve the
                    // producers on small hosts.
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(
            sum.load(Ordering::SeqCst),
            expected,
            "{label}: dequeued sum mismatch — items were lost or duplicated (ABA)"
        );
        assert_eq!(q.dequeue(), None, "{label}: queue not empty after drain");
    });
}
