//! One clock read per reclamation call, checked from outside — no
//! counter in the program, only what the trace rings and the delay
//! histograms show:
//!
//! * **budget** — a tid that ran N alloc → retire → free cycles carries
//!   at most N·(1 + 1/STAMP_STRIDE) + 8 distinct `t_ns` values on its
//!   events (one read per retire; the rest are latched);
//! * **order** — per tid, `t_ns` never decreases in `seq` order;
//! * **honest delays** — threading the retire's stamp into the pass it
//!   triggers loses no delay sample, and an object a stalled reader held
//!   for milliseconds reports those milliseconds (a pass that is not
//!   part of a retire call reads the clock itself).
//!
//! Own process: `ORC_TRACE_CAP` must be pinned before the rings
//! materialize so that a whole run of cycles is retained, and the tests
//! serialize (they read per-tid tails of shared rings and, for OrcGC,
//! deltas of the process-global domain).

use orc_util::atomics::{AtomicPtr, Ordering};
use orc_util::stall::{self, Gate, StallPoint};
use orc_util::trace::{self, TraceEvent, STAMP_STRIDE};
use orc_util::{hist, registry};
use orcgc::{make_orc, OrcAtomic};
use reclaim::{PassTheBuck, PassThePointer, SchemeKind, Smr};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Cycles per budget test.
const N: u64 = 1000;
/// Ring capacity: holds the ≤ 6·N events of one budget run.
const CAP: usize = 8192;

fn setup() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    std::env::set_var("ORC_TRACE_CAP", CAP.to_string());
    std::env::remove_var("ORC_TRACE");
    std::env::remove_var("ORC_STATS");
    guard
}

fn tid_events(tid: usize) -> Vec<TraceEvent> {
    let mut evs: Vec<_> = trace::snapshot()
        .into_iter()
        .filter(|e| e.tid as usize == tid)
        .collect();
    evs.sort_by_key(|e| e.seq);
    evs
}

/// Runs `body` on a fresh thread and returns the events it recorded, in
/// `seq` order. Tids are recycled, so whatever an earlier owner of the
/// tid left on the ring is cut off by sequence number.
fn events_of<R: Send>(body: impl FnOnce() -> R + Send) -> (Vec<TraceEvent>, R) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let tid = registry::tid();
            let start = tid_events(tid).last().map_or(0, |e| e.seq + 1);
            let out = body();
            let mut evs = tid_events(tid);
            evs.retain(|e| e.seq >= start);
            (evs, out)
        })
        .join()
        .expect("traced body panicked")
    })
}

fn assert_within_budget(what: &str, evs: &[TraceEvent], at_least: u64) {
    assert!(
        evs.len() as u64 >= at_least && evs.len() < CAP,
        "{what}: {} events retained, expected ≥ {at_least} and no overwrite",
        evs.len()
    );
    let mut stamps: Vec<u64> = evs.iter().map(|e| e.t_ns).collect();
    stamps.sort_unstable();
    stamps.dedup();
    let budget = N + N / STAMP_STRIDE + 8;
    assert!(
        stamps.len() as u64 <= budget,
        "{what}: {} distinct stamps on {} events of {N} cycles (budget {budget})",
        stamps.len(),
        evs.len()
    );
}

/// Stamps monotone in `seq` order, every `ScanEnd` after its
/// `ScanBegin` — the same check `orctel trace` runs on its own output.
fn assert_stamp_monotone(what: &str, evs: &[TraceEvent]) {
    assert!(!evs.is_empty(), "{what}: recorded nothing");
    if let Err(why) = trace::check_per_tid_order(evs) {
        panic!("{what}: {why}");
    }
}

#[test]
fn ptp_cycle_reads_the_clock_once() {
    let _g = setup();
    let (evs, ()) = events_of(|| {
        let smr = PassThePointer::new();
        for i in 0..N {
            let p = smr.alloc(i);
            // SAFETY: never published, so unreachable; retired once.
            unsafe { smr.retire(p) };
        }
        assert_eq!(smr.unreclaimed(), 0, "unprotected: freed in the call");
    });
    // Alloc, Retire, ScanBegin, ReclaimBatch, ScanEnd.
    assert_within_budget("ptp", &evs, 5 * N);
    assert_stamp_monotone("ptp", &evs);
}

#[test]
fn orcgc_cycle_reads_the_clock_once() {
    let _g = setup();
    let (evs, ()) = events_of(|| {
        let link = OrcAtomic::new(&make_orc(0u64));
        for i in 1..=N {
            // Displaces the previous object, whose count drops to zero:
            // claimed, scanned and deleted inside this one store.
            link.store(&make_orc(i));
        }
    });
    // Alloc, OrcZero, BRetired, ScanBegin, ReclaimBatch, ScanEnd.
    assert_within_budget("orcgc", &evs, 6 * (N - 1));
    assert_stamp_monotone("orcgc", &evs);
}

/// Two threads swap-and-retire through one shared link, each with a
/// protected read per round, then flush; returns each thread's events.
fn churn_pair(smr: &impl Smr) -> Vec<Vec<TraceEvent>> {
    let link = AtomicPtr::new(smr.alloc(0u64));
    let worker = || {
        events_of(|| {
            for i in 1..=400u64 {
                smr.begin_op();
                let p = smr.protect_ptr(0, &link);
                // SAFETY: slot 0 (or the epoch pin) protects `p`.
                assert!(unsafe { *p } <= 400);
                smr.end_op();
                let old = link.swap(smr.alloc(i), Ordering::SeqCst);
                // SAFETY: the swap unlinked `old`; its one unlinker
                // retires it once.
                unsafe { smr.retire(old) };
            }
            smr.flush();
        })
        .0
    };
    let out = std::thread::scope(|s| {
        let (a, b) = (s.spawn(worker), s.spawn(worker));
        vec![a.join().expect("worker"), b.join().expect("worker")]
    });
    // SAFETY: both workers are joined; the last occupant is unlinked here
    // and retired once.
    unsafe { smr.retire(link.swap(std::ptr::null_mut(), Ordering::SeqCst)) };
    out
}

#[test]
fn per_tid_stamps_never_run_backwards() {
    let _g = setup();
    for kind in SchemeKind::ALL {
        for evs in churn_pair(&kind.build()) {
            assert_stamp_monotone(kind.name(), &evs);
        }
    }
    let link = OrcAtomic::new(&make_orc(0u64));
    let worker = || {
        events_of(|| {
            for i in 1..=400u64 {
                assert!(*link.load() <= 400);
                link.store(&make_orc(i));
            }
            orcgc::flush_thread();
        })
        .0
    };
    std::thread::scope(|s| {
        let (a, b) = (s.spawn(worker), s.spawn(worker));
        for h in [a, b] {
            assert_stamp_monotone("orcgc", &h.join().expect("worker"));
        }
    });
}

#[test]
fn no_delay_sample_is_lost_to_the_threaded_clock() {
    let _g = setup();
    for kind in SchemeKind::ALL.into_iter().filter(|k| k.reclaims()) {
        let smr = kind.build();
        let link = AtomicPtr::new(smr.alloc(0u64));
        for i in 1..=300u64 {
            let old = link.swap(smr.alloc(i), Ordering::SeqCst);
            // SAFETY: the swap unlinked `old`; retired once.
            unsafe { smr.retire(old) };
        }
        // SAFETY: as above, for the last occupant.
        unsafe { smr.retire(link.swap(std::ptr::null_mut(), Ordering::SeqCst)) };
        for _ in 0..8 {
            smr.flush();
        }
        let s = smr.stats();
        assert_eq!(smr.unreclaimed(), 0, "{kind}: flushed to quiescence");
        assert_eq!(s.reclaims, 301, "{kind}");
        assert_eq!(s.delays(), s.reclaims, "{kind}: one delay per free");
    }
}

/// How long the stalled reader holds its protection, and the delay the
/// histogram must then show. The gap covers the histogram's bucket
/// width (≤ 25 %).
const HOLD: Duration = Duration::from_millis(8);
const MUST_SHOW_NS: u64 = 5_000_000;

/// Delay samples above the bucket that contains [`MUST_SHOW_NS`].
fn long_delays(s: &reclaim::StatsSnapshot) -> u64 {
    s.delay_hist[hist::bucket_of(MUST_SHOW_NS) + 1..]
        .iter()
        .sum()
}

/// Parks a reader inside `protect_ptr` (protection published), retires
/// the protected object from this thread, holds for [`HOLD`], releases.
/// The reader's `end_op` then finishes the retirement.
fn manual_stall(smr: &impl Smr) {
    let link = AtomicPtr::new(smr.alloc(1u64));
    let gate = Gate::new();
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            stall::arm(StallPoint::Protect, gate.clone());
            let p = smr.protect_ptr(0, &link);
            // SAFETY: slot 0 protected `p` before the writer unlinked it.
            assert_eq!(unsafe { *p }, 1);
            smr.end_op();
        });
        assert!(gate.wait_until_parked(Duration::from_secs(10)));
        let old = link.swap(smr.alloc(2u64), Ordering::SeqCst);
        // SAFETY: the swap unlinked `old`; retired once.
        unsafe { smr.retire(old) };
        smr.flush();
        assert_eq!(smr.unreclaimed(), 1, "{}: the reader holds it", smr.name());
        std::thread::sleep(HOLD);
        gate.release();
        reader.join().expect("reader");
    });
    smr.flush();
    // SAFETY: the reader is joined; the last occupant is retired once.
    unsafe { smr.retire(link.swap(std::ptr::null_mut(), Ordering::SeqCst)) };
    smr.flush();
    let s = smr.stats();
    assert_eq!(smr.unreclaimed(), 0, "{}", smr.name());
    assert_eq!(s.delays(), s.reclaims, "{}", smr.name());
    assert!(
        s.max_delay_ns >= MUST_SHOW_NS && long_delays(&s) == 1,
        "{}: held {HOLD:?}, histogram shows max {} ns, {} long samples",
        smr.name(),
        s.max_delay_ns,
        long_delays(&s)
    );
}

#[test]
fn a_stalled_readers_hold_shows_in_the_delay_histogram() {
    let _g = setup();
    manual_stall(&PassThePointer::new());
    manual_stall(&PassTheBuck::with_threshold(1));

    let before = orcgc::domain_stats();
    let link = OrcAtomic::new(&make_orc(1u64));
    let gate = Gate::new();
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            stall::arm(StallPoint::Protect, gate.clone());
            assert_eq!(*link.load(), 1);
            orcgc::flush_thread();
        });
        assert!(gate.wait_until_parked(Duration::from_secs(10)));
        // The displaced object's count drops to zero: claimed here, then
        // handed over to the parked reader's hazard slot.
        link.store(&make_orc(2u64));
        std::thread::sleep(HOLD);
        gate.release();
        reader.join().expect("reader");
    });
    let s = orcgc::domain_stats().since(&before);
    assert!(s.handovers >= 1, "the retire found the reader's protection");
    assert_eq!(
        long_delays(&s),
        1,
        "orcgc: held {HOLD:?}; delay histogram delta {:?}",
        s.delay_hist
    );
}
