//! The clock is read once per *sampled* reclamation call, checked from
//! outside — no counter in the program, only what the trace rings and
//! the delay histograms show:
//!
//! * **budget** — a tid that ran N alloc → retire → free cycles carries
//!   at most ⌈N/SAMPLE_EVERY⌉ + 2 distinct `t_ns` values on its events
//!   (one read per sampled retire; unsampled calls record nothing, and
//!   the rest are latched);
//! * **order** — per tid, `t_ns` never decreases in `seq` order, and a
//!   traced pass's `ScanBegin` … `ScanEnd` bracket is whole, cascades
//!   included;
//! * **honest delays** — the delay histogram holds exactly the sampled
//!   objects, and an object a stalled reader held for milliseconds
//!   reports those milliseconds (a pass that is not part of a retire
//!   call reads the clock itself, once).
//!
//! Own process: `ORC_TRACE_CAP` must be pinned before the rings
//! materialize so that a whole run of cycles is retained, and the tests
//! serialize (they read per-tid tails of shared rings and, for OrcGC,
//! deltas of the process-global domain). Every probe runs on a fresh
//! thread, whose first call of each kind is sampled.

use orc_util::atomics::{AtomicPtr, Ordering};
use orc_util::sample::SAMPLE_EVERY;
use orc_util::stall::{self, Gate, StallPoint};
use orc_util::trace::{self, EventKind, TraceEvent};
use orc_util::{hist, registry};
use orcgc::{make_orc, OrcAtomic};
use reclaim::{PassTheBuck, PassThePointer, SchemeKind, Smr};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Cycles per budget test.
const N: u64 = 1000;
/// Ring capacity: holds every event of one budget run.
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

/// Runs `body` on a fresh thread (fresh strides) and returns its result.
fn on_fresh_thread<R: Send>(body: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(body).join().expect("probe panicked"))
}

fn count(evs: &[TraceEvent], kind: EventKind) -> u64 {
    evs.iter().filter(|e| e.kind == kind).count() as u64
}

fn assert_within_budget(what: &str, evs: &[TraceEvent]) {
    assert!(evs.len() < CAP, "{what}: the ring wrapped");
    let mut stamps: Vec<u64> = evs.iter().map(|e| e.t_ns).collect();
    stamps.sort_unstable();
    stamps.dedup();
    let budget = N.div_ceil(SAMPLE_EVERY) + 2;
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
fn ptp_cycles_read_the_clock_once_per_sample() {
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
    // A sampled cycle: Alloc, then Retire, ScanBegin, ReclaimBatch,
    // ScanEnd; an unsampled one records nothing. (Pool refills are not
    // reclamation calls and keep recording.)
    let sampled = N.div_ceil(SAMPLE_EVERY);
    assert_eq!(count(&evs, EventKind::Alloc), sampled, "ptp allocs");
    assert_eq!(count(&evs, EventKind::Retire), sampled, "ptp retires");
    let reclamation = evs.len() as u64 - count(&evs, EventKind::PoolRefill);
    assert_eq!(reclamation, 5 * sampled, "ptp: {evs:?}");
    assert_within_budget("ptp", &evs);
    assert_stamp_monotone("ptp", &evs);
}

#[test]
fn orcgc_cycles_read_the_clock_once_per_sample() {
    let _g = setup();
    let (evs, ()) = events_of(|| {
        let link = OrcAtomic::new(&make_orc(0u64));
        for i in 1..=N {
            // Displaces the previous object, whose count drops to zero:
            // claimed, scanned and deleted inside this one store.
            link.store(&make_orc(i));
        }
    });
    // A sampled claim: OrcZero, BRetired, ScanBegin, ReclaimBatch,
    // ScanEnd. N + 1 claims (the link's own drop is the last).
    assert_eq!(
        count(&evs, EventKind::BRetired),
        (N + 1).div_ceil(SAMPLE_EVERY)
    );
    assert_eq!(
        count(&evs, EventKind::Alloc),
        (N + 1).div_ceil(SAMPLE_EVERY)
    );
    assert_within_budget("orcgc", &evs);
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
fn every_sampled_retire_has_its_passs_bracket() {
    let _g = setup();
    // PTP: every retire call runs a handover walk, so a sampled `Retire`
    // is followed at once by its walk's `ScanBegin`, and the walk closes.
    for evs in churn_pair(&PassThePointer::new()) {
        assert_stamp_monotone("ptp", &evs);
        assert!(count(&evs, EventKind::Retire) >= 400u64.div_ceil(SAMPLE_EVERY));
        for (i, e) in evs.iter().enumerate() {
            if e.kind == EventKind::Retire {
                assert_eq!(
                    evs.get(i + 1).map(|n| n.kind),
                    Some(EventKind::ScanBegin),
                    "ptp: the sampled retire at seq {} opens no traced walk",
                    e.seq
                );
            }
        }
        assert_eq!(
            count(&evs, EventKind::ScanBegin),
            count(&evs, EventKind::ScanEnd)
        );
    }

    // OrcGC cascade: each store displaces a chain of eight nodes whose
    // deletion claims the next node from inside the running pass — those
    // claims draw again, the pass keeps the decision it opened with.
    struct Node {
        _next: OrcAtomic<Node>,
    }
    let link = OrcAtomic::<Node>::null();
    let worker = || {
        events_of(|| {
            for _ in 0..300 {
                let mut head = make_orc(Node {
                    _next: OrcAtomic::null(),
                });
                for _ in 0..7 {
                    head = make_orc(Node {
                        _next: OrcAtomic::new(&head),
                    });
                }
                link.store(&head);
            }
            orcgc::flush_thread();
        })
        .0
    };
    std::thread::scope(|s| {
        let (a, b) = (s.spawn(worker), s.spawn(worker));
        for h in [a, b] {
            let evs = h.join().expect("worker");
            assert_stamp_monotone("orcgc cascade", &evs);
            assert!(count(&evs, EventKind::BRetired) > 0);
            assert_eq!(
                count(&evs, EventKind::ScanBegin),
                count(&evs, EventKind::ScanEnd),
                "orcgc cascade: a traced pass's bracket is whole"
            );
        }
    });
    link.store_null();
}

#[test]
fn delays_count_exactly_the_sampled_objects() {
    let _g = setup();
    for kind in SchemeKind::ALL.into_iter().filter(|k| k.reclaims()) {
        let s = on_fresh_thread(|| {
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
            assert_eq!(smr.unreclaimed(), 0, "{kind}: flushed to quiescence");
            smr.stats()
        });
        assert_eq!(s.reclaims, 301, "{kind}");
        // 301 retire calls on a fresh thread: calls 0, 64, …, 256 stamped.
        assert_eq!(s.delays(), 301u64.div_ceil(SAMPLE_EVERY), "{kind}");
    }
}

/// How long the stalled reader holds its protection, and the delay the
/// histogram must then show. The gap covers the histogram's bucket
/// width (≤ 25 %).
const HOLD: Duration = Duration::from_millis(8);
const MUST_SHOW_NS: u64 = 5_000_000;

/// Delay samples above the bucket that contains [`MUST_SHOW_NS`].
fn long_delays(s: &reclaim::StatsSnapshot) -> u64 {
    s.delay.buckets[hist::bucket_of(MUST_SHOW_NS) + 1..]
        .iter()
        .sum()
}

/// Parks a reader inside `protect_ptr` (protection published), retires
/// the protected object — the writer thread's first, sampled, retire —
/// holds for [`HOLD`], releases. The reader's `end_op` then finishes the
/// retirement.
fn manual_stall(smr: &impl Smr) {
    let link = AtomicPtr::new(smr.alloc(1u64));
    let gate = Gate::new();
    on_fresh_thread(|| {
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
        // SAFETY: the reader is joined; the last occupant is retired once
        // (the thread's second retire: not sampled).
        unsafe { smr.retire(link.swap(std::ptr::null_mut(), Ordering::SeqCst)) };
        smr.flush();
    });
    let s = smr.stats();
    assert_eq!(smr.unreclaimed(), 0, "{}", smr.name());
    assert_eq!(
        s.delays(),
        1,
        "{}: the probe is the one sampled object",
        smr.name()
    );
    assert!(
        s.delay.max >= MUST_SHOW_NS && long_delays(&s) == 1,
        "{}: held {HOLD:?}, histogram shows max {} ns, {} long samples",
        smr.name(),
        s.delay.max,
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
    on_fresh_thread(|| {
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                stall::arm(StallPoint::Protect, gate.clone());
                assert_eq!(*link.load(), 1);
                orcgc::flush_thread();
            });
            assert!(gate.wait_until_parked(Duration::from_secs(10)));
            // The displaced object's count drops to zero: claimed here —
            // this thread's first, sampled, claim — then handed over to
            // the parked reader's hazard slot.
            link.store(&make_orc(2u64));
            std::thread::sleep(HOLD);
            gate.release();
            reader.join().expect("reader");
        });
    });
    let s = orcgc::domain_stats().since(&before);
    assert!(s.handovers >= 1, "the retire found the reader's protection");
    assert_eq!(
        long_delays(&s),
        1,
        "orcgc: held {HOLD:?}; delay histogram delta {:?}",
        s.delay.buckets
    );
}
