//! Every schedule starts from one process state (DESIGN.md §9.3): a model
//! explores the same schedules whatever marks earlier threads raised, and
//! an exploration that starts while a thread outside it holds a registry
//! tid fails naming it.

use check::{explore, spawn, Config, Report};
use orc_util::atomics::{AtomicU64, AtomicUsize, Ordering};
use orc_util::registry;
use orcgc::{make_orc, OrcAtomic, OrcPtr};
use reclaim::{SchemeKind, Smr};
use std::sync::{mpsc, Arc, Barrier, Mutex, OnceLock};

/// Both tests hold tids outside a model, which the other must not see.
static SERIAL: Mutex<()> = Mutex::new(());

/// An OrcGC reader loads a node while a writer unlinks it.
fn orcgc_model() -> Report {
    explore(Config::from_env(), || {
        let head = Arc::new(OrcAtomic::new(&make_orc(1u64)));
        let unlink = Arc::clone(&head);
        let writer = spawn(move || unlink.store_null());
        assert!(head.load().as_ref().is_none_or(|v| *v == 1));
        writer.join();
    })
    .unwrap_or_else(|f| panic!("orcgc model failed:\n{f}"))
}

/// A PTP reader protects a node while this thread unlinks and retires it:
/// the retire's scan may run before the reader has a tid.
fn ptp_model() -> Report {
    explore(Config::from_env(), || {
        let smr = Arc::new(SchemeKind::Ptp.build_with_threshold(1));
        let shared = Arc::new(AtomicUsize::new(smr.alloc(AtomicU64::new(1)) as usize));
        let (rsmr, link) = (Arc::clone(&smr), Arc::clone(&shared));
        let reader = spawn(move || {
            let p = rsmr.protect(0, &link) as *const AtomicU64;
            // SAFETY: protected by slot 0; the shadow heap enforces it.
            assert!(p.is_null() || unsafe { &*p }.load(Ordering::SeqCst) == 1);
            rsmr.clear(0);
        });
        let old = shared.swap(0, Ordering::SeqCst);
        // SAFETY: `old` was just unlinked; retired exactly once.
        unsafe { smr.retire(old as *mut AtomicU64) };
        reader.join();
    })
    .unwrap_or_else(|f| panic!("ptp model failed:\n{f}"))
}

/// Raises every mark from outside any model — three live tids, four live
/// OrcGC guards (slot watermark 5), four objects parked on their slots by
/// an unlinker's retire pass (the unreclaimed peak) — and builds OrcGC's
/// domain. Every thread is joined before it returns; this one claims no
/// tid.
fn raise_every_mark() {
    static LINKS: OnceLock<[OrcAtomic<u64>; 4]> = OnceLock::new();
    let phase = Arc::new(Barrier::new(3));
    let threads = [0, 1, 2].map(|role| {
        let phase = Arc::clone(&phase);
        std::thread::spawn(move || {
            registry::tid();
            let links = LINKS.get_or_init(|| [1, 2, 3, 4].map(|v| OrcAtomic::new(&make_orc(v))));
            let guards: Vec<OrcPtr<u64>> = match role {
                0 => links.iter().map(OrcAtomic::load).collect(),
                _ => Vec::new(),
            };
            phase.wait();
            // Read while role 0 still holds the guards they park on.
            let parked = if role == 1 {
                links.iter().for_each(OrcAtomic::store_null);
                orcgc::domain().unreclaimed()
            } else {
                0
            };
            phase.wait();
            drop(guards);
            parked
        })
    });
    let parked: u64 = threads
        .into_iter()
        .map(|t| t.join().expect("mark-raising thread panicked"))
        .sum();
    assert!(parked >= 4, "nothing was parked");
}

#[test]
fn a_model_explores_the_same_schedules_after_every_mark_was_raised() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fresh = (ptp_model().schedules, orcgc_model().schedules);
    raise_every_mark();
    let raised = (ptp_model().schedules, orcgc_model().schedules);
    assert_eq!(
        fresh, raised,
        "(ptp, orcgc) schedules: fresh vs every mark raised"
    );
}

#[test]
fn a_tid_held_outside_the_model_fails_the_exploration() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (claimed_tx, claimed_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        claimed_tx.send(registry::tid()).unwrap();
        done_rx.recv().unwrap();
    });
    let tid = claimed_rx.recv().unwrap();
    let failure = explore(Config::from_env(), || {}).expect_err("a tid is held outside the model");
    let named = failure.message.contains(&format!("registry tid {tid} "));
    assert!(
        named,
        "the failure must name tid {tid}: {}",
        failure.message
    );
    let wm = registry::registered_watermark();
    assert!(
        wm > tid,
        "the failed reset lowered the watermark to {wm}, below tid {tid}"
    );
    done_tx.send(()).unwrap();
    holder.join().unwrap();
}
