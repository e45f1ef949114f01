//! The checker's calibration tests: a hand-rolled hazard-pointer protocol
//! with a switchable bug, on pooled tracked objects.
//!
//! The correct variant publishes the hazard and **re-reads** the shared
//! link before dereferencing (Michael 2004's validation step); the buggy
//! variant skips the re-read. orc-check must pass the former exhaustively
//! and catch the latter with a deterministic, replayable use-after-reclaim
//! trace — if it ever stops doing so, the checker itself has regressed,
//! which is why this lives next to the protocol suite rather than in the
//! checker's unit tests (it exercises the whole stack: facade shims,
//! shadow-heap hooks through `orc_util::tracked`, scheduler, and trace
//! reporting). Each protocol runs on two payloads: an `AtomicU64`, and a
//! cache-line aligned one whose blocks come from a larger size class.
//!
//! The pool recycles slots, which is exactly what a shadow-heap oracle
//! must *not* see during an exploration: a recycled address would turn a
//! real use-after-reclaim into a silent read of unrelated live data. So
//! model runs always quarantine (`ReclaimAction::Quarantine`), the funnel
//! never calls `pool::dealloc` inside an exploration, and no address is
//! reissued within one execution — for a manual scheme's `SmrHeader` and
//! for OrcGC's `OrcHeader` alike, since both free through the one
//! quarantine site in `orc_util::tracked`.

use check::{explore, spawn, Config, Failure, Report};
use orc_util::atomics::{spin_hint, AtomicU64, AtomicUsize, Ordering};
use orc_util::pool;
use orcgc::make_orc;
use reclaim::SmrHeader;
use std::sync::Arc;

/// The aligned payload.
#[repr(align(64))]
struct Slot64(AtomicU64);

/// One reader, one writer, one hazard slot, pooled payloads `T` around
/// the word `word` reads. `validate` selects the correct protocol;
/// `!validate` injects the bug.
fn hp_round<T: Send + 'static>(
    wrap: fn(AtomicU64) -> T,
    word: fn(&T) -> &AtomicU64,
    validate: bool,
) -> Result<Report, Box<Failure>> {
    let node = move |v| SmrHeader::alloc(wrap(AtomicU64::new(v)), 0) as usize;
    explore(Config::from_env(), move || {
        let shared = Arc::new(AtomicUsize::new(node(1)));
        let hazard = Arc::new(AtomicUsize::new(0));

        let writer = {
            let (shared, hazard) = (shared.clone(), hazard.clone());
            spawn(move || {
                let old = shared.swap(node(2), Ordering::SeqCst);
                // Wait out any reader that published protection in time.
                while hazard.load(Ordering::SeqCst) == old {
                    spin_hint();
                }
                // SAFETY: `old` was unlinked by the swap above and the
                // hazard no longer covers it; only this thread frees it.
                // (If a reader still holds it, that is exactly the bug the
                // shadow heap exists to catch.)
                unsafe { SmrHeader::destroy(SmrHeader::of_value(old as *mut T)) };
            })
        };

        // Reader, on the main model thread.
        loop {
            let p = shared.load(Ordering::SeqCst);
            hazard.store(p, Ordering::SeqCst);
            if !validate || shared.load(Ordering::SeqCst) == p {
                // SAFETY: with `validate`, the re-read proved the hazard
                // was published before the writer's swap, so the writer
                // waits for us. Without it this is the injected
                // use-after-reclaim the checker must flag — on a pooled,
                // quarantined (never recycled) slot.
                let v = word(unsafe { &*(p as *const T) }).load(Ordering::SeqCst);
                assert!(v == 1 || v == 2, "unexpected value {v}");
                break;
            }
            // Validation failed: the link moved under us; retry.
        }
        hazard.store(0, Ordering::SeqCst);

        writer.join();
        let last = shared.load(Ordering::SeqCst) as *mut T;
        // SAFETY: the writer joined; `last` is the surviving allocation and
        // nothing references it anymore.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(last)) };
    })
}

/// [`hp_round`] on each payload.
fn hp_rounds(validate: bool) -> [Result<Report, Box<Failure>>; 2] {
    [
        hp_round(|a| a, |a| a, validate),
        hp_round(Slot64, |s| &s.0, validate),
    ]
}

#[test]
fn validated_hazard_protocol_is_clean() {
    for run in hp_rounds(true) {
        let report = run.expect("the validated protocol must pass exhaustively");
        report.assert_exhausted("the validated protocol");
    }
}

#[test]
fn dropping_the_validation_reread_is_caught() {
    for run in hp_rounds(false) {
        let failure = run.expect_err("the injected bug must be found");
        assert!(
            failure.message.contains("use-after-reclaim"),
            "wrong failure kind: {}",
            failure.message
        );
        // The trace must show the fatal read landing inside a tracked
        // object.
        assert!(
            failure.trace.iter().any(|ev| ev.obj.is_some()),
            "trace never resolved an access to a shadow-heap object"
        );
    }
}

#[test]
fn injected_bug_failure_is_deterministic() {
    let [a, b] = [hp_rounds(false), hp_rounds(false)];
    for (a, b) in a.into_iter().zip(b) {
        let (a, b) = (a.expect_err("must fail"), b.expect_err("must fail"));
        assert_eq!(
            (&a.message, &a.schedule, a.step),
            (&b.message, &b.schedule, b.step)
        );
    }
}

/// An OrcGC object that is never linked: dropping its guard frees it
/// (`free_fresh`), inside the exploration.
fn orc_fresh_drop() -> Result<Report, Box<Failure>> {
    explore(Config::from_env(), || {
        drop(make_orc(Slot64(AtomicU64::new(1))))
    })
}

#[test]
fn explorations_quarantine_instead_of_recycling() {
    type Run = fn() -> Result<Report, Box<Failure>>;
    // (header, run, pooled allocations the run makes at least)
    let inputs: [(&str, Run, u64); 2] = [
        ("SmrHeader", || hp_round(Slot64, |s| &s.0, true), 2),
        ("OrcHeader", orc_fresh_drop, 1),
    ];
    let mut recycled = Vec::new();
    for (header, run, allocs) in inputs {
        let before = pool::snapshot();
        run().expect("clean protocol");
        let d = pool::snapshot().since(&before);
        // Allocation flowed through the pool…
        assert!(
            d.slot_allocs >= allocs,
            "{header}: pooled allocation must keep working in-model: {d:?}"
        );
        // …but every in-model reclaim quarantined: nothing returned to
        // the pool, so no address can be reissued within an execution.
        // (Every test in this binary only destroys inside explorations,
        // so the global counter staying flat is parallel-safe.)
        if d.slot_frees != 0 {
            recycled.push(format!("{header}: {d:?}"));
        }
    }
    assert!(
        recycled.is_empty(),
        "a model run returned a slot to the pool: {recycled:#?}"
    );
}
