//! The checker's calibration test: a hand-rolled hazard-pointer protocol
//! with a switchable bug.
//!
//! The correct variant publishes the hazard and **re-reads** the shared
//! link before dereferencing (Michael 2004's validation step); the buggy
//! variant skips the re-read. orc-check must pass the former exhaustively
//! and catch the latter with a replayable use-after-reclaim trace — if it
//! ever stops doing so, the checker itself has regressed, which is why
//! this lives next to the protocol suite rather than in the checker's
//! unit tests (it exercises the whole stack: facade shims, shadow heap
//! hooks through `orc_util::tracked`, scheduler, and trace reporting).

use check::{explore, quiet_stats, spawn, Config, Failure, Report};
use orc_util::atomics::{spin_hint, AtomicU64, AtomicUsize, Ordering};
use reclaim::SmrHeader;
use std::sync::Arc;

/// One reader, one writer, one hazard slot. `validate` selects the
/// correct protocol; `!validate` injects the bug.
fn hp_round(validate: bool) -> Result<Report, Box<Failure>> {
    quiet_stats();
    explore(Config::from_env(), move || {
        let first = SmrHeader::alloc(AtomicU64::new(1), 0) as usize;
        let shared = Arc::new(AtomicUsize::new(first));
        let hazard = Arc::new(AtomicUsize::new(0));

        let writer = {
            let (shared, hazard) = (shared.clone(), hazard.clone());
            spawn(move || {
                let fresh = SmrHeader::alloc(AtomicU64::new(2), 0) as usize;
                let old = shared.swap(fresh, Ordering::SeqCst);
                // Wait out any reader that published protection in time.
                while hazard.load(Ordering::SeqCst) == old {
                    spin_hint();
                }
                // SAFETY: `old` was unlinked by the swap above and the
                // hazard no longer covers it; only this thread frees it.
                // (If a reader still holds it, that is exactly the bug the
                // shadow heap exists to catch.)
                unsafe { SmrHeader::destroy(SmrHeader::of_value(old as *mut AtomicU64)) };
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
                // use-after-reclaim the checker must flag.
                let v = unsafe { &*(p as *const AtomicU64) }.load(Ordering::SeqCst);
                assert!(v == 1 || v == 2, "unexpected value {v}");
                break;
            }
            // Validation failed: the link moved under us; retry.
        }
        hazard.store(0, Ordering::SeqCst);

        writer.join();
        let last = shared.load(Ordering::SeqCst);
        // SAFETY: the writer joined; `last` is the surviving allocation and
        // nothing references it anymore.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(last as *mut AtomicU64)) };
    })
}

#[test]
fn validated_hazard_protocol_is_clean() {
    let report = hp_round(true).expect("the validated protocol must pass exhaustively");
    assert!(!report.truncated, "suite config must exhaust this protocol");
    assert!(
        report.schedules > 1,
        "the interesting interleavings were never explored"
    );
}

#[test]
fn dropping_the_validation_reread_is_caught() {
    let failure = *hp_round(false).expect_err("the injected bug must be found");
    assert!(
        failure.message.contains("use-after-reclaim"),
        "wrong failure kind: {}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "failure must carry a replayable trace"
    );
    // The trace must show the fatal read landing inside a tracked object.
    assert!(
        failure.trace.iter().any(|ev| ev.obj.is_some()),
        "trace never resolved an access to a shadow-heap object"
    );
}

#[test]
fn injected_bug_failure_is_deterministic() {
    let a = *hp_round(false).expect_err("first run must fail");
    let b = *hp_round(false).expect_err("second run must fail");
    assert_eq!(a.message, b.message);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.step, b.step);
}
