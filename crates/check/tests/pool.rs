//! orc-check calibration for the pooled allocation path.
//!
//! The pool recycles slots, which is exactly what a shadow-heap oracle
//! must *not* see during an exploration: a recycled address would turn a
//! real use-after-reclaim into a silent read of unrelated live data. The
//! contract is that model runs always quarantine
//! (`ReclaimAction::Quarantine`), so the funnels never call
//! `pool::dealloc` inside an exploration and no address is ever reissued
//! within one execution. These tests prove both directions with slots
//! pool-managed end to end:
//!
//! * the planted use-after-reclaim (the validation re-read dropped from a
//!   hazard protocol) is still caught, deterministically, with a
//!   replayable trace — including for a high-alignment payload whose
//!   slots come from a larger size class;
//! * the pool really is bypassed while exploring: across an entire
//!   exploration no pooled slot is returned (`slot_frees` stays flat),
//!   even though allocation keeps flowing through `pool::alloc` — for a
//!   manual scheme's `SmrHeader` and for OrcGC's `OrcHeader` alike, since
//!   both free through the one quarantine site in `orc_util::tracked`.

use check::{explore, quiet_stats, spawn, Config, Failure, Report};
use orc_util::atomics::{spin_hint, AtomicU64, AtomicUsize, Ordering};
use orc_util::pool;
use orcgc::make_orc;
use reclaim::SmrHeader;
use std::sync::{Arc, Once};

/// The hazard payload: cache-line aligned so its `SmrBox` lands in a
/// bigger size class than the plain-`AtomicU64` calibration test uses.
#[repr(align(64))]
struct Slot64 {
    v: AtomicU64,
}

/// Builds OrcGC's domain and raises its slot watermark once, outside
/// every pool window: from then on every exiting thread runs OrcGC's exit
/// drain over that watermark, so a model's step count must not depend on
/// whether `orc_fresh_drop` already ran. The object is made on a thread
/// of its own, joined, so no test thread keeps a registry tid that model
/// threads would have to claim around.
fn warm_orcgc() {
    static WARM: Once = Once::new();
    WARM.call_once(|| {
        std::thread::spawn(|| drop(make_orc(0u64)))
            .join()
            .expect("warm-up thread panicked");
    });
}

/// One reader, one writer, one hazard slot, pooled aligned nodes.
/// `validate` selects the correct protocol; `!validate` plants the bug.
fn hp_round_pooled(validate: bool) -> Result<Report, Box<Failure>> {
    quiet_stats();
    warm_orcgc();
    explore(Config::from_env(), move || {
        let first = SmrHeader::alloc(
            Slot64 {
                v: AtomicU64::new(1),
            },
            0,
        ) as usize;
        let shared = Arc::new(AtomicUsize::new(first));
        let hazard = Arc::new(AtomicUsize::new(0));

        let writer = {
            let (shared, hazard) = (shared.clone(), hazard.clone());
            spawn(move || {
                let fresh = SmrHeader::alloc(
                    Slot64 {
                        v: AtomicU64::new(2),
                    },
                    0,
                ) as usize;
                let old = shared.swap(fresh, Ordering::SeqCst);
                while hazard.load(Ordering::SeqCst) == old {
                    spin_hint();
                }
                // SAFETY: `old` was unlinked by the swap above and the
                // hazard no longer covers it; only this thread frees it.
                // (A reader still holding it is exactly the bug the
                // shadow heap must catch.)
                unsafe { SmrHeader::destroy(SmrHeader::of_value(old as *mut Slot64)) };
            })
        };

        loop {
            let p = shared.load(Ordering::SeqCst);
            hazard.store(p, Ordering::SeqCst);
            if !validate || shared.load(Ordering::SeqCst) == p {
                // SAFETY: with `validate`, the re-read proved the hazard
                // was published before the writer's swap. Without it this
                // is the planted use-after-reclaim the checker must flag
                // — on a pooled, quarantined (never recycled) slot.
                let v = unsafe { &(*(p as *const Slot64)).v }.load(Ordering::SeqCst);
                assert!(v == 1 || v == 2, "unexpected value {v}");
                break;
            }
        }
        hazard.store(0, Ordering::SeqCst);

        writer.join();
        let last = shared.load(Ordering::SeqCst);
        // SAFETY: the writer joined; `last` is the surviving allocation
        // and nothing references it anymore.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(last as *mut Slot64)) };
    })
}

#[test]
fn validated_protocol_on_pooled_slots_is_clean() {
    let report = hp_round_pooled(true).expect("the validated protocol must pass exhaustively");
    assert!(!report.truncated, "suite config must exhaust this protocol");
    assert!(
        report.schedules > 1,
        "the interesting interleavings were never explored"
    );
}

#[test]
fn planted_uaf_on_pooled_slots_is_still_caught() {
    let failure = *hp_round_pooled(false).expect_err("the planted bug must be found");
    assert!(
        failure.message.contains("use-after-reclaim"),
        "wrong failure kind: {}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "failure must carry a replayable trace"
    );
    assert!(
        failure.trace.iter().any(|ev| ev.obj.is_some()),
        "trace never resolved an access to a shadow-heap object"
    );
}

#[test]
fn planted_uaf_on_pooled_slots_is_deterministic() {
    let a = *hp_round_pooled(false).expect_err("first run must fail");
    let b = *hp_round_pooled(false).expect_err("second run must fail");
    assert_eq!(a.message, b.message);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.step, b.step);
}

/// An OrcGC object that is never linked: dropping its guard frees it
/// (`free_fresh`), inside the exploration.
fn orc_fresh_drop() -> Result<Report, Box<Failure>> {
    quiet_stats();
    explore(Config::from_env(), || {
        drop(make_orc(Slot64 {
            v: AtomicU64::new(1),
        }));
    })
}

#[test]
fn explorations_quarantine_instead_of_recycling() {
    type Run = fn() -> Result<Report, Box<Failure>>;
    // (header, run, pooled allocations the run makes at least)
    let inputs: [(&str, Run, u64); 2] = [
        ("SmrHeader", || hp_round_pooled(true), 2),
        ("OrcHeader", orc_fresh_drop, 1),
    ];
    warm_orcgc();
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
