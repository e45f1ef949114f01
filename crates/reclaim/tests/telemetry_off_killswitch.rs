//! `ORC_STATS=0` and `ORC_TRACE=0` together (own process: the switches
//! latch on first use). A retire reads the clock zero times: the retire
//! prologue returns the clock value it read — the delay clock of the
//! pass that follows — so "no read" is visible as a 0 stamp, with the
//! header unstamped and the rings never allocated. And no reclamation
//! policy reads telemetry: the Adaptive controller still escalates and
//! relaxes.

use orc_util::sample::{self, Call};
use orc_util::trace;
use reclaim::header::{mark_retired, SmrHeader};
use reclaim::{Adaptive, AdaptiveConfig, AdaptiveMode, PassThePointer, Smr};

/// Every test here calls this before any telemetry is touched.
fn telemetry_off() {
    std::env::set_var("ORC_STATS", "0");
    std::env::set_var("ORC_TRACE", "0");
    assert!(!orc_util::stats::enabled() && !trace::enabled());
}

#[test]
fn all_telemetry_off_reads_no_clock_on_retire() {
    telemetry_off();

    let tid = orc_util::registry::tid();
    let p = SmrHeader::alloc(7u64, 0);
    // SAFETY: `p` came from `SmrHeader::alloc` above and is live, unshared.
    let h = unsafe { SmrHeader::of_value(p) };
    // SAFETY: `h` is live and owned by this thread, whose tid is `tid`.
    assert_eq!(unsafe { mark_retired(tid, h) }, 0, "no clock was read");
    // SAFETY: `h` is still live.
    assert_eq!(unsafe { &(*h).block }.stamp_of(), None);
    // SAFETY: never published; destroyed exactly once.
    unsafe { SmrHeader::destroy(h) };

    let ptp = PassThePointer::new();
    for i in 0..100u64 {
        let p = ptp.alloc(i);
        // SAFETY: never published, so unreachable; retired once.
        unsafe { ptp.retire(p) };
    }
    assert_eq!(ptp.unreclaimed(), 0);
    assert_eq!(ptp.stats().delays(), 0);
    assert!(!trace::is_materialized());
    // Nothing to sample, so no stride is kept: not even a fresh thread's
    // first call of a kind — sampled whenever a layer is on — is drawn.
    std::thread::spawn(|| {
        for call in [Call::Alloc, Call::Retire, Call::Drain] {
            assert_eq!(sample::draw(call), None, "{call:?}");
        }
    })
    .join()
    .unwrap();
}

/// The controller reads the scheme's own unreclaimed gauge, so turning
/// telemetry off changes no mode transition: a backlog past `high`
/// escalates, and calm windows relax.
#[test]
fn adaptive_controller_escalates_and_relaxes_with_telemetry_off() {
    telemetry_off();
    const ERA_TICK: u64 = 64;
    let a = Adaptive::with_threshold_and_config(
        1_000_000, // never auto-scan: let the gauge climb
        AdaptiveConfig {
            high: 100,
            low: 5,
            window: ERA_TICK as usize, // sample at every era tick
        },
    );
    for i in 0..(2 * ERA_TICK + 200) {
        let p = a.alloc(i);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { a.retire(p) };
    }
    assert_eq!(a.mode(), AdaptiveMode::Pointer, "the backlog must escalate");
    a.flush();
    for i in 0..4 * ERA_TICK {
        let p = a.alloc(i);
        // SAFETY: allocated above, unshared, retired once.
        unsafe { a.retire(p) };
        a.flush();
    }
    assert_eq!(a.mode(), AdaptiveMode::Era, "calm windows must relax");
    assert_eq!(a.switch_count(), 2);
    assert_eq!(a.unreclaimed(), 0);
}
