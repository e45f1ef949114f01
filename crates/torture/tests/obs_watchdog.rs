//! The orc-obs reclamation watchdog, asserted live: under a progressive
//! stalled-reader scenario the `unreclaimed` gauge rises strictly every
//! sampling pass — for *every* scheme that honours protection, bounded
//! ones included — so after `obs::STALL_K` consecutive rising samples
//! the watchdog must latch an `ObsAlert`. The identical choreography
//! with promptly-releasing readers must stay silent for every scheme
//! that actually reclaims (the leaky baseline *is* a permanent
//! reclamation stall, and the watchdog is right to flag it either way).
//!
//! Determinism: this binary runs in its own process and latches
//! `ORC_OBS_INTERVAL_MS=0` before any orc-obs use, so the only sampling
//! passes are the explicit `sample_now()` calls inside `watchdog_cell` —
//! no background pass can inject an equal-valued sample and reset a
//! rising streak.

use reclaim::SchemeKind;
use std::sync::Once;
use torture::watchdog_cell;

fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // Latched on first use by orc-obs, which happens after this.
        std::env::set_var("ORC_OBS_INTERVAL_MS", "0");
    });
}

/// K + headroom so every arm crosses the alert threshold exactly once.
fn rounds() -> u64 {
    orc_util::obs::STALL_K + 2
}

#[test]
fn watchdog_fires_under_stall_and_only_under_stall() {
    init();
    assert!(orc_util::obs::enabled(), "this battery needs ORC_OBS on");
    for kind in SchemeKind::ALL {
        let r = watchdog_cell(kind, rounds());
        assert!(
            r.stalled_alerts >= 1,
            "{}: no watchdog alert under the progressive stall \
             (final unreclaimed {}, rounds {})",
            r.scheme,
            r.stalled_final_unreclaimed,
            r.rounds
        );
        if kind.reclaims() {
            assert_eq!(
                r.healthy_alerts, 0,
                "{}: watchdog alerted on a healthy run",
                r.scheme
            );
        } else {
            // Leaky: the gauge rises monotonically even without a stall
            // — a permanent reclamation stall, correctly flagged.
            assert!(
                r.stalled_alerts >= 1 && r.healthy_alerts >= 1,
                "{}: the leaky baseline must alert in both arms",
                r.scheme
            );
        }
    }
}

/// The progressive scenario's invariant that makes the watchdog
/// deterministic: one pinned node per parked victim, so the post-flush
/// gauge equals the victim count for every bounded scheme.
#[test]
fn progressive_stall_pins_one_node_per_victim() {
    init();
    for kind in SchemeKind::ALL {
        if !kind.is_bounded() {
            continue;
        }
        let r = watchdog_cell(kind, rounds());
        assert_eq!(
            r.stalled_final_unreclaimed, r.rounds,
            "{}: expected exactly one pinned node per parked victim",
            r.scheme
        );
    }
}
