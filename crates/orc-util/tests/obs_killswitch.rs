//! The `ORC_OBS=0` structural zero-cost guarantee, in its own process so
//! the kill-switch is latched before any orc-obs touch: nothing
//! registers, nothing samples, nothing allocates — and `time_op` is one
//! latched branch around the closure. Mirrors `trace_killswitch.rs`.

use orc_util::json;
use orc_util::obs::{self, AnnKind, OpKind, SeriesKind};
use orc_util::stats::StatsSnapshot;
use std::sync::Once;

fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("ORC_OBS", "0"));
}

#[test]
fn killswitch_keeps_obs_unmaterialized() {
    init();
    assert!(!obs::enabled());

    // Registration is inert; the guard carries no state.
    let reg = obs::register("dead", StatsSnapshot::default, || 7);
    assert_eq!(reg.label(), "");
    assert!(reg.series(SeriesKind::Unreclaimed).is_empty());
    assert_eq!(reg.alert_count(), 0);
    assert!(reg.report().series.is_empty());

    // Every write-side entry point is a no-op.
    obs::sample_now();
    obs::annotate(AnnKind::ModeSwitch, 1);
    obs::record_op(OpKind::Insert, 10);
    let mut ran = 0;
    let r = obs::time_op(OpKind::Insert, || {
        ran += 1;
        42
    });
    assert_eq!((r, ran), (42, 1), "time_op must still run the closure once");

    assert_eq!(obs::passes(), 0);
    assert_eq!(obs::source_count(), 0);
    assert_eq!(obs::alert_count(), 0);
    assert!(obs::alerts().is_empty());
    assert!(obs::annotations().is_empty());
    assert!(obs::process_series(SeriesKind::LiveSlots).is_empty());
    assert_eq!(obs::op_snapshot()[OpKind::Insert].count(), 0);
    assert!(
        !obs::is_materialized(),
        "ORC_OBS=0 must not allocate any obs state"
    );

    // The empty report still exports cleanly for tooling that scrapes
    // unconditionally.
    let rep = obs::report();
    assert!(rep.sources.is_empty());
    assert!(obs::prom_wellformed(&rep.prometheus()));
    for line in rep.json_lines().lines() {
        assert!(json::parse(line).is_ok(), "bad JSON line: {line}");
    }
    assert!(
        !obs::is_materialized(),
        "reporting must not materialize state either"
    );
}
