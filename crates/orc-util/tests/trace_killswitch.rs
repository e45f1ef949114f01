//! The `ORC_TRACE=0` overhead guard (its own process: the switch latches
//! on first use, so it must be set before anything records).
//!
//! The guard is *structural*, not timing-based — this CI box has one
//! core, so microbenchmark assertions would flake. With the switch off,
//! a disabled `trace_event!` must (a) never materialize the ring
//! buffers (no allocation ever happens), (b) never evaluate its
//! argument expressions, and (c) leave every counter at zero. That is
//! exactly the "one latched branch, nothing else" fast path the macro
//! promises on hot paths.

use orc_util::trace::{self, EventKind};
use orc_util::{trace_event, trace_event_at};

#[test]
fn orc_trace_0_short_circuits_structurally() {
    std::env::set_var("ORC_TRACE", "0");
    assert!(!trace::enabled());

    let mut evaluations = 0u64;
    for i in 0..10_000u64 {
        trace_event!(EventKind::Retire, i, {
            evaluations += 1;
            i
        });
        trace_event_at!(3, EventKind::ScanBegin, {
            evaluations += 1;
            i
        });
        trace::record(EventKind::Alloc, i, 0);
        trace::record_at(5, EventKind::ScanEnd, i, 0);
    }

    assert_eq!(
        evaluations, 0,
        "disabled trace_event! must not evaluate its arguments"
    );
    assert!(
        !trace::is_materialized(),
        "disabled tracing must never allocate the rings"
    );
    assert_eq!(trace::events_recorded(), 0);
    assert_eq!(trace::events_dropped(), 0);
    assert!(trace::snapshot().is_empty());
    // The exporter still produces valid (empty) JSON so `ORC_TRACE_OUT`
    // pipelines do not break when tracing is switched off.
    assert!(orc_util::json::parse(&trace::chrome_json()).is_ok());
}
