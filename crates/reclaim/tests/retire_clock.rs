//! One clock read per retire: `mark_retired` stamps the header and
//! records the `Retire` trace event from the same `now_ns()` value.
//!
//! The header stamp is private; it is read back through
//! `record_reclaim_delay`, whose recorded delay is `now − stamp` and
//! whose maximum is exact.

use orc_util::stats::{self, SchemeStats};
use orc_util::trace::{self, EventKind};
use reclaim::header::{
    alloc_tracked, destroy_tracked, mark_retired, record_reclaim_delay, SmrHeader,
};

#[test]
fn retire_event_and_header_stamp_are_the_same_instant() {
    if !(stats::enabled() && trace::enabled()) {
        return; // a kill switch is set: one of the two is never written
    }
    let tid = orc_util::registry::tid();
    let p = alloc_tracked(7u64, 0);
    // SAFETY: `p` came from `alloc_tracked` above and is live, unshared.
    let h = unsafe { SmrHeader::of_value(p) };
    // SAFETY: `h` is live and owned by this thread, whose tid is `tid`.
    unsafe { mark_retired(tid, h) };
    let ev = trace::snapshot()
        .into_iter()
        .rfind(|e| e.tid == tid as u32 && e.kind == EventKind::Retire && e.a == p as u64)
        .expect("mark_retired records a Retire event on the caller's ring");

    const LATER: u64 = 1_000;
    let probe = SchemeStats::new();
    // SAFETY: `h` is still live.
    unsafe { record_reclaim_delay(&probe, tid, h, ev.t_ns + LATER) };
    let snap = probe.snapshot();
    assert_eq!(snap.delays(), 1, "the header was stamped");
    assert_eq!(
        snap.max_delay_ns, LATER,
        "header stamp and event t_ns must come from one clock read"
    );
    // SAFETY: never published; destroyed exactly once.
    unsafe { destroy_tracked(h) };
}
