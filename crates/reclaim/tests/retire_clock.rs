//! One clock read per retire: `mark_retired` stamps the header, records
//! the `Retire` trace event and returns the pass's delay clock, all from
//! the same `now_ns()` value.

use orc_util::stats;
use orc_util::trace::{self, EventKind};
use reclaim::header::{alloc_tracked, mark_retired, SmrHeader};

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
    let returned = unsafe { mark_retired(tid, h) };
    let ev = trace::snapshot()
        .into_iter()
        .rfind(|e| e.tid == tid as u32 && e.kind == EventKind::Retire && e.a == p as u64)
        .expect("mark_retired records a Retire event on the caller's ring");
    // SAFETY: `h` is still live.
    let stamped = unsafe { SmrHeader::retire_stamp(h) };
    assert_ne!(stamped, 0, "the header was stamped");
    assert_eq!(
        (stamped, returned),
        (ev.t_ns, ev.t_ns),
        "header stamp, event t_ns and the returned delay clock must come from one clock read"
    );
    // SAFETY: never published; destroyed exactly once.
    unsafe { SmrHeader::destroy(h) };
}
