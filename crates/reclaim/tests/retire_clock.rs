//! One clock read per *sampled* retire: `mark_retired` draws on the
//! thread's retire stride; a sampled call stamps the header, records the
//! `Retire` trace event and returns the pass's clock, all from the same
//! `now_ns()` value, while an unsampled call returns 0 and leaves no
//! trace — no stamp, no event.

use orc_util::sample::SAMPLE_EVERY;
use orc_util::stats;
use orc_util::trace::{self, EventKind, TraceEvent};
use reclaim::header::{mark_retired, SmrBox, SmrHeader};

/// The `Retire` events on `tid`'s ring, in recording order.
fn retires_of(tid: usize) -> Vec<TraceEvent> {
    let mut evs: Vec<_> = trace::snapshot()
        .into_iter()
        .filter(|e| e.tid == tid as u32 && e.kind == EventKind::Retire)
        .collect();
    evs.sort_by_key(|e| e.seq);
    evs
}

#[test]
fn retire_event_and_header_stamp_are_the_same_instant() {
    if !(stats::enabled() && trace::enabled()) {
        return; // a kill switch is set: one of the two is never written
    }
    let tid = orc_util::registry::tid();
    // This test's thread retires nothing else: calls 0, 64 and 128 are
    // the sampled ones.
    for call in 0..=2 * SAMPLE_EVERY {
        let p = SmrBox::alloc((), call);
        // SAFETY: `p` came from `SmrBox::alloc` above and is live, unshared.
        let h = unsafe { SmrBox::<(), _>::header_of(p) };
        let before = retires_of(tid).len();
        // SAFETY: `h` is live and owned by this thread, whose tid is `tid`.
        let returned = unsafe { mark_retired(tid, h) };
        let after = retires_of(tid);
        // SAFETY: `h` is still live.
        let stamped = unsafe { &(*h).block }.stamp_of().unwrap_or(0);
        if call % SAMPLE_EVERY == 0 {
            assert_eq!(after.len(), before + 1, "call {call}: one Retire event");
            let ev = after.last().expect("just recorded");
            assert_eq!(ev.a, p as u64);
            assert_ne!(stamped, 0, "the header was stamped");
            assert_eq!(
                (stamped, returned),
                (ev.t_ns, ev.t_ns),
                "header stamp, event t_ns and the returned clock must come from one clock read"
            );
        } else {
            assert_eq!((stamped, returned), (0, 0), "call {call}: unsampled");
            assert_eq!(after.len(), before, "call {call}: no Retire event");
        }
        // SAFETY: never published; destroyed exactly once.
        unsafe { SmrHeader::destroy(h) };
    }
}
