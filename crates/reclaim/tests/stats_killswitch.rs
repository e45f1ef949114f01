//! `ORC_STATS=0` with orc-trace on (own process: the switches latch on
//! first use). The retire stride still runs for the trace — a sampled
//! retire reads the clock once, for the `Retire` event — but no retire,
//! sampled or not, stamps its header, and nothing reaches the scheme's
//! counters or its delay histogram.

use orc_util::sample::SAMPLE_EVERY;
use orc_util::trace::{self, EventKind};
use reclaim::header::{mark_retired, SmrHeader};
use reclaim::{PassThePointer, Smr};

#[test]
fn orc_stats_0_never_stamps_a_header() {
    std::env::set_var("ORC_STATS", "0");
    std::env::remove_var("ORC_TRACE");
    assert!(!orc_util::stats::enabled() && trace::enabled());

    let tid = orc_util::registry::tid();
    // This test's thread retires nothing else: calls 0, 64 and 128 are
    // the sampled ones.
    for call in 0..=2 * SAMPLE_EVERY {
        let p = SmrHeader::alloc(call, 0);
        // SAFETY: `p` came from `SmrHeader::alloc` above and is live, unshared.
        let h = unsafe { SmrHeader::of_value(p) };
        // SAFETY: `h` is live and owned by this thread, whose tid is `tid`.
        let stamp = unsafe { mark_retired(tid, h) };
        // SAFETY: `h` is still live.
        let stamped = unsafe { &(*h).block }.stamp_of();
        assert_eq!(stamped, None, "call {call}: retire stamp");
        if call % SAMPLE_EVERY == 0 {
            assert_ne!(
                stamp, 0,
                "the trace still wants the sampled retire's instant"
            );
            let ev = trace::snapshot()
                .into_iter()
                .rfind(|e| e.tid == tid as u32 && e.kind == EventKind::Retire && e.a == p as u64)
                .expect("a sampled mark_retired records a Retire event on the caller's ring");
            assert_eq!(ev.t_ns, stamp);
        } else {
            assert_eq!(stamp, 0, "call {call}: unsampled, no clock read");
        }
        // SAFETY: never published; destroyed exactly once.
        unsafe { SmrHeader::destroy(h) };
    }

    let ptp = PassThePointer::new();
    for i in 0..100u64 {
        let p = ptp.alloc(i);
        // SAFETY: never published, so unreachable; retired once.
        unsafe { ptp.retire(p) };
    }
    assert_eq!(ptp.unreclaimed(), 0);
    let s = ptp.stats();
    assert_eq!((s.retires, s.reclaims, s.delays()), (0, 0, 0));
    assert_eq!(s.delay.max, 0);
}
