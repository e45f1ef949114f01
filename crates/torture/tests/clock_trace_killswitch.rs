//! `ORC_TRACE=0` with orc-stats on (own process: the switches latch on
//! first use). A sampled retire's one clock read serves two layers — the
//! header stamp behind the delay histogram and the `Retire` / `BRetired`
//! trace event — so switching the trace off must leave the first intact:
//! the retire stride still runs, the delay histograms still fill, one
//! sample per sampled free, while the rings are never allocated.

use orc_util::sample::SAMPLE_EVERY;
use orc_util::trace;
use orcgc::{make_orc, OrcAtomic};
use reclaim::{PassThePointer, Smr};

/// Runs `body` on a fresh thread, whose retire stride starts at 0.
fn on_fresh_thread<R: Send>(body: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(body).join().expect("probe panicked"))
}

#[test]
fn orc_trace_0_still_fills_the_delay_histograms() {
    std::env::set_var("ORC_TRACE", "0");
    std::env::remove_var("ORC_STATS");
    assert!(!trace::enabled() && orc_util::stats::enabled());
    let sampled = 100u64.div_ceil(SAMPLE_EVERY);

    let s = on_fresh_thread(|| {
        let ptp = PassThePointer::new();
        for i in 0..100u64 {
            let p = ptp.alloc(i);
            // SAFETY: never published, so unreachable; retired once.
            unsafe { ptp.retire(p) };
        }
        ptp.stats()
    });
    assert_eq!((s.reclaims, s.delays()), (100, sampled), "ptp");
    assert!(s.delay.max > 0);

    let before = orcgc::domain_stats();
    let s = on_fresh_thread(|| {
        let link = OrcAtomic::new(&make_orc(0u64));
        for i in 1..=100u64 {
            link.store(&make_orc(i));
        }
        orcgc::domain_stats().since(&before)
    });
    assert_eq!((s.reclaims, s.delays()), (100, sampled), "orcgc");

    assert!(
        !trace::is_materialized(),
        "disabled tracing must never allocate the rings"
    );
    assert_eq!(trace::events_recorded(), 0);
}
