//! `flushes` in `domain_stats()` counts `flush_thread()` calls only, as
//! the manual schemes count `Smr::flush` and not a thread's exit. The
//! domain's exit drain clears every exiting thread's hazard row once the
//! domain is built, so without this a thread that never touched OrcGC
//! would move the domain's telemetry on its way out.
//!
//! Own process: the checks read deltas of the global `domain_stats()`, so
//! the tests serialize on one lock and nothing else in this binary
//! touches the domain.

use orcgc::{domain_stats, flush_thread, make_orc, OrcAtomic};
use std::sync::{Mutex, MutexGuard};
use std::thread;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn a_thread_that_never_touched_orcgc_exits_without_a_trace() {
    let _g = serial();
    orcgc::domain(); // built, so its exit drain runs at every thread exit
    let before = domain_stats();
    thread::spawn(orc_util::registry::tid).join().unwrap();
    assert_eq!(domain_stats(), before);
}

#[test]
fn flush_thread_counts_one_flush_and_the_exit_none() {
    let _g = serial();
    if !orc_util::stats::enabled() {
        return; // ORC_STATS=0: nothing is counted
    }
    let before = domain_stats();
    thread::spawn(|| {
        let link = OrcAtomic::new(&make_orc(1u64));
        let _guard = link.load();
        flush_thread();
    })
    .join()
    .unwrap();
    assert_eq!(domain_stats().since(&before).flushes, 1);
}
