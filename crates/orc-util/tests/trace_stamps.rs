//! The latched-stamp protocol of the orc-trace rings ("Timestamps" in
//! `orc_util::trace`), from outside: which events read the clock, which
//! carry the ring's latched stamp, and that per-tid stamps never run
//! backwards.
//!
//! Own process (the default 1024-slot rings must hold a whole stream);
//! every test writes through a private tid via `record_at`, so the tests
//! are independent although the rings are shared.

use orc_util::trace::{self, EventKind, TraceEvent, STAMP_STRIDE};

fn tid_events(tid: usize) -> Vec<TraceEvent> {
    let mut evs: Vec<_> = trace::snapshot()
        .into_iter()
        .filter(|e| e.tid as usize == tid)
        .collect();
    evs.sort_by_key(|e| e.seq);
    evs
}

fn distinct_stamps(evs: &[TraceEvent]) -> usize {
    let mut stamps: Vec<u64> = evs.iter().map(|e| e.t_ns).collect();
    stamps.sort_unstable();
    stamps.dedup();
    stamps.len()
}

/// Burns enough wall clock that two reads of it cannot coincide.
fn let_the_clock_move() {
    let t = trace::now_ns();
    while trace::now_ns() == t {
        std::hint::spin_loop();
    }
}

#[test]
fn unstamped_stream_rereads_on_the_stride_only() {
    const TID: usize = 100;
    for i in 0..64 {
        trace::record_at(TID, EventKind::Alloc, i, 0);
        let_the_clock_move();
    }
    let evs = tid_events(TID);
    assert_eq!(evs.len(), 64);
    let distinct = distinct_stamps(&evs);
    assert!(
        (4..=8).contains(&distinct),
        "64 unstamped events, stride {STAMP_STRIDE}: {distinct} distinct stamps"
    );
    // Bounded staleness: a stamp serves at most STAMP_STRIDE events.
    for run in evs.chunk_by(|a, b| a.t_ns == b.t_ns) {
        assert!(run.len() as u64 <= STAMP_STRIDE, "run of {}", run.len());
    }
}

#[test]
fn paid_stamp_is_latched_for_the_events_that_follow() {
    const TID: usize = 101;
    let t = trace::now_ns();
    trace::record_at_ns(TID, EventKind::Retire, 1, 0, t);
    let_the_clock_move();
    trace::record_at(TID, EventKind::ScanBegin, 0, 0);
    trace::record_at(TID, EventKind::ReclaimBatch, 1, 0);
    trace::record_at(TID, EventKind::ScanEnd, 1, 0);
    let evs = tid_events(TID);
    assert_eq!(evs.len(), 4);
    assert!(
        evs.iter().all(|e| e.t_ns == t),
        "the call's events share its one clock read: {evs:?}"
    );
}

#[test]
fn amortised_kinds_keep_their_own_clock_read() {
    const TID: usize = 102;
    let t = trace::now_ns();
    trace::record_at_ns(TID, EventKind::Retire, 1, 0, t);
    for kind in [
        EventKind::EpochAdvance,
        EventKind::ModeSwitch,
        EventKind::PoolRefill,
    ] {
        let_the_clock_move();
        trace::record_at(TID, kind, 0, 0);
    }
    let evs = tid_events(TID);
    assert_eq!(distinct_stamps(&evs), 4, "{evs:?}");
    // … and each one is the latch for what follows it.
    trace::record_at(TID, EventKind::Alloc, 0, 0);
    let evs = tid_events(TID);
    assert_eq!(evs[4].t_ns, evs[3].t_ns);
}

#[test]
fn a_stale_paid_stamp_is_raised_to_the_latch() {
    const TID: usize = 103;
    let early = trace::now_ns();
    let_the_clock_move();
    let late = trace::now_ns();
    trace::record_at_ns(TID, EventKind::Retire, 1, 0, late);
    trace::record_at_ns(TID, EventKind::BRetired, 2, 0, early);
    let evs = tid_events(TID);
    assert_eq!(evs[1].t_ns, late, "per-tid stamps never run backwards");
}

#[test]
fn retire_seq_is_per_tid_and_process_unique() {
    let seq = |tid| trace::sequence_retires(tid, 1);
    let (a0, a1) = (seq(104), seq(104));
    let (b0, b1) = (seq(105), seq(105));
    assert_eq!((a1, b1), (a0 + 1, b0 + 1), "each tid counts on its own");
    let mut all = [a0, a1, b0, b1];
    all.sort_unstable();
    assert!(all.windows(2).all(|w| w[0] != w[1]), "unique: {all:?}");
}
