//! Integration tests for the orc-trace ring buffers.
//!
//! The rings are process-global and their capacity latches on first use,
//! so every test goes through [`setup`]: it pins `ORC_TRACE_CAP` before
//! the rings materialize and serializes the tests (the harness runs them
//! on concurrent threads, and several assert on the merged snapshot).
//! Each test writes through its own private tid (via `record_at`) and
//! filters the snapshot down to those tids, so the assertions stay
//! independent even though the rings are shared.

use orc_util::trace::{self, EventKind};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Ring capacity for this whole test process (must be a power of two).
const CAP: u64 = 32;

fn setup() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    // Latched on first record; a no-op afterwards. Setting it every time
    // keeps each test order-independent.
    std::env::set_var("ORC_TRACE_CAP", CAP.to_string());
    std::env::remove_var("ORC_TRACE");
    guard
}

fn tid_events(tid: u32) -> Vec<trace::TraceEvent> {
    trace::snapshot()
        .into_iter()
        .filter(|e| e.tid == tid)
        .collect()
}

#[test]
fn wraparound_keeps_the_newest_cap_events() {
    let _g = setup();
    const TID: usize = 100;
    let total = CAP + 10;
    let dropped_before = trace::events_dropped();
    for i in 0..total {
        trace::record_at(TID, EventKind::Alloc, i, 0);
    }
    let evs = tid_events(TID as u32);
    assert_eq!(
        evs.len() as u64,
        CAP,
        "a full ring yields exactly CAP events"
    );
    let mut payloads: Vec<u64> = evs.iter().map(|e| e.a).collect();
    payloads.sort_unstable();
    let expect: Vec<u64> = (total - CAP..total).collect();
    assert_eq!(
        payloads, expect,
        "overwrite discards the oldest, keeps newest"
    );
    assert_eq!(
        trace::events_dropped() - dropped_before,
        total - CAP,
        "every overwritten slot is counted as dropped"
    );
}

#[test]
fn concurrent_writers_never_tear_a_slot() {
    let _g = setup();
    // Four writer threads, each with a private ring; payloads carry the
    // invariant b == !a, which a torn read (a from one event, b from
    // another) would break. Snapshots run concurrently with the writers.
    const TIDS: [usize; 4] = [101, 102, 103, 104];
    const PER: u64 = 2_000;
    let writers: Vec<_> = TIDS
        .iter()
        .map(|&tid| {
            std::thread::spawn(move || {
                for i in 0..PER {
                    let a = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tid as u64;
                    trace::record_at(tid, EventKind::Retire, a, !a);
                }
            })
        })
        .collect();
    // Reader races the writers (bounded, not a spin loop — this box has
    // one core, so each snapshot mostly interleaves between quanta).
    for _ in 0..16 {
        for e in trace::snapshot() {
            if TIDS.contains(&(e.tid as usize)) {
                assert_eq!(e.b, !e.a, "torn slot: a={:#x} b={:#x}", e.a, e.b);
            }
        }
        std::thread::yield_now();
    }
    for w in writers {
        w.join().unwrap();
    }
    let mut seen = 0;
    for e in trace::snapshot() {
        if TIDS.contains(&(e.tid as usize)) {
            assert_eq!(e.b, !e.a, "torn slot after quiescence");
            seen += 1;
        }
    }
    assert_eq!(seen as u64, CAP * TIDS.len() as u64, "all rings full");
}

#[test]
fn merged_snapshot_is_timestamp_ordered() {
    let _g = setup();
    for i in 0..CAP {
        // Interleave two rings so the merge actually has to reorder.
        trace::record_at(110, EventKind::ScanBegin, i, 0);
        trace::record_at(111, EventKind::ScanEnd, i, 0);
    }
    let evs = trace::snapshot();
    assert!(!evs.is_empty());
    assert!(
        evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
        "snapshot must be sorted by timestamp"
    );
}

#[test]
fn chrome_export_is_wellformed_json() {
    let _g = setup();
    trace::record_at(120, EventKind::ScanBegin, 0, 0);
    trace::record_at(120, EventKind::ReclaimBatch, 3, 0);
    trace::record_at(120, EventKind::ScanEnd, 3, 0);
    trace::record_at(120, EventKind::Handover, 0xdead_beef, 0);
    let doc = trace::chrome_json();
    assert!(orc_util::json::parse(&doc).is_ok(), "bad export: {doc}");
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"scan\""), "ScanBegin/End become B/E pairs");
}

#[test]
fn format_tail_mentions_loss_and_events() {
    let _g = setup();
    trace::record_at(121, EventKind::EpochAdvance, 7, 0);
    let tail = trace::format_tail(8);
    assert!(tail.contains("orc-trace flight recorder"), "{tail}");
    assert!(tail.contains("epoch_advance"), "{tail}");
}
