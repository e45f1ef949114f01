//! The trace rings cost resident memory only for the tids that record:
//! all `MAX_THREADS` rings are one zeroed slab nothing writes up front,
//! so filling one tid's ring makes only that ring resident. Alone in its
//! binary, so no other test's events or allocations move the gauge.
//!
//! It relies on glibc's allocator: `calloc` of a block past the mmap
//! threshold (the 5 MiB slab at the default `ORC_TRACE_CAP`) hands out
//! fresh pages without writing them. Other libcs (musl) may clear the
//! block, so the test runs on glibc only.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use orc_util::trace::{self, EventKind};

/// The process's resident set in KB (`VmRSS` of `/proc/self/status`).
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn unused_trace_rings_stay_out_of_the_resident_set() {
    if !trace::enabled() {
        return; // ORC_TRACE=0: no rings at all
    }
    let events = 4 * trace::capacity() as u64;
    let before = vm_rss_kb();
    for i in 0..events {
        trace::record(EventKind::Alloc, i, 0);
    }
    assert_eq!(trace::events_recorded(), events);
    let grown = vm_rss_kb().saturating_sub(before);
    // One ring is 40 KiB at the default capacity; written up front, all
    // 128 would commit 5 MiB.
    assert!(
        grown < 512,
        "{events} events on one tid raised VmRSS by {grown} KB"
    );
}
