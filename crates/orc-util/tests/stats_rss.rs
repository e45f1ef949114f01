//! A fresh `SchemeStats` instance costs resident memory only for the
//! shards that record: its per-tid shards start in zero pages nothing
//! touches. Alone in its binary, so no other test's allocations move the
//! gauge.
//!
//! It relies on glibc's allocator: `calloc` of a block past the mmap
//! threshold hands out fresh pages without writing them, and a `calloc`
//! that reuses freed heap memory clears it, making every row resident.
//! The warm-up's free raises glibc's dynamic mmap threshold, so the
//! measured instances come from the top of the heap, fresh pages again,
//! not from the freed block. Other libcs (musl) may clear either way, so
//! the test runs on glibc only.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use orc_util::stats::SchemeStats;

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
fn unused_stats_shards_stay_out_of_the_resident_set() {
    // Warm the allocator and the test harness first.
    drop(SchemeStats::new());
    let before = vm_rss_kb();
    let all: Vec<SchemeStats> = (0..8).map(|_| SchemeStats::new()).collect();
    let grown = vm_rss_kb().saturating_sub(before);
    // Each instance spans ~360 KB of shards; written, eight would commit
    // ~2.9 MB.
    assert!(grown < 512, "8 instances raised VmRSS by {grown} KB");
    drop(all);
}
