//! `memprobe::snapshot` reads the process-wide allocation ledger, so a
//! delta of it is attributable only while nothing else in the process
//! allocates or frees. One test, own binary: no sibling test can land a
//! free between the two snapshots.

use workloads::memprobe::snapshot;

#[test]
fn snapshot_deltas_track_allocations() {
    // ≤ MAX_HPS guards may be live per thread; stay well below.
    let base = snapshot();
    let guards: Vec<_> = (0..50).map(|i| orcgc::make_orc([i as u8; 64])).collect();
    let grown = snapshot();
    assert!(grown.objects_since(&base) >= 50);
    assert!(grown.bytes_since(&base) >= 50 * 64);
    drop(guards);
    orcgc::flush_thread();
}
