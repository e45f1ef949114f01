//! One funnel, one `Alloc` payload: the first allocation of a fresh thread
//! is sampled, and for either header kind — a manual scheme's `SmrHeader`
//! or OrcGC's `OrcHeader` — it records the block address and the bytes the
//! pool accounts for the object.

use orc_util::trace::{self, EventKind};
use orc_util::{pool, registry};
use reclaim::header::SmrBox;
use reclaim::SmrHeader;
use std::alloc::Layout;

/// The `(a, b)` payloads of the `Alloc` events on `tid`'s ring.
fn allocs_of(tid: u32) -> Vec<(u64, u64)> {
    trace::snapshot()
        .into_iter()
        .filter(|e| e.tid == tid && e.kind == EventKind::Alloc)
        .map(|e| (e.a, e.b))
        .collect()
}

/// Runs `alloc` as the first allocation of a fresh thread; returns the
/// block address it reports and the `Alloc` payloads it recorded (a
/// reused tid's ring may still hold an earlier thread's).
fn first_alloc(alloc: fn() -> usize) -> (usize, Vec<(u64, u64)>) {
    std::thread::spawn(move || {
        let tid = registry::tid() as u32;
        let before = allocs_of(tid).len();
        let block = alloc();
        (block, allocs_of(tid).split_off(before))
    })
    .join()
    .expect("allocating thread panicked")
}

/// What `pool::slot_bytes` charges for `layout` when a fresh thread
/// allocates it: its class's slot under the pool, its size otherwise.
fn charged(layout: Layout) -> u64 {
    let class = pool::class_of(layout).filter(|_| pool::enabled());
    class.map_or(layout.size(), pool::class_slot_size) as u64
}

#[test]
fn a_first_alloc_of_each_header_kind_records_its_block_and_slot_bytes() {
    if !trace::enabled() {
        return; // allocs are only drawn for the trace
    }
    let (block, allocs) = first_alloc(|| {
        let p = SmrHeader::alloc(7u64, 0);
        // SAFETY: `p` came from `alloc` above, unshared; destroyed once.
        unsafe {
            let h = SmrHeader::of_value(p);
            SmrHeader::destroy(h);
            h as usize
        }
    });
    let manual = charged(Layout::new::<SmrBox<u64>>());
    assert_eq!(allocs, [(block as u64, manual)], "SmrHeader");

    // An OrcGC link word is the header address, which is the block's.
    let (block, allocs) = first_alloc(|| orcgc::make_orc(7u64).raw());
    // `Linked<u64>`: the 32 B `OrcHeader` (pinned by its own size test),
    // then the value.
    let orc = charged(Layout::from_size_align(32 + 8, 8).unwrap());
    assert_eq!(allocs, [(block as u64, orc)], "OrcHeader");
}
