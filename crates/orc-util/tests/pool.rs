//! Integration tests for `orc_util::pool`: slot recycling, thread-exit
//! caches parked on the spillway and adopted by other threads, alignment
//! and the global-allocator fallback.
//!
//! The pool's counters are process-global and these tests run in
//! parallel threads of one binary, so every assertion is written against
//! *deltas of monotone counters* (`>=` on what this test alone must have
//! contributed) or against strictly thread-local state (each `#[test]`
//! runs on its own thread, and local free lists are per-thread).
//!
//! Slot recycling only exists with the pool on: under `ORC_POOL=0` (the
//! kill-switch leg) the tests of it assert the off-arm fact instead — no
//! slot is ever handed out — and return.

use orc_util::pool;
use std::alloc::Layout;

#[test]
fn same_thread_free_then_alloc_reuses_the_slot() {
    if !pool::enabled() {
        assert_eq!(pool::snapshot().slot_allocs, 0);
        return;
    }
    let layout = Layout::from_size_align(48, 8).unwrap();
    let (p1, t1) = pool::alloc(layout);
    assert!(pool::is_pooled(t1), "small layout must be pooled");
    // SAFETY: just allocated with this layout; freed exactly once.
    unsafe { pool::dealloc(p1, layout, t1) };
    // Local lists are LIFO and private to this thread: the very next
    // same-class alloc must hand the same slot back.
    let (p2, t2) = pool::alloc(layout);
    assert_eq!(p1, p2, "LIFO local free list must recycle the slot");
    assert_eq!(t1, t2);
    // SAFETY: as above.
    unsafe { pool::dealloc(p2, layout, t2) };
}

#[test]
fn an_exited_threads_cache_is_adopted_by_a_thread_with_another_tid() {
    if !pool::enabled() {
        assert_eq!(pool::snapshot().slot_allocs, 0);
        return;
    }
    // The 1536-byte class, which no other test in this binary touches.
    const SLOT: usize = 1536;
    let layout = Layout::from_size_align(SLOT, 8).unwrap();
    // Hold a tid first, so the exiting thread below cannot hand its tid
    // (and whatever is parked under it) to this one.
    let own_tid = orc_util::registry::tid();
    let (addrs, exited_tid) = std::thread::spawn(move || {
        let held: Vec<_> = (0..4).map(|_| pool::alloc(layout)).collect();
        let addrs: Vec<usize> = held.iter().map(|&(p, _)| p as usize).collect();
        for (p, tag) in held {
            // SAFETY: allocated just above with `layout`; freed once.
            unsafe { pool::dealloc(p, layout, tag) };
        }
        // Exit with those slots still cached on this thread.
        (addrs, orc_util::registry::tid())
    })
    .join()
    .unwrap();
    assert_ne!(own_tid, exited_tid);
    // Refill must hand this thread the exited cache before it carves a
    // fresh page: two pages' worth of allocations is enough to drain
    // whatever this thread's own list and bump cursor already held.
    let mut held = Vec::new();
    let mut adopted = false;
    for _ in 0..2 * (pool::PAGE_TARGET / SLOT).max(8) {
        let (q, qt) = pool::alloc(layout);
        held.push((q, qt));
        if addrs.contains(&(q as usize)) {
            adopted = true;
            break;
        }
    }
    assert!(adopted, "an exited thread's cached slots never came back");
    for (q, qt) in held {
        // SAFETY: each pointer was allocated above with `layout`; freed
        // exactly once.
        unsafe { pool::dealloc(q, layout, qt) };
    }
}

#[test]
fn oversize_layouts_fall_through_to_the_global_allocator() {
    let layout = Layout::from_size_align(pool::MAX_SLOT + 1, 8).unwrap();
    let before = pool::snapshot();
    let (p, tag) = pool::alloc(layout);
    assert_eq!(tag, pool::TAG_GLOBAL);
    assert_eq!(pool::slot_bytes(layout, tag), layout.size());
    // SAFETY: just allocated with this layout; freed exactly once.
    unsafe { pool::dealloc(p, layout, tag) };
    let after = pool::snapshot().since(&before);
    assert!(after.oversize_allocs >= 1);
}

#[test]
fn pooled_slots_honor_high_alignment() {
    if !pool::enabled() {
        assert_eq!(pool::snapshot().slot_allocs, 0);
        return;
    }
    // Alignment above the size: the class is chosen by max(size, align),
    // so a 128-byte-aligned 8-byte payload lands in the 128-byte class.
    for &(size, align) in &[(8usize, 64usize), (8, 128), (100, 128), (64, 64)] {
        let layout = Layout::from_size_align(size, align).unwrap();
        let mut batch = Vec::new();
        for _ in 0..16 {
            let (p, tag) = pool::alloc(layout);
            assert!(pool::is_pooled(tag), "{size}/{align} must be pooled");
            assert_eq!(
                p as usize % align,
                0,
                "slot {p:p} violates align {align} (size {size})"
            );
            assert!(pool::slot_bytes(layout, tag) >= size.max(align));
            batch.push((p, tag));
        }
        for (p, tag) in batch {
            // SAFETY: allocated above with `layout`; freed exactly once.
            unsafe { pool::dealloc(p, layout, tag) };
        }
    }
}

#[test]
fn slot_accounting_balances_over_a_churn() {
    if !pool::enabled() {
        assert_eq!(pool::snapshot().slot_allocs, 0);
        return;
    }
    let layout = Layout::from_size_align(200, 8).unwrap();
    let before = pool::snapshot();
    for _ in 0..1000 {
        let (p, tag) = pool::alloc(layout);
        // SAFETY: just allocated with this layout; freed exactly once.
        unsafe { pool::dealloc(p, layout, tag) };
    }
    let d = pool::snapshot().since(&before);
    assert!(d.slot_allocs >= 1000);
    // Our own contribution is balanced; concurrent tests only ever add
    // balanced pairs or leave live slots briefly, so allocs can exceed
    // frees globally but our delta must not show frees falling behind by
    // more than the other tests' transient live slots. The tight,
    // parallel-safe property: this thread freed everything it allocated.
    assert!(d.slot_frees >= 1000, "churn frees must be counted: {d:?}");
}

#[test]
fn thread_exit_parks_local_lists_on_the_spillway() {
    if !pool::enabled() {
        assert_eq!(pool::snapshot().slot_allocs, 0);
        return;
    }
    let before = pool::snapshot();
    std::thread::spawn(|| {
        let layout = Layout::from_size_align(64, 8).unwrap();
        let (p, tag) = pool::alloc(layout);
        // SAFETY: just allocated with this layout; freed exactly once.
        unsafe { pool::dealloc(p, layout, tag) };
        // Exiting with a non-empty local free list: Drop must park the
        // slot on the spillway, not strand it.
    })
    .join()
    .unwrap();
    let d = pool::snapshot().since(&before);
    assert!(
        d.orphaned_slots >= 1,
        "thread exit must flush its free lists: {d:?}"
    );
}

#[test]
fn class_stride_never_shrinks_reported_bytes() {
    // slot_bytes is what the ledger adds on alloc AND subtracts on free;
    // it must be stable for a (layout, tag) pair and never below the
    // layout's own size.
    for size in [1usize, 63, 64, 65, 512, 4096, pool::MAX_SLOT] {
        let layout = Layout::from_size_align(size, 8).unwrap();
        let (p, tag) = pool::alloc(layout);
        let b = pool::slot_bytes(layout, tag);
        assert!(b >= size);
        assert_eq!(b, pool::slot_bytes(layout, tag), "stable for same pair");
        // SAFETY: allocated above with `layout`; freed exactly once.
        unsafe { pool::dealloc(p, layout, tag) };
    }
}
