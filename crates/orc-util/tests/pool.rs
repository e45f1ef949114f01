//! Integration tests for `orc_util::pool`: slot recycling, the lock-free
//! remote-free path, thread-exit orphan flushing, alignment and the
//! global-allocator fallback.
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
fn remote_free_is_adopted_by_the_owner() {
    if !pool::enabled() {
        assert_eq!(pool::snapshot().slot_allocs, 0);
        return;
    }
    let layout = Layout::from_size_align(64, 64).unwrap();
    let before = pool::snapshot();
    let (p, tag) = pool::alloc(layout);
    assert!(pool::is_pooled(tag));
    let addr = p as usize;
    // Free from a different thread: must take the remote path (a Treiber
    // push onto this thread's stack), not touch the freeing thread's pool.
    std::thread::spawn(move || {
        // SAFETY: the owning thread handed over the slot and no longer
        // touches it; freed exactly once, with the allocation's layout.
        unsafe { pool::dealloc(addr as *mut u8, layout, tag) };
    })
    .join()
    .unwrap();
    let after = pool::snapshot().since(&before);
    assert!(
        after.remote_frees >= 1,
        "cross-thread dealloc must count as a remote free: {after:?}"
    );
    // The slot is parked on THIS thread's remote stack. Allocating until
    // the local list drains forces a refill that adopts the stack, so the
    // address must come back to us. Bound: one page of this class plus
    // whatever the local list held, with slack.
    let mut held = Vec::new();
    let mut recycled = false;
    for _ in 0..(2 * pool::PAGE_TARGET / 64 + 64) {
        let (q, qt) = pool::alloc(layout);
        if q as usize == addr {
            recycled = true;
            held.push((q, qt));
            break;
        }
        held.push((q, qt));
    }
    assert!(recycled, "remotely freed slot never came back to its owner");
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
fn thread_exit_flushes_local_lists_to_the_remote_stack() {
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
        // slot on this tid's remote stack, not strand it.
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
