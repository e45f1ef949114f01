//! Alignment regression tests for the pooled allocation path.
//!
//! A recycled slot handed to a more-aligned type is a silent-UB bug the
//! old Box-per-node path could never exhibit — `Box` re-asks the global
//! allocator with the new type's layout every time, while the pool hands
//! back previously used slots. These tests push `#[repr(align(64))]` and
//! `#[repr(align(128))]` payloads through the full retire → reclaim →
//! re-alloc cycle of a real scheme, and through cross-type recycling
//! within one size class, asserting alignment on every pointer observed.

use orc_util::atomics::{AtomicPtr, Ordering};
use reclaim::{HazardPointers, Smr, SmrHeader};

#[repr(align(64))]
struct Cache64 {
    v: u64,
}

#[repr(align(128))]
struct Cache128 {
    v: u64,
}

/// Swap-and-retire churn of `rounds` nodes through one shared location,
/// checking payload alignment on every node the structure ever sees.
fn churn_aligned<T: Send + Sync + 'static>(make: impl Fn(u64) -> T, align: usize, rounds: u64) {
    let s = HazardPointers::with_threshold(4);
    let addr = AtomicPtr::new(s.alloc(make(0)));
    for i in 0..rounds {
        s.begin_op();
        let p = s.protect_ptr(0, &addr);
        assert_eq!(p as usize % align, 0, "protected pointer misaligned");
        s.end_op();
        let n = s.alloc(make(i + 1));
        assert_eq!(n as usize % align, 0, "fresh node misaligned (round {i})");
        let old = addr.swap(n, Ordering::SeqCst);
        // SAFETY: the swap unlinked `old`; retired exactly once.
        unsafe { s.retire(old) };
    }
    let last = addr.swap(std::ptr::null_mut(), Ordering::SeqCst);
    // SAFETY: the final occupant, unlinked by the swap; retired once.
    unsafe { s.retire(last) };
    s.flush();
}

#[test]
fn align64_payload_survives_retire_reclaim_realloc() {
    // Threshold 4 with many rounds guarantees reclaimed slots get
    // recycled into later allocs on the pooled path.
    churn_aligned(|v| Cache64 { v }, 64, 256);
}

#[test]
fn align128_payload_survives_retire_reclaim_realloc() {
    churn_aligned(|v| Cache128 { v }, 128, 256);
}

#[test]
fn cross_type_recycling_in_one_class_keeps_alignment() {
    // A Cache64 box and a Cache128 box can land in the same (or adjacent)
    // size classes. Alternate the types through alloc/destroy cycles so
    // slots freed under one type are re-offered to the other; the class
    // invariant (slots aligned to the slot size ≥ any requestable align)
    // must hold for both directions.
    for round in 0..128u64 {
        let p64 = SmrHeader::alloc(Cache64 { v: round }, 0);
        assert_eq!(p64 as usize % 64, 0, "Cache64 misaligned");
        // SAFETY: `p64` is live; reading our own fresh value.
        assert_eq!(unsafe { (*p64).v }, round);
        // SAFETY: unshared; destroyed exactly once.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(p64)) };

        let p128 = SmrHeader::alloc(Cache128 { v: round }, 0);
        assert_eq!(p128 as usize % 128, 0, "Cache128 misaligned");
        // SAFETY: `p128` is live; reading our own fresh value.
        assert_eq!(unsafe { (*p128).v }, round);
        // SAFETY: unshared; destroyed exactly once.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(p128)) };
    }
}

#[test]
fn mixed_alignment_batches_recycle_cleanly() {
    // Hold a whole batch live (forcing page carves), free it all, then
    // re-allocate the other alignment over the recycled slots.
    let mut batch64 = Vec::new();
    for i in 0..64u64 {
        batch64.push(SmrHeader::alloc(Cache64 { v: i }, 0));
    }
    for p in &batch64 {
        assert_eq!(*p as usize % 64, 0);
    }
    for p in batch64 {
        // SAFETY: allocated above, unshared; destroyed exactly once.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(p)) };
    }
    let mut batch128 = Vec::new();
    for i in 0..64u64 {
        let p = SmrHeader::alloc(Cache128 { v: i }, 0);
        assert_eq!(p as usize % 128, 0, "recycled slot misaligned for 128");
        batch128.push(p);
    }
    for p in batch128 {
        // SAFETY: allocated above, unshared; destroyed exactly once.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(p)) };
    }
}
