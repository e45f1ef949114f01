//! The tracked object: the one block every reclaimable object starts with,
//! and the one allocation / reclamation funnel.
//!
//! The paper gives every tracked object one base, `orc_base`. Here that
//! base is [`Block`]: the scheme-independent words of an object's header —
//! how to destroy it without knowing its type, where its value sits, which
//! pool slot it came from, and its retire stamp. It is the first field of
//! both scheme headers (`reclaim::SmrHeader` adds the hazard-era words and
//! the retired-list link, `orcgc`'s `OrcHeader` adds the `_orc` counter),
//! and each header is the first field of its `#[repr(C)]` object, so a
//! header pointer, a block pointer and the object pointer are one address.
//!
//! Every scheme allocates and frees through [`alloc`] and [`destroy`]:
//! outside the pool's own tests and micro-benchmarks they are the only
//! callers of [`pool::alloc`] / [`pool::dealloc`] and of the shadow-heap
//! hooks [`chk_hooks::on_alloc`] / [`chk_hooks::on_reclaim`].

use crate::chk_hooks::{self, ReclaimAction};
use crate::pool;
use crate::sample::{self, Call};
use crate::{stats, trace};
use std::alloc::Layout;
// The retire stamp is telemetry: `std`, not the facade (DESIGN.md §9.1).
use std::sync::atomic::{AtomicU64, Ordering};

/// The head of every tracked object (24 B). Its fields are private: the
/// layout and the retire-stamp format live only here.
#[repr(C)]
pub struct Block {
    /// Type-erased destructor of the whole object (`drop_object::<W>`).
    drop_fn: unsafe fn(*mut Block, ReclaimAction),
    /// Retire stamp ([`trace::now_ns`]; 0 = unstamped). Written by a
    /// sampled retire under orc-stats only; read by the reclaim that frees
    /// the object, for the retire→reclaim delay histogram.
    retire_ns: AtomicU64,
    /// Offset from the block to the value, in bytes.
    value_offset: u32,
    /// Pool routing tag ([`pool::TAG_GLOBAL`] for global-allocator blocks).
    pool_tag: pool::PoolTag,
}

impl Block {
    /// The address of this object's value: the word data structures
    /// publish in hazard slots.
    #[inline]
    pub fn value_word(&self) -> usize {
        self as *const Self as usize + self.value_offset as usize
    }

    /// Stamps the retire instant `ns` (0 unstamps). A no-op with orc-stats
    /// off, so an unsampled or unstatted retire leaves the block at 0.
    #[inline]
    pub fn stamp(&self, ns: u64) {
        if stats::enabled() {
            self.retire_ns.store(ns, Ordering::Relaxed);
        }
    }

    /// The retire instant [`Block::stamp`] left, or `None` when unstamped
    /// (not retired, retired by an unsampled call, or orc-stats off).
    #[inline]
    pub fn stamp_of(&self) -> Option<u64> {
        let ns = self.retire_ns.load(Ordering::Relaxed);
        (ns != 0).then_some(ns)
    }
}

/// Allocates one tracked object `W` — pool-backed when `ORC_POOL` is on
/// and its layout fits a size class — built by `init` around the block
/// it is given; records it in the shadow heap, and a sampled call records
/// its `Alloc{block, slot bytes}` trace event.
///
/// # Safety
/// `W` must be `#[repr(C)]` and begin with the block `init` is given
/// (directly, or as the first field of its first field), with its value
/// at `value_offset`.
pub unsafe fn alloc<W>(value_offset: usize, init: impl FnOnce(Block) -> W) -> *mut W {
    let layout = Layout::new::<W>();
    let (raw, pool_tag) = pool::alloc(layout);
    let w = raw as *mut W;
    let block = Block {
        drop_fn: drop_object::<W>,
        retire_ns: AtomicU64::new(0),
        value_offset: value_offset as u32,
        pool_tag,
    };
    // SAFETY: `pool::alloc` returned a fresh exclusive block valid for
    // `layout` (size classes cover `max(size, align)`), so writing a `W`
    // into it is in-bounds and aligned.
    unsafe { w.write(init(block)) };
    chk_hooks::on_alloc(w as usize, layout.size());
    if sample::draw(Call::Alloc).is_some() {
        let bytes = pool::slot_bytes(layout, pool_tag);
        trace::record(trace::EventKind::Alloc, w as u64, bytes as u64);
    }
    w
}

/// Runs the object's destructor and frees its slot — or, under the
/// orc-check quarantine, leaks it so the address stays poisoned.
///
/// # Safety
/// `b` must be a live block returned by [`alloc`] that no thread can
/// reach any more; this is its one reclamation.
#[inline]
pub unsafe fn destroy(b: *mut Block) {
    // SAFETY: `b` is live per this function's contract.
    let f = unsafe { (*b).drop_fn };
    let action = chk_hooks::on_reclaim(b as usize);
    // SAFETY: `drop_fn` was installed by `alloc` for `b`'s own `W`;
    // unreachability (the contract) makes this the one reclamation.
    unsafe { f(b, action) }
}

/// The one generic drop: runs `W`'s destructor in place, then returns the
/// slot to the pool unless the object is quarantined (orc-check model
/// runs), so no address is reissued within an exploration and a flagged
/// use-after-reclaim cannot touch reused memory.
unsafe fn drop_object<W>(b: *mut Block, action: ReclaimAction) {
    // SAFETY: `b` heads a live `W` from `alloc::<W>` (the `drop_fn`
    // contract) and this is its single reclamation; the tag is read before
    // the destructor invalidates the block, and the layout is the one
    // `alloc` requested.
    unsafe {
        let tag = (*b).pool_tag;
        std::ptr::drop_in_place(b as *mut W);
        if action == ReclaimAction::Free {
            pool::dealloc(b as *mut u8, Layout::new::<W>(), tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomics::AtomicUsize;
    use std::sync::Arc;

    #[repr(C)]
    struct Obj<T> {
        block: Block,
        value: T,
    }

    fn make<T>(value: T) -> *mut Obj<T> {
        // SAFETY: `Obj<T>` is `repr(C)`, begins with the block and holds
        // its value at the offset passed.
        unsafe {
            alloc(std::mem::offset_of!(Obj<T>, value), |block| Obj {
                block,
                value,
            })
        }
    }

    #[test]
    fn the_block_is_three_words() {
        // Both headers embed it; a field added here moves every node of
        // every scheme towards a larger pool class.
        assert_eq!(std::mem::size_of::<Block>(), 24);
    }

    #[test]
    fn destroy_runs_the_destructor_exactly_once() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let n = Arc::new(AtomicUsize::new(0));
        let o = make(Probe(n.clone()));
        assert_eq!(n.load(Ordering::SeqCst), 0);
        // SAFETY: freshly allocated, unshared, destroyed exactly once.
        unsafe { destroy(o.cast()) };
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn value_offsets_round_trip() {
        #[repr(align(64))]
        struct A64(#[allow(dead_code)] u8);
        let (small, wide) = (make(7u32), make(A64(9)));
        // SAFETY: both freshly allocated, unshared, destroyed exactly once.
        unsafe {
            assert_eq!(
                (*small).block.value_word(),
                &raw mut (*small).value as usize
            );
            assert_eq!((*wide).block.value_word(), &raw mut (*wide).value as usize);
            assert_eq!((*wide).block.value_word() % 64, 0);
            destroy(small.cast());
            destroy(wide.cast());
        }
    }

    #[test]
    fn high_alignment_payloads_recycle_aligned() {
        // Pooled slots are slot-size aligned; a recycled slot re-issued
        // to a more-aligned object must still satisfy it. Alternate two
        // alignments through alloc/destroy so later rounds run on
        // recycled slots.
        #[repr(align(64))]
        struct A64(#[allow(dead_code)] u8);
        #[repr(align(128))]
        struct A128(#[allow(dead_code)] u8);
        for _ in 0..64 {
            let o64 = make(A64(1));
            assert_eq!(o64 as usize % 64, 0, "Obj<A64> misaligned");
            // SAFETY: freshly allocated, unshared, destroyed exactly once.
            unsafe { destroy(o64.cast()) };
            let o128 = make(A128(2));
            assert_eq!(o128 as usize % 128, 0, "Obj<A128> misaligned");
            // SAFETY: freshly allocated, unshared, destroyed exactly once.
            unsafe { destroy(o128.cast()) };
        }
    }

    #[test]
    fn a_stamp_is_kept_only_under_orc_stats() {
        let o = make(0u8);
        // SAFETY: freshly allocated, unshared, destroyed exactly once.
        unsafe {
            let b = &(*o).block;
            assert_eq!(b.stamp_of(), None, "a fresh block is unstamped");
            b.stamp(42);
            let want = stats::enabled().then_some(42);
            assert_eq!(b.stamp_of(), want);
            b.stamp(0);
            assert_eq!(b.stamp_of(), None, "0 unstamps");
            destroy(o.cast());
        }
    }
}
