//! The tracked-object header (`orc_base`) and allocation layout.
//!
//! The paper requires every shared object type to extend `orc_base`, which
//! holds the `_orc` word. Rust has no inheritance, so [`make_orc`]
//! allocates objects as `#[repr(C)] Linked<T> { header: OrcHeader, value: T }`
//! and every internal pointer (hazard slots, handover slots, link words) is
//! a `*mut OrcHeader` pointing at the start of the `Linked<T>` block. The
//! header additionally stores the type-erased destructor (the C++ version
//! gets this from `orc_base`'s vtable) and the pool routing tag.
//!
//! [`make_orc`]: crate::make_orc

use crate::word::ORC_INIT;
use orc_util::atomics::{AtomicU64, Ordering};
use orc_util::chk_hooks::{self, ReclaimAction};
use orc_util::pool;
use orc_util::sample::{self, Call};
use orc_util::trace;
use std::alloc::Layout;

/// Per-object metadata; the paper's `orc_base`.
#[repr(C)]
pub struct OrcHeader {
    /// The `_orc` word: biased hard-link counter + BRETIRED + sequence.
    pub(crate) orc: AtomicU64,
    /// Type-erased destructor: drops the whole `Linked<T>` box and returns
    /// the block to the pool (which counts the free) — or, under the
    /// orc-check quarantine, drops the value in place and leaks the
    /// allocation so the address stays poisoned.
    pub(crate) drop_fn: unsafe fn(*mut OrcHeader, ReclaimAction),
    /// Pool routing tag ([`pool::TAG_GLOBAL`] for global-allocator blocks).
    pub(crate) pool_tag: pool::PoolTag,
    /// Timestamp ([`orc_util::trace::now_ns`]) of the last successful
    /// BRETIRED claim; 0 = never stamped / claim relinquished. Only
    /// written by a sampled claim with orc-stats enabled; feeds the
    /// retire→reclaim latency histogram.
    pub(crate) retire_ns: AtomicU64,
}

/// Allocation layout of every tracked object.
#[repr(C)]
pub struct Linked<T> {
    pub(crate) header: OrcHeader,
    pub(crate) value: T,
}

unsafe fn drop_linked<T>(h: *mut OrcHeader, action: ReclaimAction) {
    match action {
        // SAFETY: `h` came out of `OrcHeader::alloc::<T>`'s `pool::alloc`
        // (the caller's contract via `drop_fn`), is live, and this is the
        // single reclamation of it; the tag is read before the destructor
        // invalidates the header, and the layout matches the allocation's.
        ReclaimAction::Free => unsafe {
            let tag = (*h).pool_tag;
            std::ptr::drop_in_place(h as *mut Linked<T>);
            pool::dealloc(h as *mut u8, Layout::new::<Linked<T>>(), tag);
        },
        // Quarantine (orc-check model runs): the destructor still runs — so
        // the recursive decrement cascade through OrcAtomic fields happens —
        // but the memory is leaked to keep a flagged use-after-reclaim
        // physically safe.
        // SAFETY: same provenance as the `Free` arm; dropping in place is
        // the single destructor run, and the allocation is intentionally
        // never freed.
        ReclaimAction::Quarantine => unsafe {
            std::ptr::drop_in_place(h as *mut Linked<T>);
        },
    }
}

impl OrcHeader {
    /// Allocates `value` behind a fresh header with `_orc = ORC_INIT`.
    /// Returns the erased header pointer (== the `Linked<T>` pointer).
    pub(crate) fn alloc<T>(value: T) -> *mut OrcHeader {
        let layout = Layout::new::<Linked<T>>();
        let (block, pool_tag) = pool::alloc(layout);
        let linked = block as *mut Linked<T>;
        // SAFETY: `pool::alloc` returned a fresh exclusive block valid for
        // `layout` (size classes cover `max(size, align)`), so writing a
        // `Linked<T>` into it is in-bounds and aligned.
        unsafe {
            linked.write(Linked {
                header: OrcHeader {
                    orc: AtomicU64::new(ORC_INIT),
                    drop_fn: drop_linked::<T>,
                    pool_tag,
                    retire_ns: AtomicU64::new(0),
                },
                value,
            });
        }
        let raw = linked as *mut OrcHeader;
        chk_hooks::on_alloc(raw as usize, std::mem::size_of::<Linked<T>>());
        // A sampled allocation records its `Alloc` event.
        if sample::draw(Call::Alloc).is_some() {
            let bytes = pool::slot_bytes(layout, pool_tag);
            trace::record(trace::EventKind::Alloc, raw as u64, bytes as u64);
        }
        raw
    }

    /// Runs the destructor and frees the block.
    ///
    /// # Safety
    /// `h` must be live and unreachable (Lemma 1 established).
    pub(crate) unsafe fn destroy(h: *mut OrcHeader) {
        // SAFETY: `h` is live per this function's contract.
        let f = unsafe { (*h).drop_fn };
        let action = chk_hooks::on_reclaim(h as usize);
        // SAFETY: `drop_fn` was installed by `alloc` for `h`'s own `T`;
        // unreachability (the contract) makes this the one reclamation.
        unsafe { f(h, action) }
    }

    /// The value behind a header pointer.
    ///
    /// # Safety
    /// `h` must be a live `Linked<T>` for this exact `T`.
    #[inline(always)]
    pub(crate) unsafe fn value<'a, T>(h: *mut OrcHeader) -> &'a T {
        // SAFETY: `h` is a live `Linked<T>` per this function's contract,
        // and `repr(C)` makes the header pointer the block pointer.
        unsafe { &(*(h as *mut Linked<T>)).value }
    }

    /// Raw access to the `_orc` word (tests / diagnostics).
    pub fn orc_word(&self) -> u64 {
        // orc-lint: allow(seqcst, diagnostic read kept on the counter's SC order so test assertions see settled values)
        self.orc.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word;
    use orc_util::atomics::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn alloc_initializes_orc() {
        let h = OrcHeader::alloc(42u64);
        // SAFETY: freshly allocated as `Linked<u64>`, unshared, destroyed
        // exactly once.
        unsafe {
            assert!(word::is_zero_unclaimed((*h).orc.load(Ordering::SeqCst)));
            assert_eq!(*OrcHeader::value::<u64>(h), 42);
            OrcHeader::destroy(h);
        }
    }

    #[test]
    fn destroy_runs_value_destructor() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let n = Arc::new(AtomicUsize::new(0));
        let h = OrcHeader::alloc(Probe(n.clone()));
        assert_eq!(n.load(Ordering::SeqCst), 0);
        // SAFETY: freshly allocated, unshared, destroyed exactly once.
        unsafe { OrcHeader::destroy(h) };
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn high_alignment_payloads_recycle_aligned() {
        // Pooled slots are slot-size aligned; a recycled slot re-issued
        // to a more-aligned `Linked<T>` must still satisfy it. Alternate
        // two alignments through alloc/destroy so later rounds run on
        // recycled slots.
        #[repr(align(64))]
        struct A64(#[allow(dead_code)] u8);
        #[repr(align(128))]
        struct A128(#[allow(dead_code)] u8);
        for _ in 0..64 {
            let h64 = OrcHeader::alloc(A64(1));
            assert_eq!(
                h64 as usize % std::mem::align_of::<Linked<A64>>(),
                0,
                "Linked<A64> misaligned"
            );
            // SAFETY: freshly allocated, unshared, destroyed exactly once.
            unsafe { OrcHeader::destroy(h64) };
            let h128 = OrcHeader::alloc(A128(2));
            assert_eq!(
                h128 as usize % std::mem::align_of::<Linked<A128>>(),
                0,
                "Linked<A128> misaligned"
            );
            // SAFETY: freshly allocated, unshared, destroyed exactly once.
            unsafe { OrcHeader::destroy(h128) };
        }
    }

    #[test]
    fn header_is_at_offset_zero() {
        // The erased header pointer must coincide with the Linked<T>
        // pointer for every T (repr(C) guarantees it; this guards
        // against accidental layout changes).
        assert_eq!(std::mem::offset_of!(Linked<u8>, header), 0);
        assert_eq!(std::mem::offset_of!(Linked<[u64; 7]>, header), 0);
    }
}
