//! Tracked-object layout shared by all manual schemes.
//!
//! Every node allocated through a scheme is laid out as
//! `SmrBox<T> { header: SmrHeader, value: T }` (`#[repr(C)]`, header first).
//! Data structures only ever see `*mut T` — the *value pointer* — while the
//! schemes' retired lists, handover slots and orphan chains carry *header
//! pointers*. The header records how to get back and forth (`value_offset`)
//! and how to destroy the object without knowing its type (`drop_fn`), plus
//! the birth/delete eras used by hazard eras.
//!
//! Hazard *slots*, by contrast, always hold value pointers, because that is
//! what data structures read from their links and publish.

use orc_util::atomics::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use orc_util::chk_hooks::{self, ReclaimAction};
use orc_util::pool;
use orc_util::sample::{self, Call, Pass};
use orc_util::stats::SchemeStats;
use orc_util::trace;
use std::alloc::Layout;
use std::mem;

/// Era value meaning "no reservation" / "not yet deleted".
pub const NO_ERA: u64 = 0;

/// Header prepended to every tracked object.
#[repr(C)]
pub struct SmrHeader {
    /// Era clock value at allocation (hazard eras). Unused by HP/PTB/PTP.
    pub birth_era: u64,
    /// Era clock value at retirement (hazard eras). `NO_ERA` while live.
    pub del_era: AtomicU64,
    /// orc-trace retire stamp ([`trace::now_ns`], never 0 once stamped;
    /// 0 = not stamped — the retire call was not sampled). Written by
    /// [`mark_retired`], consumed by [`record_reclaim_delay`] for the
    /// retire→reclaim delay histogram.
    retire_ns: AtomicU64,
    /// Intrusive link for retired lists / orphan chains.
    pub next: AtomicPtr<SmrHeader>,
    /// Type-erased destructor: drops the `SmrBox<T>` and returns the block
    /// to the pool (which counts the free) — or, under the orc-check
    /// quarantine, drops the value in place and leaks the allocation so
    /// the address stays poisoned.
    drop_fn: unsafe fn(*mut SmrHeader, ReclaimAction),
    /// Offset from the header to the value, in bytes.
    value_offset: u32,
    /// Pool routing tag ([`pool::TAG_GLOBAL`] for global-allocator blocks).
    pool_tag: pool::PoolTag,
}

#[repr(C)]
pub struct SmrBox<T> {
    pub header: SmrHeader,
    pub value: T,
}

unsafe fn drop_box<T>(h: *mut SmrHeader, action: ReclaimAction) {
    match action {
        // SAFETY: `h` came out of `SmrHeader::alloc::<T>`'s `pool::alloc`
        // (the `drop_fn` contract), is live, and this is its single
        // reclamation; the tag is read before the destructor invalidates
        // the header, and the layout matches the one `alloc` requested.
        ReclaimAction::Free => unsafe {
            let tag = (*h).pool_tag;
            std::ptr::drop_in_place(h as *mut SmrBox<T>);
            pool::dealloc(h as *mut u8, Layout::new::<SmrBox<T>>(), tag);
        },
        // Quarantine (orc-check model runs): run the destructor but leak the
        // allocation — deliberately *without* `pool::dealloc`, so the slot
        // is never recycled, a use-after-reclaim the oracle just flagged
        // cannot touch reused memory, and the execution can finish its
        // trace.
        // SAFETY: same provenance as the `Free` arm; single destructor run,
        // allocation intentionally leaked.
        ReclaimAction::Quarantine => unsafe {
            std::ptr::drop_in_place(h as *mut SmrBox<T>);
        },
    }
}

impl SmrHeader {
    /// Allocates `value` behind a header (pool-backed when `ORC_POOL` is
    /// on and the layout fits a size class); returns the value pointer.
    pub fn alloc<T>(value: T, birth_era: u64) -> *mut T {
        let layout = Layout::new::<SmrBox<T>>();
        let (block, pool_tag) = pool::alloc(layout);
        let raw = block as *mut SmrBox<T>;
        // SAFETY: `pool::alloc` returned a fresh exclusive block valid for
        // `layout` (size classes cover `max(size, align)`), so writing a
        // `SmrBox<T>` into it is in-bounds and aligned.
        unsafe {
            raw.write(SmrBox {
                header: SmrHeader {
                    birth_era,
                    del_era: AtomicU64::new(NO_ERA),
                    retire_ns: AtomicU64::new(0),
                    next: AtomicPtr::new(std::ptr::null_mut()),
                    drop_fn: drop_box::<T>,
                    value_offset: mem::offset_of!(SmrBox<T>, value) as u32,
                    pool_tag,
                },
                value,
            });
        }
        chk_hooks::on_alloc(raw as usize, mem::size_of::<SmrBox<T>>());
        // SAFETY: `raw` was just initialized; projecting to `value` stays
        // inside the allocation.
        unsafe { &raw mut (*raw).value }
    }

    /// Recovers the header pointer from a value pointer.
    ///
    /// # Safety
    /// `value` must have been returned by [`SmrHeader::alloc::<T>`] and not
    /// yet destroyed.
    #[inline]
    pub unsafe fn of_value<T>(value: *mut T) -> *mut SmrHeader {
        // SAFETY: `value` sits at `offset_of!(SmrBox<T>, value)` inside a
        // live `SmrBox<T>` (this function's contract), so the subtraction
        // lands on the box's header.
        unsafe { (value as *mut u8).sub(mem::offset_of!(SmrBox<T>, value)) as *mut SmrHeader }
    }

    /// The value pointer of this object, as the word data structures publish
    /// in hazard slots.
    ///
    /// # Safety
    /// `h` must be a live header.
    #[inline]
    pub unsafe fn value_word(h: *mut SmrHeader) -> usize {
        // SAFETY: `h` is live per this function's contract.
        let off = unsafe { (*h).value_offset } as usize;
        h as usize + off
    }

    /// The retire stamp [`mark_retired`] left in this header (0 = never
    /// stamped: not retired yet, retired by an unsampled call, or retired
    /// with `ORC_STATS=0`).
    ///
    /// # Safety
    /// `h` must be a live header.
    #[inline]
    pub unsafe fn retire_stamp(h: *mut SmrHeader) -> u64 {
        // SAFETY: `h` is live per this function's contract.
        unsafe { &(*h).retire_ns }.load(Ordering::Relaxed)
    }

    /// Runs the destructor and frees the allocation.
    ///
    /// # Safety
    /// `h` must be a live header no longer reachable by any thread.
    #[inline]
    pub unsafe fn destroy(h: *mut SmrHeader) {
        // Double-free tripwire: a destroyed header's del_era is stamped
        // with a magic value. Catching this *before* the allocator's
        // metadata is corrupted turns heisencrashes into clean aborts.
        // SAFETY: `h` is live per this function's contract.
        // orc-lint: allow(seqcst, double-free tripwire: the strongest order maximizes the chance racing destroys observe each other; cold path)
        let prev = unsafe { &(*h).del_era }.swap(u64::MAX - 0xDEAD, Ordering::SeqCst);
        assert_ne!(
            prev,
            u64::MAX - 0xDEAD,
            "double free of tracked object {h:p}"
        );
        // SAFETY: still live — the tripwire above only stamps `del_era`.
        let f = unsafe { (*h).drop_fn };
        let action = chk_hooks::on_reclaim(h as usize);
        // SAFETY: `drop_fn` was installed by `alloc` for `h`'s own `T`;
        // unreachability (the contract) makes this the one reclamation.
        unsafe { f(h, action) }
    }
}

/// Allocates through [`SmrHeader::alloc`] and, when the call is sampled,
/// emits the `Alloc` trace event. The allocation itself is counted where
/// it happens, in [`pool::alloc`].
pub fn alloc_tracked<T>(value: T, birth_era: u64) -> *mut T {
    let p = SmrHeader::alloc(value, birth_era);
    if sample::draw(Call::Alloc).is_some() {
        // SAFETY: `p` was just returned by `alloc`, so its header is live.
        let tag = unsafe { (*SmrHeader::of_value(p)).pool_tag };
        let bytes = pool::slot_bytes(Layout::new::<SmrBox<T>>(), tag);
        trace::record(trace::EventKind::Alloc, p as u64, bytes as u64);
    }
    p
}

/// The retire call's telemetry, shared by every manual scheme: the call
/// draws on the thread's retire stride ([`sample`]), and a sampled call
/// stamps the retire instant into the header (consumed later by
/// [`record_reclaim_delay`]) and emits a `Retire{addr,seq}` trace event
/// carrying the tid's retire count. The clock is read once for both, so
/// the stamp and the event's `t_ns` are the same instant — and that read
/// is **returned**, to serve as the clock of the scan / handover pass
/// this retire goes on to trigger ([`Pass::of_retire`]). Returns 0 — no
/// clock read, header unstamped, no event — for an unsampled call, and
/// without drawing when orc-stats and orc-trace are both off.
///
/// # Safety
/// `h` must be a live header owned by the retiring thread (`tid` is the
/// caller's registry tid).
#[inline]
pub unsafe fn mark_retired(tid: usize, h: *mut SmrHeader) -> u64 {
    let Some(calls) = sample::draw(Call::Retire) else {
        return 0;
    };
    // Call entry point: the sampled retire call's one clock read.
    let now = trace::now_ns();
    if orc_util::stats::enabled() {
        // SAFETY: `h` is live per this function's contract.
        unsafe { &(*h).retire_ns }.store(now, Ordering::Relaxed);
    }
    if trace::enabled() {
        // SAFETY: as above.
        let addr = unsafe { SmrHeader::value_word(h) } as u64;
        let seq = trace::sequence_retires(tid, calls);
        trace::record_at_ns(tid, trace::EventKind::Retire, addr, seq, now);
    }
    now
}

/// Feeds the retire→reclaim delay of `h` into `stats` if [`mark_retired`]
/// stamped it, measured against `pass`'s clock — the stamp of the retire
/// call running the pass, else one [`trace::now_ns`] read per pass, taken
/// at its first stamped free ([`Pass::since`]).
///
/// # Safety
/// `h` must be a live header.
#[inline]
pub unsafe fn record_reclaim_delay(
    stats: &SchemeStats,
    tid: usize,
    h: *mut SmrHeader,
    pass: &mut Pass,
) {
    // SAFETY: `h` is live per this function's contract.
    let at = unsafe { SmrHeader::retire_stamp(h) };
    if at != 0 {
        stats.reclaim_delay(tid, pass.since(at));
    }
}

/// Views an `AtomicPtr<T>` as the `AtomicUsize` word the schemes operate on.
/// Sound because the two types have identical size, alignment and atomic
/// representation.
#[inline]
pub fn as_word<T>(addr: &AtomicPtr<T>) -> &AtomicUsize {
    // SAFETY: `AtomicPtr<T>` and `AtomicUsize` have identical size,
    // alignment and atomic representation (both wrap one pointer-sized
    // word), so the reference cast is a valid reinterpretation.
    unsafe { &*(addr as *const AtomicPtr<T> as *const AtomicUsize) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct DropProbe(Arc<AtomicUsize>);
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn alloc_roundtrip_and_destroy() {
        let drops = Arc::new(AtomicUsize::new(0));
        let p = SmrHeader::alloc(DropProbe(drops.clone()), 7);
        // SAFETY: `p` came from `alloc` above, unshared, live.
        let h = unsafe { SmrHeader::of_value(p) };
        // SAFETY: `h` is live (as above).
        assert_eq!(unsafe { SmrHeader::value_word(h) }, p as usize);
        // SAFETY: as above.
        assert_eq!(unsafe { (*h).birth_era }, 7);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        // SAFETY: unshared; destroyed exactly once.
        unsafe { SmrHeader::destroy(h) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn value_is_usable_through_pointer() {
        let p = SmrHeader::alloc(vec![1u32, 2, 3], 0);
        // SAFETY: freshly allocated, unshared, destroyed exactly once.
        unsafe {
            assert_eq!((*p).len(), 3);
            (*p).push(4);
            assert_eq!((&*p)[3], 4);
            SmrHeader::destroy(SmrHeader::of_value(p));
        }
    }

    #[test]
    fn high_alignment_values_keep_offsets_consistent() {
        #[repr(align(64))]
        struct Aligned(#[allow(dead_code)] u8);
        let p = SmrHeader::alloc(Aligned(9), 0);
        assert_eq!(p as usize % 64, 0);
        // SAFETY: `p` came from `alloc` above, unshared, live.
        let h = unsafe { SmrHeader::of_value(p) };
        // SAFETY: `h` is live (as above).
        assert_eq!(unsafe { SmrHeader::value_word(h) }, p as usize);
        // SAFETY: unshared; destroyed exactly once.
        unsafe { SmrHeader::destroy(h) };
    }

    #[test]
    fn as_word_matches_pointer_value() {
        let x = Box::into_raw(Box::new(5u8));
        let a: AtomicPtr<u8> = AtomicPtr::new(x);
        assert_eq!(as_word(&a).load(Ordering::SeqCst), x as usize);
        // SAFETY: `x` came from `Box::into_raw` above; freed exactly once.
        unsafe { drop(Box::from_raw(x)) };
    }

    #[test]
    fn headers_are_linkable() {
        let a = SmrHeader::alloc(1u64, 0);
        let b = SmrHeader::alloc(2u64, 0);
        // SAFETY: both freshly allocated, unshared, destroyed exactly once.
        unsafe {
            let ha = SmrHeader::of_value(a);
            let hb = SmrHeader::of_value(b);
            (*ha).next.store(hb, Ordering::SeqCst);
            assert_eq!((*ha).next.load(Ordering::SeqCst), hb);
            SmrHeader::destroy(ha);
            SmrHeader::destroy(hb);
        }
    }
}
