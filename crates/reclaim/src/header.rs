//! Tracked-object layout shared by all manual schemes.
//!
//! Every node allocated through a scheme is laid out as
//! `SmrBox<T> { header: SmrHeader, value: T }` (`#[repr(C)]`, header first).
//! Data structures only ever see `*mut T` — the *value pointer* — while the
//! schemes' retired lists, handover slots and orphan chains carry *header
//! pointers*. The header begins with the [`Block`] every tracked object
//! shares (type-erased destructor, value offset, pool tag, retire stamp),
//! allocated and freed through the one funnel, `orc_util::tracked`; it
//! adds the birth/delete eras used by hazard eras and the retired-list
//! link.
//!
//! Hazard *slots*, by contrast, always hold value pointers
//! ([`Block::value_word`]), because that is what data structures read from
//! their links and publish.

use orc_util::atomics::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use orc_util::sample::{self, Call, Pass};
use orc_util::stats::SchemeStats;
use orc_util::trace;
use orc_util::tracked::{self, Block};
use std::mem;

/// Era value meaning "no reservation" / "not yet deleted".
pub const NO_ERA: u64 = 0;

/// Header prepended to every tracked object.
#[repr(C)]
pub struct SmrHeader {
    /// The block every tracked object starts with.
    pub block: Block,
    /// Era clock value at allocation (hazard eras). Unused by HP/PTB/PTP.
    pub birth_era: u64,
    /// Era clock value at retirement (hazard eras). `NO_ERA` while live.
    pub del_era: AtomicU64,
    /// Intrusive link for retired lists / orphan chains.
    pub next: AtomicPtr<SmrHeader>,
}

#[repr(C)]
pub struct SmrBox<T> {
    pub header: SmrHeader,
    pub value: T,
}

impl SmrHeader {
    /// Allocates `value` behind a header through `orc_util::tracked`;
    /// returns the value pointer.
    pub fn alloc<T>(value: T, birth_era: u64) -> *mut T {
        // SAFETY: `SmrBox<T>` is `repr(C)` and begins with the header,
        // which begins with the block; the value sits at the offset passed.
        let raw = unsafe {
            tracked::alloc(mem::offset_of!(SmrBox<T>, value), |block| SmrBox {
                header: SmrHeader {
                    block,
                    birth_era,
                    del_era: AtomicU64::new(NO_ERA),
                    next: AtomicPtr::new(std::ptr::null_mut()),
                },
                value,
            })
        };
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
        // SAFETY: still live — the tripwire above only stamps `del_era`;
        // the header pointer is the block pointer, and unreachability (the
        // contract) makes this the one reclamation.
        unsafe { tracked::destroy(h.cast()) }
    }
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
    // SAFETY: `h` is live per this function's contract.
    let block = unsafe { &(*h).block };
    block.stamp(now);
    if trace::enabled() {
        let addr = block.value_word() as u64;
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
    if let Some(at) = unsafe { &(*h).block }.stamp_of() {
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

    #[test]
    fn alloc_records_the_birth_era_behind_the_value_pointer() {
        let p = SmrHeader::alloc(vec![1u32, 2, 3], 7);
        // SAFETY: `p` came from `alloc` above, unshared, live; destroyed
        // exactly once.
        unsafe {
            let h = SmrHeader::of_value(p);
            assert_eq!((*h).block.value_word(), p as usize);
            assert_eq!((*h).birth_era, 7);
            assert_eq!((*h).del_era.load(Ordering::SeqCst), NO_ERA);
            (*p).push(4);
            assert_eq!((&*p)[3], 4);
            SmrHeader::destroy(h);
        }
    }

    #[test]
    fn the_header_is_six_words() {
        // A manual `MsQueue<u64>` node is 72 B, in the 96 B pool class; a
        // field added here must fail this test, not slip every manual node
        // into a larger class. The block leads, so a header pointer is a
        // block pointer.
        assert_eq!(mem::size_of::<SmrHeader>(), 48);
        assert_eq!(mem::offset_of!(SmrHeader, block), 0);
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
