//! Tracked-object layout shared by all manual schemes.
//!
//! Every node allocated through a scheme is laid out as
//! `SmrBox<E, T> { header: SmrHeader, extra: E, value: T }` (`#[repr(C)]`,
//! header first). Data structures only ever see `*mut T` — the *value
//! pointer* — while the schemes' retired lists, handover slots and orphan
//! chains carry *header pointers*. The header is the [`Block`] every
//! tracked object shares (type-erased destructor, value offset, pool tag,
//! retire stamp), allocated and freed through the one funnel,
//! `orc_util::tracked`, plus the retired-list link. `E` is the scheme's
//! own per-object words, [`Core::Extra`](crate::scheme::Core::Extra): `()`
//! for every scheme but the two era-based ones, whose birth/delete eras
//! ([`Eras`](crate::policy::Eras)) sit between the header and the value.
//!
//! `E` decides where the value sits, so a value pointer converts to its
//! header only through the layout that allocated it: the shell's
//! `alloc`, `retire` and `dealloc_now` all name [`SmrBox`]`<C::Extra, T>`.
//! The extra words sit at the same offset whatever `T` is
//! ([`SmrHeader::extra`]), so a scan reads them from a header alone.
//!
//! Hazard *slots*, by contrast, always hold value pointers
//! ([`Block::value_word`]), because that is what data structures read from
//! their links and publish.

use orc_util::atomics::{AtomicPtr, AtomicUsize, Ordering};
use orc_util::sample::{self, Call, Pass};
use orc_util::stats::SchemeStats;
use orc_util::trace;
use orc_util::tracked::{self, Block};
use std::mem;

/// Header prepended to every tracked object (4 words).
#[repr(C)]
pub struct SmrHeader {
    /// The block every tracked object starts with.
    pub block: Block,
    /// Intrusive link for orphan chains and the None baseline's stash;
    /// [`SmrHeader::destroy`] stamps it as its double-free tripwire.
    pub next: AtomicPtr<SmrHeader>,
}

/// A tracked object: the header, the scheme's extra words `E`, the value.
#[repr(C)]
pub struct SmrBox<E, T> {
    pub header: SmrHeader,
    pub extra: E,
    pub value: T,
}

/// What [`SmrHeader::destroy`] leaves in `next`: no list holds a header
/// once it is destroyed, so finding this there is a second destroy.
const DESTROYED: usize = usize::MAX - 0xDEAD;

impl<E, T> SmrBox<E, T> {
    /// Allocates `value` behind a header and `extra` through
    /// `orc_util::tracked`; returns the value pointer.
    pub fn alloc(extra: E, value: T) -> *mut T {
        // SAFETY: `SmrBox<E, T>` is `repr(C)` and begins with the header,
        // which begins with the block; the value sits at the offset passed.
        let raw = unsafe {
            tracked::alloc(mem::offset_of!(Self, value), |block| SmrBox {
                header: SmrHeader {
                    block,
                    next: AtomicPtr::new(std::ptr::null_mut()),
                },
                extra,
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
    /// `value` must have been returned by [`SmrBox::<E, T>::alloc`] — the
    /// same `E` — and not yet destroyed.
    #[inline]
    pub unsafe fn header_of(value: *mut T) -> *mut SmrHeader {
        // SAFETY: `value` sits at `offset_of!(SmrBox<E, T>, value)` inside
        // a live `SmrBox<E, T>` (this function's contract), so the
        // subtraction lands on the box's header.
        unsafe { value.cast::<u8>().sub(mem::offset_of!(Self, value)).cast() }
    }
}

impl SmrHeader {
    /// The extra words of the object `h` heads. Their offset depends on
    /// `E` alone (they follow the header), so no value type is needed.
    ///
    /// # Safety
    /// `h` must head a live `SmrBox<E, _>` — the same `E` — and stay live
    /// for `'a`.
    #[inline]
    pub unsafe fn extra<'a, E>(h: *mut SmrHeader) -> &'a E {
        // SAFETY: in a `repr(C)` `SmrBox<E, T>` the header is followed by
        // `extra`, whose offset depends on the header and `E` only, so it
        // is the one in `SmrBox<E, ()>`; the box is live (the contract).
        unsafe {
            &*h.cast::<u8>()
                .add(mem::offset_of!(SmrBox<E, ()>, extra))
                .cast::<E>()
        }
    }

    /// Runs the destructor and frees the allocation.
    ///
    /// # Safety
    /// `h` must be a live header no longer reachable by any thread.
    #[inline]
    pub unsafe fn destroy(h: *mut SmrHeader) {
        // Double-free tripwire: a destroyed header's `next` is stamped
        // with a magic value. Catching this *before* the allocator's
        // metadata is corrupted turns heisencrashes into clean aborts.
        // SAFETY: `h` is live per this function's contract.
        // orc-lint: allow(seqcst, double-free tripwire: the strongest order maximizes the chance racing destroys observe each other; cold path)
        let prev = unsafe { &(*h).next }.swap(DESTROYED as *mut SmrHeader, Ordering::SeqCst);
        assert_ne!(
            prev as usize, DESTROYED,
            "double free of tracked object {h:p}"
        );
        // SAFETY: still live — the tripwire above only stamps `next`;
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
    fn alloc_puts_the_extra_words_between_header_and_value() {
        let p = SmrBox::alloc([7u64, 8], vec![1u32, 2, 3]);
        // SAFETY: `p` came from `alloc` above, unshared, live; destroyed
        // exactly once.
        unsafe {
            let h = SmrBox::<[u64; 2], Vec<u32>>::header_of(p);
            assert_eq!((*h).block.value_word(), p as usize);
            assert_eq!(*SmrHeader::extra::<[u64; 2]>(h), [7, 8]);
            (*p).push(4);
            assert_eq!((&*p)[3], 4);
            SmrHeader::destroy(h);
        }
    }

    #[test]
    fn the_header_is_four_words() {
        // The block and the retired-list link: a manual `MsQueue<u64>`
        // node is 56 B and an `NmTree<u64>` node 64 B, both in the 64 B
        // pool class; a field added here must fail this test, not slip
        // every manual node into a larger class. The block leads, so a
        // header pointer is a block pointer.
        assert_eq!(mem::size_of::<SmrHeader>(), 32);
        assert_eq!(mem::offset_of!(SmrHeader, block), 0);
        // `()` costs nothing: the value follows the header directly.
        assert_eq!(mem::offset_of!(SmrBox<(), u64>, value), 32);
        assert_eq!(mem::size_of::<SmrBox<(), u64>>(), 40);
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
        let a = SmrBox::alloc((), 1u64);
        let b = SmrBox::alloc((), 2u64);
        // SAFETY: both freshly allocated, unshared, destroyed exactly once.
        unsafe {
            let ha = SmrBox::<(), u64>::header_of(a);
            let hb = SmrBox::<(), u64>::header_of(b);
            (*ha).next.store(hb, Ordering::SeqCst);
            assert_eq!((*ha).next.load(Ordering::SeqCst), hb);
            SmrHeader::destroy(ha);
            SmrHeader::destroy(hb);
        }
    }
}
