//! The one single-writer seqlock ring behind the orc-trace event rings
//! (`SeqRing<4>`) and the orc-obs series rings (`SeqRing<2>`).
//!
//! A [`SeqRing`] holds the newest `capacity` fixed-size records of `W`
//! `u64` words each; older records are overwritten (and counted by
//! [`dropped`](SeqRing::dropped)).
//!
//! # Protocol (single writer, wait-free; torn-read-proof snapshots)
//!
//! There is **one writer at a time** — the owning thread for a trace
//! ring, the sampling pass (serialised by the source-registry mutex) for
//! a series ring — so a [`push`](SeqRing::push) needs no RMW: `W + 1`
//! relaxed stores plus two release stores. Readers
//! ([`snapshot`](SeqRing::snapshot)) may run concurrently from any
//! thread: each slot carries a seqlock stamp (`WRITING` while the writer
//! is mid-slot, else `record index + 1`; 0 = never written) written
//! around the payload with release/acquire fences, so a reader either
//! observes a fully written record or rejects the slot — never a torn
//! mix of two records. The payload words are themselves atomics, so
//! concurrent readers are race-free in the language-semantics sense.
//!
//! # Storage
//!
//! A ring of `cap` slots is one run of `1 + cap · (W + 1)` `AtomicU64`s
//! — `head`, then the slots — and all-zero words are the empty ring:
//! `head` 0, every stamp 0. So a ring needs no initialising writes:
//! [`SeqRing::new`] takes one ring's words from `calloc` (orc-obs's
//! series rings), and [`RingSlab`] lays many rings over one zeroed
//! allocation (orc-trace's per-tid rings), where a ring's pages become
//! resident only when it is first pushed to.

// `std` atomics, not the facade: ring slots are observation, not
// synchronisation (DESIGN.md §9.1).
use std::alloc::{self, Layout};
use std::ptr;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Stamp value marking a slot whose writer is mid-update.
const WRITING: u64 = u64::MAX;

#[repr(C)]
struct Slot<const W: usize> {
    stamp: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-capacity overwrite-oldest ring of `[u64; W]` records; see the
/// module docs for the protocol and the storage.
#[repr(C)]
pub struct SeqRing<const W: usize> {
    /// Records ever pushed (not capped by the ring size).
    head: AtomicU64,
    slots: [Slot<W>],
}

/// The words a ring of `cap` slots spans; `cap` must be a power of two.
fn ring_words<const W: usize>(cap: usize) -> usize {
    assert!(cap.is_power_of_two(), "ring capacity {cap}");
    cap.checked_mul(W + 1)
        .and_then(|n| n.checked_add(1))
        .expect("ring fits in memory")
}

/// The ring of `cap` slots whose words start at `at`. Dereferencing it
/// needs `ring_words::<W>(cap)` words there; any bits in them are a valid
/// ring, since every field is an `AtomicU64` (`repr(C)`, no padding).
fn ring_at<const W: usize>(at: *mut AtomicU64, cap: usize) -> *mut SeqRing<W> {
    ptr::slice_from_raw_parts_mut(at.cast::<Slot<W>>(), cap) as *mut SeqRing<W>
}

impl<const W: usize> SeqRing<W> {
    /// A ring of `cap` slots that owns its memory; `cap` must be a power
    /// of two.
    pub fn new(cap: usize) -> Box<Self> {
        let words = Box::into_raw(zeroed_words(ring_words::<W>(cap)));
        // SAFETY: the ring spans exactly the words the box owned, so
        // `Box<Self>` frees the layout they were allocated with (that
        // many words at `AtomicU64`'s alignment), and all-zero words are
        // a valid ring: the empty one.
        unsafe { Box::from_raw(ring_at(words.cast(), cap)) }
    }

    /// Appends one record. Callers guarantee a single writer at a time;
    /// a second concurrent writer can tear that slot (readers then
    /// reject it) but cannot corrupt anything beyond the ring itself.
    #[inline]
    pub fn push(&self, words: [u64; W]) {
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];
        // Seqlock write: mark the slot torn, fence, write the payload,
        // then publish the new stamp. Readers pair the fence with an
        // acquire fence after their payload loads, so payload-visible
        // implies torn-visible.
        slot.stamp.store(WRITING, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.stamp.store(i + 1, Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
    }

    /// The newest ≤ capacity records as `(index, words)`, oldest first.
    /// Safe concurrently with the writer: slots it is touching (or
    /// overwrites mid-read) are skipped, so the result is always a
    /// *consistent subset* — never a half-written record.
    pub fn snapshot(&self) -> Vec<(u64, [u64; W])> {
        let head = self.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(self.slots.len() as u64);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for i in lo..head {
            let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 != i + 1 {
                // Mid-write, or already overwritten by a newer record
                // (which lies outside the head we latched) — skip.
                continue;
            }
            let words = std::array::from_fn(|w| slot.words[w].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Relaxed) != s1 {
                continue; // torn: the writer lapped us mid-read
            }
            out.push((i, words));
        }
        out
    }

    /// Records ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records lost to overwrite (`pushed − capacity`, floored at 0).
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }
}

/// `N` rings of `cap` slots each over one zeroed allocation, which this
/// type never writes: a ring's pages become resident when it is first
/// pushed to, so a table of rings sized for the worst case costs
/// resident memory only for the rings in use. (That holds while the
/// allocation is fresh pages — past the allocator's mmap threshold; a
/// `calloc` that reuses freed heap memory clears it, making it resident.)
/// `N` is a constant, so the bounds check of [`get`](Self::get) folds
/// with any other against `N` (a registry tid's against `MAX_THREADS`).
pub struct RingSlab<const W: usize, const N: usize> {
    words: Box<[AtomicU64]>,
    cap: usize,
    /// Words from one ring's start to the next's.
    stride: usize,
}

/// Words left unused after each ring of a [`RingSlab`], so no two rings
/// share a 128-byte line pair (the span `CachePadded` pads to).
const GAP_WORDS: usize = 16;

impl<const W: usize, const N: usize> RingSlab<W, N> {
    /// `N` empty rings of `cap` slots; `cap` must be a power of two.
    pub fn zeroed(cap: usize) -> Self {
        // Saturating: a stride too large to allocate fails below anyway.
        let stride = ring_words::<W>(cap).saturating_add(GAP_WORDS);
        let len = N.checked_mul(stride).expect("ring slab fits in memory");
        Self {
            words: zeroed_words(len),
            cap,
            stride,
        }
    }

    /// Ring `i`, or `None` past the last.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&SeqRing<W>> {
        if i >= N {
            return None;
        }
        // Through the box's own pointer, whose provenance spans the slab.
        let at = self.words.as_ptr().cast_mut().wrapping_add(i * self.stride);
        // SAFETY: `i < N`, so ring `i`'s `stride` words lie inside
        // the slab, and `ring_words(cap) ≤ stride` of them are its ring.
        // Any bits are a valid ring (`ring_at`) — all-zero ones the empty
        // ring — and its atomics may be written through `&`.
        Some(unsafe { &*ring_at(at, self.cap) })
    }

    /// Every ring, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &SeqRing<W>> {
        (0..N).filter_map(|i| self.get(i))
    }
}

/// `n ≥ 1` zeroed words, from `calloc` (`alloc_zeroed` at align 8): a run
/// past the allocator's mmap threshold is fresh pages nobody has written,
/// which stay out of the resident set until a word on them is stored.
fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    let layout = Layout::array::<AtomicU64>(n).expect("ring words fit in memory");
    assert!(layout.size() > 0, "zero ring words");
    // SAFETY: the layout is not zero-sized (checked above). The bytes
    // come back all zero, which the box below relies on.
    let p = unsafe { alloc::alloc_zeroed(layout) };
    if p.is_null() {
        alloc::handle_alloc_error(layout);
    }
    // SAFETY: `p` holds `n` words at their alignment, allocated by the
    // global allocator with `Box<[AtomicU64]>`'s layout for `n`, and
    // all-zero bytes are a valid `AtomicU64` (0).
    unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(p.cast(), n)) }
}
