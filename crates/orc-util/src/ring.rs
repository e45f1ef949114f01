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

// `std` atomics, not the facade: ring slots are observation, not
// synchronisation (DESIGN.md §9.1).
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Stamp value marking a slot whose writer is mid-update.
const WRITING: u64 = u64::MAX;

struct Slot<const W: usize> {
    stamp: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-capacity overwrite-oldest ring of `[u64; W]` records; see the
/// module docs for the protocol.
pub struct SeqRing<const W: usize> {
    /// Records ever pushed (not capped by the ring size).
    head: AtomicU64,
    slots: Box<[Slot<W>]>,
}

impl<const W: usize> SeqRing<W> {
    /// A ring of `cap` slots; `cap` must be a power of two.
    pub fn new(cap: usize) -> Self {
        assert!(cap.is_power_of_two(), "ring capacity {cap}");
        Self {
            head: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    stamp: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
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
