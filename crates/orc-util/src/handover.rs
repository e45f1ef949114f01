//! Hazard slots and pass-the-pointer, written once.
//!
//! [`Slots`] is the `[MAX_THREADS][H]` matrix `hp[t][i]` every hazard
//! scheme publishes in: HP's hazards, PTB's guards, HE's era reservations,
//! both Adaptive populations, EBR's epoch pins, PTP (paper Algorithm 2)
//! and OrcGC (Algorithms 3–7). It owns the publish (an SC exchange), the
//! copy publish, the release, the pointer schemes' publish-and-revalidate
//! ([`Slots::protect`], over [`protect`]) and the one SC scan of the rows
//! up to the registered watermark, [`Slots::scan`], which [`Slots::find`]
//! and [`Slots::collect`] run on.
//!
//! [`Handover`] is that matrix with a second plane in each row: the
//! handover entries `handovers[t][i]` PTP and OrcGC park objects on, and
//! each SC step of their protocol. A retirer finds a
//! slot publishing its object and parks the object on its entry, handing
//! the free to the slot's owner; what the entry held is now the retirer's,
//! so objects only move forward. An owner drains a slot's entry after
//! releasing it, and takes every entry at exit.
//!
//! The owner may release and drain between a retirer's scan and its park.
//! So the park re-reads the slot and, if it moved, takes the entry back by
//! exchange: the object, or another retirer's later park. The two sides
//! each write one word and read the other: a publish, a drain, the park and
//! the re-read are SC, so one sees the other; an exit's exchange follows its
//! Release clear, so a later park sees the clear and an earlier one is
//! taken. A live release (Release store, SC load) can miss a park; that
//! object waits for the slot's next release or the exit. So a dead tid
//! holds nothing, and at most `t × H` objects are parked (DESIGN.md §6.1
//! item 9).

use crate::atomics::{AtomicUsize, Ordering};
use crate::stats::{Event, SchemeStats};
use crate::sync::TidRows;
use crate::trace::EventKind;
use crate::{registry, trace_event_at};

/// The `[MAX_THREADS][H]` hazard-slot matrix, one cache-padded row per
/// thread (`calloc`'d zero memory: fresh pages stay untouched until the
/// thread first publishes); row `t`'s slots are written only by thread
/// `t` and read by every scanner. A row holds `P` planes of `H` words:
/// plane 0 is the slots `hp[t][i]`, and a [`Handover`] keeps its entries
/// in plane 1, on the cache lines of the slots they belong to.
pub struct Slots<const H: usize, const P: usize = 1> {
    rows: TidRows<[[AtomicUsize; H]; P]>,
}

impl<const H: usize, const P: usize> Default for Slots<H, P> {
    fn default() -> Self {
        // SAFETY: an `AtomicUsize` (std's, or the checker's
        // `repr(transparent)` shim over it) is valid as all-zero bytes:
        // every slot released, every entry empty.
        let rows = unsafe { TidRows::zeroed() };
        Self { rows }
    }
}

impl<const H: usize, const P: usize> Slots<H, P> {
    /// The hazard slot `hp[t][i]`.
    #[inline]
    pub fn hp(&self, t: usize, i: usize) -> &AtomicUsize {
        &self.rows[t][0][i]
    }

    /// Publishes `word` in `hp[t][i]` with the SC exchange.
    #[inline]
    pub fn publish(&self, t: usize, i: usize, word: usize) {
        publish(self.hp(t, i), word);
    }

    /// Publishes a *copy* of a standing pointer protection, unmarked: a
    /// Release store, as no validation follows. The copy is ordered before
    /// the source slot's later overwrite, so an ascending scan that misses
    /// the source sees the copy.
    #[inline]
    pub fn publish_copy(&self, t: usize, i: usize, word: usize) {
        self.hp(t, i)
            .store(crate::marked::unmark(word), Ordering::Release);
    }

    /// Releases `hp[t][i]` with a Release store of 0.
    #[inline]
    pub fn release(&self, t: usize, i: usize) {
        self.hp(t, i).store(0, Ordering::Release);
    }

    /// Releases every slot of row `t`.
    #[inline]
    pub fn release_row(&self, t: usize) {
        for i in 0..H {
            self.release(t, i);
        }
    }

    /// The pointer schemes' protect: [`protect`] on `hp[t][i]`, publishing
    /// the unmarked word. The first read is only a hint: publish and
    /// re-read establish the protection, so Acquire suffices.
    #[inline]
    pub fn protect(&self, t: usize, i: usize, addr: &AtomicUsize, stats: &SchemeStats) -> usize {
        let first = addr.load(Ordering::Acquire);
        protect(self.hp(t, i), addr, first, crate::marked::unmark, t, stats)
    }

    /// The one hazard scan: reads each slot from `from` on (row-major,
    /// `cols` a row, up to the registered watermark) until `hit` accepts
    /// its word, and returns where it stopped.
    #[inline]
    pub fn scan(
        &self,
        from: (usize, usize),
        cols: usize,
        mut hit: impl FnMut(usize) -> bool,
    ) -> Option<(usize, usize)> {
        let (mut t, mut i) = from;
        let wm = registry::registered_watermark();
        while t < wm {
            let row = &self.rows[t][0][..cols];
            while i < row.len() {
                // orc-lint: allow(seqcst, scan side of the hazard SC argument; pairs with the publish xchg)
                if hit(row[i].load(Ordering::SeqCst)) {
                    return Some((t, i));
                }
                i += 1;
            }
            t += 1;
            i = 0;
        }
        None
    }

    /// The first slot from `from` on (row-major, `cols` a row, up to the
    /// registered watermark) that publishes `word`.
    #[inline]
    pub fn find(&self, word: usize, from: (usize, usize), cols: usize) -> Option<(usize, usize)> {
        self.scan(from, cols, |w| w == word)
    }

    /// Collects every nonzero published word into `out` (cleared first).
    pub fn collect(&self, out: &mut Vec<usize>) {
        out.clear();
        self.scan((0, 0), H, |w| {
            if w != 0 {
                out.push(w);
            }
            false
        });
    }
}

/// The slot matrix plus the handover entries `handovers[t][i]` PTP and
/// OrcGC park objects on.
pub type Handover<const H: usize> = Slots<H, 2>;

impl<const H: usize> Handover<H> {
    /// The handover entry `handovers[t][i]`.
    #[inline]
    pub fn entry(&self, t: usize, i: usize) -> &AtomicUsize {
        &self.rows[t][1][i]
    }

    /// Parks `parked` on `handovers[t][i]`, whose slot published
    /// `published`; returns what the entry held and what the take-back got
    /// (0 while the slot still publishes it), both the caller's to retire.
    #[inline]
    pub fn park(&self, t: usize, i: usize, parked: usize, published: usize) -> (usize, usize) {
        let entry = self.entry(t, i);
        // orc-lint: allow(seqcst, parking must be a single SC point vs the owner's drain)
        let prev = entry.swap(parked, Ordering::SeqCst);
        // orc-lint: allow(seqcst, take-back re-read: SC after the park so a release the owner's drain missed is seen here)
        if self.hp(t, i).load(Ordering::SeqCst) == published {
            return (prev, 0);
        }
        // Acquire: it may be another retirer's park.
        (prev, entry.swap(0, Ordering::Acquire))
    }

    /// What is parked on `handovers[t][i]` (0: nothing).
    #[inline]
    pub fn drain(&self, t: usize, i: usize) -> usize {
        // orc-lint: allow(seqcst, handover entries are SC-ordered against the scanner's park xchg)
        match self.entry(t, i).load(Ordering::SeqCst) {
            0 => 0,
            _ => self.take(t, i),
        }
    }

    /// Takes `handovers[t][i]` with a bare exchange, as an exit does.
    #[inline]
    pub fn take(&self, t: usize, i: usize) -> usize {
        // orc-lint: allow(seqcst, taking the parked object must be a single SC point vs the scanner)
        self.entry(t, i).swap(0, Ordering::SeqCst)
    }
}

/// Publishes `word` in a hazard slot with the SC exchange (`xchg`).
#[inline]
pub fn publish(slot: &AtomicUsize, word: usize) {
    // orc-lint: allow(seqcst, publish needs the SC xchg store-load fence)
    slot.swap(word, Ordering::SeqCst);
}

/// The publish-and-revalidate loop (Algorithm 2, lines 4–11): publish
/// `map(word)` in `slot`, re-read `addr` until stable and return that word,
/// tags included. `word` is the caller's first read of `addr`. A failed
/// validation is a `ProtectRetry` carrying the published value.
///
/// The first round is inline in the caller's hop; a failed validation
/// continues out of line (`protect_retry`), so the hop that validates
/// first try is one publish and one re-read with no call.
#[inline(always)]
pub fn protect(
    slot: &AtomicUsize,
    addr: &AtomicUsize,
    word: usize,
    map: impl Fn(usize) -> usize,
    tid: usize,
    stats: &SchemeStats,
) -> usize {
    match protect_round(slot, addr, word, &map) {
        Ok(word) => word,
        Err(cur) => protect_retry(slot, addr, word, cur, map, tid, stats),
    }
}

/// One round of [`protect`]: publishes `map(word)` and re-reads `addr`;
/// `Ok(word)` when it still holds `word`, else `Err` of what it holds.
#[inline(always)]
fn protect_round(
    slot: &AtomicUsize,
    addr: &AtomicUsize,
    word: usize,
    map: &impl Fn(usize) -> usize,
) -> Result<usize, usize> {
    publish(slot, map(word));
    // The exchange fences this load after the slot store; Acquire pairs
    // with the unlink CAS on the link.
    let cur = addr.load(Ordering::Acquire);
    if cur != word {
        return Err(cur);
    }
    crate::stall::hit(crate::stall::StallPoint::Protect);
    Ok(word)
}

/// [`protect`] after the round that published `map(word)` re-read `cur`:
/// that round's `ProtectRetry`, then rounds from `cur` until one holds.
#[cold]
#[inline(never)]
fn protect_retry(
    slot: &AtomicUsize,
    addr: &AtomicUsize,
    mut word: usize,
    mut cur: usize,
    map: impl Fn(usize) -> usize,
    tid: usize,
    stats: &SchemeStats,
) -> usize {
    loop {
        stats.bump(tid, Event::ProtectRetry);
        trace_event_at!(tid, EventKind::ProtectRetry, map(word));
        word = cur;
        match protect_round(slot, addr, word, &map) {
            Ok(word) => return word,
            Err(next) => cur = next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: usize = 0x1000;
    const Y: usize = 0x2000;

    #[test]
    fn a_park_on_a_slot_still_publishing_takes_nothing_back() {
        let m = Handover::<4>::default();
        let t = registry::tid();
        m.publish(t, 2, X);
        assert_eq!(m.find(X, (0, 0), 4), Some((t, 2)));
        assert_eq!(m.park(t, 2, X, X), (0, 0), "parked, nothing displaced");
        assert_eq!(m.park(t, 2, Y, X), (X, 0), "the earlier park is displaced");
        assert_eq!(m.entry(t, 2).load(Ordering::SeqCst), Y);
        m.release(t, 2);
        assert_eq!(m.drain(t, 2), Y);
    }

    #[test]
    fn a_park_on_a_moved_slot_takes_back_every_park() {
        let m = Handover::<4>::default();
        let t = registry::tid();
        m.publish(t, 1, X);
        // Another retirer's earlier park, then the owner's release without
        // a drain in between: both objects must come back.
        assert_eq!(m.park(t, 1, Y, X), (0, 0));
        m.release(t, 1);
        assert_eq!(m.find(X, (0, 0), 4), None);
        assert_eq!(m.park(t, 1, X, X), (Y, X), "both parks come back");
        assert_eq!(m.drain(t, 1), 0, "nothing is left parked");
    }

    #[test]
    fn release_then_take_empties_a_row() {
        let m = Handover::<4>::default();
        let t = registry::tid();
        for i in 0..4 {
            m.publish(t, i, X + i);
            assert_eq!(m.park(t, i, Y + i, X + i), (0, 0));
        }
        for i in 0..4 {
            m.release(t, i);
            assert_eq!(m.take(t, i), Y + i);
        }
        for i in 0..4 {
            assert_eq!(m.hp(t, i).load(Ordering::SeqCst), 0);
            assert_eq!(m.entry(t, i).load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn find_resumes_at_its_slot_and_stops_at_cols() {
        let m = Handover::<4>::default();
        let t = registry::tid();
        m.publish(t, 1, X);
        m.publish(t, 3, X);
        assert_eq!(m.find(X, (t, 1), 4), Some((t, 1)));
        assert_eq!(m.find(X, (t, 2), 4), Some((t, 3)));
        assert_eq!(m.find(X, (0, 0), 3), Some((t, 1)));
        assert_eq!(m.find(X, (t, 2), 3), None, "slot 3 is past cols");
    }

    #[test]
    fn collect_skips_released_slots_and_rows_above_the_watermark() {
        let m = Slots::<4>::default();
        let t = registry::tid();
        let mut v = Vec::new();
        m.publish(t, 0, X);
        m.publish(t, 3, Y);
        let above = registry::MAX_THREADS - 1;
        assert!(registry::registered_watermark() <= above);
        m.publish(above, 1, X + 1);
        m.collect(&mut v);
        v.sort_unstable();
        assert_eq!(v, [X, Y], "row {above} is above the watermark");
        m.release(t, 0);
        m.collect(&mut v);
        assert_eq!(v, [Y]);
        m.release_row(t);
        m.collect(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn protect_publishes_the_mapped_word_and_returns_the_link() {
        let slot = AtomicUsize::new(0);
        let stats = SchemeStats::new();
        let link = AtomicUsize::new(crate::marked::mark(0xAB00));
        let first = link.load(Ordering::Acquire);
        let w = protect(
            &slot,
            &link,
            first,
            crate::marked::unmark,
            registry::tid(),
            &stats,
        );
        assert!(crate::marked::is_marked(w));
        assert_eq!(slot.load(Ordering::SeqCst), 0xAB00);
        assert_eq!(
            stats.snapshot().protect_retries,
            0,
            "a stable link validates first try"
        );
    }

    #[test]
    fn protect_retries_from_a_stale_first_word() {
        let slot = AtomicUsize::new(0);
        let stats = SchemeStats::new();
        let link = AtomicUsize::new(0xCD00);
        let w = protect(&slot, &link, 0xAB00, |w| w, registry::tid(), &stats);
        assert_eq!(w, 0xCD00);
        assert_eq!(slot.load(Ordering::SeqCst), 0xCD00);
        assert_eq!(stats.snapshot().protect_retries, 1);
    }
}
