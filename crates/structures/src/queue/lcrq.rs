//! LCRQ (Morrison & Afek, PPoPP 2013) with OrcGC segment reclamation.
//!
//! A linked list of *concurrent ring queues* (CRQs). Within a ring,
//! enqueue/dequeue are a fetch-and-add on the tail/head index plus a
//! double-word CAS on the indexed cell, which stores the pair
//! *(cell index, value)*; the `unsafe` bit in the index halve protects
//! against late enqueuers after a dequeuer has passed the cell. A ring
//! that fills (or starves) is *closed* and a fresh ring is appended
//! MS-queue style — and ring segments are exactly the allocation OrcGC
//! reclaims: `next` is an `OrcAtomic<Crq>`, head/tail ring pointers are
//! `OrcAtomic` roots, and no retire call exists anywhere.
//!
//! Values are `u64` with `u64::MAX` reserved as the EMPTY sentinel, as in
//! the original (which transfers pointers; the paper's benchmark transfers
//! `T*` tokens the same way).

// orc-lint: allow-file(seqcst, published algorithm: the paper's pseudocode assumes SC atomics and the linearizability argument quantifies over that order; see DESIGN.md §13.2)

use crate::ConcurrentQueue;
use orc_util::atomics::{AtomicU64, Ordering};
use orc_util::dwcas::{pack, unpack, AtomicU128};
use orc_util::CachePadded;
use orcgc::{make_orc, OrcAtomic};

/// Ring capacity (cells per segment). The original evaluates with 2¹⁷;
/// we default smaller so memory-bound tests stay reasonable.
pub const RING_SIZE: usize = 1024;

/// Reserved "no value" marker.
const EMPTY: u64 = u64::MAX;
/// Closed bit on the ring's tail counter.
const CLOSED: u64 = 1 << 63;
/// Unsafe bit on a cell's index half.
const UNSAFE: u64 = 1 << 63;

struct Crq {
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    next: OrcAtomic<Crq>,
    cells: Box<[AtomicU128]>,
}

enum RingEnq {
    Ok,
    Closed,
}

impl Crq {
    /// A fresh ring, optionally pre-seeded with one value (the value that
    /// caused the previous ring to close).
    fn new(first: Option<u64>) -> Self {
        let cells: Box<[AtomicU128]> = (0..RING_SIZE)
            .map(|i| AtomicU128::new(pack(EMPTY, i as u64)))
            .collect();
        let tail = match first {
            Some(v) => {
                cells[0].store(pack(v, 0));
                1
            }
            None => 0,
        };
        Self {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(tail)),
            next: OrcAtomic::null(),
            cells,
        }
    }

    #[inline]
    fn cell(&self, i: u64) -> &AtomicU128 {
        &self.cells[(i % RING_SIZE as u64) as usize]
    }

    fn enqueue(&self, x: u64) -> RingEnq {
        debug_assert_ne!(x, EMPTY);
        let mut tries = 0u32;
        loop {
            let t_raw = self.tail.fetch_add(1, Ordering::SeqCst);
            if t_raw & CLOSED != 0 {
                return RingEnq::Closed;
            }
            let t = t_raw;
            let cell = self.cell(t);
            let cur = cell.load();
            let (val, idx) = unpack(cur);
            let is_safe = idx & UNSAFE == 0;
            let i = idx & !UNSAFE;
            if val == EMPTY
                && i <= t
                && (is_safe || self.head.load(Ordering::SeqCst) <= t)
                && cell.compare_exchange(cur, pack(x, t)).1
            {
                return RingEnq::Ok;
            }
            // Cell unusable: check fullness / starvation and maybe close.
            let h = self.head.load(Ordering::SeqCst);
            tries += 1;
            if t.wrapping_sub(h) >= RING_SIZE as u64 || tries > 4 * RING_SIZE as u32 {
                self.tail.fetch_or(CLOSED, Ordering::SeqCst);
                return RingEnq::Closed;
            }
        }
    }

    fn dequeue(&self) -> Option<u64> {
        loop {
            let h = self.head.fetch_add(1, Ordering::SeqCst);
            let cell = self.cell(h);
            loop {
                let cur = cell.load();
                let (val, idx) = unpack(cur);
                let safe_bit = idx & UNSAFE;
                let i = idx & !UNSAFE;
                if i > h {
                    break; // cell already recycled past our index
                }
                if val != EMPTY {
                    if i == h {
                        // Our value: consume and advance the cell a lap.
                        if cell
                            .compare_exchange(cur, pack(EMPTY, h + RING_SIZE as u64))
                            .1
                        {
                            return Some(val);
                        }
                    } else {
                        // A value from an old lap: mark unsafe so its
                        // (late) dequeuer doesn't consume a future value.
                        if cell.compare_exchange(cur, pack(val, i | UNSAFE)).1 {
                            break;
                        }
                    }
                } else {
                    // Empty: advance the cell a lap (keeping its safety).
                    if cell
                        .compare_exchange(cur, pack(EMPTY, safe_bit | (h + RING_SIZE as u64)))
                        .1
                    {
                        break;
                    }
                }
            }
            // Is the ring (transiently) empty?
            let t = self.tail.load(Ordering::SeqCst) & !CLOSED;
            if t <= h + 1 {
                self.fix_state();
                return None;
            }
        }
    }

    /// After an over-run (head passed tail), push tail up so subsequent
    /// enqueues see consistent indices.
    fn fix_state(&self) {
        loop {
            let t = self.tail.load(Ordering::SeqCst);
            let h = self.head.load(Ordering::SeqCst);
            if self.tail.load(Ordering::SeqCst) != t {
                continue;
            }
            if h <= (t & !CLOSED) {
                return;
            }
            if self
                .tail
                .compare_exchange(t, (t & CLOSED) | h, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }
}

/// LCRQ: MS-queue of CRQ ring segments, reclaimed by OrcGC.
pub struct LcrqOrc {
    head: OrcAtomic<Crq>,
    tail: OrcAtomic<Crq>,
}

impl LcrqOrc {
    pub fn new() -> Self {
        let first = make_orc(Crq::new(None));
        Self {
            head: OrcAtomic::new(&first),
            tail: OrcAtomic::new(&first),
        }
    }

    pub fn enqueue(&self, x: u64) {
        loop {
            let ltail = self.tail.load();
            let lnext = ltail.next.load();
            if !lnext.is_null() {
                self.tail.cas(&ltail, &lnext);
                continue;
            }
            if matches!(ltail.enqueue(x), RingEnq::Ok) {
                return;
            }
            // Ring closed: append a fresh ring seeded with x.
            let fresh = make_orc(Crq::new(Some(x)));
            let null = orcgc::OrcPtr::null();
            if ltail.next.cas(&null, &fresh) {
                self.tail.cas(&ltail, &fresh);
                return;
            }
        }
    }

    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let lhead = self.head.load();
            if let Some(v) = lhead.dequeue() {
                return Some(v);
            }
            let lnext = lhead.next.load();
            if lnext.is_null() {
                return None;
            }
            // Drain race: the ring may have received values between our
            // failed dequeue and the next-pointer read.
            if let Some(v) = lhead.dequeue() {
                return Some(v);
            }
            // Ring exhausted and closed: unlink it. OrcGC collects the
            // segment once the last reader's guard drops.
            self.head.cas(&lhead, &lnext);
        }
    }
}

impl Default for LcrqOrc {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentQueue<u64> for LcrqOrc {
    fn enqueue(&self, item: u64) {
        LcrqOrc::enqueue(self, item)
    }

    fn dequeue(&self) -> Option<u64> {
        LcrqOrc::dequeue(self)
    }

    fn name(&self) -> &'static str {
        "LCRQ-OrcGC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::queue_tests;
    use std::sync::Arc;

    #[test]
    fn fifo_within_one_ring() {
        queue_tests::fifo(&LcrqOrc::new(), 100);
    }

    #[test]
    fn fifo_across_ring_boundaries() {
        let q = LcrqOrc::new();
        let n = RING_SIZE as u64 * 3 + 17;
        for i in 0..n {
            q.enqueue(i);
        }
        for i in 0..n {
            assert_eq!(q.dequeue(), Some(i), "at index {i}");
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn alternating_never_grows_rings() {
        let q = LcrqOrc::new();
        for i in 0..(RING_SIZE as u64 * 8) {
            q.enqueue(i);
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        queue_tests::mpmc_no_loss_no_dup(Arc::new(LcrqOrc::new()), 20_000);
    }

    #[test]
    fn mixed_roles() {
        queue_tests::mixed_roles(Arc::new(LcrqOrc::new()), 4, 2_000);
    }

    #[test]
    fn segment_count_stays_bounded() {
        // Run enq/deq pairs long enough to cycle rings; live segments must
        // be reclaimed: live objects don't grow with ops.
        let q = LcrqOrc::new();
        let before = orc_util::track::thread().live_objects();
        for round in 0..4 {
            for i in 0..(RING_SIZE as u64 * 2) {
                q.enqueue(round * 1_000_000 + i);
            }
            while q.dequeue().is_some() {}
        }
        orcgc::flush_thread();
        let after = orc_util::track::thread().live_objects();
        assert_eq!(after - before, 0, "ring segments are leaking");
    }
}
