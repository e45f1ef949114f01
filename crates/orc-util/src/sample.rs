//! Sampled per thread: the one stride behind the telemetry that does not
//! pay on every call.
//!
//! Two layers sample on a fixed per-thread stride, and both count with a
//! [`Stride`]:
//!
//! * orc-obs times 1 operation in [`OP_SAMPLE_STRIDE`] into its latency
//!   spans (`obs::time_op`);
//! * the reclamation telemetry samples 1 *reclamation call* in
//!   [`SAMPLE_EVERY`] ([`draw`]) — an alloc, a retire (for OrcGC, a
//!   BRETIRED claim with the `OrcZero` before it), or a pass no retire
//!   began: a handover drain, a flush, a thread exit ([`Call`]).
//!
//! # What a reclamation call's draw decides
//!
//! A sampled call does everything the telemetry does: it reads the clock
//! once, stamps the retired object's header (the start of its
//! retire→reclaim delay), and records its trace events and those of the
//! scan / handover / cascade pass it runs. An unsampled call reads no
//! clock, leaves the header unstamped and records no trace event. The
//! counters of `stats::SchemeStats` are exact either way, and events
//! outside a reclamation call — protect retries, epoch advances, mode
//! switches, pool refills — are not sampled.
//!
//! The rule is deterministic: a thread's first call of each kind is
//! sampled, then every `SAMPLE_EVERY`-th after it. Each kind keeps its
//! own stride, so a thread that alternates allocs and retires samples
//! both. A pass keeps the decision of the call that opened it
//! ([`Pass`]), so its `ScanBegin` … `ScanEnd` bracket is whole or absent
//! even when a call inside it (an OrcGC cascade claim) draws again.
//!
//! With orc-stats and orc-trace both off there is nothing to sample and
//! no stride is kept: [`draw`] returns at its first branch.

use std::cell::Cell;

use crate::stats;
use crate::trace::{self, EventKind};

/// One reclamation call in this many is sampled, per thread and [`Call`].
pub const SAMPLE_EVERY: u64 = 64;

/// One wrapped operation in this many is timed into the obs latency
/// spans, per thread: 1 in 128 keeps the worst-case added cost on a
/// ~60 ns queue op under the 2% budget (DESIGN.md §14).
pub const OP_SAMPLE_STRIDE: u32 = 128;

/// A per-thread call counter: calls numbered 0, `every`, 2·`every`, …
/// are sampled.
pub struct Stride(Cell<u64>);

impl Stride {
    /// A stride whose next call is numbered `first` — 0 samples the
    /// thread's first call.
    pub const fn new(first: u64) -> Self {
        Self(Cell::new(first))
    }

    /// Counts one call. A sampled call gets `Some(calls)`: how many calls
    /// the sample stands for — itself and the unsampled ones since the
    /// previous sample. The others get `None`.
    #[inline]
    pub fn draw(&self, every: u64) -> Option<u64> {
        let n = self.0.get();
        self.0.set(n + 1);
        (n % every == 0).then(|| n.min(every - 1) + 1)
    }
}

/// The kinds of reclamation call, each with its own per-thread stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// A tracked allocation (its `Alloc` event).
    Alloc = 0,
    /// A retire, or an OrcGC retire claim.
    Retire = 1,
    /// A pass no retire began: a handover drain, a flush, a thread exit.
    Drain = 2,
}

thread_local! {
    static STRIDES: [Stride; 3] = const { [Stride::new(0), Stride::new(0), Stride::new(0)] };
}

/// Draws the calling thread's next `call` (see the module docs):
/// `Some(calls)` when it is sampled, as [`Stride::draw`]. Returns `None`
/// without counting when the telemetry a sample would feed is off —
/// orc-trace for allocs and drains, both layers for retires.
#[inline]
pub fn draw(call: Call) -> Option<u64> {
    let wanted = match call {
        Call::Retire => stats::enabled() || trace::enabled(),
        Call::Alloc | Call::Drain => trace::enabled(),
    };
    if !wanted {
        return None;
    }
    STRIDES.with(|s| s[call as usize].draw(SAMPLE_EVERY))
}

/// One reclamation pass's telemetry, carried through it: whether it
/// records trace events — decided once, by the call that opened it — and
/// its delay clock, read lazily and at most once.
pub struct Pass {
    traced: bool,
    clock: u64,
}

impl Pass {
    /// The pass a retire call runs. `stamp` is that call's retire stamp —
    /// its one clock read, 0 when the call was not sampled — and serves
    /// as the pass's clock.
    #[inline]
    pub fn of_retire(stamp: u64) -> Self {
        Self {
            traced: stamp != 0 && trace::enabled(),
            clock: stamp,
        }
    }

    /// A pass that is a reclamation call of its own — a handover drain, a
    /// flush, a thread exit: it draws.
    #[inline]
    pub fn drawn() -> Self {
        Self {
            traced: draw(Call::Drain).is_some(),
            clock: 0,
        }
    }

    /// Whether the pass records its trace events.
    #[inline]
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Records one of the pass's events on `tid`'s ring (the calling
    /// thread's tid) when the pass is traced.
    #[inline]
    pub fn record(&self, tid: usize, kind: EventKind, a: u64, b: u64) {
        if self.traced {
            trace::record_at(tid, kind, a, b);
        }
    }

    /// Nanoseconds from `stamp`, a freed object's retire stamp, to the
    /// pass's clock — read here, once, when the pass frees its first
    /// stamped object without a clock of its own.
    #[inline]
    pub fn since(&mut self, stamp: u64) -> u64 {
        if self.clock == 0 {
            // Once per pass (see above).
            self.clock = trace::now_ns();
        }
        self.clock.saturating_sub(stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_call_of_a_fresh_thread_is_sampled() {
        let s = Stride::new(0);
        assert_eq!(s.draw(SAMPLE_EVERY), Some(1), "stands for itself only");
        assert_eq!(s.draw(SAMPLE_EVERY), None);
        // Through the thread-local strides, on a thread nothing has drawn on.
        std::thread::spawn(|| {
            if stats::enabled() || trace::enabled() {
                assert!(draw(Call::Retire).is_some());
                assert!(draw(Call::Retire).is_none());
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn exactly_the_ceiling_of_n_over_the_stride_is_sampled() {
        for n in [1u64, 63, 64, 65, 640, 1000] {
            let s = Stride::new(0);
            let drawn: Vec<u64> = (0..n).filter_map(|_| s.draw(SAMPLE_EVERY)).collect();
            assert_eq!(drawn.len() as u64, n.div_ceil(SAMPLE_EVERY), "n = {n}");
            // The samples stand for every call up to the last sampled one.
            let last = (drawn.len() as u64 - 1) * SAMPLE_EVERY + 1;
            assert_eq!(drawn.iter().sum::<u64>(), last, "n = {n}");
        }
    }

    #[test]
    fn a_stride_started_at_one_samples_every_stride_th_call() {
        let s = Stride::new(1);
        let every = u64::from(OP_SAMPLE_STRIDE);
        let hits: Vec<u64> = (1..=4 * every)
            .filter(|_| s.draw(every).is_some())
            .collect();
        assert_eq!(hits, [every, 2 * every, 3 * every, 4 * every]);
    }

    #[test]
    fn kinds_keep_their_own_strides() {
        std::thread::spawn(|| {
            if !trace::enabled() {
                return; // allocs are only drawn for the trace
            }
            // Alternating allocs and retires still samples both kinds.
            let (mut allocs, mut retires) = (0, 0);
            for _ in 0..2 * SAMPLE_EVERY {
                allocs += draw(Call::Alloc).is_some() as u32;
                retires += draw(Call::Retire).is_some() as u32;
            }
            assert_eq!((allocs, retires), (2, 2));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_pass_reads_its_clock_once_and_only_when_it_has_none() {
        let mut p = Pass::of_retire(0);
        assert!(!p.traced(), "an unsampled retire's pass records nothing");
        let d1 = p.since(1);
        let d2 = p.since(1);
        assert_eq!(d1, d2, "one read per pass");
        let mut q = Pass::of_retire(500);
        assert_eq!(q.since(200), 300, "a sampled retire's stamp is the clock");
        assert_eq!(q.since(900), 0, "a later stamp saturates");
    }
}
