//! Adaptive hybrid scheme: era reservations when healthy, pointer
//! publication when attacked — driven by its own unreclaimed gauge.
//!
//! The manual schemes trade read-path cost against the damage a stalled
//! reader can do (Table 1): era reservation ([`EraProtect`], HE's policy)
//! reads with two loads and a compare and *no store while the clock is
//! quiet*, but one stalled reservation pins every object alive in that
//! era — `O(#L)` residue. Pointer publication ([`Slots::protect`], HP's
//! policy) pays an `xchg` per protect but caps a stalled reader's damage
//! at `MAX_HPS` objects. Each population is a [`Slots`] matrix of its
//! own. This scheme runs the era fast path by default and switches
//! protection policy *per domain, at runtime* when its retired-but-unfreed
//! backlog says the bound is being attacked.
//!
//! # Controller
//!
//! A per-instance controller piggybacks on the retire path. Every
//! [`window`][AdaptiveConfig::window] retires it reads the scheme's own
//! unreclaimed gauge ([`RetireLedger::unreclaimed`], one relaxed load) and
//! moves through a two-state machine with hysteresis:
//!
//! ```text
//!                  unreclaimed > high
//!     Era ─────────────────────────────────────▶ Pointer
//!      ▲                                           │
//!      └───────────────────────────────────────────┘
//!       unreclaimed < low at two window closes in a row
//! ```
//!
//! Escalating takes one busy sample, relaxing two calm ones: a scan that
//! has just emptied the retired lists can make one sample read low while
//! retires keep coming, and the next sample, a window of retires later,
//! sees the lists refilled.
//!
//! It reads no telemetry, so `ORC_STATS=0` changes no transition.
//!
//! Each transition emits a `ModeSwitch{a: new_mode, b: unreclaimed}` trace event
//! and bumps [`Adaptive::switch_count`]. `high > low` (enforced at
//! construction) gives the hysteresis band that keeps the controller from
//! flapping on workloads that hover near one threshold.
//!
//! # Why mode switches need no handshake
//!
//! The scan keep-predicate is **mode-oblivious**: an object survives if
//! its value word is published in a pointer slot *or* an era reservation
//! falls inside its `[birth, del]` interval — both populations are always
//! honored, whatever the current mode. A reader that obtained protection
//! under the old mode is therefore still covered after the switch; its
//! pre-switch reservations simply drain away at its next `end_op`/`clear`
//! (which clears both populations). Era stamping (`birth` at alloc, `del`
//! at retire) and the era clock run in both modes, so coverage is
//! well-defined for every object regardless of which mode allocated,
//! protected, or retired it. No fence choreography, no grace period: the
//! "in-flight readers drain before old-mode memory is freed" property is
//! emergent from the disjunction.
//!
//! # Boundedness
//!
//! `is_bounded()` is true: even in the era fast path, a reader stalled at
//! a reservation `E` only pins objects with `birth ≤ E ≤ del` — roughly
//! the first round of retirees after the stall, since the clock keeps
//! advancing (every `ERA_FREQ` retires) and fresh churn is born *after*
//! `E`. The stall battery (crates/torture) asserts the Table-1-class
//! ceiling under attack; the controller switching to pointer mode then
//! tightens the residue further to the HP constant.

use crate::hazard::PerThread;
use crate::header::SmrHeader;
use crate::policy::{EraProtect, Eras, RetireLedger, ScanList};
use crate::scheme::{Caller, Core, Scheme};
use crate::MAX_HPS;
use orc_util::atomics::{AtomicBool, AtomicUsize, Ordering};
use orc_util::handover::Slots;
use orc_util::registry;
use orc_util::sample::Pass;
use orc_util::trace::EventKind;
use orc_util::trace_event_at;

/// How many retires between era-clock increments (same cadence as HE).
const ERA_FREQ: usize = 64;

/// Protection mode: era reservations (the fast path).
const MODE_ERA: usize = 0;
/// Protection mode: pointer publication (the bounded path).
const MODE_PTR: usize = 1;

/// Which protection policy an [`Adaptive`] domain is currently running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptiveMode {
    /// Era-reservation fast path (HE-style; default).
    Era,
    /// Pointer-publication bounded path (HP-style; under attack).
    Pointer,
}

impl AdaptiveMode {
    fn from_word(w: usize) -> Self {
        if w == MODE_PTR {
            Self::Pointer
        } else {
            Self::Era
        }
    }

    fn word(self) -> usize {
        match self {
            Self::Era => MODE_ERA,
            Self::Pointer => MODE_PTR,
        }
    }
}

/// Controller thresholds. [`Adaptive::new`] and
/// [`Adaptive::with_threshold`] run with [`AdaptiveConfig::default`];
/// [`Adaptive::with_config`] pins other values.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Escalate Era → Pointer when the unreclaimed gauge exceeds this at
    /// the close of a window (default 1024).
    pub high: u64,
    /// Relax Pointer → Era when the gauge is below this at the close of
    /// two windows in a row (default 128). Must be `< high`.
    pub low: u64,
    /// Controller sampling window, in retires (default 4096; rounded to
    /// the `ERA_FREQ` tick it piggybacks on).
    pub window: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            high: 1024,
            low: 128,
            window: 4096,
        }
    }
}

impl AdaptiveConfig {
    /// Enforces `low < high` and a nonzero window (a degenerate config
    /// must degrade to "controller never fires", not to flapping).
    fn sanitized(mut self) -> Self {
        if self.window == 0 {
            self.window = usize::MAX;
        }
        if self.low >= self.high {
            self.low = self.high.saturating_sub(1);
        }
        self
    }
}

/// Owner-thread bookkeeping: which slot indices currently hold a live
/// announcement in each population (bit `i` = slot `i`; `MAX_HPS ≤ 8`).
/// Lets `end_op`/`clear` touch only the slots an op actually used — a
/// healthy-mode op clears one era slot, not both full rows — which is
/// what keeps the fast path at EBR-class reader cost.
#[derive(Default)]
struct Hands {
    era_used: u8,
    ptr_used: u8,
}

/// The adaptive algorithm; [`Adaptive`] is its handle.
pub struct AdaptiveCore {
    eras: EraProtect,
    /// Era reservations (the fast path's population).
    reservations: Slots<MAX_HPS>,
    /// Published pointers (the bounded path's population).
    hazards: Slots<MAX_HPS>,
    /// Per-thread dirty-slot masks for the two populations.
    hands: PerThread<Hands>,
    retired: ScanList,
    ledger: RetireLedger,
    /// [`MODE_ERA`] or [`MODE_PTR`]; latched per domain by the controller.
    mode: AtomicUsize,
    /// Total Era↔Pointer transitions (flap diagnostics / tests).
    switch_count: AtomicUsize,
    /// Retires accumulated toward the next controller sample, counted in
    /// [`ERA_FREQ`] quanta on the era-tick path.
    window_retires: AtomicUsize,
    /// Whether the gauge was under `low` when the previous window closed.
    calm: AtomicBool,
    cfg: AdaptiveConfig,
}

/// Adaptive hybrid reclamation: [`EraProtect`] fast path, pointer
/// publication bounded path, controller driven by the unreclaimed gauge.
pub type Adaptive = Scheme<AdaptiveCore>;

impl Adaptive {
    pub fn new() -> Self {
        Self::with_threshold(0)
    }

    pub fn with_threshold(threshold_base: usize) -> Self {
        Self::with_threshold_and_config(threshold_base, AdaptiveConfig::default())
    }

    /// Construction with the controller thresholds pinned (tests drive
    /// the state machine with tiny windows).
    pub fn with_config(cfg: AdaptiveConfig) -> Self {
        Self::with_threshold_and_config(0, cfg)
    }

    pub fn with_threshold_and_config(threshold_base: usize, cfg: AdaptiveConfig) -> Self {
        Self::from_core(AdaptiveCore {
            eras: EraProtect::new(),
            reservations: Slots::default(),
            hazards: Slots::default(),
            hands: PerThread::new(),
            retired: ScanList::new(threshold_base),
            ledger: RetireLedger::new(),
            mode: AtomicUsize::new(MODE_ERA),
            switch_count: AtomicUsize::new(0),
            window_retires: AtomicUsize::new(0),
            calm: AtomicBool::new(false),
            cfg: cfg.sanitized(),
        })
    }

    /// The protection mode this domain is currently latched to.
    pub fn mode(&self) -> AdaptiveMode {
        // The scan honors both protection populations in every mode, so
        // mode reads are never safety-critical; Acquire is plenty.
        AdaptiveMode::from_word(self.core().mode.load(Ordering::Acquire))
    }

    /// Era↔Pointer transitions so far (flap diagnostics).
    pub fn switch_count(&self) -> usize {
        // Monotone diagnostics counter.
        self.core().switch_count.load(Ordering::Relaxed)
    }

    /// Latches the domain to `mode`, bypassing the controller — test
    /// support for interleaving the switch with readers deterministically
    /// (orc-check's handshake battery). Safe at any time: the scan
    /// honors both protection populations in every mode.
    pub fn force_mode(&self, mode: AdaptiveMode) {
        // orc-lint: allow(seqcst, test-support latch kept SC so orc-check handshake schedules see one canonical switch point)
        let prev = self.core().mode.swap(mode.word(), Ordering::SeqCst);
        if prev != mode.word() {
            // Monotone diagnostics counter.
            self.core().switch_count.fetch_add(1, Ordering::Relaxed);
            trace_event_at!(
                registry::tid(),
                EventKind::ModeSwitch,
                mode.word() as u64,
                0u64
            );
            orc_util::obs::annotate(orc_util::obs::AnnKind::ModeSwitch, mode.word() as u64);
        }
    }

    /// The controller thresholds this domain runs with.
    pub fn config(&self) -> AdaptiveConfig {
        self.core().cfg
    }
}

impl Default for Adaptive {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveCore {
    /// Unified scan: an object survives if *either* protection population
    /// covers it. Mode-oblivious by design — see the module docs on why
    /// this makes mode switches handshake-free.
    fn scan(&self, tid: usize, mut pass: Pass) {
        // SAFETY: `scan` is only called by the thread owning `tid`
        // (retire/flush path) or from the exit hook on that same thread.
        unsafe {
            self.retired.scan(
                tid,
                &self.ledger,
                &mut pass,
                |words, eras| {
                    self.hazards.collect(words);
                    self.reservations.collect(eras);
                },
                // SAFETY(closure, inherits the enclosing unsafe block):
                // headers on the retired list are live (readable) until
                // this scan frees them.
                |h, words, eras| {
                    words.binary_search(&(*h).block.value_word()).is_ok()
                        || Eras::of(h).covered_by(eras)
                },
            );
        }
    }

    /// Controller sample point, reached every [`ERA_FREQ`] retires. When
    /// a full window has accumulated, evaluate the two-state machine on
    /// the gauge as it stands.
    fn controller_tick(&self, tid: usize) {
        let acc = self.window_retires.fetch_add(ERA_FREQ, Ordering::Relaxed) + ERA_FREQ;
        if acc < self.cfg.window {
            return;
        }
        self.window_retires.store(0, Ordering::Relaxed);
        let unreclaimed = self.ledger.unreclaimed() as u64;
        let calm = unreclaimed < self.cfg.low;
        let was_calm = self.calm.swap(calm, Ordering::Relaxed);
        // Controller heuristic only — a stale mode or gauge read at worst
        // delays a transition by one window.
        if self.mode.load(Ordering::Relaxed) == MODE_ERA {
            if unreclaimed > self.cfg.high {
                self.switch(tid, MODE_ERA, MODE_PTR, unreclaimed);
            }
        } else if calm && was_calm {
            self.switch(tid, MODE_PTR, MODE_ERA, unreclaimed);
        }
    }

    fn switch(&self, tid: usize, from: usize, to: usize, unreclaimed: u64) {
        // CAS latches the transition exactly once even if two threads
        // close the same window.
        if self
            .mode
            // orc-lint: allow(seqcst, the latch transition is the single SC switch point the checker's handshake battery interleaves around)
            .compare_exchange(from, to, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            // Monotone diagnostics counter.
            self.switch_count.fetch_add(1, Ordering::Relaxed);
            trace_event_at!(tid, EventKind::ModeSwitch, to as u64, unreclaimed);
            // Obs timeline annotation: mode flips show up against the
            // sampler's unreclaimed series (DESIGN.md §14).
            orc_util::obs::annotate(orc_util::obs::AnnKind::ModeSwitch, to as u64);
        }
    }

    /// Clears exactly the slots `tid` has dirtied since its last clear,
    /// in both populations, and resets the masks. Owner-thread only.
    #[inline]
    fn clear_used(&self, tid: usize) {
        // SAFETY: owner-only per-thread state (this is only called from
        // the owner's end_op / thread-exit path).
        let hands = unsafe { self.hands.get_mut(tid) };
        let (mut e, mut p) = (hands.era_used, hands.ptr_used);
        hands.era_used = 0;
        hands.ptr_used = 0;
        while e != 0 {
            self.reservations.release(tid, e.trailing_zeros() as usize);
            e &= e - 1;
        }
        while p != 0 {
            self.hazards.release(tid, p.trailing_zeros() as usize);
            p &= p - 1;
        }
    }
}

impl Drop for AdaptiveCore {
    fn drop(&mut self) {
        self.retired.teardown();
    }
}

impl Core for AdaptiveCore {
    const NAME: &'static str = "Adaptive";
    const LOCK_FREE: bool = true;

    fn ledger(&self) -> &RetireLedger {
        &self.ledger
    }

    type Extra = Eras;

    #[inline]
    fn extra(&self) -> Eras {
        // Birth era is stamped in *both* modes: era coverage must be
        // well-defined for every object a later era-mode scan examines.
        Eras::born(self.eras.current())
    }

    fn end_op(&self, me: Caller<'_, Self>) {
        // Clears whatever the op actually announced — in either
        // population, since the op may have straddled a mode switch and
        // hold protections of both kinds.
        self.clear_used(me.tid());
    }

    #[inline]
    fn protect(&self, me: Caller<'_, Self>, idx: usize, addr: &AtomicUsize) -> usize {
        let tid = me.tid();
        // Relaxed is enough: safety never depends on which mode is
        // observed (the scan honors both populations at all times); a
        // stale read merely runs the old policy for one more op.
        if self.mode.load(Ordering::Relaxed) == MODE_ERA {
            // SAFETY: owner-only per-thread state.
            unsafe { self.hands.get_mut(tid) }.era_used |= 1 << idx;
            self.eras
                .protect(&self.reservations, tid, idx, addr, self.ledger.stats())
        } else {
            // SAFETY: owner-only per-thread state.
            unsafe { self.hands.get_mut(tid) }.ptr_used |= 1 << idx;
            self.hazards.protect(tid, idx, addr, self.ledger.stats())
        }
    }

    #[inline]
    fn publish(&self, me: Caller<'_, Self>, idx: usize, word: usize) {
        let tid = me.tid();
        if self.mode.load(Ordering::Relaxed) == MODE_ERA {
            // Reserving the current era covers every object alive now,
            // including the already-safe one being republished.
            // SAFETY: owner-only per-thread state.
            unsafe { self.hands.get_mut(tid) }.era_used |= 1 << idx;
            self.eras.reserve_now(&self.reservations, tid, idx);
        } else {
            // SAFETY: owner-only per-thread state.
            unsafe { self.hands.get_mut(tid) }.ptr_used |= 1 << idx;
            self.hazards.publish_copy(tid, idx, word);
        }
    }

    #[inline]
    fn clear(&self, me: Caller<'_, Self>, idx: usize) {
        let tid = me.tid();
        // Whichever population(s) this slot was announced in — the slot
        // may hold either kind after a mid-op mode switch.
        // SAFETY: owner-only per-thread state.
        let hands = unsafe { self.hands.get_mut(tid) };
        let bit = 1u8 << idx;
        if hands.era_used & bit != 0 {
            hands.era_used &= !bit;
            self.reservations.release(tid, idx);
        }
        if hands.ptr_used & bit != 0 {
            hands.ptr_used &= !bit;
            self.hazards.release(tid, idx);
        }
    }

    #[inline]
    unsafe fn retire(&self, tid: usize, h: *mut SmrHeader, stamp: u64) {
        // Del era is stamped in both modes (see `extra`).
        // SAFETY: `h` came from this core's `alloc`, so it carries `Eras`,
        // and it is live until this scheme destroys it, which cannot happen
        // before it lands on the retired list below.
        unsafe { Eras::of(h) }.retire_at(self.eras.current());
        // SAFETY: `tid` is the calling thread's slot; ownership of `h`
        // transfers to the retired list.
        let len = unsafe { self.retired.push(tid, h) };
        // SAFETY: owner-only tick counter.
        if unsafe { self.retired.tick(tid, ERA_FREQ) } {
            let new_era = self.eras.advance();
            trace_event_at!(tid, EventKind::EpochAdvance, new_era);
            self.controller_tick(tid);
        }
        if len >= self.retired.threshold() {
            self.scan(tid, Pass::of_retire(stamp));
        }
    }

    fn flush(&self, tid: usize) {
        self.eras.advance();
        self.scan(tid, Pass::drawn());
    }

    fn thread_exit(&self, tid: usize) {
        // Full rows, not the masks: exit must leave the rows empty no
        // matter what state the op was abandoned in.
        self.reservations.release_row(tid);
        self.hazards.release_row(tid);
        // SAFETY: exit hook runs on the owning thread.
        let hands = unsafe { self.hands.get_mut(tid) };
        hands.era_used = 0;
        hands.ptr_used = 0;
        self.scan(tid, Pass::drawn());
        // SAFETY: called by the exiting owner thread (exit hook), the only
        // remaining user of slot `tid`.
        unsafe { self.retired.orphan_all(tid) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Smr;
    use orc_util::atomics::AtomicPtr;
    use std::sync::Arc;

    #[test]
    fn starts_in_era_mode_with_sane_config() {
        let a = Adaptive::with_config(AdaptiveConfig::default());
        assert_eq!(a.mode(), AdaptiveMode::Era);
        assert_eq!(a.switch_count(), 0);
        let cfg = a.config();
        assert!(cfg.low < cfg.high);
    }

    #[test]
    fn degenerate_configs_are_sanitized() {
        let a = Adaptive::with_config(AdaptiveConfig {
            high: 10,
            low: 10,
            window: 0,
        });
        let cfg = a.config();
        assert!(cfg.low < cfg.high, "low must stay under high");
        assert_eq!(cfg.window, usize::MAX, "zero window disables sampling");
    }

    #[test]
    fn era_mode_protection_defers_free() {
        let a = Adaptive::with_threshold(1);
        let p = a.alloc(42u64);
        let addr = AtomicPtr::new(p);
        let got = a.protect_ptr(0, &addr);
        assert_eq!(got, p);
        // SAFETY: `p` came from this scheme's `alloc`, retired once.
        unsafe { a.retire(p) };
        a.flush();
        assert_eq!(a.unreclaimed(), 1, "era reservation covers [birth, del]");
        // SAFETY: our era reservation covers `p`'s lifetime interval.
        assert_eq!(unsafe { *p }, 42);
        a.end_op();
        a.flush();
        assert_eq!(a.unreclaimed(), 0);
    }

    #[test]
    fn pointer_mode_protection_defers_free() {
        let a = Adaptive::with_threshold(1);
        a.force_mode(AdaptiveMode::Pointer);
        assert_eq!(a.mode(), AdaptiveMode::Pointer);
        let p = a.alloc(7u64);
        let addr = AtomicPtr::new(p);
        let got = a.protect_ptr(0, &addr);
        assert_eq!(got, p);
        // SAFETY: `p` came from this scheme's `alloc`, retired once.
        unsafe { a.retire(p) };
        a.flush();
        assert_eq!(a.unreclaimed(), 1, "hazard slot publishes the word");
        // SAFETY: our hazard slot protects `p`.
        assert_eq!(unsafe { *p }, 7);
        a.end_op();
        a.flush();
        assert_eq!(a.unreclaimed(), 0);
    }

    #[test]
    fn era_protection_survives_a_switch_to_pointer_mode() {
        // The handshake-freedom property in miniature: protection obtained
        // in era mode must keep covering across a forced mode switch.
        let a = Adaptive::with_threshold(1);
        let p = a.alloc(11u64);
        let addr = AtomicPtr::new(p);
        a.protect_ptr(0, &addr);
        a.force_mode(AdaptiveMode::Pointer);
        // SAFETY: `p` came from this scheme's `alloc`, retired once.
        unsafe { a.retire(p) };
        a.flush();
        assert_eq!(
            a.unreclaimed(),
            1,
            "pre-switch era reservation must still be honored by the scan"
        );
        // SAFETY: the unified scan honored our era reservation.
        assert_eq!(unsafe { *p }, 11);
        a.end_op();
        a.flush();
        assert_eq!(a.unreclaimed(), 0);
        a.force_mode(AdaptiveMode::Era);
    }

    #[test]
    fn controller_escalates_and_relaxes_on_watermark() {
        // Tiny window + tiny thresholds so a single-threaded loop drives
        // the whole state machine deterministically.
        let a = Adaptive::with_threshold_and_config(
            1_000_000, // never auto-scan: let the gauge climb
            AdaptiveConfig {
                high: 100,
                low: 5,
                window: ERA_FREQ, // sample at every era tick
            },
        );
        // Climb: retire well past `high` without reclaiming.
        for i in 0..(2 * ERA_FREQ + 200) {
            let p = a.alloc(i as u64);
            // SAFETY: allocated above, unshared, retired once.
            unsafe { a.retire(p) };
        }
        assert_eq!(a.mode(), AdaptiveMode::Pointer, "watermark must escalate");
        assert_eq!(a.switch_count(), 1);
        // Drain, then push a couple of quiet windows through: relax.
        a.flush();
        assert_eq!(a.unreclaimed(), 0);
        let mut spins = 0;
        while a.mode() == AdaptiveMode::Pointer && spins < 4 {
            for i in 0..ERA_FREQ {
                let p = a.alloc(i as u64);
                // SAFETY: allocated above, unshared, retired once.
                unsafe { a.retire(p) };
                a.flush(); // keep the gauge tiny
            }
            spins += 1;
        }
        assert_eq!(a.mode(), AdaptiveMode::Era, "quiet windows must relax");
        assert_eq!(a.switch_count(), 2);
        a.flush();
    }

    #[test]
    fn concurrent_stress_with_forced_flapping() {
        let a = Arc::new(Adaptive::new());
        let addr = Arc::new(AtomicPtr::new(a.alloc(0u64)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let a = a.clone();
                let addr = addr.clone();
                std::thread::spawn(move || {
                    for i in 0..4_000u64 {
                        match t {
                            0 | 2 => {
                                let n = a.alloc(i);
                                let old = addr.swap(n, Ordering::SeqCst);
                                // SAFETY: the swap made us the unlinker;
                                // each object is retired by exactly one
                                // thread.
                                unsafe { a.retire(old) };
                            }
                            1 => {
                                let p = a.protect_ptr(0, &addr);
                                // SAFETY: whichever mode protected `p`,
                                // the unified scan honors it.
                                assert!(unsafe { *p } < 4_000);
                                a.end_op();
                            }
                            _ => {
                                // Adversarial flapper: switch modes under
                                // the readers' and writers' feet.
                                a.force_mode(if i % 2 == 0 {
                                    AdaptiveMode::Pointer
                                } else {
                                    AdaptiveMode::Era
                                });
                                std::thread::yield_now();
                            }
                        }
                    }
                    // Leave the domain in the default mode.
                    a.force_mode(AdaptiveMode::Era);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let last = addr.load(Ordering::SeqCst);
        // SAFETY: all threads joined; `last` is the one live object and is
        // retired exactly once.
        unsafe { a.retire(last) };
        a.flush();
        assert_eq!(a.unreclaimed(), 0);
    }
}
