//! The adaptive hybrid's own battery: the two acceptance claims and the
//! controller's flap resistance.
//!
//! 1. **Bounded under attack** — with a reader parked inside `protect`,
//!    the stalled-flush residue stays within the Table-1 bounded ceiling
//!    (the same `assert_bounded` every pointer-based scheme passes).
//! 2. **Quiet when healthy** — a stall-free mixed read/write churn leaves
//!    the controller in era mode and the leak ledger balanced. (Its cost
//!    against EBR is `benchmark/`'s to measure, not a test's to assert.)
//! 3. **Flap-resistant** — cycles of stall-driven pressure and quiet
//!    drain move the controller Era→Pointer→Era exactly once per phase:
//!    the switch count is bounded by the cycle count, the leak ledger
//!    stays balanced, and the allocation pool drains to zero live slots.

use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::stall::{self, Gate, StallPoint};
use orc_util::track::Ledger;
use reclaim::{Adaptive, AdaptiveConfig, AdaptiveMode, SchemeKind, Smr};
use std::sync::Arc;
use std::time::Duration;
use torture::{assert_bounded, drain, stall_cell, Config};

const WRITERS: usize = 2;

/// Acceptance claim 1: under a stalled reader the adaptive scheme behaves
/// like a bounded pointer-based scheme, not like EBR. (`stall_bounds.rs`
/// already sweeps this via `SchemeKind::ALL`; this pins the claim to a
/// named test with the EBR contrast alongside.)
#[test]
fn adaptive_residue_is_bounded_under_a_stalled_reader() {
    let rounds = Config::short().stall_rounds;
    let adaptive = stall_cell(SchemeKind::Adaptive, WRITERS, rounds);
    assert_bounded(&adaptive, WRITERS);
    let ebr = stall_cell(SchemeKind::Ebr, WRITERS, rounds);
    assert!(
        ebr.stalled_flush_unreclaimed > 4 * adaptive.stalled_flush_unreclaimed.max(1),
        "expected a clear separation: Adaptive kept {}, EBR kept {}",
        adaptive.stalled_flush_unreclaimed,
        ebr.stalled_flush_unreclaimed,
    );
}

/// Shared links in the healthy-churn trial. Wide enough that a reader's
/// protect rarely races the swap on the same link — the healthy regime.
/// (A single hot link with a 100%-swap writer is the stall battery's
/// territory.)
const LINKS: usize = 64;

/// One stall-free mixed-churn trial: `WRITERS` writers swap-and-retire
/// across a strided share of [`LINKS`] links while readers protect-and-read
/// random links; then everything is drained and the links freed.
fn healthy_trial<S: Smr + Clone>(smr: &S, iters: u64) {
    let slots: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..LINKS)
            .map(|_| AtomicUsize::new(smr.alloc(1u64) as usize))
            .collect(),
    );
    std::thread::scope(|sc| {
        for w in 0..WRITERS {
            let smr = smr.clone();
            let slots = Arc::clone(&slots);
            sc.spawn(move || {
                for i in 0..iters {
                    let next = smr.alloc(i) as usize;
                    let at = (w + WRITERS * i as usize) % LINKS;
                    let old = slots[at].swap(next, Ordering::SeqCst);
                    // SAFETY: the swap unlinked `old`; retired exactly once.
                    unsafe { smr.retire(old as *mut u64) };
                }
            });
        }
        for r in 0..2usize {
            let smr = smr.clone();
            let slots = Arc::clone(&slots);
            sc.spawn(move || {
                let mut rng = orc_util::rng::XorShift64::new(0xbea7 ^ (r as u64 + 1));
                for _ in 0..iters {
                    smr.begin_op();
                    let at = rng.next_bounded(LINKS as u64) as usize;
                    let w = smr.protect(0, &slots[at]);
                    // SAFETY: slot 0 protects `w` against the writers'
                    // concurrent retire+reclaim.
                    assert!(unsafe { *(w as *const u64) } < u64::MAX);
                    smr.end_op();
                }
            });
        }
    });
    drain(smr, 400);
    for slot in slots.iter() {
        // SAFETY: all workers joined — quiescent, exclusive ownership.
        unsafe { smr.dealloc_now(slot.load(Ordering::SeqCst) as *mut u64) };
    }
}

/// Acceptance claim 2: a healthy (stall-free) run never trips the
/// controller, and it reclaims everything it retired.
#[test]
fn a_healthy_run_stays_in_era_mode_and_balances() {
    let ledger = Ledger::open();
    let adaptive = Adaptive::new();
    healthy_trial(&adaptive, 30_000);
    assert_eq!(
        adaptive.mode(),
        AdaptiveMode::Era,
        "a healthy run must not trip the controller (switches: {})",
        adaptive.switch_count()
    );
    drop(adaptive);
    ledger.assert_balanced("adaptive/healthy");
}

/// Flap resistance plus the pool-drain assertion: each pressure cycle
/// (stalled reader + unflushed churn past the watermark, then release and
/// quiet flushing) must move the controller Era→Pointer exactly once and
/// back exactly once — never oscillating inside a phase — and the whole
/// run must leave the leak ledger balanced and the slab pool with zero
/// live slots.
#[test]
fn controller_does_not_flap_under_cycling_stalls() {
    const CYCLES: usize = 3;
    // One controller sample per era tick; thresholds sized so the attack
    // phase's watermark (~threshold 512) clears `high` and the quiet
    // phase's (~flush cadence 8) stays under `low`.
    let cfg = AdaptiveConfig {
        high: 200,
        low: 16,
        window: 64,
    };
    let ledger = Ledger::open();
    {
        let smr = Adaptive::with_threshold_and_config(512, cfg);
        let shared = Arc::new(AtomicUsize::new(smr.alloc(0u64) as usize));
        for cycle in 0..CYCLES {
            assert_eq!(
                smr.mode(),
                AdaptiveMode::Era,
                "cycle {cycle} must start calm"
            );

            // -- Attack: park a reader inside `protect`, then churn well
            //    past `high` without flushing.
            let gate = Gate::new();
            let victim = {
                let smr = smr.clone();
                let shared = Arc::clone(&shared);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    stall::arm(StallPoint::Protect, gate);
                    smr.begin_op();
                    let w = smr.protect(0, &shared);
                    // SAFETY: protection was published (in whichever mode)
                    // before the node was retired; the scheme must have
                    // kept it alive across the park.
                    let seen = unsafe { *(w as *const u64) };
                    smr.end_op();
                    seen
                })
            };
            assert!(
                gate.wait_until_parked(Duration::from_secs(30)),
                "cycle {cycle}: victim never reached the injection point"
            );
            // Cycle-tagged values: the victim parked on cycle `c`'s node
            // and must read exactly `c` — anything else is a UAF or a
            // torn handoff across cycles.
            let fresh = smr.alloc(cycle as u64 + 1) as usize;
            let old = shared.swap(fresh, Ordering::SeqCst);
            // SAFETY: the swap unlinked `old`; retired exactly once.
            unsafe { smr.retire(old as *mut u64) };
            for i in 0..1_500u64 {
                let p = smr.alloc(i);
                // SAFETY: allocated above, unshared, retired once.
                unsafe { smr.retire(p) };
            }
            assert_eq!(
                smr.mode(),
                AdaptiveMode::Pointer,
                "cycle {cycle}: the attack watermark must escalate the controller"
            );

            // -- Release and drain; quiet windows must relax the
            //    controller (first window still carries the attack peak,
            //    so allow a few).
            gate.release();
            let seen = victim.join().expect("victim panicked");
            assert_eq!(
                seen, cycle as u64,
                "cycle {cycle}: victim read garbage (UAF)"
            );
            assert!(drain(&smr, 400), "cycle {cycle}: failed to drain");
            let mut spins = 0;
            while smr.mode() == AdaptiveMode::Pointer && spins < 8 {
                for i in 0..64u64 {
                    let p = smr.alloc(i);
                    // SAFETY: allocated above, unshared, retired once.
                    unsafe { smr.retire(p) };
                    if i % 8 == 0 {
                        smr.flush();
                    }
                }
                smr.flush();
                spins += 1;
            }
            assert_eq!(
                smr.mode(),
                AdaptiveMode::Era,
                "cycle {cycle}: quiet windows must relax the controller"
            );
            assert!(drain(&smr, 400), "cycle {cycle}: failed to re-drain");

            // Hysteresis bound: exactly one escalation and one relaxation
            // per cycle so far — any more is a flap.
            assert_eq!(
                smr.switch_count(),
                2 * (cycle + 1),
                "cycle {cycle}: controller flapped"
            );
        }
        let last = shared.load(Ordering::SeqCst);
        // SAFETY: quiescent — every worker joined; freed exactly once.
        unsafe { smr.dealloc_now(last as *mut u64) };
    }
    // One ledger: this is also the pool-drained check (objects, bytes).
    ledger.assert_balanced("adaptive/flap");
}
