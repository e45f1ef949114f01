//! Telemetry (orc-stats) integration tests for the manual schemes.
//!
//! Exercises every scheme through a small churn and checks the snapshot is
//! populated and satisfies the quiescence invariants documented on
//! [`Smr::stats`]: `reclaims <= retires` and
//! `retires - reclaims == unreclaimed()`.

use orc_util::atomics::{AtomicPtr, Ordering};
use reclaim::{Ebr, HazardEras, HazardPointers, Leaky, PassTheBuck, PassThePointer, Smr};

/// Swap-and-retire churn through one shared location, with a protected
/// read per round, then flush to quiescence.
fn churn<S: Smr>(s: &S, rounds: u64) {
    let addr = AtomicPtr::new(s.alloc(0u64));
    for i in 0..rounds {
        s.begin_op();
        let p = s.protect_ptr(0, &addr);
        // SAFETY: slot 0 protects `p` (single-threaded churn: nothing is
        // freed out from under us anyway).
        assert!(unsafe { *p } <= i);
        s.end_op();
        let n = s.alloc(i + 1);
        let old = addr.swap(n, Ordering::SeqCst);
        // SAFETY: the swap unlinked `old`; retired exactly once.
        unsafe { s.retire(old) };
    }
    let last = addr.swap(std::ptr::null_mut(), Ordering::SeqCst);
    // SAFETY: as above — the final occupant, retired exactly once.
    unsafe { s.retire(last) };
    s.flush();
}

fn check_quiescent_invariants<S: Smr>(s: &S, rounds: u64) {
    let snap = s.stats();
    let retired = rounds + 1; // churn retires rounds swapped-out nodes + the last
    assert_eq!(snap.retires, retired, "{}: every retire counted", s.name());
    assert!(
        snap.reclaims <= snap.retires,
        "{}: reclaims {} > retires {}",
        s.name(),
        snap.reclaims,
        snap.retires
    );
    assert_eq!(
        snap.retires - snap.reclaims,
        s.unreclaimed() as u64,
        "{}: outstanding mismatch",
        s.name()
    );
    assert_eq!(snap.outstanding(), s.unreclaimed() as u64);
    assert!(
        snap.peak_unreclaimed >= snap.outstanding(),
        "{}: peak below current outstanding",
        s.name()
    );
    assert!(snap.peak_unreclaimed >= 1, "{}: peak never noted", s.name());
    // Everything the histogram accounts for was really reclaimed.
    if snap.reclaims > 0 {
        assert!(snap.batches() > 0, "{}: reclaims but no batches", s.name());
    }
}

#[test]
fn hp_stats_are_populated_and_consistent() {
    let s = HazardPointers::with_threshold(8);
    churn(&s, 64);
    check_quiescent_invariants(&s, 64);
    let snap = s.stats();
    assert_eq!(snap.reclaims, snap.retires, "HP flush drains everything");
    assert!(snap.scans >= 1);
    assert!(snap.flushes >= 1);
}

#[test]
fn ptb_stats_are_populated_and_consistent() {
    let s = PassTheBuck::with_threshold(8);
    churn(&s, 64);
    check_quiescent_invariants(&s, 64);
    let snap = s.stats();
    assert_eq!(snap.reclaims, snap.retires, "PTB flush drains everything");
    assert!(snap.scans >= 1);
}

#[test]
fn ptp_stats_are_populated_and_consistent() {
    let s = PassThePointer::new();
    churn(&s, 64);
    check_quiescent_invariants(&s, 64);
    let snap = s.stats();
    // PTP frees on the spot (single-threaded churn clears its own slots).
    assert_eq!(snap.reclaims, snap.retires);
    assert!(snap.scans >= 64, "every retire walks the matrix");
}

#[test]
fn he_stats_are_populated_and_consistent() {
    let s = HazardEras::with_threshold(8);
    churn(&s, 64);
    check_quiescent_invariants(&s, 64);
    let snap = s.stats();
    assert_eq!(snap.reclaims, snap.retires, "HE flush drains everything");
    assert!(snap.scans >= 1);
}

#[test]
fn ebr_stats_are_populated_and_consistent() {
    let s = Ebr::new();
    churn(&s, 64);
    check_quiescent_invariants(&s, 64);
    let snap = s.stats();
    assert_eq!(snap.reclaims, snap.retires, "EBR flush drains everything");
    assert!(snap.scans >= 3, "flush runs three advance+collect passes");
    assert!(snap.flushes >= 1);
}

#[test]
fn leaky_stats_count_retires_but_never_reclaims() {
    let s = Leaky::new();
    churn(&s, 16);
    check_quiescent_invariants(&s, 16);
    let snap = s.stats();
    assert_eq!(snap.reclaims, 0, "the None baseline never frees");
    assert_eq!(snap.outstanding(), 17);
    assert_eq!(snap.peak_unreclaimed, 17);
    assert!(snap.flushes >= 1, "flush pass still counted");
}

#[test]
fn ptp_handover_is_counted() {
    let s = PassThePointer::new();
    let p = s.alloc(5u32);
    let addr = AtomicPtr::new(p);
    s.protect_ptr(0, &addr);
    // Retiring while our own slot protects it parks the pointer in the
    // handover matrix — exactly one handover event.
    // SAFETY: `p` came from this scheme's `alloc`, retired once.
    unsafe { s.retire(p) };
    assert_eq!(s.stats().handovers, 1);
    assert_eq!(s.stats().outstanding(), 1);
    s.end_op(); // drains the handover, freeing the object
    assert_eq!(s.stats().outstanding(), 0);
    assert_eq!(s.unreclaimed(), 0);
}

#[test]
fn ptb_handover_is_counted() {
    let s = PassTheBuck::with_threshold(1);
    let p = s.alloc(5u32);
    let addr = AtomicPtr::new(p);
    s.protect_ptr(0, &addr);
    // SAFETY: `p` came from this scheme's `alloc`, retired once.
    unsafe { s.retire(p) }; // liberate hands p to our own guard
    assert!(s.stats().handovers >= 1);
    s.end_op();
    assert_eq!(s.stats().outstanding(), 0);
}

/// Retire→reclaim latency invariants shared by every freeing scheme:
/// the histogram never accounts for more frees than happened, and the
/// quantiles are ordered p50 ≤ p99 ≤ max.
fn check_delay_invariants<S: Smr>(s: &S) {
    let snap = s.stats();
    assert!(
        snap.delays() <= snap.reclaims,
        "{}: delay samples {} > reclaims {}",
        s.name(),
        snap.delays(),
        snap.reclaims
    );
    assert!(
        snap.delays() > 0,
        "{}: churn freed objects but recorded no delay samples",
        s.name()
    );
    let (p50, p99, max) = (snap.delay_p50(), snap.delay_p99(), snap.delay.max);
    assert!(p50 <= p99, "{}: p50 {p50} > p99 {p99}", s.name());
    assert!(p99 <= max, "{}: p99 {p99} > max {max}", s.name());
    assert!(max > 0, "{}: max delay never noted", s.name());
}

#[test]
fn reclaim_delay_histograms_populate_under_churn() {
    let hp = HazardPointers::with_threshold(8);
    churn(&hp, 64);
    check_delay_invariants(&hp);

    let ebr = Ebr::new();
    churn(&ebr, 64);
    check_delay_invariants(&ebr);

    let he = HazardEras::with_threshold(8);
    churn(&he, 64);
    check_delay_invariants(&he);

    let ptb = PassTheBuck::with_threshold(8);
    churn(&ptb, 64);
    check_delay_invariants(&ptb);

    let ptp = PassThePointer::new();
    churn(&ptp, 64);
    check_delay_invariants(&ptp);

    // The None baseline frees nothing while alive, so it must record no
    // delay samples and render the '-' placeholder.
    let leaky = Leaky::new();
    churn(&leaky, 16);
    assert_eq!(leaky.stats().delays(), 0);
    assert_eq!(leaky.stats().delay.max, 0);
}

#[test]
fn snapshot_deltas_are_monotone_across_churn() {
    let s = HazardPointers::with_threshold(8);
    let base = s.stats();
    churn(&s, 32);
    let mid = s.stats();
    assert!(mid.is_monotone_since(&base));
    churn(&s, 32);
    let end = s.stats();
    assert!(end.is_monotone_since(&mid));
    let delta = end.since(&mid);
    assert_eq!(delta.retires, 33);
    assert_eq!(delta.reclaims, 33);
}
