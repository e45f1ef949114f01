//! Checked micro-protocols for every manual reclamation scheme.
//!
//! Each test runs a two-thread protect-vs-retire race under exhaustive
//! interleaving exploration (preemption bound from `ORC_CHECK_*`, default
//! 2). The assertions are mostly implicit: the shadow heap flags any
//! use-after-reclaim, double-retire or leak-at-quiescence the scheme lets
//! through, so a passing exploration *is* the theorem — "no interleaving
//! within the bound reaches a reclaimed node through a protected pointer".

use check::{explore, quiet_stats, spawn, Config, Report};
use orc_util::atomics::{AtomicU64, AtomicUsize, Ordering};
use reclaim::{Adaptive, AdaptiveMode, SchemeKind, Smr};
use std::sync::{Arc, Once};

/// Silences telemetry and, once per process, raises the registry's tid
/// watermark with two live threads, as many as any model here runs.
/// Every hazard-slot scan (`Slots::scan`) walks the rows below that
/// watermark, so without this a model that runs first explores other
/// schedules than one that runs after another model raised it
/// (`ptp_retire_racing_a_protector_s_exit_leaves_nothing_parked` read 217
/// schedules alone and 575 in the whole binary). The threads are joined,
/// so no test thread keeps a tid that model threads would have to claim
/// around.
fn warm_schemes() {
    static WARM: Once = Once::new();
    quiet_stats();
    WARM.call_once(|| {
        std::thread::spawn(|| {
            orc_util::registry::tid();
            std::thread::spawn(orc_util::registry::tid)
                .join()
                .expect("warm-up thread panicked");
        })
        .join()
        .expect("warm-up thread panicked");
    });
}

/// The core race: a writer swaps out the shared node, retires and flushes
/// it while the reader tries to protect-then-read it. With `protect_first`
/// the reader publishes its protection *before* the writer exists, so the
/// scheme must keep the first node alive across retire+flush (the HP/HE
/// publication guarantee and the EBR pin guarantee); without it, the
/// protection itself races the retirement.
fn protect_vs_retire(kind: SchemeKind, protect_first: bool) -> Report {
    warm_schemes();
    explore(Config::from_env(), move || {
        let smr = Arc::new(kind.build_with_threshold(1));
        let first = smr.alloc(AtomicU64::new(1)) as usize;
        let shared = Arc::new(AtomicUsize::new(first));

        let mut held = 0usize;
        if protect_first {
            smr.begin_op();
            held = smr.protect(0, &shared);
            assert_eq!(held, first, "no writer exists yet");
        }

        let writer = {
            let (smr, shared) = (Arc::clone(&smr), Arc::clone(&shared));
            spawn(move || {
                let fresh = smr.alloc(AtomicU64::new(2)) as usize;
                let old = shared.swap(fresh, Ordering::SeqCst);
                // SAFETY: `old` came out of `smr.alloc` and was just
                // unlinked by the swap; this thread retires it once.
                unsafe { smr.retire(old as *mut AtomicU64) };
                smr.flush();
            })
        };

        if !protect_first {
            smr.begin_op();
            held = smr.protect(0, &shared);
        }
        // SAFETY: `held` is protected by slot 0 (validated against the
        // live link), so the scheme must not have reclaimed it. The shadow
        // heap turns any violation into a checker failure.
        let v = unsafe { &*(held as *const AtomicU64) }.load(Ordering::SeqCst);
        assert!(v == 1 || v == 2, "unexpected value {v}");
        smr.clear(0);
        smr.end_op();

        writer.join();
        let last = shared.load(Ordering::SeqCst);
        // SAFETY: quiescent; `last` is the surviving allocation, retired
        // exactly once here. Dropping `smr` (the only Arc left) then
        // reclaims everything still parked, which the leak oracle checks.
        unsafe { smr.retire(last as *mut AtomicU64) };
    })
    .unwrap_or_else(|f| panic!("{kind} protect-vs-retire failed:\n{f}"))
}

#[test]
fn protect_vs_retire_is_safe_under_every_scheme() {
    for kind in SchemeKind::ALL {
        let report = protect_vs_retire(kind, false);
        assert!(
            !report.truncated,
            "{kind}: config must exhaust this protocol"
        );
        assert!(report.schedules > 1, "{kind}: nothing was explored");
    }
}

/// HP-style publication, EBR pinning and HE era publication all promise the
/// same thing once the protection is established before the retirer starts:
/// the node outlives any retire+flush. Run the established-protection
/// variant for the three schemes whose mechanism differs most.
#[test]
fn established_protection_survives_retire_and_flush() {
    for kind in [SchemeKind::Hp, SchemeKind::Ebr, SchemeKind::He] {
        let report = protect_vs_retire(kind, true);
        assert!(
            !report.truncated,
            "{kind}: config must exhaust this protocol"
        );
    }
}

/// PTP's distinguishing move: retiring an object some other thread is
/// protecting *hands it over* to that thread's handover entry instead of
/// queueing it. The protecting thread's `clear` must then drain the parked
/// object — in every interleaving, quiescence ends with zero unreclaimed.
#[test]
fn ptp_handover_parks_on_protector_and_drains_on_clear() {
    warm_schemes();
    let report = explore(Config::from_env(), || {
        let smr = Arc::new(SchemeKind::Ptp.build_with_threshold(1));
        let node = smr.alloc(AtomicU64::new(7)) as usize;
        let shared = Arc::new(AtomicUsize::new(node));

        // Establish protection before the writer exists: the retire below
        // is forced to either see the hazard (and park the node in our
        // handover entry) or run after our clear (and delete directly).
        smr.begin_op();
        let p = smr.protect(0, &shared);
        assert_eq!(p, node);

        let writer = {
            let (smr, shared) = (Arc::clone(&smr), Arc::clone(&shared));
            spawn(move || {
                let old = shared.swap(0, Ordering::SeqCst);
                // SAFETY: `old` was just unlinked; retired exactly once.
                unsafe { smr.retire(old as *mut AtomicU64) };
            })
        };

        // SAFETY: protected by slot 0; the shadow heap enforces it.
        let v = unsafe { &*(p as *const AtomicU64) }.load(Ordering::SeqCst);
        assert_eq!(v, 7);
        smr.clear(0); // drains our handover entry if the retire parked there
        smr.end_op();
        writer.join();
        assert_eq!(
            smr.unreclaimed(),
            0,
            "a parked handover must drain on clear (or the retire deleted directly)"
        );
    })
    .unwrap_or_else(|f| panic!("ptp handover failed:\n{f}"));
    assert!(
        !report.truncated,
        "config must exhaust the handover protocol"
    );
}

/// A dead tid holds nothing: a protector publishes, reads, clears and
/// exits while this thread unlinks and retires the object. A retire that
/// read the hazard before the clear parks the object after the
/// protector's drain, or after its exit took every entry of its row, and
/// then no slot publishes it any more, so the retirer's re-read takes it
/// back and deletes it. No thread inherits the dead tid and nothing is
/// flushed, yet nothing is left unreclaimed. The protector must publish
/// before the unlink and release between the scan and the park: three
/// preemptions, so it runs at bound 3 at least.
#[test]
fn ptp_retire_racing_a_protector_s_exit_leaves_nothing_parked() {
    warm_schemes();
    let mut cfg = Config::from_env();
    cfg.preemption_bound = cfg.preemption_bound.max(3);
    let report = explore(cfg, || {
        let smr = Arc::new(SchemeKind::Ptp.build_with_threshold(1));
        let node = smr.alloc(AtomicU64::new(7)) as usize;
        let shared = Arc::new(AtomicUsize::new(node));

        let protector = {
            let (smr, shared) = (Arc::clone(&smr), Arc::clone(&shared));
            spawn(move || {
                smr.begin_op();
                let p = smr.protect(0, &shared);
                if p != 0 {
                    // SAFETY: protected by slot 0; the shadow heap
                    // enforces it.
                    let v = unsafe { &*(p as *const AtomicU64) }.load(Ordering::SeqCst);
                    assert_eq!(v, 7);
                }
                smr.clear(0);
                smr.end_op();
            })
        };

        let old = shared.swap(0, Ordering::SeqCst);
        // SAFETY: `old` was just unlinked; retired exactly once.
        unsafe { smr.retire(old as *mut AtomicU64) };
        protector.join();
        assert_eq!(
            smr.unreclaimed(),
            0,
            "a park that lost the race with the protector's release stays on its dead tid"
        );
    })
    .unwrap_or_else(|f| panic!("ptp protector exit failed:\n{f}"));
    assert!(!report.truncated, "config must exhaust the exit race");
    assert!(report.schedules > 1, "nothing was explored");
}

/// The adaptive scheme's reader-drain guarantee, checked exhaustively: a
/// reader that established protection under one mode keeps it across a
/// concurrent mode switch, because the scan honors both protection
/// populations at all times (there is no drain handshake to get wrong).
/// The switch, the retire+flush, and the reader's dereference race in
/// every interleaving within the bound; the shadow heap flags any
/// use-after-reclaim a switch lets slip through.
fn adaptive_switch_vs_reader(from: AdaptiveMode, to: AdaptiveMode) -> Report {
    warm_schemes();
    explore(Config::from_env(), move || {
        let smr = Arc::new(Adaptive::with_threshold(1));
        smr.force_mode(from);
        let node = smr.alloc(AtomicU64::new(9)) as usize;
        let shared = Arc::new(AtomicUsize::new(node));

        // Establish protection under `from` before the switcher exists.
        smr.begin_op();
        let p = smr.protect(0, &shared);
        assert_eq!(p, node, "no writer exists yet");

        let switcher = {
            let (smr, shared) = (Arc::clone(&smr), Arc::clone(&shared));
            spawn(move || {
                // Flip the domain's mode, then retire and reclaim under
                // the *new* mode — the adversarial order for a scheme
                // whose scan forgot the old population.
                smr.force_mode(to);
                let old = shared.swap(0, Ordering::SeqCst);
                // SAFETY: `old` was just unlinked; retired exactly once.
                unsafe { smr.retire(old as *mut AtomicU64) };
                smr.flush();
            })
        };

        // SAFETY: protection was established under `from` and must
        // survive the switch; the shadow heap enforces it.
        let v = unsafe { &*(p as *const AtomicU64) }.load(Ordering::SeqCst);
        assert_eq!(v, 9);
        smr.clear(0);
        smr.end_op();
        switcher.join();
        // With the old-mode reader drained, the retired node must now be
        // reclaimable under the new mode.
        smr.flush();
        assert_eq!(
            smr.unreclaimed(),
            0,
            "old-mode protection must release cleanly after the switch"
        );
    })
    .unwrap_or_else(|f| panic!("adaptive {from:?}→{to:?} switch-vs-reader failed:\n{f}"))
}

#[test]
fn adaptive_mode_switch_never_frees_under_an_old_mode_reader() {
    for (from, to) in [
        (AdaptiveMode::Era, AdaptiveMode::Pointer),
        (AdaptiveMode::Pointer, AdaptiveMode::Era),
    ] {
        let report = adaptive_switch_vs_reader(from, to);
        assert!(
            !report.truncated,
            "{from:?}→{to:?}: config must exhaust this protocol"
        );
        assert!(
            report.schedules > 1,
            "{from:?}→{to:?}: nothing was explored"
        );
    }
}

/// PTB value recycling: the buck slots and retired values go through two
/// full generations while a reader holds a protection, so a slot freed in
/// round one is re-armed in round two. The shadow heap catches the classic
/// recycling bug (reclaiming the round-one value while the reader still
/// dereferences it).
#[test]
fn ptb_value_recycling_is_safe_across_generations() {
    warm_schemes();
    let report = explore(Config::from_env(), || {
        let smr = Arc::new(SchemeKind::Ptb.build_with_threshold(1));
        let first = smr.alloc(AtomicU64::new(1)) as usize;
        let shared = Arc::new(AtomicUsize::new(first));

        let writer = {
            let (smr, shared) = (Arc::clone(&smr), Arc::clone(&shared));
            spawn(move || {
                for gen in 2..4u64 {
                    let fresh = smr.alloc(AtomicU64::new(gen)) as usize;
                    let old = shared.swap(fresh, Ordering::SeqCst);
                    // SAFETY: `old` was just unlinked; retired exactly once.
                    unsafe { smr.retire(old as *mut AtomicU64) };
                    smr.flush();
                }
            })
        };

        smr.begin_op();
        let p = smr.protect(0, &shared);
        // SAFETY: protected by slot 0; the shadow heap enforces it.
        let v = unsafe { &*(p as *const AtomicU64) }.load(Ordering::SeqCst);
        assert!((1..4).contains(&v), "unexpected value {v}");
        smr.clear(0);
        smr.end_op();

        writer.join();
        let last = shared.load(Ordering::SeqCst);
        // SAFETY: quiescent; the surviving allocation, retired once.
        unsafe { smr.retire(last as *mut AtomicU64) };
    })
    .unwrap_or_else(|f| panic!("ptb recycling failed:\n{f}"));
    assert!(
        !report.truncated,
        "config must exhaust the recycling protocol"
    );
}
