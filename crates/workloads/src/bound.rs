//! The Table-1 bound experiment: how many retired-but-unreclaimed objects
//! can each scheme accumulate when readers stall while holding
//! protections?
//!
//! Setup: `readers` threads each protect (and then *hold*) a pointer from
//! a shared array of `slots` locations; a writer continuously swaps fresh
//! objects in and retires the displaced ones. The maximum backlog observed
//! approximates the scheme's bound:
//!
//! * HP/PTB — per-thread retired lists ⇒ grows with the threshold × t (O(Ht²)).
//! * PTP    — no retired lists at all ⇒ stays ≤ t·(H+1) (O(Ht), linear).
//! * HE     — era reservations also protect unrelated objects ⇒ largest.
//! * EBR    — one stalled pinned reader halts reclamation ⇒ unbounded
//!   (grows with the writer's op count).
//! * OrcGC  — pass-the-pointer hand-over ⇒ linear, like PTP.

// orc-lint: allow-file(seqcst, adversary harness: the unlink swaps are the SC events the measured reclamation bound is defined against)

use orc_util::atomics::{AtomicBool, AtomicPtr, Ordering};
use orcgc::{make_orc, OrcAtomic};
use reclaim::Smr;
use std::sync::{Arc, Barrier};

/// Outcome of one adversary run.
#[derive(Debug, Clone, Copy)]
pub struct BoundResult {
    pub writer_ops: u64,
    pub max_unreclaimed: u64,
}

/// Runs the stalled-reader adversary against a manual scheme.
pub fn stalled_reader_bound<S: Smr + Clone>(
    smr: &S,
    readers: usize,
    slots: usize,
    writer_ops: u64,
) -> BoundResult {
    let shared: Arc<Vec<AtomicPtr<u64>>> = Arc::new(
        (0..slots)
            .map(|i| AtomicPtr::new(smr.alloc(i as u64)))
            .collect(),
    );
    let hold = Arc::new(AtomicBool::new(true));
    let ready = Arc::new(Barrier::new(readers + 1));
    let mut handles = Vec::new();
    for _ in 0..readers {
        let smr = smr.clone();
        let shared = shared.clone();
        let hold = hold.clone();
        let ready = ready.clone();
        handles.push(std::thread::spawn(move || {
            // EBR-style schemes stall inside an operation; pointer-based
            // schemes stall holding their hazard slots.
            smr.begin_op();
            for (idx, slot) in shared.iter().enumerate().take(reclaim::MAX_HPS) {
                let p = smr.protect_ptr(idx, slot);
                assert!(!p.is_null());
            }
            ready.wait();
            while hold.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            smr.end_op();
        }));
    }
    ready.wait();
    // Writer: swap + retire as fast as possible, recording the backlog.
    let mut max_unreclaimed = 0u64;
    for i in 0..writer_ops {
        let idx = (i as usize) % slots;
        let fresh = smr.alloc(i);
        let old = shared[idx].swap(fresh, Ordering::SeqCst);
        // SAFETY: the swap unlinked `old`; this writer is its unique
        // unlinker, so it is retired exactly once.
        unsafe { smr.retire(old) };
        max_unreclaimed = max_unreclaimed.max(smr.unreclaimed() as u64);
    }
    hold.store(false, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }
    // Cleanup.
    for slot in shared.iter() {
        let p = slot.swap(std::ptr::null_mut(), Ordering::SeqCst);
        // SAFETY: the null swap unlinked `p` exactly once; readers are
        // joined, so retire is the sole owner of the node.
        unsafe { smr.retire(p) };
    }
    smr.flush();
    BoundResult {
        writer_ops,
        max_unreclaimed,
    }
}

/// Runs the adversary for one point of the registry scheme axis: manual
/// kinds are built fresh via [`SchemeKind::build`]; the OrcGC point runs
/// [`stalled_reader_bound_orc`]. Lets callers sweep every scheme
/// (`for axis in SchemeAxis::ALL`) without naming concrete types.
///
/// [`SchemeKind::build`]: reclaim::SchemeKind::build
pub fn stalled_reader_bound_axis(
    axis: structures::registry::SchemeAxis,
    readers: usize,
    slots: usize,
    writer_ops: u64,
) -> BoundResult {
    match axis.manual() {
        Some(kind) => stalled_reader_bound(&kind.build(), readers, slots, writer_ops),
        None => stalled_reader_bound_orc(readers, slots, writer_ops),
    }
}

/// Runs the stalled-reader adversary against OrcGC: readers hold `OrcPtr`
/// guards; the writer replaces links (automatic retirement).
pub fn stalled_reader_bound_orc(readers: usize, slots: usize, writer_ops: u64) -> BoundResult {
    let shared: Arc<Vec<OrcAtomic<u64>>> = Arc::new(
        (0..slots)
            .map(|i| {
                let p = make_orc(i as u64);
                OrcAtomic::new(&p)
            })
            .collect(),
    );
    let hold = Arc::new(AtomicBool::new(true));
    let ready = Arc::new(Barrier::new(readers + 1));
    let mut handles = Vec::new();
    for _ in 0..readers {
        let shared = shared.clone();
        let hold = hold.clone();
        let ready = ready.clone();
        handles.push(std::thread::spawn(move || {
            let guards: Vec<_> = shared.iter().take(16).map(|s| s.load()).collect();
            ready.wait();
            while hold.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            drop(guards);
            orcgc::flush_thread();
        }));
    }
    ready.wait();
    // Writer: replace links, recording the backlog after each store. The
    // OrcGC domain is global, so this metric includes any concurrent
    // OrcGC activity in the process — still faithful for a dedicated
    // bench run.
    let domain = orcgc::domain();
    let mut max_unreclaimed = 0u64;
    for i in 0..writer_ops {
        let idx = (i as usize) % slots;
        let fresh = make_orc(i);
        shared[idx].store(&fresh);
        max_unreclaimed = max_unreclaimed.max(domain.unreclaimed());
    }
    hold.store(false, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }
    drop(shared);
    orcgc::flush_thread();
    BoundResult {
        writer_ops,
        max_unreclaimed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim::SchemeKind;
    use structures::registry::SchemeAxis;

    #[test]
    fn ptp_backlog_is_linear_in_threads() {
        let readers = 3;
        let r = stalled_reader_bound_axis(
            SchemeAxis::Manual(SchemeKind::Ptp),
            readers,
            reclaim::MAX_HPS,
            5_000,
        );
        let linear_bound = ((readers + 2) * (reclaim::MAX_HPS + 1)) as u64;
        assert!(
            r.max_unreclaimed <= linear_bound,
            "PTP backlog {} exceeded linear bound {}",
            r.max_unreclaimed,
            linear_bound
        );
    }

    #[test]
    fn ebr_backlog_grows_with_writer_ops() {
        let r = stalled_reader_bound_axis(SchemeAxis::Manual(SchemeKind::Ebr), 1, 4, 3_000);
        assert!(
            r.max_unreclaimed > 2_000,
            "a stalled pinned reader should block EBR reclamation (got {})",
            r.max_unreclaimed
        );
    }

    #[test]
    fn hp_backlog_stays_bounded_but_above_ptp() {
        let r = stalled_reader_bound_axis(
            SchemeAxis::Manual(SchemeKind::Hp),
            2,
            reclaim::MAX_HPS,
            5_000,
        );
        // HP defers up to its scan threshold; far below the EBR blowup.
        assert!(
            r.max_unreclaimed < 4_000,
            "HP backlog {} looks unbounded",
            r.max_unreclaimed
        );
    }

    #[test]
    fn orcgc_backlog_is_small() {
        let r = stalled_reader_bound_axis(SchemeAxis::Orc, 2, 16, 5_000);
        assert!(
            r.max_unreclaimed < 1_000,
            "OrcGC backlog {} exceeds the linear regime",
            r.max_unreclaimed
        );
    }
}
