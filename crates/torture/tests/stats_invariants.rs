//! orc-stats invariants across the torture leak-ledger battery.
//!
//! The telemetry contract (see `orc_util::stats`): every scheme pairs
//! `unreclaimed += 1` with a Retire event and every `-= 1` with a
//! Reclaim event, so
//!
//! * `reclaims ≤ retires` holds at all times, and
//! * at quiescence `retires − reclaims == unreclaimed()` holds exactly.
//!
//! The per-scheme micro-tests live in `reclaim/tests/stats.rs`, and the
//! quiescent form is asserted by the cell runners themselves
//! (`churn_*_cell` check the snapshot they return as they check their own
//! ledger, so `leak_ledger.rs` sweeps it over the whole matrix). Here:
//! the live-gauge form, which needs a scheme handle the runners consume,
//! and the OrcGC domain's deltas across consecutive cells.

use orc_util::track::Ledger;
use reclaim::{SchemeKind, Smr};
use structures::registry::{MatrixFilter, SchemeAxis};
use structures::ConcurrentSet;
use torture::{churn_queue_cell, churn_set_cell, Config};

/// `retires − reclaims == unreclaimed()` checked against the live gauge:
/// the cell runners consume their scheme handle, so this test builds each
/// manual scheme directly and drives every registered set through it —
/// under the ledger like every other allocating body in this binary, so
/// its frees cannot land in a sibling test's open section.
#[test]
fn outstanding_matches_live_gauge() {
    let ledger = Ledger::open();
    for kind in SchemeKind::ALL {
        for entry in structures::registry::SETS {
            let smr = kind.build();
            {
                let set = (entry.make)(smr.clone());
                for k in 0..400u64 {
                    set.add(k % 64);
                    set.remove(&(k % 64));
                }
            }
            // Mid-quiescence (before any drain): the contract must
            // already hold — this is what catches an unpaired gauge
            // update.
            let s = smr.stats();
            assert_eq!(
                s.outstanding(),
                smr.unreclaimed() as u64,
                "{kind}/{}: snapshot disagrees with live gauge",
                entry.name
            );
            for _ in 0..400 {
                if smr.unreclaimed() == 0 {
                    break;
                }
                smr.flush();
            }
            let s = smr.stats();
            assert_eq!(
                s.outstanding(),
                smr.unreclaimed() as u64,
                "{kind}/{}",
                entry.name
            );
        }
    }
    ledger.assert_balanced("outstanding_matches_live_gauge");
}

/// OrcGC domain deltas across consecutive ledgered cells: cumulative
/// snapshots are monotone and each cell's delta balances (the ledger
/// settles only once every node of the section is freed or unretired).
/// One test, sequential: the domain is process-global and parallel orc
/// churn would pollute the deltas.
#[test]
fn orc_domain_deltas_monotone_and_balanced() {
    let cfg = Config::short();
    let filter = MatrixFilter::full();
    let mut last = orcgc::domain_stats();
    for cell in filter.set_cells() {
        if cell.scheme != SchemeAxis::Orc {
            continue;
        }
        churn_set_cell(&cell, cfg.threads, cfg.iters);
        let now = orcgc::domain_stats();
        assert!(
            now.is_monotone_since(&last),
            "{}: domain counters went backwards",
            cell.label()
        );
        last = now;
    }
    for cell in filter.queue_cells() {
        if cell.scheme != SchemeAxis::Orc {
            continue;
        }
        churn_queue_cell(&cell, cfg.threads, cfg.iters);
        let now = orcgc::domain_stats();
        assert!(
            now.is_monotone_since(&last),
            "{}: domain counters went backwards",
            cell.label()
        );
        last = now;
    }
}
