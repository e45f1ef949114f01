//! The registry matrix in tier-1: every (scheme × structure) cell of
//! [`MatrixFilter::full`] through the torture batteries at
//! `Config::short()` sizing, so a bare `cargo test` at the root builds
//! and churns the whole matrix instead of none of it.
//!
//! * **churn** — every set and queue cell under the leak ledger and the
//!   orc-stats quiescent contract (both asserted by the cell itself);
//! * **ABA hammer** — every set cell over an 8-key universe with per-key
//!   conservation counts;
//! * **stall** — every manual scheme against a reader parked inside
//!   `protect`, asserting its Table-1 column.
//!
//! All three go through `torture`'s self-ledgering entry points, so the
//! tests serialize cell by cell on the ledger lock and can share this
//! process. The matrix comes from the registry: a new scheme or
//! structure is swept here by registration alone.

use reclaim::{SchemeKind, StatsSnapshot};
use structures::registry::{MatrixFilter, ORC_QUEUES, ORC_SETS, QUEUES, SETS};
use torture::{
    aba_set_cell, assert_stall_profile, churn_queue_cell, churn_set_cell, stall_cell, Config,
};

#[test]
fn every_cell_churns_balanced_and_quiescent() {
    let cfg = Config::short();
    let filter = MatrixFilter::full();
    let (sets, queues) = (filter.set_cells(), filter.queue_cells());
    let mut visited = 0;
    // The cells assert their own ledger and telemetry; what they cannot
    // know is whether the sizing handed to them made them churn at all.
    let mut churned = |label: String, s: StatsSnapshot| {
        assert!(
            s.retires > 0 || !orc_util::stats::enabled(),
            "{label}: hollow churn"
        );
        visited += 1;
    };
    for cell in &sets {
        churned(cell.label(), churn_set_cell(cell, cfg.threads, cfg.iters));
    }
    for cell in &queues {
        churned(cell.label(), churn_queue_cell(cell, cfg.threads, cfg.iters));
    }
    assert_eq!(visited, sets.len() + queues.len());
    // Counted from the registry tables, not from the filter: an empty or
    // silently sliced sweep must not pass.
    assert_eq!(
        visited,
        SchemeKind::ALL.len() * (SETS.len() + QUEUES.len()) + ORC_SETS.len() + ORC_QUEUES.len(),
        "the sweep skipped registry cells"
    );
}

#[test]
fn every_set_cell_survives_the_aba_hammer() {
    let cfg = Config::short();
    for cell in MatrixFilter::full().set_cells() {
        aba_set_cell(&cell, cfg.threads, cfg.iters);
    }
}

#[test]
fn every_scheme_keeps_its_table1_profile_under_stall() {
    const WRITERS: usize = 2;
    for kind in SchemeKind::ALL {
        let r = stall_cell(kind, WRITERS, Config::short().stall_rounds);
        assert_stall_profile(kind, &r, WRITERS);
    }
}
