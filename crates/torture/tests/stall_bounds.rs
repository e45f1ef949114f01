//! Table 1, asserted: a reader parked *inside* `protect` (protection
//! published, never released) must not break the bounded schemes'
//! unreclaimed ceiling — and must break EBR's.
//!
//! One loop over [`SchemeKind::ALL`] — the per-scheme expectation lives
//! on the kind itself ([`SchemeKind::is_bounded`], dispatched by
//! [`assert_stall_profile`]), so a new scheme is covered (and must
//! declare its Table-1 column) the moment it joins the enum.
//! [`stall_cell`] is its own ledgered section, so these also prove the
//! stall path itself leaks nothing once the victim resumes.

use reclaim::SchemeKind;
use torture::{assert_stall_profile, stall_cell, Config};

const WRITERS: usize = 2;

fn rounds() -> u64 {
    Config::short().stall_rounds
}

#[test]
fn table1_profile_for_every_scheme() {
    for kind in SchemeKind::ALL {
        let r = stall_cell(kind, WRITERS, rounds());
        assert_stall_profile(kind, &r, WRITERS);
    }
}

/// The contrast the paper's Figure 1 plots: same churn, same stall — the
/// bounded scheme's residue is a small constant, EBR's scales with the
/// churn volume.
#[test]
fn bounded_vs_unbounded_contrast() {
    let hp = stall_cell(SchemeKind::Hp, WRITERS, rounds());
    let ebr = stall_cell(SchemeKind::Ebr, WRITERS, rounds());
    assert!(
        ebr.stalled_flush_unreclaimed > 4 * hp.stalled_flush_unreclaimed.max(1),
        "expected a clear separation: HP kept {}, EBR kept {}",
        hp.stalled_flush_unreclaimed,
        ebr.stalled_flush_unreclaimed,
    );
}
