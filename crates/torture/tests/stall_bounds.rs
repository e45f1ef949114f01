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
//!
//! OrcGC's row runs here too ([`orc_stall_cell`]): its gauge is the
//! process-global domain's, and this binary runs no other OrcGC code.

use reclaim::SchemeKind;
use torture::{
    assert_bounded, assert_stall_profile, bounded_ceiling, orc_stall_cell, stall_cell, Config,
};

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

/// OrcGC's row of Table 1: a victim parked inside `OrcAtomic::load`
/// holds the unlinked object it protects, and the domain's gauge stays
/// under the same rounds-independent ceiling throughout the churn, not
/// only after it. Once released, the victim reads its value intact and
/// the gauge drains to 0.
#[test]
fn orcgc_stays_bounded_under_a_stalled_reader() {
    let r = orc_stall_cell(WRITERS, rounds());
    assert_bounded(&r, WRITERS);
    assert!(
        r.stalled_flush_unreclaimed >= 1,
        "OrcGC: the object under the victim's guard was freed while it was parked"
    );
    let ceiling = bounded_ceiling(WRITERS);
    assert!(
        r.max_unreclaimed <= ceiling,
        "OrcGC: the gauge peaked at {} during the churn (ceiling {ceiling}, churned {})",
        r.max_unreclaimed,
        r.churned,
    );
}
