//! The `Reclaimer` contract of a registry cell: what `instantiate()`
//! hands back next to the structure flushes the cell's own scheme (or the
//! OrcGC domain) and reports that scheme's stats — for OrcGC, only the
//! churn since the cell was built.
//!
//! Its own test binary: the OrcGC domain is process-global, so another
//! binary's churn would land in the deltas checked here. Within it, the
//! tests that build OrcGC cells take `DOMAIN`.

use reclaim::Smr;
use std::sync::Mutex;
use structures::registry::{DynSet, Make, MatrixFilter, Reclaimer, SchemeAxis, SetCell, SETS};

static DOMAIN: Mutex<()> = Mutex::new(());

fn michael_cell(scheme: SchemeAxis) -> SetCell {
    MatrixFilter::full()
        .set_cells()
        .into_iter()
        .find(|c| c.scheme == scheme && c.structure.starts_with("MichaelList"))
        .expect("every scheme has a Michael-list cell")
}

/// Insert-delete-reinsert over a small key range: real retire traffic.
fn churn(set: &DynSet) {
    for round in 0..4 {
        for k in 0..64 {
            set.add(k + round);
        }
        for k in 0..64 {
            set.remove(&k);
        }
    }
}

#[test]
fn manual_stats_are_the_schemes_own_and_balance_after_flush() {
    if !orc_util::stats::enabled() {
        return;
    }
    for kind in reclaim::SchemeKind::ALL {
        let cell = michael_cell(SchemeAxis::Manual(kind));
        let (set, reclaimer) = cell.instantiate();
        let (idle, idle_reclaimer) = cell.instantiate();
        let Reclaimer::Manual(smr) = &reclaimer else {
            panic!("{}: manual cell without a scheme handle", cell.label());
        };
        churn(&set);
        reclaimer.flush();
        let s = reclaimer.stats();
        assert_eq!(
            s,
            smr.stats(),
            "{}: not the scheme's own stats",
            cell.label()
        );
        assert!(s.retires > 0, "{}: the churn retired nothing", cell.label());
        if kind.reclaims() {
            assert_eq!(
                s.retires,
                s.reclaims,
                "{}: unbalanced after flush",
                cell.label()
            );
        } else {
            assert_eq!(
                s.reclaims,
                0,
                "{}: the leaky baseline reclaimed",
                cell.label()
            );
        }
        // A second instance of the same cell shares nothing with the first.
        assert_eq!(
            idle_reclaimer.stats().retires,
            0,
            "{}: stats leak across instances",
            cell.label()
        );
        drop((set, idle));
    }
}

#[test]
fn orc_stats_are_the_domain_delta_since_the_cell_was_built() {
    let _domain = DOMAIN.lock().unwrap_or_else(|e| e.into_inner());
    if !orc_util::stats::enabled() {
        return;
    }
    let cell = michael_cell(SchemeAxis::Orc);

    let (before, before_reclaimer) = cell.instantiate();
    churn(&before);
    drop(before);
    before_reclaimer.flush();
    assert!(
        before_reclaimer.stats().retires > 0,
        "the first cell's churn retired nothing"
    );

    let (set, reclaimer) = cell.instantiate();
    assert!(
        matches!(reclaimer, Reclaimer::Orc(_)),
        "OrcGC cell without the domain"
    );
    assert!(
        orcgc::domain_stats().retires > 0,
        "the domain lost the first cell's churn"
    );
    assert_eq!(
        reclaimer.stats().retires,
        0,
        "the delta counts an earlier cell's churn"
    );
    churn(&set);
    drop(set);
    reclaimer.flush();
    let s = reclaimer.stats();
    assert!(s.retires > 0, "the churn retired nothing");
    assert_eq!(
        s.retires,
        s.reclaims,
        "unbalanced after flush: {}",
        s.summary()
    );
}

#[test]
fn every_cell_instantiates_with_its_own_flavour() {
    let _domain = DOMAIN.lock().unwrap_or_else(|e| e.into_inner());
    let f = MatrixFilter::full();
    let flavour = |scheme: SchemeAxis, reclaimer: &Reclaimer| match reclaimer {
        Reclaimer::Manual(smr) => scheme == SchemeAxis::Manual(smr.kind()),
        Reclaimer::Orc(_) => scheme == SchemeAxis::Orc,
    };
    for cell in f.set_cells() {
        let (set, reclaimer) = cell.instantiate();
        assert!(flavour(cell.scheme, &reclaimer), "{}", cell.label());
        drop(set);
        reclaimer.flush();
    }
    for cell in f.queue_cells() {
        let (q, reclaimer) = cell.instantiate();
        assert!(flavour(cell.scheme, &reclaimer), "{}", cell.label());
        drop(q);
        reclaimer.flush();
    }
}

#[test]
#[should_panic(expected = "flavour")]
fn a_factory_of_the_other_flavour_is_refused() {
    let cell = SetCell {
        scheme: SchemeAxis::Orc,
        structure: SETS[0].name,
        make: Make::Manual(SETS[0].make),
    };
    let _ = cell.instantiate();
}
