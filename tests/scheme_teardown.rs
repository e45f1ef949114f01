//! Teardown discipline, per (scheme × structure) cell: after a churn,
//! `flush()` must drive `unreclaimed()` to exactly 0 (the leaky
//! baseline: only at drop), and dropping the structure + the last scheme
//! handle must return every allocation — verified against the global
//! allocation ledger.
//!
//! Sweeps every manual scheme over every registered generic set, so a
//! new scheme or structure is teardown-tested by registration alone; the
//! failure message names the cell directly.

use orc_util::track::Ledger;
use orcgc_suite::prelude::*;
use structures::registry::{DynSet, Entry, SETS};

/// Churn that forces real retire traffic: insert, delete, re-insert.
fn churn(kind: SchemeKind, entry: &Entry<DynSet>) {
    let label = format!("{kind}/{}", entry.name);
    let ledger = Ledger::open();
    let smr = kind.build();
    {
        let set = (entry.make)(smr.clone());
        for round in 0..3u64 {
            for k in 0..256u64 {
                assert!(set.add(k), "{label}: add({k}) failed in round {round}");
            }
            for k in 0..256u64 {
                assert!(
                    set.remove(&k),
                    "{label}: remove({k}) failed in round {round}"
                );
            }
        }
        smr.flush();
        if kind.reclaims() {
            assert_eq!(
                smr.unreclaimed(),
                0,
                "{label}: quiescent flush must reclaim every retired node"
            );
        } else {
            // The leaky baseline holds everything until teardown. At
            // least one retired node per removal — tree-shaped structures
            // retire internal routing nodes on top.
            assert!(smr.unreclaimed() >= 3 * 256, "{label}");
        }
    }
    drop(smr);
    ledger.assert_balanced(&label);
}

#[test]
fn teardown_is_clean_for_every_cell() {
    for kind in SchemeKind::ALL {
        for entry in SETS {
            churn(kind, entry);
        }
    }
}
