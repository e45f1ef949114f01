//! `ORC_POOL=0` (own process: the switch latches on first use). With the
//! pool off every block takes the global-allocator arm, where
//! `PoolSnapshot::live_slots()` is vacuously 0 — so the ledger must count
//! that arm's allocations *and* frees, objects and bytes, or a leak there
//! is invisible. Churns an MS-queue under every manual scheme and under
//! OrcGC (each cell asserts its own ledgered section balanced) and checks
//! the process view end to end.

use orc_util::{pool, track};
use structures::registry::MatrixFilter;
use torture::{churn_queue_cell, Config};

#[test]
fn orc_pool_0_ledger_balances_on_the_global_arm() {
    std::env::set_var("ORC_POOL", "0");
    assert!(!pool::enabled());
    let cfg = Config::short();
    let base = track::global().snapshot();
    let pool_base = pool::snapshot();

    let cells: Vec<_> = MatrixFilter::full()
        .queue_cells()
        .into_iter()
        .filter(|c| c.structure.starts_with("MSQueue"))
        .collect();
    let schemes = reclaim::SchemeKind::ALL.len() + 1;
    assert_eq!(cells.len(), schemes, "every SchemeKind plus OrcGC");
    for cell in &cells {
        churn_queue_cell(cell, cfg.threads, cfg.iters);
    }

    let now = track::global().snapshot();
    assert!(now.total_allocs > base.total_allocs, "nothing was counted");
    assert_eq!(now.live_objects, base.live_objects);
    assert_eq!(now.live_bytes, base.live_bytes);
    let d = pool::snapshot().since(&pool_base);
    assert_eq!(d.slot_allocs, 0, "ORC_POOL=0 must bypass the slabs: {d:?}");
    assert_eq!(d.oversize_allocs, now.total_allocs - base.total_allocs);
}
