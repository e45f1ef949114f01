//! How much reclamation work one successful OrcGC remove costs.
//!
//! An `NmTreeOrc` remove's swing CAS un-counts the parent with the seek's
//! guard on it as the expected value, so the claim is held on that
//! guard's slot, and the guards drop leaf first: the parent's release
//! then frees the parent and, by cascade, the leaf in a single retire
//! pass, with nothing parked on a slot. A pass that meets a node still
//! guarded parks it there (a handover) and leaves its free to a second
//! pass. The Michael and Harris lists unlink one node per remove the same
//! way, with `cas_tagged` on the guard that found it.
//!
//! Own process: the checks read deltas of the global `domain_stats()`, and
//! nothing else in this binary touches the domain.

use orc_util::stats::StatsSnapshot;
use orcgc::{domain_stats, flush_thread};
use structures::list::{HarrisListOrc, MichaelListOrc};
use structures::tree::NmTreeOrc;
use structures::ConcurrentSet;

const KEYS: u64 = 512;
const REMOVES: u64 = KEYS / 2;

/// Distinct keys in a spread order, so the tree has some depth.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9) % 100_003
}

/// The domain's counters over `REMOVES` successful removes from a set
/// holding `KEYS` keys, on one thread.
fn removes(set: &dyn ConcurrentSet<u64>) -> StatsSnapshot {
    for i in 0..KEYS {
        assert!(set.add(key(i)));
    }
    flush_thread();
    let before = domain_stats();
    for i in 0..REMOVES {
        assert!(set.remove(&key(i)), "{}: remove {i}", set.name());
    }
    domain_stats().since(&before)
}

#[test]
fn a_single_threaded_remove_frees_what_it_unlinks_in_one_pass() {
    let cases: [(&dyn ConcurrentSet<u64>, u64); 3] = [
        (&NmTreeOrc::new(), 2),
        (&MichaelListOrc::new(), 1),
        (&HarrisListOrc::new(), 1),
    ];
    for (set, freed) in cases {
        let d = removes(set);
        if !orc_util::stats::enabled() {
            continue; // ORC_STATS=0: nothing is counted
        }
        let name = set.name();
        assert_eq!(d.scans, REMOVES, "{name}: one retire pass per remove");
        assert_eq!(
            d.handovers, 0,
            "{name}: a node parked on the remover's guard"
        );
        assert_eq!(d.reclaims, freed * REMOVES, "{name}: frees per remove");
        assert_eq!(d.retires, freed * REMOVES, "{name}");
    }
}
