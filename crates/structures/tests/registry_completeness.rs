//! Registry completeness: the guard against silent drift back to
//! hand-enumerated (structure × scheme) lists.
//!
//! Three properties:
//!
//! 1. every [`SchemeKind`] in `ALL` builds, and the built instance's
//!    `Smr::name()` agrees with the kind's;
//! 2. every registry entry's name is unique across all four tables (a
//!    duplicate would make `ORC_STRUCTS` filters and report labels
//!    ambiguous);
//! 3. every structure implementing [`SmrSet`]/[`SmrQueue`] appears in the
//!    registry — enforced by constructing each implementor *through the
//!    trait* and requiring its display name among the registry entries, so
//!    adding an impl without a registry line fails here by name.

use reclaim::{AnySmr, SchemeKind, Smr};
use structures::registry::{self, MatrixFilter, SchemeAxis};
use structures::{ConcurrentQueue, ConcurrentSet, SmrQueue, SmrSet};

#[test]
fn every_scheme_kind_builds() {
    for kind in SchemeKind::ALL {
        let smr = kind.build();
        assert_eq!(smr.name(), kind.name());
        assert_eq!(smr.kind(), kind);
        let smr = kind.build_with_threshold(32);
        assert_eq!(smr.kind(), kind);
    }
}

#[test]
fn registry_names_are_unique() {
    let names = registry::all_structure_names();
    let mut seen = std::collections::HashSet::new();
    for n in &names {
        assert!(seen.insert(n.to_ascii_lowercase()), "duplicate entry {n}");
    }
    assert_eq!(seen.len(), names.len());
}

/// The set of `SmrSet<AnySmr>` implementors, enumerated through the trait:
/// this function is the single place a new implementor must be added, and
/// forgetting *that* shows up as a missing-coverage failure the moment the
/// implementor is used anywhere else with the registry. Each name yielded
/// here must be a registry `SETS` entry.
fn smr_set_impl_names() -> Vec<&'static str> {
    fn name_of<T: SmrSet<AnySmr>>() -> &'static str {
        T::with_smr(SchemeKind::Leaky.build()).name()
    }
    vec![
        name_of::<structures::list::MichaelList<u64, AnySmr>>(),
        name_of::<structures::tree::NmTree<u64, AnySmr>>(),
    ]
}

/// Same for `SmrQueue<AnySmr>` implementors.
fn smr_queue_impl_names() -> Vec<&'static str> {
    fn name_of<T: SmrQueue<AnySmr>>() -> &'static str {
        T::with_smr(SchemeKind::Leaky.build()).name()
    }
    vec![name_of::<structures::queue::MsQueue<u64, AnySmr>>()]
}

#[test]
fn every_smr_structure_is_registered() {
    let set_entries: Vec<_> = registry::SETS.iter().map(|e| e.name).collect();
    for impl_name in smr_set_impl_names() {
        assert!(
            set_entries.contains(&impl_name),
            "{impl_name} implements SmrSet but has no registry::SETS entry"
        );
    }
    assert_eq!(
        set_entries.len(),
        smr_set_impl_names().len(),
        "registry::SETS has an entry with no known SmrSet implementor"
    );

    let queue_entries: Vec<_> = registry::QUEUES.iter().map(|e| e.name).collect();
    for impl_name in smr_queue_impl_names() {
        assert!(
            queue_entries.contains(&impl_name),
            "{impl_name} implements SmrQueue but has no registry::QUEUES entry"
        );
    }
    assert_eq!(queue_entries.len(), smr_queue_impl_names().len());
}

#[test]
fn every_cell_of_the_full_matrix_constructs_and_operates() {
    let f = MatrixFilter::full();
    for cell in f.set_cells() {
        let label = cell.label();
        let (set, reclaimer) = cell.instantiate();
        assert!(set.add(7), "{label}");
        assert!(set.contains(&7), "{label}");
        assert!(set.remove(&7), "{label}");
        drop(set);
        reclaimer.flush();
    }
    for cell in f.queue_cells() {
        let label = cell.label();
        let (q, reclaimer) = cell.instantiate();
        q.enqueue(7);
        assert_eq!(q.dequeue(), Some(7), "{label}");
        assert_eq!(q.dequeue(), None, "{label}");
        drop(q);
        reclaimer.flush();
    }
}

#[test]
fn scheme_axis_covers_manual_plus_orc() {
    assert_eq!(SchemeAxis::ALL.len(), SchemeKind::ALL.len() + 1);
    let manual: Vec<_> = SchemeAxis::ALL.iter().filter_map(|a| a.manual()).collect();
    assert_eq!(manual, SchemeKind::ALL.to_vec());
}
