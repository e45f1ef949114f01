//! The (structure × scheme) matrix as *data*.
//!
//! Every sweepable structure in the workspace is listed here exactly once:
//! manual-scheme-generic structures as factories over [`AnySmr`]
//! ([`SETS`]/[`QUEUES`]), OrcGC-annotated variants as plain constructors
//! ([`ORC_SETS`]/[`ORC_QUEUES`]). Harnesses — the torture bin and its test
//! batteries, the root equivalence/teardown tests, `orcstat` — iterate
//! these tables instead of hand-enumerating constructors, so scheme #7 or
//! structure #12 is a one-line entry here that every consumer picks up
//! automatically.
//!
//! # Slicing the matrix
//!
//! [`MatrixFilter::from_env`] reads two environment variables:
//!
//! * `ORC_SCHEMES` — comma-separated scheme names (`hp,ptb,ptp,he,
//!   adaptive,ebr,leaky|none,orc|orcgc`). `orc` selects the
//!   OrcGC-annotated rows.
//! * `ORC_STRUCTS` — comma-separated structure names (case-insensitive
//!   prefixes of the entry names, e.g. `michaellist,nmtree`).
//!
//! Unknown names fail fast with the valid list — a typo'd CI slice must
//! not silently become a no-op run.

use crate::{ConcurrentQueue, ConcurrentSet, SmrQueue, SmrSet};
use orc_util::obs::{self, OpKind};
use reclaim::{AnySmr, SchemeKind};

/// A boxed integer-keyed set (the uniform currency of the sweep path).
pub type DynSet = Box<dyn ConcurrentSet<u64>>;
/// A boxed u64 queue.
pub type DynQueue = Box<dyn ConcurrentQueue<u64>>;

/// One point on the scheme axis: a manual scheme, or the OrcGC domain.
///
/// OrcGC is not a [`SchemeKind`] — its reclamation is process-global and
/// automatic, with no `Smr` handle — but the paper's tables put it in the
/// same column set, so the sweep axis carries both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeAxis {
    /// One of the manual schemes (including the adaptive hybrid, which
    /// drives itself but still hands out an `Smr` handle like the rest).
    Manual(SchemeKind),
    /// The paper's automatic scheme (`*Orc` structure variants).
    Orc,
}

impl SchemeAxis {
    /// Every scheme, manual and automatic — the full Table-1 column set.
    pub const ALL: [SchemeAxis; 8] = [
        SchemeAxis::Manual(SchemeKind::Hp),
        SchemeAxis::Manual(SchemeKind::Ptb),
        SchemeAxis::Manual(SchemeKind::Ptp),
        SchemeAxis::Manual(SchemeKind::He),
        SchemeAxis::Manual(SchemeKind::Adaptive),
        SchemeAxis::Manual(SchemeKind::Ebr),
        SchemeAxis::Manual(SchemeKind::Leaky),
        SchemeAxis::Orc,
    ];

    /// Display name (figure legends).
    pub fn name(self) -> &'static str {
        match self {
            SchemeAxis::Manual(k) => k.name(),
            SchemeAxis::Orc => "OrcGC",
        }
    }

    /// Parses a scheme-axis name: any [`SchemeKind`] name, or
    /// `orc`/`orcgc` for the automatic scheme.
    #[allow(clippy::should_implement_trait)] // fallible-by-Option, mirrors SchemeKind::from_str
    pub fn from_str(name: &str) -> Option<SchemeAxis> {
        match name.trim().to_ascii_lowercase().as_str() {
            "orc" | "orcgc" => Some(SchemeAxis::Orc),
            other => SchemeKind::from_str(other).map(SchemeAxis::Manual),
        }
    }

    /// The manual scheme kind, if this axis point is one.
    pub fn manual(self) -> Option<SchemeKind> {
        match self {
            SchemeAxis::Manual(k) => Some(k),
            SchemeAxis::Orc => None,
        }
    }
}

impl std::fmt::Display for SchemeAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A manual-scheme-generic set: one factory covers all seven schemes.
pub struct SetEntry {
    /// The structure's display name (matches `ConcurrentSet::name`).
    pub name: &'static str,
    /// Builds the structure over the given scheme handle.
    pub make: fn(AnySmr) -> DynSet,
}

/// A manual-scheme-generic queue; see [`SetEntry`].
pub struct QueueEntry {
    /// The structure's display name (matches `ConcurrentQueue::name`).
    pub name: &'static str,
    /// Builds the structure over the given scheme handle.
    pub make: fn(AnySmr) -> DynQueue,
}

/// An OrcGC-annotated set (reclamation driven by the process-global
/// domain; no scheme handle).
pub struct OrcSetEntry {
    /// The structure's display name.
    pub name: &'static str,
    /// Builds the structure.
    pub make: fn() -> DynSet,
}

/// An OrcGC-annotated queue; see [`OrcSetEntry`].
pub struct OrcQueueEntry {
    /// The structure's display name.
    pub name: &'static str,
    /// Builds the structure.
    pub make: fn() -> DynQueue,
}

fn set_of<T: SmrSet<AnySmr>>(smr: AnySmr) -> DynSet {
    Box::new(T::with_smr(smr))
}

fn queue_of<T: SmrQueue<AnySmr>>(smr: AnySmr) -> DynQueue {
    Box::new(T::with_smr(smr))
}

/// Every manual-scheme-sweepable set. Adding a structure = implementing
/// [`SmrSet`] and adding one line here (the completeness test in
/// `tests/registry_completeness.rs` fails if the line is missing).
pub const SETS: &[SetEntry] = &[
    SetEntry {
        name: "MichaelList",
        make: set_of::<crate::list::MichaelList<u64, AnySmr>>,
    },
    SetEntry {
        name: "NMTree",
        make: set_of::<crate::tree::NmTree<u64, AnySmr>>,
    },
];

/// Every manual-scheme-sweepable queue.
pub const QUEUES: &[QueueEntry] = &[QueueEntry {
    name: "MSQueue",
    make: queue_of::<crate::queue::MsQueue<u64, AnySmr>>,
}];

/// Every OrcGC-annotated set variant.
pub const ORC_SETS: &[OrcSetEntry] = &[
    OrcSetEntry {
        name: "MichaelList-OrcGC",
        make: || Box::new(crate::list::MichaelListOrc::new()),
    },
    OrcSetEntry {
        name: "HarrisList-OrcGC",
        make: || Box::new(crate::list::HarrisListOrc::new()),
    },
    OrcSetEntry {
        name: "HSList-OrcGC",
        make: || Box::new(crate::list::HsListOrc::new()),
    },
    OrcSetEntry {
        name: "TBKPList-OrcGC",
        make: || Box::new(crate::list::TbkpListOrc::new()),
    },
    OrcSetEntry {
        name: "NMTree-OrcGC",
        make: || Box::new(crate::tree::NmTreeOrc::new()),
    },
    OrcSetEntry {
        name: "HS-skip-OrcGC",
        make: || Box::new(crate::skiplist::HsSkipListOrc::new()),
    },
    OrcSetEntry {
        name: "CRF-skip-OrcGC",
        make: || Box::new(crate::skiplist::CrfSkipListOrc::new()),
    },
];

/// Every OrcGC-annotated queue variant.
pub const ORC_QUEUES: &[OrcQueueEntry] = &[
    OrcQueueEntry {
        name: "MSQueue-OrcGC",
        make: || Box::new(crate::queue::MsQueueOrc::new()),
    },
    OrcQueueEntry {
        name: "LCRQ-OrcGC",
        make: || Box::new(crate::queue::LcrqOrc::new()),
    },
    OrcQueueEntry {
        name: "KPQueue-OrcGC",
        make: || Box::new(crate::queue::KpQueueOrc::new()),
    },
    OrcQueueEntry {
        name: "TurnQueue-OrcGC",
        make: || Box::new(crate::queue::TurnQueueOrc::new()),
    },
];

/// Every structure name in the registry, for filter validation and
/// completeness checks.
pub fn all_structure_names() -> Vec<&'static str> {
    SETS.iter()
        .map(|e| e.name)
        .chain(QUEUES.iter().map(|e| e.name))
        .chain(ORC_SETS.iter().map(|e| e.name))
        .chain(ORC_QUEUES.iter().map(|e| e.name))
        .collect()
}

/// How one set is built in a sweep cell: from a manual scheme handle, or
/// as an OrcGC variant.
pub enum MakeSet {
    /// Build over the cell's manual scheme.
    Manual(fn(AnySmr) -> DynSet),
    /// OrcGC-annotated constructor.
    Orc(fn() -> DynSet),
}

/// How one queue is built in a sweep cell; see [`MakeSet`].
pub enum MakeQueue {
    /// Build over the cell's manual scheme.
    Manual(fn(AnySmr) -> DynQueue),
    /// OrcGC-annotated constructor.
    Orc(fn() -> DynQueue),
}

/// One (scheme × set) cell of the sweep matrix.
pub struct SetCell {
    /// The scheme axis point.
    pub scheme: SchemeAxis,
    /// The structure's display name.
    pub structure: &'static str,
    /// The factory, dispatched on the scheme flavor.
    pub make: MakeSet,
}

impl SetCell {
    /// `"HP/MichaelList"`-style label for reports and assertions.
    pub fn label(&self) -> String {
        format!("{}/{}", self.scheme.name(), self.structure)
    }

    /// Builds the cell's structure, constructing a fresh scheme instance
    /// for manual cells (the structure owns the only handle). Callers
    /// needing the scheme handle afterwards — to `flush()` or read stats —
    /// should match on [`Self::make`] instead and keep a clone (and wrap
    /// the result in [`observe_set`] to keep the latency spans).
    ///
    /// The result is wrapped in the orc-obs latency span instrumentation
    /// ([`observe_set`]): every scheme × structure pair gets
    /// insert/remove/contains p50/p99/max for free.
    pub fn build(&self) -> DynSet {
        observe_set(match self.make {
            MakeSet::Manual(make) => make(self.scheme.manual().expect("manual cell").build()),
            MakeSet::Orc(make) => make(),
        })
    }
}

/// One (scheme × queue) cell of the sweep matrix.
pub struct QueueCell {
    /// The scheme axis point.
    pub scheme: SchemeAxis,
    /// The structure's display name.
    pub structure: &'static str,
    /// The factory, dispatched on the scheme flavor.
    pub make: MakeQueue,
}

impl QueueCell {
    /// `"HP/MSQueue"`-style label for reports and assertions.
    pub fn label(&self) -> String {
        format!("{}/{}", self.scheme.name(), self.structure)
    }

    /// Builds the cell's queue, wrapped in the orc-obs latency span
    /// instrumentation; see [`SetCell::build`] and [`observe_queue`].
    pub fn build(&self) -> DynQueue {
        observe_queue(match self.make {
            MakeQueue::Manual(make) => make(self.scheme.manual().expect("manual cell").build()),
            MakeQueue::Orc(make) => make(),
        })
    }
}

/// Orc-obs operation-latency instrumentation for sets: forwards every
/// op through [`obs::time_op`], which stride-samples wall-clock spans
/// into the process-wide insert/remove/contains histograms
/// (`obs::op_snapshot`). With `ORC_OBS=0` each op pays one latched
/// branch over the inner virtual call.
pub struct ObservedSet {
    inner: DynSet,
}

impl ConcurrentSet<u64> for ObservedSet {
    fn add(&self, key: u64) -> bool {
        obs::time_op(OpKind::Insert, || self.inner.add(key))
    }

    fn remove(&self, key: &u64) -> bool {
        obs::time_op(OpKind::Remove, || self.inner.remove(key))
    }

    fn contains(&self, key: &u64) -> bool {
        obs::time_op(OpKind::Contains, || self.inner.contains(key))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wraps a set with the op-latency spans; see [`ObservedSet`]. Cell
/// factories (`SetCell::build`), the bench runner, and the `orcobs`
/// dashboard all route through this, so instrumentation lives in exactly
/// one place.
pub fn observe_set(inner: DynSet) -> DynSet {
    Box::new(ObservedSet { inner })
}

/// Orc-obs operation-latency instrumentation for queues; see
/// [`ObservedSet`].
pub struct ObservedQueue {
    inner: DynQueue,
}

impl ConcurrentQueue<u64> for ObservedQueue {
    fn enqueue(&self, item: u64) {
        obs::time_op(OpKind::Enqueue, || self.inner.enqueue(item))
    }

    fn dequeue(&self) -> Option<u64> {
        obs::time_op(OpKind::Dequeue, || self.inner.dequeue())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wraps a queue with the op-latency spans; see [`observe_set`].
pub fn observe_queue(inner: DynQueue) -> DynQueue {
    Box::new(ObservedQueue { inner })
}

/// A slice of the (structure × scheme) matrix: which schemes and which
/// structures to sweep. Build the full matrix with [`MatrixFilter::full`]
/// or an environment-driven slice with [`MatrixFilter::from_env`].
#[derive(Debug, Clone)]
pub struct MatrixFilter {
    schemes: Vec<SchemeAxis>,
    /// Lowercased structure-name filter; `None` = every structure.
    structs: Option<Vec<String>>,
}

impl MatrixFilter {
    /// The whole matrix: every scheme (manual + OrcGC) × every structure.
    pub fn full() -> Self {
        Self {
            schemes: SchemeAxis::ALL.to_vec(),
            structs: None,
        }
    }

    /// Reads `ORC_SCHEMES` and `ORC_STRUCTS`; unset or empty variables
    /// select everything. Unknown names fail fast with the valid list.
    pub fn from_env() -> Result<Self, String> {
        let mut f = Self::full();
        if let Ok(spec) = std::env::var("ORC_SCHEMES") {
            let mut schemes = Vec::new();
            for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                let axis = SchemeAxis::from_str(tok).ok_or_else(|| {
                    format!(
                        "ORC_SCHEMES: unknown scheme {tok:?}; valid schemes: {}",
                        SchemeAxis::ALL
                            .map(|a| a.name().to_ascii_lowercase())
                            .join(", ")
                    )
                })?;
                if !schemes.contains(&axis) {
                    schemes.push(axis);
                }
            }
            if !schemes.is_empty() {
                f.schemes = schemes;
            }
        }
        if let Ok(spec) = std::env::var("ORC_STRUCTS") {
            let valid: Vec<String> = all_structure_names()
                .iter()
                .map(|n| n.to_ascii_lowercase())
                .collect();
            let mut structs = Vec::new();
            for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                let tok = tok.to_ascii_lowercase();
                if !valid.iter().any(|v| v.starts_with(&tok)) {
                    return Err(format!(
                        "ORC_STRUCTS: unknown structure {tok:?}; valid structures: {}",
                        valid.join(", ")
                    ));
                }
                if !structs.contains(&tok) {
                    structs.push(tok);
                }
            }
            if !structs.is_empty() {
                f.structs = Some(structs);
            }
        }
        Ok(f)
    }

    /// The selected scheme-axis points, in Table-1 order.
    pub fn schemes(&self) -> &[SchemeAxis] {
        &self.schemes
    }

    /// The selected manual scheme kinds (the OrcGC axis point filtered
    /// out), for scheme-only batteries like the stall tests.
    pub fn manual_schemes(&self) -> Vec<SchemeKind> {
        self.schemes.iter().filter_map(|a| a.manual()).collect()
    }

    /// Whether the OrcGC axis point is selected.
    pub fn includes_orc(&self) -> bool {
        self.schemes.contains(&SchemeAxis::Orc)
    }

    fn wants(&self, structure: &str) -> bool {
        match &self.structs {
            None => true,
            Some(list) => {
                let lower = structure.to_ascii_lowercase();
                list.iter().any(|tok| lower.starts_with(tok))
            }
        }
    }

    /// The selected (scheme × set) cells, schemes outermost.
    pub fn set_cells(&self) -> Vec<SetCell> {
        let mut cells = Vec::new();
        for &scheme in &self.schemes {
            match scheme {
                SchemeAxis::Manual(_) => {
                    for e in SETS.iter().filter(|e| self.wants(e.name)) {
                        cells.push(SetCell {
                            scheme,
                            structure: e.name,
                            make: MakeSet::Manual(e.make),
                        });
                    }
                }
                SchemeAxis::Orc => {
                    for e in ORC_SETS.iter().filter(|e| self.wants(e.name)) {
                        cells.push(SetCell {
                            scheme,
                            structure: e.name,
                            make: MakeSet::Orc(e.make),
                        });
                    }
                }
            }
        }
        cells
    }

    /// The selected (scheme × queue) cells, schemes outermost.
    pub fn queue_cells(&self) -> Vec<QueueCell> {
        let mut cells = Vec::new();
        for &scheme in &self.schemes {
            match scheme {
                SchemeAxis::Manual(_) => {
                    for e in QUEUES.iter().filter(|e| self.wants(e.name)) {
                        cells.push(QueueCell {
                            scheme,
                            structure: e.name,
                            make: MakeQueue::Manual(e.make),
                        });
                    }
                }
                SchemeAxis::Orc => {
                    for e in ORC_QUEUES.iter().filter(|e| self.wants(e.name)) {
                        cells.push(QueueCell {
                            scheme,
                            structure: e.name,
                            make: MakeQueue::Orc(e.make),
                        });
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim::Smr;

    #[test]
    fn entry_names_match_structure_names() {
        let smr = SchemeKind::Hp.build();
        for e in SETS {
            assert_eq!((e.make)(smr.clone()).name(), e.name);
        }
        for e in QUEUES {
            assert_eq!((e.make)(smr.clone()).name(), e.name);
        }
        for e in ORC_SETS {
            assert_eq!((e.make)().name(), e.name);
        }
        for e in ORC_QUEUES {
            assert_eq!((e.make)().name(), e.name);
        }
        orcgc::flush_thread();
    }

    #[test]
    fn full_matrix_covers_schemes_times_structures() {
        let f = MatrixFilter::full();
        assert_eq!(
            f.set_cells().len(),
            SchemeKind::ALL.len() * SETS.len() + ORC_SETS.len()
        );
        assert_eq!(
            f.queue_cells().len(),
            SchemeKind::ALL.len() * QUEUES.len() + ORC_QUEUES.len()
        );
        assert_eq!(f.manual_schemes(), SchemeKind::ALL.to_vec());
        assert!(f.includes_orc());
    }

    #[test]
    fn axis_names_roundtrip() {
        for axis in SchemeAxis::ALL {
            assert_eq!(SchemeAxis::from_str(axis.name()), Some(axis));
        }
        assert_eq!(SchemeAxis::from_str("orcgc"), Some(SchemeAxis::Orc));
        assert_eq!(SchemeAxis::from_str("bogus"), None);
    }

    #[test]
    fn manual_cells_build_under_their_scheme() {
        let f = MatrixFilter::full();
        for cell in f.set_cells() {
            match cell.make {
                MakeSet::Manual(make) => {
                    let kind = cell.scheme.manual().expect("manual cell");
                    let smr = kind.build();
                    let set = make(smr.clone());
                    assert!(set.add(1));
                    assert!(set.contains(&1));
                    assert!(set.remove(&1));
                    drop(set);
                    assert_eq!(smr.name(), kind.name());
                }
                MakeSet::Orc(make) => {
                    let set = make();
                    assert!(set.add(1));
                    assert!(set.remove(&1));
                }
            }
        }
        orcgc::flush_thread();
    }
}
