//! The (structure × scheme) matrix as *data*.
//!
//! Every sweepable structure in the workspace is listed here exactly once:
//! manual-scheme-generic structures as factories over [`AnySmr`]
//! ([`SETS`]/[`QUEUES`]), OrcGC-annotated variants as plain constructors
//! ([`ORC_SETS`]/[`ORC_QUEUES`]). Harnesses — the torture bin and its test
//! batteries, the root equivalence/teardown tests, `orctel stat` — iterate
//! these tables instead of hand-enumerating constructors, so scheme #7 or
//! structure #12 is a one-line entry here that every consumer picks up
//! automatically.
//!
//! A harness turns a [`Cell`] into its structure and its [`Reclaimer`]
//! with [`Cell::instantiate`], then flushes, reads stats and registers
//! orc-obs sources through the reclaimer. The factory's flavour — manual
//! scheme or OrcGC domain — is matched on here and nowhere else.
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
use reclaim::{AnySmr, SchemeKind, Smr, StatsSnapshot};

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

    /// Whether the scheme frees memory before teardown (everything but
    /// the leaky baseline).
    pub fn reclaims(self) -> bool {
        self.manual().is_none_or(SchemeKind::reclaims)
    }
}

impl std::fmt::Display for SchemeAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A manual-scheme-generic structure: one factory covers all seven
/// schemes.
pub struct Entry<D> {
    /// The structure's display name (matches its `name()`).
    pub name: &'static str,
    /// Builds the structure over the given scheme handle.
    pub make: fn(AnySmr) -> D,
}

/// An OrcGC-annotated structure (reclamation driven by the process-global
/// domain; no scheme handle).
pub struct OrcEntry<D> {
    /// The structure's display name.
    pub name: &'static str,
    /// Builds the structure.
    pub make: fn() -> D,
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
pub const SETS: &[Entry<DynSet>] = &[
    Entry {
        name: "MichaelList",
        make: set_of::<crate::list::MichaelList<u64, AnySmr>>,
    },
    Entry {
        name: "NMTree",
        make: set_of::<crate::tree::NmTree<u64, AnySmr>>,
    },
];

/// Every manual-scheme-sweepable queue.
pub const QUEUES: &[Entry<DynQueue>] = &[Entry {
    name: "MSQueue",
    make: queue_of::<crate::queue::MsQueue<u64, AnySmr>>,
}];

/// Every OrcGC-annotated set variant.
pub const ORC_SETS: &[OrcEntry<DynSet>] = &[
    OrcEntry {
        name: "MichaelList-OrcGC",
        make: || Box::new(crate::list::MichaelListOrc::new()),
    },
    OrcEntry {
        name: "HarrisList-OrcGC",
        make: || Box::new(crate::list::HarrisListOrc::new()),
    },
    OrcEntry {
        name: "HSList-OrcGC",
        make: || Box::new(crate::list::HsListOrc::new()),
    },
    OrcEntry {
        name: "TBKPList-OrcGC",
        make: || Box::new(crate::list::TbkpListOrc::new()),
    },
    OrcEntry {
        name: "NMTree-OrcGC",
        make: || Box::new(crate::tree::NmTreeOrc::new()),
    },
    OrcEntry {
        name: "HS-skip-OrcGC",
        make: || Box::new(crate::skiplist::HsSkipListOrc::new()),
    },
    OrcEntry {
        name: "CRF-skip-OrcGC",
        make: || Box::new(crate::skiplist::CrfSkipListOrc::new()),
    },
];

/// Every OrcGC-annotated queue variant.
pub const ORC_QUEUES: &[OrcEntry<DynQueue>] = &[
    OrcEntry {
        name: "MSQueue-OrcGC",
        make: || Box::new(crate::queue::MsQueueOrc::new()),
    },
    OrcEntry {
        name: "LCRQ-OrcGC",
        make: || Box::new(crate::queue::LcrqOrc::new()),
    },
    OrcEntry {
        name: "KPQueue-OrcGC",
        make: || Box::new(crate::queue::KpQueueOrc::new()),
    },
    OrcEntry {
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

/// How one structure is built in a sweep cell: from a manual scheme
/// handle, or as an OrcGC variant. [`Cell::instantiate`] is the one place
/// that matches on it.
pub enum Make<D> {
    /// Build over the cell's manual scheme.
    Manual(fn(AnySmr) -> D),
    /// OrcGC-annotated constructor.
    Orc(fn() -> D),
}

/// How one set is built in a sweep cell.
pub type MakeSet = Make<DynSet>;
/// How one queue is built in a sweep cell.
pub type MakeQueue = Make<DynQueue>;

/// What reclaims one cell's structure: the manual scheme it was built
/// over, or the process-global OrcGC domain together with the domain's
/// stats as they stood when the cell was built.
#[allow(clippy::large_enum_variant)] // one per cell, built once per run
pub enum Reclaimer {
    /// A handle on the cell's own scheme instance.
    Manual(AnySmr),
    /// The OrcGC domain; the snapshot is the baseline for [`Self::stats`].
    Orc(StatsSnapshot),
}

impl Reclaimer {
    /// Quiesces what this thread can: the scheme's `flush`, or this
    /// thread's OrcGC hazard slots and handover entries.
    pub fn flush(&self) {
        match self {
            Reclaimer::Manual(smr) => smr.flush(),
            Reclaimer::Orc(_) => orcgc::flush_thread(),
        }
    }

    /// The cell's orc-stats: the scheme instance's own, or for OrcGC the
    /// domain delta since the cell was built (the domain is
    /// process-global, so its totals include every other cell's churn).
    pub fn stats(&self) -> StatsSnapshot {
        match self {
            Reclaimer::Manual(smr) => smr.stats(),
            Reclaimer::Orc(base) => orcgc::domain_stats().since(base),
        }
    }

    /// Registers the scheme (or the OrcGC domain) as an orc-obs source
    /// under `label`; samples flow while the returned guard lives. A
    /// manual guard holds scheme handles, so drop it before any teardown
    /// that needs the last handle gone.
    pub fn observe(&self, label: &str) -> obs::Registration {
        match self {
            Reclaimer::Manual(smr) => reclaim::observe(label, smr),
            Reclaimer::Orc(_) => orcgc::observe_domain(label),
        }
    }
}

/// A structure type the matrix sweeps: [`DynSet`] or [`DynQueue`].
pub trait Swept: Sized {
    /// Wraps the structure in the orc-obs op-latency spans
    /// ([`observe_set`] / [`observe_queue`]).
    fn observed(self) -> Self;
}

impl Swept for DynSet {
    fn observed(self) -> Self {
        observe_set(self)
    }
}

impl Swept for DynQueue {
    fn observed(self) -> Self {
        observe_queue(self)
    }
}

/// One (scheme × structure) cell of the sweep matrix.
pub struct Cell<D> {
    /// The scheme axis point.
    pub scheme: SchemeAxis,
    /// The structure's display name.
    pub structure: &'static str,
    /// The factory, of the scheme's flavour.
    pub make: Make<D>,
}

/// One (scheme × set) cell of the sweep matrix.
pub type SetCell = Cell<DynSet>;
/// One (scheme × queue) cell of the sweep matrix.
pub type QueueCell = Cell<DynQueue>;

impl<D: Swept> Cell<D> {
    /// `"HP/MichaelList"`-style label for reports and assertions.
    pub fn label(&self) -> String {
        format!("{}/{}", self.scheme.name(), self.structure)
    }

    /// Builds the cell's structure — over a fresh scheme instance for a
    /// manual cell — and returns it with the [`Reclaimer`] that frees its
    /// nodes. The structure is wrapped in the orc-obs latency spans
    /// ([`Swept::observed`]): every scheme × structure pair gets
    /// per-op p50/p99/max for free.
    ///
    /// # Panics
    /// If the factory's flavour does not match the cell's scheme.
    pub fn instantiate(&self) -> (D, Reclaimer) {
        let (inner, reclaimer) = match (&self.make, self.scheme) {
            (Make::Manual(make), SchemeAxis::Manual(kind)) => {
                let smr = kind.build();
                (make(smr.clone()), Reclaimer::Manual(smr))
            }
            (Make::Orc(make), SchemeAxis::Orc) => {
                let base = orcgc::domain_stats();
                (make(), Reclaimer::Orc(base))
            }
            _ => panic!(
                "{}: factory flavour differs from the scheme's",
                self.label()
            ),
        };
        (inner.observed(), reclaimer)
    }

    /// The structure of [`Self::instantiate`], for callers that never
    /// flush or read stats (the structure owns the only scheme handle).
    pub fn build(&self) -> D {
        self.instantiate().0
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
/// factories ([`Cell::instantiate`]), and so the bench runner and the
/// `orctel obs` dashboard, all route through this, so instrumentation
/// lives in exactly one place.
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

    /// Reads `ORC_SCHEMES` and `ORC_STRUCTS` through [`MatrixFilter::parse`].
    pub fn from_env() -> Result<Self, String> {
        let var = |k| std::env::var(k).ok();
        Self::parse(var("ORC_SCHEMES").as_deref(), var("ORC_STRUCTS").as_deref())
    }

    /// Slices the matrix by comma-separated scheme and structure specs;
    /// an absent or empty spec selects everything, duplicates collapse,
    /// and an unknown name fails fast with the valid list.
    pub fn parse(schemes: Option<&str>, structs: Option<&str>) -> Result<Self, String> {
        let mut f = Self::full();
        if let Some(list) = distinct(schemes, |tok| {
            SchemeAxis::from_str(tok).ok_or_else(|| {
                let valid = SchemeAxis::ALL.map(|a| a.name().to_ascii_lowercase());
                let valid = valid.join(", ");
                format!("ORC_SCHEMES: unknown scheme {tok:?}; valid schemes: {valid}")
            })
        })? {
            f.schemes = list;
        }
        let valid: Vec<String> = all_structure_names()
            .iter()
            .map(|n| n.to_ascii_lowercase())
            .collect();
        f.structs = distinct(structs, |tok| {
            let tok = tok.to_ascii_lowercase();
            if valid.iter().any(|v| v.starts_with(&tok)) {
                Ok(tok)
            } else {
                let valid = valid.join(", ");
                Err(format!(
                    "ORC_STRUCTS: unknown structure {tok:?}; valid structures: {valid}"
                ))
            }
        })?;
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
        self.cells(SETS, ORC_SETS)
    }

    /// The selected (scheme × queue) cells, schemes outermost.
    pub fn queue_cells(&self) -> Vec<QueueCell> {
        self.cells(QUEUES, ORC_QUEUES)
    }

    /// Pairs every selected scheme with the selected entries of its
    /// flavour: `manual` under a manual scheme, `orc` under OrcGC.
    fn cells<D>(&self, manual: &[Entry<D>], orc: &[OrcEntry<D>]) -> Vec<Cell<D>> {
        let mut cells = Vec::new();
        for &scheme in &self.schemes {
            let cell = |structure, make| Cell {
                scheme,
                structure,
                make,
            };
            match scheme {
                SchemeAxis::Manual(_) => cells.extend(
                    (manual.iter().filter(|e| self.wants(e.name)))
                        .map(|e| cell(e.name, Make::Manual(e.make))),
                ),
                SchemeAxis::Orc => cells.extend(
                    (orc.iter().filter(|e| self.wants(e.name)))
                        .map(|e| cell(e.name, Make::Orc(e.make))),
                ),
            }
        }
        cells
    }
}

/// The distinct items of a comma-separated `spec`, in first-seen order;
/// `None` when it names nothing.
fn distinct<T: PartialEq>(
    spec: Option<&str>,
    item: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    let mut out = Vec::new();
    let toks = spec.unwrap_or("").split(',').map(str::trim);
    for tok in toks.filter(|t| !t.is_empty()) {
        let x = item(tok)?;
        if !out.contains(&x) {
            out.push(x);
        }
    }
    Ok((!out.is_empty()).then_some(out))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn parse_slices_and_fails_fast() {
        let f = MatrixFilter::parse(Some("ptp, ptp ,PTP,orc"), Some("MichaelList,michaellist"))
            .unwrap();
        let ptp = SchemeAxis::Manual(SchemeKind::Ptp);
        assert_eq!(f.schemes(), [ptp, SchemeAxis::Orc], "duplicates collapse");
        assert_eq!(f.structs, Some(vec!["michaellist".to_string()]));
        for (schemes, structs) in [(None, None), (Some(""), Some(" , "))] {
            let f = MatrixFilter::parse(schemes, structs).unwrap();
            assert_eq!(f.schemes(), SchemeAxis::ALL, "an empty spec means all");
            assert_eq!(f.structs, None);
        }
        let err = MatrixFilter::parse(Some("ptp,bogus"), None).unwrap_err();
        for name in ["bogus", "ebr", "adaptive", "orcgc"] {
            assert!(err.contains(name), "the valid list must name {name}: {err}");
        }
        let err = MatrixFilter::parse(None, Some("bogus")).unwrap_err();
        assert!(err.contains("michaellist"), "{err}");
    }

    #[test]
    fn manual_cells_build_under_their_scheme() {
        for cell in MatrixFilter::full().set_cells() {
            let (set, reclaimer) = cell.instantiate();
            assert!(set.add(1));
            assert!(set.contains(&1));
            assert!(set.remove(&1));
            drop(set);
            if let Reclaimer::Manual(smr) = &reclaimer {
                assert_eq!(SchemeAxis::Manual(smr.kind()), cell.scheme);
            }
            reclaimer.flush();
        }
    }
}
