//! The scheme axis of the (structure × scheme) matrix, as *data*.
//!
//! The paper's whole evaluation methodology (Figs. 3–4, 7–8) is "the same
//! structure under every scheme". [`SchemeKind`] names the six manual
//! schemes plus the adaptive hybrid so harnesses can iterate
//! [`SchemeKind::ALL`] (or an
//! `ORC_SCHEMES`-style slice of it) instead of hand-enumerating
//! constructors, and [`AnySmr`] carries one instance of any of them as a
//! value: the handle a harness keeps for `flush`/`unreclaimed`/`stats`,
//! and the argument the structure registry's factories take.
//!
//! `dyn Smr` is impossible — [`Smr::alloc`] and [`Smr::retire`] are
//! generic over the payload type, which rules out object safety — so
//! [`AnySmr`] is an enum and [`on_scheme!`](crate::on_scheme) its one
//! dispatch: every [`Smr`] method of [`AnySmr`] matches on the variant
//! and delegates statically. That is cheap once per operation and costly
//! once per hop. A structure built *over* `AnySmr` paid an out-of-line
//! call and a seven-way match on every protect and publish of its
//! traversal; on the
//! benchmark's `list_read` (≈ 250 protected hops per op, 2 vCPUs) the
//! Michael list ran 1.43× faster under PTP and HP and 5.3–5.5× faster
//! under EBR and the leaky baseline once built over the concrete scheme
//! (medians of 10 alternating pairs; EXPERIMENTS.md, "One dispatch per
//! operation"). So the registry unwraps the enum once per cell with
//! [`on_scheme!`](crate::on_scheme) and no structure holds an `AnySmr`;
//! its own [`Smr`] impl serves callers that pay the match once per
//! operation.

use crate::stats::StatsSnapshot;
use crate::{Adaptive, Ebr, HazardEras, HazardPointers, Leaky, PassTheBuck, PassThePointer, Smr};
use orc_util::atomics::AtomicUsize;

/// One of the manual reclamation schemes (or the adaptive hybrid), as a
/// value.
///
/// The order of [`SchemeKind::ALL`] is the paper's Table 1 row order
/// (bounded pointer-based schemes first, then the unbounded baselines);
/// the adaptive hybrid slots after HE, whose fast path it shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Hazard pointers (Michael 2004).
    Hp,
    /// Pass-the-buck (Herlihy et al. 2002).
    Ptb,
    /// Pass-the-pointer (§3.1, this paper's manual scheme).
    Ptp,
    /// Hazard eras (Ramalhete & Correia 2017).
    He,
    /// Adaptive hybrid: HE-style era fast path, HP-style bounded path,
    /// switched per domain by a controller that reads its own
    /// unreclaimed gauge.
    Adaptive,
    /// Epoch-based reclamation (Fraser 2004).
    Ebr,
    /// The "None" baseline of Figs. 1–4: never frees until teardown.
    Leaky,
}

impl SchemeKind {
    /// Every scheme, in Table-1 order — the canonical sweep axis.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Hp,
        SchemeKind::Ptb,
        SchemeKind::Ptp,
        SchemeKind::He,
        SchemeKind::Adaptive,
        SchemeKind::Ebr,
        SchemeKind::Leaky,
    ];

    /// Display name, as used in the paper's figure legends (and by the
    /// matching scheme's [`Smr::name`]).
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Hp => "HP",
            SchemeKind::Ptb => "PTB",
            SchemeKind::Ptp => "PTP",
            SchemeKind::He => "HE",
            SchemeKind::Adaptive => "Adaptive",
            SchemeKind::Ebr => "EBR",
            SchemeKind::Leaky => "None",
        }
    }

    /// Parses a scheme name, case-insensitively. Accepts the figure-legend
    /// names ("HP", "None", ...) and the module names ("hp", "leaky", ...).
    #[allow(clippy::should_implement_trait)] // fallible-by-Option, used via `SchemeKind::from_str`
    pub fn from_str(name: &str) -> Option<SchemeKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "hp" => Some(SchemeKind::Hp),
            "ptb" => Some(SchemeKind::Ptb),
            "ptp" => Some(SchemeKind::Ptp),
            "he" => Some(SchemeKind::He),
            "adaptive" => Some(SchemeKind::Adaptive),
            "ebr" => Some(SchemeKind::Ebr),
            "leaky" | "none" => Some(SchemeKind::Leaky),
            _ => None,
        }
    }

    /// Builds a fresh instance of the scheme with its default thresholds.
    pub fn build(self) -> AnySmr {
        match self {
            SchemeKind::Hp => AnySmr::Hp(HazardPointers::new()),
            SchemeKind::Ptb => AnySmr::Ptb(PassTheBuck::new()),
            SchemeKind::Ptp => AnySmr::Ptp(PassThePointer::new()),
            SchemeKind::He => AnySmr::He(HazardEras::new()),
            SchemeKind::Adaptive => AnySmr::Adaptive(Adaptive::new()),
            SchemeKind::Ebr => AnySmr::Ebr(Ebr::new()),
            SchemeKind::Leaky => AnySmr::Leaky(Leaky::new()),
        }
    }

    /// Builds with a fixed scan threshold where the scheme has one (HP,
    /// PTB, HE, Adaptive); the remaining schemes have no threshold knob and
    /// build as [`SchemeKind::build`]. Used by the stall batteries so
    /// bounded ceilings are deterministic rather than dependent on the
    /// watermark-scaled `2·H·t + 8` formula.
    pub fn build_with_threshold(self, threshold: usize) -> AnySmr {
        match self {
            SchemeKind::Hp => AnySmr::Hp(HazardPointers::with_threshold(threshold)),
            SchemeKind::Ptb => AnySmr::Ptb(PassTheBuck::with_threshold(threshold)),
            SchemeKind::He => AnySmr::He(HazardEras::with_threshold(threshold)),
            SchemeKind::Adaptive => AnySmr::Adaptive(Adaptive::with_threshold(threshold)),
            _ => self.build(),
        }
    }

    /// Whether a stalled reader leaves the scheme's unreclaimed count
    /// bounded (the paper's Table 1 column): true for the pointer-based
    /// schemes and the adaptive hybrid (its era residue is one clock round,
    /// and the controller tightens it to the HP constant under attack),
    /// false for EBR and the leaky baseline.
    pub fn is_bounded(self) -> bool {
        !matches!(self, SchemeKind::Ebr | SchemeKind::Leaky)
    }

    /// Whether the scheme ever frees memory before teardown (everything
    /// but the leaky baseline).
    pub fn reclaims(self) -> bool {
        self != SchemeKind::Leaky
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Any of the seven manual schemes behind one concrete type.
///
/// Clones share the underlying scheme instance (each variant's `Clone` is
/// a handle clone), so a harness can keep one handle for
/// `flush`/`unreclaimed`/`stats` while the structure owns another —
/// exactly the pattern the torture batteries use.
#[derive(Clone)]
pub enum AnySmr {
    Hp(HazardPointers),
    Ptb(PassTheBuck),
    Ptp(PassThePointer),
    He(HazardEras),
    Adaptive(Adaptive),
    Ebr(Ebr),
    Leaky(Leaky),
}

/// Statically dispatches one expression over every [`AnySmr`] variant:
/// `$body` is compiled once per scheme with `$s` bound to the concrete
/// scheme inside `$any` (by value, or by reference when `$any` is one).
///
/// [`AnySmr`]'s own [`Smr`] forwards are written with it, and so are the
/// structure registry's manual factories, which build each structure
/// over the concrete scheme so that its protect and publish are static
/// calls the compiler can inline into the traversal:
///
/// ```
/// use reclaim::{SchemeKind, Smr};
/// // Monomorphized once per scheme: `S` is never `AnySmr` here.
/// fn name_of<S: Smr>(s: &S) -> &'static str {
///     s.name()
/// }
/// let smr = SchemeKind::Ptp.build();
/// assert_eq!(reclaim::on_scheme!(&smr, s => name_of(s)), "PTP");
/// ```
#[macro_export]
macro_rules! on_scheme {
    ($any:expr, $s:ident => $body:expr) => {
        match $any {
            $crate::AnySmr::Hp($s) => $body,
            $crate::AnySmr::Ptb($s) => $body,
            $crate::AnySmr::Ptp($s) => $body,
            $crate::AnySmr::He($s) => $body,
            $crate::AnySmr::Adaptive($s) => $body,
            $crate::AnySmr::Ebr($s) => $body,
            $crate::AnySmr::Leaky($s) => $body,
        }
    };
}

impl AnySmr {
    /// The [`SchemeKind`] this instance was built from.
    pub fn kind(&self) -> SchemeKind {
        match self {
            AnySmr::Hp(_) => SchemeKind::Hp,
            AnySmr::Ptb(_) => SchemeKind::Ptb,
            AnySmr::Ptp(_) => SchemeKind::Ptp,
            AnySmr::He(_) => SchemeKind::He,
            AnySmr::Adaptive(_) => SchemeKind::Adaptive,
            AnySmr::Ebr(_) => SchemeKind::Ebr,
            AnySmr::Leaky(_) => SchemeKind::Leaky,
        }
    }
}

impl Smr for AnySmr {
    fn name(&self) -> &'static str {
        on_scheme!(self, s => s.name())
    }

    fn alloc<T: Send>(&self, value: T) -> *mut T {
        on_scheme!(self, s => s.alloc(value))
    }

    #[inline]
    fn begin_op(&self) {
        on_scheme!(self, s => s.begin_op())
    }

    fn end_op(&self) {
        on_scheme!(self, s => s.end_op())
    }

    fn protect(&self, idx: usize, addr: &AtomicUsize) -> usize {
        on_scheme!(self, s => s.protect(idx, addr))
    }

    fn publish(&self, idx: usize, word: usize) {
        on_scheme!(self, s => s.publish(idx, word))
    }

    fn clear(&self, idx: usize) {
        on_scheme!(self, s => s.clear(idx))
    }

    unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        // SAFETY: forwards this method's own contract to the inner scheme.
        on_scheme!(self, s => unsafe { s.retire(ptr) })
    }

    unsafe fn dealloc_now<T>(&self, ptr: *mut T) {
        // SAFETY: forwards this method's own contract to the inner scheme,
        // whose layout `ptr` was allocated with.
        on_scheme!(self, s => unsafe { s.dealloc_now(ptr) })
    }

    fn flush(&self) {
        on_scheme!(self, s => s.flush())
    }

    fn unreclaimed(&self) -> usize {
        on_scheme!(self, s => s.unreclaimed())
    }

    fn stats(&self) -> StatsSnapshot {
        on_scheme!(self, s => s.stats())
    }

    fn is_lock_free(&self) -> bool {
        on_scheme!(self, s => s.is_lock_free())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_HPS;
    use orc_util::atomics::Ordering;
    use orc_util::track;
    use std::sync::Arc;

    #[test]
    fn all_covers_every_variant_once() {
        let mut seen = std::collections::HashSet::new();
        for kind in SchemeKind::ALL {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
        }
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn from_str_roundtrips_names() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::from_str(kind.name()), Some(kind));
            assert_eq!(
                SchemeKind::from_str(&kind.name().to_ascii_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(SchemeKind::from_str("leaky"), Some(SchemeKind::Leaky));
        assert_eq!(SchemeKind::from_str(" ptp "), Some(SchemeKind::Ptp));
        assert_eq!(SchemeKind::from_str("hazard"), None);
    }

    #[test]
    fn build_matches_kind_and_name() {
        for kind in SchemeKind::ALL {
            let smr = kind.build();
            assert_eq!(smr.kind(), kind);
            assert_eq!(smr.name(), kind.name());
            let smr = kind.build_with_threshold(32);
            assert_eq!(smr.kind(), kind);
        }
    }

    #[test]
    fn any_smr_runs_the_full_protocol() {
        for kind in SchemeKind::ALL {
            let smr = kind.build();
            let slot = AtomicUsize::new(smr.alloc(7u64) as usize);
            smr.begin_op();
            let w = smr.protect(0, &slot);
            // SAFETY: slot 0 protects `w` (and this test is
            // single-threaded anyway).
            assert_eq!(unsafe { *(w as *const u64) }, 7);
            let fresh = smr.alloc(9u64) as usize;
            let old = slot.swap(fresh, orc_util::atomics::Ordering::SeqCst);
            // SAFETY: `old` came from this scheme's `alloc`, retired once.
            unsafe { smr.retire(old as *mut u64) };
            smr.end_op();
            smr.flush();
            if kind.reclaims() {
                assert_eq!(smr.unreclaimed(), 0, "{}", kind.name());
                // `ORC_STATS=0` zeroes the counters by design.
                if orc_util::stats::enabled() {
                    assert!(smr.stats().retires >= 1);
                }
            } else {
                assert_eq!(smr.unreclaimed(), 1, "the leaky baseline holds it");
            }
            let last = slot.load(orc_util::atomics::Ordering::SeqCst);
            // SAFETY: single-threaded — quiescent, exclusive ownership.
            unsafe { smr.dealloc_now(last as *mut u64) };
        }
    }

    #[test]
    fn dealloc_now_frees_an_era_node_and_a_plain_node_exactly_once() {
        // HE's nodes carry the eras between header and value, HP's do not:
        // each must be freed at its own header, by its own destructor.
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        for kind in [SchemeKind::He, SchemeKind::Hp] {
            let smr = kind.build();
            let drops = Arc::new(AtomicUsize::new(0));
            let before = track::thread().snapshot();
            let p = smr.alloc(Probe(drops.clone()));
            // SAFETY: allocated above, never shared — exclusive, freed once.
            unsafe { smr.dealloc_now(p) };
            let after = track::thread().snapshot();
            assert_eq!(drops.load(Ordering::Relaxed), 1, "{kind}: drops");
            assert_eq!(after.total_frees - before.total_frees, 1, "{kind}: frees");
            assert_eq!(after.live_objects, before.live_objects, "{kind}: live");
        }
    }

    #[test]
    fn bounded_and_reclaiming_flags() {
        assert!(SchemeKind::Hp.is_bounded());
        assert!(SchemeKind::Ptb.is_bounded());
        assert!(SchemeKind::Ptp.is_bounded());
        assert!(SchemeKind::He.is_bounded());
        assert!(SchemeKind::Adaptive.is_bounded());
        assert!(!SchemeKind::Ebr.is_bounded());
        assert!(!SchemeKind::Leaky.is_bounded());
        assert!(SchemeKind::ALL.iter().filter(|k| !k.reclaims()).count() == 1);
    }

    #[test]
    fn max_hps_is_respected_by_any_smr() {
        // AnySmr adds no slot indirection: every slot the concrete schemes
        // expose is reachable through the enum.
        let smr = SchemeKind::Hp.build();
        let slot = AtomicUsize::new(smr.alloc(1u64) as usize);
        smr.begin_op();
        for idx in 0..MAX_HPS {
            let _ = smr.protect(idx, &slot);
        }
        smr.end_op();
        // SAFETY: single-threaded — quiescent, exclusive ownership.
        unsafe { smr.dealloc_now(slot.load(orc_util::atomics::Ordering::SeqCst) as *mut u64) };
    }
}
