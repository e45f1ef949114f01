//! What is measured: the workloads, the series axis, and every metric
//! name with its unit, direction and bound. `BENCHMARK.json` is printed
//! from this table (`--manifest`) and the smoke test holds the two equal.

use reclaim::SchemeKind;
use structures::registry::SchemeAxis;

/// The four workloads; see README.md for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueuePairs,
    ListRead,
    TreeUpdate,
    StallBound,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QueuePairs,
        Workload::ListRead,
        Workload::TreeUpdate,
        Workload::StallBound,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueuePairs => "queue_pairs",
            Workload::ListRead => "list_read",
            Workload::TreeUpdate => "tree_update",
            Workload::StallBound => "stall_bound",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::QueuePairs => "MSQueue enqueue/dequeue pairs: one alloc, one retire, ~3 protects per pair and no traversal, so pool, retire/scan, dispatch and telemetry hooks are most of the op",
            Workload::ListRead => "MichaelList, 1000 keys half full, 100% contains: ~250 protected hops per op, no alloc, no retire; the bypass workload for allocator and reclaimer changes",
            Workload::TreeUpdate => "NM-tree, 100000 keys half full, 50% insert / 50% remove: ~20 hops then alloc + CAS + 2 retires over a working set larger than L2",
            Workload::StallBound => "Table-1 adversary: one parked reader holds 8 protections while one writer swaps and retires; retire/scan against a non-empty protected set, and the paper's memory bound",
        }
    }

    /// Registry structure name for a manual scheme; the OrcGC twin is
    /// `<name>-OrcGC`. `stall_bound` uses no structure.
    pub fn structure(self) -> Option<&'static str> {
        match self {
            Workload::QueuePairs => Some("MSQueue"),
            Workload::ListRead => Some("MichaelList"),
            Workload::TreeUpdate => Some("NMTree"),
            Workload::StallBound => None,
        }
    }

    /// Size of the key universe of the set workloads.
    pub fn key_range(self) -> u64 {
        match self {
            Workload::ListRead => 1_000,
            Workload::TreeUpdate => 100_000,
            Workload::QueuePairs | Workload::StallBound => 0,
        }
    }
}

/// The axis inside every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    Orcgc,
    Ptp,
    Hp,
    Ebr,
    None,
    Ptb,
    He,
    Adaptive,
}

impl Series {
    /// The end-to-end series, in the order a round runs them.
    pub const E2E: [Series; 5] = [
        Series::Orcgc,
        Series::Ptp,
        Series::Hp,
        Series::Ebr,
        Series::None,
    ];

    /// The traced run adds the three schemes that have no end-to-end row.
    pub const ALL: [Series; 8] = [
        Series::Orcgc,
        Series::Ptp,
        Series::Hp,
        Series::Ebr,
        Series::None,
        Series::Ptb,
        Series::He,
        Series::Adaptive,
    ];

    /// Series whose reclamation counters are reported per layer.
    pub const RECLAIMING: [Series; 4] = [Series::Orcgc, Series::Ptp, Series::Hp, Series::Ebr];

    /// Series that get latency, RSS, pool ratios and the kill-switch arms.
    pub const DETAILED: [Series; 2] = [Series::Orcgc, Series::Ptp];

    pub fn name(self) -> &'static str {
        match self {
            Series::Orcgc => "orcgc",
            Series::Ptp => "ptp",
            Series::Hp => "hp",
            Series::Ebr => "ebr",
            Series::None => "none",
            Series::Ptb => "ptb",
            Series::He => "he",
            Series::Adaptive => "adaptive",
        }
    }

    pub fn from_name(name: &str) -> Option<Series> {
        Series::ALL.into_iter().find(|s| s.name() == name)
    }

    pub fn axis(self) -> SchemeAxis {
        match self {
            Series::Orcgc => SchemeAxis::Orc,
            Series::Ptp => SchemeAxis::Manual(SchemeKind::Ptp),
            Series::Hp => SchemeAxis::Manual(SchemeKind::Hp),
            Series::Ebr => SchemeAxis::Manual(SchemeKind::Ebr),
            Series::None => SchemeAxis::Manual(SchemeKind::Leaky),
            Series::Ptb => SchemeAxis::Manual(SchemeKind::Ptb),
            Series::He => SchemeAxis::Manual(SchemeKind::He),
            Series::Adaptive => SchemeAxis::Manual(SchemeKind::Adaptive),
        }
    }
}

/// One public kill switch (or the sampler) flipped in a child's
/// environment; the default arm sets nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Default,
    StatsOff,
    TraceOff,
    ObsOff,
    PoolOff,
    AllOff,
    Sampler,
}

impl Arm {
    pub const ALL: [Arm; 7] = [
        Arm::Default,
        Arm::StatsOff,
        Arm::TraceOff,
        Arm::ObsOff,
        Arm::PoolOff,
        Arm::AllOff,
        Arm::Sampler,
    ];

    /// Metric prefix of the arm ÷ default ratio; `None` for the default.
    pub fn metric(self) -> Option<&'static str> {
        match self {
            Arm::Default => None,
            Arm::StatsOff => Some("stats.off_ratio"),
            Arm::TraceOff => Some("trace.off_ratio"),
            Arm::ObsOff => Some("obs.off_ratio"),
            Arm::PoolOff => Some("pool.off_ratio"),
            Arm::AllOff => Some("telemetry.all_off_ratio"),
            Arm::Sampler => Some("obs.sampler_ratio"),
        }
    }

    /// The environment the arm adds to an otherwise `ORC_*`-free child.
    pub fn env(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Arm::Default | Arm::Sampler => &[],
            Arm::StatsOff => &[("ORC_STATS", "0")],
            Arm::TraceOff => &[("ORC_TRACE", "0")],
            Arm::ObsOff => &[("ORC_OBS", "0")],
            Arm::PoolOff => &[("ORC_POOL", "0")],
            Arm::AllOff => &[("ORC_STATS", "0"), ("ORC_TRACE", "0"), ("ORC_OBS", "0")],
        }
    }
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's declaration. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn def(name: String, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, every one reported on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut out = vec![def("setup_s".into(), "s", Better::Lower, Some(0.25))];
    for s in Series::E2E {
        out.push(def(
            format!("mops.{}", s.name()),
            "Mops/s",
            Better::Higher,
            Some(0.25),
        ));
    }
    out.push(def(
        "rss_peak_mb.orcgc".into(),
        "MB",
        Better::Lower,
        Some(0.25),
    ));
    out.push(def(
        "rss_peak_mb.ptp".into(),
        "MB",
        Better::Lower,
        Some(0.10),
    ));
    out
}

/// The micro cells: one fresh single-threaded child each, ns per op
/// (µs for the sampling pass).
pub fn micro_cells() -> Vec<MetricDef> {
    let mut names: Vec<String> = [
        "atomics.load_ns",
        "atomics.cas_ns",
        "atomics.fetch_add_ns",
        "registry.tid_ns",
        "pool.pair_ns",
        "pool.burst_ns",
        "pool.remote_ns",
        "pool.off_pair_ns",
    ]
    .map(String::from)
    .to_vec();
    for k in SchemeKind::ALL {
        let s = k.name().to_ascii_lowercase();
        names.push(format!("reclaim.{s}.protect_ns"));
        names.push(format!("reclaim.{s}.retire_ns"));
    }
    names.extend(
        [
            "orcgc.load_ns",
            "orcgc.store_ns",
            "orcgc.cas_ns",
            "orcgc.make_drop_ns",
            "stats.bump_ns",
            "trace.record_ns",
            "trace.now_ns",
            "obs.time_op_ns",
            "obs.sample_now_us",
            "structures.msqueue.bare_pair_ns",
            "structures.msqueue.cell_pair_ns",
            "structures.registry.dispatch_ns",
        ]
        .map(String::from),
    );
    names
        .into_iter()
        .map(|n| {
            let unit = if n.ends_with("_us") { "us" } else { "ns" };
            def(n, unit, Better::Lower, None)
        })
        .collect()
}

/// Every per-layer metric, reported by the traced run of each workload:
/// the micro cells, the counters of that workload's traced slices, and
/// the arm ratios measured on it.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = micro_cells();
    for s in Series::ALL {
        out.push(def(
            format!("structures.{}.op_p50_ns", s.name()),
            "ns",
            Better::Lower,
            None,
        ));
    }
    for s in Series::RECLAIMING {
        let s = s.name();
        out.push(def(
            format!("reclaim.{s}.scans_per_kop"),
            "1/kop",
            Better::Lower,
            None,
        ));
        out.push(def(
            format!("reclaim.{s}.mean_batch"),
            "count",
            Better::Higher,
            None,
        ));
        out.push(def(
            format!("reclaim.{s}.delay_p99_ns"),
            "ns",
            Better::Lower,
            None,
        ));
        out.push(def(
            format!("reclaim.{s}.peak_unreclaimed"),
            "count",
            Better::Lower,
            None,
        ));
        out.push(def(
            format!("reclaim.{s}.protect_retries_per_kop"),
            "1/kop",
            Better::Lower,
            None,
        ));
    }
    for s in Series::DETAILED {
        let s = s.name();
        out.push(def(format!("op_p99_ns.{s}"), "ns", Better::Lower, None));
        out.push(def(
            format!("pool.{s}.refill_ratio"),
            "ratio",
            Better::Lower,
            None,
        ));
        out.push(def(
            format!("pool.{s}.remote_free_ratio"),
            "ratio",
            Better::Lower,
            None,
        ));
    }
    out.push(def(
        "trace.ptp.dropped_share".into(),
        "ratio",
        Better::Lower,
        None,
    ));
    out.push(def(
        "bench.trace_overhead".into(),
        "ratio",
        Better::Lower,
        None,
    ));
    out.push(def("teardown_s".into(), "s", Better::Lower, None));
    for arm in Arm::ALL {
        if let Some(prefix) = arm.metric() {
            for s in Series::DETAILED {
                out.push(def(
                    format!("{prefix}.{}", s.name()),
                    "ratio",
                    Better::Higher,
                    None,
                ));
            }
        }
    }
    out.push(def(
        "pool.history_ratio".into(),
        "ratio",
        Better::Higher,
        None,
    ));
    out
}
