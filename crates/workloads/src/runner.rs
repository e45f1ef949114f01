//! orc-bench: the in-tree benchmark runner.
//!
//! Regenerates the paper's figure workloads over the registry matrix
//! (`SchemeAxis` × sets × queues, [`structures::registry`]) with real
//! methodology — pinned warmup runs, N timed runs, IQR outlier
//! discard, median-of-runs reporting — and emits one schema-versioned
//! JSON report carrying a machine fingerprint, the git sha, the exact
//! config, and per-cell ops/sec + peak-unreclaimed + retire→reclaim
//! latency quantiles.
//!
//! Experiments, mapped to the paper:
//!
//! * `fig1-2`  — queues, enq/deq pairs (MS/LCRQ/KP/Turn × schemes).
//! * `fig3-6`  — list sets × schemes × mixes, small key range.
//! * `fig7-8`  — tree/skip-list sets, large key range.
//! * `table1`  — stalled-reader max-unreclaimed bound per scheme (a
//!   ceiling, not a speed).
//! * `mem-skip` — the §5 footprint claim (HS-skip ≫ CRF-skip under a
//!   pinned reader + generation churn); full profile only.
//!
//! The CLI around it is the `orc-bench` bin. A report describes one run
//! on one machine; comparing two commits is `benchmark/`'s job (paired,
//! process-isolated, same machine).

use crate::bound::stalled_reader_bound_axis;
use crate::config::BenchConfig;
use crate::record::Measurement;
use crate::throughput::{prefill_set, queue_pairs, set_mix, Mix};
use orc_util::json::{quote, Writer};
use orc_util::obs;
use orc_util::pool::PoolSnapshot;
use reclaim::StatsSnapshot;
use std::sync::Arc;
use std::time::Duration;
use structures::registry::{Cell, MatrixFilter, QueueCell, SetCell, Swept};

/// Report schema identifier. Bump on any breaking change to the JSON
/// layout.
pub const SCHEMA: &str = "orc-bench/v1";

/// Which measurement a cell carries: a rate (`mops`), the
/// stalled-reader ceiling (inherently schedule-dependent), or a
/// footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    Throughput,
    Bound,
    Memory,
}

impl CellKind {
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Throughput => "throughput",
            CellKind::Bound => "bound",
            CellKind::Memory => "memory",
        }
    }
}

/// Runner profile: how much wall-clock to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized: two thread counts, one mix, MichaelList + MSQueue
    /// only, sub-second points. Minutes total on a cold runner.
    Short,
    /// Every registry structure, all three mixes, the full
    /// `ORC_BENCH_THREADS` sweep — the paper-figure profile.
    Full,
}

impl Profile {
    pub fn name(self) -> &'static str {
        match self {
            Profile::Short => "short",
            Profile::Full => "full",
        }
    }

    pub fn parse(s: &str) -> Option<Profile> {
        match s.trim().to_ascii_lowercase().as_str() {
            "short" => Some(Profile::Short),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }
}

/// Fully resolved runner parameters: a [`Profile`] applied on top of
/// the environment-driven [`BenchConfig`] knobs.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    pub profile: Profile,
    pub threads: Vec<usize>,
    pub queue_pairs: u64,
    pub seconds_per_point: Duration,
    pub keys_small: u64,
    pub keys_large: u64,
    /// Timed runs per cell (median reported after IQR discard).
    pub runs: usize,
    /// Untimed warmup runs per cell (page in code + heap, settle the
    /// scheme's thread registrations) before the timed runs.
    pub warmup: usize,
    pub mixes: Vec<Mix>,
    /// Writer ops for the table1 stalled-reader bound experiment.
    pub bound_ops: u64,
    /// Structure-name prefixes to sweep; `None` = whole registry.
    pub structures: Option<Vec<&'static str>>,
    /// Run the §5 skip-list memory-footprint experiment (full profile).
    pub mem_experiment: bool,
}

impl RunnerConfig {
    /// Applies `profile` on top of the process environment's
    /// [`BenchConfig`] (env knobs can shrink the short profile further
    /// but never grow it past its CI budget).
    pub fn new(profile: Profile) -> Self {
        Self::from_bench(profile, &BenchConfig::from_env())
    }

    /// Testable constructor from an explicit base config.
    pub fn from_bench(profile: Profile, cfg: &BenchConfig) -> Self {
        match profile {
            Profile::Short => {
                let mut threads: Vec<usize> =
                    cfg.threads.iter().copied().filter(|&t| t <= 2).collect();
                if threads.is_empty() {
                    threads = vec![1, 2];
                }
                Self {
                    profile,
                    threads,
                    queue_pairs: cfg.queue_pairs.min(60_000),
                    seconds_per_point: cfg.seconds_per_point.min(Duration::from_millis(150)),
                    keys_small: cfg.keys_small.clamp(2, 512),
                    keys_large: cfg.keys_large.clamp(2, 8_192),
                    runs: cfg.runs.clamp(2, 3),
                    warmup: 1,
                    mixes: vec![Mix::WRITE_HEAVY],
                    bound_ops: 20_000,
                    structures: Some(vec!["MichaelList", "MSQueue"]),
                    mem_experiment: false,
                }
            }
            Profile::Full => Self {
                profile,
                threads: cfg.threads.clone(),
                queue_pairs: cfg.queue_pairs,
                seconds_per_point: cfg.seconds_per_point,
                keys_small: cfg.keys_small,
                keys_large: cfg.keys_large,
                runs: cfg.runs.max(3),
                warmup: 1,
                mixes: vec![Mix::WRITE_HEAVY, Mix::MIXED, Mix::READ_ONLY],
                bound_ops: 50_000,
                structures: None,
                mem_experiment: true,
            },
        }
    }

    fn wants(&self, structure: &str) -> bool {
        match &self.structures {
            None => true,
            Some(list) => list.iter().any(|p| structure.starts_with(p)),
        }
    }

    /// Config echo for the report header.
    fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj().key("threads").begin_arr();
        for t in &self.threads {
            w.int(t);
        }
        w.end_arr().key("queue_pairs").int(self.queue_pairs);
        w.key("seconds_per_point")
            .f64(self.seconds_per_point.as_secs_f64());
        w.key("keys_small").int(self.keys_small);
        w.key("keys_large").int(self.keys_large);
        w.key("runs").int(self.runs).key("warmup").int(self.warmup);
        w.key("mixes").begin_arr();
        for m in &self.mixes {
            w.str(m.label());
        }
        w.end_arr().key("bound_ops").int(self.bound_ops).end_obj();
        w.finish()
    }
}

/// One benchmarked matrix cell: the trimmed-median summary plus the
/// median run's full [`Measurement`] (with its nested stats/trace).
#[derive(Debug, Clone)]
pub struct CellResult {
    pub kind: CellKind,
    /// Stable, unique key: `experiment/scheme/structure/workload/tN`.
    pub id: String,
    /// Timed runs executed.
    pub runs: usize,
    /// Runs surviving the IQR discard (the median is over these).
    pub kept: usize,
    pub mops_median: f64,
    pub mops_min: f64,
    pub mops_max: f64,
    /// The run whose throughput sits closest to the trimmed median.
    pub measurement: Measurement,
}

impl CellResult {
    fn from_runs(kind: CellKind, id: String, runs: Vec<Measurement>) -> CellResult {
        let samples: Vec<f64> = runs.iter().map(|m| m.mops).collect();
        let (median, kept) = trimmed_median(&samples);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &s in &samples {
            lo = lo.min(s);
            hi = hi.max(s);
        }
        // Representative run: closest throughput to the trimmed median.
        let rep = runs
            .iter()
            .min_by(|a, b| (a.mops - median).abs().total_cmp(&(b.mops - median).abs()))
            .expect("at least one run")
            .clone();
        CellResult {
            kind,
            id,
            runs: runs.len(),
            kept,
            mops_median: median,
            mops_min: lo,
            mops_max: hi,
            measurement: rep,
        }
    }

    pub fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj().key("id").str(&self.id);
        w.key("kind").str(self.kind.name());
        w.key("runs").int(self.runs).key("kept").int(self.kept);
        w.key("mops_median").f64(self.mops_median);
        w.key("mops_min").f64(self.mops_min);
        w.key("mops_max").f64(self.mops_max);
        w.key("measurement").raw(&self.measurement.json());
        w.end_obj();
        w.finish()
    }
}

/// Median of the samples surviving a Tukey IQR discard (outliers
/// outside `[Q1 − 1.5·IQR, Q3 + 1.5·IQR]` dropped). Returns the median
/// and how many samples were kept. With < 4 samples the discard is a
/// no-op (quartiles of tiny samples are meaningless); non-finite
/// samples are always dropped first.
pub fn trimmed_median(samples: &[f64]) -> (f64, usize) {
    let mut s: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    if s.is_empty() {
        return (f64::NAN, 0);
    }
    s.sort_by(f64::total_cmp);
    if s.len() >= 4 {
        let q1 = quantile_sorted(&s, 0.25);
        let q3 = quantile_sorted(&s, 0.75);
        let iqr = q3 - q1;
        let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
        let kept: Vec<f64> = s.iter().copied().filter(|&v| v >= lo && v <= hi).collect();
        if !kept.is_empty() {
            s = kept;
        }
    }
    (median_sorted(&s), s.len())
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The post-run tail every cell arm shares: attaches the run's stats
/// (and the trace, obs and pool views derived alongside) to `m`.
/// `pool_base` is the pool snapshot taken before the cell was built.
fn finish_run(
    m: Measurement,
    s: StatsSnapshot,
    reg: &obs::Registration,
    pool_base: &PoolSnapshot,
) -> Measurement {
    m.with_unreclaimed(s.peak_unreclaimed as i64)
        .with_trace(&s, orc_util::trace::events_dropped())
        .with_stats(s)
        .with_obs(reg.report(), obs::op_take_window())
        .with_pool(&orc_util::pool::snapshot().since(pool_base))
}

/// Measures one throughput cell: `cfg.warmup` untimed runs, then
/// `cfg.runs` timed ones. Each run gets a fresh structure and — for a
/// manual cell — a fresh scheme instance, so per-run stats snapshots are
/// clean deltas. `prefill` runs before the op window opens.
fn run_cell<D: Swept>(
    cfg: &RunnerConfig,
    cell: &Cell<D>,
    id: String,
    prefill: impl Fn(&D),
    run: impl Fn(&str, Arc<D>) -> Measurement,
) -> CellResult {
    let series = cell.label();
    let once = || {
        let pool_base = orc_util::pool::snapshot();
        let (d, reclaimer) = cell.instantiate();
        // Obs: scrape this cell's scheme for the run's duration (the
        // registration guard drops at scope end, releasing the sampler's
        // handle clones).
        let reg = reclaimer.observe(&series);
        let d = Arc::new(d);
        prefill(&d);
        let _ = obs::op_take_window(); // open this cell's op window
        obs::sample_now();
        let m = run(&series, d);
        // Quiesce before snapshotting so outstanding == unreclaimed.
        reclaimer.flush();
        obs::sample_now();
        finish_run(m, reclaimer.stats(), &reg, &pool_base)
    };
    for _ in 0..cfg.warmup {
        once();
    }
    let runs = (0..cfg.runs).map(|_| once()).collect();
    CellResult::from_runs(CellKind::Throughput, id, runs)
}

/// Sets use the paper's small key range for lists and the large range
/// for trees/skip lists; the experiment id follows the figure split.
fn set_experiment(structure: &str) -> (&'static str, bool) {
    let is_list = structure.contains("List");
    (if is_list { "fig3-6" } else { "fig7-8" }, is_list)
}

/// Progress callback: `(done_cells, total_cells, cell_id)` before each
/// cell runs. The bin prints a line; tests pass a no-op.
pub type Progress<'a> = &'a mut dyn FnMut(usize, usize, &str);

/// Runs the full benchmark sweep for `cfg`, restricted by the registry
/// `filter` (`ORC_SCHEMES` / `ORC_STRUCTS` slicing works here exactly
/// as in the torture harness).
pub fn run_matrix(
    cfg: &RunnerConfig,
    filter: &MatrixFilter,
    progress: Progress,
) -> Vec<CellResult> {
    let set_cells: Vec<SetCell> = filter
        .set_cells()
        .into_iter()
        .filter(|c| cfg.wants(c.structure))
        .collect();
    let queue_cells: Vec<QueueCell> = filter
        .queue_cells()
        .into_iter()
        .filter(|c| cfg.wants(c.structure))
        .collect();
    let bound_axes: Vec<_> = filter
        .schemes()
        .iter()
        .copied()
        // The leaky baseline never reclaims; its "bound" is the op count.
        .filter(|a| a.reclaims())
        .collect();
    let total = (set_cells.len() * cfg.mixes.len() + queue_cells.len()) * cfg.threads.len()
        + bound_axes.len()
        + if cfg.mem_experiment { 2 } else { 0 };
    let mut done = 0usize;
    let mut out = Vec::new();

    for cell in &set_cells {
        let (experiment, is_list) = set_experiment(cell.structure);
        let keys = if is_list {
            cfg.keys_small
        } else {
            cfg.keys_large
        };
        for &mix in &cfg.mixes {
            for &threads in &cfg.threads {
                let id = format!("{experiment}/{}/{}/t{threads}", cell.label(), mix.label());
                progress(done, total, &id);
                let secs = cfg.seconds_per_point;
                out.push(run_cell(
                    cfg,
                    cell,
                    id,
                    |set| prefill_set(&**set, keys),
                    |series, set| set_mix(experiment, series, set, threads, keys, mix, secs),
                ));
                done += 1;
            }
        }
    }

    for cell in &queue_cells {
        for &threads in &cfg.threads {
            let id = format!("fig1-2/{}/enq-deq-pairs/t{threads}", cell.label());
            progress(done, total, &id);
            out.push(run_cell(
                cfg,
                cell,
                id,
                |_| {},
                |series, queue| queue_pairs("fig1-2", series, queue, threads, cfg.queue_pairs),
            ));
            done += 1;
        }
    }

    // Table 1: single run per scheme — the adversary measures a ceiling,
    // not a rate, and its threads stall deliberately (no warmup needed).
    for axis in bound_axes {
        let id = format!("table1/{}/stalled-reader/t4", axis.name());
        progress(done, total, &id);
        let start = std::time::Instant::now();
        let readers = 3;
        let r = stalled_reader_bound_axis(axis, readers, reclaim::MAX_HPS, cfg.bound_ops);
        let m = Measurement::new(
            "table1",
            axis.name(),
            "stalled-reader",
            readers + 1,
            r.writer_ops,
            start.elapsed().max(Duration::from_nanos(1)),
        )
        .with_unreclaimed(r.max_unreclaimed as i64);
        out.push(CellResult::from_runs(CellKind::Bound, id, vec![m]));
        done += 1;
    }

    // §5 memory footprint: HS-skip ≫ CRF-skip under a pinned reader +
    // generation churn. Peak *tracked live bytes* over the prefilled
    // baseline — exact and allocator-independent. Single-threaded and
    // single-run: the probe is deterministic up to scheduler timing of
    // the background reclaimer.
    if cfg.mem_experiment {
        for m in run_mem_skip(cfg.keys_large, &mut |id| progress(done, total, id)) {
            let id = format!("mem-skip/{}/pinned-churn/t1", m.series);
            out.push(CellResult::from_runs(CellKind::Memory, id, vec![m]));
        }
    }

    out
}

/// One pinned-reader churn pass over a skip list, tracking peak live
/// bytes; see the module docs' `mem-skip` experiment.
fn mem_waves<S: structures::ConcurrentSet<u64>>(set: &S, keys: u64, waves: usize) -> (u64, i64) {
    let live_bytes = || orc_util::track::global().live_bytes();
    let baseline = live_bytes();
    let mut peak = 0i64;
    let mut ops = 0u64;
    for _ in 0..waves {
        let mut k = 0;
        while k < keys {
            set.remove(&k);
            ops += 1;
            k += 2;
        }
        let mut k = 0;
        while k < keys {
            set.add(k);
            ops += 1;
            k += 2;
            if k % 4096 == 0 {
                peak = peak.max(live_bytes() - baseline);
            }
        }
        peak = peak.max(live_bytes() - baseline);
    }
    (ops, peak)
}

fn run_mem_skip(keys: u64, progress: &mut dyn FnMut(&str)) -> Vec<Measurement> {
    use structures::skiplist::{CrfSkipListOrc, HsSkipListOrc};
    let waves = 2;
    let mut out = Vec::new();
    macro_rules! run {
        ($ctor:expr, $name:expr) => {{
            progress(&format!("mem-skip/{}/pinned-churn/t1", $name));
            let set = Arc::new($ctor);
            prefill_set(&*set, keys);
            let pin = set.stalled_reader_at_front();
            let start = std::time::Instant::now();
            let (ops, peak) = mem_waves(&*set, keys, waves);
            let m = Measurement::new("mem-skip", $name, "pinned-churn", 1, ops, start.elapsed())
                .with_mem(peak);
            drop(pin);
            drop(set);
            orcgc::flush_thread();
            out.push(m);
        }};
    }
    run!(HsSkipListOrc::new(), "HS-skip");
    run!(CrfSkipListOrc::new(), "CRF-skip");
    out
}

/// Machine fingerprint: enough to tell which hardware a report's
/// numbers describe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    pub hostname: String,
    pub os: String,
    pub arch: String,
    pub cpus: usize,
    pub cpu_model: String,
}

impl Machine {
    pub fn detect() -> Machine {
        let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| std::env::var("HOSTNAME").ok())
            .unwrap_or_else(|| "unknown".into());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            hostname,
            os: std::env::consts::OS.into(),
            arch: std::env::consts::ARCH.into(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
        }
    }

    fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj().key("hostname").str(&self.hostname);
        w.key("os").str(&self.os).key("arch").str(&self.arch);
        w.key("cpus").int(self.cpus);
        w.key("cpu_model").str(&self.cpu_model).end_obj();
        w.finish()
    }
}

/// The git sha of the working tree, best-effort: `GITHUB_SHA` (CI) or
/// `git rev-parse HEAD`, else `"unknown"`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.trim().is_empty() {
            return sha.trim().into();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A complete bench report, ready to serialize.
#[derive(Debug, Clone)]
pub struct Report {
    pub profile: Profile,
    pub machine: Machine,
    pub git_sha: String,
    pub generated_unix: u64,
    pub config_json: String,
    pub cells: Vec<CellResult>,
}

impl Report {
    /// Runs the sweep and assembles the report.
    pub fn generate(cfg: &RunnerConfig, filter: &MatrixFilter, progress: Progress) -> Report {
        let cells = run_matrix(cfg, filter, progress);
        Report {
            profile: cfg.profile,
            machine: Machine::detect(),
            git_sha: git_sha(),
            generated_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            config_json: cfg.json(),
            cells,
        }
    }

    /// Serializes the whole report. The envelope is laid out by hand —
    /// one header field and one cell per line, so two reports diff
    /// cleanly; every value on those lines comes from the shared writer.
    pub fn json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(CellResult::json).collect();
        format!(
            "{{\n\"schema\":{},\n\"profile\":{},\n\"git_sha\":{},\n\
             \"generated_unix\":{},\n\"machine\":{},\n\"config\":{},\n\"cells\":[\n{}{}]}}\n",
            quote(SCHEMA),
            quote(self.profile.name()),
            quote(&self.git_sha),
            self.generated_unix,
            self.machine.json(),
            self.config_json,
            cells.join(",\n"),
            if cells.is_empty() { "" } else { "\n" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_median_basics() {
        assert_eq!(trimmed_median(&[3.0]), (3.0, 1));
        assert_eq!(trimmed_median(&[1.0, 3.0]), (2.0, 2));
        assert_eq!(trimmed_median(&[1.0, 2.0, 9.0]), (2.0, 3));
    }

    #[test]
    fn trimmed_median_discards_outliers() {
        // 100.0 sits far outside Q3 + 1.5·IQR of the cluster.
        let (m, kept) = trimmed_median(&[10.0, 10.5, 11.0, 10.2, 100.0]);
        assert_eq!(kept, 4);
        assert!((m - 10.35).abs() < 1e-9, "median over the cluster: {m}");
    }

    #[test]
    fn trimmed_median_handles_pathologies() {
        let (m, kept) = trimmed_median(&[]);
        assert!(m.is_nan());
        assert_eq!(kept, 0);
        let (m, kept) = trimmed_median(&[f64::NAN, 5.0, f64::INFINITY]);
        assert_eq!((m, kept), (5.0, 1), "non-finite samples dropped");
        // All-identical samples: IQR 0, nothing discarded.
        assert_eq!(trimmed_median(&[2.0; 6]), (2.0, 6));
    }

    #[test]
    fn short_profile_fits_ci_budget() {
        let cfg = RunnerConfig::from_bench(Profile::Short, &BenchConfig::from_lookup(|_| None));
        assert!(cfg.threads.iter().all(|&t| t <= 2));
        assert!(cfg.seconds_per_point <= Duration::from_millis(150));
        assert!(cfg.queue_pairs <= 60_000);
        assert_eq!(cfg.mixes.len(), 1);
        assert!(cfg.wants("MichaelList-OrcGC") && cfg.wants("MSQueue"));
        assert!(!cfg.wants("NMTree") && !cfg.wants("LCRQ-OrcGC"));
    }

    #[test]
    fn full_profile_covers_everything() {
        let cfg = RunnerConfig::from_bench(Profile::Full, &BenchConfig::from_lookup(|_| None));
        assert_eq!(cfg.mixes.len(), 3);
        assert!(cfg.runs >= 3);
        assert!(cfg.wants("CRF-skip-OrcGC") && cfg.wants("TurnQueue-OrcGC"));
    }

    #[test]
    fn config_echo_is_byte_stable() {
        let cfg = RunnerConfig::from_bench(Profile::Full, &BenchConfig::from_lookup(|_| None));
        assert_eq!(
            cfg.json(),
            "{\"threads\":[1,2,4,8],\"queue_pairs\":200000,\"seconds_per_point\":0.4,\
             \"keys_small\":1000,\"keys_large\":100000,\"runs\":3,\"warmup\":1,\
             \"mixes\":[\"50i-50r\",\"5i-5r-90l\",\"100l\"],\"bound_ops\":50000}"
        );
    }

    #[test]
    fn report_json_is_parseable_and_complete() {
        // A micro-run over one scheme+structure slice: proves the whole
        // emit path produces valid JSON with the schema and nested
        // stats/trace objects intact.
        let mut cfg = RunnerConfig::from_bench(
            Profile::Short,
            &BenchConfig::from_lookup(|name| match name {
                "ORC_BENCH_SECONDS" => Some("0.02".into()),
                "ORC_BENCH_OPS" => Some("500".into()),
                "ORC_BENCH_THREADS" => Some("1".into()),
                _ => None,
            }),
        );
        cfg.runs = 2;
        cfg.warmup = 0;
        cfg.bound_ops = 300;
        let filter = MatrixFilter::full();
        let report = Report::generate(&cfg, &filter, &mut |_, _, _| {});
        let text = report.json();
        let j = orc_util::json::parse(&text).expect("report JSON parses");
        assert_eq!(j.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(j.get("profile").unwrap().as_str(), Some("short"));
        let cells = j.get("cells").unwrap().as_arr().unwrap();
        // 7 scheme-axis points × (MichaelList set + MSQueue queue) minus
        // nothing, 1 thread count, 1 mix → 14 throughput cells, plus the
        // reclaiming schemes' bound cells.
        assert!(cells.len() >= 14, "got {} cells", cells.len());
        let first = &cells[0];
        assert!(first.get("id").unwrap().as_str().is_some());
        assert!(first.get("mops_median").unwrap().as_f64().is_some());
        let m = first.get("measurement").unwrap();
        assert!(m.get("stats").is_some(), "nested stats object present");
        let mut ids: Vec<&str> = cells
            .iter()
            .map(|c| c.get("id").unwrap().as_str().unwrap())
            .collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(n, ids.len(), "duplicate cell ids");
    }
}
