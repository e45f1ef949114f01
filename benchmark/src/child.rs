//! The child side of a slice: build the cell exactly as a user gets it,
//! prefill, run one window, check, tear down, and print one JSON line.

use crate::json::quote;
use crate::slice::{self, RunCfg, RunOut, Span, OP_NAMES};
use crate::spec::{Series, Workload};
use orc_util::stats::StatsSnapshot;
use orc_util::{pool, trace, track};
use reclaim::{AnySmr, Smr};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use structures::registry::{
    observe_queue, observe_set, DynQueue, DynSet, MakeQueue, MakeSet, MatrixFilter,
};

/// Spans of each worker written to `trace.json` (the newest ones).
const SPANS_OUT: usize = 256;

/// What the parent asks of one child process.
#[derive(Debug, Clone)]
pub struct SliceArgs {
    pub workload: Workload,
    pub series: Series,
    pub seed: u64,
    pub window_ms: u64,
    /// Span around every structure call, and counters read through a
    /// kept scheme handle.
    pub traced: bool,
    /// Register the scheme with orc-obs, which starts the 25 ms sampler.
    pub sampler: bool,
    /// Windows run back to back in this process, each on a freshly built
    /// structure (the allocation-history probe uses 2).
    pub reps: u32,
    /// Wall clock just before the parent spawned this process.
    pub spawned_unix_ns: u128,
}

impl SliceArgs {
    /// The `key=value` tokens that follow `--child slice`.
    pub fn to_tokens(&self) -> Vec<String> {
        vec![
            format!("workload={}", self.workload.name()),
            format!("series={}", self.series.name()),
            format!("seed={}", self.seed),
            format!("window_ms={}", self.window_ms),
            format!("traced={}", self.traced as u8),
            format!("sampler={}", self.sampler as u8),
            format!("reps={}", self.reps),
            format!("spawned_unix_ns={}", self.spawned_unix_ns),
        ]
    }

    pub fn from_tokens(tokens: &[String]) -> Result<SliceArgs, String> {
        let get = |key: &str| {
            tokens
                .iter()
                .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("child: missing {key}="))
        };
        let num = |key: &str| {
            get(key)?
                .parse::<u128>()
                .map_err(|e| format!("child: {key}: {e}"))
        };
        Ok(SliceArgs {
            workload: Workload::from_name(get("workload")?).ok_or("child: unknown workload")?,
            series: Series::from_name(get("series")?).ok_or("child: unknown series")?,
            seed: num("seed")? as u64,
            window_ms: num("window_ms")? as u64,
            traced: num("traced")? != 0,
            sampler: num("sampler")? != 0,
            reps: num("reps")? as u32,
            spawned_unix_ns: num("spawned_unix_ns")?,
        })
    }
}

/// The structure (or none) a workload drives.
enum Target {
    Set(DynSet),
    Queue(DynQueue),
    Stall,
}

/// Builds the workload's registry cell. Untraced slices call
/// `SetCell::build()` / `QueueCell::build()` and never see the scheme;
/// slices that read its counters keep a handle and wrap the structure
/// the way `build()` does.
fn build(workload: Workload, series: Series, keep_handle: bool) -> (Target, Option<AnySmr>) {
    let axis = series.axis();
    let Some(base) = workload.structure() else {
        return (Target::Stall, axis.manual().map(|k| k.build()));
    };
    let name = match axis.manual() {
        Some(_) => base.to_string(),
        None => format!("{base}-OrcGC"),
    };
    let matrix = MatrixFilter::full();
    if workload == Workload::QueuePairs {
        let cell = matrix
            .queue_cells()
            .into_iter()
            .find(|c| c.scheme == axis && c.structure == name)
            .expect("queue cell is registered");
        match (keep_handle, &cell.make) {
            (true, MakeQueue::Manual(make)) => {
                let smr = axis.manual().expect("manual cell").build();
                (Target::Queue(observe_queue(make(smr.clone()))), Some(smr))
            }
            _ => (Target::Queue(cell.build()), None),
        }
    } else {
        let cell = matrix
            .set_cells()
            .into_iter()
            .find(|c| c.scheme == axis && c.structure == name)
            .expect("set cell is registered");
        match (keep_handle, &cell.make) {
            (true, MakeSet::Manual(make)) => {
                let smr = axis.manual().expect("manual cell").build();
                (Target::Set(observe_set(make(smr.clone()))), Some(smr))
            }
            _ => (Target::Set(cell.build()), None),
        }
    }
}

fn scheme_stats(series: Series, smr: &Option<AnySmr>) -> StatsSnapshot {
    match (series, smr) {
        (Series::Orcgc, _) => orcgc::domain_stats(),
        (_, Some(smr)) => smr.stats(),
        _ => StatsSnapshot::default(),
    }
}

/// `VmHWM` of this process in kB (0 where `/proc` has none).
fn rss_peak_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// `t` as ns since the Unix epoch: the one clock parent and child share.
pub fn unix_ns(t: SystemTime) -> u128 {
    t.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos())
}

/// Exact `q`-quantile of sorted samples (nearest rank); 0 when empty.
pub fn quantile(sorted: &[u32], q: f64) -> u32 {
    match sorted.len() {
        0 => 0,
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Runs `args.reps` windows and prints one result line per window.
/// `epoch` is the process's first instant.
pub fn run(args: &SliceArgs, epoch: Instant) {
    let mut rep_started = args.spawned_unix_ns;
    for _ in 0..args.reps {
        println!("{}", one_window(args, epoch, rep_started));
        rep_started = unix_ns(SystemTime::now());
    }
}

fn one_window(args: &SliceArgs, epoch: Instant, started_unix_ns: u128) -> String {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut phases: Vec<(&str, u64, u64)> = Vec::new();
    let pool_before = pool::snapshot();
    let live_before = track::global().live_objects();

    let t = now();
    let (target, smr) = build(args.workload, args.series, args.traced || args.sampler);
    let registration = args.sampler.then(|| match &smr {
        Some(smr) => reclaim::observe(args.series.name(), smr),
        None => orcgc::observe_domain(args.series.name()),
    });
    phases.push(("build", t, now()));

    let t = now();
    let range = args.workload.key_range();
    let prefill_sum = match &target {
        Target::Set(set) => slice::prefill(&**set, range, args.seed),
        _ => 0,
    };
    phases.push(("prefill", t, now()));

    let cfg = RunCfg {
        seed: args.seed,
        window: Duration::from_millis(args.window_ms),
        traced: args.traced,
        epoch,
    };
    let stats_before = scheme_stats(args.series, &smr);
    let pool_at_release = pool::snapshot();
    let (events_before, dropped_before) = (trace::events_recorded(), trace::events_dropped());
    let t = now();
    let mut out: RunOut = match &target {
        Target::Set(set) if args.workload == Workload::ListRead => {
            slice::run_list_read(&**set, range, &cfg)
        }
        Target::Set(set) => slice::run_tree_update(&**set, range, prefill_sum, &cfg),
        Target::Queue(queue) => slice::run_queue_pairs(&**queue, &cfg),
        Target::Stall => slice::run_stall_bound(args.series, smr.as_ref(), &cfg),
    };
    phases.push(("window", t, now()));
    let stats = scheme_stats(args.series, &smr).since(&stats_before);
    let pool_delta = pool::snapshot().since(&pool_at_release);
    let events = trace::events_recorded() - events_before;
    let dropped = trace::events_dropped() - dropped_before;

    let teardown_start = now();
    drop(registration);
    drop(target);
    phases.push(("teardown", teardown_start, now()));
    let t = now();
    if let Some(smr) = smr {
        smr.flush();
    }
    orcgc::flush_thread();
    phases.push(("flush", t, now()));
    let teardown_ns = now() - teardown_start;

    let leak_slots = pool::snapshot().live_slots() - pool_before.live_slots();
    let leak_objects = track::global().live_objects() - live_before;
    if leak_slots != 0 || leak_objects != 0 {
        out.failed = out.ops.max(1);
        out.errors.push(format!(
            "leak after drop and flush: {leak_slots} pool slots, {leak_objects} tracked objects"
        ));
    }

    let mut durations: Vec<u32> = out.spans.iter().flatten().map(|s| s.dur_ns).collect();
    durations.sort_unstable();
    let setup_ns = out
        .released
        .map_or(0, |r| unix_ns(r).saturating_sub(started_unix_ns));

    let mut line = String::from("{");
    let mut field = |name: &str, value: String| {
        line.push_str(&format!("{}:{value},", quote(name)));
    };
    field("ops", out.ops.to_string());
    field("failed", out.failed.to_string());
    field("rate", format!("{:.3}", out.rate));
    field("setup_ns", setup_ns.to_string());
    field("teardown_ns", teardown_ns.to_string());
    field("rss_kb", rss_peak_kb().to_string());
    field("workers", out.spans.len().to_string());
    field("timed", out.timed.to_string());
    field("samples", durations.len().to_string());
    field("p50_ns", quantile(&durations, 0.50).to_string());
    field("p99_ns", quantile(&durations, 0.99).to_string());
    field("writer_peak", out.peak_unreclaimed.to_string());
    field("bound", out.bound.to_string());
    field("retires", stats.retires.to_string());
    field("reclaims", stats.reclaims.to_string());
    field("scans", stats.scans.to_string());
    field("protect_retries", stats.protect_retries.to_string());
    field("mean_batch", format!("{:.4}", stats.mean_batch()));
    field("delay_p99_ns", stats.delay_p99().to_string());
    field("stats_peak", stats.peak_unreclaimed.to_string());
    field("slot_allocs", pool_delta.slot_allocs.to_string());
    field("slot_frees", pool_delta.slot_frees.to_string());
    field("refills", pool_delta.refills.to_string());
    field("remote_frees", pool_delta.remote_frees.to_string());
    field("trace_events", events.to_string());
    field("trace_dropped", dropped.to_string());
    field(
        "errors",
        format!(
            "[{}]",
            out.errors
                .iter()
                .map(|e| quote(e))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    field(
        "phases",
        format!(
            "[{}]",
            phases
                .iter()
                .map(|(name, s, e)| format!("[{},{s},{e}]", quote(name)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    // Only a traced slice's spans go to `trace.json`.
    let spans: Vec<String> = out
        .spans
        .iter()
        .enumerate()
        .filter(|_| args.traced)
        .flat_map(|(tid, spans)| {
            let newest = &spans[spans.len().saturating_sub(SPANS_OUT)..];
            newest.iter().map(move |s: &Span| {
                format!(
                    "[{tid},{},{},{}]",
                    quote(OP_NAMES[s.kind as usize]),
                    s.start_ns,
                    s.dur_ns
                )
            })
        })
        .collect();
    line.push_str(&format!("\"spans\":[{}]}}", spans.join(",")));
    line
}
