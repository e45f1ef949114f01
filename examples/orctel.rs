//! orctel: the telemetry console — three views of one short churn.
//!
//! Every subcommand runs the same write-heavy Michael-list workload (the
//! Figs. 3–4 mix, scaled down) on the registry's `MichaelList*` cells —
//! each SMR scheme in the workspace, then OrcGC (a scheme added to the
//! registry's axis gets a row for free) — set up the way the bench cells
//! are (an orc-obs source registered per scheme, the set wrapped in the
//! op-latency spans), then reads one telemetry layer back out:
//!
//! * `stat [--json <path>]` — one orc-stats row per scheme
//!   ([`StatsSnapshot::table_row`], shared with the torture driver): how
//!   much was retired, how much came back, scan avalanches vs. handover
//!   dribbles, the peak backlog Table 1 bounds. `--json` dumps JSON
//!   lines. It validates
//!   the sampled delay contract: every reclaiming scheme recorded
//!   `1 ≤ delays ≤ reclaims` delay samples (the rd-* columns cover 1
//!   object in `SAMPLE_EVERY`). Under `ORC_STATS=0` the rows and the
//!   delay histograms go to zero and throughput stays.
//! * `trace` — exports the merged orc-trace rings as Chrome trace-event
//!   JSON to `$ORC_TRACE_OUT` (default `orctrace.json`, loadable at
//!   <https://ui.perfetto.dev>) and validates the artifact: it parses,
//!   every registered tid contributed an event, the merged snapshot is
//!   time-ordered. Under `ORC_TRACE=0` it writes an empty-but-valid
//!   trace.
//! * `obs [--json <path>] [--prom <path>]` — the live dashboard: the
//!   `unreclaimed` series tail, sampled rates, watchdog alerts and op
//!   p50/p99 per scheme; validates both wire formats
//!   ([`obs::prom_wellformed`], [`json::parse`] per line) before writing
//!   them. Under `ORC_OBS=0` it instead asserts orc-obs stayed
//!   structurally unmaterialized.
//!
//! Any failed validation exits 1 (what the CI smoke steps rely on), a
//! usage error exits 2. Respects `ORC_BENCH_SECONDS` and the first
//! `ORC_BENCH_THREADS` entry.
//!
//! Run: `cargo run --release --example orctel -- stat --json orcstat.jsonl`

use orc_util::obs::{self, OpKind, Sample, SeriesKind};
use orc_util::sample::SAMPLE_EVERY;
use orc_util::{json, registry, trace};
use reclaim::StatsSnapshot;
use std::sync::Arc;
use structures::registry::{MatrixFilter, SetCell};
use workloads::config::BenchConfig;
use workloads::record::{maybe_dump_json_to, Measurement};
use workloads::throughput::{prefill_set, set_mix, Mix};

const KEYS: u64 = 128;
const USAGE: &str =
    "usage: orctel stat [--json <path>] | trace | obs [--json <path>] [--prom <path>]";

fn fail(msg: &str) -> ! {
    eprintln!("orctel: FAILED: {msg}");
    std::process::exit(1);
}

fn usage(msg: &str) -> ! {
    eprintln!("orctel: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// One scheme's run. The registration stays alive until the final
/// export so the registry-wide report still sees every source.
struct Row {
    label: &'static str,
    /// Whether the scheme frees retired objects during the run.
    reclaims: bool,
    m: Measurement,
    stats: StatsSnapshot,
    report: obs::SourceReport,
    op: obs::OpSnapshot,
    _reg: obs::Registration,
}

/// Prefill, churn for the configured interval, quiesce, capture.
fn run_cell(cfg: &BenchConfig, cell: &SetCell) -> Row {
    let label = cell.scheme.name();
    let threads = cfg.threads.first().copied().unwrap_or(2);
    // For OrcGC the stats are the domain delta over this run (prefill
    // included): the domain is process-global.
    let (set, reclaimer) = cell.instantiate();
    let reg = reclaimer.observe(label);
    let set = Arc::new(set);
    prefill_set(&*set, KEYS);
    let _ = obs::op_take_window(); // per-scheme window: drop prefill spans
    obs::sample_now(); // bracket the run even under ORC_OBS_INTERVAL_MS=0
    let dur = cfg.seconds_per_point;
    let m = set_mix("orctel", label, set, threads, KEYS, Mix::WRITE_HEAVY, dur);
    obs::sample_now();
    let (report, op) = (reg.report(), obs::op_take_window());
    // Quiesce before snapshotting so retires − reclaims matches the
    // scheme's live gauge (nodes still linked in the set stay retired-free).
    reclaimer.flush();
    let stats = reclaimer.stats();
    Row {
        label,
        reclaims: cell.scheme.reclaims(),
        m: m.with_stats(stats)
            .with_trace(&stats, trace::events_dropped()),
        stats,
        report,
        op,
        _reg: reg,
    }
}

/// The churn under every manual scheme, then under OrcGC: the registry's
/// Michael-list cells, in Table-1 order.
fn run_all() -> Vec<Row> {
    let cfg = BenchConfig::from_env();
    println!(
        "orctel: MichaelList 50i-50r, {KEYS} keys, {} threads, {:.2}s/scheme, \
         sampler interval {}ms (0 = explicit passes only)",
        cfg.threads.first().copied().unwrap_or(2),
        cfg.seconds_per_point.as_secs_f64(),
        obs::interval_ms()
    );
    MatrixFilter::full()
        .set_cells()
        .iter()
        .filter(|c| c.structure.starts_with("MichaelList"))
        .map(|cell| run_cell(&cfg, cell))
        .collect()
}

/// The sampled delay contract: a reclaiming scheme's histogram holds the
/// stamped objects it freed — at least each churn thread's first retire,
/// never more than it reclaimed — and nothing at all under `ORC_STATS=0`.
fn check_delays(r: &Row) {
    let (delays, reclaims) = (r.stats.delays(), r.stats.reclaims);
    let ok = if !orc_util::stats::enabled() {
        delays == 0
    } else {
        !r.reclaims || (1..=reclaims).contains(&delays)
    };
    if !ok {
        fail(&format!(
            "{}: {delays} delay samples for {reclaims} reclaims (stats on: {})",
            r.label,
            orc_util::stats::enabled()
        ));
    }
}

fn stat(json_path: Option<&str>) {
    let rows = run_all();
    println!(
        "{}  rd-*: 1 object in {SAMPLE_EVERY}",
        StatsSnapshot::table_header("scheme")
    );
    for r in &rows {
        println!("{}", r.stats.table_row(r.label, Some(r.m.mops)));
    }
    rows.iter().for_each(check_delays);
    let ms: Vec<Measurement> = rows.into_iter().map(|r| r.m).collect();
    maybe_dump_json_to(json_path, &ms);
    println!();
    println!("outst = retires - reclaims (None never reclaims; its nodes are");
    println!("freed only at teardown). PTP/OrcGC reclaim through handovers in");
    println!("batches of ~1; HP/HE/EBR amortize into larger scan batches.");
    println!("rd-p50/p99/max = retire→reclaim latency quantiles over the sampled");
    println!("objects (each thread's first retire, then 1 in {SAMPLE_EVERY});");
    println!("'-' when a scheme freed none during the window.");
}

fn trace_cmd() {
    trace::install_flight_recorder();
    let out = std::path::PathBuf::from(
        std::env::var("ORC_TRACE_OUT").unwrap_or_else(|_| "orctrace.json".to_string()),
    );
    run_all();
    if let Err(e) = trace::export_chrome(&out) {
        eprintln!("orctel: export failed: {e}");
        std::process::exit(2);
    }
    let doc = std::fs::read_to_string(&out).expect("just wrote it");
    if json::parse(&doc).is_err() {
        fail(&format!("{} is not well-formed JSON", out.display()));
    }
    if !trace::enabled() {
        println!(
            "orctel: ORC_TRACE=0 — recording off, wrote empty trace to {}",
            out.display()
        );
        return;
    }
    // Coverage: every registered tid must have contributed ≥ 1 event.
    // The churn threads have exited, but their ring contents (and the
    // registry watermark) survive them.
    let events = trace::snapshot();
    let watermark = registry::registered_watermark();
    let silent: Vec<usize> = (0..watermark)
        .filter(|&t| !events.iter().any(|e| e.tid as usize == t))
        .collect();
    if !silent.is_empty() {
        fail(&format!(
            "registered tids {silent:?} recorded no events (watermark {watermark}, {} events total)",
            events.len()
        ));
    }
    if !events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns) {
        fail("merged snapshot is not timestamp-ordered");
    }
    // Events of one call share its one clock read, so the per-tid order
    // is what a reader leans on: stamps monotone in seq order, every
    // scan_end after its scan_begin.
    if let Err(why) = trace::check_per_tid_order(&events) {
        fail(&why);
    }
    println!(
        "orctel: wrote {} ({} bytes) — {} events from {watermark} threads, {} overwritten",
        out.display(),
        doc.len(),
        events.len(),
        trace::events_dropped()
    );
    println!("orctel: open it at https://ui.perfetto.dev (or chrome://tracing)");
}

fn series(r: &obs::SourceReport, kind: SeriesKind) -> &[Sample] {
    r.series
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, s)| s.as_slice())
        .unwrap_or(&[])
}

fn print_dashboard(rows: &[Row]) {
    println!(
        "{:<9} {:>7} {:<22} {:>9} {:>6} {:>13} {:>13} {:>13}",
        "scheme",
        "mops",
        "unreclaimed tail",
        "retire/s",
        "alerts",
        "ins p50/p99",
        "rm p50/p99",
        "ct p50/p99"
    );
    for r in rows {
        // Newest ≤ 5 values, oldest→newest, `-` when empty.
        let unr = series(&r.report, SeriesKind::Unreclaimed);
        let tail: Vec<String> = unr[unr.len().saturating_sub(5)..]
            .iter()
            .map(|s| s.v.to_string())
            .collect();
        let span = |kind| match &r.op[kind] {
            h if h.count() == 0 => "-".to_string(),
            h => format!("{}/{}", h.p50(), h.p99()),
        };
        println!(
            "{:<9} {:>7.3} {:<22} {:>9} {:>6} {:>13} {:>13} {:>13}",
            r.label,
            r.m.mops,
            if tail.is_empty() {
                "-".to_string()
            } else {
                tail.join(">")
            },
            series(&r.report, SeriesKind::RetireRate)
                .last()
                .map_or(0, |s| s.v),
            r.report.alerts,
            span(OpKind::Insert),
            span(OpKind::Remove),
            span(OpKind::Contains),
        );
    }
}

fn obs_cmd(json_path: Option<&str>, prom_path: Option<&str>) {
    let rows = run_all();
    print_dashboard(&rows);
    if obs::enabled() {
        if let Some(r) = rows
            .iter()
            .find(|r| series(&r.report, SeriesKind::Unreclaimed).is_empty())
        {
            fail(&format!("{}: empty unreclaimed series", r.label));
        }
        if obs::passes() == 0 {
            fail("no sampling passes completed");
        }
    } else {
        // Kill-switch smoke: the runs above must have left orc-obs
        // structurally untouched.
        if obs::is_materialized() || obs::passes() != 0 || obs::source_count() != 0 {
            fail("ORC_OBS=0 but obs state materialized");
        }
        if rows.iter().any(|r| !r.report.series.is_empty()) {
            fail("ORC_OBS=0 but a source captured samples");
        }
    }
    let rep = obs::report();
    if obs::enabled() && rep.sources.len() < rows.len() {
        fail("registry-wide report lost sources");
    }
    let prom = rep.prometheus();
    if !obs::prom_wellformed(&prom) {
        fail("Prometheus exposition failed its validator");
    }
    if obs::enabled()
        && !(prom.contains("orc_obs_unreclaimed") && prom.contains("orc_obs_live_slots"))
    {
        fail("exposition is missing expected metric families");
    }
    // One dashboard line per scheme, then the registry-wide export.
    let mut lines = String::new();
    for r in &rows {
        let mut w = json::Writer::new();
        w.begin_obj().key("scheme").str(r.label);
        w.key("mops").raw(&format!("{:.6}", r.m.mops));
        w.key("alerts").int(r.report.alerts);
        w.key("series").raw(&r.report.series_json());
        w.key("op").raw(&r.op.json()).end_obj();
        lines.push_str(&w.finish());
        lines.push('\n');
    }
    lines.push_str(&rep.json_lines());
    if let Some(bad) = lines.lines().find(|l| json::parse(l).is_err()) {
        fail(&format!("malformed JSON line: {bad}"));
    }
    for (path, doc, what) in [
        (json_path, &lines, "JSON lines"),
        (prom_path, &prom, "Prometheus exposition"),
    ] {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, doc) {
                fail(&format!("cannot write {path}: {e}"));
            }
            println!("orctel: wrote {what} to {path}");
        }
    }
    if !obs::enabled() {
        println!("orctel: ORC_OBS=0 — telemetry disabled, structural zero-cost verified");
        return;
    }
    println!();
    println!(
        "orctel: {} sources, {} sampling passes, {} alert(s); exposition {} lines, \
         JSON export {} lines — all validated",
        rows.len(),
        obs::passes(),
        obs::alert_count(),
        prom.lines().count(),
        rep.json_lines().lines().count()
    );
    println!("unreclaimed tail reads oldest>newest; rates are per-second over the");
    println!("last sampling interval; op spans are ns p50/p99 from stride-sampled");
    println!("wall-clock timings (see DESIGN.md section 14).");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage("missing subcommand"));
    let allowed: &[&str] = match cmd.as_str() {
        "stat" => &["--json"],
        "trace" => &[],
        "obs" => &["--json", "--prom"],
        other => usage(&format!("unknown subcommand {other:?}")),
    };
    let (mut json_path, mut prom_path) = (None, None);
    while let Some(flag) = args.next() {
        if !allowed.contains(&flag.as_str()) {
            usage(&format!("{cmd}: unknown argument {flag:?}"));
        }
        let path = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} requires a path")));
        if flag == "--json" {
            json_path = Some(path);
        } else {
            prom_path = Some(path);
        }
    }
    match cmd.as_str() {
        "stat" => stat(json_path.as_deref()),
        "trace" => trace_cmd(),
        _ => obs_cmd(json_path.as_deref(), prom_path.as_deref()),
    }
}
