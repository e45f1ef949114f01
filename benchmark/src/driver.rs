//! The parent side: one child process per slice, series interleaved and
//! reversed on odd rounds, medians over rounds. The parent only spawns,
//! sleeps in `wait`, and aggregates, so the two CPUs belong to the slice.

use crate::child::{unix_ns, SliceArgs};
use crate::json::{self, quote, Value};
use crate::median;
use crate::spec::{self, Arm, MetricDef, Series, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::SystemTime;

/// Rounds × window of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub rounds: usize,
    pub window_ms: u64,
}

/// Seconds of a traced run that the micro cells take (they run a fixed
/// iteration count, not a window).
const MICRO_SECONDS: f64 = 5.0;

impl Plan {
    /// End-to-end plan for a `--seconds` budget: 9 rounds of 5 series.
    pub fn end_to_end(seed: u64, seconds: f64) -> Plan {
        let rounds = 9;
        Plan {
            seed,
            rounds,
            window_ms: (seconds * 1e3 / (rounds * Series::E2E.len()) as f64) as u64,
        }
    }

    /// Traced plan for a `--seconds` budget: 3 rounds, and the window
    /// that fits [`Plan::traced_windows`] after the micro cells.
    pub fn traced(seed: u64, seconds: f64) -> Plan {
        let rounds = 3;
        let windows = Plan::traced_windows(rounds) as f64;
        Plan {
            seed,
            rounds,
            window_ms: (((seconds - MICRO_SECONDS).max(1.0)) * 1e3 / windows) as u64,
        }
    }

    /// Windows a traced run of `rounds` rounds executes: one traced slice
    /// per series, every arm of the two detailed series each round, and
    /// two windows per round in the allocation-history child.
    fn traced_windows(rounds: usize) -> usize {
        Series::ALL.len() + rounds * (Arm::ALL.len() * Series::DETAILED.len() + 2)
    }

    /// The seed of round `round`: every series of a round sees the same
    /// inputs, every round different ones.
    fn round_seed(&self, round: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round as u64 + 1)
    }
}

/// One metric value, ready to print.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines (table rows, errors).
    pub lines: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn push(&mut self, defs: &[MetricDef], name: &str, value: f64) {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
        // JSON has no NaN or infinity; a ratio over an empty count is 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: def.unit,
        });
    }

    /// Accounts one child's result lines; a child that died is one
    /// failed attempt.
    fn account(&mut self, label: &str, windows: &Result<Vec<Value>, String>) {
        match windows {
            Ok(windows) => {
                for w in windows {
                    self.attempted += w.num("ops") as u64;
                    self.failed += w.num("failed") as u64;
                    for e in w.get("errors").map(Value::as_arr).unwrap_or(&[]) {
                        self.lines
                            .push(format!("FAILED {label}: {}", e.as_str().unwrap_or("?")));
                    }
                }
            }
            Err(why) => {
                self.attempted += 1;
                self.failed += 1;
                self.lines.push(format!("FAILED {label}: {why}"));
            }
        }
    }
}

/// Runs this binary as a child with every `ORC_*` variable of the
/// caller's environment removed and only `env` added, and parses its
/// stdout as one JSON object per line.
fn spawn_child(tokens: &[String], env: &[(&str, &str)]) -> Result<Vec<Value>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child").args(tokens);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ORC_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(env.iter().copied());
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let lines: Result<Vec<Value>, String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(json::parse)
        .collect();
    match lines {
        Ok(lines) if lines.is_empty() => Err("child printed no result".into()),
        other => other,
    }
}

/// Spawns one slice child.
fn run_slice(
    workload: Workload,
    series: Series,
    arm: Arm,
    seed: u64,
    window_ms: u64,
    traced: bool,
    reps: u32,
) -> Result<Vec<Value>, String> {
    let args = SliceArgs {
        workload,
        series,
        seed,
        window_ms,
        traced,
        sampler: arm == Arm::Sampler,
        reps,
        spawned_unix_ns: unix_ns(SystemTime::now()),
    };
    let mut tokens = vec!["slice".to_string()];
    tokens.extend(args.to_tokens());
    spawn_child(&tokens, arm.env())
}

/// `items` in order on even rounds, reversed on odd ones (ABCDE, EDCBA,
/// …), so no series always runs first or right after the same neighbour.
fn round_order<T: Copy>(items: &[T], round: usize) -> Vec<T> {
    let mut order = items.to_vec();
    if round % 2 == 1 {
        order.reverse();
    }
    order
}

/// The end-to-end run of one workload: `plan.rounds` rounds of the five
/// series, one fresh untraced child per slice.
pub fn end_to_end(workload: Workload, plan: Plan) -> Report {
    let defs = spec::end_to_end();
    let mut report = Report::default();
    let mut results: Vec<(Series, Value)> = Vec::new();
    for round in 0..plan.rounds {
        for series in round_order(&Series::E2E, round) {
            let label = format!("{}/{} round {round}", workload.name(), series.name());
            let windows = run_slice(
                workload,
                series,
                Arm::Default,
                plan.round_seed(round),
                plan.window_ms,
                false,
                1,
            );
            report.account(&label, &windows);
            if let Ok(mut windows) = windows {
                results.push((series, windows.remove(0)));
            }
        }
    }
    let column = |series: Series, key: &str| -> Vec<f64> {
        results
            .iter()
            .filter(|(s, _)| *s == series)
            .map(|(_, v)| v.num(key))
            .collect()
    };
    report.lines.push(format!(
        "{:<8} {:>9} {:>19} {:>10} {:>9} {:>9} {:>9}",
        "series", "Mops/s", "[min .. max]", "p99 ns", "samples", "rss MB", "setup ms"
    ));
    let mut setup_s = 0.0;
    for series in Series::E2E {
        let mops: Vec<f64> = column(series, "rate").iter().map(|r| r / 1e6).collect();
        let setup = median(&column(series, "setup_ns")) / 1e9;
        setup_s += setup;
        report.lines.push(format!(
            "{:<8} {:>9.4} [{:>7.4} .. {:>7.4}] {:>10.0} {:>9.0} {:>9.2} {:>9.2}",
            series.name(),
            median(&mops),
            mops.iter().copied().fold(f64::INFINITY, f64::min),
            mops.iter().copied().fold(0.0, f64::max),
            median(&column(series, "p99_ns")),
            median(&column(series, "samples")),
            median(&column(series, "rss_kb")) / 1024.0,
            setup * 1e3,
        ));
        report.push(&defs, &format!("mops.{}", series.name()), median(&mops));
    }
    for (key, scale) in [("rate", 1e-6), ("p99_ns", 1.0), ("setup_ns", 1e-6)] {
        for series in Series::E2E {
            let rounds: Vec<String> = column(series, key)
                .iter()
                .map(|v| format!("{:.3}", v * scale))
                .collect();
            report.lines.push(format!(
                "rounds {key} {:<6} {}",
                series.name(),
                rounds.join(" ")
            ));
        }
    }
    report.push(&defs, "setup_s", setup_s);
    for series in Series::DETAILED {
        report.push(
            &defs,
            &format!("rss_peak_mb.{}", series.name()),
            median(&column(series, "rss_kb")) / 1024.0,
        );
    }
    report.lines.push(format!(
        "ops_attempted {} ops_failed {}",
        report.attempted, report.failed
    ));
    report
}

/// Environment a micro cell needs beyond its name.
fn micro_env(name: &str) -> &'static [(&'static str, &'static str)] {
    match name {
        "pool.off_pair_ns" => &[("ORC_POOL", "0")],
        // Explicit passes only: the background sampler would race them.
        "obs.sample_now_us" => &[("ORC_OBS_INTERVAL_MS", "0")],
        _ => &[],
    }
}

/// Calls into each layer that one structure call makes, by the
/// algorithm (the program counts none of them): trips through the
/// registry cell, protected hops, and for the OrcGC twin the counted
/// link updates.
fn calls_per_op(workload: Workload) -> (f64, f64, f64) {
    match workload {
        // enqueue: tail + CAS next + CAS tail; dequeue: head, next + CAS head.
        Workload::QueuePairs => (1.0, 1.5, 1.5),
        // 500 keys, a hit or miss stops half way on average.
        Workload::ListRead => (1.0, 250.0, 0.0),
        // Random BST over 50 000 keys: ~1.39·log2(n) ≈ 21 levels; half the
        // updates find the key in the wrong state and change nothing.
        Workload::TreeUpdate => (1.0, 21.0, 0.75),
        // No structure, so no cell; the writer never protects, and
        // stores one link per call.
        Workload::StallBound => (0.0, 0.0, 1.0),
    }
}

/// The traced run of one workload: micro cells, one traced slice per
/// series, the kill-switch arms and the allocation-history probe. Writes
/// `trace.json` into `out_dir`.
pub fn layers(workload: Workload, plan: Plan, out_dir: &Path) -> Report {
    let defs = spec::per_layer();
    let mut report = Report::default();
    let micro = micro_cells(&defs, &mut report);
    let traced = traced_slices(workload, plan, &defs, &mut report);
    let untraced_ptp = arms(workload, plan, &defs, &mut report);
    let slice_of = |series: Series| &traced.iter().find(|(s, _)| *s == series).expect("ran").1;
    report.push(
        &defs,
        "bench.trace_overhead",
        1.0 - slice_of(Series::Ptp).num("rate") / untraced_ptp,
    );
    for series in Series::DETAILED {
        budget(
            workload,
            series,
            slice_of(series),
            &micro,
            &mut report.lines,
        );
    }
    for (series, v) in &traced {
        report.lines.push(format!(
            "traced {}/{}: ops {} retires {} slot_allocs {} spans {}",
            workload.name(),
            series.name(),
            v.num("ops"),
            v.num("retires"),
            v.num("slot_allocs"),
            v.num("timed")
        ));
    }
    let path = out_dir.join("trace.json");
    match std::fs::write(&path, trace_json(workload, &traced)) {
        Ok(()) => report.lines.push(format!("wrote {}", path.display())),
        Err(e) => {
            report.attempted += 1;
            report.failed += 1;
            report
                .lines
                .push(format!("FAILED writing {}: {e}", path.display()));
        }
    }
    report
}

type MicroCosts = std::collections::BTreeMap<String, f64>;

/// Source 1: every micro cell in a fresh child of its own.
fn micro_cells(defs: &[MetricDef], report: &mut Report) -> MicroCosts {
    let mut micro = MicroCosts::new();
    for cell in spec::micro_cells() {
        let tokens = ["micro".to_string(), cell.name.clone()];
        let ns = match spawn_child(&tokens, micro_env(&cell.name)) {
            Ok(lines) => lines[0].num("per_iter"),
            Err(why) => {
                report.account(&cell.name, &Err(why));
                0.0
            }
        };
        report.push(defs, &cell.name, ns);
        micro.insert(cell.name, ns);
    }
    micro
}

/// Source 2: one traced slice per series, and the counters read at its
/// window's boundary.
fn traced_slices(
    workload: Workload,
    plan: Plan,
    defs: &[MetricDef],
    report: &mut Report,
) -> Vec<(Series, Value)> {
    let mut traced: Vec<(Series, Value)> = Vec::new();
    for series in Series::ALL {
        let windows = run_slice(
            workload,
            series,
            Arm::Default,
            plan.round_seed(0),
            plan.window_ms,
            true,
            1,
        );
        let label = format!("{}/{} traced", workload.name(), series.name());
        report.account(&label, &windows);
        let window = windows.map_or(Value::Null, |mut windows| windows.remove(0));
        traced.push((series, window));
    }
    let slice_of = |series: Series| &traced.iter().find(|(s, _)| *s == series).expect("ran").1;
    let per_kop = |v: &Value, key: &str| v.num(key) * 1e3 / v.num("ops");
    for (series, v) in &traced {
        let name = format!("structures.{}.op_p50_ns", series.name());
        report.push(defs, &name, v.num("p50_ns"));
    }
    for series in Series::RECLAIMING {
        let (s, v) = (series.name(), slice_of(series));
        // `stall_bound` reports what its writer saw; elsewhere nobody
        // polls the gauge, so the scheme's own high-water mark stands in.
        let peak = if workload == Workload::StallBound {
            v.num("writer_peak")
        } else {
            v.num("stats_peak")
        };
        for (suffix, value) in [
            ("scans_per_kop", per_kop(v, "scans")),
            ("mean_batch", v.num("mean_batch")),
            ("delay_p99_ns", v.num("delay_p99_ns")),
            ("peak_unreclaimed", peak),
            ("protect_retries_per_kop", per_kop(v, "protect_retries")),
        ] {
            report.push(defs, &format!("reclaim.{s}.{suffix}"), value);
        }
    }
    for series in Series::DETAILED {
        let (s, v) = (series.name(), slice_of(series));
        report.push(
            defs,
            &format!("pool.{s}.refill_ratio"),
            v.num("refills") / v.num("slot_allocs"),
        );
        report.push(
            defs,
            &format!("pool.{s}.remote_free_ratio"),
            v.num("remote_frees") / v.num("slot_frees"),
        );
    }
    let ptp = slice_of(Series::Ptp);
    report.push(
        defs,
        "trace.ptp.dropped_share",
        ptp.num("trace_dropped") / ptp.num("trace_events"),
    );
    let teardown: Vec<f64> = traced.iter().map(|(_, v)| v.num("teardown_ns")).collect();
    report.push(defs, "teardown_s", median(&teardown) / 1e9);
    traced
}

/// Source 3: each arm of the two detailed series in a child of its own,
/// interleaved with the default arm, and the two-window history child in
/// the same rounds. Returns the default arm's median ptp rate, the
/// untraced reference of `bench.trace_overhead`.
fn arms(workload: Workload, plan: Plan, defs: &[MetricDef], report: &mut Report) -> f64 {
    let w = workload.name();
    let cells: Vec<(Series, Arm)> = Series::DETAILED
        .into_iter()
        .flat_map(|s| Arm::ALL.map(|a| (s, a)))
        .collect();
    let mut results: Vec<((Series, Arm), Value)> = Vec::new();
    let mut history = Vec::new();
    for round in 0..plan.rounds {
        let seed = plan.round_seed(round);
        for (series, arm) in round_order(&cells, round) {
            let windows = run_slice(workload, series, arm, seed, plan.window_ms, false, 1);
            let label = format!("{w}/{} arm {arm:?} round {round}", series.name());
            report.account(&label, &windows);
            // A dead child still fills its round, so arm and default
            // stay paired.
            let window = windows.map_or(Value::Null, |mut windows| windows.remove(0));
            results.push(((series, arm), window));
        }
        let windows = run_slice(
            workload,
            Series::Ptp,
            Arm::Default,
            seed,
            plan.window_ms,
            false,
            2,
        );
        report.account(&format!("{w}/ptp history round {round}"), &windows);
        if let Ok(windows) = windows {
            history.push(windows[1].num("rate") / windows[0].num("rate"));
        }
    }
    let column = |series: Series, arm: Arm, key: &str| -> Vec<f64> {
        results
            .iter()
            .filter(|(cell, _)| *cell == (series, arm))
            .map(|(_, v)| v.num(key))
            .collect()
    };
    for series in Series::DETAILED {
        let base = column(series, Arm::Default, "rate");
        // The 1-in-64 latency sample of the untraced default slices.
        report.push(
            defs,
            &format!("op_p99_ns.{}", series.name()),
            median(&column(series, Arm::Default, "p99_ns")),
        );
        for arm in Arm::ALL {
            let Some(prefix) = arm.metric() else { continue };
            // Paired by round: each ratio compares neighbours in time.
            let ratios: Vec<f64> = column(series, arm, "rate")
                .iter()
                .zip(&base)
                .map(|(a, b)| a / b)
                .collect();
            report.push(
                defs,
                &format!("{prefix}.{}", series.name()),
                median(&ratios),
            );
        }
        // The default arm against itself: the spread an arm ratio must
        // leave behind before it means anything.
        let rounds: Vec<String> = base.iter().map(|r| format!("{:.3}", r / 1e6)).collect();
        report.lines.push(format!(
            "default arm {w}/{} Mops/s by round: {}",
            series.name(),
            rounds.join(" ")
        ));
    }
    report.push(defs, "pool.history_ratio", median(&history));
    median(&column(Series::Ptp, Arm::Default, "rate"))
}

/// The budget of one traced slice: what the micro cells say a call
/// should cost, against the mean call the slice measured.
fn budget(
    workload: Workload,
    series: Series,
    v: &Value,
    micro: &MicroCosts,
    lines: &mut Vec<String>,
) {
    let (trips, hops, updates) = calls_per_op(workload);
    let ops = v.num("ops");
    // Mean time of a call: worker-seconds over calls. The micro cells
    // are means too; the median leaves out the scans a few calls pay
    // for many.
    let mean = v.num("workers") * 1e9 / v.num("rate");
    let (retires, allocs) = (v.num("retires") / ops, v.num("slot_allocs") / ops);
    let mut rows: Vec<(&str, f64)> = if series == Series::Orcgc {
        let update = if workload == Workload::StallBound {
            "orcgc.store_ns"
        } else {
            "orcgc.cas_ns"
        };
        vec![
            ("orcgc.load_ns", hops),
            (update, updates),
            ("orcgc.make_drop_ns", allocs),
        ]
    } else {
        vec![
            ("reclaim.ptp.protect_ns", hops),
            ("reclaim.ptp.retire_ns", retires),
            ("pool.pair_ns", (allocs - retires).max(0.0)),
        ]
    };
    rows.push(("structures.registry.dispatch_ns", trips));
    // The span this benchmark wraps around every call of a traced slice:
    // two clock reads.
    rows.push(("trace.now_ns", 2.0));
    let named: f64 = rows.iter().map(|(cell, n)| n * micro[*cell]).sum();
    lines.push(format!(
        "budget {}/{}: op_mean_ns {mean:.0} (op_p50_ns {:.0}) = named layers {named:.1} ({:.0}%) + structure self time {:.1}",
        workload.name(),
        series.name(),
        v.num("p50_ns"),
        100.0 * named / mean,
        mean - named
    ));
    for (cell, n) in rows {
        let ns = micro[cell];
        lines.push(format!(
            "    {cell:<34} {n:>8.3}/op x {ns:>8.2} ns = {:>9.1} ns",
            n * ns
        ));
    }
}

/// The traced slices as Chrome trace events (load in Perfetto or
/// `chrome://tracing`): one process per slice, whose first event is the
/// slice span; phase and call spans name it as `args.parent`.
fn trace_json(workload: Workload, traced: &[(Series, Value)]) -> String {
    let mut events = Vec::new();
    let mut next_id = 0u64;
    let mut event = |name: &str,
                     cat: &str,
                     slice: usize,
                     tid: u64,
                     start: f64,
                     dur: f64,
                     parent: u64| {
        next_id += 1;
        events.push(format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{slice},\"tid\":{tid},\"args\":{{\"id\":{next_id},\"parent\":{parent},\"slice\":{slice}}}}}",
            quote(name),
            quote(cat),
            start / 1e3,
            dur / 1e3
        ));
        next_id
    };
    for (slice, (series, v)) in traced.iter().enumerate() {
        let phases = v.get("phases").map(Value::as_arr).unwrap_or(&[]);
        let end = phases
            .iter()
            .map(|p| p.as_arr()[2].as_f64().unwrap_or(0.0))
            .fold(0.0, f64::max);
        let name = format!("{}/{}", workload.name(), series.name());
        let slice_span = event(&name, "slice", slice, 0, 0.0, end, 0);
        for p in phases {
            let p = p.as_arr();
            let (start, end) = (p[1].as_f64().unwrap_or(0.0), p[2].as_f64().unwrap_or(0.0));
            event(
                p[0].as_str().unwrap_or("?"),
                "phase",
                slice,
                0,
                start,
                end - start,
                slice_span,
            );
        }
        for s in v.get("spans").map(Value::as_arr).unwrap_or(&[]) {
            let s = s.as_arr();
            event(
                s[1].as_str().unwrap_or("?"),
                "op",
                slice,
                s[0].as_f64().unwrap_or(0.0) as u64 + 1,
                s[2].as_f64().unwrap_or(0.0),
                s[3].as_f64().unwrap_or(0.0),
                slice_span,
            );
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Runs the end-to-end set twice back to back and compares the medians
/// against each metric's own bound. Returns whether every gap is inside.
pub fn selfcheck(workloads: &[Workload], plan: Plan) -> bool {
    let defs = spec::end_to_end();
    let mut ok = true;
    for &workload in workloads {
        let (a, b) = (end_to_end(workload, plan), end_to_end(workload, plan));
        println!("selfcheck {}", workload.name());
        println!(
            "  {:<18} {:>12} {:>12} {:>8} {:>7}",
            "metric", "first", "second", "gap", "bound"
        );
        for def in &defs {
            let (x, y) = (
                a.get(&def.name).unwrap_or(0.0),
                b.get(&def.name).unwrap_or(0.0),
            );
            let gap = (x - y).abs() / x;
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let verdict = if gap <= bound { "" } else { "  OUTSIDE" };
            ok &= gap <= bound;
            println!(
                "  {:<18} {x:>12.4} {y:>12.4} {:>7.1}% {:>6.0}%{verdict}",
                def.name,
                gap * 100.0,
                bound * 100.0
            );
        }
        for r in [&a, &b] {
            println!("  ops_attempted {} ops_failed {}", r.attempted, r.failed);
            ok &= r.correct();
        }
    }
    ok
}

/// Where `trace.json` goes when `--out` is not given: next to the
/// binary, which is inside the build directory and so inside the
/// checkout and ignored by git.
pub fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers come from: CPUs, CPU model, git commit, compiler.
pub fn machine_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={} cpu={:?} git={} rustc={:?}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu,
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

/// `BENCHMARK.json`, printed from the tables in `spec.rs`.
pub fn manifest(command: &[&str], run_seconds: u64) -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let metric = |d: &MetricDef| {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(&d.name),
            quote(d.unit),
            quote(d.better.name())
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.iter().map(|c| quote(c)).collect::<Vec<_>>().join(", "),
        list(Workload::ALL
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name()), quote(w.why())))
            .collect()),
        list(spec::end_to_end().iter().map(metric).collect()),
        list(spec::per_layer().iter().map(metric).collect()),
    )
}
