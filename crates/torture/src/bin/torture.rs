//! CI soak driver: runs the full torture battery over the
//! (structure × scheme) registry matrix, sized by `TORTURE_ITERS` /
//! `TORTURE_THREADS` (see [`torture::Config::from_env`]) and sliced by
//! `ORC_SCHEMES` / `ORC_STRUCTS` (see
//! [`structures::registry::MatrixFilter::from_env`] — unknown names fail
//! fast, listing the valid ones). Any violated bound or leaked
//! allocation panics, failing the run.
//!
//! `--json <path>` additionally writes one JSON line per battery cell
//! (stall profiles and ledger stats, each with a nested `"stats"`
//! object in the `StatsSnapshot::json` layout), so CI artifact steps
//! collect machine-readable results without shell redirection.

use orc_util::json::Writer;
use orc_util::trace;
use reclaim::{SchemeKind, StatsSnapshot};
use structures::registry::MatrixFilter;
use torture::{
    aba_queue_cell, aba_set_cell, assert_stall_profile, churn_queue_cell, churn_set_cell,
    soak_set_cell, soak_threads, stall_cell, Config,
};

/// JSON lines accumulated by the batteries for `--json`.
type JsonSink = Vec<String>;

fn stall_battery(filter: &MatrixFilter, cfg: &Config, sink: &mut JsonSink) {
    println!("== stalled-reader fault injection ==");
    let writers = 2;
    for kind in filter.manual_schemes() {
        let r = stall_cell(kind, writers, cfg.stall_rounds);
        report(&r);
        // `t_ns` is the monotone trace epoch (`trace::now_ns`), the same
        // clock as the orc-obs series and the Perfetto export, so dumped
        // snapshots correlate with both.
        let mut w = Writer::new();
        w.begin_obj().key("battery").str("stall");
        w.key("t_ns").int(trace::now_ns());
        w.key("scheme").str(r.scheme);
        w.key("churned").int(r.churned);
        w.key("max_unreclaimed").int(r.max_unreclaimed);
        w.key("stalled_flush_unreclaimed")
            .int(r.stalled_flush_unreclaimed);
        w.key("drained")
            .raw(if r.drained { "true" } else { "false" });
        w.key("stats").raw(&r.stats.json()).end_obj();
        sink.push(w.finish());
        assert_stall_profile(kind, &r, writers);
    }
}

fn report(r: &torture::StallReport) {
    println!(
        "  {:<5} churned {:>7}  peak {:>7}  stalled-flush {:>7}  drained {}",
        r.scheme, r.churned, r.max_unreclaimed, r.stalled_flush_unreclaimed, r.drained
    );
    println!("        stats: {}", r.stats.summary());
}

fn ledger_battery(filter: &MatrixFilter, cfg: &Config, sink: &mut JsonSink) {
    println!("== leak ledger (scheme × structure) ==");
    println!("  {}", StatsSnapshot::table_header("cell"));
    let mut record = |label: String, s: &StatsSnapshot| {
        println!("  {}", s.table_row(&label, None));
        let mut w = Writer::new();
        w.begin_obj().key("battery").str("ledger");
        w.key("t_ns").int(trace::now_ns());
        w.key("cell").str(&label);
        w.key("stats").raw(&s.json()).end_obj();
        sink.push(w.finish());
    };
    // Fresh scheme instance per ledgered cell (the cell runners own
    // this): each cell must hold the only handles so teardown frees (the
    // leaky stash) land inside its ledger window.
    for cell in filter.set_cells() {
        let s = churn_set_cell(&cell, cfg.threads, cfg.iters);
        record(cell.label(), &s);
    }
    for cell in filter.queue_cells() {
        let s = churn_queue_cell(&cell, cfg.threads, cfg.iters);
        record(cell.label(), &s);
    }
}

/// Schemes worth soaking under oversubscription: one per reclamation
/// style (handover dribble, scan avalanche, epoch bins). The soak is
/// about registry tid churn, which the structure barely affects — so
/// restrict it to set cells of these schemes rather than the full matrix.
const SOAK_SCHEMES: [SchemeKind; 3] = [SchemeKind::Ptp, SchemeKind::Hp, SchemeKind::Ebr];

fn soak_battery(filter: &MatrixFilter, cfg: &Config) {
    println!("== oversubscription soak ==");
    let threads = soak_threads();
    let iters = (cfg.iters / 4).max(500);
    for cell in filter.set_cells() {
        let soaked = cell
            .scheme
            .manual()
            .is_some_and(|kind| SOAK_SCHEMES.contains(&kind));
        if !soaked {
            continue;
        }
        soak_set_cell(&cell, cfg.waves, threads, iters);
        println!(
            "  {:<22} {} waves × {threads} threads balanced",
            cell.label(),
            cfg.waves
        );
    }
}

fn aba_battery(filter: &MatrixFilter, cfg: &Config) {
    println!("== ABA hammer ==");
    for cell in filter.set_cells() {
        aba_set_cell(&cell, cfg.threads, cfg.iters);
        println!("  {:<22} set conserved", cell.label());
    }
    for cell in filter.queue_cells() {
        aba_queue_cell(&cell, 2, 2, cfg.iters);
        println!("  {:<22} queue conserved", cell.label());
    }
}

/// Parses the CLI: `torture [--json <path>]`. Anything else is a usage
/// error (exit 2) so CI typos fail loudly instead of silently running
/// the default battery.
fn parse_args() -> Option<String> {
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("torture: --json requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("torture: unknown argument {other:?} (usage: torture [--json <path>])");
                std::process::exit(2);
            }
        }
    }
    json_path
}

fn main() {
    // Any battery assertion that panics dumps the merged orc-trace tail
    // (the flight recorder) before the process dies.
    orc_util::trace::install_flight_recorder();
    let json_path = parse_args();
    let filter = match MatrixFilter::from_env() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("torture: {e}");
            std::process::exit(2);
        }
    };
    let cfg = Config::from_env();
    println!(
        "torture: iters={} threads={} stall_rounds={} waves={}",
        cfg.iters, cfg.threads, cfg.stall_rounds, cfg.waves
    );
    println!(
        "torture: schemes [{}], {} set cells, {} queue cells",
        filter
            .schemes()
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(", "),
        filter.set_cells().len(),
        filter.queue_cells().len(),
    );
    let mut sink = JsonSink::new();
    stall_battery(&filter, &cfg, &mut sink);
    ledger_battery(&filter, &cfg, &mut sink);
    soak_battery(&filter, &cfg);
    aba_battery(&filter, &cfg);
    if let Some(path) = json_path {
        let mut doc = sink.join("\n");
        doc.push('\n');
        match std::fs::write(&path, doc) {
            Ok(()) => println!("torture: wrote {} JSON lines to {path}", sink.len()),
            Err(e) => {
                eprintln!("torture: cannot write --json {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Ok(path) = std::env::var("ORC_TRACE_OUT") {
        let path = std::path::PathBuf::from(path);
        match orc_util::trace::export_chrome(&path) {
            Ok(()) => println!(
                "torture: wrote Perfetto trace to {} ({} events, {} overwritten)",
                path.display(),
                orc_util::trace::events_recorded(),
                orc_util::trace::events_dropped()
            ),
            Err(e) => {
                eprintln!("torture: ORC_TRACE_OUT export failed: {e}");
                std::process::exit(2);
            }
        }
    }
    println!("torture: all batteries passed");
}
