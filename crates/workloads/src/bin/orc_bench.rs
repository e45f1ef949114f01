//! orc-bench: regenerate the paper's figures and tables.
//!
//! ```text
//! orc-bench [--profile short|full] [--out PATH]
//! ```
//!
//! Sweeps the registry matrix (sliceable with `ORC_SCHEMES` /
//! `ORC_STRUCTS`, sized with the `ORC_BENCH_*` knobs), prints one table
//! row per cell and writes one schema-versioned JSON report (default
//! `BENCH_run.json`). It prints numbers; it does not judge them —
//! "faster or slower than another commit" is answered by the paired,
//! process-isolated harness in `benchmark/`.
//!
//! Exit codes: 0 ok, 2 usage or output error.

use std::process::ExitCode;
use structures::registry::MatrixFilter;
use workloads::runner::{Profile, Report, RunnerConfig};
use workloads::{print_header, print_row};

const USAGE: &str = "usage:
  orc-bench [--profile short|full] [--out PATH]

respects ORC_SCHEMES / ORC_STRUCTS (matrix slicing) and the ORC_BENCH_*
sizing knobs; see EXPERIMENTS.md \"Reproducing the paper figures\".";

fn fail(msg: &str) -> ExitCode {
    eprintln!("orc-bench: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let profile = match flag_value(&args, "--profile") {
        Err(e) => return fail(&e),
        Ok(None) => Profile::Short,
        Ok(Some(p)) => match Profile::parse(p) {
            Some(p) => p,
            None => return fail(&format!("unknown profile {p:?} (short|full)")),
        },
    };
    let out = match flag_value(&args, "--out") {
        Err(e) => return fail(&e),
        Ok(v) => v.unwrap_or("BENCH_run.json").to_string(),
    };
    // Unknown positional/flag tokens are user error, not silence.
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" | "--out" => i += 2,
            other => return fail(&format!("unexpected argument {other:?}")),
        }
    }
    let filter = match MatrixFilter::from_env() {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let cfg = RunnerConfig::new(profile);
    eprintln!(
        "orc-bench: profile {} — {} thread counts, {} runs/cell (+{} warmup), {:.2}s/set-point",
        profile.name(),
        cfg.threads.len(),
        cfg.runs,
        cfg.warmup,
        cfg.seconds_per_point.as_secs_f64()
    );
    let report = Report::generate(&cfg, &filter, &mut |done, total, id| {
        eprintln!("orc-bench: [{:>3}/{total}] {id}", done + 1);
    });
    print_header(&format!(
        "orc-bench {} profile — median of {} runs (IQR-trimmed)",
        profile.name(),
        cfg.runs
    ));
    for cell in &report.cells {
        print_row(&cell.measurement);
    }
    match std::fs::write(&out, report.json()) {
        Ok(()) => {
            println!(
                "\norc-bench: wrote {} ({} cells, machine {}, sha {})",
                out,
                report.cells.len(),
                report.machine.cpu_model,
                &report.git_sha[..report.git_sha.len().min(12)]
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("cannot write {out}: {e}")),
    }
}
