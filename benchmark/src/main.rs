//! `orc-benchmark`: see README.md. The driver contract is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last
//! line of stdout is the result object.

use orc_benchmark::child::{self, SliceArgs};
use orc_benchmark::driver::{self, Plan};
use orc_benchmark::spec::Workload;
use orc_benchmark::{json, micro};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// What `BENCHMARK.json` runs. `--locked` is left out on purpose: a later
/// change to the crates' dependency graph must not stop the benchmark
/// from building (README "Building").
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
const RUN_SECONDS: u64 = 23;
const DEFAULT_SEED: u64 = 20210227;

const USAGE: &str =
    "usage: orc-benchmark [--workload <queue_pairs|list_read|tree_update|stall_bound>]
       [--seed <n>] [--seconds <s>] [--trace <0|1> | --layers]
       [--rounds <n>] [--slice-ms <ms>] [--out <dir>]
       [--selfcheck] [--smoke] [--manifest]";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    rounds: Option<usize>,
    slice_ms: Option<u64>,
    out: PathBuf,
    selfcheck: bool,
    smoke: bool,
    manifest: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        rounds: None,
        slice_ms: None,
        out: driver::default_out_dir(),
        selfcheck: false,
        smoke: false,
        manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad number {v:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
                o.workloads = vec![w];
            }
            "--seed" => o.seed = num(flag, value()?)?,
            "--seconds" => o.seconds = Some(num(flag, value()?)?),
            "--trace" => o.traced = num::<u8>(flag, value()?)? != 0,
            "--layers" => o.traced = true,
            "--rounds" => o.rounds = Some(num(flag, value()?)?),
            "--slice-ms" => o.slice_ms = Some(num(flag, value()?)?),
            "--out" => o.out = PathBuf::from(value()?),
            "--selfcheck" => o.selfcheck = true,
            "--smoke" => o.smoke = true,
            "--manifest" => o.manifest = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if o.seconds.is_some_and(|s| s.is_nan() || s <= 0.0)
        || o.rounds == Some(0)
        || o.slice_ms == Some(0)
    {
        return Err("--seconds, --rounds and --slice-ms must be positive".into());
    }
    Ok(o)
}

impl Options {
    /// `--smoke` beats `--seconds`; `--rounds` / `--slice-ms` beat both.
    /// With none of them: 9 × 1 s end to end, 7 × 0.5 s traced.
    fn plan(&self) -> Plan {
        let mut plan = match (self.smoke, self.seconds, self.traced) {
            (true, _, _) => Plan {
                seed: self.seed,
                rounds: 2,
                window_ms: 50,
            },
            (false, Some(s), false) => Plan::end_to_end(self.seed, s),
            (false, Some(s), true) => Plan::traced(self.seed, s),
            (false, None, false) => Plan {
                seed: self.seed,
                rounds: 9,
                window_ms: 1000,
            },
            (false, None, true) => Plan {
                seed: self.seed,
                rounds: 7,
                window_ms: 500,
            },
        };
        plan.rounds = self.rounds.unwrap_or(plan.rounds);
        plan.window_ms = self.slice_ms.unwrap_or(plan.window_ms).max(1);
        plan
    }
}

fn run_child(tokens: &[String], epoch: Instant) -> Result<(), String> {
    match tokens.split_first() {
        Some((kind, rest)) if kind == "slice" => {
            child::run(&SliceArgs::from_tokens(rest)?, epoch);
            Ok(())
        }
        Some((kind, [name])) if kind == "micro" => {
            let per_iter = micro::run(name).ok_or(format!("unknown micro cell {name:?}"))?;
            println!(
                "{{\"cell\": {}, \"per_iter\": {per_iter}, \"batches\": {}}}",
                json::quote(name),
                micro::BATCHES
            );
            Ok(())
        }
        _ => Err("--child takes `slice key=value…` or `micro <cell>`".into()),
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--child") {
        return match run_child(&args[1..], epoch) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("orc-benchmark: {why}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(why) => {
            eprintln!("orc-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.manifest {
        print!("{}", driver::manifest(&COMMAND, RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let plan = options.plan();
    println!(
        "# orc-benchmark seed={} rounds={} slice_ms={} {}",
        plan.seed,
        plan.rounds,
        plan.window_ms,
        driver::machine_line()
    );
    if options.selfcheck {
        return if driver::selfcheck(&options.workloads, plan) {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    for &workload in &options.workloads {
        let mode = if options.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("## {} ({mode})", workload.name());
        let report = if options.traced {
            driver::layers(workload, plan, &options.out)
        } else {
            driver::end_to_end(workload, plan)
        };
        for line in &report.lines {
            println!("{line}");
        }
        for m in &report.metrics {
            println!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("{}", report.result_line());
    }
    // A wrong answer is reported in the result line; the exit code says
    // only that the benchmark itself ran.
    ExitCode::SUCCESS
}
