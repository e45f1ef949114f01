//! `orc-lint` CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: orc-lint [--workspace] [--root <dir>] [--report <file>] [FILE.rs ...]\n\
     \n\
     With --workspace (the default when no files are given), lints every\n\
     member crate plus the root package and reconciles EXPERIMENTS.md's\n\
     knob tables; --report also writes the printed report to a file.\n\
     Explicit FILEs are linted as production code."
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => {}
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return fail_usage("--root needs a directory"),
            },
            "--report" => match args.next() {
                Some(p) => report_path = Some(PathBuf::from(p)),
                None => return fail_usage("--report needs a file"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(PathBuf::from(f)),
            other => return fail_usage(&format!("unknown flag `{other}`")),
        }
    }

    if !files.is_empty() {
        return lint_files(&files);
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| orc_lint::driver::find_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("orc-lint: no workspace root found (run from the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let rep = match orc_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("orc-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let text = rep.render();
    print!("{text}");
    if let Some(p) = report_path {
        if let Err(e) = std::fs::write(&p, text) {
            eprintln!("orc-lint: cannot write report {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if rep.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Explicit-file mode: production-strength lint of each path, no workspace
/// context (knob reconciliation does not apply).
fn lint_files(files: &[PathBuf]) -> ExitCode {
    let mut count = 0usize;
    for f in files {
        let src = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("orc-lint: {}: {e}", f.display());
                return ExitCode::from(2);
            }
        };
        let opts = orc_lint::FileOpts {
            class: orc_lint::FileClass::Prod,
            facade_exempt: false,
        };
        let rep = orc_lint::lint_source(&f.to_string_lossy(), &src, &opts);
        for finding in &rep.findings {
            println!("{}", finding.render());
        }
        count += rep.findings.len();
    }
    println!("orc-lint: {} finding(s)", count);
    if count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("orc-lint: {msg}\n{}", usage());
    ExitCode::from(2)
}
