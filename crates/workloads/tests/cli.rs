//! The `orc-bench` binary end to end: its one mode writes a parseable
//! report, and anything else on the command line is a usage error, not
//! a silent success.

use std::process::Command;

fn orc_bench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_orc-bench"));
    cmd.env("ORC_BENCH_SECONDS", "0.02")
        .env("ORC_BENCH_OPS", "400")
        .env("ORC_BENCH_THREADS", "1")
        .env_remove("ORC_SCHEMES")
        .env_remove("ORC_STRUCTS");
    cmd
}

#[test]
fn short_profile_writes_a_parseable_report() {
    let out = std::env::temp_dir().join(format!("orc-bench-cli-{}.json", std::process::id()));
    let run = orc_bench()
        .args(["--profile", "short", "--out"])
        .arg(&out)
        .output()
        .expect("spawn orc-bench");
    assert!(
        run.status.success(),
        "orc-bench failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("report written");
    let _ = std::fs::remove_file(&out);
    let report = orc_util::json::parse(&text).expect("report parses");
    assert_eq!(
        report.get("schema").and_then(|s| s.as_str()),
        Some(workloads::runner::SCHEMA)
    );
}

/// `orc-bench` has no compare mode: asked for one, it must say so rather
/// than exit 0 having compared nothing.
#[test]
fn unexpected_arguments_are_usage_errors() {
    let run = orc_bench()
        .args(["--compare", "a", "b"])
        .output()
        .expect("spawn orc-bench");
    assert_eq!(run.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("usage:"), "usage text on stderr: {err}");
}
