//! Runs the benchmark the way the driver does (`--smoke` shortens the
//! windows) and holds its output against `BENCHMARK.json`.

use orc_benchmark::json::{self, Value};
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_orc-benchmark");
const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        // A stray switch in the caller's shell must not reach the slices.
        .env("ORC_STATS", "0")
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{args:?} exited with {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The last stdout line must be the result object, with exactly the
/// declared metrics, each once and with its declared unit.
fn check_result(stdout: &str, declared: &[(String, String)], what: &str) {
    let last = stdout.lines().last().expect("some output");
    let result = json::parse(last).unwrap_or_else(|e| panic!("{what}: last line: {e}"));
    let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{what}: {stdout}"
    );
    assert!(result.num("attempted") >= 1.0, "{what}");
    assert_eq!(result.num("failed"), 0.0, "{what}");
    let emitted = result.get("metrics").expect("metrics").as_obj();
    let mut emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
    let mut declared_names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    emitted_names.sort_unstable();
    declared_names.sort_unstable();
    assert_eq!(
        emitted_names, declared_names,
        "{what}: names, each exactly once"
    );
    for (name, unit) in declared {
        let m = emitted
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .expect("emitted");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{what}: {name} has a value"
        );
    }
}

/// Every call span names the slice span of its own slice as parent.
fn check_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace.json was written");
    let trace = json::parse(&text).expect("trace.json parses");
    let events = trace.get("traceEvents").expect("traceEvents").as_arr();
    let arg = |e: &Value, k: &str| e.get("args").map_or(-1.0, |a| a.num(k));
    let cat = |e: &Value| {
        e.get("cat")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let slices: Vec<&Value> = events.iter().filter(|e| cat(e) == "slice").collect();
    assert_eq!(slices.len(), 8, "one slice span per traced series");
    let ops: Vec<&Value> = events.iter().filter(|e| cat(e) == "op").collect();
    assert!(!ops.is_empty(), "no call spans");
    for op in ops {
        let slice = slices
            .iter()
            .find(|s| s.num("pid") == op.num("pid"))
            .expect("the span's slice");
        assert_eq!(
            arg(op, "parent"),
            arg(slice, "id"),
            "span parent is its slice span"
        );
        assert_eq!(arg(op, "slice"), arg(slice, "slice"));
        assert!(op.num("dur") >= 0.0 && op.num("ts") >= slice.num("ts"));
    }
}

#[test]
fn output_matches_the_manifest() {
    let text = std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        run(&["--manifest"]),
        text,
        "BENCHMARK.json is `--manifest` output"
    );
    let manifest = json::parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = names(manifest.get("end_to_end").expect("end_to_end"));
    let per_layer = names(manifest.get("per_layer").expect("per_layer"));
    let workloads = names_only(manifest.get("workloads").expect("workloads"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(end_to_end.iter().chain(&per_layer).map(|(n, _)| n))
        .collect();
    assert!(all.iter().all(|n| legal_name(n)), "illegal name in {all:?}");
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "a name is used twice"
    );

    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in &workloads {
        let stdout = run(&["--smoke", "--workload", w, "--seed", "5", "--trace", "0"]);
        check_result(&stdout, &end_to_end, &format!("{w} end to end"));
        assert!(stdout.contains("ops_attempted") && stdout.contains("ops_failed 0"));
        let out = out_dir.to_str().expect("utf-8 path");
        let stdout = run(&[
            "--smoke",
            "--workload",
            w,
            "--seed",
            "5",
            "--trace",
            "1",
            "--out",
            out,
        ]);
        check_result(&stdout, &per_layer, &format!("{w} per layer"));
        check_trace(&out_dir.join("trace.json"));
    }
}

fn names_only(list: &Value) -> Vec<String> {
    list.as_arr()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}
