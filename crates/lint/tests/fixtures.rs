//! Fixture battery for orc-lint: every rule has a planted violation that
//! must trip, an annotated variant that must pass, and the real workspace
//! must come back with zero findings (the self-run tests).
//!
//! Fixtures live in `tests/fixtures/` — a subdirectory, so cargo never
//! compiles them, and the workspace driver excludes them from real runs.

use orc_lint::driver::{classify, documented_knobs, find_root, run_workspace, workspace_files};
use orc_lint::{lint_source, FileClass, FileOpts, RuleId};
use std::path::Path;

fn prod() -> FileOpts {
    FileOpts {
        class: FileClass::Prod,
        facade_exempt: false,
    }
}

fn lint(name: &str, src: &str, opts: &FileOpts) -> orc_lint::rules::FileReport {
    lint_source(&format!("fixtures/{name}"), src, opts)
}

fn rule_count(rep: &orc_lint::rules::FileReport, rule: RuleId) -> usize {
    rep.findings.iter().filter(|f| f.rule == rule).count()
}

// ---------------------------------------------------------------------------
// facade_bypass
// ---------------------------------------------------------------------------

#[test]
fn facade_bypass_trips_on_planted_violations() {
    let rep = lint(
        "facade_bad.rs",
        include_str!("fixtures/facade_bad.rs"),
        &prod(),
    );
    assert_eq!(
        rule_count(&rep, RuleId::FacadeBypass),
        3,
        "{:#?}",
        rep.findings
    );
    assert!(rep.findings.iter().all(|f| f.rule == RuleId::FacadeBypass));
}

#[test]
fn facade_bypass_passes_when_annotated() {
    let rep = lint(
        "facade_allowed.rs",
        include_str!("fixtures/facade_allowed.rs"),
        &prod(),
    );
    assert!(rep.findings.is_empty(), "{:#?}", rep.findings);
}

#[test]
fn facade_bypass_skipped_in_orc_util() {
    let opts = FileOpts {
        class: FileClass::Prod,
        facade_exempt: true,
    };
    let rep = lint(
        "facade_bad.rs",
        include_str!("fixtures/facade_bad.rs"),
        &opts,
    );
    assert_eq!(rule_count(&rep, RuleId::FacadeBypass), 0);
}

// ---------------------------------------------------------------------------
// seqcst
// ---------------------------------------------------------------------------

#[test]
fn seqcst_denied_in_prod_and_census_counts() {
    let rep = lint(
        "seqcst_bad.rs",
        include_str!("fixtures/seqcst_bad.rs"),
        &prod(),
    );
    assert_eq!(rule_count(&rep, RuleId::SeqCst), 1, "{:#?}", rep.findings);
    assert_eq!(rep.ord.seqcst_denied, 1);
    assert_eq!(rep.ord.acquire, 1);
    assert_eq!(rep.ord.release, 1);
}

#[test]
fn seqcst_passes_when_justified() {
    let rep = lint(
        "seqcst_allowed.rs",
        include_str!("fixtures/seqcst_allowed.rs"),
        &prod(),
    );
    assert!(rep.findings.is_empty(), "{:#?}", rep.findings);
    assert_eq!(rep.ord.seqcst_allowed, 1);
    assert_eq!(rep.ord.seqcst_denied, 0);
}

#[test]
fn seqcst_tabulated_not_denied_in_test_code() {
    let opts = FileOpts {
        class: FileClass::TestCode,
        facade_exempt: false,
    };
    let rep = lint(
        "seqcst_bad.rs",
        include_str!("fixtures/seqcst_bad.rs"),
        &opts,
    );
    assert_eq!(rule_count(&rep, RuleId::SeqCst), 0);
    assert_eq!(rep.ord.seqcst_test, 1);
}

// ---------------------------------------------------------------------------
// guard_escape
// ---------------------------------------------------------------------------

#[test]
fn guard_escape_trips_on_all_three_shapes() {
    let rep = lint(
        "guard_bad.rs",
        include_str!("fixtures/guard_bad.rs"),
        &prod(),
    );
    let lines: Vec<u32> = rep
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::GuardEscape)
        .map(|f| f.line)
        .collect();
    assert_eq!(lines.len(), 3, "{:#?}", rep.findings);
    // One finding per planted shape: re-protect, drop, bare re-protect.
    assert!(rep.findings.iter().any(|f| f.msg.contains("re-protected")));
    assert!(rep.findings.iter().any(|f| f.msg.contains("drop(g)")));
}

#[test]
fn guard_escape_passes_when_annotated() {
    let rep = lint(
        "guard_allowed.rs",
        include_str!("fixtures/guard_allowed.rs"),
        &prod(),
    );
    assert!(rep.findings.is_empty(), "{:#?}", rep.findings);
}

// ---------------------------------------------------------------------------
// annotations
// ---------------------------------------------------------------------------

#[test]
fn malformed_annotations_are_findings_not_silent_allows() {
    let rep = lint(
        "annotation_bad.rs",
        include_str!("fixtures/annotation_bad.rs"),
        &prod(),
    );
    assert_eq!(
        rule_count(&rep, RuleId::Annotation),
        4,
        "{:#?}",
        rep.findings
    );
}

#[test]
fn clean_fixture_is_clean() {
    let rep = lint("clean.rs", include_str!("fixtures/clean.rs"), &prod());
    assert!(rep.findings.is_empty(), "{:#?}", rep.findings);
    assert_eq!(rep.ord.acquire, 1);
    assert_eq!(rep.ord.release, 1);
}

// ---------------------------------------------------------------------------
// boundary
// ---------------------------------------------------------------------------

/// Lints a fixture as if it sat at `path`: the boundary rule keys on it.
fn boundary_findings(path: &str, src: &str) -> Vec<orc_lint::Finding> {
    let rep = lint_source(path, src, &prod());
    rep.findings
        .into_iter()
        .filter(|f| f.rule == RuleId::Boundary)
        .collect()
}

#[test]
fn boundary_trips_and_passes_per_entry() {
    // (path inside the entry's directories, trip fixture, findings, pass fixture)
    let entries = [
        (
            "crates/reclaim/src/x.rs",
            include_str!("fixtures/boundary_funnel_bad.rs"),
            4,
            include_str!("fixtures/boundary_funnel_ok.rs"),
        ),
        (
            "crates/core/src/x.rs",
            include_str!("fixtures/boundary_matrix_bad.rs"),
            2,
            include_str!("fixtures/boundary_matrix_ok.rs"),
        ),
        (
            "crates/structures/src/x.rs",
            include_str!("fixtures/boundary_dispatch_bad.rs"),
            1,
            include_str!("fixtures/boundary_dispatch_ok.rs"),
        ),
    ];
    for (path, bad, n, ok) in entries {
        let found = boundary_findings(path, bad);
        assert_eq!(found.len(), n, "{path}: {found:#?}");
        assert!(boundary_findings(path, ok).is_empty(), "{path}");
        // Outside the entry's directories the same source is fine.
        assert!(boundary_findings("crates/orc-util/src/x.rs", bad).is_empty());
    }
}

#[test]
fn boundary_catches_an_aliased_pool_import() {
    let src = include_str!("fixtures/boundary_funnel_alias.rs");
    // CI's old call-site grep (`pool::alloc\(`) had nothing to match here.
    assert!(!src.contains("pool::alloc("));
    let found = boundary_findings("crates/structures/src/x.rs", src);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].line, 4);
}

// ---------------------------------------------------------------------------
// knob_drift (file half + table parser)
// ---------------------------------------------------------------------------

#[test]
fn knob_refs_collected_from_prod_but_not_test_code() {
    let src = r#"fn f() { let _ = std::env::var("ORC_FIXTURE_KNOB"); }"#;
    let rep = lint("knob.rs", src, &prod());
    assert_eq!(rep.knob_refs.len(), 1);
    assert_eq!(rep.knob_refs[0].name, "ORC_FIXTURE_KNOB");

    let test_opts = FileOpts {
        class: FileClass::TestCode,
        facade_exempt: false,
    };
    let rep = lint("knob.rs", src, &test_opts);
    assert!(rep.knob_refs.is_empty());
}

#[test]
fn documented_knobs_parses_table_rows_only() {
    let md = "\
# Title\n\
Prose mentioning `ORC_NOT_A_ROW` is ignored.\n\
| Knob | Default |\n\
|------|---------|\n\
| `ORC_ALPHA` | `1` |\n\
| `ORC_BETA=0` disables | `unset` |\n";
    let knobs = documented_knobs(md);
    assert_eq!(
        knobs.keys().cloned().collect::<Vec<_>>(),
        vec!["ORC_ALPHA".to_string(), "ORC_BETA".to_string()]
    );
}

// ---------------------------------------------------------------------------
// driver: classification, self-run
// ---------------------------------------------------------------------------

#[test]
fn classification_by_path() {
    assert_eq!(classify("crates/core/src/domain.rs").class, FileClass::Prod);
    assert_eq!(
        classify("crates/core/tests/api.rs").class,
        FileClass::TestCode
    );
    assert_eq!(classify("tests/props.rs").class, FileClass::TestCode);
    assert_eq!(classify("examples/kv_index.rs").class, FileClass::Example);
    assert!(classify("crates/orc-util/src/atomics.rs").facade_exempt);
    assert!(!classify("crates/core/src/domain.rs").facade_exempt);
}

fn miniws_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/miniws")
}

#[test]
fn planted_workspace_trips() {
    let rep = run_workspace(&miniws_root()).unwrap();
    assert_eq!(rep.files_scanned, 1);
    assert_eq!(rep.findings.len(), 2, "{:#?}", rep.findings);
}

fn real_root() -> std::path::PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

#[test]
fn fixtures_are_excluded_from_real_workspace_runs() {
    let files = workspace_files(&real_root());
    assert!(!files.is_empty());
    assert!(files
        .iter()
        .all(|f| !f.to_string_lossy().contains("fixtures")));
}

/// The self-run gate: the real tree must have zero findings. If this
/// fails, either fix the new violation or justify it in place with an
/// `orc-lint: allow(...)` annotation (DESIGN.md §13.3).
#[test]
fn self_run_real_workspace_is_clean() {
    let rep = run_workspace(&real_root()).expect("workspace lint run");
    assert!(rep.clean(), "orc-lint found violations:\n{}", rep.render());
    // The tree carries justified SeqCst sites and relaxed orderings; the
    // census must reflect both (guards against the rule silently no-opping).
    let total: u32 = rep.ordering.values().map(|c| c.total()).sum();
    assert!(total > 100, "ordering census suspiciously small: {total}");
    assert_eq!(
        rep.ordering.values().map(|c| c.seqcst_denied).sum::<u32>(),
        0
    );
}

/// clippy's `undocumented_unsafe_blocks` is the workspace's only
/// `// SAFETY:` checker, and clippy applies it only to packages that
/// inherit the workspace lint table. Every manifest must do so, with no
/// `[lints.clippy]` table of its own, so a new crate cannot skip the audit.
#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = real_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for e in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let m = e.expect("crates/ entry").path().join("Cargo.toml");
        if m.is_file() {
            manifests.push(m);
        }
    }
    assert!(manifests.len() >= 9, "{manifests:?}");
    for m in &manifests {
        let toml = std::fs::read_to_string(m).expect("readable manifest");
        let mut section = "";
        let mut inherits = false;
        for line in toml.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
                assert_ne!(
                    section,
                    "[lints.clippy]",
                    "{}: overrides the workspace lints",
                    m.display()
                );
            } else if section == "[lints]" && line.replace(' ', "") == "workspace=true" {
                inherits = true;
            }
        }
        assert!(
            inherits,
            "{}: needs `[lints]` with `workspace = true`",
            m.display()
        );
    }
}
