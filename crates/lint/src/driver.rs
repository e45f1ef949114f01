//! Workspace driver: file discovery, per-file classification, the
//! cross-file half of `knob_drift`, and rendering.

use crate::rules::{self, FileClass, FileOpts, Finding, OrdCounts, RuleId};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived the `orc-lint: allow(...)` annotations.
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Ordering census per crate (crate name -> counts).
    pub ordering: BTreeMap<String, OrdCounts>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the per-crate ordering audit table.
    fn ordering_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>8} {:>8} {:>8} {:>7} {:>13} {:>12} {:>14}\n",
            "crate",
            "Relaxed",
            "Acquire",
            "Release",
            "AcqRel",
            "SeqCst(just.)",
            "SeqCst(test)",
            "SeqCst(denied)"
        ));
        let mut total = OrdCounts::default();
        for (krate, c) in &self.ordering {
            if c.total() == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<14} {:>8} {:>8} {:>8} {:>7} {:>13} {:>12} {:>14}\n",
                krate,
                c.relaxed,
                c.acquire,
                c.release,
                c.acqrel,
                c.seqcst_allowed,
                c.seqcst_test,
                c.seqcst_denied
            ));
            total.add(c);
        }
        out.push_str(&format!(
            "{:<14} {:>8} {:>8} {:>8} {:>7} {:>13} {:>12} {:>14}\n",
            "total",
            total.relaxed,
            total.acquire,
            total.release,
            total.acqrel,
            total.seqcst_allowed,
            total.seqcst_test,
            total.seqcst_denied
        ));
        out
    }

    /// The whole report: findings, the ordering table and a summary line.
    /// The CLI prints this and `--report` writes it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str("ordering audit (per crate):\n");
        out.push_str(&self.ordering_table());
        out.push_str(&format!(
            "\norc-lint: {} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// All `.rs` files the lint covers, workspace-relative and sorted: the
/// member crates plus the root package's `src`/`tests`/`examples`.
/// `target/` and this crate's planted fixtures are excluded.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    files
        .into_iter()
        .filter_map(|f| f.strip_prefix(root).ok().map(Path::to_path_buf))
        .filter(|f| !rel_str(f).contains("crates/lint/tests/fixtures"))
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

fn rel_str(p: &Path) -> String {
    p.to_string_lossy().replace('\\', "/")
}

/// Driver-side per-file classification (see [`FileClass`]).
pub fn classify(rel: &str) -> FileOpts {
    let class = if rel.split('/').any(|seg| seg == "tests") {
        FileClass::TestCode
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileClass::Example
    } else {
        FileClass::Prod
    };
    FileOpts {
        class,
        facade_exempt: rel.starts_with("crates/orc-util/"),
    }
}

/// Crate name a workspace-relative path belongs to ("root" for the root
/// package's own `src`/`tests`/`examples`).
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        parts.next().unwrap_or("crates").to_string()
    } else {
        "root".to_string()
    }
}

/// Knob table parsed from EXPERIMENTS.md: every backticked `ORC_*` name in a
/// markdown table row, mapped to its first line number.
pub fn documented_knobs(experiments: &str) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    for (i, line) in experiments.lines().enumerate() {
        if !line.trim_start().starts_with('|') {
            continue;
        }
        for piece in line.split('`').skip(1).step_by(2) {
            // Knob cells may carry `=value` suffixes (`ORC_POOL=0`); the
            // knob name is the leading ORC_ identifier.
            let name: String = piece
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            if name.starts_with("ORC_") && name.len() > 4 {
                out.entry(name).or_insert(i as u32 + 1);
            }
        }
    }
    out
}

/// Runs the whole workspace.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut rep = Report::default();
    let mut all = Vec::new();
    let mut knob_reads: BTreeMap<String, (String, u32, u32)> = BTreeMap::new();

    for rel in workspace_files(root) {
        let rel_s = rel_str(&rel);
        let src = fs::read_to_string(root.join(&rel))?;
        let opts = classify(&rel_s);
        let file_rep = rules::lint_source(&rel_s, &src, &opts);
        rep.files_scanned += 1;
        rep.ordering
            .entry(crate_of(&rel_s))
            .or_default()
            .add(&file_rep.ord);
        for kr in &file_rep.knob_refs {
            knob_reads
                .entry(kr.name.clone())
                .or_insert((rel_s.clone(), kr.line, kr.col));
        }
        all.extend(file_rep.findings);
    }

    // knob_drift, cross-file half: reconcile reads against EXPERIMENTS.md.
    let exp_path = root.join("EXPERIMENTS.md");
    match fs::read_to_string(&exp_path) {
        Ok(exp) => {
            let documented = documented_knobs(&exp);
            for (name, (file, line, col)) in &knob_reads {
                if !documented.contains_key(name) {
                    all.push(Finding {
                        rule: RuleId::KnobDrift,
                        file: file.clone(),
                        line: *line,
                        col: *col,
                        msg: format!(
                            "env knob `{name}` is read here but missing from \
                             EXPERIMENTS.md's knob tables"
                        ),
                    });
                }
            }
            for (name, line) in &documented {
                if !knob_reads.contains_key(name) {
                    all.push(Finding {
                        rule: RuleId::KnobDrift,
                        file: "EXPERIMENTS.md".to_string(),
                        line: *line,
                        col: 1,
                        msg: format!("documented knob `{name}` is never read by non-test code"),
                    });
                }
            }
        }
        Err(_) => all.push(Finding {
            rule: RuleId::KnobDrift,
            file: "EXPERIMENTS.md".to_string(),
            line: 1,
            col: 1,
            msg: "EXPERIMENTS.md not found; the knob table cannot be reconciled".to_string(),
        }),
    }

    all.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    rep.findings = all;
    Ok(rep)
}
