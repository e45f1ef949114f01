//! orc-lint — in-tree static analysis for the OrcGC workspace.
//!
//! Enforces the SMR discipline that the runtime checkers (orc-check's model
//! exploration, the torture batteries, TSan) silently *assume*:
//!
//! 1. `facade_bypass` — every atomic goes through `orc_util::atomics`, so
//!    the model checker can interpose on it.
//! 2. `seqcst` — `Ordering::SeqCst` is deny-by-default outside tests; every
//!    surviving site carries a written justification, and the per-crate
//!    ordering census is printed as an audit table.
//! 3. `guard_escape` — raw pointers bound from `protect(...)` / guard
//!    derefs must not outlive the protection that made them safe.
//! 4. `knob_drift` — the `ORC_*` env knobs read by code and the knob tables
//!    in EXPERIMENTS.md are the same set.
//! 5. `boundary` — a mechanism with one home (the tracked-object funnel,
//!    the hazard-slot matrix, the registry's one dispatch per cell) is not
//!    rebuilt outside it.
//!
//! plus the `annotation` meta-rule: a malformed `orc-lint:` allow is itself
//! a finding. `// SAFETY:` comments are clippy's job, not this crate's:
//! every package inherits the workspace's `undocumented_unsafe_blocks =
//! "deny"`.
//!
//! See DESIGN.md §13 for the architecture (and why this is a lexer, not an
//! AST pass). Run it with `cargo run -p orc-lint -- --workspace`.

pub mod driver;
pub mod lexer;
pub mod rules;

pub use driver::{run_workspace, Report};
pub use rules::{FileClass, FileOpts, Finding, RuleId};

/// Lints a single source text with explicit options — the entry point the
/// fixture tests use (fixtures are linted as production code regardless of
/// where they sit on disk).
pub fn lint_source(path: &str, src: &str, opts: &FileOpts) -> rules::FileReport {
    rules::lint_source(path, src, opts)
}
