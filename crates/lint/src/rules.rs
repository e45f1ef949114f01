//! The five SMR-discipline rules (DESIGN.md §13 has the catalogue).
//!
//! Each rule walks the token stream from [`crate::lexer`]; none of them
//! parses Rust properly, and each is tuned to fail in the conservative
//! direction for its purpose: `facade_bypass` / `seqcst` / `knob_drift`
//! over-report only on pathological token sequences that
//! `cargo clippy -D warnings` would already reject, and `guard_escape`
//! under-reports (it only tracks simple local bindings) because a heuristic
//! escape analysis must never cry wolf on sound code.

use crate::lexer::{self, Kind, Tok};
use std::collections::BTreeMap;
use std::fmt;

/// Stable rule identifiers: these appear in diagnostics and in allow
/// annotations (`// orc-lint: allow(<rule>, <reason>)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    FacadeBypass,
    SeqCst,
    GuardEscape,
    KnobDrift,
    /// A mechanism with one home rebuilt outside it ([`BOUNDARIES`]).
    Boundary,
    /// Meta-rule: a malformed `orc-lint:` annotation (unknown rule id or
    /// empty reason). An allow that cannot be understood must not silently
    /// suppress anything.
    Annotation,
}

impl RuleId {
    pub const ALL: [RuleId; 6] = [
        RuleId::FacadeBypass,
        RuleId::SeqCst,
        RuleId::GuardEscape,
        RuleId::KnobDrift,
        RuleId::Boundary,
        RuleId::Annotation,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::FacadeBypass => "facade_bypass",
            RuleId::SeqCst => "seqcst",
            RuleId::GuardEscape => "guard_escape",
            RuleId::KnobDrift => "knob_drift",
            RuleId::Boundary => "boundary",
            RuleId::Annotation => "annotation",
        }
    }

    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// One-line `= help:` text appended to every diagnostic of this rule.
    pub fn help(self) -> &'static str {
        match self {
            RuleId::FacadeBypass => {
                "route atomics through `orc_util::atomics` so orc-check can interpose; \
                 see DESIGN.md §13.1"
            }
            RuleId::SeqCst => {
                "justify with `// orc-lint: allow(seqcst, <why this fence is required>)` \
                 or relax to the weakest correct ordering; see DESIGN.md §13.2"
            }
            RuleId::GuardEscape => {
                "a raw pointer from `protect(...)` is only valid while its guard/slot \
                 protects it; re-protect before reuse or restructure the scope"
            }
            RuleId::KnobDrift => {
                "every `ORC_*` knob must appear in EXPERIMENTS.md's knob table and be \
                 read by non-test code; update whichever side drifted"
            }
            RuleId::Boundary => "each mechanism has one home; see DESIGN.md §13.4",
            RuleId::Annotation => {
                "annotations look like `// orc-lint: allow(<rule>, <non-empty reason>)`"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single diagnostic, anchored rustc-style at `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

impl Finding {
    /// Renders the finding in rustc's two-line + help format.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}:{}\n   = help: {}\n",
            self.rule,
            self.msg,
            self.file,
            self.line,
            self.col,
            self.rule.help()
        )
    }
}

/// How the driver classifies a file; rules relax or tighten per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Production source: every rule at full strength.
    Prod,
    /// Integration tests (`tests/` dirs). `seqcst` tabulates but does not
    /// deny (tests deliberately use the strongest ordering; they are not on
    /// a measured path and orc-check serializes them anyway), and
    /// `knob_drift` ignores knob literals (tests exercise parsers with
    /// synthetic knob strings).
    TestCode,
    /// `examples/`: full strength — examples teach idiom.
    Example,
}

/// Per-file options decided by the driver.
#[derive(Debug, Clone)]
pub struct FileOpts {
    pub class: FileClass,
    /// `crates/orc-util` is the facade's home and hosts the documented
    /// bypass exemptions (DESIGN.md §9.1); `facade_bypass` is skipped there.
    pub facade_exempt: bool,
}

/// `Ordering` census for one compilation unit (crate or file).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrdCounts {
    pub relaxed: u32,
    pub acquire: u32,
    pub release: u32,
    pub acqrel: u32,
    /// Unjustified SeqCst in production/example code (each is a finding).
    pub seqcst_denied: u32,
    /// SeqCst sites carrying an `allow(seqcst, ...)` justification.
    pub seqcst_allowed: u32,
    /// SeqCst in test code (tabulated, never denied).
    pub seqcst_test: u32,
}

impl OrdCounts {
    pub fn add(&mut self, o: &OrdCounts) {
        self.relaxed += o.relaxed;
        self.acquire += o.acquire;
        self.release += o.release;
        self.acqrel += o.acqrel;
        self.seqcst_denied += o.seqcst_denied;
        self.seqcst_allowed += o.seqcst_allowed;
        self.seqcst_test += o.seqcst_test;
    }

    pub fn total(&self) -> u32 {
        self.relaxed
            + self.acquire
            + self.release
            + self.acqrel
            + self.seqcst_denied
            + self.seqcst_allowed
            + self.seqcst_test
    }
}

/// An `ORC_*` string literal read by non-test code (knob-drift input).
#[derive(Debug, Clone)]
pub struct KnobRef {
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// Everything a single file contributes to the workspace run.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub ord: OrdCounts,
    pub knob_refs: Vec<KnobRef>,
}

/// Parsed `orc-lint:` allow annotations for one file.
#[derive(Debug, Default)]
pub struct Allows {
    /// (rule, line) pairs: an allow suppresses findings of `rule` on the
    /// annotation's own line and on the first code line after it.
    site: Vec<(RuleId, u32)>,
    file_wide: Vec<RuleId>,
    /// Malformed annotations become findings themselves.
    bad: Vec<(u32, u32, String)>,
}

impl Allows {
    pub fn allowed(&self, rule: RuleId, line: u32) -> bool {
        self.file_wide.contains(&rule) || self.site.iter().any(|&(r, l)| r == rule && l == line)
    }
}

/// Extracts allow annotations from comment tokens. A site allow attaches to
/// the comment's line (trailing form) and to the next code line (preceding
/// form); both registrations are harmless when only one applies.
pub fn parse_allows(toks: &[Tok]) -> Allows {
    let mut allows = Allows::default();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        // Only comments that *start* with the marker are annotations; prose
        // that merely mentions the syntax (docs, help strings) is not.
        let trimmed = t.text.trim_start();
        let Some(rest) = trimmed.strip_prefix("orc-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (file_wide, body) = if let Some(b) = rest.strip_prefix("allow-file(") {
            (true, b)
        } else if let Some(b) = rest.strip_prefix("allow(") {
            (false, b)
        } else {
            allows.bad.push((
                t.line,
                t.col,
                "unrecognized `orc-lint:` annotation (expected `allow(...)` or `allow-file(...)`)"
                    .to_string(),
            ));
            continue;
        };
        let Some(close) = body.rfind(')') else {
            allows
                .bad
                .push((t.line, t.col, "annotation is missing its `)`".to_string()));
            continue;
        };
        let body = &body[..close];
        let (rule_s, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (body.trim(), ""),
        };
        let Some(rule) = RuleId::parse(rule_s) else {
            allows.bad.push((
                t.line,
                t.col,
                format!("unknown rule `{rule_s}` in annotation"),
            ));
            continue;
        };
        if reason.is_empty() {
            allows.bad.push((
                t.line,
                t.col,
                format!("allow({rule}) needs a non-empty reason"),
            ));
            continue;
        }
        if file_wide {
            allows.file_wide.push(rule);
        } else {
            allows.site.push((rule, t.line));
            // Attach to the first code line after the comment ends.
            if let Some(next) = toks[i + 1..]
                .iter()
                .find(|n| !n.is_comment() && n.line > t.end_line)
            {
                allows.site.push((rule, next.line));
            }
        }
    }
    allows
}

/// Lints one file. `path` is only used to label findings.
pub fn lint_source(path: &str, src: &str, opts: &FileOpts) -> FileReport {
    let toks = lexer::lex(src);
    let allows = parse_allows(&toks);
    let mut rep = FileReport::default();

    for (line, col, msg) in &allows.bad {
        rep.findings.push(Finding {
            rule: RuleId::Annotation,
            file: path.to_string(),
            line: *line,
            col: *col,
            msg: msg.clone(),
        });
    }

    // Rules 1 and 5: forbidden token sequences outside comments.
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut forbid = |rule: RuleId, seq: &str, msg: &str| {
        let pat = lexer::lex(seq);
        for w in code.windows(pat.len()) {
            let hit = w
                .iter()
                .zip(&pat)
                .all(|(a, b)| (a.kind, &a.text) == (b.kind, &b.text));
            if hit && !allows.allowed(rule, w[0].line) {
                let (file, line, col, msg) =
                    (path.to_string(), w[0].line, w[0].col, msg.to_string());
                rep.findings.push(Finding {
                    rule,
                    file,
                    line,
                    col,
                    msg,
                });
            }
        }
    };
    if !opts.facade_exempt {
        for (seq, msg) in FACADE_BYPASSES {
            forbid(RuleId::FacadeBypass, seq, msg);
        }
    }
    for (dirs, seqs, home) in BOUNDARIES {
        if dirs.split(' ').any(|d| path.starts_with(d)) {
            for seq in seqs.split(' ') {
                forbid(
                    RuleId::Boundary,
                    seq,
                    &format!("`{seq}` outside its one home: {home}"),
                );
            }
        }
    }
    seqcst(path, &toks, &allows, opts, &mut rep);
    guard_escape(path, &toks, &allows, &mut rep);
    collect_knob_refs(&toks, opts, &mut rep);
    rep
}

/// Rule 2 — `seqcst`: classifies every `Ordering::<X>` token and denies
/// `SeqCst` in production/example code unless justified. Test code is
/// tabulated but allowed (see [`FileClass`]).
fn seqcst(path: &str, toks: &[Tok], allows: &Allows, opts: &FileOpts, rep: &mut FileReport) {
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    for i in 2..code.len() {
        let t = code[i];
        if t.kind != Kind::Ident || !code[i - 1].is_punct("::") || !code[i - 2].is_ident("Ordering")
        {
            continue;
        }
        match t.text.as_str() {
            "Relaxed" => rep.ord.relaxed += 1,
            "Acquire" => rep.ord.acquire += 1,
            "Release" => rep.ord.release += 1,
            "AcqRel" => rep.ord.acqrel += 1,
            "SeqCst" => {
                if t.in_test || opts.class == FileClass::TestCode {
                    rep.ord.seqcst_test += 1;
                } else if allows.allowed(RuleId::SeqCst, t.line) {
                    rep.ord.seqcst_allowed += 1;
                } else {
                    rep.ord.seqcst_denied += 1;
                    rep.findings.push(Finding {
                        rule: RuleId::SeqCst,
                        file: path.to_string(),
                        line: t.line,
                        col: t.col,
                        msg: "`Ordering::SeqCst` without a justification — the strongest \
                              fence must earn its place on this path"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Rule 1 — `facade_bypass`: a `std::sync::atomic` / `core::sync::atomic`
/// path or a raw `std::hint::spin_loop` outside orc-util escapes the model
/// checker's interposition.
const FACADE_BYPASSES: [(&str, &str); 3] = [
    ("std::sync::atomic", ATOMIC_BYPASS),
    ("core::sync::atomic", ATOMIC_BYPASS),
    (
        "std::hint::spin_loop",
        "raw `std::hint::spin_loop` bypasses `orc_util::atomics::spin_hint`",
    ),
];
const ATOMIC_BYPASS: &str =
    "direct `{std,core}::sync::atomic` path bypasses the `orc_util::atomics` facade";

/// Rule 5 — `boundary`. The one-mechanism boundaries: (directories, forbidden token
/// sequences, the one home), each list space-separated. A file under one
/// of an entry's directories may not contain its sequences outside
/// comments.
pub const BOUNDARIES: [(&str, &str, &str); 3] = [
    (
        "crates/core/src/ crates/reclaim/src/ crates/structures/src/",
        "pool::alloc pool::dealloc chk_hooks::on_alloc chk_hooks::on_reclaim",
        "allocate and free tracked objects through `orc_util::tracked`",
    ),
    (
        "crates/core/src/ crates/reclaim/src/",
        "[AtomicUsize; [AtomicU64; [CachePadded<AtomicUsize>] [CachePadded<AtomicU64>]",
        "publish per-thread announcements into `orc_util::handover::Slots`",
    ),
    (
        "crates/structures/src/",
        "AnySmr>",
        "build the structure over the concrete scheme with `reclaim::on_scheme!`",
    ),
];

/// Rule 4 (file half) — collect `"ORC_*"` string literals in non-test code;
/// the driver reconciles them against EXPERIMENTS.md's knob table.
fn collect_knob_refs(toks: &[Tok], opts: &FileOpts, rep: &mut FileReport) {
    if opts.class == FileClass::TestCode {
        return;
    }
    for t in toks {
        if t.kind != Kind::Str || t.in_test {
            continue;
        }
        let s = &t.text;
        if s.starts_with("ORC_")
            && s.len() > 4
            && s.bytes()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
        {
            rep.knob_refs.push(KnobRef {
                name: s.clone(),
                line: t.line,
                col: t.col,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3 — guard_escape
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Binding {
    /// `Some((recv, idx))` when bound from `recv.protect(idx, ..)`.
    protect_key: Option<(String, String)>,
    /// `Some(guard)` when bound from `guard.raw()` / `.orc_word()` /
    /// `.with_tag(..)` on a simple local.
    derived_from: Option<String>,
    decl_depth: i32,
    /// Brace depth at the binding *event* (an assignment can bind deeper
    /// than the declaration); a dying guard only poisons bindings whose
    /// event could actually see it.
    bind_depth: i32,
    poisoned: Option<String>,
}

/// Rule 3 — `guard_escape`: conservative intra-function tracking of raw
/// words bound from `protect(...)` calls and guard derefs. Flags a use of
/// such a binding after (a) its protection slot was re-protected through the
/// same receiver and index expression, (b) the guard local it derives from
/// was `drop(..)`ed or reassigned, or (c) the guard local's scope closed
/// while the binding lives on.
fn guard_escape(path: &str, toks: &[Tok], allows: &Allows, rep: &mut FileReport) {
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut depth: i32 = 0;
    let mut bindings: BTreeMap<String, Binding> = BTreeMap::new();
    // Every `let` binding's depth, tracked so that a guard local (anything a
    // pointer was later derived from) poisons its dependents when its scope
    // closes — the guard itself is not in `bindings`.
    let mut decls: BTreeMap<String, i32> = BTreeMap::new();
    let mut fn_stack: Vec<i32> = Vec::new();
    let mut pending_fn = false;

    // Scans backward from `dot` (index of `.`) to collect a `a.b.c` receiver
    // chain of plain idents; returns the dotted string.
    let recv_chain = |code: &[&Tok], dot: usize| -> Option<String> {
        let mut parts: Vec<String> = Vec::new();
        let mut k = dot; // points at `.`
        loop {
            if k == 0 {
                break;
            }
            let prev = code[k - 1];
            if prev.kind != Kind::Ident {
                break;
            }
            parts.push(prev.text.clone());
            if k >= 2 && code[k - 2].is_punct(".") {
                k -= 2;
            } else {
                break;
            }
        }
        if parts.is_empty() {
            None
        } else {
            parts.reverse();
            Some(parts.join("."))
        }
    };

    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if t.is_ident("fn") {
            pending_fn = true;
        } else if t.is_punct(";") {
            // A `;` before any body brace ends a signature-only declaration
            // (trait method, fn-pointer type position).
            pending_fn = false;
        }
        if t.is_punct("{") {
            depth += 1;
            if pending_fn {
                // Fresh function body: forget outer bindings (conservative —
                // closures capturing guards are out of scope for this rule).
                fn_stack.push(depth);
                bindings.clear();
                decls.clear();
                pending_fn = false;
            }
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            // Scope close: drop bindings declared in it and poison survivors
            // that depended on a guard declared in it.
            let closing = depth;
            let mut dying: Vec<String> = bindings
                .iter()
                .filter(|(_, b)| b.decl_depth >= closing)
                .map(|(k, _)| k.clone())
                .collect();
            for name in &dying {
                bindings.remove(name);
            }
            dying.extend(
                decls
                    .iter()
                    .filter(|(_, &d)| d >= closing)
                    .map(|(k, _)| k.clone()),
            );
            decls.retain(|_, &mut d| d < closing);
            for name in dying {
                for b in bindings.values_mut() {
                    let hit = b.derived_from.as_deref() == Some(name.as_str())
                        || b.protect_key.as_ref().is_some_and(|(r, _)| *r == name);
                    // `bind_depth >= closing`: the dying local was in scope
                    // when the pointer was bound, so it is plausibly the
                    // guard the pointer depends on (a deeper, later shadow
                    // of the same name is not).
                    if hit && b.bind_depth >= closing && b.poisoned.is_none() {
                        b.poisoned = Some(format!("guard `{name}` went out of scope"));
                    }
                }
            }
            depth -= 1;
            if fn_stack.last() == Some(&(depth + 1)) {
                fn_stack.pop();
                bindings.clear();
                decls.clear();
            }
            i += 1;
            continue;
        }

        // `drop(g)` poisons g's dependents.
        if t.is_ident("drop")
            && code.get(i + 1).is_some_and(|n| n.is_punct("("))
            && code.get(i + 2).is_some_and(|n| n.kind == Kind::Ident)
            && code.get(i + 3).is_some_and(|n| n.is_punct(")"))
        {
            let g = code[i + 2].text.clone();
            for b in bindings.values_mut() {
                let hit = b.derived_from.as_deref() == Some(g.as_str())
                    || b.protect_key.as_ref().is_some_and(|(r, _)| *r == g);
                if hit && b.poisoned.is_none() {
                    b.poisoned = Some(format!("`drop({g})`"));
                }
            }
            bindings.remove(&g);
            i += 4;
            continue;
        }

        // Binding forms: `let [mut] x = <init>;` or `x = <init>;`.
        let (target, init_start) = if t.is_ident("let") {
            let mut k = i + 1;
            if code.get(k).is_some_and(|n| n.is_ident("mut")) {
                k += 1;
            }
            match (code.get(k), code.get(k + 1)) {
                (Some(name), Some(eq)) if name.kind == Kind::Ident && eq.is_punct("=") => {
                    decls.insert(name.text.clone(), depth);
                    (Some((name.text.clone(), true)), k + 2)
                }
                (Some(name), _) if name.kind == Kind::Ident => {
                    // `let x;` / destructuring head: record the declaration
                    // depth so derived pointers can be scope-checked later.
                    decls.insert(name.text.clone(), depth);
                    (None, i + 1)
                }
                _ => (None, i + 1),
            }
        } else if t.kind == Kind::Ident
            && code.get(i + 1).is_some_and(|n| n.is_punct("="))
            && !code.get(i + 2).is_some_and(|n| n.is_punct("="))
            && (i == 0 || !code[i - 1].is_punct(".") && !code[i - 1].is_punct("="))
            && bindings.contains_key(&t.text)
        {
            (Some((t.text.clone(), false)), i + 2)
        } else {
            (None, 0)
        };

        if let Some((name, is_let)) = target {
            // Scan the initializer to the terminating `;` at this depth,
            // looking for protect/deref sources and uses of poisoned names.
            let mut k = init_start;
            let mut d = 0i32;
            // Brace/closure nesting within the initializer: a protect call
            // inside `{ .. }` or a closure body produces a value that does
            // NOT flow into this binding (see the torture-harness victim
            // thread pattern), so it must not become the binding's source.
            let mut brace_d = 0i32;
            let mut closure = false;
            let mut balanced_end = true;
            let mut new_binding: Option<Binding> = None;
            while k < code.len() {
                let u = code[k];
                if u.is_punct("|") && d == 0 && brace_d == 0 {
                    closure = true;
                }
                if u.is_punct("{") {
                    brace_d += 1;
                } else if u.is_punct("}") {
                    brace_d -= 1;
                }
                if u.is_punct("(") || u.is_punct("[") || u.is_punct("{") {
                    d += 1;
                } else if u.is_punct(")") || u.is_punct("]") || u.is_punct("}") {
                    d -= 1;
                    if d < 0 {
                        // Hit the enclosing block's closer (macro body, tail
                        // position): leave it to the main loop so brace
                        // depth stays consistent.
                        balanced_end = false;
                        break;
                    }
                } else if u.is_punct(";") && d == 0 {
                    break;
                } else if u.is_ident("protect") && k > 0 && code[k - 1].is_punct(".") {
                    if let Some(recv) = recv_chain(&code, k - 1) {
                        let idx = code
                            .get(k + 2)
                            .filter(|a| matches!(a.kind, Kind::Ident | Kind::Num))
                            .map(|a| a.text.clone())
                            .unwrap_or_default();
                        // Re-protecting a slot invalidates every earlier
                        // word protected through it (except the one being
                        // bound right now).
                        for (bn, b) in bindings.iter_mut() {
                            if *bn != name
                                && b.poisoned.is_none()
                                && b.protect_key.as_ref() == Some(&(recv.clone(), idx.clone()))
                            {
                                b.poisoned = Some(format!(
                                    "`{recv}.protect({idx}, ..)` re-protected its slot"
                                ));
                            }
                        }
                        if brace_d == 0 && !closure {
                            new_binding = Some(Binding {
                                protect_key: Some((recv, idx)),
                                derived_from: None,
                                decl_depth: depth,
                                bind_depth: depth,
                                poisoned: None,
                            });
                        }
                    }
                } else if (u.is_ident("raw") || u.is_ident("orc_word") || u.is_ident("with_tag"))
                    && k > 0
                    && code[k - 1].is_punct(".")
                    && code.get(k + 1).is_some_and(|n| n.is_punct("("))
                {
                    if let Some(recv) = recv_chain(&code, k - 1) {
                        let is_local = decls.contains_key(&recv) || bindings.contains_key(&recv);
                        if !recv.contains('.') && is_local && brace_d == 0 && !closure {
                            new_binding = Some(Binding {
                                protect_key: None,
                                derived_from: Some(recv),
                                decl_depth: depth,
                                bind_depth: depth,
                                poisoned: None,
                            });
                        }
                    }
                } else if u.kind == Kind::Ident && u.text != name {
                    check_use(path, u, &bindings, allows, rep);
                }
                k += 1;
            }
            match new_binding {
                Some(mut b) => {
                    if !is_let {
                        if let Some(old) = bindings.get(&name) {
                            b.decl_depth = old.decl_depth;
                        }
                    }
                    bindings.insert(name, b);
                }
                None => {
                    // Rebound to something untracked: stop tracking.
                    bindings.remove(&name);
                }
            }
            i = if balanced_end { k + 1 } else { k };
            continue;
        }

        // A bare `recv.protect(idx, ..)` statement also re-protects.
        if t.is_ident("protect") && i > 0 && code[i - 1].is_punct(".") {
            if let Some(recv) = recv_chain(&code, i - 1) {
                let idx = code
                    .get(i + 2)
                    .filter(|a| matches!(a.kind, Kind::Ident | Kind::Num))
                    .map(|a| a.text.clone())
                    .unwrap_or_default();
                for b in bindings.values_mut() {
                    if b.poisoned.is_none()
                        && b.protect_key.as_ref() == Some(&(recv.clone(), idx.clone()))
                    {
                        b.poisoned =
                            Some(format!("`{recv}.protect({idx}, ..)` re-protected its slot"));
                    }
                }
            }
            i += 1;
            continue;
        }

        if t.kind == Kind::Ident {
            check_use(path, t, &bindings, allows, rep);
        }
        i += 1;
    }
}

fn check_use(
    path: &str,
    t: &Tok,
    bindings: &BTreeMap<String, Binding>,
    allows: &Allows,
    rep: &mut FileReport,
) {
    let Some(b) = bindings.get(&t.text) else {
        return;
    };
    let Some(why) = &b.poisoned else {
        return;
    };
    if allows.allowed(RuleId::GuardEscape, t.line) {
        return;
    }
    // One finding per (binding, line) is enough signal.
    let dup = rep.findings.iter().any(|f| {
        f.rule == RuleId::GuardEscape
            && f.line == t.line
            && f.msg.contains(&format!("`{}`", t.text))
    });
    if dup {
        return;
    }
    rep.findings.push(Finding {
        rule: RuleId::GuardEscape,
        file: path.to_string(),
        line: t.line,
        col: t.col,
        msg: format!(
            "raw pointer `{}` used after its protection ended ({why})",
            t.text
        ),
    });
}
