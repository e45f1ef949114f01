//! A hand-rolled Rust lexer: just enough tokenization for the lint rules.
//!
//! Why a lexer and not an AST (DESIGN.md §13): the rules only need token
//! streams with positions, comment attachment, and brace structure. A full
//! parse would drag in syn + proc-macro2 and break the workspace's
//! zero-dependency property; a regex/grep pass (the pre-PR-9 CI step) cannot
//! tell code from comments, strings, or `#[cfg]`-gated regions — exactly the
//! false positives/negatives this crate exists to remove.
//!
//! The lexer understands: line and (nested) block comments, string / raw
//! string / byte string / C string literals with arbitrary `#` fences, char
//! literals vs lifetimes, raw identifiers, numbers, and multi-char `::`
//! punctuation (the only compound the rules match on). Everything else is
//! single-char punctuation. A post-pass marks tokens inside `#[cfg(test)]`
//! items so rules can classify test-only code.

/// One lexical token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: Kind,
    /// Identifier name, literal body (quotes/fences stripped for strings),
    /// comment text (marker stripped), or punctuation characters.
    pub text: String,
    pub line: u32,
    pub col: u32,
    /// Last source line the token touches (multi-line strings/comments).
    pub end_line: u32,
    /// Inside a `#[cfg(test)]` item body (set by `mark_cfg_test`).
    pub in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ident,
    Lifetime,
    Str,
    Char,
    Num,
    /// `::` or a single punctuation character.
    Punct,
    LineComment,
    BlockComment,
}

impl Tok {
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, Kind::LineComment | Kind::BlockComment)
    }

    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == Kind::Punct && self.text == s
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        b
    }

    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenizes `src`. Never fails: unterminated constructs run to EOF, which is
/// the most useful behavior for a linter (the compiler owns real syntax
/// errors).
pub fn lex(src: &str) -> Vec<Tok> {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while !c.eof() {
        let (line, col) = (c.line, c.col);
        let b = c.peek(0);
        // Whitespace.
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }
        // Comments.
        if b == b'/' && c.peek(1) == b'/' {
            c.bump();
            c.bump();
            let start = c.pos;
            while !c.eof() && c.peek(0) != b'\n' {
                c.bump();
            }
            out.push(Tok {
                kind: Kind::LineComment,
                text: src[start..c.pos].to_string(),
                line,
                col,
                end_line: line,
                in_test: false,
            });
            continue;
        }
        if b == b'/' && c.peek(1) == b'*' {
            c.bump();
            c.bump();
            let start = c.pos;
            let mut depth = 1usize;
            while !c.eof() && depth > 0 {
                if c.peek(0) == b'/' && c.peek(1) == b'*' {
                    depth += 1;
                    c.bump();
                    c.bump();
                } else if c.peek(0) == b'*' && c.peek(1) == b'/' {
                    depth -= 1;
                    c.bump();
                    c.bump();
                } else {
                    c.bump();
                }
            }
            let end = c.pos.saturating_sub(2).max(start);
            out.push(Tok {
                kind: Kind::BlockComment,
                text: src[start..end].to_string(),
                line,
                col,
                end_line: c.line,
                in_test: false,
            });
            continue;
        }
        // Raw identifiers and raw/byte/C strings: r"..", r#".."#, br"..",
        // b"..", b'..', c"..", r#ident. Plain identifiers that merely start
        // with r/b/c fall through to the ident arm below.
        if b == b'r' && (c.peek(1) == b'"' || c.peek(1) == b'#') {
            if c.peek(1) == b'#' && is_ident_start(c.peek(2)) {
                // Raw identifier r#name.
                c.bump();
                c.bump();
                let start = c.pos;
                while !c.eof() && is_ident_cont(c.peek(0)) {
                    c.bump();
                }
                out.push(Tok {
                    kind: Kind::Ident,
                    text: src[start..c.pos].to_string(),
                    line,
                    col,
                    end_line: line,
                    in_test: false,
                });
                continue;
            }
            if let Some(t) = lex_raw_string(src, &mut c, line, col, 1) {
                out.push(t);
                continue;
            }
        }
        if (b == b'b' || b == b'c') && (c.peek(1) == b'"' || (b == b'b' && c.peek(1) == b'\'')) {
            if c.peek(1) == b'"' {
                c.bump(); // prefix
                out.push(lex_quoted(src, &mut c, line, col, Kind::Str, b'"'));
            } else {
                c.bump();
                out.push(lex_quoted(src, &mut c, line, col, Kind::Char, b'\''));
            }
            continue;
        }
        if b == b'b' && c.peek(1) == b'r' && (c.peek(2) == b'"' || c.peek(2) == b'#') {
            if let Some(t) = lex_raw_string(src, &mut c, line, col, 2) {
                out.push(t);
                continue;
            }
        }
        // Plain strings.
        if b == b'"' {
            out.push(lex_quoted(src, &mut c, line, col, Kind::Str, b'"'));
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            if c.peek(1) == b'\\' || (c.peek(2) == b'\'' && c.peek(1) != b'\'') {
                out.push(lex_quoted(src, &mut c, line, col, Kind::Char, b'\''));
            } else if is_ident_start(c.peek(1)) {
                c.bump();
                let start = c.pos;
                while !c.eof() && is_ident_cont(c.peek(0)) {
                    c.bump();
                }
                out.push(Tok {
                    kind: Kind::Lifetime,
                    text: src[start..c.pos].to_string(),
                    line,
                    col,
                    end_line: line,
                    in_test: false,
                });
            } else {
                // Degenerate: lone quote; consume to avoid an infinite loop.
                c.bump();
            }
            continue;
        }
        // Identifiers / keywords.
        if is_ident_start(b) {
            let start = c.pos;
            while !c.eof() && is_ident_cont(c.peek(0)) {
                c.bump();
            }
            out.push(Tok {
                kind: Kind::Ident,
                text: src[start..c.pos].to_string(),
                line,
                col,
                end_line: line,
                in_test: false,
            });
            continue;
        }
        // Numbers (loose: suffixes and underscores folded in; `0..9` keeps
        // the range dots out of the literal).
        if b.is_ascii_digit() {
            let start = c.pos;
            while !c.eof() {
                let n = c.peek(0);
                let in_num = n.is_ascii_alphanumeric()
                    || n == b'_'
                    || (n == b'.' && c.peek(1).is_ascii_digit());
                if in_num {
                    c.bump();
                } else {
                    break;
                }
            }
            out.push(Tok {
                kind: Kind::Num,
                text: src[start..c.pos].to_string(),
                line,
                col,
                end_line: line,
                in_test: false,
            });
            continue;
        }
        // `::` is the one compound the rules match on.
        if b == b':' && c.peek(1) == b':' {
            c.bump();
            c.bump();
            out.push(Tok {
                kind: Kind::Punct,
                text: "::".to_string(),
                line,
                col,
                end_line: line,
                in_test: false,
            });
            continue;
        }
        c.bump();
        out.push(Tok {
            kind: Kind::Punct,
            text: (b as char).to_string(),
            line,
            col,
            end_line: line,
            in_test: false,
        });
    }
    mark_cfg_test(&mut out);
    out
}

fn lex_quoted(src: &str, c: &mut Cursor, line: u32, col: u32, kind: Kind, quote: u8) -> Tok {
    c.bump(); // opening quote
    let start = c.pos;
    while !c.eof() {
        let b = c.peek(0);
        if b == b'\\' {
            c.bump();
            if !c.eof() {
                c.bump();
            }
            continue;
        }
        if b == quote {
            break;
        }
        c.bump();
    }
    let end = c.pos;
    if !c.eof() {
        c.bump(); // closing quote
    }
    Tok {
        kind,
        text: src[start..end].to_string(),
        line,
        col,
        end_line: c.line,
        in_test: false,
    }
}

/// Lexes `r##"..."##` (and `br...`) starting at the prefix; `skip` is the
/// prefix length (1 for `r`, 2 for `br`). Returns `None` if this is not
/// actually a raw string (caller falls through to other token kinds).
fn lex_raw_string(src: &str, c: &mut Cursor, line: u32, col: u32, skip: usize) -> Option<Tok> {
    let mut hashes = 0usize;
    let mut at = skip;
    while c.peek(at) == b'#' {
        hashes += 1;
        at += 1;
    }
    if c.peek(at) != b'"' {
        return None;
    }
    for _ in 0..at + 1 {
        c.bump();
    }
    let start = c.pos;
    let close: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    while !c.eof() {
        if c.peek(0) == b'"' {
            let matched = (0..close.len()).all(|i| c.peek(i) == close[i]);
            if matched {
                let end = c.pos;
                for _ in 0..close.len() {
                    c.bump();
                }
                return Some(Tok {
                    kind: Kind::Str,
                    text: src[start..end].to_string(),
                    line,
                    col,
                    end_line: c.line,
                    in_test: false,
                });
            }
        }
        c.bump();
    }
    Some(Tok {
        kind: Kind::Str,
        text: src[start..c.pos].to_string(),
        line,
        col,
        end_line: c.line,
        in_test: false,
    })
}

/// Marks every token inside the body of an item annotated `#[cfg(test)]`
/// (idiomatically a `mod tests { ... }`, but any braced item works) with
/// `in_test = true`, so rules can classify test-only code. Attributes between
/// the `cfg` and the item body are skipped; `#[cfg(test)] use ...;` items
/// (terminated by `;` before any `{`) mark nothing.
fn mark_cfg_test(toks: &mut [Tok]) {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut ci = 0usize;
    while ci < code.len() {
        if !is_cfg_test_attr_at(toks, &code, ci) {
            ci += 1;
            continue;
        }
        // Skip to the `]` closing this attribute.
        let mut depth = 0i32;
        let mut j = ci + 1; // at `[`
        while j < code.len() {
            let t = &toks[code[j]];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        // Find the item body `{` (skipping further attributes), or give up
        // at `;` / EOF.
        let mut k = j + 1;
        let mut body = None;
        while k < code.len() {
            let t = &toks[code[k]];
            if t.is_punct("#") && k + 1 < code.len() && toks[code[k + 1]].is_punct("[") {
                // Another attribute: skip its brackets.
                let mut d = 0i32;
                k += 1;
                while k < code.len() {
                    let u = &toks[code[k]];
                    if u.is_punct("[") {
                        d += 1;
                    } else if u.is_punct("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                k += 1;
                continue;
            }
            if t.is_punct(";") {
                break;
            }
            if t.is_punct("{") {
                body = Some(k);
                break;
            }
            k += 1;
        }
        if let Some(open) = body {
            let mut d = 0i32;
            let mut m = open;
            while m < code.len() {
                let t = &toks[code[m]];
                if t.is_punct("{") {
                    d += 1;
                } else if t.is_punct("}") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            spans.push((code[open], code[m.min(code.len() - 1)]));
            ci = k + 1;
        } else {
            ci = k.max(ci + 1);
        }
    }
    for (a, b) in spans {
        for t in toks.iter_mut().take(b + 1).skip(a) {
            t.in_test = true;
        }
    }
}

/// Is `code[ci]` the `#` of a literal `#[cfg(test)]` / `#[cfg(all(test, ..))]`
/// attribute? (Any `test` identifier inside the cfg predicate counts; that is
/// conservative in the right direction — more code classified as test-only.)
fn is_cfg_test_attr_at(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    if !toks[code[ci]].is_punct("#") {
        return false;
    }
    let Some(&bi) = code.get(ci + 1) else {
        return false;
    };
    if !toks[bi].is_punct("[") {
        return false;
    }
    let Some(&cfg) = code.get(ci + 2) else {
        return false;
    };
    if !toks[cfg].is_ident("cfg") {
        return false;
    }
    // Scan the attribute's bracket span for a `test` ident.
    let mut depth = 0i32;
    let mut j = ci + 1;
    while let Some(&idx) = code.get(j) {
        let t = &toks[idx];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_ident("test") {
            return true;
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_not_code() {
        let toks = lex(r#"let x = "std::sync::atomic"; // std::sync::atomic"#);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "x"]);
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Str).count(), 1);
        assert_eq!(
            toks.iter().filter(|t| t.kind == Kind::LineComment).count(),
            1
        );
    }

    #[test]
    fn raw_strings_and_nested_block_comments() {
        let toks = lex("r#\"a \" b\"# /* outer /* inner */ still */ x");
        assert_eq!(toks[0].kind, Kind::Str);
        assert_eq!(toks[0].text, "a \" b");
        assert_eq!(toks[1].kind, Kind::BlockComment);
        assert!(toks[1].text.contains("inner"));
        assert!(toks[2].is_ident("x"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let esc = '\\n'; }");
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Char).count(), 2);
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let toks = lex("a\n  bb\n");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn cfg_test_region_marking() {
        let src =
            "fn prod() { x(); }\n#[cfg(test)]\nmod tests {\n fn t() { y(); }\n}\nfn after() {}";
        let toks = lex(src);
        let y = toks.iter().find(|t| t.is_ident("y")).unwrap();
        assert!(y.in_test);
        let x = toks.iter().find(|t| t.is_ident("x")).unwrap();
        assert!(!x.in_test);
        let after = toks.iter().find(|t| t.is_ident("after")).unwrap();
        assert!(!after.in_test);
    }

    #[test]
    fn cfg_test_with_interleaved_attr_and_cfg_all() {
        let src = "#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nmod m { fn g() {} }";
        let toks = lex(src);
        let g = toks.iter().find(|t| t.is_ident("g")).unwrap();
        assert!(g.in_test);
    }

    #[test]
    fn double_colon_is_one_token() {
        let toks = lex("std::sync::atomic::AtomicUsize");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["std", "::", "sync", "::", "atomic", "::", "AtomicUsize"]
        );
    }
}
