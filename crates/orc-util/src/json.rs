//! The workspace's one JSON module: a minimal value type with a
//! recursive-descent [`parse`]r, and the [`Writer`] every exporter
//! (`stats`, `trace`, `obs`, the bench records and reports) emits
//! through.
//!
//! The workspace builds with zero external dependencies, so neither the
//! exporters nor the tests that read them back can reach for serde. The
//! parser covers the full grammar — objects, arrays, strings with
//! escapes, numbers parsed as `f64`, booleans and `null` — and doubles
//! as the well-formedness check the exporter tests and the `orctel`
//! example run on their own output (`parse(..).is_ok()`). It is strict where
//! our writers could go wrong (raw control characters in strings,
//! trailing commas, trailing garbage) and lenient about number
//! spelling, which it leaves to `f64::from_str`. Errors carry a byte
//! offset so a truncated report points at the damage.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers parse as `f64` (the harness never writes integers a
    /// f64 cannot hold exactly below 2⁵³; ops counts stay well under).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Ordered map — key order is irrelevant to every reader, and a
    /// BTreeMap gives deterministic iteration for error messages.
    Obj(BTreeMap<String, Json>),
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(v)
}

impl Json {
    /// [`parse`], as an associated function.
    pub fn parse(text: &str) -> Result<Json, String> {
        parse(text)
    }

    /// Object field lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest container nesting [`parse`] accepts; input comes from files,
/// so a hostile `[[[[…` must be an error, not a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected literal {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogates never appear in our own output;
                            // map unpaired ones to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(0x00..=0x1f) => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let ch_len = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8"))?
                        .chars()
                        .next()
                        .map(char::len_utf8)
                        .unwrap_or(1);
                    s.push_str(std::str::from_utf8(&rest[..ch_len]).unwrap());
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Append-only writer of compact JSON. It owns the two things the
/// hand-rolled emitters kept getting wrong separately: separators (a
/// comma goes before every key or value that does not directly follow
/// an opening bracket or a key) and scalars (strings are escaped by
/// [`quote`], non-finite floats become `null`). Nesting is the caller's
/// to balance.
#[derive(Debug, Default)]
pub struct Writer(String);

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    fn item(&mut self, text: impl std::fmt::Display) -> &mut Self {
        use std::fmt::Write as _;
        if !matches!(self.0.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.0.push(',');
        }
        let _ = write!(self.0, "{text}"); // writing to a String cannot fail
        self
    }

    pub fn begin_obj(&mut self) -> &mut Self {
        self.item("{")
    }

    pub fn end_obj(&mut self) -> &mut Self {
        self.0.push('}');
        self
    }

    pub fn begin_arr(&mut self) -> &mut Self {
        self.item("[")
    }

    pub fn end_arr(&mut self) -> &mut Self {
        self.0.push(']');
        self
    }

    /// `"k":` — the next item written is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.item(quote(k)).0.push(':');
        self
    }

    pub fn str(&mut self, v: &str) -> &mut Self {
        self.item(quote(v))
    }

    /// An integer (anything whose `Display` is a JSON number).
    pub fn int(&mut self, v: impl std::fmt::Display) -> &mut Self {
        self.item(v)
    }

    /// A float in shortest round-trip form; `null` when non-finite
    /// (`NaN`/`inf` are not JSON).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.item(v)
        } else {
            self.item("null")
        }
    }

    /// A pre-rendered JSON value (a nested document, a fixed-precision
    /// number).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.item(json)
    }

    pub fn finish(self) -> String {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let j = Json::parse(r#"{"a":1,"b":[true,null,-2.5e1],"c":"x"}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_f64(), Some(1.0));
        let b = j.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_f64(), Some(-25.0));
        assert_eq!(j.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let j = Json::parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn rejects_malformed_input() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "{} {}",
            "\"unterminated",
            "{'single':1}",
            "nul",
            "nulll",
            "--3",
            "01x",
            "\"raw\u{1}control\"",
            "\"bad \\q escape\"",
            "\"short \\u12\"",
            deep.as_str(),
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.contains("JSON parse error"), "{bad:?} -> {e}");
        }
    }

    #[test]
    fn accepts_the_full_grammar() {
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        for good in [
            "{}",
            "[]",
            "[1,2.5,-3e2,\"a\\n\\u00ff\",true,false,null]",
            "{\"a\":[{\"b\":1}]} ",
            " \t\r\n{ \"a\" : [ 1 , 2 ] }\n",
            deepest.as_str(),
        ] {
            assert!(parse(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut w = Writer::new();
        w.begin_obj();
        w.key("s").str("a\"b\\c\nd\te\rf\u{1}");
        w.key("n").int(-7);
        w.key("f").f64(0.25);
        w.key("nan").f64(f64::NAN).key("inf").f64(f64::NEG_INFINITY);
        w.key("arr").begin_arr();
        w.int(1u64)
            .begin_arr()
            .end_arr()
            .begin_obj()
            .end_obj()
            .raw("2.500");
        w.end_arr();
        w.key("nested").raw("{\"k\":null}");
        w.key("empty").begin_obj().end_obj();
        w.end_obj();
        let text = w.finish();
        assert_eq!(
            text,
            "{\"s\":\"a\\\"b\\\\c\\nd\\te\\rf\\u0001\",\"n\":-7,\"f\":0.25,\"nan\":null,\
             \"inf\":null,\"arr\":[1,[],{},2.500],\"nested\":{\"k\":null},\"empty\":{}}"
        );
        let j = parse(&text).expect("writer output parses");
        assert_eq!(j.get("s").unwrap().as_str(), Some("a\"b\\c\nd\te\rf\u{1}"));
        assert_eq!(Writer::new().finish(), "");
    }
}
