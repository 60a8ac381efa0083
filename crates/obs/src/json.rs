//! The workspace's one JSON module: a value type, a writer, and a
//! parser. Every JSON document the workspace writes or reads goes
//! through it — reports and `BENCH_*.json`, Perfetto traces and flight
//! dumps, the ledger, `pwf vet`/`pwf lint` reports and `/predict`
//! bodies.
//!
//! The writer has two layouts over one code path: [`Json::render`]
//! indents by two spaces, [`Json::render_compact`] puts the document
//! on one line ([`Json::render_compact_into`] appends that line to a
//! string a streaming exporter is filling). Integers are kept exact
//! (seeds are full-range `u64`s that would lose precision as `f64`);
//! non-finite numbers, which JSON cannot spell, are written as `null`.
//! The parser accepts standard JSON only.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, kept exact through round-trips.
    Int(i128),
    /// A non-integer number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from an `f64` that is spelled as an integer when it is
    /// one: an integral value with |v| < 9e15 (exact in an `f64`)
    /// becomes [`Json::Int`], anything else [`Json::Num`].
    pub fn number(v: f64) -> Json {
        if v == v.trunc() && v.abs() < 9e15 {
            Json::Int(v as i128)
        } else {
            Json::Num(v)
        }
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on one line: no whitespace, no trailing newline.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    /// Appends the [`render_compact`](Self::render_compact) layout to
    /// `out`, for a writer that streams a document piece by piece.
    pub fn render_compact_into(&self, out: &mut String) {
        self.write(out, None);
    }

    /// `indent` is the nesting depth in the indented layout, `None` in
    /// the single-line one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest representation that round-trips; ensure
                    // a decimal point or exponent so it re-parses as
                    // Num, not Int.
                    let start = out.len();
                    let _ = write!(out, "{v}");
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Inf; null is the least-bad spelling.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.write(out, inner);
            }),
            Json::Obj(fields) => {
                write_seq(out, indent, ['{', '}'], fields, |out, (k, v), inner| {
                    write_escaped(out, k);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                })
            }
        }
    }

    /// Parses one standard JSON document. The error names the byte
    /// offset of the failure and what went wrong there.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

/// Writes `items` between `brackets`, comma-separated; in the indented
/// layout each item sits on its own line one level deeper.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(brackets[0]);
    if !items.is_empty() {
        let inner = indent.map(|levels| levels + 1);
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(out, inner);
            write_item(out, item, inner);
        }
        newline(out, indent);
    }
    out.push(brackets[1]);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(levels) = indent {
        out.push('\n');
        for _ in 0..levels {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.seq(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses the comma-separated items of an array or object, from its
    /// opening bracket through `close`.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err(&format!("expected ',' or {:?}", close as char)));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes, then handle the escape or
            // terminator that stopped it.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                if c < 0x20 {
                    return Err(self.err("unescaped control character in string"));
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| self.err("\\u needs four hex digits"))?
                                .iter()
                                .fold(0, |code, &b| {
                                    code * 16 + (b as char).to_digit(16).expect("checked hex digit")
                                });
                            // Surrogate pairs are not emitted by this
                            // module; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!("loop stops only at quote, backslash, or end"),
            }
        }
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        // A leading zero stands alone: `01` parses as 0 and fails on the 1.
        if !self.eat(b'0') {
            self.digits()?;
        }
        let integer_end = self.pos;
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if self.pos == integer_end {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid integer"))
        } else {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("-42", Json::Int(-42)),
            ("3.25", Json::Num(3.25)),
            ("\"a\\nb\"", Json::Str("a\nb".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value, "{text}");
            assert_eq!(Json::parse(value.render().trim()).unwrap(), value);
            // A scalar spells the same in both layouts.
            assert_eq!(value.render_compact(), text);
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let v = Json::Int(u64::MAX as i128);
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            (
                "items".into(),
                Json::Arr(vec![
                    Json::Int(1),
                    Json::Str("two, three".into()),
                    Json::Null,
                ]),
            ),
            ("quote \"key\"".into(), Json::Str("tab\there".into())),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_compact()).unwrap(), v);
        assert_eq!(
            v.render_compact(),
            r#"{"empty_arr":[],"empty_obj":{},"items":[1,"two, three",null],"quote \"key\"":"tab\there"}"#
        );
        assert_eq!(
            v.render(),
            "{\n  \"empty_arr\": [],\n  \"empty_obj\": {},\n  \"items\": [\n    1,\n    \
             \"two, three\",\n    null\n  ],\n  \"quote \\\"key\\\"\": \"tab\\there\"\n}\n"
        );
    }

    #[test]
    fn numbers_spell_integers_when_exact_and_null_when_not_finite() {
        for (v, text) in [
            (2.0, "2"),
            (-0.0, "0"),
            (2.5, "2.5"),
            (1e16, "10000000000000000.0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(Json::number(v).render_compact(), text, "{v}");
        }
        assert_eq!(Json::Num(2.0).render_compact(), "2.0");
        assert_eq!(Json::Str("\u{1}".into()).render_compact(), "\"\\u0001\"");
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in [
            "",
            "{\"a\": }",
            "[1, 2",
            "1 2",
            "\"open",
            "\"\\u+0ff\"",
            "\"\\u12\"",
            "\"raw\ttab\"",
            "1.",
            "-.5",
            "01",
            "-01",
            "-",
            "1e",
            "1e+",
            ".5",
            "+1",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?}");
        }
        assert_eq!(Json::parse("\"\\u00ff\"").unwrap(), Json::Str("ÿ".into()));
        assert_eq!(Json::parse("-0.5e-3").unwrap(), Json::Num(-0.0005));
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
    }
}
