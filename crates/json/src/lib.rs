//! `amrviz-json` — the JSON subset the pipeline actually needs, on plain std.
//!
//! Benchmark manifests, `results.json` merging, plotfile headers, and the
//! `SUMMARY` line all speak JSON. This crate provides a [`Json`] value type
//! with an insertion-ordered object (so manifests diff cleanly), a writer
//! whose `f64` formatting is the shortest round-trip representation (Rust's
//! `{:?}` for floats), and a recursive-descent parser for everything the
//! serializer emits plus ordinary interchange JSON.
//!
//! Non-finite floats serialize as `null`, matching what `serde_json` did for
//! the seed's manifests. Equal inputs produce byte-identical output at any
//! thread count — there is nothing scheduling-dependent here, but it matters
//! for the golden-snapshot tests that hash manifest text.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(entries) => {
                let value = value.into();
                if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    entries.push((key.to_string(), value));
                }
                self
            }
            other => panic!("set({key}) on non-object {other:?}"),
        }
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(|n| {
            if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
                Some(n as u64)
            } else {
                None
            }
        })
    }

    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(|n| {
            if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&n) {
                Some(n as i64)
            } else {
                None
            }
        })
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation (what the seed's
    /// `serde_json::to_string_pretty` manifests used).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out
    }

    /// Parses a JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json { Json::Num(v as f64) }
        }
    )*};
}
num_to_json!(f64, f32, i64, i32, i16, u64, u32, u16, u8, usize, isize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<V: Into<Json>> From<BTreeMap<String, V>> for Json {
    fn from(v: BTreeMap<String, V>) -> Json {
        Json::Obj(v.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_num(*n, out),
        Json::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Json::Obj(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                out.push_str(&format!("\"{}\"", escape(k)));
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 1e15 {
        // Integral values print without a fractional part or exponent.
        out.push_str(&format!("{}", n as i64));
    } else {
        // `{:?}` on f64 is the shortest string that round-trips exactly.
        out.push_str(&format!("{n:?}"));
    }
}

/// `s` escaped for use inside a JSON string literal, without the quotes —
/// for writers that render JSON with `format!`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
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
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Handle surrogate pairs for completeness.
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let c = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "12.5", "1e-3"] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn float_shortest_roundtrip() {
        let v = Json::Num(0.1 + 0.2);
        let text = v.to_string_compact();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), (0.1 + 0.2f64).to_bits());
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string_compact(), "42");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(2.5).to_string_compact(), "2.5");
    }

    #[test]
    fn non_finite_is_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut o = Json::obj();
        o.set("zeta", 1).set("alpha", 2).set("mid", "x");
        assert_eq!(o.to_string_compact(), r#"{"zeta":1,"alpha":2,"mid":"x"}"#);
        // Replacement keeps the original position.
        o.set("zeta", 9);
        assert_eq!(o.get("zeta").unwrap().as_i64(), Some(9));
        assert!(o.to_string_compact().starts_with(r#"{"zeta":9"#));
    }

    #[test]
    fn pretty_output_shape() {
        let mut o = Json::obj();
        o.set("a", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]));
        let text = o.to_string_pretty();
        assert_eq!(text, "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
        assert_eq!(Json::parse(&text).unwrap(), o);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\slash\\ unicode: αβγ \u{1}";
        let v = Json::Str(s.to_string());
        let back = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_str().unwrap(), s);
    }

    #[test]
    fn json_escape_control_chars() {
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape("tab\there"), "tab\\there");
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(Json::parse(r#""A""#).unwrap().as_str().unwrap(), "A");
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse(r#""😀""#).unwrap().as_str().unwrap(),
            "\u{1f600}"
        );
    }

    #[test]
    fn nested_document_roundtrip() {
        let text =
            r#"{"runs":[{"cr":12.5,"psnr":38.25,"ok":true},{"cr":3,"psnr":null}],"app":"nyx"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string_compact(), text);
        assert_eq!(
            v.get("runs").unwrap().as_arr().unwrap()[0]
                .get("cr")
                .unwrap()
                .as_f64(),
            Some(12.5)
        );
    }

    #[test]
    fn parse_errors_carry_offsets() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":1,}"#).is_err());
        assert!(Json::parse("[1,2] extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Json::from(3u32), Json::Num(3.0));
        assert_eq!(Json::from(vec![1i64, 2]).to_string_compact(), "[1,2]");
        assert_eq!(Json::from([1.5f64; 2]).to_string_compact(), "[1.5,1.5]");
        let map = BTreeMap::from([("b".to_string(), 2u8), ("a".to_string(), 1)]);
        assert_eq!(Json::from(map).to_string_compact(), r#"{"a":1,"b":2}"#);
    }
}
