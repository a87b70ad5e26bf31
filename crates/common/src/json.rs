//! A small, dependency-free JSON value type with a parser and writer.
//!
//! The server protocol is line-delimited JSON and the build environment
//! has no crates-io mirror (so no `serde_json`); this module provides the
//! few hundred lines of JSON the workspace needs. It implements RFC 8259
//! minus a few corners noted inline: parsed numbers are `f64` (integers
//! round-trip exactly up to 2⁵³) and `\uXXXX` escapes outside the basic
//! multilingual plane must be valid surrogate pairs.
//!
//! Both directions are one linear pass over each string. The parser scans
//! each run of unescaped bytes up to the next `"`, `\` or control byte and
//! appends it with one `push_str`: the input is already a `&str` and a run
//! ends on an ASCII byte, so no per-character UTF-8 work is needed. The
//! writer emits each run that needs no escape with one `write_all` and
//! produces the same bytes as escaping character by character would.

use crate::error::{CqaError, Result};
use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// A JSON value. Objects use a `BTreeMap`, so serialization is
/// deterministic — important for cache keys and test assertions.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (always an `f64`, as in JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value of a key, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Moves the value of a key out of an object, leaving the rest, so a
    /// decoder can take strings and arrays out of the tree without copying.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(m) => m.remove(key),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as an integer (a number with no fractional part).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// A required string field of an object, with a protocol-shaped error.
    pub fn req_str(&self, key: &str) -> Result<&str> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| CqaError::Parse(format!("missing or non-string field '{key}'")))
    }

    /// A required numeric field of an object.
    pub fn req_f64(&self, key: &str) -> Result<f64> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| CqaError::Parse(format!("missing or non-numeric field '{key}'")))
    }

    /// A required boolean field of an object.
    pub fn req_bool(&self, key: &str) -> Result<bool> {
        self.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| CqaError::Parse(format!("missing or non-boolean field '{key}'")))
    }

    /// A required integer field of an object ([`Json::as_u64`]).
    pub fn req_u64(&self, key: &str) -> Result<u64> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| CqaError::Parse(format!("missing or non-integer field '{key}'")))
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Writes `s` as a JSON string literal. Each run of bytes that needs no
/// escape goes out with one `write_all`; only `"`, `\`, `\n`, `\r`,
/// `\t` and the other bytes below 0x20 are escaped (the last as
/// `\u00xx`). Bytes of multi-byte UTF-8 sequences are all 0x80 or above,
/// so they always belong to a run.
fn write_escaped<W: io::Write>(out: &mut W, s: &str) -> io::Result<()> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let control;
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                control =
                    [b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]];
                &control
            }
            _ => continue,
        };
        out.write_all(&bytes[run_start..i])?;
        out.write_all(escape)?;
        run_start = i + 1;
    }
    out.write_all(&bytes[run_start..])?;
    out.write_all(b"\"")
}

fn write_value<W: io::Write>(out: &mut W, v: &Json) -> io::Result<()> {
    match v {
        Json::Null => out.write_all(b"null"),
        Json::Bool(true) => out.write_all(b"true"),
        Json::Bool(false) => out.write_all(b"false"),
        Json::Num(n) => {
            if n.is_finite() {
                // Integers print without a trailing ".0" (16 digits of
                // integer precision is beyond the 2^53 exactness bound).
                if n.fract() == 0.0 && n.abs() < 1e16 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                }
            } else {
                // JSON has no Infinity/NaN; emit null like JavaScript does.
                out.write_all(b"null")
            }
        }
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.write_all(b"[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                write_value(out, item)?;
            }
            out.write_all(b"]")
        }
        Json::Obj(map) => {
            out.write_all(b"{")?;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                write_escaped(out, k)?;
                out.write_all(b":")?;
                write_value(out, val)?;
            }
            out.write_all(b"}")
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl Json {
    /// Serializes to a single line of JSON (no whitespace).
    #[expect(
        clippy::expect_used,
        reason = "io::Write into a Vec<u8> is infallible, and the serializer only emits valid \
                  UTF-8 (escapes are ASCII, strings re-encode chars)"
    )]
    pub fn to_string_compact(&self) -> String {
        let mut out = Vec::new();
        write_value(&mut out, self).expect("writing JSON to a Vec cannot fail");
        String::from_utf8(out).expect("serialized JSON is UTF-8")
    }

    /// Streams compact JSON into `w` without materializing the text —
    /// large documents (trace exports run to megabytes) go straight to
    /// the file. Callers should hand in a buffered writer.
    pub fn write_compact<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        write_value(w, self)
    }

    /// Parses one JSON document, requiring it to span the whole input.
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> CqaError {
        CqaError::Parse(format!("json: {msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "the matched range holds only ASCII sign/digit/exponent bytes"
        )]
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        let n: f64 = text.parse().map_err(|_| self.err(&format!("bad number '{text}'")))?;
        Ok(Json::Num(n))
    }

    fn hex4(&mut self) -> Result<u16> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One unescaped run, up to the next quote, backslash or control
            // byte. All three are ASCII, so the run ends on a char boundary
            // of the input and is appended as a valid `&str` slice.
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let end = self.pos + run.unwrap_or(rest.len());
            let slice = self.text.get(self.pos..end).ok_or_else(|| self.err("invalid utf-8"))?;
            out.push_str(slice);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
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

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The writer escaping one character at a time: the reference whose
    /// bytes the run-based writer must reproduce.
    fn write_escaped_per_char(s: &str) -> String {
        let mut out = String::from("\"");
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

    fn write_escaped_string(s: &str) -> String {
        let mut out = Vec::new();
        write_escaped(&mut out, s).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// A character drawn with weight on what the codec treats specially:
    /// quotes, backslashes, every control byte, non-BMP characters.
    fn codec_char(pick: u32, x: u32) -> char {
        match pick {
            0 => '"',
            1 => '\\',
            2 => char::from_u32(x % 0x20).unwrap(),
            3 => '/',
            4 => char::from_u32(0x10000 + x % 0x100000).unwrap(),
            5 => char::from_u32(x).unwrap_or('\u{fffd}'),
            _ => char::from_u32(0x20 + x % 0x5f).unwrap(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn writer_matches_per_char_reference_and_parse_inverts_it(
            picks in prop::collection::vec((0u32..8, 0u32..0x110000), 0..48)
        ) {
            let s: String = picks.into_iter().map(|(p, x)| codec_char(p, x)).collect();
            let written = write_escaped_string(&s);
            prop_assert_eq!(&written, &write_escaped_per_char(&s));
            prop_assert_eq!(Json::parse(&written).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn every_control_byte_and_the_empty_string_roundtrip() {
        for s in (0u8..0x20).map(|b| char::from(b).to_string()).chain([String::new()]) {
            let written = write_escaped_string(&s);
            assert_eq!(written, write_escaped_per_char(&s));
            assert_eq!(Json::parse(&written).unwrap().as_str(), Some(s.as_str()));
        }
        assert_eq!(write_escaped_string("\u{1}\u{1f}"), r#""\u0001\u001f""#);
    }

    /// String decode is linear: a request line carrying a 4 MiB query
    /// string (runs of ASCII and multi-byte text between escapes) parses
    /// well inside 2 s even unoptimized. A decoder that revalidated the
    /// rest of the input per character would take minutes here.
    #[test]
    fn a_four_mib_string_decodes_in_linear_time() {
        let (wire, text) = ("Q(x) :- r(x, 'é🦀') \\n\\\" \\u00e9 ", "Q(x) :- r(x, 'é🦀') \n\" é ");
        let copies = (4 << 20) / wire.len() + 1;
        let line = format!(r#"{{"v":1,"cmd":"query","query":"{}","seed":7}}"#, wire.repeat(copies));
        let started = std::time::Instant::now();
        let parsed = Json::parse(&line).unwrap();
        let elapsed = started.elapsed();
        assert!(line.len() > 4 << 20);
        assert!(parsed.req_str("query").unwrap() == text.repeat(copies));
        assert!(elapsed.as_secs_f64() < 2.0, "a 4 MiB string took {elapsed:?} to decode");
    }

    #[test]
    fn roundtrips_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.25", "\"hi\"", "[]", "{}"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text, "roundtrip of {text}");
        }
    }

    #[test]
    fn roundtrips_nested_structures() {
        let text = r#"{"a":[1,2,{"b":"x"}],"c":null,"d":true}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string_compact(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn write_compact_streams_the_same_bytes() {
        let text = r#"{"a":[1,2,{"b":"x \" \\ \n"}],"c":null,"d":3.5}"#;
        let v = Json::parse(text).unwrap();
        let mut buf = Vec::new();
        v.write_compact(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), v.to_string_compact());
    }

    #[test]
    fn object_keys_serialize_sorted() {
        let v = Json::obj([("zebra", Json::from(1u64)), ("alpha", Json::from(2u64))]);
        assert_eq!(v.to_string_compact(), r#"{"alpha":2,"zebra":1}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let ugly = "tab\there \"quoted\" back\\slash\nnewline \u{1}ctrl é λ 🦀";
        let mut out = Vec::new();
        write_escaped(&mut out, ugly).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(parsed.as_str().unwrap(), ugly);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""A""#).unwrap().as_str().unwrap(), "A");
        // A surrogate pair (crab emoji).
        assert_eq!(Json::parse(r#""🦀""#).unwrap().as_str().unwrap(), "🦀");
        assert!(Json::parse(r#""\ud83e""#).is_err());
    }

    #[test]
    fn numbers_parse_and_print() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64().unwrap(), 1000.0);
        assert_eq!(Json::parse("1e3").unwrap().to_string_compact(), "1000");
        assert_eq!(Json::parse("0.5").unwrap().to_string_compact(), "0.5");
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\"}",
            "{\"a\":}",
            "[1] trailing",
            "nul",
            "{1:2}",
            "\u{1}",
        ] {
            assert!(Json::parse(text).is_err(), "accepted malformed {text:?}");
        }
    }

    #[test]
    fn accessors_and_helpers() {
        let v = Json::obj([("s", Json::str("x")), ("n", Json::from(2.5)), ("b", Json::from(true))]);
        assert_eq!(v.req_str("s").unwrap(), "x");
        assert_eq!(v.req_f64("n").unwrap(), 2.5);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.req_str("missing").is_err());
        assert!(v.req_f64("s").is_err());
        assert!(v.get("s").unwrap().as_bool().is_none());
    }

    #[test]
    fn nonfinite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }
}
