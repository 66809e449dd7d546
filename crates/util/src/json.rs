//! A small, dependency-free JSON value type with parser and writers.
//!
//! The reproduction runs in offline / vendored environments where pulling
//! `serde` + `serde_json` from a registry is not always possible, and the
//! only serialisation the project needs is a handful of report and
//! checkpoint formats. This module provides exactly that: an ordered
//! [`Json`] value, a strict parser, compact and pretty writers, and the
//! [`crate::json!`] object-literal macro. Types that persist themselves
//! implement [`ToJson`] / [`FromJson`] by hand — the formats are part of
//! the public contract and reviewed like code.
//!
//! Numbers are stored as `f64` (JSON's native model); integers up to 2⁵³
//! round-trip exactly, which covers every count and seed the project
//! serialises. F32 tensors round-trip bit-exactly through the `f64`
//! widening.

use std::fmt::Write as _;

use crate::error::{Error, Result};

/// A JSON value. Object keys keep insertion order so written files are
/// stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (the whole input must be one value).
    ///
    /// Nesting is capped at [`MAX_DEPTH`] containers: the parser recurses
    /// per `[`/`{`, so without the cap a hostile `[[[[…` document would
    /// overflow the stack instead of returning `Err`.
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(Error::Serde(format!(
                "trailing characters at byte {pos} of JSON input"
            )));
        }
        Ok(value)
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors with the missing key's name.
    pub fn field(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| Error::Serde(format!("missing JSON field `{key}`")))
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(Error::Serde(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as an `f32` (checkpoint tensors).
    pub fn as_f32(&self) -> Result<f32> {
        Ok(self.as_f64()? as f32)
    }

    /// The value as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
            return Err(Error::Serde(format!("expected unsigned integer, got {n}")));
        }
        Ok(n as usize)
    }

    /// The value as a `u64` (seeds). Accepts integers up to 2⁵³.
    pub fn as_u64(&self) -> Result<u64> {
        Ok(self.as_usize()? as u64)
    }

    /// The value as a `u32` (format versions, revisions). An integer past
    /// `u32::MAX` is refused, not truncated.
    pub fn as_u32(&self) -> Result<u32> {
        let n = self.as_u64()?;
        u32::try_from(n).map_err(|_| Error::Serde(format!("expected u32, got {n}")))
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(Error::Serde(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(Error::Serde(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(Error::Serde(format!("expected array, got {other:?}"))),
        }
    }
}

/// Compact single-line rendering (and `.to_string()` via [`ToString`]).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        f.write_str(&out)
    }
}

/// Serialises a value to [`Json`].
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Reconstructs a value from [`Json`].
pub trait FromJson: Sized {
    /// Parses `self` out of `json`, with descriptive [`Error::Serde`]
    /// failures on shape mismatches.
    fn from_json(json: &Json) -> Result<Self>;
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
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

/// Builds a [`Json`] object literal: `json!({ "key": value, ... })`.
/// Values are any `Into<Json>` expression, including nested `json!` calls.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::json::Json::Obj(vec![
            $(($key.to_string(), $crate::json::Json::from($value))),*
        ])
    };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::json::Json::Arr(vec![$($crate::json::Json::from($value)),*])
    };
    ($value:expr) => {
        $crate::json::Json::from($value)
    };
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<()> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(Error::Serde(format!(
            "expected `{token}` at byte {pos} of JSON input"
        )))
    }
}

/// Deepest container nesting [`Json::parse`] accepts. Far beyond anything
/// the writers emit, and small enough that the recursive parser stays well
/// inside even a conservative thread stack.
pub const MAX_DEPTH: usize = 512;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    if depth > MAX_DEPTH {
        return Err(Error::Serde(format!(
            "JSON nesting deeper than {MAX_DEPTH} at byte {pos}"
        )));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::Serde("unexpected end of JSON input".into())),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(Error::Serde(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(Error::Serde(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::Serde(format!("expected `\"` at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::Serde("unterminated JSON string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::Serde("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::Serde("non-ASCII \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::Serde(format!("bad \\u escape `{hex}`")))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(Error::Serde(format!("bad escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole character.
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| Error::Serde("invalid UTF-8 in JSON string".into()))?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| Error::Serde("invalid number bytes".into()))?;
    text.parse::<f64>()
        .map_err(|_| Error::Serde(format!("invalid JSON number `{text}`")))
}

fn write_value(value: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_seq(out, indent, depth, ('[', ']'), items.len(), |out, i| {
            write_value(&items[i], out, indent, depth + 1)
        }),
        Json::Obj(fields) => write_seq(out, indent, depth, ('{', '}'), fields.len(), |out, i| {
            write_string(&fields[i].0, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(&fields[i].1, out, indent, depth + 1)
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(brackets.0);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, i);
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push(brackets.1);
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // The integer fast path below would erase the sign of -0.0, and
        // gradients exchanged between shards must survive bit-exactly.
        out.push_str("-0.0");
    } else if n == n.trunc() && n.abs() < (1u64 << 53) as f64 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest round-trip representation (Rust's float Display).
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_round_trip() {
        let text = r#"{"name":"fewner","n":3,"scores":[0.5,-1.25,2e3],"ok":true,"none":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.field("name").unwrap().as_str().unwrap(), "fewner");
        assert_eq!(v.field("n").unwrap().as_usize().unwrap(), 3);
        assert_eq!(v.field("scores").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.field("ok").unwrap().as_bool().unwrap());
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_is_reparseable_and_indented() {
        let v = json!({
            "a": 1usize,
            "b": json!([1.5f64, 2.5f64]),
            "c": json!({ "d": "x" }),
        });
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": 1"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn f32_values_round_trip_bit_exactly() {
        let values = [
            0.1f32,
            -3.4028235e38,
            1.1754944e-38,
            f32::MIN_POSITIVE,
            1.0 / 3.0,
        ];
        for &x in &values {
            let text = Json::from(x).to_string();
            let back = Json::parse(&text).unwrap().as_f32().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nbreak \"quoted\" back\\slash tab\t unicode é 中";
        let text = Json::from(s).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
        let v = json!({ "a": 1usize });
        assert!(v.field("b").unwrap_err().to_string().contains("`b`"));
        assert!(v.field("a").unwrap().as_str().is_err());
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::from(5000usize).to_string(), "5000");
        assert_eq!(Json::from(0xF3A7u64).to_string(), "62375");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
    }

    #[test]
    fn json_macro_builds_ordered_objects() {
        let v = json!({ "z": 1usize, "a": 2usize });
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }
}
