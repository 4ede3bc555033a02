//! A minimal JSON value model, parser and serializer.
//!
//! The workspace deliberately carries no third-party serialization crates,
//! but the Chrome trace-event exporter needs a round-trip guarantee: every
//! trace the CLI writes must parse back into the same value (that is what
//! `chrome://tracing` and Perfetto will do with it). This module is just
//! big enough for that — objects, arrays, strings with escapes, finite
//! numbers, booleans and null.
//!
//! It also holds the report codec ([`Codec`], [`json_record!`](crate::json_record)):
//! every schema-versioned report converts to and from [`Value`] through
//! it, so range checks, the schema gate and the keyed drift comparison
//! live in one place. [`Canonical`] writes the line each report's pinned
//! digest hashes.

use std::collections::BTreeMap;
use std::fmt;
use tbd_graph::trace::Fnv1a;

/// A parsed JSON value. Objects use a [`BTreeMap`] so serialization is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number when this is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Error produced by [`parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where parsing failed.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap a hostile document of nested `[`
/// overflows the stack; every report the workspace writes nests at most a
/// handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage, or nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing characters", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> ParseError {
    ParseError { message: message.to_string(), offset }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err("nesting too deep", *pos)),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err("invalid literal", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("bad utf8", start))?;
    // `str::parse` accepts overflowing literals like 1e999 as ±inf; JSON
    // has no non-finite numbers, so those are rejected alongside NaN.
    text.parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Value::Num)
        .ok_or_else(|| err("invalid number", start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
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
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err("bad \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("bad \\u escape", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(&lead) => {
                // Consume one UTF-8 scalar (multi-byte sequences included),
                // validating only its own bytes.
                let width = match lead {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let scalar = bytes.get(*pos..*pos + width).unwrap_or(&bytes[*pos..]);
                let rest = std::str::from_utf8(scalar).map_err(|_| err("bad utf8", *pos))?;
                let c = rest.chars().next().ok_or_else(|| err("unterminated string", *pos))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected object key", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err("expected ':'", *pos));
        }
        *pos += 1;
        map.insert(key, parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

pub use tbd_graph::trace::escape_into;

/// Escapes a string for inclusion inside JSON quotes (see [`escape_into`]).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity tokens; emitting them would
                    // break the round-trip guarantee, so serialize as null
                    // (what Chrome's own exporter does).
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write!(f, "\"{}\"", escape(s)),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The largest integer a JSON number (an `f64`) holds exactly: 2^53.
pub const MAX_EXACT_INTEGER: u64 = 1 << 53;

/// A decoded JSON object.
pub type Object = BTreeMap<String, Value>;

/// Conversion between a report type and a JSON [`Value`] — the one codec
/// every schema-versioned report reads and writes through.
///
/// Decoding never coerces: an integer must be a finite, integral,
/// non-negative number no larger than the type's maximum or
/// [`MAX_EXACT_INTEGER`]; a `bool` must be a JSON bool; an [`Option`] is the
/// only way a key may be missing (missing or `null` is `None`). Records
/// declare their fields once through [`json_record!`](crate::json_record).
pub trait Codec: Sized {
    /// Encodes the value.
    fn to_value(&self) -> Value;

    /// Decodes a value; the error names the offending field path and value.
    fn from_value(value: &Value) -> Result<Self, String>;

    /// The value of an absent object key: `"missing"` unless the type
    /// tolerates absence.
    fn absent() -> Result<Self, String> {
        Err("missing".into())
    }
}

/// The decode error for `got` where `what` was expected (containers are
/// named, not printed).
pub fn expected<T>(what: &str, got: &Value) -> Result<T, String> {
    let got = match got {
        Value::Arr(_) => "an array".to_string(),
        Value::Obj(_) => "an object".to_string(),
        scalar => scalar.to_string(),
    };
    Err(format!("expected {what}, got {got}"))
}

macro_rules! leaf_codec {
    ($($t:ty => $variant:ident, $what:literal;)*) => {$(
        impl Codec for $t {
            fn to_value(&self) -> Value {
                Value::$variant(self.to_owned())
            }

            fn from_value(value: &Value) -> Result<Self, String> {
                match value {
                    Value::$variant(v) => Ok(v.to_owned()),
                    other => expected($what, other),
                }
            }
        }
    )*};
}

leaf_codec! {
    String => Str, "a string";
    f64 => Num, "a number";
    bool => Bool, "true or false";
}

macro_rules! unsigned_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }

            fn from_value(value: &Value) -> Result<Self, String> {
                let max = (<$t>::MAX as u64).min(MAX_EXACT_INTEGER);
                match value {
                    Value::Num(n) if n.fract() == 0.0 && (0.0..=max as f64).contains(n) => {
                        Ok(*n as $t)
                    }
                    other => expected(&format!("an integer in 0..={max}"), other),
                }
            }
        }
    )*};
}

unsigned_codec!(u32, u64, usize);

impl<T: Codec> Codec for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn absent() -> Result<Self, String> {
        Ok(None)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(T::to_value).collect())
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        let Value::Arr(items) = value else { return expected("an array", value) };
        let item = |(i, v)| T::from_value(v).map_err(|e| format!("[{i}] {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

impl<T: Codec> Codec for BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        let Value::Obj(map) = value else { return expected("an object", value) };
        let entry = |(k, v): (&String, _)| {
            Ok((k.clone(), T::from_value(v).map_err(|e| format!("'{k}': {e}"))?))
        };
        map.iter().map(entry).collect()
    }
}

/// The canonical text of a value — the line format a report's pinned
/// `digest` hashes. Records declare theirs in the `digested { .. }` clause
/// of [`json_record!`](crate::json_record), or implement it by hand from
/// the same leaves when a field list cannot spell the line.
///
/// The leaves: an `f64` is 16 hex digits of its bits, with `-0.0` written
/// as `+0.0` (the JSON writer drops the sign of zero, so a round trip
/// keeps the digest); integers are decimal, strings raw and bools
/// `true`/`false`; a `BTreeMap` writes `|k:v` per entry; a `None` writes
/// nothing; a `Vec` writes each element's line followed by `'\n'`.
pub trait Canonical {
    /// Writes the canonical text to `out`.
    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result;

    /// Writes the value as a field of a record's line: the literal `tag`
    /// that precedes it, then the value. A `None` writes neither.
    fn write_field(&self, out: &mut dyn fmt::Write, tag: &str) -> fmt::Result {
        out.write_str(tag)?;
        self.write_canonical(out)
    }

    /// The canonical text.
    fn canonical(&self) -> String {
        let mut text = String::new();
        let _ = self.write_canonical(&mut text);
        text
    }

    /// FNV-1a digest of the canonical text as 16 hex digits, streamed
    /// into the hash.
    fn digest_hex(&self) -> String {
        let mut hash = Fnv1a::new();
        let _ = self.write_canonical(&mut hash);
        format!("{:016x}", hash.finish())
    }
}

impl Canonical for f64 {
    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(out, "{:016x}", (self + 0.0).to_bits())
    }
}

macro_rules! display_canonical {
    ($($t:ty),*) => {$(
        impl Canonical for $t {
            fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
                write!(out, "{self}")
            }
        }
    )*};
}

display_canonical!(u32, u64, usize, bool, String);

impl<T: Canonical> Canonical for Option<T> {
    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        self.as_ref().map_or(Ok(()), |v| v.write_canonical(out))
    }

    fn write_field(&self, out: &mut dyn fmt::Write, tag: &str) -> fmt::Result {
        self.as_ref().map_or(Ok(()), |v| v.write_field(out, tag))
    }
}

impl<T: Canonical> Canonical for BTreeMap<String, T> {
    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        for (key, value) in self {
            write!(out, "|{key}:")?;
            value.write_canonical(out)?;
        }
        Ok(())
    }
}

impl<T: Canonical> Canonical for Vec<T> {
    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        for item in self {
            item.write_canonical(out)?;
            out.write_char('\n')?;
        }
        Ok(())
    }
}

/// Decodes field `key` of `object`, a `record`, naming both in any error.
///
/// # Errors
///
/// Returns the field's decode error, prefixed with the record and key.
pub fn field<T: Codec>(object: &Object, record: &str, key: &str) -> Result<T, String> {
    object
        .get(key)
        .map_or_else(T::absent, T::from_value)
        .map_err(|e| format!("{record} field '{key}': {e}"))
}

/// The one schema-version gate: `object`'s `schema_version` must be
/// exactly `expected`. Runs before any other field is decoded.
///
/// # Errors
///
/// Returns a message for a missing, malformed or different version.
pub fn check_schema(object: &Object, record: &str, expected: u64) -> Result<(), String> {
    let version: u64 = field(object, record, "schema_version")?;
    if version == expected {
        Ok(())
    } else {
        Err(format!("unsupported {record} schema version {version} (expected {expected})"))
    }
}

/// Parses JSON text and decodes it as `T`.
///
/// # Errors
///
/// Returns the parse error or the decode error.
pub fn decode_text<T: Codec>(text: &str) -> Result<T, String> {
    T::from_value(&parse(text).map_err(|e| e.to_string())?)
}

/// Relative tolerance of the `--check` gates of the deterministic reports
/// (scale, elastic, chaos and diagnose): their runs are fully
/// deterministic, so anything beyond float-noise scale is a real change.
pub const DETERMINISTIC_DRIFT_TOLERANCE: f64 = 1e-6;

/// Keyed relative drift of one metric: every `current` record whose
/// `metric` key is also `pinned` is compared as `|value − pinned| /
/// |pinned|` (records whose `metric` is `None` vouch for nothing). Returns
/// how many keys overlapped and one `line(key, value, drift, pinned)` per
/// drift above `tolerance`.
pub fn keyed_drift<T, K: Ord>(
    pinned: &[T],
    current: &[T],
    metric: impl Fn(&T) -> Option<(K, f64)>,
    tolerance: f64,
    line: impl Fn(&K, f64, f64, f64) -> String,
) -> (usize, Vec<String>) {
    let pinned: BTreeMap<K, f64> = pinned.iter().filter_map(&metric).collect();
    let mut compared = 0;
    let mut failures = Vec::new();
    for (key, value) in current.iter().filter_map(&metric) {
        let Some(&expected) = pinned.get(&key) else { continue };
        compared += 1;
        let drift = (value - expected).abs() / expected.abs().max(f64::MIN_POSITIVE);
        if drift > tolerance {
            failures.push(line(&key, value, drift, expected));
        }
    }
    (compared, failures)
}

/// `Ok` when no failure line was collected.
///
/// # Errors
///
/// Returns the failure lines, one per line.
pub fn verdict(failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Implements [`Codec`] for a record struct from one field table: each
/// field is written and read under its own name, and `derived { key = f }`
/// writes `f(&self)` as an extra output-only key (ignored when decoding).
/// `digested { .. }` implements [`Canonical`]: the ordered fields of the
/// digest line, each optionally preceded by the literal text before it
/// (`label, "|w:" workers`). A field left out of it is presentation.
/// A report header adds `schema = V`: decoding first passes
/// [`check_schema`], and the type gets `to_json` and `from_json_text`.
///
/// ```
/// use tbd_profiler::json::{Canonical, Codec};
///
/// #[derive(Debug, PartialEq)]
/// struct Tier { model: String, batch: u64, fused_s: f64, unfused_s: f64 }
///
/// fn speedup(tier: &Tier) -> f64 { tier.unfused_s / tier.fused_s }
///
/// tbd_profiler::json_record!(Tier, "speed tier";
///     fields { model, batch, fused_s, unfused_s }
///     digested { model, "/b" batch }
///     derived { speedup = speedup });
///
/// let tier = Tier { model: "A3C".into(), batch: 8, fused_s: 0.5, unfused_s: 1.0 };
/// assert_eq!(tier.to_value().get("speedup").and_then(|v| v.as_f64()), Some(2.0));
/// assert_eq!(tier.canonical(), "A3C/b8");
/// assert_eq!(Tier::from_value(&tier.to_value()), Ok(tier)); // `speedup` is output only
/// ```
#[macro_export]
macro_rules! json_record {
    (
        $ty:ty, $name:literal, schema = $schema:expr;
        fields { $($field:ident),* $(,)? }
        $(digested { $($digested:tt)* })?
        $(derived { $($key:ident = $derive:path),* $(,)? })?
    ) => {
        $crate::json_record!(@codec $ty, $name, ($schema); $($field),*; $($($key = $derive),*)?);
        $($crate::json_record!(@digested $ty; $($digested)*);)?

        impl $ty {
            /// Serialises the report (round-trips through `json::parse`).
            pub fn to_json(&self) -> $crate::json::Value {
                $crate::json::Codec::to_value(self)
            }

            /// Parses a serialised report, verifying the schema version.
            ///
            /// # Errors
            ///
            /// Returns a message for malformed JSON, a missing or malformed
            /// field, or an unsupported schema version.
            pub fn from_json_text(text: &str) -> ::std::result::Result<Self, String> {
                $crate::json::decode_text(text)
            }
        }
    };
    (
        $ty:ty, $name:literal;
        fields { $($field:ident),* $(,)? }
        $(digested { $($digested:tt)* })?
        $(derived { $($key:ident = $derive:path),* $(,)? })?
    ) => {
        $crate::json_record!(@codec $ty, $name, (); $($field),*; $($($key = $derive),*)?);
        $($crate::json_record!(@digested $ty; $($digested)*);)?
    };
    (
        @codec $ty:ty, $name:literal, ($($schema:expr)?);
        $($field:ident),*; $($key:ident = $derive:path),*
    ) => {
        impl $crate::json::Codec for $ty {
            fn to_value(&self) -> $crate::json::Value {
                let mut object = $crate::json::Object::new();
                $(object.insert(
                    stringify!($field).into(),
                    $crate::json::Codec::to_value(&self.$field),
                );)*
                $(object.insert(
                    stringify!($key).into(),
                    $crate::json::Codec::to_value(&$derive(self)),
                );)*
                $crate::json::Value::Obj(object)
            }

            fn from_value(value: &$crate::json::Value) -> ::std::result::Result<Self, String> {
                let $crate::json::Value::Obj(object) = value else {
                    return $crate::json::expected(concat!("a ", $name), value);
                };
                $($crate::json::check_schema(object, $name, $schema)?;)?
                Ok(Self { $($field: $crate::json::field(object, $name, stringify!($field))?),* })
            }
        }
    };
    (@digested $ty:ty; $($($tag:literal)? $field:ident),* $(,)?) => {
        impl $crate::json::Canonical for $ty {
            fn write_canonical(&self, out: &mut dyn ::std::fmt::Write) -> ::std::fmt::Result {
                $($crate::json::Canonical::write_field(&self.$field, out, concat!("" $(, $tag)?))?;)*
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, "x\ny", true, null], "b": {"c": -3e2}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(-300.0));
    }

    #[test]
    fn round_trips_through_display() {
        let src = r#"{"name":"conv \"3x3\"","ts":1.5,"args":{"flops":1000000,"ok":true}}"#;
        let v = parse(src).unwrap();
        let re = parse(&v.to_string()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = 100_000;
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let text = format!("{}0{}", open.repeat(deep), close.repeat(deep));
            let e = parse(&text).expect_err("100k levels exceed the cap");
            assert_eq!(e.message, "nesting too deep");
            assert_eq!(e.offset, MAX_DEPTH * open.len(), "{open}: the first level past the cap");
            let capped = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(parse(&capped).is_ok(), "{open}: {MAX_DEPTH} levels parse");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse(r#""café""#).unwrap();
        assert_eq!(v.as_str(), Some("café"));
    }

    #[derive(Debug, PartialEq)]
    struct Probe {
        schema_version: u64,
        count: u32,
        flag: bool,
        note: Option<String>,
        sizes: BTreeMap<String, usize>,
        ratio: f64,
    }

    impl Probe {
        fn doubled(&self) -> f64 {
            2.0 * self.ratio
        }
    }

    crate::json_record!(Probe, "probe", schema = 2;
        fields { schema_version, count, flag, note, sizes, ratio }
        digested { "v" schema_version, "|" flag, "|n:" note, sizes, "|r:" ratio }
        derived { doubled = Probe::doubled });

    #[test]
    fn digested_fields_form_one_line_streamed_into_the_digest() {
        let sizes = BTreeMap::from([("a".to_string(), 7), ("b".to_string(), 0)]);
        let mut probe =
            Probe { schema_version: 2, count: 3, flag: true, note: None, sizes, ratio: -0.0 };
        assert_eq!(probe.canonical(), "v2|true|a:7|b:0|r:0000000000000000");
        probe.note = Some("x".into());
        probe.ratio = 1.0;
        assert_eq!(probe.canonical(), "v2|true|n:x|a:7|b:0|r:3ff0000000000000");
        let digest = tbd_graph::trace::fnv1a(probe.canonical().as_bytes());
        assert_eq!(probe.digest_hex(), format!("{digest:016x}"));
    }

    #[test]
    fn records_round_trip_and_tolerate_only_options_missing() {
        let text = r#"{"schema_version":2,"count":3,"flag":true,"sizes":{"a":7},"ratio":0.5}"#;
        let probe = Probe::from_json_text(text).unwrap();
        assert_eq!(probe.note, None);
        let encoded = probe.to_json().to_string();
        assert!(encoded.contains("\"doubled\":1"), "{encoded}");
        assert!(encoded.contains("\"note\":null"), "{encoded}");
        assert_eq!(decode_text::<Probe>(&encoded).unwrap(), probe);
        let without_count = text.replace("\"count\":3,", "");
        let err = decode_text::<Probe>(&without_count).unwrap_err();
        assert_eq!(err, "probe field 'count': missing");
    }

    #[test]
    fn integers_and_bools_are_range_and_type_checked() {
        let base = r#"{"schema_version":2,"count":3,"flag":true,"sizes":{"a":7},"ratio":0.5}"#;
        for (from, to) in [
            ("\"count\":3", "\"count\":-1"),
            ("\"count\":3", "\"count\":0.5"),
            ("\"count\":3", "\"count\":1e20"),
            ("\"count\":3", "\"count\":4294967296"),
            ("\"a\":7", "\"a\":9007199254740994"),
            ("\"flag\":true", "\"flag\":\"true\""),
            ("\"flag\":true", "\"flag\":1"),
            ("\"schema_version\":2", "\"schema_version\":2.5"),
            ("\"schema_version\":2", "\"schema_version\":3"),
        ] {
            let text = base.replace(from, to);
            assert!(decode_text::<Probe>(&text).is_err(), "{text} decoded");
        }
        let err = decode_text::<Probe>(&base.replace("\"count\":3", "\"count\":-2")).unwrap_err();
        assert_eq!(err, "probe field 'count': expected an integer in 0..=4294967295, got -2");
        assert_eq!(u64::from_value(&Value::Num(9007199254740992.0)), Ok(MAX_EXACT_INTEGER));
    }

    #[test]
    fn keyed_drift_compares_overlapping_keys_only() {
        let line = |k: &&str, v: f64, d: f64, p: f64| format!("{k} {v} {d} {p}");
        let pinned = [("a", 100.0), ("b", 1.0)];
        let current = [("a", 102.0), ("c", 5.0)];
        let (compared, failures) = keyed_drift(&pinned, &current, |&p| Some(p), 0.01, line);
        assert_eq!(compared, 1);
        assert_eq!(failures.len(), 1);
        assert!(verdict(failures).is_err());
        assert!(verdict(Vec::new()).is_ok());
    }
}
