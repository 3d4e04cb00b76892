//! Offline stand-in for the `serde_json` crate.
//!
//! Serializes anything implementing the stub `serde::Serialize` into
//! JSON text (pretty form matches real serde_json's two-space
//! indentation), parses JSON text back into [`Value`], and provides
//! the [`json!`] constructor macro. Floats print via `{:?}` which,
//! like the real crate, keeps a trailing `.0` on integral values.

pub use serde::Value;
use std::fmt;

/// Parse or serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of the failure, when parsing.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

/// Convert any `Serialize` value to a [`Value`] (used by [`json!`]).
pub fn to_value_of<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

fn err(msg: impl Into<String>, offset: usize) -> Error {
    Error {
        msg: msg.into(),
        offset,
    }
}

/// Serialize compactly.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize with two-space indentation.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f:?}"));
            } else {
                // Real serde_json refuses non-finite floats; emitting
                // null keeps the artifact parseable instead of panicking.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
            write_value(out, &items[i], indent, depth + 1);
        }),
        Value::Object(fields) => write_seq(out, indent, depth, fields.len(), '{', '}', |out, i| {
            let (k, v) = &fields[i];
            write_string(out, k);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, v, indent, depth + 1);
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
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
}

/// Deepest nesting of arrays and objects [`from_str`] accepts; deeper
/// input is an [`Error`], not a stack overflow. The real crate's default
/// recursion limit is the same.
pub const MAX_DEPTH: usize = 128;

/// Parse JSON text into a [`Value`].
pub fn from_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing data", pos));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, `depth` arrays and objects deep. `pos` only
/// ever advances past whole characters, so it stays a char boundary.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, Error> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(err(format!("nested deeper than {MAX_DEPTH}"), *pos));
    }
    match b.get(*pos) {
        None => Err(err("unexpected end", *pos)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(err("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(err("expected ':'", *pos));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(err("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(format!("expected '{lit}'"), *pos))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, Error> {
    let b = text.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(err("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("bad \\u escape", *pos))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| err("bad \\u escape", *pos))?,
                            16,
                        )
                        .map_err(|_| err("bad \\u escape", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so the run ends on a char boundary.
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err("bad number", start))?;
    if text.is_empty() {
        return Err(err("expected value", start));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| err("bad number", start))
}

/// Build a [`Value`] from JSON-ish syntax. Supports object and array
/// literals, `null`, and arbitrary `Serialize` expressions (including
/// multi-token expressions like method chains) in value position —
/// implemented as a token muncher, like the real crate's macro, because
/// a one-level `$value:tt` matcher cannot absorb expression values.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // --- array munching: accumulate element expressions ---
    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { vec![$($elems),*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // --- object munching: (key tokens) then a value, entry by entry ---
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.push((($($key)+).to_string(), $value));
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.push((($($key)+).to_string(), $value));
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    // --- entry points ---
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => { $crate::Value::Object(vec![]) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object: Vec<(String, $crate::Value)> = Vec::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::to_value_of(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_roundtrips_through_parser() {
        let v = json!({
            "bench": "demo",
            "count": 3,
            "ratio": 1.5,
            "rows": [1, 2, 3],
            "none": null,
            "nested": { "ok": true },
        });
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("  \"bench\": \"demo\""));
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.93f64).unwrap(), "0.93");
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = from_str(r#"{"s": "a\nb", "n": -4, "f": 2.5e-1}"#).unwrap();
        assert_eq!(v["s"], "a\nb");
        assert_eq!(v["n"], -4);
        assert_eq!(v["f"], 0.25);
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str(&nest(MAX_DEPTH)).is_ok());
        let e = from_str(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(from_str(&"{\"a\":".repeat(200_000)).is_err());
        assert!(from_str(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn strings_keep_multibyte_text() {
        let v = from_str(r#"["grüße → 音", "a\u00e9b"]"#).unwrap();
        assert_eq!(v[0], "grüße → 音");
        assert_eq!(v[1], "aéb");
    }

    #[test]
    fn serialize_expressions_in_json_macro() {
        let rows = vec![1u32, 2, 3];
        let opt: Option<f64> = None;
        let v = json!({ "rows": rows, "speedup": opt });
        assert_eq!(v["rows"][2], 3);
        assert!(v["speedup"].is_null());
    }
}
