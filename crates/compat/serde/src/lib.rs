//! Offline stand-in for the `serde` crate.
//!
//! The real serde's visitor architecture is far more than this
//! workspace needs: every consumer derives `Serialize`/`Deserialize` on
//! plain structs and feeds them to `serde_json`. This stand-in collapses
//! the data model to a single [`Value`] tree and two trait methods,
//! [`Serialize::to_value`] and [`Deserialize::from_value`]. The derive
//! macros live in `serde_derive` and are re-exported here so
//! `#[derive(serde::Serialize, serde::Deserialize)]` works unchanged.
//!
//! Deserialization semantics (deliberately spec-file friendly):
//!
//! * a struct deserializes by overlaying the present keys onto
//!   `Default::default()` — sparse configs stay sparse;
//! * unknown keys are rejected with the offending path, so a typo in a
//!   scenario file fails loudly instead of silently defaulting;
//! * `std::time::Duration` round-trips losslessly as
//!   `{"secs": u64, "nanos": u32}` and additionally accepts the
//!   `{"ms": n}` / `{"us": n}` shorthands in hand-written specs.

// Let the derive-generated `serde::...` paths resolve inside this crate
// too, so the tests below can exercise the real macros.
#[cfg(test)]
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree (re-exported by `serde_json` as its
/// `Value`). Object keys keep insertion order so emitted JSON is
/// stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer too large for `i64`.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member by key, or `Null` for anything else.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Unsigned integer view, if lossless.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// String view, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view, if any.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

fn num_eq(v: &Value, other: f64) -> bool {
    v.as_f64() == Some(other)
}

macro_rules! impl_value_eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                num_eq(self, *other as f64)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                num_eq(other, *self as f64)
            }
        }
    )*};
}

impl_value_eq_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

/// Conversion to the [`Value`] tree.
pub trait Serialize {
    /// Render `self` as a value tree.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}

impl_ser_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        if *self <= i64::MAX as u64 {
            Value::Int(*self as i64)
        } else {
            Value::UInt(*self)
        }
    }
}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        (*self as u64).to_value()
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

// Tuples serialize as fixed-length JSON arrays, matching real serde.
macro_rules! impl_ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}

impl_ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for std::time::Duration {
    /// Lossless, matching real serde's representation.
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), (self.as_secs()).to_value()),
            ("nanos".to_string(), Value::Int(self.subsec_nanos() as i64)),
        ])
    }
}

/// What a [`Value`] is, for error messages.
fn kind_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Int(_) | Value::UInt(_) => "an integer",
        Value::Float(_) => "a number",
        Value::Str(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

/// A deserialization failure, carrying the dotted path from the root of
/// the value tree to the offending node.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    /// Dotted field path (`hall.cell.slots_per_switch`), empty at root.
    pub path: String,
    /// What went wrong there.
    pub msg: String,
}

impl DeError {
    /// An error with no path context yet.
    pub fn new(msg: impl Into<String>) -> Self {
        Self {
            path: String::new(),
            msg: msg.into(),
        }
    }

    /// "expected X, got Y" for a shape mismatch.
    pub fn expected(want: &str, got: &Value) -> Self {
        Self::new(format!("expected {want}, got {}", kind_name(got)))
    }

    /// A key the target type does not have — a typo in the input.
    pub fn unknown_field(field: &str, ty: &str) -> Self {
        Self::new(format!("unknown field `{field}` in {ty}"))
    }

    /// Prepend a path segment (used while unwinding nested calls).
    pub fn at(mut self, segment: &str) -> Self {
        self.path = if self.path.is_empty() {
            segment.to_string()
        } else {
            format!("{segment}.{}", self.path)
        };
        self
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "at `{}`: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for DeError {}

/// Conversion from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Build `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("a boolean", other)),
        }
    }
}

impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            Value::UInt(u) => Ok(*u),
            other => Err(DeError::expected("an unsigned integer", other)),
        }
    }
}

impl Deserialize for i64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Int(i) => Ok(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Ok(*u as i64),
            other => Err(DeError::expected("an integer", other)),
        }
    }
}

macro_rules! impl_de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = u64::from_value(v)?;
                <$t>::try_from(raw).map_err(|_| {
                    DeError::new(format!(
                        "integer {raw} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_de_uint!(u8, u16, u32, usize);

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = i64::from_value(v)?;
                <$t>::try_from(raw).map_err(|_| {
                    DeError::new(format!(
                        "integer {raw} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_de_int!(i8, i16, i32, isize);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::expected("a number", v))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("a string", other)),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_value(item).map_err(|e| e.at(&format!("[{i}]"))))
                .collect(),
            other => Err(DeError::expected("an array", other)),
        }
    }
}

macro_rules! impl_de_tuple {
    ($(($len:expr, $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) if items.len() == $len => Ok((
                        $($t::from_value(&items[$n]).map_err(|e| e.at(&format!("[{}]", $n)))?,)+
                    )),
                    other => Err(DeError::expected(
                        concat!("an array of length ", $len),
                        other,
                    )),
                }
            }
        }
    )*};
}

impl_de_tuple! {
    (1, 0 A)
    (2, 0 A, 1 B)
    (3, 0 A, 1 B, 2 C)
    (4, 0 A, 1 B, 2 C, 3 D)
}

impl Deserialize for std::time::Duration {
    /// Accepts `{"secs": u64, "nanos": u32}` (the serialized form; both
    /// keys optional) or the `{"ms": n}` / `{"us": n}` shorthands.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = match v {
            Value::Object(fields) => fields,
            other => return Err(DeError::expected("a duration object", other)),
        };
        use std::time::Duration;
        let mut out = Duration::ZERO;
        for (k, val) in fields {
            let part: fn(u64) -> Duration = match k.as_str() {
                "secs" => Duration::from_secs,
                "nanos" => Duration::from_nanos,
                "ms" => Duration::from_millis,
                "us" => Duration::from_micros,
                other => return Err(DeError::unknown_field(other, "Duration")),
            };
            let n = u64::from_value(val).map_err(|e| e.at(k))?;
            out = out
                .checked_add(part(n))
                .ok_or_else(|| DeError::new(format!("duration overflows at `{k}`")))?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_eq() {
        let v = Value::Object(vec![
            ("x".into(), Value::Int(7)),
            ("name".into(), Value::Str("ok".into())),
        ]);
        assert_eq!(v["x"], 7);
        assert_eq!(v["name"], "ok");
        assert!(v["missing"].is_null());
    }

    #[test]
    fn deserialize_round_trip_and_unknown_key() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Cfg {
            x: u32,
            ratio: f64,
            label: String,
            window: std::time::Duration,
            extra: Option<u64>,
            band: (f64, f64),
        }
        impl Default for Cfg {
            fn default() -> Self {
                Self {
                    x: 1,
                    ratio: 0.5,
                    label: "default".into(),
                    window: std::time::Duration::from_millis(300),
                    extra: None,
                    band: (100.0, 15_000.0),
                }
            }
        }
        let cfg = Cfg {
            x: 9,
            ratio: 2.25,
            label: "hall".into(),
            window: std::time::Duration::new(1, 500),
            extra: Some(7),
            band: (20.0, 40_000.0),
        };
        let back = Cfg::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back, cfg);

        // Sparse overlay keeps defaults for absent keys.
        let sparse = Value::Object(vec![("x".into(), Value::Int(3))]);
        let got = Cfg::from_value(&sparse).unwrap();
        assert_eq!(got.x, 3);
        assert_eq!(got.label, "default");

        // Typos are rejected with a path.
        let typo = Value::Object(vec![("lable".into(), Value::Str("oops".into()))]);
        let err = Cfg::from_value(&typo).unwrap_err();
        assert!(err.msg.contains("unknown field `lable`"), "{err}");

        // Nested errors carry the field path.
        let bad = Value::Object(vec![("ratio".into(), Value::Str("high".into()))]);
        let err = Cfg::from_value(&bad).unwrap_err();
        assert_eq!(err.path, "ratio");

        // Duration shorthands.
        let ms = Value::Object(vec![(
            "window".into(),
            Value::Object(vec![("ms".into(), Value::Int(50))]),
        )]);
        assert_eq!(
            Cfg::from_value(&ms).unwrap().window,
            std::time::Duration::from_millis(50)
        );
    }

    #[test]
    fn derive_on_a_struct() {
        #[derive(Serialize)]
        struct R {
            x: u32,
            name: &'static str,
            v: Vec<f64>,
        }
        let val = R {
            x: 7,
            name: "ok",
            v: vec![1.5],
        }
        .to_value();
        assert_eq!(val["x"], 7);
        assert_eq!(val["name"], "ok");
        assert_eq!(val["v"][0], 1.5);
    }

    #[test]
    fn overflowing_duration_is_an_error() {
        let d = |fields: Vec<(&str, u64)>| {
            let v = Value::Object(
                fields
                    .into_iter()
                    .map(|(k, n)| (k.to_string(), Value::UInt(n)))
                    .collect(),
            );
            std::time::Duration::from_value(&v)
        };
        assert_eq!(
            d(vec![("secs", 2), ("ms", 500)]).unwrap(),
            std::time::Duration::from_millis(2500)
        );
        assert!(d(vec![("secs", u64::MAX), ("nanos", 1_000_000_000)]).is_err());
        assert!(d(vec![("secs", u64::MAX), ("ms", u64::MAX)]).is_err());
    }
}
