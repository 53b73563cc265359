//! In-tree shim for `serde`.
//!
//! The real serde is a zero-copy visitor machine; this shim keeps serde's
//! *trait shapes* (`Serialize`/`Serializer`, `Deserialize`/`Deserializer`,
//! `de::Error::custom`) but routes everything through one self-describing
//! [`Value`] data model. Hand-written impls in the workspace (which only
//! call `serialize_str` and `String::deserialize`) compile unchanged, and
//! `serde_json` becomes a plain `Value` ⇄ text codec.
//!
//! The derive macros live in the `serde_derive` shim, re-exported here
//! under the `derive` feature exactly like the real crate.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::Duration;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Self-describing data model shared by serialization and deserialization.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map) so JSON
/// output is deterministic and matches field declaration order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Negative or signed integer.
    Int(i64),
    /// Non-negative integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Ordered key–value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Borrows the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows the string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view as `u64` (accepts `Int`/`UInt`/integral `Float`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) if i >= 0 => Some(i as u64),
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// Numeric view as `i64` (accepts `Int`/`UInt`/integral `Float`).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::UInt(u) if u <= i64::MAX as u64 => Some(u as i64),
            Value::Float(f)
                if f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&f) =>
            {
                Some(f as i64)
            }
            _ => None,
        }
    }

    /// Numeric view as `f64` (accepts any number).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Float(f) => Some(f),
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Looks up a field of an object by name.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        let entries = self
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object with field `{name}`")))?;
        entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
    }

    /// Short type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// The single error type shared by serialization and deserialization.
#[derive(Clone, Debug, PartialEq)]
pub struct Error(String);

impl Error {
    /// Builds an error from any displayable message.
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization half of the data model.
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// Sink for the serialization data model.
///
/// Only [`serialize_value`](Serializer::serialize_value) is required; the
/// scalar helpers default to wrapping a [`Value`], which is all the
/// workspace's hand-written impls use.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error type, constructible from a message.
    type Error: ser::Error;

    /// Accepts a fully built [`Value`].
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

    /// Serializes a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Str(v.to_string()))
    }

    /// Serializes a boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Bool(v))
    }

    /// Serializes an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::UInt(v))
    }

    /// Serializes a signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Int(v))
    }

    /// Serializes a float.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Float(v))
    }

    /// Serializes a unit / none.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }
}

/// Deserialization half of the data model.
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` from the given deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Source for the deserialization data model: anything that can produce an
/// owned [`Value`].
pub trait Deserializer<'de>: Sized {
    /// Error type, constructible from a message.
    type Error: de::Error;

    /// Produces the underlying value tree.
    fn into_value(self) -> Result<Value, Self::Error>;
}

impl<'de, 'a> Deserializer<'de> for &'a Value {
    type Error = Error;
    fn into_value(self) -> Result<Value, Error> {
        Ok(self.clone())
    }
}

impl<'de> Deserializer<'de> for Value {
    type Error = Error;
    fn into_value(self) -> Result<Value, Error> {
        Ok(self)
    }
}

pub mod ser {
    //! Serialization-side traits (mirrors `serde::ser`).

    /// Error constructible from a displayable message.
    pub trait Error: Sized + std::fmt::Display {
        /// Builds an error from any displayable message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for crate::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            crate::Error::custom(msg)
        }
    }

    pub use crate::{Serialize, Serializer};
}

pub mod de {
    //! Deserialization-side traits (mirrors `serde::de`).

    /// Error constructible from a displayable message.
    pub trait Error: Sized + std::fmt::Display {
        /// Builds an error from any displayable message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for crate::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            crate::Error::custom(msg)
        }
    }

    /// A `Deserialize` bound free of the input lifetime.
    pub trait DeserializeOwned: for<'de> crate::Deserialize<'de> {}
    impl<T: for<'de> crate::Deserialize<'de>> DeserializeOwned for T {}

    pub use crate::{Deserialize, Deserializer};
}

/// Serializes any value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    struct ValueSink;
    impl Serializer for ValueSink {
        type Ok = Value;
        type Error = Error;
        fn serialize_value(self, value: Value) -> Result<Value, Error> {
            Ok(value)
        }
    }
    value.serialize(ValueSink)
}

/// Deserializes any value from a [`Value`] tree.
pub fn from_value<'de, T: Deserialize<'de>>(value: &Value) -> Result<T, Error> {
    T::deserialize(value)
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize impls for std types the workspace uses.
// ---------------------------------------------------------------------------

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_u64(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.into_value()?;
                let u = v.as_u64().ok_or_else(|| {
                    de::Error::custom(format!(
                        "expected unsigned integer, found {}", v.kind()
                    ))
                })?;
                <$t>::try_from(u).map_err(|_| {
                    de::Error::custom(format!("integer {u} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_i64(*self as i64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.into_value()?;
                let i = v.as_i64().ok_or_else(|| {
                    de::Error::custom(format!("expected integer, found {}", v.kind()))
                })?;
                <$t>::try_from(i).map_err(|_| {
                    de::Error::custom(format!("integer {i} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for u128 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        if let Ok(small) = u64::try_from(*self) {
            s.serialize_u64(small)
        } else {
            // Beyond u64: keep full precision as a decimal string.
            s.serialize_str(&self.to_string())
        }
    }
}

impl<'de> Deserialize<'de> for u128 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        if let Some(u) = v.as_u64() {
            return Ok(u as u128);
        }
        if let Some(s) = v.as_str() {
            return s.parse().map_err(de::Error::custom);
        }
        Err(de::Error::custom(format!("expected u128, found {}", v.kind())))
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        v.as_bool().ok_or_else(|| de::Error::custom(format!("expected bool, found {}", v.kind())))
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        v.as_f64().ok_or_else(|| de::Error::custom(format!("expected number, found {}", v.kind())))
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self as f64)
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        v.as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| de::Error::custom(format!("expected number, found {}", v.kind())))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| de::Error::custom(format!("expected string, found {}", v.kind())))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(inner) => inner.serialize(s),
            None => s.serialize_unit(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        if matches!(v, Value::Null) {
            return Ok(None);
        }
        from_value(&v).map(Some).map_err(de::Error::custom)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let items: Result<Vec<Value>, Error> = self.iter().map(to_value).collect();
        s.serialize_value(Value::Array(items.map_err(ser::Error::custom)?))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        let items = v
            .as_array()
            .ok_or_else(|| de::Error::custom(format!("expected array, found {}", v.kind())))?;
        items
            .iter()
            .map(|item| from_value(item))
            .collect::<Result<Vec<T>, Error>>()
            .map_err(de::Error::custom)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let items: Vec<T> = Vec::deserialize(d)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| de::Error::custom(format!("expected array of length {N}, got {got}")))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                let items = vec![$(to_value(&self.$idx).map_err(ser::Error::custom)?),+];
                s.serialize_value(Value::Array(items))
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.into_value()?;
                let items = v.as_array().ok_or_else(|| {
                    de::Error::custom(format!("expected tuple array, found {}", v.kind()))
                })?;
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                if items.len() != LEN {
                    return Err(de::Error::custom(format!(
                        "expected tuple of length {LEN}, got {}", items.len()
                    )));
                }
                Ok(($(from_value(&items[$idx]).map_err(<D::Error as de::Error>::custom)?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, E: 3)
}

impl Serialize for Duration {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::Object(vec![
            ("secs".to_string(), Value::UInt(self.as_secs())),
            ("nanos".to_string(), Value::UInt(self.subsec_nanos() as u64)),
        ]))
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        let read = |name: &str| -> Result<u64, D::Error> {
            let f = v.field(name).map_err(<D::Error as de::Error>::custom)?;
            f.as_u64().ok_or_else(|| de::Error::custom(format!("`{name}` must be an integer")))
        };
        // `Duration::new` panics when carried nanoseconds overflow the
        // seconds; hostile input gets an error instead.
        Duration::from_secs(read("secs")?)
            .checked_add(Duration::from_nanos(read("nanos")?))
            .ok_or_else(|| de::Error::custom("duration overflows"))
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.into_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for v in [0u64, 1, u64::MAX] {
            let t = to_value(&v).unwrap();
            assert_eq!(from_value::<u64>(&t).unwrap(), v);
        }
        let t = to_value(&-5i32).unwrap();
        assert_eq!(from_value::<i32>(&t).unwrap(), -5);
        let t = to_value(&true).unwrap();
        assert!(from_value::<bool>(&t).unwrap());
        let t = to_value("hi").unwrap();
        assert_eq!(from_value::<String>(&t).unwrap(), "hi");
    }

    #[test]
    fn compound_roundtrips() {
        let arr = [1u64, 2, 3, 4];
        assert_eq!(from_value::<[u64; 4]>(&to_value(&arr).unwrap()).unwrap(), arr);
        let v = vec![1.5f64, 2.5];
        assert_eq!(from_value::<Vec<f64>>(&to_value(&v).unwrap()).unwrap(), v);
        let opt: Option<u32> = None;
        assert_eq!(from_value::<Option<u32>>(&to_value(&opt).unwrap()).unwrap(), None);
        let d = Duration::new(3, 17);
        assert_eq!(from_value::<Duration>(&to_value(&d).unwrap()).unwrap(), d);
        // Carried nanoseconds past the largest Duration: an error, not
        // the panic `Duration::new` raises.
        let over = Value::Object(vec![
            ("secs".to_string(), Value::UInt(u64::MAX)),
            ("nanos".to_string(), Value::UInt(2_000_000_000)),
        ]);
        assert!(from_value::<Duration>(&over).is_err());
        let big: u128 = u128::MAX - 3;
        assert_eq!(from_value::<u128>(&to_value(&big).unwrap()).unwrap(), big);
    }

    #[test]
    fn numeric_cross_acceptance() {
        // A float that printed as an integer must still deserialize as f64.
        assert_eq!(from_value::<f64>(&Value::UInt(7)).unwrap(), 7.0);
        assert_eq!(from_value::<u32>(&Value::Float(7.0)).unwrap(), 7);
        assert!(from_value::<u32>(&Value::Float(7.5)).is_err());
    }
}
