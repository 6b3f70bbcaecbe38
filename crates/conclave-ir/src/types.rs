//! Scalar data types and values used in relations.
//!
//! Conclave queries operate almost exclusively on integers (the paper's
//! prototype supports integer columns); we additionally support 64-bit
//! floats, strings and booleans so that derived quantities such as market
//! shares or average scores can be represented exactly in cleartext steps.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer. The MPC backends operate on this type only.
    Int,
    /// 64-bit IEEE float, only valid in cleartext steps.
    Float,
    /// UTF-8 string, only valid in cleartext steps.
    Str,
    /// Boolean, only valid in cleartext steps.
    Bool,
}

impl DataType {
    /// Returns `true` if the type can be secret-shared and processed under
    /// MPC by the simulated backends.
    pub fn mpc_compatible(self) -> bool {
        matches!(self, DataType::Int | DataType::Bool)
    }

    /// Returns `true` for numeric types.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A runtime scalar value.
///
/// `Value` implements a *total* order and hashing (floats are compared via
/// their IEEE bit patterns after normalizing NaN), so it can be used directly
/// as a group-by or join key.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Absent value (e.g. result of a failed lookup).
    Null,
}

impl Value {
    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Null => None,
        }
    }

    /// Interprets the value as an `i64`, coercing floats and booleans.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Interprets the value as an `f64`, coercing integers and booleans.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Interprets the value as a boolean (non-zero numbers are true).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(v) => Some(*v != 0),
            Value::Float(v) => Some(*v != 0.0),
            _ => None,
        }
    }

    /// Returns the string slice if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Rough in-memory/on-wire size of the value in bytes, used by cost
    /// models and the simulated network.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len(),
            Value::Null => 0,
        }
    }

    /// Arithmetic addition with numeric coercion.
    pub fn add(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.wrapping_add(b), |a, b| a + b)
    }

    /// Arithmetic subtraction with numeric coercion.
    pub fn sub(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.wrapping_sub(b), |a, b| a - b)
    }

    /// Arithmetic multiplication with numeric coercion.
    pub fn mul(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.wrapping_mul(b), |a, b| a * b)
    }

    /// Division. Integer / integer produces a float to match the paper's
    /// `divide` operator (used for averages and market shares).
    pub fn div(&self, other: &Value) -> Value {
        match (self.as_float(), other.as_float()) {
            (Some(_), Some(0.0)) => Value::Null,
            (Some(a), Some(b)) => Value::Float(a / b),
            _ => Value::Null,
        }
    }

    /// Ordering key used by sorts and comparisons: a stable total order.
    fn order_class(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: impl Fn(i64, i64) -> i64,
    float_op: impl Fn(f64, f64) -> f64,
) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(int_op(*x, *y)),
        _ => match (a.as_float(), b.as_float()) {
            (Some(x), Some(y)) => Value::Float(float_op(x, y)),
            _ => Value::Null,
        },
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => total_f64_cmp(*a, *b),
            (Value::Int(a), Value::Float(b)) => int_cmp_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_cmp_float(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.order_class().cmp(&other.order_class()),
        }
    }
}

fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// 2^63, the least float above every `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Compares an integer with a float exactly, in the floats' total order: an
/// integral float in `i64`'s range compares as that integer, any other float
/// by where it lies relative to `a` — `-0.0` just below `0`, a NaN beyond
/// the infinity of its sign. (Rounding `a` to a float instead would make
/// `Int(2^53 + 1) == Float(2^53) == Int(2^53)`: not transitive, and equal
/// values that hash apart.)
pub(crate) fn int_cmp_float(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        return if b.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if b >= TWO_POW_63 {
        return Ordering::Less;
    }
    if b < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // In range, the truncation is an integer an `i64` holds exactly.
    let t = b.trunc();
    match a.cmp(&(t as i64)) {
        Ordering::Equal if b > t => Ordering::Less,
        Ordering::Equal if b < t || (b == 0.0 && b.is_sign_negative()) => Ordering::Greater,
        order => order,
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                state.write_u8(2);
                // Hash integers and integral in-range floats identically so
                // that `Int(2)` and `Float(2.0)` (which compare equal) collide.
                state.write_i64(*v);
            }
            Value::Float(v) => {
                state.write_u8(2);
                if v.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(v) {
                    state.write_i64(*v as i64);
                } else {
                    state.write_u64(v.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Null => state.write_u8(0),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_type_properties() {
        assert!(DataType::Int.mpc_compatible());
        assert!(DataType::Bool.mpc_compatible());
        assert!(!DataType::Str.mpc_compatible());
        assert!(DataType::Float.is_numeric());
        assert!(!DataType::Bool.is_numeric());
        assert_eq!(DataType::Int.to_string(), "INT");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(3.5).as_int(), Some(3));
        assert_eq!(Value::from(true).as_int(), Some(1));
        assert_eq!(Value::from("x").as_int(), None);
        assert_eq!(Value::from(3i32).as_float(), Some(3.0));
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(Value::from(String::from("s")).as_str(), Some("s"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Int(0).as_bool(), Some(false));
        assert_eq!(Value::Float(2.0).as_bool(), Some(true));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).sub(&Value::Int(3)), Value::Int(-1));
        assert_eq!(Value::Int(2).mul(&Value::Int(3)), Value::Int(6));
        assert_eq!(Value::Int(1).div(&Value::Int(2)), Value::Float(0.5));
        assert_eq!(Value::Int(1).div(&Value::Int(0)), Value::Null);
        assert_eq!(Value::Float(1.5).add(&Value::Int(1)), Value::Float(2.5));
        assert_eq!(Value::Str("a".into()).add(&Value::Int(1)), Value::Null);
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            Value::Str("b".into()),
            Value::Int(10),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::Int(-5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(-5));
        assert_eq!(vals[3], Value::Float(2.5));
        assert_eq!(vals[4], Value::Int(10));
        assert_eq!(vals[5], Value::Str("b".into()));
    }

    #[test]
    fn int_float_equality_and_hash_consistency() {
        let a = Value::Int(7);
        let b = Value::Float(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn int_float_comparison_is_exact_transitive_and_agrees_with_hash() {
        let p53 = 1i64 << 53;
        let vals = [
            Value::Int(p53 - 1),
            Value::Int(p53),
            Value::Int(p53 + 1),
            Value::Float(p53 as f64),
            Value::Float((p53 + 2) as f64),
            Value::Int(-p53 - 1),
            Value::Float(-(p53 as f64)),
            Value::Int(i64::MAX),
            Value::Int(i64::MAX - 1),
            Value::Int(i64::MIN),
            Value::Float(TWO_POW_63),
            Value::Float(-TWO_POW_63),
            Value::Int(0),
            Value::Int(-1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(0.5),
            Value::Float(-0.5),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                }
                for c in &vals {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
        assert_ne!(Value::Int(p53 + 1), Value::Float(p53 as f64));
        assert!(Value::Int(p53 + 1) > Value::Float(p53 as f64));
        assert_eq!(Value::Int(p53), Value::Float(p53 as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(TWO_POW_63));
        assert!(Value::Int(i64::MAX - 1) < Value::Float(TWO_POW_63));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-TWO_POW_63));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert!(Value::Int(-1) < Value::Float(-0.0) && Value::Float(-0.0) < Value::Int(0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Float(-f64::NAN));
        // Sorted, the values lie in numeric order (ties in input order).
        let mut sorted = vals.to_vec();
        sorted.sort();
        let floats = |v: &Value| v.as_float().unwrap();
        assert!(sorted[1..sorted.len() - 1]
            .windows(2)
            .all(|w| floats(&w[0]) <= floats(&w[1])));
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(1).byte_size(), 8);
        assert_eq!(Value::Bool(true).byte_size(), 1);
        assert_eq!(Value::Str("abcd".into()).byte_size(), 4);
        assert_eq!(Value::Null.byte_size(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
