//! Scalar values and data types used throughout the PBDS engine.
//!
//! The paper (Sec. 3.1) assumes a universal domain; we model it with a small
//! dynamically typed [`Value`] enum that supports total ordering (needed for
//! range partitioning, sorting and top-k), hashing (needed for group-by and
//! joins) and basic arithmetic (needed for aggregation and projection
//! expressions).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float with total ordering.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A dynamically typed scalar value.
///
/// `Value` implements a *total* order: `Null` sorts before everything,
/// numeric values compare numerically across `Int`/`Float`, and values of
/// different non-numeric types compare by a fixed type rank. This gives the
/// engine deterministic sorting and lets range partitions be defined over any
/// column type.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// String value.
    Str(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Returns the data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as a float if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Interpret the value as an integer if it is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Interpret the value as a string slice if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Interpret the value as a boolean. Numeric values are truthy when
    /// non-zero; NULL maps to `None` (unknown).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Float(f) => Some(*f != 0.0),
            Value::Null => None,
            Value::Str(_) => None,
        }
    }

    /// Numeric rank used to order values of different types deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Add two numeric values, preserving `Int` when both are integers.
    pub fn add(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Value::Float(a + b),
                _ => Value::Null,
            },
        }
    }

    /// Subtract two numeric values.
    pub fn sub(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a - b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Value::Float(a - b),
                _ => Value::Null,
            },
        }
    }

    /// Multiply two numeric values.
    pub fn mul(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a * b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Value::Float(a * b),
                _ => Value::Null,
            },
        }
    }

    /// Divide two numeric values (always produces a float; division by zero
    /// yields NULL like SQL).
    pub fn div(&self, other: &Value) -> Value {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) if b != 0.0 => Value::Float(a / b),
            _ => Value::Null,
        }
    }
}

/// Exact comparison of an `i64` against an `f64`.
///
/// Casting the integer to `f64` loses precision beyond 2^53, which would
/// make `Value`'s equivalence non-transitive (two distinct big integers both
/// "equal" to their shared rounded double). Instead the float is compared
/// against the integer at full precision; ties between mathematically equal
/// values fall back to `total_cmp` so `-0.0` keeps its place just below
/// `+0.0`, consistent with the `Float`/`Float` ordering.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        // NaNs never equal a real number; order them like total_cmp does.
        return (i as f64).total_cmp(&f);
    }
    // 2^63 and -2^63 are exactly representable: every float at or beyond
    // them lies outside (or at the edge of) the i64 range.
    if f >= 9_223_372_036_854_775_808.0 {
        return Ordering::Less;
    }
    if f < -9_223_372_036_854_775_808.0 {
        return Ordering::Greater;
    }
    let t = f.trunc(); // integral, in i64 range → exact cast
    match i.cmp(&(t as i64)) {
        Ordering::Equal if f > t => Ordering::Less,
        Ordering::Equal if f < t => Ordering::Greater,
        // Mathematically equal; refine only the -0.0 / +0.0 distinction.
        Ordering::Equal => (i as f64).total_cmp(&f),
        other => other,
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // The hash operators' key compare, without the full order's
            // dispatch.
            (Value::Int(a), Value::Int(b)) => a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
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
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// `Value` is its own hash-key representation: `Hash` is consistent with the
/// exact, total-order `Eq` above, so the physical hash operators (group-by,
/// hash join, duplicate elimination) key their tables on `Value` rows
/// directly. A `Float` can only equal an `Int` when it is integer-valued and
/// within the `i64` range, so exactly those floats hash via their `i64`
/// value alongside `Int`s; every other float hashes via its bit pattern.
/// This keeps equal values hashing equal without clustering large integer
/// keys that share one `f64` image into a single bucket.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                if f.trunc() == *f
                    && (-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(f)
                {
                    2u8.hash(state);
                    (*f as i64).hash(state);
                } else {
                    3u8.hash(state);
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

// Tag bytes of the canonical binary encoding. Part of the on-disk format
// (snapshots and the mutation WAL), so these values must never be reused or
// renumbered — add new tags instead.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

impl Value {
    /// Append the canonical binary encoding of this value to `out`.
    ///
    /// The encoding is exact: floats are written as their raw IEEE-754 bit
    /// pattern, so `NaN` payloads and `-0.0` survive a round trip and the
    /// decoded value keeps the same position in `Value`'s total order and the
    /// same hash as the original (see
    /// [`Value::decode_from`]). Integers are little-endian `i64`, strings are
    /// a `u32` byte length followed by UTF-8 bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                // Raw bits, not a numeric cast: NaN payloads and the sign of
                // zero are part of the value's identity under `total_cmp`.
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => out.push(if *b { TAG_BOOL_TRUE } else { TAG_BOOL_FALSE }),
        }
    }

    /// Decode one value from the front of `bytes`, returning the value and
    /// the number of bytes consumed, or `None` when the bytes are truncated
    /// or malformed (unknown tag, invalid UTF-8).
    pub fn decode_from(bytes: &[u8]) -> Option<(Value, usize)> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            TAG_NULL => Some((Value::Null, 1)),
            TAG_INT => {
                let raw: [u8; 8] = rest.get(..8)?.try_into().ok()?;
                Some((Value::Int(i64::from_le_bytes(raw)), 9))
            }
            TAG_FLOAT => {
                let raw: [u8; 8] = rest.get(..8)?.try_into().ok()?;
                Some((Value::Float(f64::from_bits(u64::from_le_bytes(raw))), 9))
            }
            TAG_STR => {
                let raw: [u8; 4] = rest.get(..4)?.try_into().ok()?;
                let len = u32::from_le_bytes(raw) as usize;
                let s = std::str::from_utf8(rest.get(4..4 + len)?).ok()?;
                Some((Value::Str(s.to_string()), 1 + 4 + len))
            }
            TAG_BOOL_FALSE => Some((Value::Bool(false), 1)),
            TAG_BOOL_TRUE => Some((Value::Bool(true), 1)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
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
        Value::Int(v as i64)
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
    fn int_float_cross_type_ordering() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.9) < Value::Int(3));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
        assert!(Value::Null < Value::Bool(false));
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::from("AL") < Value::from("CA"));
        assert!(Value::from("CA") < Value::from("DE"));
        assert!(Value::from("NY") > Value::from("DE"));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(hash_of(&Value::from("x")), hash_of(&Value::from("x")));
    }

    #[test]
    fn arithmetic_preserves_int_and_promotes_float() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).add(&Value::Float(3.5)), Value::Float(5.5));
        assert_eq!(Value::Int(10).sub(&Value::Int(4)), Value::Int(6));
        assert_eq!(Value::Int(3).mul(&Value::Int(4)), Value::Int(12));
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_null());
    }

    #[test]
    fn arithmetic_with_null_is_null() {
        assert!(Value::Null.add(&Value::Int(1)).is_null());
        assert!(Value::Int(1).mul(&Value::Null).is_null());
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(0).as_bool(), Some(false));
        assert_eq!(Value::Null.as_bool(), None);
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::from("CA").to_string(), "CA");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn ordering_is_a_lawful_total_order_on_mixed_samples() {
        // Antisymmetry + transitivity over a sample set spanning the 2^53
        // precision boundary, ±0.0, infinities and cross-type pairs.
        const BIG: i64 = 1 << 53;
        let samples = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(-5),
            Value::Int(0),
            Value::Int(3),
            Value::Int(BIG),
            Value::Int(BIG + 1),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Float(BIG as f64),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::INFINITY),
            Value::from("CA"),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry: {a:?} vs {b:?}");
                for c in &samples {
                    if a <= b && b <= c {
                        assert!(a <= c, "transitivity: {a:?} <= {b:?} <= {c:?}");
                    }
                    if a == b && b == c {
                        assert!(a == c, "eq transitivity: {a:?}, {b:?}, {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn int_float_comparison_is_exact_beyond_f64_precision() {
        const BIG: i64 = 1 << 53; // BIG and BIG + 1 share one f64 image
        assert_ne!(Value::Int(BIG), Value::Int(BIG + 1));
        assert_eq!(Value::Int(BIG), Value::Float(BIG as f64));
        // The rounded double equals BIG exactly, so BIG + 1 is greater.
        assert!(Value::Int(BIG + 1) > Value::Float(BIG as f64));
        assert!(Value::Float(BIG as f64) < Value::Int(BIG + 1));
        // Fractional and out-of-range floats.
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Int(-2) > Value::Float(-2.5));
        assert!(Value::Int(i64::MAX) < Value::Float(1e19));
        assert!(Value::Int(i64::MIN) > Value::Float(-1e19));
        // -0.0 stays just below +0.0, like the Float/Float total order.
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert_eq!(Value::Int(0), Value::Float(0.0));
    }

    #[test]
    fn hash_stays_consistent_with_exact_equality() {
        const BIG: i64 = 1 << 53;
        // Equal values hash equal; unequal big ints collide in the hash but
        // a HashSet (which re-checks Eq) still separates them.
        assert_eq!(
            hash_of(&Value::Int(BIG)),
            hash_of(&Value::Float(BIG as f64))
        );
        // Large integers sharing one f64 image no longer share a bucket.
        assert_ne!(hash_of(&Value::Int(BIG)), hash_of(&Value::Int(BIG + 1)));
        use std::collections::HashSet;
        let distinct: HashSet<Value> = [
            Value::Int(BIG),
            Value::Int(BIG + 1),
            Value::Float(BIG as f64), // == Int(BIG)
        ]
        .into_iter()
        .collect();
        assert_eq!(distinct.len(), 2);
    }

    fn round_trip(v: &Value) -> Value {
        let mut buf = Vec::new();
        v.encode_into(&mut buf);
        let (decoded, used) = Value::decode_from(&buf).expect("decodable");
        assert_eq!(used, buf.len(), "{v:?} left trailing bytes");
        decoded
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        for v in [
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::from(""),
            Value::from("héllo, wörld"),
            Value::Bool(true),
            Value::Bool(false),
        ] {
            let d = round_trip(&v);
            assert_eq!(v.cmp(&d), Ordering::Equal, "{v:?} changed under codec");
            assert_eq!(hash_of(&v), hash_of(&d), "{v:?} hash changed under codec");
        }
    }

    #[test]
    fn float_round_trip_is_bit_exact_for_nan_and_negative_zero() {
        // NaN: not equal to itself under `==` semantics elsewhere, but
        // `Value`'s total order treats it as a point; the codec must
        // preserve the exact bit pattern (payload included), keeping both
        // the total order position and the hash.
        let nan = Value::Float(f64::NAN);
        let Value::Float(back) = round_trip(&nan) else {
            panic!("NaN decoded to a different variant");
        };
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
        assert_eq!(nan.cmp(&Value::Float(back)), Ordering::Equal);
        assert_eq!(hash_of(&nan), hash_of(&Value::Float(back)));
        // A NaN with a non-default payload round-trips bit-exactly too.
        let weird = f64::from_bits(f64::NAN.to_bits() | 0xdead);
        let Value::Float(back) = round_trip(&Value::Float(weird)) else {
            panic!("payload NaN decoded to a different variant");
        };
        assert_eq!(back.to_bits(), weird.to_bits());

        // -0.0 and +0.0 are distinct points of the total order (and -0.0
        // equals Int(0) only via +0.0's slot); the codec must not collapse
        // them through a numeric cast.
        let neg = round_trip(&Value::Float(-0.0));
        let pos = round_trip(&Value::Float(0.0));
        let Value::Float(n) = &neg else {
            unreachable!()
        };
        assert!(n.is_sign_negative(), "-0.0 lost its sign");
        assert_eq!(neg.cmp(&pos), Ordering::Less, "-0.0 must stay below +0.0");
        assert_eq!(pos, Value::Int(0));
        assert_ne!(neg, Value::Int(0));
        // Infinities survive as well.
        for f in [f64::INFINITY, f64::NEG_INFINITY] {
            let Value::Float(back) = round_trip(&Value::Float(f)) else {
                panic!("infinity decoded to a different variant");
            };
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn decode_rejects_truncated_and_malformed_bytes() {
        let mut buf = Vec::new();
        Value::from("abcdef").encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                Value::decode_from(&buf[..cut]).is_none(),
                "truncation at {cut} went unnoticed"
            );
        }
        assert!(
            Value::decode_from(&[0xff]).is_none(),
            "unknown tag accepted"
        );
        assert!(Value::decode_from(&[]).is_none());
        // Invalid UTF-8 behind a string tag is rejected, not replaced.
        let mut bad = vec![3u8];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xc3, 0x28]);
        assert!(Value::decode_from(&bad).is_none());
    }

    #[test]
    fn decode_reports_consumed_length_for_concatenated_values() {
        let mut buf = Vec::new();
        let vals = [
            Value::Int(7),
            Value::from("xy"),
            Value::Null,
            Value::Bool(true),
        ];
        for v in &vals {
            v.encode_into(&mut buf);
        }
        let mut off = 0;
        for v in &vals {
            let (d, used) = Value::decode_from(&buf[off..]).unwrap();
            assert_eq!(&d, v);
            off += used;
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn data_type_reporting() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float));
        assert_eq!(Value::from("a").data_type(), Some(DataType::Str));
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Null.data_type(), None);
    }
}
