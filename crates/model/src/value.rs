//! Dynamically-typed scalar values.
//!
//! The paper's queries group on and aggregate over ordinary SQL columns; we
//! support the four types its workloads need (integers, floats, strings and
//! NULL). `Value` implements `Hash`/`Eq`/`Ord` with a *total* order (floats
//! are ordered by their IEEE total order, NULL sorts first), because hash
//! aggregation needs `Eq + Hash` and result comparison in tests needs `Ord`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A scalar value in a tuple.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Aggregate functions skip NULL inputs (SQL semantics);
    /// NULL group-by keys form their own group.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string. Boxed to keep `Value` at two words + discriminant.
    Str(Box<str>),
}

impl Value {
    /// A short name for the variant, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
        }
    }

    /// Whether this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number of *payload* bytes this value occupies in the byte-level
    /// tuple encoding (see [`crate::encode`]); a 1-byte tag is added by the
    /// encoder. Storage pages, spill files and network messages are all
    /// sized from this, which is what makes the virtual-time I/O and
    /// network accounting follow real data volumes.
    pub fn encoded_payload_len(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
        }
    }

    /// Normalized float key: IEEE total-order bits so that `Eq`/`Hash`
    /// agree (NaN == NaN, +0.0 != -0.0 is avoided by mapping -0.0 to +0.0).
    fn float_key(f: f64) -> u64 {
        let f = if f == 0.0 { 0.0 } else { f }; // collapse -0.0 into +0.0
        let bits = f.to_bits();
        if bits >> 63 == 1 {
            !bits // negative: reverse order and clear the sign bit
        } else {
            bits | 0x8000_0000_0000_0000 // positive: above all negatives
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                Value::float_key(*a) == Value::float_key(*b)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(Value::float_key(*f));
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
                state.write_u8(0xff);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Int < Float < Str across types; natural order
    /// within a type (floats via total-order bits).
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) => 1,
                Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => {
                Value::float_key(*a).cmp(&Value::float_key(*b))
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
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
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into_boxed_str())
    }
}

/// Receives a row cell by cell, in column order.
pub trait CellSink {
    /// An `Int` cell, as the `i64` it is.
    fn int(&mut self, x: i64);
    /// A cell of any type (`Value::Int(x)` lands as [`CellSink::int`]
    /// would land `x`).
    fn value(&mut self, v: &Value);
}

/// A row that can be read cell by cell wherever its cells live — a slice
/// of values, a row of a page's column strips, a group in a
/// [`GroupStore`](crate::GroupStore) — so it can be copied somewhere else
/// without a `Vec<Value>` in between. A sink may be shown the row more than
/// once (to size it, then to copy it): every walk yields the same cells.
pub trait CellRow {
    /// Hand `sink` every cell of the row, in column order.
    fn cells<S: CellSink>(&self, sink: &mut S);
}

/// A row buffer collects the cells as values.
impl CellSink for Vec<Value> {
    #[inline]
    fn int(&mut self, x: i64) {
        self.push(Value::Int(x));
    }

    #[inline]
    fn value(&mut self, v: &Value) {
        self.push(v.clone());
    }
}

impl CellRow for [Value] {
    #[inline]
    fn cells<S: CellSink>(&self, sink: &mut S) {
        self.iter().for_each(|v| sink.value(v));
    }
}

impl CellRow for Vec<Value> {
    #[inline]
    fn cells<S: CellSink>(&self, sink: &mut S) {
        self.as_slice().cells(sink);
    }
}

/// Rows handed to one append together, in order: a store's groups, a
/// batch's listed rows, a merge's held groups, a wire frame. A run whose
/// rows are all `Int` cells of one arity gathers them a column at a time;
/// any run hands out one row's cells at a time. Which of the two a page
/// takes is the page's choice.
pub trait RowRun {
    /// Rows in the run.
    fn len(&self) -> usize;

    /// Whether the run holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Some(a)` when every row is `a` `Int` cells.
    fn int_arity(&self) -> Option<usize>;

    /// Append cell `j` of each of `rows`, in order, to `out`. Only for a
    /// run with an [`RowRun::int_arity`].
    fn gather(&self, j: usize, rows: std::ops::Range<usize>, out: &mut Vec<i64>);

    /// Hand `sink` every cell of row `i`, in column order.
    fn cells<S: CellSink>(&self, i: usize, sink: &mut S);
}

/// One row as a run of one: never gathered, so a single row always takes
/// the cell walk.
#[derive(Debug, Clone, Copy)]
pub struct OneRow<'a, R: ?Sized>(pub &'a R);

impl<R: CellRow + ?Sized> RowRun for OneRow<'_, R> {
    fn len(&self) -> usize {
        1
    }

    fn int_arity(&self) -> Option<usize> {
        None
    }

    fn gather(&self, _: usize, _: std::ops::Range<usize>, _: &mut Vec<i64>) {
        unreachable!("a lone row is never gathered")
    }

    #[inline]
    fn cells<S: CellSink>(&self, _: usize, sink: &mut S) {
        self.0.cells(sink);
    }
}

/// A borrowed whole-column view (a page's column strip) for batch
/// operators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StripView<'a> {
    /// Validity-free fixed-width fast path: every cell is an `Int`.
    Ints(&'a [i64]),
    /// General cells (mixed types, strings, nulls).
    Values(&'a [Value]),
}

impl<'a> StripView<'a> {
    /// Cells `rows` of the strip.
    #[inline]
    pub fn slice(self, rows: std::ops::Range<usize>) -> Self {
        match self {
            StripView::Ints(xs) => StripView::Ints(&xs[rows]),
            StripView::Values(vs) => StripView::Values(&vs[rows]),
        }
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
    fn eq_and_hash_agree_for_floats() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b, "NaN groups must coalesce");
        assert_eq!(hash_of(&a), hash_of(&b));

        let z1 = Value::Float(0.0);
        let z2 = Value::Float(-0.0);
        assert_eq!(z1, z2, "-0.0 and +0.0 are the same group");
        assert_eq!(hash_of(&z1), hash_of(&z2));
    }

    #[test]
    fn int_and_float_are_distinct_groups() {
        // SQL type systems would coerce; our generators never mix types in
        // one column, so keeping them distinct is both simpler and safer.
        assert_ne!(Value::Int(1), Value::Float(1.0));
    }

    #[test]
    fn total_order_is_consistent() {
        let mut vs = [
            Value::Str("b".into()),
            Value::Float(2.5),
            Value::Int(10),
            Value::Null,
            Value::Float(-1.0),
            Value::Int(-3),
            Value::Str("a".into()),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Int(-3));
        assert_eq!(vs[2], Value::Int(10));
        assert_eq!(vs[3], Value::Float(-1.0));
        assert_eq!(vs[4], Value::Float(2.5));
        assert_eq!(vs[5], Value::Str("a".into()));
        assert_eq!(vs[6], Value::Str("b".into()));
    }

    #[test]
    fn float_order_matches_numeric_order() {
        let xs = [-1e9, -1.5, -0.0, 0.0, 1e-9, 1.0, 1e300];
        for w in xs.windows(2) {
            assert!(
                Value::Float(w[0]) <= Value::Float(w[1]),
                "{} should be <= {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Float(2.5).as_i64(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn encoded_payload_len_matches_variant() {
        assert_eq!(Value::Null.encoded_payload_len(), 0);
        assert_eq!(Value::Int(1).encoded_payload_len(), 8);
        assert_eq!(Value::Float(1.0).encoded_payload_len(), 8);
        assert_eq!(Value::Str("abcd".into()).encoded_payload_len(), 8);
    }

    #[test]
    fn display_round_trip_readable() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3.5f64), Value::Float(3.5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
    }
}
