//! Group keys.
//!
//! A [`GroupKey`] is the projection of a tuple onto the GROUP BY columns,
//! owned: the key of a [`crate::ResultRow`]. The engine never hashes one —
//! partitioning, table placement and overflow bucketing hash the key cells
//! where they lie ([`crate::hash`]).

use crate::cells::InlineCells;
use crate::value::Value;
use std::fmt;

/// The GROUP BY key of a tuple: an ordered list of the grouping values.
///
/// A one-column key holds its value inline, so a result row of a
/// one-column GROUP BY owns no key block; wider and empty keys box their
/// values. Equality, order and hashing are those of the values' slice,
/// which [`InlineCells`] forwards (DESIGN.md §32).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupKey(InlineCells<1>);

impl GroupKey {
    /// A key over the given values.
    pub fn new(values: Vec<Value>) -> Self {
        GroupKey(values.into())
    }

    /// A one-column key.
    pub fn one(value: Value) -> Self {
        GroupKey::from_iter([value])
    }

    /// The key's values in grouping order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The key's value when it is a single `Int`.
    #[inline]
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self.values() {
            [Value::Int(x)] => Some(*x),
            _ => None,
        }
    }

    /// Number of grouping columns (0 for scalar aggregation — the paper's
    /// "number of groups is 1" special case: every tuple has the same
    /// empty key).
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Consume the key, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.0.into_vec()
    }
}

/// Builds a one-column key in place when the iterator promises one value.
impl FromIterator<Value> for GroupKey {
    #[inline]
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        GroupKey(iter.into_iter().collect())
    }
}

impl fmt::Debug for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupKey").field("values", &self.values()).finish()
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_aggregation_key_is_empty_and_unique() {
        let k1 = GroupKey::new(vec![]);
        let k2 = GroupKey::new(vec![]);
        assert_eq!(k1, k2, "scalar aggregation: all tuples share one group");
        assert_eq!(k1.arity(), 0);
    }

    #[test]
    fn display_uses_angle_brackets() {
        let k = GroupKey::new(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(k.to_string(), "⟨1, x⟩");
    }

    /// Whether `cells` lie inside `owner`'s own bytes.
    fn inside<T>(owner: &T, cells: &[Value]) -> bool {
        let at = owner as *const T as usize;
        (at..at + std::mem::size_of::<T>()).contains(&(cells.as_ptr() as usize))
    }

    #[test]
    fn one_column_keys_live_inline() {
        assert_eq!(std::mem::size_of::<GroupKey>(), 24);
        assert_eq!(std::mem::size_of::<crate::AggCells>(), 56);
        assert_eq!(std::mem::size_of::<crate::ResultRow>(), 80);
        let one = GroupKey::new(vec![Value::Int(3)]);
        assert!(inside(&one, one.values()));
        let none = GroupKey::new(vec![]);
        assert!(!inside(&none, none.values()));
        let two = GroupKey::new(vec![Value::Null, Value::Int(1)]);
        assert!(!inside(&two, two.values()));
        assert_eq!(two.clone().into_values(), two.values());
        assert_eq!(GroupKey::one(Value::Int(3)).into_values(), [Value::Int(3)]);
        let row = crate::ResultRow::new(one, vec![Value::Int(1)]);
        assert!(inside(&row, row.key.values()) && inside(&row, &row.aggs));
    }
}
