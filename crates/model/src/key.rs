//! Group keys.
//!
//! A [`GroupKey`] is the projection of a tuple onto the GROUP BY columns,
//! owned: the key of a [`crate::ResultRow`]. The engine never hashes one —
//! partitioning, table placement and overflow bucketing hash the key cells
//! where they lie ([`crate::hash`]).

use crate::value::Value;
use std::fmt;

/// The GROUP BY key of a tuple: an ordered list of the grouping values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    values: Box<[Value]>,
}

impl GroupKey {
    /// A key over the given values.
    pub fn new(values: Vec<Value>) -> Self {
        GroupKey {
            values: values.into_boxed_slice(),
        }
    }

    /// The key's values in grouping order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of grouping columns (0 for scalar aggregation — the paper's
    /// "number of groups is 1" special case: every tuple has the same
    /// empty key).
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Consume the key, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.into_vec()
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.values.iter().enumerate() {
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
}
