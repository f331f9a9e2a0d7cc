//! Schemas: named, typed columns.
//!
//! The execution engine is mostly schema-oblivious (it moves rows of
//! [`crate::Value`]s), but workload generators, the projection operator, and result printing all
//! need to know column names, types, and widths.

use crate::value::Value;
use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Variable-length UTF-8 string.
    Str,
}

impl DataType {
    /// Whether a concrete value inhabits this type (NULL inhabits all).
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Str, Value::Str(_))
        )
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STR"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// A schema over the given fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of the column with the given name, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field at `idx`, if in range.
    pub fn field(&self, idx: usize) -> Option<&Field> {
        self.fields.get(idx)
    }

    /// A schema containing only the given columns, in the given order
    /// (used by the projection step of every algorithm).
    pub fn project(&self, columns: &[usize]) -> Schema {
        Schema {
            fields: columns
                .iter()
                .filter_map(|&c| self.fields.get(c).cloned())
                .collect(),
        }
    }

    /// Whether a tuple's values inhabit this schema.
    pub fn admits(&self, values: &[Value]) -> bool {
        values.len() == self.arity()
            && values
                .iter()
                .zip(&self.fields)
                .all(|(v, f)| f.data_type.admits(v))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("tag", DataType::Str),
        ])
    }

    #[test]
    fn index_and_field_lookup() {
        let s = sample();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("v"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.field(2).unwrap().name, "tag");
        assert!(s.field(3).is_none());
    }

    #[test]
    fn projection_keeps_order_and_drops_out_of_range() {
        let s = sample();
        let p = s.project(&[2, 0, 9]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.field(0).unwrap().name, "tag");
        assert_eq!(p.field(1).unwrap().name, "g");
    }

    #[test]
    fn admits_checks_types_and_arity() {
        let s = sample();
        assert!(s.admits(&[Value::Int(1), Value::Float(2.0), Value::Str("a".into())]));
        assert!(s.admits(&[Value::Null, Value::Null, Value::Null]), "NULL inhabits all");
        assert!(!s.admits(&[Value::Int(1), Value::Int(2), Value::Str("a".into())]));
        assert!(!s.admits(&[Value::Int(1)]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(sample().to_string(), "(g INT, v FLOAT, tag STR)");
        assert_eq!(DataType::Float.to_string(), "FLOAT");
    }
}
