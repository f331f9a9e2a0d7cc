//! Scan predicates (the `[where {predicates}]` of the paper's §2 query
//! form).
//!
//! Predicates are evaluated by the scan operator *before* projection, so
//! they reduce what the aggregation algorithms see without touching the
//! algorithms themselves — exactly the paper's framing ("the child
//! operator is a scan/select"). A query's filter is a conjunction of
//! column-vs-literal comparisons, which covers the benchmark-style
//! selections this system runs; richer boolean structure belongs to a
//! full query engine.

use crate::error::ModelError;
use crate::value::{StripView, Value};
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compare {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Compare {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            Compare::Eq => "=",
            Compare::Ne => "<>",
            Compare::Lt => "<",
            Compare::Le => "<=",
            Compare::Gt => ">",
            Compare::Ge => ">=",
        }
    }

    fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (Compare::Eq, Equal)
                | (Compare::Ne, Less)
                | (Compare::Ne, Greater)
                | (Compare::Lt, Less)
                | (Compare::Le, Less)
                | (Compare::Le, Equal)
                | (Compare::Gt, Greater)
                | (Compare::Ge, Greater)
                | (Compare::Ge, Equal)
        )
    }
}

impl fmt::Display for Compare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One `column <op> literal` comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// Base-tuple column index.
    pub column: usize,
    /// The comparison.
    pub op: Compare,
    /// The literal to compare against.
    pub literal: Value,
}

impl Predicate {
    /// Build a predicate.
    pub fn new(column: usize, op: Compare, literal: Value) -> Self {
        Predicate {
            column,
            op,
            literal,
        }
    }

    /// Evaluate against a tuple's values. SQL three-valued logic is
    /// simplified to its observable effect: comparisons involving NULL
    /// are not true, so the row is filtered out.
    pub fn matches(&self, values: &[Value]) -> Result<bool, ModelError> {
        let v = values.get(self.column).ok_or(ModelError::ColumnOutOfRange {
            column: self.column,
            arity: values.len(),
        })?;
        Ok(self.holds_for(v))
    }

    /// Whether the predicate holds for a cell of its column.
    fn holds_for(&self, v: &Value) -> bool {
        !v.is_null() && !self.literal.is_null() && self.op.holds(v.cmp(&self.literal))
    }

    /// Column-at-a-time [`Predicate::matches`] over the strip of its column
    /// (the caller resolved `self.column` to it): with `refine` unset,
    /// `selection` becomes the ascending ids of the rows that satisfy the
    /// predicate; set, it keeps only the already-selected rows that do —
    /// which is how a conjunction narrows one selection vector. An `Int`
    /// strip against an `Int` literal is one `i64` sweep; any other cell
    /// is compared as `matches` compares it (NULL is never true, cross-type
    /// order is [`Value::cmp`]'s).
    pub fn select(&self, column: StripView<'_>, selection: &mut Vec<u32>, refine: bool) {
        fn sweep(rows: usize, selection: &mut Vec<u32>, refine: bool, keep: impl Fn(usize) -> bool) {
            if refine {
                selection.retain(|&r| keep(r as usize));
            } else {
                selection.clear();
                selection.extend((0..rows as u32).filter(|&r| keep(r as usize)));
            }
        }
        let (xs, lit) = match (column, &self.literal) {
            (StripView::Ints(xs), &Value::Int(lit)) => (xs, lit),
            (StripView::Ints(xs), _) => {
                return sweep(xs.len(), selection, refine, |r| self.holds_for(&Value::Int(xs[r])))
            }
            (StripView::Values(vs), _) => return sweep(vs.len(), selection, refine, |r| self.holds_for(&vs[r])),
        };
        let n = xs.len();
        match self.op {
            Compare::Eq => sweep(n, selection, refine, |r| xs[r] == lit),
            Compare::Ne => sweep(n, selection, refine, |r| xs[r] != lit),
            Compare::Lt => sweep(n, selection, refine, |r| xs[r] < lit),
            Compare::Le => sweep(n, selection, refine, |r| xs[r] <= lit),
            Compare::Gt => sweep(n, selection, refine, |r| xs[r] > lit),
            Compare::Ge => sweep(n, selection, refine, |r| xs[r] >= lit),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "col{} {} {}", self.column, self.op, self.literal)
    }
}

/// Evaluate a conjunction (empty = always true).
pub fn matches_all(filter: &[Predicate], values: &[Value]) -> Result<bool, ModelError> {
    for p in filter {
        if !p.matches(values)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(g: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(g), Value::Int(v)]
    }

    #[test]
    fn all_operators() {
        let cases = [
            (Compare::Eq, 5, vec![5], vec![4, 6]),
            (Compare::Ne, 5, vec![4, 6], vec![5]),
            (Compare::Lt, 5, vec![4], vec![5, 6]),
            (Compare::Le, 5, vec![4, 5], vec![6]),
            (Compare::Gt, 5, vec![6], vec![4, 5]),
            (Compare::Ge, 5, vec![5, 6], vec![4]),
        ];
        for (op, lit, yes, no) in cases {
            let p = Predicate::new(1, op, Value::Int(lit));
            for y in yes {
                assert!(p.matches(&row(0, y)).unwrap(), "{op:?} {y}");
            }
            for n in no {
                assert!(!p.matches(&row(0, n)).unwrap(), "{op:?} {n}");
            }
        }
    }

    #[test]
    fn strings_compare_lexicographically() {
        let p = Predicate::new(0, Compare::Lt, Value::Str("m".into()));
        assert!(p.matches(&[Value::Str("apple".into())]).unwrap());
        assert!(!p.matches(&[Value::Str("pear".into())]).unwrap());
    }

    #[test]
    fn null_never_matches() {
        let p = Predicate::new(0, Compare::Eq, Value::Int(1));
        assert!(!p.matches(&[Value::Null]).unwrap());
        let p = Predicate::new(0, Compare::Ne, Value::Int(1));
        assert!(!p.matches(&[Value::Null]).unwrap(), "NULL <> 1 is not true");
        let p = Predicate::new(0, Compare::Eq, Value::Null);
        assert!(!p.matches(&[Value::Int(1)]).unwrap());
    }

    #[test]
    fn out_of_range_column_errors() {
        let p = Predicate::new(7, Compare::Eq, Value::Int(1));
        assert!(p.matches(&row(0, 0)).is_err());
    }

    #[test]
    fn conjunction_semantics() {
        let f = vec![
            Predicate::new(0, Compare::Ge, Value::Int(2)),
            Predicate::new(1, Compare::Lt, Value::Int(10)),
        ];
        assert!(matches_all(&f, &row(2, 9)).unwrap());
        assert!(!matches_all(&f, &row(1, 9)).unwrap());
        assert!(!matches_all(&f, &row(2, 10)).unwrap());
        assert!(matches_all(&[], &row(0, 0)).unwrap(), "empty filter is true");
    }

    #[test]
    fn select_agrees_with_matches_and_refines() {
        let column: Vec<i64> = vec![5, 1, 9, 5, -3, 7];
        let mut sel = vec![99];
        for op in [Compare::Eq, Compare::Ne, Compare::Lt, Compare::Le, Compare::Gt, Compare::Ge] {
            let p = Predicate::new(0, op, Value::Int(5));
            p.select(StripView::Ints(&column), &mut sel, false);
            let want: Vec<u32> = (0..column.len() as u32)
                .filter(|&r| p.matches(&[Value::Int(column[r as usize])]).unwrap())
                .collect();
            assert_eq!(sel, want, "{op:?}");
        }
        // Conjunction: x >= 5 (rows 0,2,3,5) AND x < 9 keeps 0,3,5.
        Predicate::new(0, Compare::Ge, Value::Int(5)).select(StripView::Ints(&column), &mut sel, false);
        Predicate::new(0, Compare::Lt, Value::Int(9)).select(StripView::Ints(&column), &mut sel, true);
        assert_eq!(sel, vec![0, 3, 5]);
        // Cross-type: every Int sorts below every Float; NULL is never true.
        Predicate::new(0, Compare::Lt, Value::Float(1.0)).select(StripView::Ints(&column), &mut sel, true);
        assert_eq!(sel, vec![0, 3, 5]);
        Predicate::new(0, Compare::Ne, Value::Null).select(StripView::Ints(&column), &mut sel, true);
        assert!(sel.is_empty());
        let cells = [Value::Str("b".into()), Value::Null, Value::Int(3), Value::Str("a".into())];
        Predicate::new(0, Compare::Ge, Value::Str("a".into())).select(StripView::Values(&cells), &mut sel, false);
        assert_eq!(sel, vec![0, 3]);
    }

    #[test]
    fn display_reads_like_sql() {
        let p = Predicate::new(2, Compare::Le, Value::Int(7));
        assert_eq!(p.to_string(), "col2 <= 7");
    }
}
