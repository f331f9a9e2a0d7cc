//! Aggregate query descriptions and result rows.

use crate::agg::AggSpec;
use crate::error::ModelError;
use crate::key::GroupKey;
use crate::value::{CellRow, CellSink, Value};
use std::fmt;

/// An aggregate query: `SELECT <group_by>, <aggs> FROM r GROUP BY <group_by>`.
///
/// Duplicate elimination (`SELECT DISTINCT g…`) is the `aggs: []` case; a
/// scalar aggregate (`SELECT SUM(v) FROM r`) is the `group_by: []` case —
/// the paper treats both as endpoints of the same selectivity spectrum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggQuery {
    /// Grouping column indexes into the *base* tuple.
    pub group_by: Vec<usize>,
    /// Aggregates over base-tuple columns.
    pub aggs: Vec<AggSpec>,
    /// WHERE conjunction over *base*-tuple columns, applied by the scan
    /// before projection (empty = no filter). The paper's §2 form allows
    /// a WHERE; it affects only the selectivity the aggregation sees.
    pub filter: Vec<crate::predicate::Predicate>,
}

impl AggQuery {
    /// A GROUP BY query.
    pub fn new(group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        AggQuery {
            group_by,
            aggs,
            filter: Vec::new(),
        }
    }

    /// `SELECT DISTINCT <cols>` — duplicate elimination.
    pub fn distinct(group_by: Vec<usize>) -> Self {
        AggQuery {
            group_by,
            aggs: Vec::new(),
            filter: Vec::new(),
        }
    }

    /// Attach a WHERE conjunction.
    pub fn with_filter(mut self, filter: Vec<crate::predicate::Predicate>) -> Self {
        self.filter = filter;
        self
    }

    /// The columns the aggregation actually needs, in projected order:
    /// first the grouping columns, then each distinct aggregate input.
    /// This is the paper's "projectivity": only `p·|tuple|` bytes travel
    /// through the aggregation operators.
    pub fn projection_columns(&self) -> Vec<usize> {
        let mut cols = self.group_by.clone();
        for spec in &self.aggs {
            if let Some(c) = spec.input {
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
        }
        cols
    }

    /// The query rewritten against its own projection: grouping columns
    /// become `0..k`, aggregate inputs are remapped to their projected
    /// positions. Every operator downstream of the initial scan+project
    /// works with this form.
    pub fn remapped_to_projection(&self) -> AggQuery {
        let cols = self.projection_columns();
        let remap = |c: usize| cols.iter().position(|&x| x == c).expect("column in projection");
        AggQuery {
            group_by: (0..self.group_by.len()).collect(),
            aggs: self
                .aggs
                .iter()
                .map(|s| AggSpec {
                    func: s.func,
                    input: s.input.map(remap),
                })
                .collect(),
            // The filter references base columns and is consumed by the
            // scan; downstream operators see already-filtered tuples.
            filter: Vec::new(),
        }
    }

    /// Extract the group key from a raw value slice (a one-column key
    /// without a temporary `Vec`).
    pub fn key_of_values(&self, values: &[Value]) -> Result<GroupKey, ModelError> {
        let cell = |c: usize| {
            values.get(c).cloned().ok_or(ModelError::ColumnOutOfRange {
                column: c,
                arity: values.len(),
            })
        };
        match self.group_by[..] {
            [c] => cell(c).map(GroupKey::one),
            ref cols => cols.iter().map(|&c| cell(c)).collect::<Result<_, _>>().map(GroupKey::new),
        }
    }

    /// Total arity of the partial-state columns for this query's aggregates.
    pub fn partial_arity(&self) -> usize {
        self.aggs.iter().map(|s| s.func.partial_arity()).sum()
    }

    /// Arity of a *partial row* on the wire: group key columns + partial
    /// state columns.
    pub fn partial_row_arity(&self) -> usize {
        self.group_by.len() + self.partial_arity()
    }

    /// Arity of a final result row: group key columns + one column per
    /// aggregate.
    pub fn result_row_arity(&self) -> usize {
        self.group_by.len() + self.aggs.len()
    }
}

impl fmt::Display for AggQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        let mut first = true;
        for c in &self.group_by {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "col{c}")?;
            first = false;
        }
        for a in &self.aggs {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        if first {
            write!(f, "*")?;
        }
        if !self.filter.is_empty() {
            write!(f, " WHERE ")?;
            for (i, p) in self.filter.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{p}")?;
            }
        }
        write!(f, " GROUP BY ")?;
        if self.group_by.is_empty() {
            write!(f, "()")?;
        } else {
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "col{c}")?;
            }
        }
        Ok(())
    }
}

/// One row of the final aggregation result: the group key plus the
/// finalized aggregate values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ResultRow {
    /// The group.
    pub key: GroupKey,
    /// Finalized aggregate values, in query spec order.
    pub aggs: Vec<Value>,
}

impl ResultRow {
    /// Build a row.
    pub fn new(key: GroupKey, aggs: Vec<Value>) -> Self {
        ResultRow { key, aggs }
    }

    /// Flatten into wire/tuple form: key columns then aggregate columns.
    pub fn into_values(self) -> Vec<Value> {
        let mut out = self.key.into_values();
        out.extend(self.aggs);
        out
    }

    /// Parse from wire form given the query (inverse of `into_values`).
    pub fn from_values(query: &AggQuery, values: Vec<Value>) -> Result<Self, ModelError> {
        let k = query.group_by.len();
        if values.len() != query.result_row_arity() {
            return Err(ModelError::PartialArityMismatch {
                expected: query.result_row_arity(),
                found: values.len(),
            });
        }
        let mut values = values;
        let (key, aggs) = match k {
            // The key leaves the front; the aggregates keep the buffer.
            1 => (GroupKey::one(values.remove(0)), values),
            _ => {
                let aggs = values.split_off(k);
                (GroupKey::new(values), aggs)
            }
        };
        Ok(ResultRow::new(key, aggs))
    }
}

/// A result row read cell by cell: the key's cells, then the aggregates'
/// (the row [`ResultRow::into_values`] would make, without making it).
impl CellRow for ResultRow {
    #[inline]
    fn cells<S: CellSink>(&self, sink: &mut S) {
        self.key.values().cells(sink);
        self.aggs.cells(sink);
    }
}

impl fmt::Display for ResultRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} →", self.key)?;
        for v in &self.aggs {
            write!(f, " {v}")?;
        }
        Ok(())
    }
}

/// Sort rows by key (canonical order for comparing algorithm outputs).
///
/// Stable and run-adaptive: rows that arrive as ascending runs — each
/// node's drained table — are merged, not sorted again. A one-column key
/// lies inside its row, so a comparison chases no pointer (DESIGN.md §26).
pub fn sort_rows(rows: &mut [ResultRow]) {
    rows.sort_by(|a, b| a.key.cmp(&b.key));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::tuple;

    fn q() -> AggQuery {
        AggQuery::new(
            vec![2],
            vec![AggSpec::over(AggFunc::Sum, 0), AggSpec::over(AggFunc::Avg, 4)],
        )
    }

    #[test]
    fn projection_dedupes_and_orders() {
        let q = AggQuery::new(
            vec![1, 3],
            vec![
                AggSpec::over(AggFunc::Sum, 0),
                AggSpec::over(AggFunc::Min, 3), // duplicates a group col
                AggSpec::count_star(),          // no input
            ],
        );
        assert_eq!(q.projection_columns(), vec![1, 3, 0]);
    }

    #[test]
    fn remapping_points_into_projection() {
        let q = q();
        assert_eq!(q.projection_columns(), vec![2, 0, 4]);
        let r = q.remapped_to_projection();
        assert_eq!(r.group_by, vec![0]);
        assert_eq!(r.aggs[0].input, Some(1));
        assert_eq!(r.aggs[1].input, Some(2));
    }

    #[test]
    fn arities() {
        let q = q();
        assert_eq!(q.partial_arity(), 1 + 2);
        assert_eq!(q.partial_row_arity(), 1 + 3);
        assert_eq!(q.result_row_arity(), 1 + 2);
    }

    #[test]
    fn key_extraction() {
        let q = q();
        let t = tuple![1i64, 2i64, 7i64, 4i64, 5i64];
        assert_eq!(
            q.key_of_values(t.values()).unwrap(),
            GroupKey::new(vec![Value::Int(7)])
        );
        assert!(q.key_of_values(&[Value::Int(1)]).is_err());
        let two = AggQuery::new(vec![2, 0], vec![]);
        assert_eq!(
            two.key_of_values(t.values()).unwrap(),
            GroupKey::new(vec![Value::Int(7), Value::Int(1)])
        );
        assert!(two.key_of_values(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn result_row_wire_round_trip() {
        let q = q();
        let row = ResultRow::new(
            GroupKey::new(vec![Value::Int(7)]),
            vec![Value::Int(10), Value::Float(2.5)],
        );
        let vals = row.clone().into_values();
        assert_eq!(vals.len(), q.result_row_arity());
        let back = ResultRow::from_values(&q, vals).unwrap();
        assert_eq!(back, row);
        // Keys of no and of two columns.
        for group_by in [vec![], vec![2, 3]] {
            let q = AggQuery::new(group_by.clone(), vec![AggSpec::count_star()]);
            let key: Vec<Value> = group_by.iter().map(|&c| Value::Int(c as i64)).collect();
            let row = ResultRow::new(GroupKey::new(key), vec![Value::Int(4)]);
            assert_eq!(ResultRow::from_values(&q, row.clone().into_values()).unwrap(), row);
        }
    }

    #[test]
    fn result_row_wrong_arity_rejected() {
        let q = q();
        assert!(ResultRow::from_values(&q, vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn sort_rows_orders_by_key() {
        let mk = |i: i64| ResultRow::new(GroupKey::new(vec![Value::Int(i)]), vec![]);
        let mut rows = vec![mk(3), mk(1), mk(2)];
        sort_rows(&mut rows);
        let keys: Vec<i64> = rows
            .iter()
            .map(|r| r.key.values()[0].as_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    /// `sort_rows` used to sort all-single-`Int` rows by a cached `i64`
    /// and every other batch by `GroupKey`'s order, both stably; one
    /// stable sort by key must leave rows in the same permutation.
    #[test]
    fn sort_rows_keeps_the_cached_key_permutation() {
        let int = |i: i64| vec![Value::Int(i)];
        let shuffled = |n: i64| (0..n).map(move |i| (i * 7919) % n - n / 2);
        let cases: Vec<Vec<Vec<Value>>> = vec![
            // Single-`Int` keys, negatives included.
            shuffled(1000).map(int).collect(),
            // With duplicates: three rows a key.
            shuffled(999).map(|i| int(i / 3)).collect(),
            // Ascending runs, as nodes hand them over, overlapping.
            (0..4).flat_map(|n| (0..250).map(move |i| int(i * 4 + n % 3))).collect(),
            // One `Str` key and a NULL among them.
            shuffled(50)
                .map(|i| int(i % 20))
                .chain([vec![Value::Str("k".into())], vec![Value::Null], vec![Value::Null]])
                .collect(),
            // Two-column keys, duplicates included.
            shuffled(200).map(|i| vec![Value::Int(i % 7), Value::Int(i / 2)]).collect(),
        ];
        for keys in cases {
            let mut rows: Vec<ResultRow> = keys
                .into_iter()
                .enumerate()
                .map(|(i, k)| ResultRow::new(GroupKey::new(k), vec![Value::Int(i as i64)]))
                .collect();
            let mut expect = rows.clone();
            let int_key = |r: &ResultRow| match r.key.values() {
                [Value::Int(i)] => Some(*i),
                _ => None,
            };
            if expect.iter().all(|r| int_key(r).is_some()) {
                expect.sort_by_cached_key(|r| int_key(r));
            } else {
                expect.sort_by(|a, b| a.key.cmp(&b.key));
            }
            sort_rows(&mut rows);
            assert_eq!(rows, expect);
        }
    }

    #[test]
    fn display_reads_like_sql() {
        let q = AggQuery::new(vec![0], vec![AggSpec::count_star()]);
        assert_eq!(q.to_string(), "SELECT col0, COUNT(*) GROUP BY col0");
        let d = AggQuery::distinct(vec![1]);
        assert_eq!(d.to_string(), "SELECT col1 GROUP BY col1");
        let s = AggQuery::new(vec![], vec![AggSpec::over(AggFunc::Sum, 0)]);
        assert_eq!(s.to_string(), "SELECT SUM(col0) GROUP BY ()");
        let w = AggQuery::distinct(vec![0]).with_filter(vec![
            crate::predicate::Predicate::new(
                1,
                crate::predicate::Compare::Gt,
                Value::Int(5),
            ),
        ]);
        assert_eq!(w.to_string(), "SELECT col0 WHERE col1 > 5 GROUP BY col0");
    }

    #[test]
    fn remapping_drops_the_consumed_filter() {
        let q = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]).with_filter(vec![
            crate::predicate::Predicate::new(
                2,
                crate::predicate::Compare::Eq,
                Value::Int(1),
            ),
        ]);
        assert!(q.remapped_to_projection().filter.is_empty());
    }
}
