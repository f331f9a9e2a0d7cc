//! Aggregate query descriptions and result rows.

use crate::agg::AggSpec;
use crate::cells::InlineCells;
use crate::error::ModelError;
use crate::key::GroupKey;
use crate::tournament::{
    exhausted, int_head, mask, packed_before, run_of, Head, HeadOrder, Tournament, EXHAUSTED,
};
use crate::value::{CellRow, CellSink, Value};
use std::cmp::Ordering;
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

    /// Extract the group key from a raw value slice.
    pub fn key_of_values(&self, values: &[Value]) -> Result<GroupKey, ModelError> {
        let arity = values.len();
        match self.group_by.iter().find(|&&c| c >= arity) {
            Some(&column) => Err(ModelError::ColumnOutOfRange { column, arity }),
            None => Ok(self.group_by.iter().map(|&c| values[c].clone()).collect()),
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
/// finalized aggregate values. With a one-column key and at most two
/// aggregates it is one flat 80-byte value that owns no heap block
/// (DESIGN.md §29).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ResultRow {
    /// The group.
    pub key: GroupKey,
    /// Finalized aggregate values, in query spec order.
    pub aggs: AggCells,
}

impl ResultRow {
    /// Build a row.
    pub fn new(key: GroupKey, aggs: Vec<Value>) -> Self {
        ResultRow { key, aggs: aggs.into() }
    }

    /// Flatten into wire/tuple form: key columns then aggregate columns.
    pub fn into_values(self) -> Vec<Value> {
        let mut out = self.key.into_values();
        out.extend(self.aggs.into_vec());
        out
    }

    /// Parse from wire form given the query (inverse of `into_values`).
    pub fn from_values(query: &AggQuery, values: Vec<Value>) -> Result<Self, ModelError> {
        if values.len() != query.result_row_arity() {
            return Err(ModelError::PartialArityMismatch {
                expected: query.result_row_arity(),
                found: values.len(),
            });
        }
        // The key leaves the front; the rest are the aggregates.
        let mut values = values.into_iter();
        let key = values.by_ref().take(query.group_by.len()).collect();
        Ok(ResultRow { key, aggs: values.collect() })
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
        for v in self.aggs.iter() {
            write!(f, " {v}")?;
        }
        Ok(())
    }
}

/// The finalized aggregate values of a [`ResultRow`], in query spec order:
/// up to two live inside the row, more are boxed. Two cover the paper's
/// default query (SUM and COUNT); each slot more would add 24 bytes to
/// every row.
pub type AggCells = InlineCells<2, u8>;

/// Sort rows by key (canonical order for comparing algorithm outputs):
/// [`merge_rows`] over one part.
pub fn sort_rows(rows: &mut Vec<ResultRow>) {
    *rows = merge_rows(vec![std::mem::take(rows)]);
}

/// Merge `parts` into one vector in key order, stably: rows of equal keys
/// keep their order in `parts` concatenated.
///
/// Each part is cut into its ascending runs — a node hands its rows over
/// as one run per table it drained — and a tournament tree
/// ([`crate::tournament`]) merges the runs straight into the output. Each
/// row moves once; beside the output the merge allocates a few words per
/// run, none per row. The heads are packed `Int` keys when every key is a
/// single `Int`, otherwise they compare in `GroupKey`'s order; ties go to
/// the lower run index, which is the stable sort's order. A lone run is
/// handed back as it is.
pub fn merge_rows(parts: Vec<Vec<ResultRow>>) -> Vec<ResultRow> {
    // A node's rows are one run or a few.
    let mut runs = Vec::with_capacity(parts.len());
    let mut int_keys = true;
    for rows in &parts {
        let mut start = 0;
        for (i, row) in rows.iter().enumerate() {
            int_keys &= row.key.as_int().is_some();
            if i > 0 && row.key < rows[i - 1].key {
                // SAFETY: the parts move into the merge's `Heads`, which
                // outlives its runs, or are handed back with no run used.
                runs.push(unsafe { RowRun::new(&rows[start..i]) });
                start = i;
            }
        }
        if start < rows.len() {
            // SAFETY: as above.
            runs.push(unsafe { RowRun::new(&rows[start..]) });
        }
    }
    if runs.len() <= 1 {
        return parts.into_iter().find(|rows| !rows.is_empty()).unwrap_or_default();
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    match int_keys {
        true => merge_heads(Heads::<true>::new(runs, parts), &mut out),
        false => merge_heads(Heads::<false>::new(runs, parts), &mut out),
    }
    out
}

/// The merge loop: move the winning head's row out, and replay its run's
/// next head.
fn merge_heads<const INT_KEYS: bool>(mut heads: Heads<INT_KEYS>, out: &mut Vec<ResultRow>) {
    let leaves = (0..heads.runs.len()).map(|i| heads.head(i)).collect();
    let mut tree = Tournament::new(leaves, &heads);
    while tree.winner() & EXHAUSTED == 0 {
        let i = run_of(tree.winner());
        out.extend(heads.runs[i].take());
        tree.replay(heads.head(i), &heads);
    }
}

/// One ascending run of a part a [`Heads`] holds: the rows `next..end`,
/// not yet moved out.
struct RowRun {
    next: *const ResultRow,
    end: *const ResultRow,
}

impl RowRun {
    /// A run over `rows`.
    ///
    /// # Safety
    ///
    /// The rows must stay allocated while the run reads them, and only
    /// the run may move them out or drop them.
    unsafe fn new(rows: &[ResultRow]) -> Self {
        let std::ops::Range { start, end } = rows.as_ptr_range();
        RowRun { next: start, end }
    }

    /// The run's first row not yet moved out.
    #[inline]
    fn head(&self) -> Option<&ResultRow> {
        // SAFETY: a row from `next` on and before `end` is a live row of a
        // part the run's `Heads` holds, whose buffer outlives the run.
        (self.next < self.end).then(|| unsafe { &*self.next })
    }

    /// Move the head row out.
    #[inline]
    fn take(&mut self) -> Option<ResultRow> {
        let row = self.head()?;
        // SAFETY: as in `head`; `next` passes the row, so it is read once.
        let row = unsafe { std::ptr::read(row) };
        self.next = self.next.wrapping_add(1);
        Some(row)
    }
}

/// The runs of a row merge, and the order the tournament keeps their
/// heads in. `INT_KEYS`: every key is a single `Int`, packed in the heads.
struct Heads<const INT_KEYS: bool> {
    runs: Vec<RowRun>,
    /// The parts the runs point into, each of length zero: a row is
    /// dropped once, by whoever took it — or, should the merge unwind,
    /// leaked — and the parts free only their buffers.
    _parts: Vec<Vec<ResultRow>>,
}

impl<const INT_KEYS: bool> Heads<INT_KEYS> {
    fn new(runs: Vec<RowRun>, mut parts: Vec<Vec<ResultRow>>) -> Self {
        for rows in &mut parts {
            // SAFETY: zero is within capacity, and the rows left behind
            // are moved out by `RowRun::take` alone.
            unsafe { rows.set_len(0) };
        }
        Heads { runs, _parts: parts }
    }

    /// Run `i`'s head.
    #[inline]
    fn head(&self, i: usize) -> Head {
        match self.runs[i].head() {
            None => exhausted(i),
            Some(row) if INT_KEYS => match row.key.as_int() {
                Some(key) => int_head(key, i),
                None => unreachable!("INT_KEYS: every key is a single Int"),
            },
            Some(_) => i as Head,
        }
    }
}

/// (exhausted, key, run index), keys in `GroupKey`'s order.
impl<const INT_KEYS: bool> HeadOrder for Heads<INT_KEYS> {
    #[inline]
    fn before(&self, a: Head, b: Head) -> Head {
        if INT_KEYS || (a | b) & EXHAUSTED != 0 {
            return packed_before(a, b);
        }
        let key = |head| self.runs[run_of(head)].head().map(|row| &row.key);
        mask(key(a).cmp(&key(b)).then(a.cmp(&b)) == Ordering::Less)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;

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
        let t = [1i64, 2, 7, 4, 5].map(Value::Int);
        assert_eq!(
            q.key_of_values(&t).unwrap(),
            GroupKey::new(vec![Value::Int(7)])
        );
        assert!(q.key_of_values(&[Value::Int(1)]).is_err());
        let two = AggQuery::new(vec![2, 0], vec![]);
        assert_eq!(
            two.key_of_values(&t).unwrap(),
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

#[cfg(test)]
mod proptests {
    use super::{merge_rows, sort_rows, ResultRow};
    use crate::key::GroupKey;
    use crate::value::Value;
    use proptest::prelude::*;

    /// Single-`Int` keys, from a domain small enough that runs share keys.
    fn arb_int_key() -> impl Strategy<Value = Vec<Value>> {
        prop_oneof![
            (-3i64..4).prop_map(|i| vec![Value::Int(i)]),
            prop_oneof![Just(i64::MIN), Just(i64::MAX)].prop_map(|i| vec![Value::Int(i)]),
        ]
    }

    /// Keys of every shape: `Int`, NULL, `Float` and `Str` cells, and two
    /// columns.
    fn arb_any_key() -> impl Strategy<Value = Vec<Value>> {
        prop_oneof![
            arb_int_key(),
            Just(vec![Value::Null]),
            prop_oneof![Just(-0.0), Just(0.0), Just(f64::NAN), Just(2.5)]
                .prop_map(|f| vec![Value::Float(f)]),
            "[ab]{0,1}".prop_map(|s: String| vec![Value::Str(s.into())]),
            (0i64..2, -1i64..2).prop_map(|(a, b)| vec![Value::Int(a), Value::Int(b)]),
            Just(vec![]),
        ]
    }

    /// Parts of rows whose aggregate records (part, position); each part
    /// sorted by key — one run — or left as drawn — any number of runs.
    fn arb_parts(
        key: impl Strategy<Value = Vec<Value>>,
    ) -> impl Strategy<Value = Vec<Vec<ResultRow>>> {
        let part = (proptest::collection::vec(key, 0..12), any::<bool>());
        proptest::collection::vec(part, 1..130).prop_map(|parts| {
            let rows = parts.into_iter().enumerate().map(|(p, (keys, sorted))| {
                let mut rows: Vec<_> = keys
                    .into_iter()
                    .enumerate()
                    .map(|(i, k)| {
                        ResultRow::new(GroupKey::new(k), vec![Value::Int(p as i64), Value::Int(i as i64)])
                    })
                    .collect();
                if sorted {
                    rows.sort_by(|a, b| a.key.cmp(&b.key));
                }
                rows
            });
            rows.collect()
        })
    }

    /// The merge against a stable sort of the parts concatenated.
    fn check_merge(parts: Vec<Vec<ResultRow>>) -> Result<(), String> {
        let mut expect: Vec<_> = parts.iter().flatten().cloned().collect();
        expect.sort_by(|a, b| a.key.cmp(&b.key));
        let mut concat: Vec<_> = parts.iter().flatten().cloned().collect();
        prop_assert_eq!(merge_rows(parts), expect.clone());
        sort_rows(&mut concat);
        prop_assert_eq!(concat, expect);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn prop_merge_of_int_keys_is_the_stable_sort(parts in arb_parts(arb_int_key())) {
            check_merge(parts)?;
        }

        #[test]
        fn prop_merge_of_any_keys_is_the_stable_sort(parts in arb_parts(arb_any_key())) {
            check_merge(parts)?;
        }
    }
}
