//! The sort-based aggregator: run formation + k-way merge behind the
//! same push/finish interface as the hash aggregator.

use crate::builder::RunBuilder;
use crate::merge::{merge_runs, MergeEmit};
use adaptagg_model::{
    AggQuery, CostTracker, LaneRows, MemoryGrant, ResultRow, RowKind, StoreLayout, Value,
};
use adaptagg_storage::{BatchOutcome, RowPages, ScanBatch, StorageError};

/// Behaviour counters for one sort-based aggregation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SortAggStats {
    /// Rows pushed.
    pub rows_in: u64,
    /// Sorted runs that were sealed to disk (0 = everything fit).
    pub runs_sealed: u64,
    /// Run rows (the resident run's included) the merge folded as `i64`
    /// cells off `Int` strips …
    pub merge_rows_strips: u64,
    /// … and as values (rows of a page with a non-`Int` cell).
    pub merge_rows_values: u64,
    /// Groups emitted.
    pub groups_out: u64,
    /// The layout the data left the run table's group store in.
    pub store: StoreLayout,
    /// Rows written out of group stores — every run's, the merge's output —
    /// by lane: a column at a time, or cell by cell.
    pub partial_rows: LaneRows,
}

impl SortAggStats {
    /// Whether any run touched disk.
    pub fn spilled(&self) -> bool {
        self.runs_sealed > 0
    }

    /// Rows the runs — the resident one included — held for the merge.
    pub fn run_rows(&self) -> u64 {
        self.merge_rows_strips + self.merge_rows_values
    }
}

/// A memory-bounded sort-based aggregator. Emits **key-ordered** output —
/// the property hash aggregation cannot offer, and the reason sort-based
/// plans survive when an ORDER BY or merge-join sits downstream.
#[derive(Debug)]
pub struct SortAggregator {
    query: AggQuery,
    builder: RunBuilder,
}

impl SortAggregator {
    /// An aggregator for `query` (projected form) with a `max_entries`
    /// run budget.
    pub fn new(query: AggQuery, max_entries: usize, page_bytes: usize) -> Self {
        SortAggregator {
            builder: RunBuilder::new(query.clone(), max_entries, page_bytes),
            query,
        }
    }

    /// Attach a live, broker-revocable [`MemoryGrant`] (see
    /// [`RunBuilder::with_grant`]).
    pub fn with_grant(mut self, grant: MemoryGrant) -> Self {
        self.builder = self.builder.with_grant(grant);
        self
    }

    /// Groups resident in the run being formed.
    pub fn resident_groups(&self) -> usize {
        self.builder.resident_groups()
    }

    /// Runs sealed so far.
    pub fn sealed_runs(&self) -> usize {
        self.builder.sealed_runs()
    }

    /// Push a row of either kind.
    pub fn push<T: CostTracker>(
        &mut self,
        kind: RowKind,
        values: &[Value],
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        self.builder.push(kind, values, tracker)
    }

    /// Push the passing rows of a batch ([`RunBuilder::push_batch`]): the
    /// local phase's input, one scanned base page at a time.
    pub fn push_batch<T: CostTracker>(
        &mut self,
        kind: RowKind,
        batch: &ScanBatch<'_>,
        tracker: &mut T,
    ) -> Result<BatchOutcome, StorageError> {
        self.builder.push_batch(kind, batch, tracker)
    }

    /// Finish: merge all runs, emitting partial rows (local phases) in
    /// key order, on pages an exchange routes whole.
    pub fn finish_partials<T: CostTracker>(
        self,
        tracker: &mut T,
    ) -> Result<(RowPages, SortAggStats), StorageError> {
        self.finish_with(MergeEmit::Partial, tracker)
    }

    /// Finish: merge all runs into finalized, key-ordered result rows.
    pub fn finish_rows<T: CostTracker>(
        self,
        tracker: &mut T,
    ) -> Result<(Vec<ResultRow>, SortAggStats), StorageError> {
        let query = self.query.clone();
        let (flat, stats) = self.finish_with(MergeEmit::Finalized, tracker)?;
        let rows = flat
            .to_rows()
            .into_iter()
            .map(|vals| ResultRow::from_values(&query, vals).map_err(StorageError::from))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((rows, stats))
    }

    fn finish_with<T: CostTracker>(
        self,
        emit: MergeEmit,
        tracker: &mut T,
    ) -> Result<(RowPages, SortAggStats), StorageError> {
        let rows_in = self.builder.rows_in();
        let store = self.builder.layout();
        let (runs, resident, mut partial_rows) = self.builder.finish_counted(tracker)?;
        let runs_sealed = runs.len() as u64;
        let out = merge_runs(&self.query, runs, resident, emit, tracker)?;
        partial_rows.add(out.written);
        let stats = SortAggStats {
            rows_in,
            runs_sealed,
            merge_rows_strips: out.strip_rows,
            merge_rows_values: out.value_rows,
            groups_out: out.len() as u64,
            store,
            partial_rows,
        };
        Ok((out.rows, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{AggFunc, AggSpec, NullTracker};

    fn query() -> AggQuery {
        AggQuery::new(
            vec![0],
            vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
        )
    }

    fn run_sorted(rows: &[(i64, i64)], budget: usize) -> (Vec<ResultRow>, SortAggStats) {
        let mut agg = SortAggregator::new(query(), budget, 256);
        let mut tr = NullTracker;
        for &(g, v) in rows {
            agg.push(RowKind::Raw, &[Value::Int(g), Value::Int(v)], &mut tr).unwrap();
        }
        agg.finish_rows(&mut tr).unwrap()
    }

    fn reference(rows: &[(i64, i64)]) -> Vec<(i64, i64, i64)> {
        let mut m: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for &(g, v) in rows {
            let e = m.entry(g).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        m.into_iter().map(|(g, (s, c))| (g, s, c)).collect()
    }

    fn as_triples(rows: &[ResultRow]) -> Vec<(i64, i64, i64)> {
        rows.iter()
            .map(|r| {
                (
                    r.key.values()[0].as_i64().unwrap(),
                    r.aggs[0].as_i64().unwrap(),
                    r.aggs[1].as_i64().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn in_memory_case_is_exact_and_sorted() {
        let rows: Vec<(i64, i64)> = (0..200).map(|i| (i % 20, i)).collect();
        let (out, stats) = run_sorted(&rows, 1000);
        assert_eq!(as_triples(&out), reference(&rows));
        assert!(!stats.spilled());
        assert_eq!(stats.groups_out, 20);
    }

    #[test]
    fn external_case_is_exact_and_sorted() {
        let rows: Vec<(i64, i64)> = (0..3000).map(|i| ((i * 7) % 500, 1)).collect();
        let (out, stats) = run_sorted(&rows, 32);
        assert_eq!(as_triples(&out), reference(&rows));
        assert!(stats.spilled());
        assert!(stats.runs_sealed >= 2);
        // Output is globally key-ordered — the sort-based selling point.
        let keys: Vec<i64> = out.iter().map(|r| r.key.values()[0].as_i64().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partials_round_trip_between_sort_aggregators() {
        let rows: Vec<(i64, i64)> = (0..400).map(|i| (i % 40, 2)).collect();
        let mut local = SortAggregator::new(query(), 8, 256);
        let mut tr = NullTracker;
        for &(g, v) in &rows {
            local.push(RowKind::Raw, &[Value::Int(g), Value::Int(v)], &mut tr).unwrap();
        }
        let (partials, _) = local.finish_partials(&mut tr).unwrap();

        let mut merge = SortAggregator::new(query(), 1000, 256);
        for p in &partials.to_rows() {
            merge.push(RowKind::Partial, p, &mut tr).unwrap();
        }
        let (out, _) = merge.finish_rows(&mut tr).unwrap();
        assert_eq!(as_triples(&out), reference(&rows));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use adaptagg_model::{AggFunc, AggSpec, NullTracker};
    use proptest::prelude::*;

    proptest! {
        /// Sort-based and unbounded-hash reference agree for any input
        /// and any run budget.
        #[test]
        fn prop_sort_equals_reference(
            rows in proptest::collection::vec((0i64..64, -100i64..100), 0..400),
            budget in 1usize..40,
        ) {
            let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
            let mut agg = SortAggregator::new(query, budget, 128);
            let mut tr = NullTracker;
            for &(g, v) in &rows {
                agg.push(RowKind::Raw, &[Value::Int(g), Value::Int(v)], &mut tr).unwrap();
            }
            let (out, _) = agg.finish_rows(&mut tr).unwrap();

            let mut expect: std::collections::BTreeMap<i64, i64> = Default::default();
            for &(g, v) in &rows {
                *expect.entry(g).or_insert(0) += v;
            }
            prop_assert_eq!(out.len(), expect.len());
            for (row, (g, s)) in out.iter().zip(expect) {
                prop_assert_eq!(row.key.values()[0].as_i64().unwrap(), g);
                prop_assert_eq!(row.aggs[0].as_i64().unwrap(), s);
            }
        }
    }
}
