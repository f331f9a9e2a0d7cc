//! Sorted-run formation with early aggregation.
//!
//! The resident run is an *index*, not an ordered structure: the bounded
//! hash table's own [`AggTable`] finds a row's group in O(1) while rows
//! stream in — a row at a time or a scanned page at a time, through the
//! same batched front end the hash aggregator rides — and the order is
//! only established once, when the run seals (sort a permutation of the
//! entries, write them out strip by strip). What makes it a *run* table is
//! its [`FullPolicy`]: a new key that meets a full table does not bounce,
//! it seals the table as a sorted run, clears it and is admitted. A
//! pushed row costs no heap allocation; the table is cleared, not freed,
//! between runs.

use adaptagg_hashagg::{AggTable, FullPolicy};
use adaptagg_model::{
    AggQuery, CostEvent, CostTracker, GroupRow, GroupStore, LaneRows, MemoryGrant, RowKind,
    SortScratch, StoreLayout, Value,
};
use adaptagg_storage::{BatchOutcome, RowPages, ScanBatch, SpillFile, StorageError};
use std::ops::Range;

/// Seals a full run table: the runs written so far, and the scratch a
/// seal sorts in.
#[derive(Debug)]
struct Sealer {
    page_bytes: usize,
    sealed: Vec<SpillFile>,
    /// Entries in key order, and the pairs a single-`Int` key is sorted
    /// as.
    order: Vec<u32>,
    scratch: SortScratch,
    /// Run rows written, by lane.
    written: LaneRows,
}

/// Where a run's rows go: a sealed run's spill file, or the resident run's
/// pages. Either takes a row cell by cell where it lies, or all-`Int` rows a
/// column at a time, onto the same pages.
trait RunOut<T> {
    fn row(&mut self, row: &GroupRow<'_>, tracker: &mut T) -> Result<(), StorageError>;

    fn ints<G>(&mut self, arity: usize, n: usize, gather: G, tracker: &mut T) -> Result<(), StorageError>
    where
        G: FnMut(usize, Range<usize>, &mut Vec<i64>);
}

impl<T: CostTracker> RunOut<T> for SpillFile {
    fn row(&mut self, row: &GroupRow<'_>, tracker: &mut T) -> Result<(), StorageError> {
        self.spool_row(row, tracker)
    }

    fn ints<G>(&mut self, arity: usize, n: usize, gather: G, tracker: &mut T) -> Result<(), StorageError>
    where
        G: FnMut(usize, Range<usize>, &mut Vec<i64>),
    {
        self.spool_ints(arity, n, gather, tracker)
    }
}

impl<T> RunOut<T> for RowPages {
    fn row(&mut self, row: &GroupRow<'_>, _: &mut T) -> Result<(), StorageError> {
        self.push(row)
    }

    fn ints<G>(&mut self, arity: usize, n: usize, gather: G, _: &mut T) -> Result<(), StorageError>
    where
        G: FnMut(usize, Range<usize>, &mut Vec<i64>),
    {
        self.extend_ints(arity, n, gather)
    }
}

impl Sealer {
    /// Write every group of `store` to `out` in key order, charging `t_w`
    /// for each row handed over: a column at a time when every partial cell
    /// is an `Int` ([`GroupStore::partials_are_ints`]), else each row cell
    /// by cell where it lies. The pages are the same either way; every row
    /// of an all-`Int` store is as wide as the next, so a row too wide for
    /// a page is the first one, on either lane.
    fn write_sorted<T: CostTracker>(
        &mut self,
        store: &GroupStore,
        tracker: &mut T,
        out: &mut impl RunOut<T>,
    ) -> Result<(), StorageError> {
        store.sort_entries(&mut self.order, &mut self.scratch);
        let (order, rows) = (&self.order, self.order.len() as u64);
        let columns = store.partials_are_ints();
        let (written, result) = match columns {
            true => {
                let gather = |j, at: Range<usize>, strip: &mut Vec<i64>| {
                    store.gather_partials(j, order[at].iter().map(|&e| e as usize), strip)
                };
                let result = out.ints(store.partial_row_arity(), order.len(), gather, tracker);
                (if result.is_ok() { rows } else { 1 }, result)
            }
            false => {
                let mut written = 0;
                let result = order.iter().try_for_each(|&e| {
                    written += 1;
                    out.row(&store.partial_row(e as usize), tracker)
                });
                (written, result)
            }
        };
        self.written.count(columns, written);
        tracker.record(CostEvent::TupleWrite, written);
        result
    }
}

impl<T: CostTracker> FullPolicy<T> for Sealer {
    /// Write the groups out in key order as one sorted run and clear the
    /// table. Charges `t_w` per row plus the run's page writes.
    fn make_room(
        &mut self,
        table: &mut AggTable,
        tracker: &mut T,
        settle: impl FnOnce(&mut AggTable),
    ) -> Result<bool, StorageError> {
        // A grant of no entries at all finds the table full while empty:
        // there is no run to write, and the lone group is admitted.
        if !table.is_empty() {
            settle(table);
            let mut run = SpillFile::new(self.page_bytes);
            self.write_sorted(table.store(), tracker, &mut run)?;
            run.finish(tracker);
            self.sealed.push(run);
            table.clear();
        }
        Ok(true)
    }

    fn bounce(&mut self, _: &mut T, _: RowKind, _: &ScanBatch<'_>, _: usize) -> Result<bool, StorageError> {
        unreachable!("a run table makes room for every row")
    }
}

/// Builds sorted runs: a memory-bounded table of groups that seals itself
/// to a [`SpillFile`] (written in key order) whenever a new group arrives
/// at the group budget.
#[derive(Debug)]
pub struct RunBuilder {
    table: AggTable,
    sealer: Sealer,
    rows_in: u64,
}

impl RunBuilder {
    /// A builder for `query` (projected form) with a `max_entries` group
    /// budget per run.
    pub fn new(query: AggQuery, max_entries: usize, page_bytes: usize) -> Self {
        RunBuilder {
            table: AggTable::new(query, max_entries.max(1)),
            sealer: Sealer {
                page_bytes,
                sealed: Vec::new(),
                order: Vec::new(),
                scratch: SortScratch::default(),
                written: LaneRows::default(),
            },
            rows_in: 0,
        }
    }

    /// Attach a live [`MemoryGrant`]: a run seals when a new group arrives
    /// at `min(max_entries, grant)`, re-read at that moment, so a broker
    /// shrinking the grant mid-scan shortens the runs from then on (the
    /// groups already resident stay until their run seals).
    pub fn with_grant(mut self, grant: MemoryGrant) -> Self {
        self.table.set_grant(grant);
        self
    }

    /// Rows pushed so far.
    pub fn rows_in(&self) -> u64 {
        self.rows_in
    }

    /// Runs sealed so far (excluding the in-memory one).
    pub fn sealed_runs(&self) -> usize {
        self.sealer.sealed.len()
    }

    /// Groups resident in the current in-memory run.
    pub fn resident_groups(&self) -> usize {
        self.table.len()
    }

    /// The layout the data so far left the run table's group store in.
    pub fn layout(&self) -> StoreLayout {
        self.table.layout()
    }

    /// Push a row of either kind. Charges `t_r` (read) + `t_h` (index
    /// probe; see crate docs on cost parity) + `t_a` (combine), with a
    /// seal's charges — when the row's key is new and the table at budget
    /// — between the probe and the combine.
    pub fn push<T: CostTracker>(
        &mut self,
        kind: RowKind,
        values: &[Value],
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        self.rows_in += 1;
        self.table
            .feed_row(kind, values, tracker, &mut self.sealer)
            .map(|_| ())
    }

    /// [`RunBuilder::push`] for every passing row of a batch, in row
    /// order, through [`AggTable::feed_batch`]: one hash pass over the key
    /// strips, a typed probe, the updates swept a column at a time — and a
    /// seal landing mid-batch applies the updates of the rows ahead of it
    /// before it sorts and writes. Runs, rows, errors and every charge are
    /// those of the row loop; a batch the strips cannot serve takes its
    /// row arm (the outcome's `row_cause` says why).
    pub fn push_batch<T: CostTracker>(
        &mut self,
        kind: RowKind,
        batch: &ScanBatch<'_>,
        tracker: &mut T,
    ) -> Result<BatchOutcome, StorageError> {
        let out = self.table.feed_batch(kind, batch, tracker, &mut self.sealer)?;
        self.rows_in += out.passed;
        Ok(out)
    }

    /// Finish run formation. Returns all sealed runs plus the resident
    /// run in key order, on pages that are never written (the hybrid
    /// trick: the last run merges from memory). Charges `t_w` per
    /// resident row.
    pub fn finish<T: CostTracker>(
        self,
        tracker: &mut T,
    ) -> Result<(Vec<SpillFile>, RowPages), StorageError> {
        self.finish_counted(tracker).map(|(runs, resident, _)| (runs, resident))
    }

    /// [`RunBuilder::finish`], and the rows every run was written with, by
    /// lane.
    pub(crate) fn finish_counted<T: CostTracker>(
        mut self,
        tracker: &mut T,
    ) -> Result<(Vec<SpillFile>, RowPages, LaneRows), StorageError> {
        let mut resident = RowPages::new(self.sealer.page_bytes);
        self.sealer.write_sorted(self.table.store(), tracker, &mut resident)?;
        Ok((self.sealer.sealed, resident, self.sealer.written))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{AggFunc, AggSpec, CountingTracker, NullTracker};
    use adaptagg_storage::SpillFile;

    fn query() -> AggQuery {
        AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
    }

    fn raw(g: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(g), Value::Int(v)]
    }

    fn drain_run(run: SpillFile) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        run.drain(&mut NullTracker, |_t, row| {
            out.push(row.to_vec());
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn small_input_stays_resident() {
        let mut b = RunBuilder::new(query(), 100, 256);
        let mut tr = NullTracker;
        for i in 0..50 {
            b.push(RowKind::Raw, &raw(i % 10, 1), &mut tr).unwrap();
        }
        assert_eq!(b.sealed_runs(), 0);
        assert_eq!(b.resident_groups(), 10);
        let (runs, resident) = b.finish(&mut tr).unwrap();
        assert!(runs.is_empty());
        assert_eq!(resident.len(), 10);
        // Resident rows are key-ordered.
        let keys: Vec<i64> = resident.to_rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn early_aggregation_combines_before_sealing() {
        // 10 groups repeated 100x with budget 10: everything combines in
        // memory, nothing seals.
        let mut b = RunBuilder::new(query(), 10, 256);
        let mut tr = CountingTracker::new();
        for i in 0..1000 {
            b.push(RowKind::Raw, &raw(i % 10, 1), &mut tr).unwrap();
        }
        assert_eq!(b.sealed_runs(), 0);
        assert_eq!(tr.count(CostEvent::PageWriteSeq), 0);
    }

    #[test]
    fn overflow_seals_sorted_runs() {
        let mut b = RunBuilder::new(query(), 4, 256);
        let mut tr = CountingTracker::new();
        // 12 distinct groups in arrival order 11,10,…,0: 2 seals.
        for g in (0..12).rev() {
            b.push(RowKind::Raw, &raw(g, 1), &mut tr).unwrap();
        }
        assert_eq!(b.sealed_runs(), 2);
        let (runs, resident) = b.finish(&mut tr).unwrap();
        assert_eq!(resident.len(), 4);
        for run in runs {
            let rows = drain_run(run);
            assert_eq!(rows.len(), 4);
            let keys: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "run not sorted: {keys:?}");
        }
    }

    #[test]
    fn partial_rows_combine_too() {
        let mut b = RunBuilder::new(query(), 100, 256);
        let mut tr = NullTracker;
        b.push(RowKind::Raw, &raw(1, 5), &mut tr).unwrap();
        b.push(RowKind::Partial, &[Value::Int(1), Value::Int(37)], &mut tr)
            .unwrap();
        let (_, resident) = b.finish(&mut tr).unwrap();
        assert_eq!(resident.to_rows(), vec![vec![Value::Int(1), Value::Int(42)]]);
    }

    #[test]
    fn bad_partial_arity_is_error() {
        let mut b = RunBuilder::new(query(), 100, 256);
        assert!(b
            .push(RowKind::Partial, &[Value::Int(1)], &mut NullTracker)
            .is_err());
    }
}
