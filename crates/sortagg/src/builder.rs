//! Sorted-run formation with early aggregation.
//!
//! The resident run is an *index*, not an ordered structure: the shared
//! [`GroupStore`] (the hash table's own index) finds a row's group in
//! O(1) while rows stream in, and the order is only established once,
//! when the run seals (sort a permutation of the entries, spool them
//! through one scratch row). A pushed row therefore costs no heap
//! allocation; the store is cleared, not freed, between runs.

use adaptagg_model::hash::hash_values;
use adaptagg_model::{
    AggQuery, CostEvent, CostTracker, GroupStore, ModelError, RowKind, Seed, Value,
};
use adaptagg_storage::{SpillFile, StorageError};

/// The resident run: its groups in a [`GroupStore`], plus what sealing
/// them in key order needs.
#[derive(Debug)]
struct RunTable {
    store: GroupStore,
    /// Seal-time scratch: entries in key order, the `(key, entry)` pairs a
    /// single-`Int` key is sorted as, and the row being spooled.
    order: Vec<u32>,
    pairs: Vec<(i64, u32)>,
    row: Vec<Value>,
}

impl RunTable {
    fn new(query: &AggQuery) -> Self {
        RunTable {
            // No size hint: the index grows on demand during the first
            // run and `clear` keeps it for the runs after.
            store: GroupStore::new(query.group_by.len(), &query.aggs, 0),
            order: Vec::new(),
            pairs: Vec::new(),
            row: Vec::new(),
        }
    }

    /// Write the groups out in key order as one sorted run and clear the
    /// table. Charges `t_w` per row plus the run's page writes.
    fn seal<T: CostTracker>(
        &mut self,
        page_bytes: usize,
        tracker: &mut T,
    ) -> Result<SpillFile, StorageError> {
        let mut run = SpillFile::new(page_bytes);
        self.store.sort_entries(&mut self.order, &mut self.pairs);
        for &e in &self.order {
            tracker.record(CostEvent::TupleWrite, 1);
            self.store.write_partial_row(e as usize, &mut self.row);
            run.spool(&self.row, tracker)?;
        }
        run.finish(tracker);
        self.store.clear();
        Ok(run)
    }
}

/// Builds sorted runs: a memory-bounded table of groups that seals itself
/// to a [`SpillFile`] (written in key order) whenever a new group arrives
/// at the group budget.
#[derive(Debug)]
pub struct RunBuilder {
    query: AggQuery,
    /// Raw rows lead with the key columns (projected form), so the key is
    /// a borrowed prefix of the row; otherwise it is gathered into
    /// `key_scratch`.
    key_is_prefix: bool,
    key_scratch: Vec<Value>,
    table: RunTable,
    max_entries: usize,
    page_bytes: usize,
    sealed: Vec<SpillFile>,
    rows_in: u64,
}

impl RunBuilder {
    /// A builder for `query` (projected form) with a `max_entries` group
    /// budget per run.
    pub fn new(query: AggQuery, max_entries: usize, page_bytes: usize) -> Self {
        RunBuilder {
            key_is_prefix: query.group_by.iter().copied().eq(0..query.group_by.len()),
            key_scratch: Vec::new(),
            table: RunTable::new(&query),
            query,
            max_entries: max_entries.max(1),
            page_bytes,
            sealed: Vec::new(),
            rows_in: 0,
        }
    }

    /// Rows pushed so far.
    pub fn rows_in(&self) -> u64 {
        self.rows_in
    }

    /// Runs sealed so far (excluding the in-memory one).
    pub fn sealed_runs(&self) -> usize {
        self.sealed.len()
    }

    /// Groups resident in the current in-memory run.
    pub fn resident_groups(&self) -> usize {
        self.table.store.len()
    }

    /// Push a row of either kind. Charges `t_r` (read) + `t_h` (index
    /// probe; see crate docs on cost parity) + `t_a` (combine).
    pub fn push<T: CostTracker>(
        &mut self,
        kind: RowKind,
        values: &[Value],
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        tracker.record(CostEvent::TupleRead, 1);
        tracker.record(CostEvent::TupleHash, 1);
        self.rows_in += 1;

        let k = self.query.group_by.len();
        let key: &[Value] = match kind {
            RowKind::Partial => {
                if values.len() != self.query.partial_row_arity() {
                    return Err(ModelError::PartialArityMismatch {
                        expected: self.query.partial_row_arity(),
                        found: values.len(),
                    }
                    .into());
                }
                &values[..k]
            }
            RowKind::Raw if self.key_is_prefix => {
                values.get(..k).ok_or(ModelError::ColumnOutOfRange {
                    column: values.len(),
                    arity: values.len(),
                })?
            }
            RowKind::Raw => {
                self.key_scratch.clear();
                for &c in &self.query.group_by {
                    let v = values.get(c).ok_or(ModelError::ColumnOutOfRange {
                        column: c,
                        arity: values.len(),
                    })?;
                    self.key_scratch.push(v.clone());
                }
                &self.key_scratch
            }
        };

        // Early aggregation: combine into the resident run if the key is
        // present; otherwise admit it (sealing first if at budget).
        let hash = hash_values(Seed::Table, key);
        let folded = match kind {
            RowKind::Raw => values,
            RowKind::Partial => &values[k..],
        };
        let store = &mut self.table.store;
        match store.find(hash, key).0 {
            Ok(entry) => store.fold(entry, kind, folded)?,
            Err(mut slot) => {
                if store.len() >= self.max_entries {
                    self.sealed.push(self.table.seal(self.page_bytes, tracker)?);
                    // The table is empty now: the key's home slot is free.
                    slot = self.table.store.home(hash);
                }
                self.table.store.admit_row(slot, hash, key, kind, folded)?;
            }
        }
        tracker.record(CostEvent::TupleAgg, 1);
        Ok(())
    }

    /// Finish run formation. Returns all sealed runs plus the resident
    /// run's rows in key order (which never touch disk — the hybrid
    /// trick: the last run merges from memory). Charges `t_w` per
    /// resident row.
    #[allow(clippy::type_complexity)]
    pub fn finish<T: CostTracker>(
        mut self,
        tracker: &mut T,
    ) -> Result<(Vec<SpillFile>, Vec<Vec<Value>>), StorageError> {
        let store = &self.table.store;
        store.sort_entries(&mut self.table.order, &mut self.table.pairs);
        let arity = self.query.partial_row_arity();
        let mut resident: Vec<Vec<Value>> = Vec::with_capacity(store.len());
        for &e in &self.table.order {
            tracker.record(CostEvent::TupleWrite, 1);
            let mut row = Vec::with_capacity(arity);
            store.write_partial_row(e as usize, &mut row);
            resident.push(row);
        }
        Ok((self.sealed, resident))
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
        // Resident rows are key-ordered (BTreeMap).
        let keys: Vec<i64> = resident.iter().map(|r| r[0].as_i64().unwrap()).collect();
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
        assert_eq!(resident, vec![vec![Value::Int(1), Value::Int(42)]]);
    }

    #[test]
    fn bad_partial_arity_is_error() {
        let mut b = RunBuilder::new(query(), 100, 256);
        assert!(b
            .push(RowKind::Partial, &[Value::Int(1)], &mut NullTracker)
            .is_err());
    }
}
