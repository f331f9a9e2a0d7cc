//! K-way merge of sorted runs with aggregation.
//!
//! The merge never copies a run and never decodes a row of one: a run's
//! head is a `(page, row)` cursor over the column strips its pages
//! already are, the workspace's tournament tree of losers
//! (`adaptagg_model::tournament`) orders the heads — packed into one
//! `u128` each when every key is a single `Int`, otherwise by comparing
//! the key cells where they lie — equal keys fold their partial cells —
//! `i64`s read straight off `Int` strips — into one reused row of states,
//! and each closed group leaves for an output page: an all-`Int` one into
//! column buffers that reach the pages as one run, any other on its own. Nothing is allocated per run row, per pop or per group.

use adaptagg_model::tournament::{
    exhausted, int_head, mask, packed_before, run_of, Head, HeadOrder, Tournament, EXHAUSTED,
};
use adaptagg_model::{
    AggQuery, AggState, CellRow, CellSink, CostEvent, CostTracker, IndexRow, LaneRows, ModelError, OneRow,
    RowRun, Value,
};
use adaptagg_storage::{Page, RowPages, SpillFile, StorageError, StripView};
use std::cmp::Ordering;
use std::ops::Range;

/// What the merge emits per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeEmit {
    /// Finalized result columns.
    Finalized,
    /// Encoded partial-state columns.
    Partial,
}

/// What a merge produced.
#[derive(Debug)]
pub struct Merged {
    /// The merged groups in key order, a row each.
    pub rows: RowPages,
    /// Run rows folded as `i64` cells off all-`Int` pages.
    pub strip_rows: u64,
    /// Run rows folded as [`Value`]s: their page holds a cell that is not
    /// an `Int` (a `Str` key, a NULL or `Float` partial state).
    pub value_rows: u64,
    /// The merged groups, by the lane they were written on: a column at a
    /// time (every cell an `Int`), or cell by cell.
    pub written: LaneRows,
}

impl Merged {
    /// Groups emitted.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no group was emitted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Partial cells of the widest aggregate state (the variance family's).
const MAX_PARTIAL_ARITY: usize = 3;

/// One run being merged: the pages still ahead, and the row its head is
/// at on the page it is reading.
struct Run<'a> {
    ahead: std::slice::Iter<'a, Page>,
    /// The columns of the page being read.
    strips: Vec<StripView<'a>>,
    /// Every one of them is an `Int` strip: the page's rows fold without a
    /// [`Value`] being built.
    ints: bool,
    /// Rows on that page, and the head's.
    rows: usize,
    row: usize,
}

impl<'a> Run<'a> {
    fn new(pages: &'a [Page]) -> Self {
        Run {
            ahead: pages.iter(),
            strips: Vec::new(),
            ints: true,
            rows: 0,
            row: 0,
        }
    }

    /// Move the head to the run's next row; `false` when the run is done.
    #[inline]
    fn advance(&mut self, arity: usize) -> Result<bool, StorageError> {
        self.row += 1;
        if self.row < self.rows {
            return Ok(true);
        }
        self.enter_next_page(arity)
    }

    /// Move the head to the first row of the next page that has one,
    /// resolving the page to its strips once, here.
    fn enter_next_page(&mut self, arity: usize) -> Result<bool, StorageError> {
        loop {
            let Some(page) = self.ahead.next() else {
                return Ok(false);
            };
            if page.is_empty() {
                continue;
            }
            if page.uniform_arity() != Some(arity) {
                let mut arities = page.rows().map(|row| row.arity());
                return Err(ModelError::PartialArityMismatch {
                    expected: arity,
                    found: arities.find(|&n| n != arity).unwrap_or(arity),
                }
                .into());
            }
            self.strips.clear();
            let columns = (0..arity).map(|j| page.column(j).expect("dense strip of a uniform page"));
            self.strips.extend(columns);
            self.ints = self.strips.iter().all(|s| matches!(s, StripView::Ints(_)));
            self.rows = page.tuple_count();
            self.row = 0;
            return Ok(true);
        }
    }

    /// Cell `j` of the head row as a value.
    fn cell(&self, j: usize) -> Value {
        match self.strips[j] {
            StripView::Ints(xs) => Value::Int(xs[self.row]),
            StripView::Values(vs) => vs[self.row].clone(),
        }
    }

    /// Whether the head row's key is `key`.
    fn key_is(&self, key: &[Value]) -> bool {
        key.iter().zip(&self.strips).all(|(cell, strip)| match strip {
            StripView::Ints(xs) => matches!(cell, Value::Int(x) if *x == xs[self.row]),
            StripView::Values(vs) => vs[self.row] == *cell,
        })
    }

    /// Fold the head row's partial cells (the columns from `k` on) into
    /// `states`, whose partial widths are `widths`.
    fn fold_into(
        &self,
        k: usize,
        states: &mut [AggState],
        widths: &[usize],
        scratch: &mut Vec<Value>,
    ) -> Result<(), ModelError> {
        if !self.ints {
            scratch.clear();
            scratch.extend((k..self.strips.len()).map(|j| self.cell(j)));
            return AggState::merge_partial_row(states, scratch);
        }
        let mut at = k;
        for (state, &n) in states.iter_mut().zip(widths) {
            let mut cells = [0i64; MAX_PARTIAL_ARITY];
            for (cell, strip) in cells.iter_mut().zip(&self.strips[at..at + n]) {
                let StripView::Ints(xs) = strip else {
                    unreachable!("an all-Int page")
                };
                *cell = xs[self.row];
            }
            state.merge_partial_ints(&cells[..n])?;
            at += n;
        }
        Ok(())
    }
}

/// Order of two key cells wherever they lie: [`Value`]'s total order,
/// which over two `Int` strips is the order of the `i64`s.
fn cmp_cells(a: StripView<'_>, ra: usize, b: StripView<'_>, rb: usize) -> Ordering {
    match (a, b) {
        (StripView::Ints(x), StripView::Ints(y)) => x[ra].cmp(&y[rb]),
        (StripView::Ints(x), StripView::Values(w)) => Value::Int(x[ra]).cmp(&w[rb]),
        (StripView::Values(v), StripView::Ints(y)) => v[ra].cmp(&Value::Int(y[rb])),
        (StripView::Values(v), StripView::Values(w)) => v[ra].cmp(&w[rb]),
    }
}

/// Every run being merged, and the order the tournament keeps their
/// heads in. `INT_KEYS`: every key is a single `Int`, packed in the heads
/// ([`int_head`]).
struct Heads<'a, const INT_KEYS: bool> {
    runs: Vec<Run<'a>>,
    /// Key columns per row.
    k: usize,
}

/// (exhausted, key, run index) — `Value`'s total order over the key
/// columns (`GroupKey`'s `Ord`), the index breaking ties deterministically.
impl<const INT_KEYS: bool> HeadOrder for Heads<'_, INT_KEYS> {
    #[inline]
    fn before(&self, a: Head, b: Head) -> Head {
        if INT_KEYS || (a | b) & EXHAUSTED != 0 {
            return packed_before(a, b);
        }
        let (x, y) = (&self.runs[run_of(a)], &self.runs[run_of(b)]);
        let cells = x.strips[..self.k].iter().zip(&y.strips[..self.k]);
        let by_key = cells
            .map(|(&s, &t)| cmp_cells(s, x.row, t, y.row))
            .find(|&o| o != Ordering::Equal)
            .unwrap_or(Ordering::Equal);
        mask(by_key.then(a.cmp(&b)) == Ordering::Less)
    }
}

impl<const INT_KEYS: bool> Heads<'_, INT_KEYS> {
    /// Move run `i`'s head to its next row, and return its head.
    #[inline]
    fn advance(&mut self, i: usize, arity: usize) -> Result<Head, StorageError> {
        let run = &mut self.runs[i];
        if !run.advance(arity)? {
            return Ok(exhausted(i));
        }
        if !INT_KEYS {
            return Ok(i as Head);
        }
        let StripView::Ints(xs) = run.strips[0] else {
            unreachable!("INT_KEYS: every key strip is Int")
        };
        Ok(int_head(xs[run.row], i))
    }
}

/// A closed group as the row it is emitted as: its key, then each
/// state's finalized or partial cells.
struct Group<'a> {
    key: &'a [Value],
    states: &'a [AggState],
    emit: MergeEmit,
}

impl CellRow for Group<'_> {
    fn cells<S: CellSink>(&self, sink: &mut S) {
        self.key.cells(sink);
        for state in self.states {
            match self.emit {
                MergeEmit::Finalized => sink.value(&state.finalize()),
                MergeEmit::Partial => state.partial_cells(sink),
            }
        }
    }
}

/// The merge's output: closed groups whose cells are all `Int`s wait in
/// column buffers and reach the pages a page's worth of rows at a time, as
/// one run ([`Held`]); any other group flushes the buffers first, then goes
/// on its own ([`RowPages::extend`] either way). The pages are those of
/// every group pushed cell by cell, in order.
struct Out {
    rows: RowPages,
    /// One buffer per output column, `held` rows in each.
    cols: Vec<Vec<i64>>,
    held: usize,
    /// Rows a page holds; 0 when an all-`Int` row is wider than a page,
    /// and every such group flushes alone (which reports it).
    batch: usize,
    /// Groups written, by lane.
    written: LaneRows,
}

/// Hands a group's `Int` cells to the column buffers, one per column, and
/// notes whether every cell was one.
struct Buffered<'a> {
    cols: std::slice::IterMut<'a, Vec<i64>>,
    ints: bool,
}

impl CellSink for Buffered<'_> {
    #[inline]
    fn int(&mut self, x: i64) {
        if let Some(col) = self.cols.next() {
            col.push(x);
        }
    }

    #[inline]
    fn value(&mut self, v: &Value) {
        match *v {
            Value::Int(x) => self.int(x),
            _ => {
                self.ints = false;
                self.cols.next();
            }
        }
    }
}

/// The first `.1` rows of the column buffers `.0`, as a run.
struct Held<'a>(&'a [Vec<i64>], usize);

impl RowRun for Held<'_> {
    fn len(&self) -> usize {
        self.1
    }

    fn int_arity(&self) -> Option<usize> {
        Some(self.0.len())
    }

    fn gather(&self, j: usize, rows: Range<usize>, out: &mut [i64]) {
        out.copy_from_slice(&self.0[j][rows]);
    }

    fn cells<S: CellSink>(&self, i: usize, sink: &mut S) {
        self.0.iter().for_each(|col| sink.int(col[i]));
    }
}

impl Out {
    fn new(rows: RowPages, arity: usize) -> Self {
        let batch = rows.int_rows_per_page(arity);
        Out {
            cols: (0..arity).map(|_| Vec::with_capacity(batch)).collect(),
            held: 0,
            batch,
            rows,
            written: LaneRows::default(),
        }
    }

    /// Write a closed group.
    #[inline]
    fn close(&mut self, group: &Group<'_>) -> Result<(), StorageError> {
        let mut cells = Buffered {
            cols: self.cols.iter_mut(),
            ints: true,
        };
        group.cells(&mut cells);
        if cells.ints {
            self.held += 1;
            return match self.held < self.batch {
                true => Ok(()),
                false => self.flush(),
            };
        }
        // The group's `Int` cells past the held rows are dropped here.
        self.flush()?;
        self.written.add(self.rows.extend(&OneRow(group))?);
        Ok(())
    }

    /// Append the held rows to the pages.
    fn flush(&mut self) -> Result<(), StorageError> {
        let written = self.rows.extend(&Held(&self.cols, std::mem::take(&mut self.held)));
        self.cols.iter_mut().for_each(Vec::clear);
        self.written.add(written?);
        Ok(())
    }
}

/// Merge sorted runs (plus the resident in-memory run, which merges last
/// on a tie) into key-ordered output rows, combining equal keys' partial
/// states.
///
/// Charges: page reads + `t_r` per row for every sealed run (via the
/// spill machinery), `t_r` per pop (the merge comparison work — see
/// the crate's cost-parity note), `t_a` per combine, and `t_w` per emitted
/// row — the last three counted as the merge goes and recorded once, as it
/// returns.
pub fn merge_runs<T: CostTracker>(
    query: &AggQuery,
    runs: Vec<SpillFile>,
    resident: RowPages,
    emit: MergeEmit,
    tracker: &mut T,
) -> Result<Merged, StorageError> {
    let k = query.group_by.len();
    let page_bytes = resident.page_bytes();

    // Read every run back. The pages stay where they are; the merge walks
    // their strips as it reaches them.
    let mut run_pages: Vec<Vec<Page>> = runs
        .into_iter()
        .map(|run| {
            let mut pages = Vec::with_capacity(run.sealed_pages() + 1);
            run.drain_pages(tracker, |t, page| {
                t.record(CostEvent::TupleRead, page.tuple_count() as u64);
                pages.push(page);
                Ok(())
            })
            .map(|()| pages)
        })
        .collect::<Result<_, _>>()?;
    run_pages.push(resident.into_pages());

    let int_keys = k == 1
        && run_pages
            .iter()
            .flatten()
            .all(|page| matches!(page.column(0), Some(StripView::Ints(_))));
    let runs = || run_pages.iter().map(|pages| Run::new(pages)).collect();
    let widths = query.aggs.iter().map(|s| match emit {
        MergeEmit::Finalized => 1,
        MergeEmit::Partial => s.func.partial_arity(),
    });
    let mut out = Out::new(RowPages::new(page_bytes), k + widths.sum::<usize>());
    let mut tally = Tally::default();
    let merged = match int_keys {
        true => merge(query, Heads::<true> { runs: runs(), k }, emit, &mut out, &mut tally),
        false => merge(query, Heads::<false> { runs: runs(), k }, emit, &mut out, &mut tally),
    };
    // Paid on the way out, error or not: the caller reads the clock next.
    tracker.record(CostEvent::TupleRead, tally.pops);
    tracker.record(CostEvent::TupleAgg, tally.combines);
    tracker.record(CostEvent::TupleWrite, tally.emitted);
    merged.and_then(|()| out.flush())?;
    Ok(Merged {
        rows: out.rows,
        strip_rows: tally.strip_rows,
        value_rows: tally.value_rows,
        written: out.written,
    })
}

/// What a merge did: pops (`t_r` each: the merge comparison work),
/// combines (`t_a`), emitted groups (`t_w`), and the run rows folded off
/// all-`Int` pages and as values.
#[derive(Default)]
struct Tally {
    pops: u64,
    combines: u64,
    emitted: u64,
    strip_rows: u64,
    value_rows: u64,
}

/// The merge loop: pop the winning head, fold it into the open group (or
/// close that group and open its own), advance its run and replay.
fn merge<const INT_KEYS: bool>(
    query: &AggQuery,
    mut heads: Heads<INT_KEYS>,
    emit: MergeEmit,
    out: &mut Out,
    tally: &mut Tally,
) -> Result<(), StorageError> {
    let (k, arity) = (heads.k, query.partial_row_arity());
    let leaves = (0..heads.runs.len())
        .map(|i| heads.advance(i, arity))
        .collect::<Result<_, _>>()?;
    let mut tree = Tournament::new(leaves, &heads);

    let mut states: Vec<AggState> = query.aggs.iter().map(|s| AggState::new(s.func)).collect();
    let widths: Vec<usize> = query.aggs.iter().map(|s| s.func.partial_arity()).collect();
    debug_assert!(widths.iter().all(|&n| n <= MAX_PARTIAL_ARITY));
    // Whether a group is open, its key, and that key's bits of the head
    // when `INT_KEYS`.
    let mut open_key: Vec<Value> = Vec::with_capacity(k);
    let mut open_int: Head = 0;
    let mut open = false;
    let mut scratch: Vec<Value> = Vec::new();
    let mut close = |key: &[Value], states: &mut [AggState], tally: &mut Tally| {
        tally.emitted += 1;
        let written = out.close(&Group { key, states, emit });
        for (state, spec) in states.iter_mut().zip(&query.aggs) {
            *state = AggState::new(spec.func);
        }
        written
    };

    loop {
        let head = tree.winner();
        if head & EXHAUSTED != 0 {
            break;
        }
        tally.pops += 1;
        let i = run_of(head);
        let run = &heads.runs[i];
        let same = open
            && match INT_KEYS {
                true => head >> 32 == open_int,
                false => run.key_is(&open_key),
            };
        if !same {
            if open {
                close(&open_key, &mut states, tally)?;
            }
            open = true;
            open_int = head >> 32;
            open_key.clear();
            open_key.extend((0..k).map(|j| run.cell(j)));
        }
        run.fold_into(k, &mut states, &widths, &mut scratch)?;
        match run.ints {
            true => tally.strip_rows += 1,
            false => tally.value_rows += 1,
        }
        tally.combines += 1;
        let next = heads.advance(i, arity)?;
        tree.replay(next, &heads);
    }
    if open {
        close(&open_key, &mut states, tally)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{AggFunc, AggSpec, CountingTracker, NullTracker, RowKind};

    fn query() -> AggQuery {
        AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
    }

    fn runs_from(groups_per_run: &[&[(i64, i64)]]) -> (Vec<SpillFile>, RowPages) {
        let mut runs = Vec::new();
        for rows in groups_per_run {
            let mut run = SpillFile::new(256);
            for &(g, v) in rows.iter() {
                run.spool(&[Value::Int(g), Value::Int(v)], &mut NullTracker)
                    .unwrap();
            }
            run.finish(&mut NullTracker);
            runs.push(run);
        }
        (runs, RowPages::new(256))
    }

    /// Merge to finalized rows, materialized.
    fn merged(runs: Vec<SpillFile>, resident: RowPages) -> Vec<Vec<Value>> {
        let out = merge_runs(&query(), runs, resident, MergeEmit::Finalized, &mut NullTracker);
        out.unwrap().rows.to_rows()
    }

    #[test]
    fn merges_disjoint_and_overlapping_runs() {
        let (runs, resident) =
            runs_from(&[&[(1, 10), (3, 30)], &[(2, 20), (3, 3)], &[(1, 1)]]);
        assert_eq!(
            merged(runs, resident),
            vec![
                vec![Value::Int(1), Value::Int(11)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(3), Value::Int(33)],
            ]
        );
    }

    #[test]
    fn resident_rows_participate() {
        let (runs, mut resident) = runs_from(&[&[(1, 10)]]);
        resident.push(&[Value::Int(0), Value::Int(5)][..]).unwrap();
        resident.push(&[Value::Int(1), Value::Int(2)][..]).unwrap();
        assert_eq!(
            merged(runs, resident),
            vec![
                vec![Value::Int(0), Value::Int(5)],
                vec![Value::Int(1), Value::Int(12)],
            ]
        );
    }

    #[test]
    fn empty_input_empty_output() {
        let out = merge_runs(
            &query(),
            Vec::new(),
            RowPages::new(256),
            MergeEmit::Finalized,
            &mut NullTracker,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn partial_emission_round_trips() {
        let (runs, resident) = runs_from(&[&[(7, 1)], &[(7, 2)]]);
        let partials =
            merge_runs(&query(), runs, resident, MergeEmit::Partial, &mut NullTracker).unwrap();
        assert_eq!(partials.len(), 1);
        assert_eq!((partials.strip_rows, partials.value_rows), (2, 0));
        // Feed the partial into a fresh builder and finalize.
        let mut b = crate::builder::RunBuilder::new(query(), 10, 256);
        b.push(RowKind::Partial, &partials.rows.to_rows()[0], &mut NullTracker)
            .unwrap();
        let (_, resident) = b.finish(&mut NullTracker).unwrap();
        assert_eq!(resident.to_rows(), vec![vec![Value::Int(7), Value::Int(3)]]);
    }

    #[test]
    fn output_is_globally_sorted() {
        let (runs, resident) = runs_from(&[
            &[(0, 1), (5, 1), (9, 1)],
            &[(2, 1), (5, 1), (7, 1)],
            &[(1, 1), (8, 1)],
        ]);
        let keys: Vec<i64> = merged(runs, resident)
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 5, 7, 8, 9]);
    }

    #[test]
    fn a_merge_that_fails_has_paid_for_what_it_did() {
        // Twelve 2-cell rows fill a 256-byte page; the run's second page
        // holds a row of the wrong arity, met as the head advances past
        // the twelfth row: twelve pops and folds, eleven groups closed.
        let mut run = SpillFile::new(256);
        for g in 0..12 {
            run.spool(&[Value::Int(g), Value::Int(1)], &mut NullTracker).unwrap();
        }
        run.spool(&[Value::Int(99), Value::Int(1), Value::Int(1)], &mut NullTracker)
            .unwrap();
        let mut tracker = CountingTracker::new();
        let out = merge_runs(&query(), vec![run], RowPages::new(256), MergeEmit::Finalized, &mut tracker);
        assert!(matches!(out, Err(StorageError::Model(ModelError::PartialArityMismatch { .. }))));
        let counts = [CostEvent::PageReadSeq, CostEvent::TupleRead, CostEvent::TupleAgg, CostEvent::TupleWrite];
        // Read back: two pages and their 13 rows; then 12 pops.
        assert_eq!(counts.map(|e| tracker.count(e)), [2, 13 + 12, 12, 11]);
    }

    #[test]
    fn a_run_page_of_the_wrong_arity_is_a_typed_error() {
        let mut run = SpillFile::new(256);
        run.spool(&[Value::Int(1), Value::Int(2), Value::Int(3)], &mut NullTracker)
            .unwrap();
        let out = merge_runs(
            &query(),
            vec![run],
            RowPages::new(256),
            MergeEmit::Finalized,
            &mut NullTracker,
        );
        assert_eq!(
            out.err(),
            Some(StorageError::Model(ModelError::PartialArityMismatch {
                expected: 2,
                found: 3
            }))
        );
    }
}
