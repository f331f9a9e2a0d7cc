//! K-way merge of sorted runs with aggregation.
//!
//! The merge never copies a run and never decodes a row of one: a run's
//! head is a `(page, row)` cursor over the column strips its pages
//! already are, a heap of run indices orders the heads by comparing the
//! key cells where they lie, equal keys fold their partial cells — `i64`s
//! read straight off `Int` strips — into one reused row of states, and
//! each closed group is appended to an output page. Nothing is allocated
//! per run row or per group.

use adaptagg_model::{
    AggQuery, AggState, CellRow, CellSink, CostEvent, CostTracker, IndexRow, ModelError, Value,
};
use adaptagg_storage::{Page, RowPages, SpillFile, StorageError, StripView};
use std::cmp::Ordering;

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

/// The head of every run, and the order the heap keeps them in.
struct Heads<'a> {
    runs: Vec<Run<'a>>,
    /// Run `i`'s head key as an `i64` when `int_keys`.
    ints: Vec<i64>,
    /// Every key of every run is a single `Int`: compare `ints`, not
    /// cells on the runs' pages.
    int_keys: bool,
    /// Key columns per row.
    k: usize,
}

impl Heads<'_> {
    /// Whether run `a`'s head sorts before run `b`'s under (key, run
    /// index) — `Value`'s total order over the key columns (`GroupKey`'s
    /// `Ord`), the index breaking ties deterministically.
    #[inline]
    fn less(&self, a: u32, b: u32) -> bool {
        let (ia, ib) = (a as usize, b as usize);
        let by_key = if self.int_keys {
            self.ints[ia].cmp(&self.ints[ib])
        } else {
            let (x, y) = (&self.runs[ia], &self.runs[ib]);
            let cells = x.strips[..self.k].iter().zip(&y.strips[..self.k]);
            cells
                .map(|(&s, &t)| cmp_cells(s, x.row, t, y.row))
                .find(|&o| o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        };
        by_key.then(a.cmp(&b)) == Ordering::Less
    }

    /// Move run `i`'s head to its next row; `false` when the run is done.
    fn advance(&mut self, i: usize, arity: usize) -> Result<bool, StorageError> {
        let run = &mut self.runs[i];
        let more = run.advance(arity)?;
        if more && self.int_keys {
            let StripView::Ints(xs) = run.strips[0] else {
                unreachable!("int_keys: every key strip is Int")
            };
            self.ints[i] = xs[run.row];
        }
        Ok(more)
    }
}

/// Min-heap of run indices ordered by [`Heads::less`].
struct RunHeap {
    items: Vec<u32>,
}

impl RunHeap {
    fn new(items: Vec<u32>, heads: &Heads) -> Self {
        let mut heap = RunHeap { items };
        for pos in (0..heap.items.len() / 2).rev() {
            heap.sift_down(pos, heads);
        }
        heap
    }

    fn top(&self) -> Option<u32> {
        self.items.first().copied()
    }

    /// Restore the heap after the top run's head changed.
    fn top_changed(&mut self, heads: &Heads) {
        self.sift_down(0, heads);
    }

    /// Drop the (exhausted) top run.
    fn remove_top(&mut self, heads: &Heads) {
        self.items.swap_remove(0);
        if !self.items.is_empty() {
            self.sift_down(0, heads);
        }
    }

    fn sift_down(&mut self, mut pos: usize, heads: &Heads) {
        let n = self.items.len();
        let item = self.items[pos];
        loop {
            let mut child = 2 * pos + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && heads.less(self.items[child + 1], self.items[child]) {
                child += 1;
            }
            if !heads.less(self.items[child], item) {
                break;
            }
            self.items[pos] = self.items[child];
            pos = child;
        }
        self.items[pos] = item;
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

/// Merge sorted runs (plus the resident in-memory run, which merges last
/// on a tie) into key-ordered output rows, combining equal keys' partial
/// states.
///
/// Charges: page reads + `t_r` per row for every sealed run (via the
/// spill machinery), `t_r` per heap pop (the merge comparison work — see
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
    let arity = query.partial_row_arity();
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
    let mut heads = Heads {
        runs: run_pages.iter().map(|pages| Run::new(pages)).collect(),
        ints: vec![0; run_pages.len()],
        int_keys,
        k,
    };
    let mut live = Vec::with_capacity(heads.runs.len());
    for i in 0..heads.runs.len() {
        if heads.advance(i, arity)? {
            live.push(i as u32);
        }
    }
    let mut heap = RunHeap::new(live, &heads);

    let mut rows = RowPages::new(page_bytes);
    let (mut strip_rows, mut value_rows) = (0u64, 0u64);
    // Heap pops (`t_r` each: the merge comparison work), combines (`t_a`)
    // and emitted groups (`t_w`).
    let (mut pops, mut combines, mut emitted) = (0u64, 0u64, 0u64);
    let mut states: Vec<AggState> = query.aggs.iter().map(|s| AggState::new(s.func)).collect();
    let widths: Vec<usize> = query.aggs.iter().map(|s| s.func.partial_arity()).collect();
    debug_assert!(widths.iter().all(|&n| n <= MAX_PARTIAL_ARITY));
    // Whether a group is open, its key, and that key as an `i64` when
    // `int_keys`.
    let mut open_key: Vec<Value> = Vec::with_capacity(k);
    let mut open_int = 0i64;
    let mut open = false;
    let mut scratch: Vec<Value> = Vec::new();
    let mut close = |key: &[Value], states: &mut [AggState]| {
        emitted += 1;
        let pushed = rows.push(&Group { key, states, emit });
        for (state, spec) in states.iter_mut().zip(&query.aggs) {
            *state = AggState::new(spec.func);
        }
        pushed
    };

    let mut merge = || -> Result<(), StorageError> {
        while let Some(top) = heap.top() {
            pops += 1;
            let i = top as usize;
            let run = &heads.runs[i];
            let same = open
                && match int_keys {
                    true => heads.ints[i] == open_int,
                    false => run.key_is(&open_key),
                };
            if !same {
                if open {
                    close(&open_key, &mut states)?;
                }
                open = true;
                open_int = heads.ints[i];
                open_key.clear();
                open_key.extend((0..k).map(|j| run.cell(j)));
            }
            run.fold_into(k, &mut states, &widths, &mut scratch)?;
            match run.ints {
                true => strip_rows += 1,
                false => value_rows += 1,
            }
            combines += 1;

            if heads.advance(i, arity)? {
                heap.top_changed(&heads);
            } else {
                heap.remove_top(&heads);
            }
        }
        if open {
            close(&open_key, &mut states)?;
        }
        Ok(())
    };
    let merged = merge();
    // Paid on the way out, error or not: the caller reads the clock next.
    tracker.record(CostEvent::TupleRead, pops);
    tracker.record(CostEvent::TupleAgg, combines);
    tracker.record(CostEvent::TupleWrite, emitted);
    merged.map(|()| Merged {
        rows,
        strip_rows,
        value_rows,
    })
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
