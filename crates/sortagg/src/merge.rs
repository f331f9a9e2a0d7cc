//! K-way merge of sorted runs with aggregation.
//!
//! The merge never copies a run: each run's pages are walked by a cursor
//! that decodes one row at a time into that run's *head* row, a heap of
//! run indices orders the heads by comparing their key columns in place,
//! and equal keys fold into one reused row of states. The only per-row
//! allocation is the output row of each emitted group.

use adaptagg_model::{AggQuery, AggState, CostEvent, CostTracker, ModelError, Value};
use adaptagg_storage::{Page, PageCursor, SpillFile, StorageError, StripView};
use std::cmp::Ordering;

/// What the merge emits per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeEmit {
    /// Finalized result columns.
    Finalized,
    /// Encoded partial-state columns.
    Partial,
}

/// Where one run's rows come from.
enum Source<'a> {
    /// A sealed run, read back page by page.
    Pages {
        rest: std::slice::Iter<'a, Page>,
        cursor: Option<PageCursor<'a>>,
    },
    /// The resident rows of the final run.
    Rows(std::vec::IntoIter<Vec<Value>>),
}

impl Source<'_> {
    /// Load the run's next row into `out`; `false` when exhausted.
    fn next_into(&mut self, out: &mut Vec<Value>) -> Result<bool, StorageError> {
        match self {
            Source::Pages { rest, cursor } => loop {
                if let Some(c) = cursor {
                    if c.next_into(out)? {
                        return Ok(true);
                    }
                }
                match rest.next() {
                    Some(page) => *cursor = Some(page.cursor()),
                    None => return Ok(false),
                }
            },
            Source::Rows(rows) => Ok(rows.next().map(|row| *out = row).is_some()),
        }
    }
}

/// The head row of every run, and the order the heap keeps them in.
struct Heads {
    rows: Vec<Vec<Value>>,
    /// `rows[i][0]` as an `i64` when `int_keys`.
    ints: Vec<i64>,
    /// Every key of every run is a single `Int`: compare `ints`, not
    /// `Value` slices.
    int_keys: bool,
    /// Key columns per row.
    k: usize,
}

impl Heads {
    /// Whether run `a`'s head sorts before run `b`'s under (key, run
    /// index) — `Value`'s total order over the key columns (`GroupKey`'s
    /// `Ord`), the index breaking ties deterministically.
    #[inline]
    fn less(&self, a: u32, b: u32) -> bool {
        let (ia, ib) = (a as usize, b as usize);
        let by_key = if self.int_keys {
            self.ints[ia].cmp(&self.ints[ib])
        } else {
            self.rows[ia][..self.k].cmp(&self.rows[ib][..self.k])
        };
        by_key.then(a.cmp(&b)) == Ordering::Less
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

/// Merge sorted runs (plus the resident in-memory rows of the final run)
/// into key-ordered output rows, combining equal keys' partial states.
///
/// Charges: page reads + `t_r` per row for every run, in run order,
/// before the first row is merged (via the spill machinery), then `t_r`
/// per heap pop (the merge comparison work — see the crate's cost-parity
/// note), `t_a` per combine, and `t_w` per emitted row.
pub fn merge_runs<T: CostTracker>(
    query: &AggQuery,
    runs: Vec<SpillFile>,
    resident: Vec<Vec<Value>>,
    emit: MergeEmit,
    tracker: &mut T,
) -> Result<Vec<Vec<Value>>, StorageError> {
    let k = query.group_by.len();
    let arity = query.partial_row_arity();
    let out_arity = match emit {
        MergeEmit::Finalized => query.result_row_arity(),
        MergeEmit::Partial => arity,
    };

    // Read every run back. The pages stay where they are; the rows are
    // decoded one at a time as the merge reaches them.
    let run_pages: Vec<Vec<Page>> = runs
        .into_iter()
        .map(|run| {
            let mut pages = Vec::with_capacity(run.sealed_pages() + 1);
            run.drain_pages(tracker, |t, page| {
                for _ in 0..page.tuple_count() {
                    t.record(CostEvent::TupleRead, 1);
                }
                pages.push(page);
            });
            pages
        })
        .collect();

    let int_keys = k == 1
        && run_pages
            .iter()
            .flatten()
            .all(|page| matches!(page.column(0), Some(StripView::Ints(_))))
        && resident
            .iter()
            .all(|row| matches!(row.first(), Some(Value::Int(_))));
    let mut sources: Vec<Source<'_>> = run_pages
        .iter()
        .map(|pages| Source::Pages {
            rest: pages.iter(),
            cursor: None,
        })
        .collect();
    sources.push(Source::Rows(resident.into_iter()));

    let mut heads = Heads {
        rows: vec![Vec::new(); sources.len()],
        ints: vec![0; sources.len()],
        int_keys,
        k,
    };
    // Load run `i`'s next row as its head; `false` when the run is done.
    let mut advance = |heads: &mut Heads, i: usize| -> Result<bool, StorageError> {
        let row = &mut heads.rows[i];
        if !sources[i].next_into(row)? {
            return Ok(false);
        }
        if row.len() != arity {
            return Err(ModelError::PartialArityMismatch {
                expected: arity,
                found: row.len(),
            }
            .into());
        }
        if int_keys {
            if let Value::Int(x) = row[0] {
                heads.ints[i] = x;
            }
        }
        Ok(true)
    };

    let mut live = Vec::with_capacity(heads.rows.len());
    for i in 0..heads.rows.len() {
        if advance(&mut heads, i)? {
            live.push(i as u32);
        }
    }
    let mut heap = RunHeap::new(live, &heads);

    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut states: Vec<AggState> = query.aggs.iter().map(|s| AggState::new(s.func)).collect();
    // The open group's output row: its key now, its aggregates on close.
    let mut open: Option<Vec<Value>> = None;
    let mut close = |mut row: Vec<Value>, states: &mut [AggState], tracker: &mut T| {
        tracker.record(CostEvent::TupleWrite, 1);
        for (state, spec) in states.iter_mut().zip(&query.aggs) {
            match emit {
                MergeEmit::Finalized => row.push(state.finalize()),
                MergeEmit::Partial => state.to_partial_values(&mut row),
            }
            *state = AggState::new(spec.func);
        }
        out.push(row);
    };

    while let Some(top) = heap.top() {
        tracker.record(CostEvent::TupleRead, 1); // merge comparison work
        let i = top as usize;
        let row = &heads.rows[i];
        if !matches!(&open, Some(group) if group[..k] == row[..k]) {
            if let Some(done) = open.take() {
                close(done, &mut states, tracker);
            }
            let mut group = Vec::with_capacity(out_arity);
            group.extend_from_slice(&row[..k]);
            open = Some(group);
        }
        AggState::merge_partial_row(&mut states, &row[k..])?;
        tracker.record(CostEvent::TupleAgg, 1);

        if advance(&mut heads, i)? {
            heap.top_changed(&heads);
        } else {
            heap.remove_top(&heads);
        }
    }
    if let Some(done) = open {
        close(done, &mut states, tracker);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{AggFunc, AggSpec, NullTracker, RowKind};

    fn query() -> AggQuery {
        AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
    }

    fn runs_from(groups_per_run: &[&[(i64, i64)]]) -> (Vec<SpillFile>, Vec<Vec<Value>>) {
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
        (runs, Vec::new())
    }

    #[test]
    fn merges_disjoint_and_overlapping_runs() {
        let (runs, resident) =
            runs_from(&[&[(1, 10), (3, 30)], &[(2, 20), (3, 3)], &[(1, 1)]]);
        let out = merge_runs(&query(), runs, resident, MergeEmit::Finalized, &mut NullTracker)
            .unwrap();
        assert_eq!(
            out,
            vec![
                vec![Value::Int(1), Value::Int(11)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(3), Value::Int(33)],
            ]
        );
    }

    #[test]
    fn resident_rows_participate() {
        let (runs, _) = runs_from(&[&[(1, 10)]]);
        let resident = vec![vec![Value::Int(0), Value::Int(5)], vec![Value::Int(1), Value::Int(2)]];
        let out = merge_runs(&query(), runs, resident, MergeEmit::Finalized, &mut NullTracker)
            .unwrap();
        assert_eq!(
            out,
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
            Vec::new(),
            MergeEmit::Finalized,
            &mut NullTracker,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn partial_emission_round_trips() {
        let (runs, _) = runs_from(&[&[(7, 1)], &[(7, 2)]]);
        let partials =
            merge_runs(&query(), runs, Vec::new(), MergeEmit::Partial, &mut NullTracker).unwrap();
        assert_eq!(partials.len(), 1);
        // Feed the partial into a fresh builder and finalize.
        let mut b = crate::builder::RunBuilder::new(query(), 10, 256);
        b.push(RowKind::Partial, &partials[0], &mut NullTracker)
            .unwrap();
        let (_, resident) = b.finish(&mut NullTracker).unwrap();
        assert_eq!(resident, vec![vec![Value::Int(7), Value::Int(3)]]);
    }

    #[test]
    fn output_is_globally_sorted() {
        let (runs, _) = runs_from(&[
            &[(0, 1), (5, 1), (9, 1)],
            &[(2, 1), (5, 1), (7, 1)],
            &[(1, 1), (8, 1)],
        ]);
        let out =
            merge_runs(&query(), runs, Vec::new(), MergeEmit::Finalized, &mut NullTracker).unwrap();
        let keys: Vec<i64> = out.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![0, 1, 2, 5, 7, 8, 9]);
    }
}
