//! The column lane against the cell walk, writer by writer.
//!
//! Four writers put a group store's partial rows on pages: Sort-2P's run
//! seals (to a `SpillFile`) and its resident run (to `RowPages`), the run
//! merge's closed groups, and the hash table's partial drain. Each writes a
//! column at a time when every cell is an `Int`, and cell by cell
//! otherwise. Either way the pages must be those of the rows pushed one by
//! one through the cell walk: the same bytes, the same page boundaries,
//! the same page writes charged and the same `t_w` per row. A fifth puts
//! the rows a hash table bounced off a batch into overflow buckets
//! (`OverflowSet::spool_batch`), against spooling each row on its own.
//!
//! The inputs cover both lanes and the edges between them: NULL sums,
//! sums past `i64` (a `Float` partial), MIN/MAX no input reached, AVG with
//! a count of zero, `Str` keys, one- to three-column `Int` keys, `Float`
//! inputs that demote a state column, a grant shrunk mid-scan, pages too
//! small for one row, and output pages whose last page is already off the
//! typed lane.

use adaptagg::hashagg::{AggTable, FullPolicy, HashAggregator, OverflowSet};
use adaptagg::model::{
    AggFunc, AggQuery, AggSpec, CellRow, CostEvent, CostTracker, CountingTracker, GroupRow,
    GroupStore, IndexRow, LaneRows, MemoryGrant, NullTracker, RowKind, SortScratch, Value,
};
use adaptagg::sortagg::merge::MergeEmit;
use adaptagg::sortagg::{merge_runs, RowPages, RunBuilder};
use adaptagg::storage::{Page, ScanBatch, SpillFile, StorageError};
use proptest::prelude::*;

const EVENTS: [CostEvent; 5] = [
    CostEvent::TupleRead,
    CostEvent::TupleWrite,
    CostEvent::TupleAgg,
    CostEvent::PageWriteSeq,
    CostEvent::PageReadSeq,
];

/// `keys` key columns, then the input column under every typed function
/// (`funcs` 0), under MIN and MAX alone (1), under AVG alone (2), or under
/// SUM alone (3) — each beside a COUNT(*), so that a NULL cell of one
/// function is not hidden by another's.
fn query(keys: usize, funcs: u8) -> AggQuery {
    let over = |func| AggSpec::over(func, keys);
    let aggs = match funcs % 4 {
        0 => vec![
            over(AggFunc::Sum),
            AggSpec::count_star(),
            over(AggFunc::Min),
            over(AggFunc::Max),
            over(AggFunc::Avg),
            over(AggFunc::Count),
        ],
        1 => vec![over(AggFunc::Min), AggSpec::count_star(), over(AggFunc::Max)],
        2 => vec![AggSpec::count_star(), over(AggFunc::Avg)],
        _ => vec![over(AggFunc::Sum), AggSpec::count_star()],
    };
    AggQuery::new((0..keys).collect(), aggs)
}

/// What the input column holds beside small `Int`s.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Extra {
    /// Nothing: every partial cell is an `Int`.
    None,
    /// NULLs, and groups whose every input is NULL (a NULL sum, MIN and
    /// MAX no input reached, AVG with a count of zero).
    Nulls,
    /// Values near `i64::MAX`: sums past `i64` ship as `Float`s.
    Huge,
    /// `Float`s: they demote the SUM, MIN, MAX and AVG columns.
    Floats,
}

/// Raw rows of `keys` key columns (the first a `Str` with `str_keys`) and
/// one input column.
/// `cells` are (group number, input value, a tag picking the extras).
fn rows_of(keys: usize, str_keys: bool, extra: Extra, cells: &[(i64, i64, u8)]) -> Vec<Vec<Value>> {
    cells
        .iter()
        .map(|&(g, x, t)| {
            let mut row: Vec<Value> = (0..keys as i64).map(|j| Value::Int(g % (j * 7 + 101))).collect();
            if str_keys {
                row[0] = Value::from(format!("k{g}"));
            }
            row.push(match extra {
                Extra::Nulls if t % 3 == 0 || g % 5 == 0 => Value::Null,
                Extra::Huge if t % 4 == 0 => Value::Int(i64::MAX - x.abs()),
                Extra::Floats if t % 5 == 0 => Value::Float(x as f64 / 2.0),
                _ => Value::Int(x),
            });
            row
        })
        .collect()
}

fn extra_of(tag: u8) -> Extra {
    [Extra::None, Extra::None, Extra::Nulls, Extra::Huge, Extra::Floats][tag as usize % 5]
}

/// Page capacities: 64 bytes, too small for a row under every function
/// (74-92 bytes) and a row or one more of the others; some a few rows
/// wide; a disk page.
fn page_bytes_of(tag: u8) -> usize {
    [64, 128, 200, 512, 4096][tag as usize % 5]
}

/// Pages compared page for page: the same wire bytes, the same rows.
fn same_pages(got: &[Page], want: &[Page], what: &str) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len(), "{}: page count", what);
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let (mut x, mut y) = (Vec::new(), Vec::new());
        a.encode_into(&mut x);
        b.encode_into(&mut y);
        let differ = x.iter().zip(&y).position(|(a, b)| a != b);
        prop_assert!(x == y, "{} page {}: {} bytes against {}, first differing at {:?}", what, i, x.len(), y.len(), differ);
        prop_assert!(a == b, "{} page {}: cells", what, i);
    }
    Ok(())
}

fn same_counts(got: &CountingTracker, want: &CountingTracker, what: &str) -> Result<(), String> {
    for event in EVENTS {
        prop_assert_eq!(got.count(event), want.count(event), "{}: {:?}", what, event);
    }
    Ok(())
}

/// A sealed run's pages, read back uncharged.
fn pages_of(run: SpillFile) -> Vec<Page> {
    let mut pages = Vec::new();
    run.drain_pages(&mut NullTracker, |_, page| {
        pages.push(page);
        Ok(())
    })
    .unwrap();
    pages
}

/// `rows` pushed one by one through the cell walk, behind `prefix`.
fn cell_walk(prefix: &[Vec<Value>], rows: &[Vec<Value>], page_bytes: usize) -> Result<RowPages, StorageError> {
    let mut pages = RowPages::new(page_bytes);
    for row in prefix.iter().chain(rows) {
        pages.push(&row[..])?;
    }
    Ok(pages)
}

/// The cells of a group store's partial row.
fn cells_of(row: GroupRow<'_>) -> Vec<Value> {
    let mut cells = Vec::new();
    row.cells(&mut cells);
    cells
}

/// Every group of `store` in key order through the cell walk, charging
/// `t_w` for each row handed over: how runs were written before the column
/// lane.
fn write_cells<T: CostTracker>(
    store: &GroupStore,
    tracker: &mut T,
    mut put: impl FnMut(&mut T, &GroupRow<'_>) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    let (mut order, mut scratch) = (Vec::new(), SortScratch::default());
    store.sort_entries(&mut order, &mut scratch);
    let mut written = 0;
    let result = order.iter().try_for_each(|&e| {
        written += 1;
        put(tracker, &store.partial_row(e as usize))
    });
    tracker.record(CostEvent::TupleWrite, written);
    result
}

/// Run formation whose seals take the cell walk: the hash table under a
/// policy that seals a full table row by row, as the run builder's did.
struct CellWalkRuns {
    table: AggTable,
    sealer: CellWalkSealer,
}

struct CellWalkSealer {
    page_bytes: usize,
    runs: Vec<SpillFile>,
}

impl<T: CostTracker> FullPolicy<T> for CellWalkSealer {
    fn make_room(
        &mut self,
        table: &mut AggTable,
        tracker: &mut T,
        settle: impl FnOnce(&mut AggTable),
    ) -> Result<bool, StorageError> {
        if !table.is_empty() {
            settle(table);
            let mut run = SpillFile::new(self.page_bytes);
            write_cells(table.store(), tracker, |t, row| run.spool_row(row, t))?;
            run.finish(tracker);
            self.runs.push(run);
            table.clear();
        }
        Ok(true)
    }

    fn bounce(&mut self, _: &mut T, _: RowKind, _: &ScanBatch<'_>, _: usize) -> Result<bool, StorageError> {
        unreachable!("a run table makes room for every row")
    }
}

/// The merge's output against the cell walk of its own rows, and its `t_w`
/// against its group count.
fn merged_like_the_cell_walk(
    query: &AggQuery,
    runs: Vec<SpillFile>,
    resident: RowPages,
    emit: MergeEmit,
    page_bytes: usize,
) -> Result<Vec<Vec<Value>>, String> {
    let mut tracker = CountingTracker::new();
    let merged = merge_runs(query, runs, resident, emit, &mut tracker).unwrap();
    let rows = merged.rows.to_rows();
    prop_assert_eq!(tracker.count(CostEvent::TupleWrite), rows.len() as u64, "{:?}: t_w a group", emit);
    let written = merged.written;
    prop_assert_eq!(written.columns + written.cells, rows.len() as u64, "{:?}: every group on a lane", emit);
    // A group takes the column lane exactly when its every cell is an `Int`.
    let all_int = rows.iter().filter(|row| row.iter().all(|v| matches!(v, Value::Int(_))));
    prop_assert_eq!(written.columns, all_int.count() as u64, "{:?}: groups on the column lane", emit);
    let walked = cell_walk(&[], &rows, page_bytes).unwrap();
    same_pages(merged.rows.pages(), walked.pages(), &format!("merge {emit:?}"))?;
    Ok(rows)
}

proptest! {
    /// Run seals, the resident run and the run merge, against run formation
    /// whose seals take the cell walk and against the cell walk of the
    /// merged rows. Finalized rows match an unbounded hash table's.
    #[test]
    fn prop_runs_and_the_merge_write_the_cell_walks_pages(
        keys in 1usize..4,
        funcs in 0u8..4,
        str_keys in 0u8..4,
        extra in 0u8..5,
        page in 0u8..5,
        budget in 1usize..24,
        shrink in (0usize..400, 1usize..8),
        cells in proptest::collection::vec((0i64..60, -1_000i64..1_000, any::<u8>()), 0..400),
    ) {
        let (extra, page_bytes, str_keys) = (extra_of(extra), page_bytes_of(page), str_keys == 0);
        let query = query(keys, funcs);
        let rows = rows_of(keys, str_keys, extra, &cells);
        let (grant, reference_grant) = (MemoryGrant::bounded(budget), MemoryGrant::bounded(budget));
        let mut builder = RunBuilder::new(query.clone(), budget, page_bytes).with_grant(grant.clone());
        let mut reference = CellWalkRuns {
            table: AggTable::new(query.clone(), budget).with_grant(reference_grant.clone()),
            sealer: CellWalkSealer { page_bytes, runs: Vec::new() },
        };
        let (mut got, mut want) = (CountingTracker::new(), CountingTracker::new());
        let mut failed = None;
        for (i, row) in rows.iter().enumerate() {
            if i == shrink.0 {
                grant.set(shrink.1);
                reference_grant.set(shrink.1);
            }
            let a = builder.push(RowKind::Raw, row, &mut got);
            let b = reference.table.feed_row(RowKind::Raw, &row[..], &mut want, &mut reference.sealer).map(|_| ());
            prop_assert_eq!(&a, &b, "row {}", i);
            if a.is_err() {
                failed = Some(i);
                break;
            }
        }
        same_counts(&got, &want, "run formation")?;
        if failed.is_some() {
            return Ok(());
        }
        let finished = builder.finish(&mut got);
        let mut want_resident = RowPages::new(page_bytes);
        let written = write_cells(reference.table.store(), &mut want, |_, row| want_resident.push(row));
        same_counts(&got, &want, "runs written")?;
        let (runs, resident) = match (finished, written) {
            (Ok(finished), Ok(())) => finished,
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b, "the resident run's error");
                return Ok(());
            }
            (a, b) => return Err(format!("finished {:?}, the cell walk {b:?}", a.map(|_| ()))),
        };
        prop_assert_eq!(runs.len(), reference.sealer.runs.len(), "runs");
        let (mut got_runs, mut want_runs) = (Vec::new(), Vec::new());
        for (i, (a, b)) in runs.into_iter().zip(reference.sealer.runs).enumerate() {
            let (a, b) = (pages_of(a), pages_of(b));
            same_pages(&a, &b, &format!("run {i}"))?;
            got_runs.push(respool(&a, page_bytes));
            want_runs.push(respool(&b, page_bytes));
        }
        same_pages(resident.pages(), want_resident.pages(), "resident run")?;

        // The merge, emitting partial rows off one copy of the runs and
        // finalized rows off the other.
        merged_like_the_cell_walk(&query, got_runs, resident, MergeEmit::Partial, page_bytes)?;
        let finalized = merged_like_the_cell_walk(&query, want_runs, want_resident, MergeEmit::Finalized, page_bytes)?;
        if extra != Extra::Huge {
            // Sums past `i64` merge in floating point on one side only.
            let mut hashed = AggTable::new(query.clone(), usize::MAX);
            for row in &rows {
                hashed.insert(RowKind::Raw, &row[..], &mut NullTracker).unwrap();
            }
            let expect: Vec<Vec<Value>> =
                hashed.drain_result_rows(&mut NullTracker).into_iter().map(|r| r.into_values()).collect();
            prop_assert_eq!(finalized, expect, "finalized rows");
        }
    }

    /// The hash table's partial drain against the cell walk of the same
    /// groups in admission order, onto pages that start empty, on the lane
    /// at another arity, or off it (a `Str` row, a ragged row).
    #[test]
    fn prop_the_hash_drain_writes_the_cell_walks_pages(
        keys in 1usize..4,
        funcs in 0u8..4,
        str_keys in 0u8..4,
        extra in 0u8..5,
        page in 0u8..5,
        budget in 1usize..3_000,
        prefix in 0u8..4,
        cells in proptest::collection::vec((0i64..2_500, -1_000i64..1_000, any::<u8>()), 0..1_500),
    ) {
        let (extra, page_bytes, str_keys) = (extra_of(extra), page_bytes_of(page), str_keys == 0);
        let query = query(keys, funcs);
        let rows = rows_of(keys, str_keys, extra, &cells);
        let prefix: Vec<Vec<Value>> = match prefix {
            0 => Vec::new(),
            1 => vec![vec![Value::Int(7)], vec![Value::Int(8)]],
            2 => vec![vec![Value::Int(7)], vec![Value::from("off the lane")]],
            _ => vec![vec![Value::Int(7), Value::Int(8)], vec![Value::Int(9)]],
        };
        let mut table = AggTable::new(query.clone(), budget);
        for row in &rows {
            table.insert(RowKind::Raw, &row[..], &mut NullTracker).unwrap();
        }
        let groups: Vec<Vec<Value>> = (0..table.len()).map(|e| cells_of(table.store().partial_row(e))).collect();
        let all_int = groups.iter().flatten().all(|v| matches!(v, Value::Int(_)));
        let Ok(mut got) = cell_walk(&prefix, &[], page_bytes) else {
            return Ok(());
        };
        let mut tracker = CountingTracker::new();
        let drained = table.drain_partials(&mut tracker, &mut got);
        let want = cell_walk(&prefix, &groups, page_bytes);
        prop_assert_eq!(tracker.count(CostEvent::TupleWrite), groups.len() as u64, "t_w a group");
        prop_assert!(table.is_empty());
        let lanes = table.drains().partial_rows;
        prop_assert_eq!(lanes.columns + lanes.cells, groups.len() as u64, "every group on a lane");
        prop_assert!(lanes.columns == 0 || all_int, "a non-Int cell on the column lane");
        if extra == Extra::None && !str_keys {
            prop_assert_eq!(lanes, LaneRows { columns: groups.len() as u64, cells: 0 }, "all-Int groups");
        }
        match (drained, want) {
            (Ok(()), Ok(want)) => {
                same_pages(got.pages(), want.pages(), "drain")?;
                prop_assert_eq!(got.len(), want.len(), "rows");
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "the cell walk's error"),
            (a, b) => prop_assert!(false, "drained {:?}, the cell walk {:?}", a, b),
        }
    }

    /// A hash aggregator that overflows drains every bucket's table behind
    /// the last: each drain starts on whatever page the last one left —
    /// on the lane, or off it after a table that took the cell walk.
    #[test]
    fn prop_overflowing_drains_write_the_cell_walks_pages(
        keys in 1usize..3,
        funcs in 0u8..4,
        extra in 0u8..5,
        budget in 1usize..40,
        cells in proptest::collection::vec((0i64..200, -1_000i64..1_000, any::<u8>()), 0..600),
    ) {
        let query = query(keys, funcs);
        let rows = rows_of(keys, false, extra_of(extra), &cells);
        let mut agg = HashAggregator::new(query, budget, 256, 4);
        for row in &rows {
            agg.push(RowKind::Raw, row, &mut NullTracker).unwrap();
        }
        let (pages, stats) = agg.finish_partials(&mut NullTracker).unwrap();
        let lanes = stats.partial_rows;
        prop_assert_eq!(lanes.columns + lanes.cells, pages.len() as u64, "every row on a lane");
        let walked = cell_walk(&[], &pages.to_rows(), 256).unwrap();
        same_pages(pages.pages(), walked.pages(), "drains")?;
    }
}

/// An overflow set's buckets, each read back as its pages, uncharged.
fn buckets_of(set: OverflowSet, tracker: &mut CountingTracker) -> Vec<Vec<Page>> {
    set.into_buckets(tracker).into_iter().map(pages_of).collect()
}

proptest! {
    /// Bounced rows spooled a batch at a time against the same rows spooled
    /// one by one, materialized: the same buckets, page for page (cells,
    /// arities, wire bytes), the same `t_w` and page writes. Raw and
    /// partial batches of different projected arities — a reordering
    /// projection and a narrower one — alternate under a selection, so a
    /// bucket's open page often holds rows of the other arity when the next
    /// batch's run arrives. An all-`Int` batch takes the column lane; a
    /// batch with a `Str` key takes the per-row lane.
    #[test]
    fn prop_the_overflow_spool_writes_the_row_spools_pages(
        deep in any::<bool>(),
        fanout in 2usize..17,
        page in 0u8..5,
        str_every in 0i64..4,
        batches in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0i64..500, any::<u8>()), 1..120)),
            1..8,
        ),
    ) {
        let (level, page_bytes) = (if deep { 2 } else { 0 }, page_bytes_of(page));
        let mut by_batch = OverflowSet::new(fanout, page_bytes, level, 1);
        let mut by_row = OverflowSet::new(fanout, page_bytes, level, 1);
        let (mut got, mut want) = (CountingTracker::new(), CountingTracker::new());
        let mut values = Vec::new();
        let (mut rows_spooled, mut on_columns) = (0, 0);
        for (bi, (partial, cells)) in batches.iter().enumerate() {
            // Base rows (i, key, x, y); a `Str` key in every `str_every`-th
            // batch (none when 0).
            let str_key = str_every > 0 && bi as i64 % str_every == 0;
            let mut base = Page::new(1 << 16);
            for (i, &(g, t)) in cells.iter().enumerate() {
                let key = if str_key && t % 2 == 0 { Value::from(format!("k{g}")) } else { Value::Int(g) };
                let row = [Value::Int(i as i64), key, Value::Int(g * 3), Value::Int(t as i64)];
                prop_assert!(base.try_push(&row).unwrap());
            }
            let (kind, columns): (RowKind, &[usize]) = match partial {
                false => (RowKind::Raw, &[1, 0, 2]),
                true => (RowKind::Partial, &[1, 3]),
            };
            let n = base.tuple_count();
            let sel: Vec<u32> = (0..n as u32).filter(|&r| cells[r as usize].1 % 5 != 0).collect();
            let batch = ScanBatch::scanned(&base, columns, Some(&sel), n).unwrap();
            let bounced: Vec<u32> = sel.iter().copied().filter(|&r| cells[r as usize].1 % 3 != 0).collect();
            let a = by_batch.spool_batch(kind, &batch, &bounced, &mut got);
            let b = bounced.iter().try_for_each(|&r| {
                batch.read_row(r as usize, &mut values);
                by_row.spool(kind, &values[..], &mut want)
            });
            prop_assert_eq!(&a, &b, "batch {}", bi);
            if a.is_err() {
                return Ok(());
            }
            rows_spooled += bounced.len() as u64;
            if !str_key || cells.iter().all(|&(_, t)| t % 2 != 0) {
                on_columns += bounced.len() as u64;
            }
        }
        same_counts(&got, &want, "spooled")?;
        let lanes = by_batch.spooled_rows();
        prop_assert_eq!(lanes, LaneRows { columns: on_columns, cells: rows_spooled - on_columns }, "lanes");
        prop_assert_eq!(by_row.spooled_rows(), LaneRows { columns: 0, cells: rows_spooled }, "the row spool's lane");
        let (a, b) = (buckets_of(by_batch, &mut got), buckets_of(by_row, &mut want));
        same_counts(&got, &want, "buckets finished")?;
        prop_assert_eq!(a.len(), b.len(), "non-empty buckets");
        for (i, (a, b)) in a.iter().zip(&b).enumerate() {
            same_pages(a, b, &format!("bucket {i}"))?;
            let arities = |pages: &[Page]| -> Vec<usize> {
                pages.iter().flat_map(|p| p.rows().map(|row| row.arity()).collect::<Vec<_>>()).collect()
            };
            prop_assert_eq!(arities(a), arities(b), "bucket {} arities", i);
        }
    }
}

/// A run's pages as a fresh spill file: the merge takes runs by value.
fn respool(pages: &[Page], page_bytes: usize) -> SpillFile {
    let mut run = SpillFile::new(page_bytes);
    for page in pages {
        for row in page.rows() {
            run.spool_row(&row, &mut NullTracker).unwrap();
        }
    }
    run.finish(&mut NullTracker);
    run
}
