//! Heap files as column arenas plus a page table (DESIGN.md §22).
//!
//! A `HeapFile` holds one set of column strips for all of its rows and cuts
//! them into pages with a page table. Nothing a reader can see may tell it
//! from the file of owned pages it replaced: pages filled with
//! `Page::try_push_row` and sealed where one refuses a row. The property
//! below feeds both the same random row streams — `Int`, `Str`, `Float`
//! and NULL cells, ragged arities, runs of all-`Int` rows broken mid-page,
//! rows too large for any page — and compares them page by page: counts,
//! bytes, rows, wire bytes, arities, column strips, scanned batches, and a
//! persistence round trip. A clone taken mid-stream must not see the rows
//! appended after it.
//!
//! And the base relation streamed into its files (`generate_partitions`)
//! is the relation generated whole and then dealt (`generate_tuples` +
//! `round_robin_partitions`), page for page.

use adaptagg::model::{encoded_len, Value};
use adaptagg::storage::{persist, HeapFile, Page, PageView, ScanBatch, StorageError, StripView};
use adaptagg::workload::{generate_partitions, round_robin_partitions, RelationSpec};
use proptest::prelude::*;

/// Row `i` of a stream: mostly an all-`Int` row of `arity` cells (the
/// typed lane's food), or by `kind` one a cell wider or narrower, one with
/// a `Str`, NULL or `Float` cell, or one no page of the property's
/// capacities holds.
fn row_of(kind: u8, arity: usize, x: i64) -> Vec<Value> {
    let mut row: Vec<Value> = (0..arity as i64).map(|j| Value::Int(x * 7 - j)).collect();
    match kind {
        10 => row.push(Value::Int(-x)),
        11 => drop(row.pop()),
        12 => row[arity / 2] = Value::Str(format!("s{x}").into()),
        13 => row[0] = Value::Null,
        14 => row[arity - 1] = Value::Float(x as f64 / 4.0),
        15 => row = vec![Value::Int(x), Value::Str("x".repeat(800).into())],
        _ => {}
    }
    row
}

/// The reference: owned pages of `capacity`, one sealed where it refuses a
/// row; a row that fits no page is refused with the page's error.
fn reference_append(
    pages: &mut Vec<Page>,
    capacity: usize,
    row: &[Value],
) -> Result<(), StorageError> {
    if let Some(open) = pages.last_mut() {
        if open.try_push(row)? {
            return Ok(());
        }
    }
    let mut page = Page::new(capacity);
    assert!(page.try_push(row)?, "a fresh page takes a row that fits");
    pages.push(page);
    Ok(())
}

/// A column strip's cells as values, whichever lane holds them.
fn cells(strip: StripView<'_>) -> Vec<Value> {
    match strip {
        StripView::Ints(xs) => xs.iter().map(|&x| Value::Int(x)).collect(),
        StripView::Values(vs) => vs.to_vec(),
    }
}

/// `file` is `reference`, page by page, as every reader sees it; and a
/// column is an `Int` strip exactly while every cell of it in the file is
/// an `Int` (columns are typed for the whole file).
fn assert_same_pages(file: &HeapFile, reference: &[Page], what: &str) -> Result<(), String> {
    prop_assert_eq!(file.page_count(), reference.len(), "{}: pages", what);
    let rows = reference.iter().map(Page::tuple_count).sum::<usize>();
    prop_assert_eq!(file.tuple_count(), rows, "{}: tuples", what);
    let bytes = reference.iter().map(Page::bytes_used).sum::<usize>();
    prop_assert_eq!(file.bytes_used(), bytes, "{}: bytes", what);
    let all_rows: Vec<Vec<Value>> = file.iter_untracked().map(Result::unwrap).collect();
    let int_column = |j: usize| {
        all_rows
            .iter()
            .all(|row| row.get(j).is_none_or(|v| matches!(v, Value::Int(_))))
    };
    for (pi, (page, expect)) in file.pages().zip(reference).enumerate() {
        prop_assert_eq!(page, expect.view(), "{}: page {}", what, pi);
        prop_assert_eq!(page.tuple_count(), expect.tuple_count());
        prop_assert_eq!(page.bytes_used(), expect.bytes_used());
        prop_assert_eq!(page.decode_all().unwrap(), expect.decode_all().unwrap());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        page.encode_into(&mut a);
        expect.encode_into(&mut b);
        prop_assert_eq!(a, b, "{}: wire bytes of page {}", what, pi);
        prop_assert_eq!(page.min_arity(), expect.min_arity());
        prop_assert_eq!(page.uniform_arity(), expect.uniform_arity());
        let widest = expect
            .iter()
            .map(|row| row.unwrap().len())
            .max()
            .unwrap_or(0);
        for j in 0..=widest {
            match (page.column(j), expect.column(j)) {
                (None, None) => {}
                (Some(got), Some(want)) => {
                    prop_assert_eq!(
                        cells(got),
                        cells(want),
                        "{}: page {} column {}",
                        what,
                        pi,
                        j
                    );
                    prop_assert_eq!(
                        matches!(got, StripView::Ints(_)),
                        int_column(j),
                        "{}: column {} typing",
                        what,
                        j
                    );
                }
                (got, want) => prop_assert!(
                    false,
                    "{}: page {} column {}: {:?} vs {:?}",
                    what,
                    pi,
                    j,
                    got,
                    want
                ),
            }
        }
    }
    Ok(())
}

/// What a consumer of a scan of `page`'s last three quarters through
/// `columns`, two rows in three passing, reads: the projected strips, then
/// the passing rows.
fn scanned(page: PageView<'_>, columns: &[usize]) -> Result<[Vec<Vec<Value>>; 2], String> {
    let rows = page.tuple_count() / 4..page.tuple_count();
    let selection: Vec<u32> = (0..rows.len() as u32).filter(|r| r % 3 != 1).collect();
    let batch = ScanBatch::scanned_rows(page, columns, Some(&selection), rows)
        .map_err(|e| e.to_string())?;
    let strips = (0..batch.arity()).map(|j| cells(batch.column(j))).collect();
    let mut row = Vec::new();
    let passing = (0..batch.passing())
        .map(|i| {
            batch.read_row(batch.passing_row(i), &mut row);
            row.clone()
        })
        .collect();
    Ok([strips, passing])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_heap_file_pages_are_owned_pages(
        stream in proptest::collection::vec((0u8..16, -300i64..300), 0..400),
        arity in 1usize..5,
        capacity in 40usize..700,
        clone_at in 0usize..400,
        projection in proptest::collection::vec(0usize..5, 0..3),
    ) {
        let rows: Vec<Vec<Value>> = stream.iter().map(|&(kind, x)| row_of(kind, arity, x)).collect();
        // Every row on one page, so each can also arrive as another page's
        // row read off its strips.
        let mut source = Page::new(1 << 20);
        rows.iter().for_each(|row| assert!(source.try_push(row).unwrap()));

        let (mut file, mut reference) = (HeapFile::new(capacity), Vec::new());
        let mut snapshot = None;
        for (i, (row, cells)) in rows.iter().zip(source.rows()).enumerate() {
            if i == clone_at {
                snapshot = Some((file.clone(), reference.clone()));
            }
            let got = if i % 2 == 0 { file.append(row) } else { file.append_row(&cells) };
            let want = reference_append(&mut reference, capacity, row);
            prop_assert_eq!(got.is_err(), encoded_len(row) > capacity, "row {}", i);
            prop_assert_eq!(got, want, "row {}", i);
        }
        assert_same_pages(&file, &reference, "file")?;
        if let Some((clone, at_clone)) = snapshot {
            assert_same_pages(&clone, &at_clone, "clone")?;
        }

        let columns: Vec<usize> = projection.iter().map(|c| c % (arity + 1)).collect();
        for (page, expect) in file.pages().zip(&reference) {
            prop_assert_eq!(scanned(page, &columns), scanned(expect.view(), &columns));
        }

        let image = persist::to_bytes(&file);
        let back = persist::from_bytes(&image).unwrap();
        assert_same_pages(&back, &reference, "reloaded")?;
        prop_assert_eq!(persist::to_bytes(&back), image);
    }
}

/// The streamed base relation is the dealt one, page for page, over seeds,
/// sizes, group counts, node counts and tuple widths.
#[test]
fn streamed_partitions_are_the_dealt_relation() {
    let shapes = [
        (7, 20_000, 64, 1, 100),
        (11, 12_345, 997, 3, 100),
        (0x5eed, 4_000, 1, 4, 100),
        (3, 9_000, 4_500, 2, 40),
        (5, 10, 100, 8, 100),
        (9, 0, 1, 2, 100),
    ];
    for (seed, tuples, groups, nodes, width) in shapes {
        let spec = RelationSpec::uniform(tuples, groups)
            .with_seed(seed)
            .with_tuple_bytes(width);
        let streamed = generate_partitions(&spec, nodes);
        let dealt = round_robin_partitions(&spec.generate_tuples(), nodes, 4096);
        assert_eq!(streamed.len(), nodes);
        for (n, (got, want)) in streamed.iter().zip(&dealt).enumerate() {
            let shape = format!("seed {seed}, {tuples} x {groups}, node {n} of {nodes}");
            assert_eq!(got.page_count(), want.page_count(), "{shape}");
            assert_eq!(got.tuple_count(), want.tuple_count(), "{shape}");
            assert_eq!(got.bytes_used(), want.bytes_used(), "{shape}");
            for (pi, (a, b)) in got.pages().zip(want.pages()).enumerate() {
                assert_eq!(a, b, "{shape}, page {pi}");
            }
        }
    }
}
