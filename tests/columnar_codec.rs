//! Property-based codec suite for the columnar page layout.
//!
//! The `Page` re-layout (one contiguous strip per column) must be invisible
//! at every boundary: the row-major wire/file encoding (`encode_into` /
//! `from_raw`) is byte-for-byte the original format, the row cursor yields
//! exactly the pushed tuples, and the strip views expose the same cells the
//! cursor does. These tests drive all of that with random schemas, random
//! row counts, and the degenerate shapes (empty, single-row, page-full).

use adaptagg::model::{encode_tuple, encoded_len, Value};
use adaptagg::storage::{Page, PagePool, ScanBatch, StorageError, StripView};
use proptest::prelude::*;

/// A compact generator for one cell. Tag space deliberately covers the
/// Int fast path (dense), plus Null / Float / Str so strips promote.
fn cell_from(tag: u8, x: i64) -> Value {
    match tag % 4 {
        0 | 1 => Value::Int(x),
        2 => Value::Float(x as f64 / 3.0),
        3 => {
            if x % 5 == 0 {
                Value::Null
            } else {
                Value::Str(format!("s{x}").into())
            }
        }
        _ => unreachable!(),
    }
}

/// Build rows from a row-major list of (tag, payload) cells with the given
/// arity pattern; `ragged` widens every third row by one column.
fn rows_from(cells: &[(u8, i64)], arity: usize, ragged: bool) -> Vec<Vec<Value>> {
    let arity = arity.max(1);
    let mut rows = Vec::new();
    let mut it = cells.iter();
    'outer: loop {
        let a = if ragged && rows.len() % 3 == 2 {
            arity + 1
        } else {
            arity
        };
        let mut row = Vec::with_capacity(a);
        for _ in 0..a {
            match it.next() {
                Some(&(tag, x)) => row.push(cell_from(tag, x)),
                None => break 'outer,
            }
        }
        rows.push(row);
    }
    rows
}

/// Push rows until the page refuses; return the accepted prefix.
fn fill(page: &mut Page, rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut accepted = Vec::new();
    for row in rows {
        match page.try_push(row) {
            Ok(true) => accepted.push(row.clone()),
            Ok(false) => break,
            Err(e) => panic!("tuple should fit a fresh page: {e}"),
        }
    }
    accepted
}

/// Cursor must replay exactly the accepted rows, in order.
fn assert_cursor_matches(page: &Page, expect: &[Vec<Value>]) {
    let mut cur = page.cursor();
    let mut scratch = Vec::new();
    for (i, row) in expect.iter().enumerate() {
        assert_eq!(cur.remaining(), expect.len() - i);
        assert!(cur.next_into(&mut scratch).unwrap());
        assert_eq!(&scratch, row, "row {i} diverged");
    }
    assert!(!cur.next_into(&mut scratch).unwrap());
    assert_eq!(cur.remaining(), 0);
}

/// Strip views must expose the same cells the cursor yields, and the Int
/// fast-path view may only appear for all-Int columns.
fn assert_strips_match(page: &Page, expect: &[Vec<Value>]) {
    let Some(arity) = page.uniform_arity() else {
        // Ragged page: every column either reports None or is unused here.
        return;
    };
    for j in 0..arity {
        let view = page
            .column(j)
            .unwrap_or_else(|| panic!("uniform-arity page must expose column {j}"));
        match view {
            StripView::Ints(xs) => {
                assert_eq!(xs.len(), expect.len());
                for (r, row) in expect.iter().enumerate() {
                    assert_eq!(row[j], Value::Int(xs[r]), "int strip col {j} row {r}");
                }
            }
            StripView::Values(vs) => {
                assert_eq!(vs.len(), expect.len());
                let mut all_int = true;
                for (r, row) in expect.iter().enumerate() {
                    assert_eq!(row[j], vs[r], "value strip col {j} row {r}");
                    all_int &= matches!(row[j], Value::Int(_));
                }
                assert!(
                    expect.is_empty() || !all_int,
                    "all-Int column {j} should use the Ints fast path"
                );
            }
        }
    }
}

/// Encode → from_raw must be a lossless roundtrip, and the byte budget
/// accounting (`bytes_used`) must equal the real encoded size.
fn assert_roundtrip(page: &Page, expect: &[Vec<Value>]) {
    let mut bytes = Vec::new();
    page.encode_into(&mut bytes);
    assert_eq!(bytes.len(), page.bytes_used(), "bytes_used must be exact");
    let want: usize = expect.iter().map(|r| encoded_len(r)).sum();
    assert_eq!(bytes.len(), want, "encoding must match the row-major format");
    let back = Page::from_raw(page.capacity(), bytes, page.tuple_count() as u32).unwrap();
    assert_eq!(&back, page, "decode(encode(page)) != page");
    assert_cursor_matches(&back, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random schema, random rows, random page capacity: push, then check
    /// cursor replay, strip views, and the encode/decode roundtrip.
    #[test]
    fn prop_columnar_roundtrip(
        cells in proptest::collection::vec((0u8..8, -500i64..500), 0..160),
        arity in 1usize..5,
        capacity in 64usize..1024,
        ragged in 0u8..2,
    ) {
        let rows = rows_from(&cells, arity, ragged == 1);
        let mut page = Page::new(capacity);
        let accepted = fill(&mut page, &rows);
        prop_assert_eq!(page.tuple_count(), accepted.len());
        assert_cursor_matches(&page, &accepted);
        assert_strips_match(&page, &accepted);
        assert_roundtrip(&page, &accepted);
    }

    /// A cleared page behaves exactly like a fresh one (the pool reuses
    /// pages, so stale strip state must never leak into the next fill).
    #[test]
    fn prop_cleared_page_equals_fresh(
        cells in proptest::collection::vec((0u8..8, -500i64..500), 0..120),
        arity in 1usize..4,
    ) {
        let rows = rows_from(&cells, arity, false);
        let mut reused = Page::new(512);
        // Dirty the page with promoted strips, then clear.
        reused.try_push(&[Value::Str("warm".into()), Value::Null]).unwrap();
        reused.try_push(&[Value::Int(7), Value::Float(1.5)]).unwrap();
        reused.clear();
        let mut fresh = Page::new(512);
        let a = fill(&mut reused, &rows);
        let b = fill(&mut fresh, &rows);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&reused, &fresh);
        let mut ra = Vec::new();
        let mut rb = Vec::new();
        reused.encode_into(&mut ra);
        fresh.encode_into(&mut rb);
        prop_assert_eq!(ra, rb, "reused page must encode identically");
    }

    /// Appending a batch's rows strip to strip (`try_push_row` of
    /// `batch.row(r)`) is appending the materialized rows (`try_push`): the
    /// same row is the first one refused, and every page sealed on the way
    /// is the same page — logically, in its wire bytes and in its byte
    /// count. Columns
    /// mix `Int`s with later `Str`/`Float`/`Null` cells, so destination
    /// strips promote mid-page; sealed pages go back to a pool and come
    /// out again, so stale strip state would show.
    #[test]
    fn prop_strip_appends_equal_row_appends(
        cells in proptest::collection::vec((0u8..8, -500i64..500), 1..300),
        arity in 1usize..5,
        projection in proptest::collection::vec(0usize..4, 0..4),
        capacity in 64usize..400,
    ) {
        let rows = rows_from(&cells, arity, false);
        let mut source = Page::new(1 << 16);
        prop_assert_eq!(fill(&mut source, &rows).len(), rows.len());
        let columns: Vec<usize> = projection.iter().map(|c| c % arity).collect();
        let project = |row: &Vec<Value>| -> Vec<Value> {
            if columns.is_empty() {
                row.clone()
            } else {
                columns.iter().map(|&c| row[c].clone()).collect()
            }
        };
        let Ok(batch) = ScanBatch::scanned(&source, &columns, None, rows.len()) else {
            // No rows at all: nothing to append.
            prop_assert!(rows.is_empty());
            return Ok(());
        };
        let mut pool = PagePool::new();
        let (mut by_row, mut by_strip) = (Page::new(capacity), pool.get(capacity));
        for (r, row) in rows.iter().enumerate() {
            let row = project(row);
            let stored = by_row.try_push(&row).unwrap();
            prop_assert_eq!(by_strip.try_push_row(&batch.row(r)).unwrap(), stored, "row {}", r);
            if stored {
                continue;
            }
            prop_assert_eq!(&by_strip, &by_row, "page sealed at row {}", r);
            prop_assert_eq!(by_strip.bytes_used(), by_row.bytes_used());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            by_row.encode_into(&mut a);
            by_strip.encode_into(&mut b);
            prop_assert_eq!(a, b, "wire bytes of the page sealed at row {}", r);
            // Seal: the row lane starts a fresh page, the strip lane a
            // pooled one that has held other rows.
            pool.put(std::mem::replace(&mut by_strip, Page::new(0)));
            by_strip = pool.get(capacity);
            by_row = Page::new(capacity);
            prop_assert!(by_row.try_push(&row).unwrap());
            prop_assert!(by_strip.try_push_row(&batch.row(r)).unwrap());
        }
        prop_assert_eq!(&by_strip, &by_row, "the open page");
        assert_cursor_matches(&by_strip, &by_row.decode_all().unwrap());
        assert_roundtrip(&by_strip, &by_row.decode_all().unwrap());
    }
}

/// The `i`-th row of the typed-lane property: an all-`Int` row of `arity`
/// cells, except the breaker at `at` — a `Str`, NULL or `Float` cell, a
/// row one cell shorter or one longer (kinds 0-4; 5 = no breaker).
fn lane_row(i: usize, arity: usize, at: usize, breaker: u8, x: i64) -> Vec<Value> {
    let x = x + i as i64;
    let mut row: Vec<Value> = (0..arity as i64).map(|j| Value::Int(x * 7 - j)).collect();
    if i == at {
        match breaker {
            0 => row[arity / 2] = Value::Str(format!("s{x}").into()),
            1 => row[0] = Value::Null,
            2 => row[arity - 1] = Value::Float(x as f64 / 4.0),
            3 => drop(row.pop()),
            4 => row.push(Value::Int(-x)),
            _ => {}
        }
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The typed append lane inside `try_push_row` admits by the byte
    /// model alone: a row is stored iff `encoded_len(row)` fits what the
    /// page has left (and is refused with `TupleTooLarge` iff it fits no
    /// page), every page sealed on the way encodes to exactly its rows'
    /// row-major bytes, and column `j` is an `Ints` view exactly while
    /// every cell `j` on the page is an `Int`. The rows are all-`Int` of
    /// one arity until a breaker (a `Str`, NULL or `Float` cell, a shorter
    /// or longer row) lands mid-page, then all-`Int` again; they arrive as
    /// value slices and as rows of another page, alternately; and every
    /// page after the first is the first one cleared and refilled, its
    /// strips stale from the rows it held before.
    #[test]
    fn prop_typed_lane_admits_by_the_byte_model(
        arity in 1usize..5,
        rows in 1usize..160,
        at in 0usize..160,
        breaker in 0u8..6,
        x in -1000i64..1000,
        capacity in 40usize..700,
        warm in 0u8..2,
    ) {
        let rows: Vec<Vec<Value>> = (0..rows).map(|i| lane_row(i, arity, at, breaker, x)).collect();
        let mut source = Page::new(1 << 16);
        prop_assert_eq!(fill(&mut source, &rows).len(), rows.len());
        let mut page = Page::new(capacity);
        if warm == 1 {
            // Stale strips, two promoted and as wide as most rows to come.
            page.try_push(&[Value::Str("w".into()), Value::Null, Value::Int(2), Value::Int(3)]).unwrap();
            page.clear();
        }
        let mut on_page: Vec<Vec<Value>> = Vec::new();
        let seal = |page: &mut Page, on_page: &mut Vec<Vec<Value>>| -> Result<(), String> {
            let mut bytes = Vec::new();
            page.encode_into(&mut bytes);
            let mut expect = Vec::new();
            on_page.iter().for_each(|row| { encode_tuple(row, &mut expect); });
            prop_assert_eq!(bytes, expect);
            page.clear();
            on_page.clear();
            Ok(())
        };
        for (i, (row, cells)) in rows.iter().zip(source.rows()).enumerate() {
            let n = encoded_len(row);
            let pushed = if i % 2 == 0 { page.try_push(row) } else { page.try_push_row(&cells) };
            match pushed {
                Err(e) => {
                    prop_assert!(n > capacity, "row {} of {} bytes refused: {:?}", i, n, e);
                    continue;
                }
                Ok(false) => {
                    prop_assert!(n <= capacity && page.bytes_used() + n > capacity, "row {} refused", i);
                    seal(&mut page, &mut on_page)?;
                    prop_assert!(page.try_push(row).unwrap(), "a cleared page takes row {}", i);
                }
                Ok(true) => prop_assert!(on_page.iter().map(|r| encoded_len(r)).sum::<usize>() + n <= capacity),
            }
            on_page.push(row.clone());
            prop_assert_eq!(page.bytes_used(), on_page.iter().map(|r| encoded_len(r)).sum::<usize>());
            let min_arity = on_page.iter().map(Vec::len).min().unwrap();
            for j in 0..min_arity {
                let all_int = on_page.iter().all(|r| matches!(r[j], Value::Int(_)));
                let ints = matches!(page.column(j), Some(StripView::Ints(_)));
                prop_assert_eq!(ints, all_int, "column {} after row {}", j, i);
            }
        }
        assert_cursor_matches(&page, &on_page);
        seal(&mut page, &mut on_page)?;
    }
}

/// A row no page of the capacity can hold is the same typed error from
/// either append, and neither leaves anything behind.
#[test]
fn oversized_rows_are_refused_alike_by_both_appends() {
    let wide = vec![Value::Int(1), Value::Str("x".repeat(100).into())];
    let mut source = Page::new(4096);
    assert!(source.try_push(&wide).unwrap());
    let batch = ScanBatch::whole(&source).unwrap();
    let (mut by_row, mut by_strip) = (Page::new(64), Page::new(64));
    let expect = StorageError::TupleTooLarge {
        tuple_bytes: encoded_len(&wide),
        page_bytes: 64,
    };
    assert_eq!(by_row.try_push(&wide).unwrap_err(), expect);
    assert_eq!(by_strip.try_push_row(&batch.row(0)).unwrap_err(), expect);
    assert_eq!(by_strip, Page::new(64));
    assert_eq!(by_row, Page::new(64));
}

/// The empty page: zero tuples, zero bytes, a clean roundtrip, and no
/// column views (there is no schema yet).
#[test]
fn empty_page_roundtrips() {
    let page = Page::new(256);
    assert_eq!(page.tuple_count(), 0);
    assert_eq!(page.bytes_used(), 0);
    assert!(page.is_empty());
    assert_eq!(page.uniform_arity(), None);
    assert_eq!(page.column(0), None);
    assert_cursor_matches(&page, &[]);
    assert_roundtrip(&page, &[]);
}

/// Single-row pages across every tag shape.
#[test]
fn single_row_pages_roundtrip() {
    let rows: Vec<Vec<Value>> = vec![
        vec![Value::Int(-9)],
        vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        vec![Value::Null],
        vec![Value::Float(0.25), Value::Str("".into())],
        vec![Value::Str("solo".into()), Value::Null, Value::Int(0)],
    ];
    for row in rows {
        let mut page = Page::new(256);
        assert!(page.try_push(&row).unwrap());
        let expect = vec![row];
        assert_eq!(page.uniform_arity(), Some(expect[0].len()));
        assert_cursor_matches(&page, &expect);
        assert_strips_match(&page, &expect);
        assert_roundtrip(&page, &expect);
    }
}

/// Fill a small page to the brim: admission must stop exactly at the byte
/// budget, and the full page must still roundtrip.
#[test]
fn max_capacity_page_roundtrips() {
    let row = vec![Value::Int(42), Value::Int(-42)];
    let per = encoded_len(&row);
    let capacity = per * 7 + per / 2; // room for exactly 7 rows
    let mut page = Page::new(capacity);
    let mut expect = Vec::new();
    while page.try_push(&row).unwrap() {
        expect.push(row.clone());
    }
    assert_eq!(expect.len(), 7);
    assert!(!page.fits(per));
    assert!(page.bytes_used() + per > capacity);
    assert_cursor_matches(&page, &expect);
    assert_strips_match(&page, &expect);
    assert_roundtrip(&page, &expect);
}

/// Mixed-arity (ragged) pages keep full row fidelity through the cursor
/// and the codec even though no column views are available.
#[test]
fn ragged_pages_roundtrip_without_views() {
    let rows = vec![
        vec![Value::Int(1)],
        vec![Value::Int(2), Value::Str("b".into())],
        vec![Value::Int(3), Value::Null, Value::Float(9.0)],
    ];
    let mut page = Page::new(512);
    for r in &rows {
        assert!(page.try_push(r).unwrap());
    }
    assert_eq!(page.uniform_arity(), None);
    assert_eq!(page.column(1), None, "ragged column must not expose a view");
    assert_cursor_matches(&page, &rows);
    assert_roundtrip(&page, &rows);
}
