//! One layout behind every page (DESIGN.md §39).
//!
//! A page's strips are one column-major buffer for its `Int` cells, a
//! general strip only for a column that has seen another type, and
//! per-row arities only once a row's arity differs from the first's. An
//! owned page sizes that buffer for a page of its first row, a heap file
//! re-strides it as it grows. None of that may show: the property drives
//! random step sequences into pages drawn from a `PagePool` — typed runs
//! through `fill`, rows walked cell by cell (`Int`, `Str`, `Float` and
//! NULL cells, a row a cell wider or narrower), promotions after typed
//! rows, a page cleared and refilled at another arity, frames landed by
//! `from_raw` — and holds every page against one built row by row with
//! `try_push`: `==`, the rows (cells and arities), every column and its
//! typing, and the wire bytes. The pages then become one heap file, which
//! must read the same.

use adaptagg::model::{CellRow, IndexRow, KeyCell, Value};
use adaptagg::storage::{HeapFile, Page, PagePool, PageView, ScanBatch, StripView};
use proptest::prelude::*;

/// An all-`Int` row of `arity` cells, or by `kind` one a cell wider or
/// narrower, or one with a `Str`, NULL or `Float` cell.
fn row_of(kind: u8, arity: usize, x: i64) -> Vec<Value> {
    let mut row: Vec<Value> = (0..arity as i64).map(|j| Value::Int(x * 7 - j)).collect();
    match kind % 6 {
        1 => row.push(Value::Int(-x)),
        2 => drop(row.pop()),
        3 => row[arity / 2] = Value::Str(format!("s{x}").into()),
        4 => row[0] = Value::Null,
        5 => row[arity - 1] = Value::Float(x as f64 / 4.0),
        _ => {}
    }
    row
}

/// A column's cells as values, whichever strip holds them.
fn cells(strip: StripView<'_>) -> Vec<Value> {
    match strip {
        StripView::Ints(xs) => xs.iter().map(|&x| Value::Int(x)).collect(),
        StripView::Values(vs) => vs.to_vec(),
    }
}

/// A row read by index, as values.
fn by_index<R: IndexRow>(row: &R) -> Vec<Value> {
    let value = |cell| match cell {
        KeyCell::Int(x) => Value::Int(x),
        KeyCell::Value(v) => v.clone(),
    };
    (0..row.arity()).map(|j| value(row.cell(j))).collect()
}

/// `got` reads as `want` through every reader; `typed` when a column's
/// strip type must agree too (it does between owned pages; a heap file
/// types a column for the whole file).
fn same_page(got: PageView<'_>, want: PageView<'_>, typed: bool, what: &str) -> Result<(), String> {
    prop_assert_eq!(got, want, "{}", what);
    prop_assert_eq!(got.tuple_count(), want.tuple_count(), "{}: rows", what);
    prop_assert_eq!(got.bytes_used(), want.bytes_used(), "{}: bytes", what);
    prop_assert_eq!(got.min_arity(), want.min_arity(), "{}: min arity", what);
    prop_assert_eq!(
        got.uniform_arity(),
        want.uniform_arity(),
        "{}: uniform arity",
        what
    );
    for (r, (a, b)) in got.rows().zip(want.rows()).enumerate() {
        let (mut walked, mut expect) = (Vec::new(), Vec::new());
        a.cells(&mut walked);
        b.cells(&mut expect);
        prop_assert_eq!(&walked, &expect, "{}: row {} walked", what, r);
        prop_assert_eq!(by_index(&a), expect, "{}: row {} by index", what, r);
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    got.encode_into(&mut a);
    want.encode_into(&mut b);
    prop_assert_eq!(a, b, "{}: wire bytes", what);
    let widest = want.rows().map(|row| row.arity()).max().unwrap_or(0);
    for j in 0..=widest {
        match (got.column(j), want.column(j)) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                prop_assert_eq!(cells(g), cells(w), "{}: column {}", what, j);
                if typed {
                    let ints = |s| matches!(s, StripView::Ints(_));
                    prop_assert_eq!(ints(g), ints(w), "{}: column {} typing", what, j);
                }
            }
            (g, w) => prop_assert!(false, "{}: column {}: {:?} vs {:?}", what, j, g, w),
        }
    }
    Ok(())
}

/// A pooled page under test beside its row-by-row twin.
struct Pair {
    pool: PagePool,
    capacity: usize,
    page: Page,
    twin: Page,
    /// Every sealed twin, in order.
    sealed: Vec<Page>,
}

impl Pair {
    fn new(capacity: usize) -> Self {
        let mut pool = PagePool::new();
        let page = pool.get(capacity);
        Pair {
            pool,
            capacity,
            page,
            twin: Page::new(capacity),
            sealed: Vec::new(),
        }
    }

    /// Compare the two, land the page's bytes as a frame and compare that
    /// too, then start both afresh: the page from the pool, where it went
    /// back cleared.
    fn seal(&mut self, what: &str) -> Result<(), String> {
        same_page(self.page.view(), self.twin.view(), true, what)?;
        let mut bytes = Vec::new();
        self.page.encode_into(&mut bytes);
        let landed = Page::from_raw(self.capacity, bytes, self.page.tuple_count() as u32).unwrap();
        same_page(
            landed.view(),
            self.twin.view(),
            true,
            &format!("{what}, landed"),
        )?;
        let page = std::mem::replace(&mut self.page, Page::new(0));
        self.pool.put(page);
        self.page = self.pool.get(self.capacity);
        prop_assert!(self.page.is_empty());
        let twin = std::mem::replace(&mut self.twin, Page::new(self.capacity));
        if !twin.is_empty() {
            self.sealed.push(twin);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_every_page_reads_as_its_rows_pushed_one_by_one(
        steps in proptest::collection::vec((0u8..20, -300i64..300, 1usize..40), 0..60),
        first_arity in 1usize..5,
        capacity in 60usize..700,
    ) {
        let mut pair = Pair::new(capacity);
        let mut arity = first_arity;
        for (i, &(op, x, n)) in steps.iter().enumerate() {
            let what = format!("step {i} (op {op}, arity {arity})");
            match op {
                // A typed run: `n` all-`Int` rows of the current arity,
                // handed to `fill` page after page.
                0..=7 => {
                    let mut source = Page::new(1 << 16);
                    let rows: Vec<Vec<Value>> = (0..n as i64).map(|k| row_of(0, arity, x + k)).collect();
                    rows.iter().for_each(|row| assert!(source.try_push(row).unwrap()));
                    let batch = ScanBatch::whole(&source).unwrap();
                    let listed: Vec<u32> = (0..n as u32).collect();
                    let run = batch.listed(&listed, None);
                    let mut at = 0;
                    while at < n {
                        let took = pair.page.fill(&run, at..n);
                        for row in &rows[at..at + took] {
                            prop_assert!(pair.twin.try_push(row).unwrap(), "{}: the twin refused", what);
                        }
                        at += took;
                        if at < n {
                            prop_assert!(!pair.page.is_empty(), "{}: a fresh page took nothing", what);
                            prop_assert!(!pair.twin.try_push(&rows[at]).unwrap(), "{}: the twin takes more", what);
                            pair.seal(&what)?;
                        }
                    }
                }
                // One row, walked cell by cell: `Int` cells, a ragged row, or
                // a `Str`, NULL or `Float` cell (a promotion after typed rows).
                8..=15 => {
                    let row = row_of(op - 8, arity, x);
                    let want = pair.twin.try_push(&row);
                    let got = pair.page.try_push_row(&row[..]);
                    prop_assert_eq!(&got, &want, "{}: admission", what);
                    if got == Ok(false) {
                        pair.seal(&what)?;
                        prop_assert!(pair.page.try_push_row(&row[..]).unwrap(), "{}: a fresh page refused", what);
                        prop_assert!(pair.twin.try_push(&row).unwrap());
                    }
                }
                // The page goes back to the pool and comes out again for
                // rows of another arity.
                16 | 17 => {
                    pair.seal(&what)?;
                    arity = 1 + x.rem_euclid(5) as usize;
                }
                // Mid-page, the bytes so far land as a frame equal to both.
                _ => {
                    let mut bytes = Vec::new();
                    pair.page.encode_into(&mut bytes);
                    let landed = Page::from_raw(capacity, bytes, pair.page.tuple_count() as u32).unwrap();
                    same_page(landed.view(), pair.twin.view(), true, &what)?;
                }
            }
        }
        pair.seal("the last page")?;

        // The sealed pages as one heap file: one set of strips that re-strides
        // as it grows, a page table cutting it where each page was.
        let file = HeapFile::from_pages(capacity, pair.sealed.iter().map(Page::view)).unwrap();
        prop_assert_eq!(file.page_count(), pair.sealed.len());
        for (pi, (page, want)) in file.pages().zip(&pair.sealed).enumerate() {
            same_page(page, want.view(), false, &format!("file page {pi}"))?;
        }
    }
}
