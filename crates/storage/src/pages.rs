//! Rows on in-memory pages: the shape rows have between operators
//! wherever they are not on disk or on the wire.
//!
//! Every writer appends through one call, [`RowPages::extend`], handing over
//! a run of rows ([`RowRun`]); each page picks the lane the rows land on
//! ([`Page::fill`]). A lone row is a run of one ([`RowPages::push`]).

use crate::page::{int_row_bytes, wire_bytes, RunRow};
use crate::{Page, PageRow, StorageError};
use adaptagg_model::{CellRow, LaneRows, OneRow, RowRun, Value};

/// Rows appended to unsealed, uncharged pages of one capacity: what a
/// group table drains its partial rows onto, the resident run a run
/// builder hands the merge (the hybrid trick: the last run never touches
/// disk), and what the merge emits. The same column strips a sealed run's
/// or a message's pages hold, so the merge reads every run one way and
/// the exchange routes the rows a page at a time.
#[derive(Debug)]
pub struct RowPages {
    page_bytes: usize,
    pages: Vec<Page>,
    rows: usize,
}

impl RowPages {
    /// No rows yet, on pages of `page_bytes`.
    pub fn new(page_bytes: usize) -> Self {
        RowPages {
            page_bytes,
            pages: Vec::new(),
            rows: 0,
        }
    }

    /// Byte capacity of each page.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// How many all-`Int` rows of `arity` cells one page holds.
    pub fn int_rows_per_page(&self, arity: usize) -> usize {
        self.page_bytes / int_row_bytes(arity)
    }

    /// Rows held.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no row is held.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The pages, in row order.
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// The pages, in row order.
    pub fn into_pages(self) -> Vec<Page> {
        self.pages
    }

    /// Append a row read cell by cell where it lies
    /// ([`Page::try_push_row`]), opening a page when the last one is full.
    pub fn push<R: CellRow + ?Sized>(&mut self, row: &R) -> Result<(), StorageError> {
        self.extend(&OneRow(row)).map(drop)
    }

    /// Append every row of `run`, in order, opening a page whenever the
    /// last one is full ([`Page::fill`]): the pages, and the rows on each,
    /// are those of [`RowPages::push`] row by row. Returns the rows written,
    /// by the run's lane. A row wider than a page is `TupleTooLarge`: the
    /// rows before it are appended, it and the rows after it are not.
    pub fn extend<R: RowRun + ?Sized>(&mut self, run: &R) -> Result<LaneRows, StorageError> {
        let n = run.len();
        let mut at = self.pages.last_mut().map_or(0, |open| open.fill(run, 0..n));
        while at < n {
            let mut page = Page::new(self.page_bytes);
            let taken = page.fill(run, at..n);
            if taken == 0 {
                self.rows += at;
                return Err(StorageError::TupleTooLarge {
                    tuple_bytes: wire_bytes(&RunRow(run, at)),
                    page_bytes: self.page_bytes,
                });
            }
            self.pages.push(page);
            at += taken;
        }
        self.rows += n;
        let mut lanes = LaneRows::default();
        lanes.count(run.int_arity().is_some(), n as u64);
        Ok(lanes)
    }

    /// Move the rows of `other` behind the rows held, whole pages at a time
    /// (the last page held stays as full as it is).
    pub fn append(&mut self, other: RowPages) {
        self.rows += other.rows;
        self.pages.extend(other.pages);
    }

    /// Every row in order, each read off its page's strips where it lies.
    pub fn rows(&self) -> impl Iterator<Item = PageRow<'_>> {
        self.pages.iter().flat_map(Page::rows)
    }

    /// Every row, materialized (for callers that want values, not strips).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        let rows = self.pages.iter().flat_map(Page::iter);
        rows.map(|row| row.expect("rows of an in-memory page decode"))
            .collect()
    }
}
