//! Rows on in-memory pages: the shape rows have between operators
//! wherever they are not on disk or on the wire.

use crate::page::{int_row_bytes, int_rows_fit};
use crate::{Page, PageRow, StorageError};
use adaptagg_model::{CellRow, Value};
use std::ops::Range;

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
        let fits = match self.pages.last_mut() {
            Some(open) => open.try_push_row(row)?,
            None => false,
        };
        if !fits {
            let mut page = Page::new(self.page_bytes);
            if !page.try_push_row(row)? {
                unreachable!("fresh page refused a fitting row");
            }
            self.pages.push(page);
        }
        self.rows += 1;
        Ok(())
    }

    /// Append `n` all-`Int` rows of `arity` cells, column `j` of rows `at`
    /// gathered by `gather(j, at, strip)` ([`Page::extend_ints`]): the
    /// pages, and the rows on each, are those of [`RowPages::push`] row by
    /// row, written a strip run at a time wherever a page is on the typed
    /// lane (`Page::fill_ints`).
    pub fn extend_ints<G>(&mut self, arity: usize, n: usize, mut gather: G) -> Result<(), StorageError>
    where
        G: FnMut(usize, Range<usize>, &mut Vec<i64>),
    {
        int_rows_fit(arity, n, self.page_bytes)?;
        let mut at = 0;
        while at < n {
            if let Some(open) = self.pages.last_mut() {
                at += open.fill_ints(arity, at..n, &mut gather);
            }
            if at < n {
                self.pages.push(Page::new(self.page_bytes));
            }
        }
        self.rows += n;
        Ok(())
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
