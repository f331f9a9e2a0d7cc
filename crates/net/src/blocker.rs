//! Per-destination message blocking.
//!
//! "For efficiency reasons, we decided to block the messages into 2 KB
//! pages" (§5). A [`Blocker`] keeps one open message page per destination
//! node; [`Blocker::add`] returns a sealed page whenever the destination's
//! page fills, [`Blocker::scatter`] appends a whole batch and lists the
//! pages it sealed, and [`Blocker::flush`] drains the partial remainders at
//! end-of-stream. The caller (the exchange operator) sends each sealed
//! page through its [`crate::Endpoint`].

use adaptagg_model::{CellRow, Value};
use adaptagg_storage::{Page, PagePool, ScanBatch, StorageError};

/// Accumulates tuples into per-destination message pages.
#[derive(Debug)]
pub struct Blocker {
    message_bytes: usize,
    open: Vec<Page>,
    /// Per destination, the batch rows [`Blocker::scatter`] sends there
    /// (scratch, reused batch to batch).
    rows: Vec<Vec<u32>>,
}

/// Where a batch's rows go ([`Blocker::scatter`]).
#[derive(Debug, Clone, Copy)]
pub enum Scatter<'a> {
    /// Row `r` to destination `hashes[r] % destinations`.
    Hashed(&'a [u64]),
    /// Every row to one destination.
    To(usize),
}

/// A message page a batch filled, and where it goes.
#[derive(Debug)]
pub struct Sealed {
    /// The batch row that did not fit on the page and opened the next one:
    /// the row loop sends the page once it has paid for every row up to
    /// and including this one.
    pub row: usize,
    pub dest: usize,
    pub page: Page,
}

/// A batch row no message page can hold ([`Blocker::scatter`]).
#[derive(Debug)]
pub struct TooLarge {
    pub row: usize,
    pub error: StorageError,
}

impl Blocker {
    /// A blocker for `n` destinations with the given message-page capacity.
    pub fn new(n: usize, message_bytes: usize) -> Self {
        Blocker {
            message_bytes,
            open: (0..n).map(|_| Page::new(message_bytes)).collect(),
            rows: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of destinations.
    pub fn destinations(&self) -> usize {
        self.open.len()
    }

    /// Append a tuple for `dest`. If the destination's page was full, the
    /// sealed page is returned (send it!) and the tuple starts a fresh one.
    pub fn add(&mut self, dest: usize, values: &[Value]) -> Result<Option<Page>, StorageError> {
        self.add_pooled(dest, values, &mut PagePool::new())
    }

    /// [`Blocker::add`], drawing the replacement page from `pool` instead
    /// of allocating (the sealed page's buffer comes back via
    /// [`PagePool::put`] once the receiver consumes it). The row — values,
    /// or a row of another page — is read cell by cell where it lies
    /// ([`Page::try_push_row`]).
    pub fn add_pooled<R: CellRow + ?Sized>(
        &mut self,
        dest: usize,
        row: &R,
        pool: &mut PagePool,
    ) -> Result<Option<Page>, StorageError> {
        let page = &mut self.open[dest];
        if page.try_push_row(row)? {
            return Ok(None);
        }
        let sealed = std::mem::replace(page, pool.get(self.message_bytes));
        if !page.try_push_row(row)? {
            unreachable!("fresh message page refused a fitting tuple");
        }
        Ok(Some(sealed))
    }

    /// Append every passing row of `batch` to its destination's open page,
    /// destination by destination, drawing replacement pages from `pool`,
    /// and list in `sealed` (cleared first) the pages that filled, in the
    /// order of the rows that sealed them. The pages, and the rows that seal
    /// them, are those of [`Blocker::add_pooled`] called row by row in row
    /// order: each destination's rows are one run ([`ScanBatch::listed`]),
    /// handed to its page until the page is full ([`Page::fill`]).
    ///
    /// A passing row wider than a message page is `Err`, as it is row by
    /// row: the rows before it are appended, it and the rows after it are
    /// not.
    pub fn scatter(
        &mut self,
        batch: &ScanBatch<'_>,
        to: Scatter<'_>,
        pool: &mut PagePool,
        sealed: &mut Vec<Sealed>,
    ) -> Result<(), TooLarge> {
        sealed.clear();
        let too_large = batch.first_too_large(self.message_bytes);
        let end = too_large.as_ref().map_or(batch.rows(), |&(r, _)| r);
        self.rows.iter_mut().for_each(Vec::clear);
        match batch.selection() {
            Some(sel) => self.bucket(sel[..sel.partition_point(|&r| (r as usize) < end)].iter().copied(), to),
            None => self.bucket(0..end as u32, to),
        }
        for (dest, (page, rows)) in self.open.iter_mut().zip(&self.rows).enumerate() {
            let run = batch.listed(rows, None);
            let mut k = page.fill(&run, 0..rows.len());
            while k < rows.len() {
                let full = std::mem::replace(page, pool.get(self.message_bytes));
                assert!(!full.is_empty(), "a row no wider than a message page fits a fresh one");
                sealed.push(Sealed { row: rows[k] as usize, dest, page: full });
                k += page.fill(&run, k..rows.len());
            }
        }
        sealed.sort_unstable_by_key(|s| s.row);
        match too_large {
            Some((row, error)) => Err(TooLarge { row, error }),
            None => Ok(()),
        }
    }

    /// List each of `rows` under its destination.
    #[inline]
    fn bucket(&mut self, rows: impl Iterator<Item = u32>, to: Scatter<'_>) {
        match to {
            Scatter::Hashed(hashes) => {
                let n = self.rows.len() as u64;
                for r in rows {
                    self.rows[(hashes[r as usize] % n) as usize].push(r);
                }
            }
            Scatter::To(dest) => self.rows[dest].extend(rows),
        }
    }

    /// Drain all non-empty partial pages as `(destination, page)` pairs,
    /// leaving the blocker empty and reusable.
    pub fn flush(&mut self) -> Vec<(usize, Page)> {
        let mut out = Vec::new();
        for (dest, page) in self.open.iter_mut().enumerate() {
            if !page.is_empty() {
                out.push((dest, std::mem::replace(page, Page::new(self.message_bytes))));
            }
        }
        out
    }

    /// Tuples currently buffered (un-flushed) across all destinations.
    pub fn buffered_tuples(&self) -> usize {
        self.open.iter().map(|p| p.tuple_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::Value;

    fn t(i: i64) -> Vec<Value> {
        vec![Value::Int(i)] // 11 bytes encoded
    }

    #[test]
    fn seals_when_destination_page_fills() {
        let mut b = Blocker::new(2, 32); // 2 tuples per message page
        assert!(b.add(0, &t(1)).unwrap().is_none());
        assert!(b.add(0, &t(2)).unwrap().is_none());
        let sealed = b.add(0, &t(3)).unwrap().expect("page should seal");
        assert_eq!(sealed.tuple_count(), 2);
        // Destination 1 untouched.
        assert!(b.add(1, &t(9)).unwrap().is_none());
        assert_eq!(b.buffered_tuples(), 2); // t3 on dest 0, t9 on dest 1
    }

    #[test]
    fn flush_returns_only_non_empty_pages() {
        let mut b = Blocker::new(3, 64);
        b.add(0, &t(1)).unwrap();
        b.add(2, &t(2)).unwrap();
        let mut flushed = b.flush();
        flushed.sort_by_key(|(d, _)| *d);
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].0, 0);
        assert_eq!(flushed[1].0, 2);
        assert_eq!(b.buffered_tuples(), 0);
        // Reusable after flush.
        b.add(1, &t(3)).unwrap();
        assert_eq!(b.buffered_tuples(), 1);
    }

    #[test]
    fn no_tuple_is_lost_or_duplicated() {
        let mut b = Blocker::new(4, 64);
        let mut sealed_tuples = 0;
        for i in 0..1000 {
            if let Some(p) = b.add((i % 4) as usize, &t(i)).unwrap() {
                sealed_tuples += p.tuple_count();
            }
        }
        let flushed: usize = b.flush().iter().map(|(_, p)| p.tuple_count()).sum();
        assert_eq!(sealed_tuples + flushed, 1000);
    }

    #[test]
    fn oversized_tuple_propagates_error() {
        let mut b = Blocker::new(1, 16);
        let big = vec![Value::Str("x".repeat(64).into())];
        assert!(b.add(0, &big).is_err());
    }
}
