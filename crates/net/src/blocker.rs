//! Per-destination message blocking.
//!
//! "For efficiency reasons, we decided to block the messages into 2 KB
//! pages" (§5). A [`Blocker`] keeps one open message page per destination
//! node; [`Blocker::add`] returns a sealed page whenever the destination's
//! page fills, and [`Blocker::flush`] drains the partial remainders at
//! end-of-stream. The caller (the exchange operator) sends each sealed
//! page through its [`crate::Endpoint`].

use adaptagg_storage::{Page, PagePool, ScanBatch, StorageError};
use adaptagg_model::{CellRow, Value};

/// Accumulates tuples into per-destination message pages.
#[derive(Debug)]
pub struct Blocker {
    message_bytes: usize,
    open: Vec<Page>,
}

impl Blocker {
    /// A blocker for `n` destinations with the given message-page capacity.
    pub fn new(n: usize, message_bytes: usize) -> Self {
        Blocker {
            message_bytes,
            open: (0..n).map(|_| Page::new(message_bytes)).collect(),
        }
    }

    /// Number of destinations.
    pub fn destinations(&self) -> usize {
        self.open.len()
    }

    /// Append a tuple for `dest`. If the destination's page was full, the
    /// sealed page is returned (send it!) and the tuple starts a fresh one.
    pub fn add(&mut self, dest: usize, values: &[Value]) -> Result<Option<Page>, StorageError> {
        self.add_with(dest, Page::new, |page| page.try_push(values))
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
        self.add_with(dest, |bytes| pool.get(bytes), |page| page.try_push_row(row))
    }

    /// [`Blocker::add_pooled`] of `batch`'s row `r`, copied strip to strip
    /// ([`Page::try_push_strips`]): the same pages seal at the same rows.
    pub fn add_strips_pooled(
        &mut self,
        dest: usize,
        batch: &ScanBatch<'_>,
        r: usize,
        pool: &mut PagePool,
    ) -> Result<Option<Page>, StorageError> {
        self.add_with(dest, |bytes| pool.get(bytes), |page| page.try_push_strips(batch, r))
    }

    /// Push a row onto `dest`'s open page; when it is full, seal it, open
    /// a `fresh` one and push there.
    #[inline]
    fn add_with(
        &mut self,
        dest: usize,
        fresh: impl FnOnce(usize) -> Page,
        push: impl Fn(&mut Page) -> Result<bool, StorageError>,
    ) -> Result<Option<Page>, StorageError> {
        let page = &mut self.open[dest];
        if push(page)? {
            return Ok(None);
        }
        let sealed = std::mem::replace(page, fresh(self.message_bytes));
        if !push(page)? {
            unreachable!("fresh message page refused a fitting tuple");
        }
        Ok(Some(sealed))
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
