//! Overflow-bucket spill files.
//!
//! When a memory-bounded hash table overflows (paper §2, step 2), tuples of
//! groups that did not fit are hash-partitioned into buckets and "spooled
//! to disk". A [`SpillFile`] is one such bucket: an append buffer that
//! seals full pages (charging a sequential page write each) and is later
//! drained page-by-page (charging sequential page reads).
//!
//! Per the crate's charging convention, only page I/O is charged here; the
//! hash-aggregation layer charges the per-tuple `t_w`/`t_r` costs around
//! its calls.

use crate::error::StorageError;
use crate::page::{int_rows_fit, Page};
use adaptagg_model::{CellRow, CostEvent, CostTracker, Value};
use std::ops::Range;

/// One spill bucket.
#[derive(Debug)]
pub struct SpillFile {
    page_bytes: usize,
    sealed: Vec<Page>,
    open: Page,
    tuple_count: usize,
}

impl SpillFile {
    /// An empty bucket with the given page capacity.
    pub fn new(page_bytes: usize) -> Self {
        SpillFile {
            page_bytes,
            sealed: Vec::new(),
            open: Page::new(page_bytes),
            tuple_count: 0,
        }
    }

    /// Tuples spooled so far.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// Pages written to disk so far (sealed pages only; the open page is
    /// still in the write buffer).
    pub fn sealed_pages(&self) -> usize {
        self.sealed.len()
    }

    /// Whether nothing was ever spooled.
    pub fn is_empty(&self) -> bool {
        self.tuple_count == 0
    }

    /// Spool one tuple, charging a page write whenever a page seals.
    pub fn spool<T: CostTracker>(
        &mut self,
        values: &[Value],
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        self.spool_row(values, tracker)
    }

    /// [`SpillFile::spool`] of a row read cell by cell where it lies
    /// ([`Page::try_push_row`]): same pages, same charges.
    pub fn spool_row<R: CellRow + ?Sized, T: CostTracker>(
        &mut self,
        row: &R,
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        if !self.open.try_push_row(row)? {
            tracker.record(CostEvent::PageWriteSeq, 1);
            let full = std::mem::replace(&mut self.open, Page::new(self.page_bytes));
            self.sealed.push(full);
            if !self.open.try_push_row(row)? {
                unreachable!("fresh spill page refused a fitting tuple");
            }
        }
        self.tuple_count += 1;
        Ok(())
    }

    /// Spool `n` all-`Int` rows of `arity` cells, column `j` of rows `at`
    /// gathered by `gather(j, at, strip)` ([`crate::Page::extend_ints`]):
    /// the pages, the rows on each and the page writes charged are those of
    /// [`SpillFile::spool_row`] row by row, written a strip run at a time
    /// wherever the open page is on the typed lane (`Page::fill_ints`).
    pub fn spool_ints<G, T>(
        &mut self,
        arity: usize,
        n: usize,
        mut gather: G,
        tracker: &mut T,
    ) -> Result<(), StorageError>
    where
        G: FnMut(usize, Range<usize>, &mut Vec<i64>),
        T: CostTracker,
    {
        int_rows_fit(arity, n, self.page_bytes)?;
        let mut at = self.open.fill_ints(arity, 0..n, &mut gather);
        while at < n {
            tracker.record(CostEvent::PageWriteSeq, 1);
            let full = std::mem::replace(&mut self.open, Page::new(self.page_bytes));
            self.sealed.push(full);
            at += self.open.fill_ints(arity, at..n, &mut gather);
        }
        self.tuple_count += n;
        Ok(())
    }

    /// Finish writing: seal the open partial page (charging its write) so
    /// the bucket can be drained.
    pub fn finish<T: CostTracker>(&mut self, tracker: &mut T) {
        if !self.open.is_empty() {
            tracker.record(CostEvent::PageWriteSeq, 1);
            let last = std::mem::replace(&mut self.open, Page::new(self.page_bytes));
            self.sealed.push(last);
        }
    }

    /// Drain the bucket: read every page back (charging sequential reads)
    /// and hand each tuple to `consume` as a borrowed slice (decoded into
    /// one reused scratch vector), along with the tracker so the consumer
    /// can charge its own per-tuple costs. Consumes the bucket.
    pub fn drain<T, F>(mut self, tracker: &mut T, mut consume: F) -> Result<usize, StorageError>
    where
        T: CostTracker,
        F: FnMut(&mut T, &[Value]) -> Result<(), StorageError>,
    {
        self.finish(tracker);
        let mut n = 0usize;
        let mut scratch: Vec<Value> = Vec::new();
        for page in &self.sealed {
            tracker.record(CostEvent::PageReadSeq, 1);
            let mut cursor = page.cursor();
            while cursor.next_into(&mut scratch)? {
                consume(tracker, &scratch)?;
                n += 1;
            }
        }
        Ok(n)
    }

    /// [`SpillFile::drain`] a page at a time: read every page back
    /// (charging a sequential read each, in order) and hand it to
    /// `consume` whole, for readers that walk the column strips
    /// themselves instead of taking a decoded copy of every row. Consumes
    /// the bucket; the first error of `consume` ends the drain there.
    pub fn drain_pages<T, F>(mut self, tracker: &mut T, mut consume: F) -> Result<(), StorageError>
    where
        T: CostTracker,
        F: FnMut(&mut T, Page) -> Result<(), StorageError>,
    {
        self.finish(tracker);
        for page in self.sealed {
            tracker.record(CostEvent::PageReadSeq, 1);
            consume(tracker, page)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{CountingTracker, Value};

    fn t(i: i64) -> Vec<Value> {
        vec![Value::Int(i)] // 2 + 1 + 8 = 11 bytes
    }

    #[test]
    fn spool_seals_full_pages_with_write_charges() {
        let mut s = SpillFile::new(32); // 2 tuples of 11 B per page
        let mut tr = CountingTracker::new();
        for i in 0..5 {
            s.spool(&t(i), &mut tr).unwrap();
        }
        assert_eq!(s.tuple_count(), 5);
        assert_eq!(s.sealed_pages(), 2);
        assert_eq!(tr.count(CostEvent::PageWriteSeq), 2);
        s.finish(&mut tr);
        assert_eq!(s.sealed_pages(), 3);
        assert_eq!(tr.count(CostEvent::PageWriteSeq), 3);
    }

    #[test]
    fn finish_twice_is_idempotent() {
        let mut s = SpillFile::new(32);
        let mut tr = CountingTracker::new();
        s.spool(&t(0), &mut tr).unwrap();
        s.finish(&mut tr);
        s.finish(&mut tr);
        assert_eq!(tr.count(CostEvent::PageWriteSeq), 1);
        assert_eq!(s.sealed_pages(), 1);
    }

    #[test]
    fn drain_reads_back_everything_in_order_with_read_charges() {
        let mut s = SpillFile::new(32);
        let mut tr = CountingTracker::new();
        for i in 0..5 {
            s.spool(&t(i), &mut tr).unwrap();
        }
        let mut seen = Vec::new();
        let n = s
            .drain(&mut tr, |_t, vals| {
                seen.push(vals[0].as_i64().unwrap());
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // 3 pages written (2 sealed + 1 finish), 3 read back.
        assert_eq!(tr.count(CostEvent::PageWriteSeq), 3);
        assert_eq!(tr.count(CostEvent::PageReadSeq), 3);
    }

    #[test]
    fn drain_pages_charges_like_drain_and_keeps_row_order() {
        let mut s = SpillFile::new(32);
        let mut tr = CountingTracker::new();
        for i in 0..5 {
            s.spool(&t(i), &mut tr).unwrap();
        }
        // Left unfinished on purpose: the open page seals on drain.
        let mut seen = Vec::new();
        s.drain_pages(&mut tr, |_t, page| {
            seen.extend(page.iter().map(|row| row.unwrap()[0].as_i64().unwrap()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(tr.count(CostEvent::PageWriteSeq), 3);
        assert_eq!(tr.count(CostEvent::PageReadSeq), 3);
    }

    #[test]
    fn empty_bucket_drains_nothing_and_charges_nothing() {
        let s = SpillFile::new(64);
        let mut tr = CountingTracker::new();
        let n = s.drain(&mut tr, |_t, _| Ok(())).unwrap();
        assert_eq!(n, 0);
        assert_eq!(tr.count(CostEvent::PageWriteSeq), 0);
        assert_eq!(tr.count(CostEvent::PageReadSeq), 0);
    }

    #[test]
    fn write_read_page_symmetry() {
        // The paper's overflow term is "an extra read/write" per spilled
        // page: pages written must equal pages read back.
        let mut s = SpillFile::new(64);
        let mut tr = CountingTracker::new();
        for i in 0..100 {
            s.spool(&t(i), &mut tr).unwrap();
        }
        s.drain(&mut tr, |_t, _| Ok(())).unwrap();
        assert_eq!(
            tr.count(CostEvent::PageWriteSeq),
            tr.count(CostEvent::PageReadSeq)
        );
    }
}
