//! Overflow-bucket spill files.
//!
//! When a memory-bounded hash table overflows (paper §2, step 2), tuples of
//! groups that did not fit are hash-partitioned into buckets and "spooled
//! to disk". A [`SpillFile`] is one such bucket, and one sorted run of
//! Sort-2P: rows on pages ([`RowPages`], written through the same one
//! append) whose every sealed page is charged a sequential page write, and
//! which is later drained page by page (charging sequential page reads).
//!
//! Per the crate's charging convention, only page I/O is charged here; the
//! hash-aggregation layer charges the per-tuple `t_w`/`t_r` costs around
//! its calls.

use crate::error::StorageError;
use crate::{Page, RowPages};
use adaptagg_model::{CellRow, CostEvent, CostTracker, LaneRows, OneRow, RowRun, Value};

/// One spill bucket, or one sorted run.
#[derive(Debug)]
pub struct SpillFile {
    pages: RowPages,
    /// Pages charged a write: every page but the open last one, and that
    /// one too once the file is finished.
    charged: usize,
}

impl SpillFile {
    /// An empty bucket with the given page capacity.
    pub fn new(page_bytes: usize) -> Self {
        SpillFile {
            pages: RowPages::new(page_bytes),
            charged: 0,
        }
    }

    /// Tuples spooled so far.
    pub fn tuple_count(&self) -> usize {
        self.pages.len()
    }

    /// Pages written to disk so far (sealed pages only; the open page is
    /// still in the write buffer).
    pub fn sealed_pages(&self) -> usize {
        self.charged
    }

    /// Whether nothing was ever spooled.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
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
        self.extend(&OneRow(row), tracker).map(drop)
    }

    /// Spool every row of `run` ([`RowPages::extend`]): the pages, the rows
    /// on each and the page writes charged are those of
    /// [`SpillFile::spool_row`] row by row.
    pub fn extend<R: RowRun + ?Sized, T: CostTracker>(
        &mut self,
        run: &R,
        tracker: &mut T,
    ) -> Result<LaneRows, StorageError> {
        self.write(tracker, |pages, _| pages.extend(run))
    }

    /// Append to the file's pages through `write`, then charge a page write
    /// for each page that sealed on the way, whatever `write` returned.
    pub fn write<T: CostTracker, O>(
        &mut self,
        tracker: &mut T,
        write: impl FnOnce(&mut RowPages, &mut T) -> O,
    ) -> O {
        debug_assert!(self.charged < self.pages.pages().len() || self.is_empty(), "a finished file");
        let out = write(&mut self.pages, tracker);
        self.charge(self.pages.pages().len().saturating_sub(1), tracker);
        out
    }

    /// Charge a write for each of the first `sealed` pages not charged yet.
    fn charge<T: CostTracker>(&mut self, sealed: usize, tracker: &mut T) {
        if sealed > self.charged {
            tracker.record(CostEvent::PageWriteSeq, (sealed - self.charged) as u64);
            self.charged = sealed;
        }
    }

    /// Finish writing: seal the open partial page (charging its write) so
    /// the bucket can be drained.
    pub fn finish<T: CostTracker>(&mut self, tracker: &mut T) {
        self.charge(self.pages.pages().len(), tracker);
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
        for page in self.pages.pages() {
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
        for page in self.pages.into_pages() {
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
