//! Heap files: append-only paged tuple files.
//!
//! A [`HeapFile`] models one on-disk file of a node: its partition of the
//! base relation, a result file, or a spooled bucket. Scanning charges one
//! `PageReadSeq` per page through the caller's [`CostTracker`]; appending
//! through [`HeapFile::append`] fills pages but charges nothing (the
//! operator that writes a file charges its page writes).

use crate::error::StorageError;
use crate::page::Page;
use adaptagg_model::{CellRow, CostEvent, CostTracker, Value};
use std::sync::Arc;

/// Default disk page capacity (Table 1's `P`).
pub const DEFAULT_PAGE_BYTES: usize = 4096;

/// An append-only sequence of tuple pages.
///
/// Pages are reference-counted so cloning a file (the driver hands each
/// run its own copy of the base partitions) shares the page bytes;
/// appending copies only the open page when it is actually shared.
#[derive(Debug, Clone, Default)]
pub struct HeapFile {
    pages: Vec<Arc<Page>>,
    page_bytes: usize,
    tuple_count: usize,
}

impl HeapFile {
    /// An empty file with the given page capacity.
    pub fn new(page_bytes: usize) -> Self {
        HeapFile {
            pages: Vec::new(),
            page_bytes,
            tuple_count: 0,
        }
    }

    /// An empty file with 4 KB pages.
    pub fn with_default_pages() -> Self {
        HeapFile::new(DEFAULT_PAGE_BYTES)
    }

    /// Build a file from tuples (workload generators use this; no cost is
    /// charged — the data is assumed to pre-exist on disk, as the paper's
    /// base relations do).
    pub fn from_tuples<'a, I>(page_bytes: usize, tuples: I) -> Result<Self, StorageError>
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        let mut f = HeapFile::new(page_bytes);
        for t in tuples {
            f.append(t)?;
        }
        Ok(f)
    }

    /// Rebuild a file from already-validated pages (persistence).
    pub fn from_pages(page_bytes: usize, pages: Vec<Page>) -> Result<Self, StorageError> {
        let tuple_count = pages.iter().map(|p| p.tuple_count()).sum();
        Ok(HeapFile {
            pages: pages.into_iter().map(Arc::new).collect(),
            page_bytes,
            tuple_count,
        })
    }

    /// Page capacity in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of pages (partially-filled last page included).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total tuples stored.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// Total bytes of tuple data.
    pub fn bytes_used(&self) -> usize {
        self.pages.iter().map(|p| p.bytes_used()).sum()
    }

    /// The page at `idx`.
    pub fn page(&self, idx: usize) -> Result<&Page, StorageError> {
        self.pages
            .get(idx)
            .map(|p| p.as_ref())
            .ok_or(StorageError::PageOutOfRange {
                page: idx,
                pages: self.pages.len(),
            })
    }

    /// Append a tuple, opening a new page when the current one fills.
    /// No I/O cost is charged (see module docs).
    pub fn append(&mut self, values: &[Value]) -> Result<(), StorageError> {
        self.append_row(values)
    }

    /// [`HeapFile::append`] of a row read cell by cell where it lies
    /// ([`Page::try_push_row`]): same pages.
    pub fn append_row<R: CellRow + ?Sized>(&mut self, row: &R) -> Result<(), StorageError> {
        if let Some(last) = self.pages.last_mut() {
            if Arc::make_mut(last).try_push_row(row)? {
                self.tuple_count += 1;
                return Ok(());
            }
        }
        let mut page = Page::new(self.page_bytes);
        if !page.try_push_row(row)? {
            // try_push on a fresh page only fails via TupleTooLarge, which
            // it reports as Err; reaching here would be a logic error.
            unreachable!("fresh page refused a fitting tuple");
        }
        self.pages.push(Arc::new(page));
        self.tuple_count += 1;
        Ok(())
    }

    /// Sequentially scan all tuples, charging one `PageReadSeq` per page.
    /// The per-tuple `t_r`/`t_w` select costs are charged by the scan
    /// *operator* (see `adaptagg-exec`), not here.
    pub fn scan<'a, T: CostTracker>(&'a self, tracker: &'a mut T) -> ScanIter<'a, T> {
        ScanIter {
            file: self,
            tracker,
            page: 0,
            in_page: None,
        }
    }

    /// Read one page at a random position (page-level sampling), charging
    /// one `PageReadRand`.
    pub fn read_page_random<T: CostTracker>(
        &self,
        idx: usize,
        tracker: &mut T,
    ) -> Result<&Page, StorageError> {
        let p = self.page(idx)?;
        tracker.record(CostEvent::PageReadRand, 1);
        Ok(p)
    }

    /// Iterate tuples without any cost accounting (verification paths).
    pub fn iter_untracked(&self) -> impl Iterator<Item = Result<Vec<Value>, StorageError>> + '_ {
        self.pages.iter().flat_map(|p| p.iter())
    }
}

/// Cost-tracked sequential scan.
#[derive(Debug)]
pub struct ScanIter<'a, T: CostTracker> {
    file: &'a HeapFile,
    tracker: &'a mut T,
    page: usize,
    in_page: Option<std::vec::IntoIter<Vec<Value>>>,
}

impl<T: CostTracker> Iterator for ScanIter<'_, T> {
    type Item = Result<Vec<Value>, StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(iter) = &mut self.in_page {
                if let Some(t) = iter.next() {
                    return Some(Ok(t));
                }
                self.in_page = None;
            }
            if self.page >= self.file.pages.len() {
                return None;
            }
            self.tracker.record(CostEvent::PageReadSeq, 1);
            let page = &self.file.pages[self.page];
            self.page += 1;
            match page.decode_all() {
                Ok(tuples) => self.in_page = Some(tuples.into_iter()),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{CountingTracker, Value};

    fn tuple(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::Int(i * 3)]
    }

    fn build(n: i64, page_bytes: usize) -> HeapFile {
        let tuples: Vec<Vec<Value>> = (0..n).map(tuple).collect();
        HeapFile::from_tuples(page_bytes, tuples.iter().map(|t| t.as_slice())).unwrap()
    }

    #[test]
    fn append_fills_pages_in_order() {
        // 20-byte tuples, 64-byte pages → 3 per page.
        let f = build(10, 64);
        assert_eq!(f.tuple_count(), 10);
        assert_eq!(f.page_count(), 4); // 3+3+3+1
        assert_eq!(f.page(0).unwrap().tuple_count(), 3);
        assert_eq!(f.page(3).unwrap().tuple_count(), 1);
        assert!(f.page(4).is_err());
    }

    #[test]
    fn scan_charges_one_seq_read_per_page_and_yields_all() {
        let f = build(10, 64);
        let mut t = CountingTracker::new();
        let tuples: Result<Vec<_>, _> = f.scan(&mut t).collect();
        let tuples = tuples.unwrap();
        assert_eq!(tuples.len(), 10);
        assert_eq!(tuples[7][0], Value::Int(7));
        assert_eq!(t.count(CostEvent::PageReadSeq), 4);
        assert_eq!(t.count(CostEvent::PageReadRand), 0);
    }

    #[test]
    fn random_page_read_charges_rand_io() {
        let f = build(10, 64);
        let mut t = CountingTracker::new();
        let p = f.read_page_random(2, &mut t).unwrap();
        assert_eq!(p.tuple_count(), 3);
        assert_eq!(t.count(CostEvent::PageReadRand), 1);
        assert!(f.read_page_random(99, &mut t).is_err());
    }

    #[test]
    fn untracked_iteration_matches_scan() {
        let f = build(25, 128);
        let a: Vec<_> = f.iter_untracked().map(|r| r.unwrap()).collect();
        let mut t = CountingTracker::new();
        let b: Vec<_> = f.scan(&mut t).map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bytes_used_sums_pages() {
        let f = build(10, 64);
        assert_eq!(f.bytes_used(), 10 * 20);
    }
}
