//! Heap files: append-only paged tuple files, stored as column arenas.
//!
//! A [`HeapFile`] models one on-disk file of a node: its partition of the
//! base relation, its result file, a checkpoint. Its rows lie on one set
//! of column strips for the whole file — every column's `Int` cells in
//! one column-major buffer that re-strides as the file grows, amortized
//! like a `Vec` (or never, for a file sized up front for its rows by
//! [`HeapFile::with_capacity`]), and a `Vec<Value>` for a column from its
//! first non-`Int` cell on — and a **page table** cuts them into pages:
//! each entry is a row range, the page's wire bytes and its min and max
//! arity. Appending cuts a page exactly where an owned [`crate::Page`] of
//! the file's capacity would refuse the row (the wire-format admission of
//! [`crate::Page::try_push_row`]), so page boundaries, page counts and the
//! page I/O the cost model charges are those of a file of separate pages:
//! a page is a unit of cost, not of memory. Readers borrow a page as a
//! [`PageView`] of the arenas.
//!
//! Cloning a file (the driver hands each run its own copy of the base
//! partitions) bumps one reference count; appending to a file a clone
//! still shares copies it first.
//!
//! Nothing here charges the cost model for reading, except
//! [`HeapFile::read_page_random`]: the scan operator charges one
//! `PageReadSeq` per page it reads. Appending charges nothing either (the
//! operator that writes a file charges its page writes).

use crate::error::StorageError;
use crate::page::{Extent, PageView, Strips};
use adaptagg_model::{CellRow, CostEvent, CostTracker, Value};
use std::sync::Arc;

/// Default disk page capacity (Table 1's `P`).
pub const DEFAULT_PAGE_BYTES: usize = 4096;

/// An append-only sequence of tuple pages over column arenas.
#[derive(Debug, Clone, Default)]
pub struct HeapFile {
    page_bytes: usize,
    body: Arc<Body>,
}

/// A file's rows and where its pages cut them.
#[derive(Debug, Clone, Default)]
struct Body {
    strips: Strips,
    /// The page table, in row order; appends fill the last page.
    pages: Vec<Extent>,
}

impl HeapFile {
    /// An empty file with the given page capacity.
    pub fn new(page_bytes: usize) -> Self {
        HeapFile {
            page_bytes,
            body: Arc::default(),
        }
    }

    /// An empty file with the given page capacity, its column buffers
    /// sized for `rows` rows: a generator that knows how many rows it will
    /// append fills them without re-striding or doubling a buffer.
    pub fn with_capacity(page_bytes: usize, rows: usize) -> Self {
        HeapFile {
            page_bytes,
            body: Arc::new(Body {
                strips: Strips::with_rows(rows),
                pages: Vec::new(),
            }),
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

    /// A file of `page_bytes` pages holding `pages`' rows, each page cut
    /// where it is (persistence, and copies of a file's pages): rows are
    /// never re-packed. `TupleTooLarge` for a page whose rows would not
    /// fit one page of this file.
    pub fn from_pages<P>(
        page_bytes: usize,
        pages: impl IntoIterator<Item = P>,
    ) -> Result<Self, StorageError>
    where
        for<'p> &'p P: Into<PageView<'p>>,
    {
        let mut f = HeapFile::new(page_bytes);
        for page in pages {
            f.push_page((&page).into())?;
        }
        Ok(f)
    }

    /// `files` one after another in a file of `page_bytes` pages, each of
    /// their pages cut where it is ([`HeapFile::from_pages`]): file `k`'s
    /// first page is the sum of the page counts before it. A single file
    /// of `page_bytes` pages comes back as a clone, sharing its arenas.
    pub fn concat<'a>(
        page_bytes: usize,
        files: impl IntoIterator<Item = &'a HeapFile>,
    ) -> Result<Self, StorageError> {
        let mut out = HeapFile::new(page_bytes);
        for file in files {
            if out.body.pages.is_empty() && file.page_bytes == page_bytes {
                out = file.clone();
            } else {
                file.pages().try_for_each(|page| out.push_page(page))?;
            }
        }
        Ok(out)
    }

    /// Copy `page`'s rows onto a page of their own.
    fn push_page(&mut self, page: PageView<'_>) -> Result<(), StorageError> {
        let page_bytes = self.page_bytes;
        let body = Arc::make_mut(&mut self.body);
        let mut open = Extent::at(body.strips.rows());
        for row in page.rows() {
            if !body.strips.try_push_row(&mut open, page_bytes, &row)? {
                return Err(StorageError::TupleTooLarge {
                    tuple_bytes: page.bytes_used(),
                    page_bytes,
                });
            }
        }
        body.pages.push(open);
        Ok(())
    }

    /// Page capacity in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of pages (partially-filled last page included).
    pub fn page_count(&self) -> usize {
        self.body.pages.len()
    }

    /// Total tuples stored.
    pub fn tuple_count(&self) -> usize {
        self.body.strips.rows()
    }

    /// Total bytes of tuple data.
    pub fn bytes_used(&self) -> usize {
        self.body.pages.iter().map(Extent::bytes_used).sum()
    }

    /// The page at `idx`.
    pub fn page(&self, idx: usize) -> Result<PageView<'_>, StorageError> {
        let extent = self
            .body
            .pages
            .get(idx)
            .ok_or(StorageError::PageOutOfRange {
                page: idx,
                pages: self.page_count(),
            })?;
        Ok(PageView::new(&self.body.strips, *extent, self.page_bytes))
    }

    /// Every page, in order.
    pub fn pages(&self) -> impl Iterator<Item = PageView<'_>> {
        let body = &*self.body;
        body.pages
            .iter()
            .map(move |&extent| PageView::new(&body.strips, extent, self.page_bytes))
    }

    /// Append a tuple, opening a new page when the current one fills.
    /// No I/O cost is charged (see module docs).
    pub fn append(&mut self, values: &[Value]) -> Result<(), StorageError> {
        self.append_row(values)
    }

    /// [`HeapFile::append`] of a row read cell by cell where it lies
    /// ([`crate::Page::try_push_row`]): same pages.
    pub fn append_row<R: CellRow + ?Sized>(&mut self, row: &R) -> Result<(), StorageError> {
        let page_bytes = self.page_bytes;
        let body = Arc::make_mut(&mut self.body);
        if let Some(open) = body.pages.last_mut() {
            if body.strips.try_push_row(open, page_bytes, row)? {
                return Ok(());
            }
        }
        let mut open = Extent::at(body.strips.rows());
        if !body.strips.try_push_row(&mut open, page_bytes, row)? {
            // A fresh page refuses only a row too large for any page,
            // which it reports as Err; reaching here would be a logic error.
            unreachable!("fresh page refused a fitting tuple");
        }
        body.pages.push(open);
        Ok(())
    }

    /// Read one page at a random position (page-level sampling), charging
    /// one `PageReadRand`.
    pub fn read_page_random<T: CostTracker>(
        &self,
        idx: usize,
        tracker: &mut T,
    ) -> Result<PageView<'_>, StorageError> {
        let p = self.page(idx)?;
        tracker.record(CostEvent::PageReadRand, 1);
        Ok(p)
    }

    /// Iterate tuples without any cost accounting (verification paths).
    pub fn iter_untracked(&self) -> impl Iterator<Item = Result<Vec<Value>, StorageError>> + '_ {
        self.pages().flat_map(|p| p.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Page;
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
        let rows: Vec<_> = f.iter_untracked().map(|r| r.unwrap()).collect();
        assert_eq!(rows, (0..10).map(tuple).collect::<Vec<_>>());
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
    fn bytes_used_sums_pages() {
        let f = build(10, 64);
        assert_eq!(f.bytes_used(), 10 * 20);
    }

    /// The old concatenation — every page of every file cloned onto a new
    /// file — made the same pages as `concat`, which keeps each file's
    /// page boundaries however full its last page is.
    #[test]
    fn concat_keeps_every_page_where_it_was() {
        let mixed = |n: i64| {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|i| match i % 4 {
                    0 => vec![Value::Int(i)],
                    1 => vec![Value::Str(format!("s{i}").into()), Value::Null],
                    _ => tuple(i),
                })
                .collect();
            HeapFile::from_tuples(64, rows.iter().map(Vec::as_slice)).unwrap()
        };
        let files = [
            build(10, 64),
            mixed(7),
            build(1, 64),
            HeapFile::new(64),
            mixed(13),
        ];
        let got = HeapFile::concat(64, &files).unwrap();
        let mut expect = Vec::new();
        for f in &files {
            for pi in 0..f.page_count() {
                let page = f.page(pi).unwrap();
                let mut owned = Page::new(64);
                page.rows()
                    .for_each(|row| assert!(owned.try_push_row(&row).unwrap()));
                expect.push(owned);
            }
        }
        assert_eq!(got.page_count(), expect.len());
        assert_eq!(
            got.tuple_count(),
            files.iter().map(HeapFile::tuple_count).sum::<usize>()
        );
        assert_eq!(
            got.bytes_used(),
            files.iter().map(HeapFile::bytes_used).sum::<usize>()
        );
        for (pi, page) in expect.iter().enumerate() {
            assert_eq!(got.page(pi).unwrap(), page.view(), "page {pi}");
        }
        assert_eq!(
            HeapFile::from_pages(64, expect.iter().map(Page::view))
                .unwrap()
                .page_count(),
            expect.len()
        );

        // One file is the file itself, shared; none is an empty file.
        let one = HeapFile::concat(64, &files[..1]).unwrap();
        assert!(Arc::ptr_eq(&one.body, &files[0].body));
        let none = HeapFile::concat(64, std::iter::empty()).unwrap();
        assert_eq!((none.page_bytes(), none.page_count()), (64, 0));
        // A page that would not fit a page of the new file is refused.
        assert!(matches!(
            HeapFile::concat(32, &files[..1]),
            Err(StorageError::TupleTooLarge { .. })
        ));
    }
}
