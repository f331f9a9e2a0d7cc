//! Pages of tuples, laid out as **column strips**.
//!
//! Rows lie on strips (`Strips`): one strip per column, an `Int`-only strip a
//! plain `Vec<i64>` (the validity-free fixed-width fast path batch
//! operators ride) and a strip that has seen any other type general
//! [`Value`] cells. An owned [`Page`] holds the strips of its own rows —
//! message blocks, spill pages, in-memory row pages — while a heap file
//! ([`crate::HeapFile`]) holds one set of strips for all of its rows and
//! cuts them into pages with a page table. Either way a page is read
//! through one borrowed [`PageView`]: the strips, the range of rows on them
//! that is the page (`Extent`), and the page's capacity.
//!
//! The byte budget is accounted in the [`adaptagg_model::encode`] wire
//! format — `try_push` admits exactly the rows the old row-major byte page
//! admitted, so page-boundary and cost decisions are unchanged — and
//! [`PageView::encode_into`] / [`Page::from_raw`] convert to/from that
//! format at the disk and network edges. A view reads 4 KB heap-file pages
//! and 2 KB network message blocks alike — only the capacity differs.
//!
//! Rows reach a page two ways. One row at a time takes the cell walk
//! ([`Page::try_push_row`]): sized in the wire format, then landed cell by
//! cell. A run of rows ([`Page::fill`], [`RowRun`]) lands as strip runs, a
//! column at a time, while the page is on the typed lane — every row on it
//! so far `Int` cells of the run's arity — and takes the cell walk
//! otherwise. Either way the page ends up the same, row for row and byte
//! for byte.
//!
//! Batch consumers read whole columns through [`PageView::column`]
//! ([`StripView`]); row-at-a-time consumers read each row where it lies
//! ([`PageView::rows`]: cell by cell, or by position). [`PageView::iter`] /
//! [`PageView::cursor`] reconstruct rows as values, for what still wants
//! them.

use crate::batch::ScanBatch;
use crate::error::StorageError;
use adaptagg_model::encode::TAG_INT;
use adaptagg_model::{
    decode_tuple_into, encode_value, CellRow, CellSink, IndexRow, KeyCell, RowRun, StripView, Value,
};
use std::fmt;
use std::ops::Range;

/// A page of tuples with a byte-capacity bound, stored column-wise.
#[derive(Debug, Clone)]
pub struct Page {
    capacity: usize,
    strips: Strips,
    /// The page's rows: all of the strips' rows, from row 0.
    extent: Extent,
}

/// Rows on column strips, appended under a page's byte budget: an owned
/// page's rows, or a whole heap file's.
#[derive(Debug, Clone, Default)]
pub(crate) struct Strips {
    /// Per-row arity (the wire `arity:u16` header), in row order.
    arities: Vec<u16>,
    /// Column strips. Strip `j` is padded lazily: it holds one cell per
    /// row only up to the last row whose arity exceeds `j`; pad cells for
    /// shorter rows are never read (row reconstruction stops at the
    /// row's arity).
    cols: Vec<ColumnStrip>,
    /// `Some(a)` while every row since the open page's first is an
    /// all-`Int` row of arity `a`: the typed lane is open, and a run of
    /// such rows lands as strip runs ([`Page::fill`]). Any other row
    /// closes it until the page is cleared.
    int_arity: Option<usize>,
}

/// Where a page's rows lie on their strips, and what the page holds: an
/// owned page's header, and a heap file's page-table entry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Extent {
    /// The page's first row on the strips.
    start: usize,
    /// Wire-format bytes the rows occupy (what the capacity bounds).
    bytes_used: usize,
    rows: u32,
    /// Smallest row arity on the page (0 when empty): columns `< min`
    /// are dense strips over its rows, so `column` is O(1).
    min_arity: u16,
    /// Largest row arity on the page (0 when empty); `min == max` ⇔
    /// arity-uniform.
    max_arity: u16,
}

impl Extent {
    /// An empty page whose first row will be row `start` of the strips.
    pub(crate) fn at(start: usize) -> Self {
        Extent {
            start,
            ..Extent::default()
        }
    }

    pub(crate) fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    fn range(&self) -> Range<usize> {
        self.start..self.start + self.rows as usize
    }

    /// One more row, of `bytes` wire bytes and arity `arity`.
    fn add(&mut self, bytes: usize, arity: u16) {
        self.add_rows(1, bytes, arity);
    }

    /// `count` more rows, each of `bytes` wire bytes and arity `arity`.
    #[inline]
    fn add_rows(&mut self, count: usize, bytes: usize, arity: u16) {
        self.min_arity = if self.rows == 0 { arity } else { self.min_arity.min(arity) };
        self.max_arity = self.max_arity.max(arity);
        self.bytes_used += count * bytes;
        self.rows += count as u32;
    }
}

/// One column's cells. `is_int` selects the fixed-width fast path; the
/// first non-`Int` cell promotes the strip to general values. Both
/// buffers are kept so a pooled page retains its capacity across
/// `clear`/refill cycles.
#[derive(Debug, Clone)]
pub(crate) struct ColumnStrip {
    pub(crate) ints: Vec<i64>,
    values: Vec<Value>,
    pub(crate) is_int: bool,
}

impl ColumnStrip {
    fn new() -> Self {
        ColumnStrip {
            ints: Vec::new(),
            values: Vec::new(),
            is_int: true,
        }
    }

    fn len(&self) -> usize {
        if self.is_int {
            self.ints.len()
        } else {
            self.values.len()
        }
    }

    /// Extend the strip with pad cells up to `rows` entries (rows whose
    /// arity does not reach this column).
    fn pad_to(&mut self, rows: usize) {
        if self.is_int {
            if self.ints.len() < rows {
                self.ints.resize(rows, 0);
            }
        } else if self.values.len() < rows {
            self.values.resize(rows, Value::Null);
        }
    }

    /// Size an empty strip for `rows` cells, `Int`s or general ones.
    fn reserve_cells(&mut self, ints: bool, rows: usize) {
        if ints {
            self.ints.reserve(rows);
        } else {
            self.values.reserve(rows);
        }
    }

    fn push(&mut self, v: &Value) {
        if self.is_int {
            if let Value::Int(x) = v {
                self.ints.push(*x);
                return;
            }
            self.promote();
        }
        self.values.push(v.clone());
    }

    /// [`ColumnStrip::push`] of `Value::Int(x)`.
    fn push_int(&mut self, x: i64) {
        if self.is_int {
            self.ints.push(x);
        } else {
            self.values.push(Value::Int(x));
        }
    }

    /// Rewiden the `Int` fast path into general cells (first non-`Int`
    /// value, including pads-turned-`Null` never happens: pads stay 0).
    fn promote(&mut self) {
        debug_assert!(self.values.is_empty());
        self.values.extend(self.ints.iter().map(|&x| Value::Int(x)));
        self.ints.clear();
        self.is_int = false;
    }

    fn clear(&mut self) {
        self.ints.clear();
        self.values.clear();
        self.is_int = true;
    }

    /// Cell `r`, where it lies.
    #[inline]
    fn at(&self, r: usize) -> KeyCell<'_> {
        if self.is_int {
            KeyCell::Int(self.ints[r])
        } else {
            KeyCell::Value(&self.values[r])
        }
    }

    /// Hand `sink` cell `r`.
    #[inline]
    fn cell<S: CellSink>(&self, r: usize, sink: &mut S) {
        if self.is_int {
            sink.int(self.ints[r]);
        } else {
            sink.value(&self.values[r]);
        }
    }

    /// Logical equality of cell `r` here and cell `s` of `other`,
    /// regardless of which representation (fast-path ints vs general
    /// values) each strip uses.
    fn cell_eq(&self, r: usize, other: &ColumnStrip, s: usize) -> bool {
        match (self.is_int, other.is_int) {
            (true, true) => self.ints[r] == other.ints[s],
            (true, false) => matches!(other.values[s], Value::Int(x) if x == self.ints[r]),
            (false, true) => matches!(self.values[r], Value::Int(x) if x == other.ints[s]),
            (false, false) => self.values[r] == other.values[s],
        }
    }
}

/// What appending a row takes in bytes: on the wire (what the capacity
/// bounds) and held in the strips (what never-filled strips size their
/// buffers by). The first walk of a row about to be appended.
#[derive(Default)]
struct RowSize {
    arity: usize,
    /// Tag + payload bytes of the cells (the `arity:u16` header excluded).
    wire: usize,
    held: usize,
}

impl CellSink for RowSize {
    #[inline]
    fn int(&mut self, _: i64) {
        self.arity += 1;
        self.wire += 1 + std::mem::size_of::<i64>();
        self.held += std::mem::size_of::<i64>();
    }

    #[inline]
    fn value(&mut self, v: &Value) {
        self.arity += 1;
        self.wire += 1 + v.encoded_payload_len();
        self.held += match v {
            Value::Int(_) => std::mem::size_of::<i64>(),
            _ => std::mem::size_of::<Value>(),
        };
    }
}

/// Wire bytes of an all-`Int` row of `arity` cells: the `arity:u16`
/// header, then a tag and eight bytes per cell, whatever the values.
#[inline]
pub(crate) const fn int_row_bytes(arity: usize) -> usize {
    std::mem::size_of::<u16>() + arity * (1 + std::mem::size_of::<i64>())
}

/// Wire bytes of `row`: its `arity:u16` header, then tag and payload per
/// cell (what a page's capacity bounds).
pub(crate) fn wire_bytes<R: CellRow + ?Sized>(row: &R) -> usize {
    let mut size = RowSize::default();
    row.cells(&mut size);
    std::mem::size_of::<u16>() + size.wire
}

/// How many pages of `page_bytes` the rows fill, appended in order by the
/// page's greedy byte rule ([`Page::try_push_row`]: a row opens a page when
/// the open one lacks the bytes for it); `TupleTooLarge` for a row wider
/// than any page. What writing them would charge, without writing them.
pub fn pages_for<'a, R: CellRow + 'a>(
    page_bytes: usize,
    rows: impl IntoIterator<Item = &'a R>,
) -> Result<usize, StorageError> {
    // Start "full", so the first row opens the first page.
    let (mut pages, mut used) = (0, page_bytes);
    for row in rows {
        let n = wire_bytes(row);
        if n > page_bytes {
            return Err(StorageError::TupleTooLarge {
                tuple_bytes: n,
                page_bytes,
            });
        }
        if used + n > page_bytes {
            pages += 1;
            used = 0;
        }
        used += n;
    }
    Ok(pages)
}

/// Lands the cells of row `row` on their strips, column by column: the
/// second walk.
struct RowPush<'a> {
    strips: std::slice::IterMut<'a, ColumnStrip>,
    row: usize,
    /// Rows to size a never-filled strip for.
    reserve: Option<usize>,
}

impl RowPush<'_> {
    #[inline]
    fn strip(&mut self, ints: bool) -> &mut ColumnStrip {
        let strip = self.strips.next().expect("a strip per cell");
        if let Some(rows) = self.reserve {
            strip.reserve_cells(ints, rows);
        }
        strip.pad_to(self.row);
        strip
    }
}

impl CellSink for RowPush<'_> {
    #[inline]
    fn int(&mut self, x: i64) {
        self.strip(true).push_int(x);
    }

    #[inline]
    fn value(&mut self, v: &Value) {
        self.strip(matches!(v, Value::Int(_))).push(v);
    }
}

/// Row `.1` of run `.0`, read cell by cell: what the cell walk takes.
pub(crate) struct RunRow<'a, R: ?Sized>(pub(crate) &'a R, pub(crate) usize);

impl<R: RowRun + ?Sized> CellRow for RunRow<'_, R> {
    #[inline]
    fn cells<S: CellSink>(&self, sink: &mut S) {
        self.0.cells(self.1, sink);
    }
}

/// Encodes a row's cells in the wire format.
struct Encode<'a>(&'a mut Vec<u8>);

impl CellSink for Encode<'_> {
    #[inline]
    fn int(&mut self, x: i64) {
        encode_value(&Value::Int(x), self.0);
    }

    #[inline]
    fn value(&mut self, v: &Value) {
        encode_value(v, self.0);
    }
}

impl Strips {
    /// Rows held.
    pub(crate) fn rows(&self) -> usize {
        self.arities.len()
    }

    /// Append `row` to `open`, the page of `capacity` wire bytes that ends
    /// the strips: `Ok(true)` if stored, `Ok(false)` if the page is full,
    /// or `TupleTooLarge` if the row can never fit *any* page of this
    /// capacity. The cell walk: the row is sized in the wire format first,
    /// then its cells land strip by strip. The typed lane stays open while
    /// each row is `Int` cells of the arity of the page's first.
    pub(crate) fn try_push_row<R: CellRow + ?Sized>(
        &mut self,
        open: &mut Extent,
        capacity: usize,
        row: &R,
    ) -> Result<bool, StorageError> {
        // Size in the wire format first (`encoded_len`: arity header, then
        // tag + payload per cell): admission decisions must stay
        // byte-identical to the row-major layout this replaced.
        let mut size = RowSize::default();
        row.cells(&mut size);
        let n = std::mem::size_of::<u16>() + size.wire;
        if open.bytes_used + n > capacity {
            if n > capacity {
                return Err(StorageError::TupleTooLarge {
                    tuple_bytes: n,
                    page_bytes: capacity,
                });
            }
            return Ok(false);
        }
        let arity = u16::try_from(size.arity).expect("tuple arity exceeds u16");
        // Strips that have never held a row (a pooled page keeps its
        // buffers through `clear`) size themselves for a page of rows like
        // this one, instead of doubling their way up a dozen times — but
        // for no more rows than would take the page's byte capacity in the
        // strips (`Float`/`Null`/short `Str` cells are wider here than on
        // the wire), so a page that stays nearly empty never holds more
        // than that.
        let like_first = (self.arities.capacity() == 0)
            .then(|| capacity / n.max(std::mem::size_of::<u16>() + size.held));
        if let Some(rows) = like_first {
            self.arities.reserve(rows);
        }
        while self.cols.len() < size.arity {
            self.cols.push(ColumnStrip::new());
        }
        let at = self.rows();
        row.cells(&mut RowPush {
            strips: self.cols.iter_mut(),
            row: at,
            reserve: like_first,
        });
        let lane = open.rows == 0 || self.int_arity == Some(size.arity);
        self.int_arity = (lane && self.cols[..size.arity].iter().all(|c| c.is_int)).then_some(size.arity);
        self.arities.push(arity);
        open.add(n, arity);
        Ok(true)
    }

    /// Drop every row (strip capacities retained).
    fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.arities.clear();
        self.int_arity = None;
    }
}

/// A page borrowed where its rows lie: an owned [`Page`]'s
/// ([`Page::view`]) or one page of a heap file
/// ([`crate::HeapFile::page`]). Copying one copies no cells.
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    strips: &'a Strips,
    extent: Extent,
    capacity: usize,
}

impl<'a> From<&'a Page> for PageView<'a> {
    fn from(page: &'a Page) -> Self {
        page.view()
    }
}

impl<'p, 'a> From<&'p PageView<'a>> for PageView<'p> {
    fn from(page: &'p PageView<'a>) -> Self {
        *page
    }
}

impl<'a> PageView<'a> {
    pub(crate) fn new(strips: &'a Strips, extent: Extent, capacity: usize) -> Self {
        debug_assert!(extent.range().end <= strips.rows());
        PageView {
            strips,
            extent,
            capacity,
        }
    }

    /// Byte capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Wire-format bytes used.
    pub fn bytes_used(&self) -> usize {
        self.extent.bytes_used
    }

    /// Number of tuples on the page.
    pub fn tuple_count(&self) -> usize {
        self.extent.rows as usize
    }

    /// Whether the page holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.extent.rows == 0
    }

    /// The arity of the page's shortest row (0 when empty): the columns
    /// below it are dense strips ([`PageView::column`]).
    pub fn min_arity(&self) -> usize {
        usize::from(self.extent.min_arity)
    }

    /// The arity shared by every row, when the page is non-empty and
    /// arity-uniform — the precondition for whole-page batch operators.
    /// O(1): the min/max arity are maintained on push.
    pub fn uniform_arity(&self) -> Option<usize> {
        let e = &self.extent;
        (e.rows > 0 && e.min_arity == e.max_arity).then_some(usize::from(e.min_arity))
    }

    /// Column `j` as a contiguous strip covering every row. `None` when
    /// any row lacks the column (a padded strip would leak pad cells as
    /// data) — callers fall back to the row-at-a-time cursor. O(1): hash
    /// probes compare keys against strips through this on every row.
    pub fn column(&self, j: usize) -> Option<StripView<'a>> {
        if self.extent.rows == 0 || j >= self.min_arity() {
            return None;
        }
        let c = self.strips.cols.get(j)?;
        debug_assert!(c.len() >= self.extent.range().end);
        let rows = self.extent.range();
        Some(if c.is_int {
            StripView::Ints(&c.ints[rows])
        } else {
            StripView::Values(&c.values[rows])
        })
    }

    /// The strips the page's rows lie on.
    pub(crate) fn cols(&self) -> &'a [ColumnStrip] {
        &self.strips.cols
    }

    /// The page's first row on its strips.
    pub(crate) fn start(&self) -> usize {
        self.extent.start
    }

    /// The page's rows in order, each as cells another page appends strip
    /// by strip ([`Page::try_push_row`]) without a `Value` row in between.
    pub fn rows(&self) -> impl Iterator<Item = PageRow<'a>> {
        let strips = self.strips;
        self.extent.range().map(move |r| PageRow { strips, r, skip: 0 })
    }

    /// The page's tuples, each row materialized from the strips.
    pub fn iter(&self) -> impl Iterator<Item = Result<Vec<Value>, StorageError>> + 'a {
        self.rows().map(|row| {
            let mut out = Vec::with_capacity(row.arity());
            row.cells(&mut out);
            Ok(out)
        })
    }

    /// A cursor materializing tuples into a caller-owned scratch vector —
    /// the allocation-reusing counterpart of [`PageView::iter`] for hot
    /// paths.
    pub fn cursor(&self) -> PageCursor<'a> {
        PageCursor {
            strips: self.strips,
            rows: self.extent.range(),
        }
    }

    /// Decode all tuples into vectors (convenience for tests and stores).
    pub fn decode_all(&self) -> Result<Vec<Vec<Value>>, StorageError> {
        self.iter().collect()
    }

    /// Append the page's rows in the row-major wire encoding (persistence
    /// and network frames). Writes exactly [`PageView::bytes_used`] bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.bytes_used());
        for row in self.rows() {
            out.extend_from_slice(&(row.arity() as u16).to_le_bytes());
            row.cells(&mut Encode(out));
        }
    }
}

impl PartialEq for PageView<'_> {
    /// Logical equality: same capacity, same rows. Strip representation
    /// (fast-path ints vs promoted values), where the rows lie, and
    /// retained-but-cleared strip buffers do not participate, so a pooled
    /// page refilled with the same rows equals a fresh one, and a heap
    /// file's page equals the owned page it was cut like.
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.extent.rows == other.extent.rows
            && self.extent.bytes_used == other.extent.bytes_used
            && self.strips.arities[self.extent.range()] == other.strips.arities[other.extent.range()]
            && self.rows().zip(other.rows()).all(|(a, b)| a.cells_eq(&b))
    }
}

impl Eq for PageView<'_> {}

/// The page's own rows, not the strips of the whole file it lies in —
/// and so for every type that holds a view or a range of rows.
impl fmt::Debug for PageView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageView")
            .field("capacity", &self.capacity)
            .field("extent", &self.extent)
            .field("rows", &self.decode_all())
            .finish()
    }
}

impl fmt::Debug for PageRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut cells = Vec::new();
        self.cells(&mut cells);
        f.debug_tuple("PageRow").field(&self.r).field(&cells).finish()
    }
}

impl fmt::Debug for PageCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageCursor").field("rows", &self.rows).finish_non_exhaustive()
    }
}

/// Projected row `r` of a batch, read off the source page's strips
/// ([`ScanBatch::row`]).
#[derive(Debug, Clone, Copy)]
pub struct StripRow<'a, 'b> {
    pub(crate) batch: &'a ScanBatch<'b>,
    /// The row on the source page's strips.
    pub(crate) r: usize,
}

impl CellRow for StripRow<'_, '_> {
    #[inline]
    fn cells<S: CellSink>(&self, sink: &mut S) {
        // The batch validated its projection against the source's dense
        // strips when it was built; nothing is re-resolved per row.
        let strips = self.batch.page().cols();
        for j in 0..self.batch.arity() {
            strips[self.batch.base_column(j)].cell(self.r, sink);
        }
    }
}

impl IndexRow for StripRow<'_, '_> {
    #[inline]
    fn arity(&self) -> usize {
        self.batch.arity()
    }

    #[inline]
    fn cell(&self, j: usize) -> KeyCell<'_> {
        self.batch.page().cols()[self.batch.base_column(j)].at(self.r)
    }
}

/// One row of a page — ragged or not — read off the strips where it lies
/// ([`PageView::rows`]), or what is left of it past a leading cell
/// ([`PageRow::split_first`]).
#[derive(Clone, Copy)]
pub struct PageRow<'a> {
    strips: &'a Strips,
    r: usize,
    /// Leading cells of the stored row that are not the row's.
    skip: usize,
}

impl<'a> PageRow<'a> {
    /// The first cell and the rest of the row, as a slice's `split_first`:
    /// how a spilled row's kind tag comes off it. `None` for an empty row.
    pub fn split_first(self) -> Option<(KeyCell<'a>, PageRow<'a>)> {
        (self.arity() > 0).then(|| (self.at(0), PageRow { skip: self.skip + 1, ..self }))
    }

    /// The stored row's cells, the skipped ones included.
    fn stored(&self) -> &'a [ColumnStrip] {
        &self.strips.cols[..usize::from(self.strips.arities[self.r])]
    }

    #[inline]
    fn at(&self, j: usize) -> KeyCell<'a> {
        self.stored()[self.skip + j].at(self.r)
    }

    /// Whether two stored rows of one arity hold equal cells.
    fn cells_eq(&self, other: &PageRow<'_>) -> bool {
        let mut cols = self.stored().iter().zip(other.stored());
        cols.all(|(a, b)| a.cell_eq(self.r, b, other.r))
    }
}

impl CellRow for PageRow<'_> {
    #[inline]
    fn cells<S: CellSink>(&self, sink: &mut S) {
        // A strip holds a cell for every row whose arity reaches it.
        for strip in &self.stored()[self.skip..] {
            strip.cell(self.r, sink);
        }
    }
}

impl IndexRow for PageRow<'_> {
    #[inline]
    fn arity(&self) -> usize {
        usize::from(self.strips.arities[self.r]) - self.skip
    }

    #[inline]
    fn cell(&self, j: usize) -> KeyCell<'_> {
        self.at(j)
    }
}

impl Page {
    /// An empty page with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        Page {
            capacity,
            strips: Strips::default(),
            extent: Extent::default(),
        }
    }

    /// The page, borrowed: what every reader of its rows goes through.
    pub fn view(&self) -> PageView<'_> {
        PageView::new(&self.strips, self.extent, self.capacity)
    }

    /// Byte capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Wire-format bytes currently used.
    pub fn bytes_used(&self) -> usize {
        self.extent.bytes_used
    }

    /// Number of tuples on the page.
    pub fn tuple_count(&self) -> usize {
        self.extent.rows as usize
    }

    /// Whether the page holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.extent.rows == 0
    }

    /// Whether a tuple of `n` encoded bytes would fit.
    pub fn fits(&self, n: usize) -> bool {
        self.extent.bytes_used + n <= self.capacity
    }

    /// Try to append a tuple. Returns `Ok(true)` if stored, `Ok(false)` if
    /// the page is full (caller seals it and starts a new one), or an error
    /// if the tuple can never fit *any* page of this capacity.
    pub fn try_push(&mut self, values: &[Value]) -> Result<bool, StorageError> {
        self.try_push_row(values)
    }

    /// [`Page::try_push`] of a row read cell by cell wherever it lies (a
    /// group in a store, a row of another page), its `Int` cells copied as
    /// `i64`s: the cell walk (`Strips::try_push_row`). Same admission,
    /// same errors, and the page ends up equal to one that was pushed the
    /// materialized row.
    #[inline]
    pub fn try_push_row<R: CellRow + ?Sized>(&mut self, row: &R) -> Result<bool, StorageError> {
        self.strips.try_push_row(&mut self.extent, self.capacity, row)
    }

    /// Append as many of `run`'s rows `rows`, in order, as the page takes,
    /// and return how many it took: fewer than offered means the page is
    /// full for the next one (none, on a fresh page, means that row is wider
    /// than any page). While the page is on the typed lane at the run's
    /// arity, or empty, rows of a run that gathers land as strip runs, as
    /// many as fit its free bytes; otherwise each row takes the cell walk
    /// ([`Page::try_push_row`]). The page ends up equal to one pushed the
    /// rows one by one.
    pub fn fill<R: RowRun + ?Sized>(&mut self, run: &R, rows: Range<usize>) -> usize {
        if let Some(arity) = run.int_arity() {
            let on_lane = match self.strips.int_arity {
                Some(a) => a == arity,
                None => self.is_empty(),
            };
            let (free, n) = (self.capacity - self.extent.bytes_used, int_row_bytes(arity));
            // Divided only when the rows do not all fit: a run often does.
            let take = if rows.len() * n <= free { rows.len() } else { free / n };
            if on_lane && take > 0 {
                self.extend_strips(run, arity, rows.start..rows.start + take);
                return take;
            }
        }
        rows.take_while(|&i| matches!(self.try_push_row(&RunRow(run, i)), Ok(true))).count()
    }

    /// Rows `rows` of `run`, all-`Int` rows of `arity` cells that fit the
    /// page's free bytes, a strip run per column: the typed lane.
    fn extend_strips<R: RowRun + ?Sized>(&mut self, run: &R, arity: usize, rows: Range<usize>) {
        let (count, n) = (rows.len(), int_row_bytes(arity));
        let strips = &mut self.strips;
        // Never-filled strips are sized for a page of such rows at once, as
        // the cell walk sizes them for a page of its first row.
        let like_first = (strips.arities.capacity() == 0).then(|| self.capacity / n);
        if let Some(k) = like_first {
            strips.arities.reserve(k);
        }
        while strips.cols.len() < arity {
            strips.cols.push(ColumnStrip::new());
        }
        let held = strips.arities.len();
        for (j, strip) in strips.cols[..arity].iter_mut().enumerate() {
            debug_assert!(strip.is_int && strip.ints.len() == held);
            if let Some(k) = like_first {
                strip.ints.reserve(k);
            }
            run.gather(j, rows.clone(), &mut strip.ints);
            debug_assert_eq!(strip.ints.len(), held + count, "gathered column {j}");
        }
        let tag = u16::try_from(arity).expect("tuple arity exceeds u16");
        strips.arities.extend(std::iter::repeat_n(tag, count));
        strips.int_arity = Some(arity);
        self.extent.add_rows(count, n, tag);
    }

    /// [`PageView::min_arity`].
    pub fn min_arity(&self) -> usize {
        self.view().min_arity()
    }

    /// [`PageView::uniform_arity`].
    pub fn uniform_arity(&self) -> Option<usize> {
        self.view().uniform_arity()
    }

    /// [`PageView::column`].
    pub fn column(&self, j: usize) -> Option<StripView<'_>> {
        self.view().column(j)
    }

    /// [`PageView::rows`].
    pub fn rows(&self) -> impl Iterator<Item = PageRow<'_>> {
        self.view().rows()
    }

    /// [`PageView::iter`].
    pub fn iter(&self) -> impl Iterator<Item = Result<Vec<Value>, StorageError>> + '_ {
        self.view().iter()
    }

    /// [`PageView::cursor`].
    pub fn cursor(&self) -> PageCursor<'_> {
        self.view().cursor()
    }

    /// [`PageView::decode_all`].
    pub fn decode_all(&self) -> Result<Vec<Vec<Value>>, StorageError> {
        self.view().decode_all()
    }

    /// [`PageView::encode_into`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.view().encode_into(out)
    }

    /// Clear the page for reuse (strip capacities retained — the
    /// "workhorse collection" pattern: exchange operators and the page
    /// pool reuse pages without reallocating).
    pub fn clear(&mut self) {
        self.strips.clear();
        self.extent = Extent::default();
    }

    /// Rebuild a page from wire-format bytes, verifying that they decode
    /// to exactly `tuples` tuples spanning the whole buffer (persistence,
    /// network frames). A frame of all-`Int` rows of one arity lands as one
    /// run (`IntFrame`); any other decodes row by row.
    pub fn from_raw(capacity: usize, data: Vec<u8>, tuples: u32) -> Result<Self, StorageError> {
        if data.len() > capacity {
            return Err(StorageError::TupleTooLarge {
                tuple_bytes: data.len(),
                page_bytes: capacity,
            });
        }
        let mut page = Page::new(capacity);
        if let Some(frame) = IntFrame::of(&data, tuples as usize) {
            // Cannot refuse: the whole buffer already fits the capacity.
            let taken = page.fill(&frame, 0..frame.rows);
            debug_assert_eq!(taken, frame.rows);
            return Ok(page);
        }
        let mut scratch = Vec::new();
        let mut pos = 0usize;
        for _ in 0..tuples {
            let used = decode_tuple_into(&data[pos..], &mut scratch)
                .map_err(StorageError::Model)?;
            pos += used;
            // Cannot refuse: the whole buffer already fits the capacity.
            page.try_push(&scratch)?;
        }
        if pos != data.len() {
            return Err(StorageError::Model(adaptagg_model::ModelError::Corrupt(
                "page bytes longer than its tuples",
            )));
        }
        Ok(page)
    }
}

impl PartialEq for Page {
    /// [`PageView`]'s logical equality.
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Page {}

/// Wire bytes whose every row is `arity` `Int` cells, `rows` of them
/// spanning the buffer exactly: each cell lies at a fixed offset, so a
/// column gathers straight off the bytes.
struct IntFrame<'a> {
    data: &'a [u8],
    arity: usize,
    rows: usize,
}

impl<'a> IntFrame<'a> {
    /// The frame, if `data` is `rows` all-`Int` rows of its first row's
    /// arity and nothing more.
    fn of(data: &'a [u8], rows: usize) -> Option<Self> {
        let arity = usize::from(u16::from_le_bytes(data.get(..2)?.try_into().ok()?));
        let width = int_row_bytes(arity);
        if data.len() != rows.checked_mul(width)? {
            return None;
        }
        let uniform = data.chunks_exact(width).all(|row| {
            usize::from(u16::from_le_bytes([row[0], row[1]])) == arity
                && row[2..].chunks_exact(9).all(|cell| cell[0] == TAG_INT)
        });
        uniform.then_some(IntFrame { data, arity, rows })
    }

    #[inline]
    fn cell(&self, i: usize, j: usize) -> i64 {
        let at = i * int_row_bytes(self.arity) + 2 + 9 * j + 1;
        i64::from_le_bytes(self.data[at..at + 8].try_into().expect("eight bytes"))
    }
}

impl RowRun for IntFrame<'_> {
    fn len(&self) -> usize {
        self.rows
    }

    fn int_arity(&self) -> Option<usize> {
        Some(self.arity)
    }

    fn gather(&self, j: usize, rows: Range<usize>, out: &mut Vec<i64>) {
        out.extend(rows.map(|i| self.cell(i, j)));
    }

    fn cells<S: CellSink>(&self, i: usize, sink: &mut S) {
        (0..self.arity).for_each(|j| sink.int(self.cell(i, j)));
    }
}

/// Scratch-reuse cursor over a page's tuples (see [`PageView::cursor`]).
pub struct PageCursor<'a> {
    strips: &'a Strips,
    rows: Range<usize>,
}

impl PageCursor<'_> {
    /// Materialize the next tuple into `out` (cleared first, allocation
    /// reused). Returns `Ok(false)` when the page is exhausted.
    pub fn next_into(&mut self, out: &mut Vec<Value>) -> Result<bool, StorageError> {
        let Some(r) = self.rows.next() else {
            return Ok(false);
        };
        out.clear();
        PageRow { strips: self.strips, r, skip: 0 }.cells(out);
        Ok(true)
    }

    /// Tuples not yet materialized.
    pub fn remaining(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::Value;

    fn ints(n: i64) -> Vec<Value> {
        vec![Value::Int(n), Value::Int(n * 2)]
    }

    #[test]
    fn push_until_full_then_refuse() {
        let mut p = Page::new(64);
        let mut stored = 0;
        while p.try_push(&ints(stored)).unwrap() {
            stored += 1;
        }
        // Each tuple is 2 + 2*(1+8) = 20 bytes; 3 fit in 64.
        assert_eq!(stored, 3);
        assert_eq!(p.tuple_count(), 3);
        assert_eq!(p.bytes_used(), 60);
        assert!(!p.fits(20));
    }

    #[test]
    fn failed_push_rolls_back_without_a_torn_row() {
        // Capacity leaves exactly 19 free bytes after three 20-byte
        // tuples: the next push misses by one byte and must refuse with
        // no partial state — no strip cells, no count bump, no bytes.
        let mut p = Page::new(79);
        for i in 0..3 {
            assert!(p.try_push(&ints(i)).unwrap());
        }
        assert_eq!(p.bytes_used(), 60);
        assert!(!p.try_push(&ints(99)).unwrap(), "one byte short must refuse");
        assert_eq!(p.tuple_count(), 3);
        assert_eq!(p.bytes_used(), 60, "rolled back to the pre-push length");
        let decoded = p.decode_all().unwrap();
        assert_eq!(decoded.len(), 3);
        for (i, t) in decoded.iter().enumerate() {
            assert_eq!(t, &ints(i as i64), "no torn row after rollback");
        }
        // A smaller tuple still fits in the remaining 19 bytes.
        assert!(p.try_push(&[Value::Int(7)]).unwrap());
        assert_eq!(p.tuple_count(), 4);
        assert_eq!(p.decode_all().unwrap()[3], vec![Value::Int(7)]);
    }

    #[test]
    fn oversized_tuple_is_an_error_not_a_full_page() {
        let mut p = Page::new(16);
        let big = vec![Value::Str("x".repeat(100).into())];
        assert!(matches!(
            p.try_push(&big),
            Err(StorageError::TupleTooLarge { .. })
        ));
    }

    #[test]
    fn iteration_round_trips_in_order() {
        let mut p = Page::new(4096);
        for i in 0..50 {
            assert!(p.try_push(&ints(i)).unwrap());
        }
        let decoded = p.decode_all().unwrap();
        assert_eq!(decoded.len(), 50);
        for (i, t) in decoded.iter().enumerate() {
            assert_eq!(t[0], Value::Int(i as i64));
        }
        assert_eq!(p.iter().size_hint(), (50, Some(50)));
    }

    #[test]
    fn cursor_matches_iter_and_reuses_scratch() {
        let mut p = Page::new(4096);
        for i in 0..40 {
            p.try_push(&ints(i)).unwrap();
        }
        let via_iter = p.decode_all().unwrap();
        let mut via_cursor = Vec::new();
        let mut scratch = Vec::new();
        let mut cursor = p.cursor();
        while cursor.next_into(&mut scratch).unwrap() {
            via_cursor.push(scratch.clone());
        }
        assert_eq!(via_cursor, via_iter);
        assert_eq!(cursor.remaining(), 0);
        assert!(!cursor.next_into(&mut scratch).unwrap(), "stays exhausted");
    }

    #[test]
    fn a_one_row_page_holds_no_more_than_its_byte_capacity() {
        let held = |p: &Page| {
            let cells = |c: &ColumnStrip| {
                c.ints.capacity() * std::mem::size_of::<i64>()
                    + c.values.capacity() * std::mem::size_of::<Value>()
            };
            p.strips.arities.capacity() * std::mem::size_of::<u16>()
                + p.strips.cols.iter().map(cells).sum::<usize>()
        };
        let filled = |first: &[Value], rest: &[Value]| {
            let mut p = Page::new(4096);
            p.try_push(first).unwrap();
            let after_one = (p.strips.arities.capacity(), held(&p));
            while p.try_push(rest).unwrap() {}
            (after_one, p.tuple_count(), held(&p))
        };
        // Cells narrower in the strips than on the wire (`Int`s, a padded
        // `Str`): sized once for the rows that fit, never regrown.
        let ((rows, bytes), fit, full) = filled(&ints(1), &ints(2));
        assert_eq!((rows, fit), (204, 204));
        assert!(bytes <= 4096 && full == bytes, "{bytes} then {full} bytes");
        let padded = [Value::Int(1), Value::Str("x".repeat(80).into())];
        let ((rows, bytes), fit, full) = filled(&padded, &padded);
        assert_eq!((rows, fit), (42, 42));
        assert!(bytes <= 4096 && full == bytes, "{bytes} then {full} bytes");
        // Cells wider in the strips than on the wire: the reservation
        // stops at the page's byte capacity and the strips grow from there.
        let wide = [Value::Float(0.5), Value::Null];
        let ((rows, bytes), fit, _) = filled(&wide, &wide);
        assert_eq!((rows, fit), (4096 / 50, 4096 / 12));
        assert!(bytes <= 4096, "{bytes} bytes held by a one-row page");
    }

    #[test]
    fn clear_retains_capacity() {
        let mut p = Page::new(128);
        p.try_push(&ints(1)).unwrap();
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.bytes_used(), 0);
        assert!(p.try_push(&ints(2)).unwrap());
    }

    #[test]
    fn cleared_page_equals_fresh_page() {
        let mut p = Page::new(128);
        p.try_push(&[Value::Str("s".into()), Value::Int(1)]).unwrap();
        p.clear();
        assert_eq!(p, Page::new(128), "retained strip buffers stay invisible");
        p.try_push(&ints(2)).unwrap();
        let mut q = Page::new(128);
        q.try_push(&ints(2)).unwrap();
        assert_eq!(p, q, "refilled pooled page equals fresh page");
    }

    #[test]
    fn empty_page_iterates_nothing() {
        let p = Page::new(4096);
        assert_eq!(p.iter().count(), 0);
    }

    #[test]
    fn mixed_width_tuples() {
        let mut p = Page::new(4096);
        p.try_push(&[Value::Null]).unwrap();
        p.try_push(&[Value::Str("abc".into()), Value::Float(1.5)]).unwrap();
        let all = p.decode_all().unwrap();
        assert_eq!(all[0], vec![Value::Null]);
        assert_eq!(all[1], vec![Value::Str("abc".into()), Value::Float(1.5)]);
    }

    #[test]
    fn uniform_arity_detects_ragged_pages() {
        let mut p = Page::new(4096);
        assert_eq!(p.uniform_arity(), None, "empty page has no arity");
        p.try_push(&ints(1)).unwrap();
        p.try_push(&ints(2)).unwrap();
        assert_eq!(p.uniform_arity(), Some(2));
        p.try_push(&[Value::Int(3)]).unwrap();
        assert_eq!(p.uniform_arity(), None);
    }

    #[test]
    fn column_strips_expose_int_fast_path() {
        let mut p = Page::new(4096);
        for i in 0..10 {
            p.try_push(&[Value::Int(i), Value::Str(format!("s{i}").into())])
                .unwrap();
        }
        match p.column(0) {
            Some(StripView::Ints(xs)) => {
                assert_eq!(xs, (0..10).collect::<Vec<i64>>().as_slice())
            }
            other => panic!("expected Int strip, got {other:?}"),
        }
        match p.column(1) {
            Some(StripView::Values(vs)) => {
                assert_eq!(vs[3], Value::Str("s3".into()));
                assert_eq!(vs.len(), 10);
            }
            other => panic!("expected Value strip, got {other:?}"),
        }
        assert!(p.column(2).is_none(), "no such column");
    }

    #[test]
    fn int_strip_promotes_on_first_non_int_cell() {
        let mut p = Page::new(4096);
        p.try_push(&[Value::Int(1)]).unwrap();
        p.try_push(&[Value::Float(2.5)]).unwrap();
        match p.column(0) {
            Some(StripView::Values(vs)) => {
                assert_eq!(vs, &[Value::Int(1), Value::Float(2.5)]);
            }
            other => panic!("expected promoted strip, got {other:?}"),
        }
    }

    #[test]
    fn ragged_columns_are_not_dense_strips() {
        let mut p = Page::new(4096);
        p.try_push(&[Value::Int(1)]).unwrap();
        p.try_push(&[Value::Int(2), Value::Int(3)]).unwrap();
        // Column 1 only covers row 1: not a dense strip.
        assert!(p.column(1).is_none());
        // Column 0 covers both rows.
        assert!(matches!(p.column(0), Some(StripView::Ints(_))));
        // Row reconstruction still yields the original ragged rows.
        let all = p.decode_all().unwrap();
        assert_eq!(all[0], vec![Value::Int(1)]);
        assert_eq!(all[1], vec![Value::Int(2), Value::Int(3)]);
        // And each row copies to another page cell by cell, short row or
        // long, `Int` strip or promoted one.
        p.try_push(&[Value::Int(4), Value::Str("s".into()), Value::Null]).unwrap();
        p.try_push(&[]).unwrap();
        let mut copy = Page::new(4096);
        for row in p.rows() {
            assert!(copy.try_push_row(&row).unwrap());
        }
        assert_eq!(copy, p);
        assert_eq!(copy.decode_all().unwrap(), p.decode_all().unwrap());
    }

    /// A row's cells read by index, as values.
    fn by_index<R: IndexRow + ?Sized>(row: &R) -> Vec<Value> {
        let value = |cell| match cell {
            KeyCell::Int(x) => Value::Int(x),
            KeyCell::Value(v) => v.clone(),
        };
        (0..row.arity()).map(|j| value(row.cell(j))).collect()
    }

    /// What a row's cells read by index: the cells its walk yields, for a
    /// page row — ragged, or past a split-off first cell — and for a batch
    /// row through a projection, `Int` strips and promoted ones alike.
    #[test]
    fn rows_read_by_index_are_the_rows_walked() {
        let mut p = Page::new(4096);
        p.try_push(&[Value::Int(7), Value::Str("s".into()), Value::Null]).unwrap();
        p.try_push(&[Value::Int(8)]).unwrap();
        p.try_push(&[]).unwrap();
        for (row, want) in p.rows().zip(p.decode_all().unwrap()) {
            assert_eq!(by_index(&row), want);
            match row.split_first() {
                Some((first, rest)) => {
                    assert!(matches!(first, KeyCell::Int(x) if Value::Int(x) == want[0]));
                    assert_eq!(by_index(&rest), want[1..]);
                    let mut walked = Vec::new();
                    rest.cells(&mut walked);
                    assert_eq!(walked, want[1..]);
                }
                None => assert!(want.is_empty()),
            }
        }
        let mut q = Page::new(4096);
        for i in 0..3 {
            q.try_push(&[Value::Int(i), Value::from(format!("k{i}")), Value::Int(-i)]).unwrap();
        }
        let batch = ScanBatch::scanned(&q, &[2, 1], Some(&[0, 2]), 3).unwrap();
        for r in 0..3 {
            let mut walked = Vec::new();
            batch.row(r).cells(&mut walked);
            assert_eq!(by_index(&batch.row(r)), walked);
            assert_eq!(walked, [Value::Int(-(r as i64)), Value::from(format!("k{r}"))]);
        }
    }

    #[test]
    fn encode_into_round_trips_through_from_raw() {
        let mut p = Page::new(4096);
        p.try_push(&[Value::Int(1), Value::Str("a".into())]).unwrap();
        p.try_push(&[Value::Null, Value::Float(-0.5)]).unwrap();
        let mut bytes = Vec::new();
        p.encode_into(&mut bytes);
        assert_eq!(bytes.len(), p.bytes_used());
        let q = Page::from_raw(4096, bytes, p.tuple_count() as u32).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.decode_all().unwrap(), p.decode_all().unwrap());
    }

    #[test]
    fn from_raw_rejects_trailing_and_truncated_bytes() {
        let mut p = Page::new(4096);
        p.try_push(&ints(1)).unwrap();
        let mut bytes = Vec::new();
        p.encode_into(&mut bytes);
        let mut long = bytes.clone();
        long.push(0);
        assert!(Page::from_raw(4096, long, 1).is_err(), "trailing bytes");
        let short = bytes[..bytes.len() - 1].to_vec();
        assert!(Page::from_raw(4096, short, 1).is_err(), "truncated");
        assert!(
            Page::from_raw(4, bytes, 1).is_err(),
            "bytes exceeding capacity"
        );
    }

    /// All-`Int` rows as a run that counts how the page read it: a column
    /// at a time, or row by row.
    struct Counted {
        rows: Vec<[i64; 2]>,
        gathered: std::cell::Cell<usize>,
        walked: std::cell::Cell<usize>,
    }

    impl Counted {
        fn new(base: i64) -> Self {
            Counted {
                rows: (0..4).map(|i| [base + i, -i]).collect(),
                gathered: Default::default(),
                walked: Default::default(),
            }
        }

        fn reads(&self) -> (usize, usize) {
            (self.gathered.get(), self.walked.get())
        }
    }

    impl RowRun for Counted {
        fn len(&self) -> usize {
            self.rows.len()
        }

        fn int_arity(&self) -> Option<usize> {
            Some(2)
        }

        fn gather(&self, j: usize, rows: Range<usize>, out: &mut Vec<i64>) {
            self.gathered.set(self.gathered.get() + 1);
            out.extend(self.rows[rows].iter().map(|row| row[j]));
        }

        fn cells<S: CellSink>(&self, i: usize, sink: &mut S) {
            self.walked.set(self.walked.get() + 1);
            self.rows[i].iter().for_each(|&x| sink.int(x));
        }
    }

    /// A page stays on the typed lane however its all-`Int` rows came — a
    /// run, or one row through the cell walk — so the next run lands as
    /// strip runs; a `Str` row closes the lane, and the run after it takes
    /// the cell walk. The page is the rows pushed one by one either way.
    #[test]
    fn the_lane_stays_open_for_a_lone_int_row() {
        let mut p = Page::new(4096);
        let first = Counted::new(0);
        assert_eq!(p.fill(&first, 0..4), 4);
        assert_eq!(first.reads(), (2, 0), "a run opens the lane");
        assert!(p.try_push_row(&[Value::Int(9), Value::Int(-9)][..]).unwrap());
        assert_eq!(p.strips.int_arity, Some(2), "a lone all-Int row keeps it open");
        let second = Counted::new(10);
        assert_eq!(p.fill(&second, 0..4), 4);
        assert_eq!(second.reads(), (2, 0), "the next run lands as strip runs");
        assert!(p.try_push_row(&[Value::Int(1), Value::from("s")][..]).unwrap());
        assert_eq!(p.strips.int_arity, None, "a Str row closes the lane");
        let third = Counted::new(20);
        assert_eq!(p.fill(&third, 0..4), 4);
        assert_eq!(third.reads().0, 0, "off the lane, no column is gathered");
        assert!(third.reads().1 >= 4, "every row takes the cell walk");
        let mut rows = Page::new(4096);
        for row in p.decode_all().unwrap() {
            assert!(rows.try_push(&row).unwrap());
        }
        assert_eq!(p, rows);
        assert_eq!(p.tuple_count(), 14);
    }

    /// A group appended cell by cell where it lies in a store — typed
    /// cells as `i64`s, a NULL sum, a sum past `i64`, a demoted key column
    /// — is the row `try_push` would have been handed: same admission
    /// (the page fills at the same group), same pages.
    #[test]
    fn a_group_row_appends_like_its_materialized_row() {
        use adaptagg_model::hash::hash_values;
        use adaptagg_model::{AggFunc, AggSpec, CellRow, GroupStore, RowKind, Seed};

        let specs = [
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Sum, 1),
            AggSpec::over(AggFunc::Avg, 1),
            AggSpec::over(AggFunc::Min, 1),
        ];
        for str_keys in [false, true] {
            let mut store = GroupStore::new(1, &specs, 0);
            for g in 0..60i64 {
                let key = match str_keys && g % 7 == 3 {
                    true => Value::Str(format!("key-{g}").into()),
                    false => Value::Int(g * 1_000_003),
                };
                let input = match g % 5 {
                    0 => Value::Null,
                    1 => Value::Int(i64::MAX - g),
                    _ => Value::Int(g),
                };
                let row = &[key, input][..];
                for _ in 0..2 {
                    let hash = hash_values(Seed::Table, &row[..1]);
                    match store.lookup(|| hash, |j| row.cell(j), |_| true).0 {
                        Ok(entry) => store.fold(entry, RowKind::Raw, row).unwrap(),
                        Err(slot) => {
                            store.admit_row(slot, hash, RowKind::Raw, row).unwrap();
                        }
                    }
                }
            }
            let (mut by_cells, mut by_rows) = (Page::new(1024), Page::new(1024));
            let mut row = Vec::new();
            let mut stored = 0;
            for e in 0..store.len() {
                row.clear();
                store.partial_row(e).cells(&mut row);
                assert_eq!(row.len(), 6);
                let fits = by_rows.try_push(&row).unwrap();
                assert_eq!(by_cells.try_push_row(&store.partial_row(e)).unwrap(), fits, "group {e}");
                stored += usize::from(fits);
            }
            assert!(stored > 10 && stored < 60, "the page filled at group {stored}");
            assert_eq!(by_cells, by_rows);
            assert_eq!(by_cells.decode_all().unwrap(), by_rows.decode_all().unwrap());
            assert_eq!(
                matches!(by_cells.column(0), Some(StripView::Ints(_))),
                !str_keys,
                "a typed key column lands on an Int strip"
            );
        }
    }
}
