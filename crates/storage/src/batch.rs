//! Borrowed page batches: a page's column strips seen through a
//! projection map and a selection vector.
//!
//! A [`ScanBatch`] is what the scan operator hands a batch consumer per
//! base page, and what a whole received page degenerates to
//! ([`ScanBatch::whole`]). It copies nothing: projected column `j` *is*
//! the page's strip `columns[j]`, and the WHERE clause survives only as
//! the ascending row ids that passed it.
//!
//! The batch also says what the scan still **owes** the cost model for
//! its rows. This crate charges page I/O only, so the per-tuple select
//! charges travel with the batch and the consumer records them with its
//! own: [`ScanBatch::pass_lead`] for each passing row,
//! [`ScanBatch::fail_charge`] for each filtered-out row — as counts, in
//! any order, so long as they are recorded before anything reads the
//! clock ([`BatchCharges`]).

use crate::error::StorageError;
use crate::page::{wire_bytes, PageView, StripRow};
use adaptagg_model::hash::{hash_batch_finish, hash_batch_init, hash_batch_ints, hash_batch_values, Seed};
use adaptagg_model::{record_each, CellRow, CellSink, CostEvent, CostTracker, ModelError, RowRun, StripView, Value};
use std::ops::Range;

/// Select charges of a tuple that passed the filter: read off the page,
/// copied out (`t_r + t_w`, §2.1).
pub const SELECT_PASS: [CostEvent; 2] = [CostEvent::TupleRead, CostEvent::TupleWrite];
/// Select charge of a filtered-out tuple: read, never copied out.
pub const SELECT_FAIL: [CostEvent; 1] = [CostEvent::TupleRead];
/// What reading a spooled tuple back costs ahead of its consumer's own
/// charges: `t_r` (the hash aggregator's overflow drain, §2 step 3).
pub const SPILL_READ: [CostEvent; 1] = [CostEvent::TupleRead];

/// Why a consumer took a batch's rows one at a time, each read where it
/// lies, instead of riding its strips column-at-a-time (the
/// `scan.pages_row{cause=…}` trace counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCause {
    /// Key or input columns the batch does not have: a batch narrower
    /// than the key or an input.
    Ragged,
    /// An aggregate input strip holding nulls or strings.
    ValueInput,
    /// An aggregate input strip holding a `Float`: accumulation order is
    /// observable, so the consumer's row arm keeps it.
    FloatGuard,
}

impl RowCause {
    /// Every cause, in counter order.
    pub const ALL: [RowCause; 3] = [RowCause::Ragged, RowCause::ValueInput, RowCause::FloatGuard];

    /// The trace counter this cause increments.
    pub fn counter(self) -> &'static str {
        match self {
            RowCause::Ragged => "scan.pages_row{cause=ragged}",
            RowCause::ValueInput => "scan.pages_row{cause=value_input}",
            RowCause::FloatGuard => "scan.pages_row{cause=float_guard}",
        }
    }
}

/// What a consumer did with a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Leading rows consumed (charged and applied). Less than the batch's
    /// [`ScanBatch::rows`] only when the consumer stopped early; the
    /// caller owns the rest.
    pub consumed: usize,
    /// Consumed rows that had passed the filter.
    pub passed: u64,
    /// Passing rows the consumer could not hold (handed to its spill or
    /// forwarding callback).
    pub rejected: u64,
    /// Why a batch of raw tuples was taken a row at a time instead of
    /// riding the strips column-at-a-time (`None` = it rode them).
    pub row_cause: Option<RowCause>,
}

/// What a batch's consumer owes for the rows it has accepted since it
/// last paid: each such row's select lead ([`ScanBatch::pass_lead`]) and
/// the consumer's own per-row charges. Charges commute, so they are
/// recorded as one count per event — but before anything reads the clock
/// (a send's timestamp, a failure's time): a consumer that sends flushes
/// before each send, and every consumer before it returns.
#[derive(Debug, Default)]
pub struct BatchCharges {
    pending: u64,
}

impl BatchCharges {
    /// One more accepted row.
    #[inline]
    pub fn accepted(&mut self) {
        self.pending += 1;
    }

    /// Record what the accepted rows of `batch` owe, each charged
    /// `batch.pass_lead()` and `accept`.
    pub fn flush<T: CostTracker>(&mut self, tracker: &mut T, batch: &ScanBatch<'_>, accept: &[CostEvent]) {
        let n = std::mem::take(&mut self.pending);
        if n > 0 {
            record_each(tracker, batch.pass_lead(), n);
            record_each(tracker, accept, n);
        }
    }
}

/// Rows `[start, start + rows)` of a page through a projection and a
/// selection (see module docs). Row ids — the selection's, `column`'s,
/// `row`'s — count from `start`.
#[derive(Debug, Clone, Copy)]
pub struct ScanBatch<'a> {
    page: PageView<'a>,
    /// Projected column `j` is base column `columns[j]`; empty = base
    /// column `skip + j`.
    columns: &'a [usize],
    skip: usize,
    selection: Option<&'a [u32]>,
    start: usize,
    rows: usize,
    arity: usize,
    /// What each passing / filtered-out row owes ahead of its consumer's
    /// charges.
    lead: &'static [CostEvent],
    fail: &'static [CostEvent],
}

impl<'a> ScanBatch<'a> {
    /// A whole received page as the trivial batch: every column, every
    /// row, nothing owed to the scan. `None` for ragged or empty pages.
    pub fn whole(page: impl Into<PageView<'a>>) -> Option<Self> {
        let page = page.into();
        let arity = page.uniform_arity()?;
        Some(ScanBatch {
            page,
            columns: &[],
            skip: 0,
            selection: None,
            start: 0,
            rows: page.tuple_count(),
            arity,
            lead: &[],
            fail: &[],
        })
    }

    /// A page drained from a spill bucket whose rows lead with a tag
    /// column: every row, the tag projected away, each row owing the
    /// drain's `t_r` ([`SPILL_READ`]) ahead of its consumer's charges — the
    /// charges of the row loop that reads the tuple back and then inserts
    /// it. `None` for ragged or empty pages and pages of untagged rows.
    pub fn spilled(page: impl Into<PageView<'a>>) -> Option<Self> {
        let page = page.into();
        let arity = page.uniform_arity()?.checked_sub(1)?;
        Some(ScanBatch {
            skip: 1,
            arity,
            lead: &SPILL_READ,
            ..ScanBatch::whole(page)?
        })
    }

    /// The first `rows` rows of a scanned base page ([`ScanBatch::scanned_rows`]).
    pub fn scanned(
        page: impl Into<PageView<'a>>,
        columns: &'a [usize],
        selection: Option<&'a [u32]>,
        rows: usize,
    ) -> Result<Self, ModelError> {
        Self::scanned_rows(page, columns, selection, 0..rows)
    }

    /// Rows `rows` of a scanned base page, projected onto `columns`
    /// (empty = the whole tuple), of which `selection` (ascending row ids
    /// counted from `rows.start`; `None` = all) passed the filter. Only the
    /// projected columns need be dense strips, so a ragged page serves any
    /// projection its shortest row covers; the whole tuple needs a page of
    /// one arity. A column some row lacks is that row's typed
    /// `ColumnOutOfRange`, for the whole page.
    pub fn scanned_rows(
        page: impl Into<PageView<'a>>,
        columns: &'a [usize],
        selection: Option<&'a [u32]>,
        rows: Range<usize>,
    ) -> Result<Self, ModelError> {
        let page = page.into();
        let missing = |column| ModelError::ColumnOutOfRange {
            column,
            arity: page.min_arity(),
        };
        let arity = if columns.is_empty() {
            page.uniform_arity().ok_or_else(|| missing(page.min_arity()))?
        } else if let Some(&c) = columns.iter().find(|&&c| page.column(c).is_none()) {
            return Err(missing(c));
        } else {
            columns.len()
        };
        debug_assert!(rows.end <= page.tuple_count());
        debug_assert!(selection.is_none_or(|s| {
            s.windows(2).all(|w| w[0] < w[1]) && s.last().is_none_or(|&r| (r as usize) < rows.len())
        }));
        Ok(ScanBatch {
            page,
            columns,
            skip: 0,
            selection,
            start: rows.start,
            rows: rows.len(),
            arity,
            lead: &SELECT_PASS,
            fail: &SELECT_FAIL,
        })
    }

    /// Rows covered, passing or not.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Projected arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of passing rows.
    pub fn passing(&self) -> usize {
        self.selection.map_or(self.rows, <[u32]>::len)
    }

    /// The row ids that passed the filter, ascending (`None` = all of
    /// them): what [`ScanBatch::passing_row`] indexes, for consumers that
    /// sweep a whole column.
    pub fn selection(&self) -> Option<&'a [u32]> {
        self.selection
    }

    /// Row id of the `i`-th passing row.
    #[inline]
    pub fn passing_row(&self, i: usize) -> usize {
        match self.selection {
            Some(sel) => sel[i] as usize,
            None => i,
        }
    }

    /// The batch cut after its first `n` passing rows: it covers the rows
    /// ahead of passing row `n` (all of them when fewer than `n` pass). A
    /// consumer that may take only so many rows right now consumes the
    /// prefix and reports its `rows()` as [`BatchOutcome::consumed`].
    pub fn first_passing(&self, n: usize) -> Self {
        if n >= self.passing() {
            return *self;
        }
        self.head(self.passing_row(n))
    }

    /// The batch cut after its first `rows` rows.
    pub fn head(&self, rows: usize) -> Self {
        debug_assert!(rows <= self.rows);
        ScanBatch {
            rows,
            selection: self.selection.map(|sel| &sel[..sel.partition_point(|&r| (r as usize) < rows)]),
            ..*self
        }
    }

    /// The same rows with their select charges already paid: a consumer
    /// owes nothing ahead of its own charges (a scan that read the clock
    /// between a row's select and its consumption paid them itself).
    pub fn prepaid(&self) -> Self {
        ScanBatch {
            lead: &[],
            fail: &[],
            ..*self
        }
    }

    /// The page the strips belong to.
    pub(crate) fn page(&self) -> PageView<'a> {
        self.page
    }

    /// The base column behind projected column `j`.
    #[inline]
    pub(crate) fn base_column(&self, j: usize) -> usize {
        if self.columns.is_empty() {
            self.skip + j
        } else {
            self.columns[j]
        }
    }

    /// Projected column `j` over all covered rows. Panics if
    /// `j >= self.arity()`.
    #[inline]
    pub fn column(&self, j: usize) -> StripView<'a> {
        assert!(j < self.arity, "projected column {j} of {}", self.arity);
        let c = self.base_column(j);
        let strip = self.page.column(c).expect("validated dense strip");
        strip.slice(self.start..self.start + self.rows)
    }

    /// One `seed` hash per covered row, passing or not, of its first `k`
    /// projected columns (all of them when the batch is narrower), folded
    /// in column-at-a-time off the strips: row `r`'s is
    /// [`hash_cells`](adaptagg_model::hash::hash_cells)`(seed, &self.row(r), k)`.
    /// `hashes` is cleared and refilled, so callers pool it.
    #[inline]
    pub fn hash_keys(&self, seed: Seed, k: usize, hashes: &mut Vec<u64>) {
        hash_batch_init(seed, self.rows, hashes);
        for j in 0..k.min(self.arity) {
            match self.column(j) {
                StripView::Ints(xs) => hash_batch_ints(hashes, xs),
                StripView::Values(vs) => hash_batch_values(hashes, vs),
            }
        }
        hash_batch_finish(hashes);
    }

    /// Materialize projected row `r` into `out` (cleared first).
    pub fn read_row(&self, r: usize, out: &mut Vec<Value>) {
        out.clear();
        self.row(r).cells(out);
    }

    /// Projected row `r` as cells read off the strips where they lie: what
    /// another page appends strip to strip ([`crate::Page::try_push_row`]).
    #[inline]
    pub fn row(&self, r: usize) -> StripRow<'_, 'a> {
        debug_assert!(r < self.rows);
        StripRow {
            batch: self,
            r: self.page.start() + self.start + r,
        }
    }

    /// Record what rows `rows` (a range of row ids) owe: each passing row
    /// [`ScanBatch::pass_lead`] and `accept`, each filtered-out row
    /// [`ScanBatch::fail_charge`]. A consumer that pays as it goes — before
    /// each send, which reads the clock — pays consecutive ranges.
    pub fn charge<T: CostTracker>(&self, tracker: &mut T, accept: &[CostEvent], rows: Range<usize>) {
        let passed = match self.selection {
            Some(sel) => {
                let before = |end: usize| sel.partition_point(|&r| (r as usize) < end);
                before(rows.end) - before(rows.start)
            }
            None => rows.len(),
        };
        record_each(tracker, self.lead, passed as u64);
        record_each(tracker, accept, passed as u64);
        record_each(tracker, self.fail, (rows.len() - passed) as u64);
    }

    /// The first passing row no page of `page_bytes` bytes can hold — wider
    /// on the wire than the page — with the `TupleTooLarge` appending it
    /// raises. An all-`Int` batch's rows are all one width.
    pub fn first_too_large(&self, page_bytes: usize) -> Option<(usize, StorageError)> {
        let too_large = |r: usize, tuple_bytes: usize| {
            (tuple_bytes > page_bytes).then_some((r, StorageError::TupleTooLarge { tuple_bytes, page_bytes }))
        };
        let mut passing = (0..self.passing()).map(|i| self.passing_row(i));
        if self.int_strips() {
            return passing.next().and_then(|r| too_large(r, wire_bytes(&self.row(r))));
        }
        passing.find_map(|r| too_large(r, wire_bytes(&self.row(r))))
    }

    /// Whether every projected column is an `Int` strip.
    fn int_strips(&self) -> bool {
        (0..self.arity).all(|j| self.page.strips().is_int(self.base_column(j)))
    }

    /// Projected column `j` of a batch of `Int` strips, indexed by row id.
    #[inline]
    fn int_column(&self, j: usize) -> &'a [i64] {
        let start = self.page.start() + self.start;
        let rows = start..start + self.rows;
        self.page.strips().int_strip(self.base_column(j), rows)
    }

    /// Rows `rows` (row ids, in the order to append them) as one run, each
    /// behind a leading `tag` cell when there is one: a scatter
    /// destination's rows, an overflow bucket's.
    pub fn listed<'b>(&'b self, rows: &'b [u32], tag: Option<i64>) -> ListedRows<'b, 'a> {
        ListedRows {
            batch: self,
            rows,
            tag,
            ints: self.int_strips(),
        }
    }

    /// What the consumer records ahead of each passing row's own charges.
    pub fn pass_lead(&self) -> &'static [CostEvent] {
        self.lead
    }

    /// What the consumer records for each filtered-out row.
    pub fn fail_charge(&self) -> &'static [CostEvent] {
        self.fail
    }
}

/// Listed rows of a batch as a run ([`ScanBatch::listed`]): gathered off
/// the batch's strips when every projected column is an `Int` strip, read
/// row by row where each lies otherwise.
#[derive(Debug, Clone, Copy)]
pub struct ListedRows<'b, 'a> {
    batch: &'b ScanBatch<'a>,
    rows: &'b [u32],
    tag: Option<i64>,
    ints: bool,
}

impl RowRun for ListedRows<'_, '_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn int_arity(&self) -> Option<usize> {
        self.ints.then_some(usize::from(self.tag.is_some()) + self.batch.arity)
    }

    #[inline]
    fn gather(&self, j: usize, at: Range<usize>, out: &mut [i64]) {
        let j = match self.tag {
            Some(tag) if j == 0 => return out.fill(tag),
            Some(_) => j - 1,
            None => j,
        };
        let col = self.batch.int_column(j);
        for (o, &r) in out.iter_mut().zip(&self.rows[at]) {
            *o = col[r as usize];
        }
    }

    #[inline]
    fn cells<S: CellSink>(&self, i: usize, sink: &mut S) {
        if let Some(tag) = self.tag {
            sink.int(tag);
        }
        self.batch.row(self.rows[i] as usize).cells(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Page;

    fn page(rows: &[Vec<Value>]) -> Page {
        let mut p = Page::new(4096);
        for r in rows {
            assert!(p.try_push(r).unwrap());
        }
        p
    }

    fn rows3(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("s{i}").into()),
                    Value::Int(i * 10),
                ]
            })
            .collect()
    }

    #[test]
    fn whole_page_is_the_identity_batch_and_owes_nothing() {
        let p = page(&rows3(5));
        let b = ScanBatch::whole(&p).unwrap();
        assert_eq!((b.rows(), b.arity(), b.passing()), (5, 3, 5));
        assert_eq!(b.column(2), StripView::Ints(&[0, 10, 20, 30, 40]));
        assert!(b.pass_lead().is_empty() && b.fail_charge().is_empty());
        let mut row = Vec::new();
        b.read_row(3, &mut row);
        assert_eq!(row, rows3(5)[3]);
    }

    #[test]
    fn projection_selection_and_truncation_are_views() {
        let p = page(&rows3(6));
        let sel = [1u32, 3];
        let b = ScanBatch::scanned(&p, &[2, 0], Some(&sel), 4).unwrap();
        assert_eq!((b.rows(), b.arity(), b.passing()), (4, 2, 2));
        assert_eq!(b.column(0), StripView::Ints(&[0, 10, 20, 30]));
        assert_eq!(b.passing_row(1), 3);
        let mut row = Vec::new();
        b.read_row(3, &mut row);
        assert_eq!(row, vec![Value::Int(30), Value::Int(3)]);
        assert_eq!(b.pass_lead(), &SELECT_PASS);
        assert_eq!(b.fail_charge(), &SELECT_FAIL);

        // Cut after one passing row: rows 0 and 1 are covered, the second
        // passing row (3) starts what is left. A cut at or past the
        // passing count changes nothing.
        let cut = b.first_passing(1);
        assert_eq!((cut.rows(), cut.passing(), cut.passing_row(0)), (3, 1, 1));
        assert_eq!(b.first_passing(0).rows(), 1);
        assert_eq!(b.first_passing(2).rows(), 4);
        let all = ScanBatch::scanned(&p, &[], None, 6).unwrap();
        assert_eq!((all.first_passing(4).rows(), all.first_passing(4).passing()), (4, 4));
    }

    #[test]
    fn a_spilled_page_skips_its_tag_and_owes_the_drains_read() {
        let p = page(&rows3(4));
        let b = ScanBatch::spilled(&p).unwrap();
        assert_eq!((b.rows(), b.arity(), b.passing()), (4, 2, 4));
        assert_eq!(b.column(1), StripView::Ints(&[0, 10, 20, 30]));
        assert_eq!((b.pass_lead(), b.fail_charge()), (&SPILL_READ[..], &[][..]));
        let mut row = Vec::new();
        b.read_row(2, &mut row);
        assert_eq!(row, rows3(4)[2][1..]);
        let mut untagged = Page::new(64);
        untagged.try_push(&[]).unwrap();
        assert!(ScanBatch::spilled(&untagged).is_none(), "no tag column");
        assert!(ScanBatch::spilled(&Page::new(64)).is_none(), "empty page");
    }

    #[test]
    fn a_row_offset_cuts_and_prepays() {
        let p = page(&rows3(6));
        let sel = [0u32, 2, 3];
        // Rows 2..6, of which 2, 4 and 5 passed.
        let b = ScanBatch::scanned_rows(&p, &[2, 0], Some(&sel), 2..6).unwrap();
        assert_eq!((b.rows(), b.passing(), b.passing_row(1)), (4, 3, 2));
        assert_eq!(b.column(0), StripView::Ints(&[20, 30, 40, 50]));
        let mut row = Vec::new();
        b.read_row(2, &mut row);
        assert_eq!(row, vec![Value::Int(40), Value::Int(4)]);
        let head = b.head(3);
        assert_eq!((head.rows(), head.passing(), head.selection()), (3, 2, Some(&sel[..2])));
        assert_eq!(b.first_passing(1).rows(), 2);
        let paid = b.prepaid();
        assert!(paid.pass_lead().is_empty() && paid.fail_charge().is_empty());
        assert_eq!((paid.rows(), paid.passing()), (4, 3));
    }

    /// The batch hash of every covered row is the row hash of its key
    /// cells, under a projection that reorders, a selection and a row
    /// offset; an `Int` strip and a strip of values alike.
    #[test]
    fn hash_keys_equals_the_row_hash_of_each_rows_key() {
        use adaptagg_model::hash::hash_values;
        let rows: Vec<Vec<Value>> = (0..40i64)
            .map(|i| {
                let odd = match i % 4 {
                    0 => Value::Null,
                    1 => Value::Float(i as f64 / 3.0),
                    2 => Value::Str(format!("s{i}").into()),
                    _ => Value::Int(-i),
                };
                vec![Value::Int(i * 7 % 13), odd, Value::Int(i)]
            })
            .collect();
        let p = page(&rows);
        let sel: Vec<u32> = (0..30).filter(|r| r % 3 != 1).collect();
        let mut hashes = vec![0xdead; 3];
        for (columns, selection, range) in [
            (&[][..], None, 0..40),
            (&[1, 0, 2][..], Some(&sel[..]), 5..35),
            (&[2, 1][..], None, 12..40),
        ] {
            let b = ScanBatch::scanned_rows(&p, columns, selection, range).unwrap();
            for seed in [Seed::Table, Seed::Partition] {
                for k in 0..=b.arity() + 1 {
                    b.hash_keys(seed, k, &mut hashes);
                    assert_eq!(hashes.len(), b.rows());
                    let mut row = Vec::new();
                    for (r, &h) in hashes.iter().enumerate() {
                        b.read_row(r, &mut row);
                        assert_eq!(h, hash_values(seed, &row[..k.min(row.len())]), "{columns:?} k={k} row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn only_the_columns_read_need_be_dense() {
        let missing = |column, arity| ModelError::ColumnOutOfRange { column, arity };
        let mut p = page(&rows3(2));
        assert_eq!(ScanBatch::scanned(&p, &[3], None, 2).unwrap_err(), missing(3, 3));
        p.try_push(&[Value::Int(9), Value::Str("s".into())]).unwrap();
        assert!(ScanBatch::whole(&p).is_none());
        // A ragged page serves what its shortest row covers.
        let b = ScanBatch::scanned(&p, &[1, 0], None, 3).unwrap();
        assert_eq!(b.column(1), StripView::Ints(&[0, 1, 9]));
        assert_eq!(ScanBatch::scanned(&p, &[0, 2], None, 3).unwrap_err(), missing(2, 2));
        assert_eq!(ScanBatch::scanned(&p, &[], None, 3).unwrap_err(), missing(2, 2), "the whole tuple");
        assert!(ScanBatch::whole(&Page::new(64)).is_none(), "empty page");
    }
}
