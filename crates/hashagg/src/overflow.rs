//! Overflow bucket sets.
//!
//! When the in-memory table is full, tuples of non-resident groups are
//! hash-partitioned into `fanout` spill buckets (paper §2 step 2: "the
//! tuples are hash partitioned into multiple … buckets, and all but the
//! first bucket are spooled to disk" — our resident table *is* the first
//! bucket). The bucket hash uses `Seed::OverflowBucket(level)` so it is
//! independent of both the table hash and the node-partitioning hash, and
//! of the bucket hash of any enclosing recursion level.
//!
//! Each spooled tuple is tagged with its [`RowKind`] (raw or partial) by
//! prepending a tag column, because an A2P merge-phase table can overflow
//! while receiving both kinds. The rows a table bounced off a batch are
//! spooled once the batch is fed, together ([`OverflowSet::spool_batch`]):
//! hashed in one pass and appended bucket by bucket, each bucket's rows one
//! run behind the tag — a column at a time off `Int` strips, row by row
//! where each lies off any other. A drained bucket page goes back into a
//! table as a batch (`drained_batch`) when its rows share a kind and an
//! arity, and row by row otherwise, each row read past its tag where it
//! lies (`untag`).

use adaptagg_model::hash::{hash_cells, Seed};
use adaptagg_model::{CellRow, CellSink, CostEvent, CostTracker, IndexRow, LaneRows, ModelError, RowKind};
use adaptagg_storage::{Page, PageRow, ScanBatch, SpillFile, StorageError, StripView};

const TAG_RAW: i64 = 0;
const TAG_PARTIAL: i64 = 1;

/// The kind tag stored as a row's first column.
fn kind_tag(kind: RowKind) -> i64 {
    match kind {
        RowKind::Raw => TAG_RAW,
        RowKind::Partial => TAG_PARTIAL,
    }
}

/// The kind a tag stands for.
fn tag_kind(tag: i64) -> Option<RowKind> {
    match tag {
        TAG_RAW => Some(RowKind::Raw),
        TAG_PARTIAL => Some(RowKind::Partial),
        _ => None,
    }
}

/// Split a drained row back into its kind and the row past its tag, still
/// where it lies.
pub(crate) fn untag(tagged: PageRow<'_>) -> Result<(RowKind, PageRow<'_>), ModelError> {
    let Some((tag, row)) = tagged.split_first() else {
        return Err(ModelError::Corrupt("empty spilled row"));
    };
    let kind = tag.as_int().and_then(tag_kind);
    Ok((kind.ok_or(ModelError::Corrupt("bad spill kind tag"))?, row))
}

/// `[tag] ++ row`, read cell by cell.
struct Tagged<'r, R: ?Sized> {
    tag: i64,
    row: &'r R,
}

impl<R: CellRow + ?Sized> CellRow for Tagged<'_, R> {
    #[inline]
    fn cells<S: CellSink>(&self, sink: &mut S) {
        sink.int(self.tag);
        self.row.cells(sink);
    }
}

/// Why a drained bucket page went back into a table row by row (the
/// `hashagg.overflow_pages{lane=rows,cause=…}` trace counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainCause {
    /// Its rows' tags are not all one kind (an A-2P merge table spilled
    /// partial and raw rows onto the page).
    MixedKind,
    /// Rows of differing arity (partial and raw rows of different widths
    /// on one page).
    Ragged,
}

impl DrainCause {
    /// Every cause, in counter order.
    pub const ALL: [DrainCause; 2] = [DrainCause::MixedKind, DrainCause::Ragged];

    /// The trace counter this cause increments.
    pub fn counter(self) -> &'static str {
        match self {
            DrainCause::MixedKind => "hashagg.overflow_pages{lane=rows,cause=mixed_kind}",
            DrainCause::Ragged => "hashagg.overflow_pages{lane=rows,cause=ragged}",
        }
    }
}

/// A drained bucket page as the batch a table takes back — its rows' one
/// kind, and [`ScanBatch::spilled`] (the tag projected away, the drain's
/// `t_r` owed ahead of each row) — or why it must go row by row. A strip
/// of `Str`, `Float` or NULL cells is the table's to judge: its row arm
/// takes what its strips arms cannot, at the row loop's charges.
pub(crate) fn drained_batch(page: &Page) -> Result<(RowKind, ScanBatch<'_>), DrainCause> {
    let batch = ScanBatch::spilled(page).ok_or(DrainCause::Ragged)?;
    let kind = match page.column(0) {
        Some(StripView::Ints(tags)) if tags.iter().all(|&t| t == tags[0]) => tag_kind(tags[0]),
        _ => None,
    };
    Ok((kind.ok_or(DrainCause::MixedKind)?, batch))
}

/// A set of spill buckets at one recursion level.
#[derive(Debug)]
pub struct OverflowSet {
    buckets: Vec<SpillFile>,
    level: u32,
    group_by_len: usize,
    /// Rows spooled so far, by the lane they were written on.
    spooled: LaneRows,
    /// [`OverflowSet::spool_batch`]'s bucket hashes and per-bucket row
    /// lists, reused batch to batch.
    hashes: Vec<u64>,
    lists: Vec<Vec<u32>>,
}

impl OverflowSet {
    /// `fanout` buckets of `page_bytes` pages at recursion `level`.
    /// `group_by_len` is the number of leading key columns of every row
    /// (identical for raw and partial rows in projected form).
    pub fn new(fanout: usize, page_bytes: usize, level: u32, group_by_len: usize) -> Self {
        assert!(fanout >= 2, "overflow fanout must be at least 2");
        OverflowSet {
            buckets: (0..fanout).map(|_| SpillFile::new(page_bytes)).collect(),
            level,
            group_by_len,
            spooled: LaneRows::default(),
            hashes: Vec::new(),
            lists: vec![Vec::new(); fanout],
        }
    }

    /// This set's recursion level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Rows spooled so far: a column at a time, or cell by cell.
    pub fn spooled_rows(&self) -> LaneRows {
        self.spooled
    }

    /// Spool one row of either kind into the bucket its leading
    /// `group_by_len` cells hash to, reading it where it lies — a slice of
    /// values, or `ScanBatch::row(r)`, whose cells are hashed and appended
    /// straight off the strips: same bucket, same pages, same charges.
    /// Charges `t_w` for the tuple write plus page I/O when pages seal (via
    /// the spill file). The bucket hash (`t_h`) is *not* charged: the
    /// insert attempt that rejected this tuple already hashed the key, and
    /// the paper charges one hash per tuple.
    pub fn spool<R: IndexRow + ?Sized, T: CostTracker>(
        &mut self,
        kind: RowKind,
        row: &R,
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        let hash = hash_cells(Seed::OverflowBucket(self.level), row, self.group_by_len);
        let b = (hash % self.buckets.len() as u64) as usize;
        tracker.record(CostEvent::TupleWrite, 1);
        self.spooled.cells += 1;
        self.buckets[b].spool_row(&Tagged { tag: kind_tag(kind), row }, tracker)
    }

    /// Spool rows `rows` of `batch` (ascending row ids), all of `kind`:
    /// the buckets, pages and charges of [`OverflowSet::spool`] of each in
    /// turn. The batch is hashed in one pass ([`ScanBatch::hash_keys`], the
    /// bucket hash of every row), its rows listed under their buckets in row
    /// order, and each bucket's list appended as one run behind the tag
    /// ([`SpillFile::extend`]). Out of line: it runs once a batch, and
    /// inlined it grew the scan sink around `AggTable::feed_batch` ~20-fold
    /// (DESIGN.md §31.3).
    #[inline(never)]
    pub fn spool_batch<T: CostTracker>(
        &mut self,
        kind: RowKind,
        batch: &ScanBatch<'_>,
        rows: &[u32],
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        batch.hash_keys(Seed::OverflowBucket(self.level), self.group_by_len, &mut self.hashes);
        let n = self.buckets.len() as u64;
        self.lists.iter_mut().for_each(Vec::clear);
        for &r in rows {
            self.lists[(self.hashes[r as usize] % n) as usize].push(r);
        }
        tracker.record(CostEvent::TupleWrite, rows.len() as u64);
        let tag = Some(kind_tag(kind));
        for (bucket, rows) in self.buckets.iter_mut().zip(&self.lists) {
            self.spooled.add(bucket.extend(&batch.listed(rows, tag), tracker)?);
        }
        Ok(())
    }

    /// Finish writing and return the non-empty buckets for processing.
    pub fn into_buckets<T: CostTracker>(self, tracker: &mut T) -> Vec<SpillFile> {
        self.buckets
            .into_iter()
            .filter_map(|mut b| {
                if b.is_empty() {
                    None
                } else {
                    b.finish(tracker);
                    Some(b)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{CountingTracker, NullTracker, Value};

    fn row(g: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(g), Value::Int(v)]
    }

    /// Every row of every bucket, untagged, bucket by bucket.
    fn drained(buckets: Vec<SpillFile>, tracker: &mut CountingTracker) -> Vec<Vec<(RowKind, Vec<Value>)>> {
        let mut out = Vec::new();
        for bucket in buckets {
            let mut rows = Vec::new();
            bucket
                .drain_pages(tracker, |_, page| {
                    for tagged in page.rows() {
                        let (kind, row) = untag(tagged)?;
                        let mut values = Vec::new();
                        row.cells(&mut values);
                        rows.push((kind, values));
                    }
                    Ok(())
                })
                .unwrap();
            out.push(rows);
        }
        out
    }

    /// A page of `rows`, one to a row.
    fn page_of(rows: &[Vec<Value>]) -> Page {
        let mut page = Page::new(1 << 12);
        rows.iter().for_each(|r| assert!(page.try_push(r).unwrap()));
        page
    }

    #[test]
    fn tag_untag_round_trips() {
        for kind in [RowKind::Raw, RowKind::Partial] {
            let mut tagged = vec![Value::Int(kind_tag(kind))];
            tagged.extend_from_slice(&row(3, 4));
            let page = page_of(&[tagged]);
            let (k, untagged) = untag(page.rows().next().unwrap()).unwrap();
            assert_eq!(k, kind);
            let mut values = Vec::new();
            untagged.cells(&mut values);
            assert_eq!(values, row(3, 4));
            assert_eq!((untagged.arity(), untagged.cell(1).as_int()), (2, Some(4)), "read by index past the tag");
        }
    }

    #[test]
    fn untag_rejects_garbage() {
        let page = page_of(&[vec![], vec![Value::Int(9), Value::Int(1)], vec![Value::Str("x".into())]]);
        assert!(page.rows().all(|tagged| untag(tagged).is_err()));
    }

    #[test]
    fn same_group_lands_in_same_bucket_any_kind() {
        let mut set = OverflowSet::new(4, 256, 0, 1);
        let mut tr = CountingTracker::new();
        // Spool the same group as raw and partial plus other groups.
        for i in 0..32 {
            set.spool(RowKind::Raw, &row(i % 8, i)[..], &mut tr).unwrap();
            set.spool(RowKind::Partial, &row(i % 8, i)[..], &mut tr).unwrap();
        }
        let buckets = drained(set.into_buckets(&mut tr), &mut tr);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 64);
        // Rows of one group must be confined to one bucket.
        let mut group_bucket: std::collections::HashMap<i64, usize> = Default::default();
        for (bi, rows) in buckets.iter().enumerate() {
            for (_, vals) in rows {
                let g = vals[0].as_i64().unwrap();
                if let Some(p) = group_bucket.insert(g, bi) {
                    assert_eq!(p, bi, "group {g} split across buckets {p} and {bi}");
                }
            }
        }
        assert_eq!(group_bucket.len(), 8);
    }

    #[test]
    fn no_rows_lost_across_spool_and_drain() {
        let mut set = OverflowSet::new(3, 128, 1, 1);
        let mut tr = CountingTracker::new();
        for i in 0..100 {
            set.spool(RowKind::Raw, &row(i, i)[..], &mut tr).unwrap();
        }
        assert_eq!(tr.count(CostEvent::TupleWrite), 100);
        let buckets = drained(set.into_buckets(&mut tr), &mut tr);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        // Spilled pages are written once and read once.
        assert_eq!(
            tr.count(CostEvent::PageWriteSeq),
            tr.count(CostEvent::PageReadSeq)
        );
        assert!(tr.count(CostEvent::PageWriteSeq) > 0);
    }

    #[test]
    fn drained_pages_are_batches_when_their_rows_share_a_kind_and_an_arity() {
        let page = |rows: &[(RowKind, Vec<Value>)]| {
            let mut set = OverflowSet::new(2, 1 << 16, 0, 0);
            for (kind, values) in rows {
                set.spool(*kind, &values[..], &mut NullTracker).unwrap();
            }
            let bucket = set.into_buckets(&mut NullTracker).pop().unwrap();
            let mut pages = Vec::new();
            bucket
                .drain_pages(&mut NullTracker, |_, page| {
                    pages.push(page);
                    Ok(())
                })
                .unwrap();
            assert_eq!(pages.len(), 1);
            pages.pop().unwrap()
        };
        let raw = |g| (RowKind::Raw, row(g, 1));
        let partial = |g| (RowKind::Partial, row(g, 1));
        let p = page(&[partial(1), partial(2)]);
        let (kind, batch) = drained_batch(&p).unwrap();
        assert_eq!((kind, batch.arity(), batch.rows()), (RowKind::Partial, 2, 2));
        assert_eq!(batch.column(0), StripView::Ints(&[1, 2]), "the tag is projected away");
        assert_eq!(batch.pass_lead(), &[CostEvent::TupleRead]);
        assert_eq!(drained_batch(&page(&[raw(1), partial(2)])).err(), Some(DrainCause::MixedKind));
        let short = (RowKind::Raw, vec![Value::Int(3)]);
        assert_eq!(drained_batch(&page(&[raw(1), short])).err(), Some(DrainCause::Ragged));
        let null = (RowKind::Raw, vec![Value::Int(3), Value::Null]);
        let p = page(&[raw(1), null]);
        let (kind, batch) = drained_batch(&p).unwrap();
        assert_eq!(kind, RowKind::Raw);
        assert_eq!(batch.column(1), StripView::Values(&[Value::Int(1), Value::Null]), "a value strip rides too");
    }

    #[test]
    fn empty_buckets_are_dropped() {
        let mut set = OverflowSet::new(8, 128, 0, 1);
        let mut tr = NullTracker;
        set.spool(RowKind::Raw, &row(1, 1)[..], &mut tr).unwrap();
        let buckets = set.into_buckets(&mut tr);
        assert_eq!(buckets.len(), 1);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn fanout_below_two_is_rejected() {
        let _ = OverflowSet::new(1, 128, 0, 1);
    }
}
