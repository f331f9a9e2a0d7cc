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
//! while receiving both kinds. A row the table bounced off a batch is
//! spooled where it lies: its key cells hashed ([`hash_cells`]) and
//! `[tag] ++ row` appended straight off the strips. A drained bucket page
//! goes back into a table as a batch ([`drained_batch`]) when its rows
//! share a kind and an arity, and row by row otherwise.

use adaptagg_model::hash::{hash_cells, Seed};
use adaptagg_model::{CellRow, CellSink, CostEvent, CostTracker, ModelError, RowKind, Value};
use adaptagg_storage::{Page, ScanBatch, SpillFile, StorageError, StripView};

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

/// Split a tagged row back into kind + values (borrowed).
pub(crate) fn untag_row(tagged: &[Value]) -> Result<(RowKind, &[Value]), ModelError> {
    let Some((tag, values)) = tagged.split_first() else {
        return Err(ModelError::Corrupt("empty spilled row"));
    };
    let kind = tag.as_i64().and_then(tag_kind);
    Ok((kind.ok_or(ModelError::Corrupt("bad spill kind tag"))?, values))
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
/// materializes what its strips arms cannot take, at the row loop's
/// charges.
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
    spooled: u64,
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
            spooled: 0,
        }
    }

    /// This set's recursion level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Tuples spooled so far.
    pub fn spooled(&self) -> u64 {
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
    pub fn spool<R: CellRow + ?Sized, T: CostTracker>(
        &mut self,
        kind: RowKind,
        row: &R,
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        let hash = hash_cells(Seed::OverflowBucket(self.level), row, self.group_by_len);
        let b = (hash % self.buckets.len() as u64) as usize;
        tracker.record(CostEvent::TupleWrite, 1);
        self.buckets[b].spool_row(&Tagged { tag: kind_tag(kind), row }, tracker)?;
        self.spooled += 1;
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
    use adaptagg_model::{CountingTracker, NullTracker};

    fn row(g: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(g), Value::Int(v)]
    }

    /// Every row of every bucket, untagged, bucket by bucket.
    fn drained(buckets: Vec<SpillFile>, tracker: &mut CountingTracker) -> Vec<Vec<(RowKind, Vec<Value>)>> {
        let mut out = Vec::new();
        for bucket in buckets {
            let mut rows = Vec::new();
            bucket
                .drain(tracker, |_, tagged| {
                    let (kind, values) = untag_row(tagged)?;
                    rows.push((kind, values.to_vec()));
                    Ok(())
                })
                .unwrap();
            out.push(rows);
        }
        out
    }

    #[test]
    fn tag_untag_round_trips() {
        for kind in [RowKind::Raw, RowKind::Partial] {
            let mut tagged = vec![Value::Int(kind_tag(kind))];
            tagged.extend_from_slice(&row(3, 4));
            let (k, vals) = untag_row(&tagged).unwrap();
            assert_eq!(k, kind);
            assert_eq!(vals, row(3, 4));
        }
    }

    #[test]
    fn untag_rejects_garbage() {
        assert!(untag_row(&[]).is_err());
        assert!(untag_row(&[Value::Int(9), Value::Int(1)]).is_err());
        assert!(untag_row(&[Value::Str("x".into())]).is_err());
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
        assert_eq!(set.spooled(), 64);
        let buckets = drained(set.into_buckets(&mut tr), &mut tr);
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

    /// A row spooled off a batch's strips lands in the bucket, on the
    /// pages and at the charges of the same row spooled materialized —
    /// `Int` and `Str` keys, a projection that reorders and a selection.
    #[test]
    fn spooling_off_the_strips_equals_spooling_the_row() {
        let base: Vec<Vec<Value>> = (0..300i64)
            .map(|i| {
                let key = match i % 5 {
                    0 => Value::Str(format!("k{}", i % 40).into()),
                    _ => Value::Int(i % 40),
                };
                vec![Value::Int(i), key, Value::Null]
            })
            .collect();
        let mut pages = vec![Page::new(1024)];
        for r in &base {
            if !pages.last_mut().unwrap().try_push(r).unwrap() {
                pages.push(Page::new(1024));
                assert!(pages.last_mut().unwrap().try_push(r).unwrap());
            }
        }
        for level in [0, 2] {
            let (mut by_strips, mut by_rows) = (OverflowSet::new(4, 256, level, 1), OverflowSet::new(4, 256, level, 1));
            let (mut ta, mut tb) = (CountingTracker::new(), CountingTracker::new());
            let mut values = Vec::new();
            for page in &pages {
                let n = page.tuple_count();
                let sel: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 0).collect();
                let batch = ScanBatch::scanned(page, &[1, 0], Some(&sel), n).unwrap();
                for &r in &sel {
                    let kind = if r % 2 == 0 { RowKind::Raw } else { RowKind::Partial };
                    by_strips.spool(kind, &batch.row(r as usize), &mut ta).unwrap();
                    batch.read_row(r as usize, &mut values);
                    by_rows.spool(kind, &values[..], &mut tb).unwrap();
                }
            }
            assert_eq!(ta, tb);
            let a = drained(by_strips.into_buckets(&mut ta), &mut ta);
            let b = drained(by_rows.into_buckets(&mut tb), &mut tb);
            assert_eq!(a, b, "level {level}");
            assert_eq!(ta, tb);
        }
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
