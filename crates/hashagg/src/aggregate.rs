//! The complete memory-bounded hash aggregation driver.
//!
//! [`HashAggregator`] composes the bounded [`AggTable`] with
//! [`OverflowSet`] spill handling into the paper's three-step uniprocessor
//! algorithm (§2): build, spill non-resident groups, process buckets
//! recursively. It accepts raw tuples and partial rows interleaved and
//! emits either finalized result rows (merge phases:
//! [`HashAggregator::finish_rows`]) or partial rows on pages (local phases:
//! [`HashAggregator::finish_partials`]).

use crate::overflow::{drained_batch, untag, OverflowSet};
use crate::stats::HashAggStats;
use crate::table::{AggTable, FullPolicy, Inserted};
use adaptagg_model::{AggQuery, CostEvent, CostTracker, MemoryGrant, ResultRow, RowKind, Value};
use adaptagg_storage::{BatchOutcome, Page, RowPages, ScanBatch, SpillFile, StorageError};

/// Safety valve: beyond this overflow recursion depth the table is allowed
/// to exceed its budget rather than recurse further. With independent
/// per-level bucket hashes this is unreachable in practice; it bounds the
/// worst case.
const MAX_OVERFLOW_LEVEL: u32 = 32;

/// Default overflow fanout (buckets per overflow set). The paper says "as
/// many as necessary to ensure no future memory overflow"; a fixed fanout
/// with recursion achieves the same I/O asymptotics and needs no group
/// estimate.
pub const DEFAULT_OVERFLOW_FANOUT: usize = 8;

/// A memory-bounded hash aggregator.
#[derive(Debug)]
pub struct HashAggregator {
    query: AggQuery,
    table: AggTable,
    overflow: Option<OverflowSet>,
    max_entries: usize,
    fanout: usize,
    page_bytes: usize,
    charge_hash: bool,
    grant: MemoryGrant,
    stats: HashAggStats,
    /// The row ids a batch bounced, reused batch to batch.
    bounced: Vec<u32>,
}

/// What a table of the aggregator does with a row it cannot hold: spool
/// it into the overflow set of `level`, created on the first bounce, and
/// carry on. A batch's bounced rows are listed as the table bounces them
/// and spooled together once it is fed ([`Spool::feed_batch`]).
struct Spool<'a> {
    set: &'a mut Option<OverflowSet>,
    bounced: &'a mut Vec<u32>,
    level: u32,
    fanout: usize,
    page_bytes: usize,
    key_len: usize,
}

impl Spool<'_> {
    fn set(&mut self) -> &mut OverflowSet {
        self.set
            .get_or_insert_with(|| OverflowSet::new(self.fanout, self.page_bytes, self.level, self.key_len))
    }

    /// [`AggTable::feed_batch`] under this policy, then the rows it bounced
    /// spooled off the batch in one go ([`OverflowSet::spool_batch`]). The
    /// feed records its charges as sums with no clock read, so spooling
    /// after it charges what spooling each row as it bounced did. A spool
    /// error comes first: its rows precede any row the feed stopped on.
    fn feed_batch<T: CostTracker>(
        &mut self,
        table: &mut AggTable,
        kind: RowKind,
        batch: &ScanBatch<'_>,
        tracker: &mut T,
    ) -> Result<BatchOutcome, StorageError> {
        self.bounced.clear();
        let fed = table.feed_batch(kind, batch, tracker, self);
        if !self.bounced.is_empty() {
            let rows = std::mem::take(self.bounced);
            let spooled = self.set().spool_batch(kind, batch, &rows, tracker);
            *self.bounced = rows;
            spooled?;
        }
        fed
    }
}

impl<T: CostTracker> FullPolicy<T> for Spool<'_> {
    /// Lists the row for [`Spool::feed_batch`] to spool. Out of line: a
    /// bounced row is the batch kernel's cold path, and left to the inliner
    /// it went into the kernel or stayed out depending on what else the
    /// exec crate's codegen units held (DESIGN.md §30.5).
    #[inline(never)]
    fn bounce(&mut self, _: &mut T, _: RowKind, _: &ScanBatch<'_>, r: usize) -> Result<bool, StorageError> {
        self.bounced.push(r as u32);
        Ok(true)
    }
}

impl HashAggregator {
    /// An aggregator for `query` (projected form) with an `max_entries`
    /// table budget, spilling to `page_bytes` pages with the given bucket
    /// fanout.
    pub fn new(query: AggQuery, max_entries: usize, page_bytes: usize, fanout: usize) -> Self {
        HashAggregator {
            table: AggTable::new(query.clone(), max_entries),
            query,
            overflow: None,
            max_entries,
            fanout: fanout.max(2),
            page_bytes,
            charge_hash: true,
            grant: MemoryGrant::unlimited(),
            stats: HashAggStats::default(),
            bounced: Vec::new(),
        }
    }

    /// Control whether inserts charge `t_h` (see
    /// [`AggTable::with_charge_hash`]); merge phases receiving
    /// pre-partitioned rows set this to `false`.
    pub fn with_charge_hash(mut self, charge_hash: bool) -> Self {
        self.charge_hash = charge_hash;
        self.table = self.table.with_charge_hash(charge_hash);
        self
    }

    /// Attach a live, broker-revocable [`MemoryGrant`] (see
    /// [`AggTable::with_grant`]). Applies to the first-pass table and to
    /// every overflow-bucket table below the deep-recursion safety valve.
    pub fn with_grant(mut self, grant: MemoryGrant) -> Self {
        self.table.set_grant(grant.clone());
        self.grant = grant;
        self
    }

    /// An aggregator with the default overflow fanout.
    pub fn with_defaults(query: AggQuery, max_entries: usize, page_bytes: usize) -> Self {
        HashAggregator::new(query, max_entries, page_bytes, DEFAULT_OVERFLOW_FANOUT)
    }

    /// Statistics so far (final ones are returned by the finish).
    pub fn stats(&self) -> &HashAggStats {
        &self.stats
    }

    /// Distinct groups currently resident in the first-pass table.
    pub fn resident_groups(&self) -> usize {
        self.table.len()
    }

    /// Whether the first-pass table has filled (the A2P switch signal).
    pub fn is_full(&self) -> bool {
        self.table.is_full()
    }

    /// Whether any tuple has been spooled.
    pub fn has_spilled(&self) -> bool {
        self.overflow.is_some()
    }

    /// The first-pass table, and where it spools what it cannot hold.
    fn first_pass(&mut self) -> (&mut AggTable, Spool<'_>) {
        let spool = Spool {
            set: &mut self.overflow,
            bounced: &mut self.bounced,
            level: 0,
            fanout: self.fanout,
            page_bytes: self.page_bytes,
            key_len: self.query.group_by.len(),
        };
        (&mut self.table, spool)
    }

    /// Push a row of either kind.
    pub fn push<T: CostTracker>(
        &mut self,
        kind: RowKind,
        values: &[Value],
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        match kind {
            RowKind::Raw => self.stats.raw_in += 1,
            RowKind::Partial => self.stats.partial_in += 1,
        }
        let (table, mut spool) = self.first_pass();
        if table.insert(kind, values, tracker)? == Inserted::Full {
            spool.set().spool(kind, values, tracker)?;
            self.stats.spilled_tuples += 1;
        }
        Ok(())
    }

    /// Push every tuple of a received page — the page-batched form of
    /// [`HashAggregator::push`], equivalent row by row (same mutations,
    /// same cost events, counted). Which loop runs is the page's doing: a
    /// whole page is the trivial batch [`AggTable::feed_batch`] rides the
    /// strips of, and a ragged page takes the row loop ([`feed_rows`]).
    pub fn push_page<T: CostTracker>(
        &mut self,
        kind: RowKind,
        page: &Page,
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        let n = page.tuple_count() as u64;
        match kind {
            RowKind::Raw => self.stats.raw_in += n,
            RowKind::Partial => self.stats.partial_in += n,
        }
        let (table, mut spool) = self.first_pass();
        let spilled = match ScanBatch::whole(page) {
            Some(batch) => spool.feed_batch(table, kind, &batch, tracker)?.rejected,
            None => feed_rows(page, Some(kind), table, &mut spool, tracker)?,
        };
        self.stats.spilled_tuples += spilled;
        Ok(())
    }

    /// Push a batch of rows through [`AggTable::feed_batch`]: the local
    /// phase's input, one scanned base page at a time. Rows the table
    /// cannot hold are spooled off the batch once it is fed; the batch is
    /// always consumed whole.
    pub fn push_batch<T: CostTracker>(
        &mut self,
        kind: RowKind,
        batch: &ScanBatch<'_>,
        tracker: &mut T,
    ) -> Result<BatchOutcome, StorageError> {
        let (table, mut spool) = self.first_pass();
        let out = spool.feed_batch(table, kind, batch, tracker)?;
        match kind {
            RowKind::Raw => self.stats.raw_in += out.passed,
            RowKind::Partial => self.stats.partial_in += out.passed,
        }
        self.stats.spilled_tuples += out.rejected;
        Ok(out)
    }

    /// Push a raw tuple.
    pub fn push_raw<T: CostTracker>(
        &mut self,
        values: &[Value],
        tracker: &mut T,
    ) -> Result<(), StorageError> {
        self.push(RowKind::Raw, values, tracker)
    }

    /// Finish a local phase: drain the first-pass table, then process
    /// overflow buckets one by one (recursively), each table's groups
    /// appended as partial rows (key columns ++ encoded partial-state
    /// columns) to pages an exchange routes whole.
    pub fn finish_partials<T: CostTracker>(
        self,
        tracker: &mut T,
    ) -> Result<(RowPages, HashAggStats), StorageError> {
        let mut pages = RowPages::new(self.page_bytes);
        let mut stats =
            self.finish_impl(tracker, |table, tracker| table.drain_partials(tracker, &mut pages))?;
        stats.groups_out += pages.len() as u64;
        Ok((pages, stats))
    }

    /// Finish a merge phase the same way, draining typed, finalized
    /// [`ResultRow`]s straight out of each table, each table's as one
    /// ascending run of keys: one run when nothing spilled, else one more
    /// per overflow bucket. The first-pass table's drain — all of them when
    /// nothing spilled — is taken whole instead of copied into a second
    /// allocation.
    pub fn finish_rows<T: CostTracker>(
        self,
        tracker: &mut T,
    ) -> Result<(Vec<ResultRow>, HashAggStats), StorageError> {
        let mut rows = Vec::new();
        let mut stats = self.finish_impl(tracker, |table, tracker| {
            let drained = table.drain_result_rows(tracker);
            if rows.is_empty() {
                rows = drained;
            } else {
                rows.extend(drained);
            }
            Ok(())
        })?;
        stats.groups_out += rows.len() as u64;
        Ok((rows, stats))
    }

    /// The shared finish loop: drain the first-pass table via `drain`,
    /// then process overflow buckets recursively, draining each bucket's
    /// table the same way. `groups_out` is left for the caller to add
    /// (only it knows how many rows the drains emitted).
    fn finish_impl<T, D>(
        mut self,
        tracker: &mut T,
        mut drain: D,
    ) -> Result<HashAggStats, StorageError>
    where
        T: CostTracker,
        D: FnMut(&mut AggTable, &mut T) -> Result<(), StorageError>,
    {
        drain(&mut self.table, tracker)?;
        self.stats.add(self.table.drains());

        // Stack of (bucket, level) still to process.
        let mut pending: Vec<(SpillFile, u32)> = Vec::new();
        if let Some(set) = self.overflow.take() {
            self.stats.spooled_rows.add(set.spooled_rows());
            let level = set.level();
            pending.extend(set.into_buckets(tracker).into_iter().map(|b| (b, level)));
        }

        while let Some((bucket, level)) = pending.pop() {
            self.stats.overflow_buckets += 1;
            self.stats.max_level = self.stats.max_level.max(level + 1);
            // Per §2 step 3: each bucket is processed "as in step 1", with
            // the same memory budget. At extreme depth, uncap (see
            // MAX_OVERFLOW_LEVEL).
            let budget = if level + 1 > MAX_OVERFLOW_LEVEL {
                usize::MAX
            } else {
                self.max_entries
            };
            let mut table =
                AggTable::new(self.query.clone(), budget).with_charge_hash(self.charge_hash);
            if budget != usize::MAX {
                // Past the safety valve the table must be truly uncapped;
                // a live grant would defeat it.
                table = table.with_grant(self.grant.clone());
            }
            let mut deeper: Option<OverflowSet> = None;
            let mut spool = Spool {
                set: &mut deeper,
                bounced: &mut self.bounced,
                level: level + 1,
                fanout: self.fanout,
                page_bytes: self.page_bytes,
                key_len: self.query.group_by.len(),
            };
            refeed(bucket, &mut table, &mut spool, &mut self.stats, tracker)?;
            drain(&mut table, tracker)?;
            self.stats.add(table.drains());
            if let Some(set) = deeper {
                self.stats.spooled_rows.add(set.spooled_rows());
                let l = set.level();
                pending.extend(set.into_buckets(tracker).into_iter().map(|b| (b, l)));
            }
        }

        Ok(self.stats)
    }
}

/// Re-aggregate one overflow bucket into `table` "as in step 1" (§2 step
/// 3), a drained page at a time, spooling what the table cannot hold one
/// level deeper. A page whose rows share a kind and an arity is fed as the
/// batch [`drained_batch`] makes of it — each row charged the drain's `t_r`
/// and its insert attempt, as the row loop charges them, whatever cells
/// its strips hold; a mixed-kind or ragged page takes that row loop
/// ([`feed_rows`]), and the page counts in `stats` under the lane it took.
fn refeed<T: CostTracker>(
    bucket: SpillFile,
    table: &mut AggTable,
    spool: &mut Spool<'_>,
    stats: &mut HashAggStats,
    tracker: &mut T,
) -> Result<(), StorageError> {
    bucket.drain_pages(tracker, |tracker, page| {
        match drained_batch(&page) {
            Ok((kind, batch)) => {
                stats.overflow_pages_batched += 1;
                stats.spilled_tuples += spool.feed_batch(table, kind, &batch, tracker)?.rejected;
            }
            Err(cause) => {
                stats.overflow_pages_rows[cause as usize] += 1;
                stats.spilled_tuples += feed_rows(&page, None, table, spool, tracker)?;
            }
        }
        Ok(())
    })
}

/// The row loop: insert every row of `page` — ragged or not — where it
/// lies, spooling each row the table cannot hold; returns how many it
/// spooled. `kind` is the rows' kind, or `None` for a drained bucket page,
/// whose rows carry theirs as a tag and owe the drain's `t_r` first.
fn feed_rows<T: CostTracker>(
    page: &Page,
    kind: Option<RowKind>,
    table: &mut AggTable,
    spool: &mut Spool<'_>,
    tracker: &mut T,
) -> Result<u64, StorageError> {
    let mut spilled = 0;
    for row in page.rows() {
        let (kind, row) = match kind {
            Some(kind) => (kind, row),
            None => {
                tracker.record(CostEvent::TupleRead, 1);
                untag(row)?
            }
        };
        if table.insert(kind, &row, tracker)? == Inserted::Full {
            spool.set().spool(kind, &row, tracker)?;
            spilled += 1;
        }
    }
    Ok(spilled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{AggFunc, AggSpec, CostEvent, CountingTracker, NullTracker};

    fn query() -> AggQuery {
        AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
    }

    fn raw(g: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(g), Value::Int(v)]
    }

    /// Reference: unbounded aggregation via a plain HashMap.
    fn reference(rows: &[(i64, i64)]) -> Vec<(i64, i64)> {
        let mut m = std::collections::BTreeMap::new();
        for &(g, v) in rows {
            *m.entry(g).or_insert(0) += v;
        }
        m.into_iter().collect()
    }

    fn run_bounded(rows: &[(i64, i64)], max_entries: usize) -> (Vec<(i64, i64)>, HashAggStats) {
        let mut agg = HashAggregator::new(query(), max_entries, 256, 4);
        let mut tr = NullTracker;
        for &(g, v) in rows {
            agg.push_raw(&raw(g, v), &mut tr).unwrap();
        }
        let (rows_out, stats) = agg.finish_rows(&mut tr).unwrap();
        let mut got: Vec<(i64, i64)> = rows_out
            .into_iter()
            .map(|r| {
                (
                    r.key.values()[0].as_i64().unwrap(),
                    r.aggs[0].as_i64().unwrap(),
                )
            })
            .collect();
        got.sort_unstable();
        (got, stats)
    }

    #[test]
    fn push_page_matches_per_tuple_push() {
        // Same rows via per-tuple push vs one page-batched push, across a
        // capacity boundary (8 groups into a 4-entry budget → spills):
        // identical results, stats and cost-event counts.
        let rows: Vec<Vec<Value>> = (0..120).map(|i| raw(i % 8, i)).collect();
        let mut page = Page::new(1 << 16);
        for r in &rows {
            assert!(page.try_push(r).unwrap());
        }

        let mut a = HashAggregator::new(query(), 4, 256, 4);
        let mut ta = CountingTracker::new();
        for r in &rows {
            a.push(RowKind::Raw, r, &mut ta).unwrap();
        }

        let mut b = HashAggregator::new(query(), 4, 256, 4);
        let mut tb = CountingTracker::new();
        b.push_page(RowKind::Raw, &page, &mut tb).unwrap();

        assert_eq!(a.stats().raw_in, b.stats().raw_in);
        assert_eq!(a.stats().spilled_tuples, b.stats().spilled_tuples);
        assert_eq!(ta, tb, "cost events diverge between paths");

        let (ra, _) = a.finish_rows(&mut ta).unwrap();
        let (rb, _) = b.finish_rows(&mut tb).unwrap();
        let mut ra = ra;
        let mut rb = rb;
        adaptagg_model::query::sort_rows(&mut ra);
        adaptagg_model::query::sort_rows(&mut rb);
        assert_eq!(ra, rb);
        assert_eq!(ta, tb, "finish cost events diverge between paths");
    }

    /// A bounced row no spill page can hold ends the push in the typed
    /// `TupleTooLarge` of the row path, whether it is spooled off a batch
    /// once the batch is fed — a column at a time, or row by row off a
    /// batch with a `Str` key — or on its own.
    #[test]
    fn a_row_too_wide_for_a_spill_page_is_the_row_paths_typed_error() {
        // Seven cells and the tag: 74 bytes on the wire (80 with the
        // `Str` key) against 64-byte spill pages.
        for str_key in [false, true] {
            let rows: Vec<Vec<Value>> = (0..6i64)
                .map(|g| {
                    let key = if str_key { Value::from(format!("g{g}")) } else { Value::Int(g) };
                    [key, Value::Int(g)].into_iter().chain((0..5).map(Value::Int)).collect()
                })
                .collect();
            let mut page = Page::new(1 << 12);
            rows.iter().for_each(|r| assert!(page.try_push(r).unwrap()));
            let fresh = || HashAggregator::new(query(), 1, 64, 4);
            let mut by_row = fresh();
            let want = rows.iter().find_map(|r| by_row.push(RowKind::Raw, r, &mut NullTracker).err());
            let want = want.expect("the second group bounces");
            assert!(matches!(want, StorageError::TupleTooLarge { page_bytes: 64, .. }), "{want:?}");
            let got = fresh().push_page(RowKind::Raw, &page, &mut NullTracker);
            assert_eq!(got, Err(want.clone()), "push_page, str key {str_key}");
            let sel = [0u32, 2, 3, 5];
            let batch = ScanBatch::scanned(&page, &[], Some(&sel), rows.len()).unwrap();
            let got = fresh().push_batch(RowKind::Raw, &batch, &mut NullTracker);
            assert_eq!(got.map(|_| ()), Err(want), "push_batch, str key {str_key}");
        }
    }

    #[test]
    fn no_overflow_when_groups_fit() {
        let rows: Vec<(i64, i64)> = (0..100).map(|i| (i % 10, i)).collect();
        let (got, stats) = run_bounded(&rows, 16);
        assert_eq!(got, reference(&rows));
        assert!(!stats.spilled());
        assert_eq!(stats.max_level, 0);
        assert_eq!(stats.groups_out, 10);
    }

    #[test]
    fn overflow_single_level_is_exact() {
        // 64 groups, budget 16 → spills, one level suffices (fanout 4:
        // ~12 groups per bucket < 16).
        let rows: Vec<(i64, i64)> = (0..640).map(|i| (i % 64, 1)).collect();
        let (got, stats) = run_bounded(&rows, 16);
        assert_eq!(got, reference(&rows));
        assert!(stats.spilled());
        assert!(stats.overflow_buckets > 0);
    }

    #[test]
    fn overflow_recursion_is_exact() {
        // 4096 groups, budget 8, fanout 4 → multiple levels.
        let rows: Vec<(i64, i64)> = (0..8192).map(|i| (i % 4096, 1)).collect();
        let (got, stats) = run_bounded(&rows, 8);
        assert_eq!(got.len(), 4096);
        assert_eq!(got, reference(&rows));
        assert!(stats.max_level >= 2, "expected recursion, got {stats:?}");
    }

    /// A spilling aggregator emits each table's groups as one ascending
    /// run: the first-pass table's, then one per overflow bucket. Together
    /// the runs are the reference's groups, each once. One level deep,
    /// every table holds ~30 groups scattered over the key range, so each
    /// table boundary is a descent. Deeper, a table can hold only a few
    /// groups and follow its predecessor's keys by chance, so there are at
    /// most that many runs.
    #[test]
    fn spilled_finish_rows_is_one_ascending_run_per_table() {
        for (groups, fanout, levels) in [(300, 8, 1..=1), (1500, 4, 2..=u32::MAX)] {
            let rows: Vec<(i64, i64)> = (0..6000).map(|i| ((i * 7919) % groups, i % 13 - 6)).collect();
            let mut agg = HashAggregator::new(query(), 64, 256, fanout);
            let mut tr = NullTracker;
            for &(g, v) in &rows {
                agg.push_raw(&raw(g, v), &mut tr).unwrap();
            }
            let (out, stats) = agg.finish_rows(&mut tr).unwrap();
            assert!(levels.contains(&stats.max_level), "{stats:?}");
            let mut got: Vec<(i64, i64)> =
                out.iter().map(|r| (r.key.values()[0].as_i64().unwrap(), r.aggs[0].as_i64().unwrap())).collect();
            let runs = 1 + got.windows(2).filter(|w| w[0].0 > w[1].0).count() as u64;
            let tables = 1 + stats.overflow_buckets;
            match stats.max_level {
                1 => assert_eq!(runs, tables),
                _ => assert!(runs <= tables, "{runs} runs from {tables} tables"),
            }
            got.sort_unstable();
            assert_eq!(got, reference(&rows));
        }
    }

    #[test]
    fn tiny_budget_one_group_never_spills() {
        let rows: Vec<(i64, i64)> = (0..50).map(|i| (7, i)).collect();
        let (got, stats) = run_bounded(&rows, 1);
        assert_eq!(got, vec![(7, (0..50).sum())]);
        assert!(!stats.spilled());
    }

    #[test]
    fn partial_and_raw_interleaved_with_overflow() {
        // Half the input arrives pre-aggregated as partial rows.
        let mut agg = HashAggregator::new(query(), 4, 256, 4);
        let mut tr = NullTracker;
        for g in 0..32 {
            agg.push_raw(&raw(g, 1), &mut tr).unwrap();
            // partial row: key + SUM partial (value 10).
            agg.push(RowKind::Partial, &[Value::Int(g), Value::Int(10)], &mut tr).unwrap();
        }
        let (rows, stats) = agg.finish_rows(&mut tr).unwrap();
        assert_eq!(rows.len(), 32);
        assert!(rows.iter().all(|r| r.aggs[0] == Value::Int(11)));
        assert!(stats.spilled());
        assert_eq!(stats.raw_in, 32);
        assert_eq!(stats.partial_in, 32);
    }

    #[test]
    fn partials_round_trip_through_merge() {
        // Local phase: emit partials (with overflow); merge phase: final.
        let rows: Vec<(i64, i64)> = (0..200).map(|i| (i % 50, i)).collect();
        let mut local = HashAggregator::new(query(), 8, 256, 4);
        let mut tr = NullTracker;
        for &(g, v) in &rows {
            local.push_raw(&raw(g, v), &mut tr).unwrap();
        }
        let (partials, stats) = local.finish_partials(&mut tr).unwrap();
        assert!(partials.len() >= 50, "overflow may duplicate groups across passes");
        assert_eq!(stats.groups_out, partials.len() as u64);

        let mut merge = HashAggregator::new(query(), 1000, 256, 4);
        for page in partials.pages() {
            merge.push_page(RowKind::Partial, page, &mut tr).unwrap();
        }
        let (got, _) = merge.finish_rows(&mut tr).unwrap();
        let mut got: Vec<(i64, i64)> = got
            .into_iter()
            .map(|r| {
                (
                    r.key.values()[0].as_i64().unwrap(),
                    r.aggs[0].as_i64().unwrap(),
                )
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, reference(&rows));
    }

    #[test]
    fn spill_io_is_symmetric_and_counted() {
        let rows: Vec<(i64, i64)> = (0..1000).map(|i| (i % 100, 1)).collect();
        let mut agg = HashAggregator::new(query(), 10, 128, 4);
        let mut tr = CountingTracker::new();
        for &(g, v) in &rows {
            agg.push_raw(&raw(g, v), &mut tr).unwrap();
        }
        let (_, stats) = agg.finish_rows(&mut tr).unwrap();
        assert!(stats.spilled_tuples > 0);
        assert_eq!(
            tr.count(CostEvent::PageWriteSeq),
            tr.count(CostEvent::PageReadSeq),
            "every spilled page is written once and read once"
        );
        // Every input tuple is hashed at least once.
        assert!(tr.count(CostEvent::TupleHash) >= 1000);
    }

    #[test]
    fn duplicate_elimination_with_overflow() {
        let q = AggQuery::distinct(vec![0]);
        let mut agg = HashAggregator::new(q, 4, 128, 4);
        let mut tr = NullTracker;
        for i in 0..300 {
            agg.push_raw(&[Value::Int(i % 30)], &mut tr).unwrap();
        }
        let (rows, stats) = agg.finish_rows(&mut tr).unwrap();
        assert_eq!(rows.len(), 30);
        assert!(stats.spilled());
    }

    #[test]
    fn shrinking_grant_mid_stream_spills_but_stays_exact() {
        use adaptagg_model::MemoryGrant;
        let rows: Vec<(i64, i64)> = (0..600).map(|i| (i % 40, i)).collect();
        let grant = MemoryGrant::bounded(1000);
        let mut agg = HashAggregator::new(query(), 64, 256, 4).with_grant(grant.clone());
        let mut tr = NullTracker;
        for (i, &(g, v)) in rows.iter().enumerate() {
            if i == 20 {
                // Revoke mid-scan, while half the groups are still unseen:
                // the rest must spill rather than grow the table.
                grant.set(6);
            }
            agg.push_raw(&raw(g, v), &mut tr).unwrap();
        }
        assert!(agg.is_full(), "shrunk grant must read as full");
        let (got, stats) = agg.finish_rows(&mut tr).unwrap();
        assert!(stats.spilled(), "post-revocation tuples must spill");
        let mut got: Vec<(i64, i64)> = got
            .into_iter()
            .map(|r| {
                (
                    r.key.values()[0].as_i64().unwrap(),
                    r.aggs[0].as_i64().unwrap(),
                )
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, reference(&rows), "revocation must never change the answer");
    }

    #[test]
    fn scalar_aggregation_single_group() {
        let q = AggQuery::new(vec![], vec![AggSpec::over(AggFunc::Max, 0)]);
        let mut agg = HashAggregator::new(q, 4, 128, 4);
        let mut tr = NullTracker;
        for i in [3i64, 9, 1] {
            agg.push_raw(&[Value::Int(i)], &mut tr).unwrap();
        }
        let (rows, _) = agg.finish_rows(&mut tr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].aggs, vec![Value::Int(9)]);
        assert_eq!(rows[0].key.arity(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use adaptagg_model::{AggFunc, AggSpec, NullTracker};
    use proptest::prelude::*;

    proptest! {
        /// The bounded aggregator must agree with an unbounded reference
        /// for any input and any memory budget — the invariant every
        /// parallel algorithm ultimately rests on.
        #[test]
        fn prop_bounded_equals_unbounded(
            rows in proptest::collection::vec((0i64..64, -100i64..100), 0..400),
            budget in 1usize..40,
            fanout in 2usize..6,
        ) {
            let query = AggQuery::new(
                vec![0],
                vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
            );
            let mut agg = HashAggregator::new(query, budget, 128, fanout);
            let mut tr = NullTracker;
            for &(g, v) in &rows {
                agg.push_raw(&[Value::Int(g), Value::Int(v)], &mut tr).unwrap();
            }
            let (got, _) = agg.finish_rows(&mut tr).unwrap();

            let mut expect: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
            for &(g, v) in &rows {
                let e = expect.entry(g).or_insert((0, 0));
                e.0 += v;
                e.1 += 1;
            }
            prop_assert_eq!(got.len(), expect.len());
            for r in got {
                let g = r.key.values()[0].as_i64().unwrap();
                let (sum, count) = expect[&g];
                prop_assert_eq!(&r.aggs[0], &Value::Int(sum));
                prop_assert_eq!(&r.aggs[1], &Value::Int(count));
            }
        }
    }
}
