//! The bounded hash table against a test-only reference.
//!
//! `reference::Table` is a `HashMap<GroupKey, AggStates>` plus an
//! insertion-order list — one box per key and per state row, the layout
//! the flat group store replaced — kept here as the oracle for what must
//! not change whichever entry point feeds the table: the `Inserted`
//! outcome of every row, the rows bounced at the budget, the drains
//! (order included: partial rows in insertion order, result rows in key
//! order), the typed errors, the count of every cost event, and
//! the clock those charges make wherever one would be read — where a
//! chunk's entry point returns (the next receive, send or failure time
//! reads it), around a mid-stream drain (the flush's sends), at the end.
//! Charges commute, so their order is no part of the contract; being paid
//! before the clock is read is. The probe counter has no reference; it
//! must agree between the entry points.
//!
//! Nor may any of it depend on the layout the group store's columns are
//! in. Every comparison below runs each entry point twice: on a fresh
//! table, whose columns are typed until the stream hands one a cell it
//! cannot hold, and on a table whose columns were all demoted before the
//! stream's first row ([`demote_every_column`]) — the `Value` / `AggState`
//! layout from row 0. Streams that demote a column at every possible row
//! index are spelled out below, and so are the dense index's edges: a
//! table grouped on one column finds `Int` keys through a dense map while
//! their span allows, and its moves off the map must change none of it
//! either.

use adaptagg_hashagg::{AggTable, Inserted, Stop};
use adaptagg_model::{
    AggFunc, AggQuery, AggSpec, AggStates, CostEvent, CostParams, CostTracker, CountingTracker,
    DemoteCause, GroupKey, KeyCell, MemoryGrant, ModelError, NullTracker, ResultRow, RowKind,
    StoreLayout, Value,
};
use adaptagg_model::hash::{hash_values, Seed};
use adaptagg_storage::{Page, RowPages, ScanBatch, StorageError};
use proptest::prelude::*;

mod reference {
    use super::*;
    use std::collections::HashMap;

    pub struct Table {
        query: AggQuery,
        groups: HashMap<GroupKey, AggStates>,
        order: Vec<GroupKey>,
        max_entries: usize,
        grant: MemoryGrant,
    }

    impl Table {
        pub fn new(query: AggQuery, max_entries: usize, grant: MemoryGrant) -> Self {
            Table {
                query,
                groups: HashMap::new(),
                order: Vec::new(),
                max_entries,
                grant,
            }
        }

        pub fn len(&self) -> usize {
            self.order.len()
        }

        /// Forget every group, charging nothing.
        pub fn clear(&mut self) {
            self.groups.clear();
            self.order.clear();
        }

        /// The row loop's contract: `t_r + t_h` per attempt, `t_a` when
        /// the row landed; a new group whose first row does not fold is
        /// not created.
        pub fn insert<T: CostTracker>(
            &mut self,
            kind: RowKind,
            values: &[Value],
            tracker: &mut T,
        ) -> Result<Inserted, ModelError> {
            tracker.record(CostEvent::TupleRead, 1);
            tracker.record(CostEvent::TupleHash, 1);
            let k = self.query.group_by.len();
            let key = match kind {
                RowKind::Raw => self.query.key_of_values(values)?,
                RowKind::Partial => {
                    if values.len() != self.query.partial_row_arity() {
                        return Err(ModelError::PartialArityMismatch {
                            expected: self.query.partial_row_arity(),
                            found: values.len(),
                        });
                    }
                    GroupKey::new(values[..k].to_vec())
                }
            };
            let aggs = &self.query.aggs;
            let fold = |states: &mut AggStates| match kind {
                RowKind::Raw => states.update_from_tuple(aggs, values),
                RowKind::Partial => states.merge_partial_values(&values[k..]),
            };
            let outcome = if let Some(states) = self.groups.get_mut(&key) {
                fold(states)?;
                Inserted::Updated
            } else if self.order.len() >= self.grant.cap(self.max_entries) {
                Inserted::Full
            } else {
                let mut states = AggStates::new(aggs);
                fold(&mut states)?;
                self.groups.insert(key.clone(), states);
                self.order.push(key);
                Inserted::New
            };
            if outcome != Inserted::Full {
                tracker.record(CostEvent::TupleAgg, 1);
            }
            Ok(outcome)
        }

        fn drain<T: CostTracker>(&mut self, tracker: &mut T) -> Vec<(GroupKey, AggStates)> {
            let mut groups = std::mem::take(&mut self.groups);
            let out: Vec<_> = std::mem::take(&mut self.order)
                .into_iter()
                .map(|key| {
                    let states = groups.remove(&key).expect("listed key is resident");
                    (key, states)
                })
                .collect();
            tracker.record(CostEvent::TupleWrite, out.len() as u64);
            out
        }

        pub fn drain_partial_rows<T: CostTracker>(&mut self, tracker: &mut T) -> Vec<Vec<Value>> {
            let rows = self.drain(tracker).into_iter().map(|(key, states)| {
                let mut row = key.into_values();
                row.extend(states.to_partial_values());
                row
            });
            rows.collect()
        }

        /// Results in key order; partial rows keep insertion order.
        pub fn drain_result_rows<T: CostTracker>(&mut self, tracker: &mut T) -> Vec<ResultRow> {
            let mut groups = self.drain(tracker);
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            groups
                .into_iter()
                .map(|(key, states)| ResultRow::new(key, states.finalize()))
                .collect()
        }
    }
}

/// Counts every charge, and keeps the time — in Table 1 ticks — those
/// counts made at each point the clock is [`read`](EventLog::read).
#[derive(Debug, Default, PartialEq)]
struct EventLog {
    counts: CountingTracker,
    reads: Vec<u64>,
}

impl EventLog {
    fn read(&mut self) {
        self.reads.push(self.counts.total_ticks(&CostParams::paper_default()));
    }
}

impl CostTracker for EventLog {
    fn record(&mut self, event: CostEvent, count: u64) {
        self.counts.record(event, count);
    }
}

/// What a caller's `on_full` charges for a bounced row (a spool's write).
const BOUNCE: CostEvent = CostEvent::PageWriteSeq;

/// One page worth of input: rows of one kind, and which of them pass the
/// (notional) filter. Only [`Lane::Selected`] sees the rows that do not.
#[derive(Debug, Clone)]
struct Chunk {
    kind: RowKind,
    rows: Vec<Vec<Value>>,
    keep: Vec<bool>,
}

impl Chunk {
    fn kept(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.rows
            .iter()
            .zip(&self.keep)
            .filter_map(|(row, keep)| keep.then_some(row))
    }
}

/// The table's entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lane {
    /// `insert`, one kept row at a time.
    Row,
    /// `insert_page` over a page of the kept rows.
    Page,
    /// `insert_page_batched` over the same page (the whole-page batch).
    Batch,
    /// `feed_batch` under [`Stop`] over a page of *all* rows with a
    /// selection vector, as the scan hands base pages over — the rows past
    /// each bounce offered anew, as the scan offers them; owes the select
    /// charges.
    Selected,
}

/// What happens between chunks.
#[derive(Debug, Clone, Copy, Default)]
struct Schedule {
    /// Before this chunk, the grant drops to the given cap.
    shrink: Option<(usize, usize)>,
    /// Before this chunk, the table is drained as partial rows (A-2P's
    /// flush) and carries on empty.
    drain_at: Option<usize>,
    /// Before this chunk, the table is cleared (a run table's seal) and
    /// carries on empty.
    clear_at: Option<usize>,
}

/// Everything every lane is compared on. (The `Inserted` outcome of each
/// kept row travels beside it: only the row lane returns them — on the
/// page lanes they show as `bounced` and in the event log.)
#[derive(Debug, Default, PartialEq)]
struct Observed {
    bounced: Vec<Vec<Value>>,
    /// The error that ended a chunk early, by chunk.
    errors: Vec<(usize, StorageError)>,
    events: EventLog,
    /// `len()` after every chunk.
    lens: Vec<usize>,
    mid_drain: Vec<Vec<Value>>,
    results: Vec<ResultRow>,
}

fn page_of<'a>(rows: impl Iterator<Item = &'a Vec<Value>>) -> Page {
    let mut page = Page::new(1 << 20);
    for row in rows {
        assert!(page.try_push(row).unwrap());
    }
    page
}

/// The reference run. `scanned` adds the select charges [`Lane::Selected`]
/// owes: `t_r` for a filtered-out row, `t_r + t_w` ahead of a kept one.
fn observe_reference(
    query: &AggQuery,
    budget: usize,
    chunks: &[Chunk],
    schedule: Schedule,
    scanned: bool,
) -> (Observed, Vec<Inserted>) {
    let grant = MemoryGrant::bounded(usize::MAX);
    let mut table = reference::Table::new(query.clone(), budget, grant.clone());
    let mut log = EventLog::default();
    let mut seen = Observed::default();
    let mut outcomes = Vec::new();
    for (c, chunk) in chunks.iter().enumerate() {
        if let Some((_, cap)) = schedule.shrink.filter(|&(at, _)| at == c) {
            grant.set(cap);
        }
        if schedule.drain_at == Some(c) {
            log.read();
            seen.mid_drain = table.drain_partial_rows(&mut log);
            log.read();
        }
        if schedule.clear_at == Some(c) {
            table.clear();
        }
        for (row, &keep) in chunk.rows.iter().zip(&chunk.keep) {
            if scanned {
                log.record(CostEvent::TupleRead, 1);
            }
            if !keep {
                continue;
            }
            if scanned {
                log.record(CostEvent::TupleWrite, 1);
            }
            match table.insert(chunk.kind, row, &mut log) {
                Ok(outcome) => {
                    outcomes.push(outcome);
                    if outcome == Inserted::Full {
                        log.record(BOUNCE, 1);
                        seen.bounced.push(row.clone());
                    }
                }
                Err(e) => {
                    // A page stops at its first bad row.
                    seen.errors.push((c, e.into()));
                    break;
                }
            }
        }
        log.read();
        seen.lens.push(table.len());
    }
    seen.results = table.drain_result_rows(&mut log);
    log.read();
    seen.events = log;
    (seen, outcomes)
}

/// The real table's partial drain, read back as rows.
fn drain_partials<T: CostTracker>(table: &mut AggTable, tracker: &mut T) -> Vec<Vec<Value>> {
    let mut pages = RowPages::new(4096);
    table.drain_partials(tracker, &mut pages).unwrap();
    pages.to_rows()
}

/// Demote every column of an empty table that can be: one group whose
/// key cells are strings and whose every other cell is a `Float` is
/// admitted and drained again. The demotions are for good, so the table
/// the stream then meets is empty, its slot array the size it was, and in
/// the general layout from its first row. (`COUNT` has no cell a raw row
/// could not fit; `VAR_POP`/`STDDEV_POP` start general.)
fn demote_every_column(table: &mut AggTable, query: &AggQuery) {
    let inputs = query.aggs.iter().filter_map(|spec| spec.input);
    let arity = query.group_by.iter().copied().chain(inputs).max();
    let mut row = vec![Value::Float(0.5); arity.map_or(0, |c| c + 1)];
    for &c in &query.group_by {
        row[c] = Value::from("\u{0}no such key");
    }
    assert_eq!(
        table.insert(RowKind::Raw, &row, &mut NullTracker),
        Ok(Inserted::New)
    );
    assert_eq!(drain_partials(table, &mut NullTracker).len(), 1);
    let layout = table.layout();
    let count_columns = query.aggs.iter().filter(|s| s.func == AggFunc::Count);
    let typed = count_columns.count() + usize::from(query.group_by.is_empty());
    assert_eq!(layout.typed_columns, typed as u64, "{layout:?}");
}

/// The same run through one of the real table's entry points, on a fresh
/// table or (`general`) one demoted beforehand; also returns the outcomes
/// the row lane saw, the stream's probe count and the layout it left.
fn observe_table(
    query: &AggQuery,
    budget: usize,
    hint: usize,
    chunks: &[Chunk],
    schedule: Schedule,
    lane: Lane,
    general: bool,
) -> (Observed, Vec<Inserted>, u64, StoreLayout) {
    let grant = MemoryGrant::bounded(usize::MAX);
    let mut table = AggTable::new_with_hint(query.clone(), budget, hint).with_grant(grant.clone());
    if general {
        demote_every_column(&mut table, query);
    }
    let probes_before = table.probe_slots();
    let mut log = EventLog::default();
    let mut seen = Observed::default();
    let mut outcomes = Vec::new();
    for (c, chunk) in chunks.iter().enumerate() {
        if let Some((_, cap)) = schedule.shrink.filter(|&(at, _)| at == c) {
            grant.set(cap);
        }
        if schedule.drain_at == Some(c) {
            log.read();
            seen.mid_drain = drain_partials(&mut table, &mut log);
            log.read();
        }
        if schedule.clear_at == Some(c) {
            table.clear();
        }
        let bounced = &mut seen.bounced;
        let mut bounce =
            |log: &mut EventLog, _: RowKind, row: &[Value]| -> Result<(), StorageError> {
                log.record(BOUNCE, 1);
                bounced.push(row.to_vec());
                Ok(())
            };
        let ended: Result<(), StorageError> = match lane {
            Lane::Row => chunk.kept().try_for_each(|row| {
                let outcome = table.insert(chunk.kind, row, &mut log)?;
                outcomes.push(outcome);
                if outcome == Inserted::Full {
                    bounce(&mut log, chunk.kind, row)?;
                }
                Ok(())
            }),
            Lane::Page => table
                .insert_page(chunk.kind, &page_of(chunk.kept()), &mut log, bounce)
                .map(|_| ()),
            Lane::Batch => table
                .insert_page_batched(chunk.kind, &page_of(chunk.kept()), &mut log, bounce)
                .map(|_| ()),
            Lane::Selected if chunk.rows.is_empty() => Ok(()),
            Lane::Selected => {
                let page = page_of(chunk.rows.iter());
                let selection: Vec<u32> = (0..chunk.rows.len() as u32)
                    .filter(|&r| chunk.keep[r as usize])
                    .collect();
                let (mut start, mut passed, mut row) = (0, 0, Vec::new());
                loop {
                    let rest = &selection[selection.partition_point(|&r| (r as usize) < start)..];
                    let rest: Vec<u32> = rest.iter().map(|&r| r - start as u32).collect();
                    let batch = ScanBatch::scanned_rows(&page, &[], Some(&rest), start..chunk.rows.len())
                        .expect("selected-lane chunks are arity-uniform");
                    let mut stop = Stop::default();
                    let out = match table.feed_batch(chunk.kind, &batch, &mut log, &mut stop) {
                        Ok(out) => out,
                        Err(e) => break Err(e),
                    };
                    passed += out.passed as usize;
                    start += out.consumed;
                    let Stop(Some(r)) = stop else {
                        assert_eq!((start, passed), (chunk.rows.len(), selection.len()));
                        break Ok(());
                    };
                    assert_eq!(r + 1, out.consumed, "the batch stops at its bounce");
                    batch.read_row(r, &mut row);
                    if let Err(e) = bounce(&mut log, chunk.kind, &row) {
                        break Err(e);
                    }
                }
            }
        };
        if let Err(e) = ended {
            seen.errors.push((c, e));
        }
        log.read();
        seen.lens.push(table.len());
    }
    let probes = table.probe_slots() - probes_before;
    let layout = table.layout();
    seen.results = table.drain_result_rows(&mut log);
    log.read();
    assert!(table.is_empty());
    seen.events = log;
    (seen, outcomes, probes, layout)
}

/// Run every lane — typed from the start, and general from the start —
/// and the reference; everything must agree. Returns what was seen and
/// the layout the stream left the fresh table in.
fn assert_lanes_match_reference(
    query: &AggQuery,
    budget: usize,
    hint: usize,
    chunks: &[Chunk],
    schedule: Schedule,
    lanes: &[Lane],
) -> (Observed, StoreLayout) {
    let (plain, outcomes) = observe_reference(query, budget, chunks, schedule, false);
    // The same stream as the scan would charge it.
    let (scanned, _) = observe_reference(query, budget, chunks, schedule, true);
    let mut probes = None;
    let mut left = None;
    for &lane in lanes {
        for general in [false, true] {
            let (seen, lane_outcomes, lane_probes, layout) =
                observe_table(query, budget, hint, chunks, schedule, lane, general);
            let expected = if lane == Lane::Selected {
                &scanned
            } else {
                &plain
            };
            assert_eq!(
                seen.events, expected.events,
                "{lane:?} (general: {general}): charges diverged from the reference"
            );
            assert_eq!(
                &seen, expected,
                "{lane:?} (general: {general}) diverged from the reference"
            );
            if lane == Lane::Row {
                assert_eq!(lane_outcomes, outcomes, "the outcome of every row");
            }
            assert_eq!(
                *probes.get_or_insert(lane_probes),
                lane_probes,
                "{lane:?} (general: {general}): probe counter"
            );
            if !general {
                // Which columns a stream demotes is the data's doing, not
                // the entry point's.
                assert_eq!(*left.get_or_insert(layout), layout, "{lane:?}: layout");
            }
        }
    }
    (plain, left.expect("at least one lane"))
}

const ALL_LANES: [Lane; 4] = [Lane::Row, Lane::Page, Lane::Batch, Lane::Selected];

// ---- inputs ----------------------------------------------------------

/// Key columns first (projected form), then a numeric input and an
/// any-type input; one aggregate per function, `MIN`/`MAX` over the
/// any-type column so they meet strings.
fn wide_query(k: usize) -> AggQuery {
    let (num, any) = (k, k + 1);
    AggQuery::new(
        (0..k).collect(),
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Count, any),
            AggSpec::over(AggFunc::Sum, num),
            AggSpec::over(AggFunc::Avg, num),
            AggSpec::over(AggFunc::Min, any),
            AggSpec::over(AggFunc::Max, any),
            AggSpec::over(AggFunc::VarPop, num),
            AggSpec::over(AggFunc::StddevPop, num),
        ],
    )
}

/// Key cells from a small mixed-type domain so groups repeat.
fn key_cell() -> impl Strategy<Value = Value> + 'static {
    prop_oneof![
        Just(Value::Null),
        (0i64..6).prop_map(Value::Int),
        (0i64..3).prop_map(|i| Value::Float(i as f64 - 0.5)),
        (0usize..3).prop_map(|i| Value::from(["", "a", "ab"][i])),
    ]
}

fn num_cell() -> impl Strategy<Value = Value> + 'static {
    prop_oneof![
        Just(Value::Null),
        (-50i64..50).prop_map(Value::Int),
        (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5)),
    ]
}

fn any_cell() -> impl Strategy<Value = Value> + 'static {
    prop_oneof![
        num_cell(),
        (0usize..4).prop_map(|i| Value::from(["", "k", "kk", "z"][i])),
    ]
}

/// A generated row: cells = 3 key candidates ++ `[num, any]`, and whether
/// it passes the filter.
type RawRow = (Vec<Value>, bool);
/// A generated chunk: its rows, and whether it is pushed as partial rows.
type RawChunk = (Vec<RawRow>, bool);

fn row_cells() -> impl Strategy<Value = RawRow> {
    (
        key_cell(),
        key_cell(),
        key_cell(),
        num_cell(),
        any_cell(),
        any::<bool>(),
    )
        .prop_map(|(a, b, c, num, any, keep)| (vec![a, b, c, num, any], keep))
}

/// The `Int`-only image of a cell (what keeps a page on the strips and
/// its updates on the deferred column pass).
fn as_int(v: &Value) -> Value {
    Value::Int(match v {
        Value::Null => 7,
        Value::Int(i) => *i,
        Value::Float(f) => (*f * 2.0) as i64,
        Value::Str(s) => s.len() as i64,
    })
}

/// Turn one raw row into the partial row a local phase would ship for it.
fn as_partial(query: &AggQuery, raw: &[Value]) -> Vec<Value> {
    let mut states = AggStates::new(&query.aggs);
    states.update_from_tuple(&query.aggs, raw).unwrap();
    let mut row = raw[..query.group_by.len()].to_vec();
    row.extend(states.to_partial_values());
    row
}

/// `k` of the key candidates are kept; a chunk is raw or partial as a
/// whole (a page carries one kind).
fn build_chunks(query: &AggQuery, k: usize, ints_only: bool, chunks: &[RawChunk]) -> Vec<Chunk> {
    chunks
        .iter()
        .map(|(rows, partial)| {
            let kind = if *partial {
                RowKind::Partial
            } else {
                RowKind::Raw
            };
            let build = |(cells, _): &(Vec<Value>, bool)| {
                let mut raw = cells[..k].to_vec();
                raw.extend_from_slice(&cells[3..]);
                if ints_only {
                    raw = raw.iter().map(as_int).collect();
                }
                if *partial {
                    as_partial(query, &raw)
                } else {
                    raw
                }
            };
            Chunk {
                kind,
                rows: rows.iter().map(build).collect(),
                keep: rows.iter().map(|(_, keep)| *keep).collect(),
            }
        })
        .collect()
}

fn chunks_strategy() -> impl Strategy<Value = Vec<RawChunk>> {
    proptest::collection::vec(
        (proptest::collection::vec(row_cells(), 0..40), any::<bool>()),
        1..8,
    )
}

proptest! {
    /// Any mix of raw and partial pages over 1-3 mixed-type key columns
    /// and every aggregate function, at budgets 1..64, with the grant
    /// shrinking and the table drained mid-stream: every entry point
    /// equals the reference.
    #[test]
    fn prop_every_entry_point_matches_the_reference(
        chunks in chunks_strategy(),
        k in 1usize..4,
        ints_only in any::<bool>(),
        budget in 1usize..64,
        // Chunk indices past the stream's end: no shrink, no drain.
        shrink in (0usize..12, 0usize..20),
        drain_at in 0usize..12,
    ) {
        let query = wide_query(k);
        let chunks = build_chunks(&query, k, ints_only, &chunks);
        let schedule = Schedule { shrink: Some(shrink), drain_at: Some(drain_at), clear_at: None };
        let (seen, _) =
            assert_lanes_match_reference(&query, budget, budget, &chunks, schedule, &ALL_LANES);
        prop_assert!(seen.errors.is_empty());
    }

    /// A malformed row anywhere — `SUM` over a string, a raw row too
    /// short for its key or its input, a partial row of the wrong arity —
    /// surfaces the same typed error; when it would have opened a new
    /// group the table holds nothing of it, and the stream carries on as
    /// the reference does.
    #[test]
    fn prop_malformed_rows_keep_their_typed_errors(
        chunks in chunks_strategy(),
        k in 1usize..4,
        budget in 1usize..64,
        at in (0usize..8, 0usize..40),
        damage in 0usize..3,
        new_group in any::<bool>(),
    ) {
        let query = wide_query(k);
        let mut chunks = build_chunks(&query, k, false, &chunks);
        let c = at.0 % chunks.len();
        if chunks[c].rows.is_empty() {
            return Ok(());
        }
        let r = at.1 % chunks[c].rows.len();
        let kind = chunks[c].kind;
        chunks[c].keep[r] = true;
        let row = &mut chunks[c].rows[r];
        if new_group {
            // A key no generated row carries.
            row[0] = Value::Int(1_000);
        }
        match (damage, kind) {
            (0, RowKind::Raw) => row[k] = Value::from("not a number"),
            (0, RowKind::Partial) => row[k + 2] = Value::from("not a sum"),
            (1, _) => row.truncate(k + 1),
            _ => row.truncate(k.saturating_sub(1)),
        }
        // The selected lane needs arity-uniform pages; the other three
        // take the ragged page (the batch lane through its row fallback).
        let lanes = [Lane::Row, Lane::Page, Lane::Batch];
        assert_lanes_match_reference(&query, budget, budget, &chunks, Schedule::default(), &lanes);
    }
}

/// The malformed first row of a new group, spelled out: same typed error
/// as the reference, `len()` unmoved, and the key admits normally after.
#[test]
fn a_new_group_that_fails_to_fold_is_not_admitted() {
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::count_star(), AggSpec::over(AggFunc::Sum, 1)],
    );
    let grant = MemoryGrant::unlimited();
    let mut table = AggTable::new(query.clone(), 10);
    let mut oracle = reference::Table::new(query, 10, grant);
    let mut log = EventLog::default();
    let mut oracle_log = EventLog::default();
    let good = [Value::Int(1), Value::Int(5)];
    assert_eq!(
        table.insert(RowKind::Raw, &good[..], &mut log),
        Ok(Inserted::New)
    );
    oracle.insert(RowKind::Raw, &good, &mut oracle_log).unwrap();
    let probes = table.probe_slots();

    let sum_of_str = [Value::Int(2), Value::from("x")];
    let short_partial = [Value::Int(2), Value::Int(1)];
    for (kind, bad) in [
        (RowKind::Raw, &sum_of_str[..]),
        (RowKind::Partial, &short_partial[..]),
    ] {
        let StorageError::Model(err) = table.insert(kind, bad, &mut log).unwrap_err() else {
            panic!("a row that does not fold is a model error");
        };
        assert_eq!(Err(err.clone()), oracle.insert(kind, bad, &mut oracle_log));
        match kind {
            RowKind::Raw => assert!(matches!(err, ModelError::TypeMismatch { .. }), "{err:?}"),
            RowKind::Partial => assert_eq!(
                err,
                ModelError::PartialArityMismatch {
                    expected: 3,
                    found: 2
                }
            ),
        }
        assert_eq!((table.len(), table.accepted()), (1, 1));
        let key = Value::Int(2);
        let probe = table.store().find(|| hash_values(Seed::Table, std::slice::from_ref(&key)), |_| KeyCell::Value(&key));
        assert!(probe.0.is_err(), "not admitted");
    }
    // COUNT(*) had already counted the SUM(Str) row when SUM refused it:
    // the next admission of key 2 starts from fresh states all the same.
    let row = [Value::Int(2), Value::Int(9)];
    assert_eq!(
        table.insert(RowKind::Raw, &row[..], &mut log),
        Ok(Inserted::New)
    );
    oracle.insert(RowKind::Raw, &row, &mut oracle_log).unwrap();
    assert!(table.probe_slots() > probes);
    assert_eq!(log, oracle_log);
    assert_eq!(
        table.drain_result_rows(&mut log),
        oracle.drain_result_rows(&mut oracle_log)
    );
}

/// The empty key (scalar aggregation: every row is one group) and the
/// empty row (no key, no aggregates) are degenerate strides of the
/// arenas, not special cases.
#[test]
fn zero_width_strides_match_the_reference() {
    let rows: Vec<Vec<Value>> = (0..50i64).map(|i| vec![Value::Int(i)]).collect();
    let keep = (0..50).map(|i| i % 3 != 0).collect();
    let chunk = Chunk {
        kind: RowKind::Raw,
        rows,
        keep,
    };
    let chunks = [chunk.clone(), chunk];
    let schedule = Schedule {
        drain_at: Some(1),
        ..Schedule::default()
    };

    let scalar = AggQuery::new(
        vec![],
        vec![AggSpec::count_star(), AggSpec::over(AggFunc::Sum, 0)],
    );
    let (seen, _) = assert_lanes_match_reference(&scalar, 1, 1, &chunks, schedule, &ALL_LANES);
    assert_eq!(seen.mid_drain, vec![vec![Value::Int(33), Value::Int(817)]]);
    assert_eq!(seen.results[0].aggs, vec![Value::Int(33), Value::Int(817)]);

    let nothing = AggQuery::distinct(vec![]);
    let (seen, _) = assert_lanes_match_reference(&nothing, 1, 1, &chunks, schedule, &ALL_LANES);
    assert_eq!(seen.mid_drain, vec![Vec::<Value>::new()]);
    assert_eq!(
        seen.results,
        vec![ResultRow::new(GroupKey::new(vec![]), vec![])]
    );

    // No aggregates under a real key: states are the zero-width stride.
    let distinct = AggQuery::distinct(vec![0]);
    let (seen, _) = assert_lanes_match_reference(&distinct, 20, 0, &chunks, schedule, &ALL_LANES);
    assert_eq!(
        (seen.mid_drain.len(), seen.results.len(), seen.bounced.len()),
        (20, 20, 26)
    );
}

/// Five thousand groups from a 16-slot start: the arenas cross several
/// segments and the slot array doubles nine times, partial rows and a
/// second pass of hits land on the grown table, and a mid-stream drain
/// hands it back empty.
#[test]
fn growth_across_segments_and_slot_doublings_matches_the_reference() {
    const GROUPS: i64 = 5_000;
    let query = AggQuery::new(
        vec![0, 1],
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Sum, 2),
            AggSpec::over(AggFunc::Max, 2),
        ],
    );
    let raw = |g: i64, pass: i64| {
        vec![
            Value::Int(g.wrapping_mul(0x9e37_79b9)),
            Value::from(format!("g{}", g % 7)),
            Value::Int(g + pass),
        ]
    };
    let mut chunks = Vec::new();
    for pass in 0..3 {
        for page in 0..(GROUPS / 250) {
            let rows: Vec<Vec<Value>> = (page * 250..(page + 1) * 250)
                .map(|g| {
                    if pass == 1 {
                        as_partial(&query, &raw(g, pass))
                    } else {
                        raw(g, pass)
                    }
                })
                .collect();
            let keep = (0..rows.len())
                .map(|r| !(r + pass as usize).is_multiple_of(5))
                .collect();
            let kind = if pass == 1 {
                RowKind::Partial
            } else {
                RowKind::Raw
            };
            chunks.push(Chunk { kind, rows, keep });
        }
    }
    let schedule = Schedule {
        drain_at: Some(50),
        ..Schedule::default()
    };
    let (seen, layout) =
        assert_lanes_match_reference(&query, usize::MAX, 0, &chunks, schedule, &ALL_LANES);
    assert!(seen.bounced.is_empty() && seen.errors.is_empty());
    // The string key column demotes the key on the first admission; the
    // all-`Int` aggregates never leave their typed columns.
    assert_eq!((layout.typed_columns, layout.demoted), (3, [1, 0, 0, 0]));
    assert_eq!(
        (seen.lens[19], seen.mid_drain.len(), seen.results.len()),
        (4_000, 5_000, 2_000)
    );
}

// ---- the typed columns and their one-way demotion ---------------------

/// A stream of all-`Int` rows — `k` key columns, a numeric input, an
/// any-type input — as raw, partial and raw chunks, with a budget three
/// groups short so rows bounce in every chunk. `with` edits the rows
/// before the middle chunk is encoded as partial rows.
fn int_stream(query: &AggQuery, k: usize, with: impl Fn(&mut Vec<Vec<Value>>)) -> Vec<Chunk> {
    const ROWS: i64 = 36;
    let mut rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            let key = (0..k as i64).map(|j| Value::Int((i * 7 + j) % (9 - 3 * j)));
            key.chain([Value::Int(i * i - 300), Value::Int(40 - i)]).collect()
        })
        .collect();
    with(&mut rows);
    let keep: Vec<bool> = (0..ROWS).map(|i| i % 5 != 3).collect();
    (0..3)
        .map(|c| {
            let range = c * 12..(c + 1) * 12;
            let kind = [RowKind::Raw, RowKind::Partial, RowKind::Raw][c];
            let encode = |row: &Vec<Value>| match kind {
                RowKind::Raw => row.clone(),
                RowKind::Partial => as_partial(query, row),
            };
            Chunk {
                kind,
                rows: rows[range.clone()].iter().map(encode).collect(),
                keep: keep[range].to_vec(),
            }
        })
        .collect()
}

/// A column is demoted by the first cell it cannot hold, wherever in the
/// stream that cell is: a `Str`, `Float` or NULL key cell (raw or in a
/// partial row), a `Float` input (`FloatGuard` keeps that page off the
/// strips; in the partial chunk it arrives as a `Float` partial sum), a
/// `Str` under `MIN`/`MAX` — with `VAR_POP` beside `SUM`, general all
/// along. At every row index, every entry point, typed and general from
/// row 0: the reference's rows, partial rows, bounces, probe count and
/// event sequence, and the demotion is reported under its cause.
#[test]
fn a_demotion_at_every_row_index_matches_the_reference() {
    let key_type = DemoteCause::KeyType as usize;
    let input_type = DemoteCause::InputType as usize;
    let partial_type = DemoteCause::PartialType as usize;
    for k in [1usize, 2] {
        let query = wide_query(k);
        let (num, any) = (k, k + 1);
        let (_, typed) =
            assert_lanes_match_reference(&query, 6, 6, &int_stream(&query, k, |_| {}), Schedule::default(), &ALL_LANES);
        assert_eq!((typed.general_columns, typed.demoted), (2, [0, 0, 0, 2]));

        let misfits = [
            (k - 1, Value::from("s")),
            (0, Value::Float(2.5)),
            (k - 1, Value::Null),
            (num, Value::Float(0.25)),
            (any, Value::from("zz")),
        ];
        for at in 0..36 {
            for (column, cell) in &misfits {
                let chunks = int_stream(&query, k, |rows| rows[at][*column] = cell.clone());
                let schedule = Schedule {
                    drain_at: Some(2),
                    shrink: Some((1, 4)),
                    clear_at: None,
                };
                let (seen, layout) =
                    assert_lanes_match_reference(&query, 6, 6, &chunks, schedule, &ALL_LANES);
                assert!(seen.errors.is_empty() && !seen.bounced.is_empty());
                let filtered_out = at % 5 == 3;
                let in_partial_chunk = (12..24).contains(&at);
                let mut expect = [0, 0, 0, 2];
                match (*column, filtered_out) {
                    (_, true) => {}
                    // A new key is admitted — and demotes — unless the
                    // table is full when it arrives: count what happened.
                    (c, _) if c < k => expect[key_type] = layout.demoted[key_type],
                    // SUM and AVG over the Float; MIN and MAX over the Str.
                    // The row folds unless it bounces.
                    (_, _) if in_partial_chunk => expect[partial_type] = layout.demoted[partial_type],
                    (_, _) => expect[input_type] = layout.demoted[input_type],
                }
                assert_eq!(layout.demoted, expect, "misfit {cell:?} at row {at}");
                let folded = expect.iter().sum::<u64>() > 2;
                let bounced = seen.bounced.iter().any(|row| row.contains(cell));
                assert!(
                    filtered_out || folded != bounced,
                    "misfit {cell:?} at row {at} neither folded nor bounced"
                );
                if folded && *column >= k {
                    assert_eq!(layout.demoted.iter().sum::<u64>(), 4, "two columns demote");
                }
            }
        }
    }
}

/// The typed cells at their edges, on every entry point: a `SUM` that
/// crosses `i64` (and is shipped, and merged, as the `Float` the general
/// accumulator reads as), `i64::MIN`/`MAX` under `MIN`/`MAX`, groups that
/// only ever see NULLs, two-column `Int` keys, raw and partial rows
/// interleaved in one table (§3.2).
#[test]
fn typed_cells_at_their_edges_match_the_reference() {
    let query = AggQuery::new(
        vec![0, 1],
        vec![
            AggSpec::over(AggFunc::Sum, 2),
            AggSpec::over(AggFunc::Avg, 2),
            AggSpec::over(AggFunc::Min, 2),
            AggSpec::over(AggFunc::Max, 2),
            AggSpec::over(AggFunc::Count, 2),
            AggSpec::count_star(),
        ],
    );
    let raw = |a: i64, b: i64, v: Value| vec![Value::Int(a), Value::Int(b), v];
    let extremes: Vec<Vec<Value>> = (0..24)
        .map(|i| {
            // Every group meets all four, in this order.
            let v = [i64::MAX, i64::MAX - 1, i64::MIN, i64::MAX][i / 6];
            raw((i % 3) as i64, i64::MIN + (i % 2) as i64, Value::Int(v))
        })
        .collect();
    let nulls: Vec<Vec<Value>> = (0..10).map(|i| raw(9, i % 2, Value::Null)).collect();
    let all = |n: usize| vec![true; n];
    let chunks = [
        Chunk { kind: RowKind::Raw, keep: all(24), rows: extremes.clone() },
        Chunk { kind: RowKind::Raw, keep: all(10), rows: nulls.clone() },
        // Each partial row carries one raw row's states; the sums folded
        // so far have crossed i64, these have not.
        Chunk {
            kind: RowKind::Partial,
            keep: all(34),
            rows: extremes.iter().chain(&nulls).map(|r| as_partial(&query, r)).collect(),
        },
        Chunk { kind: RowKind::Raw, keep: all(24), rows: extremes },
    ];
    // Drained mid-stream: the partial rows that come out carry Float sums.
    let schedule = Schedule { drain_at: Some(3), ..Schedule::default() };
    let (seen, layout) =
        assert_lanes_match_reference(&query, 100, 0, &chunks, schedule, &ALL_LANES);
    assert_eq!(layout.demoted, [0; 4], "nothing here leaves the typed columns");
    assert_eq!(layout.bytes_per_group, 8 + 4 + 16 + 17 + 24 + 9 + 9 + 8 + 8);
    assert_eq!((seen.mid_drain.len(), seen.results.len()), (8, 6));
    let group = &seen.mid_drain[0];
    assert_eq!(group[..2], [Value::Int(0), Value::Int(i64::MIN)]);
    assert!(matches!(group[2], Value::Float(s) if s > i64::MAX as f64), "{group:?}");
    assert_eq!(group[5..], [Value::Int(i64::MIN), Value::Int(i64::MAX), Value::Int(8), Value::Int(8)]);
    let only_nulls = &seen.mid_drain[6];
    assert_eq!(
        only_nulls[2..],
        [Value::Null, Value::Null, Value::Int(0), Value::Null, Value::Null, Value::Int(0), Value::Int(10)]
    );
    // A partial row carrying a Float sum folds into a table whose SUM is
    // still typed, and demotes it.
    let shipped = Chunk { kind: RowKind::Partial, keep: all(8), rows: seen.mid_drain.clone() };
    let (seen, layout) = assert_lanes_match_reference(
        &query,
        100,
        0,
        &[chunks[0].clone(), shipped],
        Schedule::default(),
        &ALL_LANES,
    );
    assert_eq!(layout.demoted, [0, 0, 2, 0], "SUM and AVG, by a partial cell");
    assert!(seen.errors.is_empty());
}

// ---- the dense index -------------------------------------------------

/// Twice the slot array a hashed table pre-sized for `groups` groups
/// starts at: the span of keys a dense map may cover while a table of
/// that budget holds fewer groups than its budget.
fn dense_bound(groups: usize) -> i64 {
    2 * (groups * 8 / 7 + 1).next_power_of_two().max(16) as i64
}

/// Which key a generated row carries: mostly one of a band of `Int`s from
/// `BAND`, and now and then a key at the bound's edges from there (`bound -
/// 1` and `bound` keys up, one below), an end of `i64`, a `Str` or a NULL —
/// keys that keep a table on its dense map for a while.
fn dense_key((pick, offset): (u32, i64), bound: i64) -> Value {
    const BAND: i64 = 1_000;
    match pick {
        0 => Value::Int(BAND + bound - 1),
        1 => Value::Int(BAND + bound),
        2 => Value::Int(BAND - 1),
        3 => Value::Int(i64::MIN),
        4 => Value::Int(i64::MAX),
        5 => Value::from("a"),
        6 => Value::Null,
        _ => Value::Int(BAND + offset),
    }
}

/// A generated row of [`dense_key`] picks: the pick, a numeric and an
/// any-type input, and whether it passes the filter.
type DenseRow = ((u32, i64), Value, Value, bool);

fn dense_chunks_strategy() -> impl Strategy<Value = Vec<(Vec<DenseRow>, bool)>> {
    let row = ((0u32..20, 0i64..48), num_cell(), any_cell(), any::<bool>());
    proptest::collection::vec((proptest::collection::vec(row, 0..40), any::<bool>()), 1..8)
}

proptest! {
    /// Streams that put a table grouped on one column on its dense map —
    /// typed and general key column alike — and move it off mid-stream or
    /// not: past the bound, by an end of `i64`, a `Str` or a NULL, with the
    /// table drained or cleared in between (and so back on the map), the
    /// grant shrinking, inputs on the strips or not, the slot array
    /// pre-sized for the budget or fewer groups. Every entry point equals
    /// the reference.
    #[test]
    fn prop_dense_keys_match_the_reference(
        chunks in dense_chunks_strategy(),
        budget in 1usize..64,
        hint in 0usize..64,
        int_inputs in any::<bool>(),
        shrink in (0usize..12, 0usize..20),
        drain_at in 0usize..12,
        clear_at in 0usize..12,
    ) {
        let query = wide_query(1);
        let bound = dense_bound(budget);
        let input = |v: Value| if int_inputs { as_int(&v) } else { v };
        let chunks: Vec<RawChunk> = chunks
            .into_iter()
            .map(|(rows, partial)| {
                let rows = rows.into_iter().map(|(pick, num, any, keep)| {
                    (vec![dense_key(pick, bound), Value::Null, Value::Null, input(num), input(any)], keep)
                });
                (rows.collect(), partial)
            })
            .collect();
        let chunks = build_chunks(&query, 1, false, &chunks);
        let schedule = Schedule { shrink: Some(shrink), drain_at: Some(drain_at), clear_at: Some(clear_at) };
        let (seen, _) =
            assert_lanes_match_reference(&query, budget, hint.min(budget), &chunks, schedule, &ALL_LANES);
        prop_assert!(seen.errors.is_empty());
    }
}

/// Raw, partial and raw chunks of one row per key of `keys`, every fifth
/// row filtered out, `Int` inputs: the dense index's edges spelled out.
fn keyed_stream(query: &AggQuery, keys: &[Value]) -> Vec<Chunk> {
    let rows: Vec<Vec<Value>> = (0i64..)
        .zip(keys)
        .map(|(i, key)| vec![key.clone(), Value::Int(i * i - 300), Value::Int(40 - i)])
        .collect();
    [RowKind::Raw, RowKind::Partial, RowKind::Raw]
        .into_iter()
        .map(|kind| Chunk {
            kind,
            rows: rows
                .iter()
                .map(|row| match kind {
                    RowKind::Raw => row.clone(),
                    RowKind::Partial => as_partial(query, row),
                })
                .collect(),
            keep: (0..rows.len()).map(|i| i % 5 != 3).collect(),
        })
        .collect()
}

/// The dense index at its edges, on every entry point, typed and general
/// from row 0: a band admitted from its middle (keys below the first), the
/// bound met exactly and missed by one on either side, both ends of `i64`
/// in one stream, a `Str` or NULL key after dense admissions, a drain back
/// to empty and a clear, each refilled. Each stream says which index the
/// table ended on and how often it left the map.
#[test]
fn dense_index_edges_match_the_reference() {
    let query = wide_query(1);
    // Budget and hint 100: the bound is 256 keys for fewer than 100 groups.
    const BUDGET: usize = 100;
    let bound = dense_bound(BUDGET);
    assert_eq!(bound, 256);
    let ints = |keys: &[i64]| keys.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
    let band: Vec<i64> = (0..40).map(|i| (i * 17 + 20) % 40).collect();
    let with = |extra: &[Value]| [ints(&band), extra.to_vec()].concat();
    let (min, max) = (i64::MIN, i64::MAX);
    // (label, keys, schedule, tables by index: dense, hashed; conversions)
    type Case = (&'static str, Vec<Value>, Schedule, [u64; 2], u64);
    let cases: [Case; 10] = [
        ("band", ints(&band), Schedule::default(), [1, 0], 0),
        ("bound met", with(&ints(&[bound - 1])), Schedule::default(), [1, 0], 0),
        ("bound met below", with(&ints(&[39 - (bound - 1)])), Schedule::default(), [1, 0], 0),
        ("one past the bound", with(&ints(&[bound])), Schedule::default(), [0, 1], 1),
        ("one past below", with(&ints(&[39 - bound])), Schedule::default(), [0, 1], 1),
        ("both ends of i64", ints(&[min, min + 1, max, max - 1, 0]), Schedule::default(), [0, 1], 1),
        ("a Str key", with(&[Value::from("k")]), Schedule::default(), [0, 1], 1),
        ("a NULL key", with(&[Value::Null]), Schedule::default(), [0, 1], 1),
        // Off the map in the first chunk, back on it after the drain or
        // the clear (the second and third chunks' keys fit).
        ("drained", with(&[Value::Null]), Schedule { drain_at: Some(1), ..Schedule::default() }, [1, 0], 1),
        ("cleared", with(&[Value::Null]), Schedule { clear_at: Some(1), ..Schedule::default() }, [1, 0], 1),
    ];
    for (label, keys, schedule, index, conversions) in cases {
        let mut chunks = keyed_stream(&query, &keys);
        if schedule.drain_at.is_some() || schedule.clear_at.is_some() {
            // The refill leaves out the key that moved the table off.
            for chunk in &mut chunks[1..] {
                chunk.rows.pop();
                chunk.keep.pop();
            }
        }
        let (seen, layout) = assert_lanes_match_reference(&query, BUDGET, BUDGET, &chunks, schedule, &ALL_LANES);
        assert!(seen.errors.is_empty() && seen.bounced.is_empty(), "{label}");
        assert_eq!((layout.index, layout.index_conversions), (index, conversions), "{label}");
    }
}

/// A table pre-sized for fewer groups than its budget: its bound follows
/// the groups it holds, so a map laid out for 61 groups (256 keys) is
/// longer than the bound of the cleared table, refilled with 31 (128
/// keys). Laid out again for a key the kept map does not cover, the map
/// keeps its length rather than shrinking under its entries.
#[test]
fn a_map_kept_through_a_clear_matches_the_reference() {
    let query = wide_query(1);
    let chunk = |keys: Vec<i64>| {
        let rows: Vec<Vec<Value>> = keys.into_iter().map(|x| vec![Value::Int(x), Value::Int(x % 7), Value::Int(1)]).collect();
        Chunk { kind: RowKind::Raw, keep: vec![true; rows.len()], rows }
    };
    let chunks = [chunk((0..60).chain([199]).collect()), chunk((150..180).chain([260]).collect())];
    let schedule = Schedule { clear_at: Some(1), ..Schedule::default() };
    let (seen, layout) = assert_lanes_match_reference(&query, 100, 0, &chunks, schedule, &ALL_LANES);
    assert!(seen.errors.is_empty() && seen.bounced.is_empty());
    assert_eq!((layout.index, layout.index_conversions), ([1, 0], 0));
}
