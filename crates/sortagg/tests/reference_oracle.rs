//! The sort-based aggregator against a test-only reference.
//!
//! `reference` is the ordered-map run builder and the cloning heap merge
//! the flat-arena implementation replaced, kept here as the oracle for
//! what must not change: the rows, the run boundaries and contents **page
//! for page**, the typed errors, the count of every cost event, and the
//! clock those charges make after every chunk (where a caller may read
//! it) and where formation or the merge ends (a failure's time). Charges
//! commute: their order is no part of the contract.
//!
//! Every input is a sequence of *chunks* — the pages a scan would hand
//! over — and goes through three lanes that must agree on all of that:
//! the reference fed row by row, [`RunBuilder::push`] row by row, and
//! [`RunBuilder::push_batch`] a chunk at a time (whole pages, or pages
//! behind a selection vector that owe the scan's select charges). The
//! data decides which rows of the batch lane ride the strips.

use adaptagg_model::{
    AggFunc, AggQuery, AggSpec, AggStates, CostEvent, CostParams, CostTracker, CountingTracker,
    GroupKey, MemoryGrant, NullTracker, RowKind, Value,
};
use adaptagg_sortagg::merge::MergeEmit;
use adaptagg_sortagg::{merge_runs, RowPages, RunBuilder, SortAggregator};
use adaptagg_storage::{Page, RowCause, ScanBatch, SpillFile, StorageError};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod reference {
    use super::*;
    use adaptagg_model::ModelError;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Run formation over a `BTreeMap` (sorted by construction).
    pub struct RunBuilder {
        query: AggQuery,
        table: BTreeMap<GroupKey, AggStates>,
        max_entries: usize,
        grant: MemoryGrant,
        page_bytes: usize,
        sealed: Vec<SpillFile>,
    }

    impl RunBuilder {
        pub fn new(query: AggQuery, max_entries: usize, page_bytes: usize, grant: MemoryGrant) -> Self {
            RunBuilder {
                query,
                table: BTreeMap::new(),
                max_entries: max_entries.max(1),
                grant,
                page_bytes,
                sealed: Vec::new(),
            }
        }

        pub fn resident_groups(&self) -> usize {
            self.table.len()
        }

        pub fn push<T: CostTracker>(
            &mut self,
            kind: RowKind,
            values: &[Value],
            tracker: &mut T,
        ) -> Result<(), StorageError> {
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
                        }
                        .into());
                    }
                    GroupKey::new(values[..k].to_vec())
                }
            };
            let full = self.table.len() >= self.grant.cap(self.max_entries);
            if !self.table.contains_key(&key) && full && !self.table.is_empty() {
                let mut run = SpillFile::new(self.page_bytes);
                for (key, states) in std::mem::take(&mut self.table) {
                    tracker.record(CostEvent::TupleWrite, 1);
                    let mut row = key.into_values();
                    row.extend(states.to_partial_values());
                    run.spool(&row, tracker)?;
                }
                run.finish(tracker);
                self.sealed.push(run);
            }
            let states = self
                .table
                .entry(key)
                .or_insert_with(|| AggStates::new(&self.query.aggs));
            match kind {
                RowKind::Raw => states.update_from_tuple(&self.query.aggs, values)?,
                RowKind::Partial => states.merge_partial_values(&values[k..])?,
            }
            tracker.record(CostEvent::TupleAgg, 1);
            Ok(())
        }

        /// The resident rows go onto pages one materialized row at a time:
        /// `Page::try_push` is the admission rule the typed seal must
        /// reproduce.
        pub fn finish<T: CostTracker>(self, tracker: &mut T) -> Result<Formed, StorageError> {
            let mut resident = RowPages::new(self.page_bytes);
            for (key, states) in self.table {
                tracker.record(CostEvent::TupleWrite, 1);
                let mut row = key.into_values();
                row.extend(states.to_partial_values());
                resident.push(&row[..])?;
            }
            Ok((self.sealed, resident))
        }
    }

    /// K-way merge over materialized runs and a heap of cloned keys.
    pub fn merge_runs<T: CostTracker>(
        query: &AggQuery,
        runs: Vec<SpillFile>,
        resident: RowPages,
        emit: MergeEmit,
        tracker: &mut T,
    ) -> Result<Vec<Vec<Value>>, StorageError> {
        let k = query.group_by.len();
        let mut cursors: Vec<std::vec::IntoIter<Vec<Value>>> = Vec::new();
        for run in runs {
            let mut rows = Vec::with_capacity(run.tuple_count());
            run.drain(tracker, |t, row| {
                t.record(CostEvent::TupleRead, 1);
                rows.push(row.to_vec());
                Ok(())
            })?;
            cursors.push(rows.into_iter());
        }
        cursors.push(resident.to_rows().into_iter());

        let mut heap: BinaryHeap<Reverse<(GroupKey, usize)>> = BinaryHeap::new();
        let mut heads: Vec<Option<Vec<Value>>> = Vec::with_capacity(cursors.len());
        for (i, c) in cursors.iter_mut().enumerate() {
            let head = c.next();
            if let Some(row) = &head {
                heap.push(Reverse((GroupKey::new(row[..k].to_vec()), i)));
            }
            heads.push(head);
        }

        let mut out = Vec::new();
        let mut current: Option<(GroupKey, AggStates)> = None;
        let mut emit_row = |key: GroupKey, states: AggStates, tracker: &mut T| {
            tracker.record(CostEvent::TupleWrite, 1);
            let mut row = key.into_values();
            match emit {
                MergeEmit::Finalized => row.extend(states.finalize()),
                MergeEmit::Partial => row.extend(states.to_partial_values()),
            }
            out.push(row);
        };
        while let Some(Reverse((key, i))) = heap.pop() {
            tracker.record(CostEvent::TupleRead, 1);
            let row = heads[i].take().expect("head present for heap entry");
            if let Some(next) = cursors[i].next() {
                heap.push(Reverse((GroupKey::new(next[..k].to_vec()), i)));
                heads[i] = Some(next);
            }
            match &mut current {
                Some((cur_key, states)) if *cur_key == key => {
                    states.merge_partial_values(&row[k..])?;
                    tracker.record(CostEvent::TupleAgg, 1);
                }
                _ => {
                    if let Some((done_key, done)) = current.take() {
                        emit_row(done_key, done, tracker);
                    }
                    let mut states = AggStates::new(&query.aggs);
                    states.merge_partial_values(&row[k..])?;
                    tracker.record(CostEvent::TupleAgg, 1);
                    current = Some((key, states));
                }
            }
        }
        if let Some((key, states)) = current {
            emit_row(key, states, tracker);
        }
        Ok(out)
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

type Formed = (Vec<SpillFile>, RowPages);

/// One page of input: rows of one kind, and which of them pass the scan's
/// filter.
#[derive(Debug, Clone)]
struct Chunk {
    kind: RowKind,
    rows: Vec<Vec<Value>>,
    keep: Vec<bool>,
}

impl Chunk {
    fn all(kind: RowKind, rows: Vec<Vec<Value>>) -> Self {
        Chunk {
            keep: vec![true; rows.len()],
            kind,
            rows,
        }
    }
}

/// Cut a row stream into chunks of `per` rows, every row passing.
fn chunked(input: &[(RowKind, Vec<Value>)], per: usize) -> Vec<Chunk> {
    let mut chunks: Vec<Chunk> = Vec::new();
    for (kind, row) in input {
        match chunks.last_mut() {
            Some(open) if open.kind == *kind && open.rows.len() < per => {
                open.rows.push(row.clone());
                open.keep.push(true);
            }
            _ => chunks.push(Chunk::all(*kind, vec![row.clone()])),
        }
    }
    chunks
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Lane {
    /// The ordered-map builder and the cloning merge, fed row by row.
    Reference,
    /// `RunBuilder::push`, row by row.
    Rows,
    /// `RunBuilder::push_batch`, a chunk at a time.
    Batches,
}

/// How a stream is pushed.
#[derive(Debug, Clone, Copy, Default)]
struct Feed {
    /// The chunks are scanned base pages: every row owes the select
    /// charges (`t_r`, and `t_w` if it passes), and a batch carries its
    /// kept rows as a selection vector. Otherwise the kept rows arrive as
    /// a whole page that owes nothing.
    scanned: bool,
    /// Before this chunk, the grant drops to the given cap.
    shrink: Option<(usize, usize)>,
}

/// What one pipeline run is compared on.
#[derive(Debug, Default, PartialEq)]
struct Observed {
    events: EventLog,
    /// The error that ended run formation or the merge.
    error: Option<StorageError>,
    /// The pages of every sealed run, per run, then the resident run's.
    runs: Vec<Vec<Page>>,
    out: Vec<Vec<Value>>,
    /// Resident groups after every chunk.
    resident: Vec<usize>,
}

impl Observed {
    fn run_rows(&self) -> Vec<usize> {
        let rows = |run: &Vec<Page>| run.iter().map(Page::tuple_count).sum();
        self.runs.iter().map(rows).collect()
    }
}

/// What the batch lane's chunks rode: batches on the strips, batches whose
/// rows were materialized (by cause), chunks that never were a batch.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Rode {
    strips: usize,
    row_arm: [usize; 4],
    no_batch: usize,
}

/// Either builder, fed a row.
trait Former {
    fn push_row(&mut self, kind: RowKind, row: &[Value], log: &mut EventLog) -> Result<(), StorageError>;
    fn resident(&self) -> usize;
}

impl Former for RunBuilder {
    fn push_row(&mut self, kind: RowKind, row: &[Value], log: &mut EventLog) -> Result<(), StorageError> {
        self.push(kind, row, log)
    }
    fn resident(&self) -> usize {
        self.resident_groups()
    }
}

impl Former for reference::RunBuilder {
    fn push_row(&mut self, kind: RowKind, row: &[Value], log: &mut EventLog) -> Result<(), StorageError> {
        self.push(kind, row, log)
    }
    fn resident(&self) -> usize {
        self.resident_groups()
    }
}

/// The scan's row loop over one chunk: the select charges, then the push.
fn push_rows(
    former: &mut impl Former,
    chunk: &Chunk,
    scanned: bool,
    log: &mut EventLog,
) -> Result<(), StorageError> {
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
        former.push_row(chunk.kind, row, log)?;
    }
    Ok(())
}

fn page_of<'a>(rows: impl Iterator<Item = &'a Vec<Value>>) -> Page {
    let mut page = Page::new(1 << 20);
    for row in rows {
        assert!(page.try_push(row).unwrap());
    }
    page
}

/// One chunk through `push_batch`, as the scan would offer it: a page
/// with no dense strips (ragged, empty) takes the row loop instead.
fn push_chunk(
    builder: &mut RunBuilder,
    chunk: &Chunk,
    scanned: bool,
    log: &mut EventLog,
    rode: &mut Rode,
) -> Result<(), StorageError> {
    let selection: Vec<u32> = (0..chunk.rows.len() as u32)
        .filter(|&r| chunk.keep[r as usize])
        .collect();
    let page = match scanned {
        true => page_of(chunk.rows.iter()),
        false => page_of(selection.iter().map(|&r| &chunk.rows[r as usize])),
    };
    let batch = match scanned {
        true => ScanBatch::scanned(&page, &[], Some(&selection), chunk.rows.len()).ok(),
        false => ScanBatch::whole(&page),
    };
    let Some(batch) = batch else {
        rode.no_batch += 1;
        return push_rows(builder, chunk, scanned, log);
    };
    let out = builder.push_batch(chunk.kind, &batch, log)?;
    assert_eq!(out.consumed, batch.rows(), "a run table takes every row");
    assert_eq!((out.passed as usize, out.rejected), (selection.len(), 0));
    match out.row_cause {
        None => rode.strips += 1,
        Some(cause) => rode.row_arm[cause as usize] += 1,
    }
    Ok(())
}

fn pages_of(run: SpillFile) -> Vec<Page> {
    let mut pages = Vec::new();
    run.drain_pages(&mut NullTracker, |_, page| {
        pages.push(page);
        Ok(())
    })
    .unwrap();
    pages
}

/// Form the runs of `chunks` on `lane` and merge them, observing
/// everything. Formation runs twice — reading a run's pages consumes it.
fn observe(
    lane: Lane,
    query: &AggQuery,
    chunks: &[Chunk],
    budget: usize,
    page_bytes: usize,
    emit: MergeEmit,
    feed: Feed,
) -> (Observed, Rode) {
    let form = |log: &mut EventLog, resident: &mut Vec<usize>, rode: &mut Rode| -> Result<Formed, StorageError> {
        let grant = match feed.shrink {
            Some(_) => MemoryGrant::bounded(usize::MAX),
            None => MemoryGrant::unlimited(),
        };
        let mut new = RunBuilder::new(query.clone(), budget, page_bytes).with_grant(grant.clone());
        let mut old = reference::RunBuilder::new(query.clone(), budget, page_bytes, grant.clone());
        for (c, chunk) in chunks.iter().enumerate() {
            if let Some((_, cap)) = feed.shrink.filter(|&(at, _)| at == c) {
                grant.set(cap);
            }
            match lane {
                Lane::Reference => push_rows(&mut old, chunk, feed.scanned, log)?,
                Lane::Rows => push_rows(&mut new, chunk, feed.scanned, log)?,
                Lane::Batches => push_chunk(&mut new, chunk, feed.scanned, log, rode)?,
            }
            log.read();
            resident.push(match lane {
                Lane::Reference => old.resident(),
                _ => new.resident(),
            });
        }
        match lane {
            Lane::Reference => old.finish(log),
            _ => new.finish(log),
        }
    };

    let mut seen = Observed::default();
    let mut rode = Rode::default();
    let mut log = EventLog::default();
    match form(&mut log, &mut seen.resident, &mut rode) {
        Err(e) => {
            log.read();
            seen.error = Some(e);
        }
        Ok((runs, resident)) => {
            seen.runs = runs.into_iter().map(pages_of).collect();
            seen.runs.push(resident.into_pages());
            log = EventLog::default();
            let (runs, resident) = form(&mut log, &mut Vec::new(), &mut Rode::default())
                .expect("formed a moment ago");
            let merged = match lane {
                Lane::Reference => reference::merge_runs(query, runs, resident, emit, &mut log),
                _ => merge_runs(query, runs, resident, emit, &mut log).map(|m| m.rows.to_rows()),
            };
            log.read();
            match merged {
                Ok(out) => seen.out = out,
                Err(e) => seen.error = Some(e),
            }
        }
    }
    seen.events = log;
    (seen, rode)
}

/// All three lanes over `chunks`; everything must agree. Returns what was
/// seen and what the batch lane rode.
fn assert_lanes_agree(
    query: &AggQuery,
    chunks: &[Chunk],
    budget: usize,
    page_bytes: usize,
    emit: MergeEmit,
    feed: Feed,
) -> (Observed, Rode) {
    let (old, _) = observe(Lane::Reference, query, chunks, budget, page_bytes, emit, feed);
    let mut rode = Rode::default();
    for lane in [Lane::Rows, Lane::Batches] {
        let (new, lane_rode) = observe(lane, query, chunks, budget, page_bytes, emit, feed);
        assert_eq!(new.events, old.events, "{lane:?}: charges diverged from the reference");
        assert_eq!(new.run_rows(), old.run_rows(), "{lane:?}: run boundaries moved");
        assert_eq!(new, old, "{lane:?} diverged from the reference");
        rode = lane_rode;
    }
    (old, rode)
}

/// The charging contract on a fixed input: 2000 rows over 500
/// groups against a 64-group budget (≈ 30 sealed runs, multi-page runs),
/// as rows, as whole pages and as scanned pages three rows in four of
/// which pass.
#[test]
fn charges_equal_the_reference_on_a_fixed_input() {
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    );
    let input: Vec<(RowKind, Vec<Value>)> = (0..2000i64)
        .map(|i| {
            let row = vec![Value::Int((i * 7919) % 500), Value::Int(i % 13)];
            (RowKind::Raw, row)
        })
        .collect();
    let mut chunks = chunked(&input, 37);
    for emit in [MergeEmit::Partial, MergeEmit::Finalized] {
        let (seen, rode) = assert_lanes_agree(&query, &chunks, 64, 256, emit, Feed::default());
        assert!(seen.runs.len() > 20, "only {} runs sealed", seen.runs.len());
        assert!(seen.runs.iter().any(|run| run.len() > 1), "no multi-page run");
        assert_eq!(rode, Rode { strips: chunks.len(), ..Rode::default() });
    }
    for chunk in &mut chunks {
        let keep = (0..chunk.rows.len()).map(|r| r % 4 != 1);
        chunk.keep = keep.collect();
    }
    let feed = Feed {
        scanned: true,
        ..Feed::default()
    };
    let (seen, rode) = assert_lanes_agree(&query, &chunks, 64, 256, MergeEmit::Partial, feed);
    assert!(seen.runs.len() > 15, "only {} runs sealed", seen.runs.len());
    assert_eq!(rode, Rode { strips: chunks.len(), ..Rode::default() });
}

/// Where a seal lands in a batch is the data's doing: with eight-row
/// batches of all-new keys, budgets 1-3 seal several times inside every
/// batch, budget 8 on the first row of each, budgets 5 and 7 on a row
/// that moves through the batch — the last one included.
#[test]
fn seals_land_anywhere_in_a_batch() {
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::over(AggFunc::Max, 1)],
    );
    let input: Vec<(RowKind, Vec<Value>)> = (0..240i64)
        .map(|i| (RowKind::Raw, vec![Value::Int((i * 101) % 240), Value::Int(i)]))
        .collect();
    let chunks = chunked(&input, 8);
    for budget in [1, 2, 3, 5, 7, 8] {
        let (seen, rode) = assert_lanes_agree(&query, &chunks, budget, 128, MergeEmit::Finalized, Feed::default());
        assert_eq!(seen.runs.len(), 240usize.div_ceil(budget), "budget {budget}");
        assert_eq!(rode.strips, chunks.len());
        assert_eq!(seen.out.len(), 240);
    }
}

// ---- property suite -------------------------------------------------

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
        (0i64..4).prop_map(Value::Int),
        (0i64..3).prop_map(|i| Value::Float(i as f64 - 0.5)),
        (0usize..3).prop_map(|i| Value::from(["", "a", "ab"][i])),
    ]
}

/// Numeric inputs whose sums and sums of squares are exact in `f64`, so
/// the result does not depend on the order partial states combine in.
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

/// Turn one raw row into the partial row a local phase would ship for it.
fn as_partial(query: &AggQuery, raw: &[Value]) -> Vec<Value> {
    let mut states = AggStates::new(&query.aggs);
    states.update_from_tuple(&query.aggs, raw).unwrap();
    let mut row = raw[..query.group_by.len()].to_vec();
    row.extend(states.to_partial_values());
    row
}

/// `rows` are `(cells, push as partial?)` with cells = 3 key candidates
/// ++ `[num, any]`; `k` of the key candidates are kept.
fn build_input(
    query: &AggQuery,
    k: usize,
    rows: &[(Vec<Value>, bool)],
) -> Vec<(RowKind, Vec<Value>)> {
    rows.iter()
        .map(|(cells, partial)| {
            let mut raw = cells[..k].to_vec();
            raw.extend_from_slice(&cells[3..]);
            if *partial {
                (RowKind::Partial, as_partial(query, &raw))
            } else {
                (RowKind::Raw, raw)
            }
        })
        .collect()
}

fn row_cells() -> impl Strategy<Value = (Vec<Value>, bool)> {
    (
        key_cell(),
        key_cell(),
        key_cell(),
        num_cell(),
        any_cell(),
        any::<bool>(),
    )
        .prop_map(|(a, b, c, num, any, partial)| (vec![a, b, c, num, any], partial))
}

/// An `Int` from `ints`, except one time in `odd` a cell of `other`.
fn mostly_int(
    ints: impl Strategy<Value = i64> + 'static,
    odd: u32,
    other: impl Strategy<Value = Value> + 'static,
) -> impl Strategy<Value = Value> {
    (0..odd, ints, other).prop_map(|(pick, x, other)| match pick {
        0 => other,
        _ => Value::Int(x),
    })
}

/// `i64`s at and next to the ends of the range and around zero: the run
/// merge biases an `Int` key into an `u64` (DESIGN.md §28).
const EDGE_KEYS: [i64; 5] = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX];

/// A key from `0..spread`, or one time in eight one of [`EDGE_KEYS`].
fn int_key(spread: i64) -> impl Strategy<Value = i64> {
    (0u32..8, 0..spread, 0..EDGE_KEYS.len()).prop_map(|(pick, x, edge)| match pick {
        0 => EDGE_KEYS[edge],
        _ => x,
    })
}

/// Mostly-`Int` rows — three key candidates (the first from a domain of
/// `spread` plus [`EDGE_KEYS`]), a numeric and an any-type input — where
/// one cell in `odd` is of another type, so most chunks ride the strips
/// and some cannot.
fn intish_cells(spread: i64, odd: u32) -> impl Strategy<Value = Vec<Value>> {
    (
        mostly_int(int_key(spread), odd, key_cell()),
        mostly_int(0..3i64, odd, key_cell()),
        mostly_int(0..2i64, odd, key_cell()),
        mostly_int(-50..50i64, odd, num_cell()),
        mostly_int(-9..9i64, odd, any_cell()),
    )
        .prop_map(|(a, b, c, num, any)| vec![a, b, c, num, any])
}

proptest! {
    /// Any mix of raw and partial pushes over mixed-type multi-column
    /// keys and every aggregate function, at any budget: the finalized
    /// rows equal the unbounded reference and come out strictly
    /// ascending under `GroupKey`'s order; runs, output and the event
    /// sequence equal the ordered-map pipeline's on every lane.
    #[test]
    fn prop_wide_inputs_match_the_references(
        rows in proptest::collection::vec(row_cells(), 0..300),
        k in 2usize..4,
        budget in 1usize..40,
        per in 1usize..24,
    ) {
        let query = wide_query(k);
        let input = build_input(&query, k, &rows);

        let mut agg = SortAggregator::new(query.clone(), budget, 512);
        for (kind, row) in &input {
            agg.push(*kind, row, &mut NullTracker).unwrap();
        }
        let (out, stats) = agg.finish_rows(&mut NullTracker).unwrap();

        let mut unbounded: BTreeMap<GroupKey, AggStates> = BTreeMap::new();
        for (kind, row) in &input {
            let states = unbounded
                .entry(GroupKey::new(row[..k].to_vec()))
                .or_insert_with(|| AggStates::new(&query.aggs));
            match kind {
                RowKind::Raw => states.update_from_tuple(&query.aggs, row).unwrap(),
                RowKind::Partial => states.merge_partial_values(&row[k..]).unwrap(),
            }
        }
        prop_assert_eq!(stats.groups_out as usize, unbounded.len());
        prop_assert_eq!(out.len(), unbounded.len());
        for (row, (key, states)) in out.iter().zip(&unbounded) {
            prop_assert_eq!(&row.key, key);
            prop_assert_eq!(&row.aggs, &states.finalize());
        }
        prop_assert!(out.windows(2).all(|w| w[0].key < w[1].key));

        let chunks = chunked(&input, per);
        assert_lanes_agree(&query, &chunks, budget, 512, MergeEmit::Partial, Feed::default());
    }

    /// Scanned pages of mostly-`Int` rows behind a selection vector of
    /// any selectivity, one to three `Int`-ish key columns, every
    /// aggregate function, any budget and batch length: most batches ride
    /// the strips, a `Null`/`Float`/`Str` cell in a key or an input sends
    /// its page (or, for a key, nothing at all) to the row arm mid-file,
    /// and the three lanes agree page for page and event for event.
    #[test]
    fn prop_batches_match_rows_at_every_selectivity(
        rows in proptest::collection::vec((intish_cells(40, 60), 0u32..100), 1..300),
        k in 1usize..4,
        budget in 1usize..40,
        per in 1usize..24,
        pass_percent in prop_oneof![Just(0u32), Just(100u32), 0u32..101],
        scanned in any::<bool>(),
    ) {
        let query = wide_query(k);
        let input: Vec<(Vec<Value>, bool)> = rows.iter().map(|(cells, _)| (cells.clone(), false)).collect();
        let mut chunks = chunked(&build_input(&query, k, &input), per);
        let mut draws = rows.iter().map(|&(_, draw)| draw < pass_percent);
        for chunk in &mut chunks {
            chunk.keep = draws.by_ref().take(chunk.rows.len()).collect();
        }
        let feed = Feed { scanned, ..Feed::default() };
        let (_, rode) = assert_lanes_agree(&query, &chunks, budget, 256, MergeEmit::Finalized, feed);
        let batches = rode.strips + rode.row_arm.iter().sum::<usize>();
        prop_assert_eq!(batches + rode.no_batch, chunks.len());
        prop_assert_eq!(rode.row_arm[RowCause::Ragged as usize], 0);
    }

    /// A malformed row anywhere in the stream surfaces the same typed
    /// error as before, after the same events, on every lane: a partial
    /// row of the wrong arity, a raw row too short for a key column, a
    /// raw row too short for an input column.
    #[test]
    fn prop_malformed_rows_keep_their_typed_errors(
        rows in proptest::collection::vec(row_cells(), 1..60),
        k in 2usize..4,
        budget in 1usize..40,
        at in 0usize..60,
        cut in 1usize..12,
        per in 1usize..12,
    ) {
        let query = wide_query(k);
        let mut input = build_input(&query, k, &rows);
        let at = at % input.len();
        let row = &mut input[at].1;
        let keep = row.len().saturating_sub(cut);
        row.truncate(keep);

        let chunks = chunked(&input, per);
        let (seen, _) = assert_lanes_agree(&query, &chunks, budget, 512, MergeEmit::Partial, Feed::default());
        prop_assert!(seen.error.is_some());
    }

    /// A grant shrunk mid-scan seals shorter runs from then on — more of
    /// them, none longer than the live cap once the groups resident at
    /// the shrink have been sealed — and changes no result.
    #[test]
    fn prop_a_grant_shrunk_mid_scan_shortens_the_runs(
        rows in proptest::collection::vec((intish_cells(400, 80), 0u32..1), 60..300),
        budget in 12usize..40,
        cap in 0usize..8,
        at in 1usize..6,
        per in 4usize..24,
    ) {
        let query = wide_query(1);
        let input: Vec<(Vec<Value>, bool)> = rows.iter().map(|(cells, _)| (cells.clone(), false)).collect();
        let chunks = chunked(&build_input(&query, 1, &input), per);
        let at = at.min(chunks.len() - 1);
        let free = Feed { scanned: true, ..Feed::default() };
        let squeezed = Feed { shrink: Some((at, cap)), ..free };
        let (plain, _) = assert_lanes_agree(&query, &chunks, budget, 256, MergeEmit::Finalized, free);
        let (seen, _) = assert_lanes_agree(&query, &chunks, budget, 256, MergeEmit::Finalized, squeezed);
        prop_assert_eq!(&seen.out, &plain.out);
        prop_assert!(seen.runs.len() >= plain.runs.len());
        // Resident groups never grow past the live cap: from the shrink on
        // the count holds (hits), grows up to the cap, or falls to what a
        // seal leaves.
        for pair in seen.resident[at - 1..].windows(2) {
            prop_assert!(pair[1] <= cap.max(1) || pair[1] <= pair[0], "{:?}", seen.resident);
        }
        // Once the groups resident at the shrink are sealed, every run
        // fits the cap.
        let runs = seen.run_rows();
        let first_short = runs.iter().position(|&n| n <= cap.max(1)).unwrap_or(runs.len());
        prop_assert!(runs[first_short..].iter().all(|&n| n <= cap.max(1)), "{:?}", runs);
    }
}

/// A `Str` and an `Int` key over a `Str` MAX and a `Float` SUM: the
/// batch lane takes every batch through its row arm, each row read where
/// it lies; same rows, same events.
#[test]
fn value_keys_and_inputs_match_the_reference() {
    let query = AggQuery::new(
        vec![0, 1],
        vec![
            AggSpec::over(AggFunc::Max, 2),
            AggSpec::over(AggFunc::Sum, 3),
        ],
    );
    let names = ["x", "y", "z"];
    let input: Vec<(RowKind, Vec<Value>)> = (0..600i64)
        .map(|i| {
            let row = vec![
                Value::from(names[((i / 3) % 3) as usize]),
                Value::Int(i % 7),
                Value::from(names[(i % 3) as usize]),
                Value::Float((i % 5) as f64),
            ];
            (RowKind::Raw, row)
        })
        .collect();
    let chunks = chunked(&input, 50);
    let (seen, rode) = assert_lanes_agree(&query, &chunks, 5, 128, MergeEmit::Finalized, Feed::default());
    assert!(seen.runs.len() > 2);
    assert_eq!(rode.row_arm[RowCause::FloatGuard as usize], chunks.len());
    // A row shorter than the key is the same typed error on every lane.
    let short = [Chunk::all(RowKind::Raw, vec![vec![Value::from("x")]])];
    let (seen, _) = assert_lanes_agree(&query, &short, 5, 128, MergeEmit::Finalized, Feed::default());
    assert!(seen.error.is_some());
}

/// The empty key (scalar aggregation: every row is one group) and the
/// empty row (no key, no aggregates) are degenerate strides of the
/// arenas, not special cases.
#[test]
fn empty_keys_and_empty_rows_match_the_reference() {
    let input: Vec<(RowKind, Vec<Value>)> = (0..50i64)
        .map(|i| (RowKind::Raw, vec![Value::Int(i)]))
        .collect();
    let chunks = chunked(&input, 7);
    let scalar = AggQuery::new(
        vec![],
        vec![AggSpec::count_star(), AggSpec::over(AggFunc::Sum, 0)],
    );
    let (seen, _) = assert_lanes_agree(&scalar, &chunks, 1, 128, MergeEmit::Finalized, Feed::default());
    assert_eq!(seen.out, vec![vec![Value::Int(50), Value::Int(1225)]]);

    let nothing = AggQuery::distinct(vec![]);
    let (seen, _) = assert_lanes_agree(&nothing, &chunks, 1, 128, MergeEmit::Partial, Feed::default());
    assert_eq!(seen.out, vec![Vec::<Value>::new()]);
}

/// The run table's columns are typed until the stream hands one a cell it
/// cannot hold, and stay general — across seals — from then on. Wherever
/// in an all-`Int` stream that cell is — a `Str` or NULL key (a seal then
/// sorts by `Value` order instead of off the `i64` key cells), a `Float`
/// input, a partial row carrying a `Float` sum — runs, rows and the event
/// sequence are the ordered map's, on every lane.
#[test]
fn a_demotion_at_any_row_matches_the_reference() {
    for k in [1usize, 2] {
        let query = wide_query(k);
        // (column, the cell put there at row `at`, push that row as a
        // partial row)
        let edits = [
            (k - 1, Value::from("s"), false),
            (0, Value::Null, false),
            (k, Value::Float(0.5), false),
            (k + 1, Value::from("zz"), false),
            (k, Value::Float(0.5), true),
        ];
        let stream = |(column, cell, partial): &(usize, Value, bool), at: usize| {
            let rows = (0..40i64).map(|i| {
                let key = (0..k as i64).map(|j| Value::Int((i * 11 + j) % (13 - 6 * j) - 4));
                let mut row: Vec<Value> = key.chain([Value::Int(i * 3 - 50), Value::Int(i % 7)]).collect();
                if i as usize != at {
                    return (RowKind::Raw, row);
                }
                row[*column] = cell.clone();
                match partial {
                    true => (RowKind::Partial, as_partial(&query, &row)),
                    false => (RowKind::Raw, row),
                }
            });
            rows.collect::<Vec<_>>()
        };
        for at in 0..=40 {
            for edit in &edits {
                let chunks = chunked(&stream(edit, at), 6);
                for emit in [MergeEmit::Partial, MergeEmit::Finalized] {
                    let (seen, _) = assert_lanes_agree(&query, &chunks, 5, 256, emit, Feed::default());
                    assert!(seen.runs.len() > 3, "only {} runs sealed", seen.runs.len());
                    assert_eq!(seen.error, None, "misfit at row {at}");
                }
            }
        }
    }
}

/// A `SUM` that crosses `i64` inside a run ships a `Float` partial cell —
/// its page stops being all-`Int` and the merge folds those rows as
/// values — and one that crosses only in the merge is narrowed when its
/// group closes. Groups whose partial cells are `Int` in one run and
/// `Float` in another meet both arms; all-NULL inputs ship NULL partial
/// cells. Every lane agrees with the reference, which never had arms.
#[test]
fn sums_past_i64_and_null_partial_cells_match_the_reference() {
    let query = AggQuery::new(
        vec![0],
        vec![
            AggSpec::over(AggFunc::Sum, 1),
            AggSpec::over(AggFunc::Avg, 1),
            AggSpec::over(AggFunc::Min, 1),
            AggSpec::count_star(),
        ],
    );
    let big = i64::MAX / 2 + 7;
    let row = |g: i64, v: Value| (RowKind::Raw, vec![Value::Int(g), v]);
    let mut input = Vec::new();
    for round in 0..6i64 {
        for g in 0..12i64 {
            input.push(row(g, match g {
                // Crosses inside every run: twice `big` per round.
                0 => Value::Int(big),
                // Crosses only in the merge: once per run.
                1 if round % 2 == 0 => Value::Int(big),
                1 => Value::Int(1),
                // Never a non-NULL input.
                2 => Value::Null,
                // `Int` partials from the early runs, `Float` from the late.
                3 if round >= 4 => Value::Int(big),
                _ => Value::Int(g * round),
            }));
            if g == 0 || (g == 3 && round >= 4) {
                input.push(row(g, Value::Int(big)));
                input.push(row(g, Value::Int(big)));
            }
        }
    }
    let chunks = chunked(&input, 9);
    for emit in [MergeEmit::Partial, MergeEmit::Finalized] {
        let (seen, _) = assert_lanes_agree(&query, &chunks, 12, 256, emit, Feed::default());
        assert_eq!(seen.error, None);
        assert_eq!(seen.runs.len(), 1, "twelve groups fit: one resident run");
        let (seen, rode) = assert_lanes_agree(&query, &chunks, 5, 256, emit, Feed::default());
        assert!(seen.runs.len() > 6, "only {} runs sealed", seen.runs.len());
        assert!(rode.strips > 0 && rode.row_arm[RowCause::ValueInput as usize] > 0);
        let sum = |g: usize| seen.out[g][1].clone();
        assert!(matches!(sum(0), Value::Float(_)), "crossed in the runs: {:?}", sum(0));
        assert!(matches!(sum(1), Value::Float(_)), "crossed in the merge: {:?}", sum(1));
        assert_eq!(sum(2), Value::Null);
        assert!(matches!(sum(4), Value::Int(_)));
    }
    // The merge's two arms, counted: rows of all-`Int` pages fold as
    // `i64`s, rows of a page with a `Float` or NULL cell as values.
    let mut builder = RunBuilder::new(query.clone(), 5, 256);
    for (kind, row) in &input {
        builder.push(*kind, row, &mut NullTracker).unwrap();
    }
    let (runs, resident) = builder.finish(&mut NullTracker).unwrap();
    let merged = merge_runs(&query, runs, resident, MergeEmit::Partial, &mut NullTracker).unwrap();
    assert!(merged.strip_rows > 0 && merged.value_rows > 0);
    assert_eq!(merged.len(), 12);
}

/// Any number of runs merges as the reference merges them — 1, 2, 3, 5,
/// 17, 100 and 129, most not a power of two, so the tournament pads its
/// leaves with exhausted runs — each run ending at another key so runs
/// run dry at different times, [`EDGE_KEYS`] among the keys. One `Int`
/// key column packs the keys in the heads; two compare cells.
#[test]
fn any_number_of_runs_merges_like_the_reference() {
    for k in [1usize, 2] {
        let query = AggQuery::new(
            (0..k).collect(),
            vec![AggSpec::over(AggFunc::Sum, k), AggSpec::count_star()],
        );
        for runs in [1i64, 2, 3, 5, 17, 100, 129] {
            // Eight keys a run against an eight-group budget, a run's
            // first key in no other run: every run but the last seals
            // when the next one's first key comes.
            let input: Vec<(RowKind, Vec<Value>)> = (0..runs)
                .flat_map(|r| (0..8i64).map(move |j| (r, j)))
                .map(|(r, j)| {
                    let key = match (j, (r + j) % 11) {
                        (0, _) => 1_000 + r,
                        (_, 0) => EDGE_KEYS[(r % 5) as usize].wrapping_add(r / 5),
                        (_, 1) => i64::MAX - r,
                        _ => r * 3 + j * (r % 5 + 1) - 40,
                    };
                    let mut row = vec![Value::Int(key); k];
                    row.push(Value::Int(r - j));
                    (RowKind::Raw, row)
                })
                .collect();
            let chunks = chunked(&input, 7);
            for emit in [MergeEmit::Partial, MergeEmit::Finalized] {
                let (seen, _) = assert_lanes_agree(&query, &chunks, 8, 128, emit, Feed::default());
                assert_eq!(seen.runs.len() as i64, runs, "k = {k}");
                assert_eq!(seen.error, None);
            }
        }
    }
}
