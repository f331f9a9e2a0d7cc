//! The sort-based aggregator against a test-only reference.
//!
//! `reference` is the ordered-map run builder and the cloning heap merge
//! the flat-arena implementation replaced, kept here as the oracle for
//! what must not change: the rows, the run boundaries and contents, the
//! typed errors, and the exact sequence of cost events (the virtual
//! clock adds them up in order, so order is part of the contract).

use adaptagg_model::{
    AggFunc, AggQuery, AggSpec, AggStates, CostEvent, CostTracker, GroupKey, NullTracker, RowKind,
    Value,
};
use adaptagg_sortagg::merge::MergeEmit;
use adaptagg_sortagg::{merge_runs, RunBuilder, SortAggregator};
use adaptagg_storage::{SpillFile, StorageError};
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
        page_bytes: usize,
        sealed: Vec<SpillFile>,
    }

    impl RunBuilder {
        pub fn new(query: AggQuery, max_entries: usize, page_bytes: usize) -> Self {
            RunBuilder {
                query,
                table: BTreeMap::new(),
                max_entries: max_entries.max(1),
                page_bytes,
                sealed: Vec::new(),
            }
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
            if !self.table.contains_key(&key) && self.table.len() >= self.max_entries {
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

        pub fn finish<T: CostTracker>(self, tracker: &mut T) -> (Vec<SpillFile>, Vec<Vec<Value>>) {
            let mut resident = Vec::with_capacity(self.table.len());
            for (key, states) in self.table {
                tracker.record(CostEvent::TupleWrite, 1);
                let mut row = key.into_values();
                row.extend(states.to_partial_values());
                resident.push(row);
            }
            (self.sealed, resident)
        }
    }

    /// K-way merge over materialized runs and a heap of cloned keys.
    pub fn merge_runs<T: CostTracker>(
        query: &AggQuery,
        runs: Vec<SpillFile>,
        resident: Vec<Vec<Value>>,
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
        cursors.push(resident.into_iter());

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

/// Records every `record` call verbatim, in order.
#[derive(Default)]
struct EventLog(Vec<(CostEvent, u64)>);

impl CostTracker for EventLog {
    fn record(&mut self, event: CostEvent, count: u64) {
        self.0.push((event, count));
    }
}

fn drain_rows(run: SpillFile) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    run.drain(&mut NullTracker, |_t, row| {
        rows.push(row.to_vec());
        Ok(())
    })
    .unwrap();
    rows
}

/// What one pipeline run is compared on.
#[derive(Debug, PartialEq)]
struct Observed {
    events: Vec<(CostEvent, u64)>,
    /// Rows of every sealed run, per run, then the resident rows.
    runs: Vec<Vec<Vec<Value>>>,
    out: Vec<Vec<Value>>,
}

type Input = [(RowKind, Vec<Value>)];

type Formed = (Vec<SpillFile>, Vec<Vec<Value>>);

/// Form runs twice — draining a run to read its rows consumes it — and
/// merge the second formation, logging every cost event of that pass.
fn observe(
    form: impl Fn(&mut EventLog) -> Result<Formed, StorageError>,
    merge: impl FnOnce(Formed, &mut EventLog) -> Result<Vec<Vec<Value>>, StorageError>,
) -> Result<Observed, StorageError> {
    let (runs, resident) = form(&mut EventLog::default())?;
    let mut contents: Vec<_> = runs.into_iter().map(drain_rows).collect();
    contents.push(resident);

    let mut log = EventLog::default();
    let formed = form(&mut log)?;
    let out = merge(formed, &mut log)?;
    Ok(Observed {
        events: log.0,
        runs: contents,
        out,
    })
}

fn observe_new(
    query: &AggQuery,
    input: &Input,
    budget: usize,
    page_bytes: usize,
    emit: MergeEmit,
) -> Result<Observed, StorageError> {
    observe(
        |log| {
            let mut b = RunBuilder::new(query.clone(), budget, page_bytes);
            for (kind, row) in input {
                b.push(*kind, row, log)?;
            }
            b.finish(log)
        },
        |(runs, resident), log| merge_runs(query, runs, resident, emit, log),
    )
}

fn observe_reference(
    query: &AggQuery,
    input: &Input,
    budget: usize,
    page_bytes: usize,
    emit: MergeEmit,
) -> Result<Observed, StorageError> {
    observe(
        |log| {
            let mut b = reference::RunBuilder::new(query.clone(), budget, page_bytes);
            for (kind, row) in input {
                b.push(*kind, row, log)?;
            }
            Ok(b.finish(log))
        },
        |(runs, resident), log| reference::merge_runs(query, runs, resident, emit, log),
    )
}

/// The recorded-event contract on a fixed input: 2000 rows over 500
/// groups against a 64-group budget (≈ 30 sealed runs, multi-page runs).
#[test]
fn event_sequence_equals_the_reference_on_a_fixed_input() {
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
    for emit in [MergeEmit::Partial, MergeEmit::Finalized] {
        let new = observe_new(&query, &input, 64, 256, emit).unwrap();
        let old = observe_reference(&query, &input, 64, 256, emit).unwrap();
        assert!(new.runs.len() > 20, "only {} runs sealed", new.runs.len());
        assert_eq!(new.runs, old.runs, "run boundaries or contents moved");
        assert_eq!(new.out, old.out);
        assert_eq!(new.events.len(), old.events.len());
        if let Some(at) = (0..new.events.len()).find(|&i| new.events[i] != old.events[i]) {
            panic!(
                "event {at} of {}: {:?}, reference {:?}",
                new.events.len(),
                new.events[at],
                old.events[at]
            );
        }
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

proptest! {
    /// Any mix of raw and partial pushes over mixed-type multi-column
    /// keys and every aggregate function, at any budget: the finalized
    /// rows equal the unbounded reference and come out strictly
    /// ascending under `GroupKey`'s order; runs, output and the event
    /// sequence equal the ordered-map pipeline's.
    #[test]
    fn prop_wide_inputs_match_the_references(
        rows in proptest::collection::vec(row_cells(), 0..300),
        k in 2usize..4,
        budget in 1usize..40,
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

        let new = observe_new(&query, &input, budget, 512, MergeEmit::Partial).unwrap();
        let old = observe_reference(&query, &input, budget, 512, MergeEmit::Partial).unwrap();
        prop_assert_eq!(new, old);
    }

    /// A malformed row anywhere in the stream surfaces the same typed
    /// error as before: a partial row of the wrong arity, a raw row too
    /// short for a key column, a raw row too short for an input column.
    #[test]
    fn prop_malformed_rows_keep_their_typed_errors(
        rows in proptest::collection::vec(row_cells(), 1..60),
        k in 2usize..4,
        budget in 1usize..40,
        at in 0usize..60,
        cut in 1usize..12,
    ) {
        let query = wide_query(k);
        let mut input = build_input(&query, k, &rows);
        let at = at % input.len();
        let row = &mut input[at].1;
        let keep = row.len().saturating_sub(cut);
        row.truncate(keep);

        let new = observe_new(&query, &input, budget, 512, MergeEmit::Partial);
        let old = observe_reference(&query, &input, budget, 512, MergeEmit::Partial);
        prop_assert!(old.is_err());
        prop_assert_eq!(new.err(), old.err());
    }
}

/// Group-by columns that are not a prefix of the row take the gathered-
/// key path; same rows, same events.
#[test]
fn non_prefix_keys_match_the_reference() {
    let query = AggQuery::new(
        vec![2, 0],
        vec![
            AggSpec::over(AggFunc::Max, 1),
            AggSpec::over(AggFunc::Sum, 3),
        ],
    );
    let names = ["x", "y", "z"];
    let input: Vec<(RowKind, Vec<Value>)> = (0..600i64)
        .map(|i| {
            let row = vec![
                Value::Int(i % 7),
                Value::from(names[(i % 3) as usize]),
                Value::from(names[((i / 3) % 3) as usize]),
                Value::Float((i % 5) as f64),
            ];
            (RowKind::Raw, row)
        })
        .collect();
    let new = observe_new(&query, &input, 5, 128, MergeEmit::Finalized).unwrap();
    let old = observe_reference(&query, &input, 5, 128, MergeEmit::Finalized).unwrap();
    assert!(new.runs.len() > 2);
    assert_eq!(new, old);
    // An out-of-range key column is the same typed error on both sides.
    let short = [(RowKind::Raw, vec![Value::Int(1), Value::from("x")])];
    assert_eq!(
        observe_new(&query, &short, 5, 128, MergeEmit::Finalized).err(),
        observe_reference(&query, &short, 5, 128, MergeEmit::Finalized).err(),
    );
}

/// The empty key (scalar aggregation: every row is one group) and the
/// empty row (no key, no aggregates) are degenerate strides of the
/// arenas, not special cases.
#[test]
fn empty_keys_and_empty_rows_match_the_reference() {
    let input: Vec<(RowKind, Vec<Value>)> = (0..50i64)
        .map(|i| (RowKind::Raw, vec![Value::Int(i)]))
        .collect();
    let scalar = AggQuery::new(
        vec![],
        vec![AggSpec::count_star(), AggSpec::over(AggFunc::Sum, 0)],
    );
    let new = observe_new(&scalar, &input, 1, 128, MergeEmit::Finalized).unwrap();
    assert_eq!(new.out, vec![vec![Value::Int(50), Value::Int(1225)]]);
    let old = observe_reference(&scalar, &input, 1, 128, MergeEmit::Finalized).unwrap();
    assert_eq!(new, old);

    let nothing = AggQuery::distinct(vec![]);
    let new = observe_new(&nothing, &input, 1, 128, MergeEmit::Partial).unwrap();
    assert_eq!(new.out, vec![Vec::<Value>::new()]);
    let old = observe_reference(&nothing, &input, 1, 128, MergeEmit::Partial).unwrap();
    assert_eq!(new, old);
}

/// The run table's columns are typed until the stream hands one a cell it
/// cannot hold, and stay general — across seals — from then on. Wherever
/// in an all-`Int` stream that cell is — a `Str` or NULL key (a seal then
/// sorts by `Value` order instead of off the `i64` key cells), a `Float`
/// input, a partial row carrying a `Float` sum — runs, rows and the event
/// sequence are the ordered map's.
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
                let input = stream(edit, at);
                for emit in [MergeEmit::Partial, MergeEmit::Finalized] {
                    let new = observe_new(&query, &input, 5, 256, emit).unwrap();
                    let old = observe_reference(&query, &input, 5, 256, emit).unwrap();
                    assert!(new.runs.len() > 3, "only {} runs sealed", new.runs.len());
                    assert_eq!(new, old, "misfit at row {at}");
                }
            }
        }
    }
}
