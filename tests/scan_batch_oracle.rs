//! Batch-vs-row differential for the page-at-a-time scan (DESIGN.md §17).
//!
//! The same heap file goes through the scan operator twice — once into a
//! sink that takes every page as a borrowed column-strip batch, once into
//! the same consumer fed row by row — and everything observable must be
//! equal: the result rows (order included), the count of every cost
//! event, the virtual clock in ticks wherever it would be read (where the
//! scan returns — a failure's time — after each received page, at the
//! end), what spilled, and on failure the typed error plus everything
//! charged before it. The algorithm-level cases (A-2P's switch, a
//! scheduled crash, a crash inside a page the exchange is routing) run on
//! a real `NodeCtx` and compare clocks, send timestamps, adaptive events
//! and traffic; the
//! algorithms that route raw
//! tuples (Rep, A-2P past its switch, A-Rep) also run whole, on 1/2/4
//! nodes, against the same query with a `Str` conjunct that keeps every
//! page on the row loop. Message pages are dense, so no data shape puts a
//! whole run's receive side on the row loop: `push_page` is compared with
//! per-row `push` directly.
//!
//! The row lane is the loop the old `scan_project` was; that it still
//! charges what the pre-batch code charged is pinned separately, against
//! constants captured on that code, by `tests/cost_invariance.rs`.

use adaptagg::algos::adaptive2p::{ScanState, ScanSwitch};
use adaptagg::algos::common::QueryPlan;
use adaptagg::algos::{run_algorithm_with, AdaptEvent, AlgoConfig, AlgorithmKind, RunOutcome};
use adaptagg::exec::{
    operators, Clock, ClusterConfig, Exchange, ExecError, NodeCtx, NodeFaults, PageScan, ScanCharge,
    ScanSink, ScanTally,
};
use adaptagg::hashagg::{HashAggStats, HashAggregator};
use adaptagg::model::{
    matches_all, AggFunc, AggQuery, AggSpec, Compare, CostEvent, CostParams, CostTracker,
    CountingTracker, NetworkKind, NullTracker, Predicate, ResultRow, RowKind, Value,
};
use adaptagg::net::{Control, Fabric, Payload};
use adaptagg::sortagg::SortAggregator;
use adaptagg::storage::{BatchOutcome, HeapFile, Page, RowCause, ScanBatch, SimDisk};
use adaptagg::workload::{default_query, generate_partitions, RelationSpec};
use proptest::prelude::*;

/// A charge sink that counts every event next to a real clock, with the
/// node's crash schedule (`NodeCtx`'s own is exercised below).
struct Probe {
    counts: CountingTracker,
    clock: Clock,
    scanned: u64,
    crash_at: Option<u64>,
}

impl Probe {
    fn new(crash_at: Option<u64>) -> Self {
        Probe {
            counts: CountingTracker::new(),
            clock: Clock::new(CostParams::paper_default()),
            scanned: 0,
            crash_at,
        }
    }
}

impl CostTracker for Probe {
    fn record(&mut self, event: CostEvent, count: u64) {
        self.counts.record(event, count);
        self.clock.record(event, count);
    }
}

impl ScanCharge for Probe {
    fn page_read(&mut self) {
        self.record(CostEvent::PageReadSeq, 1);
    }

    fn tuple_read(&mut self) -> Result<(), ExecError> {
        self.scanned += 1;
        if let Some(k) = self.crash_at.filter(|&k| self.scanned > k) {
            return Err(ExecError::InjectedCrash {
                node: 0,
                at_tuple: k,
            });
        }
        self.record(CostEvent::TupleRead, 1);
        Ok(())
    }

    fn tuple_passed(&mut self) {
        self.record(CostEvent::TupleWrite, 1);
    }

    fn crash_budget(&self) -> Option<u64> {
        self.crash_at.map(|k| k.saturating_sub(self.scanned))
    }

    fn batch_scanned(&mut self, rows: usize) {
        self.scanned += rows as u64;
    }
}

/// The local-phase consumer, taking batches or not.
struct Lane<'a> {
    agg: &'a mut HashAggregator,
    batched: bool,
}

impl ScanSink<Probe> for Lane<'_> {
    fn wants_batch(&self) -> bool {
        self.batched
    }

    fn batch(&mut self, x: &mut Probe, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        Ok(self.agg.push_batch(RowKind::Raw, batch, x)?)
    }

    fn row(&mut self, x: &mut Probe, values: &[Value]) -> Result<bool, ExecError> {
        self.agg.push_raw(values, x)?;
        Ok(true)
    }
}

/// Everything one lane's pass over a file made observable.
#[derive(Debug, PartialEq)]
struct Observed {
    error: Option<ExecError>,
    passed: usize,
    raw_in: u64,
    spilled: u64,
    resident: usize,
    counts: CountingTracker,
    /// The clock where the scan returned (a failure's time is read there),
    /// and at the end.
    ticks: [u64; 2],
    rows: Vec<ResultRow>,
}

fn run_lane(
    file: &HeapFile,
    query: &AggQuery,
    budget: usize,
    crash_at: Option<u64>,
    batched: bool,
) -> (Observed, ScanTally) {
    let plan = QueryPlan::new(query);
    let mut agg = HashAggregator::new(plan.projected.clone(), budget, 256, 4);
    let mut probe = Probe::new(crash_at);
    let mut scan = PageScan::new(&plan.base.filter, &plan.projection);
    let scanned = scan.run(
        &mut probe,
        file,
        0,
        file.page_count(),
        &mut Lane {
            agg: &mut agg,
            batched,
        },
    );
    let error = scanned.err();
    let scan_ticks = probe.clock.now();
    // The row counters of a scan that died are nobody's contract (the
    // lanes bump them on different sides of the failing insert); what it
    // charged and what the table holds are.
    let (passed, raw_in, spilled) = match error {
        None => (
            scan.tally().passed,
            agg.stats().raw_in,
            agg.stats().spilled_tuples,
        ),
        Some(_) => (0, 0, 0),
    };
    let resident = agg.resident_groups();
    // A finished scan also drains (spill replay included) under the probe.
    let rows = if error.is_none() {
        agg.finish_rows(&mut probe).unwrap().0
    } else {
        Vec::new()
    };
    let observed = Observed {
        error,
        passed,
        raw_in,
        spilled,
        resident,
        ticks: [scan_ticks, probe.clock.now()],
        counts: probe.counts,
        rows,
    };
    (observed, scan.tally())
}

/// Both lanes over `file`; asserts they are indistinguishable and returns
/// what happened plus the batch lane's page tally.
fn assert_lanes_agree(
    label: &str,
    file: &HeapFile,
    query: &AggQuery,
    budget: usize,
    crash_at: Option<u64>,
) -> (Observed, ScanTally) {
    let (row, row_tally) = run_lane(file, query, budget, crash_at, false);
    let (batch, tally) = run_lane(file, query, budget, crash_at, true);
    assert_eq!(
        row_tally.pages_batched, 0,
        "{label}: the row lane never batches"
    );
    assert_eq!(batch.error, row.error, "{label}: errors diverge");
    assert_eq!(batch, row, "{label}");
    (batch, tally)
}

fn file_of(page_bytes: usize, rows: impl IntoIterator<Item = Vec<Value>>) -> HeapFile {
    let mut f = HeapFile::new(page_bytes);
    for row in rows {
        f.append(&row).unwrap();
    }
    f
}

fn int(x: i64) -> Value {
    Value::Int(x)
}

/// `(g, pad, v, w)` rows: a `Str` strip between the `Int` ones, so no
/// projection below is an identity prefix.
fn wide_rows(n: i64, groups: i64) -> impl Iterator<Item = Vec<Value>> {
    (0..n).map(move |i| {
        vec![
            int((i * 7) % groups),
            Value::Str(format!("pad{i}").into()),
            int(i),
            int(i % 10),
        ]
    })
}

/// Rows the table accepted, read off the charges.
fn aggregated(seen: &Observed) -> usize {
    seen.counts.count(CostEvent::TupleAgg) as usize
}

fn pages_row(tally: &ScanTally, cause: RowCause) -> u64 {
    tally.pages_row[cause as usize]
}

#[test]
fn identity_and_permuted_projections() {
    let identity = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    );
    let file = file_of(512, (0..300).map(|i| vec![int(i % 17), int(i)]));
    let (seen, tally) = assert_lanes_agree("identity", &file, &identity, 1000, None);
    assert_eq!((seen.passed, seen.rows.len()), (300, 17));
    assert_eq!(tally.pages_batched as usize, file.page_count());

    // Key from column 2, input from column 0: projection [2, 0].
    let permuted = AggQuery::new(
        vec![2],
        vec![
            AggSpec::over(AggFunc::Max, 0),
            AggSpec::over(AggFunc::Avg, 0),
        ],
    );
    let file = file_of(
        1024,
        wide_rows(400, 23).map(|mut r| {
            r[2] = int(r[2].as_i64().unwrap() % 31);
            r
        }),
    );
    let (seen, tally) = assert_lanes_agree("permuted", &file, &permuted, 1000, None);
    assert_eq!(seen.rows.len(), 31);
    assert_eq!(tally.pages_batched as usize, file.page_count());

    // No aggregates, one column: DISTINCT over a non-leading column.
    let distinct = AggQuery::distinct(vec![3]);
    let (seen, _) = assert_lanes_agree("distinct", &file, &distinct, 1000, None);
    assert_eq!(seen.rows.len(), 10);
}

#[test]
fn filters_on_projected_and_unprojected_columns_at_every_selectivity() {
    let file = file_of(1024, wide_rows(500, 40));
    let base = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 2), AggSpec::count_star()],
    );
    // (label, predicates, passing share in percent: lowest, highest)
    let cases: Vec<(&str, Vec<Predicate>, usize, usize)> = vec![
        (
            "projected, 0 %",
            vec![Predicate::new(0, Compare::Lt, int(0))],
            0,
            0,
        ),
        (
            "projected, ~50 %",
            vec![Predicate::new(0, Compare::Lt, int(20))],
            45,
            55,
        ),
        (
            "projected, 100 %",
            vec![Predicate::new(2, Compare::Ge, int(0))],
            100,
            100,
        ),
        (
            "unprojected, 0 %",
            vec![Predicate::new(3, Compare::Gt, int(9))],
            0,
            0,
        ),
        (
            "unprojected, 50 %",
            vec![Predicate::new(3, Compare::Le, int(4))],
            50,
            50,
        ),
        (
            "unprojected, 100 %",
            vec![Predicate::new(3, Compare::Ne, int(77))],
            100,
            100,
        ),
        (
            "conjunction",
            vec![
                Predicate::new(3, Compare::Ge, int(2)),
                Predicate::new(2, Compare::Lt, int(250)),
                Predicate::new(0, Compare::Ne, int(7)),
            ],
            30,
            45,
        ),
    ];
    for (label, filter, low, high) in cases {
        let passing = wide_rows(500, 40)
            .filter(|row| matches_all(&filter, row).unwrap())
            .count();
        assert!(
            (low * 5..=high * 5).contains(&passing),
            "{label}: {passing} of 500 pass"
        );
        let query = base.clone().with_filter(filter);
        let (seen, tally) = assert_lanes_agree(label, &file, &query, 1000, None);
        assert_eq!(seen.passed, passing, "{label}");
        assert_eq!(tally.pages_batched as usize, file.page_count(), "{label}");
    }
}

#[test]
fn str_and_multi_column_keys() {
    let file = file_of(1024, wide_rows(300, 13));
    let str_key = AggQuery::new(vec![1], vec![AggSpec::over(AggFunc::Sum, 2)]);
    let (seen, tally) = assert_lanes_agree("str key", &file, &str_key, 1000, None);
    assert_eq!(seen.rows.len(), 300);
    assert_eq!(tally.pages_batched as usize, file.page_count());

    let two_keys = AggQuery::new(
        vec![3, 0],
        vec![AggSpec::over(AggFunc::Min, 2), AggSpec::count_star()],
    )
    .with_filter(vec![Predicate::new(2, Compare::Ge, int(40))]);
    let (seen, _) = assert_lanes_agree("two keys", &file, &two_keys, 1000, None);
    assert_eq!(seen.rows.len(), 130);

    let mixed_keys = AggQuery::new(vec![1, 3], vec![AggSpec::count_star()]);
    assert_lanes_agree("str + int keys", &file, &mixed_keys, 50, None);
}

#[test]
fn ragged_and_single_row_pages() {
    let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
        .with_filter(vec![Predicate::new(1, Compare::Ne, int(3))]);
    // Arity 2 and 3 interleaved: every page is ragged, no row lacks a
    // needed column.
    let ragged = file_of(
        256,
        (0..120).map(|i| {
            let mut row = vec![int(i % 9), int(i % 5)];
            if i % 3 == 0 {
                row.push(int(-1));
            }
            row
        }),
    );
    let (seen, tally) = assert_lanes_agree("ragged", &ragged, &query, 1000, None);
    assert_eq!(seen.rows.len(), 9);
    assert_eq!(tally.pages_batched, 0);
    assert_eq!(
        pages_row(&tally, RowCause::Ragged) as usize,
        ragged.page_count()
    );

    // 20-byte rows on 32-byte pages: one row a page.
    let single = file_of(32, (0..40).map(|i| vec![int(i % 4), int(i)]));
    assert_eq!(single.page_count(), 40);
    let (seen, tally) = assert_lanes_agree("single-row pages", &single, &query, 1000, None);
    assert_eq!((seen.passed, tally.pages_batched), (39, 40));
}

#[test]
fn value_inputs_and_value_filters_take_the_row_arm() {
    let sum_v = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    );
    // Floats: accumulation order is observable, the guard keeps the rows.
    let floats = file_of(
        512,
        (0..200).map(|i| vec![int(i % 7), Value::Float(i as f64 / 3.0)]),
    );
    let (seen, tally) = assert_lanes_agree("float input", &floats, &sum_v, 1000, None);
    assert_eq!(seen.rows.len(), 7);
    assert_eq!(tally.pages_batched, 0);
    assert_eq!(
        pages_row(&tally, RowCause::FloatGuard) as usize,
        floats.page_count()
    );

    // NULLs in the input strip (skipped by SUM, counted by COUNT(*)).
    let nulls = file_of(
        512,
        (0..200).map(|i| vec![int(i % 7), if i % 5 == 0 { Value::Null } else { int(i) }]),
    );
    let (_, tally) = assert_lanes_agree("null input", &nulls, &sum_v, 1000, None);
    assert_eq!(
        pages_row(&tally, RowCause::ValueInput) as usize,
        nulls.page_count()
    );

    // A Str filter column, then an Int column against a Float literal
    // (cross-type order: every Int sorts below every Float).
    let file = file_of(1024, wide_rows(200, 11));
    let on_str = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 2)]).with_filter(vec![
        Predicate::new(1, Compare::Lt, Value::Str("pad5".into())),
    ]);
    let (seen, tally) = assert_lanes_agree("str filter", &file, &on_str, 1000, None);
    assert!(seen.passed > 0 && seen.passed < 200);
    assert_eq!(
        pages_row(&tally, RowCause::ValueFilter) as usize,
        file.page_count()
    );
    let float_literal = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 2)])
        .with_filter(vec![Predicate::new(2, Compare::Lt, Value::Float(-1.0))]);
    let (seen, tally) = assert_lanes_agree("float literal", &file, &float_literal, 1000, None);
    assert_eq!(seen.passed, 200);
    assert_eq!(
        pages_row(&tally, RowCause::ValueFilter) as usize,
        file.page_count()
    );
}

#[test]
fn budgets_that_spill_mid_page() {
    let file = file_of(1024, wide_rows(600, 97));
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 2), AggSpec::count_star()],
    )
    .with_filter(vec![Predicate::new(3, Compare::Ne, int(4))]);
    for budget in [1, 5, 32, 96] {
        let label = format!("budget {budget}");
        let (seen, tally) = assert_lanes_agree(&label, &file, &query, budget, None);
        assert!(seen.spilled > 0, "{label} must spill");
        assert_eq!(seen.rows.len(), 97, "{label}");
        assert_eq!(tally.pages_batched as usize, file.page_count(), "{label}");
    }
}

#[test]
fn errors_in_the_middle_of_a_page_surface_identically() {
    let sum_v = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
    // A one-column row in the middle of a page: the projection's typed
    // ColumnOutOfRange, after the rows before it were consumed.
    let short = file_of(
        4096,
        (0..50).map(|i| {
            if i == 23 {
                vec![int(1)]
            } else {
                vec![int(i % 6), int(i)]
            }
        }),
    );
    let (seen, _) = assert_lanes_agree("short row", &short, &sum_v, 1000, None);
    assert!(
        matches!(seen.error, Some(ExecError::Model(_))),
        "{:?}",
        seen.error
    );
    assert_eq!(aggregated(&seen), 23, "rows before the error were consumed");

    // The same row lacking the *filter* column: the predicate's error.
    let filtered = sum_v
        .clone()
        .with_filter(vec![Predicate::new(1, Compare::Ge, int(0))]);
    let (seen, _) = assert_lanes_agree("short row under a filter", &short, &filtered, 1000, None);
    assert!(seen.error.is_some());
    assert_eq!(aggregated(&seen), 23);

    // SUM over a string in the middle of a page: the aggregate's type
    // error, with the row's select charges and insert attempt made.
    let typed = file_of(
        4096,
        (0..50).map(|i| {
            vec![
                int(i % 6),
                if i == 31 {
                    Value::Str("x".into())
                } else {
                    int(i)
                },
            ]
        }),
    );
    let (seen, _) = assert_lanes_agree("type error", &typed, &sum_v, 1000, None);
    assert!(
        matches!(seen.error, Some(ExecError::Storage(_))),
        "{:?}",
        seen.error
    );
    assert_eq!((aggregated(&seen), seen.resident), (31, 6));
    // ... and the same with the table full, so the erring row is probed
    // against a spilling table.
    assert_lanes_agree("type error while spilling", &typed, &sum_v, 3, None);
}

#[test]
fn a_scheduled_crash_truncates_the_batch_at_its_tuple() {
    let file = file_of(512, (0..200).map(|i| vec![int(i % 13), int(i)]));
    let per_page = file.page(0).unwrap().tuple_count() as u64;
    let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
        .with_filter(vec![Predicate::new(1, Compare::Ne, int(50))]);
    // Mid-page, exactly on a page boundary, before the first tuple, and
    // past the end (never fires).
    for k in [per_page * 2 + 7, per_page * 3, 0, 10_000] {
        let label = format!("crash at {k}");
        let (seen, _) = assert_lanes_agree(&label, &file, &query, 1000, Some(k));
        if k < 200 {
            assert_eq!(
                seen.error,
                Some(ExecError::InjectedCrash {
                    node: 0,
                    at_tuple: k
                }),
                "{label}"
            );
            let reads = seen.counts.count(CostEvent::TupleRead) as usize;
            // Each scanned tuple: one select read, plus the table's own
            // read for the ones that passed.
            assert_eq!(reads, k as usize + aggregated(&seen), "{label}");
        } else {
            assert_eq!(seen.error, None, "{label}");
        }
    }
}

// ---------------------------------------------------------------------
// The receive side: a message page through `push_page`, against its rows
// through `push`.
// ---------------------------------------------------------------------

/// `rows` cut into message pages of `page_bytes`.
fn pages_of(page_bytes: usize, rows: &[Vec<Value>]) -> Vec<Page> {
    let mut pages = vec![Page::new(page_bytes)];
    for row in rows {
        if !pages.last_mut().unwrap().try_push(row).unwrap() {
            pages.push(Page::new(page_bytes));
            assert!(pages.last_mut().unwrap().try_push(row).unwrap());
        }
    }
    pages
}

/// Everything one way of feeding message pages made observable.
#[derive(Debug, PartialEq)]
struct Received {
    fed: HashAggStats,
    drained: HashAggStats,
    counts: CountingTracker,
    /// The clock after every page — where a merge's next receive reads
    /// it — and at the end.
    ticks: Vec<u64>,
    rows: Vec<ResultRow>,
}

fn receive(mut agg: HashAggregator, kind: RowKind, pages: &[Page], paged: bool) -> Received {
    let mut probe = Probe::new(None);
    let mut row = Vec::new();
    let mut ticks = Vec::new();
    for page in pages {
        if paged {
            agg.push_page(kind, page, &mut probe).unwrap();
        } else {
            let mut cursor = page.cursor();
            while cursor.next_into(&mut row).unwrap() {
                agg.push(kind, &row, &mut probe).unwrap();
            }
        }
        ticks.push(probe.clock.now());
    }
    let fed = *agg.stats();
    // The drain replays what spilled, under the same probe.
    let (rows, drained) = agg.finish_rows(&mut probe).unwrap();
    ticks.push(probe.clock.now());
    Received {
        fed,
        drained,
        counts: probe.counts,
        ticks,
        rows,
    }
}

#[test]
fn received_pages_match_their_rows_pushed_one_by_one() {
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    );
    let raw: Vec<Vec<Value>> = (0..500).map(|i| vec![int((i * 7) % 61), int(i)]).collect();
    // Partial rows as four senders' local phases emit them: every group
    // arrives four times.
    let partial: Vec<Vec<Value>> = raw
        .chunks(125)
        .flat_map(|sender| {
            let mut local = HashAggregator::new(query.clone(), 1000, 256, 4);
            for row in sender {
                local.push_raw(row, &mut NullTracker).unwrap();
            }
            local.finish_partials(&mut NullTracker).unwrap().0.to_rows()
        })
        .collect();
    assert_eq!(partial.len(), 4 * 61);
    // Arity 2 and 3 interleaved: no page has strips to ride.
    let ragged: Vec<Vec<Value>> = raw
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut row = row.clone();
            if i % 3 == 0 {
                row.push(int(-1));
            }
            row
        })
        .collect();
    // (label, kind, rows, table budget, whether inserts charge t_h)
    let cases = [
        ("raw", RowKind::Raw, &raw[..], 1000, true),
        ("raw, pre-partitioned", RowKind::Raw, &raw[..], 1000, false),
        ("raw, spilling mid-page", RowKind::Raw, &raw[..], 20, false),
        ("partial", RowKind::Partial, &partial[..], 1000, false),
        ("partial, hashed", RowKind::Partial, &partial[..], 1000, true),
        ("partial, spilling mid-page", RowKind::Partial, &partial[..], 20, false),
        ("ragged, spilling mid-page", RowKind::Raw, &ragged[..], 20, true),
    ];
    for (label, kind, rows, budget, charge_hash) in cases {
        let pages = pages_of(256, rows);
        assert!(pages.len() > 8, "{label}: {} pages", pages.len());
        let dense = pages.iter().all(|p| ScanBatch::whole(p).is_some());
        assert_eq!(dense, !label.starts_with("ragged"), "{label}");
        let agg = || HashAggregator::new(query.clone(), budget, 256, 4).with_charge_hash(charge_hash);
        let (paged, rowed) = (
            receive(agg(), kind, &pages, true),
            receive(agg(), kind, &pages, false),
        );
        assert_eq!(paged, rowed, "{label}");
        assert_eq!(paged.rows.len(), 61, "{label}");
        assert_eq!(paged.fed.rows_in(), rows.len() as u64, "{label}");
        assert_eq!(paged.fed.spilled(), budget < 61, "{label}");
    }
}

// ---------------------------------------------------------------------
// On a real node: the crash schedule NodeCtx keeps, and A-2P's switch.
// ---------------------------------------------------------------------

fn node_with(file: HeapFile, max_hash_entries: usize) -> NodeCtx {
    let mut eps = Fabric::new(1, NetworkKind::high_speed_default()).into_endpoints();
    let mut disk = SimDisk::new();
    disk.put("base", file);
    let params = CostParams {
        max_hash_entries,
        ..CostParams::paper_default()
    };
    NodeCtx::new(eps.pop().unwrap(), disk, params)
}

#[test]
fn node_crash_schedule_is_honoured_by_both_lanes() {
    let rows = || (0..300).map(|i| vec![int(i % 11), int(i)]);
    let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
    let plan = QueryPlan::new(&query);
    let per_page = file_of(512, rows()).page(0).unwrap().tuple_count() as u64;
    let k = per_page * 4 + per_page / 2;
    let crashing_node = || {
        let mut ctx = node_with(file_of(512, rows()), 1000);
        ctx.apply_faults(NodeFaults {
            crash_at_tuple: Some(k),
            slowdown_factor: 1.0,
        });
        ctx
    };
    // The whole file into `sink`, offered as batches or row by row.
    fn scan<S: ScanSink<NodeCtx>>(ctx: &mut NodeCtx, plan: &QueryPlan, sink: S, batched: bool) -> (Result<usize, ExecError>, S) {
        if batched {
            let mut sink = sink;
            (operators::scan_pages(ctx, "base", &[], &plan.projection, 0, usize::MAX, &mut sink), sink)
        } else {
            let mut sink = RowOnly(sink);
            (operators::scan_pages(ctx, "base", &[], &plan.projection, 0, usize::MAX, &mut sink), sink.0)
        }
    }
    let crashed = Err(ExecError::InjectedCrash {
        node: 0,
        at_tuple: k,
    });

    // The hash aggregator: every tuple before the crash was aggregated.
    let run = |batched: bool| {
        let mut ctx = crashing_node();
        let agg = HashAggregator::new(plan.projected.clone(), 1000, 256, 4);
        let (result, agg) = scan(&mut ctx, &plan, agg, batched);
        (result, agg.stats().raw_in, ctx.clock.now())
    };
    let (row, batch) = (run(false), run(true));
    assert_eq!(row.0, crashed);
    assert_eq!(row.1, k, "every tuple before the crash was aggregated");
    assert_eq!(batch, row);

    // Sorted-run formation, at a budget that seals runs inside the pages
    // ahead of the crash: the batch is cut at tuple K, the runs sealed so
    // far and the groups resident are the row lane's.
    let run = |batched: bool| {
        let mut ctx = crashing_node();
        let agg = SortAggregator::new(plan.projected.clone(), 4, 256);
        let (result, agg) = scan(&mut ctx, &plan, agg, batched);
        let formed = (agg.sealed_runs(), agg.resident_groups());
        (result, formed, ctx.clock.now())
    };
    let (row, batch) = (run(false), run(true));
    assert_eq!(row.0, crashed);
    assert!(row.1 .0 > 10, "only {} runs sealed before the crash", row.1 .0);
    assert_eq!(batch, row);
}

/// Every page the one-node `ctx` sent itself, up to its stream's end: the
/// send timestamps, in ticks, in send order (each a read of the sender's
/// clock). Receiving moves the clock, so read it first.
fn sent_stamps(ctx: &mut NodeCtx) -> Vec<u64> {
    let mut stamps = Vec::new();
    loop {
        let msg = ctx.recv_from(0).unwrap();
        match msg.payload {
            Payload::Data { .. } => stamps.push(msg.sent_at()),
            Payload::Control(Control::EndOfStream) => return stamps,
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// A sink that never takes a batch: its consumer as it ran row by row.
struct RowOnly<S>(S);

impl<S: ScanSink<NodeCtx>> ScanSink<NodeCtx> for RowOnly<S> {
    fn row(&mut self, ctx: &mut NodeCtx, values: &[Value]) -> Result<bool, ExecError> {
        self.0.row(ctx, values)
    }
}

#[test]
fn a_crash_inside_a_routed_page_ends_like_the_row_lane() {
    // A filter with gaps, so the cut lands between fail-charge runs.
    let rows = || (0..600).map(|i| vec![int((i * 11) % 97), int(i), int(i % 4)]);
    let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
        .with_filter(vec![Predicate::new(2, Compare::Ne, int(2))]);
    let plan = QueryPlan::new(&query);
    let per_page = file_of(512, rows()).page(0).unwrap().tuple_count() as u64;
    // Mid-page, on a page boundary, and never.
    for k in [per_page * 5 + per_page / 3, per_page * 7, 10_000] {
        let run = |batched: bool| {
            let mut ctx = node_with(file_of(512, rows()), 1000);
            ctx.apply_faults(NodeFaults {
                crash_at_tuple: Some(k),
                slowdown_factor: 1.0,
            });
            // 256-byte message pages: sends land inside every base page.
            let ex = Exchange::new(1, 256, plan.key_len(), RowKind::Raw);
            let (filter, columns) = (&plan.base.filter[..], &plan.projection[..]);
            let (result, ex) = if batched {
                let mut sink = ex;
                let result = operators::scan_pages(&mut ctx, "base", filter, columns, 0, usize::MAX, &mut sink);
                (result, sink)
            } else {
                let mut sink = RowOnly(ex);
                let result = operators::scan_pages(&mut ctx, "base", filter, columns, 0, usize::MAX, &mut sink);
                (result, sink.0)
            };
            let (routed, net, clock) = (ex.routed(), *ctx.net_stats(), ctx.clock.now());
            ex.finish(&mut ctx).unwrap();
            (result, routed, net, clock, sent_stamps(&mut ctx))
        };
        let (row, batch) = (run(false), run(true));
        assert_eq!(batch, row, "crash at {k}");
        if k < 600 {
            assert_eq!(row.0, Err(ExecError::InjectedCrash { node: 0, at_tuple: k }));
            // Every tuple before the crash was scanned, and three in four
            // of them routed.
            let passing = (0..k).filter(|i| i % 4 != 2).count() as u64;
            assert_eq!(row.1, passing, "crash at {k}");
            assert!(row.2.pages_sent() > 0);
        } else {
            assert_eq!(row.0, Ok(450));
        }
    }
}

/// `query` plus one always-true conjunct on the base relation's `Str` pad
/// column. The strips cannot evaluate it, so every page a batch sink is
/// offered takes the row loop ([`RowCause::ValueFilter`]) — at exactly the
/// charges of the scan without it: select charges are per tuple, not per
/// predicate.
fn on_the_row_loop(query: &AggQuery) -> AggQuery {
    let mut query = query.clone();
    query.filter.push(Predicate::new(2, Compare::Ge, Value::Str("".into())));
    query
}

/// The whole algorithms that route raw tuples, on 1/2/4 nodes, batches
/// against the row loop: same rows, same traffic, and every node's clock
/// the same to the tick (a falling-back A-Rep past one node excepted: when
/// a peer's `EndOfPhase` is seen is physically timed). The traces say
/// which loop ran, and why.
#[test]
fn routing_algorithms_match_the_row_lane_on_every_cluster_size() {
    let both_lanes = |kind, config: &ClusterConfig, parts: &[HeapFile], query: &AggQuery, cfg: &AlgoConfig| {
        let row = run_algorithm_with(kind, config, parts, &on_the_row_loop(query), cfg);
        let batch = run_algorithm_with(kind, config, parts, query, cfg);
        (row.unwrap(), batch.unwrap())
    };
    let counter = |out: &RunOutcome, name: &str| -> u64 {
        let trace = out.trace.as_ref().expect("traced run");
        trace.nodes.iter().map(|n| n.metrics.counter(name)).sum()
    };
    let pages_batched = |out: &RunOutcome| counter(out, "scan.pages_batched");
    let pages_value_filter = |out: &RunOutcome| counter(out, RowCause::ValueFilter.counter());
    let config_of = |nodes: usize, max_hash_entries: usize| {
        let params = CostParams {
            max_hash_entries,
            ..CostParams::paper_default()
        };
        ClusterConfig::new(nodes, params).with_tracing()
    };
    // A quarter of the tuples filtered out, in shuffled positions.
    let query = default_query().with_filter(vec![Predicate::new(0, Compare::Ge, int(750))]);
    for nodes in [1usize, 2, 4] {
        // 3000 groups against a 200-entry table: A-2P switches inside the
        // first pages, A-Rep's census is over within a few hundred tuples
        // and it never falls back.
        let parts = generate_partitions(&RelationSpec::uniform(24_000, 3_000), nodes);
        let pages: usize = parts.iter().map(HeapFile::page_count).sum();
        let config = config_of(nodes, 200);
        let cfg = AlgoConfig::default_for(nodes);
        for kind in [
            AlgorithmKind::Repartitioning,
            AlgorithmKind::AdaptiveTwoPhase,
            AlgorithmKind::AdaptiveRepartitioning,
        ] {
            let (row, batch) = both_lanes(kind, &config, &parts, &query, &cfg);
            assert_eq!(batch.rows, row.rows, "{kind} on {nodes} nodes");
            assert_eq!(batch.rows.len(), 2_250);
            assert_eq!(batch.run.total_net().tuples_sent, row.run.total_net().tuples_sent, "{kind} on {nodes} nodes");
            for (b, r) in batch.run.per_node.iter().zip(&row.run.per_node) {
                assert_eq!(b.clock, r.clock, "{kind} on {nodes} nodes: node {}", b.node);
            }
            assert_eq!(batch.run.total_net(), row.run.total_net(), "{kind} on {nodes} nodes");
            assert_eq!(pages_batched(&row), 0, "{kind}: the row lane batched");
            // Every page the row side's sink asked for as a batch went to
            // the row loop, for the reason given. A-2P: all but each
            // node's switch page are batched; A-Rep: all but the census
            // pages and one cut page per poll.
            let offered = pages_value_filter(&row) as usize;
            assert!(offered * 10 >= pages * 8, "{kind} on {nodes} nodes: {offered} of {pages} pages offered");
            assert_eq!(pages_value_filter(&batch), 0, "{kind} on {nodes} nodes");
            let batched = pages_batched(&batch) as usize;
            assert!(batched * 10 >= pages * 8, "{kind} on {nodes} nodes: {batched} of {pages} pages batched");
            assert_eq!(batch.adapted_nodes().len(), if kind == AlgorithmKind::AdaptiveTwoPhase { nodes } else { 0 });
        }

        // A-Rep that falls back (300 groups judged against 400) and whose
        // A-2P table (50 entries) then fills: census rows, table batches,
        // the re-switch page, exchange batches.
        let parts = generate_partitions(&RelationSpec::uniform(30_000, 300), nodes);
        let config = config_of(nodes, 50);
        let cfg = AlgoConfig::default_for(nodes).with_crossover_threshold(400);
        let kind = AlgorithmKind::AdaptiveRepartitioning;
        let (row, batch) = both_lanes(kind, &config, &parts, &default_query(), &cfg);
        assert_eq!(batch.rows, row.rows, "falling-back A-Rep on {nodes} nodes");
        assert_eq!(batch.rows.len(), 300);
        if nodes == 1 {
            assert_eq!(batch.elapsed(), row.elapsed());
            assert_eq!(batch.nodes[0].events, row.nodes[0].events);
            assert_eq!(batch.nodes[0].events.len(), 2, "fell back, then switched: {:?}", batch.nodes[0].events);
        }
        assert!(pages_batched(&batch) > 0 && pages_batched(&row) == 0);
        assert!(pages_value_filter(&row) > 0 && pages_value_filter(&batch) == 0);
    }
}

#[test]
fn a2p_switch_lands_mid_page_at_the_same_tuple() {
    // 64 distinct groups inside the first pages, 16-entry table: the 17th
    // distinct key bounces mid-page; a filter makes the batch cut land on
    // a selected row with filtered-out rows on both sides.
    let rows = || (0..400).map(|i| vec![int((i * 5) % 64), int(i), int(i % 3)]);
    let query = AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    )
    .with_filter(vec![Predicate::new(2, Compare::Ne, int(1))]);
    let plan = QueryPlan::new(&query);
    let run = |batched: bool| {
        let mut ctx = node_with(file_of(512, rows()), 16);
        let mut scan = ScanState::new(&plan, 16);
        let mut ex = Exchange::new(
            1,
            ctx.params().message_bytes,
            plan.key_len(),
            RowKind::Partial,
        );
        let mut events = Vec::new();
        let sink = ScanSwitch {
            scan: &mut scan,
            ex: &mut ex,
            events: &mut events,
        };
        let passed = if batched {
            operators::scan_pages(
                &mut ctx,
                "base",
                &plan.base.filter,
                &plan.projection,
                0,
                usize::MAX,
                &mut { sink },
            )
        } else {
            operators::scan_pages(
                &mut ctx,
                "base",
                &plan.base.filter,
                &plan.projection,
                0,
                usize::MAX,
                &mut RowOnly(sink),
            )
        }
        .unwrap();
        ex.finish(&mut ctx).unwrap();
        (
            passed,
            events,
            scan.switched,
            scan.raw_seen,
            *ctx.net_stats(),
            ctx.clock.now(),
            sent_stamps(&mut ctx),
        )
    };
    let (row, batch) = (run(false), run(true));
    assert_eq!(batch, row);
    let at_tuple = match row.1[..] {
        [AdaptEvent::SwitchedToRepartitioning { at_tuple }] => at_tuple,
        ref other => panic!("expected exactly one switch, got {other:?}"),
    };
    assert!(
        row.2 && at_tuple > 16 && at_tuple < 40,
        "switch at {at_tuple}"
    );
    assert!(
        row.4.pages_sent() > 0,
        "partials flushed and raws forwarded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random data, page size, projection, filter and budget: the lanes
    /// stay indistinguishable, crash schedule included.
    #[test]
    fn prop_batch_lane_equals_row_lane(
        cells in proptest::collection::vec((0i64..40, -50i64..50, 0i64..6), 1..400),
        page_bytes in 64usize..700,
        shape in 0usize..4,
        threshold in -60i64..60,
        op_ix in 0usize..6,
        budget in 1usize..48,
        crash in 0u64..800,
    ) {
        let file = file_of(page_bytes, cells.iter().map(|&(g, v, w)| vec![int(g), int(v), int(w)]));
        let op = [Compare::Eq, Compare::Ne, Compare::Lt, Compare::Le, Compare::Gt, Compare::Ge][op_ix];
        let aggs = vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::over(AggFunc::Min, 1), AggSpec::count_star()];
        let query = match shape {
            0 => AggQuery::new(vec![0], aggs),
            1 => AggQuery::new(vec![0], aggs).with_filter(vec![Predicate::new(1, op, int(threshold))]),
            2 => AggQuery::new(vec![2, 0], vec![AggSpec::over(AggFunc::Max, 1)])
                .with_filter(vec![Predicate::new(0, op, int(threshold.rem_euclid(40)))]),
            _ => AggQuery::new(vec![2], vec![AggSpec::over(AggFunc::Avg, 0), AggSpec::count_star()])
                .with_filter(vec![
                    Predicate::new(1, op, int(threshold)),
                    Predicate::new(0, Compare::Ne, int(3)),
                ]),
        };
        // Half the cases run to completion, half crash somewhere.
        let crash_at = (crash < 400).then_some(crash);
        let (row, _) = run_lane(&file, &query, budget, crash_at, false);
        let (batch, _) = run_lane(&file, &query, budget, crash_at, true);
        prop_assert_eq!(batch, row);
    }
}
