//! Batch-vs-reference differential for the page-at-a-time scan
//! (DESIGN.md §17).
//!
//! The scan offers every page to its consumer as batches. The reference is
//! a row-at-a-time scan written here: decode each row, `matches_all`,
//! project, charge the select, and hand the row to the consumer's per-row
//! entry (`push_raw`, `route`, or A-2P's switch written out). The same
//! heap file goes through both, and everything observable must be equal:
//! the result rows (order included), the count of every cost event, the
//! virtual clock in ticks wherever it would be read (where the scan
//! returns — a failure's time — after each received page, at the end),
//! what spilled, and on failure the typed error plus everything charged
//! before it. The algorithm-level cases (A-2P's switch, a scheduled crash,
//! a crash inside a page the exchange is routing) run on a real `NodeCtx`
//! and compare clocks, send timestamps, adaptive events and traffic. The
//! algorithms that route raw tuples also run whole, on 1/2/4 nodes, with
//! and without an always-true `Str` conjunct, whose `Values` strip the
//! filter sweeps as it sweeps `Int`s. Message pages are dense, so no data
//! shape puts a whole run's receive side on the row loop: `push_page` is
//! compared with per-row `push` directly.
//!
//! What the whole algorithms did before their scans became batch-only is
//! pinned by constants captured on that code, in `tests/algo_pins.rs`.

use adaptagg::algos::adaptive2p::{ScanState, ScanSwitch};
use adaptagg::algos::common::QueryPlan;
use adaptagg::algos::{run_algorithm_with, AdaptEvent, AlgoConfig, AlgorithmKind, RunOutcome};
use adaptagg::exec::{
    operators, Clock, ClusterConfig, Exchange, ExecError, NodeCtx, NodeFaults, PageScan, ScanCharge,
    ScanSink, ScanTally,
};
use adaptagg::hashagg::{HashAggStats, HashAggregator, Inserted};
use adaptagg::model::{
    matches_all, AggFunc, AggQuery, AggSpec, Compare, CostEvent, CostParams, CostTracker,
    CountingTracker, ModelError, NetworkKind, NullTracker, Predicate, ResultRow, RowKind, StripView,
    Value,
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

    fn crash_budget(&self) -> Option<u64> {
        self.crash_at.map(|k| k.saturating_sub(self.scanned))
    }

    fn batch_scanned(&mut self, rows: usize) {
        self.scanned += rows as u64;
    }

    fn crash_tick(&mut self) -> Result<(), ExecError> {
        self.tick()
    }
}

/// What the reference scan charges: the page read and each tuple's select
/// charges, after the tuple's tick against the crash schedule.
trait RowCharge {
    fn charge(&mut self, event: CostEvent);
    /// Count one scanned tuple; fails at the scheduled crash.
    fn tick(&mut self) -> Result<(), ExecError>;
}

impl RowCharge for Probe {
    fn charge(&mut self, event: CostEvent) {
        self.record(event, 1);
    }

    fn tick(&mut self) -> Result<(), ExecError> {
        self.scanned += 1;
        match self.crash_at {
            Some(k) if self.scanned > k => Err(ExecError::InjectedCrash { node: 0, at_tuple: k }),
            _ => Ok(()),
        }
    }
}

impl RowCharge for NodeCtx {
    fn charge(&mut self, event: CostEvent) {
        self.clock.record(event, 1);
    }

    fn tick(&mut self) -> Result<(), ExecError> {
        self.fault_tick()
    }
}

/// The scan's rule for a page where some row lacks a column the scan
/// reads — a filter or projected column, or any column of the whole tuple
/// — checked off the decoded rows: the page fails whole, with the typed
/// `ColumnOutOfRange` of the first such column and the shortest row.
fn page_lacks_a_column(page: &Page, filter: &[Predicate], columns: &[usize]) -> Result<(), ModelError> {
    let rows = page.decode_all().unwrap();
    let shortest = rows.iter().map(Vec::len).min().unwrap_or(0);
    let widest = rows.iter().map(Vec::len).max().unwrap_or(0);
    let read = filter.iter().map(|p| p.column).chain(columns.iter().copied());
    let missing = match read.into_iter().find(|&c| c >= shortest) {
        Some(c) => Some(c),
        None if columns.is_empty() && widest > shortest => Some(shortest),
        None => None,
    };
    missing.map_or(Ok(()), |column| Err(ModelError::ColumnOutOfRange { column, arity: shortest }))
}

/// The reference scan: every page of `file`, row by row — tick, decode,
/// `t_r`, filter, `t_w`, project, `consume` — with the page rule above
/// checked once its first row is ticked. Returns the passing tuples.
fn reference_scan<X: RowCharge>(
    x: &mut X,
    file: &HeapFile,
    filter: &[Predicate],
    columns: &[usize],
    mut consume: impl FnMut(&mut X, &[Value]) -> Result<(), ExecError>,
) -> Result<usize, ExecError> {
    let mut passed = 0;
    for pi in 0..file.page_count() {
        x.charge(CostEvent::PageReadSeq);
        let page = file.page(pi)?;
        for (r, row) in page.iter().enumerate() {
            let row = row?;
            x.tick()?;
            if r == 0 {
                page_lacks_a_column(page, filter, columns)?;
            }
            x.charge(CostEvent::TupleRead);
            if !matches_all(filter, &row)? {
                continue;
            }
            x.charge(CostEvent::TupleWrite);
            let projected: Vec<Value> = match columns {
                [] => row,
                _ => columns.iter().map(|&c| row[c].clone()).collect(),
            };
            consume(x, &projected)?;
            passed += 1;
        }
    }
    Ok(passed)
}

/// The local-phase consumer as the batch scan's sink.
struct Batched<'a>(&'a mut HashAggregator);

impl ScanSink<Probe> for Batched<'_> {
    fn batch(&mut self, x: &mut Probe, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        Ok(self.0.push_batch(RowKind::Raw, batch, x)?)
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

/// `file` scanned into a hash aggregator by the batch scan, or by the
/// reference; the batch scan's page tally (the reference's is empty).
fn run_lane(
    file: &HeapFile,
    query: &AggQuery,
    budget: usize,
    crash_at: Option<u64>,
    batched: bool,
) -> (Observed, ScanTally) {
    let plan = QueryPlan::new(query);
    let (filter, columns) = (&plan.base.filter[..], &plan.projection[..]);
    let mut agg = HashAggregator::new(plan.projected.clone(), budget, 256, 4);
    let mut probe = Probe::new(crash_at);
    let mut scan = PageScan::new(filter, columns);
    let scanned = if batched {
        scan.run(&mut probe, file, 0, file.page_count(), &mut Batched(&mut agg))
            .map(|()| scan.tally().passed)
    } else {
        reference_scan(&mut probe, file, filter, columns, |x, values| Ok(agg.push_raw(values, x)?))
    };
    let error = scanned.as_ref().err().cloned();
    let scan_ticks = probe.clock.now();
    // The row counters of a scan that died are nobody's contract (the
    // lanes bump them on different sides of the failing insert); what it
    // charged and what the table holds are.
    let (passed, raw_in, spilled) = match scanned {
        Ok(passed) => (passed, agg.stats().raw_in, agg.stats().spilled_tuples),
        Err(_) => (0, 0, 0),
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

/// The batch scan and the reference over `file`; asserts they are
/// indistinguishable and returns what happened plus the batch scan's page
/// tally.
fn assert_lanes_agree(
    label: &str,
    file: &HeapFile,
    query: &AggQuery,
    budget: usize,
    crash_at: Option<u64>,
) -> (Observed, ScanTally) {
    let (row, _) = run_lane(file, query, budget, crash_at, false);
    let (batch, tally) = run_lane(file, query, budget, crash_at, true);
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
    // column the scan reads, so every page is a batch.
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
    assert_eq!(tally.pages_batched as usize, ragged.page_count());

    // 20-byte rows on 32-byte pages: one row a page.
    let single = file_of(32, (0..40).map(|i| vec![int(i % 4), int(i)]));
    assert_eq!(single.page_count(), 40);
    let (seen, tally) = assert_lanes_agree("single-row pages", &single, &query, 1000, None);
    assert_eq!((seen.passed, tally.pages_batched), (39, 40));
}

/// Value inputs send the table to its row arm, by cause; value filters are
/// swept off their strips like `Int` ones.
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

    // A Str filter column, an Int column against a Float literal
    // (cross-type order: every Int sorts below every Float), and against
    // a NULL literal (never true).
    let file = file_of(1024, wide_rows(200, 11));
    let on_str = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 2)]).with_filter(vec![
        Predicate::new(1, Compare::Lt, Value::Str("pad5".into())),
    ]);
    let (seen, tally) = assert_lanes_agree("str filter", &file, &on_str, 1000, None);
    assert!(seen.passed > 0 && seen.passed < 200);
    assert_eq!(tally.pages_batched as usize, file.page_count());
    let float_literal = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 2)])
        .with_filter(vec![Predicate::new(2, Compare::Lt, Value::Float(-1.0))]);
    let (seen, tally) = assert_lanes_agree("float literal", &file, &float_literal, 1000, None);
    assert_eq!(seen.passed, 200);
    assert_eq!(tally.pages_batched as usize, file.page_count());
    let null_literal = float_literal.clone().with_filter(vec![Predicate::new(2, Compare::Ne, Value::Null)]);
    let (seen, tally) = assert_lanes_agree("null literal", &file, &null_literal, 1000, None);
    assert_eq!(seen.passed, 0);
    assert_eq!(tally.pages_batched as usize, file.page_count());
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
    // A one-column row in the middle of the second page: the projection's
    // typed ColumnOutOfRange, after the first page was consumed — the page
    // holding the row fails whole.
    let short = file_of(
        256,
        (0..50).map(|i| {
            if i == 23 {
                vec![int(1)]
            } else {
                vec![int(i % 6), int(i)]
            }
        }),
    );
    let first_page = short.page(0).unwrap().tuple_count();
    assert!(first_page < 23 && short.page(1).unwrap().tuple_count() + first_page > 23);
    let lacks_column_1 = Some(ExecError::Model(ModelError::ColumnOutOfRange { column: 1, arity: 1 }));
    let (seen, _) = assert_lanes_agree("short row", &short, &sum_v, 1000, None);
    assert_eq!(seen.error, lacks_column_1);
    assert_eq!(aggregated(&seen), first_page, "the pages before it were consumed");

    // The same row lacking the *filter* column: the same error.
    let filtered = sum_v
        .clone()
        .with_filter(vec![Predicate::new(1, Compare::Ge, int(0))]);
    let (seen, _) = assert_lanes_agree("short row under a filter", &short, &filtered, 1000, None);
    assert_eq!(seen.error, lacks_column_1);
    assert_eq!(aggregated(&seen), first_page);

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

/// Node 0's base file, for the reference scan (the batch scan takes it
/// out of the disk itself).
fn base_of(ctx: &NodeCtx) -> HeapFile {
    ctx.disk.get("base").unwrap().clone()
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
    let crashed = Err(ExecError::InjectedCrash {
        node: 0,
        at_tuple: k,
    });

    // The hash aggregator: every tuple before the crash was aggregated.
    let run = |batched: bool| {
        let mut ctx = crashing_node();
        let mut agg = HashAggregator::new(plan.projected.clone(), 1000, 256, 4);
        let result = if batched {
            operators::scan_pages(&mut ctx, "base", &[], &plan.projection, 0, usize::MAX, &mut agg)
        } else {
            let base = base_of(&ctx);
            reference_scan(&mut ctx, &base, &[], &plan.projection, |ctx, values| {
                Ok(agg.push_raw(values, &mut ctx.clock)?)
            })
        };
        (result, agg.stats().raw_in, ctx.clock.now())
    };
    let (row, batch) = (run(false), run(true));
    assert_eq!(row.0, crashed);
    assert_eq!(row.1, k, "every tuple before the crash was aggregated");
    assert_eq!(batch, row);

    // Sorted-run formation, at a budget that seals runs inside the pages
    // ahead of the crash: the batch is cut at tuple K, the runs sealed so
    // far and the groups resident are the reference's.
    let run = |batched: bool| {
        let mut ctx = crashing_node();
        let mut agg = SortAggregator::new(plan.projected.clone(), 4, 256);
        let result = if batched {
            operators::scan_pages(&mut ctx, "base", &[], &plan.projection, 0, usize::MAX, &mut agg)
        } else {
            let base = base_of(&ctx);
            reference_scan(&mut ctx, &base, &[], &plan.projection, |ctx, values| {
                Ok(agg.push(RowKind::Raw, values, &mut ctx.clock)?)
            })
        };
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
            let mut ex = Exchange::new(1, 256, plan.key_len(), RowKind::Raw);
            let (filter, columns) = (&plan.base.filter[..], &plan.projection[..]);
            let result = if batched {
                operators::scan_pages(&mut ctx, "base", filter, columns, 0, usize::MAX, &mut ex)
            } else {
                let base = base_of(&ctx);
                reference_scan(&mut ctx, &base, filter, columns, |ctx, values| ex.route(ctx, values, true))
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
/// column, which the filter sweeps as a `Values` strip — at exactly the
/// charges of the scan without it: select charges are per tuple, not per
/// predicate.
fn with_str_conjunct(query: &AggQuery) -> AggQuery {
    let mut query = query.clone();
    query.filter.push(Predicate::new(2, Compare::Ge, Value::Str("".into())));
    query
}

/// The whole algorithms that route or forward raw tuples, on 1/2/4 nodes,
/// with and without a `Str` conjunct: same rows, same traffic, and every
/// node's clock the same to the tick (a falling-back A-Rep past one node
/// excepted: when a peer's `EndOfPhase` is seen is physically timed). The
/// traces say every page reached the scan's consumer as batches.
#[test]
fn routing_algorithms_match_the_row_lane_on_every_cluster_size() {
    let both = |kind, config: &ClusterConfig, parts: &[HeapFile], query: &AggQuery, cfg: &AlgoConfig| {
        let on_str = run_algorithm_with(kind, config, parts, &with_str_conjunct(query), cfg);
        let on_ints = run_algorithm_with(kind, config, parts, query, cfg);
        (on_str.unwrap(), on_ints.unwrap())
    };
    let counter = |out: &RunOutcome, name: &str| -> u64 {
        let trace = out.trace.as_ref().expect("traced run");
        trace.nodes.iter().map(|n| n.metrics.counter(name)).sum()
    };
    let pages_batched = |out: &RunOutcome| counter(out, "scan.pages_batched");
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
        // first pages, Opt-2P forwards most tuples, A-Rep's census is over
        // within a few hundred tuples and it never falls back.
        let parts = generate_partitions(&RelationSpec::uniform(24_000, 3_000), nodes);
        let pages: usize = parts.iter().map(HeapFile::page_count).sum();
        let config = config_of(nodes, 200);
        let cfg = AlgoConfig::default_for(nodes);
        for kind in [
            AlgorithmKind::Repartitioning,
            AlgorithmKind::AdaptiveTwoPhase,
            AlgorithmKind::AdaptiveRepartitioning,
            AlgorithmKind::OptimizedTwoPhase,
            AlgorithmKind::Broadcast,
        ] {
            let (on_str, batch) = both(kind, &config, &parts, &query, &cfg);
            assert_eq!(batch.rows, on_str.rows, "{kind} on {nodes} nodes");
            assert_eq!(batch.rows.len(), 2_250);
            for (b, r) in batch.run.per_node.iter().zip(&on_str.run.per_node) {
                assert_eq!(b.clock, r.clock, "{kind} on {nodes} nodes: node {}", b.node);
            }
            assert_eq!(batch.run.total_net(), on_str.run.total_net(), "{kind} on {nodes} nodes");
            // A page is counted once, however many batches it was cut into
            // (A-2P's switch page, A-Rep's poll cuts, Opt-2P's forwards).
            assert_eq!(pages_batched(&batch) as usize, pages, "{kind} on {nodes} nodes");
            assert_eq!(pages_batched(&on_str) as usize, pages, "{kind} on {nodes} nodes");
            assert_eq!(batch.adapted_nodes().len(), if kind == AlgorithmKind::AdaptiveTwoPhase { nodes } else { 0 });
        }

        // A-Rep that falls back (300 groups judged against 400) and whose
        // A-2P table (50 entries) then fills: census, verdict, table
        // batches, the re-switch page, exchange batches.
        let parts = generate_partitions(&RelationSpec::uniform(30_000, 300), nodes);
        let pages: usize = parts.iter().map(HeapFile::page_count).sum();
        let config = config_of(nodes, 50);
        let cfg = AlgoConfig::default_for(nodes).with_crossover_threshold(400);
        let kind = AlgorithmKind::AdaptiveRepartitioning;
        let (on_str, batch) = both(kind, &config, &parts, &default_query(), &cfg);
        assert_eq!(batch.rows, on_str.rows, "falling-back A-Rep on {nodes} nodes");
        assert_eq!(batch.rows.len(), 300);
        if nodes == 1 {
            assert_eq!(batch.elapsed(), on_str.elapsed());
            assert_eq!(batch.nodes[0].events, on_str.nodes[0].events);
            assert_eq!(batch.nodes[0].events.len(), 2, "fell back, then switched: {:?}", batch.nodes[0].events);
        }
        assert_eq!(pages_batched(&batch) as usize, pages);
        assert_eq!(pages_batched(&on_str) as usize, pages);
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
        let (filter, columns) = (&plan.base.filter[..], &plan.projection[..]);
        let passed = if batched {
            let mut sink = ScanSwitch {
                scan: &mut scan,
                ex: &mut ex,
                events: &mut events,
            };
            operators::scan_pages(&mut ctx, "base", filter, columns, 0, usize::MAX, &mut sink)
        } else {
            // §3.2 a tuple at a time: aggregate until a tuple bounces off
            // the full table, then flush the partials, forward that tuple
            // (its hash paid by the failed insert) and route the rest.
            let base = base_of(&ctx);
            reference_scan(&mut ctx, &base, filter, columns, |ctx, values| {
                scan.raw_seen += 1;
                if scan.switched {
                    return ex.route(ctx, values, true);
                }
                if scan.table.insert_raw(values, &mut ctx.clock)? == Inserted::Full {
                    ex.flush_table(ctx, &mut scan.table, RowKind::Raw)?;
                    scan.switched = true;
                    events.push(AdaptEvent::SwitchedToRepartitioning { at_tuple: scan.raw_seen });
                    ex.route(ctx, values, false)?;
                }
                Ok(())
            })
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

    /// The filter's strip sweep is `matches` row by row: random `Int`,
    /// `Str`, `Float` and NULL cells, every literal kind, every `Compare`,
    /// over an `Int` strip and a `Values` one, selecting and refining.
    #[test]
    fn prop_select_equals_matches(
        cells in proptest::collection::vec((0u8..4, -4i64..4), 0..60),
        literal in (0u8..4, -4i64..4),
        op_ix in 0usize..6,
        prior in proptest::collection::vec(any::<bool>(), 60..61),
    ) {
        let value = |(kind, x): (u8, i64)| match kind {
            0 => Value::Int(x),
            1 => Value::Str(format!("s{x}").into()),
            2 => Value::Float(x as f64 / 2.0),
            _ => Value::Null,
        };
        let op = [Compare::Eq, Compare::Ne, Compare::Lt, Compare::Le, Compare::Gt, Compare::Ge][op_ix];
        let p = Predicate::new(0, op, value(literal));
        let column: Vec<Value> = cells.iter().map(|&c| value(c)).collect();
        let holds = |r: u32| p.matches(&[column[r as usize].clone()]).unwrap();
        let all: Vec<u32> = (0..column.len() as u32).collect();
        let before: Vec<u32> = all.iter().copied().filter(|&r| prior[r as usize]).collect();
        let mut strips = vec![StripView::Values(&column)];
        let ints: Option<Vec<i64>> = column.iter().map(Value::as_i64).collect();
        if let Some(ints) = &ints {
            strips.push(StripView::Ints(ints));
        }
        for strip in strips {
            let mut sel = vec![7];
            p.select(strip, &mut sel, false);
            prop_assert_eq!(&sel, &all.iter().copied().filter(|&r| holds(r)).collect::<Vec<_>>());
            let mut sel = before.clone();
            p.select(strip, &mut sel, true);
            prop_assert_eq!(&sel, &before.iter().copied().filter(|&r| holds(r)).collect::<Vec<_>>());
        }
    }
}
