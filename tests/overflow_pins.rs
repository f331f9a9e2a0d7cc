//! Aggregator-level overflow pins.
//!
//! `HashAggregator` fed pages and rows over shapes that recurse 0, 1 and
//! 2+ levels deep: raw-only, partial-only and mixed-kind bucket streams
//! (A-2P's sender-major merge order: each sender's flushed partials, then
//! its forwarded raws), `Str` keys, NULL and `Float` inputs, a scanned
//! batch with a selection, and a grant shrunk mid-stream. Per shape the
//! constants below pin the rows the aggregator emits, its `HashAggStats`,
//! how many of each `CostEvent` it recorded, and the virtual clock in
//! ticks. The row digest covers result rows sorted by key
//! (`finish_rows`), and partial rows in emission order (`finish_partials`).
//!
//! They were captured on the row-at-a-time bucket drain (commit 59d95a3,
//! before the overflow path moved onto the strips) by `print_overflow_pins`
//! and are never edited: a change to the spill path must reproduce them.
//! The event counts and ticks stand where that capture pinned a digest of
//! the recorded event sequence and the `f64` clock's bits: the counts are
//! that sequence's, read on the commit before the clock moved to integer
//! ticks, and the ticks are within 1e-9 of those bits (DESIGN.md §21).
//! The `finish_rows` shapes' row digests are the exception. They used to
//! hash emission order, which became key order when the group store began
//! handing results out sorted. They were re-captured with the key sort on
//! the commit before that change (ef391ad).
//!
//! Capture tool: cargo test --test overflow_pins print_overflow_pins -- --ignored --nocapture

use adaptagg_exec::Clock;
use adaptagg_hashagg::{AggTable, HashAggStats, HashAggregator};
use adaptagg_model::encode::encode_tuple;
use adaptagg_model::query::sort_rows;
use adaptagg_model::ticks_to_ms;
use adaptagg_model::{
    AggFunc, AggQuery, AggSpec, CostEvent, CostParams, CostTracker, CountingTracker, MemoryGrant,
    NullTracker, RowKind, Value,
};
use adaptagg_storage::{Page, RowPages, ScanBatch};

/// How the stream reaches the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// `push`, a row at a time.
    Rows,
    /// `push_page`, a message page at a time (a page holds one kind).
    Pages,
    /// `push_batch` over scanned base pages `(g, v, pad)` projected onto
    /// `[0, 1]`, every third row filtered out.
    Scanned,
}

/// How the aggregator is finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Finish {
    Rows,
    Partials,
}

/// The input's key and input cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cells {
    Ints,
    /// Every key a `Str`.
    StrKeys,
    /// Inputs: a NULL every 5th row, a `Float` every 7th.
    NullFloat,
}

/// The stream's kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kinds {
    Raw,
    /// Every row pre-aggregated by a local table per sender.
    Partial,
    /// Per sender: the first 40 % of its rows as flushed partials, then
    /// the rest raw.
    SenderMajor,
}

#[derive(Debug, Clone, Copy)]
struct Shape {
    name: &'static str,
    query: fn() -> AggQuery,
    rows: u64,
    groups: u64,
    max_entries: usize,
    fanout: usize,
    cells: Cells,
    kinds: Kinds,
    feed: Feed,
    finish: Finish,
    /// Shrink a live grant to this many entries half-way through.
    shrink_to: Option<usize>,
}

fn sum_count() -> AggQuery {
    AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()])
}

/// `SUM` alone: a raw row and a partial row have the same arity, so a
/// bucket page that holds both kinds is arity-uniform.
fn sum_only() -> AggQuery {
    AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
}

fn every_typed_func() -> AggQuery {
    AggQuery::new(
        vec![0],
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Count, 1),
            AggSpec::over(AggFunc::Sum, 1),
            AggSpec::over(AggFunc::Avg, 1),
            AggSpec::over(AggFunc::Min, 1),
            AggSpec::over(AggFunc::Max, 1),
        ],
    )
}

const fn shape(name: &'static str, query: fn() -> AggQuery, rows: u64, groups: u64, max_entries: usize) -> Shape {
    Shape {
        name,
        query,
        rows,
        groups,
        max_entries,
        fanout: 8,
        cells: Cells::Ints,
        kinds: Kinds::Raw,
        feed: Feed::Pages,
        finish: Finish::Rows,
        shrink_to: None,
    }
}

const SHAPES: &[Shape] = &[
    // No overflow.
    Shape { feed: Feed::Rows, ..shape("raw_rows_fit", sum_count, 600, 50, 64) },
    shape("raw_pages_fit", sum_count, 600, 50, 64),
    // One level: ~40 groups a bucket against 64 entries.
    shape("raw_pages_one_level", sum_count, 4000, 300, 64),
    Shape { feed: Feed::Rows, ..shape("raw_rows_one_level", sum_count, 4000, 300, 64) },
    // Two and more levels.
    Shape { fanout: 4, ..shape("raw_pages_deep", sum_count, 6000, 2000, 32) },
    Shape { fanout: 4, feed: Feed::Rows, ..shape("raw_rows_deep", sum_count, 6000, 2000, 32) },
    Shape { fanout: 4, kinds: Kinds::Partial, ..shape("partial_pages_deep", sum_count, 6000, 2000, 32) },
    Shape { kinds: Kinds::Partial, ..shape("partial_pages_one_level", every_typed_func, 4000, 300, 64) },
    Shape { kinds: Kinds::SenderMajor, ..shape("mixed_pages_one_level", sum_count, 4000, 300, 64) },
    Shape { fanout: 2, kinds: Kinds::SenderMajor, ..shape("mixed_pages_deep", sum_count, 6000, 1500, 24) },
    Shape { fanout: 3, kinds: Kinds::SenderMajor, feed: Feed::Rows, ..shape("mixed_rows_deep", sum_count, 6000, 1500, 24) },
    Shape { fanout: 4, kinds: Kinds::SenderMajor, ..shape("mixed_pages_sum_only", sum_only, 6000, 1500, 24) },
    Shape { fanout: 4, cells: Cells::StrKeys, ..shape("str_keys_pages_deep", sum_count, 5000, 1200, 40) },
    Shape { cells: Cells::StrKeys, kinds: Kinds::SenderMajor, ..shape("str_keys_mixed", sum_count, 4000, 400, 64) },
    Shape { fanout: 4, cells: Cells::NullFloat, ..shape("null_float_pages_deep", every_typed_func, 5000, 1200, 40) },
    Shape { cells: Cells::NullFloat, kinds: Kinds::SenderMajor, ..shape("null_float_mixed", every_typed_func, 4000, 400, 64) },
    Shape { fanout: 4, feed: Feed::Scanned, ..shape("scanned_filtered_deep", sum_count, 6000, 2000, 32) },
    Shape { fanout: 4, finish: Finish::Partials, ..shape("raw_pages_deep_partials_out", every_typed_func, 6000, 2000, 32) },
    Shape { shrink_to: Some(10), ..shape("grant_shrunk_pages", sum_count, 4000, 300, 2000) },
    Shape { shrink_to: Some(10), kinds: Kinds::SenderMajor, feed: Feed::Rows, ..shape("grant_shrunk_mixed_rows", sum_count, 4000, 300, 2000) },
];

/// What one shape pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    name: &'static str,
    /// FNV-1a over the emitted rows' wire encodings: result rows sorted by
    /// key, partial rows in emission order.
    rows_digest: u64,
    rows: usize,
    /// `HashAggStats` as of the parent (see [`stats_of`]).
    stats: [u64; 15],
    /// How many of each event were recorded, in [`CostEvent::ALL`] order.
    counts: [u64; 9],
    /// The clock at the end.
    ticks: u64,
}

/// `raw_in, partial_in, groups_out, spilled_tuples, overflow_buckets,
/// max_level, probe_slots, peak_resident, typed_columns,
/// general_columns, demoted[0..4], bytes_per_group`.
fn stats_of(s: &HashAggStats) -> [u64; 15] {
    let l = &s.store;
    [
        s.raw_in,
        s.partial_in,
        s.groups_out,
        s.spilled_tuples,
        s.overflow_buckets,
        u64::from(s.max_level),
        s.probe_slots,
        s.peak_resident,
        l.typed_columns,
        l.general_columns,
        l.demoted[0],
        l.demoted[1],
        l.demoted[2],
        l.demoted[3],
        l.bytes_per_group,
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The clock, and a count of every event recorded on it.
struct Recorder {
    clock: Clock,
    counts: CountingTracker,
}

impl CostTracker for Recorder {
    fn record(&mut self, event: CostEvent, count: u64) {
        self.clock.record(event, count);
        self.counts.record(event, count);
    }
}

fn scatter(i: u64, n: u64) -> u64 {
    i.wrapping_mul(2_654_435_761) % n
}

fn key(shape: &Shape, g: u64) -> Value {
    match shape.cells {
        Cells::StrKeys => Value::Str(format!("key-{g:05}").into()),
        _ => Value::Int(g as i64 * 1_000_003 - 77),
    }
}

fn input(shape: &Shape, i: u64) -> Value {
    let v = (i * 37 % 1001) as i64 - 500;
    match (shape.cells, i % 5, i % 7) {
        (Cells::NullFloat, 0, _) => Value::Null,
        (Cells::NullFloat, _, 0) => Value::Float(v as f64 / 4.0),
        _ => Value::Int(v),
    }
}

/// Sender `s`'s raw rows (two senders, rows dealt round-robin).
fn raw_rows(shape: &Shape, s: u64) -> Vec<Vec<Value>> {
    (0..shape.rows)
        .filter(|i| i % 2 == s)
        .map(|i| vec![key(shape, scatter(i, shape.groups)), input(shape, i)])
        .collect()
}

/// `rows` pre-aggregated by an unbounded local table, drained as partials.
fn partials_of(query: &AggQuery, rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut table = AggTable::new(query.clone(), usize::MAX);
    for row in rows {
        table.insert(RowKind::Raw, row, &mut NullTracker).unwrap();
    }
    let mut pages = RowPages::new(4096);
    table.drain_partials(&mut NullTracker, &mut pages).unwrap();
    pages.to_rows()
}

/// The shape's stream: chunks of one kind each, in feeding order.
fn stream(shape: &Shape) -> Vec<(RowKind, Vec<Vec<Value>>)> {
    let query = (shape.query)();
    let mut chunks = Vec::new();
    for s in 0..2 {
        let raws = raw_rows(shape, s);
        match shape.kinds {
            Kinds::Raw => chunks.push((RowKind::Raw, raws)),
            Kinds::Partial => chunks.push((RowKind::Partial, partials_of(&query, &raws))),
            Kinds::SenderMajor => {
                let cut = raws.len() * 2 / 5;
                chunks.push((RowKind::Partial, partials_of(&query, &raws[..cut])));
                chunks.push((RowKind::Raw, raws[cut..].to_vec()));
            }
        }
    }
    chunks
}

fn pages_of(rows: &[Vec<Value>], capacity: usize) -> Vec<Page> {
    let mut pages = vec![Page::new(capacity)];
    for row in rows {
        if !pages.last_mut().unwrap().try_push(row).unwrap() {
            let mut page = Page::new(capacity);
            assert!(page.try_push(row).unwrap());
            pages.push(page);
        }
    }
    pages
}

fn run(shape: &Shape) -> Pin {
    let params = CostParams::paper_default();
    let grant = MemoryGrant::bounded(usize::MAX);
    let mut agg = HashAggregator::new((shape.query)(), shape.max_entries, params.page_bytes, shape.fanout)
        .with_grant(grant.clone());
    let mut rec = Recorder {
        clock: Clock::new(params.clone()),
        counts: CountingTracker::new(),
    };
    let chunks = stream(shape);
    let total: usize = chunks.iter().map(|(_, rows)| rows.len()).sum();
    let mut fed = 0;
    let tick = |fed: &mut usize, n: usize| {
        let before = *fed;
        *fed += n;
        if let Some(to) = shape.shrink_to {
            if before < total / 2 && *fed >= total / 2 {
                grant.set(to);
            }
        }
    };
    for (kind, rows) in &chunks {
        match shape.feed {
            Feed::Rows => {
                for row in rows {
                    agg.push(*kind, row, &mut rec).unwrap();
                    tick(&mut fed, 1);
                }
            }
            Feed::Pages => {
                for page in pages_of(rows, params.message_bytes) {
                    agg.push_page(*kind, &page, &mut rec).unwrap();
                    tick(&mut fed, page.tuple_count());
                }
            }
            Feed::Scanned => {
                assert_eq!(*kind, RowKind::Raw);
                let base: Vec<Vec<Value>> = rows
                    .iter()
                    .map(|r| vec![r[0].clone(), r[1].clone(), Value::Str("pad".into())])
                    .collect();
                for page in pages_of(&base, params.page_bytes) {
                    let n = page.tuple_count();
                    let sel: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 1).collect();
                    // The select charges the batch owes are the consumer's
                    // to record, with its own.
                    let batch = ScanBatch::scanned(&page, &[0, 1], Some(&sel), n).unwrap();
                    let out = agg.push_batch(*kind, &batch, &mut rec).unwrap();
                    assert_eq!(out.consumed, n);
                    tick(&mut fed, n);
                }
            }
        }
    }
    let mut digest = Fnv::new();
    let mut buf = Vec::new();
    let mut emit = |row: Vec<Value>| {
        buf.clear();
        encode_tuple(&row, &mut buf);
        digest.bytes(&buf);
    };
    let (rows, stats) = match shape.finish {
        Finish::Rows => {
            let (mut rows, stats) = agg.finish_rows(&mut rec).unwrap();
            let n = rows.len();
            sort_rows(&mut rows);
            rows.into_iter().for_each(|r| emit(r.into_values()));
            (n, stats)
        }
        Finish::Partials => {
            let (pages, stats) = agg.finish_partials(&mut rec).unwrap();
            let rows = pages.to_rows();
            let n = rows.len();
            rows.into_iter().for_each(&mut emit);
            (n, stats)
        }
    };
    Pin {
        name: shape.name,
        rows_digest: digest.0,
        rows,
        stats: stats_of(&stats),
        counts: CostEvent::ALL.map(|e| rec.counts.count(e)),
        ticks: rec.clock.now(),
    }
}

/// Captured on commit 59d95a3 (the row-at-a-time bucket drain); counts,
/// ticks and the `finish_rows` row digests as the module docs say.
const PINS: &[Pin] = &[
    Pin {
        name: "raw_rows_fit",
        rows_digest: 0xbb9a807e38abcc4d,
        rows: 50,
        stats: [600, 0, 50, 0, 0, 0, 828, 50, 3, 0, 0, 0, 0, 0, 45],
        counts: [600, 50, 600, 600, 0, 0, 0, 0, 0],
        ticks: 15_125_000_000, // was 15.125000000000117 ms
    },
    Pin {
        name: "raw_pages_fit",
        rows_digest: 0xbb9a807e38abcc4d,
        rows: 50,
        stats: [600, 0, 50, 0, 0, 0, 828, 50, 3, 0, 0, 0, 0, 0, 45],
        counts: [600, 50, 600, 600, 0, 0, 0, 0, 0],
        ticks: 15_125_000_000, // was 15.125000000000117 ms
    },
    Pin {
        name: "raw_pages_one_level",
        rows_digest: 0x9ebc0e2f97b1b169,
        rows: 300,
        stats: [4000, 0, 300, 3118, 8, 1, 12002, 64, 27, 0, 0, 0, 0, 0, 45],
        counts: [10236, 3418, 7118, 4000, 0, 25, 25, 0, 0],
        ticks: 243_995_000_000, // was 243.99499999990505 ms
    },
    Pin {
        name: "raw_rows_one_level",
        rows_digest: 0x9ebc0e2f97b1b169,
        rows: 300,
        stats: [4000, 0, 300, 3118, 8, 1, 12002, 64, 27, 0, 0, 0, 0, 0, 45],
        counts: [10236, 3418, 7118, 4000, 0, 25, 25, 0, 0],
        ticks: 243_995_000_000, // was 243.99499999990505 ms
    },
    Pin {
        name: "raw_pages_deep",
        rows_digest: 0x4dc038d1aa909de8,
        rows: 2000,
        stats: [6000, 0, 2000, 15414, 86, 4, 43590, 32, 261, 0, 0, 0, 0, 0, 45],
        counts: [36828, 17414, 21414, 6000, 0, 158, 158, 0, 0],
        ticks: 942_285_000_000, // was 942.2850000010029 ms
    },
    Pin {
        name: "raw_rows_deep",
        rows_digest: 0x4dc038d1aa909de8,
        rows: 2000,
        stats: [6000, 0, 2000, 15414, 86, 4, 43590, 32, 261, 0, 0, 0, 0, 0, 45],
        counts: [36828, 17414, 21414, 6000, 0, 158, 158, 0, 0],
        ticks: 942_285_000_000, // was 942.2850000010029 ms
    },
    Pin {
        name: "partial_pages_deep",
        rows_digest: 0x4dc038d1aa909de8,
        rows: 2000,
        stats: [0, 2000, 2000, 5138, 86, 4, 14530, 32, 261, 0, 0, 0, 0, 0, 45],
        counts: [12276, 7138, 7138, 2000, 0, 114, 114, 0, 0],
        ticks: 458_495_000_000, // was 458.49499999987256 ms
    },
    Pin {
        name: "partial_pages_one_level",
        rows_digest: 0x5e3ab72bbcf5f6ff,
        rows: 300,
        stats: [0, 300, 300, 236, 8, 1, 904, 64, 63, 0, 0, 0, 0, 0, 95],
        counts: [772, 536, 536, 300, 0, 8, 8, 0, 0],
        ticks: 33_140_000_000, // was 33.14000000000049 ms
    },
    Pin {
        name: "mixed_pages_one_level",
        rows_digest: 0x9ebc0e2f97b1b169,
        rows: 300,
        stats: [2400, 300, 300, 2124, 8, 1, 8136, 64, 27, 0, 0, 0, 0, 0, 45],
        counts: [6948, 2424, 4824, 2700, 0, 19, 19, 0, 0],
        ticks: 170_360_000_000, // was 170.35999999994976 ms
    },
    Pin {
        name: "mixed_pages_deep",
        rows_digest: 0xd76897b9b650d2c2,
        rows: 1500,
        stats: [3600, 1500, 1500, 21408, 85, 6, 119011, 24, 258, 0, 0, 0, 0, 0, 45],
        counts: [47916, 22908, 26508, 5100, 0, 210, 210, 0, 0],
        ticks: 1_202_970_000_000, // was 1202.9700000008595 ms
    },
    Pin {
        name: "mixed_rows_deep",
        rows_digest: 0xd76897b9b650d2c2,
        rows: 1500,
        stats: [3600, 1500, 1500, 15925, 117, 4, 93560, 24, 354, 0, 0, 0, 0, 0, 45],
        counts: [36950, 17425, 21025, 5100, 0, 209, 209, 0, 0],
        ticks: 1_049_887_500_000, // was 1049.887500001023 ms
    },
    Pin {
        name: "mixed_pages_sum_only",
        rows_digest: 0xecdcf38003936cb0,
        rows: 1500,
        stats: [3600, 1500, 1500, 13297, 84, 3, 81571, 24, 170, 0, 0, 0, 0, 0, 37],
        counts: [31694, 14797, 18397, 5100, 0, 145, 145, 0, 0],
        ticks: 830_417_500_000, // was 830.4175000006445 ms
    },
    Pin {
        name: "str_keys_pages_deep",
        rows_digest: 0x9383072852715fa7,
        rows: 1200,
        stats: [5000, 0, 1200, 10343, 83, 3, 43292, 40, 168, 84, 84, 0, 0, 0, 61],
        counts: [25686, 11543, 15343, 5000, 0, 146, 146, 0, 0],
        ticks: 748_232_500_000, // was 748.2325000003386 ms
    },
    Pin {
        name: "str_keys_mixed",
        rows_digest: 0xced5ded106dd8c7d,
        rows: 400,
        stats: [2400, 400, 400, 2352, 8, 1, 8757, 64, 18, 9, 9, 0, 0, 0, 61],
        counts: [7504, 2752, 5152, 2800, 0, 23, 23, 0, 0],
        ticks: 188_580_000_000, // was 188.57999999994007 ms
    },
    Pin {
        name: "null_float_pages_deep",
        rows_digest: 0x0c0f023ee9147252,
        rows: 1200,
        stats: [5000, 0, 1200, 10340, 84, 3, 46165, 40, 275, 320, 0, 320, 0, 0, 228],
        counts: [25680, 11540, 15340, 5000, 0, 131, 131, 0, 0],
        ticks: 713_650_000_000, // was 713.6500000002683 ms
    },
    Pin {
        name: "null_float_mixed",
        rows_digest: 0x6d530290bc767ae0,
        rows: 400,
        stats: [2400, 400, 400, 2352, 8, 1, 8330, 64, 27, 36, 0, 9, 27, 0, 228],
        counts: [7504, 2752, 5152, 2800, 0, 24, 24, 0, 0],
        ticks: 190_880_000_000, // was 190.87999999993983 ms
    },
    Pin {
        name: "scanned_filtered_deep",
        rows_digest: 0xcbdef374f4e12295,
        rows: 2000,
        stats: [3986, 0, 2000, 10111, 84, 3, 31230, 32, 255, 0, 0, 0, 0, 0, 45],
        counts: [30208, 16097, 14097, 3986, 0, 126, 126, 0, 0],
        ticks: 727_467_500_000, // was 727.4675000003132 ms
    },
    Pin {
        name: "raw_pages_deep_partials_out",
        rows_digest: 0xac0c6aa9ea044523,
        rows: 2000,
        stats: [6000, 0, 2000, 15414, 86, 4, 43590, 32, 609, 0, 0, 0, 0, 0, 95],
        counts: [36828, 17414, 21414, 6000, 0, 158, 158, 0, 0],
        ticks: 942_285_000_000, // was 942.2850000010029 ms
    },
    Pin {
        name: "grant_shrunk_pages",
        rows_digest: 0x9ebc0e2f97b1b169,
        rows: 300,
        stats: [4000, 0, 300, 2913, 50, 2, 7033, 150, 153, 0, 0, 0, 0, 0, 45],
        counts: [9826, 3213, 6913, 4000, 0, 60, 60, 0, 0],
        ticks: 318_857_500_000, // was 318.8574999999138 ms
    },
    Pin {
        name: "grant_shrunk_mixed_rows",
        rows_digest: 0x9ebc0e2f97b1b169,
        rows: 300,
        stats: [2400, 300, 300, 1980, 50, 2, 4761, 150, 153, 0, 0, 0, 0, 0, 45],
        counts: [6660, 2280, 4680, 2700, 0, 57, 57, 0, 0],
        ticks: 253_800_000_000, // was 253.7999999999492 ms
    },
];

#[test]
fn overflow_paths_reproduce_their_pins() {
    assert_eq!(PINS.len(), SHAPES.len(), "a pin per shape");
    for (shape, pin) in SHAPES.iter().zip(PINS) {
        assert_eq!(&run(shape), pin, "{}", shape.name);
    }
}

/// The shapes keep exercising what they were chosen for.
#[test]
fn shapes_hit_their_regimes() {
    for (shape, pin) in SHAPES.iter().zip(PINS) {
        let [raw_in, partial_in, _, spilled, _, max_level, ..] = pin.stats;
        let levels = match shape.name {
            n if n.ends_with("_fit") => 0..=0,
            n if n.ends_with("_one_level") => 1..=1,
            n if n.contains("_deep") => 2..=u64::MAX,
            _ => 1..=u64::MAX,
        };
        assert!(levels.contains(&max_level), "{}: {max_level} levels", shape.name);
        assert_eq!(spilled > 0, max_level > 0, "{}", shape.name);
        let kinds = (raw_in > 0, partial_in > 0);
        let expect = match shape.kinds {
            Kinds::Raw => (true, false),
            Kinds::Partial => (false, true),
            Kinds::SenderMajor => (true, true),
        };
        assert_eq!(kinds, expect, "{}", shape.name);
    }
}

#[test]
#[ignore]
fn print_overflow_pins() {
    println!("const PINS: &[Pin] = &[");
    for shape in SHAPES {
        let p = run(shape);
        println!("    Pin {{");
        println!("        name: {:?},", p.name);
        println!("        rows_digest: {:#018x},", p.rows_digest);
        println!("        rows: {},", p.rows);
        println!("        stats: {:?},", p.stats);
        println!("        counts: {:?},", p.counts);
        println!("        ticks: {}, // {} ms", p.ticks, ticks_to_ms(p.ticks));
        println!("    }},");
    }
    println!("];");
}
