//! Scan/project and store operators.
//!
//! Cost model mapping (paper §2.1):
//!
//! * scan: `(R_i/P) * IO` — one sequential page read per page, charged by
//!   the scan ([`ScanCharge::page_read`]);
//! * select, "getting tuple off data page": `|R_i| * (t_r + t_w)` — per
//!   tuple (the `t_w` is the copy out of the page buffer; projection rides
//!   along). Every scanned page reaches its consumer as a batch, which
//!   records these with its own charges, as counts, paid before anything
//!   it does reads the clock (DESIGN.md §21);
//! * store: `(result_bytes/P) * IO` page writes plus nothing per tuple —
//!   the `t_w` of "generating result tuples" is charged when the hash
//!   table drains.

use crate::error::ExecError;
use crate::node::NodeCtx;
use adaptagg_hashagg::HashAggregator;
use adaptagg_model::{record_each, CostEvent, CostTracker, ModelError, Predicate, ResultRow, RowKind, Value};
use adaptagg_sortagg::SortAggregator;
use adaptagg_storage::{BatchOutcome, HeapFile, PageView, RowCause, ScanBatch};

/// Where a scan's page charges go, and whose crash schedule it honours:
/// the node itself (its clock, and its crash schedule, whose currency is
/// scanned tuples), or a recording stand-in in the oracle tests.
pub trait ScanCharge {
    /// One sequential page read.
    fn page_read(&mut self);
    /// Tuples that may still be scanned before a scheduled crash (`None`
    /// = no crash scheduled). A page is offered up to this many rows.
    fn crash_budget(&self) -> Option<u64> {
        None
    }
    /// `rows` tuples were consumed as a batch; their select charges were
    /// recorded by the consumer.
    fn batch_scanned(&mut self, _rows: usize) {}
    /// The scan reached the tuple past the crash budget: the node form
    /// fails here with its `InjectedCrash`.
    fn crash_tick(&mut self) -> Result<(), ExecError>;
}

/// What a page scan feeds: every page, as one borrowed [`ScanBatch`] or
/// more. The sink owes the batch's select charges and records them with
/// its own before it returns or reads the clock.
pub trait ScanSink<X> {
    /// Consume a batch's leading rows — all of them, unless the consumer
    /// has a reason to stop (see [`BatchOutcome::consumed`]; at least one
    /// row of a non-empty batch). The scan offers the rest of the page as
    /// a new batch.
    fn batch(&mut self, x: &mut X, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError>;
}

/// The hash local phase: scanned pages go straight into the bounded
/// table's batched insert, spilling what it cannot hold.
impl ScanSink<NodeCtx> for HashAggregator {
    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        Ok(self.push_batch(RowKind::Raw, batch, &mut ctx.clock)?)
    }
}

/// The sort-based local phase: scanned pages go into run formation the
/// same way, sealing a sorted run where the hash table would spill.
impl ScanSink<NodeCtx> for SortAggregator {
    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        Ok(self.push_batch(RowKind::Raw, batch, &mut ctx.clock)?)
    }
}

/// What a [`PageScan`] has done so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanTally {
    /// Tuples that passed the filter and were consumed.
    pub passed: usize,
    /// Pages whose batches the consumer rode the strips of.
    pub pages_batched: u64,
    /// Pages whose batches the consumer took row by row, per
    /// [`RowCause::ALL`].
    pub pages_row: [u64; 3],
}

/// The scan operator: select + project over a heap file's pages, one
/// page at a time. Each page becomes a borrowed [`ScanBatch`] — the
/// page's strips through the projection map, and the WHERE conjunction
/// evaluated column-at-a-time into a selection vector — and a sink that
/// stops early is offered the rest of the page as a new batch.
///
/// Owns its scratch, so a scanner reused across calls allocates nothing
/// per page.
#[derive(Debug)]
pub struct PageScan<'q> {
    filter: &'q [Predicate],
    columns: &'q [usize],
    selection: Vec<u32>,
    tally: ScanTally,
}

impl<'q> PageScan<'q> {
    /// A scan applying the conjunction `filter` (over base columns, before
    /// projection) and projecting passing tuples onto `columns` (empty =
    /// the whole tuple).
    pub fn new(filter: &'q [Predicate], columns: &'q [usize]) -> Self {
        PageScan {
            filter,
            columns,
            selection: Vec::new(),
            tally: ScanTally::default(),
        }
    }

    /// Totals over every [`PageScan::run`] so far.
    pub fn tally(&self) -> ScanTally {
        self.tally
    }

    /// Scan pages `[start_page, end_page)` of `file` into `sink`,
    /// charging `x`.
    pub fn run<X: ScanCharge, S: ScanSink<X>>(
        &mut self,
        x: &mut X,
        file: &HeapFile,
        start_page: usize,
        end_page: usize,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        for pi in start_page..end_page {
            x.page_read();
            let page = file.page(pi)?;
            let n = page.tuple_count();
            // A scheduled crash cuts the page at its tuple.
            let limit = x.crash_budget().map_or(n, |left| n.min(left as usize));
            let (mut from, mut cause) = (0, None);
            while from < limit {
                let batch = select_batch(self.filter, self.columns, page, from..limit, &mut self.selection)?;
                let out = sink.batch(x, &batch)?;
                debug_assert!(out.consumed > 0, "a sink consumes at least one row");
                x.batch_scanned(out.consumed);
                self.tally.passed += out.passed as usize;
                cause = cause.or(out.row_cause);
                from += out.consumed;
            }
            match cause {
                _ if limit == 0 => {}
                None => self.tally.pages_batched += 1,
                Some(cause) => self.tally.pages_row[cause as usize] += 1,
            }
            if limit < n {
                x.crash_tick()?;
            }
        }
        Ok(())
    }
}

/// Rows `rows` of `page` as a batch: the filter evaluated column-at-a-time
/// into `selection` (left unused when there is no filter), the projection
/// resolved to strips. A filter or projected column some row of the page
/// lacks is the typed `ColumnOutOfRange`.
fn select_batch<'a>(
    filter: &[Predicate],
    columns: &'a [usize],
    page: PageView<'a>,
    rows: std::ops::Range<usize>,
    selection: &'a mut Vec<u32>,
) -> Result<ScanBatch<'a>, ModelError> {
    for (i, p) in filter.iter().enumerate() {
        let strip = page.column(p.column).ok_or(ModelError::ColumnOutOfRange {
            column: p.column,
            arity: page.min_arity(),
        })?;
        p.select(strip.slice(rows.clone()), selection, i > 0);
    }
    let selection = (!filter.is_empty()).then_some(selection.as_slice());
    ScanBatch::scanned_rows(page, columns, selection, rows)
}

/// Scan pages `[start_page, end_page)` (clamped to the file) of the
/// node's file `name` into `sink`, charging scan I/O to the node (the
/// sink records the select charges: filtered-out tuples pay `t_r` — they
/// were read off the page — but not the `t_w` copy-out). Returns the
/// number of passing tuples.
///
/// The file is taken out of the disk for the duration of the scan so the
/// sink can freely use `ctx` (including `ctx.disk`). With tracing on, how
/// the consumer took each page lands in the `scan.pages_batched` /
/// `scan.pages_row{cause=…}` counters.
pub fn scan_pages<S: ScanSink<NodeCtx>>(
    ctx: &mut NodeCtx,
    name: &str,
    filter: &[Predicate],
    columns: &[usize],
    start_page: usize,
    end_page: usize,
    sink: &mut S,
) -> Result<usize, ExecError> {
    let file = ctx.disk.take(name)?;
    let mut scan = PageScan::new(filter, columns);
    let result = scan.run(ctx, &file, start_page, end_page.min(file.page_count()), sink);
    ctx.disk.put(name, file);
    let tally = scan.tally();
    // A counter is registered by its first update: only name what happened.
    let mut count = |counter, pages| {
        if pages > 0 {
            ctx.trace.counter_add(counter, pages);
        }
    };
    count("scan.pages_batched", tally.pages_batched);
    for cause in RowCause::ALL {
        count(cause.counter(), tally.pages_row[cause as usize]);
    }
    result.map(|()| tally.passed)
}

/// A row callback over the batch scan ([`scan_project`]).
struct RowFeed<F> {
    consume: F,
    row: Vec<Value>,
}

impl<F> ScanSink<NodeCtx> for RowFeed<F>
where
    F: FnMut(&mut NodeCtx, &[Value]) -> Result<(), ExecError>,
{
    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        // Each row's select charge, in row order, ahead of its callback.
        let mut next = 0;
        for i in 0..batch.passing() {
            let r = batch.passing_row(i);
            record_each(&mut ctx.clock, batch.fail_charge(), (r - next) as u64);
            record_each(&mut ctx.clock, batch.pass_lead(), 1);
            next = r + 1;
            batch.read_row(r, &mut self.row);
            (self.consume)(ctx, &self.row)?;
        }
        record_each(&mut ctx.clock, batch.fail_charge(), (batch.rows() - next) as u64);
        Ok(BatchOutcome {
            consumed: batch.rows(),
            passed: batch.passing() as u64,
            ..BatchOutcome::default()
        })
    }
}

/// Sequentially scan the node's file `name`, apply the WHERE conjunction
/// `filter` (over base columns, before projection), project each passing
/// tuple onto `columns`, and feed it to `consume` — [`scan_pages`] for a
/// row-at-a-time consumer, each row read off the batch's strips.
///
/// `consume` receives the node context back, so it can route tuples into
/// exchanges or hash tables (which charge their own costs). The tuple
/// slice is only valid for the duration of the call — the scan reuses its
/// scratch row across tuples; copy (`to_vec`) to retain.
pub fn scan_project<F>(
    ctx: &mut NodeCtx,
    name: &str,
    filter: &[Predicate],
    columns: &[usize],
    consume: F,
) -> Result<usize, ExecError>
where
    F: FnMut(&mut NodeCtx, &[Value]) -> Result<(), ExecError>,
{
    let mut sink = RowFeed {
        consume,
        row: Vec::new(),
    };
    scan_pages(ctx, name, filter, columns, 0, usize::MAX, &mut sink)
}

/// Store finalized result rows into the node's `result` file, charging one
/// sequential page write per result page. Each row is appended cell by
/// cell where it lies (key, then aggregates), in the order given — each
/// table's rows in key order. Rows of one wire width fill the same number
/// of pages in any order; rows of mixed widths may not (DESIGN.md §23).
pub fn store_results(ctx: &mut NodeCtx, rows: &[ResultRow]) -> Result<(), ExecError> {
    let page_bytes = ctx.params().page_bytes;
    let file = ctx.disk.get_or_create("result", page_bytes);
    for row in rows {
        file.append_row(row)?;
    }
    let pages = ctx.disk.get("result")?.page_count() as u64;
    // Charge all result pages once, at the end of the store (the file may
    // be appended to only once per run).
    ctx.clock.record(CostEvent::PageWriteSeq, pages);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{CostParams, GroupKey, NetworkKind};
    use adaptagg_net::Fabric;
    use adaptagg_storage::SimDisk;

    fn ctx_with_file(tuples: &[Vec<Value>], page_bytes: usize) -> NodeCtx {
        let mut eps = Fabric::new(1, NetworkKind::high_speed_default()).into_endpoints();
        let file =
            HeapFile::from_tuples(page_bytes, tuples.iter().map(|t| t.as_slice())).unwrap();
        let mut disk = SimDisk::new();
        disk.put("base", file);
        NodeCtx::new(eps.pop().unwrap(), disk, CostParams::paper_default())
    }

    #[test]
    fn scan_projects_and_charges() {
        let tuples: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2), Value::Str("pad".into())])
            .collect();
        let mut ctx = ctx_with_file(&tuples, 128);
        let mut seen = Vec::new();
        let n = scan_project(&mut ctx, "base", &[], &[1, 0], |_ctx, vals| {
            seen.push(vals.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 10);
        assert_eq!(seen[3], vec![Value::Int(6), Value::Int(3)]);

        // Charges: 10 t_r + 10 t_w + pages * IO.
        let b = ctx.clock.breakdown();
        let p = CostParams::paper_default();
        let expect_cpu = 10.0 * (p.t_read() + p.t_write());
        assert!((b.cpu_ms - expect_cpu).abs() < 1e-9, "cpu {}", b.cpu_ms);
        assert!(b.io_ms > 0.0);
        // File still present afterwards.
        assert!(ctx.disk.get("base").is_ok());
    }

    #[test]
    fn range_scan_splits_cover_the_full_scan_exactly() {
        // Scanning [0, k) then [k, end) must see the same tuples and
        // charge the same costs as one full scan.
        let tuples: Vec<Vec<Value>> = (0..40).map(|i| vec![Value::Int(i)]).collect();
        let mut full_ctx = ctx_with_file(&tuples, 128);
        let mut full = Vec::new();
        scan_project(&mut full_ctx, "base", &[], &[], |_ctx, vals| {
            full.push(vals.to_vec());
            Ok(())
        })
        .unwrap();

        let mut ctx = ctx_with_file(&tuples, 128);
        let pages = ctx.disk.get("base").unwrap().page_count();
        assert!(pages >= 2, "need a multi-page file for the split");
        let mut seen = Vec::new();
        for (a, b) in [(0, pages / 2), (pages / 2, pages)] {
            let mut sink = RowFeed {
                consume: |_: &mut NodeCtx, vals: &[Value]| {
                    seen.push(vals.to_vec());
                    Ok(())
                },
                row: Vec::new(),
            };
            scan_pages(&mut ctx, "base", &[], &[], a, b, &mut sink).unwrap();
        }
        assert_eq!(seen, full);
        assert_eq!(ctx.clock.now_ms(), full_ctx.clock.now_ms());
    }

    #[test]
    fn range_scan_clamps_past_the_end() {
        let tuples = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let mut ctx = ctx_with_file(&tuples, 128);
        let mut n = 0;
        let mut sink = RowFeed {
            consume: |_: &mut NodeCtx, _: &[Value]| {
                n += 1;
                Ok(())
            },
            row: Vec::new(),
        };
        scan_pages(&mut ctx, "base", &[], &[], 0, 999, &mut sink).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn filter_columns_need_not_be_projected() {
        let tuples: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2), Value::Str("pad".into())])
            .collect();
        let mut ctx = ctx_with_file(&tuples, 128);
        let filter = [Predicate::new(
            1,
            adaptagg_model::Compare::Ge,
            Value::Int(10),
        )];
        let mut seen = Vec::new();
        scan_project(&mut ctx, "base", &filter, &[0], |_ctx, vals| {
            seen.push(vals.to_vec());
            Ok(())
        })
        .unwrap();
        let expect: Vec<Vec<Value>> = (5..10).map(|i| vec![Value::Int(i)]).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scan_empty_projection_passes_whole_tuple() {
        let tuples = vec![vec![Value::Int(5), Value::Int(6)]];
        let mut ctx = ctx_with_file(&tuples, 128);
        scan_project(&mut ctx, "base", &[], &[], |_ctx, vals| {
            assert_eq!(vals.len(), 2);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn scan_missing_file_errors() {
        let mut ctx = ctx_with_file(&[], 128);
        let r = scan_project(&mut ctx, "nope", &[], &[], |_, _| Ok(()));
        assert!(r.is_err());
    }

    #[test]
    fn scan_bad_column_errors() {
        let tuples = vec![vec![Value::Int(1)]];
        let mut ctx = ctx_with_file(&tuples, 128);
        let r = scan_project(&mut ctx, "base", &[], &[4], |_, _| Ok(()));
        assert!(r.is_err());
        // File restored even on error.
        assert!(ctx.disk.get("base").is_ok());
    }

    #[test]
    fn store_writes_rows_and_charges_pages() {
        let mut ctx = ctx_with_file(&[], 4096);
        let rows: Vec<ResultRow> = (0..100)
            .map(|i| {
                ResultRow::new(
                    GroupKey::new(vec![Value::Int(i)]),
                    vec![Value::Int(i * 10)],
                )
            })
            .collect();
        store_results(&mut ctx, &rows).unwrap();
        let f = ctx.disk.get("result").unwrap();
        assert_eq!(f.tuple_count(), 100);
        assert!(ctx.clock.breakdown().io_ms > 0.0);
    }

    /// Rows appended where they lie fill the pages the flattened rows
    /// would: byte-equal under `encode_into`, one page write each.
    #[test]
    fn stored_results_are_the_pages_of_their_flattened_rows() {
        let rows: Vec<ResultRow> = (0..700i64)
            .map(|i| {
                let key = match i % 9 {
                    4 => Value::Str(format!("k{i}").into()),
                    _ => Value::Int(i),
                };
                let avg = if i % 5 == 0 { Value::Null } else { Value::Float(i as f64 / 3.0) };
                ResultRow::new(GroupKey::new(vec![key]), vec![Value::Int(i * 10), avg])
            })
            .collect();
        for rows in [&rows[..300], &rows[..]] {
            let mut ctx = ctx_with_file(&[], 4096);
            store_results(&mut ctx, rows).unwrap();
            let flat = rows.iter().map(|r| r.clone().into_values()).collect::<Vec<_>>();
            let expect = HeapFile::from_tuples(4096, flat.iter().map(Vec::as_slice)).unwrap();
            let got = ctx.disk.get("result").unwrap();
            assert_eq!(got.page_count(), expect.page_count());
            for p in 0..got.page_count() {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                got.page(p).unwrap().encode_into(&mut a);
                expect.page(p).unwrap().encode_into(&mut b);
                assert_eq!(a, b, "page {p}");
            }
            let io = CostParams::paper_default().io_seq_ms * expect.page_count() as f64;
            assert!((ctx.clock.breakdown().io_ms - io).abs() < 1e-9, "one write a page");
        }
    }

    /// Rows of one wire width pack into the same pages in any order: the
    /// result file's page count, and so its page-write charge, is the same
    /// for rows in admission order and in key order.
    #[test]
    fn equal_width_results_store_the_same_pages_in_any_order() {
        let rows: Vec<ResultRow> = (0..1_000i64)
            .map(|i| {
                let g = (i * 7_919) % 1_000 - 500;
                ResultRow::new(GroupKey::new(vec![Value::Int(g)]), vec![Value::Int(g * 3), Value::Int(i)])
            })
            .collect();
        let mut sorted = rows.clone();
        adaptagg_model::query::sort_rows(&mut sorted);
        assert_ne!(rows, sorted);
        let stored = |rows: &[ResultRow]| {
            let mut ctx = ctx_with_file(&[], 4096);
            store_results(&mut ctx, rows).unwrap();
            (ctx.disk.get("result").unwrap().page_count(), ctx.clock.now())
        };
        let (pages, ticks) = stored(&rows);
        assert!(pages > 1);
        assert_eq!(stored(&sorted), (pages, ticks));
    }

    #[test]
    fn consumer_can_use_ctx_disk() {
        // The scan must not hold a borrow that blocks the consumer from
        // writing to another file on the same disk.
        let tuples = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let mut ctx = ctx_with_file(&tuples, 128);
        scan_project(&mut ctx, "base", &[], &[], |ctx, vals| {
            ctx.disk
                .get_or_create("copy", 128)
                .append(vals)
                .map_err(ExecError::from)
        })
        .unwrap();
        assert_eq!(ctx.disk.get("copy").unwrap().tuple_count(), 2);
    }
}
