//! The hash-partitioning exchange operator.
//!
//! Routes rows to nodes by hashing their group-key columns with
//! [`Seed::Partition`], blocking them into 2 KB message pages per
//! destination (§5), and handling end-of-stream markers. Used by:
//!
//! * Repartitioning — raw tuples, `charge_hash = true` (the paper's select
//!   cost there is `t_r + t_w + t_h + t_d`);
//! * Two Phase / A2P partial shipping — pages of partial rows drained
//!   from a group table ([`Exchange::flush_table`],
//!   [`Exchange::route_partials`]), `charge_hash = false` (the rows just
//!   came out of a hash table; only `t_d` is charged);
//! * C2P, Sampling's sample keys — a fixed destination via
//!   [`Exchange::send_page_to`] (no hash, no dest computation).
//!
//! Rows reach the wire by one of two routes, both reading cells where they
//! lie: a batch ([`Exchange::route_batch`], one hash kernel pass over its
//! key strips) or a single row ([`Exchange::route_row`] — a row a full
//! table bounced, a row of a ragged page, a slice of values), and both
//! land a row on the same page at the same charges.
//!
//! A single exchange instance must carry one [`DataKind`] at a time;
//! switching kinds flushes automatically (A2P flushes its partials before
//! forwarding raws, so this matches the algorithm's structure).

use crate::error::ExecError;
use crate::node::NodeCtx;
use crate::operators::ScanSink;
use adaptagg_hashagg::AggTable;
use adaptagg_model::hash::{hash_cells, Seed};
use adaptagg_model::{record_each, CellRow, CostEvent, CostTracker, IndexRow, Value};
use adaptagg_net::{Blocker, Control, DataKind};
use adaptagg_storage::{BatchCharges, BatchOutcome, Page, RowPages, ScanBatch};

/// Per-row cost template for a hash route (`t_h + t_d`).
const ROUTE_WITH_HASH: [CostEvent; 2] = [CostEvent::TupleHash, CostEvent::TupleDest];
/// Per-row cost template for a route of pre-hashed rows (`t_d` only).
const ROUTE_NO_HASH: [CostEvent; 1] = [CostEvent::TupleDest];

fn route_template(charge_hash: bool) -> &'static [CostEvent] {
    if charge_hash {
        &ROUTE_WITH_HASH
    } else {
        &ROUTE_NO_HASH
    }
}

/// A partitioned, blocked sender.
#[derive(Debug)]
pub struct Exchange {
    blocker: Blocker,
    key_len: usize,
    kind: DataKind,
    /// Pooled per-batch hash vector for the batched route.
    hash_scratch: Vec<u64>,
}

impl Exchange {
    /// An exchange over `nodes` destinations. `key_len` is the number of
    /// leading key columns of every row (group-by columns in projected
    /// form — identical for raw and partial rows). `message_bytes` is the
    /// wire block size.
    pub fn new(nodes: usize, message_bytes: usize, key_len: usize, kind: DataKind) -> Self {
        Exchange {
            blocker: Blocker::new(nodes, message_bytes),
            key_len,
            kind,
            hash_scratch: Vec::new(),
        }
    }

    /// Route a row, read where it lies, to the owner of its first
    /// `key_len` cells (all of them when it is shorter). Charges `t_d`
    /// (destination computation) and, when `charge_hash`, `t_h` — see
    /// module docs. Sends a message page whenever the destination's block
    /// fills.
    pub fn route_row<R: IndexRow + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx,
        row: &R,
        charge_hash: bool,
    ) -> Result<(), ExecError> {
        if charge_hash {
            ctx.clock.record(CostEvent::TupleHash, 1);
        }
        ctx.clock.record(CostEvent::TupleDest, 1);
        let hash = hash_cells(Seed::Partition, row, self.key_len);
        let dest = (hash % self.blocker.destinations() as u64) as usize;
        self.push_to(ctx, dest, row)
    }

    /// [`Exchange::route_row`] of a slice of values.
    pub fn route(&mut self, ctx: &mut NodeCtx, values: &[Value], charge_hash: bool) -> Result<(), ExecError> {
        self.route_row(ctx, values, charge_hash)
    }

    /// Block a row for `dest`, sending the message page that seals.
    fn push_to<R: CellRow + ?Sized>(
        &mut self,
        ctx: &mut NodeCtx,
        dest: usize,
        row: &R,
    ) -> Result<(), ExecError> {
        if let Some(page) = self.blocker.add_pooled(dest, row, &mut ctx.page_pool)? {
            ctx.send_page(dest, self.kind, page)?;
        }
        Ok(())
    }

    /// Route every tuple on a page (a page of drained partial rows, a
    /// received block being forwarded) — the page-batched counterpart of
    /// calling [`Exchange::route_row`] per row, at its charges, send
    /// timestamps and clock: the page is the trivial batch
    /// ([`Exchange::route_batch`]). A ragged page has no strips to ride;
    /// its rows take `route_row` where they lie.
    pub fn route_page(
        &mut self,
        ctx: &mut NodeCtx,
        page: &Page,
        charge_hash: bool,
    ) -> Result<(), ExecError> {
        match ScanBatch::whole(page) {
            Some(batch) => self.route_batch(ctx, &batch, charge_hash).map(|_| ()),
            None => page.rows().try_for_each(|row| self.route_row(ctx, &row, charge_hash)),
        }
    }

    /// Send every tuple on a page to one explicit destination (C2P's
    /// coordinator) — the fixed-destination twin of
    /// [`Exchange::route_page`], re-blocking the rows strip to strip into
    /// `dest`'s message pages. Charges nothing per tuple beyond the
    /// blocking copy (`t_w` is charged by the producer when it generated
    /// the row).
    pub fn send_page_to(
        &mut self,
        ctx: &mut NodeCtx,
        dest: usize,
        page: &Page,
    ) -> Result<(), ExecError> {
        page.rows().try_for_each(|row| self.push_to(ctx, dest, &row))
    }

    /// Route pages of partial rows to the owners of their groups under
    /// [`DataKind::Partial`] — whatever the exchange was carrying is
    /// flushed first — and leave the exchange carrying `then`. Only `t_d`
    /// is charged: the rows came out of a hash table. Each page is freed
    /// as soon as it is routed.
    pub fn route_partials(
        &mut self,
        ctx: &mut NodeCtx,
        partials: RowPages,
        then: DataKind,
    ) -> Result<(), ExecError> {
        self.switch_kind(ctx, DataKind::Partial)?;
        for page in partials.into_pages() {
            self.route_page(ctx, &page, false)?;
        }
        self.switch_kind(ctx, then)
    }

    /// Drain `table` (`t_w` per group, charged before anything is routed)
    /// and [`Exchange::route_partials`] what it held: the one way a group
    /// table's partials reach the wire — A2P's switch and end of scan,
    /// ARep's fallback, optimized 2P's final drain.
    pub fn flush_table(
        &mut self,
        ctx: &mut NodeCtx,
        table: &mut AggTable,
        then: DataKind,
    ) -> Result<(), ExecError> {
        let mut partials = RowPages::new(ctx.params().page_bytes);
        table.drain_partials(&mut ctx.clock, &mut partials)?;
        self.route_partials(ctx, partials, then)
    }

    /// Route every passing row of a batch, column-at-a-time: one
    /// [`Seed::Partition`] hash kernel pass over the key strips
    /// ([`ScanBatch::hash_keys`]) computes the destinations, then the rows
    /// are appended in order to their
    /// destination's open message page strip to strip — no `Value` row
    /// between the source page and the message page.
    ///
    /// Charges are the row loop's: each passing row owes
    /// `batch.pass_lead()` and the route template, each filtered-out row
    /// `batch.fail_charge()`. They are recorded as counts, and the routed
    /// rows' are paid before every page send, whose timestamp reads the
    /// clock (and before an error surfaces, whose failure time does) — so
    /// send timestamps, and with them every receiver's Lamport
    /// observations, are those of [`Exchange::route_row`] per row.
    pub fn route_batch(
        &mut self,
        ctx: &mut NodeCtx,
        batch: &ScanBatch<'_>,
        charge_hash: bool,
    ) -> Result<BatchOutcome, ExecError> {
        let rows = batch.rows();
        let passing = batch.passing();
        let mut hashes = std::mem::take(&mut self.hash_scratch);
        if passing > 0 {
            batch.hash_keys(Seed::Partition, self.key_len, &mut hashes);
        }

        let template = route_template(charge_hash);
        let mut charges = BatchCharges::default();
        let dests = self.blocker.destinations() as u64;
        // The first row not yet accounted for.
        let mut next = 0usize;
        let mut result = Ok(());
        for i in 0..passing {
            let r = batch.passing_row(i);
            record_each(&mut ctx.clock, batch.fail_charge(), (r - next) as u64);
            next = r + 1;
            charges.accepted();
            let dest = (hashes[r] % dests) as usize;
            let sent = match self.blocker.add_strips_pooled(dest, batch, r, &mut ctx.page_pool) {
                Ok(None) => Ok(()),
                Ok(Some(page)) => {
                    charges.flush(&mut ctx.clock, batch, template);
                    ctx.send_page(dest, self.kind, page)
                }
                Err(e) => Err(e.into()),
            };
            if sent.is_err() {
                result = sent;
                break;
            }
        }
        charges.flush(&mut ctx.clock, batch, template);
        self.hash_scratch = hashes;
        result?;
        record_each(&mut ctx.clock, batch.fail_charge(), (rows - next) as u64);
        Ok(BatchOutcome {
            consumed: rows,
            passed: passing as u64,
            ..BatchOutcome::default()
        })
    }

    /// Switch the data kind, flushing any buffered pages of the old kind
    /// first (A2P: partial flush → raw forwarding).
    pub fn switch_kind(&mut self, ctx: &mut NodeCtx, kind: DataKind) -> Result<(), ExecError> {
        if kind != self.kind {
            self.flush(ctx)?;
            self.kind = kind;
        }
        Ok(())
    }

    /// Send all buffered partial pages.
    pub fn flush(&mut self, ctx: &mut NodeCtx) -> Result<(), ExecError> {
        for (dest, page) in self.blocker.flush() {
            ctx.send_page(dest, self.kind, page)?;
        }
        Ok(())
    }

    /// Flush and send `EndOfStream` to **every** node (including self):
    /// receivers complete a phase after one EOS per node.
    pub fn finish(mut self, ctx: &mut NodeCtx) -> Result<(), ExecError> {
        self.flush(ctx)?;
        for dest in 0..ctx.nodes() {
            ctx.send_control(dest, Control::EndOfStream)?;
        }
        Ok(())
    }
}

/// Repartitioning's scan side: scanned pages cross the exchange a batch
/// at a time, hash and destination charged per raw tuple (§2.3).
impl ScanSink<NodeCtx> for Exchange {
    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        self.route_batch(ctx, batch, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{scan_pages, scan_project};
    use adaptagg_model::hash::hash_values;
    use adaptagg_model::{
        AggFunc, AggQuery, AggSpec, Compare, CostParams, NetworkKind, NullTracker, Predicate, RowKind,
    };
    use adaptagg_net::{Fabric, Payload};
    use adaptagg_storage::{HeapFile, SimDisk, StorageError};

    fn cluster_of(n: usize) -> Vec<NodeCtx> {
        Fabric::new(n, NetworkKind::high_speed_default())
            .into_endpoints()
            .into_iter()
            .map(|ep| NodeCtx::new(ep, SimDisk::new(), CostParams::paper_default()))
            .collect()
    }

    fn row(g: i64) -> Vec<Value> {
        vec![Value::Int(g), Value::Int(1)]
    }

    /// The owner of `row(g)`'s group among `nodes` nodes.
    fn owner(nodes: u64, g: i64) -> usize {
        (hash_values(Seed::Partition, &row(g)[..1]) % nodes) as usize
    }

    #[test]
    fn same_key_always_same_destination() {
        let mut ctxs = cluster_of(4);
        let mut ex = Exchange::new(4, 2048, 1, DataKind::Raw);
        for g in (0..100).chain(0..100) {
            ex.route(&mut ctxs[0], &row(g), true).unwrap();
        }
        ex.finish(&mut ctxs[0]).unwrap();
        for (node, pages) in sent_pages(&mut ctxs).into_iter().enumerate() {
            let mut keys: Vec<i64> = pages.iter().flat_map(|(_, rows)| rows.iter().map(|r| r[0].as_i64().unwrap())).collect();
            assert!(keys.iter().all(|&g| owner(4, g) == node), "node {node} got a key it does not own");
            keys.sort_unstable();
            assert!(keys.chunks(2).all(|pair| pair.len() == 2 && pair[0] == pair[1]), "both copies of a key meet");
        }
    }

    #[test]
    fn route_blocks_then_sends_and_finish_flushes() {
        let mut ctxs = cluster_of(2);
        let mut rx = ctxs.pop().unwrap(); // node 1
        let mut tx = ctxs.pop().unwrap(); // node 0

        let mut ex = Exchange::new(2, 2048, 1, DataKind::Raw);
        let mut to_node1 = 0;
        for g in 0..500 {
            if owner(2, g) == 1 {
                to_node1 += 1;
            }
            ex.route(&mut tx, &row(g), true).unwrap();
        }
        ex.finish(&mut tx).unwrap();

        // Count tuples arriving at node 1 (EOS from node 0 only; node 1
        // would normally EOS itself — emulate that).
        rx.send_control(1, Control::EndOfStream).unwrap();
        let mut got = 0;
        let mut eos = 0;
        while eos < 2 {
            let msg = rx.recv().unwrap();
            match msg.payload {
                Payload::Data { kind, page } => {
                    assert_eq!(kind, DataKind::Raw);
                    got += page.tuple_count();
                }
                Payload::Control(Control::EndOfStream) => eos += 1,
                _ => panic!("unexpected control"),
            }
        }
        assert_eq!(got, to_node1);
    }

    #[test]
    fn self_routed_tuples_also_arrive() {
        let mut ctxs = cluster_of(1);
        let mut n0 = ctxs.pop().unwrap();
        let mut ex = Exchange::new(1, 2048, 1, DataKind::Partial);
        for g in 0..10 {
            ex.route(&mut n0, &row(g), false).unwrap();
        }
        ex.finish(&mut n0).unwrap();
        let mut got = 0;
        let mut eos = 0;
        while eos < 1 {
            match n0.recv().unwrap().payload {
                Payload::Data { page, .. } => got += page.tuple_count(),
                Payload::Control(Control::EndOfStream) => eos += 1,
                _ => panic!(),
            }
        }
        assert_eq!(got, 10);
    }

    #[test]
    fn charge_hash_flag_controls_hash_cost() {
        let mut ctxs = cluster_of(2);
        let _rx = ctxs.pop().unwrap();
        let mut tx = ctxs.pop().unwrap();
        let p = CostParams::paper_default();

        let mut ex = Exchange::new(2, 2048, 1, DataKind::Raw);
        ex.route(&mut tx, &row(1), true).unwrap();
        let with_hash = tx.clock.now();
        assert_eq!(with_hash, CostEvent::TupleHash.unit_ticks(&p) + CostEvent::TupleDest.unit_ticks(&p));

        ex.route(&mut tx, &row(2), false).unwrap();
        assert_eq!(tx.clock.now() - with_hash, CostEvent::TupleDest.unit_ticks(&p));
    }

    #[test]
    fn switch_kind_flushes_old_pages() {
        let mut ctxs = cluster_of(1);
        let mut n0 = ctxs.pop().unwrap();
        let mut ex = Exchange::new(1, 2048, 1, DataKind::Partial);
        ex.route(&mut n0, &row(1), false).unwrap();
        ex.switch_kind(&mut n0, DataKind::Raw).unwrap();
        ex.route(&mut n0, &row(2), false).unwrap();
        ex.finish(&mut n0).unwrap();

        let mut kinds = Vec::new();
        let mut eos = 0;
        while eos < 1 {
            match n0.recv().unwrap().payload {
                Payload::Data { kind, .. } => kinds.push(kind),
                Payload::Control(Control::EndOfStream) => eos += 1,
                _ => panic!(),
            }
        }
        assert_eq!(kinds, vec![DataKind::Partial, DataKind::Raw]);
    }

    /// Per receiving node, in send order: each page's send timestamp in
    /// ticks and rows.
    type Sent = Vec<Vec<(u64, Vec<Vec<Value>>)>>;

    /// Rows received, over every node.
    fn received(sent: &Sent) -> usize {
        sent.iter().flatten().map(|(_, rows)| rows.len()).sum()
    }

    /// Every page node 0 sent. Call after `finish` on node 0.
    fn sent_pages(ctxs: &mut [NodeCtx]) -> Sent {
        ctxs.iter_mut()
            .map(|rx| {
                let mut received = Vec::new();
                loop {
                    let msg = rx.recv().unwrap();
                    let sent_at = msg.sent_at();
                    match msg.payload {
                        Payload::Data { page, .. } => {
                            received.push((sent_at, page.decode_all().unwrap()))
                        }
                        Payload::Control(Control::EndOfStream) => break received,
                        _ => panic!("unexpected control"),
                    }
                }
            })
            .collect()
    }

    /// Route on node 0 of a fresh 2-node fabric, finish, and return what
    /// that made observable: the sender's clock (ticks, and the CPU share)
    /// and every page it sent, with its send timestamp.
    fn routed(
        key_len: usize,
        kind: DataKind,
        route: impl FnOnce(&mut Exchange, &mut NodeCtx),
    ) -> ((u64, u64), Sent) {
        let mut ctxs = cluster_of(2);
        let mut ex = Exchange::new(2, 2048, key_len, kind);
        route(&mut ex, &mut ctxs[0]);
        ex.finish(&mut ctxs[0]).unwrap();
        let clock = &ctxs[0].clock;
        let spent = (clock.now(), clock.breakdown().cpu_ms.to_bits());
        (spent, sent_pages(&mut ctxs))
    }

    #[test]
    fn batched_routes_match_per_tuple_routes() {
        // A page routed whole must be indistinguishable from the per-tuple
        // loop: same sealed pages, same send timestamps, same clock on the
        // sender. So must each row routed where it lies — off a batch's
        // strips, off a page, off a slice — and a ragged page, whose rows
        // take the row route, some of them shorter than the key.
        let rows: Vec<Vec<Value>> = (0..700).map(row).collect();
        let ragged: Vec<Vec<Value>> = (0..700i64)
            .map(|i| match i % 5 {
                0 => vec![Value::Int(i % 37)],
                1 => vec![Value::Int(i % 37), Value::from(format!("s{}", i % 11)), Value::Int(i)],
                _ => vec![Value::Int(i % 37), Value::Int(i % 11)],
            })
            .collect();
        let page_of = |rows: &[Vec<Value>]| {
            let mut page = Page::new(1 << 16);
            for r in rows {
                assert!(page.try_push(r).unwrap());
            }
            page
        };
        for (key_len, rows) in [(1, &rows), (2, &ragged)] {
            let page = page_of(rows);
            for charge_hash in [false, true] {
                let per_row = routed(key_len, DataKind::Raw, |ex, tx| {
                    for r in rows {
                        ex.route(tx, r, charge_hash).unwrap();
                    }
                });
                assert_eq!(received(&per_row.1), rows.len());
                let paged = routed(key_len, DataKind::Raw, |ex, tx| ex.route_page(tx, &page, charge_hash).unwrap());
                assert_eq!(paged, per_row, "route_page drifted (key_len {key_len})");
                let values = routed(key_len, DataKind::Raw, |ex, tx| {
                    rows.iter().for_each(|r| ex.route_row(tx, &r[..], charge_hash).unwrap())
                });
                assert_eq!(values, per_row, "route_row over values drifted");
                let page_rows = routed(key_len, DataKind::Raw, |ex, tx| {
                    page.rows().for_each(|r| ex.route_row(tx, &r, charge_hash).unwrap())
                });
                assert_eq!(page_rows, per_row, "route_row over page rows drifted");
                if let Some(batch) = ScanBatch::whole(&page) {
                    let strip_rows = routed(key_len, DataKind::Raw, |ex, tx| {
                        (0..batch.rows()).for_each(|r| ex.route_row(tx, &batch.row(r), charge_hash).unwrap())
                    });
                    assert_eq!(strip_rows, per_row, "route_row over strip rows drifted");
                } else {
                    assert_eq!(key_len, 2, "only the ragged page has no batch");
                }
            }
        }

        // The hand-off every local phase ends in: groups drained from a
        // table onto pages and routed a page at a time — to their owners,
        // or all to one node — against the same groups as rows, one by one.
        let sums = || vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star(), AggSpec::over(AggFunc::Avg, 1)];
        type Case = (&'static str, AggQuery, fn(i64) -> Vec<Value>);
        let cases: [Case; 3] = [
            ("typed", AggQuery::new(vec![0], sums()), |i| vec![Value::Int((i * 7) % 331), Value::Int(i)]),
            ("demoted", AggQuery::new(vec![0], sums()), |i| {
                let key = format!("k{}{}", (i * 7) % 331, "x".repeat((i % 23) as usize));
                vec![Value::from(key), Value::Float(i as f64 / 4.0)]
            }),
            (
                "two-column key",
                AggQuery::new(vec![0, 1], vec![AggSpec::over(AggFunc::Max, 2)]),
                |i| vec![Value::Int(i % 31), Value::Int(i % 17), Value::Int(i)],
            ),
        ];
        for (label, query, raw) in cases {
            let key_len = query.group_by.len();
            let filled = || {
                let mut table = AggTable::new(query.clone(), 10_000);
                for i in 0..900 {
                    table.insert(RowKind::Raw, &raw(i)[..], &mut NullTracker).unwrap();
                }
                table
            };
            let drained = || {
                let mut pages = RowPages::new(1024);
                filled().drain_partials(&mut NullTracker, &mut pages).unwrap();
                pages
            };
            let general = filled().layout().general_columns;
            assert_eq!(general > 0, label == "demoted", "{label}: {general} general columns");
            let rows = drained().to_rows();
            assert!(rows.len() > 300 && drained().pages().len() > 8, "{label}");

            let per_row = routed(key_len, DataKind::Raw, |ex, tx| {
                tx.clock.record(CostEvent::TupleWrite, rows.len() as u64);
                ex.switch_kind(tx, DataKind::Partial).unwrap();
                for r in &rows {
                    ex.route(tx, r, false).unwrap();
                }
                ex.switch_kind(tx, DataKind::Raw).unwrap();
            });
            let flushed = routed(key_len, DataKind::Raw, |ex, tx| {
                ex.flush_table(tx, &mut filled(), DataKind::Raw).unwrap();
            });
            assert_eq!(received(&flushed.1), rows.len(), "{label}");
            assert_eq!(flushed, per_row, "{label}: flush_table drifted");
            assert!(per_row.1.iter().all(|pages| pages.len() > 2), "{label}: both nodes own groups");

            let per_row = routed(key_len, DataKind::Partial, |ex, tx| {
                for r in &rows {
                    ex.push_to(tx, 1, &r[..]).unwrap();
                }
            });
            let paged = routed(key_len, DataKind::Partial, |ex, tx| {
                for page in drained().into_pages() {
                    ex.send_page_to(tx, 1, &page).unwrap();
                }
            });
            assert_eq!(received(&paged.1), rows.len(), "{label}");
            assert_eq!(paged, per_row, "{label}: send_page_to drifted");
            assert!(per_row.1[0].is_empty() && per_row.1[1].len() > 4, "{label}: all to node 1");
        }
    }

    /// Scan node 0's `file` into an exchange over `dests` nodes — as the
    /// batch sink the exchange is, or through the per-tuple `route` loop
    /// — and return everything the pass made observable: what the scan
    /// returned, the rows the other nodes received, the sender's clock and
    /// the pages.
    fn scan_routed(
        file: &HeapFile,
        filter: &[Predicate],
        columns: &[usize],
        key_len: usize,
        message_bytes: usize,
        dests: usize,
        batched: bool,
    ) -> (Result<usize, ExecError>, u64, u64, Sent) {
        let mut ctxs = cluster_of(dests);
        let tx = &mut ctxs[0];
        tx.disk.put("base", file.clone());
        let mut ex = Exchange::new(dests, message_bytes, key_len, DataKind::Raw);
        let scanned = if batched {
            scan_pages(tx, "base", filter, columns, 0, usize::MAX, &mut ex)
        } else {
            scan_project(tx, "base", filter, columns, |ctx, values| ex.route(ctx, values, true))
        };
        ex.finish(tx).unwrap();
        let clock = ctxs[0].clock.now();
        let sent = sent_pages(&mut ctxs);
        (scanned, received(&sent) as u64, clock, sent)
    }

    #[test]
    fn scanned_batches_match_per_tuple_routes() {
        // (g, name, v, w): an `Int` key, a `Str` column, two `Int`s.
        let mut file = HeapFile::new(1024);
        for i in 0..900i64 {
            let name = Value::Str(format!("n{}", (i * 13) % 101).into());
            file.append(&[Value::Int((i * 7) % 211), name, Value::Int(i), Value::Int(i % 10)]).unwrap();
        }
        let selective = [Predicate::new(3, Compare::Le, Value::Int(2))];
        // (label, filter, projection, key columns)
        let cases: [(&str, &[Predicate], &[usize], usize); 5] = [
            ("identity", &[], &[], 1),
            ("selective filter", &selective, &[0, 2], 1),
            ("str key", &[], &[1, 2], 1),
            ("two-column key under a filter", &selective, &[3, 0, 2], 2),
            ("reordered projection", &[], &[2, 0, 1], 1),
        ];
        for (label, filter, columns, key_len) in cases {
            for dests in [1, 2, 4] {
                let row = scan_routed(&file, filter, columns, key_len, 512, dests, false);
                let batch = scan_routed(&file, filter, columns, key_len, 512, dests, true);
                assert_eq!(batch, row, "{label}, {dests} destinations");
                let passed = row.0.unwrap();
                assert_eq!(passed as u64, row.1);
                assert!(if filter.is_empty() { passed == 900 } else { passed > 100 && passed < 400 });
                assert!(row.3.iter().all(|pages| pages.len() > 1), "{label}: every node got pages");
            }
        }

        // A tuple wider than a message page, mid-file: the same typed
        // error, after the same rows were routed and the same charges made.
        let mut file = HeapFile::new(1024);
        for i in 0..300i64 {
            let width = if i == 170 { 200 } else { 3 };
            file.append(&[Value::Int(i % 17), Value::Str("x".repeat(width).into())]).unwrap();
        }
        let row = scan_routed(&file, &[], &[], 1, 128, 2, false);
        let batch = scan_routed(&file, &[], &[], 1, 128, 2, true);
        assert_eq!(batch, row);
        assert!(
            matches!(
                row.0,
                Err(ExecError::Storage(StorageError::TupleTooLarge { page_bytes: 128, .. }))
            ),
            "{:?}",
            row.0
        );
        assert_eq!(row.1, 170, "every row before the wide one was routed");
    }

    #[test]
    fn partition_is_balanced_over_nodes() {
        let mut ctxs = cluster_of(8);
        let mut ex = Exchange::new(8, 2048, 1, DataKind::Raw);
        for g in 0..8000 {
            ex.route(&mut ctxs[0], &row(g), true).unwrap();
        }
        ex.finish(&mut ctxs[0]).unwrap();
        let counts: Vec<usize> = sent_pages(&mut ctxs).iter().map(|pages| pages.iter().map(|(_, r)| r.len()).sum()).collect();
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed partition: {counts:?}");
        }
    }
}
