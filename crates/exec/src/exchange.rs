//! The hash-partitioning exchange operator.
//!
//! Routes rows to nodes by hashing their group-key columns with
//! [`Seed::Partition`], blocking them into 2 KB message pages per
//! destination (§5), and handling end-of-stream markers. Used by:
//!
//! * Repartitioning — raw tuples, `charge_hash = true` (the paper's select
//!   cost there is `t_r + t_w + t_h + t_d`);
//! * Two Phase / A2P partial shipping — partial rows, `charge_hash = false`
//!   (the rows just came out of a hash table; only `t_d` is charged);
//! * C2P — fixed destination via [`Exchange::send_to`] (no hash, no dest
//!   computation).
//!
//! A single exchange instance must carry one [`DataKind`] at a time;
//! switching kinds flushes automatically (A2P flushes its partials before
//! forwarding raws, so this matches the algorithm's structure).

use crate::error::ExecError;
use crate::node::NodeCtx;
use crate::operators::ScanSink;
use adaptagg_model::hash::{
    hash_batch_finish, hash_batch_init, hash_batch_ints, hash_batch_values, hash_values, Seed,
};
use adaptagg_model::{CostEvent, CostTracker, Value};
use adaptagg_net::{Blocker, Control, DataKind};
use adaptagg_storage::{BatchCharges, BatchOutcome, Page, ScanBatch, StripView};

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
    routed: u64,
    row_scratch: Vec<Value>,
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
            routed: 0,
            row_scratch: Vec::new(),
            hash_scratch: Vec::new(),
        }
    }

    /// Rows routed so far.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// The destination node for a row (pure; no cost).
    pub fn destination_of(&self, values: &[Value]) -> usize {
        let key = &values[..self.key_len.min(values.len())];
        (hash_values(Seed::Partition, key) % self.blocker.destinations() as u64) as usize
    }

    /// Route a row to its hash destination. Charges `t_d` (destination
    /// computation) and, when `charge_hash`, `t_h` — see module docs.
    /// Sends a message page whenever the destination's block fills.
    pub fn route(
        &mut self,
        ctx: &mut NodeCtx,
        values: &[Value],
        charge_hash: bool,
    ) -> Result<(), ExecError> {
        if charge_hash {
            ctx.clock.record(CostEvent::TupleHash, 1);
        }
        ctx.clock.record(CostEvent::TupleDest, 1);
        let dest = self.destination_of(values);
        self.push_to(ctx, dest, values)
    }

    /// Route a row to an explicit destination (C2P's coordinator). Charges
    /// nothing per tuple beyond the blocking copy (`t_w` is charged by the
    /// producer when it generated the row).
    pub fn send_to(
        &mut self,
        ctx: &mut NodeCtx,
        dest: usize,
        values: &[Value],
    ) -> Result<(), ExecError> {
        self.push_to(ctx, dest, values)
    }

    fn push_to(&mut self, ctx: &mut NodeCtx, dest: usize, values: &[Value]) -> Result<(), ExecError> {
        if let Some(page) = self.blocker.add_pooled(dest, values, &mut ctx.page_pool)? {
            ctx.send_page(dest, self.kind, page)?;
        }
        self.routed += 1;
        Ok(())
    }

    /// Route a batch of rows — the page-batched counterpart of calling
    /// [`Exchange::route`] per row. Cost events and virtual time are
    /// bit-identical to the per-row loop: per-row `t_h`/`t_d` charges are
    /// accumulated and flushed (in per-row order, via
    /// [`CostTracker::record_tuples`]) before every page send, so send
    /// timestamps — and therefore receiver Lamport observations — cannot
    /// move.
    pub fn route_rows<R: AsRef<[Value]>>(
        &mut self,
        ctx: &mut NodeCtx,
        rows: &[R],
        charge_hash: bool,
    ) -> Result<(), ExecError> {
        let template = route_template(charge_hash);
        let mut pending = 0u64;
        for values in rows {
            self.route_batched(ctx, values.as_ref(), template, &mut pending)?;
        }
        ctx.clock.record_tuples(template, pending);
        Ok(())
    }

    /// Route every tuple on a page — [`Exchange::route_rows`] for rows
    /// still in wire format (e.g. forwarding a received block): the page is
    /// the trivial batch. Ragged pages have no strips to ride and decode
    /// into a reused scratch row; same bit-exact cost contract.
    pub fn route_page(
        &mut self,
        ctx: &mut NodeCtx,
        page: &Page,
        charge_hash: bool,
    ) -> Result<(), ExecError> {
        if let Some(batch) = ScanBatch::whole(page) {
            return self.route_batch(ctx, &batch, charge_hash).map(|_| ());
        }
        let template = route_template(charge_hash);
        let mut pending = 0u64;
        let mut scratch = std::mem::take(&mut self.row_scratch);
        let mut cursor = page.cursor();
        let result = loop {
            match cursor.next_into(&mut scratch) {
                Ok(true) => {
                    if let Err(e) = self.route_batched(ctx, &scratch, template, &mut pending) {
                        break Err(e);
                    }
                }
                Ok(false) => break Ok(()),
                Err(e) => break Err(e.into()),
            }
        };
        self.row_scratch = scratch;
        ctx.clock.record_tuples(template, pending);
        result
    }

    /// Route every passing row of a batch, column-at-a-time: one
    /// [`Seed::Partition`] hash kernel pass over the key strips computes
    /// the destinations, then the rows are appended in order to their
    /// destination's open message page strip to strip — no `Value` row
    /// between the source page and the message page.
    ///
    /// Charges are the row loop's, in row order: each passing row records
    /// `batch.pass_lead()` and then the route template, each filtered-out
    /// row `batch.fail_charge()`, as [`CostTracker::record_tuples`] runs
    /// that are flushed before every page send (and before an error
    /// surfaces) — so send timestamps, and with them every receiver's
    /// Lamport observations, are those of [`Exchange::route`] per row.
    pub fn route_batch(
        &mut self,
        ctx: &mut NodeCtx,
        batch: &ScanBatch<'_>,
        charge_hash: bool,
    ) -> Result<BatchOutcome, ExecError> {
        let rows = batch.rows();
        let passing = batch.passing();
        let mut hashes = std::mem::take(&mut self.hash_scratch);
        hashes.clear();
        if passing > 0 {
            hash_batch_init(Seed::Partition, rows, &mut hashes);
            // A batch narrower than the key hashes all it has, as
            // `destination_of` does.
            for j in 0..self.key_len.min(batch.arity()) {
                match batch.column(j) {
                    StripView::Ints(xs) => hash_batch_ints(&mut hashes, xs),
                    StripView::Values(vs) => hash_batch_values(&mut hashes, vs),
                }
            }
            hash_batch_finish(&mut hashes);
        }

        let mut charges = BatchCharges::new(batch, route_template(charge_hash));
        let dests = self.blocker.destinations() as u64;
        // The first row not yet accounted for.
        let mut next = 0usize;
        let mut result = Ok(());
        for i in 0..passing {
            let r = batch.passing_row(i);
            charges.failed(&mut ctx.clock, (r - next) as u64);
            next = r + 1;
            charges.accepted();
            let dest = (hashes[r] % dests) as usize;
            let sent = match self.blocker.add_strips_pooled(dest, batch, r, &mut ctx.page_pool) {
                Ok(None) => Ok(()),
                Ok(Some(page)) => {
                    charges.flush(&mut ctx.clock);
                    ctx.send_page(dest, self.kind, page)
                }
                Err(e) => Err(e.into()),
            };
            if sent.is_err() {
                result = sent;
                break;
            }
            self.routed += 1;
        }
        charges.flush(&mut ctx.clock);
        self.hash_scratch = hashes;
        result?;
        charges.failed(&mut ctx.clock, (rows - next) as u64);
        Ok(BatchOutcome {
            consumed: rows,
            passed: passing as u64,
            ..BatchOutcome::default()
        })
    }

    /// One row of a batched route: defer the per-row charge, but flush
    /// all deferred charges before any send so timestamps match the
    /// per-row path exactly.
    fn route_batched(
        &mut self,
        ctx: &mut NodeCtx,
        values: &[Value],
        template: &[CostEvent],
        pending: &mut u64,
    ) -> Result<(), ExecError> {
        let dest = self.destination_of(values);
        *pending += 1;
        let sealed = match self.blocker.add_pooled(dest, values, &mut ctx.page_pool) {
            Ok(sealed) => sealed,
            Err(e) => {
                ctx.clock.record_tuples(template, std::mem::take(pending));
                return Err(e.into());
            }
        };
        if let Some(page) = sealed {
            ctx.clock.record_tuples(template, std::mem::take(pending));
            ctx.send_page(dest, self.kind, page)?;
        }
        self.routed += 1;
        Ok(())
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
    fn wants_batch(&self) -> bool {
        true
    }

    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        self.route_batch(ctx, batch, true)
    }

    fn row(&mut self, ctx: &mut NodeCtx, values: &[Value]) -> Result<bool, ExecError> {
        self.route(ctx, values, true).map(|()| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{scan_pages, scan_project};
    use adaptagg_model::{Compare, CostParams, NetworkKind, Predicate};
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

    #[test]
    fn same_key_always_same_destination() {
        let ex = Exchange::new(4, 2048, 1, DataKind::Raw);
        for g in 0..100 {
            let d1 = ex.destination_of(&row(g));
            let d2 = ex.destination_of(&row(g));
            assert_eq!(d1, d2);
            assert!(d1 < 4);
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
            if ex.destination_of(&row(g)) == 1 {
                to_node1 += 1;
            }
            ex.route(&mut tx, &row(g), true).unwrap();
        }
        assert_eq!(ex.routed(), 500);
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
        let with_hash = tx.clock.now_ms();
        assert!((with_hash - (p.t_hash() + p.t_dest())).abs() < 1e-9);

        ex.route(&mut tx, &row(2), false).unwrap();
        let without = tx.clock.now_ms() - with_hash;
        assert!((without - p.t_dest()).abs() < 1e-9);
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

    /// Per receiving node, in send order: each page's send-timestamp bits
    /// and rows.
    type Sent = Vec<Vec<(u64, Vec<Vec<Value>>)>>;

    /// Every page node 0 sent. Call after `finish` on node 0.
    fn sent_pages(ctxs: &mut [NodeCtx]) -> Sent {
        ctxs.iter_mut()
            .map(|rx| {
                let mut received = Vec::new();
                loop {
                    let msg = rx.recv().unwrap();
                    match msg.payload {
                        Payload::Data { page, .. } => {
                            received.push((msg.sent_at_ms.to_bits(), page.decode_all().unwrap()))
                        }
                        Payload::Control(Control::EndOfStream) => break received,
                        _ => panic!("unexpected control"),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn batched_routes_are_bit_identical_to_per_tuple_routes() {
        // route_rows and route_page must be indistinguishable from the
        // per-tuple loop: same sealed pages, same send timestamps, same
        // clock bits on the sender.
        let rows: Vec<Vec<Value>> = (0..700).map(row).collect();
        for charge_hash in [false, true] {
            let mut outcomes = Vec::new();
            for mode in 0..3 {
                let mut ctxs = cluster_of(2);
                let mut ex = Exchange::new(2, 2048, 1, DataKind::Raw);
                let tx = &mut ctxs[0];
                match mode {
                    0 => {
                        for r in &rows {
                            ex.route(tx, r, charge_hash).unwrap();
                        }
                    }
                    1 => ex.route_rows(tx, &rows, charge_hash).unwrap(),
                    _ => {
                        // Same rows, paged up in wire format first.
                        let mut pages = vec![Page::new(1 << 16)];
                        for r in &rows {
                            assert!(pages.last_mut().unwrap().try_push(r).unwrap());
                        }
                        for p in &pages {
                            ex.route_page(tx, p, charge_hash).unwrap();
                        }
                    }
                }
                assert_eq!(ex.routed(), rows.len() as u64);
                ex.finish(tx).unwrap();
                outcomes.push((ctxs[0].clock.now_ms().to_bits(), sent_pages(&mut ctxs)));
            }
            assert_eq!(outcomes[0], outcomes[1], "route_rows drifted");
            assert_eq!(outcomes[0], outcomes[2], "route_page drifted");
        }
    }

    /// Scan node 0's `file` into an exchange over `dests` nodes — as the
    /// batch sink the exchange is, or through the per-tuple `route` loop
    /// — and return everything the pass made observable.
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
        let routed = ex.routed();
        ex.finish(tx).unwrap();
        let clock = ctxs[0].clock.now_ms().to_bits();
        (scanned, routed, clock, sent_pages(&mut ctxs))
    }

    #[test]
    fn scanned_batches_are_bit_identical_to_per_tuple_routes() {
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
        let ex = Exchange::new(8, 2048, 1, DataKind::Raw);
        let mut counts = [0usize; 8];
        for g in 0..8000 {
            counts[ex.destination_of(&row(g))] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed partition: {counts:?}");
        }
    }
}
