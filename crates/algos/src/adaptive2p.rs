//! Adaptive Two Phase (§3.2) — the paper's flagship.
//!
//! Start as Two Phase under the common-case assumption that the number of
//! groups is small. The moment the local hash table fills — the point at
//! which plain Two Phase would start paying intermediate overflow I/O —
//! the node:
//!
//! 1. stops aggregating locally,
//! 2. partitions and ships the accumulated **partial** results downstream
//!    (freeing its memory — the advantage over Graefe's optimization,
//!    which keeps the table resident),
//! 3. forwards every remaining tuple **raw**, hash-partitioned, exactly
//!    like Repartitioning.
//!
//! The scan feeds the table a page at a time under [`Stop`]: the tuple the
//! full table bounces ends the batch, and after the flush it is routed off
//! the page's strips where it lies ([`Exchange::route_row`]) — never copied
//! into a row of values.
//!
//! The merge phase accepts both kinds in one table. Crucially, "each
//! processor … adapts based on what it observes, independently of what
//! all the other processors are doing" — no synchronization; under §6's
//! output skew the group-rich nodes switch while group-poor ones stay in
//! Two Phase mode, beating both static algorithms.

use crate::common::{merge_phase_store, QueryPlan};
use crate::config::AlgoConfig;
use crate::outcome::{AdaptEvent, NodeOutcome};
use adaptagg_exec::{operators, Exchange, ExecError, NodeCtx, PhaseKind, ScanSink, SwitchCause};
use adaptagg_hashagg::{AggTable, Stop};
use adaptagg_model::{IndexRow, RowKind};
use adaptagg_storage::{BatchOutcome, RowPages, ScanBatch};

/// Run Adaptive Two Phase on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    let max_entries = ctx.params().max_hash_entries;
    let fanout = cfg.overflow_fanout;
    let mut events = Vec::new();

    let mut scan = ScanState::new(plan, max_entries).with_grant(ctx.grant().clone());
    let mut ex = Exchange::new(
        ctx.nodes(),
        ctx.params().message_bytes,
        plan.key_len(),
        RowKind::Partial,
    );

    ctx.span_start(PhaseKind::Scan);
    let scanned = if ctx.recovery.is_some() {
        checkpointed_scan(ctx, plan, &mut scan, &mut ex, &mut events)
    } else {
        let mut sink = ScanSwitch {
            scan: &mut scan,
            ex: &mut ex,
            events: &mut events,
        };
        operators::scan_pages(ctx, "base", &plan.base.filter, &plan.projection, 0, usize::MAX, &mut sink)
            .map(|_| ())
    };
    ctx.span_end();
    scanned?;

    // If we never switched, the table holds all local partials: ship them
    // partitioned (plain Two Phase behaviour).
    ctx.span_start(PhaseKind::Partition);
    let shipped = (|| {
        if !scan.switched {
            ex.flush_table(ctx, &mut scan.table, RowKind::Partial)?;
        }
        ex.finish(ctx)
    })();
    ctx.span_end();
    shipped?;
    ctx.clock.mark("phase1");

    // Merge phase: raw + partial interleaved, one bounded table.
    let (rows, mut agg) = merge_phase_store(ctx, plan, max_entries, fanout)?;
    agg.raw_in += scan.raw_seen;
    Ok(NodeOutcome { rows, agg, events })
}

/// The A2P scan under a recovery session: per assigned partition, restore
/// durable partials (shipping them to their owners right away — they are
/// phase-1 output an earlier attempt already produced), then scan the
/// un-checkpointed page suffix chunk by chunk.
///
/// Durable progress only advances while the node has *not* switched: at a
/// chunk boundary in Two Phase mode the table is drained into the
/// checkpoint and shipped (the table restarts empty, so each checkpoint
/// is self-contained). After the switch, output leaves the node as raw
/// forwarded tuples living in peers' memory — nothing durable — so the
/// checkpoint is frozen and only the replay high-water advances. The
/// boundary drains also mean the table rarely fills across chunks: under
/// recovery the switch heuristic effectively observes one chunk at a
/// time, a deliberate granularity trade-off of checkpointing.
fn checkpointed_scan(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    scan: &mut ScanState,
    ex: &mut Exchange,
    events: &mut Vec<AdaptEvent>,
) -> Result<(), ExecError> {
    let mut session = ctx.recovery.take().expect("checked by caller");
    let result = (|| {
        for seg in session.segments() {
            let restored = session.restore_partials(seg.partition, &mut ctx.clock)?;
            if !restored.is_empty() {
                // Once switched, the exchange goes back to forwarding raws.
                let then = if scan.switched { RowKind::Raw } else { RowKind::Partial };
                ex.route_partials(ctx, restored, then)?;
            }
            let mut done = session.resume_point(seg.partition).min(seg.pages);
            while done < seg.pages {
                let chunk_end = (done + session.interval_pages()).min(seg.pages);
                operators::scan_pages(
                    ctx,
                    "base",
                    &plan.base.filter,
                    &plan.projection,
                    seg.start_page + done,
                    seg.start_page + chunk_end,
                    &mut ScanSwitch { scan, ex, events },
                )?;
                if !scan.switched {
                    let mut partials = RowPages::new(ctx.params().page_bytes);
                    scan.table.drain_partials(&mut ctx.clock, &mut partials)?;
                    session.checkpoint(
                        seg.partition,
                        chunk_end,
                        &partials,
                        chunk_end == seg.pages,
                        &mut ctx.clock,
                        &mut ctx.disk,
                    )?;
                    ex.route_partials(ctx, partials, RowKind::Partial)?;
                } else {
                    session.note_scanned(seg.partition, chunk_end);
                }
                done = chunk_end;
            }
        }
        Ok(())
    })();
    ctx.recovery = Some(session);
    result
}

/// The A2P scan-side state machine (shared with ARep's fallback).
#[derive(Debug)]
pub struct ScanState {
    /// The bounded local table (phase 1's "first bucket").
    pub table: AggTable,
    /// Whether the memory-full switch has fired.
    pub switched: bool,
    /// Tuples scanned so far.
    pub raw_seen: u64,
}

impl ScanState {
    /// Fresh scan state for a node.
    pub fn new(plan: &QueryPlan, max_entries: usize) -> Self {
        ScanState {
            table: AggTable::new(plan.projected.clone(), max_entries),
            switched: false,
            raw_seen: 0,
        }
    }

    /// Attach the node's live memory grant to the local table: a broker
    /// revocation mid-scan then triggers the adaptive switch exactly as a
    /// naturally-full table would.
    pub fn with_grant(mut self, grant: adaptagg_model::MemoryGrant) -> Self {
        self.table.set_grant(grant);
        self
    }

    /// Process a scanned batch: aggregate locally until the table fills,
    /// then flush partials and forward raws. In Two Phase mode the table's
    /// batch core stops ([`Stop`]) at the first row it cannot hold, having
    /// charged that row's attempt; the switch happens with that row, which
    /// is forwarded off the strips, and the outcome's `consumed` (through
    /// it) tells the scan to offer the rest of the page anew. Once
    /// switched, the batch crosses the exchange as Repartitioning's does.
    pub fn push_batch(
        &mut self,
        ctx: &mut NodeCtx,
        ex: &mut Exchange,
        batch: &ScanBatch<'_>,
        events: &mut Vec<AdaptEvent>,
    ) -> Result<BatchOutcome, ExecError> {
        if self.switched {
            let out = ex.route_batch(ctx, batch, true)?;
            self.raw_seen += out.passed;
            return Ok(out);
        }
        let mut stop = Stop::default();
        let out = self.table.feed_batch(RowKind::Raw, batch, &mut ctx.clock, &mut stop)?;
        self.raw_seen += out.passed;
        if let Stop(Some(r)) = stop {
            self.switch(ctx, ex, &batch.row(r), events)?;
        }
        Ok(out)
    }

    /// The switch (§3.2), triggered by `row` bouncing off the full table:
    /// flush accumulated partials to their owners, freeing memory, then
    /// forward raws.
    fn switch<R: IndexRow>(
        &mut self,
        ctx: &mut NodeCtx,
        ex: &mut Exchange,
        row: &R,
        events: &mut Vec<AdaptEvent>,
    ) -> Result<(), ExecError> {
        ex.flush_table(ctx, &mut self.table, RowKind::Raw)?;
        self.switched = true;
        events.push(AdaptEvent::SwitchedToRepartitioning {
            at_tuple: self.raw_seen,
        });
        ctx.trace_switch(SwitchCause::TableFull, self.raw_seen);
        // The tuple that triggered the switch is forwarded raw (its hash
        // was already charged by the failed insert).
        ex.route_row(ctx, row, false)
    }
}

/// A [`ScanState`] with its exchange and event log, as the scan's sink:
/// batches into the table in Two Phase mode, batches through the exchange
/// once switched ([`ScanState::push_batch`]).
pub struct ScanSwitch<'a> {
    /// The scan-side state machine.
    pub scan: &'a mut ScanState,
    /// Where flushed partials and forwarded raws go.
    pub ex: &'a mut Exchange,
    /// The node's adaptive-event log.
    pub events: &'a mut Vec<AdaptEvent>,
}

impl ScanSink<NodeCtx> for ScanSwitch<'_> {
    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        self.scan.push_batch(ctx, self.ex, batch, self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_algorithm_with, AlgorithmKind};
    use adaptagg_exec::ClusterConfig;
    use adaptagg_model::CostParams;
    use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

    fn run(tuples: usize, groups: usize, nodes: usize, m: usize) -> crate::RunOutcome {
        let spec = RelationSpec::uniform(tuples, groups);
        let parts = generate_partitions(&spec, nodes);
        let params = CostParams {
            max_hash_entries: m,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(nodes, params);
        let cfg = AlgoConfig::default_for(nodes);
        run_algorithm_with(
            AlgorithmKind::AdaptiveTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap()
    }

    #[test]
    fn few_groups_stays_two_phase() {
        let out = run(4000, 50, 4, 1000);
        assert!(out.adapted_nodes().is_empty(), "no node should switch");
        assert_eq!(out.rows.len(), 50);
        assert_eq!(out.total_spilled(), 0);
    }

    #[test]
    fn many_groups_switches_at_the_memory_knee() {
        // Each node sees ~all 2000 groups; M = 100 → switch after ~100
        // distinct groups observed.
        let out = run(8000, 2000, 4, 100);
        assert_eq!(out.adapted_nodes().len(), 4, "every node switches");
        assert_eq!(out.rows.len(), 2000);
        for n in &out.nodes {
            let at = n
                .events
                .iter()
                .find_map(|e| match e {
                    AdaptEvent::SwitchedToRepartitioning { at_tuple } => Some(*at_tuple),
                    _ => None,
                })
                .expect("switch event");
            // The switch can't fire before M distinct groups were seen.
            assert!(at >= 100, "switched after only {at} tuples");
        }
    }

    #[test]
    fn local_phase_never_spills() {
        // The defining property (§3.2): A2P avoids *local* intermediate
        // I/O by switching instead of spilling. (The merge phase may
        // still spill when G/N exceeds M — that is unavoidable.)
        let out = run(8000, 1500, 4, 150);
        // merge tables hold ~1500/4 = 375 > 150 → merge spills allowed;
        // but check against plain 2P: A2P must spill strictly less.
        let spec = RelationSpec::uniform(8000, 1500);
        let parts = generate_partitions(&spec, 4);
        let params = CostParams {
            max_hash_entries: 150,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        let cfg = AlgoConfig::default_for(4);
        let tp = run_algorithm_with(
            AlgorithmKind::TwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert!(
            out.total_spilled() < tp.total_spilled(),
            "A2P {} >= 2P {}",
            out.total_spilled(),
            tp.total_spilled()
        );
        assert_eq!(out.rows, tp.rows);
    }

    #[test]
    fn matches_reference_across_the_selectivity_range() {
        for groups in [1usize, 10, 100, 1000, 2500] {
            let spec = RelationSpec::uniform(5000, groups);
            let parts = generate_partitions(&spec, 4);
            let query = default_query();
            let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();
            let params = CostParams {
                max_hash_entries: 200,
                ..CostParams::paper_default()
            };
            let config = ClusterConfig::new(4, params);
            let cfg = AlgoConfig::default_for(4);
            let out = run_algorithm_with(
                AlgorithmKind::AdaptiveTwoPhase,
                &config,
                &parts,
                &query,
                &cfg,
            )
            .unwrap();
            assert_eq!(out.rows, reference, "groups = {groups}");
        }
    }

    #[test]
    fn nodes_decide_independently_under_output_skew() {
        // §6.2: group-poor nodes stay 2P, group-rich nodes switch.
        let spec = adaptagg_workload::OutputSkewSpec::new(4, 2000, 800, 2);
        let parts = spec.generate_partitions();
        let params = CostParams {
            max_hash_entries: 100,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::AdaptiveTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let adapted = out.adapted_nodes();
        assert_eq!(
            adapted,
            vec![2, 3],
            "only the group-rich nodes should switch"
        );
        assert_eq!(out.rows.len(), 800);
    }
}
