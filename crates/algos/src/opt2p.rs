//! Graefe's optimized Two Phase (§3.2's discussed competitor).
//!
//! "\[Gra93\] suggests that in the local aggregation phase, if the hash
//! table is full then the locally generated tuples are hash partitioned
//! and forwarded … Hopefully, there might already be an entry there for
//! that group which will save on I/O costs."
//!
//! We implement it to reproduce the paper's *argument* that A2P dominates
//! it:
//!
//! 1. a forwarded tuple may find no entry at the destination (extra
//!    network, no I/O saved);
//! 2. all tuples still pass through both phases (duplicated work);
//! 3. the local table stays resident until the scan ends, instead of
//!    freeing its memory at the overflow point as A2P does.
//!
//! Concretely: on table-full, tuples of *resident* groups keep updating
//! in place; tuples of new groups are forwarded raw immediately; the
//! table is only drained (as partials) at end of scan. The scan feeds the
//! table a page at a time (`Forward`) under [`Stop`]; each tuple the full
//! table bounces stops the batch and is routed off the page's strips where
//! it lies before the rest of the page is offered, so the route's page
//! sends read the clock where a tuple-at-a-time scan would.

use crate::common::{merge_phase_store, trace_tables, QueryPlan};
use crate::config::AlgoConfig;
use crate::outcome::NodeOutcome;
use adaptagg_exec::{operators, Exchange, ExecError, NodeCtx, ScanSink};
use adaptagg_hashagg::{AggTable, Stop};
use adaptagg_model::RowKind;
use adaptagg_storage::{BatchOutcome, ScanBatch};

/// Run optimized Two Phase on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    _cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    let mut sink = Forward {
        table: AggTable::new(plan.projected.clone(), ctx.params().max_hash_entries).with_grant(ctx.grant().clone()),
        ex: Exchange::new(ctx.nodes(), ctx.params().message_bytes, plan.key_len(), RowKind::Raw),
        forwarded: 0,
    };
    operators::scan_pages(ctx, "base", &plan.base.filter, &plan.projection, 0, usize::MAX, &mut sink)?;
    let Forward {
        mut table,
        mut ex,
        forwarded,
    } = sink;

    // Drain the local table as partials only now (end of input).
    ex.flush_table(ctx, &mut table, RowKind::Partial)?;
    ex.finish(ctx)?;
    ctx.clock.mark("phase1");
    trace_tables(ctx, table.drains());

    let (rows, mut agg) = merge_phase_store(ctx, plan)?;
    agg.raw_in += table.accepted() + forwarded;
    Ok(NodeOutcome {
        rows,
        agg,
        events: Vec::new(),
    })
}

/// The local table as the scan's sink, forwarding what it bounces.
struct Forward {
    table: AggTable,
    ex: Exchange,
    forwarded: u64,
}

impl ScanSink<NodeCtx> for Forward {
    fn batch(&mut self, ctx: &mut NodeCtx, batch: &ScanBatch<'_>) -> Result<BatchOutcome, ExecError> {
        let mut stop = Stop::default();
        let out = self.table.feed_batch(RowKind::Raw, batch, &mut ctx.clock, &mut stop)?;
        if let Stop(Some(r)) = stop {
            // Forward immediately, its hash paid by the failed insert; the
            // table stays resident (the memory-hoarding A2P avoids).
            self.forwarded += 1;
            self.ex.route_row(ctx, &batch.row(r), false)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_algorithm_with, AlgorithmKind};
    use adaptagg_exec::ClusterConfig;
    use adaptagg_model::CostParams;
    use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

    #[test]
    fn matches_reference_under_memory_pressure() {
        let spec = RelationSpec::uniform(8000, 1200);
        let parts = generate_partitions(&spec, 4);
        let query = default_query();
        let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();
        let params = CostParams {
            max_hash_entries: 100,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::OptimizedTwoPhase,
            &config,
            &parts,
            &query,
            &cfg,
        )
        .unwrap();
        assert_eq!(out.rows, reference);
    }

    #[test]
    fn no_memory_pressure_behaves_like_two_phase() {
        let spec = RelationSpec::uniform(3000, 30);
        let parts = generate_partitions(&spec, 4);
        let query = default_query();
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let opt = run_algorithm_with(
            AlgorithmKind::OptimizedTwoPhase,
            &config,
            &parts,
            &query,
            &cfg,
        )
        .unwrap();
        let tp =
            run_algorithm_with(AlgorithmKind::TwoPhase, &config, &parts, &query, &cfg).unwrap();
        assert_eq!(opt.rows, tp.rows);
        // Without overflow the two ship the same partial volume.
        assert_eq!(
            opt.run.total_net().tuples_sent,
            tp.run.total_net().tuples_sent
        );
    }

    #[test]
    fn ships_more_raw_tuples_than_a2p_under_pressure() {
        // A2P frees memory at the switch; opt2P keeps filtering through a
        // stale table and forwards the overflow one-by-one. Under heavy
        // pressure A2P's flush+forward moves at most the same data, but
        // opt2P duplicates work: every node still sends its whole table
        // at the end *plus* all forwarded raws.
        let spec = RelationSpec::uniform(8000, 2000);
        let parts = generate_partitions(&spec, 4);
        let params = CostParams {
            max_hash_entries: 100,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        let cfg = AlgoConfig::default_for(4);
        let opt = run_algorithm_with(
            AlgorithmKind::OptimizedTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let a2p = run_algorithm_with(
            AlgorithmKind::AdaptiveTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert_eq!(opt.rows, a2p.rows);
        // The paper's duplication argument: past the knee, opt2P still
        // probes its (full, stale) local table for every tuple before
        // forwarding, while A2P routes directly. With mostly-new groups
        // after the fill, opt2P is strictly slower.
        assert!(
            opt.elapsed_ms() > a2p.elapsed_ms(),
            "opt2P {} <= A2P {}",
            opt.elapsed_ms(),
            a2p.elapsed_ms()
        );
    }
}
