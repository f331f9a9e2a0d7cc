//! Sort-based Two Phase — the Bitton et al. \[BBDW83\] lineage the paper's
//! §1 cites ("the first algorithm is somewhat similar to the Two Phase
//! approach in that it uses local aggregation", via sorting).
//!
//! Structurally identical to Two Phase, but the local phase forms sorted
//! runs with early aggregation and merges them, instead of hashing with
//! overflow buckets. The partials it ships are key-ordered per node
//! (which the hash-partitioned merge then disregards — on a 1995 system
//! the order would feed an ORDER BY for free). Including it lets the
//! benchmarks compare hash-based and sort-based local aggregation under
//! one cost model.

use crate::common::{merge_phase_store, ship_partials, trace_sortagg, QueryPlan, ShipTo};
use crate::config::AlgoConfig;
use crate::outcome::NodeOutcome;
use adaptagg_exec::{ExecError, NodeCtx, PhaseKind};
use adaptagg_sortagg::SortAggregator;

/// Run sort-based Two Phase on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    _cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    let (max_entries, page_bytes) = (ctx.params().max_hash_entries, ctx.params().page_bytes);

    // Phase 1: sorted-run local aggregation, a scanned page at a time.
    let mut agg = SortAggregator::new(plan.projected.clone(), max_entries, page_bytes)
        .with_grant(ctx.grant().clone());
    plan.scan(ctx, 0..usize::MAX, &mut agg)?;
    let (partials, sort_stats) =
        ctx.in_span(PhaseKind::Sort, |ctx| agg.finish_partials(&mut ctx.clock))?;
    trace_sortagg(ctx, &sort_stats);
    // Shipped once the merge is done: every charge and every send keeps
    // its place.
    ship_partials(ctx, plan, partials, ShipTo::Owners)?;

    // Phase 2: hash merge, as in plain Two Phase.
    let (rows, mut agg_stats) = merge_phase_store(ctx, plan)?;
    agg_stats.raw_in += sort_stats.rows_in;
    // Runs written to disk are this strategy's "intermediate I/O"; report
    // them in the overflow counter so comparisons line up.
    agg_stats.overflow_buckets += sort_stats.runs_sealed;
    Ok(NodeOutcome {
        rows,
        agg: agg_stats,
        events: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_algorithm_with, AlgorithmKind};
    use adaptagg_exec::ClusterConfig;
    use adaptagg_model::CostParams;
    use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

    #[test]
    fn matches_reference_with_and_without_runs() {
        for (groups, m) in [(50usize, 1_000usize), (3_000, 100)] {
            let spec = RelationSpec::uniform(8_000, groups);
            let parts = generate_partitions(&spec, 4);
            let query = default_query();
            let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();
            let params = CostParams {
                max_hash_entries: m,
                ..CostParams::paper_default()
            };
            let config = ClusterConfig::new(4, params);
            let cfg = AlgoConfig::default_for(4);
            let out = run_algorithm_with(
                AlgorithmKind::SortTwoPhase,
                &config,
                &parts,
                &query,
                &cfg,
            )
            .unwrap();
            assert_eq!(out.rows, reference, "groups={groups} m={m}");
        }
    }

    #[test]
    fn run_sealing_shows_up_as_intermediate_io() {
        let spec = RelationSpec::uniform(12_000, 3_000);
        let parts = generate_partitions(&spec, 4);
        let params = CostParams {
            max_hash_entries: 100,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::SortTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let runs: u64 = out.nodes.iter().map(|n| n.agg.overflow_buckets).sum();
        assert!(runs > 0, "expected sealed runs under memory pressure");
    }

    #[test]
    fn comparable_to_hash_two_phase_in_memory() {
        // With everything resident, the two local strategies do the same
        // logical work; virtual times stay within a modest factor.
        let spec = RelationSpec::uniform(6_000, 50);
        let parts = generate_partitions(&spec, 4);
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let sort = run_algorithm_with(
            AlgorithmKind::SortTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let hash = run_algorithm_with(
            AlgorithmKind::TwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert_eq!(sort.rows, hash.rows);
        let ratio = sort.elapsed_ms() / hash.elapsed_ms();
        assert!((0.7..1.5).contains(&ratio), "ratio {ratio}");
    }
}
