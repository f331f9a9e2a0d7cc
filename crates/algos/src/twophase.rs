//! Two Phase (§2.2).
//!
//! Like C2P, but "the merging phase is parallelized by hash-partitioning
//! on the GROUP BY attribute". Works well while the number of groups is
//! small; past the memory knee it pays duplicated aggregation work and
//! intermediate overflow I/O in *both* phases — the weakness A2P fixes.

use crate::common::{
    local_partial_aggregation, merge_phase_store, ship_partials, QueryPlan, ShipTo,
};
use crate::config::AlgoConfig;
use crate::outcome::NodeOutcome;
use adaptagg_exec::{ExecError, NodeCtx};

/// Run Two Phase on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    _cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    let (partials, local_stats) = local_partial_aggregation(ctx, plan)?;
    ship_partials(ctx, plan, partials, ShipTo::Owners)?;
    let (rows, merge_stats) = merge_phase_store(ctx, plan)?;

    let mut agg = local_stats;
    agg.add(&merge_stats);
    Ok(NodeOutcome {
        rows,
        agg,
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

    fn run(tuples: usize, groups: usize, nodes: usize, m: usize) -> crate::RunOutcome {
        let spec = RelationSpec::uniform(tuples, groups);
        let parts = generate_partitions(&spec, nodes);
        let params = CostParams {
            max_hash_entries: m,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(nodes, params);
        let cfg = AlgoConfig::default_for(nodes);
        run_algorithm_with(AlgorithmKind::TwoPhase, &config, &parts, &default_query(), &cfg)
            .unwrap()
    }

    #[test]
    fn matches_reference_and_spreads_result() {
        let spec = RelationSpec::uniform(3000, 60);
        let parts = generate_partitions(&spec, 4);
        let query = default_query();
        let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();

        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out =
            run_algorithm_with(AlgorithmKind::TwoPhase, &config, &parts, &query, &cfg).unwrap();
        assert_eq!(out.rows, reference);
        // Result is spread over nodes (parallel merge), unlike C2P.
        let producing = out.nodes.iter().filter(|n| n.rows_produced > 0).count();
        assert!(producing >= 3, "only {producing} nodes produced rows");
    }

    #[test]
    fn no_spill_when_groups_fit_memory() {
        let out = run(2000, 50, 4, 1000);
        assert_eq!(out.total_spilled(), 0);
    }

    #[test]
    fn spills_when_groups_exceed_memory() {
        // 2000 groups over 4 nodes, M = 100: every node's local table
        // overflows (each sees ~all groups) — the paper's memory knee.
        let out = run(8000, 2000, 4, 100);
        assert!(out.total_spilled() > 0, "expected intermediate I/O");
        assert_eq!(out.rows.len(), 2000);
    }

    #[test]
    fn single_node_degenerates_gracefully() {
        let out = run(500, 10, 1, 100);
        assert_eq!(out.rows.len(), 10);
    }

    #[test]
    fn scalar_aggregation_works() {
        let spec = RelationSpec::uniform(1000, 1);
        let parts = generate_partitions(&spec, 4);
        let query = adaptagg_model::AggQuery::new(
            vec![],
            vec![adaptagg_model::AggSpec::count_star()],
        );
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out =
            run_algorithm_with(AlgorithmKind::TwoPhase, &config, &parts, &query, &cfg).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].aggs, vec![adaptagg_model::Value::Int(1000)]);
    }
}
