//! Centralized Two Phase (§2.1).
//!
//! "Each node do\[es\] aggregation on the locally generated tuples in phase
//! one and then merge\[s\] these local aggregate values at a central
//! coordinator in phase two." The merge is a sequential bottleneck —
//! Figure 1 shows C2P falling behind as soon as the number of groups is
//! non-trivial; it is the baseline the parallel merge (2P) improves on.

use crate::common::{merge_phase_store, ship_partials, QueryPlan, ShipTo};
use crate::config::AlgoConfig;
use crate::outcome::NodeOutcome;
use adaptagg_exec::{ExecError, NodeCtx};

/// The coordinator node id (node 0, by convention): C2P's merger, the
/// Sampling estimator, and the process cluster's coordinator.
pub const COORDINATOR: usize = 0;

/// Run Centralized Two Phase on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    _cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    // Phase 1: local aggregation; ship partials to the coordinator.
    let (partials, local_stats) = crate::common::local_partial_aggregation(ctx, plan)?;
    ship_partials(ctx, plan, partials, ShipTo::Node(COORDINATOR))?;

    let mut outcome = NodeOutcome {
        agg: local_stats,
        ..Default::default()
    };

    // Phase 2: the coordinator alone merges everything.
    if ctx.id() == COORDINATOR {
        let (rows, merge_stats) = merge_phase_store(ctx, plan)?;
        outcome.agg.add(&merge_stats);
        outcome.rows = rows;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_algorithm_with, AlgorithmKind};
    use adaptagg_exec::ClusterConfig;
    use adaptagg_model::CostParams;
    use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

    #[test]
    fn c2p_matches_reference_and_centralizes_result() {
        let spec = RelationSpec::uniform(3000, 40);
        let parts = generate_partitions(&spec, 4);
        let query = default_query();
        let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();

        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::CentralizedTwoPhase,
            &config,
            &parts,
            &query,
            &cfg,
        )
        .unwrap();
        assert_eq!(out.rows, reference);
        // All rows live on the coordinator.
        assert_eq!(out.nodes[COORDINATOR].rows_produced, 40);
        for n in &out.nodes[1..] {
            assert_eq!(n.rows_produced, 0);
        }
    }

    #[test]
    fn coordinator_does_the_merge_work() {
        let spec = RelationSpec::uniform(2000, 100);
        let parts = generate_partitions(&spec, 4);
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::CentralizedTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        // Coordinator processed its own raw tuples plus every node's
        // partials; others only their raw tuples.
        let coord_in = out.nodes[COORDINATOR].agg.rows_in();
        let other_in = out.nodes[1].agg.rows_in();
        assert!(
            coord_in > other_in,
            "coordinator {coord_in} <= other {other_in}"
        );
        // Each node contributes ~100 partials (some groups may miss a
        // node's 500-tuple sample).
        let partials = out.nodes[COORDINATOR].agg.partial_in;
        assert!((360..=400).contains(&partials), "partials = {partials}");
    }
}
