//! Repartitioning (§2.3).
//!
//! "First partitions the data on the GROUP BY attributes and then
//! aggregates the partitions in parallel. It eliminates duplication of
//! work as each value is processed for aggregation just once. It also
//! reduces the memory requirement as each group value is stored in one
//! place only." The price is shipping the whole (projected) relation —
//! cheap on an SP-2, ruinous on shared Ethernet (Figures 1 vs 4/8) — and
//! under-utilization when there are fewer groups than processors.

use crate::common::{merge_phase_store, QueryPlan};
use crate::config::AlgoConfig;
use crate::outcome::NodeOutcome;
use adaptagg_exec::{Exchange, ExecError, NodeCtx, PhaseKind};
use adaptagg_model::RowKind;

/// Run Repartitioning on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    _cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    // Phase 1: scan, project, hash-partition raw tuples to their owners.
    // Select cost per §2.3 is t_r + t_w (scan) + t_h + t_d (route).
    let mut ex = Exchange::new(
        ctx.nodes(),
        ctx.params().message_bytes,
        plan.key_len(),
        RowKind::Raw,
    );
    plan.scan(ctx, 0..usize::MAX, &mut ex)?;
    ctx.in_span(PhaseKind::Partition, |ctx| ex.finish(ctx))?;

    // Phase 2: aggregate everything that hashed here, store locally.
    let (rows, agg) = merge_phase_store(ctx, plan)?;
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

    #[test]
    fn matches_reference() {
        let spec = RelationSpec::uniform(3000, 300);
        let parts = generate_partitions(&spec, 4);
        let query = default_query();
        let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();

        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out =
            run_algorithm_with(AlgorithmKind::Repartitioning, &config, &parts, &query, &cfg)
                .unwrap();
        assert_eq!(out.rows, reference);
    }

    #[test]
    fn each_group_aggregated_exactly_once() {
        // No duplicated work: total rows into merge tables equals the
        // relation size (every tuple once), and groups_out equals the
        // group count (each group in one place).
        let spec = RelationSpec::uniform(2000, 100);
        let parts = generate_partitions(&spec, 4);
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::Repartitioning,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let raw_in: u64 = out.nodes.iter().map(|n| n.agg.raw_in).sum();
        assert_eq!(raw_in, 2000);
        let groups_out: u64 = out.nodes.iter().map(|n| n.agg.groups_out).sum();
        assert_eq!(groups_out, 100);
    }

    #[test]
    fn ships_the_whole_projected_relation() {
        let spec = RelationSpec::uniform(2000, 100);
        let parts = generate_partitions(&spec, 4);
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::Repartitioning,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert_eq!(out.run.total_net().tuples_sent, 2000);
    }

    #[test]
    fn fewer_groups_than_nodes_underutilizes() {
        // 2 groups on 8 nodes: at most 2 nodes receive any data.
        let spec = RelationSpec::uniform(1000, 2);
        let parts = generate_partitions(&spec, 8);
        let config = ClusterConfig::new(8, CostParams::paper_default());
        let cfg = AlgoConfig::default_for(8);
        let out = run_algorithm_with(
            AlgorithmKind::Repartitioning,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let busy = out.nodes.iter().filter(|n| n.agg.raw_in > 0).count();
        assert!(busy <= 2, "{busy} nodes got data for 2 groups");
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn memory_pressure_is_lower_than_two_phase() {
        // With G groups spread over N nodes, Rep holds ~G/N entries per
        // node while 2P's local phase holds up to G; at M between the
        // two, Rep must not spill while 2P must.
        let spec = RelationSpec::uniform(8000, 2000);
        let parts = generate_partitions(&spec, 4);
        let params = CostParams {
            max_hash_entries: 1000, // G/N = 500 < M=1000 < G=2000
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        let cfg = AlgoConfig::default_for(4);
        let rep = run_algorithm_with(
            AlgorithmKind::Repartitioning,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let tp = run_algorithm_with(
            AlgorithmKind::TwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert_eq!(rep.total_spilled(), 0, "Rep fits in memory");
        assert!(tp.total_spilled() > 0, "2P must overflow");
        assert_eq!(rep.rows, tp.rows, "same answer either way");
    }
}
