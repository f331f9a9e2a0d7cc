//! Algorithm dispatch: run any of the nine strategies on a cluster.

use crate::common::QueryPlan;
use crate::config::AlgoConfig;
use crate::outcome::{NodeOutcome, NodeOutcomeSummary, RunOutcome};
use adaptagg_exec::{run_cluster, ClusterConfig, ExecError, NodeCtx};
use adaptagg_model::query::merge_rows;
use adaptagg_model::AggQuery;
use adaptagg_storage::HeapFile;
use std::fmt;
use std::time::Instant;

/// The aggregation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// §2.1 — local aggregation, sequential merge at a coordinator.
    CentralizedTwoPhase,
    /// §2.2 — local aggregation, parallel hash-partitioned merge.
    TwoPhase,
    /// §2.3 — repartition raw tuples, aggregate once in parallel.
    Repartitioning,
    /// §3.1 — sample first, then run Two Phase or Repartitioning.
    Sampling,
    /// §3.2 — Two Phase that switches to Repartitioning at the memory
    /// knee, per node independently. The paper's recommendation.
    AdaptiveTwoPhase,
    /// §3.3 — Repartitioning that falls back to Adaptive Two Phase when a
    /// node sees too few groups.
    AdaptiveRepartitioning,
    /// Graefe's optimization (\[Gra93\], discussed in §3.2): forward
    /// overflow tuples instead of spilling, keep the local table resident.
    OptimizedTwoPhase,
    /// Bitton et al.'s sort-based local aggregation (\[BBDW83\], cited in
    /// §1): sorted runs with early aggregation instead of a hash table.
    SortTwoPhase,
    /// Bitton et al.'s broadcast algorithm (\[BBDW83\], cited in §1 as
    /// "impractical on today's multiprocessor interconnects"): every node
    /// ships everything to everyone. The negative baseline.
    Broadcast,
}

impl AlgorithmKind {
    /// All strategies, in the paper's presentation order (paper baselines
    /// and proposals first, related-work baselines last).
    pub const ALL: [AlgorithmKind; 9] = [
        AlgorithmKind::CentralizedTwoPhase,
        AlgorithmKind::TwoPhase,
        AlgorithmKind::Repartitioning,
        AlgorithmKind::Sampling,
        AlgorithmKind::AdaptiveTwoPhase,
        AlgorithmKind::AdaptiveRepartitioning,
        AlgorithmKind::OptimizedTwoPhase,
        AlgorithmKind::SortTwoPhase,
        AlgorithmKind::Broadcast,
    ];

    /// The five the paper's implementation study plots (Figure 8).
    pub const FIGURE8: [AlgorithmKind; 5] = [
        AlgorithmKind::TwoPhase,
        AlgorithmKind::Repartitioning,
        AlgorithmKind::Sampling,
        AlgorithmKind::AdaptiveTwoPhase,
        AlgorithmKind::AdaptiveRepartitioning,
    ];

    /// Short plot label, as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::CentralizedTwoPhase => "C-2P",
            AlgorithmKind::TwoPhase => "2P",
            AlgorithmKind::Repartitioning => "Rep",
            AlgorithmKind::Sampling => "Samp",
            AlgorithmKind::AdaptiveTwoPhase => "A-2P",
            AlgorithmKind::AdaptiveRepartitioning => "A-Rep",
            AlgorithmKind::OptimizedTwoPhase => "Opt-2P",
            AlgorithmKind::SortTwoPhase => "Sort-2P",
            AlgorithmKind::Broadcast => "Bcast",
        }
    }

    /// The strategy a name spells, in any case: its [`label`](Self::label),
    /// the label without its hyphen (`a2p`), or `sampling` / `broadcast`.
    pub fn from_name(name: &str) -> Option<AlgorithmKind> {
        let name = name.to_ascii_lowercase();
        let name = match name.as_str() {
            "sampling" => "samp",
            "broadcast" => "bcast",
            name => name,
        };
        Self::ALL.into_iter().find(|kind| {
            let label = kind.label().to_ascii_lowercase();
            name == label || name == label.replace('-', "")
        })
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Run an algorithm with default tuning for the cluster size.
pub fn run_algorithm(
    kind: AlgorithmKind,
    cluster: &ClusterConfig,
    partitions: &[HeapFile],
    query: &AggQuery,
) -> Result<RunOutcome, ExecError> {
    run_algorithm_with(
        kind,
        cluster,
        partitions,
        query,
        &AlgoConfig::default_for(cluster.nodes),
    )
}

/// Run an algorithm with explicit tuning.
///
/// `partitions[i]` is node `i`'s base partition (cloned into the node's
/// simulated disk so the caller can reuse them across algorithms). The
/// returned [`RunOutcome`] carries the globally-sorted result, virtual-time
/// reports, and per-node adaptive events. A traced run's trace also
/// carries the wall time of that global merge, as the `driver.sort_ms`
/// annotation.
pub fn run_algorithm_with(
    kind: AlgorithmKind,
    cluster: &ClusterConfig,
    partitions: &[HeapFile],
    query: &AggQuery,
    cfg: &AlgoConfig,
) -> Result<RunOutcome, ExecError> {
    let plan = QueryPlan::new(query);
    let body = move |ctx: &mut NodeCtx| -> Result<NodeOutcome, ExecError> {
        match kind {
            AlgorithmKind::CentralizedTwoPhase => crate::c2p::run_node(ctx, &plan, cfg),
            AlgorithmKind::TwoPhase => crate::twophase::run_node(ctx, &plan, cfg),
            AlgorithmKind::Repartitioning => crate::repart::run_node(ctx, &plan, cfg),
            AlgorithmKind::Sampling => crate::sampling::run_node(ctx, &plan, cfg),
            AlgorithmKind::AdaptiveTwoPhase => crate::adaptive2p::run_node(ctx, &plan, cfg),
            AlgorithmKind::AdaptiveRepartitioning => {
                crate::adaptiverep::run_node(ctx, &plan, cfg)
            }
            AlgorithmKind::OptimizedTwoPhase => crate::opt2p::run_node(ctx, &plan, cfg),
            AlgorithmKind::SortTwoPhase => crate::sort2p::run_node(ctx, &plan, cfg),
            AlgorithmKind::Broadcast => crate::broadcast::run_node(ctx, &plan, cfg),
        }
    };

    let cluster_run = run_cluster(cluster, partitions.to_vec(), body)?;

    // Each node hands its rows over as ascending runs (one per table it
    // drained); they are merged straight into the output.
    let started = cluster_run.trace.is_some().then(Instant::now);
    let mut parts = Vec::with_capacity(cluster_run.outputs.len());
    let mut nodes = Vec::with_capacity(cluster_run.outputs.len());
    for outcome in cluster_run.outputs {
        nodes.push(NodeOutcomeSummary {
            rows_produced: outcome.rows.len(),
            agg: outcome.agg,
            events: outcome.events,
        });
        parts.push(outcome.rows);
    }
    let rows = merge_rows(parts);
    let mut trace = cluster_run.trace;
    if let (Some(trace), Some(started)) = (&mut trace, started) {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        trace.annotations.push(("driver.sort_ms".into(), ms));
    }

    Ok(RunOutcome {
        rows,
        run: cluster_run.run,
        nodes,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::CostParams;
    use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in AlgorithmKind::ALL {
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
        }
    }

    #[test]
    fn every_label_parses_back() {
        for k in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::from_name(k.label()), Some(k), "{k}");
        }
        assert_eq!(AlgorithmKind::from_name("a2p"), Some(AlgorithmKind::AdaptiveTwoPhase));
        assert_eq!(AlgorithmKind::from_name("Broadcast"), Some(AlgorithmKind::Broadcast));
        assert_eq!(AlgorithmKind::from_name("a2-p"), None);
    }

    #[test]
    fn all_algorithms_agree_on_one_workload() {
        let spec = RelationSpec::uniform(4000, 150);
        let parts = generate_partitions(&spec, 4);
        let query = default_query();
        let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();
        let config = ClusterConfig::new(4, CostParams::paper_default());
        for kind in AlgorithmKind::ALL {
            let out = run_algorithm(kind, &config, &parts, &query).unwrap();
            assert_eq!(out.rows, reference, "{kind} diverged from reference");
        }
    }

    #[test]
    fn partitions_are_reusable_across_runs() {
        let spec = RelationSpec::uniform(500, 10);
        let parts = generate_partitions(&spec, 2);
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let query = default_query();
        let a = run_algorithm(AlgorithmKind::TwoPhase, &config, &parts, &query).unwrap();
        let b = run_algorithm(AlgorithmKind::TwoPhase, &config, &parts, &query).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.elapsed_ms(), b.elapsed_ms(), "virtual time is deterministic");
    }
}
