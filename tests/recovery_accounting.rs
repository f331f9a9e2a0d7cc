//! Property-style invariants over the recovery bookkeeping: whatever a
//! seeded chaos schedule does to a run, the `RecoveryStats` /
//! `NodeRecoveryStats` totals it reports must be internally consistent
//! — attempt counts, victim lists, reassignment counts, the backoff
//! series, and the per-link retry counters must all agree with each
//! other. The paper's figures are only as trustworthy as this
//! accounting.

use adaptagg::exec::recovery::BACKOFF_MULTIPLIER;
use adaptagg::exec::{ExecError, FaultPlan, RecoveryPolicy};
use adaptagg::model::ms_to_ticks;
use adaptagg::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

const NODES: usize = 4;
const TUPLES: usize = 4_000;
const GROUPS: usize = 120;

const SIX: [AlgorithmKind; 6] = [
    AlgorithmKind::CentralizedTwoPhase,
    AlgorithmKind::TwoPhase,
    AlgorithmKind::Repartitioning,
    AlgorithmKind::Sampling,
    AlgorithmKind::AdaptiveTwoPhase,
    AlgorithmKind::AdaptiveRepartitioning,
];

fn config(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig::new(NODES, CostParams::paper_default())
        .with_fault_plan(plan)
        .with_recovery(RecoveryPolicy::default())
        .with_watchdog(Duration::from_secs(10))
        .with_tracing()
}

/// The backoff the runtime books after `failures` failed attempts, in
/// ticks: the policy's geometric series, each step a whole tick count.
fn expected_backoff(policy: &RecoveryPolicy, failures: u32) -> u64 {
    let steps = std::iter::successors(Some(policy.backoff_ms), |b| Some(b * BACKOFF_MULTIPLIER));
    steps.take(failures as usize).map(ms_to_ticks).sum()
}

#[test]
fn recovery_stats_are_internally_consistent_across_the_chaos_matrix() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let policy = RecoveryPolicy::default();

    let mut recovered_runs = 0;
    for seed in 0..15u64 {
        let plan = FaultPlan::random(seed, NODES);
        for kind in SIX {
            let label = format!("{kind} seed {seed}");
            let out = match run_algorithm(kind, &config(plan.clone()), &parts, &query) {
                Ok(out) => out,
                Err(ExecError::RecoveryExhausted { attempts, last }) => {
                    assert!(plan.has_crash(), "{label}: exhausted without a crash");
                    assert!(
                        attempts >= 2 && attempts <= policy.max_attempts,
                        "{label}: exhausted at attempts = {attempts}"
                    );
                    assert!(
                        !last.to_string().is_empty(),
                        "{label}: exhaustion must name its last cause"
                    );
                    continue;
                }
                Err(other) => panic!("{label}: unexpected failure {other:?}"),
            };
            let r = &out.run.recovery;

            // Attempt arithmetic: every failed attempt removes exactly
            // one node, and the success is the final attempt.
            assert!(
                r.attempts >= 1 && r.attempts <= policy.max_attempts,
                "{label}: attempts = {}",
                r.attempts
            );
            assert_eq!(
                r.attempts as usize,
                r.dead_nodes.len() + 1,
                "{label}: attempts and victim count disagree"
            );
            assert_eq!(r.recovered(), r.attempts > 1, "{label}: recovered() lies");

            // Victims: distinct, real node ids, never resurrected in
            // the final report.
            let distinct: HashSet<usize> = r.dead_nodes.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                r.dead_nodes.len(),
                "{label}: a node died twice: {:?}",
                r.dead_nodes
            );
            assert!(
                r.dead_nodes.iter().all(|&n| n < NODES),
                "{label}: victim out of range: {:?}",
                r.dead_nodes
            );
            let survivors: HashSet<usize> =
                out.run.per_node.iter().map(|n| n.node).collect();
            assert_eq!(
                survivors.len(),
                NODES - r.dead_nodes.len(),
                "{label}: survivor count wrong"
            );
            assert!(
                survivors.is_disjoint(&distinct),
                "{label}: a dead node filed a report"
            );

            // Reassignment and cost: each victim owned at least its own
            // base partition; a clean run moves and spends nothing.
            if r.recovered() {
                assert!(
                    r.reassigned_partitions >= r.dead_nodes.len() as u64,
                    "{label}: {} victims but only {} partitions moved",
                    r.dead_nodes.len(),
                    r.reassigned_partitions
                );
                recovered_runs += 1;
            } else {
                assert_eq!(r.reassigned_partitions, 0, "{label}: phantom reassignment");
                assert_eq!(r.lost, 0, "{label}: lost time without a failure");
            }

            // The booked backoff is exactly the policy's geometric
            // series over the failed attempts.
            assert_eq!(
                r.backoff,
                expected_backoff(&policy, r.attempts - 1),
                "{label}: backoff series off"
            );

            // Cross-check the per-link ledgers against the per-node
            // totals: what every link recorded as retries must sum to
            // the node's send_retries counter.
            let trace = out.trace.as_ref().expect("traced run carries a trace");
            for node in &out.run.per_node {
                let traced = trace
                    .nodes
                    .iter()
                    .find(|t| t.node == node.node)
                    .unwrap_or_else(|| panic!("{label}: node {} has no trace", node.node));
                let link_retries: u64 = traced.links.iter().map(|l| l.retries).sum();
                assert_eq!(
                    link_retries, node.net.send_retries,
                    "{label}: node {} link ledger disagrees with its retry total",
                    node.node
                );
            }

            // Node-level recovery activity only exists when the policy
            // actually had to recover (checkpoints are written during
            // healthy scans too, but restores and replays require a
            // prior failed attempt).
            let totals = out
                .run
                .per_node
                .iter()
                .fold(adaptagg::exec::NodeRecoveryStats::default(), |mut acc, n| {
                    acc.add(&n.recovery);
                    acc
                });
            if totals.restored_partials > 0 {
                assert!(
                    r.recovered(),
                    "{label}: partials restored in a run that never failed"
                );
                assert!(
                    totals.checkpoint_partials > 0,
                    "{label}: restored partials that were never checkpointed"
                );
            }
            if !r.recovered() {
                assert_eq!(
                    totals.replayed_pages, 0,
                    "{label}: replay without a failed attempt"
                );
            }
        }
    }
    assert!(
        recovered_runs > 0,
        "no schedule ever recovered — matrix too tame to test the accounting"
    );
    // Note what is *not* asserted: nonzero send retries. Reports cover
    // the successful final attempt only — the attempt in which nobody
    // died — so the retries spent probing a dying peer are discarded
    // with the failed attempt's seats. The retry counters themselves
    // are unit-tested in `net::fabric`; here we prove the surviving
    // ledgers agree with each other.
}

/// The same invariants hold over the TCP loopback backend — the
/// accounting lives in the reliability layer above the transport, so
/// swapping the wire must not change a single counter's meaning.
#[test]
fn recovery_accounting_holds_over_tcp_loopback() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let policy = RecoveryPolicy::default();

    for seed in [1u64, 4] {
        let plan = FaultPlan::random(seed, NODES);
        for kind in [AlgorithmKind::TwoPhase, AlgorithmKind::Repartitioning] {
            let cfg = config(plan.clone())
                .with_transport(adaptagg::net::TransportKind::TcpLoopback);
            let label = format!("{kind} seed {seed} over tcp");
            let out = match run_algorithm(kind, &cfg, &parts, &query) {
                Ok(out) => out,
                Err(ExecError::RecoveryExhausted { .. }) => continue,
                Err(other) => panic!("{label}: unexpected failure {other:?}"),
            };
            let r = &out.run.recovery;
            assert_eq!(
                r.attempts as usize,
                r.dead_nodes.len() + 1,
                "{label}: attempts and victim count disagree"
            );
            assert_eq!(
                r.backoff,
                expected_backoff(&policy, r.attempts - 1),
                "{label}: backoff series off"
            );
            let trace = out.trace.as_ref().expect("traced run carries a trace");
            assert_eq!(
                trace.transport, "tcp-loopback",
                "{label}: trace mislabels its transport"
            );
            for node in &out.run.per_node {
                let traced = trace.nodes.iter().find(|t| t.node == node.node).unwrap();
                let link_retries: u64 = traced.links.iter().map(|l| l.retries).sum();
                assert_eq!(link_retries, node.net.send_retries, "{label}");
            }
        }
    }
}
