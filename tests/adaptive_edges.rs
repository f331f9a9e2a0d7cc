//! Edge cases of the adaptive strategies (§3.2–§3.3), asserting both the
//! results and the emitted switch *trace events*: overflow exactly at the
//! table budget, empty and single-tuple inputs, all-duplicate and
//! all-distinct keys, and the ARep initial-segment boundary.

use adaptagg::prelude::*;
use adaptagg::storage::HeapFile;

/// One partition holding `(g, v)` rows in the given order.
fn partition(rows: &[(i64, i64)]) -> Vec<HeapFile> {
    let mut f = HeapFile::new(512);
    for &(g, v) in rows {
        f.append(&[Value::Int(g), Value::Int(v)]).unwrap();
    }
    vec![f]
}

fn query() -> AggQuery {
    AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    )
}

fn traced_config(nodes: usize, m: usize) -> ClusterConfig {
    ClusterConfig::new(
        nodes,
        CostParams {
            max_hash_entries: m,
            ..CostParams::paper_default()
        },
    )
    .with_tracing()
}

/// All strategy-switch trace events across the run, as `(node, cause,
/// at_tuple)`.
fn switch_events(out: &RunOutcome) -> Vec<(usize, SwitchCause, u64)> {
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let mut found = Vec::new();
    for node in &trace.nodes {
        for event in &node.events {
            if let TraceEvent::StrategySwitch { cause, at_tuple, .. } = event {
                found.push((node.node, *cause, *at_tuple));
            }
        }
    }
    found
}

#[test]
fn a2p_exactly_at_budget_does_not_switch() {
    // 8 distinct groups, M = 8: the table fills exactly but never
    // overflows, so A2P must behave as plain Two Phase.
    let rows: Vec<(i64, i64)> = (0..64).map(|i| (i % 8, i)).collect();
    let parts = partition(&rows);
    let out = run_algorithm(
        AlgorithmKind::AdaptiveTwoPhase,
        &traced_config(1, 8),
        &parts,
        &query(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 8);
    assert!(out.adapted_nodes().is_empty(), "no switch at exactly M groups");
    assert!(switch_events(&out).is_empty(), "no switch trace event either");
}

#[test]
fn a2p_one_past_budget_switches_at_the_overflow_tuple() {
    // Groups arrive in order 0,1,…,8: the 9th distinct group (tuple 9,
    // 1-based) is the first rejected insert with M = 8.
    let rows: Vec<(i64, i64)> = (0..64).map(|i| (i % 9, i)).collect();
    let parts = partition(&rows);
    let out = run_algorithm(
        AlgorithmKind::AdaptiveTwoPhase,
        &traced_config(1, 8),
        &parts,
        &query(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 9);
    // The adaptive event and the trace event agree on the switch point.
    assert_eq!(
        out.nodes[0].events,
        vec![AdaptEvent::SwitchedToRepartitioning { at_tuple: 9 }]
    );
    assert_eq!(
        switch_events(&out),
        vec![(0, SwitchCause::TableFull, 9)]
    );
}

#[test]
fn empty_and_single_tuple_inputs() {
    for rows in [vec![], vec![(7i64, 42i64)]] {
        let q = query();
        let reference = reference_aggregate(&partition(&rows), &q).unwrap();
        for nodes in [1usize, 3] {
            // Spread the (0 or 1) tuples over `nodes` partitions: node 0
            // gets everything, the rest scan empty files.
            let mut parts = partition(&rows);
            parts.resize_with(nodes, || HeapFile::new(512));
            let config = traced_config(nodes, 4);
            for kind in AlgorithmKind::ALL {
                let out = run_algorithm(kind, &config, &parts, &q).unwrap();
                assert_eq!(
                    out.rows, reference,
                    "{kind} at {nodes} nodes on {} tuples",
                    rows.len()
                );
                assert!(switch_events(&out).is_empty(), "{kind}: nothing to switch on");
            }
        }
    }
}

#[test]
fn all_duplicate_keys_never_switch() {
    // One group, tiny budget: the table can never fill.
    let rows: Vec<(i64, i64)> = (0..200).map(|i| (5, i)).collect();
    let out = run_algorithm(
        AlgorithmKind::AdaptiveTwoPhase,
        &traced_config(2, 2),
        &{
            let mut parts = partition(&rows);
            parts.resize_with(2, || HeapFile::new(512));
            parts
        },
        &query(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].aggs[1], Value::Int(200));
    assert!(switch_events(&out).is_empty());
}

#[test]
fn all_distinct_keys_switch_and_stay_exact() {
    // Every key unique: with M = 8 each node overflows at tuple 9.
    let rows: Vec<(i64, i64)> = (0..120).map(|i| (i, 1)).collect();
    let parts = partition(&rows);
    let out = run_algorithm(
        AlgorithmKind::AdaptiveTwoPhase,
        &traced_config(1, 8),
        &parts,
        &query(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 120);
    assert_eq!(switch_events(&out), vec![(0, SwitchCause::TableFull, 9)]);
}

#[test]
fn arep_below_min_groups_falls_back_exactly_at_init_seg() {
    // First 64 tuples hold 2 < 8 distinct groups: the local verdict fires
    // at precisely tuple 64 and is recorded as a low-cardinality switch.
    let rows: Vec<(i64, i64)> = (0..128).map(|i| (i % 2, i)).collect();
    let parts = partition(&rows);
    let mut cfg = AlgoConfig::default_for(1).with_crossover_threshold(8);
    cfg.arep_init_seg = 64;
    let out = run_algorithm_with(
        AlgorithmKind::AdaptiveRepartitioning,
        &traced_config(1, 1000),
        &parts,
        &query(),
        &cfg,
    )
    .unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(
        out.nodes[0].events,
        vec![AdaptEvent::FellBackToTwoPhase {
            at_tuple: 64,
            local_decision: true,
        }]
    );
    assert_eq!(
        switch_events(&out),
        vec![(0, SwitchCause::LowCardinalityLocal, 64)]
    );
}

#[test]
fn arep_exactly_min_groups_does_not_fall_back() {
    // Exactly 8 distinct groups in the initial segment: the verdict is
    // `< min_groups`, so the boundary case stays with repartitioning.
    let rows: Vec<(i64, i64)> = (0..128).map(|i| (i % 8, i)).collect();
    let parts = partition(&rows);
    let mut cfg = AlgoConfig::default_for(1).with_crossover_threshold(8);
    cfg.arep_init_seg = 64;
    let out = run_algorithm_with(
        AlgorithmKind::AdaptiveRepartitioning,
        &traced_config(1, 1000),
        &parts,
        &query(),
        &cfg,
    )
    .unwrap();
    assert_eq!(out.rows.len(), 8);
    assert!(out.nodes[0].events.is_empty(), "boundary case must not fall back");
    assert!(switch_events(&out).is_empty());
}
