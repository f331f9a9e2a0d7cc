//! Cost-model invariance pins.
//!
//! The wall-clock optimisation work (allocation-free hot path,
//! page-batched operators) treats the cost model as its correctness
//! contract: every `CostEvent` count and virtual-time figure must be
//! bit-identical to the pre-optimisation implementation. The constants
//! below were captured from the unoptimised code (commit 893d349) by
//! the `print_pins` test; they must never move under perf work.
//!
//! What makes these stable by construction:
//! - the component harness feeds the aggregator an explicit row
//!   sequence, so the resident/spilled split is order-controlled;
//! - the cluster figures are 1- and 2-node runs, where message arrival
//!   order is deterministic (each receiver has at most one peer).
//!
//! To recapture after an *intentional* cost-model change (never a perf
//! change):  cargo test --test cost_invariance print_pins -- --ignored --nocapture

use adaptagg_algos::{run_algorithm, AdaptEvent, AlgorithmKind, RunOutcome};
use adaptagg_exec::{Clock, ClusterConfig, TraceEvent};
use adaptagg_hashagg::HashAggregator;
use adaptagg_model::{
    AggFunc, AggQuery, AggSpec, Compare, CostEvent, CostParams, CostTracker, CountingTracker,
    Predicate, RowKind, Value,
};
use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

/// Projected-form query used by the component harness:
/// `SELECT g, SUM(v), COUNT(*) GROUP BY g` over (g, v) rows.
fn harness_query() -> AggQuery {
    AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    )
}

/// Drive a memory-bounded aggregator through raw inserts (with overflow
/// spill — 97 groups against a 32-entry budget), partial merges, and a
/// finalizing drain, recording every cost event into `tracker`. The row
/// sequence is explicit and fixed: nothing about it depends on hash-map
/// iteration order, so its event totals pin the per-tuple charging
/// contract exactly.
fn run_component_harness<T: CostTracker>(tracker: &mut T) {
    let mut agg = HashAggregator::new(harness_query(), 32, 4096, 4);
    for i in 0..500i64 {
        let row = vec![Value::Int((i * 7) % 97), Value::Int(i)];
        agg.push(RowKind::Raw, &row, tracker).unwrap();
    }
    for i in 0..100i64 {
        let row = vec![Value::Int((i * 5) % 61), Value::Int(i), Value::Int(1)];
        agg.push(RowKind::Partial, &row, tracker).unwrap();
    }
    let (rows, stats) = agg.finish_rows(tracker).unwrap();
    assert_eq!(rows.len(), 97, "both key sets cover residues of 97 and 61");
    assert!(stats.spilled(), "harness must exercise the overflow path");
}

/// Pinned event totals for the component harness (captured pre-change).
const PIN_COUNTS: &[(CostEvent, u64)] = &[
    (CostEvent::TupleRead, 1378),
    (CostEvent::TupleWrite, 486),
    (CostEvent::TupleHash, 989),
    (CostEvent::TupleAgg, 600),
    (CostEvent::TupleDest, 0),
    (CostEvent::PageReadSeq, 4),
    (CostEvent::PageWriteSeq, 4),
    (CostEvent::PageReadRand, 0),
    (CostEvent::MsgProtocol, 0),
];

/// Pinned virtual time for the component harness under paper-default
/// parameters (f64 bits; captured pre-change).
const PIN_COMPONENT_MS_BITS: u64 = 0x404191eb851eb8ab; // 35.14000000000063 ms

#[test]
fn component_event_counts_are_pinned() {
    let mut counts = CountingTracker::default();
    run_component_harness(&mut counts);
    for &(event, expected) in PIN_COUNTS {
        assert_eq!(
            counts.count(event),
            expected,
            "{event:?} count drifted from the pre-optimisation pin"
        );
    }
}

#[test]
fn component_virtual_time_is_pinned() {
    let mut clock = Clock::new(CostParams::paper_default());
    run_component_harness(&mut clock);
    assert_eq!(
        clock.now_ms().to_bits(),
        PIN_COMPONENT_MS_BITS,
        "virtual time drifted: got {} ms ({:#018x})",
        clock.now_ms(),
        clock.now_ms().to_bits()
    );
}

/// Pinned end-to-end virtual times (f64 bits, captured pre-change) for
/// deterministic cluster shapes. (kind, nodes, tuples, groups,
/// max_hash_entries, elapsed_ms bits.)
const PIN_RUNS: &[(AlgorithmKind, usize, usize, usize, usize, u64)] = &[
    (AlgorithmKind::TwoPhase, 1, 3000, 120, 10_000, 0x40686428f5c2882d), // 195.13 ms
    (AlgorithmKind::Repartitioning, 1, 3000, 120, 10_000, 0x4068be6666665d81), // 197.95 ms
    (AlgorithmKind::AdaptiveTwoPhase, 1, 3000, 120, 10_000, 0x40686428f5c2882d), // 195.13 ms
    (AlgorithmKind::CentralizedTwoPhase, 1, 3000, 120, 10_000, 0x4068633333332c1d), // 195.10 ms
    (AlgorithmKind::SortTwoPhase, 1, 3000, 120, 10_000, 0x4068a75c28f5bb13), // 197.23 ms
    // Overflow engaged: 1500 groups against a 300-entry budget.
    (AlgorithmKind::TwoPhase, 1, 3000, 1500, 300, 0x4079bf9999998e5d), // 411.97 ms
    (AlgorithmKind::Repartitioning, 1, 3000, 1500, 300, 0x407317fffffff8ec), // 305.50 ms
    // Two nodes: arrival order is still deterministic (single peer).
    (AlgorithmKind::TwoPhase, 2, 2000, 50, 10_000, 0x40508dc28f5c288f), // 66.215 ms
    (AlgorithmKind::Repartitioning, 2, 2000, 50, 10_000, 0x405105eb851eb7d2), // 68.0925 ms
    // Two nodes *and* overflow engaged: the spill spool/drain and the
    // cross-node merge both run, covering the columnar spill path.
    (AlgorithmKind::TwoPhase, 2, 3000, 1500, 300, 0x406b3bac08311e03), // 217.86475 ms
    // Sort-2P where runs actually seal (the 120-group pin above never
    // leaves memory): run spool, run read-back and the k-way merge, on
    // one node and across two.
    (AlgorithmKind::SortTwoPhase, 1, 3000, 1500, 300, 0x407ab4d70a3d64cb), // 427.3025 ms
    (AlgorithmKind::SortTwoPhase, 2, 3000, 1500, 300, 0x406b7cb645a1c027), // 219.8972 ms
];

/// Pins for the page-at-a-time scan (DESIGN.md §17), captured on the
/// row-at-a-time scan it replaced (commit c78806c): same tuple as
/// `PIN_RUNS` plus the query. The first filters on a projected column
/// and projects `[1, 0]` — neither an identity nor a prefix of the base
/// layout; the second makes A-2P's switch land in the middle of a page,
/// so one batch is cut at the rejected row and finished row-wise.
const PIN_SCAN_RUNS: &[ScanPin] = &[
    ScanPin {
        shape: (AlgorithmKind::TwoPhase, 1, 3000, 120, 10_000),
        query: filtered_swapped_query,
        bits: 0x4065d26e978d4a6e, // 174.576 ms
    },
    ScanPin {
        shape: (AlgorithmKind::AdaptiveTwoPhase, 1, 3000, 1500, 300),
        query: default_query,
        bits: 0x407370d0e5603a52, // 311.051 ms
    },
];

struct ScanPin {
    shape: Shape,
    query: fn() -> AggQuery,
    bits: u64,
}

/// (kind, nodes, tuples, groups, max_hash_entries) of a pinned run.
type Shape = (AlgorithmKind, usize, usize, usize, usize);

/// `SELECT v, SUM(g), COUNT(*) WHERE g < 60 GROUP BY v` over `(g, v, pad)`.
fn filtered_swapped_query() -> AggQuery {
    AggQuery::new(
        vec![1],
        vec![AggSpec::over(AggFunc::Sum, 0), AggSpec::count_star()],
    )
    .with_filter(vec![Predicate::new(0, Compare::Lt, Value::Int(60))])
}

fn pinned_config((_, nodes, _, _, max_hash_entries): Shape) -> ClusterConfig {
    let params = CostParams {
        max_hash_entries,
        ..CostParams::paper_default()
    };
    ClusterConfig::new(nodes, params)
}

fn run_shape(shape: Shape, query: &AggQuery, config: &ClusterConfig) -> RunOutcome {
    let (kind, nodes, tuples, groups, _) = shape;
    let parts = generate_partitions(&RelationSpec::uniform(tuples, groups), nodes);
    run_algorithm(kind, config, &parts, query).unwrap()
}

fn pinned_run(shape: Shape, query: &AggQuery) -> RunOutcome {
    run_shape(shape, query, &pinned_config(shape))
}

/// Every pinned run: `PIN_RUNS` under the default query, then
/// `PIN_SCAN_RUNS` under their own.
fn all_pins() -> impl Iterator<Item = (Shape, AggQuery, u64)> {
    let defaults = PIN_RUNS
        .iter()
        .map(|&(kind, nodes, tuples, groups, m, bits)| ((kind, nodes, tuples, groups, m), default_query(), bits));
    let scans = PIN_SCAN_RUNS.iter().map(|pin| (pin.shape, (pin.query)(), pin.bits));
    defaults.chain(scans)
}

fn assert_pins_hold() {
    for (shape, query, bits) in all_pins() {
        let out = pinned_run(shape, &query);
        if query == default_query() {
            assert_eq!(out.rows.len(), shape.3);
        }
        let elapsed = out.elapsed_ms();
        assert_eq!(
            elapsed.to_bits(),
            bits,
            "{shape:?} ({} predicates): virtual time drifted to {elapsed} ms ({:#018x})",
            query.filter.len(),
            elapsed.to_bits()
        );
    }
}

#[test]
fn cluster_virtual_times_are_pinned() {
    assert_pins_hold();

    // `with_threads` is an inert shim (one execution lane per node): the
    // A-2P scan pin reads the same rows, clock bits and trace event kinds
    // with it as without.
    let ScanPin { shape, query, bits } = PIN_SCAN_RUNS[1];
    let traced = pinned_config(shape).with_tracing();
    let plain = run_shape(shape, &query(), &traced);
    let shimmed = run_shape(shape, &query(), &traced.with_threads(8));
    assert_eq!(plain.rows, shimmed.rows);
    assert_eq!(plain.elapsed_ms().to_bits(), bits);
    assert_eq!(shimmed.elapsed_ms().to_bits(), bits);
    let kinds = |out: &RunOutcome| -> Vec<Vec<std::mem::Discriminant<TraceEvent>>> {
        let nodes = &out.trace.as_ref().expect("traced run").nodes;
        nodes.iter().map(|n| n.events.iter().map(std::mem::discriminant).collect()).collect()
    };
    assert!(kinds(&plain).iter().any(|events| !events.is_empty()), "A-2P traces its switch");
    assert_eq!(kinds(&plain), kinds(&shimmed));
}

/// The scan pins must keep exercising what they were chosen for.
#[test]
fn scan_pins_hit_their_regimes() {
    let ScanPin { shape, query, .. } = PIN_SCAN_RUNS[0];
    let out = pinned_run(shape, &query());
    assert!(out.rows.len() > 100 && out.nodes[0].agg.raw_in < shape.2 as u64, "filter must bite");

    let ScanPin { shape, query, .. } = PIN_SCAN_RUNS[1];
    let out = pinned_run(shape, &query());
    let at_tuple = out.nodes[0]
        .events
        .iter()
        .find_map(|e| match *e {
            AdaptEvent::SwitchedToRepartitioning { at_tuple } => Some(at_tuple as usize),
            _ => None,
        })
        .expect("A-2P must switch");
    let parts = generate_partitions(&RelationSpec::uniform(shape.2, shape.3), shape.1);
    let per_page = parts[0].page(0).unwrap().tuple_count();
    let row_in_page = (at_tuple - 1) % per_page;
    assert!(
        row_in_page > 0 && row_in_page + 1 < per_page,
        "switch at tuple {at_tuple} is row {row_in_page} of a {per_page}-row page"
    );
}

/// Capture tool: prints the pin constants for the current build.
/// Run on a commit whose cost behaviour is the intended contract.
#[test]
#[ignore]
fn print_pins() {
    let mut counts = CountingTracker::default();
    run_component_harness(&mut counts);
    println!("const PIN_COUNTS: &[(CostEvent, u64)] = &[");
    for event in CostEvent::ALL {
        println!("    (CostEvent::{event:?}, {}),", counts.count(event));
    }
    println!("];");

    let mut clock = Clock::new(CostParams::paper_default());
    run_component_harness(&mut clock);
    println!(
        "const PIN_COMPONENT_MS_BITS: u64 = {:#018x}; // {} ms",
        clock.now_ms().to_bits(),
        clock.now_ms()
    );

    println!("const PIN_RUNS / PIN_SCAN_RUNS: ... = &[");
    for (shape, query, _) in all_pins() {
        let elapsed = pinned_run(shape, &query).elapsed_ms();
        println!("    ({shape:?}, {:#018x}), // {elapsed} ms", elapsed.to_bits());
    }
    println!("];");
}
