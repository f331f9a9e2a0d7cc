//! Cost-model invariance pins.
//!
//! The wall-clock optimisation work (allocation-free hot path,
//! page-batched operators) treats the cost model as its correctness
//! contract: every `CostEvent` count and virtual-time figure must be
//! identical to the pre-optimisation implementation. The constants
//! below were captured from the unoptimised code (commit 893d349) by
//! the `print_pins` test; they must never move under perf work. The
//! times were re-read once, as integer ticks, when the clock stopped
//! accumulating `f64` milliseconds: each is within 1e-9 of the bits it
//! replaced (DESIGN.md §21 has both).
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
    ms_to_ticks, ticks_to_ms, AggFunc, AggQuery, AggSpec, Compare, CostEvent, CostParams,
    CostTracker, CountingTracker, NetworkKind, Predicate, RowKind, Value, TICKS_PER_MS,
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
/// parameters, in ticks (captured pre-change).
const PIN_COMPONENT_TICKS: u64 = 35_140_000_000;

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
    assert_eq!(clock.now(), PIN_COMPONENT_TICKS, "virtual time drifted: got {} ms", clock.now_ms());
}

/// Pinned end-to-end virtual times (ticks, captured pre-change) for
/// deterministic cluster shapes. (kind, nodes, tuples, groups,
/// max_hash_entries, elapsed ticks.)
const PIN_RUNS: &[(AlgorithmKind, usize, usize, usize, usize, u64)] = &[
    (AlgorithmKind::TwoPhase, 1, 3000, 120, 10_000, 195_130_000_000), // 195.13 ms
    (AlgorithmKind::Repartitioning, 1, 3000, 120, 10_000, 197_950_000_000), // 197.95 ms
    (AlgorithmKind::AdaptiveTwoPhase, 1, 3000, 120, 10_000, 195_130_000_000), // 195.13 ms
    (AlgorithmKind::CentralizedTwoPhase, 1, 3000, 120, 10_000, 195_100_000_000), // 195.1 ms
    (AlgorithmKind::SortTwoPhase, 1, 3000, 120, 10_000, 197_230_000_000), // 197.23 ms
    // Overflow engaged: 1500 groups against a 300-entry budget.
    (AlgorithmKind::TwoPhase, 1, 3000, 1500, 300, 411_975_000_000), // 411.975 ms
    (AlgorithmKind::Repartitioning, 1, 3000, 1500, 300, 305_500_000_000), // 305.5 ms
    // Two nodes: arrival order is still deterministic (single peer).
    (AlgorithmKind::TwoPhase, 2, 2000, 50, 10_000, 66_215_000_000), // 66.215 ms
    (AlgorithmKind::Repartitioning, 2, 2000, 50, 10_000, 68_092_500_000), // 68.0925 ms
    // Two nodes *and* overflow engaged: the spill spool/drain and the
    // cross-node merge both run, covering the columnar spill path.
    (AlgorithmKind::TwoPhase, 2, 3000, 1500, 300, 217_864_750_000), // 217.86475 ms
    // Sort-2P where runs actually seal (the 120-group pin above never
    // leaves memory): run spool, run read-back and the k-way merge, on
    // one node and across two.
    (AlgorithmKind::SortTwoPhase, 1, 3000, 1500, 300, 427_302_500_000), // 427.3025 ms
    (AlgorithmKind::SortTwoPhase, 2, 3000, 1500, 300, 219_897_250_000), // 219.89725 ms
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
        ticks: 174_576_000_000, // 174.576 ms
    },
    ScanPin {
        shape: (AlgorithmKind::AdaptiveTwoPhase, 1, 3000, 1500, 300),
        query: default_query,
        ticks: 311_051_000_000, // 311.051 ms
    },
];

struct ScanPin {
    shape: Shape,
    query: fn() -> AggQuery,
    ticks: u64,
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
        .map(|&(kind, nodes, tuples, groups, m, ticks)| ((kind, nodes, tuples, groups, m), default_query(), ticks));
    let scans = PIN_SCAN_RUNS.iter().map(|pin| (pin.shape, (pin.query)(), pin.ticks));
    defaults.chain(scans)
}

fn assert_pins_hold() {
    for (shape, query, ticks) in all_pins() {
        let out = pinned_run(shape, &query);
        if query == default_query() {
            assert_eq!(out.rows.len(), shape.3);
        }
        assert_eq!(
            out.elapsed(),
            ticks,
            "{shape:?} ({} predicates): virtual time drifted to {} ms",
            query.filter.len(),
            out.elapsed_ms()
        );
    }
}

#[test]
fn cluster_virtual_times_are_pinned() {
    assert_pins_hold();

    // `with_threads` is an inert shim (one execution lane per node): the
    // A-2P scan pin reads the same rows, clock bits and trace event kinds
    // with it as without.
    let ScanPin { shape, query, ticks } = PIN_SCAN_RUNS[1];
    let traced = pinned_config(shape).with_tracing();
    let plain = run_shape(shape, &query(), &traced);
    let shimmed = run_shape(shape, &query(), &traced.with_threads(8));
    assert_eq!(plain.rows, shimmed.rows);
    assert_eq!(plain.elapsed(), ticks);
    assert_eq!(shimmed.elapsed(), ticks);
    let kinds = |out: &RunOutcome| -> Vec<Vec<std::mem::Discriminant<TraceEvent>>> {
        let nodes = &out.trace.as_ref().expect("traced run").nodes;
        nodes.iter().map(|n| n.events.iter().map(std::mem::discriminant).collect()).collect()
    };
    assert!(kinds(&plain).iter().any(|events| !events.is_empty()), "A-2P traces its switch");
    assert_eq!(kinds(&plain), kinds(&shimmed));
}

/// Every time-valued knob of Table 1: how to set it to `ms`, and what it
/// is in ms (an instruction count at the node's MIPS rating, a page I/O,
/// the network's per-page time).
type Knob = (fn(&mut CostParams, f64), fn(&CostParams) -> f64);

const KNOBS: [Knob; 9] = [
    (|p, ms| p.instr_read_tuple = ms * p.mips * 1e3, CostParams::t_read),
    (|p, ms| p.instr_write_tuple = ms * p.mips * 1e3, CostParams::t_write),
    (|p, ms| p.instr_hash = ms * p.mips * 1e3, CostParams::t_hash),
    (|p, ms| p.instr_agg = ms * p.mips * 1e3, CostParams::t_agg),
    (|p, ms| p.instr_dest = ms * p.mips * 1e3, CostParams::t_dest),
    (|p, ms| p.io_seq_ms = ms, |p| p.io_seq_ms),
    (|p, ms| p.io_rand_ms = ms, |p| p.io_rand_ms),
    (|p, ms| p.instr_msg_protocol = ms * p.mips * 1e3, CostParams::t_msg_protocol),
    (|p, ms| p.network = NetworkKind::HighSpeed { latency_ms: ms }, |p| p.network.ms_per_page()),
];

/// The clock is exact: for the component harness, and for every pinned
/// run in which no node ever waits, each clock is Σ count × unit over the
/// knobs — to the tick. A run's counts are read off the run itself under
/// indicator parameters (every knob zero but one, which is 1 ms: the
/// clock then reads that knob's count in ms), so nothing here trusts the
/// clock's own arithmetic.
#[test]
fn elapsed_ticks_are_counts_times_units() {
    let params = CostParams::paper_default();
    let mut clock = Clock::new(params.clone());
    run_component_harness(&mut clock);
    let units: u64 = PIN_COUNTS.iter().map(|&(e, n)| n * e.unit_ticks(&params)).sum();
    assert_eq!(clock.now(), units, "component harness");

    // Every node's clock, if no node waited.
    let clocks = |shape: Shape, query: &AggQuery, params: &CostParams| -> Option<Vec<u64>> {
        let out = run_shape(shape, query, &ClusterConfig::new(shape.1, params.clone()));
        let nodes = &out.run.per_node;
        nodes.iter().all(|r| r.breakdown.wait_ms == 0.0).then(|| nodes.iter().map(|r| r.clock).collect())
    };
    let mut checked = 0;
    'pins: for (shape, query, _) in all_pins() {
        let base = pinned_config(shape).params;
        let Some(clock) = clocks(shape, &query, &base) else { continue };
        let mut sum = vec![0; clock.len()];
        for (set, unit) in KNOBS {
            let mut indicator = base.clone();
            KNOBS.iter().for_each(|(zero, _)| zero(&mut indicator, 0.0));
            set(&mut indicator, 1.0);
            let Some(counts) = clocks(shape, &query, &indicator) else { continue 'pins };
            for (sum, count) in sum.iter_mut().zip(counts) {
                assert_eq!(count % TICKS_PER_MS, 0, "{shape:?}: a count of {} ms", ticks_to_ms(count));
                *sum += count / TICKS_PER_MS * ms_to_ticks(unit(&base));
            }
        }
        assert_eq!(clock, sum, "{shape:?} ({} predicates)", query.filter.len());
        checked += 1;
    }
    // The ten one-node pins (nothing waits there) and two of the four
    // two-node ones.
    assert_eq!(checked, 12, "wait-free pinned runs");
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
    println!("const PIN_COMPONENT_TICKS: u64 = {}; // {} ms", clock.now(), clock.now_ms());

    println!("const PIN_RUNS / PIN_SCAN_RUNS: ... = &[");
    for (shape, query, _) in all_pins() {
        let out = pinned_run(shape, &query);
        println!("    ({shape:?}, {}), // {} ms", out.elapsed(), out.elapsed_ms());
    }
    println!("];");
}
