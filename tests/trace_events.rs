//! Acceptance suite for the observability layer.
//!
//! Three contracts:
//!
//! 1. **Completeness** — across the 150-run chaos matrix (25 seeds × the
//!    paper's six strategies, with a table budget small enough that A2P
//!    always overflows), every adaptive event a node reports has a
//!    matching first-class trace event carrying the trigger cause and the
//!    tuple offset.
//! 2. **Observer invariance** — enabling tracing changes no result row
//!    and no virtual-time figure (tracing never records a `CostEvent`).
//! 3. **Recovery visibility** — failed attempts appear in the run trace
//!    with victim, lost virtual time, and backoff.

use adaptagg::exec::{ExecError, FaultPlan};
use adaptagg::model::ticks_to_ms;
use adaptagg::prelude::*;
use std::time::Duration;

const NODES: usize = 4;
const TUPLES: usize = 4_000;
const GROUPS: usize = 120;

/// The paper's six strategies (§2–§3).
const SIX: [AlgorithmKind; 6] = [
    AlgorithmKind::CentralizedTwoPhase,
    AlgorithmKind::TwoPhase,
    AlgorithmKind::Repartitioning,
    AlgorithmKind::Sampling,
    AlgorithmKind::AdaptiveTwoPhase,
    AlgorithmKind::AdaptiveRepartitioning,
];

/// A small table budget (≪ the 120-group workload) so every A2P scan
/// genuinely overflows — the paper default `M = 10 K` would never switch
/// here and the completeness check would be vacuous.
fn traced_chaos_config(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig::new(
        NODES,
        CostParams {
            max_hash_entries: 64,
            ..CostParams::paper_default()
        },
    )
    .with_fault_plan(plan)
    .with_watchdog(Duration::from_secs(10))
    .with_tracing()
}

/// Assert every [`AdaptEvent`] on every node has its matching
/// [`TraceEvent`]; returns how many strategy switches were matched.
fn assert_events_traced(kind: AlgorithmKind, label: &str, out: &RunOutcome) -> usize {
    let trace = out.trace.as_ref().expect("traced run must carry a trace");
    let mut switches = 0;
    for (node_id, summary) in out.nodes.iter().enumerate() {
        let report = trace.node(node_id).unwrap_or_else(|| {
            panic!("{kind} {label}: node {node_id} missing from the trace")
        });
        for event in &summary.events {
            match *event {
                AdaptEvent::SwitchedToRepartitioning { at_tuple } => {
                    assert!(
                        report
                            .switches()
                            .any(|(c, t)| c == SwitchCause::TableFull && t == at_tuple),
                        "{kind} {label}: node {node_id} switched at tuple {at_tuple} \
                         but no table-full trace event matches: {:?}",
                        report.events
                    );
                    switches += 1;
                }
                AdaptEvent::FellBackToTwoPhase { at_tuple, local_decision } => {
                    let want = if local_decision {
                        SwitchCause::LowCardinalityLocal
                    } else {
                        SwitchCause::LowCardinalityPeer
                    };
                    assert!(
                        report.switches().any(|(c, t)| c == want && t == at_tuple),
                        "{kind} {label}: node {node_id} fell back at tuple {at_tuple} \
                         (local {local_decision}) but no matching trace event: {:?}",
                        report.events
                    );
                    switches += 1;
                }
                AdaptEvent::SamplingChose(choice) => {
                    let want = choice == AlgorithmChoice::Repartitioning;
                    assert!(
                        report.events.iter().any(|t| matches!(
                            t,
                            TraceEvent::SamplingDecision { use_repartitioning, .. }
                                if *use_repartitioning == want
                        )),
                        "{kind} {label}: node {node_id} chose {choice:?} but no \
                         matching sampling-decision trace event: {:?}",
                        report.events
                    );
                }
            }
        }
    }
    switches
}

/// The acceptance matrix: 25 seeds × six strategies = 150 traced chaos
/// runs. Every completed run's adaptive events must all appear as trace
/// events with cause + tuple offset, and the matrix as a whole must
/// actually contain switches (the small budget guarantees A2P overflows).
#[test]
fn every_switch_in_the_chaos_matrix_is_traced() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();

    let mut runs = 0;
    let mut completed = 0;
    let mut completed_a2p = 0;
    let mut switches = 0;
    for seed in 0..25u64 {
        let plan = FaultPlan::random(seed, NODES);
        for kind in SIX {
            runs += 1;
            match run_algorithm(kind, &traced_chaos_config(plan.clone()), &parts, &query) {
                Ok(out) => {
                    completed += 1;
                    if kind == AlgorithmKind::AdaptiveTwoPhase {
                        completed_a2p += 1;
                    }
                    switches += assert_events_traced(kind, &format!("seed {seed}"), &out);
                }
                Err(ExecError::InjectedCrash { .. }) => {
                    assert!(plan.has_crash(), "crash error without a scheduled crash");
                }
                Err(other) => panic!("{kind} seed {seed}: unexpected failure {other:?}"),
            }
        }
    }
    assert_eq!(runs, 150, "the acceptance matrix is 25 seeds × 6 strategies");
    assert!(completed > 0, "every schedule crashed — no trace coverage");
    // At M = 64 ≪ 120 groups, every node in every completed A2P run must
    // overflow and switch — each one verified above to carry a matching
    // trace event. (Sampling/ARep legitimately never switch here: the
    // 120-group workload sits above their low-cardinality thresholds.)
    assert!(completed_a2p > 0, "no A2P run ever completed");
    assert!(
        switches >= completed_a2p * NODES,
        "only {switches} traced switches across {completed_a2p} completed A2P runs \
         — the budget is not forcing overflows on every node"
    );
}

/// ARep's peer-contagion path: few groups on a multi-node cluster makes
/// one node decide locally and the rest follow a peer's end-of-phase
/// broadcast — both causes must appear in the trace with their offsets.
#[test]
fn arep_contagion_is_traced_with_both_causes() {
    let spec = RelationSpec::uniform(TUPLES, 10);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let config = ClusterConfig::new(NODES, CostParams::paper_default()).with_tracing();
    let out = run_algorithm(AlgorithmKind::AdaptiveRepartitioning, &config, &parts, &query)
        .unwrap();
    assert_eq!(out.adapted_nodes().len(), NODES, "all nodes must fall back");
    assert_events_traced(AlgorithmKind::AdaptiveRepartitioning, "contagion", &out);
    let trace = out.trace.as_ref().unwrap();
    let causes: Vec<SwitchCause> = trace
        .nodes
        .iter()
        .flat_map(|n| n.switches().map(|(c, _)| c))
        .collect();
    assert!(causes.contains(&SwitchCause::LowCardinalityLocal));
    assert!(causes.contains(&SwitchCause::LowCardinalityPeer));
}

/// Observer invariance, exact: on a single node there is no cross-thread
/// arrival jitter, so a traced run must reproduce the untraced virtual
/// clock **bit for bit** for every strategy — tracing records no
/// `CostEvent` and never touches the clock.
#[test]
fn tracing_is_bit_invariant_on_one_node() {
    let spec = RelationSpec::uniform(1_000, 50);
    let parts = generate_partitions(&spec, 1);
    let query = default_query();
    for kind in AlgorithmKind::ALL {
        // Pin tracing *off* explicitly: the constructor honours
        // ADAPTAGG_TRACE, and this comparison must stay off-vs-on even
        // when CI exports it.
        let mut plain = ClusterConfig::new(1, CostParams::paper_default());
        plain.trace = false;
        let traced = plain.clone().with_tracing();
        let a = run_algorithm(kind, &plain, &parts, &query).unwrap();
        let b = run_algorithm(kind, &traced, &parts, &query).unwrap();
        assert_eq!(a.rows, b.rows, "{kind}: rows changed under tracing");
        assert_eq!(
            a.elapsed(),
            b.elapsed(),
            "{kind}: virtual time moved under tracing ({} vs {})",
            a.elapsed_ms(),
            b.elapsed_ms()
        );
        assert!(a.trace.is_none(), "untraced run carried a trace");
        assert!(b.trace.is_some(), "traced run lost its trace");
    }
}

/// Observer invariance at cluster scale: rows exact for all six; virtual
/// time within float-summation jitter for the algorithms whose timing is
/// arrival-order-stable (the same set `chaos.rs` pins — Sampling and
/// ARep legitimately jitter between *any* two runs).
#[test]
fn tracing_does_not_move_cluster_timings() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let timing_stable = [
        AlgorithmKind::CentralizedTwoPhase,
        AlgorithmKind::TwoPhase,
        AlgorithmKind::Repartitioning,
        AlgorithmKind::AdaptiveTwoPhase,
    ];
    for kind in SIX {
        let mut plain = ClusterConfig::new(NODES, CostParams::paper_default());
        plain.trace = false; // off-vs-on even under ADAPTAGG_TRACE=1
        let traced = plain.clone().with_tracing();
        let a = run_algorithm(kind, &plain, &parts, &query).unwrap();
        let b = run_algorithm(kind, &traced, &parts, &query).unwrap();
        assert_eq!(a.rows, b.rows, "{kind}: rows changed under tracing");
        for (na, nb) in a.run.per_node.iter().zip(&b.run.per_node) {
            assert_eq!(na.net, nb.net, "{kind}: traffic counters changed under tracing");
        }
        if timing_stable.contains(&kind) {
            assert!(
                (a.elapsed_ms() - b.elapsed_ms()).abs() < 1e-6,
                "{kind}: timing moved under tracing ({} vs {})",
                a.elapsed_ms(),
                b.elapsed_ms()
            );
        }
    }
}

/// The traced phase profile is structurally sound: a switching A2P run
/// shows scan/partition/merge spans on every node, per-phase totals and
/// histograms line up, and the hash-aggregation metrics are present.
#[test]
fn phase_profile_covers_the_run() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let out = run_algorithm(
        AlgorithmKind::AdaptiveTwoPhase,
        &traced_chaos_config(FaultPlan::none()),
        &parts,
        &query,
    )
    .unwrap();
    let trace = out.trace.as_ref().unwrap();
    assert_eq!(trace.nodes.len(), NODES);
    for node in &trace.nodes {
        for phase in [PhaseKind::Scan, PhaseKind::Partition, PhaseKind::Merge] {
            assert!(
                node.phase_ms(phase) > 0.0,
                "node {}: no virtual time in {phase:?}",
                node.node
            );
        }
        assert!(
            node.metrics.counter("hashagg.rows_in") > 0,
            "node {}: hash-aggregation metrics missing",
            node.node
        );
        assert!(
            node.links.iter().any(|l| l.msgs > 0 && l.bytes > 0),
            "node {}: no per-link traffic recorded",
            node.node
        );
    }
    let totals = trace.phase_totals();
    let scan = totals
        .iter()
        .find(|(p, _)| *p == PhaseKind::Scan)
        .expect("scan phase present in totals");
    assert_eq!(scan.1.spans, NODES as u64, "one scan span per node");
    let hist = trace.phase_histogram(PhaseKind::Scan).expect("scan histogram");
    assert_eq!(hist.count(), NODES as u64);
    // The rendered artifacts carry the same structure.
    let json = trace.to_json();
    assert!(json.contains("\"schema\": \"adaptagg-trace/v1\""));
    assert!(json.contains("\"cause\": \"table-full\""));
    let text = trace.to_text();
    assert!(text.contains("switched to repartitioning at tuple"));
}

/// Why a scanned page left the strips is visible from the trace alone:
/// every page reaches its consumer as batches, `scan.pages_batched`
/// counts the pages the table (or, for Rep, the exchange) rode the strips
/// of, `scan.pages_row{cause=…}` the pages whose rows it materialized —
/// and an untraced run of the same file carries nothing and lands on the
/// same virtual time. Ragged pages and `Str` filter columns are batches
/// like any other.
#[test]
fn scan_fallbacks_are_counted_by_cause() {
    use adaptagg::model::{Compare, Predicate};
    use adaptagg::storage::HeapFile;

    let file_of = |rows: &mut dyn Iterator<Item = Vec<Value>>| {
        let mut file = HeapFile::new(512);
        for row in rows {
            file.append(&row).unwrap();
        }
        file
    };
    let int = Value::Int;
    let sum_v = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
    let on_pad = sum_v
        .clone()
        .with_filter(vec![Predicate::new(2, Compare::Ne, Value::Str("p3".into()))]);
    // (label, file, query, the one counter every page must land in for
    // the table-fed algorithms, and for Rep — whose exchange moves cells
    // and never reads an aggregate input)
    let batched = "scan.pages_batched";
    let cases = [
        (
            "clean",
            file_of(&mut (0..200).map(|i| vec![int(i % 9), int(i)])),
            sum_v.clone(),
            batched,
            batched,
        ),
        (
            "ragged",
            file_of(&mut (0..200).map(|i| {
                let mut row = vec![int(i % 9), int(i)];
                row.extend((i % 2 == 0).then_some(int(0)));
                row
            })),
            sum_v.clone(),
            batched,
            batched,
        ),
        (
            "null inputs",
            file_of(&mut (0..200).map(|i| vec![int(i % 9), if i % 4 == 0 { Value::Null } else { int(i) }])),
            sum_v.clone(),
            "scan.pages_row{cause=value_input}",
            batched,
        ),
        (
            "float inputs",
            file_of(&mut (0..200).map(|i| vec![int(i % 9), Value::Float(i as f64)])),
            sum_v.clone(),
            "scan.pages_row{cause=float_guard}",
            batched,
        ),
        (
            "string filter column",
            file_of(&mut (0..200).map(|i| vec![int(i % 9), int(i), Value::Str(format!("p{}", i % 7).into())])),
            on_pad,
            batched,
            batched,
        ),
    ];
    let counters = [
        "scan.pages_batched",
        "scan.pages_row{cause=ragged}",
        "scan.pages_row{cause=value_input}",
        "scan.pages_row{cause=float_guard}",
    ];
    for (label, file, query, expected, rep_expected) in cases {
        let pages = file.page_count() as u64;
        let parts = vec![file];
        let mut plain = ClusterConfig::new(1, CostParams::paper_default());
        plain.trace = false; // off-vs-on even under ADAPTAGG_TRACE=1
        let traced = plain.clone().with_tracing();
        for (kind, expected) in [
            (AlgorithmKind::TwoPhase, expected),
            (AlgorithmKind::AdaptiveTwoPhase, expected),
            (AlgorithmKind::Repartitioning, rep_expected),
        ] {
            let a = run_algorithm(kind, &plain, &parts, &query).unwrap();
            let b = run_algorithm(kind, &traced, &parts, &query).unwrap();
            assert!(a.trace.is_none(), "{label}: untraced run carried a trace");
            assert_eq!(a.rows, b.rows, "{label}: rows changed under tracing");
            assert_eq!(a.elapsed(), b.elapsed(), "{label}: clock moved");
            let metrics = &b.trace.as_ref().unwrap().node(0).unwrap().metrics;
            for counter in counters {
                let want = if counter == expected { pages } else { 0 };
                assert_eq!(metrics.counter(counter), want, "{kind} {label}: {counter}");
            }
        }
    }
}

/// Which lane the merge table's overflow buckets went back in on is in
/// the trace: on the `spill_adaptive` shape (A-2P, 2 nodes, 250k tuples,
/// 62.5k groups, the paper's 10k-entry table: every node switches and its
/// merge table spills partials and raws alike), at least 90 % of the
/// bucket pages are
/// re-aggregated as batches off their strips, and the rest are counted by
/// cause — the pages where one sender's flushed partials meet its raws
/// are ragged under the default query. An untraced run lands on the same
/// rows and clock.
#[test]
fn overflow_bucket_pages_ride_the_strips() {
    let parts = generate_partitions(&RelationSpec::uniform(250_000, 62_500), 2);
    let mut plain = ClusterConfig::new(2, CostParams::paper_default());
    plain.trace = false; // off-vs-on even under ADAPTAGG_TRACE=1
    let traced = plain.clone().with_tracing();
    let kind = AlgorithmKind::AdaptiveTwoPhase;
    let a = run_algorithm(kind, &plain, &parts, &default_query()).unwrap();
    let b = run_algorithm(kind, &traced, &parts, &default_query()).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.elapsed(), b.elapsed(), "clock moved under tracing");
    assert_eq!(b.adapted_nodes().len(), 2, "every node switches");
    let trace = b.trace.as_ref().unwrap();
    let sum = |counter: &str| trace.nodes.iter().map(|n| n.metrics.counter(counter)).sum::<u64>();
    let batched = sum("hashagg.overflow_pages{lane=batched}");
    let by_cause = ["mixed_kind", "ragged", "value_strip"]
        .map(|cause| sum(&format!("hashagg.overflow_pages{{lane=rows,cause={cause}}}")));
    let pages = batched + by_cause.iter().sum::<u64>();
    assert!(sum("hashagg.spilled_tuples") > 100_000 && pages > 1_000, "{pages} bucket pages");
    assert!(batched * 10 >= pages * 9, "{batched} of {pages} bucket pages batched ({by_cause:?})");
    assert_eq!(by_cause[0] + by_cause[2], 0, "no mixed-kind or value-strip page here");
}

/// Why the engine left the typed group-store layout is visible from the
/// trace alone: the default query keeps every column typed at no more
/// than 48 bytes a group, a `Str`-keyed query reports the key column's
/// demotion under its cause, `VAR_POP` a column general by function — and
/// an untraced run of the same file carries nothing and lands on the same
/// virtual time.
#[test]
fn store_layout_and_demotions_are_reported_by_cause() {
    use adaptagg::storage::HeapFile;

    let file_of = |key: &dyn Fn(i64) -> Value| {
        let mut file = HeapFile::new(512);
        for i in 0..2_000 {
            file.append(&[key(i % 90), Value::Int(i)]).unwrap();
        }
        file
    };
    let var_query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::VarPop, 1)]);
    // (label, file, query, general columns per table, demotions by cause
    // per table: key_type, input_type, partial_type, func; bytes a group)
    let cases = [
        ("default", file_of(&Value::Int), default_query(), 0, [0, 0, 0, 0], 45.0),
        (
            "string keys",
            file_of(&|g| Value::Str(format!("g{g}").into())),
            default_query(),
            1,
            [1, 0, 0, 0],
            61.0,
        ),
        ("variance", file_of(&Value::Int), var_query, 1, [0, 0, 0, 1], 68.0),
    ];
    let causes = ["key_type", "input_type", "partial_type", "func"];
    for (label, file, query, general, demoted, bytes) in cases {
        let parts = vec![file];
        let mut plain = ClusterConfig::new(1, CostParams::paper_default());
        plain.trace = false; // off-vs-on even under ADAPTAGG_TRACE=1
        let traced = plain.clone().with_tracing();
        // 2P drains a local and a merge table; Rep only the merge table.
        for (kind, tables) in [(AlgorithmKind::TwoPhase, 2), (AlgorithmKind::Repartitioning, 1)] {
            let a = run_algorithm(kind, &plain, &parts, &query).unwrap();
            let b = run_algorithm(kind, &traced, &parts, &query).unwrap();
            assert!(a.trace.is_none(), "{label}: untraced run carried a trace");
            assert_eq!(a.rows, b.rows, "{label}: rows changed under tracing");
            assert_eq!(a.elapsed(), b.elapsed(), "{label}: clock moved");
            let metrics = &b.trace.as_ref().unwrap().node(0).unwrap().metrics;
            let columns = 1 + query.aggs.len() as u64;
            assert_eq!(
                metrics.counter("store.columns{layout=general}"),
                tables * general,
                "{kind} {label}"
            );
            assert_eq!(
                metrics.counter("store.columns{layout=typed}"),
                tables * (columns - general),
                "{kind} {label}"
            );
            for (cause, per_table) in causes.iter().zip(demoted) {
                let counter = format!("store.demoted{{cause={cause}}}");
                assert_eq!(metrics.counter(&counter), tables * per_table, "{kind} {label}: {counter}");
            }
            let per_group = metrics.gauge("store.bytes_per_group").expect("gauge reported");
            assert_eq!(per_group, bytes, "{kind} {label}: bytes per group");
        }
    }
    // The renderer prints them like any other metric.
    let traced = ClusterConfig::new(1, CostParams::paper_default()).with_tracing();
    let parts = vec![file_of(&Value::Int)];
    let out = run_algorithm(AlgorithmKind::TwoPhase, &traced, &parts, &default_query()).unwrap();
    let text = out.trace.as_ref().unwrap().to_text();
    assert!(text.contains("store.columns{layout=typed}") && text.contains("store.bytes_per_group"));
}

/// Sort-2P's local phase is in the trace: what run formation took in and
/// sealed, whether it rode each scanned page's strips and if not why, and
/// which lane the run merge folded each run row on. The default query
/// rides the strips end to end — every scanned page, every merge row read
/// as `i64`s, no column demoted; a `Str` key still rides the scan's strips
/// (as it does into the hash table) but demotes the run table's key
/// column and puts every run page, and so every merge row, on the values
/// lane; NULL inputs send run formation to its row arm, by cause — and an
/// untraced run of the same file carries nothing and lands on the same
/// virtual time.
#[test]
fn sortagg_lanes_are_reported() {
    use adaptagg::storage::HeapFile;

    let file_of = |row: &dyn Fn(i64) -> Vec<Value>| {
        let mut file = HeapFile::new(512);
        for i in 0..2_000 {
            file.append(&row(i)).unwrap();
        }
        file
    };
    let int = Value::Int;
    // (label, file, scan counter every page lands in, merge lane every run
    // row lands in, whether key columns demote: the run table's, and the
    // merge phase's hash tables' behind it)
    let cases = [
        (
            "default",
            file_of(&|i| vec![int(i % 90), int(i)]),
            "scan.pages_batched",
            "sortagg.merge_rows{lane=strips}",
            false,
        ),
        (
            "string keys",
            file_of(&|i| vec![Value::Str(format!("g{}", i % 90).into()), int(i)]),
            "scan.pages_batched",
            "sortagg.merge_rows{lane=values}",
            true,
        ),
        (
            "null inputs",
            file_of(&|i| vec![int(i % 90), if i % 4 == 0 { Value::Null } else { int(i) }]),
            "scan.pages_row{cause=value_input}",
            // A group whose inputs in a run were all NULL ships a NULL
            // partial sum: that run page is off the strips lane.
            "sortagg.merge_rows{lane=values}",
            false,
        ),
    ];
    let scan_counters = [
        "scan.pages_batched",
        "scan.pages_row{cause=ragged}",
        "scan.pages_row{cause=value_input}",
        "scan.pages_row{cause=float_guard}",
    ];
    let lanes = ["sortagg.merge_rows{lane=strips}", "sortagg.merge_rows{lane=values}"];
    for (label, file, scan_counter, lane, keys_demote) in cases {
        let pages = file.page_count() as u64;
        let parts = vec![file];
        // 90 groups against 25 entries: runs seal all the way through.
        let params = CostParams {
            max_hash_entries: 25,
            ..CostParams::paper_default()
        };
        let mut plain = ClusterConfig::new(1, params);
        plain.trace = false; // off-vs-on even under ADAPTAGG_TRACE=1
        let traced = plain.clone().with_tracing();
        let kind = AlgorithmKind::SortTwoPhase;
        let a = run_algorithm(kind, &plain, &parts, &default_query()).unwrap();
        let b = run_algorithm(kind, &traced, &parts, &default_query()).unwrap();
        assert!(a.trace.is_none(), "{label}: untraced run carried a trace");
        assert_eq!(a.rows, b.rows, "{label}: rows changed under tracing");
        assert_eq!(a.elapsed(), b.elapsed(), "{label}: clock moved");
        let metrics = &b.trace.as_ref().unwrap().node(0).unwrap().metrics;
        for counter in scan_counters {
            let want = if counter == scan_counter { pages } else { 0 };
            assert_eq!(metrics.counter(counter), want, "{label}: {counter}");
        }
        assert_eq!(metrics.counter("sortagg.rows_in"), 2_000, "{label}");
        let runs = metrics.counter("sortagg.runs_sealed");
        let run_rows = metrics.counter("sortagg.run_rows");
        assert!(runs > 20, "{label}: {runs} runs sealed");
        assert!(run_rows > 25 * runs && run_rows <= 2_000, "{label}: {run_rows} run rows");
        for counter in lanes {
            let want = if counter == lane { run_rows } else { 0 };
            assert_eq!(metrics.counter(counter), want, "{label}: {counter}");
        }
        let key_demotions = metrics.counter("store.demoted{cause=key_type}");
        assert_eq!(key_demotions >= 2, keys_demote, "{label}: {key_demotions} key columns demoted");
        assert_eq!(key_demotions == 0, !keys_demote, "{label}: {key_demotions} key columns demoted");
        for cause in ["input_type", "partial_type", "func"] {
            let counter = format!("store.demoted{{cause={cause}}}");
            assert_eq!(metrics.counter(&counter), 0, "{label}: {counter}");
        }
    }
    // The renderer prints them like any other metric.
    let traced = ClusterConfig::new(1, CostParams::paper_default()).with_tracing();
    let parts = vec![file_of(&|i| vec![int(i % 90), int(i)])];
    let out = run_algorithm(AlgorithmKind::SortTwoPhase, &traced, &parts, &default_query()).unwrap();
    let text = out.trace.as_ref().unwrap().to_text();
    assert!(text.contains("sortagg.rows_in") && text.contains("sortagg.merge_rows{lane=strips}"));
}

/// Repartitioning's first phase is in the trace: scanning and routing the
/// base relation sits under a `scan` span, flushing the exchange under a
/// `partition` span, and with the `merge` span they account for the
/// node's virtual time (what is left is storing the result). The spans
/// move no clock, and an untraced run records nothing.
#[test]
fn rep_phase_one_is_spanned() {
    let parts = generate_partitions(&RelationSpec::uniform(20_000, 2_000), 2);
    let query = default_query();
    let mut plain = ClusterConfig::new(2, CostParams::paper_default());
    plain.trace = false; // off-vs-on even under ADAPTAGG_TRACE=1
    let traced = plain.clone().with_tracing();
    let a = run_algorithm(AlgorithmKind::Repartitioning, &plain, &parts, &query).unwrap();
    let b = run_algorithm(AlgorithmKind::Repartitioning, &traced, &parts, &query).unwrap();
    assert!(a.trace.is_none(), "untraced run carried a trace");
    assert_eq!(a.rows, b.rows, "rows changed under tracing");
    for (report, node) in b.run.per_node.iter().zip(&b.trace.as_ref().unwrap().nodes) {
        let untraced = &a.run.per_node[report.node];
        assert_eq!(report.clock, untraced.clock, "clock moved");
        let phases: Vec<PhaseKind> = node.spans.iter().map(|s| s.phase).collect();
        assert_eq!(phases, [PhaseKind::Scan, PhaseKind::Partition, PhaseKind::Merge]);
        assert!(node.spans.windows(2).all(|w| w[0].end_ms <= w[1].start_ms), "spans overlap");
        let covered: f64 = node.spans.iter().map(|s| s.virt_ms()).sum();
        assert!(
            covered >= 0.9 * ticks_to_ms(report.clock),
            "node {}: spans cover {covered:.1} of {:.1} virtual ms",
            report.node,
            ticks_to_ms(report.clock)
        );
        assert!(node.phase_ms(PhaseKind::Scan) > node.phase_ms(PhaseKind::Merge));
    }
}

/// Recovery attempts are first-class trace records: a single-node crash
/// under recovery yields one failed-attempt entry naming the victim, and
/// the surviving nodes' reports keep their original ids.
#[test]
fn recovery_attempts_appear_in_the_trace() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let reference = reference_aggregate(&parts, &query).unwrap();
    let victim = 2;
    let config = ClusterConfig::new(NODES, CostParams::paper_default())
        .with_fault_plan(FaultPlan::new(victim as u64).with_crash(victim, 50))
        .with_watchdog(Duration::from_secs(10))
        .with_recovery(RecoveryPolicy::default())
        .with_tracing();
    let out = run_algorithm(AlgorithmKind::TwoPhase, &config, &parts, &query).unwrap();
    assert_eq!(out.rows, reference);
    let trace = out.trace.as_ref().expect("recovered run carries a trace");
    assert_eq!(trace.recovery.len(), 1, "one failed attempt before success");
    let attempt = &trace.recovery[0];
    assert_eq!(attempt.attempt, 1);
    assert_eq!(attempt.victim, Some(victim));
    assert!(attempt.lost_ms >= 0.0);
    // Survivor reports keep original node ids; the victim has none.
    for node in &trace.nodes {
        assert_ne!(node.node, victim, "the dead node cannot have a final report");
        assert!(node.node < NODES);
    }
    assert_eq!(trace.nodes.len(), NODES - 1);

    // The whole-run recovery totals ride the trace document too, so
    // `--trace json` is self-contained: no cross-referencing the run
    // report to learn what recovery cost.
    let summary = trace
        .recovery_summary
        .as_ref()
        .expect("recovered runs carry a recovery summary");
    assert_eq!(summary.attempts, 2, "one failed + one successful attempt");
    assert_eq!(summary.dead_nodes, vec![victim]);
    assert!(summary.reassigned_partitions > 0, "the victim's data moved");
    assert!(summary.lost_ms >= 0.0 && summary.backoff_ms >= 0.0);
    let json = trace.to_json();
    assert!(json.contains("\"recovery\": {\"attempts\": 2"));
    assert!(json.contains(&format!("\"dead_nodes\": [{victim}]")));
    assert!(json.contains("\"transport\": \"in-process\""));
}

/// A query served under broker pressure carries its queue/broker
/// numbers as trace annotations: grant, budget, queue wait, and
/// co-residency — enough to attribute a degraded run from the trace
/// JSON alone.
#[test]
fn serving_annotations_ride_the_trace() {
    use adaptagg::serve::scheduler::{Dataset, QueryRequest, Scheduler, ServeConfig};
    use std::sync::Arc;

    let budget = 800;
    let data = Arc::new(Dataset::uniform(4, 12_000, 600, 7));
    let mut cfg = ServeConfig::new(budget);
    cfg.concurrency = 2;
    cfg.min_grant = 100;
    let sched = Scheduler::new(cfg, data);

    // Two co-resident queries: each gets budget/2 = 400 entries, below
    // the ~600 per-node groups, so both degrade and switch.
    let slow = QueryRequest {
        stall: Some(Duration::from_millis(120)),
        ..QueryRequest::new("SELECT g, SUM(v) FROM r GROUP BY g")
    };
    let t1 = sched.submit(slow).expect("first query admitted");
    std::thread::sleep(Duration::from_millis(40));
    let t2 = sched
        .submit(QueryRequest::new("SELECT g, COUNT(*) FROM r GROUP BY g"))
        .expect("second query admitted");
    let r2 = t2.wait();
    let r1 = t1.wait();

    let s2 = r2.success().expect("concurrent query completes");
    assert!(s2.degraded, "half the budget is a degraded admission");
    let trace = s2.trace_json.as_ref().expect("tracing on by default");
    assert!(
        trace.contains(&format!("\"serve.grant_entries\": {}", budget / 2)),
        "the shrunken grant must be in the trace"
    );
    assert!(trace.contains(&format!("\"serve.memory_budget\": {budget}")));
    assert!(trace.contains("\"serve.queue_wait_ms\":"));
    assert!(trace.contains("\"serve.active_at_admit\": 1"));

    // The degradation ladder end to end: the 400-entry grant cannot
    // hold ~600 groups, so the adaptive runtime visibly switches
    // strategy — with its cause on record — rather than failing…
    assert!(
        trace.contains("\"kind\": \"strategy-switch\""),
        "a reduced grant must surface as a traced strategy switch"
    );
    assert!(trace.contains("\"cause\": \"table-full\""));

    // …and the squeezed answer stays bit-identical to the serial
    // reference oracle.
    let data = sched.dataset();
    let bound = adaptagg::sql::compile("SELECT g, COUNT(*) FROM r GROUP BY g", &data.schema)
        .expect("test query compiles");
    let oracle = adaptagg::algos::reference_aggregate(&data.partitions, &bound.query)
        .expect("reference oracle");
    assert_eq!(s2.rows, oracle, "degraded must never mean wrong");

    assert!(r1.success().is_some(), "the stalled query also completes");
}

/// The completeness contract holds unchanged over the TCP loopback
/// backend: tracing lives above the transport, so swapping the wire
/// must not lose an event or mislabel the run.
#[test]
fn chaos_switches_are_traced_over_tcp_loopback() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();

    let mut completed = 0;
    for seed in [0u64, 3, 11] {
        let plan = FaultPlan::random(seed, NODES);
        for kind in SIX {
            let cfg = traced_chaos_config(plan.clone())
                .with_transport(adaptagg::net::TransportKind::TcpLoopback);
            match run_algorithm(kind, &cfg, &parts, &query) {
                Ok(out) => {
                    completed += 1;
                    let label = format!("seed {seed} over tcp");
                    assert_events_traced(kind, &label, &out);
                    assert_eq!(
                        out.trace.as_ref().unwrap().transport,
                        "tcp-loopback",
                        "{kind} {label}: trace mislabels its transport"
                    );
                }
                Err(ExecError::InjectedCrash { .. }) => {
                    assert!(plan.has_crash(), "crash error without a scheduled crash");
                }
                Err(other) => panic!("{kind} seed {seed} tcp: unexpected failure {other:?}"),
            }
        }
    }
    assert!(completed > 0, "every TCP schedule crashed — no coverage");
}
