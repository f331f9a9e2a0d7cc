//! Virtual-time invariants: the simulated costs must order the algorithms
//! the way the paper's analysis says they order, and the accounting
//! itself must be internally consistent.

use adaptagg::model::ticks_to_ms;
use adaptagg::net::TransportKind;
use adaptagg::prelude::*;

fn run(
    kind: AlgorithmKind,
    parts: &[adaptagg::storage::HeapFile],
    nodes: usize,
    params: CostParams,
) -> RunOutcome {
    let config = ClusterConfig::new(nodes, params);
    run_algorithm(kind, &config, parts, &default_query()).expect("run succeeds")
}

#[test]
fn repartitioning_ships_more_than_two_phase_at_low_selectivity() {
    let spec = RelationSpec::uniform(20_000, 50);
    let parts = generate_partitions(&spec, 8);
    let tp = run(AlgorithmKind::TwoPhase, &parts, 8, CostParams::paper_default());
    let rep = run(
        AlgorithmKind::Repartitioning,
        &parts,
        8,
        CostParams::paper_default(),
    );
    // 2P ships ~groups·N partials; Rep ships the whole relation.
    assert!(tp.run.total_net().tuples_sent < 1_000);
    assert_eq!(rep.run.total_net().tuples_sent, 20_000);
    assert!(tp.elapsed_ms() < rep.elapsed_ms());
}

#[test]
fn shared_bus_is_slower_than_fast_network_for_repartitioning() {
    let spec = RelationSpec::uniform(20_000, 2_000);
    let parts = generate_partitions(&spec, 8);
    let fast = run(
        AlgorithmKind::Repartitioning,
        &parts,
        8,
        CostParams::paper_default(),
    );
    let slow = run(
        AlgorithmKind::Repartitioning,
        &parts,
        8,
        CostParams::cluster_default(),
    );
    assert!(
        slow.elapsed_ms() > fast.elapsed_ms() * 1.5,
        "bus {} vs fast {}",
        slow.elapsed_ms(),
        fast.elapsed_ms()
    );
    // The bus was genuinely occupied.
    assert!(slow.run.bus_busy_ms > 0.0);
    assert_eq!(fast.run.bus_busy_ms, 0.0);
}

/// Every node's final clock, in ticks.
fn clock_bits(out: &RunOutcome) -> Vec<u64> {
    out.run.per_node.iter().map(|r| r.clock).collect()
}

#[test]
fn virtual_time_is_deterministic_for_static_algorithms() {
    // All nine, at the paper's width: every receive consumes its streams
    // in logical order, so on a contention-free network no node's clock
    // can tell one thread schedule from another. (3000 groups: A-Rep's
    // census sees plenty and no node falls back — the fallback *instant*
    // is the one physically timed event, DESIGN.md §3.)
    let spec = RelationSpec::uniform(40_000, 3_000);
    let parts = generate_partitions(&spec, 8);
    for kind in AlgorithmKind::ALL {
        let first = run(kind, &parts, 8, CostParams::paper_default());
        assert_eq!(first.rows.len(), 3_000);
        if kind == AlgorithmKind::AdaptiveRepartitioning {
            assert!(first.adapted_nodes().is_empty(), "A-Rep must not fall back here");
        }
        for rerun in 1..12 {
            let again = run(kind, &parts, 8, CostParams::paper_default());
            assert_eq!(
                clock_bits(&again),
                clock_bits(&first),
                "{kind}: run {rerun} read different node clocks"
            );
        }
    }

    // Sampling's traffic is a function of the data as well: the sample
    // keys leave each node in key order, so with keys 1..40 bytes wide the
    // same message pages seal in every run, not the pages a hash set's
    // iteration order happened to fill — and the coordinator merges them
    // sender by sender, so the clocks repeat too.
    let parts: Vec<adaptagg::storage::HeapFile> = (0..3)
        .map(|node| {
            let mut file = adaptagg::storage::HeapFile::new(4096);
            for i in 0..4_000i64 {
                let g = (i * 7 + node * 13) % 900;
                let key = format!("{g}{}", "k".repeat((g % 40) as usize));
                file.append(&[Value::from(key), Value::Int(i)]).unwrap();
            }
            file
        })
        .collect();
    let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
    let params = CostParams {
        message_bytes: 256,
        ..CostParams::paper_default()
    };
    let config = ClusterConfig::new(3, params);
    let traffic_and_clocks = || -> (Vec<(u64, u64)>, Vec<u64>) {
        let out = run_algorithm(AlgorithmKind::Sampling, &config, &parts, &query).unwrap();
        assert_eq!(out.rows.len(), 900);
        let sent = out.run.per_node.iter().map(|r| (r.net.pages_sent(), r.net.bytes_sent));
        (sent.collect(), clock_bits(&out))
    };
    let first = traffic_and_clocks();
    for run in 1..8 {
        assert_eq!(traffic_and_clocks(), first, "Sampling run {run} differs");
    }
}

#[test]
fn virtual_time_is_the_same_over_channels_and_tcp() {
    // The reliability layer, the inbox and the clocks sit above the wire:
    // how a message travelled cannot show in any node's virtual time or
    // traffic counters.
    let spec = RelationSpec::uniform(12_000, 1_500);
    let parts = generate_partitions(&spec, 3);
    let over = |kind, transport| {
        let config = ClusterConfig::new(3, CostParams::paper_default()).with_transport(transport);
        run_algorithm(kind, &config, &parts, &default_query()).expect("run succeeds")
    };
    for kind in AlgorithmKind::ALL {
        let channels = over(kind, TransportKind::InProcess);
        let tcp = over(kind, TransportKind::TcpLoopback);
        if kind == AlgorithmKind::AdaptiveRepartitioning {
            assert!(channels.adapted_nodes().is_empty(), "A-Rep must not fall back here");
        }
        assert_eq!(tcp.rows, channels.rows, "{kind}");
        assert_eq!(clock_bits(&tcp), clock_bits(&channels), "{kind}: node clocks");
        for (t, c) in tcp.run.per_node.iter().zip(&channels.run.per_node) {
            assert_eq!(t.net, c.net, "{kind}: node {} traffic", c.node);
        }
    }
}

#[test]
fn breakdown_sums_to_clock() {
    let spec = RelationSpec::uniform(8_000, 500);
    let parts = generate_partitions(&spec, 4);
    let out = run(AlgorithmKind::TwoPhase, &parts, 4, CostParams::cluster_default());
    for r in &out.run.per_node {
        let total = r.breakdown.total_ms();
        assert!(
            (total - ticks_to_ms(r.clock)).abs() < 1e-6,
            "node {}: breakdown {total} != clock {}",
            r.node,
            ticks_to_ms(r.clock)
        );
    }
}

#[test]
fn bus_occupancy_matches_pages_sent() {
    let spec = RelationSpec::uniform(6_000, 600);
    let parts = generate_partitions(&spec, 4);
    let out = run(
        AlgorithmKind::Repartitioning,
        &parts,
        4,
        CostParams::cluster_default(),
    );
    let pages = out.run.total_net().pages_sent() as f64;
    assert!(
        (out.run.bus_busy_ms - pages * 2.0).abs() < 1e-6,
        "bus busy {} vs {} pages x 2ms",
        out.run.bus_busy_ms,
        pages
    );
}

#[test]
fn more_memory_never_hurts_two_phase() {
    let spec = RelationSpec::uniform(16_000, 3_000);
    let mut times = Vec::new();
    for m in [100usize, 1_000, 10_000] {
        let parts = generate_partitions(&spec, 4);
        let out = run(
            AlgorithmKind::TwoPhase,
            &parts,
            4,
            CostParams {
                max_hash_entries: m,
                ..CostParams::paper_default()
            },
        );
        times.push((m, out.elapsed_ms(), out.total_spilled()));
    }
    assert!(times[0].2 > times[2].2, "spill must shrink with memory");
    assert!(
        times[0].1 > times[2].1,
        "2P with M=100 ({} ms) should be slower than with M=10000 ({} ms)",
        times[0].1,
        times[2].1
    );
}

#[test]
fn waiting_shows_up_under_input_skew() {
    // One node has 3x the data; the others finish their scans and wait
    // for its partials. Final clocks equalize (that is what waiting
    // means), but the *work* distribution shows the skew, and the
    // non-skewed nodes accumulate wait time.
    let spec = InputSkewSpec::new(4, 4_000, 100);
    let parts = spec.generate_partitions();
    let out = run(AlgorithmKind::TwoPhase, &parts, 4, CostParams::paper_default());
    assert!(
        out.run.work_imbalance() > 1.5,
        "work imbalance {}",
        out.run.work_imbalance()
    );
    // The skewed node (0) does the most work and never waits long; a
    // non-skewed node waits for it.
    let w0 = out.run.per_node[0].breakdown.cpu_ms + out.run.per_node[0].breakdown.io_ms;
    let w1 = out.run.per_node[1].breakdown.cpu_ms + out.run.per_node[1].breakdown.io_ms;
    assert!(w0 > 2.0 * w1, "node0 work {w0} vs node1 {w1}");
    assert!(out.run.per_node[1].breakdown.wait_ms > out.run.per_node[0].breakdown.wait_ms);
}

/// Where phase 1 ended on `node`: the end of its last `partition` span.
fn phase1_end_ms(out: &RunOutcome, node: usize) -> Option<f64> {
    let spans = &out.trace.as_ref()?.node(node)?.spans;
    spans
        .iter()
        .rev()
        .find(|s| s.phase == PhaseKind::Partition)
        .map(|s| s.end_ms)
}

#[test]
fn phase_marks_split_the_timeline() {
    let spec = RelationSpec::uniform(8_000, 400);
    let parts = generate_partitions(&spec, 4);
    for kind in AlgorithmKind::ALL {
        let config = ClusterConfig::new(4, CostParams::paper_default()).with_tracing();
        let out = run_algorithm(kind, &config, &parts, &default_query()).expect("run succeeds");
        for r in &out.run.per_node {
            // C2P ships to a coordinator: every node still ends phase 1.
            let p1 = phase1_end_ms(&out, r.node)
                .unwrap_or_else(|| panic!("{kind}: node {} has no phase-1 end", r.node));
            assert!(p1 > 0.0, "{kind}: phase1 at 0");
            assert!(p1 <= ticks_to_ms(r.clock), "{kind}: phase1 {p1} after clock end {}", r.clock);
        }
    }
}

#[test]
fn measured_phase_split_matches_the_models_proportions() {
    // Cross-validation at phase granularity: the model's phase-1 share of
    // total time and the engine's phase-1 share agree within a factor.
    let spec = RelationSpec::uniform(40_000, 50);
    let parts = generate_partitions(&spec, 8);
    let config = ClusterConfig::new(8, CostParams::paper_default()).with_tracing();
    let out = run_algorithm(AlgorithmKind::TwoPhase, &config, &parts, &default_query())
        .expect("run succeeds");
    let p1: f64 = out
        .run
        .per_node
        .iter()
        .map(|r| phase1_end_ms(&out, r.node).unwrap())
        .fold(0.0, f64::max);
    let measured_share = p1 / out.elapsed_ms();

    let model = adaptagg::cost::ModelConfig {
        params: CostParams::paper_default(),
        nodes: 8,
        tuples: 40_000.0,
        io_enabled: true,
    };
    let b = adaptagg::cost::CostAlgorithm::TwoPhase.cost(&model, 50.0 / 40_000.0);
    let model_share = b.phases[0].total_ms() / b.total_ms();

    assert!(
        (measured_share - model_share).abs() < 0.2,
        "phase-1 share: measured {measured_share:.2} vs model {model_share:.2}"
    );
}

#[test]
fn elapsed_is_max_of_node_clocks() {
    let spec = RelationSpec::uniform(5_000, 100);
    let parts = generate_partitions(&spec, 4);
    let out = run(AlgorithmKind::TwoPhase, &parts, 4, CostParams::paper_default());
    let max = out.run.per_node.iter().map(|r| r.clock).max();
    assert_eq!(Some(out.elapsed()), max);
}
