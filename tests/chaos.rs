//! Chaos harness: every algorithm, under any seeded fault schedule,
//! either produces exactly the serial reference result or fails fast with
//! a clean, correctly-attributed typed error. No hangs, no wrong answers,
//! no panics.
//!
//! The schedules are fully deterministic given their seed (see
//! `adaptagg_net::FaultPlan`), so every run here is reproducible: a
//! failing seed can be replayed byte-for-byte.
//!
//! The suite runs on the high-speed network model. The shared-bus model
//! works under faults too, but its bus ledger books transfers in real
//! thread-interleaving order, so its *timings* are not run-to-run
//! reproducible — the determinism assertions would be meaningless there.

use adaptagg::exec::{ExecError, FaultPlan};
use adaptagg::prelude::*;
use std::time::Duration;

const NODES: usize = 4;
const TUPLES: usize = 4_000;
const GROUPS: usize = 120;

/// The paper's six strategies (§2–§3) — the chaos target set.
const SIX: [AlgorithmKind; 6] = [
    AlgorithmKind::CentralizedTwoPhase,
    AlgorithmKind::TwoPhase,
    AlgorithmKind::Repartitioning,
    AlgorithmKind::Sampling,
    AlgorithmKind::AdaptiveTwoPhase,
    AlgorithmKind::AdaptiveRepartitioning,
];

fn chaos_config(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig::new(NODES, CostParams::paper_default())
        .with_fault_plan(plan)
        // Generous for a healthy run (each takes well under a second of
        // real time) yet bounds every blocking receive, so a hang would
        // fail the suite instead of wedging it.
        .with_watchdog(Duration::from_secs(10))
}

/// ≥ 100 seeded fault schedules across all six algorithms: 25 seeds × 6.
/// Runs whose schedule contains no crash must match the reference
/// exactly — link faults (drop/dup/reorder) and slowdowns perturb timing,
/// never results. Runs with scheduled crashes either still match (the
/// crash point can lie beyond the node's partition) or fail with the
/// *injected crash* as the reported error — never a cascade, never a
/// hang, never a wrong answer.
#[test]
fn every_schedule_is_exact_or_cleanly_failed() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let reference = reference_aggregate(&parts, &query).unwrap();

    let mut runs = 0;
    let mut crashed = 0;
    for seed in 0..25u64 {
        let plan = FaultPlan::random(seed, NODES);
        for kind in SIX {
            runs += 1;
            let config = chaos_config(plan.clone());
            match run_algorithm(kind, &config, &parts, &query) {
                Ok(out) => {
                    assert_eq!(
                        out.rows, reference,
                        "{kind} under seed {seed} returned wrong rows"
                    );
                }
                Err(e) => {
                    assert!(
                        plan.has_crash(),
                        "{kind} under crash-free seed {seed} failed: {e}"
                    );
                    match e {
                        ExecError::InjectedCrash { node, .. } => {
                            assert!(
                                plan.node(node).crash_at_tuple.is_some(),
                                "{kind} seed {seed}: crash attributed to node {node}, \
                                 which had none scheduled"
                            );
                        }
                        other => panic!(
                            "{kind} seed {seed}: expected the injected crash to be \
                             the attributed error, got {other:?}"
                        ),
                    }
                    crashed += 1;
                }
            }
        }
    }
    assert!(runs >= 100, "only {runs} chaos runs");
    // FaultPlan::random schedules crashes in ~20% of node slots; with 25
    // seeds both outcomes must appear, or the harness is not exercising
    // the failure path at all.
    assert!(crashed > 0, "no schedule ever crashed — harness too tame");
    assert!(
        crashed < runs,
        "every schedule crashed — no exactness coverage"
    );
}

/// Same seed ⇒ same outcome: identical rows on success, the identical
/// error (same variant, node, and tuple position) on failure. This is
/// what makes a chaos failure debuggable — replay the seed.
///
/// And timing, where the schedule crashes nobody (seeds 20 and 26: link
/// faults only; 19: with slowed-down nodes): drop, dup and reorder are
/// drawn per link in sender order and the reliability layer hands each
/// link's messages over in send order, so a receiver that consumes its
/// streams in logical order reads the same clocks under any thread
/// schedule that delivers everything — every node's, to the bit. (A-Rep
/// outside fallback only: *when* a peer's `EndOfPhase` is seen is
/// physically timed.)
#[test]
fn chaos_outcomes_are_deterministic_per_seed() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();

    let mut timed_under_link_faults = 0;
    for seed in [3u64, 7, 11, 19, 20, 23, 26] {
        let plan = FaultPlan::random(seed, NODES);
        for kind in SIX {
            let once = run_algorithm(kind, &chaos_config(plan.clone()), &parts, &query);
            let twice = run_algorithm(kind, &chaos_config(plan.clone()), &parts, &query);
            match (once, twice) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.rows, b.rows, "{kind} seed {seed}: rows differ");
                    let fell_back = kind == AlgorithmKind::AdaptiveRepartitioning
                        && !(a.adapted_nodes().is_empty() && b.adapted_nodes().is_empty());
                    if !plan.has_crash() && !fell_back {
                        timed_under_link_faults += usize::from(plan.link_faults().any());
                        for (na, nb) in a.run.per_node.iter().zip(&b.run.per_node) {
                            assert_eq!(
                                na.clock, nb.clock,
                                "{kind} seed {seed}: node {} clock differs",
                                na.node
                            );
                        }
                    }
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{kind} seed {seed}: errors differ");
                }
                (a, b) => panic!(
                    "{kind} seed {seed}: outcome flipped between runs: {:?} vs {:?}",
                    a.map(|r| r.rows.len()),
                    b.map(|r| r.rows.len())
                ),
            }
        }
    }
    assert_eq!(timed_under_link_faults, 3 * SIX.len(), "seeds 19, 20, 26, every algorithm");
}

/// Link noise alone (no crashes) on a run big enough to exercise paging,
/// reordering, and retransmission on every link: results exact for all
/// six, and the per-node traffic counters prove the noise actually
/// landed (this is a chaos test, not a no-op).
#[test]
fn link_noise_preserves_exactness_and_is_visible_in_stats() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let reference = reference_aggregate(&parts, &query).unwrap();

    let noisy = FaultPlan::new(99).with_link_faults(adaptagg::net::LinkFaults {
        drop_prob: 0.15,
        dup_prob: 0.15,
        reorder_prob: 0.15,
    });
    for kind in SIX {
        let out = run_algorithm(kind, &chaos_config(noisy.clone()), &parts, &query)
            .unwrap_or_else(|e| panic!("{kind} failed under link noise: {e}"));
        assert_eq!(out.rows, reference, "{kind} lost exactness under link noise");
        let injected: u64 = out
            .run
            .per_node
            .iter()
            .map(|n| n.net.injected_drops + n.net.injected_dups + n.net.injected_reorders)
            .sum();
        assert!(injected > 0, "{kind}: no fault ever fired at 15% link noise");
    }
}

/// A disabled fault plan is free: same rows, same traffic counters, and
/// every node's virtual clock equal to the bit, compared with a config
/// that never heard of fault injection (`ClusterConfig::new` defaults to
/// `FaultPlan::none()`). All six: receivers consume their streams in
/// logical order, so nothing but the fault layer could tell the two runs
/// apart (120 groups: A-Rep does not fall back here, asserted).
#[test]
fn disabled_fault_injection_is_zero_cost() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();

    for kind in SIX {
        let default_cfg = ClusterConfig::new(NODES, CostParams::paper_default());
        let explicit_none = chaos_config(FaultPlan::none());
        let a = run_algorithm(kind, &default_cfg, &parts, &query).unwrap();
        let b = run_algorithm(kind, &explicit_none, &parts, &query).unwrap();
        assert_eq!(a.rows, b.rows, "{kind}: rows changed");
        for (na, nb) in a.run.per_node.iter().zip(&b.run.per_node) {
            assert_eq!(na.net, nb.net, "{kind}: traffic counters changed");
        }
        if kind == AlgorithmKind::AdaptiveRepartitioning {
            assert!(a.adapted_nodes().is_empty() && b.adapted_nodes().is_empty());
        }
        for (na, nb) in a.run.per_node.iter().zip(&b.run.per_node) {
            assert_eq!(na.clock, nb.clock, "{kind}: node {} clock changed", na.node);
        }
    }
}

fn recovering_config(plan: FaultPlan) -> ClusterConfig {
    chaos_config(plan).with_recovery(RecoveryPolicy::default())
}

/// The recovery tentpole, across the full schedule matrix: with recovery
/// enabled, the same 150 seeded schedules that fail fast above must now
/// *complete* and match the serial reference exactly — a crashed node's
/// partition is reassigned and replayed past its checkpoint. The only
/// admissible failure is `RecoveryExhausted` on a schedule whose crashes
/// genuinely keep killing nodes (re-armed thresholds can fell survivors
/// that inherit bigger scans), and such a schedule must actually contain
/// crashes.
#[test]
fn recovery_completes_every_schedule_or_exhausts_honestly() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let reference = reference_aggregate(&parts, &query).unwrap();

    let mut recovered = 0;
    for seed in 0..25u64 {
        let plan = FaultPlan::random(seed, NODES);
        for kind in SIX {
            let config = recovering_config(plan.clone());
            match run_algorithm(kind, &config, &parts, &query) {
                Ok(out) => {
                    assert_eq!(
                        out.rows, reference,
                        "{kind} seed {seed}: recovered run returned wrong rows"
                    );
                    if out.run.recovery.recovered() {
                        assert!(
                            plan.has_crash(),
                            "{kind} seed {seed}: recovery fired without a crash"
                        );
                        assert!(
                            !out.run.recovery.dead_nodes.is_empty(),
                            "{kind} seed {seed}: attempts > 1 but no node removed"
                        );
                        recovered += 1;
                    }
                }
                Err(ExecError::RecoveryExhausted { attempts, .. }) => {
                    assert!(
                        plan.has_crash(),
                        "{kind} seed {seed}: exhausted without any scheduled crash"
                    );
                    assert!(attempts > 1, "{kind} seed {seed}: gave up after one attempt");
                }
                Err(other) => panic!(
                    "{kind} seed {seed}: recovery must complete or exhaust, got {other:?}"
                ),
            }
        }
    }
    assert!(
        recovered > 0,
        "no schedule ever needed recovery — harness too tame"
    );
}

/// Single-node crashes — the acceptance scenario — must *all* recover:
/// every algorithm, every crash site, exact rows, exactly one extra
/// attempt, and the victim correctly named in the recovery report.
#[test]
fn single_node_crashes_recover_exactly_on_every_algorithm() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let reference = reference_aggregate(&parts, &query).unwrap();

    for kind in SIX {
        for node in 0..NODES {
            let plan = FaultPlan::new(node as u64).with_crash(node, 50);
            let out = run_algorithm(kind, &recovering_config(plan), &parts, &query)
                .unwrap_or_else(|e| {
                    panic!("{kind}: crash on node {node} did not recover: {e}")
                });
            assert_eq!(out.rows, reference, "{kind}: wrong rows after losing {node}");
            assert_eq!(
                out.run.recovery.attempts, 2,
                "{kind}: one crash must cost exactly one retry"
            );
            assert_eq!(
                out.run.recovery.dead_nodes,
                vec![node],
                "{kind}: wrong victim for a crash on node {node}"
            );
            assert!(
                out.run.recovery.reassigned_partitions >= 1,
                "{kind}: the victim's partition was never reassigned"
            );
            assert!(
                out.run.elapsed_with_recovery_ms() > out.run.elapsed_ms(),
                "{kind}: recovery cost invisible in the virtual clock"
            );
        }
    }
}

/// Recovery outcomes are as reproducible as fail-stop ones: same seed ⇒
/// same rows and the same number of attempts (clock readings may differ —
/// see the determinism caveat above).
#[test]
fn recovery_outcomes_are_deterministic_per_seed() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();

    for seed in [3u64, 7, 11, 19, 23] {
        let plan = FaultPlan::random(seed, NODES);
        for kind in SIX {
            let once = run_algorithm(kind, &recovering_config(plan.clone()), &parts, &query);
            let twice = run_algorithm(kind, &recovering_config(plan.clone()), &parts, &query);
            match (once, twice) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.rows, b.rows, "{kind} seed {seed}: rows differ");
                    assert_eq!(
                        a.run.recovery.attempts, b.run.recovery.attempts,
                        "{kind} seed {seed}: attempt count differs"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{kind} seed {seed}: errors differ");
                }
                (a, b) => panic!(
                    "{kind} seed {seed}: outcome flipped between runs: {:?} vs {:?}",
                    a.map(|r| r.rows.len()),
                    b.map(|r| r.rows.len())
                ),
            }
        }
    }
}

/// Every crash schedule, on every algorithm, surfaces within the
/// watchdog deadline — the suite completing at all is most of the proof,
/// but check the error shape too: a crash anywhere must never surface as
/// a NodePanic (the pre-fault failure mode) or hang into a watchdog.
/// (Recovery stays *off* here: these fail-stop semantics are the
/// contract for `ClusterConfig`s that never opted into recovery.)
#[test]
fn targeted_crashes_fail_fast_on_every_algorithm() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();

    for kind in SIX {
        for node in 0..NODES {
            let plan = FaultPlan::new(node as u64).with_crash(node, 50);
            let err = run_algorithm(kind, &chaos_config(plan), &parts, &query)
                .expect_err("a crash at tuple 50 must fail the run");
            assert_eq!(
                err,
                ExecError::InjectedCrash { node, at_tuple: 50 },
                "{kind}: wrong error for a crash on node {node}"
            );
        }
    }
}

/// Transport parity: the chaos contract is a property of the
/// reliability layer (`Endpoint`), not of the wire under it. The same
/// seeded schedules, run over real TCP loopback sockets instead of the
/// in-process channel fabric, must produce the same outcome — identical
/// rows on success, the identical typed error on failure. (A reduced
/// seed set: every TCP run establishes a real 4-node socket mesh, which
/// is wall-clock-expensive next to a channel fabric.)
#[test]
fn chaos_outcomes_match_across_transports() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();

    for seed in [0u64, 5, 9] {
        let plan = FaultPlan::random(seed, NODES);
        for kind in SIX {
            let inproc = run_algorithm(kind, &chaos_config(plan.clone()), &parts, &query);
            let tcp_cfg = chaos_config(plan.clone())
                .with_transport(adaptagg::net::TransportKind::TcpLoopback);
            let tcp = run_algorithm(kind, &tcp_cfg, &parts, &query);
            match (inproc, tcp) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.rows, b.rows,
                        "{kind} seed {seed}: rows differ across transports"
                    );
                }
                (Err(a), Err(b)) => {
                    // When the schedule injects several crashes, which
                    // one the driver observes *first* depends on real-
                    // time arrival order, which kernel socket scheduling
                    // perturbs under load (DESIGN.md §12.5: TCP pins
                    // outcomes, not interleavings). Two errors therefore
                    // match if each names a crash the plan actually
                    // scheduled; any other mismatch is a parity break.
                    let scheduled = |e: &ExecError| match e {
                        ExecError::InjectedCrash { node, at_tuple } => {
                            plan.node(*node).crash_at_tuple == Some(*at_tuple)
                        }
                        _ => false,
                    };
                    if !(scheduled(&a) && scheduled(&b)) {
                        assert_eq!(
                            a, b,
                            "{kind} seed {seed}: errors differ across transports"
                        );
                    }
                }
                (a, b) => panic!(
                    "{kind} seed {seed}: outcome flipped across transports: \
                     in-process {:?} vs tcp {:?}",
                    a.map(|r| r.rows.len()),
                    b.map(|r| r.rows.len())
                ),
            }
        }
    }
}

/// The acceptance crash scenario over the TCP backend: a node crash on
/// every algorithm recovers to exact rows through the same reassignment
/// machinery, with the victim named — proving the recovery loop from
/// PR 2 neither knows nor cares what wire it runs over.
#[test]
fn single_crash_recovers_exactly_over_tcp_loopback() {
    let spec = RelationSpec::uniform(TUPLES, GROUPS);
    let parts = generate_partitions(&spec, NODES);
    let query = default_query();
    let reference = reference_aggregate(&parts, &query).unwrap();

    for kind in SIX {
        let plan = FaultPlan::new(1).with_crash(1, 50);
        let config = recovering_config(plan)
            .with_transport(adaptagg::net::TransportKind::TcpLoopback);
        let out = run_algorithm(kind, &config, &parts, &query)
            .unwrap_or_else(|e| panic!("{kind} over tcp: crash did not recover: {e}"));
        assert_eq!(out.rows, reference, "{kind} over tcp: wrong rows");
        assert_eq!(out.run.recovery.attempts, 2, "{kind} over tcp");
        assert_eq!(out.run.recovery.dead_nodes, vec![1], "{kind} over tcp");
    }
}
