//! Tour of the fault-injection API through the public `adaptagg` crate:
//! seeded fault plans, exactness under link noise, typed crash errors,
//! the watchdog, and query-level fault recovery. Run with
//! `cargo run --release --example chaos_demo`.

use adaptagg::exec::{run_cluster, ExecError, FaultPlan};
use adaptagg::model::ticks_to_ms;
use adaptagg::net::LinkFaults;
use adaptagg::prelude::*;
use std::time::Duration;

fn main() {
    let spec = RelationSpec::uniform(8_000, 200);
    let parts = generate_partitions(&spec, 4);
    let query = default_query();
    let cfg = AlgoConfig::default_for(4);
    let base = ClusterConfig::new(4, CostParams::paper_default());

    // 1. Clean baseline.
    let clean = run_algorithm_with(AlgorithmKind::TwoPhase, &base, &parts, &query, &cfg).unwrap();
    println!("[clean]    rows={} elapsed={:.4}ms", clean.rows.len(), clean.elapsed_ms());

    // 2. Fault plan present but empty => must be byte-identical.
    let off = base.clone().with_fault_plan(FaultPlan::none());
    let r = run_algorithm_with(AlgorithmKind::TwoPhase, &off, &parts, &query, &cfg).unwrap();
    println!(
        "[plan-off] rows match={} elapsed identical={}",
        r.rows == clean.rows,
        r.elapsed_ms() == clean.elapsed_ms()
    );

    // 3. Heavy link noise: exactness must survive.
    let noisy = base
        .clone()
        .with_fault_plan(FaultPlan::new(42).with_link_faults(LinkFaults {
            drop_prob: 0.25,
            dup_prob: 0.25,
            reorder_prob: 0.25,
        }));
    let r = run_algorithm_with(AlgorithmKind::TwoPhase, &noisy, &parts, &query, &cfg).unwrap();
    let net = r.run.total_net();
    println!(
        "[noisy]    rows match={} drops={} dups={} reorders={} elapsed={:.4}ms",
        r.rows == clean.rows,
        net.injected_drops,
        net.injected_dups,
        net.injected_reorders,
        r.elapsed_ms()
    );

    // 4. Everything dropped once (drop = retransmit penalty, still exact).
    let storm = base.clone().with_fault_plan(FaultPlan::new(7).with_link_faults(LinkFaults {
        drop_prob: 1.0,
        dup_prob: 0.0,
        reorder_prob: 0.0,
    }));
    let r = run_algorithm_with(AlgorithmKind::TwoPhase, &storm, &parts, &query, &cfg).unwrap();
    println!(
        "[storm]    rows match={} drops={} elapsed={:.4}ms (clean {:.4}ms)",
        r.rows == clean.rows,
        r.run.total_net().injected_drops,
        r.elapsed_ms(),
        clean.elapsed_ms()
    );

    // 5. Injected crash => typed first-cause error, no hang.
    let crashy = base.clone().with_fault_plan(FaultPlan::new(1).with_crash(2, 100));
    let err = run_algorithm_with(AlgorithmKind::TwoPhase, &crashy, &parts, &query, &cfg)
        .expect_err("crash plan must fail");
    println!("[crash]    err={err}");
    assert_eq!(err, ExecError::InjectedCrash { node: 2, at_tuple: 100 });

    // 6. Probe: crash on an out-of-range node id — should be inert, not panic.
    let oob = base.clone().with_fault_plan(FaultPlan::new(1).with_crash(9, 100));
    let r = run_algorithm_with(AlgorithmKind::TwoPhase, &oob, &parts, &query, &cfg);
    println!("[oob]      result ok={} rows match={}", r.is_ok(), r.as_ref().map(|o| o.rows == clean.rows).unwrap_or(false));

    // 7. Probe: pathological slowdown — still exact, wildly longer virtual time.
    let slow = base.clone().with_fault_plan(FaultPlan::new(1).with_slowdown(0, 1000.0));
    let r = run_algorithm_with(AlgorithmKind::TwoPhase, &slow, &parts, &query, &cfg).unwrap();
    println!("[slow]     rows match={} elapsed={:.1}ms", r.rows == clean.rows, r.elapsed_ms());

    // 8. Probe: near-zero watchdog on a *healthy* run — must not misfire.
    let wd = base.clone().with_watchdog(Duration::from_millis(1));
    match run_algorithm_with(AlgorithmKind::TwoPhase, &wd, &parts, &query, &cfg) {
        Ok(r) => println!("[watchdog] healthy run ok, rows match={}", r.rows == clean.rows),
        Err(e) => println!("[watchdog] fired on healthy run: {e}"),
    }

    // 9 (repeat). Same seed twice => identical injected-fault counters and rows.
    let mk = || {
        base.clone().with_fault_plan(FaultPlan::new(42).with_link_faults(LinkFaults {
            drop_prob: 0.25,
            dup_prob: 0.25,
            reorder_prob: 0.25,
        }))
    };
    // Sender-side traffic (and the injected_* tallies) are exact per seed;
    // the receiver-side dup_dropped tally may race a finishing receiver
    // (DESIGN.md §8.1), so it is excluded from the comparison.
    let a = run_algorithm_with(AlgorithmKind::TwoPhase, &mk(), &parts, &query, &cfg).unwrap();
    let b = run_algorithm_with(AlgorithmKind::TwoPhase, &mk(), &parts, &query, &cfg).unwrap();
    let (na, nb) = (a.run.total_net(), b.run.total_net());
    println!(
        "[repeat]   rows identical={} sent identical={} faults identical={}",
        a.rows == b.rows,
        (na.bytes_sent, na.tuples_sent, na.control_sent)
            == (nb.bytes_sent, nb.tuples_sent, nb.control_sent),
        (na.injected_drops, na.injected_dups, na.injected_reorders)
            == (nb.injected_drops, nb.injected_dups, nb.injected_reorders)
    );

    // 10 (stall). Watchdog catches a genuinely stalled node (waits on a message
    // that never comes) instead of hanging the whole cluster.
    let wd = base.clone().with_watchdog(Duration::from_millis(300));
    let r = run_cluster(&wd, parts.clone(), |ctx| {
        if ctx.id() == 3 {
            ctx.recv()?; // nobody ever sends to node 3
        }
        Ok(())
    });
    match r {
        Err(ExecError::Watchdog { node, waited_ms }) => {
            println!("[stall]    watchdog fired: node={node} waited_ms={waited_ms}")
        }
        other => println!("[stall]    UNEXPECTED: {other:?}"),
    }

    // 11 (recover). The same crash plan that fail-stopped in step 5, with
    // recovery enabled: node 2's partition is reassigned to a survivor,
    // checkpointed partials are restored, and the query *completes* with
    // exactly the clean rows.
    let recovering = base
        .clone()
        .with_fault_plan(FaultPlan::new(1).with_crash(2, 100))
        .with_recovery(RecoveryPolicy::default());
    let r = run_algorithm_with(AlgorithmKind::TwoPhase, &recovering, &parts, &query, &cfg)
        .expect("recovery must complete the crashed query");
    let rec = &r.run.recovery;
    let work = r.run.total_recovery();
    println!(
        "[recover]  rows match={} attempts={} dead={:?} reassigned={} \
         restored_rows={} replayed_pages={} lost={:.1}ms backoff={:.1}ms \
         elapsed={:.1}ms (with recovery {:.1}ms)",
        r.rows == clean.rows,
        rec.attempts,
        rec.dead_nodes,
        rec.reassigned_partitions,
        work.restored_partials,
        work.replayed_pages,
        ticks_to_ms(rec.lost),
        ticks_to_ms(rec.backoff),
        r.elapsed_ms(),
        r.run.elapsed_with_recovery_ms()
    );
    assert!(r.rows == clean.rows, "recovered rows must match the clean run");
    assert_eq!(rec.dead_nodes, vec![2], "the crash victim must be the removed node");
}
