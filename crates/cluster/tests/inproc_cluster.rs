//! In-process integration tests for the coordinator/worker job
//! protocol: the same `run_coordinator`/`run_worker` code the binaries
//! ship, exercised over both transport backends — the deterministic
//! channel fabric and real TCP loopback sockets — behind the one
//! `Endpoint` reliability layer.

use adaptagg_cluster::{
    run_coordinated_query, run_coordinator, run_worker, ClusterError, ClusterSpec,
    CoordinatorOpts, CoordinatorState, JobMsg, WorkerOpts,
};
use adaptagg_net::{
    loopback_endpoints, Control, Endpoint, Fabric, FaultPlan, NetworkKind, Payload, TcpConfig,
};
use adaptagg_workload::default_query;
use std::thread;
use std::time::{Duration, Instant};

fn spec(nodes: usize) -> ClusterSpec {
    ClusterSpec {
        nodes,
        tuples: 3000,
        groups: 20,
        seed: 7,
    }
}

fn reference(s: &ClusterSpec) -> Vec<adaptagg_model::ResultRow> {
    adaptagg_algos::reference_aggregate(&s.partitions(), &default_query()).unwrap()
}

fn quiet() -> impl FnMut(&str) {
    |_line: &str| {}
}

/// Drive a full cluster: the coordinator on this thread, `run_worker`
/// on one thread per remaining endpoint. Panics in worker threads fail
/// the join below.
fn drive(
    endpoints: Vec<Endpoint>,
    s: &ClusterSpec,
    copts: CoordinatorOpts,
    lazy_worker: Option<usize>,
) -> (
    Result<adaptagg_cluster::CoordinatorReport, ClusterError>,
    Vec<Result<adaptagg_cluster::WorkerReport, ClusterError>>,
) {
    let mut endpoints = endpoints.into_iter();
    let coord_ep = endpoints.next().unwrap();
    let mut handles = Vec::new();
    for (i, ep) in endpoints.enumerate() {
        let node = i + 1;
        let s = s.clone();
        if Some(node) == lazy_worker {
            // A worker that takes the dispatch and silently walks away:
            // the in-process stand-in for a wedged process (channel
            // peers have no heartbeat, so death surfaces only through
            // the coordinator's attempt deadline).
            handles.push(thread::spawn(move || {
                let mut ep = ep;
                let msg = ep.recv_timeout(Duration::from_secs(10)).unwrap();
                assert!(matches!(
                    msg.payload,
                    Payload::Control(Control::Job(_))
                ));
                Err(ClusterError::Protocol("lazy worker walked away"))
            }));
            continue;
        }
        let wopts = WorkerOpts {
            idle_timeout: Duration::from_secs(20),
            ..WorkerOpts::default()
        };
        handles.push(thread::spawn(move || {
            run_worker(ep, &s, &wopts, &mut quiet())
        }));
    }
    let report = run_coordinator(coord_ep, s, &copts, &mut quiet());
    let worker_results = handles.into_iter().map(|h| h.join().unwrap()).collect();
    (report, worker_results)
}

#[test]
fn fabric_cluster_completes_and_matches_reference() {
    let s = spec(4);
    let endpoints = Fabric::new(4, NetworkKind::high_speed_default()).into_endpoints();
    let (report, workers) = drive(endpoints, &s, CoordinatorOpts::default(), None);
    let report = report.unwrap();
    assert_eq!(report.rows, reference(&s));
    assert_eq!(report.attempts, 1);
    assert!(report.dead_workers.is_empty());
    for w in workers {
        let w = w.unwrap();
        assert_eq!(w.attempts_run, 1);
        assert_eq!(w.rows_reported, report.rows.len() as u64);
    }
}

#[test]
fn fabric_cluster_recovers_from_a_wedged_worker() {
    let s = spec(4);
    let endpoints = Fabric::new(4, NetworkKind::high_speed_default()).into_endpoints();
    let copts = CoordinatorOpts {
        attempt_timeout: Duration::from_secs(2),
    };
    let (report, workers) = drive(endpoints, &s, copts, Some(3));
    let report = report.unwrap();
    assert_eq!(report.rows, reference(&s), "recovered result must be exact");
    assert_eq!(report.attempts, 2);
    assert_eq!(report.dead_workers, vec![3]);
    assert_eq!(report.reassigned_partitions, 1);
    // The survivors ran both attempts; the lazy one errored out.
    let ok: Vec<_> = workers.iter().filter(|w| w.is_ok()).collect();
    assert_eq!(ok.len(), 2);
    for w in ok {
        assert_eq!(w.as_ref().unwrap().attempts_run, 2);
    }
}

#[test]
fn fabric_cluster_exhausts_honestly_when_every_worker_wedges() {
    // Two workers, both lazy — drive() only supports one lazy seat, so
    // hand-roll: workers take the dispatch and walk away. Both wedge,
    // and the loss of the last one leaves no heir, so the query must
    // exhaust after 2 attempts, not hang or fabricate rows.
    let s = spec(3);
    let mut endpoints = Fabric::new(3, NetworkKind::high_speed_default())
        .into_endpoints()
        .into_iter();
    let coord_ep = endpoints.next().unwrap();
    let handles: Vec<_> = endpoints
        .map(|mut ep| {
            thread::spawn(move || {
                while let Ok(msg) = ep.recv_timeout(Duration::from_secs(10)) {
                    if matches!(msg.payload, Payload::Control(Control::Job(_))) {
                        return;
                    }
                }
            })
        })
        .collect();
    let copts = CoordinatorOpts {
        attempt_timeout: Duration::from_millis(600),
    };
    let err = run_coordinator(coord_ep, &s, &copts, &mut quiet()).unwrap_err();
    match &err {
        ClusterError::RecoveryExhausted {
            attempts,
            dead_workers,
        } => {
            assert_eq!(*attempts, 2);
            assert_eq!(dead_workers.len(), 2);
        }
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 2, "exhaustion maps to exit 2");
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn tcp_cluster_completes_and_matches_reference() {
    let s = spec(4);
    let endpoints = loopback_endpoints(
        4,
        NetworkKind::high_speed_default(),
        &FaultPlan::none(),
        TcpConfig::snappy(),
    )
    .unwrap();
    let (report, workers) = drive(endpoints, &s, CoordinatorOpts::default(), None);
    let report = report.unwrap();
    assert_eq!(
        report.rows,
        reference(&s),
        "TCP transport must produce the same rows as the reference"
    );
    assert_eq!(report.attempts, 1);
    for w in workers {
        assert_eq!(w.unwrap().rows_reported, report.rows.len() as u64);
    }
}

#[test]
fn tcp_cluster_recovers_when_a_worker_disappears() {
    // The lazy worker drops its TCP endpoint after taking the
    // dispatch; its Bye makes the disappearance graceful, so recovery
    // rides the coordinator's attempt deadline (the SIGKILL/heartbeat
    // path is covered by the process-level suite).
    let s = spec(4);
    let endpoints = loopback_endpoints(
        4,
        NetworkKind::high_speed_default(),
        &FaultPlan::none(),
        TcpConfig::snappy(),
    )
    .unwrap();
    let copts = CoordinatorOpts {
        attempt_timeout: Duration::from_secs(2),
    };
    let (report, _workers) = drive(endpoints, &s, copts, Some(3));
    let report = report.unwrap();
    assert_eq!(report.rows, reference(&s));
    assert_eq!(report.attempts, 2);
    assert_eq!(report.dead_workers, vec![3]);
}

/// The serving mesh: workers started with `serve: true` stay on the
/// mesh past `Finish` and answer repeated queries from one persistent
/// [`CoordinatorState`]. Dropping the coordinator endpoint is the
/// clean shutdown signal — that requires a transport whose teardown
/// notifies peers (TCP's Bye); the channel fabric only surfaces a
/// dropped peer on *send*, so these tests run over loopback TCP, the
/// same backend the real serving deployment uses.
#[test]
fn serving_mesh_answers_repeated_queries() {
    let s = spec(4);
    let mut endpoints = loopback_endpoints(
        4,
        NetworkKind::high_speed_default(),
        &FaultPlan::none(),
        TcpConfig::snappy(),
    )
    .unwrap()
    .into_iter();
    let mut coord_ep = endpoints.next().unwrap();
    let handles: Vec<_> = endpoints
        .map(|ep| {
            let s = s.clone();
            let wopts = WorkerOpts {
                idle_timeout: Duration::from_secs(20),
                serve: true,
                ..WorkerOpts::default()
            };
            thread::spawn(move || run_worker(ep, &s, &wopts, &mut quiet()))
        })
        .collect();

    let copts = CoordinatorOpts::default();
    let mut state = CoordinatorState::new(&s);
    let expected = reference(&s);
    for round in 1..=3 {
        let report =
            run_coordinated_query(&mut coord_ep, &s, &copts, &mut state, &mut quiet()).unwrap();
        assert_eq!(report.rows, expected, "query #{round} must stay exact");
        assert_eq!(report.attempts, 1);
        assert_eq!(state.queries_done(), round);
    }
    assert!(state.dead_workers().is_empty());

    // Coordinator teardown = serving shutdown: every worker exits Ok
    // having finished all three queries.
    drop(coord_ep);
    for h in handles {
        let w = h.join().unwrap().unwrap();
        assert_eq!(w.queries_finished, 3);
        assert_eq!(w.attempts_run, 3);
        assert_eq!(w.rows_reported, expected.len() as u64);
    }
}

/// The teardown race, made deterministic: the coordinator sends its last
/// `Finish` and hangs up at once, and the worker first looks only after
/// the goodbye has landed — so it sees the coordinator gone with the
/// `Finish` still unread. It must count the query before it exits.
#[test]
fn serving_worker_counts_the_finish_sent_before_teardown() {
    let s = spec(2);
    let mut endpoints = loopback_endpoints(
        2,
        NetworkKind::high_speed_default(),
        &FaultPlan::none(),
        TcpConfig::snappy(),
    )
    .unwrap()
    .into_iter();
    let mut coord_ep = endpoints.next().unwrap();
    let worker_ep = endpoints.next().unwrap();
    let finish = JobMsg::Finish { rows: 7 }.encode();
    coord_ep.send_control(1, Control::Job(finish), 0.0).unwrap();
    drop(coord_ep);
    let start = Instant::now();
    while !worker_ep.peer_gone(0) {
        assert!(start.elapsed() < Duration::from_secs(10), "the goodbye never landed");
        thread::sleep(Duration::from_millis(1));
    }
    let wopts = WorkerOpts {
        idle_timeout: Duration::from_secs(20),
        serve: true,
        ..WorkerOpts::default()
    };
    let w = run_worker(worker_ep, &s, &wopts, &mut quiet()).unwrap();
    assert_eq!(w.queries_finished, 1);
    assert_eq!(w.rows_reported, 7);
    assert_eq!(w.attempts_run, 0);
}

/// A worker death mid-burst: the next query recovers (reassigning the
/// victim's partitions), the death persists into later queries (no
/// re-dispatch to a ghost), attempt numbers keep rising globally, and
/// every answer stays exact.
#[test]
fn serving_mesh_survives_a_mid_burst_death() {
    let s = spec(4);
    let mut endpoints = loopback_endpoints(
        4,
        NetworkKind::high_speed_default(),
        &FaultPlan::none(),
        TcpConfig::snappy(),
    )
    .unwrap()
    .into_iter();
    let mut coord_ep = endpoints.next().unwrap();
    let mut handles = Vec::new();
    for (i, ep) in endpoints.enumerate() {
        let node = i + 1;
        let s = s.clone();
        if node == 2 {
            // Serves query 1 honestly, then walks away: takes query 2's
            // dispatch and exits without acking or shipping.
            handles.push(thread::spawn(move || {
                let wopts = WorkerOpts {
                    idle_timeout: Duration::from_secs(20),
                    ..WorkerOpts::default() // serve: false → returns after Finish
                };
                run_worker(ep, &s, &wopts, &mut quiet())
            }));
            continue;
        }
        let wopts = WorkerOpts {
            idle_timeout: Duration::from_secs(20),
            serve: true,
            ..WorkerOpts::default()
        };
        handles.push(thread::spawn(move || run_worker(ep, &s, &wopts, &mut quiet())));
    }

    let copts = CoordinatorOpts {
        attempt_timeout: Duration::from_secs(2),
    };
    let mut state = CoordinatorState::new(&s);
    let expected = reference(&s);

    let q1 = run_coordinated_query(&mut coord_ep, &s, &copts, &mut state, &mut quiet()).unwrap();
    assert_eq!(q1.rows, expected);
    assert_eq!(q1.attempts, 1);

    // Worker 2 has left the mesh; query 2 must recover around it.
    let q2 = run_coordinated_query(&mut coord_ep, &s, &copts, &mut state, &mut quiet()).unwrap();
    assert_eq!(q2.rows, expected, "post-death answer must stay exact");
    assert_eq!(q2.attempts, 2, "one failed attempt, one recovered");
    assert_eq!(q2.dead_workers, vec![2]);
    assert!(q2.reassigned_partitions > 0);

    // Query 3 starts from the persisted liveness map: no ghost
    // dispatch, so one attempt suffices and the death is still on
    // record.
    let q3 = run_coordinated_query(&mut coord_ep, &s, &copts, &mut state, &mut quiet()).unwrap();
    assert_eq!(q3.rows, expected);
    assert_eq!(q3.attempts, 1, "the dead worker must not cost query 3 anything");
    assert_eq!(state.dead_workers(), &[2]);
    assert_eq!(state.queries_done(), 3);

    drop(coord_ep);
    for h in handles {
        // Survivors exit Ok on coordinator teardown; the deserter's
        // own exit (Ok after query 1 — serve off) is also fine.
        let w = h.join().unwrap().unwrap();
        assert!(w.queries_finished >= 1);
    }
}

/// A mesh outlives its last worker: a query after a recovered one
/// reassigns nothing new, the query that loses the last worker exhausts,
/// and every later query exhausts before it dispatches a single `Start`.
#[test]
fn serving_mesh_exhausts_without_dispatch_once_every_worker_died() {
    let s = spec(3);
    let mut endpoints = loopback_endpoints(
        3,
        NetworkKind::high_speed_default(),
        &FaultPlan::none(),
        TcpConfig::snappy(),
    )
    .unwrap()
    .into_iter();
    let mut coord_ep = endpoints.next().unwrap();
    // Worker 1 serves until it sits idle for its idle timeout, then
    // leaves; worker 2 serves query 1 only (serve off).
    let serving = |serve: bool| WorkerOpts {
        idle_timeout: Duration::from_secs(4),
        serve,
        ..WorkerOpts::default()
    };
    let (w1, w2) = (endpoints.next().unwrap(), endpoints.next().unwrap());
    let s1 = s.clone();
    let lingering = thread::spawn(move || run_worker(w1, &s1, &serving(true), &mut quiet()));
    let s2 = s.clone();
    let deserter = thread::spawn(move || run_worker(w2, &s2, &serving(false), &mut quiet()));

    let copts = CoordinatorOpts {
        attempt_timeout: Duration::from_secs(1),
    };
    let mut state = CoordinatorState::new(&s);
    let expected = reference(&s);
    let mut query = |state: &mut CoordinatorState| {
        run_coordinated_query(&mut coord_ep, &s, &copts, state, &mut quiet())
    };

    let q1 = query(&mut state).unwrap();
    assert_eq!(q1.rows, expected);
    assert_eq!(q1.attempts, 1);
    deserter.join().unwrap().unwrap();
    let q2 = query(&mut state).unwrap();
    assert_eq!(q2.rows, expected);
    assert_eq!((q2.attempts, q2.reassigned_partitions), (2, 1));
    let q3 = query(&mut state).unwrap();
    assert_eq!(q3.rows, expected);
    assert_eq!(q3.attempts, 1);
    assert_eq!(q3.reassigned_partitions, 0, "a recovered query's moves are its own");
    assert_eq!(q3.dead_workers, vec![2]);

    // Worker 1 times out idle and leaves: the next query loses it with no
    // heir left.
    assert!(lingering.join().unwrap().is_err(), "an idle timeout is an error exit");
    match query(&mut state).unwrap_err() {
        ClusterError::RecoveryExhausted { attempts, dead_workers } => {
            assert_eq!((attempts, dead_workers), (1, vec![2, 1]));
        }
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }

    // Nobody is left: no attempt, no dispatch.
    let sent = coord_ep.stats().control_sent;
    let err = run_coordinated_query(&mut coord_ep, &s, &copts, &mut state, &mut quiet()).unwrap_err();
    match &err {
        ClusterError::RecoveryExhausted { attempts, dead_workers } => {
            assert_eq!((*attempts, dead_workers.as_slice()), (0, &[2, 1][..]));
        }
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 2);
    assert_eq!(coord_ep.stats().control_sent, sent, "no Start was dispatched");
}
