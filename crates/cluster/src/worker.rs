//! The worker loop: wait for an attempt dispatch, ack it, and run C2P's
//! node body over the owned partitions (aggregate locally, ship the
//! partials to the coordinator) — as many times as recovery demands,
//! until `Finish`.

use crate::proto::JobMsg;
use crate::spec::ClusterSpec;
use crate::{ClusterError, Progress};
use adaptagg_algos::c2p::{self, COORDINATOR};
use adaptagg_algos::AlgoConfig;
use adaptagg_exec::{ExecError, NodeCtx};
use adaptagg_model::CostParams;
use adaptagg_net::{Control, Endpoint, Message, NetError, Payload};
use adaptagg_storage::SimDisk;
use std::time::{Duration, Instant};

/// Chunk size for the serving-mode idle wait: how often a parked
/// worker re-checks whether the coordinator left gracefully.
const SERVE_POLL: Duration = Duration::from_millis(50);

/// One idle wait for the next dispatch. In serving mode the wait is
/// chunked so the worker notices a *graceful* coordinator departure —
/// a transport-level goodbye surfaces no receive error, by design —
/// within [`SERVE_POLL`] instead of sitting out the whole idle
/// timeout. The departure is normalized to `PeerDown { COORDINATOR }`
/// so the caller has one exit path for graceful and abrupt teardown.
///
/// What the coordinator sent before it left — a last `Finish` — is
/// delivered first: a transport files a peer's messages before it notes
/// the peer's goodbye, so once the goodbye is seen, a non-blocking
/// receive still drains whatever the peer sent.
fn recv_dispatch(endpoint: &mut Endpoint, opts: &WorkerOpts) -> Result<Message, NetError> {
    if !opts.serve {
        return endpoint.recv_timeout(opts.idle_timeout);
    }
    let start = Instant::now();
    loop {
        let gone = endpoint.peer_gone(COORDINATOR);
        if let Some(msg) = endpoint.try_recv()? {
            return Ok(msg);
        }
        if gone {
            return Err(NetError::PeerDown { peer: COORDINATOR });
        }
        let remaining = opts.idle_timeout.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return Err(NetError::Deadline {
                waited_ms: opts.idle_timeout.as_millis() as u64,
            });
        }
        match endpoint.recv_timeout(remaining.min(SERVE_POLL)) {
            Err(NetError::Deadline { .. }) => continue,
            other => return other,
        }
    }
}

/// Worker knobs.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// How long to sit idle (no dispatch, no heartbeat-detected death)
    /// before concluding the coordinator is wedged and exiting.
    pub idle_timeout: Duration,
    /// Test hook: sleep this long after acking an attempt, before
    /// scanning — widens the window in which a kill lands mid-query.
    pub slow_scan: Duration,
    /// Serving mode: stay on the mesh after `Finish` and keep taking
    /// dispatches for further queries. The worker then exits cleanly
    /// when the coordinator goes away (its teardown is the shutdown
    /// signal), instead of treating that as a failure.
    pub serve: bool,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            idle_timeout: Duration::from_secs(120),
            slow_scan: Duration::ZERO,
            serve: false,
        }
    }
}

/// What a finished worker reports.
#[derive(Debug)]
pub struct WorkerReport {
    /// Attempts this worker ran to completion (acked and shipped).
    pub attempts_run: usize,
    /// Result-row count the coordinator announced in the last `Finish`.
    pub rows_reported: u64,
    /// Queries this worker saw through to `Finish`.
    pub queries_finished: usize,
}

/// Run a worker node over an established endpoint until the
/// coordinator announces completion (`Ok`), dies (`Err`), or this
/// worker hits an unrecoverable local error (`Err`, after telling the
/// coordinator via `Abort` so it can reassign without waiting for a
/// heartbeat timeout).
pub fn run_worker(
    mut endpoint: Endpoint,
    spec: &ClusterSpec,
    opts: &WorkerOpts,
    progress: Progress<'_>,
) -> Result<WorkerReport, ClusterError> {
    let me = endpoint.node();
    assert!(me != COORDINATOR, "workers are nodes 1..n");
    let partitions = spec.partitions();
    let plan = spec.plan();
    let cfg = AlgoConfig::default_for(spec.nodes);
    let params = CostParams::paper_default();
    let mut attempts_run = 0usize;
    let mut queries_finished = 0usize;
    let mut rows_reported = 0u64;

    loop {
        let msg = match recv_dispatch(&mut endpoint, opts) {
            Ok(msg) => msg,
            // A fellow worker died; the coordinator owns recovery — a
            // worker just keeps serving dispatches.
            Err(NetError::PeerDown { peer }) if peer != COORDINATOR => continue,
            // In serving mode the coordinator's teardown IS the
            // shutdown signal: exit cleanly with what we served. The
            // mesh draining completely (`Disconnected`) implies the
            // coordinator is among the departed, so it exits the same
            // way.
            Err(NetError::PeerDown { peer: COORDINATOR }) | Err(NetError::Disconnected)
                if opts.serve =>
            {
                progress("coordinator left; shutting down");
                return Ok(WorkerReport {
                    attempts_run,
                    rows_reported,
                    queries_finished,
                });
            }
            Err(e) => return Err(e.into()),
        };
        match msg.payload {
            Payload::Control(Control::Job(bytes)) => match JobMsg::decode(&bytes) {
                Ok(JobMsg::Start { attempt, owners }) => {
                    endpoint.send_control(
                        COORDINATOR,
                        Control::Job(JobMsg::Ack { attempt }.encode()),
                        0.0,
                    )?;
                    progress(&format!("attempt {attempt}: scanning"));
                    if !opts.slow_scan.is_zero() {
                        std::thread::sleep(opts.slow_scan);
                    }
                    let base = spec.base_for(&partitions, &owners, me as u32);
                    let disk = SimDisk::with_base_partition(base);
                    let mut ctx = NodeCtx::new(endpoint, disk, params.clone());
                    // On any node but the coordinator, C2P only ships.
                    let result = c2p::run_node(&mut ctx, &plan, &cfg);
                    endpoint = ctx.into_endpoint();
                    match result {
                        Ok(_) => {
                            attempts_run += 1;
                            progress(&format!("attempt {attempt}: partials shipped"));
                        }
                        Err(e @ ExecError::Net(NetError::PeerDown { peer: COORDINATOR })) => {
                            return Err(e.into())
                        }
                        Err(e) => {
                            // Tell the coordinator before bailing so it
                            // recovers immediately instead of waiting
                            // out a heartbeat timeout.
                            let _ = endpoint.send_control(
                                COORDINATOR,
                                Control::Abort {
                                    origin: me,
                                    reason: e.to_string(),
                                },
                                0.0,
                            );
                            return Err(e.into());
                        }
                    }
                }
                Ok(JobMsg::Finish { rows }) => {
                    queries_finished += 1;
                    rows_reported = rows;
                    progress(&format!(
                        "finish: {rows} row(s) cluster-wide (query #{queries_finished})"
                    ));
                    if opts.serve {
                        // Serving mode: stay on the mesh for the next
                        // query's dispatch.
                        continue;
                    }
                    return Ok(WorkerReport {
                        attempts_run,
                        rows_reported,
                        queries_finished,
                    });
                }
                Ok(JobMsg::Ack { .. }) => {
                    return Err(ClusterError::Protocol("worker received an Ack"))
                }
                Err(e) => return Err(ClusterError::Net(NetError::Frame(e))),
            },
            Payload::Control(Control::Abort { origin, reason }) => {
                return Err(ClusterError::Aborted { origin, reason })
            }
            // Stray traffic (a late EndOfPhase, a data page misrouted
            // by a dying peer): ignore — the job protocol is resilient
            // to leftovers by construction.
            Payload::Control(_) | Payload::Data { .. } => {}
        }
    }
}
