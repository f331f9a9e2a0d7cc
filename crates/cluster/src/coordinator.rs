//! The coordinator: dispatch ownership, merge partials, and recover from
//! dead or stalled workers by reassigning their partitions. Its attempts
//! are [`run_attempts`]'s, the loop the in-process runtime runs too; what
//! is its own is one attempt's dispatch and collect (`run_attempt`).

use crate::proto::JobMsg;
use crate::spec::ClusterSpec;
use crate::{ClusterError, Progress};
use adaptagg_exec::recovery::{run_attempts, AttemptFailure, Membership, RecoveryPolicy};
use adaptagg_exec::{Clock, ExecError};
use adaptagg_hashagg::HashAggregator;
use adaptagg_model::{CostParams, ResultRow};
use adaptagg_net::{Control, Endpoint, NetError, Payload};
use std::time::{Duration, Instant};

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorOpts {
    /// Wall-clock deadline per attempt. When it lapses with EOS still
    /// missing, the lowest-id straggler is declared the victim (the
    /// waiter cannot know who stalled; removing *someone* keeps the
    /// attempt count bounded).
    pub attempt_timeout: Duration,
}

impl Default for CoordinatorOpts {
    fn default() -> Self {
        CoordinatorOpts {
            attempt_timeout: Duration::from_secs(30),
        }
    }
}

/// What a completed coordinated run reports.
#[derive(Debug)]
pub struct CoordinatorReport {
    /// The merged result, sorted by group key.
    pub rows: Vec<ResultRow>,
    /// Attempts spent, counting the successful one.
    pub attempts: usize,
    /// Workers declared dead, in death order.
    pub dead_workers: Vec<usize>,
    /// Partitions that changed owner across all recoveries.
    pub reassigned_partitions: usize,
}

/// What survives between queries on a serving mesh: the workers'
/// [`Membership`] and a globally monotonic attempt counter. A worker
/// SIGKILLed during one query stays dead for the next, its partitions
/// stay reassigned, and — because attempt numbers never repeat — a stale
/// ack from a dead or lagging worker can never open a later query's ack
/// barrier.
#[derive(Debug, Clone)]
pub struct CoordinatorState {
    /// Workers `1..n`; partition `p` starts with worker `p + 1`.
    members: Membership,
    /// Next attempt number to dispatch (monotonic across queries).
    next_attempt: u32,
    /// Queries completed on this mesh.
    queries_done: usize,
}

impl CoordinatorState {
    /// Fresh state: every worker alive, owning its own partition.
    pub fn new(spec: &ClusterSpec) -> Self {
        CoordinatorState {
            members: Membership::new((1..spec.nodes).collect()),
            next_attempt: 1,
            queries_done: 0,
        }
    }

    /// Workers declared dead so far, in death order.
    pub fn dead_workers(&self) -> &[usize] {
        self.members.dead()
    }

    /// Queries completed on this mesh.
    pub fn queries_done(&self) -> usize {
        self.queries_done
    }
}

/// Run the coordinator (node 0) over an established endpoint for one
/// query. Returns the merged rows or an honest failure; the endpoint
/// is consumed (the mesh is torn down on drop, sending Bye to
/// surviving workers).
pub fn run_coordinator(
    mut endpoint: Endpoint,
    spec: &ClusterSpec,
    opts: &CoordinatorOpts,
    progress: Progress<'_>,
) -> Result<CoordinatorReport, ClusterError> {
    let mut state = CoordinatorState::new(spec);
    run_coordinated_query(&mut endpoint, spec, opts, &mut state, progress)
}

/// Run one query over a live mesh, mutating the persistent `state` —
/// the serving building block ([`run_coordinator`] is the one-shot
/// wrapper). The query may spend one attempt per worker; deaths
/// accumulate in `state` across calls.
pub fn run_coordinated_query(
    endpoint: &mut Endpoint,
    spec: &ClusterSpec,
    opts: &CoordinatorOpts,
    state: &mut CoordinatorState,
    progress: Progress<'_>,
) -> Result<CoordinatorReport, ClusterError> {
    assert_eq!(endpoint.node(), 0, "the coordinator must be node 0");
    let plan = spec.plan();
    let params = CostParams::paper_default();
    let mut clock = Clock::new(params.clone());
    // One attempt per worker, and no backoff: workers are re-dispatched at
    // once.
    let policy = RecoveryPolicy {
        backoff_ms: 0.0,
        ..RecoveryPolicy::default().with_max_attempts(spec.workers() as u32)
    };
    let CoordinatorState { members, next_attempt, queries_done } = state;
    let attempt = |live: &[usize], owners: &[usize]| {
        let attempt = *next_attempt;
        *next_attempt += 1;
        progress(&format!(
            "attempt #{attempt}: {} partition(s) across {} worker(s)",
            owners.len(),
            live.len()
        ));
        let end = run_attempt(endpoint, spec, opts, &plan, &params, &mut clock, attempt, owners, live);
        if let Err(AttemptFailure { error, victim: Some(victim), .. }) = &end {
            progress(&format!("worker {victim} declared dead: {error}"));
        }
        end
    };
    let (agg, stats, _) = run_attempts(members, Some(&policy), false, attempt).map_err(|e| match e {
        ExecError::RecoveryExhausted { attempts, .. } => ClusterError::RecoveryExhausted {
            attempts: attempts as usize,
            dead_workers: members.dead().to_vec(),
        },
        e => e.into(),
    })?;

    let (mut rows, _) = agg.finish_rows(&mut clock).map_err(ExecError::from)?;
    adaptagg_model::query::sort_rows(&mut rows);
    let finish = Control::Job(JobMsg::Finish { rows: rows.len() as u64 }.encode());
    for &w in members.live() {
        // Best effort: a worker dying after the result is complete cannot
        // un-complete it.
        let _ = endpoint.send_control(w, finish.clone(), clock.now_ms());
    }
    progress(&format!("complete: {} row(s) in {} attempt(s)", rows.len(), stats.attempts));
    *queries_done += 1;
    Ok(CoordinatorReport {
        rows,
        attempts: stats.attempts as usize,
        dead_workers: members.dead().to_vec(),
        reassigned_partitions: stats.reassigned_partitions as usize,
    })
}

/// A failure that costs `worker` its seat before the next attempt.
fn lost(worker: usize, error: ExecError) -> AttemptFailure {
    AttemptFailure {
        error,
        at: None,
        victim: Some(worker),
    }
}

/// Dispatch one attempt and collect until every live worker delivered
/// EOS (the complete aggregate), a worker died, aborted or stalled (the
/// failure names it), or the transport or the merge failed.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    endpoint: &mut Endpoint,
    spec: &ClusterSpec,
    opts: &CoordinatorOpts,
    plan: &adaptagg_algos::common::QueryPlan,
    params: &CostParams,
    clock: &mut Clock,
    attempt: u32,
    owners: &[usize],
    live: &[usize],
) -> Result<Box<HashAggregator>, AttemptFailure> {
    let start = Control::Job(
        JobMsg::Start {
            attempt,
            owners: owners.iter().map(|&w| w as u32).collect(),
        }
        .encode(),
    );
    for &w in live {
        match endpoint.send_control(w, start.clone(), clock.now_ms()) {
            Ok(()) => {}
            Err(e @ NetError::PeerDown { peer }) => return Err(lost(peer, e.into())),
            Err(e) => return Err(ExecError::from(e).into()),
        }
    }

    // Hash cost is not re-charged for merged partials (they were hashed
    // at the worker) — same accounting as the in-process merge phase.
    let mut agg = HashAggregator::with_defaults(plan.projected.clone(), params.max_hash_entries, params.page_bytes)
        .with_charge_hash(false);
    let mut acked = vec![false; spec.nodes];
    let mut eos = vec![false; spec.nodes];
    let deadline = Instant::now() + opts.attempt_timeout;

    loop {
        if live.iter().all(|&w| eos[w]) {
            return Ok(Box::new(agg));
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        let stalled = |waited_ms: u64| {
            let straggler = live.iter().copied().find(|&w| !eos[w]);
            let straggler = straggler.expect("loop guard: some EOS is missing");
            lost(straggler, ExecError::Watchdog { node: straggler, waited_ms })
        };
        if remaining.is_zero() {
            return Err(stalled(opts.attempt_timeout.as_millis() as u64));
        }
        let msg = match endpoint.recv_timeout(remaining) {
            Ok(msg) => msg,
            Err(e @ NetError::PeerDown { peer }) => {
                if peer != 0 && live.contains(&peer) {
                    return Err(lost(peer, e.into()));
                }
                continue; // an already-recovered-from death
            }
            Err(NetError::Deadline { waited_ms }) => return Err(stalled(waited_ms)),
            Err(e) => return Err(ExecError::from(e).into()),
        };
        let from = msg.from;
        if from == 0 || from >= spec.nodes || !live.contains(&from) {
            continue;
        }
        if !acked[from] {
            // The ack barrier: everything a worker sent before its ack
            // for *this* attempt is stale-attempt traffic. Per-link
            // FIFO (the sequencing layer) makes this airtight.
            if let Payload::Control(Control::Job(bytes)) = &msg.payload {
                if let Ok(JobMsg::Ack { attempt: a }) = JobMsg::decode(bytes) {
                    if a == attempt {
                        acked[from] = true;
                    }
                }
            }
            continue;
        }
        match msg.payload {
            Payload::Data { kind, page } => {
                agg.push_page(kind, &page, clock).map_err(ExecError::from)?;
            }
            Payload::Control(Control::EndOfStream) => eos[from] = true,
            Payload::Control(Control::Abort { origin, reason }) => {
                // A worker hit an unrecoverable local error and told us
                // before exiting: same recovery path as a silent death.
                let victim = if live.contains(&origin) { origin } else { from };
                return Err(lost(victim, ExecError::Aborted { origin, reason }));
            }
            Payload::Control(_) => {} // stray (late EndOfPhase etc.)
        }
    }
}
