//! The coordinator's attempt loop: dispatch ownership, merge partials,
//! and recover from dead or stalled workers by reassigning their
//! partitions — the process-level twin of the in-process recovery
//! runtime.

use crate::proto::JobMsg;
use crate::spec::ClusterSpec;
use crate::{ClusterError, Progress};
use adaptagg_exec::recovery::reassign_partitions;
use adaptagg_exec::{Clock, ExecError};
use adaptagg_hashagg::HashAggregator;
use adaptagg_model::{CostParams, ResultRow};
use adaptagg_net::{Control, Endpoint, NetError, Payload};
use std::time::{Duration, Instant};

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorOpts {
    /// Attempt budget. Each worker death or stall costs one attempt;
    /// past this the run ends honestly with
    /// [`ClusterError::RecoveryExhausted`] (exit 2).
    pub max_attempts: usize,
    /// Wall-clock deadline per attempt. When it lapses with EOS still
    /// missing, the lowest-id straggler is declared the victim (the
    /// waiter cannot know who stalled; removing *someone* keeps the
    /// attempt count bounded).
    pub attempt_timeout: Duration,
}

impl Default for CoordinatorOpts {
    fn default() -> Self {
        CoordinatorOpts {
            max_attempts: 0, // 0 = one per worker, resolved in run
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

/// How an attempt's collect loop ended.
enum AttemptEnd {
    /// Every live worker delivered EOS; the aggregate is complete.
    Done(Box<HashAggregator>),
    /// This worker must be declared dead before the next attempt.
    Victim(usize),
}

/// What survives between queries on a serving mesh: the liveness map,
/// the partition ownership map, and a globally monotonic attempt
/// counter. A worker SIGKILLed during one query stays dead for the
/// next, its partitions stay reassigned, and — because attempt numbers
/// never repeat — a stale ack from a dead or lagging worker can never
/// open a later query's ack barrier.
#[derive(Debug, Clone)]
pub struct CoordinatorState {
    alive: Vec<bool>,
    dead_workers: Vec<usize>,
    owners: Vec<u32>,
    /// Next attempt number to dispatch (monotonic across queries).
    next_attempt: u32,
    /// Queries completed on this mesh.
    queries_done: usize,
}

impl CoordinatorState {
    /// Fresh state: everyone alive, attempt-1 ownership.
    pub fn new(spec: &ClusterSpec) -> Self {
        CoordinatorState {
            alive: vec![true; spec.nodes],
            dead_workers: Vec::new(),
            owners: spec.initial_owners(),
            next_attempt: 1,
            queries_done: 0,
        }
    }

    /// Workers declared dead so far, in death order.
    pub fn dead_workers(&self) -> &[usize] {
        &self.dead_workers
    }

    /// Queries completed on this mesh.
    pub fn queries_done(&self) -> usize {
        self.queries_done
    }

    /// Worker ids still believed alive.
    fn live(&self) -> Vec<usize> {
        (1..self.alive.len()).filter(|&w| self.alive[w]).collect()
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
/// wrapper). The attempt budget applies per query; deaths accumulate
/// in `state` across calls.
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
    let mut reassigned = 0usize;
    let max_attempts = if opts.max_attempts == 0 {
        spec.workers().max(1)
    } else {
        opts.max_attempts
    };

    for spent in 1..=max_attempts {
        let live = state.live();
        if live.is_empty() {
            return Err(ClusterError::RecoveryExhausted {
                attempts: spent - 1,
                dead_workers: state.dead_workers.clone(),
            });
        }
        let attempt = state.next_attempt;
        state.next_attempt += 1;
        progress(&format!(
            "attempt {spent}/{max_attempts} (global #{attempt}): {} partition(s) across {} worker(s)",
            state.owners.len(),
            live.len()
        ));

        let end = run_attempt(
            endpoint,
            spec,
            opts,
            &plan,
            &params,
            &mut clock,
            attempt,
            &state.owners,
            &live,
        )?;

        match end {
            AttemptEnd::Done(agg) => {
                let (mut rows, _) = agg
                    .finish_rows(&mut clock)
                    .map_err(ExecError::from)?;
                adaptagg_model::query::sort_rows(&mut rows);
                let finish = Control::Job(
                    JobMsg::Finish {
                        rows: rows.len() as u64,
                    }
                    .encode(),
                );
                for &w in &live {
                    // Best effort: a worker dying after the result is
                    // complete cannot un-complete it.
                    let _ = endpoint.send_control(w, finish.clone(), clock.now_ms());
                }
                progress(&format!(
                    "complete: {} row(s) in {spent} attempt(s)",
                    rows.len()
                ));
                state.queries_done += 1;
                return Ok(CoordinatorReport {
                    rows,
                    attempts: spent,
                    dead_workers: state.dead_workers.clone(),
                    reassigned_partitions: reassigned,
                });
            }
            AttemptEnd::Victim(victim) => {
                state.alive[victim] = false;
                state.dead_workers.push(victim);
                let heirs: Vec<u32> = live
                    .iter()
                    .copied()
                    .filter(|&w| w != victim)
                    .map(|w| w as u32)
                    .collect();
                if heirs.is_empty() {
                    return Err(ClusterError::RecoveryExhausted {
                        attempts: spent,
                        dead_workers: state.dead_workers.clone(),
                    });
                }
                let moved = reassign_partitions(&mut state.owners, victim as u32, &heirs);
                reassigned += moved;
                progress(&format!(
                    "worker {victim} declared dead; reassigned {moved} partition(s)"
                ));
            }
        }
    }

    Err(ClusterError::RecoveryExhausted {
        attempts: max_attempts,
        dead_workers: state.dead_workers.clone(),
    })
}

/// Dispatch one attempt and collect until every live worker delivered
/// EOS, a worker died, or the deadline lapsed.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    endpoint: &mut Endpoint,
    spec: &ClusterSpec,
    opts: &CoordinatorOpts,
    plan: &adaptagg_algos::common::QueryPlan,
    params: &CostParams,
    clock: &mut Clock,
    attempt: u32,
    owners: &[u32],
    live: &[usize],
) -> Result<AttemptEnd, ClusterError> {
    let start = Control::Job(
        JobMsg::Start {
            attempt,
            owners: owners.to_vec(),
        }
        .encode(),
    );
    for &w in live {
        match endpoint.send_control(w, start.clone(), clock.now_ms()) {
            Ok(()) => {}
            Err(NetError::PeerDown { peer }) => return Ok(AttemptEnd::Victim(peer)),
            Err(e) => return Err(e.into()),
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
            return Ok(AttemptEnd::Done(Box::new(agg)));
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        let straggler = || {
            live.iter()
                .copied()
                .find(|&w| !eos[w])
                .expect("loop guard: some EOS is missing")
        };
        if remaining.is_zero() {
            return Ok(AttemptEnd::Victim(straggler()));
        }
        let msg = match endpoint.recv_timeout(remaining) {
            Ok(msg) => msg,
            Err(NetError::PeerDown { peer }) => {
                if peer != 0 && live.contains(&peer) {
                    return Ok(AttemptEnd::Victim(peer));
                }
                continue; // an already-recovered-from death
            }
            Err(NetError::Deadline { .. }) => return Ok(AttemptEnd::Victim(straggler())),
            Err(e) => return Err(e.into()),
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
            Payload::Control(Control::Abort { origin, .. }) => {
                // A worker hit an unrecoverable local error and told us
                // before exiting: same recovery path as a silent death.
                let victim = if origin < spec.nodes { origin } else { from };
                return Ok(AttemptEnd::Victim(victim));
            }
            Payload::Control(_) => {} // stray (late EndOfPhase etc.)
        }
    }
}
