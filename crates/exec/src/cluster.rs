//! The cluster runtime: spawn N node threads, run an algorithm closure on
//! each, gather outputs and reports.

use crate::error::ExecError;
use crate::node::{NodeCtx, DEFAULT_WATCHDOG};
use crate::recovery::{self, AttemptFailure, Membership, RecoveryPolicy, RecoverySession, Segment};
use crate::runstats::{NodeReport, RunResult};
use adaptagg_model::{ticks_to_ms, CostParams, MemoryGrant};
use adaptagg_net::{
    loopback_endpoints, Control, Fabric, FaultPlan, NodeFaults, TcpConfig, TransportKind,
};
use adaptagg_obs::{NodeTraceReport, RecoverySummaryTrace, RunTrace};
use adaptagg_storage::{HeapFile, SimDisk};
use std::time::Duration;

/// Per-node real-time headroom (ms) of the derived watchdog deadline
/// (thread startup, scheduling; DESIGN.md §9).
pub const WATCHDOG_MS_PER_NODE: u64 = 250;
/// Per-input-page headroom (µs) of the derived watchdog deadline (real
/// compute time scales with input volume even though time is virtual).
pub const WATCHDOG_US_PER_PAGE: u64 = 200;
/// Headroom multiplier on the derived watchdog deadline while recovery is
/// on: survivors inherit partitions and legitimately run longer, so stall
/// declaration must be more patient.
pub const STRAGGLER_FACTOR: u64 = 2;

/// Cluster shape and cost parameters for a run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (`N` in Table 1).
    pub nodes: usize,
    /// Table 1 constants, including the network kind and the hash-table
    /// budget `M`.
    pub params: CostParams,
    /// Seeded fault schedule ([`FaultPlan::none()`] by default — zero
    /// overhead anywhere when disabled).
    pub fault_plan: FaultPlan,
    /// Explicit real-time receive deadline per node (the hang backstop).
    /// `None` (the default) derives the deadline from cluster size and
    /// input volume — see [`ClusterConfig::effective_watchdog`].
    pub watchdog: Option<Duration>,
    /// Per-node live memory grants (original node ids), installed on each
    /// node's [`NodeCtx`]. Empty (the default) leaves every node on the
    /// unlimited grant — the pre-serving, bit-identical path. The serving
    /// layer's broker passes one revocable handle per node here.
    pub grants: Vec<MemoryGrant>,
    /// Query-level fault recovery. `None` (the default) is fail-stop: one
    /// attempt with no checkpoint session, so the first node failure
    /// aborts the run.
    pub recovery: Option<RecoveryPolicy>,
    /// Record a [`RunTrace`] (spans, events, metrics, per-link traffic)
    /// for this run. Defaults from the `ADAPTAGG_TRACE` environment
    /// variable (unset / empty / `"0"` → off). Tracing never records
    /// cost events and never advances any clock, so every virtual-time
    /// figure is bit-identical with it on or off.
    pub trace: bool,
    /// Which wire carries the fabric: the deterministic in-process
    /// channel mesh (the default) or real TCP sockets on loopback. The
    /// reliability layer — sequence numbers, dedup, fault injection,
    /// virtual-time accounting — is identical over both (see
    /// [`adaptagg_net::Transport`]), so algorithms, chaos schedules, and
    /// traces run unchanged against either backend.
    pub transport: TransportKind,
}

impl ClusterConfig {
    /// A cluster of `nodes` nodes with the given parameters.
    pub fn new(nodes: usize, params: CostParams) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        ClusterConfig {
            nodes,
            params,
            fault_plan: FaultPlan::none(),
            watchdog: None,
            grants: Vec::new(),
            recovery: None,
            trace: std::env::var("ADAPTAGG_TRACE")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false),
            transport: TransportKind::default(),
        }
    }

    /// Accepted and ignored: every node runs one execution lane. Exists
    /// for `benchmark/`, which calls it; delete with the next `benchmark`
    /// PR.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Run the fabric over the given transport backend.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Record a [`RunTrace`] for this run (see [`ClusterConfig::trace`]).
    pub fn with_tracing(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Run under a seeded fault schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Override the real-time receive deadline (tests use short ones).
    /// Disables the size-derived deadline.
    pub fn with_watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Install per-node live memory grants (one per node, original ids).
    pub fn with_grants(mut self, grants: Vec<MemoryGrant>) -> Self {
        assert_eq!(grants.len(), self.nodes, "one grant per node required");
        self.grants = grants;
        self
    }

    /// Enable query-level fault recovery under the given policy.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// The real-time receive deadline a run with `total_pages` of input
    /// actually uses: the explicit override if set, otherwise
    /// [`DEFAULT_WATCHDOG`] plus [`WATCHDOG_MS_PER_NODE`] per node and
    /// [`WATCHDOG_US_PER_PAGE`] per input page (a fixed constant falsely
    /// declares large slow runs stalled). With recovery enabled, the
    /// derived deadline is further scaled by [`STRAGGLER_FACTOR`].
    pub fn effective_watchdog(&self, total_pages: usize) -> Duration {
        if let Some(explicit) = self.watchdog {
            return explicit;
        }
        let mut ms = DEFAULT_WATCHDOG.as_millis() as u64
            + WATCHDOG_MS_PER_NODE * self.nodes as u64
            + WATCHDOG_US_PER_PAGE * total_pages as u64 / 1000;
        if self.recovery.is_some() {
            ms *= STRAGGLER_FACTOR;
        }
        Duration::from_millis(ms)
    }

    /// The paper's implementation platform: 8 nodes on a shared 10 Mbit
    /// bus (§5).
    pub fn paper_cluster() -> Self {
        ClusterConfig::new(8, CostParams::cluster_default())
    }
}

/// The outcome of [`run_cluster`]: one output per node plus timing.
#[derive(Debug)]
pub struct ClusterRun<T> {
    /// Per-node outputs, in node order.
    pub outputs: Vec<T>,
    /// Timing and traffic.
    pub run: RunResult,
    /// The run trace, when [`ClusterConfig::trace`] was set (node ids are
    /// original ids, even after recovery reassignment).
    pub trace: Option<RunTrace>,
}

/// Run `body` on every node of a cluster in parallel.
///
/// `partitions[i]` becomes node `i`'s base-relation partition (disk file
/// `"base"`). The closure receives the node's [`NodeCtx`] and returns its
/// output; any node error or panic aborts the attempt with an
/// [`ExecError`].
///
/// Threads are real (the run exercises real channels and real contention
/// on the shared-bus model); time is virtual.
///
/// ## Attempts
///
/// [`recovery::run_attempts`] runs every configuration, over a
/// [`Membership`] of nodes `0..n`. With no [`RecoveryPolicy`] it makes one
/// attempt, and the attempt seats no [`RecoverySession`], sets no link
/// retry and its first cause is returned as it is: fail-stop. Under a
/// policy it runs attempts until one completes, removing each failed
/// attempt's victim and reassigning its base partitions (plus their
/// durable checkpoints) to survivors. Each failed attempt removes exactly
/// one node — the first cause's victim — so the attempt count is bounded by
/// `min(max_attempts, nodes)`. A watchdog failure names the *waiter*, not
/// the staller (the waiter cannot know who stalled); removing the waiter
/// is still bounded and the straggler-scaled deadline makes it rare.
/// Checkpoints live in a store shared across attempts (modeling
/// replicated stable storage), so a survivor inheriting a partition
/// replays only the un-checkpointed suffix.
///
/// ## Failure propagation and attribution
///
/// A node whose body fails broadcasts [`Control::Abort`] before its
/// endpoint drops, so peers blocked waiting for its data fail promptly
/// with [`ExecError::Aborted`] instead of hanging (the per-node watchdog
/// is the backstop if even the abort is lost). Several nodes usually
/// error on one failure — the originator plus its cascades — so the
/// reported error is chosen by attribution class first
/// ([`ExecError::attribution_class`]: primary < watchdog < cascade),
/// earliest virtual failure time second: the *first cause*, not whichever
/// thread happened to be joined first.
pub fn run_cluster<T, F>(
    config: &ClusterConfig,
    partitions: Vec<HeapFile>,
    body: F,
) -> Result<ClusterRun<T>, ExecError>
where
    T: Send,
    F: Fn(&mut NodeCtx) -> Result<T, ExecError> + Sync,
{
    assert_eq!(
        partitions.len(),
        config.nodes,
        "one partition per node required"
    );
    let total_pages: usize = partitions.iter().map(|p| p.page_count()).sum();
    let watchdog = config.effective_watchdog(total_pages);
    let policy = config.recovery.as_ref();
    let page_bytes = partitions
        .first()
        .map(|p| p.page_bytes())
        .unwrap_or(config.params.page_bytes);
    let store = recovery::new_store();
    let mut members = Membership::new((0..config.nodes).collect());
    // live[i] = original id of the node seated at fabric index i.
    let attempt = |live: &[usize], owners: &[usize]| {
        let seats: Vec<NodeSeat> = live
            .iter()
            .map(|&orig| {
                // Concatenate this node's partitions ascending by
                // partition id (a lone one is shared, not copied); under a
                // policy, record per-partition page offsets so the scans
                // can resume per partition.
                let owned = || partitions.iter().enumerate().filter(|&(p, _)| owners[p] == orig);
                let base = HeapFile::concat(page_bytes, owned().map(|(_, part)| part))
                    .expect("partitions of one page size");
                let recovery = policy.map(|policy| {
                    let mut start_page = 0;
                    let segments = owned()
                        .map(|(partition, part)| {
                            let seg = Segment { partition, start_page, pages: part.page_count() };
                            start_page += seg.pages;
                            seg
                        })
                        .collect();
                    RecoverySession::new(
                        segments,
                        store.clone(),
                        policy.checkpoint_interval_pages,
                        config.params.page_bytes,
                    )
                });
                NodeSeat {
                    base,
                    faults: config.fault_plan.node(orig),
                    recovery,
                    // Grants are per original node id: a survivor keeps
                    // its own grant across reassignment.
                    grant: config.grants.get(orig).cloned().unwrap_or_default(),
                }
            })
            .collect();
        let (outputs, mut per_node, bus_busy_ms, mut traces) = run_seats(
            &config.params,
            &config.fault_plan,
            config.transport,
            watchdog,
            policy.is_some(),
            config.trace,
            seats,
            &body,
        )
        .map_err(|(error, at)| AttemptFailure {
            // The error names a fabric index; map it to the original id.
            victim: recovery::victim_of(&error).and_then(|seat| live.get(seat).copied()),
            error,
            at,
        })?;
        // Reports and traces carry fabric indices; restore original ids.
        for (report, &orig) in per_node.iter_mut().zip(live) {
            report.node = orig;
        }
        for trace in traces.iter_mut() {
            trace.node = live[trace.node];
        }
        Ok((outputs, per_node, bus_busy_ms, traces))
    };
    let ((outputs, per_node, bus_busy_ms, traces), stats, recovery) =
        recovery::run_attempts(&mut members, policy, config.trace, attempt)?;
    let summary = policy.map(|_| RecoverySummaryTrace {
        attempts: stats.attempts,
        dead_nodes: stats.dead_nodes.clone(),
        reassigned_partitions: stats.reassigned_partitions,
        lost_ms: ticks_to_ms(stats.lost),
        backoff_ms: ticks_to_ms(stats.backoff),
    });
    Ok(ClusterRun {
        outputs,
        run: RunResult {
            per_node,
            bus_busy_ms,
            recovery: stats,
        },
        trace: config.trace.then(|| RunTrace {
            nodes: traces,
            recovery,
            recovery_summary: summary,
            transport: config.transport.to_string(),
            annotations: Vec::new(),
        }),
    })
}

/// One node's assignment for a cluster attempt: its (possibly
/// concatenated) base data, injected faults, and — with recovery on —
/// its checkpoint session.
struct NodeSeat {
    base: HeapFile,
    faults: NodeFaults,
    recovery: Option<RecoverySession>,
    grant: MemoryGrant,
}

/// One attempt's successful outcome: outputs, reports, bus-busy time,
/// and per-node traces (empty when tracing is off).
type AttemptOk<T> = (Vec<T>, Vec<NodeReport>, f64, Vec<NodeTraceReport>);
/// One attempt's failure: the first cause and its virtual failure time in
/// ticks (`None`: a panic, which has none).
type AttemptErr = (ExecError, Option<u64>);

/// Execute one cluster attempt over the given seats. Returns either all
/// nodes' outputs or the attempt's first-cause failure with its virtual
/// failure time.
#[allow(clippy::too_many_arguments)]
fn run_seats<T, F>(
    params: &CostParams,
    fault_plan: &FaultPlan,
    transport: TransportKind,
    watchdog: Duration,
    link_retry: bool,
    trace: bool,
    seats: Vec<NodeSeat>,
    body: &F,
) -> Result<AttemptOk<T>, AttemptErr>
where
    T: Send,
    F: Fn(&mut NodeCtx) -> Result<T, ExecError> + Sync,
{
    let n = seats.len();
    let endpoints = match transport {
        TransportKind::InProcess => {
            Fabric::with_faults(n, params.network, fault_plan).into_endpoints()
        }
        TransportKind::TcpLoopback => {
            let cfg = TcpConfig::default().with_seed(fault_plan.seed());
            match loopback_endpoints(n, params.network, fault_plan, cfg) {
                Ok(endpoints) => endpoints,
                // Establishment failure happens before any virtual time
                // elapses; it is an environment fault, not a node fault.
                Err(e) => return Err((ExecError::Net(e), Some(0))),
            }
        }
    };

    type NodeOk<T> = (T, NodeReport, f64, Option<NodeTraceReport>);
    let results: Vec<Result<NodeOk<T>, AttemptErr>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (endpoint, seat) in endpoints.into_iter().zip(seats) {
            let params = params.clone();
            handles.push(scope.spawn(move || {
                let node = endpoint.node();
                let disk = SimDisk::with_base_partition(seat.base);
                let mut ctx = NodeCtx::new(endpoint, disk, params);
                ctx.apply_faults(seat.faults);
                ctx.set_watchdog(watchdog);
                ctx.set_link_retry(link_retry);
                ctx.set_grant(seat.grant);
                ctx.recovery = seat.recovery;
                if trace {
                    ctx.enable_trace();
                }
                let out = match body(&mut ctx) {
                    Ok(out) => out,
                    Err(e) => {
                        let at = ctx.clock.now();
                        // Tell the survivors why we are leaving; ignore
                        // delivery failures (a peer may be gone already).
                        let _ = ctx.broadcast_control(Control::Abort {
                            origin: node,
                            reason: e.to_string(),
                        });
                        return Err((e, Some(at)));
                    }
                };
                let report = NodeReport {
                    node,
                    clock: ctx.clock.now(),
                    breakdown: ctx.clock.breakdown(),
                    net: *ctx.net_stats(),
                    recovery: ctx
                        .recovery
                        .as_ref()
                        .map(|s| s.counters)
                        .unwrap_or_default(),
                };
                let bus = ctx.bus_busy_ms();
                let node_trace = ctx.finish_trace();
                Ok((out, report, bus, node_trace))
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(node, h)| {
                h.join().unwrap_or_else(|panic| {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic".to_string());
                    // A panicking thread never reached the abort
                    // broadcast; it ranks after every failure time, so a
                    // typed primary error at the same class wins.
                    Err((ExecError::NodePanic { node, message }, None))
                })
            })
            .collect()
    });

    let mut outputs = Vec::with_capacity(n);
    let mut per_node = Vec::with_capacity(n);
    let mut traces = Vec::new();
    let mut bus_busy_ms = 0.0f64;
    let mut failure: Option<AttemptErr> = None;
    for r in results {
        match r {
            Ok((out, report, bus, node_trace)) => {
                outputs.push(out);
                per_node.push(report);
                traces.extend(node_trace);
                bus_busy_ms = bus_busy_ms.max(bus);
            }
            Err((e, at)) => {
                // Earlier is better; a panic (no time) comes last.
                let rank = |at: Option<u64>| at.unwrap_or(u64::MAX);
                let better = match &failure {
                    None => true,
                    Some((best, best_at)) => {
                        let (c, bc) = (e.attribution_class(), best.attribution_class());
                        c < bc || (c == bc && rank(at) < rank(*best_at))
                    }
                };
                if better {
                    failure = Some((e, at));
                }
            }
        }
    }
    if let Some(f) = failure {
        return Err(f);
    }
    Ok((outputs, per_node, bus_busy_ms, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runstats::{NodeRecoveryStats, RecoveryStats};
    use adaptagg_model::{CostEvent, CostTracker, NetworkKind, Value};
    use adaptagg_net::{Control, DataKind, Payload};
    use adaptagg_storage::Page;

    fn partitions(n: usize, tuples_per_node: usize) -> Vec<HeapFile> {
        (0..n)
            .map(|node| {
                let tuples: Vec<Vec<Value>> = (0..tuples_per_node)
                    .map(|i| vec![Value::Int((node * tuples_per_node + i) as i64)])
                    .collect();
                HeapFile::from_tuples(4096, tuples.iter().map(|t| t.as_slice())).unwrap()
            })
            .collect()
    }

    #[test]
    fn each_node_sees_its_partition() {
        let config = ClusterConfig::new(4, CostParams::paper_default());
        let run = run_cluster(&config, partitions(4, 10), |ctx| {
            Ok(ctx.disk.get("base")?.tuple_count())
        })
        .unwrap();
        assert_eq!(run.outputs, vec![10, 10, 10, 10]);
        assert_eq!(run.run.per_node.len(), 4);
    }

    #[test]
    fn elapsed_is_max_over_nodes() {
        let config = ClusterConfig::new(3, CostParams::paper_default());
        let run = run_cluster(&config, partitions(3, 0), |ctx| {
            // Node i does i+1 page reads (1.15 ms each).
            ctx.clock
                .record(CostEvent::PageReadSeq, ctx.id() as u64 + 1);
            Ok(())
        })
        .unwrap();
        assert!((run.run.elapsed_ms() - 3.0 * 1.15).abs() < 1e-9);
        assert_eq!(run.run.slowest_node(), Some(2));
    }

    #[test]
    fn nodes_exchange_messages_with_lamport_time() {
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let run = run_cluster(&config, partitions(2, 0), |ctx| {
            if ctx.id() == 0 {
                // Do expensive work, then send.
                ctx.clock.record(CostEvent::PageReadRand, 2); // 30 ms
                let mut page = Page::new(2048);
                page.try_push(&[Value::Int(1)]).unwrap();
                ctx.send_page(1, DataKind::Raw, page)?;
                Ok(ctx.clock.now_ms())
            } else {
                let msg = ctx.recv()?;
                assert!(msg.payload.is_data());
                Ok(ctx.clock.now_ms())
            }
        })
        .unwrap();
        // Node 1's clock must reflect waiting for node 0.
        assert!(run.outputs[1] >= 30.0, "got {}", run.outputs[1]);
        assert!(run.run.per_node[1].breakdown.wait_ms >= 29.0);
    }

    #[test]
    fn panic_in_one_node_is_reported() {
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let r = run_cluster(&config, partitions(2, 0), |ctx| {
            if ctx.id() == 1 {
                panic!("injected failure");
            }
            Ok(())
        });
        match r {
            Err(ExecError::NodePanic { node, message }) => {
                assert_eq!(node, 1);
                assert!(message.contains("injected"));
            }
            other => panic!("expected NodePanic, got {other:?}"),
        }
    }

    #[test]
    fn shared_bus_busy_time_is_reported() {
        let params = CostParams {
            network: NetworkKind::SharedBus { ms_per_page: 2.0 },
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(2, params);
        let run = run_cluster(&config, partitions(2, 0), |ctx| {
            let peer = 1 - ctx.id();
            let mut page = Page::new(2048);
            page.try_push(&[Value::Int(ctx.id() as i64)]).unwrap();
            ctx.send_page(peer, DataKind::Raw, page)?;
            // Drain the incoming page so channels stay clean.
            loop {
                match ctx.recv()?.payload {
                    Payload::Data { .. } => break,
                    Payload::Control(Control::EndOfStream) => {}
                    _ => {}
                }
            }
            Ok(())
        })
        .unwrap();
        // Two pages at 2 ms each on one shared bus.
        assert!((run.run.bus_busy_ms - 4.0).abs() < 1e-9);
        // Someone waited: elapsed must be at least 4 ms.
        assert!(run.run.elapsed_ms() >= 4.0 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "one partition per node")]
    fn partition_count_must_match() {
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let _ = run_cluster(&config, partitions(1, 0), |_| Ok(()));
    }

    #[test]
    fn failure_is_attributed_to_the_originating_node() {
        // Node 2 fails while nodes 0 and 1 block on recv. Without the
        // abort protocol they would hang; without class-ranked attribution
        // the run could report node 0's cascade (`Aborted`) because its
        // thread is joined first. The originator's primary error must win.
        let config = ClusterConfig::new(3, CostParams::paper_default())
            .with_watchdog(std::time::Duration::from_secs(5));
        let r = run_cluster(&config, partitions(3, 0), |ctx| {
            if ctx.id() == 2 {
                return Err(ExecError::Protocol("node 2's own failure"));
            }
            ctx.recv()?; // blocks until node 2's abort arrives
            Ok(())
        });
        assert_eq!(r.err(), Some(ExecError::Protocol("node 2's own failure")));
    }

    #[test]
    fn earliest_virtual_failure_wins_within_a_class() {
        // Two primary failures: node 1 fails at t=0, node 0 at t=15.
        // The earlier one is the cause to report.
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let r = run_cluster(&config, partitions(2, 0), |ctx| -> Result<(), ExecError> {
            if ctx.id() == 0 {
                ctx.clock.record(CostEvent::PageReadRand, 1); // 15 ms
                Err(ExecError::Protocol("late failure"))
            } else {
                Err(ExecError::Protocol("early failure"))
            }
        });
        assert_eq!(r.err(), Some(ExecError::Protocol("early failure")));
    }

    #[test]
    fn injected_crash_surfaces_as_typed_error() {
        let plan = adaptagg_net::FaultPlan::new(1).with_crash(1, 5);
        let config = ClusterConfig::new(2, CostParams::paper_default())
            .with_fault_plan(plan)
            .with_watchdog(std::time::Duration::from_secs(5));
        let r = run_cluster(&config, partitions(2, 20), |ctx| {
            for _ in 0..20 {
                ctx.fault_tick()?;
            }
            // Node 0 then waits for traffic that will never come; the
            // abort from node 1 must release it.
            if ctx.id() == 0 {
                ctx.recv()?;
            }
            Ok(())
        });
        assert_eq!(
            r.err(),
            Some(ExecError::InjectedCrash {
                node: 1,
                at_tuple: 5
            })
        );
    }

    #[test]
    fn slowdown_fault_inflates_one_node_only() {
        let work = |ctx: &mut NodeCtx| {
            ctx.clock.record(CostEvent::PageReadSeq, 10);
            Ok(ctx.clock.now_ms())
        };
        let config = ClusterConfig::new(2, CostParams::paper_default());
        let nominal = run_cluster(&config, partitions(2, 0), work).unwrap();
        let slowed_config = ClusterConfig::new(2, CostParams::paper_default())
            .with_fault_plan(adaptagg_net::FaultPlan::new(2).with_slowdown(1, 3.0));
        let slowed = run_cluster(&slowed_config, partitions(2, 0), work).unwrap();
        assert_eq!(slowed.outputs[0], nominal.outputs[0]);
        assert!((slowed.outputs[1] - 3.0 * nominal.outputs[1]).abs() < 1e-9);
    }

    #[test]
    fn watchdog_breaks_a_hang_even_without_an_abort() {
        // A node that simply never sends (no error, so no abort broadcast)
        // must not hang its peer forever: the watchdog converts the wait
        // into a typed error.
        let config = ClusterConfig::new(2, CostParams::paper_default())
            .with_watchdog(std::time::Duration::from_millis(100));
        let r = run_cluster(&config, partitions(2, 0), |ctx| {
            if ctx.id() == 0 {
                ctx.recv()?; // nothing ever arrives
            }
            Ok(())
        });
        match r {
            Err(ExecError::Watchdog { node: 0, waited_ms }) => assert_eq!(waited_ms, 100),
            other => panic!("expected Watchdog, got {:?}", other.err()),
        }
    }

    #[test]
    fn derived_watchdog_scales_with_cluster_size_and_input() {
        // The old fixed 30 s constant falsely declared large slow runs
        // stalled. The derived deadline must keep the floor and grow with
        // both node count and input volume.
        let small = ClusterConfig::new(2, CostParams::paper_default());
        let big = ClusterConfig::new(64, CostParams::paper_default());
        assert!(small.effective_watchdog(0) >= DEFAULT_WATCHDOG);
        assert!(big.effective_watchdog(0) > small.effective_watchdog(0));
        // 30 s + 250 ms x 2 nodes + 200 us x 1M pages.
        assert_eq!(small.effective_watchdog(1_000_000), Duration::from_millis(230_500));
    }

    #[test]
    fn explicit_watchdog_override_wins() {
        let config = ClusterConfig::new(64, CostParams::paper_default())
            .with_watchdog(Duration::from_millis(123));
        assert_eq!(
            config.effective_watchdog(1_000_000),
            Duration::from_millis(123)
        );
    }

    #[test]
    fn recovery_scales_the_derived_deadline_for_stragglers() {
        let plain = ClusterConfig::new(4, CostParams::paper_default());
        let recovering = ClusterConfig::new(4, CostParams::paper_default())
            .with_recovery(RecoveryPolicy::default());
        assert!(
            recovering.effective_watchdog(100) > plain.effective_watchdog(100),
            "survivors inherit partitions and legitimately run longer"
        );
    }

    #[test]
    fn recovery_completes_a_crashed_query_on_survivors() {
        // Node 1 crashes at tuple 5. With recovery on, attempt 2 runs on
        // nodes {0, 2} with node 1's partition reassigned; every tuple is
        // still counted exactly once.
        let plan = adaptagg_net::FaultPlan::new(7).with_crash(1, 5);
        let config = ClusterConfig::new(3, CostParams::paper_default())
            .with_fault_plan(plan)
            .with_recovery(RecoveryPolicy::default())
            .with_watchdog(Duration::from_secs(10));
        let run = run_cluster(&config, partitions(3, 20), |ctx| {
            let n = ctx.disk.get("base")?.tuple_count();
            for _ in 0..n {
                ctx.clock.record(CostEvent::TupleRead, 1);
                ctx.fault_tick()?;
            }
            Ok(n)
        })
        .unwrap();
        assert_eq!(run.outputs.iter().sum::<usize>(), 60, "no tuple lost");
        assert_eq!(run.run.recovery.attempts, 2);
        assert_eq!(run.run.recovery.dead_nodes, vec![1]);
        assert_eq!(run.run.recovery.reassigned_partitions, 1);
        assert!(run.run.recovery.lost > 0);
        assert!(run.run.recovery.backoff > 0);
        let ids: Vec<usize> = run.run.per_node.iter().map(|r| r.node).collect();
        assert_eq!(ids, vec![0, 2], "reports keep original node ids");
        assert!(run.run.elapsed_with_recovery_ms() > run.run.elapsed_ms());
    }

    #[test]
    fn recovery_exhausts_when_every_node_crashes() {
        let plan = adaptagg_net::FaultPlan::new(1)
            .with_crash(0, 1)
            .with_crash(1, 1);
        let config = ClusterConfig::new(2, CostParams::paper_default())
            .with_fault_plan(plan)
            .with_recovery(RecoveryPolicy::default())
            .with_watchdog(Duration::from_secs(10));
        let r = run_cluster(&config, partitions(2, 10), |ctx| {
            let n = ctx.disk.get("base")?.tuple_count();
            for _ in 0..n {
                ctx.fault_tick()?;
            }
            Ok(n)
        });
        match r {
            Err(ExecError::RecoveryExhausted { attempts, last }) => {
                assert_eq!(attempts, 2, "one victim per attempt, two nodes");
                assert!(matches!(*last, ExecError::InjectedCrash { .. }));
            }
            other => panic!("expected RecoveryExhausted, got {:?}", other.err()),
        }
    }

    #[test]
    fn recovery_respects_the_attempt_bound() {
        let plan = adaptagg_net::FaultPlan::new(1)
            .with_crash(0, 1)
            .with_crash(1, 1)
            .with_crash(2, 1)
            .with_crash(3, 1);
        let config = ClusterConfig::new(4, CostParams::paper_default())
            .with_fault_plan(plan)
            .with_recovery(RecoveryPolicy::default().with_max_attempts(2))
            .with_watchdog(Duration::from_secs(10));
        let r = run_cluster(&config, partitions(4, 10), |ctx| {
            let n = ctx.disk.get("base")?.tuple_count();
            for _ in 0..n {
                ctx.fault_tick()?;
            }
            Ok(n)
        });
        match r {
            Err(ExecError::RecoveryExhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected RecoveryExhausted, got {:?}", other.err()),
        }
    }

    #[test]
    fn non_recoverable_failures_bail_without_retry() {
        // A protocol bug is not a node fault; retrying cannot help and
        // must not burn attempts.
        let config = ClusterConfig::new(2, CostParams::paper_default())
            .with_recovery(RecoveryPolicy::default())
            .with_watchdog(Duration::from_secs(10));
        let r = run_cluster(&config, partitions(2, 0), |ctx| {
            if ctx.id() == 1 {
                return Err(ExecError::Protocol("logic bug"));
            }
            ctx.recv()?;
            Ok(())
        });
        assert_eq!(r.err(), Some(ExecError::Protocol("logic bug")));
    }

    #[test]
    fn clean_run_with_recovery_reports_one_attempt() {
        // The same loop runs both: a policy adds a summary to the trace,
        // no policy leaves every recovery figure at its default.
        for policy in [Some(RecoveryPolicy::default()), None] {
            let mut config = ClusterConfig::new(2, CostParams::paper_default()).with_tracing();
            config.recovery = policy.clone();
            let run = run_cluster(&config, partitions(2, 5), |ctx| {
                Ok(ctx.disk.get("base")?.tuple_count())
            })
            .unwrap();
            assert_eq!(run.run.recovery, RecoveryStats::default());
            assert_eq!(run.outputs, vec![5, 5]);
            let trace = run.trace.expect("a traced run");
            assert!(trace.recovery.is_empty(), "no failed attempt");
            assert_eq!(trace.recovery_summary.is_some(), policy.is_some(), "{policy:?}");
            if policy.is_none() {
                assert!(run.run.per_node.iter().all(|r| r.recovery == NodeRecoveryStats::default()));
            }
        }
    }
}
