//! Admission control and the multi-query scheduler: a bounded queue,
//! a fixed-size executor pool, and the per-node memory broker, glued
//! into one serving loop over a shared dataset.
//!
//! The contract is honest load-shedding. Every submitted query either
//! *completes exactly* (rows bit-identical to what it would produce
//! alone — resident groups are never evicted, shrunken grants degrade
//! into strategy switches or spills), or is *rejected with a typed
//! reason* the client can act on:
//!
//! - `queue_full` — the bounded admission queue is at capacity;
//! - `deadline_unmeetable` — the query's deadline lapsed before it
//!   reached an executor (queue wait counts against the deadline);
//! - `memory_exhausted` — admitting it would shrink some node's
//!   fair share below the configured floor.
//!
//! Failure isolation falls out of the execution model: each query runs
//! its own virtual cluster over the shared (immutable) partitions, so
//! one query's injected node crash engages *its* recovery policy and
//! cannot touch a co-resident query.

use crate::broker::{BrokerConfig, MemoryBroker};
use adaptagg_algos::{run_algorithm, AlgorithmKind};
use adaptagg_exec::{ClusterConfig, FaultPlan, RecoveryPolicy};
use adaptagg_model::{CostParams, DataType, Field, ResultRow, Schema};
use adaptagg_sql::compile;
use adaptagg_storage::HeapFile;
use adaptagg_workload::{generate_partitions, RelationSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The shared relation every query in the serving session reads: the
/// partitions are generated once and never mutated, so concurrent
/// queries share them by reference.
#[derive(Debug)]
pub struct Dataset {
    /// Schema the SQL front-end binds against.
    pub schema: Schema,
    /// One base partition per node.
    pub partitions: Vec<HeapFile>,
}

impl Dataset {
    /// The study's uniform workload (`g INT, v INT, pad STR`).
    pub fn uniform(nodes: usize, tuples: usize, groups: usize, seed: u64) -> Self {
        let spec = RelationSpec::uniform(tuples, groups).with_seed(seed);
        Dataset {
            schema: Schema::new(vec![
                Field::new("g", DataType::Int),
                Field::new("v", DataType::Int),
                Field::new("pad", DataType::Str),
            ]),
            partitions: generate_partitions(&spec, nodes),
        }
    }

    /// Cluster size (= partition count).
    pub fn nodes(&self) -> usize {
        self.partitions.len()
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded admission-queue capacity; submissions past it are shed
    /// with `queue_full`.
    pub queue_capacity: usize,
    /// Executor pool size — queries running concurrently.
    pub concurrency: usize,
    /// Per-node hash-table budget `M` (entries) the broker divides.
    pub memory_budget: usize,
    /// Smallest per-query share worth admitting at (see
    /// [`BrokerConfig::min_grant`]).
    pub min_grant: usize,
    /// Deadline applied to queries that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Base cost parameters (`max_hash_entries` is overridden by
    /// `memory_budget`).
    pub params: CostParams,
    /// Run every query with tracing on, so degraded queries are
    /// attributable from the trace alone.
    pub trace: bool,
    /// Accepted and ignored: every node runs one execution lane. Exists
    /// for `benchmark/`, which assigns it; delete with the next
    /// `benchmark` PR.
    pub threads: usize,
}

impl ServeConfig {
    /// Defaults sized for an interactive serving session.
    pub fn new(memory_budget: usize) -> Self {
        ServeConfig {
            queue_capacity: 32,
            concurrency: 4,
            memory_budget,
            min_grant: (memory_budget / 8).max(1),
            default_deadline: None,
            params: CostParams::paper_default(),
            trace: true,
            threads: 0,
        }
    }
}

/// Why a query was shed instead of run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue was at capacity.
    QueueFull,
    /// The deadline lapsed before an executor picked the query up (or
    /// was zero at submission).
    DeadlineUnmeetable,
    /// The memory broker could not carve out `min_grant` entries per
    /// node without starving the queries already running.
    MemoryExhausted,
}

impl RejectReason {
    /// Stable wire label (`adaptagg-serve/v1`).
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineUnmeetable => "deadline_unmeetable",
            RejectReason::MemoryExhausted => "memory_exhausted",
        }
    }
}

/// A typed rejection: the reason plus a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRejected {
    /// The machine-actionable reason.
    pub reason: RejectReason,
    /// Context (queue depth, wait time, broker state).
    pub detail: String,
}

impl std::fmt::Display for QueryRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.reason.label(), self.detail)
    }
}

/// One query as submitted to the scheduler.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// SQL over the dataset's schema.
    pub sql: String,
    /// End-to-end deadline, measured from submission (queue wait
    /// counts). `None` falls back to the config default.
    pub deadline: Option<Duration>,
    /// Strategy override; `None` runs Adaptive Two Phase, the paper's
    /// recommendation when the group count is unknown — which is
    /// exactly the serving situation.
    pub algo: Option<AlgorithmKind>,
    /// Inject a seeded random fault schedule into this query's cluster.
    pub fault_seed: Option<u64>,
    /// Crash this node halfway through its scan (this query only).
    pub crash_node: Option<usize>,
    /// Recover from injected faults instead of failing fast.
    pub recovery: bool,
    /// Test/bench hook: hold the memory grant this long before
    /// executing — widens the concurrency window so overload behaviour
    /// is deterministic in tests and the load generator.
    pub stall: Option<Duration>,
}

impl QueryRequest {
    /// A plain query with no deadline, faults, or stall.
    pub fn new(sql: impl Into<String>) -> Self {
        QueryRequest {
            sql: sql.into(),
            deadline: None,
            algo: None,
            fault_seed: None,
            crash_node: None,
            recovery: false,
            stall: None,
        }
    }
}

/// A completed query's payload.
#[derive(Debug)]
pub struct QuerySuccess {
    /// Result rows, globally sorted by group key.
    pub rows: Vec<ResultRow>,
    /// Output column names from the SQL binder.
    pub output_names: Vec<String>,
    /// Virtual elapsed milliseconds (slowest node).
    pub virtual_ms: f64,
    /// Nodes that switched strategy mid-run.
    pub adapted_nodes: Vec<usize>,
    /// Total adaptation events across nodes.
    pub switch_events: u64,
    /// The query ran under a grant below the full budget.
    pub degraded: bool,
    /// Cluster executions, including the successful one (1 = clean).
    pub recovery_attempts: u32,
    /// Nodes declared dead and recovered from.
    pub dead_nodes: Vec<usize>,
    /// The query completed, but after its deadline.
    pub deadline_missed: bool,
    /// The `adaptagg-trace/v1` document, when tracing is on.
    pub trace_json: Option<String>,
}

/// How a query ended.
#[derive(Debug)]
pub enum QueryOutcome {
    /// Ran to completion; rows are exact.
    Complete(Box<QuerySuccess>),
    /// Shed before execution, with a typed reason.
    Rejected(QueryRejected),
    /// Ran and failed; `exit_code` follows the CLI contract (2 =
    /// recovery honestly exhausted, 1 = everything else).
    Failed { error: String, exit_code: i32 },
}

/// The full per-query report the scheduler replies with.
#[derive(Debug)]
pub struct QueryReport {
    /// Scheduler-assigned query id (monotonic per session).
    pub id: u64,
    /// Wall-clock time spent queued before an executor picked it up.
    pub queue_wait_ms: f64,
    /// Wall-clock submission → reply.
    pub total_ms: f64,
    /// Per-node entries granted at admission (`None` if never
    /// admitted). May shrink later if more queries are admitted.
    pub grant_entries: Option<usize>,
    /// Queries already running when this one was admitted.
    pub active_at_admit: usize,
    /// What happened.
    pub outcome: QueryOutcome,
}

impl QueryReport {
    /// Convenience: the success payload, if any.
    pub fn success(&self) -> Option<&QuerySuccess> {
        match &self.outcome {
            QueryOutcome::Complete(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience: the rejection, if any.
    pub fn rejected(&self) -> Option<&QueryRejected> {
        match &self.outcome {
            QueryOutcome::Rejected(r) => Some(r),
            _ => None,
        }
    }
}

/// Serving-session counters, all monotonic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Queries offered to `submit`.
    pub submitted: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries that ran and failed.
    pub failed: u64,
    /// Shed: queue at capacity.
    pub rejected_queue_full: u64,
    /// Shed: deadline lapsed in the queue (or was zero).
    pub rejected_deadline: u64,
    /// Shed: broker floor would be undercut.
    pub rejected_memory: u64,
    /// Admissions granted less than the full budget.
    pub degraded_admissions: u64,
    /// Completed queries that needed fault recovery.
    pub recovered_queries: u64,
    /// Completed queries that overran their deadline.
    pub deadlines_missed: u64,
}

/// A handle on one submitted query.
#[derive(Debug)]
pub struct Ticket {
    /// The assigned query id.
    pub id: u64,
    rx: mpsc::Receiver<QueryReport>,
}

impl Ticket {
    /// Block until the query's report arrives.
    pub fn wait(self) -> QueryReport {
        self.rx.recv().expect("scheduler replies before shutdown")
    }
}

struct Pending {
    id: u64,
    req: QueryRequest,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<QueryReport>,
}

struct Queue {
    q: VecDeque<Pending>,
    closed: bool,
}

struct Inner {
    cfg: ServeConfig,
    data: Arc<Dataset>,
    queue: Mutex<Queue>,
    available: Condvar,
    broker: Mutex<MemoryBroker>,
    metrics: Mutex<ServeMetrics>,
    next_id: AtomicU64,
}

/// The multi-query scheduler. Create with [`Scheduler::new`], submit
/// with [`Scheduler::submit`] (or the blocking [`Scheduler::run`]),
/// stop with [`Scheduler::shutdown`] — queued queries drain first.
pub struct Scheduler {
    inner: Arc<Inner>,
    executors: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Spin up the executor pool over a shared dataset.
    pub fn new(cfg: ServeConfig, data: Arc<Dataset>) -> Self {
        assert!(!data.partitions.is_empty(), "dataset has at least one partition");
        let broker = MemoryBroker::new(
            data.nodes(),
            BrokerConfig::new(cfg.memory_budget, cfg.min_grant),
        );
        let concurrency = cfg.concurrency;
        let inner = Arc::new(Inner {
            cfg,
            data,
            queue: Mutex::new(Queue {
                q: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            broker: Mutex::new(broker),
            metrics: Mutex::new(ServeMetrics::default()),
            next_id: AtomicU64::new(1),
        });
        let executors = (0..concurrency)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || executor_loop(inner))
                    .expect("spawn executor")
            })
            .collect();
        Scheduler {
            inner,
            executors: Mutex::new(executors),
        }
    }

    /// Non-blocking admission. `Err` is the immediate-rejection report
    /// (queue full, zero deadline, or shutdown in progress).
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, QueryReport> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let submitted = Instant::now();
        self.inner.metrics.lock().unwrap().submitted += 1;

        let rel_deadline = req.deadline.or(self.inner.cfg.default_deadline);
        if rel_deadline.is_some_and(|d| d.is_zero()) {
            return Err(self.inner.reject_report(
                id,
                submitted,
                RejectReason::DeadlineUnmeetable,
                "a zero deadline cannot cover any execution".into(),
            ));
        }
        let deadline = rel_deadline.map(|d| submitted + d);

        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.inner.queue.lock().unwrap();
            if q.closed {
                return Err(self.inner.reject_report(
                    id,
                    submitted,
                    RejectReason::QueueFull,
                    "server is shutting down".into(),
                ));
            }
            if q.q.len() >= self.inner.cfg.queue_capacity {
                let detail = format!(
                    "admission queue at capacity ({} queued)",
                    q.q.len()
                );
                return Err(self.inner.reject_report(
                    id,
                    submitted,
                    RejectReason::QueueFull,
                    detail,
                ));
            }
            q.q.push_back(Pending {
                id,
                req,
                submitted,
                deadline,
                reply: tx,
            });
        }
        self.inner.available.notify_one();
        Ok(Ticket { id, rx })
    }

    /// Submit and block for the report. Immediate rejections come back
    /// as a report too, so callers handle one shape.
    pub fn run(&self, req: QueryRequest) -> QueryReport {
        match self.submit(req) {
            Ok(ticket) => ticket.wait(),
            Err(report) => report,
        }
    }

    /// Snapshot the session counters.
    pub fn metrics(&self) -> ServeMetrics {
        self.inner.metrics.lock().unwrap().clone()
    }

    /// Queries currently holding memory grants.
    pub fn active_queries(&self) -> usize {
        self.inner.broker.lock().unwrap().active()
    }

    /// The dataset this session serves.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.inner.data
    }

    /// Close admission, drain the queue, and join the executors.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.closed = true;
        }
        self.inner.available.notify_all();
        let handles: Vec<_> = self.executors.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Build (and count) a rejection report.
    fn reject_report(
        &self,
        id: u64,
        submitted: Instant,
        reason: RejectReason,
        detail: String,
    ) -> QueryReport {
        {
            let mut m = self.metrics.lock().unwrap();
            match reason {
                RejectReason::QueueFull => m.rejected_queue_full += 1,
                RejectReason::DeadlineUnmeetable => m.rejected_deadline += 1,
                RejectReason::MemoryExhausted => m.rejected_memory += 1,
            }
        }
        QueryReport {
            id,
            queue_wait_ms: 0.0,
            total_ms: submitted.elapsed().as_secs_f64() * 1e3,
            grant_entries: None,
            active_at_admit: 0,
            outcome: QueryOutcome::Rejected(QueryRejected {
                reason,
                detail,
            }),
        }
    }

    /// Build this query's fault plan (same shape as the CLI's).
    fn fault_plan(&self, req: &QueryRequest) -> Option<FaultPlan> {
        let nodes = self.data.nodes();
        let mut plan = match req.fault_seed {
            Some(seed) => FaultPlan::random(seed, nodes),
            None => {
                req.crash_node?;
                FaultPlan::none()
            }
        };
        if let Some(node) = req.crash_node {
            let at = self
                .data
                .partitions
                .get(node)
                .map(|p| p.tuple_count() / 2)
                .unwrap_or(0)
                .max(1);
            plan = plan.with_crash(node, at as u64);
        }
        Some(plan)
    }

    /// Run one admitted query end to end.
    fn execute(&self, p: Pending) {
        let queue_wait = p.submitted.elapsed();

        // End-to-end deadline: the wait above already counts.
        if p.deadline.is_some_and(|dl| Instant::now() >= dl) {
            let detail = format!(
                "deadline lapsed after {:.1} ms in the admission queue",
                queue_wait.as_secs_f64() * 1e3
            );
            let report =
                self.reject_report(p.id, p.submitted, RejectReason::DeadlineUnmeetable, detail);
            let _ = p.reply.send(QueryReport {
                queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
                ..report
            });
            return;
        }

        // Memory admission: all nodes or none.
        let (grants, active_at_admit) = {
            let mut broker = self.broker.lock().unwrap();
            let active = broker.active();
            match broker.try_admit(p.id) {
                Ok(g) => (g, active),
                Err(denied) => {
                    let report = self.reject_report(
                        p.id,
                        p.submitted,
                        RejectReason::MemoryExhausted,
                        denied.to_string(),
                    );
                    let _ = p.reply.send(QueryReport {
                        queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
                        ..report
                    });
                    return;
                }
            }
        };
        let grant_entries = grants[0].current();
        let degraded = grant_entries < self.cfg.memory_budget;
        if degraded {
            self.metrics.lock().unwrap().degraded_admissions += 1;
        }

        if let Some(stall) = p.req.stall {
            std::thread::sleep(stall);
        }

        // Queue/broker numbers for the query's trace document, so a
        // degraded run is attributable from the trace alone.
        let annotations = vec![
            ("serve.grant_entries".to_string(), grant_entries as f64),
            (
                "serve.memory_budget".to_string(),
                self.cfg.memory_budget as f64,
            ),
            (
                "serve.queue_wait_ms".to_string(),
                queue_wait.as_secs_f64() * 1e3,
            ),
            (
                "serve.active_at_admit".to_string(),
                active_at_admit as f64,
            ),
        ];
        let mut outcome = self.run_query(&p.req, grants, p.deadline, annotations);
        if let QueryOutcome::Complete(s) = &mut outcome {
            s.degraded = degraded;
        }
        self.broker.lock().unwrap().finish(p.id);

        {
            let mut m = self.metrics.lock().unwrap();
            match &outcome {
                QueryOutcome::Complete(s) => {
                    m.completed += 1;
                    if s.recovery_attempts > 1 {
                        m.recovered_queries += 1;
                    }
                    if s.deadline_missed {
                        m.deadlines_missed += 1;
                    }
                }
                QueryOutcome::Failed { .. } => m.failed += 1,
                QueryOutcome::Rejected(_) => unreachable!("rejections return early"),
            }
        }

        let _ = p.reply.send(QueryReport {
            id: p.id,
            queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
            total_ms: p.submitted.elapsed().as_secs_f64() * 1e3,
            grant_entries: Some(grant_entries),
            active_at_admit,
            outcome,
        });
    }

    /// Compile and execute under the granted memory.
    fn run_query(
        &self,
        req: &QueryRequest,
        grants: Vec<adaptagg_model::MemoryGrant>,
        deadline: Option<Instant>,
        annotations: Vec<(String, f64)>,
    ) -> QueryOutcome {
        let bound = match compile(&req.sql, &self.data.schema) {
            Ok(b) => b,
            Err(e) => {
                return QueryOutcome::Failed {
                    error: e.to_string(),
                    exit_code: 1,
                }
            }
        };
        let params = CostParams {
            max_hash_entries: self.cfg.memory_budget,
            ..self.cfg.params.clone()
        };
        let mut cluster = ClusterConfig::new(self.data.nodes(), params).with_grants(grants);
        if let Some(plan) = self.fault_plan(req) {
            cluster = cluster.with_fault_plan(plan);
        }
        if req.recovery {
            cluster = cluster.with_recovery(RecoveryPolicy::default());
        }
        if self.cfg.trace {
            cluster = cluster.with_tracing();
        }
        let kind = req.algo.unwrap_or(AlgorithmKind::AdaptiveTwoPhase);

        match run_algorithm(kind, &cluster, &self.data.partitions, &bound.query) {
            Ok(mut out) => {
                if let Some(trace) = &mut out.trace {
                    trace.annotations.extend(annotations);
                }
                let adapted_nodes = out.adapted_nodes();
                let switch_events: u64 =
                    out.nodes.iter().map(|n| n.events.len() as u64).sum();
                let rec = &out.run.recovery;
                QueryOutcome::Complete(Box::new(QuerySuccess {
                    output_names: bound.output_names,
                    virtual_ms: out.elapsed_ms(),
                    adapted_nodes,
                    switch_events,
                    degraded: false, // caller flags it from the grant
                    recovery_attempts: rec.attempts,
                    dead_nodes: rec.dead_nodes.clone(),
                    deadline_missed: deadline.is_some_and(|dl| Instant::now() > dl),
                    trace_json: out.trace.as_ref().map(|t| t.to_json()),
                    rows: out.rows,
                }))
            }
            Err(e) => QueryOutcome::Failed {
                exit_code: e.exit_code(),
                error: e.to_string(),
            },
        }
    }
}

fn executor_loop(inner: Arc<Inner>) {
    loop {
        let pending = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(p) = q.q.pop_front() {
                    break p;
                }
                if q.closed {
                    return;
                }
                q = inner.available.wait(q).unwrap();
            }
        };
        inner.execute(pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_algos::reference_aggregate;
    use adaptagg_sql::compile;

    const SQL: &str = "SELECT g, SUM(v), COUNT(*) FROM r GROUP BY g";

    fn dataset() -> Arc<Dataset> {
        Arc::new(Dataset::uniform(4, 12_000, 600, 7))
    }

    fn reference(data: &Dataset) -> Vec<ResultRow> {
        let bound = compile(SQL, &data.schema).unwrap();
        reference_aggregate(&data.partitions, &bound.query).unwrap()
    }

    #[test]
    fn lone_query_gets_the_full_budget_and_exact_rows() {
        let data = dataset();
        let sched = Scheduler::new(ServeConfig::new(10_000), Arc::clone(&data));
        let report = sched.run(QueryRequest::new(SQL));
        let s = report.success().expect("completes");
        assert_eq!(report.grant_entries, Some(10_000));
        assert_eq!(report.active_at_admit, 0);
        assert_eq!(s.rows, reference(&data));
        assert!(s.adapted_nodes.is_empty(), "full budget: no switch");
        let m = sched.metrics();
        assert_eq!((m.submitted, m.completed), (1, 1));
    }

    #[test]
    fn queue_full_sheds_honestly() {
        let data = dataset();
        let mut cfg = ServeConfig::new(10_000);
        cfg.concurrency = 0; // no executors: the queue only fills
        cfg.queue_capacity = 2;
        let sched = Scheduler::new(cfg, data);
        let _t1 = sched.submit(QueryRequest::new(SQL)).unwrap();
        let _t2 = sched.submit(QueryRequest::new(SQL)).unwrap();
        let r = sched.submit(QueryRequest::new(SQL)).unwrap_err();
        let rej = r.rejected().expect("typed rejection");
        assert_eq!(rej.reason, RejectReason::QueueFull);
        assert_eq!(sched.metrics().rejected_queue_full, 1);
    }

    #[test]
    fn deadline_counts_queue_wait() {
        let data = dataset();
        let mut cfg = ServeConfig::new(10_000);
        cfg.concurrency = 1;
        let sched = Scheduler::new(cfg, data);
        // Head-of-line query holds the lone executor well past 1 ms…
        let mut slow = QueryRequest::new(SQL);
        slow.stall = Some(Duration::from_millis(50));
        let t1 = sched.submit(slow).unwrap();
        // …so the 1 ms-deadline query behind it lapses while queued.
        let mut tight = QueryRequest::new(SQL);
        tight.deadline = Some(Duration::from_millis(1));
        let t2 = sched.submit(tight).unwrap();
        assert!(t1.wait().success().is_some());
        let r2 = t2.wait();
        let rej = r2.rejected().expect("deadline rejection");
        assert_eq!(rej.reason, RejectReason::DeadlineUnmeetable);
        assert!(r2.queue_wait_ms >= 1.0, "wait {} ms", r2.queue_wait_ms);
        // And a zero deadline is refused at the door.
        let mut zero = QueryRequest::new(SQL);
        zero.deadline = Some(Duration::ZERO);
        let r = sched.submit(zero).unwrap_err();
        assert_eq!(
            r.rejected().unwrap().reason,
            RejectReason::DeadlineUnmeetable
        );
        assert_eq!(sched.metrics().rejected_deadline, 2);
    }

    #[test]
    fn memory_floor_sheds_the_overload_query() {
        let data = dataset();
        let mut cfg = ServeConfig::new(10_000);
        cfg.concurrency = 3;
        cfg.min_grant = 4_000; // at most 2 concurrent queries
        let sched = Scheduler::new(cfg, data);
        let mut held = QueryRequest::new(SQL);
        held.stall = Some(Duration::from_millis(150));
        let t1 = sched.submit(held.clone()).unwrap();
        let t2 = sched.submit(held).unwrap();
        // Give both stalled queries time to take their grants.
        std::thread::sleep(Duration::from_millis(50));
        let r3 = sched.run(QueryRequest::new(SQL));
        let rej = r3.rejected().expect("third query is shed");
        assert_eq!(rej.reason, RejectReason::MemoryExhausted);
        assert!(t1.wait().success().is_some());
        assert!(t2.wait().success().is_some());
        assert_eq!(sched.metrics().rejected_memory, 1);
        // With the session idle again, the same query is admitted.
        assert!(sched.run(QueryRequest::new(SQL)).success().is_some());
    }

    #[test]
    fn degraded_grant_switches_strategy_but_rows_stay_exact() {
        // Budget 800 holds this workload's ~600 groups per node when
        // alone; halved to 400 under concurrency it cannot, so the
        // second query must switch to repartitioning mid-scan — and
        // still match the serial oracle bit for bit.
        let data = dataset();
        let reference = reference(&data);
        let mut cfg = ServeConfig::new(800);
        cfg.concurrency = 2;
        cfg.min_grant = 100;
        let sched = Scheduler::new(cfg, Arc::clone(&data));
        let mut held = QueryRequest::new(SQL);
        held.stall = Some(Duration::from_millis(150));
        let t1 = sched.submit(held).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let r2 = sched.run(QueryRequest::new(SQL));
        let s2 = r2.success().expect("degraded query completes");
        assert_eq!(r2.grant_entries, Some(400), "half the budget");
        assert!(
            !s2.adapted_nodes.is_empty() && s2.switch_events > 0,
            "a 400-entry grant over ~600 groups must switch"
        );
        assert_eq!(s2.rows, reference, "degraded rows stay exact");
        let trace = s2.trace_json.as_ref().expect("tracing on by default");
        assert!(trace.contains("switch"), "switch visible in the trace");
        let r1 = t1.wait();
        let s1 = r1.success().expect("stalled query completes");
        assert_eq!(s1.rows, reference);
        assert_eq!(sched.metrics().degraded_admissions, 1);
    }

    #[test]
    fn one_query_crash_recovers_without_touching_its_neighbour() {
        let data = dataset();
        let reference = reference(&data);
        let mut cfg = ServeConfig::new(10_000);
        cfg.concurrency = 2;
        let sched = Scheduler::new(cfg, Arc::clone(&data));
        let mut crashing = QueryRequest::new(SQL);
        crashing.crash_node = Some(2);
        crashing.recovery = true;
        let t1 = sched.submit(crashing).unwrap();
        let r2 = sched.run(QueryRequest::new(SQL));
        let r1 = t1.wait();
        let s1 = r1.success().expect("crashed query recovers");
        assert!(s1.recovery_attempts > 1, "recovery engaged");
        assert_eq!(s1.dead_nodes, vec![2]);
        assert_eq!(s1.rows, reference, "recovered rows stay exact");
        let s2 = r2.success().expect("co-resident query unaffected");
        assert_eq!(s2.recovery_attempts, 1);
        assert!(s2.dead_nodes.is_empty());
        assert_eq!(s2.rows, reference);
        assert_eq!(sched.metrics().recovered_queries, 1);
    }

    #[test]
    fn crash_without_recovery_fails_only_its_own_query() {
        let data = dataset();
        let mut cfg = ServeConfig::new(10_000);
        cfg.concurrency = 2;
        let sched = Scheduler::new(cfg, Arc::clone(&data));
        let mut crashing = QueryRequest::new(SQL);
        crashing.crash_node = Some(1);
        let t1 = sched.submit(crashing).unwrap();
        let r2 = sched.run(QueryRequest::new(SQL));
        assert!(r2.success().is_some(), "neighbour completes");
        match t1.wait().outcome {
            QueryOutcome::Failed { error, exit_code } => {
                assert!(error.contains("crash"), "unexpected error: {error}");
                assert_eq!(exit_code, 1, "fail-stop crash is an ordinary failure");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        let m = sched.metrics();
        assert_eq!((m.completed, m.failed), (1, 1));
    }

    #[test]
    fn bad_sql_is_a_clean_failure() {
        let sched = Scheduler::new(ServeConfig::new(10_000), dataset());
        let r = sched.run(QueryRequest::new("SELECT nope FROM r GROUP BY nope"));
        match r.outcome {
            QueryOutcome::Failed { error, exit_code } => {
                assert!(error.contains("nope"));
                assert_eq!(exit_code, 1);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_drains_queued_queries() {
        let data = dataset();
        let mut cfg = ServeConfig::new(10_000);
        cfg.concurrency = 1;
        let sched = Scheduler::new(cfg, data);
        let tickets: Vec<_> = (0..3)
            .map(|_| sched.submit(QueryRequest::new(SQL)).unwrap())
            .collect();
        sched.shutdown();
        for t in tickets {
            assert!(t.wait().success().is_some(), "drained before shutdown");
        }
        // Post-shutdown submissions are refused.
        let r = sched.submit(QueryRequest::new(SQL)).unwrap_err();
        assert_eq!(r.rejected().unwrap().reason, RejectReason::QueueFull);
    }
}
