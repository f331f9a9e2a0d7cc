//! # adaptagg-exec
//!
//! The Gamma-style execution substrate (§2: "we assume a Gamma-like
//! architecture where each relational operation is represented by
//! operators"): a thread-per-node simulated shared-nothing cluster with
//! **virtual-time** accounting.
//!
//! * [`Clock`] — each node's virtual clock, advanced by
//!   [`adaptagg_model::CostEvent`]s (it implements `CostTracker`), by
//!   network transfer completions, and by Lamport observation of incoming
//!   message timestamps. A run's elapsed virtual time is the max over all
//!   node clocks — the metric of every figure in the paper.
//! * [`NodeCtx`] — what an algorithm sees on one node: its id, clock,
//!   private [`adaptagg_storage::SimDisk`], and fabric endpoint. All
//!   sends/receives go through it so protocol CPU (`m_p`) and transfer
//!   time (`m_l` / bus) are charged consistently on both sides.
//! * [`operators`] — the page-at-a-time scan (select + project, as
//!   borrowed column-strip batches or row by row) and store, charging the
//!   paper's select and result-I/O costs.
//! * [`Exchange`] — the hash-partitioning exchange operator with 2 KB
//!   message blocking and end-of-stream bookkeeping.
//! * [`run_cluster`] — spawn N node threads, run one closure per node,
//!   collect per-node outputs and timing reports.
//!
//! The algorithms themselves live in `adaptagg-algos`; nothing here knows
//! which of the paper's six strategies is executing.

pub mod clock;
pub mod cluster;
pub mod error;
pub mod exchange;
pub mod node;
pub mod operators;
pub mod recovery;
pub mod runstats;

pub use clock::{Clock, TimeBreakdown};
pub use cluster::{
    run_cluster, ClusterConfig, ClusterRun, WATCHDOG_MS_PER_NODE, WATCHDOG_US_PER_PAGE,
};
pub use error::ExecError;
pub use exchange::{send_sealed, Exchange};
pub use node::{NodeCtx, DEFAULT_WATCHDOG};
pub use operators::{PageScan, ScanCharge, ScanSink, ScanTally};
pub use recovery::{new_store, CheckpointStore, RecoveryPolicy, RecoverySession, Segment};
pub use runstats::{NodeRecoveryStats, NodeReport, RecoveryStats, RunResult};

/// Re-export: fault plans are configured on [`ClusterConfig`].
pub use adaptagg_net::{FaultPlan, LinkFaults, NodeFaults};

/// Re-export: the observability layer's types, so algorithms and tools
/// consume the trace API through the execution substrate (`NodeCtx`
/// carries the per-node trace handle; [`ClusterRun`] carries the run
/// trace).
pub use adaptagg_obs::{
    Histogram, LinkTrace, MetricSet, NodeTrace, NodeTraceReport, PhaseKind, PhaseTotal,
    RecoveryAttemptTrace, RunTrace, SpanRecord, SwitchCause, TraceEvent,
};
