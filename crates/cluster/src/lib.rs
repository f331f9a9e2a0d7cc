//! Networked cluster mode: run one aggregation query across real
//! processes over the TCP transport, with coordinator-driven recovery.
//!
//! The simulated fabric (`adaptagg-net`'s in-process backend) answers
//! the paper's *performance* questions; this crate answers the
//! *robustness* one: does the same partial-aggregate protocol survive a
//! `kill -9`'d worker on a real wire? One process runs
//! `adaptagg-coordinator` (node 0, owns no data), the rest run
//! `adaptagg-worker` (node `1..n`, one base partition each). Every
//! process regenerates the workload deterministically from the shared
//! `(tuples, groups, seed)` spec, so no data files cross the wire —
//! only partial aggregates, exactly like C2P's phase 2.
//!
//! Recovery is attempt-structured, by the in-process runtime's own loop
//! ([`adaptagg_exec::recovery::run_attempts`]): the coordinator broadcasts
//! [`proto::JobMsg::Start`] with the current partition→worker ownership
//! map, workers ack and run C2P's node body (ship their partials to node
//! 0), and on a dead or stalled worker the loop reassigns the victim's
//! partitions fewest-loaded-first and starts the next attempt. The
//! per-link FIFO order the reliability layer enforces makes the ack a
//! barrier: anything a worker sent before its ack for the current attempt
//! belongs to a stale attempt and is discarded.

pub mod binargs;
pub mod coordinator;
pub mod proto;
pub mod spec;
pub mod worker;

pub use binargs::BinArgs;
pub use coordinator::{
    run_coordinated_query, run_coordinator, CoordinatorOpts, CoordinatorReport, CoordinatorState,
};
pub use proto::JobMsg;
pub use spec::ClusterSpec;
pub use worker::{run_worker, WorkerOpts, WorkerReport};

use adaptagg_exec::ExecError;
use adaptagg_net::{
    Endpoint, FaultPlan, NetError, Network, NetworkKind, TcpConfig, TcpTransport,
};
use std::net::{SocketAddr, TcpListener};

/// Progress callback: binaries wire it to stderr, tests to a sink.
pub type Progress<'a> = &'a mut dyn FnMut(&str);

/// Everything that can go wrong in cluster mode, with the shared
/// exit-code contract attached (see [`ClusterError::exit_code`]).
#[derive(Debug)]
pub enum ClusterError {
    /// A transport or reliability-layer failure.
    Net(NetError),
    /// An execution failure inside an attempt.
    Exec(ExecError),
    /// A peer violated the job protocol.
    Protocol(&'static str),
    /// A peer aborted the query and told us why.
    Aborted { origin: usize, reason: String },
    /// Every recovery attempt was spent (or no workers remain).
    RecoveryExhausted {
        attempts: usize,
        dead_workers: Vec<usize>,
    },
    /// A setup failure (bind, argument parsing).
    Setup(String),
}

impl ClusterError {
    /// The process exit code this error maps to — the same contract as
    /// `adaptagg-cli`: `2` for honest recovery exhaustion, `1` for
    /// everything else (`0` is success and never reaches an error).
    pub fn exit_code(&self) -> i32 {
        match self {
            ClusterError::RecoveryExhausted { .. } => 2,
            ClusterError::Exec(e) => e.exit_code(),
            _ => 1,
        }
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Net(e) => write!(f, "network: {e}"),
            ClusterError::Exec(e) => write!(f, "execution: {e}"),
            ClusterError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClusterError::Aborted { origin, reason } => {
                write!(f, "aborted by node {origin}: {reason}")
            }
            ClusterError::RecoveryExhausted {
                attempts,
                dead_workers,
            } => write!(
                f,
                "recovery exhausted after {attempts} attempt(s); dead workers: {dead_workers:?}"
            ),
            ClusterError::Setup(e) => write!(f, "setup: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

impl From<ExecError> for ClusterError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::Net(e) => ClusterError::Net(e),
            e => ClusterError::Exec(e),
        }
    }
}

/// Bind this node's listen address and join the mesh, returning a fully
/// reliable endpoint (sequencing, dedup, Lamport accounting) over the
/// TCP wire. `cluster[i]` is node `i`'s address; `cluster[node]` is
/// ours. The network model is the zero-parameter high-speed default —
/// cluster mode measures wall-clock behaviour, not simulated cost.
pub fn establish_endpoint(
    node: usize,
    cluster: &[SocketAddr],
    cfg: TcpConfig,
) -> Result<Endpoint, ClusterError> {
    let listener = TcpListener::bind(cluster[node])
        .map_err(|e| ClusterError::Setup(format!("bind {}: {e}", cluster[node])))?;
    let transport = TcpTransport::establish(node, cluster.len(), listener, cluster.to_vec(), cfg)?;
    Ok(Endpoint::over(
        Box::new(transport),
        Network::new(NetworkKind::high_speed_default()),
        &FaultPlan::none(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustion_inside_an_execution_error_exits_2() {
        let exhausted = ExecError::RecoveryExhausted {
            attempts: 3,
            last: Box::new(ExecError::Protocol("boom")),
        };
        assert_eq!(ClusterError::Exec(exhausted).exit_code(), 2);
        assert_eq!(ClusterError::Exec(ExecError::Protocol("boom")).exit_code(), 1);
    }
}
