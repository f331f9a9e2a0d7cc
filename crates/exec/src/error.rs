//! Execution errors.

use adaptagg_model::ModelError;
use adaptagg_net::NetError;
use adaptagg_storage::StorageError;
use std::fmt;

/// Errors from running an algorithm on the cluster.
///
/// Failure attribution (see `run_cluster`) classifies these: *primary*
/// errors describe the originating failure ([`ExecError::Storage`],
/// [`ExecError::Model`], [`ExecError::Protocol`],
/// [`ExecError::InjectedCrash`], [`ExecError::NodePanic`]); *cascade*
/// errors are consequences of some other node failing first
/// ([`ExecError::Aborted`], [`ExecError::Net`]); [`ExecError::Watchdog`]
/// sits between (a hang whose cause was not otherwise observed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Storage layer failure (decode, missing file, oversized tuple).
    Storage(StorageError),
    /// Model layer failure (type mismatch, arity mismatch).
    Model(ModelError),
    /// A node thread panicked; the message is preserved.
    NodePanic {
        /// The node whose thread panicked.
        node: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// An algorithm violated the messaging protocol (e.g. unexpected
    /// message kind in a phase).
    Protocol(&'static str),
    /// Messaging-layer failure (peer down, all peers gone).
    Net(NetError),
    /// The fault plan killed this node after it scanned `at_tuple` tuples.
    InjectedCrash {
        /// The node the fault plan crashed.
        node: usize,
        /// The scheduled crash point, in tuples scanned.
        at_tuple: u64,
    },
    /// A peer failed first and told us to stop (graceful propagation of
    /// its failure — a cascade, not a cause).
    Aborted {
        /// The node where the failure originated.
        origin: usize,
        /// The originating error, rendered.
        reason: String,
    },
    /// The node's real-time receive watchdog fired: it waited longer than
    /// the configured deadline with no traffic — the backstop that turns
    /// would-be hangs into errors.
    Watchdog {
        /// The node whose receive timed out.
        node: usize,
        /// How long it waited, in real milliseconds.
        waited_ms: u64,
    },
    /// The recovery layer ran out of attempts (or survivors): every
    /// re-execution failed too. Wraps the last attempt's first-cause
    /// error.
    RecoveryExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The final attempt's first-cause error.
        last: Box<ExecError>,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage: {e}"),
            ExecError::Model(e) => write!(f, "model: {e}"),
            ExecError::NodePanic { node, message } => {
                write!(f, "node {node} panicked: {message}")
            }
            ExecError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ExecError::Net(e) => write!(f, "network: {e}"),
            ExecError::InjectedCrash { node, at_tuple } => {
                write!(f, "node {node} crashed (injected) after {at_tuple} tuples")
            }
            ExecError::Aborted { origin, reason } => {
                write!(f, "aborted by node {origin}: {reason}")
            }
            ExecError::Watchdog { node, waited_ms } => {
                write!(f, "node {node} watchdog fired after {waited_ms} ms without traffic")
            }
            ExecError::RecoveryExhausted { attempts, last } => {
                write!(f, "recovery exhausted after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            ExecError::Model(e) => Some(e),
            ExecError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<ModelError> for ExecError {
    fn from(e: ModelError) -> Self {
        ExecError::Model(e)
    }
}

impl From<NetError> for ExecError {
    fn from(e: NetError) -> Self {
        ExecError::Net(e)
    }
}

impl ExecError {
    /// The process exit code this failure maps to: `2` when the query ran
    /// and fault recovery was honestly exhausted, `1` for anything else
    /// (`0` is success and never an error).
    pub fn exit_code(&self) -> i32 {
        match self {
            ExecError::RecoveryExhausted { .. } => 2,
            _ => 1,
        }
    }

    /// Attribution class: lower beats higher when picking which of a run's
    /// per-node errors to report. `0` = primary (describes the originating
    /// failure), `1` = watchdog, `2` = cascade (consequence of a peer
    /// failing first).
    pub fn attribution_class(&self) -> u8 {
        match self {
            ExecError::Storage(_)
            | ExecError::Model(_)
            | ExecError::Protocol(_)
            | ExecError::InjectedCrash { .. }
            | ExecError::NodePanic { .. } => 0,
            ExecError::Watchdog { .. } => 1,
            ExecError::Aborted { .. } | ExecError::Net(_) => 2,
            // Produced by the recovery driver, never by a node; classify
            // like its wrapped cause for symmetry.
            ExecError::RecoveryExhausted { last, .. } => last.attribution_class(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ExecError = StorageError::NoSuchFile("x".into()).into();
        assert!(e.to_string().contains("storage"));
        let e: ExecError = ModelError::Corrupt("y").into();
        assert!(e.to_string().contains("model"));
        let e = ExecError::NodePanic {
            node: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("node 3"));
        assert!(ExecError::Protocol("bad phase").to_string().contains("bad phase"));
        let e: ExecError = NetError::PeerDown { peer: 1 }.into();
        assert!(e.to_string().contains("network"));
        assert!(ExecError::InjectedCrash { node: 2, at_tuple: 77 }
            .to_string()
            .contains("77"));
        let e = ExecError::Aborted {
            origin: 4,
            reason: "disk died".into(),
        };
        assert!(e.to_string().contains("node 4"));
        assert!(ExecError::Watchdog { node: 0, waited_ms: 500 }
            .to_string()
            .contains("500"));
    }

    #[test]
    fn attribution_classes_rank_primary_first() {
        assert_eq!(
            ExecError::InjectedCrash { node: 0, at_tuple: 1 }.attribution_class(),
            0
        );
        assert_eq!(ExecError::Protocol("x").attribution_class(), 0);
        assert_eq!(
            ExecError::Watchdog { node: 0, waited_ms: 1 }.attribution_class(),
            1
        );
        assert_eq!(
            ExecError::Aborted { origin: 0, reason: String::new() }.attribution_class(),
            2
        );
        assert_eq!(
            ExecError::Net(NetError::Disconnected).attribution_class(),
            2
        );
    }
}
