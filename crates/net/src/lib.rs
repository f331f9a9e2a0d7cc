//! # adaptagg-net
//!
//! The interconnect of the simulated shared-nothing cluster.
//!
//! * [`Message`] — what travels between nodes: 2 KB blocks of tuples
//!   ([`DataKind::Raw`] projected base tuples or [`DataKind::Partial`]
//!   partially-aggregated rows — the two kinds §3.2's merge phase must
//!   accept) plus the control messages the algorithms use (end-of-stream
//!   markers, the Adaptive Repartitioning `EndOfPhase` broadcast, the
//!   Sampling coordinator's decision).
//! * [`Network`] — the bandwidth model: [`NetworkKind::HighSpeed`] charges
//!   only per-page latency (IBM SP-2-like), [`NetworkKind::SharedBus`]
//!   serializes all transfers on one shared medium (10 Mbit Ethernet-like),
//!   which is exactly the paper's "sequential resource" model.
//! * [`Fabric`] / [`Endpoint`] — N×N `std::sync::mpsc` channels; each node thread
//!   owns one endpoint. Every message carries the sender's virtual-time
//!   send-completion timestamp; receivers advance their clocks to at least
//!   that value (Lamport), so waiting-for-data shows up in elapsed virtual
//!   time just as it did on the paper's cluster.
//! * [`Blocker`] — per-destination tuple blocking into message pages
//!   (the implementation "blocked the messages into 2 KB pages", §5).
//!
//! Time vs cost: this crate computes *transfer times* (which may involve
//! waiting on the shared bus). Per-page protocol CPU (`m_p`) is a
//! [`adaptagg_model::CostEvent::MsgProtocol`] event charged by the
//! execution layer on both sides, following the paper's
//! `m_p + m_l + m_p` accounting.

pub mod blocker;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod frame;
pub mod message;
pub mod network;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use blocker::{Blocker, Scatter, Sealed, TooLarge};
pub use error::{FrameError, NetError};
pub use fabric::{Endpoint, Fabric};
pub use fault::{FaultPlan, LinkFaults, NodeFaults, SplitMix64};
pub use frame::{WireFrame, MAX_FRAME_BYTES};
pub use message::{Control, DataKind, Message, Payload};
pub use network::Network;
pub use stats::{LinkStats, NetStats};
pub use tcp::{loopback_endpoints, TcpConfig, TcpTransport};
pub use transport::{ChannelTransport, SendFailure, Transport, TransportKind};

pub use adaptagg_model::NetworkKind;

/// Lock `mutex`, ignoring poisoning: what the locks in this crate guard (the
/// bus ledger, socket slots) stays consistent if a holder panicked, and a
/// second panic on the node threads that survive would only hide the first.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Re-export: message pages are storage pages with a 2 KB capacity.
pub use adaptagg_storage::Page;
