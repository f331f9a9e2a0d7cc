//! The raw wire under the fabric's reliability layer.
//!
//! [`Transport`] is the seam between the deterministic messaging
//! machinery ([`crate::Endpoint`]: sequence stamping, fault injection,
//! dedup/reassembly, virtual-time transfer accounting) and the medium
//! that physically moves bytes. Two backends implement it:
//!
//! * [`ChannelTransport`] — the in-process fabric: one unbounded
//!   `std::sync::mpsc` channel per node, loss-free and ordered. This is the
//!   deterministic testing backend.
//! * [`crate::tcp::TcpTransport`] — length-prefixed frames over real
//!   sockets, with heartbeat-based failure detection and reconnection.
//!
//! Everything above the trait is shared, so the chaos suite, the
//! recovery tests, and tracing run unchanged against either backend:
//! swapping the wire swaps only *how* a message travels and *how* a dead
//! peer is discovered, never the protocol semantics.

use crate::error::NetError;
use crate::message::Message;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Which wire a cluster run uses. Carried by the execution layer's
/// cluster config so every test suite can parameterize its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The deterministic in-process fabric (`std::sync::mpsc` channels).
    #[default]
    InProcess,
    /// Real TCP sockets over 127.0.0.1, one OS-level connection per
    /// directed link, with heartbeats and reconnection.
    TcpLoopback,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::InProcess => write!(f, "in-process"),
            TransportKind::TcpLoopback => write!(f, "tcp-loopback"),
        }
    }
}

/// A failed send, handing the undelivered message back so the caller's
/// retry policy can re-attempt it without cloning on the success path.
#[derive(Debug)]
pub struct SendFailure {
    /// The message that was not delivered (boxed: the columnar page
    /// payload makes `Message` wide, and `Result` pays for the `Err`
    /// variant on every send).
    pub msg: Box<Message>,
    /// Why the send failed.
    pub err: NetError,
}

/// The raw wire: moves whole [`Message`]s between nodes.
///
/// ## Contract
///
/// * `send` is non-blocking from the protocol's point of view (it may do
///   bounded I/O, but never waits on the receiver's progress) and fails
///   with a typed error when the destination is unreachable, returning
///   the message for possible retry.
/// * Receives surface messages in per-link FIFO order *as the wire saw
///   them* — duplicates, gaps, and reordering across links are allowed;
///   the layer above reassembles by sequence number.
/// * A receive call returns `Err(NetError::PeerDown { .. })` exactly
///   once per peer the transport has declared dead (failure detection);
///   `Err(NetError::Disconnected)` once nothing can ever arrive again.
/// * Implementations must be `Send`: each endpoint lives on its node's
///   thread.
pub trait Transport: Send + std::fmt::Debug {
    /// This endpoint's node id.
    fn node(&self) -> usize;
    /// Cluster size.
    fn nodes(&self) -> usize;
    /// Push a message toward `to`. On failure the message is returned.
    fn send(&mut self, to: usize, msg: Message) -> Result<(), SendFailure>;
    /// Non-blocking poll for the next wire arrival.
    fn try_recv(&mut self) -> Result<Option<Message>, NetError>;
    /// Blocking receive.
    fn recv(&mut self) -> Result<Message, NetError>;
    /// Blocking receive bounded by a real-time deadline.
    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, NetError>;
    /// Whether `peer` has left the mesh for good — said a graceful
    /// goodbye or been declared dead — so nothing from it can ever
    /// arrive again. A graceful goodbye deliberately surfaces **no**
    /// receive error (silence from a departed peer is not failure), so
    /// long-lived receivers that care about a specific peer poll this
    /// instead. Backends without a positive departure signal may
    /// under-report ([`ChannelTransport`] always answers `false`):
    /// callers treat `true` as a definite departure and `false` as
    /// "unknown", never as proof of liveness.
    fn peer_gone(&self, _peer: usize) -> bool {
        false
    }
}

/// The in-process wire: unbounded channels, loss-free, always ordered.
/// Sends fail only when the destination endpoint was dropped (its node
/// finished or died), which doubles as instantaneous failure detection.
#[derive(Debug)]
pub struct ChannelTransport {
    node: usize,
    nodes: usize,
    senders: Vec<Sender<Message>>,
    rx: Receiver<Message>,
}

impl ChannelTransport {
    /// Build the full mesh for an `n`-node cluster, one transport per
    /// node, in node order.
    pub fn mesh(n: usize) -> Vec<ChannelTransport> {
        let (senders, receivers): (Vec<Sender<Message>>, Vec<Receiver<Message>>) =
            (0..n).map(|_| channel()).unzip();
        receivers
            .into_iter()
            .enumerate()
            .map(|(node, rx)| ChannelTransport {
                node,
                nodes: n,
                senders: senders.clone(),
                rx,
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn node(&self) -> usize {
        self.node
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn send(&mut self, to: usize, msg: Message) -> Result<(), SendFailure> {
        self.senders[to].send(msg).map_err(|failed| SendFailure {
            msg: Box::new(failed.0),
            err: NetError::PeerDown { peer: to },
        })
    }

    fn try_recv(&mut self) -> Result<Option<Message>, NetError> {
        // An empty channel and a fully disconnected one both mean "nothing
        // now" for a poll; blocking receives are the ones that must
        // distinguish (they would otherwise hang forever).
        Ok(self.rx.try_recv().ok())
    }

    fn recv(&mut self) -> Result<Message, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Deadline {
                waited_ms: timeout.as_millis() as u64,
            },
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Control, Payload};

    fn control_msg(from: usize, seq: u64) -> Message {
        Message {
            from,
            seq,
            sent_at_ms: 0.0,
            payload: Payload::Control(Control::EndOfStream),
        }
    }

    #[test]
    fn mesh_assigns_ids_in_order() {
        let mesh = ChannelTransport::mesh(3);
        for (i, t) in mesh.iter().enumerate() {
            assert_eq!(t.node(), i);
            assert_eq!(t.nodes(), 3);
        }
    }

    #[test]
    fn send_and_receive_across_the_mesh() {
        let mut mesh = ChannelTransport::mesh(2);
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        a.send(1, control_msg(0, 0)).unwrap();
        let msg = b.recv().unwrap();
        assert_eq!(msg.from, 0);
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn send_to_dropped_peer_returns_the_message() {
        let mut mesh = ChannelTransport::mesh(2);
        let b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        drop(b);
        let failed = a.send(1, control_msg(0, 7)).unwrap_err();
        assert_eq!(failed.err, NetError::PeerDown { peer: 1 });
        assert_eq!(failed.msg.seq, 7, "undelivered message handed back");
    }

    #[test]
    fn recv_deadline_times_out_typed() {
        let mut mesh = ChannelTransport::mesh(2);
        let mut b = mesh.pop().unwrap();
        let _a = mesh.remove(0);
        assert_eq!(
            b.recv_deadline(Duration::from_millis(10)),
            Err(NetError::Deadline { waited_ms: 10 })
        );
    }

    #[test]
    fn transport_kind_displays() {
        assert_eq!(TransportKind::InProcess.to_string(), "in-process");
        assert_eq!(TransportKind::TcpLoopback.to_string(), "tcp-loopback");
        assert_eq!(TransportKind::default(), TransportKind::InProcess);
    }
}
