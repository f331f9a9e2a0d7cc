//! A real TCP transport: the same [`Transport`] seam as the in-process
//! channel mesh, backed by length-prefixed frames on loopback or LAN
//! sockets.
//!
//! Topology is a full mesh of *directed* connections: node `i` dials
//! every peer `j`, identifies itself with [`WireFrame::Hello`], and uses
//! that socket for everything `i → j`; `j`'s accept loop hands the
//! socket to a reader thread. Failure detection and recovery live here,
//! below the deterministic reliability layer in [`crate::Endpoint`]:
//!
//! * **Heartbeats** — every [`TcpConfig::heartbeat_interval`] each node
//!   beacons [`WireFrame::Heartbeat`] on its outbound links; a peer not
//!   heard from (frames of any kind count) for
//!   [`TcpConfig::heartbeat_timeout`] is declared dead.
//! * **Abrupt death** — EOF or an I/O / frame-decode error on an
//!   inbound link *without* a preceding [`WireFrame::Bye`] declares the
//!   peer dead immediately; a `Bye` makes the same silence graceful.
//! * **Reconnection** — a failed send redials with jittered exponential
//!   backoff, replays the un-acknowledged frame, and only after
//!   [`TcpConfig::connect_attempts`] failures escalates to
//!   [`NetError::PeerDown`] (which the endpoint's send retry
//!   ([`crate::Endpoint::set_retry`]) and the recovery loop above then
//!   handle).
//!
//! A dead peer surfaces **exactly once** per transport as
//! `Err(NetError::PeerDown { peer })` from a receive call; when every
//! peer has either said `Bye` or died, receives return
//! [`NetError::Disconnected`]. Frame decoding is total (see
//! [`crate::frame`]): a corrupt or hostile peer can kill its own link,
//! never this node.

use crate::error::NetError;
use crate::fabric::Endpoint;
use crate::fault::{FaultPlan, SplitMix64};
use crate::frame::{read_frame, write_frame, WireFrame};
use crate::lock;
use crate::message::Message;
use crate::network::Network;
use crate::transport::{SendFailure, Transport};
use adaptagg_model::NetworkKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, SendError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Real-time tuning knobs of the TCP transport. All durations are wall
/// clock — failure detection is inherently a real-time concern, exactly
/// like the execution layer's watchdog.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// How often each node beacons `Heartbeat` on its outbound links.
    pub heartbeat_interval: Duration,
    /// Silence longer than this (no frame of any kind) declares a peer
    /// dead. Should be several multiples of `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
    /// Budget for the initial mesh establishment: how long to wait for
    /// every peer's inbound `Hello` before failing with
    /// [`NetError::Handshake`].
    pub handshake_timeout: Duration,
    /// Dial attempts (initial connect and send-path reconnect) before a
    /// peer is declared unreachable.
    pub connect_attempts: u32,
    /// Base delay before the first redial; doubles (by
    /// `backoff_multiplier`) per attempt.
    pub connect_backoff: Duration,
    /// Growth factor of the redial backoff.
    pub backoff_multiplier: f64,
    /// Uniform jitter applied to every backoff sleep: a wait `w`
    /// becomes `w · (1 + jitter_frac · u)`, `u ∈ [−1, 1)` — so workers
    /// restarting together don't redial in lockstep.
    pub jitter_frac: f64,
    /// Seed of the deterministic jitter stream (mixed with the node id,
    /// so each node jitters differently under one seed).
    pub seed: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(10),
            connect_attempts: 10,
            connect_backoff: Duration::from_millis(20),
            backoff_multiplier: 2.0,
            jitter_frac: 0.25,
            seed: 0,
        }
    }
}

impl TcpConfig {
    /// This config with a different jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Aggressive timings for tests: fast heartbeats, short timeouts,
    /// quick redial escalation — failure-detection tests finish in
    /// hundreds of milliseconds instead of seconds.
    pub fn snappy() -> Self {
        TcpConfig {
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(150),
            handshake_timeout: Duration::from_secs(5),
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(2),
            ..TcpConfig::default()
        }
    }
}

/// What reader / monitor threads report to the owning transport.
#[derive(Debug)]
enum Event {
    /// A fabric message arrived (from the peer's socket, or looped back
    /// from a self-send).
    Msg(Message),
    /// A peer was declared dead (heartbeat timeout, or EOF / error
    /// without `Bye`).
    Dead(usize),
}

/// State shared with the accept, reader, and heartbeat threads.
#[derive(Debug)]
struct Shared {
    node: usize,
    nodes: usize,
    /// Origin of the `last_heard` millisecond clock.
    epoch: Instant,
    shutdown: AtomicBool,
    /// Per peer: last time any frame arrived, in ms since `epoch`.
    last_heard: Vec<AtomicU64>,
    /// Per peer: said `Bye` (graceful close — silence is not failure).
    bye: Vec<AtomicBool>,
    /// Per peer: already declared dead by the heartbeat monitor (so it
    /// emits one event, not one per tick).
    timed_out: Vec<AtomicBool>,
    /// Per peer: inbound connection generation. A reader only reports
    /// death if its generation is still current — a peer that
    /// *reconnected* (new generation) silences its old reader's EOF.
    conn_gen: Vec<AtomicU64>,
    /// Accepted (inbound) streams, kept so shutdown can wake blocked
    /// readers.
    inbound: Vec<Mutex<Option<TcpStream>>>,
    /// Dialed (outbound) streams: the send path and heartbeat beacon.
    inbound_seen: Vec<AtomicBool>,
    inbound_count: AtomicUsize,
    outbound: Vec<Mutex<Option<TcpStream>>>,
}

impl Shared {
    fn new(node: usize, nodes: usize) -> Self {
        Shared {
            node,
            nodes,
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            last_heard: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            bye: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            timed_out: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            conn_gen: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            inbound: (0..nodes).map(|_| Mutex::new(None)).collect(),
            inbound_seen: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            inbound_count: AtomicUsize::new(0),
            outbound: (0..nodes).map(|_| Mutex::new(None)).collect(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn touch(&self, peer: usize) {
        self.last_heard[peer].store(self.now_ms(), Ordering::SeqCst);
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// One node's attachment to a TCP mesh. Implements [`Transport`]; wrap
/// it in [`Endpoint::over`] to get the full reliability layer (sequence
/// numbers, dedup, fault injection, virtual-time accounting) on real
/// sockets.
#[derive(Debug)]
pub struct TcpTransport {
    shared: Arc<Shared>,
    peer_addrs: Vec<SocketAddr>,
    listen_addr: SocketAddr,
    events_tx: Sender<Event>,
    events_rx: Receiver<Event>,
    /// Per peer: dead as seen by *this* handle (reported from a receive
    /// call, or declared by an exhausted send). Receive-side dedup.
    dead: Vec<bool>,
    rng: SplitMix64,
    cfg: TcpConfig,
    threads: Vec<JoinHandle<()>>,
    /// Dropped to stop the heartbeat thread at once (it waits on the
    /// receiving end between beats, not in a sleep).
    heartbeat_stop: Option<Sender<()>>,
}

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> NetError {
    move |e| NetError::Io { op, kind: e.kind() }
}

impl TcpTransport {
    /// Join a mesh: dial every peer (with jittered backoff — they may
    /// not be listening yet), and block until every peer has dialed us
    /// back, up to [`TcpConfig::handshake_timeout`]. `peer_addrs[i]` is
    /// node `i`'s listen address; `peer_addrs[node]` is ignored in
    /// favor of `listener`'s actual address.
    pub fn establish(
        node: usize,
        nodes: usize,
        listener: TcpListener,
        peer_addrs: Vec<SocketAddr>,
        cfg: TcpConfig,
    ) -> Result<TcpTransport, NetError> {
        assert!(node < nodes, "node id {node} out of range for {nodes} nodes");
        let listen_addr = listener.local_addr().map_err(io_err("local_addr"))?;
        let shared = Arc::new(Shared::new(node, nodes));
        let (events_tx, events_rx) = channel();
        let mut transport = TcpTransport {
            shared: Arc::clone(&shared),
            peer_addrs,
            listen_addr,
            events_tx: events_tx.clone(),
            events_rx,
            dead: vec![false; nodes],
            rng: SplitMix64::new(
                cfg.seed ^ 0x9e37_79b9_7f4a_7c15 ^ ((node as u64) << 32 | nodes as u64),
            ),
            cfg,
            threads: Vec::new(),
            heartbeat_stop: None,
        };
        transport
            .threads
            .push(spawn_accept_thread(listener, Arc::clone(&shared), events_tx.clone()));

        // Dial every peer. On failure the transport drops, tearing the
        // accept thread and any established links down cleanly.
        for peer in 0..nodes {
            if peer != node {
                let stream = transport.dial(peer)?;
                *lock(&shared.outbound[peer]) = Some(stream);
            }
        }

        // Wait for every peer's inbound Hello.
        let deadline = Instant::now() + transport.cfg.handshake_timeout;
        while shared.inbound_count.load(Ordering::SeqCst) < nodes - 1 {
            if Instant::now() >= deadline {
                return Err(NetError::Handshake {
                    missing: nodes - 1 - shared.inbound_count.load(Ordering::SeqCst),
                });
            }
            thread::sleep(Duration::from_millis(2));
        }
        // Peers are only now obligated to beacon; starting the monitor
        // earlier would declare the slow-to-dial dead before they spoke.
        for peer in 0..nodes {
            shared.touch(peer);
        }
        let (stop_tx, stop_rx) = channel();
        transport.heartbeat_stop = Some(stop_tx);
        transport.threads.push(spawn_heartbeat_thread(
            Arc::clone(&shared),
            events_tx,
            stop_rx,
            transport.cfg.clone(),
        ));
        Ok(transport)
    }

    /// The address this transport accepts connections on.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Connect to `peer` and introduce ourselves, retrying with
    /// jittered exponential backoff.
    fn dial(&mut self, peer: usize) -> Result<TcpStream, NetError> {
        let mut backoff_ms = self.cfg.connect_backoff.as_secs_f64() * 1e3;
        let mut last = NetError::PeerDown { peer };
        for attempt in 0..self.cfg.connect_attempts.max(1) {
            if attempt > 0 {
                let jitter = 1.0 + self.cfg.jitter_frac * (2.0 * self.rng.next_f64() - 1.0);
                thread::sleep(Duration::from_secs_f64(
                    (backoff_ms * jitter.max(0.0)) / 1e3,
                ));
                backoff_ms *= self.cfg.backoff_multiplier;
            }
            match TcpStream::connect(self.peer_addrs[peer]) {
                Ok(mut stream) => {
                    let _ = stream.set_nodelay(true);
                    match write_frame(
                        &mut stream,
                        &WireFrame::Hello {
                            node: self.shared.node as u32,
                            nodes: self.shared.nodes as u32,
                        },
                    ) {
                        Ok(()) => return Ok(stream),
                        Err(e) => last = e,
                    }
                }
                Err(e) => last = io_err("connect")(e),
            }
        }
        Err(last)
    }

    /// Whether every peer has either said `Bye` or been declared dead —
    /// nothing can ever arrive again.
    fn all_peers_gone(&self) -> bool {
        (0..self.shared.nodes).all(|p| {
            p == self.shared.node || self.dead[p] || self.bye_or_timed_out_quietly(p)
        })
    }

    fn bye_or_timed_out_quietly(&self, p: usize) -> bool {
        self.shared.bye[p].load(Ordering::SeqCst)
    }

    /// Handle one event; `Ok(Some)` is a message, `Ok(None)` means
    /// "nothing to surface, keep pumping" (a death we already reported).
    fn absorb(&mut self, ev: Event) -> Result<Option<Message>, NetError> {
        match ev {
            Event::Msg(m) => Ok(Some(m)),
            Event::Dead(p) => {
                if self.dead[p] {
                    Ok(None)
                } else {
                    self.dead[p] = true;
                    Err(NetError::PeerDown { peer: p })
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn node(&self) -> usize {
        self.shared.node
    }

    fn nodes(&self) -> usize {
        self.shared.nodes
    }

    fn send(&mut self, to: usize, msg: Message) -> Result<(), SendFailure> {
        if to == self.shared.node {
            // Self-send: loop straight back through the event queue.
            return match self.events_tx.send(Event::Msg(msg)) {
                Ok(()) => Ok(()),
                Err(SendError(Event::Msg(msg))) => Err(SendFailure {
                    msg: Box::new(msg),
                    err: NetError::Disconnected,
                }),
                Err(_) => unreachable!("self-send returns the message we put in"),
            };
        }
        if to >= self.shared.nodes || self.dead[to] || self.shared.bye[to].load(Ordering::SeqCst)
        {
            return Err(SendFailure {
                msg: Box::new(msg),
                err: NetError::PeerDown { peer: to },
            });
        }
        let frame = WireFrame::Msg(msg);
        {
            let mut guard = lock(&self.shared.outbound[to]);
            if let Some(stream) = guard.as_mut() {
                if write_frame(stream, &frame).is_ok() {
                    return Ok(());
                }
                // Broken pipe: drop the stream and fall through to the
                // reconnect path.
                *guard = None;
            }
        }
        if let Ok(mut stream) = self.dial(to) {
            // Replay the frame the broken connection may have lost.
            if write_frame(&mut stream, &frame).is_ok() {
                *lock(&self.shared.outbound[to]) = Some(stream);
                return Ok(());
            }
        }
        // Redial budget exhausted: the peer is unreachable. Declare it
        // dead for this handle and hand the message back for the caller
        // to retry or escalate.
        self.dead[to] = true;
        let WireFrame::Msg(msg) = frame else {
            unreachable!("frame was built from msg above")
        };
        Err(SendFailure {
            msg: Box::new(msg),
            err: NetError::PeerDown { peer: to },
        })
    }

    fn try_recv(&mut self) -> Result<Option<Message>, NetError> {
        loop {
            match self.events_rx.try_recv() {
                Ok(ev) => match self.absorb(ev)? {
                    Some(m) => return Ok(Some(m)),
                    None => continue,
                },
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(NetError::Disconnected),
            }
        }
    }

    fn recv(&mut self) -> Result<Message, NetError> {
        loop {
            match self.events_rx.recv_timeout(self.cfg.heartbeat_interval) {
                Ok(ev) => {
                    if let Some(m) = self.absorb(ev)? {
                        return Ok(m);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.all_peers_gone() {
                        return Err(NetError::Disconnected);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Disconnected),
            }
        }
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, NetError> {
        let start = Instant::now();
        loop {
            let remaining = timeout.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                return Err(NetError::Deadline {
                    waited_ms: timeout.as_millis() as u64,
                });
            }
            let step = remaining.min(self.cfg.heartbeat_interval);
            match self.events_rx.recv_timeout(step) {
                Ok(ev) => {
                    if let Some(m) = self.absorb(ev)? {
                        return Ok(m);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.all_peers_gone() {
                        return Err(NetError::Disconnected);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Disconnected),
            }
        }
    }

    fn peer_gone(&self, peer: usize) -> bool {
        peer != self.shared.node
            && peer < self.shared.nodes
            && (self.dead[peer] || self.bye_or_timed_out_quietly(peer))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wakes the heartbeat thread out of its wait between beats.
        self.heartbeat_stop = None;
        // Graceful goodbye on every outbound link, then close them: our
        // silence from here on is not a failure.
        for peer in 0..self.shared.nodes {
            if peer == self.shared.node {
                continue;
            }
            let mut guard = lock(&self.shared.outbound[peer]);
            if let Some(stream) = guard.as_mut() {
                let _ = write_frame(
                    stream,
                    &WireFrame::Bye {
                        node: self.shared.node as u32,
                    },
                );
                let _ = stream.shutdown(Shutdown::Both);
            }
            *guard = None;
        }
        // Wake blocked readers (they see shutdown and exit silently) and
        // the accept loop (a throwaway connection to ourselves).
        for slot in &self.shared.inbound {
            if let Some(stream) = lock(slot).as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let _ = TcpStream::connect(self.listen_addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn spawn_accept_thread(
    listener: TcpListener,
    shared: Arc<Shared>,
    events_tx: Sender<Event>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name(format!("tcp-accept-{}", shared.node))
        .spawn(move || loop {
            let (mut stream, _) = match listener.accept() {
                Ok(conn) => conn,
                Err(_) => {
                    if shared.is_shutdown() {
                        return;
                    }
                    continue;
                }
            };
            if shared.is_shutdown() {
                return;
            }
            let _ = stream.set_nodelay(true);
            // The handshake read is bounded so one stalled dialer can't
            // freeze the accept loop.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
            let hello = read_frame(&mut stream);
            let _ = stream.set_read_timeout(None);
            let peer = match hello {
                Ok(Some(WireFrame::Hello { node, nodes }))
                    if nodes as usize == shared.nodes
                        && (node as usize) < shared.nodes
                        && node as usize != shared.node =>
                {
                    node as usize
                }
                // Anything else — wrong cluster size, bogus id, garbage,
                // or the shutdown wake-up connection — is not a peer.
                _ => continue,
            };
            shared.touch(peer);
            // A fresh connection from a known peer supersedes the old
            // one: bump the generation so the stale reader's EOF is not
            // mistaken for a death.
            let generation = shared.conn_gen[peer].fetch_add(1, Ordering::SeqCst) + 1;
            *lock(&shared.inbound[peer]) = stream.try_clone().ok();
            if !shared.inbound_seen[peer].swap(true, Ordering::SeqCst) {
                shared.inbound_count.fetch_add(1, Ordering::SeqCst);
            }
            let reader_shared = Arc::clone(&shared);
            let reader_tx = events_tx.clone();
            let _ = thread::Builder::new()
                .name(format!("tcp-read-{}-from-{peer}", shared.node))
                .spawn(move || reader_loop(peer, generation, stream, reader_shared, reader_tx));
        })
        .expect("spawn tcp accept thread")
}

/// Pump frames from one inbound connection until it closes. Detached:
/// exits on EOF, error, `Bye`, or shutdown; never blocks process exit
/// because shutdown closes the socket out from under it.
fn reader_loop(
    peer: usize,
    generation: u64,
    mut stream: TcpStream,
    shared: Arc<Shared>,
    events_tx: Sender<Event>,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(WireFrame::Msg(msg))) => {
                shared.touch(peer);
                // A frame claiming to be from someone else is corrupt or
                // hostile; drop it rather than poison the dedup state.
                if msg.from == peer {
                    let _ = events_tx.send(Event::Msg(msg));
                }
            }
            Ok(Some(WireFrame::Heartbeat { .. })) | Ok(Some(WireFrame::Hello { .. })) => {
                shared.touch(peer);
            }
            Ok(Some(WireFrame::Bye { .. })) => {
                shared.bye[peer].store(true, Ordering::SeqCst);
                return;
            }
            // Clean EOF without Bye, torn frame, corrupt bytes, or an
            // I/O error: the peer is gone (killed, crashed, or speaking
            // garbage). Report it unless this reader was superseded by a
            // reconnect or we are shutting down ourselves.
            Ok(None) | Err(_) => {
                if !shared.is_shutdown()
                    && shared.conn_gen[peer].load(Ordering::SeqCst) == generation
                    && !shared.bye[peer].load(Ordering::SeqCst)
                {
                    let _ = events_tx.send(Event::Dead(peer));
                }
                return;
            }
        }
    }
}

/// Beacon heartbeats on every outbound link and declare peers that have
/// gone silent past the timeout. Between beats the thread waits on `stop`,
/// not in a sleep: the transport's drop ends the wait (and the thread) at
/// once, whatever the interval.
fn spawn_heartbeat_thread(
    shared: Arc<Shared>,
    events_tx: Sender<Event>,
    stop: Receiver<()>,
    cfg: TcpConfig,
) -> JoinHandle<()> {
    let timeout_ms = cfg.heartbeat_timeout.as_millis() as u64;
    thread::Builder::new()
        .name(format!("tcp-heartbeat-{}", shared.node))
        .spawn(move || loop {
            match stop.recv_timeout(cfg.heartbeat_interval) {
                Err(RecvTimeoutError::Timeout) if !shared.is_shutdown() => {}
                _ => return,
            }
            let now = shared.now_ms();
            for peer in 0..shared.nodes {
                if peer == shared.node || shared.bye[peer].load(Ordering::SeqCst) {
                    continue;
                }
                {
                    let mut guard = lock(&shared.outbound[peer]);
                    if let Some(stream) = guard.as_mut() {
                        let beat = WireFrame::Heartbeat {
                            node: shared.node as u32,
                        };
                        if write_frame(stream, &beat).is_err() {
                            // Leave reconnection to the send path.
                            *guard = None;
                        }
                    }
                }
                if !shared.timed_out[peer].load(Ordering::SeqCst)
                    && now.saturating_sub(shared.last_heard[peer].load(Ordering::SeqCst))
                        > timeout_ms
                {
                    shared.timed_out[peer].store(true, Ordering::SeqCst);
                    let _ = events_tx.send(Event::Dead(peer));
                }
            }
        })
        .expect("spawn tcp heartbeat thread")
}

/// Build an `n`-node TCP mesh on `127.0.0.1` (ephemeral ports) and wrap
/// each transport in the full reliability layer. The in-process twin of
/// what the `adaptagg-coordinator` / `adaptagg-worker` binaries do
/// across real processes — and the backend behind
/// `TransportKind::TcpLoopback`.
pub fn loopback_endpoints(
    n: usize,
    network: NetworkKind,
    plan: &FaultPlan,
    cfg: TcpConfig,
) -> Result<Vec<Endpoint>, NetError> {
    let net = Network::new(network);
    let transports = loopback_transports(n, cfg)?;
    Ok(transports
        .into_iter()
        .map(|t| Endpoint::over(Box::new(t), net.clone(), plan))
        .collect())
}

/// Establish an `n`-node loopback mesh of raw transports, concurrently
/// (establishment blocks on mutual Hellos, so the nodes must dial in
/// parallel).
pub fn loopback_transports(n: usize, cfg: TcpConfig) -> Result<Vec<TcpTransport>, NetError> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("bind"))?;
        addrs.push(listener.local_addr().map_err(io_err("local_addr"))?);
        listeners.push(listener);
    }
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(node, listener)| {
            let addrs = addrs.clone();
            let cfg = cfg.clone();
            thread::spawn(move || TcpTransport::establish(node, n, listener, addrs, cfg))
        })
        .collect();
    let mut transports = Vec::with_capacity(n);
    for handle in handles {
        transports.push(handle.join().map_err(|_| NetError::Io {
            op: "establish",
            kind: std::io::ErrorKind::Other,
        })??);
    }
    Ok(transports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Control, Payload};

    fn control_msg(from: usize, seq: u64) -> Message {
        Message {
            from,
            seq,
            sent_at_ms: 1.0,
            payload: Payload::Control(Control::Job(vec![seq as u8])),
        }
    }

    /// Abrupt, Bye-less death: close every socket and stop every thread
    /// without the goodbye — what SIGKILL does to a real process.
    fn sever(t: &TcpTransport) {
        t.shared.shutdown.store(true, Ordering::SeqCst);
        for slot in t.shared.outbound.iter().chain(t.shared.inbound.iter()) {
            if let Some(s) = lock(slot).as_ref() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let _ = TcpStream::connect(t.listen_addr);
    }

    /// Dropping a transport does not wait out a heartbeat interval: the
    /// heartbeat thread is woken, not slept through.
    #[test]
    fn drop_does_not_wait_for_the_next_heartbeat() {
        let cfg = TcpConfig {
            heartbeat_interval: Duration::from_secs(60),
            heartbeat_timeout: Duration::from_secs(600),
            ..TcpConfig::snappy()
        };
        let transports = loopback_transports(2, cfg).unwrap();
        let start = Instant::now();
        drop(transports);
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "two transports took {took:?} to drop");
    }

    #[test]
    fn mesh_exchanges_messages_both_ways() {
        let mut ts = loopback_transports(2, TcpConfig::snappy()).unwrap();
        let (mut a, mut b) = (ts.remove(0), ts.remove(0));
        a.send(1, control_msg(0, 7)).unwrap();
        assert_eq!(b.recv().unwrap(), control_msg(0, 7));
        b.send(0, control_msg(1, 9)).unwrap();
        assert_eq!(a.recv().unwrap(), control_msg(1, 9));
    }

    #[test]
    fn self_send_loops_back() {
        let mut ts = loopback_transports(1, TcpConfig::snappy()).unwrap();
        let mut a = ts.remove(0);
        a.send(0, control_msg(0, 3)).unwrap();
        assert_eq!(a.try_recv().unwrap(), Some(control_msg(0, 3)));
        assert_eq!(a.try_recv().unwrap(), None);
    }

    #[test]
    fn graceful_drop_is_not_a_death() {
        let mut ts = loopback_transports(2, TcpConfig::snappy()).unwrap();
        let (mut a, b) = (ts.remove(0), ts.remove(0));
        drop(b); // sends Bye
        assert_eq!(a.recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn severed_peer_is_reported_dead_exactly_once() {
        let mut ts = loopback_transports(2, TcpConfig::snappy()).unwrap();
        let (mut a, b) = (ts.remove(0), ts.remove(0));
        sever(&b);
        assert_eq!(a.recv(), Err(NetError::PeerDown { peer: 1 }));
        // Second receive: the death is not re-reported; with the only
        // peer gone, the transport reports disconnection.
        assert_eq!(a.recv(), Err(NetError::Disconnected));
        drop(b);
    }

    #[test]
    fn send_to_severed_peer_escalates_and_returns_the_message() {
        let mut ts = loopback_transports(2, TcpConfig::snappy()).unwrap();
        let (mut a, b) = (ts.remove(0), ts.remove(0));
        sever(&b);
        drop(b); // release the port so redials actually fail
        let original = control_msg(0, 11);
        // The first send may succeed into the kernel buffer of the
        // now-dead connection; keep sending until the failure surfaces.
        let failure = loop {
            match a.send(1, original.clone()) {
                Ok(()) => thread::sleep(Duration::from_millis(5)),
                Err(f) => break f,
            }
        };
        assert_eq!(failure.err, NetError::PeerDown { peer: 1 });
        assert_eq!(*failure.msg, original, "failed send hands the message back");
    }

    #[test]
    fn silent_peer_times_out_via_heartbeats() {
        let mut ts = loopback_transports(2, TcpConfig::snappy()).unwrap();
        let (mut a, b) = (ts.remove(0), ts.remove(0));
        // Mute b: its heartbeat thread stops, but its sockets stay open,
        // so only the timeout (not EOF) can detect it.
        b.shared.shutdown.store(true, Ordering::SeqCst);
        assert_eq!(
            a.recv_deadline(Duration::from_secs(10)),
            Err(NetError::PeerDown { peer: 1 })
        );
        drop(b);
    }

    #[test]
    fn recv_deadline_times_out_against_healthy_but_silent_mesh() {
        let mut ts = loopback_transports(2, TcpConfig::snappy()).unwrap();
        let mut a = ts.remove(0);
        assert_eq!(
            a.recv_deadline(Duration::from_millis(40)),
            Err(NetError::Deadline { waited_ms: 40 })
        );
    }

    #[test]
    fn endpoints_over_tcp_carry_the_reliability_layer() {
        let plan = FaultPlan::none();
        let mut eps =
            loopback_endpoints(
            3,
            NetworkKind::high_speed_default(),
            &plan,
            TcpConfig::snappy(),
        )
        .unwrap();
        let mut c = eps.remove(2);
        let mut b = eps.remove(1);
        let mut a = eps.remove(0);
        a.send_control(2, Control::EndOfStream, 5.0).unwrap();
        b.send_control(2, Control::EndOfPhase { groups_seen: 4 }, 6.0).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(c.recv().unwrap().from);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }
}
