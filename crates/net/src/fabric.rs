//! The N×N message fabric.
//!
//! [`Fabric::new`] builds one in-process [`ChannelTransport`] per node;
//! each node thread takes its [`Endpoint`] — the transport-independent
//! reliability layer over any [`Transport`] wire — which can send to any
//! node
//! (including itself — the paper's cost model charges self-partitioned
//! tuples like remote ones, and we follow it) and receive from all.
//!
//! Unbounded channels mean sends never block, so the thread-per-node
//! execution cannot deadlock regardless of phase structure; back-pressure
//! is not modelled (the paper's model has none either — network cost is
//! pure transfer time).
//!
//! ## Reliability under fault injection
//!
//! Every message carries a per-link sequence number. Receivers drop
//! duplicates and reassemble send order per sender, so the fabric is
//! at-least-once-with-dedup: [`crate::FaultPlan`] link faults (drop =
//! delayed retransmit, duplication, reordering) perturb timing but never
//! correctness. Sends and receives return typed [`NetError`]s instead of
//! panicking when a peer is gone — the execution layer turns these into
//! graceful, attributed run failures.
//!
//! A held-back (reordered) message is flushed by the next send on the
//! same link; since every data-carrying link later carries an
//! `EndOfStream` (all algorithms close their streams), no message can be
//! held forever.
//!
//! ## One inbox
//!
//! Reassembled messages wait in one FIFO per sender. A receiver either
//! names the sender it wants the next message of ([`Endpoint::recv_from`]
//! — what every phase of every algorithm does, so that what it consumes
//! and when on its clock is a function of what was sent), or takes the
//! earliest-stamped queue head from anyone ([`Endpoint::recv`] and its
//! bounded and non-blocking forms — the cluster job protocol, tests).

use crate::error::NetError;
use crate::fault::{FaultPlan, LinkFaults, SplitMix64};
use crate::message::{Control, DataKind, Message, Payload};
use crate::network::Network;
use crate::stats::{LinkStats, NetStats};
use crate::transport::{ChannelTransport, SendFailure, Transport};
use adaptagg_model::{ms_to_ticks, ticks_to_ms, NetworkKind};
use adaptagg_storage::Page;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// How many per-page transfer times a "dropped" (retransmitted) message
/// arrives late by.
const RETRANSMIT_PENALTY_PAGES: u64 = 3;

/// Re-attempts of a send that failed with a dead peer, before giving up
/// ([`Endpoint::set_retry`]).
pub const RETRY_MAX: u32 = 2;
/// Virtual backoff before the first retry, in ms.
pub const RETRY_BACKOFF_MS: f64 = 1.0;
/// Multiplier applied to the backoff between retries.
pub const RETRY_BACKOFF_MULTIPLIER: f64 = 2.0;
/// Random jitter applied to each backoff step: the charged wait is
/// uniform in `[backoff · (1 − j), backoff · (1 + j)]`. Without it,
/// concurrent senders probing the same dead peer retry in lockstep
/// (synchronized bursts); with it, retries de-correlate. Draws come from a
/// per-endpoint stream seeded by the fault plan, so runs stay
/// deterministic per seed.
pub const RETRY_JITTER_FRAC: f64 = 0.25;

/// Builds endpoints for an `n`-node cluster.
#[derive(Debug)]
pub struct Fabric {
    endpoints: Vec<Endpoint>,
}

impl Fabric {
    /// A fault-free fabric of `n` endpoints over the given network model.
    pub fn new(n: usize, kind: NetworkKind) -> Self {
        Fabric::with_faults(n, kind, &FaultPlan::none())
    }

    /// A fabric whose links suffer the given plan's message faults.
    pub fn with_faults(n: usize, kind: NetworkKind, plan: &FaultPlan) -> Self {
        let network = Network::new(kind);
        let endpoints = ChannelTransport::mesh(n)
            .into_iter()
            .map(|wire| Endpoint::over(Box::new(wire), network.clone(), plan))
            .collect();
        Fabric { endpoints }
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the fabric has no endpoints.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Take all endpoints (one per node thread), in node order.
    pub fn into_endpoints(self) -> Vec<Endpoint> {
        self.endpoints
    }
}

/// Sender-side state for one outgoing link.
#[derive(Debug)]
struct LinkState {
    /// The link's deterministic fault stream.
    rng: SplitMix64,
    /// A reordered message awaiting the link's next send.
    held: Option<Message>,
    /// Sequence number for the next message on this link.
    next_seq: u64,
    /// Per-destination traffic counters (observability).
    stats: LinkStats,
}

/// One node's attachment to the fabric.
#[derive(Debug)]
pub struct Endpoint {
    node: usize,
    nodes: usize,
    /// The raw wire: in-process channels or real TCP — everything else
    /// in this struct is transport-independent (see [`Transport`]).
    wire: Box<dyn Transport>,
    /// In-sequence messages awaiting delivery, one FIFO per sender
    /// beside that sender's reassembly state below.
    inbox: Vec<VecDeque<Message>>,
    /// How many queued messages are signals (see [`is_signal`]).
    signals: usize,
    network: Network,
    stats: NetStats,
    /// Per-link fault probabilities (all zero when injection is off).
    link_faults: LinkFaults,
    /// Per-destination link state (seq stamping + fault stream).
    links: Vec<LinkState>,
    /// Next expected sequence number per sender.
    expected_seq: Vec<u64>,
    /// Out-of-order messages buffered per sender until their gap fills.
    ooo: Vec<BTreeMap<u64, Message>>,
    /// Whether failed sends are retried (off = fail fast, the default).
    retry: bool,
    /// Virtual backoff accrued by retries since the last
    /// [`Endpoint::take_retry_backoff`], in ticks — the execution layer
    /// drains this into the node's clock as wait time.
    retry_backoff: u64,
    /// Deterministic stream for retry-backoff jitter, seeded from the
    /// fault plan and this node's id (independent of the link fault
    /// streams, so enabling jitter perturbs no fault schedule).
    retry_rng: SplitMix64,
}

impl Endpoint {
    /// Attach the fabric's reliability layer to a raw wire: sequence
    /// stamping, fault injection, dedup/reassembly, and virtual-time
    /// transfer accounting all live here, identically for every
    /// [`Transport`] backend.
    pub fn over(wire: Box<dyn Transport>, network: Network, plan: &FaultPlan) -> Endpoint {
        let node = wire.node();
        let n = wire.nodes();
        let mut s = plan.seed() ^ 0x517c_c1b7_2722_0a95;
        s = s.wrapping_mul(0x100_0000_01b3) ^ (node as u64).wrapping_add(1);
        Endpoint {
            node,
            nodes: n,
            wire,
            inbox: (0..n).map(|_| VecDeque::new()).collect(),
            signals: 0,
            network,
            stats: NetStats::default(),
            link_faults: plan.link_faults(),
            links: (0..n)
                .map(|to| LinkState {
                    rng: plan.link_rng(node, to),
                    held: None,
                    next_seq: 0,
                    stats: LinkStats::default(),
                })
                .collect(),
            expected_seq: vec![0; n],
            ooo: (0..n).map(|_| BTreeMap::new()).collect(),
            retry: false,
            retry_backoff: 0,
            retry_rng: SplitMix64::new(s),
        }
    }
    /// This endpoint's node id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The shared network (for utilization reports).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Per-destination traffic counters, indexed by destination node.
    pub fn link_stats(&self, to: usize) -> &LinkStats {
        &self.links[to].stats
    }

    /// Turn bounded retry-with-backoff on or off for sends on this
    /// endpoint's outgoing links that fail with a dead peer (the recovery
    /// layer turns it on for every run under a recovery policy).
    ///
    /// In the simulation a closed endpoint never comes back, so the
    /// retries model the *cost* of probing a transiently-unreachable peer
    /// before the failure escalates to the recovery layer (which reassigns
    /// the peer's work). Each of the [`RETRY_MAX`] retries charges
    /// exponentially-growing virtual backoff, accumulated on the endpoint
    /// ([`Endpoint::take_retry_backoff`]) and counted in
    /// [`NetStats::send_retries`]. Off (the default) keeps the
    /// pre-recovery fail-fast behaviour, bit for bit.
    pub fn set_retry(&mut self, on: bool) {
        self.retry = on;
    }

    /// Drain the virtual backoff accrued by send retries since the last
    /// call, in ticks. The execution layer charges it to the node's clock
    /// as wait.
    pub fn take_retry_backoff(&mut self) -> u64 {
        std::mem::take(&mut self.retry_backoff)
    }

    /// Virtual-time latency added to a message the fault plan drops
    /// (modelling its retransmit), in ticks.
    fn retransmit_penalty(&self) -> u64 {
        RETRANSMIT_PENALTY_PAGES * self.network.per_page()
    }

    /// Send a data page to `to`. `now_ms` is the sender's virtual time
    /// when the send is issued (its tick count, rendered in ms); the
    /// return value is the virtual time in ticks when the transfer
    /// completes, which the caller assigns back to its clock (the sender
    /// is occupied for the duration, matching the analytical model's
    /// `m_l` charge). The receiver will observe at least this time.
    ///
    /// Fails with [`NetError::PeerDown`] if `to`'s endpoint was dropped
    /// (its node already failed or finished).
    pub fn send_data(
        &mut self,
        to: usize,
        kind: DataKind,
        page: Page,
        now_ms: f64,
    ) -> Result<u64, NetError> {
        debug_assert!(to < self.nodes, "destination {to} out of range");
        let mut done = self.network.transfer(ms_to_ticks(now_ms), 1);
        self.stats
            .on_send_data(kind, page.bytes_used(), page.tuple_count());
        let link = &mut self.links[to].stats;
        link.msgs += 1;
        link.pages += 1;
        link.bytes += page.bytes_used() as u64;
        link.tuples += page.tuple_count() as u64;
        let fate = self.roll_link_faults(to);
        if fate.drop {
            // Lost on the wire, retransmitted: same message, same sequence
            // number, arriving late — and the sender is occupied until the
            // retransmit completes.
            done += self.retransmit_penalty();
            self.stats.injected_drops += 1;
            self.links[to].stats.drops += 1;
        }
        let msg = Message {
            from: self.node,
            seq: self.stamp_seq(to),
            sent_at_ms: ticks_to_ms(done),
            payload: Payload::Data { kind, page },
        };
        self.link_send(to, msg, fate)?;
        Ok(done)
    }

    /// Send a control message to `to` (zero transfer time; see
    /// [`Message::transfer_pages`]).
    pub fn send_control(
        &mut self,
        to: usize,
        control: Control,
        now_ms: f64,
    ) -> Result<(), NetError> {
        debug_assert!(to < self.nodes, "destination {to} out of range");
        self.stats.control_sent += 1;
        self.links[to].stats.msgs += 1;
        let mut fate = self.roll_link_faults(to);
        let mut sent_at = ms_to_ticks(now_ms);
        if fate.drop {
            sent_at += self.retransmit_penalty();
            self.stats.injected_drops += 1;
            self.links[to].stats.drops += 1;
        }
        // Only data pages are ever held back: holding a control message
        // could stall a protocol (e.g. a decision broadcast) until the
        // link's next send, which may be its last.
        fate.reorder = false;
        let msg = Message {
            from: self.node,
            seq: self.stamp_seq(to),
            sent_at_ms: ticks_to_ms(sent_at),
            payload: Payload::Control(control),
        };
        self.link_send(to, msg, fate)
    }

    /// Broadcast a control message to every *other* node. Peers that are
    /// already down are skipped — a failing node must be able to notify
    /// the survivors even when some peers died first.
    pub fn broadcast_control(&mut self, control: Control, now_ms: f64) -> Result<(), NetError> {
        for to in 0..self.nodes {
            if to != self.node {
                if let Err(NetError::PeerDown { .. }) =
                    self.send_control(to, control.clone(), now_ms)
                {
                    continue;
                }
            }
        }
        Ok(())
    }

    /// Draw this send's fault fate from the link's deterministic stream.
    /// Self-sends are loopback — never faulted. A fault-free plan draws
    /// nothing (zero cost, identical streams with or without the layer).
    fn roll_link_faults(&mut self, to: usize) -> LinkFate {
        if to == self.node || !self.link_faults.any() {
            return LinkFate::default();
        }
        let rng = &mut self.links[to].rng;
        LinkFate {
            drop: rng.next_f64() < self.link_faults.drop_prob,
            dup: rng.next_f64() < self.link_faults.dup_prob,
            reorder: rng.next_f64() < self.link_faults.reorder_prob,
        }
    }

    /// Stamp the next sequence number for the `self → to` link.
    fn stamp_seq(&mut self, to: usize) -> u64 {
        let seq = self.links[to].next_seq;
        self.links[to].next_seq += 1;
        seq
    }

    /// Physically transmit `msg` on the link, applying duplication and
    /// reordering, and flushing any previously held message.
    fn link_send(&mut self, to: usize, msg: Message, fate: LinkFate) -> Result<(), NetError> {
        let mut delivered = false;
        if fate.dup {
            self.stats.injected_dups += 1;
            self.push_wire(to, msg.clone())?;
            delivered = true;
        }
        if fate.reorder && self.links[to].held.is_none() {
            self.stats.injected_reorders += 1;
            self.links[to].held = Some(msg);
            return Ok(());
        }
        if let Err(e) = self.push_wire(to, msg) {
            // With a duplicate already through, this copy is redundant: the
            // receiver deduplicated the first one and may have legitimately
            // finished and closed its endpoint in between. At-least-once
            // delivery was satisfied; only a send with *no* copy delivered
            // is a real peer failure.
            return if delivered { Ok(()) } else { Err(e) };
        }
        if let Some(held) = self.links[to].held.take() {
            self.push_wire(to, held)?;
        }
        Ok(())
    }

    fn push_wire(&mut self, to: usize, msg: Message) -> Result<(), NetError> {
        match self.wire.send(to, msg) {
            Ok(()) => Ok(()),
            Err(failed) => self.retry_push(to, failed),
        }
    }

    /// A send failed (the peer is unreachable). With retry on,
    /// re-attempt up to [`RETRY_MAX`] times, charging exponential virtual
    /// backoff (jittered by [`RETRY_JITTER_FRAC`]) per attempt; give up
    /// with the transport's typed error once the budget is spent so the
    /// failure can escalate to recovery. With retry off this is the old
    /// fail-fast path (zero draws, zero cost).
    fn retry_push(&mut self, to: usize, failed: SendFailure) -> Result<(), NetError> {
        let SendFailure { mut msg, mut err } = failed;
        if !self.retry {
            return Err(err);
        }
        let mut backoff = RETRY_BACKOFF_MS;
        for _ in 0..RETRY_MAX {
            self.stats.send_retries += 1;
            self.links[to].stats.retries += 1;
            let jitter = RETRY_JITTER_FRAC * (2.0 * self.retry_rng.next_f64() - 1.0);
            let wait = ms_to_ticks(backoff * (1.0 + jitter));
            self.retry_backoff += wait;
            // The retransmit would arrive after the backoff.
            msg.sent_at_ms = ticks_to_ms(msg.sent_at() + wait);
            match self.wire.send(to, *msg) {
                Ok(()) => return Ok(()),
                Err(f) => {
                    msg = f.msg;
                    err = f.err;
                }
            }
            backoff *= RETRY_BACKOFF_MULTIPLIER;
        }
        Err(err)
    }

    /// Blocking receive of the next message from anyone: the earliest
    /// `(sent_at_ms, from, seq)` among the heads of the per-sender
    /// queues, waiting on the wire while all are empty. The caller merges
    /// `msg.sent_at_ms` into its clock and charges receive-side costs;
    /// virtual arrival times in the future are fine (the wait becomes
    /// Lamport time).
    pub fn recv(&mut self) -> Result<Message, NetError> {
        loop {
            if let Some(msg) = self.pop_earliest() {
                return Ok(msg);
            }
            let msg = self.wire.recv()?;
            self.ingest(msg);
        }
    }

    /// Non-blocking [`Endpoint::recv`]: whatever the wire has delivered
    /// is filed first.
    ///
    /// A transport that has declared a peer dead surfaces that here as
    /// `Err(NetError::PeerDown)` — failure detection must reach pollers,
    /// not only blocked receivers.
    pub fn try_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.ingest_arrived()?;
        Ok(self.pop_earliest())
    }

    /// Whether the transport knows `peer` has left the mesh for good
    /// (graceful goodbye or declared dead). See
    /// [`Transport::peer_gone`] — `false` means "unknown", not alive.
    pub fn peer_gone(&self, peer: usize) -> bool {
        self.wire.peer_gone(peer)
    }

    /// [`Endpoint::recv`] with a real-time deadline — the watchdog against
    /// protocol hangs: even if every peer died without a trace, the
    /// receiver surfaces [`NetError::Deadline`] instead of blocking
    /// forever.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, NetError> {
        let start = Instant::now();
        loop {
            if let Some(msg) = self.pop_earliest() {
                return Ok(msg);
            }
            self.ingest_one(start, timeout)?;
        }
    }

    /// Receive the next message **from `sender`**, in the order it sent
    /// them: the front of that sender's queue, waiting on the wire — and
    /// filing what other senders deliver meanwhile in theirs — until
    /// there is one. What a receiver built on this consumes, and when on
    /// its clock, is a function of what was sent, not of how the senders'
    /// threads interleaved.
    ///
    /// One exception to the order: an arrived `Abort`, from `sender` or
    /// anyone else, is returned ahead of everything. Failure propagation
    /// is about real execution; it must not wait behind a stream, let
    /// alone behind a sender that will never finish one.
    ///
    /// `timeout` bounds the whole call in real time, however much other
    /// senders deliver meanwhile ([`NetError::Deadline`]).
    pub fn recv_from(&mut self, sender: usize, timeout: Duration) -> Result<Message, NetError> {
        if let Some(msg) = self.next_from(sender) {
            return Ok(msg);
        }
        let start = Instant::now();
        loop {
            // One wake-up files the whole arrived backlog.
            self.ingest_one(start, timeout)?;
            self.ingest_arrived()?;
            if let Some(msg) = self.next_from(sender) {
                return Ok(msg);
            }
        }
    }

    /// What [`Endpoint::recv_from`] delivers from the queues as they are.
    fn next_from(&mut self, sender: usize) -> Option<Message> {
        if let Some(abort) = self.take_signal(is_abort) {
            return Some(abort);
        }
        let msg = self.inbox[sender].pop_front()?;
        Some(self.delivered(msg))
    }

    /// File what the wire has delivered, then take out of the queues the
    /// first control message other than `EndOfStream` — sender-major,
    /// wherever in its sender's queue it sits — that has *virtually
    /// arrived* by `now` (ticks). Data pages and stream ends stay queued for
    /// whoever consumes the streams (the Adaptive Repartitioning scan
    /// polls this way for `EndOfPhase` while partitioning).
    ///
    /// A poll must not see the future: a message whose send completes at
    /// virtual time `T > now` has not arrived yet and stays where it
    /// is. Without this rule, polls would Lamport-drag every clock forward
    /// in a feedback loop and inflate elapsed times cluster-wide. `Abort`
    /// is exempt, as in [`Endpoint::recv_from`].
    pub fn poll_control(&mut self, now: u64) -> Result<Option<Message>, NetError> {
        self.ingest_arrived()?;
        Ok(self.take_signal(|m| m.sent_at() <= now || is_abort(m)))
    }

    /// Block on the wire for one arrival, within what is left of
    /// `timeout` since `start`, and file it.
    fn ingest_one(&mut self, start: Instant, timeout: Duration) -> Result<(), NetError> {
        let deadline = NetError::Deadline {
            waited_ms: timeout.as_millis() as u64,
        };
        let Some(remaining) = timeout.checked_sub(start.elapsed()) else {
            return Err(deadline);
        };
        match self.wire.recv_deadline(remaining) {
            Ok(msg) => {
                self.ingest(msg);
                Ok(())
            }
            Err(NetError::Deadline { .. }) => Err(deadline),
            Err(other) => Err(other),
        }
    }

    /// File everything the wire has already delivered, without blocking.
    fn ingest_arrived(&mut self) -> Result<(), NetError> {
        while let Some(msg) = self.wire.try_recv()? {
            self.ingest(msg);
        }
        Ok(())
    }

    /// Feed a raw wire arrival through per-sender dedup + reassembly.
    /// In-sequence messages (and any out-of-order successors they
    /// unblock) are filed in their sender's queue; duplicates are
    /// dropped; gaps wait.
    fn ingest(&mut self, msg: Message) {
        let from = msg.from;
        let expected = &mut self.expected_seq[from];
        match msg.seq.cmp(expected) {
            std::cmp::Ordering::Less => {
                self.stats.dup_dropped += 1;
            }
            std::cmp::Ordering::Greater => {
                // Insert overwrites an identical buffered duplicate.
                self.ooo[from].insert(msg.seq, msg);
            }
            std::cmp::Ordering::Equal => {
                *expected += 1;
                self.file(msg);
                while let Some(next) = self.ooo[from].remove(&self.expected_seq[from]) {
                    self.expected_seq[from] += 1;
                    self.file(next);
                }
            }
        }
    }

    fn file(&mut self, msg: Message) {
        self.signals += usize::from(is_signal(&msg));
        self.inbox[msg.from].push_back(msg);
    }

    /// Account for a message leaving the queues.
    fn delivered(&mut self, msg: Message) -> Message {
        self.signals -= usize::from(is_signal(&msg));
        match &msg.payload {
            Payload::Data { page, .. } => self.stats.on_recv_data(page.tuple_count()),
            Payload::Control(_) => self.stats.control_received += 1,
        }
        msg
    }

    /// Pop the queue head with the earliest `(sent_at_ms, from, seq)`.
    /// Equal timestamps fall to the lower sender, not to whichever
    /// arrived first: arrival interleaving across senders is the thread
    /// schedule's, and delivering on it would imprint the schedule on the
    /// receiver's clock.
    fn pop_earliest(&mut self) -> Option<Message> {
        let heads = self.inbox.iter().filter_map(|q| q.front());
        let from = heads
            .min_by(|a, b| a.sent_at_ms.total_cmp(&b.sent_at_ms).then(a.from.cmp(&b.from)))?
            .from;
        let msg = self.inbox[from].pop_front().expect("a head was found");
        Some(self.delivered(msg))
    }

    /// Take out the first queued signal (see [`is_signal`]) `wanted`
    /// accepts, sender-major. `signals` makes the common case — none
    /// queued — free of any walk over the queues.
    fn take_signal(&mut self, wanted: impl Fn(&Message) -> bool) -> Option<Message> {
        if self.signals == 0 {
            return None;
        }
        for from in 0..self.nodes {
            let at = self.inbox[from].iter().position(|m| is_signal(m) && wanted(m));
            if let Some(at) = at {
                let msg = self.inbox[from].remove(at).expect("position is in range");
                return Some(self.delivered(msg));
            }
        }
        None
    }
}

/// A control message that is not part of a data stream: everything but
/// `EndOfStream`. Rare, and the only messages ever taken out of a queue
/// from anywhere but its front.
fn is_signal(msg: &Message) -> bool {
    !matches!(
        msg.payload,
        Payload::Data { .. } | Payload::Control(Control::EndOfStream)
    )
}

fn is_abort(msg: &Message) -> bool {
    matches!(msg.payload, Payload::Control(Control::Abort { .. }))
}

/// The fate the fault stream assigned to one send.
#[derive(Debug, Default, Clone, Copy)]
struct LinkFate {
    drop: bool,
    dup: bool,
    reorder: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::Value;

    fn page_with(n: usize) -> Page {
        let mut p = Page::new(2048);
        for i in 0..n {
            assert!(p.try_push(&[Value::Int(i as i64)]).unwrap());
        }
        p
    }

    #[test]
    fn point_to_point_delivery_carries_timestamp() {
        let mut eps = Fabric::new(2, NetworkKind::HighSpeed { latency_ms: 0.5 }).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        assert_eq!(a.node(), 0);
        assert_eq!(b.node(), 1);

        let done = a.send_data(1, DataKind::Raw, page_with(3), 10.0).unwrap();
        assert_eq!(done, ms_to_ticks(10.5));
        let msg = b.recv().unwrap();
        assert_eq!(msg.from, 0);
        assert_eq!(msg.seq, 0);
        assert_eq!(msg.sent_at_ms, 10.5);
        match msg.payload {
            Payload::Data { kind, page } => {
                assert_eq!(kind, DataKind::Raw);
                assert_eq!(page.tuple_count(), 3);
            }
            _ => panic!("expected data"),
        }
        assert_eq!(a.stats().pages_sent(), 1);
        assert_eq!(b.stats().pages_received, 1);
        assert_eq!(b.stats().tuples_received, 3);
    }

    #[test]
    fn self_send_works() {
        let mut eps = Fabric::new(1, NetworkKind::high_speed_default()).into_endpoints();
        let mut a = eps.pop().unwrap();
        a.send_data(0, DataKind::Partial, page_with(1), 0.0).unwrap();
        let msg = a.recv().unwrap();
        assert_eq!(msg.from, 0);
        assert!(msg.payload.is_data());
    }

    #[test]
    fn broadcast_reaches_everyone_but_self() {
        let mut eps = Fabric::new(3, NetworkKind::high_speed_default()).into_endpoints();
        let mut c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.broadcast_control(Control::EndOfPhase { groups_seen: 7 }, 1.0)
            .unwrap();
        for ep in [&mut b, &mut c] {
            let msg = ep.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(
                msg.payload,
                Payload::Control(Control::EndOfPhase { groups_seen: 7 })
            );
        }
        assert!(a.try_recv().unwrap().is_none(), "broadcast must not loop back");
        assert_eq!(a.stats().control_sent, 2);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let mut eps = Fabric::new(1, NetworkKind::high_speed_default()).into_endpoints();
        let mut a = eps.pop().unwrap();
        assert!(a.try_recv().unwrap().is_none());
    }

    #[test]
    fn shared_bus_timestamps_reflect_contention() {
        let mut eps = Fabric::new(2, NetworkKind::SharedBus { ms_per_page: 2.0 }).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let t1 = a.send_data(1, DataKind::Raw, page_with(1), 0.0).unwrap();
        let t2 = a.send_data(1, DataKind::Raw, page_with(1), 0.0).unwrap();
        assert_eq!(t1, ms_to_ticks(2.0));
        assert_eq!(t2, ms_to_ticks(4.0), "second page waits for the bus");
        assert_eq!(b.recv().unwrap().sent_at_ms, 2.0);
        assert_eq!(b.recv().unwrap().sent_at_ms, 4.0);
    }

    #[test]
    fn cross_thread_delivery() {
        let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let h = std::thread::spawn(move || {
            for i in 0..10 {
                a.send_data(1, DataKind::Raw, page_with(i + 1), i as f64)
                    .unwrap();
            }
            a.send_control(1, Control::EndOfStream, 10.0).unwrap();
        });
        let mut pages = 0;
        loop {
            let msg = b.recv_timeout(Duration::from_secs(5)).unwrap();
            match msg.payload {
                Payload::Data { .. } => pages += 1,
                Payload::Control(Control::EndOfStream) => break,
                _ => panic!("unexpected control"),
            }
        }
        h.join().unwrap();
        assert_eq!(pages, 10);
    }

    #[test]
    fn send_to_dropped_peer_is_a_typed_error() {
        let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        drop(b);
        assert_eq!(
            a.send_data(1, DataKind::Raw, page_with(1), 0.0),
            Err(NetError::PeerDown { peer: 1 })
        );
        assert_eq!(
            a.send_control(1, Control::EndOfStream, 0.0),
            Err(NetError::PeerDown { peer: 1 })
        );
        // A broadcast skips the dead peer instead of failing.
        assert!(a.broadcast_control(Control::EndOfStream, 0.0).is_ok());
    }

    #[test]
    fn recv_timeout_reports_deadline() {
        let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
        let mut b = eps.pop().unwrap();
        let _a = eps.pop().unwrap();
        match b.recv_timeout(Duration::from_millis(20)) {
            Err(NetError::Deadline { waited_ms }) => assert_eq!(waited_ms, 20),
            other => panic!("expected deadline, got {other:?}"),
        }
    }

    #[test]
    fn sequence_numbers_are_per_link() {
        let mut eps = Fabric::new(3, NetworkKind::high_speed_default()).into_endpoints();
        let mut c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send_data(1, DataKind::Raw, page_with(1), 0.0).unwrap();
        a.send_data(2, DataKind::Raw, page_with(1), 0.0).unwrap();
        a.send_data(1, DataKind::Raw, page_with(1), 0.0).unwrap();
        assert_eq!(b.recv().unwrap().seq, 0);
        assert_eq!(b.recv().unwrap().seq, 1);
        assert_eq!(c.recv().unwrap().seq, 0);
    }

    #[test]
    fn duplicates_are_dropped_by_seq() {
        let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // Forge a duplicate by sending the same seq twice on the wire.
        let msg = Message {
            from: 0,
            seq: 0,
            sent_at_ms: 1.0,
            payload: Payload::Data {
                kind: DataKind::Raw,
                page: page_with(2),
            },
        };
        a.push_wire(1, msg.clone()).unwrap();
        a.push_wire(1, msg).unwrap();
        assert!(b.try_recv().unwrap().is_some());
        assert!(b.try_recv().unwrap().is_none(), "duplicate must be dropped");
        assert_eq!(b.stats().dup_dropped, 1);
        assert_eq!(b.stats().pages_received, 1, "dup not counted as received");
    }

    #[test]
    fn out_of_order_arrivals_are_reassembled() {
        let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for seq in [2u64, 0, 1] {
            let msg = Message {
                from: 0,
                seq,
                sent_at_ms: seq as f64,
                payload: Payload::Data {
                    kind: DataKind::Raw,
                    page: page_with(seq as usize + 1),
                },
            };
            a.push_wire(1, msg).unwrap();
        }
        let seqs: Vec<u64> = (0..3).map(|_| b.recv().unwrap().seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "delivery must follow send order");
    }

    fn eps3() -> (Endpoint, Endpoint, Endpoint) {
        let mut eps = Fabric::new(3, NetworkKind::high_speed_default()).into_endpoints();
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        (eps.pop().unwrap(), b, c)
    }

    const SOON: Duration = Duration::from_secs(5);

    #[test]
    fn recv_from_follows_one_sender_and_queues_the_rest() {
        let (mut a, mut b, mut c) = eps3();
        // Interleaved on c's wire: a0 b0 a1 b1 a-eos b-eos.
        for i in 0..2 {
            a.send_data(2, DataKind::Raw, page_with(1 + i), i as f64).unwrap();
            b.send_data(2, DataKind::Raw, page_with(5 + i), i as f64).unwrap();
        }
        a.send_control(2, Control::EndOfStream, 9.0).unwrap();
        b.send_control(2, Control::EndOfStream, 0.0).unwrap();
        // b's stream first although all of a's is older on the wire and
        // a's end-of-stream is stamped later than b's.
        let mut seen = Vec::new();
        for sender in [1usize, 0] {
            loop {
                let msg = c.recv_from(sender, SOON).unwrap();
                assert_eq!(msg.from, sender);
                match msg.payload {
                    Payload::Data { page, .. } => seen.push(page.tuple_count()),
                    Payload::Control(Control::EndOfStream) => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(seen, vec![5, 6, 1, 2]);
        assert_eq!(c.stats().pages_received, 4);
        assert_eq!(c.stats().control_received, 2);
        assert!(c.try_recv().unwrap().is_none(), "nothing delivered twice");
    }

    #[test]
    fn any_sender_receive_takes_the_earliest_head() {
        let (mut a, mut b, mut c) = eps3();
        b.send_control(2, Control::EndOfStream, 3.0).unwrap();
        a.send_control(2, Control::EndOfStream, 3.0).unwrap();
        b.send_control(2, Control::EndOfStream, 1.0).unwrap();
        a.send_control(2, Control::EndOfStream, 2.0).unwrap();
        c.ingest_arrived().unwrap();
        // Heads tie at 3.0: the lower sender wins; then per-link order
        // holds b's 1.0 behind b's 3.0.
        let order: Vec<(usize, f64)> = (0..4)
            .map(|_| c.recv().map(|m| (m.from, m.sent_at_ms)).unwrap())
            .collect();
        assert_eq!(order, vec![(0, 3.0), (0, 2.0), (1, 3.0), (1, 1.0)]);
    }

    fn abort_from(origin: usize) -> Control {
        Control::Abort {
            origin,
            reason: "test".into(),
        }
    }

    #[test]
    fn abort_overtakes_for_recv_from_but_keeps_link_order_otherwise() {
        let (mut a, mut b, mut c) = eps3();
        a.send_data(2, DataKind::Raw, page_with(1), 0.0).unwrap();
        b.send_data(2, DataKind::Raw, page_with(1), 0.0).unwrap();
        b.send_control(2, abort_from(1), 1000.0).unwrap();
        // Waiting on a, which still has a page queued: b's abort is
        // delivered first, from behind b's own page.
        let msg = c.recv_from(0, SOON).unwrap();
        assert_eq!((msg.from, msg.payload), (1, Payload::Control(abort_from(1))));
        assert!(c.recv_from(0, SOON).unwrap().payload.is_data());

        // The any-sender receive leaves an abort in its place on the
        // link (the job protocol's ack barrier relies on per-link order).
        b.send_control(2, abort_from(1), 0.0).unwrap();
        assert!(c.recv().unwrap().payload.is_data(), "b's page precedes b's abort");
        assert_eq!(c.recv().unwrap().payload, Payload::Control(abort_from(1)));
    }

    #[test]
    fn recv_from_deadline_is_not_reset_by_other_senders() {
        let (_a, mut b, mut c) = eps3();
        let chatter = std::thread::spawn(move || {
            for i in 0..40 {
                b.send_data(2, DataKind::Raw, page_with(1), i as f64).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        // a is silent; b delivers every 5 ms for 200 ms.
        assert_eq!(
            c.recv_from(0, Duration::from_millis(60)),
            Err(NetError::Deadline { waited_ms: 60 })
        );
        chatter.join().unwrap();
        // Nothing b sent was lost to the failed wait.
        let queued = (0..40).filter(|_| c.recv_from(1, SOON).is_ok()).count();
        assert_eq!(queued, 40);
    }

    #[test]
    fn poll_control_takes_arrived_controls_and_leaves_the_streams() {
        let (mut a, mut b, mut c) = eps3();
        let phase = |groups_seen| Control::EndOfPhase { groups_seen };
        a.send_data(2, DataKind::Raw, page_with(3), 0.0).unwrap();
        a.send_control(2, phase(7), 4.0).unwrap();
        a.send_control(2, Control::EndOfStream, 5.0).unwrap();
        b.send_control(2, phase(8), 50.0).unwrap();
        // At t = 10 a's EndOfPhase has arrived, from behind a data page;
        // b's (t = 50) has not, and stream traffic is not a poll's.
        let msg = c.poll_control(ms_to_ticks(10.0)).unwrap().expect("a's EndOfPhase");
        assert_eq!((msg.from, msg.payload), (0, Payload::Control(phase(7))));
        assert!(c.poll_control(ms_to_ticks(10.0)).unwrap().is_none());
        assert_eq!(c.stats().pages_received, 0, "the page stays queued");
        assert_eq!(c.poll_control(ms_to_ticks(50.0)).unwrap().unwrap().from, 1);
        // An abort is seen whatever its stamp.
        b.send_control(2, abort_from(1), 1e6).unwrap();
        assert_eq!(c.poll_control(0).unwrap().unwrap().payload, Payload::Control(abort_from(1)));
        // What is left is a's stream, in order.
        assert!(c.recv_from(0, SOON).unwrap().payload.is_data());
        assert_eq!(c.recv_from(0, SOON).unwrap().payload, Payload::Control(Control::EndOfStream));
        assert!(c.try_recv().unwrap().is_none());
    }

    #[test]
    fn drop_fault_delays_but_delivers() {
        let plan = FaultPlan::new(3).with_link_faults(LinkFaults {
            drop_prob: 1.0, // every message is "dropped" (retransmitted)
            ..LinkFaults::default()
        });
        let mut eps =
            Fabric::with_faults(2, NetworkKind::HighSpeed { latency_ms: 0.5 }, &plan)
                .into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let done = a.send_data(1, DataKind::Raw, page_with(1), 0.0).unwrap();
        assert_eq!(done, ms_to_ticks(0.5 + 3.0 * 0.5), "retransmit penalty charged");
        let msg = b.recv().unwrap();
        assert_eq!(msg.sent_at(), done, "late, but delivered exactly once");
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!(a.stats().injected_drops, 1);
    }

    #[test]
    fn dup_fault_is_invisible_after_dedup() {
        let plan = FaultPlan::new(4).with_link_faults(LinkFaults {
            dup_prob: 1.0,
            ..LinkFaults::default()
        });
        let mut eps = Fabric::with_faults(2, NetworkKind::high_speed_default(), &plan)
            .into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for _ in 0..5 {
            a.send_data(1, DataKind::Raw, page_with(1), 0.0).unwrap();
        }
        a.send_control(1, Control::EndOfStream, 0.0).unwrap();
        let mut data = 0;
        loop {
            match b.recv().unwrap().payload {
                Payload::Data { .. } => data += 1,
                Payload::Control(Control::EndOfStream) => break,
                _ => unreachable!(),
            }
        }
        assert_eq!(data, 5, "every page delivered exactly once");
        assert_eq!(a.stats().injected_dups, 6);
        // The duplicate of the final EndOfStream is still on the wire when
        // the loop breaks, so only the five data duplicates were discarded.
        assert_eq!(b.stats().dup_dropped, 5);
    }

    #[test]
    fn reorder_fault_preserves_send_order_after_reassembly() {
        let plan = FaultPlan::new(5).with_link_faults(LinkFaults {
            reorder_prob: 1.0,
            ..LinkFaults::default()
        });
        let mut eps = Fabric::with_faults(2, NetworkKind::high_speed_default(), &plan)
            .into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..6 {
            a.send_data(1, DataKind::Raw, page_with(i + 1), i as f64)
                .unwrap();
        }
        a.send_control(1, Control::EndOfStream, 6.0).unwrap();
        let mut sizes = Vec::new();
        loop {
            match b.recv().unwrap().payload {
                Payload::Data { page, .. } => sizes.push(page.tuple_count()),
                Payload::Control(Control::EndOfStream) => break,
                _ => unreachable!(),
            }
        }
        assert_eq!(sizes, vec![1, 2, 3, 4, 5, 6]);
        assert!(a.stats().injected_reorders > 0);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| -> (u64, u64, u64) {
            let plan = FaultPlan::new(seed).with_link_faults(LinkFaults {
                drop_prob: 0.3,
                dup_prob: 0.3,
                reorder_prob: 0.3,
            });
            let mut eps = Fabric::with_faults(2, NetworkKind::high_speed_default(), &plan)
                .into_endpoints();
            let _b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            for i in 0..50 {
                a.send_data(1, DataKind::Raw, page_with(1), i as f64)
                    .unwrap();
            }
            let s = a.stats();
            (s.injected_drops, s.injected_dups, s.injected_reorders)
        };
        assert_eq!(run(11), run(11), "same seed, same schedule");
        assert_ne!(run(11), run(12), "different seeds differ");
    }

    /// The backoff a send that spends every retry may charge: the
    /// geometric series of steps, each scaled by at most the jitter.
    fn backoff_bounds() -> std::ops::RangeInclusive<u64> {
        let nominal: f64 = (0..RETRY_MAX)
            .map(|i| RETRY_BACKOFF_MS * RETRY_BACKOFF_MULTIPLIER.powi(i as i32))
            .sum();
        ms_to_ticks(nominal * (1.0 - RETRY_JITTER_FRAC))
            ..=ms_to_ticks(nominal * (1.0 + RETRY_JITTER_FRAC))
    }

    #[test]
    fn retry_policy_probes_a_dead_peer_then_escalates() {
        let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.set_retry(true);
        drop(b);
        assert_eq!(
            a.send_data(1, DataKind::Raw, page_with(1), 0.0),
            Err(NetError::PeerDown { peer: 1 }),
            "a permanently dead peer still escalates"
        );
        assert_eq!(a.stats().send_retries, RETRY_MAX as u64);
        assert!(
            backoff_bounds().contains(&a.take_retry_backoff()),
            "exponential backoff"
        );
        assert_eq!(a.take_retry_backoff(), 0, "drained");
    }

    #[test]
    fn retry_jitter_is_bounded_and_deterministic_per_seed() {
        // Each backoff step is scaled into [1-j, 1+j] by a draw from the
        // endpoint's seeded stream: bounded (never a wild wait),
        // de-correlated across nodes (no lockstep bursts), and fully
        // reproducible per fault-plan seed.
        let probe = |plan_seed: u64| -> u64 {
            let plan = FaultPlan::new(plan_seed);
            let mut eps =
                Fabric::with_faults(2, NetworkKind::high_speed_default(), &plan).into_endpoints();
            let b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            a.set_retry(true);
            drop(b);
            assert_eq!(
                a.send_data(1, DataKind::Raw, page_with(1), 0.0),
                Err(NetError::PeerDown { peer: 1 })
            );
            a.take_retry_backoff()
        };
        let total = probe(9);
        assert!(backoff_bounds().contains(&total), "got {total}");
        assert_eq!(probe(9), total, "same seed, same jitter");
        assert_ne!(probe(10), total, "different seeds de-correlate");
    }

    #[test]
    fn retry_jitter_differs_across_nodes_under_one_plan() {
        // Two endpoints of the same fabric probing dead peers must draw
        // different jitter (per-node streams) — that is the point of
        // de-correlating retries.
        let plan = FaultPlan::new(77);
        let mut eps =
            Fabric::with_faults(3, NetworkKind::high_speed_default(), &plan).into_endpoints();
        let c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.set_retry(true);
        b.set_retry(true);
        drop(c);
        let _ = a.send_data(2, DataKind::Raw, page_with(1), 0.0);
        let _ = b.send_data(2, DataKind::Raw, page_with(1), 0.0);
        assert_ne!(
            a.take_retry_backoff(),
            b.take_retry_backoff(),
            "nodes must not retry in lockstep"
        );
    }

    #[test]
    fn no_retry_policy_fails_fast_with_zero_cost() {
        let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        drop(b);
        assert_eq!(
            a.send_data(1, DataKind::Raw, page_with(1), 0.0),
            Err(NetError::PeerDown { peer: 1 })
        );
        assert_eq!(a.stats().send_retries, 0);
        assert_eq!(a.take_retry_backoff(), 0);
    }

    #[test]
    fn retry_policy_is_invisible_on_healthy_links() {
        let mut eps = Fabric::new(2, NetworkKind::HighSpeed { latency_ms: 0.5 }).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.set_retry(true);
        let done = a.send_data(1, DataKind::Raw, page_with(1), 1.0).unwrap();
        assert_eq!(done, ms_to_ticks(1.5), "timestamps identical to the no-policy path");
        assert_eq!(b.recv().unwrap().sent_at_ms, 1.5);
        assert_eq!(a.stats().send_retries, 0);
        assert_eq!(a.take_retry_backoff(), 0);
    }

    #[test]
    fn link_stats_attribute_traffic_per_destination() {
        let mut eps = Fabric::new(3, NetworkKind::high_speed_default()).into_endpoints();
        let _c = eps.pop().unwrap();
        let _b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send_data(1, DataKind::Raw, page_with(3), 0.0).unwrap();
        a.send_data(1, DataKind::Raw, page_with(2), 0.0).unwrap();
        a.send_data(2, DataKind::Partial, page_with(1), 0.0).unwrap();
        a.send_control(2, Control::EndOfStream, 0.0).unwrap();
        let to1 = *a.link_stats(1);
        let to2 = *a.link_stats(2);
        assert_eq!((to1.msgs, to1.pages, to1.tuples), (2, 2, 5));
        assert_eq!((to2.msgs, to2.pages, to2.tuples), (2, 1, 1));
        assert!(to1.bytes > to2.bytes);
        assert_eq!(a.link_stats(0).msgs, 0, "no self traffic sent");
        // Aggregate stats stay consistent with the per-link split.
        assert_eq!(a.stats().pages_sent(), to1.pages + to2.pages);
    }

    #[test]
    fn link_stats_count_drops_and_retries() {
        let plan = FaultPlan::new(3).with_link_faults(LinkFaults {
            drop_prob: 1.0,
            ..LinkFaults::default()
        });
        let mut eps = Fabric::with_faults(2, NetworkKind::high_speed_default(), &plan)
            .into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send_data(1, DataKind::Raw, page_with(1), 0.0).unwrap();
        assert_eq!(a.link_stats(1).drops, 1);
        a.set_retry(true);
        drop(b);
        let _ = a.send_data(1, DataKind::Raw, page_with(1), 0.0);
        assert_eq!(a.link_stats(1).retries, RETRY_MAX as u64);
    }

    #[test]
    fn fault_free_plan_adds_nothing() {
        // With FaultPlan::none() the fabric must behave byte-identically
        // to the pre-injection fabric: same timestamps, no fault stats.
        let mut eps = Fabric::new(2, NetworkKind::HighSpeed { latency_ms: 0.5 }).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let done = a.send_data(1, DataKind::Raw, page_with(1), 1.0).unwrap();
        assert_eq!(done, ms_to_ticks(1.5));
        assert_eq!(b.recv().unwrap().sent_at_ms, 1.5);
        let s = a.stats();
        assert_eq!(
            (s.injected_drops, s.injected_dups, s.injected_reorders),
            (0, 0, 0)
        );
    }
}
