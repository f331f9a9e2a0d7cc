//! Node context: one node's view of the cluster.

use crate::clock::Clock;
use crate::error::ExecError;
use crate::recovery::RecoverySession;
use adaptagg_model::{CostEvent, CostParams, CostTracker, MemoryGrant};
use adaptagg_net::{Control, DataKind, Endpoint, Message, NetError, NetStats, NodeFaults, Payload};
use adaptagg_obs::{LinkTrace, NodeTrace, NodeTraceReport, PhaseKind, SwitchCause, TraceEvent};
use adaptagg_storage::{Page, PagePool, SimDisk};
use std::time::Duration;

/// Default real-time receive deadline — generous: virtual time is cheap,
/// so a healthy run never comes close, while a genuinely wedged protocol
/// surfaces [`ExecError::Watchdog`] instead of hanging the process.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// Everything an algorithm touches on one node: identity, virtual clock,
/// private disk, and the network endpoint. All messaging goes through this
/// type so that protocol CPU (`m_p`) and transfer time are charged the same
/// way by every algorithm — and so failure handling is uniform: sends and
/// receives return [`ExecError`]s, an incoming [`Control::Abort`] is turned
/// into [`ExecError::Aborted`] before any algorithm sees it, and the
/// real-time watchdog bounds every blocking receive.
#[derive(Debug)]
pub struct NodeCtx {
    id: usize,
    nodes: usize,
    /// The node's virtual clock. Public: operators and the hashagg layer
    /// take `&mut ctx.clock` as their `CostTracker`.
    pub clock: Clock,
    /// The node's private disk.
    pub disk: SimDisk,
    /// Recycled message/page buffers for the node's hot paths. Sealed
    /// message pages draw replacements from here and consumed receive
    /// pages are returned, up to the pool's cap. A node receives nothing
    /// while it scans, so phase 1's message pages are all fresh
    /// allocations, and the merge frees the pages past the cap as it
    /// consumes them (see `adaptagg_storage::pool`). Wall-clock only —
    /// never affects cost events or virtual time.
    pub page_pool: PagePool,
    /// The node's recovery context, when the run has a
    /// [`crate::recovery::RecoveryPolicy`]: partition layout, shared
    /// checkpoint store, and recovery counters. `None` (the default)
    /// means fail-stop semantics — algorithms must not checkpoint.
    pub recovery: Option<RecoverySession>,
    /// The node's trace handle. Disabled (the default) it is a bare
    /// `None`: every tracing call is an early-return branch — no heap,
    /// no clock reads, no cost events — so observability cannot move a
    /// single virtual-time figure (see `adaptagg-obs`).
    pub trace: NodeTrace,
    endpoint: Endpoint,
    faults: NodeFaults,
    tuples_scanned: u64,
    watchdog: Duration,
    /// This node's live memory grant for the running query (unlimited by
    /// default). The serving layer's broker holds the other handle and
    /// may shrink it mid-run; aggregation operators attach it to their
    /// hash tables so the revocation degrades them gracefully.
    grant: MemoryGrant,
}

impl NodeCtx {
    /// Assemble a node context (used by the cluster runtime).
    pub fn new(endpoint: Endpoint, disk: SimDisk, params: CostParams) -> Self {
        NodeCtx {
            id: endpoint.node(),
            nodes: endpoint.nodes(),
            clock: Clock::new(params),
            disk,
            page_pool: PagePool::new(),
            recovery: None,
            trace: NodeTrace::off(),
            endpoint,
            faults: NodeFaults::default(),
            tuples_scanned: 0,
            watchdog: DEFAULT_WATCHDOG,
            grant: MemoryGrant::unlimited(),
        }
    }

    /// Install this node's live memory grant (the cluster runtime calls
    /// this when the run carries per-node grants).
    pub fn set_grant(&mut self, grant: MemoryGrant) {
        self.grant = grant;
    }

    /// This node's live memory grant (unlimited unless a broker holds
    /// the other handle). Operators clone it into their hash tables.
    pub fn grant(&self) -> &MemoryGrant {
        &self.grant
    }

    /// Retry failed sends with bounded backoff (on under a
    /// [`crate::recovery::RecoveryPolicy`]; off keeps fail-fast).
    pub fn set_link_retry(&mut self, on: bool) {
        self.endpoint.set_retry(on);
    }

    /// Apply a fault plan's per-node faults: the slowdown inflates the
    /// clock from now on; the crash point arms [`NodeCtx::fault_tick`].
    pub fn apply_faults(&mut self, faults: NodeFaults) {
        self.clock.set_slowdown(faults.slowdown_factor);
        self.faults = faults;
    }

    /// Set the real-time receive deadline (tests use short ones).
    pub fn set_watchdog(&mut self, timeout: Duration) {
        self.watchdog = timeout;
    }

    /// Count one scanned tuple against the node's crash schedule. The scan
    /// operator calls it for the tuple past the crash budget; returns
    /// [`ExecError::InjectedCrash`] once the scheduled crash point is
    /// reached. A plan without a crash for this node never fails.
    pub fn fault_tick(&mut self) -> Result<(), ExecError> {
        self.tuples_scanned += 1;
        match self.faults.crash_at_tuple {
            Some(k) if self.tuples_scanned > k => Err(ExecError::InjectedCrash {
                node: self.id,
                at_tuple: k,
            }),
            _ => Ok(()),
        }
    }

    /// Tuples this node may still scan before its scheduled crash (`None`
    /// = no crash scheduled): [`NodeCtx::fault_tick`] fails on the tick
    /// after this many more.
    fn crash_budget(&self) -> Option<u64> {
        self.faults
            .crash_at_tuple
            .map(|k| k.saturating_sub(self.tuples_scanned))
    }

    /// Dismantle the context, handing back its endpoint. The cluster
    /// binaries run one recovery attempt per context but hold a single
    /// established connection mesh for the life of the process; this is
    /// how the mesh survives the context.
    pub fn into_endpoint(self) -> Endpoint {
        self.endpoint
    }

    /// This node's id (`0..nodes`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Cost parameters (convenience for `self.clock.params()`).
    pub fn params(&self) -> &CostParams {
        self.clock.params()
    }

    /// Network statistics so far.
    pub fn net_stats(&self) -> &NetStats {
        self.endpoint.stats()
    }

    /// Enable span/event tracing on this node (used by the cluster
    /// runtime when the run is traced).
    pub fn enable_trace(&mut self) {
        self.trace = NodeTrace::on(self.id);
    }

    /// `[cpu, io, net, wait]` snapshot in ms for span bookkeeping.
    fn breakdown_snapshot(&self) -> [f64; 4] {
        let b = self.clock.breakdown();
        [b.cpu_ms, b.io_ms, b.net_ms, b.wait_ms]
    }

    /// Run `f` inside a `phase` span: the one place a phase opens and
    /// closes. The span closes when `f` returns, whatever it returns, so
    /// an error leaves no span open. Spans nest. With tracing disabled
    /// this is a call of `f`; enabled, it reads the clock but never
    /// charges it.
    #[inline]
    pub fn in_span<T>(&mut self, phase: PhaseKind, f: impl FnOnce(&mut NodeCtx) -> T) -> T {
        if self.trace.enabled() {
            let (now, bd) = (self.clock.now_ms(), self.breakdown_snapshot());
            self.trace.span_start(phase, now, bd);
        }
        let out = f(self);
        if self.trace.enabled() {
            let (now, bd) = (self.clock.now_ms(), self.breakdown_snapshot());
            self.trace.span_end(now, bd);
        }
        out
    }

    /// Record an adaptive strategy switch as a first-class trace event,
    /// stamped with the node's current virtual time (no-op when
    /// disabled).
    pub fn trace_switch(&mut self, cause: SwitchCause, at_tuple: u64) {
        if self.trace.enabled() {
            let at_ms = self.clock.now_ms();
            self.trace.event(TraceEvent::StrategySwitch {
                at_ms,
                cause,
                at_tuple,
            });
        }
    }

    /// Record the sampling algorithm's decision as a trace event (no-op
    /// when disabled).
    pub fn trace_sampling_decision(&mut self, use_repartitioning: bool, groups_in_sample: u64) {
        if self.trace.enabled() {
            let at_ms = self.clock.now_ms();
            self.trace.event(TraceEvent::SamplingDecision {
                at_ms,
                use_repartitioning,
                groups_in_sample,
            });
        }
    }

    /// Consume the node's trace into a report, harvesting per-link
    /// traffic totals from the fabric. Returns `None` when disabled.
    pub fn finish_trace(&mut self) -> Option<NodeTraceReport> {
        if self.trace.enabled() {
            let links: Vec<LinkTrace> = (0..self.nodes)
                .filter(|&to| to != self.id)
                .map(|to| {
                    let s = self.endpoint.link_stats(to);
                    LinkTrace {
                        to,
                        msgs: s.msgs,
                        pages: s.pages,
                        bytes: s.bytes,
                        tuples: s.tuples,
                        retries: s.retries,
                        drops: s.drops,
                    }
                })
                .filter(|l| l.msgs > 0)
                .collect();
            self.trace.set_links(links);
        }
        let now = self.clock.now_ms();
        let bd = self.breakdown_snapshot();
        self.trace.finish(now, bd)
    }

    /// Total busy time of the shared network medium so far (0 under the
    /// high-speed model).
    pub fn bus_busy_ms(&self) -> f64 {
        self.endpoint.network().total_busy_ms()
    }

    /// Send one message page of tuples to `to`, charging sender-side
    /// protocol cost (`m_p`) and occupying the node until the transfer
    /// completes (`m_l` / shared-bus wait). Fails with
    /// [`ExecError::Net`] if the peer is already gone.
    pub fn send_page(&mut self, to: usize, kind: DataKind, page: Page) -> Result<(), ExecError> {
        let traced_tuples = if self.trace.enabled() {
            Some(page.tuple_count() as u64)
        } else {
            None
        };
        self.clock.record(CostEvent::MsgProtocol, 1);
        let result = self.endpoint.send_data(to, kind, page, self.clock.now_ms());
        self.charge_retry_backoff();
        let done = result?;
        self.clock.advance_net_to(done);
        if let Some(n) = traced_tuples {
            self.trace.counter_add("exchange.pages_sent", 1);
            self.trace.histogram_record("exchange.page_tuples", n);
        }
        Ok(())
    }

    /// Send a control message (free: piggy-backed per §3.3).
    pub fn send_control(&mut self, to: usize, control: Control) -> Result<(), ExecError> {
        let result = self.endpoint.send_control(to, control, self.clock.now_ms());
        self.charge_retry_backoff();
        result?;
        Ok(())
    }

    /// Broadcast a control message to all other nodes (peers that already
    /// died are skipped — see `Endpoint::broadcast_control`).
    pub fn broadcast_control(&mut self, control: Control) -> Result<(), ExecError> {
        let now = self.clock.now_ms();
        let result = self.endpoint.broadcast_control(control, now);
        self.charge_retry_backoff();
        result?;
        Ok(())
    }

    /// Book the virtual backoff accrued by link retries (zero — and a
    /// no-op — unless a retry policy is set and a send actually failed).
    fn charge_retry_backoff(&mut self) {
        let backoff = self.endpoint.take_retry_backoff();
        self.clock.observe(self.clock.now() + backoff);
    }

    /// What every receive does with a message once the endpoint hands it
    /// over — which is when it is *consumed*, however long it sat queued:
    /// an [`Control::Abort`] becomes the error that propagates its
    /// origin's failure before any algorithm-level match sees it; anything
    /// else is observed (Lamport), and a data page charged receiver-side
    /// protocol cost.
    fn account(&mut self, received: Result<Message, NetError>) -> Result<Message, ExecError> {
        let msg = received.map_err(|e| match e {
            NetError::Deadline { waited_ms } => ExecError::Watchdog {
                node: self.id,
                waited_ms,
            },
            other => ExecError::Net(other),
        })?;
        if let Payload::Control(Control::Abort { origin, reason }) = msg.payload {
            return Err(ExecError::Aborted { origin, reason });
        }
        self.clock.observe(msg.sent_at());
        if msg.payload.is_data() {
            self.clock.record(CostEvent::MsgProtocol, 1);
        }
        Ok(msg)
    }

    /// Blocking receive of the next message from `sender`, in the order
    /// it sent them — the receive every phase of every algorithm is built
    /// on. Other senders' arrivals stay queued in the endpoint, unobserved
    /// and uncharged, until they are asked for in turn, so the node's
    /// virtual time is a function of what was sent, never of how the
    /// senders' threads interleaved: each receive is a Lamport
    /// observation — a max — between charges, and a max does not commute
    /// with the sum, so observing in arrival order would imprint the
    /// schedule on the clock. Bounded by the real-time watchdog, however
    /// much other senders deliver meanwhile; an abort from *anyone*
    /// surfaces at once as [`ExecError::Aborted`].
    pub fn recv_from(&mut self, sender: usize) -> Result<Message, ExecError> {
        let received = self.endpoint.recv_from(sender, self.watchdog);
        self.account(received)
    }

    /// Blocking receive of the next arrival from anyone, with the same
    /// accounting. Which message that is depends on what has physically
    /// arrived: for harnesses and tests, not for algorithms.
    pub fn recv(&mut self) -> Result<Message, ExecError> {
        let received = self.endpoint.recv_timeout(self.watchdog);
        self.account(received)
    }

    /// Non-blocking look for a control message other than `EndOfStream`
    /// that has *virtually arrived* by the node's current time, taken out
    /// of wherever it is queued; data pages and stream ends stay for
    /// [`NodeCtx::recv_streams`]. Nothing is charged and the clock does
    /// not move: a poll cannot see the future (see
    /// `Endpoint::poll_control`), so there is nothing to observe. An
    /// incoming abort surfaces as [`ExecError::Aborted`] even if its
    /// virtual timestamp is in the future — failure propagation must not
    /// wait on simulated time.
    pub fn poll_control(&mut self) -> Result<Option<Message>, ExecError> {
        let polled = self.endpoint.poll_control(self.clock.now())?;
        polled.map(|msg| self.account(Ok(msg))).transpose()
    }

    /// Consume every node's stream to this one: for sender `0..nodes`,
    /// [`NodeCtx::recv_from`] it until its `EndOfStream` (every node,
    /// this one included, must send one — keeping the protocol uniform).
    /// `on_page` gets each data page, `on_control` any other control
    /// message a stream carries; an error from either ends the loop.
    pub fn recv_streams<FD, FC>(&mut self, mut on_page: FD, mut on_control: FC) -> Result<(), ExecError>
    where
        FD: FnMut(&mut NodeCtx, DataKind, Page) -> Result<(), ExecError>,
        FC: FnMut(Control) -> Result<(), ExecError>,
    {
        for sender in 0..self.nodes {
            loop {
                match self.recv_from(sender)?.payload {
                    Payload::Data { kind, page } => on_page(self, kind, page)?,
                    Payload::Control(Control::EndOfStream) => break,
                    Payload::Control(control) => on_control(control)?,
                }
            }
        }
        Ok(())
    }
}

/// A scan on the node thread charges the node's clock, and every scanned
/// tuple counts against the node's crash schedule.
impl crate::operators::ScanCharge for NodeCtx {
    fn page_read(&mut self) {
        self.clock.record(CostEvent::PageReadSeq, 1);
    }

    fn crash_budget(&self) -> Option<u64> {
        NodeCtx::crash_budget(self)
    }

    fn batch_scanned(&mut self, rows: usize) {
        self.tuples_scanned += rows as u64;
    }

    fn crash_tick(&mut self) -> Result<(), ExecError> {
        self.fault_tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{NetworkKind, Value};
    use adaptagg_net::Fabric;
    use adaptagg_storage::HeapFile;

    fn two_nodes(kind: NetworkKind) -> (NodeCtx, NodeCtx) {
        let mut eps = Fabric::new(2, kind).into_endpoints();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let params = CostParams::paper_default();
        (
            NodeCtx::new(a, SimDisk::new(), params.clone()),
            NodeCtx::new(b, SimDisk::new(), params),
        )
    }

    fn page_of(n: usize) -> Page {
        let mut p = Page::new(2048);
        for i in 0..n {
            assert!(p.try_push(&[Value::Int(i as i64)]).unwrap());
        }
        p
    }

    #[test]
    fn send_charges_protocol_and_transfer() {
        let (mut a, mut b) = two_nodes(NetworkKind::HighSpeed { latency_ms: 0.5 });
        a.send_page(1, DataKind::Raw, page_of(3)).unwrap();
        // m_p = 0.025 ms cpu, then 0.5 ms transfer.
        assert_eq!(a.clock.now(), 525_000_000);
        assert_eq!(a.clock.breakdown().net_ms, 0.5);

        let msg = b.recv().unwrap();
        // Receiver observed the timestamp (0.525) and charged its m_p.
        assert_eq!(b.clock.now(), 550_000_000);
        assert_eq!(b.clock.breakdown().wait_ms, 0.525);
        assert!(msg.payload.is_data());
    }

    #[test]
    fn control_messages_are_free() {
        let (mut a, mut b) = two_nodes(NetworkKind::high_speed_default());
        a.send_control(1, Control::EndOfStream).unwrap();
        assert_eq!(a.clock.now_ms(), 0.0);
        let msg = b.recv().unwrap();
        assert_eq!(b.clock.now_ms(), 0.0);
        assert!(matches!(msg.payload, Payload::Control(Control::EndOfStream)));
    }

    fn three_nodes() -> (NodeCtx, NodeCtx, NodeCtx) {
        let params = CostParams::paper_default();
        let mut ctxs = Fabric::new(3, NetworkKind::HighSpeed { latency_ms: 0.5 })
            .into_endpoints()
            .into_iter()
            .map(|ep| NodeCtx::new(ep, SimDisk::new(), params.clone()));
        (ctxs.next().unwrap(), ctxs.next().unwrap(), ctxs.next().unwrap())
    }

    #[test]
    fn recv_streams_consumes_sender_by_sender_whatever_arrived_first() {
        let (mut a, mut b, mut c) = three_nodes();
        // On c's wire: b1 a1 b2 a2, then the three stream ends. b runs
        // far ahead of a in virtual time.
        b.clock.observe(100 * adaptagg_model::TICKS_PER_MS);
        for n in 1..=2 {
            b.send_page(2, DataKind::Partial, page_of(10 + n)).unwrap();
            a.send_page(2, DataKind::Partial, page_of(n)).unwrap();
        }
        for ctx in [&mut b, &mut a] {
            ctx.send_control(2, Control::EndOfStream).unwrap();
        }
        c.send_control(2, Control::EndOfStream).unwrap(); // self-EOS

        // (tuples on the page, c's clock when it is consumed)
        let mut pages: Vec<(usize, f64)> = Vec::new();
        c.recv_streams(
            |ctx, kind, page| {
                assert_eq!(kind, DataKind::Partial);
                pages.push((page.tuple_count(), ctx.clock.now_ms()));
                Ok(())
            },
            |_| panic!("no control but the stream ends was sent"),
        )
        .unwrap();
        let sizes: Vec<usize> = pages.iter().map(|p| p.0).collect();
        assert_eq!(sizes, vec![1, 2, 11, 12], "a's stream, then b's");
        // a's pages are consumed at a's early stamps, not after b's
        // t > 100 ones that arrived before them: queued messages are
        // neither observed nor charged.
        assert!(pages[1].1 < 2.0, "a's second page consumed at {}", pages[1].1);
        assert!(pages[2].1 > 100.0);
        assert_eq!(c.net_stats().pages_received, 4);
    }

    #[test]
    fn recv_streams_routes_other_controls() {
        let (mut a, mut b) = two_nodes(NetworkKind::high_speed_default());
        a.send_control(1, Control::EndOfPhase { groups_seen: 3 }).unwrap();
        a.send_control(1, Control::EndOfStream).unwrap();
        b.send_control(1, Control::EndOfStream).unwrap();
        let mut phases = 0;
        b.recv_streams(
            |_, _, _| Ok(()),
            |c| {
                assert!(matches!(c, Control::EndOfPhase { groups_seen: 3 }));
                phases += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(phases, 1);

        // What `on_control` refuses ends the loop with its error.
        a.send_control(1, Control::EndOfPhase { groups_seen: 0 }).unwrap();
        let refused = b.recv_streams(|_, _, _| Ok(()), |_| Err(ExecError::Protocol("refused")));
        assert_eq!(refused, Err(ExecError::Protocol("refused")));
    }

    #[test]
    fn abort_from_a_sender_not_waited_on_surfaces_at_once() {
        let (_a, mut b, mut c) = three_nodes();
        c.set_watchdog(Duration::from_secs(20));
        // c waits on a, which stays silent; b fails behind a page of its own.
        b.send_page(2, DataKind::Raw, page_of(1)).unwrap();
        b.send_control(
            2,
            Control::Abort {
                origin: 1,
                reason: "disk on fire".into(),
            },
        )
        .unwrap();
        let started = std::time::Instant::now();
        match c.recv_streams(|_, _, _| Ok(()), |_| Ok(())) {
            Err(ExecError::Aborted { origin: 1, reason }) => assert!(reason.contains("on fire")),
            other => panic!("expected Aborted, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(10), "did not wait out the watchdog");
        assert_eq!(c.clock.now_ms(), 0.0, "b's queued page was never observed");
    }

    #[test]
    fn watchdog_fires_on_a_silent_sender_while_another_keeps_sending() {
        let (_a, mut b, mut c) = three_nodes();
        c.set_watchdog(Duration::from_millis(60));
        let chatter = std::thread::spawn(move || {
            for _ in 0..40 {
                b.send_page(2, DataKind::Raw, page_of(1)).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        assert_eq!(
            c.recv_from(0),
            Err(ExecError::Watchdog {
                node: 2,
                waited_ms: 60
            })
        );
        chatter.join().unwrap();
    }

    #[test]
    fn poll_respects_virtual_arrival_and_leaves_data_queued() {
        // A poll must not see messages whose transfer completes in the
        // receiver's virtual future (the causality rule ARep relies on),
        // and takes controls only.
        let (mut a, mut b) = two_nodes(NetworkKind::HighSpeed { latency_ms: 5.0 });
        a.send_page(1, DataKind::Raw, page_of(1)).unwrap(); // arrives at t = 5+m_p
        a.send_control(1, Control::EndOfPhase { groups_seen: 2 }).unwrap();
        assert!(
            b.poll_control().unwrap().is_none(),
            "b at t=0 must not see a t=5 control"
        );
        // Advance b's virtual clock past the arrival: now visible, from
        // behind the page, at no charge.
        b.clock.record(adaptagg_model::CostEvent::PageReadRand, 1); // +15ms
        let before = b.clock.now_ms();
        assert_eq!(
            b.poll_control().unwrap().map(|msg| msg.payload),
            Some(Payload::Control(Control::EndOfPhase { groups_seen: 2 }))
        );
        assert!(b.poll_control().unwrap().is_none());
        assert_eq!(b.clock.now_ms(), before);
        assert_eq!(b.net_stats().pages_received, 0);
        // The page is charged when the stream is consumed.
        assert!(b.recv_from(0).unwrap().payload.is_data());
        assert!(b.clock.now_ms() > before);
    }

    #[test]
    fn blocking_recv_delivers_the_future_and_waits() {
        let (mut a, mut b) = two_nodes(NetworkKind::HighSpeed { latency_ms: 5.0 });
        a.send_page(1, DataKind::Raw, page_of(1)).unwrap();
        // A poll files the message; a blocking receive must still
        // deliver it (waiting until its virtual arrival).
        assert!(b.poll_control().unwrap().is_none());
        let msg = b.recv_from(0).unwrap();
        assert!(msg.payload.is_data());
        assert!(b.clock.now_ms() >= 5.0);
        assert!(b.clock.breakdown().wait_ms > 0.0);
    }

    #[test]
    fn abort_surfaces_as_error_on_recv_and_poll() {
        let (mut a, mut b) = two_nodes(NetworkKind::high_speed_default());
        a.send_control(
            1,
            Control::Abort {
                origin: 0,
                reason: "test failure".into(),
            },
        )
        .unwrap();
        match b.recv() {
            Err(crate::ExecError::Aborted { origin, reason }) => {
                assert_eq!(origin, 0);
                assert!(reason.contains("test failure"));
            }
            other => panic!("expected Aborted, got {other:?}"),
        }

        // Polls see aborts too, even with a future-stamped abort: failure
        // propagation must not wait on virtual time.
        let (mut a, mut b) = two_nodes(NetworkKind::HighSpeed { latency_ms: 5.0 });
        a.clock.observe(1000 * adaptagg_model::TICKS_PER_MS); // a is far ahead in virtual time
        a.send_control(
            1,
            Control::Abort {
                origin: 0,
                reason: "late".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            b.poll_control(),
            Err(crate::ExecError::Aborted { origin: 0, .. })
        ));
    }

    #[test]
    fn watchdog_turns_silence_into_typed_error() {
        let (_a, mut b) = two_nodes(NetworkKind::high_speed_default());
        b.set_watchdog(std::time::Duration::from_millis(30));
        match b.recv() {
            Err(crate::ExecError::Watchdog { node, waited_ms }) => {
                assert_eq!(node, 1);
                assert_eq!(waited_ms, 30);
            }
            other => panic!("expected Watchdog, got {other:?}"),
        }
    }

    #[test]
    fn fault_tick_crashes_at_the_scheduled_tuple() {
        let (mut a, _b) = two_nodes(NetworkKind::high_speed_default());
        a.apply_faults(adaptagg_net::NodeFaults {
            crash_at_tuple: Some(3),
            slowdown_factor: 1.0,
        });
        for _ in 0..3 {
            a.fault_tick().unwrap();
        }
        assert_eq!(
            a.fault_tick(),
            Err(crate::ExecError::InjectedCrash {
                node: 0,
                at_tuple: 3
            })
        );
    }

    #[test]
    fn benign_faults_never_tick() {
        let (mut a, _b) = two_nodes(NetworkKind::high_speed_default());
        for _ in 0..10_000 {
            a.fault_tick().unwrap();
        }
    }

    #[test]
    fn node_identity_and_disk() {
        let (mut a, b) = two_nodes(NetworkKind::high_speed_default());
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(a.nodes(), 2);
        a.disk.put("base", HeapFile::with_default_pages());
        assert!(a.disk.get("base").is_ok());
    }
}
