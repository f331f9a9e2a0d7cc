//! Algorithm-level pins for the algorithms whose scan side adapts or
//! forwards — Optimized 2P, Broadcast, A-2P and A-Rep — and for Sort-2P,
//! whose local phase sorts and merges runs.
//!
//! Each case runs one algorithm's `run_node` on every node of a small
//! in-process cluster whose wire is tapped, and pins, per node: the clock
//! in ticks, every message it sent (destination, send timestamp in ticks
//! and tuples, as a count and a digest), its `NetStats`, its adaptive
//! events (or the error it ended with) and its result rows (a count and a
//! digest of the rows sorted by key). The cases cover 1, 2 and 4 nodes, `Int`
//! data under an `Int` filter and the same query with an always-true
//! `Str` conjunct, A-Rep without a fallback (its scan cut at every poll),
//! falling back locally and falling back by contagion, and a crash
//! scheduled inside a page the scan is routing.
//!
//! A-Rep's contagion is physically timed (a peer's `EndOfPhase` is seen by
//! the first poll after it has arrived), so those cases pin only what the
//! local decider did before its merge phase — its sends, their stamps, its
//! sender-side traffic and its events — plus every node's result rows and
//! the kind of every node's events; the rest reads as zero. Their wire holds
//! each other node's first data send until node 0's `EndOfPhase` to it is
//! sent, so every such node falls back by contagion however the threads are
//! scheduled (a node that finished its scan first would not).
//!
//! The constants were captured by `print_algo_pins` on the commit before
//! the scan became batch-only (bef6c28), and are never edited: a change to
//! the scan or its sinks must reproduce them. The one exception is the row
//! digests. They used to hash rows in emission order, which became key
//! order when the group store began handing results out sorted. Each now
//! hashes the node's rows sorted by key, and was re-captured with that
//! sort on the commit before the change (ef391ad). The row counts and
//! every other field are bef6c28's. `bcast_2_spill`, added with the batched
//! Broadcast merge, was captured whole on the commit before it (6f97804).
//! The `sort2p_*` cases were captured whole on 1b01dc3, before the run
//! sorts and the run merge were rewritten; `sort2p_2_many_runs` merges
//! hundreds of runs a node.
//!
//! Capture tool: cargo test --test algo_pins print_algo_pins -- --ignored --nocapture

use adaptagg::algos::common::QueryPlan;
use adaptagg::algos::{run_algorithm, AlgoConfig, AlgorithmKind, NodeOutcome};
use adaptagg::exec::{ClusterConfig, ExecError, NodeCtx, NodeFaults};
use adaptagg::model::encode::encode_tuple;
use adaptagg::model::query::sort_rows;
use adaptagg::model::{AggQuery, Compare, CostParams, Predicate, Value};
use adaptagg::net::{
    ChannelTransport, Control, Endpoint, FaultPlan, Message, NetError, NetStats, Network, Payload,
    SendFailure, Transport,
};
use adaptagg::storage::{HeapFile, SimDisk};
use adaptagg::workload::{default_query, generate_partitions, RelationSpec};
use std::borrow::Cow;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Every message a node put on the wire: destination, send timestamp in
/// ticks, data tuples (0 for a control).
type Sent = Arc<Mutex<Vec<(usize, u64, usize)>>>;

/// Per node: whether node 0's `EndOfPhase` to it is on the wire yet.
type Gate = Arc<(Mutex<Vec<bool>>, Condvar)>;

/// The in-process wire, recording each send. In a contagion case it also
/// holds each other node's first data send until node 0's `EndOfPhase` to
/// that node is on the wire, so the node's next poll always meets the
/// fallback — however far the thread schedule let its scan run ahead of
/// node 0's.
#[derive(Debug)]
struct Tap {
    wire: ChannelTransport,
    sent: Sent,
    gate: Option<Gate>,
}

impl Tap {
    /// Open node `to`'s gate, once node 0's `EndOfPhase` to it is sent.
    fn open(gate: &Gate, to: usize) {
        let (open, changed) = &**gate;
        open.lock().unwrap()[to] = true;
        changed.notify_all();
    }

    /// Wait until node `node`'s gate is open (a bounded wait: a node 0 that
    /// never falls back fails the pins, it does not hang the test).
    fn wait(gate: &Gate, node: usize) {
        let (open, changed) = &**gate;
        let guard = open.lock().unwrap();
        let timeout = Duration::from_secs(30);
        drop(changed.wait_timeout_while(guard, timeout, |open| !open[node]).unwrap());
    }
}

impl Transport for Tap {
    fn node(&self) -> usize {
        self.wire.node()
    }

    fn nodes(&self) -> usize {
        self.wire.nodes()
    }

    fn send(&mut self, to: usize, msg: Message) -> Result<(), SendFailure> {
        let node = self.wire.node();
        let tuples = match &msg.payload {
            Payload::Data { page, .. } => page.tuple_count(),
            Payload::Control(_) => 0,
        };
        let fallback = matches!(msg.payload, Payload::Control(Control::EndOfPhase { .. }));
        if let Some(gate) = self.gate.as_ref().filter(|_| node > 0 && tuples > 0) {
            Tap::wait(gate, node);
            self.gate = None;
        }
        self.sent.lock().unwrap().push((to, msg.sent_at(), tuples));
        let sent = self.wire.send(to, msg);
        if let Some(gate) = self.gate.as_ref().filter(|_| node == 0 && fallback) {
            Tap::open(gate, to);
        }
        sent
    }

    fn try_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.wire.try_recv()
    }

    fn recv(&mut self) -> Result<Message, NetError> {
        self.wire.recv()
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, NetError> {
        self.wire.recv_deadline(timeout)
    }
}

/// The data and memory a case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Data {
    /// 24 000 tuples, 3 000 groups, 200-entry tables: Opt-2P bounces and
    /// forwards, A-2P switches inside its first pages, A-Rep's census is
    /// over within a few hundred tuples and it never falls back.
    Wide,
    /// 30 000 tuples, 300 groups judged against 400, 50-entry tables:
    /// A-Rep falls back at `initSeg`, then its A-2P table fills.
    FewGroups,
    /// Node 0: 6 000 tuples of 20 groups; every other node 20 000 tuples
    /// of 3 000: node 0 falls back locally, the others by contagion.
    Contagion,
    /// Wide's tuples and filter under 20-entry tables: each Broadcast node
    /// owns ~1 100 groups, spools nearly every row it owns and refeeds its
    /// buckets three levels deep.
    Spill,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    name: &'static str,
    kind: AlgorithmKind,
    nodes: usize,
    data: Data,
    /// Add an always-true conjunct on the `Str` pad column.
    str_conjunct: bool,
    /// Crash node 0 at this scanned tuple.
    crash_at: Option<u64>,
}

const fn case(name: &'static str, kind: AlgorithmKind, nodes: usize) -> Case {
    Case {
        name,
        kind,
        nodes,
        data: Data::Wide,
        str_conjunct: false,
        crash_at: None,
    }
}

use AlgorithmKind::{AdaptiveRepartitioning as Arep, AdaptiveTwoPhase as A2p, Broadcast as Bcast, OptimizedTwoPhase as Opt2p, SortTwoPhase as Sort2p};

const CASES: &[Case] = &[
    case("opt2p_1", Opt2p, 1),
    case("opt2p_2", Opt2p, 2),
    case("opt2p_4", Opt2p, 4),
    Case { str_conjunct: true, ..case("opt2p_1_str", Opt2p, 1) },
    Case { str_conjunct: true, ..case("opt2p_2_str", Opt2p, 2) },
    Case { str_conjunct: true, ..case("opt2p_4_str", Opt2p, 4) },
    case("bcast_1", Bcast, 1),
    case("bcast_2", Bcast, 2),
    case("bcast_4", Bcast, 4),
    Case { data: Data::Spill, ..case("bcast_2_spill", Bcast, 2) },
    Case { str_conjunct: true, ..case("bcast_1_str", Bcast, 1) },
    Case { str_conjunct: true, ..case("bcast_2_str", Bcast, 2) },
    Case { str_conjunct: true, ..case("bcast_4_str", Bcast, 4) },
    case("a2p_1", A2p, 1),
    case("a2p_2", A2p, 2),
    case("a2p_4", A2p, 4),
    Case { str_conjunct: true, ..case("a2p_1_str", A2p, 1) },
    Case { str_conjunct: true, ..case("a2p_2_str", A2p, 2) },
    Case { str_conjunct: true, ..case("a2p_4_str", A2p, 4) },
    case("arep_poll_cuts_1", Arep, 1),
    case("arep_poll_cuts_2", Arep, 2),
    case("arep_poll_cuts_4", Arep, 4),
    Case { str_conjunct: true, ..case("arep_poll_cuts_1_str", Arep, 1) },
    Case { str_conjunct: true, ..case("arep_poll_cuts_2_str", Arep, 2) },
    Case { str_conjunct: true, ..case("arep_poll_cuts_4_str", Arep, 4) },
    Case { data: Data::FewGroups, ..case("arep_local_fallback_1", Arep, 1) },
    Case { data: Data::FewGroups, str_conjunct: true, ..case("arep_local_fallback_1_str", Arep, 1) },
    Case { data: Data::Contagion, ..case("arep_contagion_2", Arep, 2) },
    Case { data: Data::Contagion, ..case("arep_contagion_4", Arep, 4) },
    Case { data: Data::Contagion, str_conjunct: true, ..case("arep_contagion_2_str", Arep, 2) },
    // Crashes mid-page, after the scan started routing (or blocking) raws.
    Case { crash_at: Some(9_017), ..case("a2p_crash_routed", A2p, 1) },
    Case { crash_at: Some(9_017), str_conjunct: true, ..case("a2p_crash_routed_str", A2p, 1) },
    Case { crash_at: Some(5_003), ..case("arep_crash_routed", Arep, 1) },
    Case { crash_at: Some(7_011), ..case("opt2p_crash_routed", Opt2p, 1) },
    Case { crash_at: Some(6_007), str_conjunct: true, ..case("bcast_crash_blocked_str", Bcast, 1) },
    case("sort2p_1", Sort2p, 1),
    case("sort2p_2", Sort2p, 2),
    case("sort2p_4", Sort2p, 4),
    Case { str_conjunct: true, ..case("sort2p_2_str", Sort2p, 2) },
    // 20-entry runs: hundreds of runs per node, merged at once.
    Case { data: Data::Spill, ..case("sort2p_2_many_runs", Sort2p, 2) },
];

/// What one node of a case pins.
#[derive(Debug, PartialEq, Eq)]
struct NodePin {
    /// The clock where the node finished (or failed), in ticks.
    ticks: u64,
    /// Messages sent, data and control.
    sends: usize,
    /// FNV-1a over every send's `(destination, stamp, tuples)`.
    stamps: u64,
    /// `raw_pages_sent, partial_pages_sent, bytes_sent, tuples_sent,
    /// pages_received, tuples_received, control_sent, control_received`.
    net: [u64; 8],
    /// `Ok(events)` or the error, as `Debug`.
    outcome: Cow<'static, str>,
    rows: usize,
    /// FNV-1a over the result rows' wire encodings, sorted by key.
    rows_digest: u64,
}

struct Pin {
    name: &'static str,
    nodes: &'static [NodePin],
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn net_of(s: &NetStats) -> [u64; 8] {
    [
        s.raw_pages_sent,
        s.partial_pages_sent,
        s.bytes_sent,
        s.tuples_sent,
        s.pages_received,
        s.tuples_received,
        s.control_sent,
        s.control_received,
    ]
}

fn partitions(case: &Case) -> Vec<HeapFile> {
    match case.data {
        Data::Wide | Data::Spill => generate_partitions(&RelationSpec::uniform(24_000, 3_000), case.nodes),
        Data::FewGroups => generate_partitions(&RelationSpec::uniform(30_000, 300), case.nodes),
        Data::Contagion => {
            let mut parts = generate_partitions(&RelationSpec::uniform(6_000, 20), 1);
            let others = case.nodes - 1;
            parts.extend(generate_partitions(&RelationSpec::uniform(20_000 * others, 3_000), others));
            parts
        }
    }
}

fn query(case: &Case) -> AggQuery {
    let mut filter = vec![Predicate::new(0, Compare::Ge, Value::Int(match case.data {
        Data::Wide | Data::Spill => 750,
        Data::FewGroups => 75,
        Data::Contagion => 5,
    }))];
    if case.str_conjunct {
        filter.push(Predicate::new(2, Compare::Ge, Value::Str("".into())));
    }
    default_query().with_filter(filter)
}

fn params(case: &Case) -> CostParams {
    let max_hash_entries = match case.data {
        Data::Wide => 200,
        Data::FewGroups => 50,
        Data::Contagion => 10_000,
        Data::Spill => 20,
    };
    CostParams {
        max_hash_entries,
        ..CostParams::paper_default()
    }
}

fn algo_config(case: &Case) -> AlgoConfig {
    match case.data {
        Data::FewGroups => AlgoConfig::default_for(case.nodes).with_crossover_threshold(400),
        _ => AlgoConfig::default_for(case.nodes),
    }
}

fn run_node(kind: AlgorithmKind, ctx: &mut NodeCtx, plan: &QueryPlan, cfg: &AlgoConfig) -> Result<NodeOutcome, ExecError> {
    use adaptagg::algos::{adaptive2p, adaptiverep, broadcast, opt2p, sort2p};
    match kind {
        Opt2p => opt2p::run_node(ctx, plan, cfg),
        Bcast => broadcast::run_node(ctx, plan, cfg),
        A2p => adaptive2p::run_node(ctx, plan, cfg),
        Arep => adaptiverep::run_node(ctx, plan, cfg),
        Sort2p => sort2p::run_node(ctx, plan, cfg),
        other => unreachable!("{other} is not pinned here"),
    }
}

/// Run `case` on its tapped cluster; what every node pins.
fn run(case: &Case) -> Vec<NodePin> {
    let parts = partitions(case);
    let params = params(case);
    let plan = QueryPlan::new(&query(case));
    let cfg = algo_config(case);
    let network = Network::new(params.network);
    let taps: Vec<Sent> = (0..case.nodes).map(|_| Sent::default()).collect();
    let gate = (case.data == Data::Contagion).then(|| Gate::new((Mutex::new(vec![false; case.nodes]), Condvar::new())));
    let endpoints: Vec<Endpoint> = ChannelTransport::mesh(case.nodes)
        .into_iter()
        .zip(&taps)
        .map(|(wire, sent)| {
            let tap = Tap { wire, sent: sent.clone(), gate: gate.clone() };
            Endpoint::over(Box::new(tap), network.clone(), &FaultPlan::none())
        })
        .collect();
    let finished: Vec<(Result<NodeOutcome, ExecError>, u64, NetStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(parts)
            .map(|(endpoint, base)| {
                let (params, plan, cfg) = (params.clone(), &plan, &cfg);
                scope.spawn(move || {
                    let node = endpoint.node();
                    let mut ctx = NodeCtx::new(endpoint, SimDisk::with_base_partition(base), params);
                    if node == 0 {
                        ctx.apply_faults(NodeFaults {
                            crash_at_tuple: case.crash_at,
                            slowdown_factor: 1.0,
                        });
                    }
                    let out = run_node(case.kind, &mut ctx, plan, cfg);
                    (out, ctx.clock.now(), *ctx.net_stats())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let local_decider = case.data == Data::Contagion;
    finished
        .into_iter()
        .zip(&taps)
        .enumerate()
        .map(|(node, ((out, ticks, net), sent))| {
            let sent = sent.lock().unwrap();
            let mut stamps = Fnv::new();
            for &(to, at, tuples) in sent.iter() {
                stamps.u64(to as u64);
                stamps.u64(at);
                stamps.u64(tuples as u64);
            }
            let (mut rows, mut rows_digest) = (0, Fnv::new());
            let mut buf = Vec::new();
            if let Ok(out) = &out {
                rows = out.rows.len();
                let mut sorted = out.rows.clone();
                sort_rows(&mut sorted);
                for row in sorted {
                    buf.clear();
                    encode_tuple(&row.into_values(), &mut buf);
                    rows_digest.bytes(&buf);
                }
            }
            let mut pin = NodePin {
                ticks,
                sends: sent.len(),
                stamps: stamps.0,
                net: net_of(&net),
                outcome: Cow::Owned(format!("{:?}", out.map(|o| o.events))),
                rows,
                rows_digest: rows_digest.0,
            };
            if local_decider {
                // Only what the local decider did before its merge phase
                // is a function of the data (module docs).
                pin.ticks = 0;
                pin.net[4..6].fill(0);
                pin.net[7] = 0;
                if node > 0 {
                    pin.sends = 0;
                    pin.stamps = 0;
                    pin.net = [0; 8];
                    pin.outcome = Cow::Owned(match &pin.outcome[..] {
                        o if o.starts_with("Ok([FellBackToTwoPhase {") && o.ends_with("local_decision: false }])") => {
                            "Ok([FellBackToTwoPhase { at_tuple: _, local_decision: false }])".into()
                        }
                        other => other.into(),
                    });
                }
            }
            pin
        })
        .collect()
}

/// A node that fell back by contagion, for the constants below.
const CONTAGION: Cow<'static, str> = Cow::Borrowed("Ok([FellBackToTwoPhase { at_tuple: _, local_decision: false }])");

const fn node(ticks: u64, sends: usize, stamps: u64, net: [u64; 8], outcome: &'static str, rows: usize, rows_digest: u64) -> NodePin {
    NodePin {
        ticks,
        sends,
        stamps,
        net,
        outcome: Cow::Borrowed(outcome),
        rows,
        rows_digest,
    }
}

/// Captured on commit bef6c28 (the scan with its row loop); the row
/// digests on ef391ad, over key-sorted rows; `bcast_2_spill` on 6f97804;
/// the `sort2p_*` cases on 1b01dc3 (module docs).
const PINS: &[Pin] = &[
    Pin {
        name: "opt2p_1",
        nodes: &[
            node(2243175000000, 165, 0x26727879da1a84f8, [161, 3, 333800, 16600, 164, 16600, 1, 1], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "opt2p_2",
        nodes: &[
            node(1024608000000, 86, 0x40734832dffb6101, [80, 4, 168240, 8322, 86, 8481, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(1005844000000, 86, 0x72377858f4797218, [80, 4, 167920, 8306, 82, 8147, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "opt2p_4",
        nodes: &[
            node(483810500000, 49, 0xb21441a2bea57eb6, [41, 4, 84840, 4152, 45, 4125, 4, 4], "Ok([])", 559, 0xffe2353f04a7955c),
            node(484719250000, 49, 0x99a3aeecb15b9a51, [41, 4, 84940, 4157, 44, 4084, 4, 4], "Ok([])", 548, 0x5a90075c082ef003),
            node(497838000000, 50, 0xc4a57ab2b17070bf, [42, 4, 85240, 4172, 48, 4366, 4, 4], "Ok([])", 589, 0x443a85645b3c9aaf),
            node(483872250000, 49, 0xca5d2b148d612ca9, [41, 4, 84780, 4149, 44, 4055, 4, 4], "Ok([])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "opt2p_1_str",
        nodes: &[
            node(2243175000000, 165, 0x26727879da1a84f8, [161, 3, 333800, 16600, 164, 16600, 1, 1], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "opt2p_2_str",
        nodes: &[
            node(1024608000000, 86, 0x40734832dffb6101, [80, 4, 168240, 8322, 86, 8481, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(1005844000000, 86, 0x72377858f4797218, [80, 4, 167920, 8306, 82, 8147, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "opt2p_4_str",
        nodes: &[
            node(483810500000, 49, 0xb21441a2bea57eb6, [41, 4, 84840, 4152, 45, 4125, 4, 4], "Ok([])", 559, 0xffe2353f04a7955c),
            node(484719250000, 49, 0x99a3aeecb15b9a51, [41, 4, 84940, 4157, 44, 4084, 4, 4], "Ok([])", 548, 0x5a90075c082ef003),
            node(497838000000, 50, 0xc4a57ab2b17070bf, [42, 4, 85240, 4172, 48, 4366, 4, 4], "Ok([])", 589, 0x443a85645b3c9aaf),
            node(483872250000, 49, 0xca5d2b148d612ca9, [41, 4, 84780, 4149, 44, 4055, 4, 4], "Ok([])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "bcast_1",
        nodes: &[
            node(2013275000000, 178, 0x87316878354ec9a2, [177, 0, 360000, 18000, 177, 18000, 1, 1], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "bcast_2",
        nodes: &[
            node(905787500000, 180, 0xe1e217ac12941c17, [178, 0, 359800, 17990, 178, 18000, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(883387500000, 180, 0x06a5007ab3913d25, [178, 0, 360200, 18010, 178, 18000, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "bcast_4",
        nodes: &[
            node(440530000000, 180, 0x93c3665b1608a150, [176, 0, 358960, 17948, 179, 18000, 4, 4], "Ok([])", 559, 0xffe2353f04a7955c),
            node(433567500000, 184, 0x2c4ea304429a1eeb, [180, 0, 359760, 17988, 179, 18000, 4, 4], "Ok([])", 548, 0x5a90075c082ef003),
            node(452407500000, 184, 0x4d788e5d54366cf0, [180, 0, 360640, 18032, 179, 18000, 4, 4], "Ok([])", 589, 0x443a85645b3c9aaf),
            node(435170000000, 184, 0xb1cb444fb6a01f47, [180, 0, 360640, 18032, 179, 18000, 4, 4], "Ok([])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "bcast_2_spill",
        nodes: &[
            node(1309687500000, 180, 0xe1e217ac12941c17, [178, 0, 359800, 17990, 178, 18000, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(1254847500000, 180, 0x06a5007ab3913d25, [178, 0, 360200, 18010, 178, 18000, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "bcast_1_str",
        nodes: &[
            node(2013275000000, 178, 0x87316878354ec9a2, [177, 0, 360000, 18000, 177, 18000, 1, 1], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "bcast_2_str",
        nodes: &[
            node(905787500000, 180, 0xe1e217ac12941c17, [178, 0, 359800, 17990, 178, 18000, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(883387500000, 180, 0x06a5007ab3913d25, [178, 0, 360200, 18010, 178, 18000, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "bcast_4_str",
        nodes: &[
            node(440530000000, 180, 0x93c3665b1608a150, [176, 0, 358960, 17948, 179, 18000, 4, 4], "Ok([])", 559, 0xffe2353f04a7955c),
            node(433567500000, 184, 0x2c4ea304429a1eeb, [180, 0, 359760, 17988, 179, 18000, 4, 4], "Ok([])", 548, 0x5a90075c082ef003),
            node(452407500000, 184, 0x4d788e5d54366cf0, [180, 0, 360640, 18032, 179, 18000, 4, 4], "Ok([])", 589, 0x443a85645b3c9aaf),
            node(435170000000, 184, 0xb1cb444fb6a01f47, [180, 0, 360640, 18032, 179, 18000, 4, 4], "Ok([])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "a2p_1",
        nodes: &[
            node(2196930500000, 179, 0xb2a819b07db82c9b, [175, 3, 361640, 17992, 178, 17992, 1, 1], "Ok([SwitchedToRepartitioning { at_tuple: 209 }])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "a2p_2",
        nodes: &[
            node(983859500000, 93, 0x430bf0c3f4be108d, [87, 4, 181560, 8988, 93, 9174, 2, 2], "Ok([SwitchedToRepartitioning { at_tuple: 208 }])", 1148, 0x59243961a3c381e0),
            node(964054250000, 94, 0x91eefca00e4b14eb, [88, 4, 181740, 8997, 90, 8811, 2, 2], "Ok([SwitchedToRepartitioning { at_tuple: 209 }])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "a2p_4",
        nodes: &[
            node(466072500000, 52, 0x4d00790378f7f5ca, [44, 4, 91400, 4480, 48, 4460, 4, 4], "Ok([SwitchedToRepartitioning { at_tuple: 208 }])", 559, 0xffe2353f04a7955c),
            node(459016750000, 53, 0xc0aba0736d57b7af, [45, 4, 91540, 4487, 47, 4378, 4, 4], "Ok([SwitchedToRepartitioning { at_tuple: 211 }])", 548, 0x5a90075c082ef003),
            node(477715500000, 51, 0xa81bc123fb896c89, [43, 4, 91840, 4502, 50, 4707, 4, 4], "Ok([SwitchedToRepartitioning { at_tuple: 207 }])", 589, 0x443a85645b3c9aaf),
            node(460698250000, 53, 0xa2abe4e12b878482, [45, 4, 91860, 4503, 48, 4427, 4, 4], "Ok([SwitchedToRepartitioning { at_tuple: 206 }])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "a2p_1_str",
        nodes: &[
            node(2196930500000, 179, 0xb2a819b07db82c9b, [175, 3, 361640, 17992, 178, 17992, 1, 1], "Ok([SwitchedToRepartitioning { at_tuple: 209 }])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "a2p_2_str",
        nodes: &[
            node(983859500000, 93, 0x430bf0c3f4be108d, [87, 4, 181560, 8988, 93, 9174, 2, 2], "Ok([SwitchedToRepartitioning { at_tuple: 208 }])", 1148, 0x59243961a3c381e0),
            node(964054250000, 94, 0x91eefca00e4b14eb, [88, 4, 181740, 8997, 90, 8811, 2, 2], "Ok([SwitchedToRepartitioning { at_tuple: 209 }])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "a2p_4_str",
        nodes: &[
            node(466072500000, 52, 0x4d00790378f7f5ca, [44, 4, 91400, 4480, 48, 4460, 4, 4], "Ok([SwitchedToRepartitioning { at_tuple: 208 }])", 559, 0xffe2353f04a7955c),
            node(459016750000, 53, 0xc0aba0736d57b7af, [45, 4, 91540, 4487, 47, 4378, 4, 4], "Ok([SwitchedToRepartitioning { at_tuple: 211 }])", 548, 0x5a90075c082ef003),
            node(477715500000, 51, 0xa81bc123fb896c89, [43, 4, 91840, 4502, 50, 4707, 4, 4], "Ok([SwitchedToRepartitioning { at_tuple: 207 }])", 589, 0x443a85645b3c9aaf),
            node(460698250000, 53, 0xa2abe4e12b878482, [45, 4, 91860, 4503, 48, 4427, 4, 4], "Ok([SwitchedToRepartitioning { at_tuple: 206 }])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "arep_poll_cuts_1",
        nodes: &[
            node(2193275000000, 178, 0x34124b5bf6ed18d1, [177, 0, 360000, 18000, 177, 18000, 1, 1], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "arep_poll_cuts_2",
        nodes: &[
            node(980186250000, 91, 0x30247800f8ef3c28, [89, 0, 179900, 8995, 91, 9184, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(957938750000, 92, 0xd91a6b878a5795ae, [90, 0, 180100, 9005, 88, 8816, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "arep_poll_cuts_4",
        nodes: &[
            node(462296750000, 49, 0xd55e755c02e71d5f, [45, 0, 89740, 4487, 45, 4472, 4, 4], "Ok([])", 559, 0xffe2353f04a7955c),
            node(454936750000, 49, 0xd4a617a9f570f9f6, [45, 0, 89940, 4497, 45, 4384, 4, 4], "Ok([])", 548, 0x5a90075c082ef003),
            node(474089500000, 50, 0x4e386946bf19372c, [46, 0, 90160, 4508, 48, 4712, 4, 4], "Ok([])", 589, 0x443a85645b3c9aaf),
            node(456752000000, 50, 0x127c74f902107c14, [46, 0, 90160, 4508, 44, 4432, 4, 4], "Ok([])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "arep_poll_cuts_1_str",
        nodes: &[
            node(2193275000000, 178, 0x34124b5bf6ed18d1, [177, 0, 360000, 18000, 177, 18000, 1, 1], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "arep_poll_cuts_2_str",
        nodes: &[
            node(980186250000, 91, 0x30247800f8ef3c28, [89, 0, 179900, 8995, 91, 9184, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(957938750000, 92, 0xd91a6b878a5795ae, [90, 0, 180100, 9005, 88, 8816, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "arep_poll_cuts_4_str",
        nodes: &[
            node(462296750000, 49, 0xd55e755c02e71d5f, [45, 0, 89740, 4487, 45, 4472, 4, 4], "Ok([])", 559, 0xffe2353f04a7955c),
            node(454936750000, 49, 0xd4a617a9f570f9f6, [45, 0, 89940, 4497, 45, 4384, 4, 4], "Ok([])", 548, 0x5a90075c082ef003),
            node(474089500000, 50, 0x4e386946bf19372c, [46, 0, 90160, 4508, 48, 4712, 4, 4], "Ok([])", 589, 0x443a85645b3c9aaf),
            node(456752000000, 50, 0x127c74f902107c14, [46, 0, 90160, 4508, 44, 4432, 4, 4], "Ok([])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "arep_local_fallback_1",
        nodes: &[
            node(2349427500000, 223, 0x664719f8a6cecd5f, [221, 1, 450250, 22490, 222, 22490, 1, 1], "Ok([FellBackToTwoPhase { at_tuple: 4000, local_decision: true }, SwitchedToRepartitioning { at_tuple: 61 }])", 225, 0x7ac1564da6430a91),
        ],
    },
    Pin {
        name: "arep_local_fallback_1_str",
        nodes: &[
            node(2349427500000, 223, 0x664719f8a6cecd5f, [221, 1, 450250, 22490, 222, 22490, 1, 1], "Ok([FellBackToTwoPhase { at_tuple: 4000, local_decision: true }, SwitchedToRepartitioning { at_tuple: 61 }])", 225, 0x7ac1564da6430a91),
        ],
    },
    Pin {
        name: "arep_contagion_2",
        nodes: &[
            node(0, 11, 0x1c59152c76d5b03a, [6, 2, 10655, 526, 0, 0, 3, 0], "Ok([FellBackToTwoPhase { at_tuple: 512, local_decision: true }])", 1530, 0x8d4a0f8fff9a526d),
            node(0, 0, 0x0000000000000000, [0, 0, 0, 0, 0, 0, 0, 0], "Ok([FellBackToTwoPhase { at_tuple: _, local_decision: false }])", 1465, 0xe85bb3a627175094),
        ],
    },
    Pin {
        name: "arep_contagion_4",
        nodes: &[
            node(0, 18, 0xdf751ca0b711c23f, [7, 4, 10655, 526, 0, 0, 7, 0], "Ok([FellBackToTwoPhase { at_tuple: 512, local_decision: true }])", 766, 0x780024335dcc197b),
            node(0, 0, 0x0000000000000000, [0, 0, 0, 0, 0, 0, 0, 0], "Ok([FellBackToTwoPhase { at_tuple: _, local_decision: false }])", 739, 0xe90adbe357af9b42),
            node(0, 0, 0x0000000000000000, [0, 0, 0, 0, 0, 0, 0, 0], "Ok([FellBackToTwoPhase { at_tuple: _, local_decision: false }])", 764, 0x422124bea5322557),
            node(0, 0, 0x0000000000000000, [0, 0, 0, 0, 0, 0, 0, 0], "Ok([FellBackToTwoPhase { at_tuple: _, local_decision: false }])", 726, 0x2c4eb7aa131db703),
        ],
    },
    Pin {
        name: "arep_contagion_2_str",
        nodes: &[
            node(0, 11, 0x1c59152c76d5b03a, [6, 2, 10655, 526, 0, 0, 3, 0], "Ok([FellBackToTwoPhase { at_tuple: 512, local_decision: true }])", 1530, 0x8d4a0f8fff9a526d),
            node(0, 0, 0x0000000000000000, [0, 0, 0, 0, 0, 0, 0, 0], "Ok([FellBackToTwoPhase { at_tuple: _, local_decision: false }])", 1465, 0xe85bb3a627175094),
        ],
    },
    Pin {
        name: "a2p_crash_routed",
        nodes: &[
            node(425261500000, 66, 0xa3dd21bd2430bd5d, [63, 3, 134320, 6626, 0, 0, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 9017 })", 0, 0xcbf29ce484222325),
        ],
    },
    Pin {
        name: "a2p_crash_routed_str",
        nodes: &[
            node(425261500000, 66, 0xa3dd21bd2430bd5d, [63, 3, 134320, 6626, 0, 0, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 9017 })", 0, 0xcbf29ce484222325),
        ],
    },
    Pin {
        name: "arep_crash_routed",
        nodes: &[
            node(234480000000, 36, 0xbb82f3686a761442, [36, 0, 73440, 3672, 0, 0, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 5003 })", 0, 0xcbf29ce484222325),
        ],
    },
    Pin {
        name: "opt2p_crash_routed",
        nodes: &[
            node(371399250000, 45, 0x2233a3aa991fe0aa, [45, 0, 91800, 4590, 0, 0, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 7011 })", 0, 0xcbf29ce484222325),
        ],
    },
    Pin {
        name: "bcast_crash_blocked_str",
        nodes: &[
            node(235270000000, 43, 0x799869e9449353ac, [43, 0, 87720, 4386, 0, 0, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 6007 })", 0, 0xcbf29ce484222325),
        ],
    },
    Pin {
        name: "sort2p_1",
        nodes: &[
            node(2504955000000, 34, 0x9391f1a7876a8365, [0, 33, 65250, 2250, 33, 2250, 1, 1], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "sort2p_2",
        nodes: &[
            node(1240305750000, 35, 0xfaab472aa1667cbc, [0, 33, 65047, 2243, 34, 2290, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(1231714500000, 35, 0x7b0fba2de9df5fd5, [0, 33, 64902, 2238, 32, 2191, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "sort2p_4",
        nodes: &[
            node(650360250000, 36, 0x875463fe4e217906, [0, 32, 58609, 2021, 32, 2006, 4, 4], "Ok([])", 559, 0xffe2353f04a7955c),
            node(648690000000, 36, 0x1d69051234a8faeb, [0, 32, 58580, 2020, 32, 1974, 4, 4], "Ok([])", 548, 0x5a90075c082ef003),
            node(656095750000, 36, 0x116fe5a1322e48c5, [0, 32, 58957, 2033, 32, 2133, 4, 4], "Ok([])", 589, 0x443a85645b3c9aaf),
            node(650172250000, 35, 0xe570434c342ac892, [0, 31, 58841, 2029, 31, 1990, 4, 4], "Ok([])", 554, 0xb66979b5ff7034f0),
        ],
    },
    Pin {
        name: "sort2p_2_str",
        nodes: &[
            node(1240305750000, 35, 0xfaab472aa1667cbc, [0, 33, 65047, 2243, 34, 2290, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(1231714500000, 35, 0x7b0fba2de9df5fd5, [0, 33, 64902, 2238, 32, 2191, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "sort2p_2_many_runs",
        nodes: &[
            node(2308288250000, 35, 0xc462e95af4d0281f, [0, 33, 65047, 2243, 34, 2290, 2, 2], "Ok([])", 1148, 0x59243961a3c381e0),
            node(2281472000000, 35, 0x986d88da8edc6912, [0, 33, 64902, 2238, 32, 2191, 2, 2], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
];

/// Held by every test that runs a cluster. A-Rep's contagion is
/// physically timed (module docs): a cluster running beside its case can
/// let a peer finish its scan before the fallback reaches it.
static ONE_CLUSTER_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn algorithms_reproduce_their_pins() {
    let _alone = ONE_CLUSTER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(PINS.len(), CASES.len(), "a pin per case");
    for (case, pin) in CASES.iter().zip(PINS) {
        assert_eq!(pin.name, case.name);
        let seen = run(case);
        assert_eq!(seen.len(), pin.nodes.len(), "{}", case.name);
        for (i, (seen, pinned)) in seen.iter().zip(pin.nodes).enumerate() {
            assert_eq!(seen, pinned, "{} node {i}", case.name);
        }
    }
}

/// The cases keep exercising what they were chosen for.
#[test]
fn cases_hit_their_regimes() {
    for (case, pin) in CASES.iter().zip(PINS) {
        let outcome = &pin.nodes[0].outcome;
        let name = case.name;
        if case.crash_at.is_some() {
            assert!(outcome.starts_with("Err(InjectedCrash"), "{name}: {outcome}");
            assert!(pin.nodes[0].sends > 0, "{name}: crashed before routing");
            continue;
        }
        let total_rows: usize = pin.nodes.iter().map(|n| n.rows).sum();
        assert!(total_rows > 0, "{name}");
        match (case.kind, case.data) {
            (A2p, _) => assert!(pin.nodes.iter().all(|n| n.outcome.contains("SwitchedToRepartitioning")), "{name}"),
            (Arep, Data::Wide) => assert!(pin.nodes.iter().all(|n| n.outcome == "Ok([])"), "{name}"),
            (Arep, Data::FewGroups) => {
                assert!(outcome.contains("local_decision: true") && outcome.contains("SwitchedToRepartitioning"), "{name}")
            }
            (Arep, Data::Contagion) => {
                assert!(outcome.contains("local_decision: true"), "{name}");
                assert!(pin.nodes[1..].iter().all(|n| n.outcome == CONTAGION), "{name}");
            }
            // Opt-2P forwards what its full table bounces.
            (Opt2p, _) => assert!(pin.nodes.iter().all(|n| n.net[0] > 0), "{name}"),
            (Bcast, _) => assert!(pin.nodes.iter().all(|n| n.net[3] > 0), "{name}"),
            // Every node seals runs; the many-runs case merges at least 40
            // a node, a count the merge's tree pads to a power of two.
            (Sort2p, data) => {
                for (node, runs) in sealed_runs(case).into_iter().enumerate() {
                    assert!(runs > 0, "{name} node {node}");
                    if data == Data::Spill {
                        assert!(runs >= 40 && !(runs + 1).is_power_of_two(), "{name} node {node}: {runs} runs");
                    }
                }
            }
            _ => unreachable!(),
        }
    }
}

/// Runs each node of a Sort-2P case sealed, read off a traced run.
fn sealed_runs(case: &Case) -> Vec<u64> {
    let _alone = ONE_CLUSTER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let config = ClusterConfig::new(case.nodes, params(case)).with_tracing();
    let out = run_algorithm(case.kind, &config, &partitions(case), &query(case)).unwrap();
    let trace = out.trace.expect("a traced run");
    (0..case.nodes)
        .map(|node| trace.node(node).unwrap().metrics.counter("sortagg.runs_sealed"))
        .collect()
}

#[test]
#[ignore]
fn print_algo_pins() {
    println!("const PINS: &[Pin] = &[");
    for case in CASES {
        println!("    Pin {{");
        println!("        name: {:?},", case.name);
        println!("        nodes: &[");
        for p in run(case) {
            println!(
                "            node({}, {}, {:#018x}, {:?}, {:?}, {}, {:#018x}),",
                p.ticks, p.sends, p.stamps, p.net, p.outcome, p.rows, p.rows_digest
            );
        }
        println!("        ],");
        println!("    }},");
    }
    println!("];");
}
