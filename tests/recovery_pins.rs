//! Pins for the phase-1 scans under a recovery session: Two Phase's local
//! aggregation and Adaptive Two Phase's scan, each cut into checkpoint
//! chunks.
//!
//! Each case runs one algorithm's `run_node` on every seat of a small
//! in-process cluster whose wire is tapped. Every seat's `NodeCtx` carries
//! its own `RecoverySession`, and all the sessions of a case share one
//! checkpoint store, across all of the case's runs. Per seat and run the
//! constants pin: the clock in ticks, every message it sent (a count and a
//! digest of destination, send timestamp in ticks and tuples), its
//! `NetStats`, its `NodeRecoveryStats`, its adaptive events (or the error
//! it ended with) and its result rows (a count and a digest of the rows
//! sorted by key).
//!
//! Every case checkpoints every few pages, so each partition is scanned in
//! several chunks. The cases cover Two Phase and A-2P at 1 and 2 seats
//! (A-2P switching inside a chunk, and never switching); a resume, where
//! run 1 crashes seat 0 at a scanned tuple and run 2 restores from the
//! same store and scans the rest; a resume where the crash falls in a
//! seat's second partition and run 2 seats the two partitions apart; and
//! a seat owning two partitions, one of them already complete in the
//! store.
//!
//! The constants were captured by `print_recovery_pins` on the commit
//! before the fail-stop run and the plain phase-1 scans were folded into
//! the recovering ones (c64c9bd), and are never edited.
//!
//! Capture tool: cargo test --test recovery_pins print_recovery_pins -- --ignored --nocapture

use adaptagg::algos::common::QueryPlan;
use adaptagg::algos::{adaptive2p, twophase, AlgoConfig, AlgorithmKind, NodeOutcome};
use adaptagg::exec::{
    new_store, CheckpointStore, ExecError, NodeCtx, NodeFaults, NodeRecoveryStats,
    RecoverySession, Segment,
};
use adaptagg::model::encode::encode_tuple;
use adaptagg::model::query::sort_rows;
use adaptagg::model::{AggQuery, Compare, CostParams, Predicate, Value};
use adaptagg::net::{
    ChannelTransport, Endpoint, FaultPlan, Message, NetError, NetStats, Network, Payload,
    SendFailure, Transport,
};
use adaptagg::storage::{HeapFile, SimDisk};
use adaptagg::workload::{default_query, generate_partitions, RelationSpec};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every message a seat put on the wire: destination, send timestamp in
/// ticks, data tuples (0 for a control).
type Sent = Arc<Mutex<Vec<(usize, u64, usize)>>>;

/// The in-process wire, recording each send.
#[derive(Debug)]
struct Tap {
    wire: ChannelTransport,
    sent: Sent,
}

impl Transport for Tap {
    fn node(&self) -> usize {
        self.wire.node()
    }

    fn nodes(&self) -> usize {
        self.wire.nodes()
    }

    fn send(&mut self, to: usize, msg: Message) -> Result<(), SendFailure> {
        let tuples = match &msg.payload {
            Payload::Data { page, .. } => page.tuple_count(),
            Payload::Control(_) => 0,
        };
        self.sent.lock().unwrap().push((to, msg.sent_at(), tuples));
        self.wire.send(to, msg)
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
    /// 24 000 tuples, 3 000 groups, 200-entry tables: Two Phase's chunk
    /// tables overflow, A-2P switches inside its first chunk.
    Wide,
    /// 30 000 tuples, 300 groups, 400-entry tables: A-2P never switches
    /// and checkpoints every chunk.
    FewGroups,
    /// Partition 0: 12 000 tuples of 3 000 groups; partition 1: 15 000
    /// tuples of 100 groups; 200-entry tables: A-2P switches inside
    /// partition 0 and completes partition 1 without switching.
    Mixed,
}

/// One cluster run of a case: the partitions each seat owns (ascending),
/// and the scanned tuple at which seat 0 crashes, if it does.
#[derive(Debug, Clone, Copy)]
struct Run {
    seats: &'static [&'static [usize]],
    crash_at: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    name: &'static str,
    kind: AlgorithmKind,
    data: Data,
    /// Base partitions the data is split into.
    partitions: usize,
    /// Pages per checkpoint.
    interval: usize,
    /// Run in order over one checkpoint store.
    runs: &'static [Run],
}

const ONE: &[Run] = &[Run { seats: &[&[0]], crash_at: None }];
const TWO: &[Run] = &[Run { seats: &[&[0], &[1]], crash_at: None }];
/// Run 1 crashes inside partition 0's scan; run 2 resumes it.
const RESUME: &[Run] = &[
    Run { seats: &[&[0]], crash_at: Some(9_017) },
    Run { seats: &[&[0]], crash_at: None },
];
/// Run 1's seat owns both partitions and crashes inside partition 1's
/// scan; run 2 seats them apart: one seat restores the complete partition
/// 0 and scans nothing, the other restores partition 1 and resumes it.
const SPLIT_RESUME: &[Run] = &[
    Run { seats: &[&[0, 1]], crash_at: Some(17_011) },
    Run { seats: &[&[0], &[1]], crash_at: None },
];
/// As `SPLIT_RESUME`, over partitions of 15 000 tuples.
const SPLIT_RESUME_FEW: &[Run] = &[
    Run { seats: &[&[0, 1]], crash_at: Some(20_003) },
    Run { seats: &[&[0], &[1]], crash_at: None },
];
/// Run 1 completes partition 1 alone; run 2's seat owns both partitions
/// and restores partition 1 after scanning partition 0.
const INHERIT: &[Run] = &[
    Run { seats: &[&[1]], crash_at: None },
    Run { seats: &[&[0, 1]], crash_at: None },
];

use AlgorithmKind::{AdaptiveTwoPhase as A2p, TwoPhase as Tp};

const fn case(name: &'static str, kind: AlgorithmKind, data: Data, partitions: usize, runs: &'static [Run]) -> Case {
    Case { name, kind, data, partitions, interval: 8, runs }
}

const CASES: &[Case] = &[
    case("twophase_1", Tp, Data::Wide, 1, ONE),
    case("twophase_2", Tp, Data::Wide, 2, TWO),
    case("twophase_2_few", Tp, Data::FewGroups, 2, TWO),
    case("a2p_1", A2p, Data::Wide, 1, ONE),
    case("a2p_2", A2p, Data::Wide, 2, TWO),
    case("a2p_2_few", A2p, Data::FewGroups, 2, TWO),
    case("twophase_resume", Tp, Data::Wide, 1, RESUME),
    case("a2p_resume", A2p, Data::Wide, 1, RESUME),
    case("a2p_resume_few", A2p, Data::FewGroups, 1, RESUME),
    case("twophase_inherit", Tp, Data::Wide, 2, INHERIT),
    case("a2p_inherit", A2p, Data::Mixed, 2, INHERIT),
    case("a2p_inherit_few", A2p, Data::FewGroups, 2, INHERIT),
    case("twophase_split_resume", Tp, Data::Wide, 2, SPLIT_RESUME),
    case("a2p_split_resume_few", A2p, Data::FewGroups, 2, SPLIT_RESUME_FEW),
];

/// What one seat of one run pins.
#[derive(Debug, PartialEq, Eq)]
struct NodePin {
    /// The clock where the seat finished (or failed), in ticks.
    ticks: u64,
    /// Messages sent, data and control.
    sends: usize,
    /// FNV-1a over every send's `(destination, stamp, tuples)`.
    stamps: u64,
    /// `raw_pages_sent, partial_pages_sent, bytes_sent, tuples_sent,
    /// pages_received, tuples_received, control_sent, control_received`.
    net: [u64; 8],
    /// `checkpoint_pages, checkpoint_partials, restored_partials,
    /// replayed_pages`.
    recovery: [u64; 4],
    /// `Ok(events)` or the error, as `Debug`.
    outcome: Cow<'static, str>,
    rows: usize,
    /// FNV-1a over the result rows' wire encodings, sorted by key.
    rows_digest: u64,
}

struct Pin {
    name: &'static str,
    /// Every run's seats, run after run.
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

fn recovery_of(s: &NodeRecoveryStats) -> [u64; 4] {
    [s.checkpoint_pages, s.checkpoint_partials, s.restored_partials, s.replayed_pages]
}

fn partitions(case: &Case) -> Vec<HeapFile> {
    match case.data {
        Data::Wide => generate_partitions(&RelationSpec::uniform(24_000, 3_000), case.partitions),
        Data::FewGroups => generate_partitions(&RelationSpec::uniform(30_000, 300), case.partitions),
        Data::Mixed => {
            let mut parts = generate_partitions(&RelationSpec::uniform(12_000, 3_000), 1);
            parts.extend(generate_partitions(&RelationSpec::uniform(15_000, 100), 1));
            parts
        }
    }
}

fn query(case: &Case) -> AggQuery {
    let floor = match case.data {
        Data::Wide => 750,
        Data::FewGroups => 75,
        Data::Mixed => 5,
    };
    default_query().with_filter(vec![Predicate::new(0, Compare::Ge, Value::Int(floor))])
}

fn params(case: &Case) -> CostParams {
    let max_hash_entries = match case.data {
        Data::Wide | Data::Mixed => 200,
        Data::FewGroups => 400,
    };
    CostParams {
        max_hash_entries,
        ..CostParams::paper_default()
    }
}

fn run_node(kind: AlgorithmKind, ctx: &mut NodeCtx, plan: &QueryPlan, cfg: &AlgoConfig) -> Result<NodeOutcome, ExecError> {
    match kind {
        Tp => twophase::run_node(ctx, plan, cfg),
        A2p => adaptive2p::run_node(ctx, plan, cfg),
        other => unreachable!("{other} is not pinned here"),
    }
}

/// Seat `partitions` (ascending) as one node's base file and its
/// checkpoint session.
fn seat(parts: &[HeapFile], owned: &[usize], store: &CheckpointStore, case: &Case) -> (HeapFile, RecoverySession) {
    let page_bytes = params(case).page_bytes;
    let (mut segments, mut start_page) = (Vec::new(), 0);
    for &partition in owned {
        let pages = parts[partition].page_count();
        segments.push(Segment { partition, start_page, pages });
        start_page += pages;
    }
    let base = HeapFile::concat(page_bytes, owned.iter().map(|&p| &parts[p])).unwrap();
    (base, RecoverySession::new(segments, store.clone(), case.interval, page_bytes))
}

/// Run `case`'s runs in order over one store; what every seat of every run
/// pins.
fn run(case: &Case) -> Vec<NodePin> {
    let parts = partitions(case);
    let params = params(case);
    let plan = QueryPlan::new(&query(case));
    let store = new_store();
    let mut pins = Vec::new();
    for r in case.runs {
        let nodes = r.seats.len();
        let cfg = AlgoConfig::default_for(nodes);
        let network = Network::new(params.network);
        let taps: Vec<Sent> = (0..nodes).map(|_| Sent::default()).collect();
        let endpoints: Vec<Endpoint> = ChannelTransport::mesh(nodes)
            .into_iter()
            .zip(&taps)
            .map(|(wire, sent)| {
                let tap = Tap { wire, sent: sent.clone() };
                Endpoint::over(Box::new(tap), network.clone(), &FaultPlan::none())
            })
            .collect();
        type Finished = (Result<NodeOutcome, ExecError>, u64, NetStats, NodeRecoveryStats);
        let finished: Vec<Finished> = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .zip(r.seats)
                .map(|(endpoint, owned)| {
                    let (base, session) = seat(&parts, owned, &store, case);
                    let (params, plan, cfg) = (params.clone(), &plan, &cfg);
                    scope.spawn(move || {
                        let node = endpoint.node();
                        let mut ctx = NodeCtx::new(endpoint, SimDisk::with_base_partition(base), params);
                        ctx.recovery = Some(session);
                        if node == 0 {
                            ctx.apply_faults(NodeFaults {
                                crash_at_tuple: r.crash_at,
                                slowdown_factor: 1.0,
                            });
                        }
                        let out = run_node(case.kind, &mut ctx, plan, cfg);
                        let counters = ctx.recovery.as_ref().expect("the session is put back").counters;
                        (out, ctx.clock.now(), *ctx.net_stats(), counters)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ((out, ticks, net, counters), sent) in finished.into_iter().zip(&taps) {
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
            pins.push(NodePin {
                ticks,
                sends: sent.len(),
                stamps: stamps.0,
                net: net_of(&net),
                recovery: recovery_of(&counters),
                outcome: Cow::Owned(format!("{:?}", out.map(|o| o.events))),
                rows,
                rows_digest: rows_digest.0,
            });
        }
    }
    pins
}

#[allow(clippy::too_many_arguments)]
const fn node(ticks: u64, sends: usize, stamps: u64, net: [u64; 8], recovery: [u64; 4], outcome: &'static str, rows: usize, rows_digest: u64) -> NodePin {
    NodePin {
        ticks,
        sends,
        stamps,
        net,
        recovery,
        outcome: Cow::Borrowed(outcome),
        rows,
        rows_digest,
    }
}

/// Captured on commit c64c9bd (module docs).
const PINS: &[Pin] = &[
    Pin {
        name: "twophase_1",
        nodes: &[
            node(4114539000000, 247, 0xe939ca80ae4ff188, [0, 246, 498394, 17186, 246, 17186, 1, 1], [122, 17186, 0, 0], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "twophase_2",
        nodes: &[
            node(1906369500000, 126, 0x9d32e1adea9d682d, [0, 124, 249052, 8588, 126, 8766, 2, 2], [62, 8588, 0, 0], "Ok([])", 1148, 0x59243961a3c381e0),
            node(1898577750000, 125, 0xdac88d3eb50748f8, [0, 123, 249139, 8591, 121, 8413, 2, 2], [62, 8591, 0, 0], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "twophase_2_few",
        nodes: &[
            node(1054371750000, 102, 0x3602decca3346f93, [0, 100, 200303, 6907, 106, 7346, 2, 2], [50, 6907, 0, 0], "Ok([])", 119, 0xbaf7dde6dfe8f7ea),
            node(1046544750000, 103, 0xbfe9c21568c70fd6, [0, 101, 202681, 6989, 95, 6550, 2, 2], [50, 6989, 0, 0], "Ok([])", 106, 0xa3a1a850fce109be),
        ],
    },
    Pin {
        name: "a2p_1",
        nodes: &[
            node(2196930500000, 179, 0xb2a819b07db82c9b, [175, 3, 361640, 17992, 178, 17992, 1, 1], [0, 0, 0, 0], "Ok([SwitchedToRepartitioning { at_tuple: 209 }])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "a2p_2",
        nodes: &[
            node(983859500000, 93, 0x430bf0c3f4be108d, [87, 4, 181560, 8988, 93, 9174, 2, 2], [0, 0, 0, 0], "Ok([SwitchedToRepartitioning { at_tuple: 208 }])", 1148, 0x59243961a3c381e0),
            node(964054250000, 94, 0x91eefca00e4b14eb, [88, 4, 181740, 8997, 90, 8811, 2, 2], [0, 0, 0, 0], "Ok([SwitchedToRepartitioning { at_tuple: 209 }])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "a2p_2_few",
        nodes: &[
            node(1054371750000, 102, 0x7318b7334ffb27ca, [0, 100, 200303, 6907, 106, 7346, 2, 2], [50, 6907, 0, 0], "Ok([])", 119, 0xbaf7dde6dfe8f7ea),
            node(1046544750000, 103, 0xa311ba3e3a302522, [0, 101, 202681, 6989, 95, 6550, 2, 2], [50, 6989, 0, 0], "Ok([])", 106, 0xa3a1a850fce109be),
        ],
    },
    Pin {
        name: "twophase_resume",
        nodes: &[
            node(1105027500000, 0, 0xcbf29ce484222325, [0, 0, 0, 0, 0, 0, 0, 0], [46, 6395, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 9017 })", 0, 0xcbf29ce484222325),
            node(3114201500000, 247, 0x6f7ce6939a4463ed, [0, 246, 498394, 17186, 246, 17186, 1, 1], [76, 10791, 6395, 0], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "a2p_resume",
        nodes: &[
            node(425261500000, 66, 0xa3dd21bd2430bd5d, [63, 3, 134320, 6626, 0, 0, 0, 0], [0, 0, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 9017 })", 0, 0xcbf29ce484222325),
            node(2196930500000, 179, 0xb2a819b07db82c9b, [175, 3, 361640, 17992, 178, 17992, 1, 1], [0, 0, 0, 224], "Ok([SwitchedToRepartitioning { at_tuple: 209 }])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "a2p_resume_few",
        nodes: &[
            node(567306250000, 59, 0x11a9248e8cc1370f, [0, 59, 119770, 4130, 0, 0, 0, 0], [30, 4165, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 9017 })", 0, 0xcbf29ce484222325),
            node(1610101500000, 200, 0xa604a6a0069b6006, [0, 199, 402694, 13886, 199, 13886, 1, 1], [69, 9721, 4165, 0], "Ok([])", 225, 0x7ac1564da6430a91),
        ],
    },
    Pin {
        name: "twophase_inherit",
        nodes: &[
            node(2117420250000, 124, 0xcc89b35426e96386, [0, 123, 249139, 8591, 123, 8591, 1, 1], [62, 8591, 0, 0], "Ok([])", 2238, 0xc7c3258ececab12a),
            node(2733959750000, 247, 0x064c2219a61e326a, [0, 246, 498191, 17179, 246, 17179, 1, 1], [62, 8588, 8591, 0], "Ok([])", 2250, 0x68de3b7e7d1edfeb),
        ],
    },
    Pin {
        name: "a2p_inherit",
        nodes: &[
            node(1076226000000, 63, 0x2e12d819ba3cb2aa, [0, 62, 123946, 4274, 62, 4274, 1, 1], [47, 4274, 0, 0], "Ok([])", 95, 0x47ab3e4f8a7c4387),
            node(1808377000000, 182, 0x4d916dca36232f3e, [116, 65, 365226, 16248, 181, 16248, 1, 1], [0, 0, 4274, 0], "Ok([SwitchedToRepartitioning { at_tuple: 207 }])", 2995, 0x5cc71f54a1529d29),
        ],
    },
    Pin {
        name: "a2p_inherit_few",
        nodes: &[
            node(1054577250000, 101, 0x3ac6276240ee3fd8, [0, 100, 202681, 6989, 100, 6989, 1, 1], [50, 6989, 0, 0], "Ok([])", 225, 0x7190e32eb03393c7),
            node(1280401500000, 200, 0xf69dd11244830245, [0, 199, 402984, 13896, 199, 13896, 1, 1], [50, 6907, 6989, 0], "Ok([])", 225, 0x7ac1564da6430a91),
        ],
    },
    Pin {
        name: "twophase_split_resume",
        nodes: &[
            node(2047395000000, 0, 0xcbf29ce484222325, [0, 0, 0, 0, 0, 0, 0, 0], [87, 12004, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 17011 })", 0, 0xcbf29ce484222325),
            node(1286605250000, 126, 0x902de25f56512e8c, [0, 124, 249052, 8588, 126, 8766, 2, 2], [0, 0, 8588, 0], "Ok([])", 1148, 0x59243961a3c381e0),
            node(1369320250000, 125, 0x5f7c5ebb6e8b4f07, [0, 123, 249139, 8591, 121, 8413, 2, 2], [37, 5175, 3416, 0], "Ok([])", 1102, 0xa06cb2e660a94496),
        ],
    },
    Pin {
        name: "a2p_split_resume_few",
        nodes: &[
            node(1255506500000, 130, 0xbee5a024f8252fa7, [0, 130, 263900, 9100, 0, 0, 0, 0], [66, 9156, 0, 0], "Err(InjectedCrash { node: 0, at_tuple: 20003 })", 0, 0xcbf29ce484222325),
            node(684033000000, 102, 0x83571787407deda4, [0, 100, 200303, 6907, 106, 7346, 2, 2], [0, 0, 6907, 0], "Ok([])", 119, 0xbaf7dde6dfe8f7ea),
            node(783277250000, 103, 0xfa60dd0685672838, [0, 101, 202681, 6989, 95, 6550, 2, 2], [34, 4740, 2249, 0], "Ok([])", 106, 0xa3a1a850fce109be),
        ],
    },
];

#[test]
fn recovering_scans_reproduce_their_pins() {
    assert_eq!(PINS.len(), CASES.len(), "a pin per case");
    for (case, pin) in CASES.iter().zip(PINS) {
        assert_eq!(pin.name, case.name);
        let seen = run(case);
        assert_eq!(seen.len(), pin.nodes.len(), "{}", case.name);
        for (i, (seen, pinned)) in seen.iter().zip(pin.nodes).enumerate() {
            assert_eq!(seen, pinned, "{} seat {i}", case.name);
        }
    }
}

/// The cases keep exercising what they were chosen for.
#[test]
fn cases_hit_their_regimes() {
    for (case, pin) in CASES.iter().zip(PINS) {
        let name = case.name;
        let last = &pin.nodes[pin.nodes.len() - case.runs.last().unwrap().seats.len()..];
        // Every seat of the last run finishes with rows and wrote
        // checkpoints (a switched A-2P seat may only freeze them).
        for n in last {
            assert!(n.outcome.starts_with("Ok("), "{name}: {}", n.outcome);
            assert!(n.rows > 0, "{name}");
        }
        let switched = last.iter().all(|n| n.outcome.contains("SwitchedToRepartitioning"));
        match (case.kind, case.data) {
            (A2p, Data::Wide | Data::Mixed) => assert!(switched, "{name}"),
            (A2p, Data::FewGroups) => assert!(last.iter().all(|n| n.outcome == "Ok([])"), "{name}"),
            _ => {}
        }
        if case.kind == Tp || case.data == Data::FewGroups {
            // A seat whose partitions were complete in the store only
            // restores.
            let wrote = |n: &NodePin| n.recovery[0] > 0;
            let fresh = case.runs.len() == 1;
            assert!(if fresh { last.iter().all(wrote) } else { last.iter().any(wrote) }, "{name}: no checkpoint written");
        }
        if case.runs.len() > 1 {
            let first = &pin.nodes[0];
            if case.runs[0].crash_at.is_some() {
                assert!(first.outcome.starts_with("Err(InjectedCrash"), "{name}: {}", first.outcome);
                // The resumed run restores what run 1 made durable, or
                // replays what it scanned past it.
                assert!(last[0].recovery[2] > 0 || last[0].recovery[3] > 0, "{name}: nothing resumed");
            } else {
                assert!(last[0].recovery[2] > 0, "{name}: the complete partition was not restored");
            }
        }
    }
}

#[test]
#[ignore]
fn print_recovery_pins() {
    println!("const PINS: &[Pin] = &[");
    for case in CASES {
        println!("    Pin {{");
        println!("        name: {:?},", case.name);
        println!("        nodes: &[");
        for p in run(case) {
            println!(
                "            node({}, {}, {:#018x}, {:?}, {:?}, {:?}, {}, {:#018x}),",
                p.ticks, p.sends, p.stamps, p.net, p.recovery, p.outcome, p.rows, p.rows_digest
            );
        }
        println!("        ],");
        println!("    }},");
    }
    println!("];");
}
