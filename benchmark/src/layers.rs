//! Layer replays: each layer's public functions called directly, from
//! outside the program, on node 0's pages of the workload (or on a
//! synthetic page set that pins one probe regime). Every replay is
//! repeated, reported as median + MAD in ns per input tuple, and wrapped
//! in a harness-side span.

use crate::spans::SpanLog;
use crate::stats::{self, Summary};
use adaptagg::exec::{operators, run_cluster, Clock, ClusterConfig, Exchange, ExecError};
use adaptagg::hashagg::{AggTable, HashAggregator};
use adaptagg::model::hash::{
    hash_batch_finish, hash_batch_init, hash_batch_ints, hash_batch_values, hash_values,
};
use adaptagg::model::{AggQuery, AggStates, CostParams, NetworkKind, RowKind, Seed, Value};
use adaptagg::net::frame::{decode_frame, encode_frame};
use adaptagg::net::{
    loopback_endpoints, ChannelTransport, Control, Endpoint, FaultPlan, Message, Network, Payload,
    TcpConfig, TransportKind, WireFrame,
};
use adaptagg::sortagg::merge::MergeEmit;
use adaptagg::sortagg::{merge_runs, RunBuilder};
use adaptagg::storage::{HeapFile, Page, SpillFile, StripView};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Repeats per replay (the issue asks for at least ten).
pub const REPEATS: usize = 10;
/// Input tuples a replay works on, at most.
pub const SAMPLE_TUPLES: usize = 100_000;
/// Distinct groups of the hit regime (table stays cache-resident).
const HIT_GROUPS: i64 = 64;
/// Control round trips per RTT repeat.
const PINGS: usize = 200;
const RECV_TIMEOUT: Duration = Duration::from_secs(20);

/// What the replays run on.
pub struct Sample {
    /// The first pages of node 0's partition, as a heap file.
    pub base: HeapFile,
    pub tuples: usize,
    /// The query in projected form (group columns first).
    pub query: AggQuery,
    /// Columns the scan keeps.
    pub projection: Vec<usize>,
    /// The sample's rows, projected.
    pub rows: Vec<Vec<Value>>,
    /// The same rows blocked into message pages, as the exchange ships
    /// them.
    pub msg_pages: Vec<Page>,
    /// Synthetic regimes, `tuples` rows each: every key already resident
    /// (64 groups) ...
    pub hit_rows: Vec<Vec<Value>>,
    pub hit_pages: Vec<Page>,
    /// ... every key distinct ...
    pub new_pages: Vec<Page>,
    /// ... and `tuples / 4` groups against a table 25x too small, the
    /// ratio of the high-cardinality workloads at the paper's `M`.
    pub mixed_rows: Vec<Vec<Value>>,
    pub mixed_pages: Vec<Page>,
    pub mixed_groups: usize,
    pub mixed_entries: usize,
    pub message_bytes: usize,
}

fn pages_of(rows: &[Vec<Value>], capacity: usize) -> Result<Vec<Page>, String> {
    let mut pages = vec![Page::new(capacity)];
    for row in rows {
        let fits = pages
            .last_mut()
            .expect("non-empty")
            .try_push(row)
            .map_err(|e| e.to_string())?;
        if !fits {
            let mut page = Page::new(capacity);
            page.try_push(row).map_err(|e| e.to_string())?;
            pages.push(page);
        }
    }
    Ok(pages)
}

impl Sample {
    /// Cut the sample from `partition`'s first pages and derive the
    /// synthetic regimes from `seed`.
    pub fn cut(
        partition: &HeapFile,
        query: &AggQuery,
        max_tuples: usize,
        seed: u64,
    ) -> Result<Sample, String> {
        let mut base_pages = Vec::new();
        let mut tuples = 0;
        for i in 0..partition.page_count() {
            let page = partition.page(i).map_err(|e| e.to_string())?;
            if tuples > 0 && tuples + page.tuple_count() > max_tuples {
                break;
            }
            tuples += page.tuple_count();
            base_pages.push(page.clone());
        }
        let projection = query.projection_columns();
        let mut rows = Vec::with_capacity(tuples);
        let mut scratch = Vec::new();
        for page in &base_pages {
            let mut cursor = page.cursor();
            while cursor.next_into(&mut scratch).map_err(|e| e.to_string())? {
                rows.push(
                    projection
                        .iter()
                        .map(|&c| scratch[c].clone())
                        .collect::<Vec<Value>>(),
                );
            }
        }
        let params = CostParams::paper_default();
        let base =
            HeapFile::from_pages(params.page_bytes, base_pages).map_err(|e| e.to_string())?;

        // splitmix64 value stream: the synthetic rows depend on --seed only.
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut value = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % 1000) as i64
        };
        let mixed_groups = (tuples / 4).max(1);
        let mut synth = |key: &dyn Fn(i64) -> i64| -> Vec<Vec<Value>> {
            (0..tuples as i64)
                .map(|i| vec![Value::Int(key(i)), Value::Int(value())])
                .collect()
        };
        let hit_rows = synth(&|i| i % HIT_GROUPS);
        let new_rows = synth(&|i| i);
        // A multiplicative scatter so neighbouring rows hit far-apart groups.
        let mixed_rows = synth(&|i| (i.wrapping_mul(2_654_435_761) % mixed_groups as i64).abs());
        let mb = params.message_bytes;
        Ok(Sample {
            base,
            tuples,
            query: query.remapped_to_projection(),
            projection,
            msg_pages: pages_of(&rows, mb)?,
            rows,
            hit_pages: pages_of(&hit_rows, mb)?,
            hit_rows,
            new_pages: pages_of(&new_rows, mb)?,
            mixed_pages: pages_of(&mixed_rows, mb)?,
            mixed_groups: {
                let mut keys: Vec<i64> = mixed_rows.iter().filter_map(|r| r[0].as_i64()).collect();
                keys.sort_unstable();
                keys.dedup();
                keys.len()
            },
            mixed_rows,
            mixed_entries: (tuples / 100).max(16),
            message_bytes: mb,
        })
    }
}

/// Collected replay results: `(metric name, per-unit summary)`.
pub struct Replays<'a> {
    log: &'a mut SpanLog,
    parent: usize,
    pub results: Vec<(&'static str, Summary)>,
}

/// The tracker the replays charge: a node clock, as the algorithms pass
/// `&mut ctx.clock` (its per-event accounting is part of every layer's
/// cost in the real path; a null tracker would hide it).
fn clock() -> Clock {
    Clock::new(CostParams::paper_default())
}

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

impl<'a> Replays<'a> {
    pub fn new(log: &'a mut SpanLog, parent: usize) -> Self {
        Replays {
            log,
            parent,
            results: Vec::new(),
        }
    }

    /// Repeat `f` (which returns the nanoseconds its timed region took)
    /// and record nanoseconds per `units`.
    fn measure(
        &mut self,
        name: &'static str,
        units: usize,
        mut f: impl FnMut() -> Result<f64, String>,
    ) -> Result<(), String> {
        let mut per_unit = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let (ns, _) = self.log.time(name, self.parent, &mut f);
            per_unit.push(ns.map_err(|e| format!("{name}: {e}"))? / units.max(1) as f64);
        }
        self.results.push((name, stats::summarize(&per_unit)));
        Ok(())
    }

    /// `storage`: cursor decode, wire encode/decode, spill write/drain.
    pub fn storage(&mut self, s: &Sample) -> Result<(), String> {
        let mut scratch = Vec::new();
        self.measure("storage.cursor_ns_per_tuple", s.tuples, || {
            let t0 = Instant::now();
            for i in 0..s.base.page_count() {
                let mut cursor = s.base.page(i).map_err(|e| e.to_string())?.cursor();
                while cursor.next_into(&mut scratch).map_err(|e| e.to_string())? {}
                black_box(&scratch);
            }
            Ok(ns_since(t0))
        })?;
        let mut buf = Vec::new();
        self.measure("storage.page_encode_ns_per_tuple", s.tuples, || {
            let t0 = Instant::now();
            for page in &s.msg_pages {
                buf.clear();
                page.encode_into(&mut buf);
                black_box(&buf);
            }
            Ok(ns_since(t0))
        })?;
        let encoded: Vec<(Vec<u8>, u32)> = s
            .msg_pages
            .iter()
            .map(|p| {
                let mut bytes = Vec::new();
                p.encode_into(&mut bytes);
                (bytes, p.tuple_count() as u32)
            })
            .collect();
        self.measure("storage.page_decode_ns_per_tuple", s.tuples, || {
            let owned = encoded.clone();
            let t0 = Instant::now();
            for (bytes, tuples) in owned {
                black_box(
                    Page::from_raw(s.message_bytes, bytes, tuples).map_err(|e| e.to_string())?,
                );
            }
            Ok(ns_since(t0))
        })?;
        let page_bytes = s.base.page_bytes();
        let spooled = |rows: &[Vec<Value>]| -> Result<SpillFile, String> {
            let mut file = SpillFile::new(page_bytes);
            let mut clk = clock();
            for row in rows {
                file.spool(row, &mut clk).map_err(|e| e.to_string())?;
            }
            file.finish(&mut clk);
            Ok(file)
        };
        self.measure("storage.spill_write_ns_per_tuple", s.tuples, || {
            let t0 = Instant::now();
            black_box(spooled(&s.rows)?);
            Ok(ns_since(t0))
        })?;
        self.measure("storage.spill_drain_ns_per_tuple", s.tuples, || {
            let file = spooled(&s.rows)?;
            let t0 = Instant::now();
            let n = file
                .drain(&mut clock(), |_, row| {
                    black_box(row);
                    Ok(())
                })
                .map_err(|e| e.to_string())?;
            let ns = ns_since(t0);
            if n == s.tuples {
                Ok(ns)
            } else {
                Err(format!("drained {n} of {} tuples", s.tuples))
            }
        })
    }

    /// `model`: batch hash kernels vs the per-row fold, and the columnar
    /// state-update sweep.
    pub fn model(&mut self, s: &Sample) -> Result<(), String> {
        let k = s.query.group_by.len();
        let mut hashes = Vec::new();
        self.measure("model.hash_batch_ns_per_tuple", s.tuples, || {
            let t0 = Instant::now();
            for page in &s.msg_pages {
                hash_batch_init(Seed::Table, page.tuple_count(), &mut hashes);
                for j in 0..k {
                    match page.column(j).ok_or("ragged message page")? {
                        StripView::Ints(xs) => hash_batch_ints(&mut hashes, xs),
                        StripView::Values(vs) => hash_batch_values(&mut hashes, vs),
                    }
                }
                hash_batch_finish(&mut hashes);
                black_box(&hashes);
            }
            Ok(ns_since(t0))
        })?;
        self.measure("model.hash_row_ns_per_tuple", s.tuples, || {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for row in &s.rows {
                acc ^= hash_values(Seed::Table, &row[..k]);
            }
            black_box(acc);
            Ok(ns_since(t0))
        })?;
        // SUM(v) + COUNT(*) over 64 resident groups, one column at a time
        // as the batched probe replays them.
        let cells: Vec<(usize, i64)> = s
            .hit_rows
            .iter()
            .map(|r| {
                (
                    r[0].as_i64().unwrap_or(0) as usize,
                    r[1].as_i64().unwrap_or(0),
                )
            })
            .collect();
        self.measure("model.agg_update_ns_per_tuple", s.tuples, || {
            let mut states: Vec<AggStates> = (0..HIT_GROUPS)
                .map(|_| AggStates::new(&s.query.aggs))
                .collect();
            let t0 = Instant::now();
            for &(g, v) in &cells {
                states[g].update_int_at(0, v);
            }
            for &(g, _) in &cells {
                states[g].update_star_at(1);
            }
            black_box(&states);
            Ok(ns_since(t0))
        })
    }

    /// `exec`: the scan operator into a no-op sink, and the exchange
    /// (page-batched and per-row, as the algorithms call it) into
    /// receivers that only drain. Runs inside `run_cluster` closures on
    /// `transport`; the time is taken on node 0, inside the closure.
    pub fn exec(&mut self, s: &Sample, transport: TransportKind) -> Result<(), String> {
        let mut one = ClusterConfig::new(1, CostParams::paper_default()).with_threads(1);
        one.trace = false;
        self.measure("exec.scan_ns_per_tuple", s.tuples, || {
            let run = run_cluster(&one, vec![s.base.clone()], |ctx| {
                let t0 = Instant::now();
                let n = operators::scan_project(ctx, "base", &[], &s.projection, |_, values| {
                    black_box(values);
                    Ok(())
                })?;
                Ok((ns_since(t0), n))
            })
            .map_err(|e| e.to_string())?;
            let (ns, n) = run.outputs[0];
            if n == s.tuples {
                Ok(ns)
            } else {
                Err(format!("scanned {n} of {} tuples", s.tuples))
            }
        })?;

        let mut two = ClusterConfig::new(2, CostParams::paper_default())
            .with_threads(1)
            .with_transport(transport);
        two.trace = false;
        let empty = || HeapFile::new(CostParams::paper_default().page_bytes);
        let k = s.query.group_by.len();
        let mut route = |name: &'static str, by_page: bool| {
            self.measure(name, s.tuples, || {
                let run = run_cluster(&two, vec![empty(), empty()], |ctx| {
                    let mut ex =
                        Exchange::new(ctx.nodes(), ctx.params().message_bytes, k, RowKind::Raw);
                    let mut ns = 0.0;
                    if ctx.id() == 0 {
                        let t0 = Instant::now();
                        if by_page {
                            for page in &s.msg_pages {
                                ex.route_page(ctx, page, true)?;
                            }
                        } else {
                            for row in &s.rows {
                                ex.route(ctx, row, true)?;
                            }
                        }
                        ex.finish(ctx)?;
                        ns = ns_since(t0);
                    } else {
                        ex.finish(ctx)?;
                    }
                    let (mut eos, mut received) = (0, 0usize);
                    while eos < ctx.nodes() {
                        match ctx.recv()?.payload {
                            Payload::Control(Control::EndOfStream) => eos += 1,
                            Payload::Data { page, .. } => {
                                received += page.tuple_count();
                                ctx.page_pool.put(page);
                            }
                            Payload::Control(_) => {
                                return Err(ExecError::Protocol("unexpected control in replay"))
                            }
                        }
                    }
                    Ok((ns, received))
                })
                .map_err(|e| e.to_string())?;
                let received: usize = run.outputs.iter().map(|o| o.1).sum();
                if received == s.tuples {
                    Ok(run.outputs[0].0)
                } else {
                    Err(format!(
                        "receivers drained {received} of {} tuples",
                        s.tuples
                    ))
                }
            })
        };
        route("exec.route_ns_per_tuple", true)?;
        route("exec.route_row_ns_per_tuple", false)
    }

    /// `hashagg`: the batched probe in its three regimes, the row lane,
    /// the per-row push the local phase uses, and a full overflow pass.
    pub fn hashagg(&mut self, s: &Sample) -> Result<(), String> {
        let n = s.tuples;
        let prefilled = |max_entries: usize| -> Result<AggTable, String> {
            let mut table = AggTable::new(s.query.clone(), max_entries);
            for page in &s.hit_pages[..1] {
                table
                    .insert_page(RowKind::Raw, page, &mut clock(), |_, _, _| Ok(()))
                    .map_err(|e| e.to_string())?;
            }
            Ok(table)
        };
        // Insert `pages` and check how many rows the table refused.
        let probe = |table: &mut AggTable,
                     pages: &[Page],
                     batched: bool,
                     refused: u64|
         -> Result<f64, String> {
            let mut clk = clock();
            let t0 = Instant::now();
            let mut rejected = 0;
            for page in pages {
                let r = if batched {
                    table.insert_page_batched(RowKind::Raw, page, &mut clk, |_, _, _| Ok(()))
                } else {
                    table.insert_page(RowKind::Raw, page, &mut clk, |_, _, _| Ok(()))
                };
                rejected += r.map_err(|e| e.to_string())?;
            }
            let ns = ns_since(t0);
            if rejected == refused {
                Ok(ns)
            } else {
                Err(format!("{rejected} rows refused, expected {refused}"))
            }
        };
        let first_page_groups = (s.hit_pages[0].tuple_count() as i64).min(HIT_GROUPS) as usize;
        self.measure("hashagg.probe_hit_ns_per_tuple", n, || {
            let mut table = prefilled(10_000)?;
            probe(&mut table, &s.hit_pages, true, 0)
        })?;
        self.measure("hashagg.probe_new_ns_per_tuple", n, || {
            let mut table = AggTable::new(s.query.clone(), n + 1);
            let ns = probe(&mut table, &s.new_pages, true, 0)?;
            if table.len() == n {
                Ok(ns)
            } else {
                Err(format!("{} groups, expected {n}", table.len()))
            }
        })?;
        self.measure("hashagg.probe_full_ns_per_tuple", n, || {
            // Full of the first page's groups; every distinct key past
            // them is handed to the spool callback.
            let mut table = prefilled(first_page_groups)?;
            let resident = s
                .new_pages
                .iter()
                .map(|p| p.tuple_count())
                .sum::<usize>()
                .min(first_page_groups);
            probe(&mut table, &s.new_pages, true, (n - resident) as u64)
        })?;
        self.measure("hashagg.row_lane_ns_per_tuple", n, || {
            let mut table = prefilled(10_000)?;
            probe(&mut table, &s.hit_pages, false, 0)
        })?;
        let page_bytes = s.base.page_bytes();
        self.measure("hashagg.row_push_ns_per_tuple", n, || {
            let mut agg = HashAggregator::with_defaults(s.query.clone(), 10_000, page_bytes);
            let mut clk = clock();
            let t0 = Instant::now();
            for row in &s.hit_rows {
                agg.push_raw(row, &mut clk).map_err(|e| e.to_string())?;
            }
            let ns = ns_since(t0);
            if agg.resident_groups() == HIT_GROUPS as usize {
                Ok(ns)
            } else {
                Err("hit regime lost groups".into())
            }
        })?;
        self.measure("hashagg.overflow_ns_per_tuple", n, || {
            let mut agg =
                HashAggregator::with_defaults(s.query.clone(), s.mixed_entries, page_bytes);
            let mut clk = clock();
            let t0 = Instant::now();
            for page in &s.mixed_pages {
                agg.push_page(RowKind::Raw, page, &mut clk)
                    .map_err(|e| e.to_string())?;
            }
            let (rows, stats) = agg.finish_rows(&mut clk).map_err(|e| e.to_string())?;
            let ns = ns_since(t0);
            if rows.len() == s.mixed_groups && stats.spilled() {
                Ok(ns)
            } else {
                Err(format!(
                    "{} groups (spilled {}), expected {}",
                    rows.len(),
                    stats.spilled_tuples,
                    s.mixed_groups
                ))
            }
        })
    }

    /// `sortagg`: run formation, then the k-way merge; returns the runs
    /// sealed.
    pub fn sortagg(&mut self, s: &Sample) -> Result<usize, String> {
        let page_bytes = s.base.page_bytes();
        let form = || -> Result<_, String> {
            let mut builder = RunBuilder::new(s.query.clone(), s.mixed_entries, page_bytes);
            let mut clk = clock();
            for row in &s.mixed_rows {
                builder
                    .push(RowKind::Raw, row, &mut clk)
                    .map_err(|e| e.to_string())?;
            }
            builder.finish(&mut clk).map_err(|e| e.to_string())
        };
        let mut runs_sealed = 0;
        self.measure("sortagg.run_form_ns_per_tuple", s.tuples, || {
            let t0 = Instant::now();
            let (runs, resident) = form()?;
            let ns = ns_since(t0);
            runs_sealed = runs.len();
            black_box(resident);
            Ok(ns)
        })?;
        self.measure("sortagg.merge_ns_per_tuple", s.tuples, || {
            let (runs, resident) = form()?;
            let t0 = Instant::now();
            let rows = merge_runs(&s.query, runs, resident, MergeEmit::Finalized, &mut clock())
                .map_err(|e| e.to_string())?;
            let ns = ns_since(t0);
            if rows.len() == s.mixed_groups {
                Ok(ns)
            } else {
                Err(format!(
                    "{} groups, expected {}",
                    rows.len(),
                    s.mixed_groups
                ))
            }
        })?;
        Ok(runs_sealed)
    }

    /// `net`: frame codec on data-page frames, then a one-way page
    /// stream and a control ping-pong over each transport.
    pub fn net(&mut self, s: &Sample) -> Result<(), String> {
        let frames: Vec<WireFrame> = s
            .msg_pages
            .iter()
            .enumerate()
            .map(|(i, page)| {
                WireFrame::Msg(Message {
                    from: 0,
                    seq: i as u64,
                    sent_at_ms: i as f64,
                    payload: Payload::Data {
                        kind: RowKind::Raw,
                        page: page.clone(),
                    },
                })
            })
            .collect();
        self.measure("net.frame_encode_ns_per_tuple", s.tuples, || {
            let t0 = Instant::now();
            for frame in &frames {
                black_box(encode_frame(frame));
            }
            Ok(ns_since(t0))
        })?;
        let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
        self.measure("net.frame_decode_ns_per_tuple", s.tuples, || {
            let t0 = Instant::now();
            for buf in &encoded {
                black_box(decode_frame(buf).map_err(|e| e.to_string())?);
            }
            Ok(ns_since(t0))
        })?;

        let kind = NetworkKind::high_speed_default();
        let plan = FaultPlan::none();
        let chan: Vec<Endpoint> = ChannelTransport::mesh(2)
            .into_iter()
            .map(|t| Endpoint::over(Box::new(t), Network::new(kind), &plan))
            .collect();
        self.stream("net.chan_msg_us", chan, s)?;
        let tcp =
            loopback_endpoints(2, kind, &plan, TcpConfig::default()).map_err(|e| e.to_string())?;
        let tcp = self.stream("net.tcp_msg_us", tcp, s)?;
        self.ping_pong("net.tcp_rtt_us", tcp)
    }

    /// One-way stream of the sample's message pages from node 0 to a
    /// receiver thread on node 1: microseconds per message.
    fn stream(
        &mut self,
        name: &'static str,
        mut eps: Vec<Endpoint>,
        s: &Sample,
    ) -> Result<Vec<Endpoint>, String> {
        let n = s.msg_pages.len();
        let mut rx = eps.pop().ok_or("two endpoints")?;
        let mut tx = eps.pop().ok_or("two endpoints")?;
        self.measure(name, n * 1000, || {
            let pages = s.msg_pages.clone();
            let barrier = Barrier::new(2);
            std::thread::scope(|scope| {
                let receiver = scope.spawn(|| -> Result<Instant, String> {
                    barrier.wait();
                    for _ in 0..n {
                        rx.recv_timeout(RECV_TIMEOUT).map_err(|e| e.to_string())?;
                    }
                    Ok(Instant::now())
                });
                barrier.wait();
                let t0 = Instant::now();
                let sent: Result<(), String> = pages.into_iter().try_for_each(|page| {
                    tx.send_data(1, RowKind::Raw, page, 0.0)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                });
                let done = receiver
                    .join()
                    .map_err(|_| "receiver panicked".to_string())?;
                sent?;
                Ok(done?.duration_since(t0).as_nanos() as f64)
            })
        })?;
        Ok(vec![tx, rx])
    }

    /// Control-message round trips between node 0 and an echo thread on
    /// node 1: microseconds per round trip.
    fn ping_pong(&mut self, name: &'static str, mut eps: Vec<Endpoint>) -> Result<(), String> {
        let mut echo = eps.pop().ok_or("two endpoints")?;
        let mut ping = eps.pop().ok_or("two endpoints")?;
        self.measure(name, PINGS * 1000, || {
            std::thread::scope(|scope| {
                let echoer = scope.spawn(|| -> Result<(), String> {
                    for _ in 0..PINGS {
                        echo.recv_timeout(RECV_TIMEOUT).map_err(|e| e.to_string())?;
                        echo.send_control(0, Control::EndOfStream, 0.0)
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                });
                let t0 = Instant::now();
                let pinged: Result<(), String> = (0..PINGS).try_for_each(|_| {
                    ping.send_control(1, Control::EndOfStream, 0.0)
                        .map_err(|e| e.to_string())?;
                    ping.recv_timeout(RECV_TIMEOUT)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                });
                let ns = ns_since(t0);
                echoer
                    .join()
                    .map_err(|_| "echo thread panicked".to_string())??;
                pinged.map(|()| ns)
            })
        })
    }
}
