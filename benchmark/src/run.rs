//! One run of one workload: the end-to-end pass (tracing off) or the
//! traced pass (engine counters, phase totals, layer replays, budget).

use crate::host;
use crate::layers::{Replays, Sample, REPEATS};
use crate::spans::SpanLog;
use crate::spec::{WorkloadSpec, END_TO_END, PER_LAYER, SERVE_SQL};
use crate::speed::{self, Probe};
use crate::stats::{self, Summary};
use crate::workloads::{BatchData, Reply, ServeData, Timed};
use adaptagg::algos::RunOutcome;
use adaptagg::exec::PhaseKind;
use adaptagg::prelude::*;
use adaptagg::storage::HeapFile;
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable detail: sample counts, quartiles, replay spreads,
    /// the budget's terms.
    pub notes: Vec<String>,
    /// The harness-side span log (traced pass only).
    pub spans_json: Option<String>,
}

impl Report {
    fn new(spec: &WorkloadSpec, traced: bool) -> Report {
        Report {
            workload: spec.name,
            traced,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            spans_json: None,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn fail(mut self, error: String) -> Report {
        self.attempted = self.attempted.max(1);
        self.failed += 1;
        self.errors.push(error);
        self
    }

    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

fn describe(s: &Summary, unit: &str) -> String {
    format!(
        "n={} min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3} {unit} (MAD {:.3})",
        s.n, s.min, s.q1, s.median, s.q3, s.max, s.mad
    )
}

// ------------------------------------------------------- end-to-end pass

/// One set-up and the closed loop that follows it: the set-up's seconds
/// (corrected for host speed) and the loop's timings, or why the segment
/// could not run.
fn segment(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    min_queries: usize,
    probe: &mut Probe,
    report: &mut Report,
) -> Result<(f64, Timed), String> {
    let probe_before_ms = probe.sample_ms();
    let t0 = Instant::now();
    let set_up_failed = |e: String| format!("set-up: {e}");
    if spec.serve {
        let data = ServeData::set_up(spec, seed).map_err(set_up_failed)?;
        let server = data.start(spec, false).map_err(set_up_failed)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let setup_s = speed::corrected(setup_s, probe_before_ms, probe.sample_ms());
        let (timed, replies, errors) = data.timed(&server, seconds, min_queries);
        report.errors.extend(errors);
        report.notes.push(format!(
            "{} replies from {} closed-loop connections: {} refused, {} ran degraded",
            replies.len(),
            crate::spec::SERVE_CLIENTS,
            replies.iter().filter(|r| r.rejected).count(),
            replies.iter().filter(|r| r.degraded).count(),
        ));
        server.stop()?;
        Ok((setup_s, timed))
    } else {
        let data = BatchData::set_up(spec, seed).map_err(set_up_failed)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let probe_after_ms = probe.sample_ms();
        let setup_s = speed::corrected(setup_s, probe_before_ms, probe_after_ms);
        let (timed, errors) = data.timed(spec, seconds, min_queries, probe, probe_after_ms);
        report.errors.extend(errors);
        Ok((setup_s, timed))
    }
}

/// The end-to-end pass, tracing off: [`SETUP_REPEATS`] segments, each a
/// fresh set-up followed by a closed loop for its share of `seconds`,
/// every answer checked. The query walls of all segments are pooled: a
/// relation's placement in memory moves a whole segment's walls by
/// several percent, and one process with one placement would carry that
/// into the run's median.
pub fn end_to_end(spec: &WorkloadSpec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(spec, false);
    let mut probe = Probe::new();
    let mut setups = Vec::new();
    let mut segment_medians = Vec::new();
    let mut timed = Timed::default();
    for _ in 0..SETUP_REPEATS {
        // The previous segment's relation is freed by now: peak RSS is
        // one relation, not two.
        match segment(
            spec,
            seed,
            seconds / SETUP_REPEATS as f64,
            spec.min_queries.div_ceil(SETUP_REPEATS),
            &mut probe,
            &mut report,
        ) {
            Ok((setup_s, part)) => {
                setups.push(setup_s);
                if !part.walls_ms.is_empty() {
                    segment_medians.push(stats::median(&part.walls_ms));
                }
                timed.absorb(part);
            }
            Err(e) => return report.fail(e),
        }
    }
    // Warm-up queries are checked too, so they count as attempts.
    report.attempted = timed.attempted + SETUP_REPEATS as u64;
    report.failed = timed.failed;
    if timed.walls_ms.is_empty() {
        return report.fail("no timed query completed".into());
    }
    report.metrics.push(("setup_s", stats::median(&setups)));
    report.metrics.extend(timed.metrics(spec));
    report.metrics.push(("peak_rss_mb", host::peak_rss_mb()));
    report.notes.push(format!(
        "set-up x{SETUP_REPEATS}, corrected for host speed: {}",
        describe(&stats::summarize(&setups), "s")
    ));
    report.notes.push(format!(
        "query wall over {:.2} s timed{}: {}",
        timed.wall_s,
        if timed.probe_ms.is_empty() {
            ""
        } else {
            ", corrected for host speed"
        },
        describe(&stats::summarize(&timed.walls_ms), "ms")
    ));
    if !timed.probe_ms.is_empty() {
        report.notes.push(format!(
            "query wall as the clock read it: {}",
            describe(&stats::summarize(&timed.raw_walls_ms), "ms")
        ));
        report.notes.push(format!(
            "host-speed probe (nominal {} ms): {}",
            speed::NOMINAL_MS,
            describe(&stats::summarize(&timed.probe_ms), "ms")
        ));
    }
    report.notes.push(format!(
        "median query wall of each segment: {}",
        segment_medians
            .iter()
            .map(|m| format!("{m:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // The tail and the mean rate are printed, not gated: on a shared
    // 2-vCPU host their run-to-run spread reaches 25 %.
    report.notes.push(format!(
        "not gated: {:.4} queries/s over the section; p90 {:.3} ms{}",
        timed.walls_ms.len() as f64 / timed.wall_s,
        stats::percentile(&timed.walls_ms, 90),
        if stats::percentile_eligible(timed.walls_ms.len(), 90) {
            ""
        } else {
            " (fewer than ten samples lie beyond it)"
        }
    ));
    if let Err(e) = crate::spec::check_reported(END_TO_END, &report.metrics) {
        report.errors.push(e);
    }
    report
}

// ----------------------------------------------------------- traced pass

/// Timings and the last traced outcome of the engine query.
struct EnginePass {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Walls at the other thread count (2 if the workload runs 1, else 1).
    alt_ms: Vec<f64>,
    outcome: RunOutcome,
    traced_wall_ms: f64,
}

type Engine<'a> = &'a dyn Fn(usize, bool) -> (Result<RunOutcome, String>, f64);

/// Alternate untraced and traced engine queries for about `budget_s`
/// (at least three pairs), then a few at the other thread count.
fn engine_pass(
    engine: Engine,
    threads: usize,
    budget_s: f64,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<EnginePass, String> {
    let span = log.open("engine", Some(SpanLog::ROOT));
    let mut run = |label: &str, threads: usize, traced: bool, log: &mut SpanLog| {
        let ((result, wall_ms), _) = log.time(label, span, || engine(threads, traced));
        report.attempted += 1;
        result.map(|out| (out, wall_ms))
    };
    let (mut untraced_ms, mut traced_ms, mut alt_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while untraced_ms.len() < 3
        || (start.elapsed().as_secs_f64() < budget_s && untraced_ms.len() < 40)
    {
        // Alternate which side goes first so drift hits both alike.
        for traced in if untraced_ms.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        } {
            let (out, wall_ms) = run(
                if traced {
                    "query.traced"
                } else {
                    "query.untraced"
                },
                threads,
                traced,
                log,
            )?;
            if traced {
                traced_ms.push(wall_ms);
                last = Some((out, wall_ms));
            } else {
                untraced_ms.push(wall_ms);
            }
        }
    }
    let alt_threads = if threads == 1 { 2 } else { 1 };
    let start = Instant::now();
    while alt_ms.len() < 3 || (start.elapsed().as_secs_f64() < budget_s / 3.0 && alt_ms.len() < 20)
    {
        alt_ms.push(run("query.alt_threads", alt_threads, false, log)?.1);
    }
    log.close(span);
    let (outcome, traced_wall_ms) = last.expect("at least three traced queries ran");
    Ok(EnginePass {
        untraced_ms,
        traced_ms,
        alt_ms,
        outcome,
        traced_wall_ms,
    })
}

/// One additive term of a workload's budget: `weight` x `ns` per input
/// tuple of node-time.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetTerm {
    pub layer: &'static str,
    pub weight: f64,
    pub ns: f64,
}

/// Per-input-tuple counts the budget weighs the replays with.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathCounts {
    pub tuples: f64,
    /// Rows pushed one by one into a local hash aggregator.
    pub local_rows: f64,
    /// Rows pushed into a local sort aggregator.
    pub sorted_rows: f64,
    /// Tuples that crossed the exchange (raw or partial).
    pub sent: f64,
    /// Groups emitted, cluster-wide.
    pub groups_out: f64,
    pub spilled: f64,
}

/// The layers on a workload's path, weighted by how many rows took each
/// step. A model, kept deliberately small: what it cannot explain is the
/// residual, and the residual is reported.
pub fn budget_terms(c: &PathCounts, ns: &dyn Fn(&str) -> f64) -> Vec<BudgetTerm> {
    let n = c.tuples.max(1.0);
    let mut terms = Vec::new();
    let mut term = |layer: &'static str, weight: f64| {
        // A step fewer than one row in a thousand takes is not on the path.
        if weight >= 1e-3 {
            terms.push(BudgetTerm {
                layer,
                weight,
                ns: ns(layer),
            });
        }
    };
    term("exec.scan_ns_per_tuple", 1.0);
    term("hashagg.row_push_ns_per_tuple", c.local_rows / n);
    term("sortagg.run_form_ns_per_tuple", c.sorted_rows / n);
    term("sortagg.merge_ns_per_tuple", c.sorted_rows / n);
    // Every row that crosses the exchange is routed (the replay includes
    // blocking and the fabric send) and then merged on arrival.
    term("exec.route_row_ns_per_tuple", c.sent / n);
    if c.spilled > 0.0 {
        // A spilling merge pays probe-full, spool, drain and re-probe.
        term("hashagg.overflow_ns_per_tuple", c.sent / n);
    } else {
        let new = c.groups_out.min(c.sent);
        term("hashagg.probe_new_ns_per_tuple", new / n);
        term("hashagg.probe_hit_ns_per_tuple", (c.sent - new) / n);
    }
    terms
}

fn phase_wall_ms(outcome: &RunOutcome, phase: PhaseKind) -> f64 {
    outcome
        .trace
        .as_ref()
        .and_then(|t| t.phase_totals().into_iter().find(|(p, _)| *p == phase))
        .map_or(0.0, |(_, total)| total.wall_us as f64 / 1e3)
}

/// Microseconds to compile one serving statement.
fn sql_compile_us() -> Result<f64, String> {
    const ROUNDS: usize = 50;
    let schema = RelationSpec::uniform(1, 1).schema();
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for sql in SERVE_SQL {
                std::hint::black_box(compile_sql(sql, &schema).map_err(|e| e.to_string())?);
            }
        }
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3 / (ROUNDS * SERVE_SQL.len()) as f64);
    }
    Ok(stats::median(&samples))
}

/// The `serve.*` metrics of one untraced and one traced session.
struct ServePass {
    metrics: Vec<(&'static str, f64)>,
    overhead_frac: f64,
}

fn serve_sessions(
    spec: &WorkloadSpec,
    data: &ServeData,
    seconds: f64,
    report: &mut Report,
) -> Result<ServePass, String> {
    let mut sessions: Vec<(Timed, Vec<Reply>)> = Vec::new();
    for traced in [false, true] {
        let server = data.start(spec, traced)?;
        let (timed, replies, errors) = data.timed(&server, seconds, spec.min_queries / 4);
        server.stop()?;
        report.attempted += timed.attempted;
        report.failed += timed.failed;
        report.errors.extend(errors);
        if timed.walls_ms.is_empty() {
            return Err("a serving session completed no query".into());
        }
        sessions.push((timed, replies));
    }
    let (untraced, replies) = &sessions[0];
    let ok: Vec<&Reply> = replies.iter().filter(|r| r.ok).collect();
    let column = |f: &dyn Fn(&Reply) -> f64| -> Vec<f64> { ok.iter().map(|r| f(r)).collect() };
    let all = replies.len().max(1) as f64;
    let p50 = stats::median(&untraced.walls_ms);
    Ok(ServePass {
        metrics: vec![
            (
                "serve.queue_wait_ms_p50",
                stats::median(&column(&|r| r.queue_wait_ms)),
            ),
            ("serve.exec_ms_p50", stats::median(&column(&|r| r.total_ms))),
            (
                "serve.protocol_us",
                stats::median(&column(&|r| (r.latency_ms - r.total_ms) * 1e3)),
            ),
            (
                "serve.query_ms_p90",
                stats::percentile(&untraced.walls_ms, 90),
            ),
            (
                "serve.qps",
                untraced.walls_ms.len() as f64 / untraced.wall_s,
            ),
            (
                "serve.degraded_frac",
                replies.iter().filter(|r| r.degraded).count() as f64 / all,
            ),
            (
                "serve.rejected_frac",
                replies.iter().filter(|r| r.rejected).count() as f64 / all,
            ),
        ],
        overhead_frac: (stats::median(&sessions[1].0.walls_ms) - p50) / p50,
    })
}

/// A workload's inputs, whichever kind it is.
enum Loaded {
    Batch(BatchData),
    Serve(ServeData),
}

impl Loaded {
    /// Node 0's partition, the engine query, and the generation time.
    fn node0(&self) -> (&HeapFile, &AggQuery, f64) {
        match self {
            Loaded::Batch(d) => (&d.partitions[0], &d.query, d.gen_s),
            Loaded::Serve(d) => (&d.dataset.partitions[0], &d.queries[0], d.gen_s),
        }
    }

    fn run_engine(
        &self,
        spec: &WorkloadSpec,
        threads: usize,
        traced: bool,
    ) -> (Result<RunOutcome, String>, f64) {
        match self {
            Loaded::Batch(d) => d.run(spec, threads, traced),
            Loaded::Serve(d) => d.run_engine(spec, threads, traced),
        }
    }
}

/// The traced pass. Nothing here feeds an end-to-end number.
pub fn traced(spec: &WorkloadSpec, seed: u64, seconds: f64, sample_tuples: usize) -> Report {
    let mut report = Report::new(spec, true);
    let mut log = SpanLog::new(spec.name);
    match traced_inner(spec, seed, seconds, sample_tuples, &mut log, &mut report) {
        Ok(()) => {
            if let Err(e) = crate::spec::check_reported(PER_LAYER, &report.metrics) {
                report.errors.push(e);
            }
        }
        Err(e) => report = report.fail(e),
    }
    report.spans_json = Some(log.finish_json());
    report
}

fn traced_inner(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    sample_tuples: usize,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    // The host-speed probe at the start, after the engine pass and after
    // the replays: the per-layer timings below are as the clock read them,
    // and this says how fast the host was while it did.
    let mut probe = Probe::new();
    let mut probe_ms = Vec::new();
    let mut sample_probe = |out: &mut Vec<f64>| out.extend((0..5).map(|_| probe.sample_ms()));
    sample_probe(&mut probe_ms);

    // Set-up, once.
    let setup = log.open("setup", Some(SpanLog::ROOT));
    let data = if spec.serve {
        Loaded::Serve(ServeData::set_up(spec, seed)?)
    } else {
        Loaded::Batch(BatchData::set_up(spec, seed)?)
    };
    log.close(setup);
    report.attempted += 1;
    let (partition, query, gen_s) = data.node0();

    let serve_pass = match &data {
        Loaded::Serve(serving) => {
            let span = log.open("serve.sessions", Some(SpanLog::ROOT));
            let pass = serve_sessions(spec, serving, seconds * 0.25, report)?;
            log.close(span);
            Some(pass)
        }
        Loaded::Batch(_) => None,
    };
    let engine_budget = if spec.serve {
        seconds * 0.08
    } else {
        seconds * 0.35
    };
    let pass = engine_pass(
        &|threads, traced| data.run_engine(spec, threads, traced),
        spec.threads,
        engine_budget,
        log,
        report,
    )?;

    sample_probe(&mut probe_ms);

    // Layer replays on node 0's pages.
    let sample = Sample::cut(partition, query, sample_tuples, seed)?;
    let span = log.open("replays", Some(SpanLog::ROOT));
    let mut replays = Replays::new(log, span);
    replays.storage(&sample)?;
    replays.model(&sample)?;
    replays.exec(&sample, spec.transport)?;
    replays.hashagg(&sample)?;
    let runs_sealed = replays.sortagg(&sample)?;
    replays.net(&sample)?;
    let results = std::mem::take(&mut replays.results);
    drop(replays);
    log.close(span);
    sample_probe(&mut probe_ms);
    let ns = |name: &str| {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s.median)
    };

    // Counters of the traced engine query.
    let out = &pass.outcome;
    let n = spec.tuples as f64;
    let mut agg = adaptagg::hashagg::HashAggStats::default();
    out.nodes.iter().for_each(|node| agg.add(&node.agg));
    let net = out.run.total_net();
    let switches: Vec<u64> = out
        .nodes
        .iter()
        .flat_map(|node| &node.events)
        .filter_map(|e| match e {
            AdaptEvent::SwitchedToRepartitioning { at_tuple } => Some(*at_tuple),
            _ => None,
        })
        .collect();
    let untraced_ms = stats::median(&pass.untraced_ms);
    let (one_thread_ms, two_thread_ms) = if spec.threads == 1 {
        (untraced_ms, stats::median(&pass.alt_ms))
    } else {
        (stats::median(&pass.alt_ms), untraced_ms)
    };
    let top_level = [
        PhaseKind::Scan,
        PhaseKind::LocalAgg,
        PhaseKind::Partition,
        PhaseKind::Merge,
        PhaseKind::Sample,
        PhaseKind::Sort,
    ];
    let covered_ms: f64 = top_level.iter().map(|p| phase_wall_ms(out, *p)).sum();

    // Budget: the replays on this workload's path against node-time per tuple.
    let local_rows = match spec.algo {
        AlgorithmKind::SortTwoPhase | AlgorithmKind::Repartitioning => 0.0,
        // A node that switched stopped pushing locally at its switch point.
        _ if switches.len() == spec.nodes => switches.iter().sum::<u64>() as f64,
        _ => n,
    };
    let counts = PathCounts {
        tuples: n,
        local_rows,
        sorted_rows: if spec.algo == AlgorithmKind::SortTwoPhase {
            n
        } else {
            0.0
        },
        sent: net.tuples_sent as f64,
        groups_out: agg.groups_out as f64,
        spilled: agg.spilled_tuples as f64,
    };
    let terms = budget_terms(&counts, &ns);
    let layers_sum: f64 = terms.iter().map(|t| t.weight * t.ns).sum();
    let e2e_ns = spec.nodes as f64 * untraced_ms * 1e6 / n;

    let stream_mb_per_s = |msg_us: f64| {
        let bytes: usize = sample.msg_pages.iter().map(|p| p.bytes_used()).sum();
        bytes as f64 / sample.msg_pages.len().max(1) as f64 / msg_us
    };
    let m = &mut report.metrics;
    m.push(("host.probe_ms", stats::median(&probe_ms)));
    m.push(("workload.gen_ns_per_tuple", gen_s * 1e9 / n));
    m.push((
        "storage.bytes_per_tuple",
        partition.bytes_used() as f64 / partition.tuple_count().max(1) as f64,
    ));
    m.extend(results.iter().map(|(name, s)| (*name, s.median)));
    m.push(("net.chan_mb_per_s", stream_mb_per_s(ns("net.chan_msg_us"))));
    m.push(("net.tcp_mb_per_s", stream_mb_per_s(ns("net.tcp_msg_us"))));
    m.push(("hashagg.intra_speedup", one_thread_ms / two_thread_ms));
    m.push(("hashagg.spilled_tuples", agg.spilled_tuples as f64));
    m.push(("hashagg.overflow_buckets", agg.overflow_buckets as f64));
    m.push(("hashagg.peak_resident", agg.peak_resident as f64));
    m.push((
        "hashagg.probe_slots_per_tuple",
        agg.probe_slots as f64 / (agg.rows_in().max(1)) as f64,
    ));
    m.push(("sortagg.runs", runs_sealed as f64));
    m.push(("net.bytes_sent", net.bytes_sent as f64));
    m.push(("net.pages_sent", net.pages_sent() as f64));
    m.push(("net.tuples_sent_frac", net.tuples_sent as f64 / n));
    m.push(("net.send_retries", net.send_retries as f64));
    m.push(("algos.phase_scan_ms", phase_wall_ms(out, PhaseKind::Scan)));
    m.push((
        "algos.phase_local_agg_ms",
        phase_wall_ms(out, PhaseKind::LocalAgg),
    ));
    m.push((
        "algos.phase_partition_ms",
        phase_wall_ms(out, PhaseKind::Partition),
    ));
    m.push(("algos.phase_merge_ms", phase_wall_ms(out, PhaseKind::Merge)));
    m.push(("algos.phase_sort_ms", phase_wall_ms(out, PhaseKind::Sort)));
    m.push((
        "algos.phase_coverage_frac",
        covered_ms / (spec.nodes as f64 * pass.traced_wall_ms),
    ));
    m.push(("algos.switch_nodes", switches.len() as f64));
    m.push((
        "algos.switch_at_tuple",
        if switches.is_empty() {
            0.0
        } else {
            switches.iter().sum::<u64>() as f64 / switches.len() as f64
        },
    ));
    m.push(("cost.virtual_ms", out.elapsed_ms()));
    let engine_overhead = (stats::median(&pass.traced_ms) - untraced_ms) / untraced_ms;
    m.push((
        "obs.trace_overhead_frac",
        serve_pass
            .as_ref()
            .map_or(engine_overhead, |p| p.overhead_frac),
    ));
    m.push(("sql.compile_us", sql_compile_us()?));
    match serve_pass {
        Some(pass) => m.extend(pass.metrics),
        // The serving layer is not on a batch workload's path: it did no
        // work, and says so with zeros.
        None => m.extend(
            PER_LAYER
                .iter()
                .filter(|d| d.name.starts_with("serve."))
                .map(|d| (d.name, 0.0)),
        ),
    }
    m.push(("budget.layers_sum_ns_per_tuple", layers_sum));
    m.push(("budget.e2e_ns_per_tuple", e2e_ns));
    m.push(("budget.residual_frac", (e2e_ns - layers_sum) / e2e_ns));

    report.notes.push(format!(
        "engine query: {} untraced, {} traced, {} at the other thread count; untraced {}",
        pass.untraced_ms.len(),
        pass.traced_ms.len(),
        pass.alt_ms.len(),
        describe(&stats::summarize(&pass.untraced_ms), "ms")
    ));
    report.notes.push(format!(
        "layer replays on {} tuples of node 0, {REPEATS} repeats each (median, MAD):",
        sample.tuples
    ));
    for (name, s) in &results {
        report
            .notes
            .push(format!("  {name:38} {:10.2} (MAD {:.2})", s.median, s.mad));
    }
    report
        .notes
        .push("budget, ns of node-time per input tuple (weight x replay):".into());
    for t in &terms {
        report.notes.push(format!(
            "  {:38} {:6.3} x {:8.2} = {:8.2}",
            t.layer,
            t.weight,
            t.ns,
            t.weight * t.ns
        ));
    }
    report.notes.push(format!(
        "  layers sum {layers_sum:.2}  vs end-to-end {e2e_ns:.2} ({} node(s) x {untraced_ms:.2} ms / {} tuples)  residual {:.1} %",
        spec.nodes,
        spec.tuples,
        100.0 * (e2e_ns - layers_sum) / e2e_ns
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_ns(_: &str) -> f64 {
        1.0
    }

    #[test]
    fn budget_of_a_local_only_run_is_scan_plus_push() {
        let c = PathCounts {
            tuples: 100.0,
            local_rows: 100.0,
            sent: 0.0,
            groups_out: 4.0,
            ..Default::default()
        };
        let terms = budget_terms(&c, &unit_ns);
        let layers: Vec<_> = terms.iter().map(|t| (t.layer, t.weight)).collect();
        assert_eq!(
            layers,
            vec![
                ("exec.scan_ns_per_tuple", 1.0),
                ("hashagg.row_push_ns_per_tuple", 1.0)
            ]
        );
    }

    #[test]
    fn budget_of_repartitioning_splits_the_merge_by_regime() {
        let c = PathCounts {
            tuples: 100.0,
            sent: 100.0,
            groups_out: 25.0,
            ..Default::default()
        };
        let terms = budget_terms(&c, &unit_ns);
        let weight = |l: &str| terms.iter().find(|t| t.layer == l).map(|t| t.weight);
        assert_eq!(weight("exec.route_row_ns_per_tuple"), Some(1.0));
        assert_eq!(weight("hashagg.probe_new_ns_per_tuple"), Some(0.25));
        assert_eq!(weight("hashagg.probe_hit_ns_per_tuple"), Some(0.75));
        assert_eq!(weight("hashagg.overflow_ns_per_tuple"), None);
        assert_eq!(weight("hashagg.row_push_ns_per_tuple"), None);
    }

    #[test]
    fn budget_of_a_spilling_merge_uses_the_overflow_pass() {
        let c = PathCounts {
            tuples: 100.0,
            local_rows: 10.0,
            sent: 95.0,
            groups_out: 25.0,
            spilled: 60.0,
            ..Default::default()
        };
        let terms = budget_terms(&c, &unit_ns);
        let weight = |l: &str| terms.iter().find(|t| t.layer == l).map(|t| t.weight);
        assert_eq!(weight("hashagg.overflow_ns_per_tuple"), Some(0.95));
        assert_eq!(weight("hashagg.probe_new_ns_per_tuple"), None);
        assert_eq!(weight("hashagg.row_push_ns_per_tuple"), Some(0.1));
    }
}
