//! Running a workload end to end: set-up (data generation, reference
//! result, server start, warm-up), the timed closed loop, and the
//! reference check on every answer.

use crate::spec::{WorkloadSpec, SERVE_CLIENTS, SERVE_QUEUE, SERVE_SQL};
use crate::speed::{self, Probe};
use crate::stats;
use adaptagg::algos::RunOutcome;
use adaptagg::model::MemoryGrant;
use adaptagg::prelude::*;
use adaptagg::serve::{serve, Dataset, QueryRequest, Scheduler, ServeConfig, ServeSummary};
use adaptagg::storage::HeapFile;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Row count plus an order-independent checksum of a result: what every
/// answer is compared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCheck {
    pub rows: usize,
    pub sum: u64,
}

impl RowCheck {
    pub fn of(rows: &[ResultRow]) -> RowCheck {
        let sum = rows.iter().fold(0u64, |acc, row| {
            // `DefaultHasher::new()` is keyed with constants, so the
            // checksum repeats across processes.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            row.key.values().hash(&mut h);
            row.aggs.hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        RowCheck {
            rows: rows.len(),
            sum,
        }
    }
}

/// Timings of one closed-loop section.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Per-query wall, submit → verified rows in hand, milliseconds. On
    /// batch workloads corrected for host speed (see `speed`); on the
    /// serving workload as the clock read it.
    pub walls_ms: Vec<f64>,
    /// The batch walls as the clock read them.
    pub raw_walls_ms: Vec<f64>,
    /// The probe samples taken around the queries (batch workloads).
    pub probe_ms: Vec<f64>,
    /// Wall of the whole section, seconds.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Pool another section's timings into this one.
    pub fn absorb(&mut self, other: Timed) {
        self.walls_ms.extend(other.walls_ms);
        self.raw_walls_ms.extend(other.raw_walls_ms);
        self.probe_ms.extend(other.probe_ms);
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The end-to-end metrics every workload reports, except `setup_s`
    /// and `peak_rss_mb`.
    pub fn metrics(&self, spec: &WorkloadSpec) -> Vec<(&'static str, f64)> {
        let p50 = stats::median(&self.walls_ms);
        // Every closed-loop caller gets one answer per median query: a
        // batch workload has one caller, the serving workload one per
        // connection. The mean rate over the section is printed beside
        // it, not gated: the tail moves it by twice as much from run to
        // run. The serving numbers are as the clock read them: most of a
        // reply's latency there is a 40 ms delayed-ACK timer, which no
        // host-speed correction fits.
        let callers = if spec.serve { SERVE_CLIENTS } else { 1 };
        let tuples_per_s = (callers * spec.tuples) as f64 / (p50 / 1e3);
        vec![("tuples_per_s", tuples_per_s), ("query_ms_p50", p50)]
    }
}

// ---------------------------------------------------------------- batch

/// A batch workload's inputs and expected answer.
pub struct BatchData {
    pub partitions: Vec<HeapFile>,
    pub query: AggQuery,
    pub reference: RowCheck,
    /// Seconds `generate_partitions` took.
    pub gen_s: f64,
}

/// The cluster a workload runs on. Everything the library would read
/// from the environment is pinned here.
pub fn cluster_for(spec: &WorkloadSpec, threads: usize, traced: bool) -> ClusterConfig {
    let params = CostParams {
        max_hash_entries: spec.memory,
        ..CostParams::paper_default()
    };
    let mut cluster = ClusterConfig::new(spec.nodes, params)
        .with_threads(threads)
        .with_transport(spec.transport);
    cluster.trace = traced;
    cluster
}

/// One query, submit → verified: `Err` carries why the answer failed.
pub fn run_verified(
    kind: AlgorithmKind,
    cluster: &ClusterConfig,
    partitions: &[HeapFile],
    query: &AggQuery,
    reference: RowCheck,
) -> (Result<RunOutcome, String>, f64) {
    let t0 = Instant::now();
    let result = match run_algorithm(kind, cluster, partitions, query) {
        Err(e) => Err(format!("query failed: {e}")),
        Ok(out) => {
            let got = RowCheck::of(&out.rows);
            if got == reference {
                Ok(out)
            } else {
                Err(format!(
                    "rows differ from the reference: {got:?} vs {reference:?}"
                ))
            }
        }
    };
    (result, t0.elapsed().as_secs_f64() * 1e3)
}

impl BatchData {
    /// Generate the relation from `seed`, compute the reference answer,
    /// and run the untimed warm-up query (the first query of a process
    /// takes 2-2.5x the steady state).
    pub fn set_up(spec: &WorkloadSpec, seed: u64) -> Result<BatchData, String> {
        let t0 = Instant::now();
        let rel = RelationSpec::uniform(spec.tuples, spec.groups).with_seed(seed);
        let partitions = generate_partitions(&rel, spec.nodes);
        let gen_s = t0.elapsed().as_secs_f64();
        let query = default_query();
        let reference = reference_aggregate(&partitions, &query)
            .map(|rows| RowCheck::of(&rows))
            .map_err(|e| format!("reference aggregation failed: {e}"))?;
        let data = BatchData {
            partitions,
            query,
            reference,
            gen_s,
        };
        data.run(spec, spec.threads, false)
            .0
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(data)
    }

    /// The workload's query on `threads` threads per node.
    pub fn run(
        &self,
        spec: &WorkloadSpec,
        threads: usize,
        traced: bool,
    ) -> (Result<RunOutcome, String>, f64) {
        let cluster = cluster_for(spec, threads, traced);
        run_verified(
            spec.algo,
            &cluster,
            &self.partitions,
            &self.query,
            self.reference,
        )
    }

    /// Closed loop from one thread: the next query starts when the
    /// previous one is verified. Runs for `seconds`, and at least
    /// `min_queries` queries. The probe is sampled after every query
    /// (`probe_before_ms` is the sample that precedes the first), and each
    /// wall is corrected with the samples on either side of it.
    pub fn timed(
        &self,
        spec: &WorkloadSpec,
        seconds: f64,
        min_queries: usize,
        probe: &mut Probe,
        mut probe_before_ms: f64,
    ) -> (Timed, Vec<String>) {
        let mut timed = Timed::default();
        let mut errors = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || timed.walls_ms.len() < min_queries {
            let (result, wall_ms) = self.run(spec, spec.threads, false);
            let probe_after_ms = probe.sample_ms();
            timed.attempted += 1;
            match result {
                Ok(_) => {
                    timed.raw_walls_ms.push(wall_ms);
                    timed
                        .walls_ms
                        .push(speed::corrected(wall_ms, probe_before_ms, probe_after_ms));
                }
                Err(e) => {
                    timed.failed += 1;
                    errors.push(e);
                    if timed.failed > 3 {
                        break;
                    }
                }
            }
            timed.probe_ms.push(probe_after_ms);
            probe_before_ms = probe_after_ms;
        }
        timed.wall_s = start.elapsed().as_secs_f64();
        (timed, errors)
    }
}

// -------------------------------------------------------------- serving

/// The serving workload's shared dataset and the expected answer of
/// each statement.
pub struct ServeData {
    pub dataset: Arc<Dataset>,
    pub queries: Vec<AggQuery>,
    pub references: Vec<RowCheck>,
    pub gen_s: f64,
}

/// One reply as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub latency_ms: f64,
    pub ok: bool,
    pub rejected: bool,
    pub degraded: bool,
    /// Server-side fields of the reply line.
    pub queue_wait_ms: f64,
    pub total_ms: f64,
}

/// A running in-process `serve()` on an ephemeral loopback port.
pub struct Server {
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

/// The number after `"key": ` in a reply line, searched from the front
/// (the scalar fields precede the row array).
fn json_number(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Classify one reply line against the expected row count.
pub fn parse_reply(line: &str, latency_ms: f64, expected_rows: usize) -> Reply {
    // `status` precedes the rows; `degraded` follows them, so search
    // for it from the back of a line that may be half a megabyte.
    let (mut head_end, mut tail_start) = (line.len().min(512), line.len().saturating_sub(512));
    while !line.is_char_boundary(head_end) {
        head_end -= 1;
    }
    while !line.is_char_boundary(tail_start) {
        tail_start += 1;
    }
    let (head, tail) = (&line[..head_end], &line[tail_start..]);
    let ok_status = head.contains("\"status\": \"ok\"");
    let row_count = json_number(head, "row_count").map(|n| n as usize);
    Reply {
        latency_ms,
        ok: ok_status && row_count == Some(expected_rows),
        rejected: head.contains("\"status\": \"rejected\""),
        degraded: tail.contains("\"degraded\": true"),
        queue_wait_ms: json_number(head, "queue_wait_ms").unwrap_or(0.0),
        total_ms: json_number(head, "total_ms").unwrap_or(0.0),
    }
}

fn request(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> std::io::Result<String> {
    writeln!(stream, "{line}")?;
    stream.flush()?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(reply)
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

impl ServeData {
    /// Generate the dataset from `seed`, compute both statements'
    /// reference answers, and check the scheduler returns exactly them.
    pub fn set_up(spec: &WorkloadSpec, seed: u64) -> Result<ServeData, String> {
        let t0 = Instant::now();
        let dataset = Arc::new(Dataset::uniform(spec.nodes, spec.tuples, spec.groups, seed));
        let gen_s = t0.elapsed().as_secs_f64();
        let mut queries = Vec::new();
        let mut references = Vec::new();
        for sql in SERVE_SQL {
            let bound = compile_sql(sql, &dataset.schema).map_err(|e| format!("{sql}: {e}"))?;
            let rows = reference_aggregate(&dataset.partitions, &bound.query)
                .map_err(|e| format!("reference aggregation failed: {e}"))?;
            references.push(RowCheck::of(&rows));
            queries.push(bound.query);
        }
        Ok(ServeData {
            dataset,
            queries,
            references,
            gen_s,
        })
    }

    fn scheduler(&self, spec: &WorkloadSpec, traced: bool) -> Arc<Scheduler> {
        let mut cfg = ServeConfig::new(spec.memory);
        cfg.queue_capacity = SERVE_QUEUE;
        cfg.concurrency = SERVE_CLIENTS;
        cfg.trace = traced;
        cfg.threads = spec.threads;
        Arc::new(Scheduler::new(cfg, Arc::clone(&self.dataset)))
    }

    /// Start the server and warm it up: each statement once through the
    /// scheduler with a full row check, then once over the wire.
    pub fn start(&self, spec: &WorkloadSpec, traced: bool) -> Result<Server, String> {
        let sched = self.scheduler(spec, traced);
        for (sql, reference) in SERVE_SQL.iter().zip(&self.references) {
            let report = sched.run(QueryRequest::new(*sql));
            let got = report.success().map(|s| RowCheck::of(&s.rows));
            if got != Some(*reference) {
                return Err(format!("warm-up `{sql}`: {got:?} vs {reference:?}"));
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = std::thread::Builder::new()
            .name("bench-serve".into())
            .spawn(move || serve(listener, sched, None, |_| {}))
            .map_err(|e| format!("spawn server: {e}"))?;
        let server = Server { addr, handle };
        let warm = (|| -> std::io::Result<bool> {
            let (mut stream, mut reader) = connect(addr)?;
            let mut ok = true;
            for (sql, reference) in SERVE_SQL.iter().zip(&self.references) {
                let line = request(&mut stream, &mut reader, sql)?;
                ok &= parse_reply(&line, 0.0, reference.rows).ok;
            }
            Ok(ok)
        })();
        match warm {
            Ok(true) => Ok(server),
            Ok(false) => {
                let _ = server.stop();
                Err("warm-up over the wire returned a wrong reply".into())
            }
            Err(e) => {
                let _ = server.stop();
                Err(format!("warm-up over the wire: {e}"))
            }
        }
    }

    /// Closed loop from [`SERVE_CLIENTS`] connections, each alternating
    /// the two statements, for `seconds` and at least `min_queries`
    /// queries in total. Refusals and wrong replies count as failed.
    pub fn timed(
        &self,
        server: &Server,
        seconds: f64,
        min_queries: usize,
    ) -> (Timed, Vec<Reply>, Vec<String>) {
        let barrier = Arc::new(Barrier::new(SERVE_CLIENTS + 1));
        let expected: Vec<usize> = self.references.iter().map(|r| r.rows).collect();
        let per_client_min = min_queries.div_ceil(SERVE_CLIENTS);
        let clients: Vec<JoinHandle<Result<Vec<Reply>, String>>> = (0..SERVE_CLIENTS)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let expected = expected.clone();
                let addr = server.addr;
                std::thread::spawn(move || {
                    let conn = connect(addr);
                    barrier.wait();
                    let (mut stream, mut reader) = conn.map_err(|e| format!("client {c}: {e}"))?;
                    let mut replies = Vec::new();
                    let start = Instant::now();
                    let mut i = c; // clients start on different statements
                    while start.elapsed().as_secs_f64() < seconds || replies.len() < per_client_min
                    {
                        let which = i % SERVE_SQL.len();
                        let t0 = Instant::now();
                        let line = request(&mut stream, &mut reader, SERVE_SQL[which])
                            .map_err(|e| format!("client {c}: {e}"))?;
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        replies.push(parse_reply(&line, latency_ms, expected[which]));
                        i += 1;
                    }
                    Ok(replies)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut replies = Vec::new();
        let mut errors = Vec::new();
        for client in clients {
            match client.join() {
                Ok(Ok(r)) => replies.extend(r),
                Ok(Err(e)) => errors.push(e),
                Err(_) => errors.push("client thread panicked".into()),
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let bad = replies.iter().filter(|r| !r.ok).count() as u64 + errors.len() as u64;
        let timed = Timed {
            walls_ms: replies
                .iter()
                .filter(|r| r.ok)
                .map(|r| r.latency_ms)
                .collect(),
            wall_s,
            attempted: replies.len() as u64 + errors.len() as u64,
            failed: bad,
            ..Timed::default()
        };
        (timed, replies, errors)
    }

    /// The engine query behind the first statement under the grant two
    /// concurrent queries leave each other: what the traced pass reads
    /// its counters from.
    pub fn run_engine(
        &self,
        spec: &WorkloadSpec,
        threads: usize,
        traced: bool,
    ) -> (Result<RunOutcome, String>, f64) {
        let share = spec.memory / SERVE_CLIENTS;
        let grants = (0..spec.nodes)
            .map(|_| MemoryGrant::bounded(share))
            .collect();
        let cluster = cluster_for(spec, threads, traced).with_grants(grants);
        run_verified(
            spec.algo,
            &cluster,
            &self.dataset.partitions,
            &self.queries[0],
            self.references[0],
        )
    }
}

impl Server {
    /// Ask the server to shut down and wait for it to drain.
    pub fn stop(self) -> Result<ServeSummary, String> {
        let asked = (|| -> std::io::Result<()> {
            let (mut stream, mut reader) = connect(self.addr)?;
            request(&mut stream, &mut reader, "shutdown").map(|_| ())
        })();
        // Join even when the shutdown request failed: a server thread
        // left behind would outlive the benchmark.
        let joined = self.handle.join();
        asked.map_err(|e| format!("shutdown: {e}"))?;
        match joined {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg::model::{GroupKey, Value};

    fn row(g: i64, s: i64) -> ResultRow {
        ResultRow::new(GroupKey::new(vec![Value::Int(g)]), vec![Value::Int(s)])
    }

    #[test]
    fn row_check_ignores_order_and_sees_values() {
        let a = RowCheck::of(&[row(1, 10), row(2, 20)]);
        assert_eq!(a, RowCheck::of(&[row(2, 20), row(1, 10)]));
        assert_ne!(a, RowCheck::of(&[row(1, 10), row(2, 21)]));
        assert_ne!(a, RowCheck::of(&[row(1, 10)]));
        // Swapping values between groups must not cancel out.
        assert_ne!(a, RowCheck::of(&[row(1, 20), row(2, 10)]));
    }

    #[test]
    fn reply_lines_are_classified() {
        let ok = "{\"proto\": \"adaptagg-serve/v1\", \"id\": 3, \"queue_wait_ms\": 0.125, \
                  \"total_ms\": 31.500, \"status\": \"ok\", \"columns\": [\"g\"], \"row_count\": 2, \
                  \"rows\": [[1, 2], [3, 4]], \"virtual_ms\": 1.0, \"degraded\": true, \"x\": 0}";
        let r = parse_reply(ok, 40.0, 2);
        assert!(r.ok && r.degraded && !r.rejected);
        assert_eq!(
            (r.queue_wait_ms, r.total_ms, r.latency_ms),
            (0.125, 31.5, 40.0)
        );
        assert!(!parse_reply(ok, 40.0, 3).ok, "wrong row count is a failure");
        let shed = "{\"proto\": \"adaptagg-serve/v1\", \"id\": 4, \"queue_wait_ms\": 0.000, \
                    \"total_ms\": 0.010, \"status\": \"rejected\", \"reason\": \"queue_full\"}";
        let r = parse_reply(shed, 1.0, 2);
        assert!(!r.ok && r.rejected && !r.degraded);
        assert!(!parse_reply("garbage", 1.0, 2).ok);
    }
}
