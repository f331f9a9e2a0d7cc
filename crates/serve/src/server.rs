//! The serving front door: a long-running TCP line protocol over the
//! scheduler.
//!
//! One request per line, one JSON response line per request. A request
//! is either a bare command (`ping`, `metrics`, `shutdown`, `proc`) or
//! a SQL query with an optional `key=value;` option prefix:
//!
//! ```text
//! deadline_ms=500;algo=a2p; SELECT g, SUM(v) FROM r GROUP BY g
//! ```
//!
//! Options: `deadline_ms`, `algo` (CLI spellings: `a2p`, `rep`, …),
//! `fault_seed`, `crash_node`, `recovery` (0/1), `stall_ms`,
//! `trace` (0/1 — embed the `adaptagg-trace/v1` document, compacted to
//! one line). Responses carry `"proto": "adaptagg-serve/v1"` and a
//! `status` of `ok`, `rejected` (with the typed reason), `failed`,
//! `pong`, or `error` (malformed request). The server itself never
//! dies on a bad line — robustness stops at the protocol edge.

use crate::procmesh::ProcBackend;
use crate::scheduler::{
    QueryOutcome, QueryReport, QueryRequest, Scheduler, ServeMetrics,
};
use adaptagg_algos::AlgorithmKind;
use adaptagg_model::Value;
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Stable protocol identifier carried by every response line.
pub const PROTO: &str = "adaptagg-serve/v1";

/// Everything a connection handler needs.
struct Shared {
    sched: Arc<Scheduler>,
    proc: Option<Arc<ProcBackend>>,
    stop: AtomicBool,
}

/// What a finished serving session reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted over the session.
    pub connections: u64,
    /// Final scheduler counters.
    pub metrics: ServeMetrics,
}

/// Run the accept loop until a client sends `shutdown`. Each
/// connection gets its own thread; queries block their connection (a
/// load generator opens one connection per in-flight query) while the
/// scheduler bounds actual concurrency. Returns after the scheduler
/// has drained.
pub fn serve(
    listener: TcpListener,
    sched: Arc<Scheduler>,
    proc: Option<Arc<ProcBackend>>,
    mut log: impl FnMut(&str),
) -> std::io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        sched,
        proc,
        stop: AtomicBool::new(false),
    });
    let mut handlers = Vec::new();
    let mut connections = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                connections += 1;
                log(&format!("connection from {peer}"));
                let shared = Arc::clone(&shared);
                handlers.push(
                    std::thread::Builder::new()
                        .name(format!("serve-conn-{connections}"))
                        .spawn(move || handle_connection(stream, &shared))
                        .expect("spawn connection handler"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
    log("shutdown requested; draining");
    for h in handlers {
        let _ = h.join();
    }
    shared.sched.shutdown();
    let metrics = shared.sched.metrics();
    log(&format!(
        "served {} quer{} ({} rejected)",
        metrics.submitted,
        if metrics.submitted == 1 { "y" } else { "ies" },
        metrics.rejected_queue_full + metrics.rejected_deadline + metrics.rejected_memory
    ));
    Ok(ServeSummary {
        connections,
        metrics,
    })
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // One reply = one segment: a reply split into body and newline has
    // its second write held back by Nagle until the client's delayed ACK
    // (~40 ms per request on loopback).
    let _ = stream.set_nodelay(true);
    let Ok(read) = stream.try_clone() else { return };
    let mut writer = stream;
    let reader = BufReader::new(read);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (mut response, stop_after) = handle_line(line, shared);
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() {
            return;
        }
        let _ = writer.flush();
        if stop_after {
            shared.stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Dispatch one request line; returns the response and whether the
/// server should stop afterwards.
fn handle_line(line: &str, shared: &Shared) -> (String, bool) {
    match line {
        "ping" => (format!("{{\"proto\": \"{PROTO}\", \"status\": \"pong\"}}"), false),
        "shutdown" => (
            format!("{{\"proto\": \"{PROTO}\", \"status\": \"ok\", \"shutdown\": true}}"),
            true,
        ),
        "metrics" => (metrics_json(&shared.sched.metrics(), shared.sched.active_queries()), false),
        "proc" => (proc_response(shared), false),
        _ => match parse_request(line) {
            Ok((req, want_trace)) => {
                let report = shared.sched.run(req);
                (report_json(&report, want_trace), false)
            }
            Err(e) => (
                format!(
                    "{{\"proto\": \"{PROTO}\", \"status\": \"error\", \"error\": {}}}",
                    json_str(&e)
                ),
                false,
            ),
        },
    }
}

/// Run one query on the attached process mesh (the real-TCP cluster).
fn proc_response(shared: &Shared) -> String {
    let Some(proc) = &shared.proc else {
        return format!(
            "{{\"proto\": \"{PROTO}\", \"status\": \"failed\", \"backend\": \"proc\", \
             \"error\": \"no process mesh attached (start with --proc-cluster)\", \"exit_code\": 1}}"
        );
    };
    let t0 = std::time::Instant::now();
    match proc.run_query() {
        Ok(report) => {
            let mut s = format!(
                "{{\"proto\": \"{PROTO}\", \"status\": \"ok\", \"backend\": \"proc\", \
                 \"row_count\": {}, \"rows\": ",
                report.rows.len(),
            );
            write_rows(&mut s, &report.rows);
            push_fmt(
                &mut s,
                format_args!(
                    ", \"attempts\": {}, \"dead_workers\": {}, \"reassigned_partitions\": {}, \
                     \"total_ms\": {:.3}}}",
                    report.attempts,
                    json_usize_array(&report.dead_workers),
                    report.reassigned_partitions,
                    t0.elapsed().as_secs_f64() * 1e3,
                ),
            );
            s
        }
        Err(e) => format!(
            "{{\"proto\": \"{PROTO}\", \"status\": \"failed\", \"backend\": \"proc\", \
             \"error\": {}, \"exit_code\": {}, \"total_ms\": {:.3}}}",
            json_str(&e.to_string()),
            e.exit_code(),
            t0.elapsed().as_secs_f64() * 1e3,
        ),
    }
}

/// Parse a `key=value;`-prefixed SQL request line.
pub fn parse_request(line: &str) -> Result<(QueryRequest, bool), String> {
    let mut rest = line.trim_start();
    let mut req = QueryRequest::new("");
    let mut want_trace = false;
    // An option token runs `ident=value;` with no spaces — anything
    // else (including SQL that happens to contain `;`) ends the
    // prefix.
    while let Some(semi) = rest.find(';') {
        let head = &rest[..semi];
        let Some(eq) = head.find('=') else { break };
        let key = &head[..eq];
        let val = &head[eq + 1..];
        if key.is_empty()
            || head.contains(' ')
            || !key.chars().all(|c| c.is_ascii_lowercase() || c == '_')
        {
            break;
        }
        match key {
            "deadline_ms" => {
                req.deadline = Some(Duration::from_millis(parse_num(key, val)?));
            }
            "stall_ms" => {
                req.stall = Some(Duration::from_millis(parse_num(key, val)?));
            }
            "fault_seed" => req.fault_seed = Some(parse_num(key, val)?),
            "crash_node" => req.crash_node = Some(parse_num(key, val)? as usize),
            "recovery" => req.recovery = parse_bool(key, val)?,
            "trace" => want_trace = parse_bool(key, val)?,
            "algo" => req.algo = Some(parse_algo(val)?),
            other => return Err(format!("unknown option '{other}'")),
        }
        rest = rest[semi + 1..].trim_start();
    }
    if rest.is_empty() {
        return Err("empty query".into());
    }
    req.sql = rest.to_string();
    Ok((req, want_trace))
}

fn parse_num(key: &str, s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("{key}: '{s}' is not a number"))
}

fn parse_bool(key: &str, s: &str) -> Result<bool, String> {
    match s {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("{key}: '{other}' is not a boolean (0/1)")),
    }
}

fn parse_algo(s: &str) -> Result<AlgorithmKind, String> {
    AlgorithmKind::from_name(s).ok_or_else(|| format!("unknown algorithm '{s}'"))
}

/// Render a scheduler report as one `adaptagg-serve/v1` response line.
pub fn report_json(report: &QueryReport, want_trace: bool) -> String {
    let mut s = format!(
        "{{\"proto\": \"{PROTO}\", \"id\": {}, \"queue_wait_ms\": {:.3}, \"total_ms\": {:.3}",
        report.id, report.queue_wait_ms, report.total_ms
    );
    match &report.outcome {
        QueryOutcome::Complete(q) => {
            push_fmt(
                &mut s,
                format_args!(
                    ", \"status\": \"ok\", \"columns\": {}, \"row_count\": {}, \"rows\": ",
                    json_str_array(&q.output_names),
                    q.rows.len(),
                ),
            );
            write_rows(&mut s, &q.rows);
            push_fmt(
                &mut s,
                format_args!(
                    ", \"virtual_ms\": {:.6}, \"grant_entries\": {}, \"active_at_admit\": {}, \
                     \"degraded\": {}, \"adapted_nodes\": {}, \"switch_events\": {}, \
                     \"recovery_attempts\": {}, \"dead_nodes\": {}, \"deadline_missed\": {}",
                    q.virtual_ms,
                    report.grant_entries.unwrap_or(0),
                    report.active_at_admit,
                    q.degraded,
                    json_usize_array(&q.adapted_nodes),
                    q.switch_events,
                    q.recovery_attempts,
                    json_usize_array(&q.dead_nodes),
                    q.deadline_missed,
                ),
            );
            if want_trace {
                if let Some(trace) = &q.trace_json {
                    // The trace document is pretty-printed; fold it onto
                    // the single response line (whitespace is free in
                    // JSON).
                    s.push_str(", \"trace\": ");
                    s.push_str(&trace.replace('\n', " "));
                }
            }
        }
        QueryOutcome::Rejected(r) => push_fmt(
            &mut s,
            format_args!(
                ", \"status\": \"rejected\", \"reason\": \"{}\", \"detail\": {}",
                r.reason.label(),
                json_str(&r.detail)
            ),
        ),
        QueryOutcome::Failed { error, exit_code } => push_fmt(
            &mut s,
            format_args!(
                ", \"status\": \"failed\", \"error\": {}, \"exit_code\": {exit_code}",
                json_str(error)
            ),
        ),
    }
    s.push('}');
    s
}

/// Render the session counters (plus the live concurrency gauge).
pub fn metrics_json(m: &ServeMetrics, active: usize) -> String {
    format!(
        "{{\"proto\": \"{PROTO}\", \"status\": \"ok\", \"metrics\": {{\
         \"submitted\": {}, \"completed\": {}, \"failed\": {}, \
         \"rejected_queue_full\": {}, \"rejected_deadline\": {}, \"rejected_memory\": {}, \
         \"degraded_admissions\": {}, \"recovered_queries\": {}, \"deadlines_missed\": {}, \
         \"active_queries\": {active}}}}}",
        m.submitted,
        m.completed,
        m.failed,
        m.rejected_queue_full,
        m.rejected_deadline,
        m.rejected_memory,
        m.degraded_admissions,
        m.recovered_queries,
        m.deadlines_missed,
    )
}

/// Append result rows as a JSON array of arrays — key values then
/// aggregates, in output-column order — each cell written in place.
fn write_rows(out: &mut String, rows: &[adaptagg_model::ResultRow]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (j, v) in row.key.values().iter().chain(row.aggs.iter()).enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            write_value(out, v);
        }
        out.push(']');
    }
    out.push(']');
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => push_fmt(out, format_args!("{i}")),
        Value::Float(f) if f.is_finite() => push_fmt(out, format_args!("{f}")),
        // NaN/inf have no JSON form.
        Value::Null | Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_json_str(out, s),
    }
}

/// Append formatted text to `out`.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    out.write_fmt(args).expect("writing to a String cannot fail");
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => push_fmt(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_str_array(items: &[String]) -> String {
    let mut s = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_str(item));
    }
    s.push(']');
    s
}

fn json_usize_array(items: &[usize]) -> String {
    let mut s = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&item.to_string());
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Dataset, QueryRejected, QuerySuccess, RejectReason, ServeConfig};

    #[test]
    fn request_lines_parse_options_then_sql() {
        let (req, trace) = parse_request(
            "deadline_ms=250;algo=rep;recovery=1;crash_node=2;trace=1; SELECT g FROM r GROUP BY g",
        )
        .unwrap();
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert_eq!(req.algo, Some(AlgorithmKind::Repartitioning));
        assert!(req.recovery);
        assert_eq!(req.crash_node, Some(2));
        assert!(trace);
        assert_eq!(req.sql, "SELECT g FROM r GROUP BY g");

        // No options: the whole line is SQL.
        let (req, trace) = parse_request("SELECT g, SUM(v) FROM r GROUP BY g").unwrap();
        assert_eq!(req.sql, "SELECT g, SUM(v) FROM r GROUP BY g");
        assert!(!trace && req.deadline.is_none());

        // An algorithm is named as the CLI names it: its label, in any case.
        let (req, _) = parse_request("algo=A-2P; SELECT g FROM r GROUP BY g").unwrap();
        assert_eq!(req.algo, Some(AlgorithmKind::AdaptiveTwoPhase));

        // Bad option values are typed errors, not panics.
        assert!(parse_request("deadline_ms=soon; SELECT g FROM r GROUP BY g").is_err());
        assert!(parse_request("algo=quantum; SELECT g FROM r GROUP BY g").is_err());
        assert!(parse_request("bogus_knob=1; SELECT g FROM r GROUP BY g").is_err());
        assert!(parse_request("   ").is_err());
    }

    #[test]
    fn json_strings_escape_cleanly() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let rendered = |v: &Value| {
            let mut out = String::new();
            write_value(&mut out, v);
            out
        };
        assert_eq!(rendered(&Value::Float(f64::NAN)), "null");
        assert_eq!(rendered(&Value::Int(-3)), "-3");
    }

    /// The reply line for rows holding every kind of cell, byte for byte
    /// (captured on 1b01dc3, when each cell was rendered into a `String`
    /// of its own).
    #[test]
    fn report_line_renders_every_cell_kind() {
        use adaptagg_model::{GroupKey, ResultRow};
        let rows = vec![
            ResultRow::new(GroupKey::one(Value::Null), vec![Value::Float(f64::NAN), Value::Float(-0.0)]),
            ResultRow::new(
                GroupKey::one(Value::Int(i64::MIN)),
                vec![Value::Float(f64::INFINITY), Value::Float(f64::NEG_INFINITY)],
            ),
            ResultRow::new(
                GroupKey::new(vec![Value::Int(i64::MAX), Value::Str("q\"b\\s\n\r\t\u{1}\u{1f}é".into())]),
                vec![Value::Float(0.1), Value::Float(1e21), Value::Int(-1), Value::Float(-2.5e-8)],
            ),
            ResultRow::new(GroupKey::new(vec![]), vec![]),
        ];
        let success = QuerySuccess {
            rows,
            output_names: vec!["g".into(), "s\"um".into()],
            virtual_ms: 12.3456789,
            adapted_nodes: vec![0, 3],
            switch_events: 2,
            degraded: true,
            recovery_attempts: 1,
            dead_nodes: vec![],
            deadline_missed: false,
            trace_json: None,
        };
        let mut report = QueryReport {
            id: 7,
            queue_wait_ms: 0.25,
            total_ms: 3.5,
            grant_entries: Some(500),
            active_at_admit: 1,
            outcome: QueryOutcome::Complete(Box::new(success)),
        };
        let line = concat!(
            r#"{"proto": "adaptagg-serve/v1", "id": 7, "queue_wait_ms": 0.250, "total_ms": 3.500, "status": "ok", "columns": ["g", "s\"um"], "row_count": 4, "rows": "#,
            r#"[[null, null, -0], [-9223372036854775808, null, null], [9223372036854775807, "q\"b\\s\n\r\t\u0001\u001fé", 0.1, 1000000000000000000000, -1, -0.000000025], []]"#,
            r#", "virtual_ms": 12.345679, "grant_entries": 500, "active_at_admit": 1, "degraded": true, "adapted_nodes": [0, 3], "switch_events": 2, "recovery_attempts": 1, "dead_nodes": [], "deadline_missed": false}"#,
        );
        assert_eq!(report_json(&report, false), line);

        // A folded trace, a rejection and a failure render as they did.
        let head = r#"{"proto": "adaptagg-serve/v1", "id": 7, "queue_wait_ms": 0.250, "total_ms": 3.500"#;
        let QueryOutcome::Complete(success) = &mut report.outcome else { unreachable!() };
        success.rows.truncate(1);
        success.trace_json = Some("{\n  \"spans\": []\n}".into());
        assert_eq!(report_json(&report, true), format!("{head}{}", r#", "status": "ok", "columns": ["g", "s\"um"], "row_count": 1, "rows": [[null, null, -0]], "virtual_ms": 12.345679, "grant_entries": 500, "active_at_admit": 1, "degraded": true, "adapted_nodes": [0, 3], "switch_events": 2, "recovery_attempts": 1, "dead_nodes": [], "deadline_missed": false, "trace": {   "spans": [] }}"#));
        report.outcome = QueryOutcome::Rejected(QueryRejected {
            reason: RejectReason::QueueFull,
            detail: "depth \"4\"".into(),
        });
        assert_eq!(report_json(&report, false), format!("{head}{}", r#", "status": "rejected", "reason": "queue_full", "detail": "depth \"4\""}"#));
        report.outcome = QueryOutcome::Failed { error: "no\tway".into(), exit_code: 2 };
        assert_eq!(report_json(&report, false), format!("{head}{}", r#", "status": "failed", "error": "no\tway", "exit_code": 2}"#));
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let data = Arc::new(Dataset::uniform(2, 2_000, 40, 5));
        let mut cfg = ServeConfig::new(10_000);
        cfg.concurrency = 2;
        let sched = Arc::new(Scheduler::new(cfg, data));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || serve(listener, sched, None, |_| {}).unwrap())
        };

        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reply = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        let mut ask = |conn: &mut TcpStream, reply: &mut BufReader<TcpStream>, q: &str| {
            writeln!(conn, "{q}").unwrap();
            line.clear();
            reply.read_line(&mut line).unwrap();
            line.trim().to_string()
        };

        assert!(ask(&mut conn, &mut reply, "ping").contains("\"pong\""));
        let ok = ask(
            &mut conn,
            &mut reply,
            "SELECT g, SUM(v), COUNT(*) FROM r GROUP BY g",
        );
        assert!(ok.contains("\"status\": \"ok\""), "{ok}");
        assert!(ok.contains("\"row_count\": 40"), "{ok}");
        let bad = ask(&mut conn, &mut reply, "SELECT zap FROM r GROUP BY zap");
        assert!(bad.contains("\"status\": \"failed\""), "{bad}");
        let garbage = ask(&mut conn, &mut reply, "deadline_ms=nope; SELECT g FROM r GROUP BY g");
        assert!(garbage.contains("\"status\": \"error\""), "{garbage}");
        let proc = ask(&mut conn, &mut reply, "proc");
        assert!(proc.contains("no process mesh attached"), "{proc}");
        let metrics = ask(&mut conn, &mut reply, "metrics");
        assert!(metrics.contains("\"submitted\": 2"), "{metrics}");
        let bye = ask(&mut conn, &mut reply, "shutdown");
        assert!(bye.contains("\"shutdown\": true"), "{bye}");

        let summary = server.join().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.metrics.completed, 1);
        assert_eq!(summary.metrics.failed, 1);
    }

    #[test]
    fn reply_is_one_segment_not_held_for_a_delayed_ack() {
        let data = Arc::new(Dataset::uniform(1, 100, 4, 5));
        let sched = Arc::new(Scheduler::new(ServeConfig::new(1_000), data));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, sched, None, |_| {}).unwrap());

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        let mut reply = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        let mut round_trips: Vec<Duration> = (0..30)
            .map(|_| {
                let t0 = std::time::Instant::now();
                conn.write_all(b"ping\n").unwrap();
                line.clear();
                reply.read_line(&mut line).unwrap();
                assert!(line.contains("\"pong\""), "{line}");
                t0.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        // A reply written as body + newline without TCP_NODELAY costs the
        // client's delayed-ACK timer (~40 ms) on every request.
        assert!(median < Duration::from_millis(20), "median ping {median:?}");

        conn.write_all(b"shutdown\n").unwrap();
        server.join().unwrap();
    }
}
