//! Rendering a [`RunTrace`] as JSON or human-readable text.
//!
//! Hand-written JSON, same as the bench harness: the workspace carries no
//! JSON dependency and every value here is a number or a known-safe
//! static label, so escaping is a non-issue.

use crate::trace::{
    NodeTraceReport, RunTrace, SpanRecord, SwitchCause, TraceEvent,
};

impl RunTrace {
    /// The machine-readable trace document (`adaptagg-trace/v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"adaptagg-trace/v1\",\n  \"nodes\": [\n");
        for (ni, node) in self.nodes.iter().enumerate() {
            node_json(&mut s, node);
            s.push_str(if ni + 1 < self.nodes.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n  \"recovery_attempts\": [");
        for (ri, r) in self.recovery.iter().enumerate() {
            if ri > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"attempt\": {}, \"victim\": {}, \"lost_ms\": {:.6}, \"backoff_ms\": {:.6}}}",
                r.attempt,
                r.victim.map_or("null".to_string(), |v| v.to_string()),
                r.lost_ms,
                r.backoff_ms
            ));
        }
        s.push_str("],\n  \"recovery\": ");
        match &self.recovery_summary {
            Some(r) => {
                s.push_str(&format!(
                    "{{\"attempts\": {}, \"dead_nodes\": [{}], \
                     \"reassigned_partitions\": {}, \"lost_ms\": {:.6}, \"backoff_ms\": {:.6}}}",
                    r.attempts,
                    r.dead_nodes
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    r.reassigned_partitions,
                    r.lost_ms,
                    r.backoff_ms
                ));
            }
            None => s.push_str("null"),
        }
        s.push_str(&format!(
            ",\n  \"transport\": \"{}\"",
            self.transport.replace('"', "'")
        ));
        s.push_str(",\n  \"annotations\": {");
        for (i, (name, value)) in self.annotations.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {value}", name.replace('"', "'")));
        }
        s.push_str("}\n}\n");
        s
    }

    /// A per-node, per-phase text breakdown for terminals.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for node in &self.nodes {
            s.push_str(&format!("node {}\n", node.node));
            if node.spans.is_empty() {
                s.push_str("  (no phase spans)\n");
            }
            for span in &node.spans {
                s.push_str(&format!(
                    "  {:<17} {:>10.3} ms virtual  [cpu {:.3} io {:.3} net {:.3} wait {:.3}]  {:>8} us wall\n",
                    span.phase.name(),
                    span.virt_ms(),
                    span.cpu_ms,
                    span.io_ms,
                    span.net_ms,
                    span.wait_ms,
                    span.wall_us
                ));
            }
            for event in &node.events {
                s.push_str(&format!("  event: {}\n", event_text(event)));
            }
            for &(name, v) in node.metrics.counters() {
                s.push_str(&format!("  {name} = {v}\n"));
            }
            for &(name, v) in node.metrics.gauges() {
                s.push_str(&format!("  {name} = {v:.4}\n"));
            }
            for link in &node.links {
                if link.msgs == 0 {
                    continue;
                }
                s.push_str(&format!(
                    "  link ->{}: {} msgs, {} pages, {} bytes, {} tuples, {} retries, {} drops\n",
                    link.to, link.msgs, link.pages, link.bytes, link.tuples,
                    link.retries, link.drops
                ));
            }
        }
        if !self.recovery.is_empty() {
            s.push_str("recovery\n");
            for r in &self.recovery {
                s.push_str(&format!(
                    "  attempt {} failed: victim {}, lost {:.3} ms, backoff {:.3} ms\n",
                    r.attempt,
                    r.victim.map_or("unattributed".to_string(), |v| format!("node {v}")),
                    r.lost_ms,
                    r.backoff_ms
                ));
            }
        }
        if let Some(r) = &self.recovery_summary {
            s.push_str(&format!(
                "recovery summary: {} attempt(s), dead {:?}, {} partition(s) reassigned, \
                 lost {:.3} ms + backoff {:.3} ms\n",
                r.attempts, r.dead_nodes, r.reassigned_partitions, r.lost_ms, r.backoff_ms
            ));
        }
        for (name, value) in &self.annotations {
            s.push_str(&format!("annotation: {name} = {value}\n"));
        }
        s
    }
}

fn node_json(s: &mut String, node: &NodeTraceReport) {
    s.push_str(&format!("    {{\"node\": {}, \"phases\": [", node.node));
    for (si, span) in node.spans.iter().enumerate() {
        if si > 0 {
            s.push_str(", ");
        }
        span_json(s, span);
    }
    s.push_str("], \"events\": [");
    for (ei, event) in node.events.iter().enumerate() {
        if ei > 0 {
            s.push_str(", ");
        }
        s.push_str(&event_json(event));
    }
    s.push_str("], \"counters\": {");
    for (ci, &(name, v)) in node.metrics.counters().iter().enumerate() {
        if ci > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{name}\": {v}"));
    }
    s.push_str("}, \"gauges\": {");
    for (gi, &(name, v)) in node.metrics.gauges().iter().enumerate() {
        if gi > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{name}\": {v:.6}"));
    }
    s.push_str("}, \"histograms\": {");
    for (hi, (name, h)) in node.metrics.histograms().iter().enumerate() {
        if hi > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "\"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}}}",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.quantile(0.5)
        ));
    }
    s.push_str("}, \"links\": [");
    for (li, link) in node.links.iter().enumerate() {
        if li > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"to\": {}, \"msgs\": {}, \"pages\": {}, \"bytes\": {}, \"tuples\": {}, \"retries\": {}, \"drops\": {}}}",
            link.to, link.msgs, link.pages, link.bytes, link.tuples, link.retries, link.drops
        ));
    }
    s.push_str("]}");
}

fn span_json(s: &mut String, span: &SpanRecord) {
    s.push_str(&format!(
        "{{\"phase\": \"{}\", \"start_ms\": {:.6}, \"end_ms\": {:.6}, \"wall_us\": {}, \
         \"cpu_ms\": {:.6}, \"io_ms\": {:.6}, \"net_ms\": {:.6}, \"wait_ms\": {:.6}}}",
        span.phase.name(),
        span.start_ms,
        span.end_ms,
        span.wall_us,
        span.cpu_ms,
        span.io_ms,
        span.net_ms,
        span.wait_ms
    ));
}

fn event_json(event: &TraceEvent) -> String {
    match event {
        TraceEvent::StrategySwitch { at_ms, cause, at_tuple } => format!(
            "{{\"kind\": \"strategy-switch\", \"at_ms\": {at_ms:.6}, \"cause\": \"{}\", \"at_tuple\": {at_tuple}}}",
            cause.name()
        ),
        TraceEvent::SamplingDecision { at_ms, use_repartitioning, groups_in_sample } => format!(
            "{{\"kind\": \"sampling-decision\", \"at_ms\": {at_ms:.6}, \"use_repartitioning\": {use_repartitioning}, \"groups_in_sample\": {groups_in_sample}}}"
        ),
    }
}

fn event_text(event: &TraceEvent) -> String {
    match event {
        TraceEvent::StrategySwitch { at_ms, cause, at_tuple } => {
            let what = match cause {
                SwitchCause::TableFull => "switched to repartitioning",
                SwitchCause::LowCardinalityLocal | SwitchCause::LowCardinalityPeer => {
                    "fell back to two-phase"
                }
            };
            format!("{what} at tuple {at_tuple} ({}; {at_ms:.3} ms virtual)", cause.name())
        }
        TraceEvent::SamplingDecision { at_ms, use_repartitioning, groups_in_sample } => {
            format!(
                "sampling chose {} ({groups_in_sample} groups in sample; {at_ms:.3} ms virtual)",
                if *use_repartitioning { "repartitioning" } else { "two-phase" }
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LinkTrace, NodeTrace, PhaseKind, RecoveryAttemptTrace};

    fn sample_trace() -> RunTrace {
        let mut t = NodeTrace::on(0);
        t.span_start(PhaseKind::Scan, 0.0, [0.0; 4]);
        t.event(TraceEvent::StrategySwitch {
            at_ms: 1.5,
            cause: SwitchCause::TableFull,
            at_tuple: 100,
        });
        t.span_end(2.0, [1.0, 0.5, 0.0, 0.5]);
        t.counter_add("hashagg.raw_in", 100);
        t.set_links(vec![LinkTrace { to: 1, msgs: 4, pages: 3, bytes: 600, tuples: 30, retries: 1, drops: 1 }]);
        RunTrace {
            nodes: vec![t.finish(2.0, [1.0, 0.5, 0.0, 0.5]).unwrap()],
            recovery: vec![RecoveryAttemptTrace {
                attempt: 1,
                victim: Some(2),
                lost_ms: 12.5,
                backoff_ms: 5.0,
            }],
            recovery_summary: Some(crate::trace::RecoverySummaryTrace {
                attempts: 2,
                dead_nodes: vec![2],
                reassigned_partitions: 3,
                lost_ms: 12.5,
                backoff_ms: 5.0,
            }),
            transport: "in-process".into(),
            annotations: vec![("serve.grant_entries".into(), 400.0)],
        }
    }

    #[test]
    fn json_contains_schema_phases_events_and_links() {
        let json = sample_trace().to_json();
        assert!(json.contains("\"schema\": \"adaptagg-trace/v1\""));
        assert!(json.contains("\"phase\": \"scan\""));
        assert!(json.contains("\"kind\": \"strategy-switch\""));
        assert!(json.contains("\"cause\": \"table-full\""));
        assert!(json.contains("\"at_tuple\": 100"));
        assert!(json.contains("\"hashagg.raw_in\": 100"));
        assert!(json.contains("\"to\": 1"));
        assert!(json.contains("\"attempt\": 1"));
        assert!(json.contains("\"recovery\": {\"attempts\": 2, \"dead_nodes\": [2]"));
        assert!(json.contains("\"reassigned_partitions\": 3"));
        assert!(json.contains("\"transport\": \"in-process\""));
        assert!(json.contains("\"annotations\": {\"serve.grant_entries\": 400}"));
        // Balanced braces (cheap well-formedness check, same spirit as
        // the bench harness's extract_object).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn text_shows_switch_event_and_phase_line() {
        let text = sample_trace().to_text();
        assert!(text.contains("node 0"));
        assert!(text.contains("scan"));
        assert!(text.contains("switched to repartitioning at tuple 100"));
        assert!(text.contains("link ->1"));
        assert!(text.contains("attempt 1 failed"));
    }
}
