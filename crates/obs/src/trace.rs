//! Structured span tracing for one simulated node, and the run-level
//! trace artifact.
//!
//! A [`NodeTrace`] is owned by the node context. Disabled (the default)
//! it is a bare `None`: every method is an early-return branch that
//! touches no heap and no clock. Enabled, it records phase spans (with
//! both virtual- and wall-time extents), first-class trace events (the
//! adaptive strategy switches of §3.2–§3.3, with trigger cause and tuple
//! offset), and a per-node [`MetricSet`].

use crate::metrics::MetricSet;
use std::time::Instant;

/// The span taxonomy (DESIGN.md §11). Every phase a node moves through
/// maps to one of these; the adaptive algorithms emit several per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Reading the base relation (interleaved with local aggregation).
    Scan,
    /// Draining / finalising the local aggregation state.
    LocalAgg,
    /// Hash-partitioning rows to their destination nodes.
    Partition,
    /// Receiving and merging partials (or repartitioned raws).
    Merge,
    /// Processing spilled overflow buckets.
    Spill,
    /// The sampling algorithm's estimation phase (§3.1).
    Sample,
    /// Sort-based local aggregation.
    Sort,
}

impl PhaseKind {
    /// Every phase, in display order.
    pub const ALL: [PhaseKind; 7] = [
        PhaseKind::Scan,
        PhaseKind::LocalAgg,
        PhaseKind::Partition,
        PhaseKind::Merge,
        PhaseKind::Spill,
        PhaseKind::Sample,
        PhaseKind::Sort,
    ];

    /// Stable lowercase name (used in JSON and metric names).
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Scan => "scan",
            PhaseKind::LocalAgg => "local-agg",
            PhaseKind::Partition => "partition",
            PhaseKind::Merge => "merge",
            PhaseKind::Spill => "spill",
            PhaseKind::Sample => "sample",
            PhaseKind::Sort => "sort",
        }
    }
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an adaptive algorithm switched strategy mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchCause {
    /// A2P (§3.2): the local hash table filled — switch to
    /// repartitioning the remaining raw tuples.
    TableFull,
    /// ARep (§3.3): this node's own `initSeg` prefix showed too few
    /// distinct groups — fall back to Adaptive Two Phase.
    LowCardinalityLocal,
    /// ARep (§3.3): a peer announced its fallback — contagion.
    LowCardinalityPeer,
}

impl SwitchCause {
    /// Stable name for rendering.
    pub fn name(&self) -> &'static str {
        match self {
            SwitchCause::TableFull => "table-full",
            SwitchCause::LowCardinalityLocal => "low-cardinality-local",
            SwitchCause::LowCardinalityPeer => "low-cardinality-peer",
        }
    }
}

/// A first-class trace event. Strategy switches carry their trigger
/// cause and the tuple offset at which they fired — the observability
/// the adaptivity claim rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An adaptive algorithm changed strategy at `at_tuple` (tuples
    /// scanned on this node when the trigger fired) because of `cause`.
    StrategySwitch {
        /// Virtual milliseconds on the node clock when the switch fired.
        at_ms: f64,
        /// The trigger.
        cause: SwitchCause,
        /// Tuples this node had scanned when the trigger fired.
        at_tuple: u64,
    },
    /// The sampling coordinator's pre-run decision reached this node.
    SamplingDecision {
        /// Virtual milliseconds on the node clock at receipt.
        at_ms: f64,
        /// `true` → Repartitioning, `false` → Two Phase.
        use_repartitioning: bool,
        /// Distinct groups observed in the merged sample.
        groups_in_sample: u64,
    },
}

/// One completed phase span: virtual extent, wall extent, and the
/// virtual-time breakdown accumulated while it was open.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Which phase.
    pub phase: PhaseKind,
    /// Virtual ms at open.
    pub start_ms: f64,
    /// Virtual ms at close.
    pub end_ms: f64,
    /// Wall-clock microseconds the span was open.
    pub wall_us: u64,
    /// Virtual CPU ms accumulated inside the span.
    pub cpu_ms: f64,
    /// Virtual disk-I/O ms accumulated inside the span.
    pub io_ms: f64,
    /// Virtual network ms accumulated inside the span.
    pub net_ms: f64,
    /// Virtual wait ms accumulated inside the span.
    pub wait_ms: f64,
}

impl SpanRecord {
    /// Virtual duration.
    pub fn virt_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Per-destination traffic totals for one outgoing link, copied out of
/// the fabric at harvest time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTrace {
    /// Destination node.
    pub to: usize,
    /// Messages handed to the link (data + control).
    pub msgs: u64,
    /// Data pages among them.
    pub pages: u64,
    /// Encoded payload bytes of those pages.
    pub bytes: u64,
    /// Tuples carried by those pages.
    pub tuples: u64,
    /// Retransmissions after injected drops.
    pub retries: u64,
    /// Injected drops on this link.
    pub drops: u64,
}

/// One attempt of the recovery driver, as seen from the cluster driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryAttemptTrace {
    /// 1-based attempt number that *failed* (the final successful
    /// attempt is not listed — the run result describes it).
    pub attempt: u32,
    /// The node blamed for the failure, if attributable.
    pub victim: Option<usize>,
    /// Virtual ms of progress lost when the attempt died.
    pub lost_ms: f64,
    /// Backoff charged before the next attempt.
    pub backoff_ms: f64,
}

struct OpenSpan {
    phase: PhaseKind,
    start_ms: f64,
    breakdown: [f64; 4],
    wall: Instant,
}

struct TraceData {
    node: usize,
    spans: Vec<SpanRecord>,
    open: Vec<OpenSpan>,
    events: Vec<TraceEvent>,
    metrics: MetricSet,
    links: Vec<LinkTrace>,
}

/// A per-node trace handle: `None` when disabled (the default), boxed
/// recording state when enabled. All methods are no-ops when disabled.
pub struct NodeTrace {
    inner: Option<Box<TraceData>>,
}

impl std::fmt::Debug for NodeTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("NodeTrace(off)"),
            Some(d) => write!(
                f,
                "NodeTrace(node {}, {} spans, {} events)",
                d.node,
                d.spans.len(),
                d.events.len()
            ),
        }
    }
}

impl Default for NodeTrace {
    fn default() -> Self {
        NodeTrace::off()
    }
}

impl NodeTrace {
    /// A disabled trace: every operation is a no-op.
    pub fn off() -> Self {
        NodeTrace { inner: None }
    }

    /// An enabled trace recording for `node`.
    pub fn on(node: usize) -> Self {
        NodeTrace {
            inner: Some(Box::new(TraceData {
                node,
                spans: Vec::new(),
                open: Vec::new(),
                events: Vec::new(),
                metrics: MetricSet::new(),
                links: Vec::new(),
            })),
        }
    }

    /// Whether this trace records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a phase span at virtual time `now_ms` with the given
    /// `[cpu, io, net, wait]` breakdown snapshot. Spans nest as a stack.
    pub fn span_start(&mut self, phase: PhaseKind, now_ms: f64, breakdown: [f64; 4]) {
        if let Some(d) = &mut self.inner {
            d.open.push(OpenSpan {
                phase,
                start_ms: now_ms,
                breakdown,
                wall: Instant::now(),
            });
        }
    }

    /// Close the innermost open span.
    pub fn span_end(&mut self, now_ms: f64, breakdown: [f64; 4]) {
        if let Some(d) = &mut self.inner {
            if let Some(open) = d.open.pop() {
                d.spans.push(close(open, now_ms, breakdown));
            }
        }
    }

    /// Record a trace event.
    pub fn event(&mut self, event: TraceEvent) {
        if let Some(d) = &mut self.inner {
            d.events.push(event);
        }
    }

    /// Add to a named counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        if let Some(d) = &mut self.inner {
            d.metrics.counter_add(name, delta);
        }
    }

    /// Set a named gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        if let Some(d) = &mut self.inner {
            d.metrics.gauge_set(name, value);
        }
    }

    /// Raise a named gauge to a high-water mark.
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        if let Some(d) = &mut self.inner {
            d.metrics.gauge_max(name, value);
        }
    }

    /// Record one histogram sample.
    pub fn histogram_record(&mut self, name: &'static str, value: u64) {
        if let Some(d) = &mut self.inner {
            d.metrics.histogram_record(name, value);
        }
    }

    /// Attach per-link traffic totals (harvest time).
    pub fn set_links(&mut self, links: Vec<LinkTrace>) {
        if let Some(d) = &mut self.inner {
            d.links = links;
        }
    }

    /// Consume the trace into a report, closing any spans still open at
    /// `now_ms`. Returns `None` when disabled.
    pub fn finish(&mut self, now_ms: f64, breakdown: [f64; 4]) -> Option<NodeTraceReport> {
        let mut d = self.inner.take()?;
        while let Some(open) = d.open.pop() {
            d.spans.push(close(open, now_ms, breakdown));
        }
        Some(NodeTraceReport {
            node: d.node,
            spans: d.spans,
            events: d.events,
            metrics: d.metrics,
            links: d.links,
        })
    }
}

fn close(open: OpenSpan, now_ms: f64, breakdown: [f64; 4]) -> SpanRecord {
    SpanRecord {
        phase: open.phase,
        start_ms: open.start_ms,
        end_ms: now_ms,
        wall_us: open.wall.elapsed().as_micros() as u64,
        cpu_ms: breakdown[0] - open.breakdown[0],
        io_ms: breakdown[1] - open.breakdown[1],
        net_ms: breakdown[2] - open.breakdown[2],
        wait_ms: breakdown[3] - open.breakdown[3],
    }
}

/// Everything one node recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTraceReport {
    /// Node id (original ids, even after recovery reassignment).
    pub node: usize,
    /// Completed phase spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Trace events, in emission order.
    pub events: Vec<TraceEvent>,
    /// The node's metric set.
    pub metrics: MetricSet,
    /// Per-destination traffic totals.
    pub links: Vec<LinkTrace>,
}

impl NodeTraceReport {
    /// Total virtual ms spent in `phase` across all its spans.
    pub fn phase_ms(&self, phase: PhaseKind) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.virt_ms())
            .sum()
    }

    /// The strategy-switch events only.
    pub fn switches(&self) -> impl Iterator<Item = (SwitchCause, u64)> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::StrategySwitch { cause, at_tuple, .. } => Some((*cause, *at_tuple)),
            _ => None,
        })
    }
}

/// Aggregated per-phase totals across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotal {
    /// Spans observed.
    pub spans: u64,
    /// Total virtual ms.
    pub virt_ms: f64,
    /// Total wall microseconds.
    pub wall_us: u64,
}

/// Whole-run recovery totals, mirrored from the engine's
/// `RecoveryStats` (this crate stays independent of the exec layer, so
/// the engine copies its numbers in rather than being depended on).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoverySummaryTrace {
    /// Attempts the query took, counting the successful one.
    pub attempts: u32,
    /// Nodes declared dead, in failure order (original ids).
    pub dead_nodes: Vec<usize>,
    /// Partitions that changed owner across all recoveries.
    pub reassigned_partitions: u64,
    /// Virtual time wasted in failed attempts.
    pub lost_ms: f64,
    /// Virtual backoff charged between attempts.
    pub backoff_ms: f64,
}

/// The run-level trace artifact attached to a cluster outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// One report per node, in node order.
    pub nodes: Vec<NodeTraceReport>,
    /// Failed recovery attempts, in order (empty for fail-stop runs and
    /// runs that needed no recovery).
    pub recovery: Vec<RecoveryAttemptTrace>,
    /// Whole-run recovery totals (`None` when the producer ran
    /// fail-stop or predates recovery accounting).
    pub recovery_summary: Option<RecoverySummaryTrace>,
    /// The transport backend the run executed over (`"in-process"`,
    /// `"tcp-loopback"`, …) — a label, not a type, so this crate stays
    /// independent of the net layer. Empty when the producer predates
    /// transport selection.
    pub transport: String,
    /// Run-level annotations from layers above the engine: the algorithm
    /// driver's wall time to merge the gathered result (`driver.sort_ms`),
    /// and the serving scheduler's queue/broker numbers (admitted grant,
    /// queue wait, co-resident queries). Names are dotted lowercase
    /// (`serve.grant_entries`); values render as JSON numbers.
    pub annotations: Vec<(String, f64)>,
}

impl RunTrace {
    /// The report for `node`, if present.
    pub fn node(&self, node: usize) -> Option<&NodeTraceReport> {
        self.nodes.iter().find(|n| n.node == node)
    }

    /// Every `(node, event)` pair across the run.
    pub fn events(&self) -> impl Iterator<Item = (usize, &TraceEvent)> + '_ {
        self.nodes
            .iter()
            .flat_map(|n| n.events.iter().map(move |e| (n.node, e)))
    }

    /// Per-phase totals across all nodes, in [`PhaseKind::ALL`] order,
    /// omitting phases no node entered.
    pub fn phase_totals(&self) -> Vec<(PhaseKind, PhaseTotal)> {
        let mut out = Vec::new();
        for phase in PhaseKind::ALL {
            let mut total = PhaseTotal::default();
            for node in &self.nodes {
                for span in node.spans.iter().filter(|s| s.phase == phase) {
                    total.spans += 1;
                    total.virt_ms += span.virt_ms();
                    total.wall_us += span.wall_us;
                }
            }
            if total.spans > 0 {
                out.push((phase, total));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_inert() {
        let mut t = NodeTrace::off();
        assert!(!t.enabled());
        t.span_start(PhaseKind::Scan, 0.0, [0.0; 4]);
        t.event(TraceEvent::StrategySwitch {
            at_ms: 1.0,
            cause: SwitchCause::TableFull,
            at_tuple: 7,
        });
        t.counter_add("x", 1);
        t.span_end(2.0, [0.0; 4]);
        assert!(t.finish(2.0, [0.0; 4]).is_none());
    }

    #[test]
    fn spans_nest_and_record_breakdown_deltas() {
        let mut t = NodeTrace::on(3);
        t.span_start(PhaseKind::Scan, 0.0, [0.0, 0.0, 0.0, 0.0]);
        t.span_start(PhaseKind::Spill, 5.0, [2.0, 3.0, 0.0, 0.0]);
        t.span_end(8.0, [2.0, 6.0, 0.0, 0.0]); // spill: 3 io ms
        t.span_end(10.0, [4.0, 6.0, 0.0, 0.0]); // scan: 4 cpu, 6 io
        let report = t.finish(10.0, [4.0, 6.0, 0.0, 0.0]).unwrap();
        assert_eq!(report.node, 3);
        assert_eq!(report.spans.len(), 2);
        let spill = &report.spans[0];
        assert_eq!(spill.phase, PhaseKind::Spill);
        assert_eq!(spill.virt_ms(), 3.0);
        assert_eq!(spill.io_ms, 3.0);
        let scan = &report.spans[1];
        assert_eq!(scan.phase, PhaseKind::Scan);
        assert_eq!(scan.virt_ms(), 10.0);
        assert_eq!(scan.cpu_ms, 4.0);
        assert_eq!(report.phase_ms(PhaseKind::Scan), 10.0);
    }

    #[test]
    fn unclosed_spans_are_closed_by_finish() {
        let mut t = NodeTrace::on(0);
        t.span_start(PhaseKind::Merge, 1.0, [0.0; 4]);
        let report = t.finish(4.0, [1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].virt_ms(), 3.0);
    }

    #[test]
    fn run_trace_aggregates_phases_and_events() {
        let mut a = NodeTrace::on(0);
        a.span_start(PhaseKind::Scan, 0.0, [0.0; 4]);
        a.span_end(2.0, [0.0; 4]);
        a.event(TraceEvent::StrategySwitch {
            at_ms: 1.0,
            cause: SwitchCause::TableFull,
            at_tuple: 42,
        });
        let mut b = NodeTrace::on(1);
        b.span_start(PhaseKind::Scan, 0.0, [0.0; 4]);
        b.span_end(3.0, [0.0; 4]);
        let run = RunTrace {
            nodes: vec![
                a.finish(2.0, [0.0; 4]).unwrap(),
                b.finish(3.0, [0.0; 4]).unwrap(),
            ],
            recovery: Vec::new(),
            transport: String::new(),
            ..RunTrace::default()
        };
        let totals = run.phase_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].0, PhaseKind::Scan);
        assert_eq!(totals[0].1.spans, 2);
        assert_eq!(totals[0].1.virt_ms, 5.0);
        assert_eq!(run.events().count(), 1);
        assert_eq!(
            run.node(0).unwrap().switches().next(),
            Some((SwitchCause::TableFull, 42))
        );
    }
}
