//! Per-node and per-run outcome types.

use adaptagg_exec::{RunResult, RunTrace};
use adaptagg_hashagg::HashAggStats;
use adaptagg_model::ResultRow;
use adaptagg_sample::AlgorithmChoice;

/// Something a node's adaptive logic did during the run. The §6 analysis
/// depends on nodes deciding *independently*, so outcomes are reported per
/// node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptEvent {
    /// A2P (or ARep-after-fallback): the local table filled after this
    /// many scanned tuples; the node flushed its partials and switched to
    /// repartitioning raw tuples.
    SwitchedToRepartitioning {
        /// Scanned-tuple index at which the switch happened.
        at_tuple: u64,
    },
    /// ARep: the node judged the group count too small after `initSeg`
    /// tuples (or was told so by a peer) and fell back to Adaptive Two
    /// Phase.
    FellBackToTwoPhase {
        /// Scanned-tuple index at which the fallback happened.
        at_tuple: u64,
        /// Whether the fallback was triggered locally (`true`) or by a
        /// peer's `EndOfPhase` broadcast (`false`).
        local_decision: bool,
    },
    /// Sampling: the coordinator's broadcast choice.
    SamplingChose(AlgorithmChoice),
}

/// One node's report.
#[derive(Debug, Clone, Default)]
pub struct NodeOutcome {
    /// Result rows this node produced (stored on its disk). Under C2P only
    /// the coordinator has any.
    pub rows: Vec<ResultRow>,
    /// Aggregation behaviour: inputs, spills, overflow depth. Summed over
    /// the node's local and merge aggregators.
    pub agg: HashAggStats,
    /// Adaptive events, in the order they happened.
    pub events: Vec<AdaptEvent>,
}

impl NodeOutcome {
    /// Whether this node switched/fell back at least once.
    pub fn adapted(&self) -> bool {
        self.events
            .iter()
            .any(|e| !matches!(e, AdaptEvent::SamplingChose(_)))
    }
}

/// A full algorithm run: the (globally sorted) result plus timing and
/// per-node reports.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// All result rows, gathered from every node and sorted by group key.
    pub rows: Vec<ResultRow>,
    /// Virtual-time and traffic report.
    pub run: RunResult,
    /// Per-node outcomes (rows omitted — they are merged into `rows`).
    pub nodes: Vec<NodeOutcomeSummary>,
    /// The run trace (spans, events, metrics, per-link traffic) when the
    /// cluster ran with tracing enabled; `None` otherwise.
    pub trace: Option<RunTrace>,
}

/// [`NodeOutcome`] minus the rows (which move into [`RunOutcome::rows`]).
#[derive(Debug, Clone, Default)]
pub struct NodeOutcomeSummary {
    /// Rows this node produced.
    pub rows_produced: usize,
    /// Aggregation stats.
    pub agg: HashAggStats,
    /// Adaptive events.
    pub events: Vec<AdaptEvent>,
}

impl RunOutcome {
    /// Elapsed virtual time (slowest node), in ticks.
    pub fn elapsed(&self) -> u64 {
        self.run.elapsed()
    }

    /// Elapsed virtual time (slowest node), in ms.
    pub fn elapsed_ms(&self) -> f64 {
        self.run.elapsed_ms()
    }

    /// Nodes that adapted during the run.
    pub fn adapted_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.events
                    .iter()
                    .any(|e| !matches!(e, AdaptEvent::SamplingChose(_)))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Cluster-wide spilled tuples (intermediate I/O volume).
    pub fn total_spilled(&self) -> u64 {
        self.nodes.iter().map(|n| n.agg.spilled_tuples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapted_ignores_sampling_choice() {
        let mut n = NodeOutcome::default();
        assert!(!n.adapted());
        n.events
            .push(AdaptEvent::SamplingChose(AlgorithmChoice::TwoPhase));
        assert!(!n.adapted());
        n.events
            .push(AdaptEvent::SwitchedToRepartitioning { at_tuple: 42 });
        assert!(n.adapted());
    }

    #[test]
    fn run_outcome_aggregates() {
        let outcome = RunOutcome {
            rows: vec![],
            run: RunResult::default(),
            nodes: vec![
                NodeOutcomeSummary {
                    agg: HashAggStats {
                        spilled_tuples: 5,
                        ..Default::default()
                    },
                    events: vec![AdaptEvent::FellBackToTwoPhase {
                        at_tuple: 10,
                        local_decision: true,
                    }],
                    ..Default::default()
                },
                NodeOutcomeSummary::default(),
            ],
            trace: None,
        };
        assert_eq!(outcome.total_spilled(), 5);
        assert_eq!(outcome.adapted_nodes(), vec![0]);
    }
}
