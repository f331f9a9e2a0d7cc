//! Run results: per-node reports and cluster-wide summaries.

use crate::clock::TimeBreakdown;
use adaptagg_model::ticks_to_ms;
use adaptagg_net::NetStats;

/// Per-node recovery activity: checkpoint I/O, restored state, replay.
/// All zero when recovery is disabled or the run was clean.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NodeRecoveryStats {
    /// Checkpoint pages written to the node's disk.
    pub checkpoint_pages: u64,
    /// Partial rows written into checkpoints.
    pub checkpoint_partials: u64,
    /// Partial rows restored from checkpoints instead of recomputed.
    pub restored_partials: u64,
    /// Input pages re-scanned that an earlier attempt had already
    /// scanned past (the un-checkpointed suffix).
    pub replayed_pages: u64,
}

impl NodeRecoveryStats {
    /// Element-wise sum (cluster-wide totals).
    pub fn add(&mut self, other: &NodeRecoveryStats) {
        self.checkpoint_pages += other.checkpoint_pages;
        self.checkpoint_partials += other.checkpoint_partials;
        self.restored_partials += other.restored_partials;
        self.replayed_pages += other.replayed_pages;
    }

    /// Whether any recovery work happened on this node.
    pub fn any(&self) -> bool {
        *self != NodeRecoveryStats::default()
    }
}

/// Query-level recovery accounting for a whole run: how many attempts it
/// took, which nodes were lost, and how much virtual time the failures
/// cost. Default (attempts = 1, nothing lost) for clean runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStats {
    /// Cluster executions, including the successful one (1 = clean run).
    pub attempts: u32,
    /// Nodes declared dead across failed attempts, in failure order
    /// (original node ids).
    pub dead_nodes: Vec<usize>,
    /// Base partitions reassigned to survivors.
    pub reassigned_partitions: u64,
    /// Virtual time wasted in failed attempts (each attempt's first-cause
    /// failure time), summed, in ticks.
    pub lost: u64,
    /// Virtual backoff charged between attempts, in ticks.
    pub backoff: u64,
}

impl Default for RecoveryStats {
    fn default() -> Self {
        RecoveryStats {
            attempts: 1,
            dead_nodes: Vec::new(),
            reassigned_partitions: 0,
            lost: 0,
            backoff: 0,
        }
    }
}

impl RecoveryStats {
    /// Whether the run needed any recovery.
    pub fn recovered(&self) -> bool {
        self.attempts > 1
    }
}

/// One node's timing and traffic report after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node id.
    pub node: usize,
    /// The node's final virtual time in ticks.
    pub clock: u64,
    /// Where the time went.
    pub breakdown: TimeBreakdown,
    /// Network traffic.
    pub net: NetStats,
    /// Recovery activity (checkpoints, restores, replay) on this node.
    pub recovery: NodeRecoveryStats,
}

/// A whole run's result: per-node reports plus derived cluster metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Per-node reports in node order.
    pub per_node: Vec<NodeReport>,
    /// Total time the shared network medium was busy (0 under the
    /// high-speed model).
    pub bus_busy_ms: f64,
    /// Query-level recovery accounting (attempts, lost time, backoff).
    pub recovery: RecoveryStats,
}

impl RunResult {
    /// Elapsed virtual time in ticks: the slowest node's clock — the
    /// paper's response-time metric ("all nodes work completely in
    /// parallel"). This is the *successful attempt's* time; see
    /// [`RunResult::elapsed_with_recovery_ms`] for the honest total.
    pub fn elapsed(&self) -> u64 {
        self.per_node.iter().map(|r| r.clock).max().unwrap_or(0)
    }

    /// [`RunResult::elapsed`] in ms.
    pub fn elapsed_ms(&self) -> f64 {
        ticks_to_ms(self.elapsed())
    }

    /// Elapsed virtual time including recovery cost, in ms: failed
    /// attempts' lost time and inter-attempt backoff on top of the
    /// successful attempt. Equals [`RunResult::elapsed_ms`] for clean runs.
    pub fn elapsed_with_recovery_ms(&self) -> f64 {
        ticks_to_ms(self.elapsed() + self.recovery.lost + self.recovery.backoff)
    }

    /// Cluster-wide recovery activity (summed over nodes).
    pub fn total_recovery(&self) -> NodeRecoveryStats {
        let mut total = NodeRecoveryStats::default();
        for r in &self.per_node {
            total.add(&r.recovery);
        }
        total
    }

    /// The node that finished last.
    pub fn slowest_node(&self) -> Option<usize> {
        self.per_node
            .iter()
            .max_by_key(|r| r.clock)
            .map(|r| r.node)
    }

    /// Cluster-wide time breakdown (summed over nodes).
    pub fn total_breakdown(&self) -> TimeBreakdown {
        let mut total = TimeBreakdown::default();
        for r in &self.per_node {
            total.add(&r.breakdown);
        }
        total
    }

    /// Cluster-wide network traffic (summed over nodes).
    pub fn total_net(&self) -> NetStats {
        let mut total = NetStats::default();
        for r in &self.per_node {
            total.add(&r.net);
        }
        total
    }

    /// Load imbalance of final clocks: slowest node / mean node (1.0 =
    /// perfectly balanced). Note that Lamport waiting equalizes final
    /// clocks — a node idling for a straggler's data ends up with the
    /// same clock; use [`RunResult::work_imbalance`] to see *work* skew.
    pub fn imbalance(&self) -> f64 {
        if self.per_node.is_empty() {
            return 1.0;
        }
        let total: u64 = self.per_node.iter().map(|r| r.clock).sum();
        if total == 0 {
            1.0
        } else {
            self.elapsed() as f64 * self.per_node.len() as f64 / total as f64
        }
    }

    /// Work imbalance: the busiest node's CPU+I/O over the mean — the §6
    /// skew experiments' signal (waiting excluded).
    pub fn work_imbalance(&self) -> f64 {
        if self.per_node.is_empty() {
            return 1.0;
        }
        let work = |r: &NodeReport| r.breakdown.cpu_ms + r.breakdown.io_ms;
        let max = self.per_node.iter().map(work).fold(0.0, f64::max);
        let mean: f64 = self.per_node.iter().map(work).sum::<f64>() / self.per_node.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(node: usize, ms: u64) -> NodeReport {
        NodeReport {
            node,
            clock: ms * adaptagg_model::TICKS_PER_MS,
            breakdown: TimeBreakdown {
                cpu_ms: ms as f64,
                ..Default::default()
            },
            net: NetStats::default(),
            recovery: NodeRecoveryStats::default(),
        }
    }

    #[test]
    fn elapsed_is_max_clock() {
        let run = RunResult {
            per_node: vec![report(0, 5), report(1, 9), report(2, 7)],
            bus_busy_ms: 0.0,
            recovery: RecoveryStats::default(),
        };
        assert_eq!(run.elapsed_ms(), 9.0);
        assert_eq!(run.slowest_node(), Some(1));
    }

    #[test]
    fn imbalance_of_balanced_run_is_one() {
        let run = RunResult {
            per_node: vec![report(0, 4), report(1, 4)],
            bus_busy_ms: 0.0,
            recovery: RecoveryStats::default(),
        };
        assert!((run.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_skewed_run_exceeds_one() {
        let run = RunResult {
            per_node: vec![report(0, 10), report(1, 2)],
            bus_busy_ms: 0.0,
            recovery: RecoveryStats::default(),
        };
        assert!(run.imbalance() > 1.5);
    }

    #[test]
    fn totals_sum_nodes() {
        let run = RunResult {
            per_node: vec![report(0, 1), report(1, 2)],
            bus_busy_ms: 0.0,
            recovery: RecoveryStats::default(),
        };
        assert!((run.total_breakdown().cpu_ms - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let run = RunResult::default();
        assert_eq!(run.elapsed_ms(), 0.0);
        assert_eq!(run.slowest_node(), None);
        assert_eq!(run.imbalance(), 1.0);
    }
}
