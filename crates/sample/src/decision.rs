//! The crossover decision rule.

use std::fmt;

/// Which static algorithm the Sampling algorithm selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmChoice {
    /// Few groups: local aggregation compresses well.
    TwoPhase,
    /// Many groups: repartition raw tuples, aggregate once.
    Repartitioning,
}

impl fmt::Display for AlgorithmChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmChoice::TwoPhase => write!(f, "Two Phase"),
            AlgorithmChoice::Repartitioning => write!(f, "Repartitioning"),
        }
    }
}

/// The §3.1 decision procedure:
///
/// ```text
/// sample the relation
/// find the number of groups in the sample
/// if (number of groups found < crossover threshold)
///     use Two Phase
/// else
///     use Repartitioning
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossoverRule {
    /// Group count at which Repartitioning takes over. "A reasonable
    /// number … may be, say, 10 times the number of processors" — a small
    /// number in the middle range where both algorithms perform well.
    pub threshold: u64,
}

impl CrossoverRule {
    /// The paper's default: `10 × N`.
    pub fn default_for(nodes: usize) -> Self {
        CrossoverRule {
            threshold: (nodes as u64) * 10,
        }
    }

    /// An explicit threshold (Figure 7 sweeps this: larger samples let
    /// one raise the threshold, trading sampling cost against the risk of
    /// using Repartitioning needlessly on a slow network).
    pub fn with_threshold(threshold: u64) -> Self {
        CrossoverRule { threshold }
    }

    /// Decide from the number of groups observed in the sample.
    pub fn decide(&self, groups_in_sample: u64) -> AlgorithmChoice {
        if groups_in_sample < self.threshold {
            AlgorithmChoice::TwoPhase
        } else {
            AlgorithmChoice::Repartitioning
        }
    }

    /// The sample size this rule needs (per §3.1's 10× guidance) on
    /// **each node**. We read the rule per node: each node samples its
    /// own partition, so every node's sample independently satisfies the
    /// occupancy bound, and the per-node overhead grows with the cluster
    /// (threshold ∝ N) — which is what gives the Sampling algorithm its
    /// sub-ideal scaleup in the paper's Figures 5–6 (§4: "the sampling
    /// overhead … is proportional to the number of processors").
    pub fn sample_size_per_node(&self) -> usize {
        crate::estimator::required_sample_size(self.threshold as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_is_ten_times_nodes() {
        assert_eq!(CrossoverRule::default_for(32).threshold, 320);
        assert_eq!(CrossoverRule::default_for(8).threshold, 80);
    }

    #[test]
    fn decision_boundaries() {
        let rule = CrossoverRule::with_threshold(100);
        assert_eq!(rule.decide(0), AlgorithmChoice::TwoPhase);
        assert_eq!(rule.decide(99), AlgorithmChoice::TwoPhase);
        assert_eq!(rule.decide(100), AlgorithmChoice::Repartitioning);
        assert_eq!(rule.decide(10_000), AlgorithmChoice::Repartitioning);
    }

    #[test]
    fn sample_sizes() {
        let rule = CrossoverRule::default_for(32);
        assert_eq!(rule.sample_size_per_node(), 3200);
        // Per-node size tracks the threshold (∝ N), the §4 property.
        assert!(
            CrossoverRule::default_for(8).sample_size_per_node()
                < CrossoverRule::default_for(32).sample_size_per_node()
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(AlgorithmChoice::TwoPhase.to_string(), "Two Phase");
        assert_eq!(
            AlgorithmChoice::Repartitioning.to_string(),
            "Repartitioning"
        );
    }
}
