//! Algorithm tuning knobs.

use adaptagg_sample::CrossoverRule;

/// Parameters shared by the adaptive and sampling algorithms. The defaults
/// follow the paper's guidance; the ablation benches sweep them.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoConfig {
    /// The Sampling algorithm's crossover rule (§3.1; default `10·N`
    /// groups, sample size `10×` that). Its threshold is also Adaptive
    /// Repartitioning's "too few groups": a node that sees fewer distinct
    /// groups in its first `arep_init_seg` tuples falls back to Adaptive
    /// Two Phase.
    pub crossover: CrossoverRule,
    /// Adaptive Repartitioning: tuples a node partitions before judging
    /// whether "it has seen too few groups given the number of seen
    /// tuples" (§3.3's `initSeg`).
    pub arep_init_seg: usize,
}

impl AlgoConfig {
    /// Defaults for a cluster of `nodes` nodes.
    pub fn default_for(nodes: usize) -> Self {
        let crossover = CrossoverRule::default_for(nodes);
        AlgoConfig {
            crossover,
            // Judge after a sample-sized prefix: enough tuples that
            // "too few groups" is statistically meaningful.
            arep_init_seg: crossover.sample_size_per_node().max(512),
        }
    }

    /// Override the crossover threshold (Figure 7's sweep), keeping the
    /// sample-size and ARep defaults consistent with it.
    pub fn with_crossover_threshold(mut self, threshold: u64) -> Self {
        self.crossover = CrossoverRule::with_threshold(threshold);
        self.arep_init_seg = self.crossover.sample_size_per_node().max(512);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_guidance() {
        let cfg = AlgoConfig::default_for(32);
        assert_eq!(cfg.crossover.threshold, 320);
        assert_eq!(cfg.arep_init_seg, 3200);
    }

    #[test]
    fn threshold_override_keeps_consistency() {
        let cfg = AlgoConfig::default_for(8).with_crossover_threshold(1000);
        assert_eq!(cfg.crossover.threshold, 1000);
        assert_eq!(cfg.arep_init_seg, 10_000);
    }

    #[test]
    fn tiny_clusters_keep_a_meaningful_init_seg() {
        let cfg = AlgoConfig::default_for(1);
        assert!(cfg.arep_init_seg >= 512);
    }
}
