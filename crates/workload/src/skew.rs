//! Data-skew generators (paper §6).
//!
//! Two skew families, contrasted with join skew taxonomies (\[WDJ91\]):
//!
//! * **input skew** — "the number of groups/node is same but number of
//!   tuples/node is different" (placement-skew analogue);
//! * **output skew** — "the number of tuples/node is same but number of
//!   groups/node is different" (product-skew analogue).
//!
//! Figure 9's configuration is [`OutputSkewSpec::paper_figure9`]: on an
//! 8-node cluster, four nodes hold one group each and the remaining four
//! share all the other groups. Output skew is where the adaptive
//! algorithms *beat the best static algorithm*, because each node picks
//! its strategy independently.

use crate::relation::PadRow;
use adaptagg_storage::HeapFile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Input skew: same group diversity everywhere, uneven tuple counts.
#[derive(Debug, Clone, PartialEq)]
pub struct InputSkewSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Tuples on a *normal* node.
    pub tuples_per_node: usize,
    /// Multiplier for the skewed nodes' tuple count (e.g. 3.0 → 3× the
    /// tuples of a normal node).
    pub skew_factor: f64,
    /// How many nodes are skewed.
    pub skewed_nodes: usize,
    /// Total distinct groups; every node draws from all of them.
    pub groups: usize,
    /// Encoded tuple width in bytes.
    pub tuple_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl InputSkewSpec {
    /// A default input-skew scenario on the paper's 8-node cluster.
    pub fn new(nodes: usize, tuples_per_node: usize, groups: usize) -> Self {
        InputSkewSpec {
            nodes,
            tuples_per_node,
            skew_factor: 3.0,
            skewed_nodes: 1,
            groups: groups.max(1),
            tuple_bytes: 100,
            seed: 0x15ed,
        }
    }

    /// Generate per-node partitions.
    pub fn generate_partitions(&self) -> Vec<HeapFile> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.nodes)
            .map(|node| {
                let count = if node < self.skewed_nodes {
                    (self.tuples_per_node as f64 * self.skew_factor).round() as usize
                } else {
                    self.tuples_per_node
                };
                let draws = (0..count).map(|_| {
                    let g = rng.gen_range(0..self.groups) as i64;
                    [g, rng.gen_range(0..1000)]
                });
                padded_file(draws, count, self.tuple_bytes)
            })
            .collect()
    }
}

/// Output skew: even tuple counts, uneven group diversity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputSkewSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Tuples on every node (identical — that is the definition).
    pub tuples_per_node: usize,
    /// Total distinct groups across the relation.
    pub groups: usize,
    /// Nodes that hold **one group each** ("four nodes have only one
    /// group value each"). The remaining nodes share the other
    /// `groups - poor_nodes` groups.
    pub poor_nodes: usize,
    /// Encoded tuple width in bytes.
    pub tuple_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl OutputSkewSpec {
    /// Figure 9's configuration: 8 nodes, 4 of them single-group.
    pub fn paper_figure9(tuples_per_node: usize, groups: usize) -> Self {
        OutputSkewSpec {
            nodes: 8,
            tuples_per_node,
            groups: groups.max(8),
            poor_nodes: 4,
            tuple_bytes: 100,
            seed: 0x05ed,
        }
    }

    /// General output-skew scenario.
    pub fn new(nodes: usize, tuples_per_node: usize, groups: usize, poor_nodes: usize) -> Self {
        assert!(poor_nodes < nodes, "at least one rich node required");
        assert!(
            groups > poor_nodes,
            "need more groups than poor nodes so rich nodes have some"
        );
        OutputSkewSpec {
            nodes,
            tuples_per_node,
            groups,
            poor_nodes,
            tuple_bytes: 100,
            seed: 0x05ed,
        }
    }

    /// Generate per-node partitions. Poor node `i` holds only group `i`;
    /// rich nodes draw uniformly from groups `poor_nodes..groups`.
    pub fn generate_partitions(&self) -> Vec<HeapFile> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.nodes)
            .map(|node| {
                // Rich nodes must collectively cover all rich groups: give
                // node its "own" shard of rich groups first, then fill
                // randomly.
                let rich_groups: Vec<i64> =
                    (self.poor_nodes as i64..self.groups as i64).collect();
                let mut plan: Vec<i64> = Vec::with_capacity(self.tuples_per_node);
                if node < self.poor_nodes {
                    plan.resize(self.tuples_per_node, node as i64);
                } else {
                    let rich_rank = node - self.poor_nodes;
                    let rich_nodes = self.nodes - self.poor_nodes;
                    // Deterministic coverage: every rich group assigned to
                    // exactly one rich node appears at least once there.
                    for (gi, &g) in rich_groups.iter().enumerate() {
                        if gi % rich_nodes == rich_rank && plan.len() < self.tuples_per_node {
                            plan.push(g);
                        }
                    }
                    while plan.len() < self.tuples_per_node {
                        plan.push(*rich_groups.choose(&mut rng).expect("nonempty"));
                    }
                    plan.shuffle(&mut rng);
                }
                let draws = plan.into_iter().map(|g| [g, rng.gen_range(0..1000)]);
                padded_file(draws, self.tuples_per_node, self.tuple_bytes)
            })
            .collect()
    }
}

/// One node's heap file of 4 KB pages holding `rows` `(group, value,
/// pad)` tuples of `tuple_bytes` bytes, sized up front for them, its rows
/// sharing one padding string of its own.
fn padded_file(draws: impl Iterator<Item = [i64; 2]>, rows: usize, tuple_bytes: usize) -> HeapFile {
    let pad = crate::relation::pad(tuple_bytes.saturating_sub(crate::relation::FIXED_BYTES));
    let mut file = HeapFile::with_capacity(4096, rows);
    for ints in draws {
        file.append_row(&PadRow { ints, pad: &pad }).expect("tuple fits page");
    }
    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn groups_of(file: &HeapFile) -> HashSet<i64> {
        file.iter_untracked()
            .map(|t| t.unwrap()[0].as_i64().unwrap())
            .collect()
    }

    #[test]
    fn output_skew_poor_nodes_have_one_group() {
        let spec = OutputSkewSpec::paper_figure9(1000, 100);
        let parts = spec.generate_partitions();
        assert_eq!(parts.len(), 8);
        for (i, p) in parts.iter().enumerate().take(4) {
            assert_eq!(p.tuple_count(), 1000);
            let gs = groups_of(p);
            assert_eq!(gs.len(), 1, "poor node {i} has {} groups", gs.len());
            assert_eq!(gs.into_iter().next().unwrap(), i as i64);
        }
    }

    #[test]
    fn output_skew_rich_nodes_cover_remaining_groups() {
        let spec = OutputSkewSpec::paper_figure9(1000, 100);
        let parts = spec.generate_partitions();
        let mut rich: HashSet<i64> = HashSet::new();
        for p in &parts[4..] {
            assert_eq!(p.tuple_count(), 1000);
            let gs = groups_of(p);
            assert!(gs.len() > 10, "rich node should be group-diverse");
            rich.extend(gs);
        }
        // All groups 4..100 appear somewhere on the rich nodes.
        assert_eq!(rich.len(), 96);
        assert!(rich.iter().all(|&g| g >= 4));
    }

    #[test]
    fn output_skew_tuple_counts_are_equal() {
        let spec = OutputSkewSpec::new(4, 500, 20, 2);
        let parts = spec.generate_partitions();
        assert!(parts.iter().all(|p| p.tuple_count() == 500));
    }

    #[test]
    #[should_panic(expected = "rich node")]
    fn output_skew_rejects_all_poor() {
        let _ = OutputSkewSpec::new(4, 10, 10, 4);
    }

    #[test]
    fn input_skew_counts_differ_groups_match() {
        let spec = InputSkewSpec::new(4, 1000, 50);
        let parts = spec.generate_partitions();
        assert_eq!(parts[0].tuple_count(), 3000, "skewed node has 3x tuples");
        assert_eq!(parts[1].tuple_count(), 1000);
        // Group diversity is statistically similar everywhere (uniform
        // draws from the same 50 groups).
        for p in &parts {
            let gs = groups_of(p);
            assert!(gs.len() > 40, "node should see most groups, saw {}", gs.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = OutputSkewSpec::paper_figure9(100, 50).generate_partitions();
        let b = OutputSkewSpec::paper_figure9(100, 50).generate_partitions();
        for (x, y) in a.iter().zip(&b) {
            let xs: Vec<_> = x.iter_untracked().map(|t| t.unwrap()).collect();
            let ys: Vec<_> = y.iter_untracked().map(|t| t.unwrap()).collect();
            assert_eq!(xs, ys);
        }
    }
}
