//! Zipfian group-frequency skew (extension).
//!
//! The paper's §6 varies how groups and tuples are *placed across nodes*;
//! group **frequencies** stay uniform. Real GROUP BY columns are rarely
//! uniform — a few heavy-hitter groups dominate. This generator draws
//! group ids from a Zipf(s) distribution so the experiments can probe the
//! dimension the paper leaves open: under Repartitioning, the node that
//! owns a heavy group receives a disproportionate share of the relation
//! (receiver skew), while the Two Phase family collapses the heavy group
//! locally before anything crosses the wire.

use adaptagg_model::Value;
use adaptagg_storage::HeapFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A relation whose group ids follow a Zipf distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSpec {
    /// Total tuples.
    pub tuples: usize,
    /// Distinct group ids (ranks `0..groups`; rank 0 is the heaviest).
    pub groups: usize,
    /// The Zipf exponent `s ≥ 0`: 0 = uniform; 1 ≈ classic web-like skew;
    /// larger = heavier head.
    pub exponent: f64,
    /// Encoded tuple width in bytes.
    pub tuple_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ZipfSpec {
    /// A Zipf(s) relation.
    pub fn new(tuples: usize, groups: usize, exponent: f64) -> Self {
        assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
        ZipfSpec {
            tuples,
            groups: groups.max(1),
            exponent,
            tuple_bytes: 100,
            seed: 0x21bf,
        }
    }

    /// The cumulative distribution over ranks (normalized).
    fn cdf(&self) -> Vec<f64> {
        let mut cum = Vec::with_capacity(self.groups);
        let mut total = 0.0f64;
        for rank in 0..self.groups {
            total += 1.0 / ((rank + 1) as f64).powf(self.exponent);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        cum
    }

    /// Generate tuples `(group, value, pad)`.
    pub fn generate_tuples(&self) -> Vec<Vec<Value>> {
        let pad = crate::relation::pad(self.pad_len());
        let row = |[g, v]: [i64; 2]| vec![Value::Int(g), Value::Int(v), pad.clone()];
        self.draws().map(row).collect()
    }

    /// Generate and deal round-robin across `nodes`: the files
    /// `round_robin_partitions(&self.generate_tuples(), nodes, 4096)`
    /// makes, each file's rows sharing one padding string.
    pub fn generate_partitions(&self, nodes: usize) -> Vec<HeapFile> {
        crate::relation::deal(self.draws(), self.tuples, nodes, self.pad_len())
    }

    fn pad_len(&self) -> usize {
        self.tuple_bytes.saturating_sub(crate::relation::FIXED_BYTES)
    }

    /// Each tuple's group and value, in order.
    fn draws(&self) -> impl Iterator<Item = [i64; 2]> {
        let cdf = self.cdf();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let groups = self.groups;
        (0..self.tuples).map(move |_| {
            let u: f64 = rng.gen();
            let rank = cdf.partition_point(|&c| c < u).min(groups - 1);
            [rank as i64, rng.gen_range(0..1000)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn frequencies(spec: &ZipfSpec) -> HashMap<i64, usize> {
        let mut f = HashMap::new();
        for t in spec.generate_tuples() {
            *f.entry(t[0].as_i64().unwrap()).or_insert(0) += 1;
        }
        f
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let spec = ZipfSpec::new(40_000, 10, 0.0);
        let f = frequencies(&spec);
        for g in 0..10 {
            let c = f[&g];
            assert!(
                (3_400..=4_600).contains(&c),
                "group {g}: {c} of 40000 (expected ~4000)"
            );
        }
    }

    #[test]
    fn heavy_head_emerges_with_exponent() {
        let spec = ZipfSpec::new(40_000, 100, 1.2);
        let f = frequencies(&spec);
        let head = f[&0];
        // Rank 0's share of the weights 1 / (r + 1)^1.2.
        let total: f64 = (1..=100).map(|r| 1.0 / f64::from(r).powf(1.2)).sum();
        let expected = 40_000.0 / total;
        assert!(
            (head as f64 - expected).abs() < expected * 0.15,
            "head {head} vs expected {expected}"
        );
        // Rank 0 dominates rank 50 by at least an order of magnitude.
        let mid = f.get(&50).copied().unwrap_or(0);
        assert!(head > mid * 10, "head {head}, rank-50 {mid}");
    }

    #[test]
    fn frequencies_are_monotone_in_rank() {
        let spec = ZipfSpec::new(60_000, 20, 1.0);
        let f = frequencies(&spec);
        // Allow sampling noise: compare rank i to rank i+4.
        for g in 0..15 {
            let hi = f.get(&g).copied().unwrap_or(0);
            let lo = f.get(&(g + 4)).copied().unwrap_or(0);
            assert!(hi + 500 > lo, "rank {g}: {hi} vs rank {}: {lo}", g + 4);
        }
    }

    #[test]
    fn deterministic_and_full_width() {
        let a = ZipfSpec::new(500, 10, 1.0).generate_tuples();
        let b = ZipfSpec::new(500, 10, 1.0).generate_tuples();
        assert_eq!(a, b);
        assert_eq!(adaptagg_model::encoded_len(&a[0]), 100);
    }

    #[test]
    fn partitions_cover_everything() {
        let spec = ZipfSpec::new(1_001, 50, 0.8);
        let parts = spec.generate_partitions(8);
        let total: usize = parts.iter().map(|p| p.tuple_count()).sum();
        assert_eq!(total, 1_001);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_exponent_rejected() {
        let _ = ZipfSpec::new(10, 10, -1.0);
    }
}
