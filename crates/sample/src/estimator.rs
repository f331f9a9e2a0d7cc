//! The sample-size rule. (The sample's distinct groups are counted where
//! its keys are — a set on either side of the Sampling algorithm's key
//! exchange, in `adaptagg-algos` — and the count is exact *for the
//! sample*, hence a **lower bound** on the relation's: §3.1's property
//! that a sample showing `threshold` groups makes Repartitioning safe.)

/// The sample size needed to decide a crossover threshold reliably.
///
/// §3.1, citing Erdős & Rényi's classical occupancy results: "It can be
/// shown that the number of samples required is fairly small (about 10
/// times the crossover threshold)". Intuition (coupon collector): if the
/// relation has at least `threshold` groups, a uniform sample of
/// `threshold · ln(threshold) ≲ 10·threshold` tuples will, with high
/// probability, contain at least `threshold` distinct ones — so observing
/// fewer is strong evidence the relation's group count is small.
pub fn required_sample_size(crossover_threshold: usize) -> usize {
    crossover_threshold.saturating_mul(10).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_size_rule() {
        assert_eq!(required_sample_size(320), 3200);
        assert_eq!(required_sample_size(0), 1);
        // The paper's example: 32 processors × 10 → threshold 320 →
        // ~3K samples, "less than 1% of any reasonably sized relation".
        assert!(required_sample_size(320) < 8_000_000 / 100);
    }
}
