//! TPC-D-flavoured workloads.
//!
//! The paper motivates adaptivity with TPC-D: "15 out of 17 queries
//! contain aggregate operations" and result sizes "varying from 2 tuples
//! to as large as 0.28 million and 1.4 million tuples". These generators
//! reproduce that *selectivity spectrum* on a synthetic lineitem-like
//! table so the examples exercise realistic shapes without the 100 GB
//! dataset (see DESIGN.md's substitution table).
//!
//! Layout: `(returnflag_linestatus: Int, orderkey: Int, quantity: Int,
//! extendedprice: Int, pad: Str)` — a flattened slice of TPC-D `lineitem`.

use adaptagg_model::{AggFunc, AggQuery, AggSpec, Value};
use adaptagg_storage::HeapFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column indexes of the synthetic lineitem layout.
pub mod columns {
    /// Combined `l_returnflag`/`l_linestatus` code (6 distinct values, as
    /// in TPC-D Q1's result).
    pub const FLAG_STATUS: usize = 0;
    /// `l_orderkey` — high cardinality (duplicate-elimination regime).
    pub const ORDERKEY: usize = 1;
    /// `l_quantity`.
    pub const QUANTITY: usize = 2;
    /// `l_extendedprice` (in cents; Int to keep sums exact).
    pub const EXTENDEDPRICE: usize = 3;
    /// Padding to reach the configured tuple width.
    pub const PAD: usize = 4;
}

/// A TPC-D-flavoured lineitem slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpcdWorkload {
    /// Number of lineitem rows.
    pub rows: usize,
    /// Distinct order keys (controls the duplicate-elimination regime's
    /// selectivity; TPC-D has ~4 lineitems per order).
    pub orders: usize,
    /// Encoded tuple width in bytes.
    pub tuple_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TpcdWorkload {
    /// A workload with `rows` lineitems over `rows/4` orders.
    pub fn new(rows: usize) -> Self {
        TpcdWorkload {
            rows,
            orders: (rows / 4).max(1),
            tuple_bytes: 120,
            seed: 0x7bcd,
        }
    }

    /// TPC-D Q1's aggregation: a handful of groups, several aggregates —
    /// the *low-selectivity* end where Two Phase shines.
    ///
    /// `SELECT flag_status, SUM(quantity), SUM(extendedprice),
    ///  AVG(quantity), COUNT(*) … GROUP BY flag_status`.
    pub fn q1_query() -> AggQuery {
        AggQuery::new(
            vec![columns::FLAG_STATUS],
            vec![
                AggSpec::over(AggFunc::Sum, columns::QUANTITY),
                AggSpec::over(AggFunc::Sum, columns::EXTENDEDPRICE),
                AggSpec::over(AggFunc::Avg, columns::QUANTITY),
                AggSpec::count_star(),
            ],
        )
    }

    /// A per-order aggregation (Q18-flavoured): one group per order —
    /// the *high-selectivity* end where Repartitioning shines.
    ///
    /// `SELECT orderkey, SUM(quantity) … GROUP BY orderkey`.
    pub fn per_order_query() -> AggQuery {
        AggQuery::new(
            vec![columns::ORDERKEY],
            vec![AggSpec::over(AggFunc::Sum, columns::QUANTITY)],
        )
    }

    /// Duplicate elimination over order keys:
    /// `SELECT DISTINCT orderkey …` — result can approach input size.
    pub fn distinct_orders_query() -> AggQuery {
        AggQuery::distinct(vec![columns::ORDERKEY])
    }

    /// Number of distinct `flag_status` codes generated (TPC-D Q1 yields
    /// at most 6 rows: A/F, N/F, N/O, R/F plus rarities; we generate 6).
    pub const FLAG_STATUS_CARDINALITY: usize = 6;

    /// Generate the lineitem rows.
    pub fn generate_tuples(&self) -> Vec<Vec<Value>> {
        let pad = crate::relation::pad(self.pad_len());
        let row = |ints: [i64; 4]| {
            ints.map(Value::Int)
                .into_iter()
                .chain([pad.clone()])
                .collect()
        };
        self.draws().map(row).collect()
    }

    /// Generate and deal round-robin across `nodes`: the files
    /// `round_robin_partitions(&self.generate_tuples(), nodes, 4096)`
    /// makes, each file's rows sharing one padding string.
    pub fn generate_partitions(&self, nodes: usize) -> Vec<HeapFile> {
        crate::relation::deal(self.draws(), self.rows, nodes, self.pad_len())
    }

    fn pad_len(&self) -> usize {
        // Fixed layout bytes: arity(2) + 4 tagged ints (9 each) + str(5+len).
        self.tuple_bytes.saturating_sub(2 + 4 * 9 + 5)
    }

    /// Each row's `Int` cells, in column order.
    fn draws(&self) -> impl Iterator<Item = [i64; 4]> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let orders = self.orders;
        (0..self.rows).map(move |i| {
            // Skewed flag distribution, as in real lineitem data.
            let flag = match rng.gen_range(0..100) {
                0..=48 => 0,  // N/O ~ half
                49..=73 => 1, // A/F
                74..=98 => 2, // R/F
                _ => rng.gen_range(3..6), // rare codes
            };
            [
                flag,
                (i % orders) as i64,
                rng.gen_range(1..51),
                rng.gen_range(10_000..1_000_000),
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::encoded_len;
    use std::collections::HashSet;

    #[test]
    fn q1_groups_are_few() {
        let w = TpcdWorkload::new(10_000);
        let tuples = w.generate_tuples();
        let flags: HashSet<i64> = tuples
            .iter()
            .map(|t| t[columns::FLAG_STATUS].as_i64().unwrap())
            .collect();
        assert!(flags.len() <= TpcdWorkload::FLAG_STATUS_CARDINALITY);
        assert!(flags.len() >= 3, "common codes must all appear");
    }

    #[test]
    fn per_order_groups_are_many() {
        let w = TpcdWorkload::new(1000);
        let tuples = w.generate_tuples();
        let orders: HashSet<i64> = tuples
            .iter()
            .map(|t| t[columns::ORDERKEY].as_i64().unwrap())
            .collect();
        assert_eq!(orders.len(), 250);
    }

    #[test]
    fn tuple_width_is_exact() {
        let w = TpcdWorkload::new(50);
        for t in w.generate_tuples() {
            assert_eq!(encoded_len(&t), 120);
        }
    }

    #[test]
    fn queries_reference_valid_columns() {
        let w = TpcdWorkload::new(10);
        let tuples = w.generate_tuples();
        for q in [
            TpcdWorkload::q1_query(),
            TpcdWorkload::per_order_query(),
            TpcdWorkload::distinct_orders_query(),
        ] {
            for &c in &q.projection_columns() {
                assert!(c < tuples[0].len(), "query column {c} out of layout");
            }
        }
    }

    #[test]
    fn partitions_cover_rows() {
        let w = TpcdWorkload::new(101);
        let parts = w.generate_partitions(8);
        let total: usize = parts.iter().map(|p| p.tuple_count()).sum();
        assert_eq!(total, 101);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TpcdWorkload::new(100).generate_tuples();
        let b = TpcdWorkload::new(100).generate_tuples();
        assert_eq!(a, b);
    }
}
