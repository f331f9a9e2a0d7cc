//! Uniform base relations.

use adaptagg_model::{AggFunc, AggQuery, AggSpec, CellRow, CellSink, DataType, Field, Schema, Value};
use adaptagg_storage::HeapFile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Fixed per-tuple encoding overhead of the `(Int, Int, Str)` layout:
/// arity u16 + two tagged ints + str tag and length prefix.
pub(crate) const FIXED_BYTES: usize = 2 + (1 + 8) + (1 + 8) + (1 + 4);

/// Specification of a uniform relation.
///
/// The grouping selectivity is `S = groups / tuples`; sweeping `groups`
/// from 1 to `tuples / 2` covers the paper's whole evaluation range
/// (scalar aggregation → duplicate elimination).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSpec {
    /// Total tuples `|R|`.
    pub tuples: usize,
    /// Distinct groups (each is guaranteed to appear at least once when
    /// `groups <= tuples`).
    pub groups: usize,
    /// Bytes per encoded tuple (the study uses 100-byte tuples). Values
    /// below the fixed layout overhead are clamped up.
    pub tuple_bytes: usize,
    /// RNG seed: generation is fully deterministic.
    pub seed: u64,
    /// Aggregate-input values are drawn uniformly from this range.
    pub value_range: std::ops::Range<i64>,
}

impl RelationSpec {
    /// A uniform relation of `tuples` tuples in `groups` groups with the
    /// study's 100-byte tuples.
    pub fn uniform(tuples: usize, groups: usize) -> Self {
        RelationSpec {
            tuples,
            groups: groups.max(1),
            tuple_bytes: 100,
            seed: 0x5eed,
            value_range: 0..1000,
        }
    }

    /// Same spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same spec with a different tuple width.
    pub fn with_tuple_bytes(mut self, bytes: usize) -> Self {
        self.tuple_bytes = bytes;
        self
    }

    /// The grouping selectivity `S`.
    pub fn selectivity(&self) -> f64 {
        self.groups as f64 / self.tuples.max(1) as f64
    }

    /// The base schema: `(g INT, v INT, pad STR)`.
    pub fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("pad", DataType::Str),
        ])
    }

    /// Padding length that makes each encoded tuple `tuple_bytes` long.
    pub fn pad_len(&self) -> usize {
        self.tuple_bytes.saturating_sub(FIXED_BYTES)
    }

    /// Generate the relation's tuples in a shuffled order (group ids are
    /// dealt round-robin over `0..groups` so every group appears, then the
    /// sequence is permuted so group order carries no information —
    /// matching the paper's uniform-distribution assumption).
    pub fn generate_tuples(&self) -> Vec<Vec<Value>> {
        let pad = pad(self.pad_len());
        let row = |(g, v)| vec![Value::Int(g), Value::Int(v), pad.clone()];
        self.pairs().into_iter().map(row).collect()
    }

    /// The tuples' `(group, value)` cells, in their shuffled order.
    fn pairs(&self) -> Vec<(i64, i64)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut pairs: Vec<(i64, i64)> = (0..self.tuples)
            .map(|i| ((i % self.groups) as i64, rng.gen_range(self.value_range.clone())))
            .collect();
        // Fisher-Yates draws depend on the length only: the permutation is
        // the one the whole tuples would take.
        pairs.shuffle(&mut rng);
        pairs
    }
}

/// A padding cell of `len` bytes. Its clones share its bytes.
pub(crate) fn pad(len: usize) -> Value {
    Value::from("x".repeat(len))
}

/// A generated tuple where its cells lie: the `Int` cells drawn for it,
/// then its partition's padding.
pub(crate) struct PadRow<'a, const N: usize> {
    pub(crate) ints: [i64; N],
    pub(crate) pad: &'a Value,
}

impl<const N: usize> CellRow for PadRow<'_, N> {
    fn cells<S: CellSink>(&self, sink: &mut S) {
        self.ints.iter().for_each(|&x| sink.int(x));
        sink.value(self.pad);
    }
}

/// Deal `tuples` generated rows round-robin across `nodes` heap files of
/// 4 KB pages, each row its `Int` cells and a `pad_len`-byte padding.
/// Each file is sized up front for the rows it will hold, and has its own
/// padding string, which all of its rows share: one copy per partition,
/// and no refcount that two node threads touch.
pub(crate) fn deal<const N: usize>(
    rows: impl IntoIterator<Item = [i64; N]>,
    tuples: usize,
    nodes: usize,
    pad_len: usize,
) -> Vec<HeapFile> {
    assert!(nodes > 0);
    let held = |k: usize| tuples / nodes + usize::from(k < tuples % nodes);
    let mut files: Vec<(HeapFile, Value)> = (0..nodes)
        .map(|k| (HeapFile::with_capacity(4096, held(k)), pad(pad_len)))
        .collect();
    for (i, ints) in rows.into_iter().enumerate() {
        let (file, pad) = &mut files[i % nodes];
        file.append_row(&PadRow { ints, pad })
            .expect("generated tuple exceeds page size");
    }
    files.into_iter().map(|(file, _)| file).collect()
}

/// The study's default query over the base layout:
/// `SELECT g, SUM(v), COUNT(*) … GROUP BY g`.
pub fn default_query() -> AggQuery {
    AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    )
}

/// Generate a relation and deal it round-robin across `nodes` partitions
/// (the paper's §5 setup), each a heap file of 4 KB pages: the files
/// `round_robin_partitions(&spec.generate_tuples(), nodes, 4096)` makes,
/// each tuple appended straight to its file instead of first becoming a
/// `Vec<Value>` of the whole relation, and each file's rows sharing one
/// padding string.
pub fn generate_partitions(spec: &RelationSpec, nodes: usize) -> Vec<HeapFile> {
    let rows = spec.pairs().into_iter().map(|(g, v)| [g, v]);
    deal(rows, spec.tuples, nodes, spec.pad_len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::encoded_len;
    use std::collections::HashSet;

    #[test]
    fn generates_exact_counts_and_groups() {
        let spec = RelationSpec::uniform(1000, 37);
        let tuples = spec.generate_tuples();
        assert_eq!(tuples.len(), 1000);
        let groups: HashSet<i64> = tuples.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(groups.len(), 37, "every group must appear");
        assert!((spec.selectivity() - 0.037).abs() < 1e-12);
    }

    #[test]
    fn tuples_are_exactly_the_requested_width() {
        let spec = RelationSpec::uniform(10, 3);
        for t in spec.generate_tuples() {
            assert_eq!(encoded_len(&t), 100);
        }
        let narrow = RelationSpec::uniform(10, 3).with_tuple_bytes(40);
        for t in narrow.generate_tuples() {
            assert_eq!(encoded_len(&t), 40);
        }
    }

    #[test]
    fn width_clamps_to_layout_minimum() {
        let spec = RelationSpec::uniform(5, 1).with_tuple_bytes(1);
        assert_eq!(spec.pad_len(), 0);
        for t in spec.generate_tuples() {
            assert_eq!(encoded_len(&t), FIXED_BYTES);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = RelationSpec::uniform(100, 10).with_seed(7).generate_tuples();
        let b = RelationSpec::uniform(100, 10).with_seed(7).generate_tuples();
        let c = RelationSpec::uniform(100, 10).with_seed(8).generate_tuples();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_breaks_group_runs() {
        // Without the shuffle, groups would arrive strictly round-robin;
        // check the first groups are not simply 0,1,2,...
        let tuples = RelationSpec::uniform(1000, 100).generate_tuples();
        let firsts: Vec<i64> = tuples[..10].iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_ne!(firsts, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn scalar_aggregation_special_case() {
        let spec = RelationSpec::uniform(50, 1);
        let tuples = spec.generate_tuples();
        assert!(tuples.iter().all(|t| t[0] == Value::Int(0)));
    }

    #[test]
    fn more_groups_than_tuples_caps_at_tuples() {
        // groups > tuples: every tuple its own group id (i % groups = i).
        let spec = RelationSpec::uniform(10, 100);
        let tuples = spec.generate_tuples();
        let groups: HashSet<i64> = tuples.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(groups.len(), 10);
    }

    #[test]
    fn default_query_projects_group_and_value() {
        let q = default_query();
        assert_eq!(q.projection_columns(), vec![0, 1]);
        assert_eq!(q.result_row_arity(), 3);
    }

    /// Every generator that deals its rows here makes the files its
    /// tuples dealt round-robin would, page for page, with one padding
    /// string per file.
    #[test]
    fn dealt_partitions_are_the_tuples_dealt_round_robin() {
        use crate::{round_robin_partitions, TpcdWorkload, ZipfSpec};
        let spec = RelationSpec::uniform(997, 12).with_seed(3);
        let zipf = ZipfSpec::new(997, 40, 1.1);
        let tpcd = TpcdWorkload::new(997);
        for (dealt, tuples) in [
            (generate_partitions(&spec, 3), spec.generate_tuples()),
            (zipf.generate_partitions(3), zipf.generate_tuples()),
            (tpcd.generate_partitions(3), tpcd.generate_tuples()),
        ] {
            let expect = round_robin_partitions(&tuples, 3, 4096);
            for (file, want) in dealt.iter().zip(&expect) {
                assert_eq!(file.page_count(), want.page_count());
                assert!(file.pages().eq(want.pages()));
                let pads: Vec<Value> = file
                    .iter_untracked()
                    .map(|t| t.unwrap().pop().unwrap())
                    .collect();
                assert!(pads.iter().all(|p| match (p, &pads[0]) {
                    (Value::Str(a), Value::Str(b)) => {
                        std::sync::Arc::ptr_eq(a.as_arc(), b.as_arc())
                    }
                    _ => false,
                }));
            }
        }
    }

    #[test]
    fn partitions_cover_relation() {
        let spec = RelationSpec::uniform(997, 12);
        let parts = generate_partitions(&spec, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.tuple_count()).sum();
        assert_eq!(total, 997);
        // Round-robin: counts differ by at most 1.
        let counts: Vec<usize> = parts.iter().map(|p| p.tuple_count()).collect();
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }
}
