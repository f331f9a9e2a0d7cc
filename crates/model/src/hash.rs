//! Fast, seedable hashing.
//!
//! Three different hash decisions are taken on every tuple's group key:
//!
//! 1. **partitioning** — which node a tuple is sent to (`hash % N`);
//! 2. **overflow bucketing** — which spill bucket a tuple lands in when a
//!    hash table overflows;
//! 3. **table placement** — the in-memory hash table's own hashing.
//!
//! If these reuse the same function, overflow buckets degenerate (every
//! tuple in a bucket collides in the table too) and partitions correlate
//! with buckets — the classic hybrid-hash pitfall. We therefore derive a
//! distinct [`Seed`] per purpose and fold it into an FxHash-style
//! multiply-rotate hasher. `std`'s SipHash would also work but is several
//! times slower for the short keys that dominate here, and the offline
//! crate allowlist has no fxhash/ahash — so we implement the (tiny,
//! well-known) algorithm ourselves.

use crate::store::IndexRow;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// 64-bit multiplicative constant from FxHash (`pi`-derived).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A hashing purpose, turned into an avalanche-mixed starting state so that
/// the three decisions above are pairwise independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seed {
    /// Node partitioning (exchange operator).
    Partition,
    /// Overflow-bucket selection inside a hash table.
    OverflowBucket(u32),
    /// In-memory hash-table placement.
    Table,
    /// Arbitrary extra seed (tests, ablations).
    Custom(u64),
}

impl Seed {
    fn initial_state(self) -> u64 {
        let raw = match self {
            Seed::Partition => 0x9e37_79b9_7f4a_7c15,
            Seed::OverflowBucket(level) => 0xc2b2_ae3d_27d4_eb4f ^ (level as u64).wrapping_mul(K),
            Seed::Table => 0x165667b19e3779f9,
            Seed::Custom(s) => s | 1,
        };
        // One round of splitmix64 finalization so nearby raw seeds diverge.
        let mut z = raw.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// FxHash-style hasher: word-at-a-time rotate-xor-multiply.
#[derive(Debug, Clone)]
pub struct FxHasher {
    state: u64,
}

/// One mixing step of the Fx hash: rotate, xor the word in, multiply.
#[inline]
fn mix_word(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(K)
}

/// The finishing avalanche applied by [`FxHasher::finish`].
#[inline]
fn finish_state(state: u64) -> u64 {
    let z = (state ^ (state >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    z ^ (z >> 32)
}

impl FxHasher {
    /// A hasher starting from the given seed's mixed state.
    pub fn with_seed(seed: Seed) -> Self {
        FxHasher {
            state: seed.initial_state(),
        }
    }

    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = mix_word(self.state, word);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche: Fx's raw state has weak low bits; since we use
        // `finish() % N` for partitioning, mix before exposing.
        finish_state(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            buf[7] = rem.len() as u8; // length-tag the tail
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// Hash a slice of values under a given seed. This is *the* hash function
/// for group keys: partitioning, bucketing and table placement all go
/// through here with their respective seeds.
pub fn hash_values(seed: Seed, values: &[Value]) -> u64 {
    let mut h = FxHasher::with_seed(seed);
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// [`hash_values`] of a row's first `k` cells (all of them when the row is
/// shorter), read by index where they lie — a page's strips, a slice — with
/// no `Value` row in between.
pub fn hash_cells<R: IndexRow + ?Sized>(seed: Seed, row: &R, k: usize) -> u64 {
    let mut hasher = FxHasher::with_seed(seed);
    (0..k.min(row.arity())).for_each(|j| row.cell(j).with_value(|v| v.hash(&mut hasher)));
    hasher.finish()
}

/// Vectorized batch counterpart of [`hash_values`]: initialize one hash
/// state per row. The caller then folds each key column in with
/// [`hash_batch_ints`] / [`hash_batch_values`] (column-at-a-time over the
/// whole batch) and seals with [`hash_batch_finish`]; row `r`'s result is
/// then bit-identical to `hash_values(seed, &key_columns_of_row_r)`.
///
/// `states` is cleared and resized — callers pool it across batches.
pub fn hash_batch_init(seed: Seed, rows: usize, states: &mut Vec<u64>) {
    states.clear();
    states.resize(rows, seed.initial_state());
}

/// Fold a fixed-width `Int` column into every row's hash state: exactly
/// the words `Value::Int(x).hash()` feeds (type tag, then payload), with
/// no per-value dispatch — the kernel the validity-free columnar fast
/// path rides.
pub fn hash_batch_ints(states: &mut [u64], column: &[i64]) {
    debug_assert_eq!(states.len(), column.len());
    for (s, &x) in states.iter_mut().zip(column) {
        *s = mix_word(mix_word(*s, 1), x as u64);
    }
}

/// Fold a general [`Value`] column into every row's hash state (mixed
/// types, strings, nulls — the non-fast columnar path).
pub fn hash_batch_values(states: &mut [u64], column: &[Value]) {
    debug_assert_eq!(states.len(), column.len());
    for (s, v) in states.iter_mut().zip(column) {
        let mut h = FxHasher { state: *s };
        v.hash(&mut h);
        *s = h.state;
    }
}

/// Apply the finishing avalanche to every row's state, producing the
/// final hashes ([`FxHasher::finish`] semantics).
pub fn hash_batch_finish(states: &mut [u64]) {
    for s in states.iter_mut() {
        *s = finish_state(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Vec<Value> {
        vec![Value::Int(i)]
    }

    #[test]
    fn deterministic_per_seed() {
        for seed in [Seed::Partition, Seed::Table, Seed::OverflowBucket(0)] {
            assert_eq!(hash_values(seed, &v(42)), hash_values(seed, &v(42)));
        }
    }

    #[test]
    fn seeds_are_independent() {
        // The same key must land differently under different purposes —
        // otherwise overflow buckets correlate with partitions.
        let mut diffs = 0;
        for i in 0..64 {
            let a = hash_values(Seed::Partition, &v(i)) % 8;
            let b = hash_values(Seed::OverflowBucket(0), &v(i)) % 8;
            if a != b {
                diffs += 1;
            }
        }
        assert!(diffs > 32, "partition and bucket hashes correlate: {diffs}/64 differ");
    }

    #[test]
    fn overflow_levels_are_independent() {
        let mut diffs = 0;
        for i in 0..64 {
            let a = hash_values(Seed::OverflowBucket(0), &v(i)) % 8;
            let b = hash_values(Seed::OverflowBucket(1), &v(i)) % 8;
            if a != b {
                diffs += 1;
            }
        }
        assert!(diffs > 32, "recursive overflow levels correlate");
    }

    #[test]
    fn partitioning_is_roughly_uniform() {
        const N: usize = 8;
        let mut counts = [0usize; N];
        for i in 0..8000 {
            counts[(hash_values(Seed::Partition, &v(i)) % N as u64) as usize] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (800..1200).contains(&c),
                "bucket {b} got {c} of 8000 keys (expected ~1000)"
            );
        }
    }

    #[test]
    fn sequential_keys_do_not_collide_in_low_bits() {
        // `finish() % N` must spread sequential integers (our generators
        // produce group ids 0..G).
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            seen.insert(hash_values(Seed::Table, &v(i)) % 1024);
        }
        assert!(seen.len() > 600, "only {} distinct low-bit values", seen.len());
    }

    #[test]
    fn multi_column_keys_hash_all_columns() {
        let a = hash_values(Seed::Table, &[Value::Int(1), Value::Int(2)]);
        let b = hash_values(Seed::Table, &[Value::Int(1), Value::Int(3)]);
        let c = hash_values(Seed::Table, &[Value::Int(2), Value::Int(2)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn str_tail_bytes_are_length_tagged() {
        // "ab" and "ab\0" style prefixes must not collide via zero padding.
        let a = hash_values(Seed::Table, &[Value::Str("ab".into())]);
        let b = hash_values(Seed::Table, &[Value::Str("ab\0".into())]);
        assert_ne!(a, b);
    }

    #[test]
    fn batch_int_kernel_matches_row_hash() {
        for seed in [Seed::Table, Seed::Partition, Seed::OverflowBucket(3)] {
            let col: Vec<i64> = (-5..40).map(|i| i * 31 - 7).collect();
            let mut states = Vec::new();
            hash_batch_init(seed, col.len(), &mut states);
            hash_batch_ints(&mut states, &col);
            hash_batch_finish(&mut states);
            for (r, &x) in col.iter().enumerate() {
                assert_eq!(
                    states[r],
                    hash_values(seed, &[Value::Int(x)]),
                    "row {r} diverged under {seed:?}"
                );
            }
        }
    }

    #[test]
    fn batch_value_kernel_matches_row_hash_for_every_type() {
        let col = vec![
            Value::Null,
            Value::Int(42),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Str("".into()),
            Value::Str("ab".into()),
            Value::Str("a longer string crossing word chunks".into()),
        ];
        let mut states = Vec::new();
        hash_batch_init(Seed::Table, col.len(), &mut states);
        hash_batch_values(&mut states, &col);
        hash_batch_finish(&mut states);
        for (r, v) in col.iter().enumerate() {
            assert_eq!(
                states[r],
                hash_values(Seed::Table, std::slice::from_ref(v)),
                "row {r} ({v:?}) diverged"
            );
        }
    }

    #[test]
    fn batch_multi_column_matches_row_hash() {
        // Mixed strip kinds: an Int column then a Value column, folded
        // column-at-a-time, must equal hashing each row's key slice.
        let ints: Vec<i64> = (0..32).collect();
        let vals: Vec<Value> = (0..32)
            .map(|i| {
                if i % 3 == 0 {
                    Value::Str(format!("s{i}").into())
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        let mut states = Vec::new();
        hash_batch_init(Seed::Table, 32, &mut states);
        hash_batch_ints(&mut states, &ints);
        hash_batch_values(&mut states, &vals);
        hash_batch_finish(&mut states);
        for r in 0..32usize {
            let key = [Value::Int(ints[r]), vals[r].clone()];
            assert_eq!(states[r], hash_values(Seed::Table, &key), "row {r}");
        }
    }

    #[test]
    fn batch_init_reuses_and_clears_scratch() {
        let mut states = vec![0xdead; 64];
        hash_batch_init(Seed::Table, 2, &mut states);
        assert_eq!(states.len(), 2);
        assert!(states.iter().all(|&s| s != 0xdead));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::value::{CellRow, CellSink};
    use crate::KeyCell;
    use proptest::prelude::*;

    /// A row that hands its `Int` cells over as `i64`s, as a page's `Int`
    /// strips do, and every other cell as a value.
    struct Strips<'a>(&'a [Value]);

    impl CellRow for Strips<'_> {
        fn cells<S: CellSink>(&self, sink: &mut S) {
            for v in self.0 {
                match v {
                    Value::Int(x) => sink.int(*x),
                    v => sink.value(v),
                }
            }
        }
    }

    impl IndexRow for Strips<'_> {
        fn arity(&self) -> usize {
            self.0.len()
        }

        fn cell(&self, j: usize) -> KeyCell<'_> {
            match &self.0[j] {
                Value::Int(x) => KeyCell::Int(*x),
                v => KeyCell::Value(v),
            }
        }
    }

    fn arb_cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            ".{0,20}".prop_map(|s: String| Value::Str(s.into_boxed_str())),
        ]
    }

    proptest! {
        /// `hash_cells` is `hash_values` of the row's first `k` cells — or
        /// of all of them when the row is shorter than `k` — whether the
        /// cells arrive as values or as `Int` strip cells.
        #[test]
        fn prop_hash_cells_equals_hash_values(
            row in proptest::collection::vec(arb_cell(), 0..8),
            k in 0usize..10,
            custom in any::<u64>(),
        ) {
            for seed in [Seed::Table, Seed::Partition, Seed::OverflowBucket(2), Seed::Custom(custom)] {
                let want = hash_values(seed, &row[..k.min(row.len())]);
                prop_assert_eq!(hash_cells(seed, &row[..], k), want);
                prop_assert_eq!(hash_cells(seed, &Strips(&row), k), want);
            }
        }
    }

    #[test]
    fn hash_cells_covers_every_cell_type_and_both_lengths() {
        let row = [Value::Int(-3), Value::from("ab"), Value::Null, Value::Float(0.25)];
        for k in 0..=6 {
            let want = hash_values(Seed::Partition, &row[..k.min(row.len())]);
            assert_eq!(hash_cells(Seed::Partition, &row[..], k), want, "k = {k}");
            assert_eq!(hash_cells(Seed::Partition, &Strips(&row), k), want, "k = {k}");
        }
    }
}
