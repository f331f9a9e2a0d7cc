//! Hash-aggregation statistics.

use adaptagg_model::{LaneRows, StoreLayout};

/// Counters describing one aggregation's behaviour. The adaptive
/// algorithms' tests assert on these (e.g. "A2P must not spill; plain 2P
/// at this selectivity must").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HashAggStats {
    /// Raw tuples pushed.
    pub raw_in: u64,
    /// Partial rows pushed.
    pub partial_in: u64,
    /// Rows emitted (groups out).
    pub groups_out: u64,
    /// Rows spooled into overflow buckets at any level: those the
    /// first-pass table did not hold, and those an overflow bucket's table
    /// did not hold when re-fed, spooled again one level deeper.
    pub spilled_tuples: u64,
    /// Overflow buckets processed (all recursion levels).
    pub overflow_buckets: u64,
    /// Deepest overflow recursion level reached (0 = no overflow).
    pub max_level: u32,
    /// Slots examined by insert-path probes across all tables (first
    /// pass + overflow buckets); the excess over `rows_in` measures
    /// collision chains.
    pub probe_slots: u64,
    /// Largest number of groups resident in any one table at drain time.
    pub peak_resident: u64,
    /// Overflow-bucket pages re-aggregated as batches off their strips.
    pub overflow_pages_batched: u64,
    /// Overflow-bucket pages re-aggregated row by row, indexed as
    /// [`DrainCause::ALL`](crate::DrainCause::ALL).
    pub overflow_pages_rows: [u64; 2],
    /// The group-store layout the data left each table in, summed at drain
    /// time over all tables (first pass + overflow buckets): columns still
    /// typed, columns general, demotions by cause, tables by index and
    /// their moves off the dense map; `bytes_per_group` is the widest
    /// table's.
    pub store: StoreLayout,
    /// Partial rows the tables drained, by the lane they left on: a column
    /// at a time, or cell by cell.
    pub partial_rows: LaneRows,
    /// The `spilled_tuples`, by the lane they were spooled on: off an
    /// all-`Int` batch a column at a time, or cell by cell.
    pub spooled_rows: LaneRows,
}

impl HashAggStats {
    /// Whether any intermediate I/O happened.
    pub fn spilled(&self) -> bool {
        self.spilled_tuples > 0
    }

    /// Total rows pushed.
    pub fn rows_in(&self) -> u64 {
        self.raw_in + self.partial_in
    }

    pub(crate) fn add_layout(&mut self, layout: &StoreLayout) {
        let mine = &mut self.store;
        mine.typed_columns += layout.typed_columns;
        mine.general_columns += layout.general_columns;
        for (a, b) in mine.demoted.iter_mut().zip(layout.demoted) {
            *a += b;
        }
        for (a, b) in mine.index.iter_mut().zip(layout.index) {
            *a += b;
        }
        mine.index_conversions += layout.index_conversions;
        mine.bytes_per_group = mine.bytes_per_group.max(layout.bytes_per_group);
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &HashAggStats) {
        self.raw_in += other.raw_in;
        self.partial_in += other.partial_in;
        self.groups_out += other.groups_out;
        self.spilled_tuples += other.spilled_tuples;
        self.overflow_buckets += other.overflow_buckets;
        self.max_level = self.max_level.max(other.max_level);
        self.probe_slots += other.probe_slots;
        self.peak_resident = self.peak_resident.max(other.peak_resident);
        self.overflow_pages_batched += other.overflow_pages_batched;
        for (a, b) in self.overflow_pages_rows.iter_mut().zip(other.overflow_pages_rows) {
            *a += b;
        }
        self.add_layout(&other.store);
        self.partial_rows.add(other.partial_rows);
        self.spooled_rows.add(other.spooled_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spilled_flag_and_totals() {
        let mut s = HashAggStats::default();
        assert!(!s.spilled());
        s.raw_in = 10;
        s.partial_in = 5;
        s.spilled_tuples = 1;
        assert!(s.spilled());
        assert_eq!(s.rows_in(), 15);
    }

    #[test]
    fn add_takes_max_level() {
        let mut a = HashAggStats {
            max_level: 1,
            ..Default::default()
        };
        let b = HashAggStats {
            max_level: 3,
            raw_in: 2,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.max_level, 3);
        assert_eq!(a.raw_in, 2);
    }
}
