//! The flat group store: one index from group key to aggregate states.
//!
//! Both aggregation operators keep their resident groups here — the
//! bounded hash table (`adaptagg-hashagg`) and the sort-based run table
//! (`adaptagg-sortagg`) — so there is one probe loop, one growth policy
//! and one memory layout in the tree.
//!
//! # Layout
//!
//! Entry `e` (groups are numbered in admission order) owns `hashes[e]`,
//! row `e` of the key arena (`key_len` [`Value`]s) and row `e` of the
//! state arena (one [`AggState`] per aggregate). `slots` is a
//! power-of-two, linear-probed array of entry indices at a 7/8 maximum
//! load factor; a probe compares the stored hash before the key, and
//! growth re-seats entries from the stored hashes without touching a key.
//! Nothing is boxed per group: a hit chases no pointer beyond the arena
//! row, a new group costs no allocation (`Str` cells aside), and dropping
//! the store frees segments, not entries.
//!
//! The arenas grow a fixed-size **segment** at a time and rows never move.
//! A doubling `Vec` would be marginally faster to index, but it holds up
//! to twice the live rows and, while it reallocates, old and new copy at
//! once; with every node of a query growing a table at the same moment
//! that showed as peak RSS (DESIGN.md §18).

use crate::agg::{AggFunc, AggSpec, AggState};
use crate::value::Value;
use std::convert::Infallible;

/// Vacant slot marker.
const EMPTY: u32 = u32::MAX;

/// Pre-sizing cap: the slot array is sized for `min(hint, this)` entries
/// up front. Covers the paper's `M` budgets (10 K–12.5 K) with zero
/// growth while keeping unbounded tables from allocating absurd slot
/// arrays.
pub const PRESIZE_CAP: usize = 1 << 14;

const SEG_SHIFT: usize = 10;
/// Rows per arena segment.
const SEG_ROWS: usize = 1 << SEG_SHIFT;

/// Rows of `stride` cells each, appended in fixed-size segments. A
/// zero-width stride is the degenerate case of the same arithmetic (every
/// row is the empty slice of an empty segment), not a special one.
#[derive(Debug)]
struct Arena<T> {
    stride: usize,
    rows: usize,
    segs: Vec<Vec<T>>,
}

impl<T> Arena<T> {
    fn new(stride: usize) -> Self {
        Arena {
            stride,
            rows: 0,
            segs: Vec::new(),
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &[T] {
        let at = (r & (SEG_ROWS - 1)) * self.stride;
        &self.segs[r >> SEG_SHIFT][at..at + self.stride]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [T] {
        let at = (r & (SEG_ROWS - 1)) * self.stride;
        &mut self.segs[r >> SEG_SHIFT][at..at + self.stride]
    }

    /// Append one row; `cells` must yield exactly `stride` cells.
    fn push_row(&mut self, cells: impl IntoIterator<Item = T>) {
        let s = self.rows >> SEG_SHIFT;
        if s == self.segs.len() {
            self.segs.push(Vec::with_capacity(SEG_ROWS * self.stride));
        }
        let seg = &mut self.segs[s];
        let before = seg.len();
        seg.extend(cells);
        assert_eq!(
            seg.len() - before,
            self.stride,
            "arena row of the wrong width"
        );
        self.rows += 1;
    }

    /// Take the last row back.
    fn pop_row(&mut self) {
        self.rows -= 1;
        let seg = &mut self.segs[self.rows >> SEG_SHIFT];
        seg.truncate(seg.len() - self.stride);
    }

    /// Forget every row, keeping the segments.
    fn clear(&mut self) {
        self.segs.iter_mut().for_each(Vec::clear);
        self.rows = 0;
    }
}

/// Group keys and aggregate states in segmented strided arenas behind an
/// open-addressed index (see the module docs).
#[derive(Debug)]
pub struct GroupStore {
    funcs: Vec<AggFunc>,
    /// Power-of-two sized.
    slots: Vec<u32>,
    hashes: Vec<u64>,
    keys: Arena<Value>,
    states: Arena<AggState>,
}

impl GroupStore {
    /// An empty store for keys of `key_len` columns and one state per
    /// spec, its slot array pre-sized for `hint` groups (capped at
    /// [`PRESIZE_CAP`]); it grows on demand past that.
    pub fn new(key_len: usize, specs: &[AggSpec], hint: usize) -> Self {
        let hint = hint.min(PRESIZE_CAP);
        // 7/8 max load factor, never fewer than 16 slots.
        let slots = (hint * 8 / 7 + 1).next_power_of_two().max(16);
        GroupStore {
            funcs: specs.iter().map(|s| s.func).collect(),
            slots: vec![EMPTY; slots],
            hashes: Vec::with_capacity(hint),
            keys: Arena::new(key_len),
            states: Arena::new(specs.len()),
        }
    }

    /// Number of groups held.
    #[inline]
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the store holds no groups.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Size of the slot array.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The key columns of `entry`.
    #[inline]
    pub fn key(&self, entry: usize) -> &[Value] {
        self.keys.row(entry)
    }

    /// The aggregate states of `entry`, in spec order.
    #[inline]
    pub fn states(&self, entry: usize) -> &[AggState] {
        self.states.row(entry)
    }

    /// The aggregate states of `entry`, mutably.
    #[inline]
    pub fn states_mut(&mut self, entry: usize) -> &mut [AggState] {
        self.states.row_mut(entry)
    }

    /// Where the probe sequence of `hash` starts.
    #[inline]
    pub fn home(&self, hash: u64) -> usize {
        (hash as usize) & (self.slots.len() - 1)
    }

    /// Linear-probe for the group with this `hash` whose stored key
    /// satisfies `is_key`: `Ok(entry)`, or `Err(slot)` with the vacant
    /// slot it would take (what [`GroupStore::admit`] wants), plus the
    /// number of slots examined.
    #[inline]
    pub fn probe(
        &self,
        hash: u64,
        mut is_key: impl FnMut(&[Value]) -> bool,
    ) -> (Result<usize, usize>, u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        let mut examined = 1u64;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return (Err(i), examined);
            }
            let e = s as usize;
            if self.hashes[e] == hash && is_key(self.keys.row(e)) {
                return (Ok(e), examined);
            }
            i = (i + 1) & mask;
            examined += 1;
        }
    }

    /// [`GroupStore::probe`] for a key held as a slice.
    #[inline]
    pub fn find(&self, hash: u64, key: &[Value]) -> (Result<usize, usize>, u64) {
        self.probe(hash, |stored| stored == key)
    }

    /// Admit a new group with fresh states into the vacant `slot` a probe
    /// for it just reported; returns its entry. `key` must yield the
    /// store's `key_len` cells.
    pub fn admit(&mut self, slot: usize, hash: u64, key: impl IntoIterator<Item = Value>) -> usize {
        match self.admit_with(slot, hash, key, |_| Ok::<(), Infallible>(())) {
            Ok(entry) => entry,
            Err(never) => match never {},
        }
    }

    /// [`GroupStore::admit`], with `init` folding the group's first row
    /// into its fresh states. If `init` fails the store is left exactly
    /// as it was — no entry, no slot, no probe-visible trace.
    pub fn admit_with<E>(
        &mut self,
        slot: usize,
        hash: u64,
        key: impl IntoIterator<Item = Value>,
        init: impl FnOnce(&mut [AggState]) -> Result<(), E>,
    ) -> Result<usize, E> {
        let entry = self.len();
        assert!(entry < EMPTY as usize, "group store exceeds u32 entries");
        assert_eq!(self.slots[slot], EMPTY, "admission into an occupied slot");
        self.states
            .push_row(self.funcs.iter().map(|&f| AggState::new(f)));
        if let Err(e) = init(self.states.row_mut(entry)) {
            self.states.pop_row();
            return Err(e);
        }
        self.keys.push_row(key);
        self.hashes.push(hash);
        self.slots[slot] = entry as u32;
        if (self.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        Ok(entry)
    }

    /// Double the slot array and re-seat every entry from its stored
    /// hash (keys are not re-hashed and never move).
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(new_len, EMPTY);
        for (entry, &hash) in self.hashes.iter().enumerate() {
            let mut i = (hash as usize) & (new_len - 1);
            while self.slots[i] != EMPTY {
                i = (i + 1) & (new_len - 1);
            }
            self.slots[i] = entry as u32;
        }
    }

    /// Forget every group, keeping every buffer (slot array at its grown
    /// size, arena segments) for the next fill.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.hashes.clear();
        self.keys.clear();
        self.states.clear();
    }

    /// Hand every group to `f` in admission order — its key cells *moved*
    /// into a vector with room for `spare` more, and its states — and
    /// empty the store. Unlike [`GroupStore::clear`], arena segments are
    /// freed as the drain passes them, so the rows being built never
    /// coexist with a full arena. That is where the peak-RSS saving of
    /// the flat layout comes from when many tables drain at once
    /// (`serve_mixed`: 126-129 MB against 152-153 MB with the segments
    /// kept), and a table refilled after a drain (A-2P's overflow flush,
    /// bucket recursion) measured no slower for re-allocating them
    /// (`spill_adaptive`: 5.5 M against 5.2-5.3 M tuples/s; DESIGN.md §18.1).
    pub fn drain_rows(&mut self, spare: usize, mut f: impl FnMut(Vec<Value>, &[AggState])) {
        let width = self.keys.stride + spare;
        for e in 0..self.len() {
            let mut key = Vec::with_capacity(width);
            let cells = self.keys.row_mut(e).iter_mut();
            key.extend(cells.map(|v| std::mem::replace(v, Value::Null)));
            f(key, self.states.row(e));
            if (e + 1) % SEG_ROWS == 0 {
                self.keys.segs[e >> SEG_SHIFT] = Vec::new();
                self.states.segs[e >> SEG_SHIFT] = Vec::new();
            }
        }
        self.clear();
        self.keys.segs.clear();
        self.states.segs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{hash_values, Seed};

    fn specs() -> [AggSpec; 2] {
        [AggSpec::count_star(), AggSpec::over(AggFunc::Sum, 1)]
    }

    /// Find-or-admit `key`, counting one row into the group.
    fn touch(store: &mut GroupStore, key: &[Value]) -> usize {
        let hash = hash_values(Seed::Table, key);
        let entry = match store.find(hash, key).0 {
            Ok(entry) => entry,
            Err(slot) => store.admit(slot, hash, key.iter().cloned()),
        };
        store.states_mut(entry)[0].update(None).unwrap();
        entry
    }

    #[test]
    fn entries_survive_segment_boundaries_and_slot_doublings() {
        let mut store = GroupStore::new(2, &specs(), 0);
        let n = 3 * SEG_ROWS + 17;
        let key = |g: usize| [Value::Int(g as i64), Value::from(["e", "o"][g % 2])];
        for g in 0..n {
            assert_eq!(
                touch(&mut store, &key(g)),
                g,
                "entries number in admission order"
            );
        }
        assert_eq!(store.len(), n);
        assert!(store.slot_count() >= n * 8 / 7 && store.slot_count() > 16);
        assert_eq!((store.keys.segs.len(), store.states.segs.len()), (4, 4));
        for g in (0..n).rev() {
            assert_eq!(touch(&mut store, &key(g)), g);
            assert_eq!(store.key(g), &key(g));
            assert_eq!(store.states(g)[0], AggState::Count(2));
        }
    }

    #[test]
    fn a_failed_first_fold_leaves_no_trace() {
        let mut store = GroupStore::new(1, &specs(), 0);
        touch(&mut store, &[Value::Int(1)]);
        let key = [Value::Int(2)];
        let hash = hash_values(Seed::Table, &key);
        let (probe, examined) = store.find(hash, &key);
        let slot = probe.unwrap_err();
        let failed = store.admit_with(slot, hash, key.iter().cloned(), |states| {
            states[0].update(None).unwrap();
            Err("bad row")
        });
        assert_eq!(failed, Err("bad row"));
        assert_eq!((store.len(), store.states.rows, store.keys.rows), (1, 1, 1));
        assert_eq!(store.find(hash, &key), (Err(slot), examined));
        // The next admission takes the entry the failed one would have,
        // with fresh states.
        let entry = store
            .admit_with(slot, hash, key.iter().cloned(), |_| Ok::<_, ()>(()))
            .unwrap();
        assert_eq!(entry, 1);
        assert_eq!(
            store.states(1),
            &[AggState::new(AggFunc::Count), AggState::new(AggFunc::Sum)]
        );
    }

    #[test]
    fn zero_width_strides_are_ordinary_rows() {
        // GROUP BY nothing with no aggregates: one group, empty key,
        // empty states.
        let mut store = GroupStore::new(0, &[], 0);
        let hash = hash_values(Seed::Table, &[]);
        let slot = store.find(hash, &[]).0.unwrap_err();
        assert_eq!(store.admit(slot, hash, []), 0);
        assert_eq!(store.find(hash, &[]).0, Ok(0));
        assert!(store.key(0).is_empty() && store.states(0).is_empty());
        let mut drained = Vec::new();
        store.drain_rows(0, |key, states| drained.push((key, states.len())));
        assert_eq!(drained, vec![(vec![], 0)]);
        assert!(store.is_empty());
    }

    #[test]
    fn clear_keeps_the_segments_and_drain_frees_them() {
        let mut store = GroupStore::new(1, &specs(), 0);
        let fill = |store: &mut GroupStore| {
            for g in 0..(SEG_ROWS as i64 + 5) {
                touch(store, &[Value::from(format!("g{g}"))]);
            }
        };
        fill(&mut store);
        let slots = store.slot_count();
        let caps: Vec<usize> = store.keys.segs.iter().map(Vec::capacity).collect();
        assert_eq!(caps, vec![SEG_ROWS, SEG_ROWS]);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(
            store
                .find(
                    hash_values(Seed::Table, &[Value::from("g3")]),
                    &[Value::from("g3")]
                )
                .0
                .ok(),
            None
        );
        fill(&mut store);
        assert_eq!(store.slot_count(), slots);
        assert_eq!(
            store
                .keys
                .segs
                .iter()
                .map(Vec::capacity)
                .collect::<Vec<_>>(),
            caps
        );

        let mut keys = Vec::new();
        store.drain_rows(3, |key, states| {
            assert_eq!((key.capacity(), states[0].clone()), (4, AggState::Count(1)));
            keys.push(key);
        });
        assert_eq!(keys.len(), SEG_ROWS + 5);
        assert_eq!(
            keys[SEG_ROWS],
            vec![Value::from(format!("g{SEG_ROWS}"))],
            "admission order"
        );
        assert!(store.is_empty() && store.keys.segs.is_empty() && store.states.segs.is_empty());
        // Reusable after a drain.
        fill(&mut store);
        assert_eq!(store.len(), SEG_ROWS + 5);
    }
}
