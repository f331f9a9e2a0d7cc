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
//! row `e` of the key column and cell `e` of one state column per
//! aggregate. `slots` is a power-of-two, linear-probed array of entry
//! indices at a 7/8 maximum load factor; a probe compares the stored hash
//! before the key, and growth re-seats entries from the stored hashes
//! without touching a key. Nothing is boxed per group: a hit chases no
//! pointer beyond the column cells, a new group costs no allocation (`Str`
//! cells aside), and dropping the store frees segments, not entries.
//!
//! # The dense index
//!
//! A store grouped on one column has a second index, used while every key
//! it admitted is an `Int` and the admitted keys span at most twice the
//! slot array a hashed index would have for the groups it holds (or its
//! hint, if more): a **dense map** from `key - base` to the entry. A lookup
//! is one bounds check and one load — no hash read, no probe, no key
//! compare — and counts as one examined slot. Admission writes the map and
//! stores the group's hash as ever, so the columns, `hashes` and the
//! layout are those of a hashed store. A key the map could not take — not
//! an `Int` (whatever the key column's layout), or stretching the span past
//! the bound — moves the store to the slot array as a table with room for
//! it looks it up ([`GroupStore::lookup`]), before it is probed, once (a
//! full table keeps its map and bounces the key): every entry is
//! re-seated there from its stored hash, as growth re-seats them, into the
//! array a hashed store would have by then, so from then on every probe
//! examines the slots a store that never had the map would. The store
//! stays hashed until it is emptied (`clear`, a drain). The choice reads
//! key values only, so the typed and the general key column take the same
//! index.
//!
//! The map is a power of two long, no shorter than the slot array a hashed
//! store starts at and never longer than the bound, so it costs at most
//! about twice the slot array's bytes, and a dense store allocates no slot
//! array at all. Leaving the map frees it, so a hashed store holds the slot
//! array alone. `clear` keeps a dense store's buffer, all vacant, at its
//! length (a run table sealed over and over refills it without
//! allocating); a drain frees it.
//!
//! # Typed columns, and the one-way demotion
//!
//! Columns start **typed**: the key is an `i64` arena of stride `key_len`
//! and each aggregate owns plain cells — `COUNT` a `u64`; `SUM` an `i128`
//! and a seen flag; `AVG` an `i128` and a `u64` count; `MIN`/`MAX` an
//! `i64` and a seen flag. A column stays typed while every cell it is
//! handed fits (`Int` key cells; `Int` or NULL aggregate inputs and
//! partial cells). The first cell that does not — a `Str`/`Float`/NULL
//! key, a `Float` or `Str` input, a `Float` partial sum — **demotes that
//! column, in place and for good**, to the *general* column of [`Value`]s
//! or [`AggState`]s, which is also where `VAR_POP`/`STDDEV_POP` start.
//! The data picks the layout; nothing else can. Stored hashes and the
//! slot array do not depend on it, so a demotion changes no probe
//! sequence, no admission or drain order and no result: a general cell is
//! exactly the [`AggState`] the typed cell stood for.
//!
//! The columns grow a fixed-size **segment** at a time and cells never
//! move. A doubling `Vec` would be marginally faster to index, but it
//! holds up to twice the live rows and, while it reallocates, old and new
//! copy at once; with every node of a query growing a table at the same
//! moment that showed as peak RSS (DESIGN.md §18). A typed state segment
//! is born zero-filled, and all-zero is every typed column's fresh state:
//! admitting a group writes its key, hash and slot and nothing per
//! aggregate.

use crate::agg::{AggFunc, AggSpec, AggState, RowKind};
use crate::error::ModelError;
use crate::key::GroupKey;
use crate::query::ResultRow;
use crate::value::{CellRow, CellSink, RowRun, Value};
use std::ops::Range;

/// Vacant slot marker.
const EMPTY: u32 = u32::MAX;

/// The slot a lookup in a dense store reports a missing key would take:
/// none, as admission places the group itself.
const DENSE_MISS: usize = usize::MAX;

/// Group index of a row that landed in no group, in the group-index
/// vectors [`GroupStore::update_ints`] and [`GroupStore::update_star`]
/// sweep.
pub const NO_GROUP: u32 = u32::MAX;

/// Pre-sizing cap: the slot array is sized for `min(hint, this)` entries
/// up front. Covers the paper's `M` budgets (10 K–12.5 K) with zero
/// growth while keeping unbounded tables from allocating absurd slot
/// arrays.
pub const PRESIZE_CAP: usize = 1 << 14;

/// The slot array a hashed index starts at for `groups` groups: a 7/8 max
/// load factor, never fewer than 16 slots.
fn slots_for(groups: usize) -> usize {
    (groups * 8 / 7 + 1).next_power_of_two().max(16)
}

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

    /// Row `r` of a one-cell stride.
    #[inline]
    fn cell(&self, r: usize) -> &T {
        debug_assert_eq!(self.stride, 1);
        &self.segs[r >> SEG_SHIFT][r & (SEG_ROWS - 1)]
    }

    #[inline]
    fn cell_mut(&mut self, r: usize) -> &mut T {
        debug_assert_eq!(self.stride, 1);
        &mut self.segs[r >> SEG_SHIFT][r & (SEG_ROWS - 1)]
    }

    /// `order` (empty on entry) = `entries` sorted by their rows.
    fn sort_rows(&self, entries: std::ops::Range<u32>, order: &mut Vec<u32>)
    where
        T: Ord,
    {
        order.extend(entries);
        order.sort_unstable_by(|&x, &y| self.row(x as usize).cmp(self.row(y as usize)));
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

    /// The same rows with every cell mapped through `f`, in segments of
    /// the same capacity (rows keep their place; later pushes do not
    /// reallocate).
    fn map<U>(self, mut f: impl FnMut(T) -> U) -> Arena<U> {
        let stride = self.stride;
        let segs = self.segs.into_iter().map(|seg| {
            let mut mapped = Vec::with_capacity(SEG_ROWS * stride);
            mapped.extend(seg.into_iter().map(&mut f));
            mapped
        });
        Arena {
            stride,
            rows: self.rows,
            segs: segs.collect(),
        }
    }
}

/// One plain cell per group, in zero-filled fixed-size segments. Cell `e`
/// exists as soon as segment `e >> SEG_SHIFT` does, and every cell past
/// the store's last group holds `T::default()` — the fresh state of every
/// typed column — so admitting a group costs a typed column nothing
/// beyond a new segment every [`SEG_ROWS`] groups.
#[derive(Debug)]
struct Cells<T> {
    segs: Vec<Box<[T]>>,
}

impl<T: Copy + Default> Cells<T> {
    fn new() -> Self {
        Cells { segs: Vec::new() }
    }

    #[inline]
    fn cell(&self, e: usize) -> &T {
        &self.segs[e >> SEG_SHIFT][e & (SEG_ROWS - 1)]
    }

    #[inline]
    fn cell_mut(&mut self, e: usize) -> &mut T {
        &mut self.segs[e >> SEG_SHIFT][e & (SEG_ROWS - 1)]
    }

    /// The first `n` cells, in order, a segment at a time.
    fn first(&self, n: usize) -> impl Iterator<Item = T> + '_ {
        self.segs.iter().flat_map(|seg| seg.iter().copied()).take(n)
    }
}

/// One cell of a row, borrowed from wherever the row lives: a [`Value`] of
/// a row slice, or a cell of a page's `Int` strip.
#[derive(Debug, Clone, Copy)]
pub enum KeyCell<'a> {
    /// A cell of a fixed-width integer strip.
    Int(i64),
    /// A general cell.
    Value(&'a Value),
}

impl KeyCell<'_> {
    /// The cell as an `i64`, if it is an `Int`.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            KeyCell::Int(x) | KeyCell::Value(&Value::Int(x)) => Some(x),
            KeyCell::Value(_) => None,
        }
    }

    #[inline]
    fn is_value(self, stored: &Value) -> bool {
        match self {
            KeyCell::Int(x) => matches!(stored, Value::Int(y) if *y == x),
            KeyCell::Value(v) => v == stored,
        }
    }

    /// `f` of the cell as a [`Value`]: borrowed where it is one, an `Int`
    /// built on the stack.
    #[inline]
    pub(crate) fn with_value<R>(self, f: impl FnOnce(&Value) -> R) -> R {
        match self {
            KeyCell::Int(x) => f(&Value::Int(x)),
            KeyCell::Value(v) => f(v),
        }
    }

    fn to_value(self) -> Value {
        match self {
            KeyCell::Int(x) => Value::Int(x),
            KeyCell::Value(v) => v.clone(),
        }
    }
}

/// A row read by position where its cells lie — a slice of values, a row of
/// a page's column strips — as the store probes, folds and admits it: the
/// key cells and each aggregate's input are read by index, with no `Value`
/// row in between. The [`CellRow`] walk yields the same cells in order.
pub trait IndexRow: CellRow {
    /// Cells in the row.
    fn arity(&self) -> usize;
    /// Cell `j < arity()`.
    fn cell(&self, j: usize) -> KeyCell<'_>;
}

impl IndexRow for [Value] {
    #[inline]
    fn arity(&self) -> usize {
        self.len()
    }

    #[inline]
    fn cell(&self, j: usize) -> KeyCell<'_> {
        KeyCell::Value(&self[j])
    }
}

impl IndexRow for Vec<Value> {
    #[inline]
    fn arity(&self) -> usize {
        self.len()
    }

    #[inline]
    fn cell(&self, j: usize) -> KeyCell<'_> {
        self.as_slice().cell(j)
    }
}

/// The most cells one aggregate's partial state spans (`VAR_POP`'s sum, sum
/// of squares and count).
const PARTIAL_CELLS: usize = 3;

/// [`AggState::merge_partial`] of one function's partial cells read where
/// they lie: a lone cell borrowed, a wider state's cells — numbers, in a
/// well-formed row — copied onto the stack.
fn merge_cells(state: &mut AggState, cells: &[KeyCell<'_>]) -> Result<(), ModelError> {
    match *cells {
        [cell] => cell.with_value(|v| state.merge_partial(std::slice::from_ref(v))),
        _ => {
            let values: [Value; PARTIAL_CELLS] = std::array::from_fn(|i| cells.get(i).map_or(Value::Null, |c| c.to_value()));
            state.merge_partial(&values[..cells.len()])
        }
    }
}

/// Why a column left its typed layout (the `store.demoted{cause=…}`
/// trace counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemoteCause {
    /// A group key cell that is not an `Int`.
    KeyType,
    /// A raw aggregate input that is neither `Int` nor NULL.
    InputType,
    /// A partial-row cell the typed column cannot hold (a `Float` sum, a
    /// malformed cell).
    PartialType,
    /// A function with no typed column (`VAR_POP`, `STDDEV_POP`): general
    /// from the start.
    Func,
}

impl DemoteCause {
    /// Every cause, in counter order.
    pub const ALL: [DemoteCause; 4] = [
        DemoteCause::KeyType,
        DemoteCause::InputType,
        DemoteCause::PartialType,
        DemoteCause::Func,
    ];

    /// The trace counter this cause increments.
    pub fn counter(self) -> &'static str {
        match self {
            DemoteCause::KeyType => "store.demoted{cause=key_type}",
            DemoteCause::InputType => "store.demoted{cause=input_type}",
            DemoteCause::PartialType => "store.demoted{cause=partial_type}",
            DemoteCause::Func => "store.demoted{cause=func}",
        }
    }
}

/// What layout a store's data left it in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLayout {
    /// Columns (the key, then one per aggregate) still typed.
    pub typed_columns: u64,
    /// Columns demoted to — or started in — the general layout.
    pub general_columns: u64,
    /// Demotions so far, indexed as [`DemoteCause::ALL`].
    pub demoted: [u64; 4],
    /// Bytes one resident group occupies: stored hash, slot, key cells
    /// and state cells.
    pub bytes_per_group: u64,
    /// Stores by the index that finds their groups, indexed as
    /// [`StoreIndex::ALL`]: one store counts one.
    pub index: [u64; 2],
    /// Moves from the dense map to the slot array so far.
    pub index_conversions: u64,
}

/// Which index finds a store's groups (the `store.index{kind=…}` trace
/// counters; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreIndex {
    /// The dense map from key offset to entry.
    Dense,
    /// The open-addressed slot array.
    Hashed,
}

impl StoreIndex {
    /// Both indexes, in counter order.
    pub const ALL: [StoreIndex; 2] = [StoreIndex::Dense, StoreIndex::Hashed];

    /// The trace counter this index increments.
    pub fn counter(self) -> &'static str {
        match self {
            StoreIndex::Dense => "store.index{kind=dense}",
            StoreIndex::Hashed => "store.index{kind=hashed}",
        }
    }
}

/// Rows a writer put on pages, by the lane of the run they left in: a run
/// that gathers its rows a column at a time ([`RowRun::int_arity`]), or one
/// read cell by cell.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LaneRows {
    /// Rows written a column at a time.
    pub columns: u64,
    /// Rows written cell by cell.
    pub cells: u64,
}

impl LaneRows {
    /// Count `rows` more rows, on the column lane or not.
    pub fn count(&mut self, columns: bool, rows: u64) {
        match columns {
            true => self.columns += rows,
            false => self.cells += rows,
        }
    }

    /// Add `other`'s rows, lane by lane.
    pub fn add(&mut self, other: LaneRows) {
        self.columns += other.columns;
        self.cells += other.cells;
    }
}

#[derive(Debug)]
enum KeyColumn {
    Ints(Arena<i64>),
    General(Arena<Value>),
}

/// Write `cells` into `out`, one slot each: a gathered column.
#[inline]
fn write_cells(out: &mut [i64], cells: impl Iterator<Item = i64>) {
    out.iter_mut().zip(cells).for_each(|(o, x)| *o = x);
}

/// The states of one aggregate call, one cell per group.
#[derive(Debug)]
enum StateColumn {
    Count(Cells<u64>),
    /// `SUM` of integers; NULL until `seen`.
    Sum {
        sum: Cells<i128>,
        seen: Cells<bool>,
    },
    /// `AVG` of integers.
    Avg {
        sum: Cells<i128>,
        count: Cells<u64>,
    },
    /// `MIN` (or, with `max`, `MAX`) of integers; NULL until `seen`.
    Extreme {
        best: Cells<i64>,
        seen: Cells<bool>,
        max: bool,
    },
    General(Arena<AggState>),
}

/// The group indices of a batch paired with their batch rows: entry
/// `gix[i]` belongs to row `rows[i]`, or row `i` with no selection.
#[inline]
fn for_each_row(gix: &[u32], rows: Option<&[u32]>, mut f: impl FnMut(usize, usize)) {
    match rows {
        None => gix.iter().enumerate().filter(|(_, &e)| e != NO_GROUP).for_each(|(r, &e)| f(e as usize, r)),
        Some(rows) => {
            let landed = gix.iter().zip(rows).filter(|(&e, _)| e != NO_GROUP);
            landed.for_each(|(&e, &r)| f(e as usize, r as usize))
        }
    }
}

/// The group indices of a batch paired with their input cells: row `i` of
/// the index vector reads `xs[rows[i]]`, or `xs[i]` with no selection.
#[inline]
fn for_each_input(gix: &[u32], xs: &[i64], rows: Option<&[u32]>, mut f: impl FnMut(usize, i64)) {
    match rows {
        None => {
            for (&e, &x) in gix.iter().zip(xs) {
                if e != NO_GROUP {
                    f(e as usize, x);
                }
            }
        }
        Some(rows) => {
            for (&e, &r) in gix.iter().zip(rows) {
                if e != NO_GROUP {
                    f(e as usize, xs[r as usize]);
                }
            }
        }
    }
}

impl StateColumn {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => StateColumn::Count(Cells::new()),
            AggFunc::Sum => StateColumn::Sum {
                sum: Cells::new(),
                seen: Cells::new(),
            },
            AggFunc::Avg => StateColumn::Avg {
                sum: Cells::new(),
                count: Cells::new(),
            },
            AggFunc::Min | AggFunc::Max => StateColumn::Extreme {
                best: Cells::new(),
                seen: Cells::new(),
                max: func == AggFunc::Max,
            },
            AggFunc::VarPop | AggFunc::StddevPop => StateColumn::General(Arena::new(1)),
        }
    }

    /// Bytes of one group's cell(s).
    fn cell_bytes(&self) -> usize {
        match self {
            StateColumn::Count(_) => 8,
            StateColumn::Sum { .. } => 16 + 1,
            StateColumn::Avg { .. } => 16 + 8,
            StateColumn::Extreme { .. } => 8 + 1,
            StateColumn::General(_) => std::mem::size_of::<AggState>(),
        }
    }

    /// Apply `f` to each of the column's arenas.
    fn each_arena(&mut self, mut f: impl FnMut(&mut dyn Segments)) {
        match self {
            StateColumn::Count(a) => f(a),
            StateColumn::Sum { sum, seen } => {
                f(sum);
                f(seen);
            }
            StateColumn::Avg { sum, count } => {
                f(sum);
                f(count);
            }
            StateColumn::Extreme { best, seen, .. } => {
                f(best);
                f(seen);
            }
            StateColumn::General(a) => f(a),
        }
    }

    /// Make cell `e`, the next group's, the fresh state of `func` (the
    /// column's own function).
    #[inline]
    fn push_fresh(&mut self, e: usize, func: AggFunc) {
        match self {
            StateColumn::General(a) => a.push_row([AggState::new(func)]),
            // Zero-filled already, unless `e` opens a segment.
            _ if e & (SEG_ROWS - 1) != 0 => {}
            _ => self.each_arena(|a| a.open_segment(e >> SEG_SHIFT)),
        }
    }

    /// Fold a raw input into cell `e` of a typed column, as
    /// [`AggState::update`] would; `false` (nothing changed) if the input
    /// does not fit the layout. Not for general columns.
    #[inline]
    fn try_update(&mut self, e: usize, input: Option<KeyCell<'_>>) -> bool {
        match (self, input, input.and_then(KeyCell::as_int)) {
            (StateColumn::Count(a), input, _) => {
                if !matches!(input, Some(KeyCell::Value(Value::Null))) {
                    *a.cell_mut(e) += 1;
                }
            }
            (StateColumn::General(_), ..) => unreachable!("typed fold into a general column"),
            (_, Some(KeyCell::Value(Value::Null)), _) => {}
            (StateColumn::Sum { sum, seen }, _, Some(x)) => {
                *sum.cell_mut(e) += x as i128;
                *seen.cell_mut(e) = true;
            }
            (StateColumn::Avg { sum, count }, _, Some(x)) => {
                *sum.cell_mut(e) += x as i128;
                *count.cell_mut(e) += 1;
            }
            (StateColumn::Extreme { best, seen, max }, _, Some(x)) => {
                let (best, seen) = (best.cell_mut(e), seen.cell_mut(e));
                if !*seen || (if *max { x > *best } else { x < *best }) {
                    *best = x;
                    *seen = true;
                }
            }
            _ => return false,
        }
        true
    }

    /// Fold this function's cells of a partial row into cell `e` of a
    /// typed column, as [`AggState::merge_partial`] would; `false`
    /// (nothing changed) if they do not fit the layout.
    #[inline]
    fn try_merge(&mut self, e: usize, cells: &[KeyCell<'_>]) -> bool {
        // The count is COUNT's one cell and AVG's second.
        match (self, cells, cells.last().and_then(|n| n.as_int())) {
            (StateColumn::Count(a), [_], Some(n)) if n >= 0 => *a.cell_mut(e) += n as u64,
            (StateColumn::Avg { sum, count }, [s, _], Some(n)) if n >= 0 => {
                match s.as_int() {
                    // A count of zero ships a NULL sum, which is skipped.
                    _ if n == 0 => {}
                    Some(s) => {
                        *sum.cell_mut(e) += s as i128;
                        *count.cell_mut(e) += n as u64;
                    }
                    None => return false,
                }
            }
            // SUM, MIN and MAX ship the one cell they would take as input.
            (col @ (StateColumn::Sum { .. } | StateColumn::Extreme { .. }), &[cell], _) => {
                return col.try_update(e, Some(cell))
            }
            _ => return false,
        }
        true
    }

    /// Fold the batch's `Int` input cells into the groups they landed in
    /// (see [`for_each_input`]), per group in row order.
    fn update_ints(&mut self, gix: &[u32], xs: &[i64], rows: Option<&[u32]>) {
        match self {
            StateColumn::Count(a) => for_each_input(gix, xs, rows, |e, _| *a.cell_mut(e) += 1),
            StateColumn::Sum { sum, seen } => for_each_input(gix, xs, rows, |e, x| {
                *sum.cell_mut(e) += x as i128;
                *seen.cell_mut(e) = true;
            }),
            StateColumn::Avg { sum, count } => for_each_input(gix, xs, rows, |e, x| {
                *sum.cell_mut(e) += x as i128;
                *count.cell_mut(e) += 1;
            }),
            StateColumn::Extreme { best, seen, max } => for_each_input(gix, xs, rows, |e, x| {
                let (best, seen) = (best.cell_mut(e), seen.cell_mut(e));
                if !*seen || (if *max { x > *best } else { x < *best }) {
                    *best = x;
                    *seen = true;
                }
            }),
            StateColumn::General(a) => {
                for_each_input(gix, xs, rows, |e, x| a.cell_mut(e).update_int(x))
            }
        }
    }

    /// Merge the batch's partial-state cells — `cells` holds the column's
    /// `Int` strips, one per partial cell — into the groups they landed in,
    /// as [`StateColumn::try_merge`] would row by row (counts are
    /// non-negative: the caller checked). Not for general columns.
    fn merge_ints(&mut self, gix: &[u32], cells: &[&[i64]], rows: Option<&[u32]>) {
        match (self, cells) {
            (StateColumn::Count(a), &[ns]) => for_each_input(gix, ns, rows, |e, n| *a.cell_mut(e) += n as u64),
            // SUM, MIN and MAX ship the one cell they would take as input.
            (col @ (StateColumn::Sum { .. } | StateColumn::Extreme { .. }), &[xs]) => col.update_ints(gix, xs, rows),
            (StateColumn::Avg { sum, count }, &[ss, ns]) => for_each_row(gix, rows, |e, r| {
                // A count of zero ships no sum.
                if ns[r] != 0 {
                    *sum.cell_mut(e) += ss[r] as i128;
                    *count.cell_mut(e) += ns[r] as u64;
                }
            }),
            (column, _) => unreachable!("{} partial strips into {column:?}", cells.len()),
        }
    }

    /// Cell `e` as the partial-row cells [`AggState::partial_cells`]
    /// hands over: an integral sum as an `Int` while it fits `i64` and a
    /// `Float` past it, NULL for a state no input reached.
    fn partial_cells<S: CellSink>(&self, e: usize, sink: &mut S) {
        let int_sum = |sink: &mut S, sum: i128| sink.value(&AggState::int_sum_value(sum));
        match self {
            StateColumn::Count(a) => sink.int(*a.cell(e) as i64),
            StateColumn::Sum { sum, seen } => match *seen.cell(e) {
                true => int_sum(sink, *sum.cell(e)),
                false => sink.value(&Value::Null),
            },
            StateColumn::Avg { sum, count } => {
                let n = *count.cell(e);
                match n {
                    0 => sink.value(&Value::Null),
                    _ => int_sum(sink, *sum.cell(e)),
                }
                sink.int(n as i64);
            }
            StateColumn::Extreme { best, seen, .. } => match *seen.cell(e) {
                true => sink.int(*best.cell(e)),
                false => sink.value(&Value::Null),
            },
            StateColumn::General(a) => a.cell(e).partial_cells(sink),
        }
    }

    /// Whether the partial cells of each of the first `rows` groups are all
    /// `Int`s: COUNT's always; SUM's and AVG's once an input reached the
    /// group and while the sum fits `i64`; MIN's and MAX's once an input
    /// reached it. A general column answers no.
    fn partials_are_ints(&self, rows: usize) -> bool {
        let fits = |sum: i128| i64::try_from(sum).is_ok();
        match self {
            StateColumn::Count(_) => true,
            StateColumn::Sum { sum, seen } => sum.first(rows).zip(seen.first(rows)).all(|(s, seen)| seen && fits(s)),
            StateColumn::Avg { sum, count } => sum.first(rows).zip(count.first(rows)).all(|(s, n)| n > 0 && fits(s)),
            StateColumn::Extreme { seen, .. } => seen.first(rows).all(|seen| seen),
            StateColumn::General(_) => false,
        }
    }

    /// Write partial cell `c` of each of `entries` into `out`, as the `Int`
    /// [`StateColumn::partial_cells`] hands over: only for groups whose
    /// partial cells are all `Int`s ([`StateColumn::partials_are_ints`]).
    fn gather(&self, c: usize, entries: impl Iterator<Item = usize>, out: &mut [i64]) {
        match (self, c) {
            (StateColumn::Count(a), 0) | (StateColumn::Avg { count: a, .. }, 1) => {
                write_cells(out, entries.map(|e| *a.cell(e) as i64))
            }
            (StateColumn::Sum { sum, .. } | StateColumn::Avg { sum, .. }, 0) => {
                write_cells(out, entries.map(|e| *sum.cell(e) as i64))
            }
            (StateColumn::Extreme { best, .. }, 0) => {
                write_cells(out, entries.map(|e| *best.cell(e)))
            }
            (column, _) => unreachable!("partial cell {c} of {column:?} as an Int"),
        }
    }

    /// Cell `e` as [`AggState::finalize`] reads it.
    fn finalize(&self, e: usize) -> Value {
        match self {
            StateColumn::Count(a) => Value::Int(*a.cell(e) as i64),
            StateColumn::Sum { sum, seen } => match *seen.cell(e) {
                true => AggState::int_sum_value(*sum.cell(e)),
                false => Value::Null,
            },
            StateColumn::Avg { sum, count } => match *count.cell(e) {
                0 => Value::Null,
                n => Value::Float(*sum.cell(e) as f64 / n as f64),
            },
            StateColumn::Extreme { best, seen, .. } => match *seen.cell(e) {
                true => Value::Int(*best.cell(e)),
                false => Value::Null,
            },
            StateColumn::General(a) => a.cell(e).finalize(),
        }
    }

    /// The general column holding, cell for cell, the states the first
    /// `rows` cells of this typed column stood for.
    fn into_general(self, rows: usize) -> Arena<AggState> {
        let state = |e: usize| match &self {
            StateColumn::Count(a) => AggState::Count(*a.cell(e)),
            StateColumn::Sum { sum, seen } => AggState::int_sum(seen.cell(e).then_some(*sum.cell(e))),
            StateColumn::Avg { sum, count } => AggState::int_avg(*sum.cell(e), *count.cell(e)),
            StateColumn::Extreme { best, seen, max } => {
                let best = seen.cell(e).then_some(Value::Int(*best.cell(e)));
                match max {
                    true => AggState::Max(best),
                    false => AggState::Min(best),
                }
            }
            StateColumn::General(_) => unreachable!("demoting a general column"),
        };
        let mut general = Arena::new(1);
        (0..rows).for_each(|e| general.push_row([state(e)]));
        general
    }
}

/// What the store does to every arena of a column alike, whatever its
/// cell type. `rows` is the store's group count.
trait Segments {
    /// Make room for the first row of segment `s` (zero-filled cells).
    fn open_segment(&mut self, s: usize);
    /// Take back row `rows`, the one past the last group.
    fn take_back(&mut self, rows: usize);
    /// Forget every row, keeping the segments.
    fn clear(&mut self, rows: usize);
    /// Free segment `s`, whose rows a drain has passed.
    fn free_segment(&mut self, s: usize);
    /// Forget every row and free every segment.
    fn free(&mut self);
}

impl<T> Segments for Arena<T> {
    fn open_segment(&mut self, _: usize) {}
    fn take_back(&mut self, rows: usize) {
        self.rows -= 1;
        debug_assert_eq!(self.rows, rows);
        let seg = &mut self.segs[rows >> SEG_SHIFT];
        seg.truncate(seg.len() - self.stride);
    }
    fn clear(&mut self, _: usize) {
        self.segs.iter_mut().for_each(Vec::clear);
        self.rows = 0;
    }
    fn free_segment(&mut self, s: usize) {
        self.segs[s] = Vec::new();
    }
    fn free(&mut self) {
        self.segs.clear();
        self.rows = 0;
    }
}

impl<T: Copy + Default> Segments for Cells<T> {
    fn open_segment(&mut self, s: usize) {
        // `clear` keeps segments; a refill finds them there, zeroed.
        if s == self.segs.len() {
            self.segs.push(vec![T::default(); SEG_ROWS].into_boxed_slice());
        }
    }
    fn take_back(&mut self, rows: usize) {
        *self.cell_mut(rows) = T::default();
    }
    fn clear(&mut self, rows: usize) {
        let used = self.segs.iter_mut().take(rows.div_ceil(SEG_ROWS));
        used.for_each(|seg| seg.fill(T::default()));
    }
    fn free_segment(&mut self, s: usize) {
        self.segs[s] = Box::default();
    }
    fn free(&mut self) {
        self.segs.clear();
    }
}

/// The dense index of a store grouped on one column (see the module docs):
/// the entry of key `x` at `map[x - base]`, offsets wrapping, so a base
/// below `i64::MIN` is no special case. While the store is on the map, it
/// covers `lo..=hi`, the admitted keys' range, and holds their entries;
/// every other offset is vacant. Its length is a power of two (or zero).
/// Off the map, the store holds no buffer.
#[derive(Debug)]
struct DenseMap {
    /// Whether the store finds its groups here rather than in the slot
    /// array.
    on: bool,
    base: i64,
    map: Vec<u32>,
    /// The least and the greatest admitted key; `(i64::MAX, i64::MIN)`
    /// while there is none.
    lo: i64,
    hi: i64,
}

impl DenseMap {
    fn new(on: bool) -> Self {
        DenseMap {
            on,
            base: 0,
            map: Vec::new(),
            lo: i64::MAX,
            hi: i64::MIN,
        }
    }

    #[inline(always)]
    fn get(&self, x: i64) -> Option<usize> {
        match self.map.get(self.offset(x)) {
            Some(&e) if e != EMPTY => Some(e as usize),
            _ => None,
        }
    }

    #[inline(always)]
    fn offset(&self, x: i64) -> usize {
        x.wrapping_sub(self.base) as u64 as usize
    }

    /// The admitted keys' range with `x` among them, if it spans at most
    /// `bound` keys.
    fn range_with(&self, x: i64, bound: usize) -> Option<(i64, i64)> {
        let (lo, hi) = (self.lo.min(x), self.hi.max(x));
        // `hi - lo` is exact as an `u64`.
        ((hi.wrapping_sub(lo) as u64) < bound as u64).then_some((lo, hi))
    }

    /// Vacate the admitted keys' range and forget it.
    fn vacate(&mut self) {
        if self.lo <= self.hi {
            let occupied = self.offset(self.lo)..self.offset(self.hi) + 1;
            self.map[occupied].fill(EMPTY);
        }
        (self.lo, self.hi) = (i64::MAX, i64::MIN);
    }

    /// Lay the map out anew for `x`, which it does not cover, to cover
    /// `lo..=hi` (the range with `x`, at most `bound` keys), seating the
    /// admitted `keys` in entry order: on the buffer as it is while the
    /// range fills at most half of it, else on the power of two that holds
    /// the range twice over, `floor` at least and `bound` at most (both
    /// powers of two). The spare offsets go on the side `x` grew the range
    /// to.
    fn relay(&mut self, keys: impl Iterator<Item = i64>, x: i64, (lo, hi): (i64, i64), (floor, bound): (usize, usize)) {
        let need = hi.wrapping_sub(lo) as usize + 1;
        let len = match 2 * need <= self.map.len() {
            true => self.map.len(),
            false => (2 * need).next_power_of_two().clamp(floor, bound),
        };
        // Powers of two: a buffer longer than `bound` holds `need <= bound`
        // twice over, so the first arm keeps it; the map never shrinks.
        debug_assert!(len >= self.map.len() && len >= need);
        self.vacate();
        self.map.resize(len, EMPTY);
        self.base = match x == hi {
            true => lo,
            false => hi.wrapping_sub(len as i64 - 1),
        };
        for (e, x) in keys.enumerate() {
            let at = self.offset(x);
            self.map[at] = e as u32;
        }
    }
}

/// Every key of a one-column store, in entry order, as an `Int`: what each
/// is while the store is on its dense map.
fn int_keys(keys: &KeyColumn) -> impl Iterator<Item = i64> + '_ {
    let (ints, values) = match keys {
        KeyColumn::Ints(a) => (Some(a.segs.iter().flatten().copied()), None),
        KeyColumn::General(a) => (None, Some(a.segs.iter().flatten())),
    };
    let values = values.into_iter().flatten().map(|v| match v {
        Value::Int(x) => *x,
        other => unreachable!("a {other:?} key on the dense map"),
    });
    ints.into_iter().flatten().chain(values)
}

/// Group keys and aggregate states in segmented columns behind an
/// open-addressed index (see the module docs).
#[derive(Debug)]
pub struct GroupStore {
    specs: Vec<AggSpec>,
    /// Cells of a partial row past its key.
    partial_arity: usize,
    /// Power-of-two sized once allocated, which a store grouped on one
    /// column does only as it leaves the dense map (contents stale while it
    /// is back on one).
    slots: Vec<u32>,
    /// The dense index; never on unless the store groups on one column.
    dense: DenseMap,
    /// Groups the slot array is pre-sized for ([`PRESIZE_CAP`] at most).
    hint: usize,
    /// Moves from the dense map to the slot array so far.
    conversions: u64,
    hashes: Vec<u64>,
    key_len: usize,
    keys: KeyColumn,
    /// One column per spec.
    states: Vec<StateColumn>,
    /// Demotions so far, indexed as [`DemoteCause::ALL`].
    demoted: [u64; 4],
}

impl GroupStore {
    /// An empty store for keys of `key_len` columns and one state per
    /// spec, its slot array pre-sized for `hint` groups (capped at
    /// [`PRESIZE_CAP`]); it grows on demand past that. A store grouped on
    /// one column starts on the dense map, and allocates its slot array if
    /// and when it leaves it.
    pub fn new(key_len: usize, specs: &[AggSpec], hint: usize) -> Self {
        let hint = hint.min(PRESIZE_CAP);
        let dense = DenseMap::new(key_len == 1);
        let slots = match dense.on {
            true => Vec::new(),
            false => vec![EMPTY; slots_for(hint)],
        };
        let states: Vec<StateColumn> = specs.iter().map(|s| StateColumn::new(s.func)).collect();
        let mut demoted = [0; 4];
        demoted[DemoteCause::Func as usize] = states
            .iter()
            .filter(|c| matches!(c, StateColumn::General(_)))
            .count() as u64;
        GroupStore {
            specs: specs.to_vec(),
            partial_arity: specs.iter().map(|s| s.func.partial_arity()).sum(),
            slots,
            dense,
            hint,
            conversions: 0,
            hashes: Vec::with_capacity(hint),
            key_len,
            keys: KeyColumn::Ints(Arena::new(key_len)),
            states,
            demoted,
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

    /// Whether the store finds its groups through the dense map (see the
    /// module docs): a lookup then reads no hash.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.dense.on
    }

    /// Which columns are still typed, what demoted the others, and what a
    /// group costs in bytes.
    pub fn layout(&self) -> StoreLayout {
        let key_cell = match self.keys {
            KeyColumn::Ints(_) => std::mem::size_of::<i64>(),
            KeyColumn::General(_) => std::mem::size_of::<Value>(),
        };
        let general = self
            .states
            .iter()
            .filter(|c| matches!(c, StateColumn::General(_)))
            .count()
            + usize::from(matches!(self.keys, KeyColumn::General(_)));
        let state_bytes: usize = self.states.iter().map(StateColumn::cell_bytes).sum();
        StoreLayout {
            typed_columns: (1 + self.states.len() - general) as u64,
            general_columns: general as u64,
            demoted: self.demoted,
            bytes_per_group: (std::mem::size_of::<u64>()
                + std::mem::size_of::<u32>()
                + self.key_len * key_cell
                + state_bytes) as u64,
            index: match self.dense.on {
                true => [1, 0],
                false => [0, 1],
            },
            index_conversions: self.conversions,
        }
    }

    /// Where the probe sequence of `hash` starts.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash as usize) & (self.slots.len() - 1)
    }

    /// Linear-probe for the entry with this `hash` that `is_entry`
    /// accepts: `Ok(entry)`, or `Err(slot)` with the vacant slot it would
    /// take, plus the number of slots examined.
    // Always inlined, as is `find`: the batched probe's row walk
    // (`hashagg`'s `AggTable::feed`) is the hot loop of every scan.
    #[inline(always)]
    fn probe(&self, hash: u64, is_entry: impl Fn(usize) -> bool) -> (Result<usize, usize>, u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        let mut examined = 1u64;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return (Err(i), examined);
            }
            let e = s as usize;
            if self.hashes[e] == hash && is_entry(e) {
                return (Ok(e), examined);
            }
            i = (i + 1) & mask;
            examined += 1;
        }
    }

    /// Look up the group whose key is `cell(0..key_len)` and whose hash
    /// `hash()` returns: `Ok(entry)`, or `Err(slot)` with the vacant slot
    /// it would take (what the `admit_*` methods want), plus the number of
    /// slots examined. An `Int` cell equals no stored cell of another type,
    /// so a key the typed column could not hold simply is not found in it.
    /// A dense store calls no `hash` and examines one slot, its map's. A
    /// read-only probe: a caller that admits the key if it is missing looks
    /// it up with [`GroupStore::lookup`] (admitted after `find`, a key the
    /// map cannot take moves the store at its admission instead).
    #[inline(always)]
    pub fn find<'a>(
        &self,
        hash: impl FnOnce() -> u64,
        cell: impl Fn(usize) -> KeyCell<'a>,
    ) -> (Result<usize, usize>, u64) {
        if self.dense.on {
            let found = cell(0).as_int().and_then(|x| self.dense.get(x));
            return (found.ok_or(DENSE_MISS), 1);
        }
        let hash = hash();
        match &self.keys {
            KeyColumn::Ints(a) if self.key_len == 1 => match cell(0).as_int() {
                Some(x) => self.probe(hash, |e| *a.cell(e) == x),
                None => self.probe(hash, |_| false),
            },
            KeyColumn::Ints(a) => self.probe(hash, |e| {
                let mut stored = a.row(e).iter().enumerate();
                stored.all(|(j, &s)| cell(j).as_int() == Some(s))
            }),
            KeyColumn::General(a) => self.probe(hash, |e| {
                let mut stored = a.row(e).iter().enumerate();
                stored.all(|(j, s)| cell(j).is_value(s))
            }),
        }
    }

    /// [`GroupStore::find`] for a caller that admits the key if it is
    /// missing and `room(len)` says a store of `len` groups has room for
    /// it: a key the dense map could not take — not an `Int`, or stretching
    /// the span past the bound — then moves the store to the slot array
    /// first, so the lookup examines the slots a hashed store's would. A
    /// store with no room keeps its map and reports the key missing. Keys
    /// that miss and fit cost no more than a miss; `room` is asked only
    /// about a key that does not fit.
    #[inline(always)]
    pub fn lookup<'a>(
        &mut self,
        hash: impl FnOnce() -> u64,
        cell: impl Fn(usize) -> KeyCell<'a>,
        room: impl FnOnce(usize) -> bool,
    ) -> (Result<usize, usize>, u64) {
        if self.dense.on {
            let x = cell(0).as_int();
            if let Some(e) = x.and_then(|x| self.dense.get(x)) {
                return (Ok(e), 1);
            }
            if x.is_some_and(|x| self.dense.range_with(x, self.dense_bound()).is_some()) || !room(self.len()) {
                return (Err(DENSE_MISS), 1);
            }
            self.leave_dense();
        }
        self.find(hash, cell)
    }

    /// The span of keys the dense map may cover once one more group joins:
    /// twice the slot array a hashed index would have for the groups.
    fn dense_bound(&self) -> usize {
        2 * slots_for((self.len() + 1).max(self.hint))
    }

    /// Fold a row, read where it lies, into the resident group `entry`: a
    /// raw row (the specs' input columns index into it), or a partial row
    /// (its key, then [`AggFunc::partial_arity`] cells per spec). A cell a
    /// typed column cannot hold demotes the column first; a row that does
    /// not fold at all (`SUM` over a string, a short row) returns the error
    /// [`AggState`] raises for it, with the states ahead of the failing one
    /// already updated — as the general layout always behaved.
    #[inline]
    pub fn fold<R: IndexRow + ?Sized>(&mut self, entry: usize, kind: RowKind, row: &R) -> Result<(), ModelError> {
        match kind {
            RowKind::Raw => self.fold_raw(entry, row),
            RowKind::Partial => self.fold_partial(entry, row),
        }
    }

    fn fold_raw<R: IndexRow + ?Sized>(&mut self, entry: usize, row: &R) -> Result<(), ModelError> {
        for j in 0..self.states.len() {
            let input = match self.specs[j].input {
                Some(c) if c >= row.arity() => {
                    return Err(ModelError::ColumnOutOfRange {
                        column: c,
                        arity: row.arity(),
                    })
                }
                Some(c) => Some(row.cell(c)),
                None => None,
            };
            self.fold_cell(
                (j, entry, DemoteCause::InputType),
                |typed| typed.try_update(entry, input),
                |state| match input {
                    Some(cell) => cell.with_value(|v| state.update(Some(v))),
                    None => state.update(None),
                },
            )?;
        }
        Ok(())
    }

    fn fold_partial<R: IndexRow + ?Sized>(&mut self, entry: usize, row: &R) -> Result<(), ModelError> {
        let expected = self.key_len + self.partial_arity;
        if row.arity() != expected {
            return Err(ModelError::PartialArityMismatch {
                expected,
                found: row.arity(),
            });
        }
        let mut pos = self.key_len;
        for j in 0..self.states.len() {
            let n = self.specs[j].func.partial_arity();
            // Cells past the spec's `n` repeat its last; they are not read.
            let cells: [KeyCell; PARTIAL_CELLS] = std::array::from_fn(|i| row.cell(pos + i.min(n - 1)));
            let cells = &cells[..n];
            pos += n;
            self.fold_cell(
                (j, entry, DemoteCause::PartialType),
                |typed| typed.try_merge(entry, cells),
                |state| merge_cells(state, cells),
            )?;
        }
        Ok(())
    }

    /// Fold into cell `entry` of state column `j`: by `typed` while the
    /// column is typed and the fold fits it, else — demoting the column
    /// in place for `cause` first, if it was typed — by `general`.
    #[inline]
    fn fold_cell(
        &mut self,
        (j, entry, cause): (usize, usize, DemoteCause),
        typed: impl FnOnce(&mut StateColumn) -> bool,
        general: impl FnOnce(&mut AggState) -> Result<(), ModelError>,
    ) -> Result<(), ModelError> {
        if !matches!(self.states[j], StateColumn::General(_)) {
            if typed(&mut self.states[j]) {
                return Ok(());
            }
            self.demoted[cause as usize] += 1;
            // `entry` may be the group being admitted, one past the last.
            let rows = self.len().max(entry + 1);
            let column = std::mem::replace(&mut self.states[j], StateColumn::Count(Cells::new()));
            self.states[j] = StateColumn::General(column.into_general(rows));
        }
        match &mut self.states[j] {
            StateColumn::General(a) => general(a.cell_mut(entry)),
            _ => unreachable!("just demoted"),
        }
    }

    /// The batched lane's deferred update of spec `j` (which has an input
    /// column): `gix[i]` is the entry batch row `rows[i]` landed in — row
    /// `i` itself with no `rows` — or [`NO_GROUP`], and `xs` the spec's
    /// `Int` input strip. Per entry the cells fold in row order, so the
    /// states end bit-identical to [`GroupStore::fold`] row by row.
    pub fn update_ints(&mut self, j: usize, gix: &[u32], xs: &[i64], rows: Option<&[u32]>) {
        self.states[j].update_ints(gix, xs, rows);
    }

    /// The batched lane's deferred merge of spec `j`'s partial-state cells
    /// (`cells`: one `Int` strip per cell, counts non-negative), `gix` and
    /// `rows` as in [`GroupStore::update_ints`]: per entry the partials
    /// fold in row order, bit-identical to [`GroupStore::fold`] of each
    /// partial row. The column must be typed ([`GroupStore::typed_states`]).
    pub fn merge_ints(&mut self, j: usize, gix: &[u32], cells: &[&[i64]], rows: Option<&[u32]>) {
        self.states[j].merge_ints(gix, cells, rows);
    }

    /// Whether every state column is still typed.
    pub fn typed_states(&self) -> bool {
        self.states.iter().all(|c| !matches!(c, StateColumn::General(_)))
    }

    /// [`GroupStore::update_ints`] for `COUNT(*)`: one row counted into
    /// every entry of `gix`.
    pub fn update_star(&mut self, j: usize, gix: &[u32]) {
        let rows = gix.iter().filter(|&&e| e != NO_GROUP);
        match &mut self.states[j] {
            StateColumn::Count(a) => rows.for_each(|&e| *a.cell_mut(e as usize) += 1),
            StateColumn::General(a) => rows.for_each(|&e| a.cell_mut(e as usize).update_star()),
            _ => unreachable!("COUNT(*)-style update on a {} column", self.specs[j].func),
        }
    }

    fn assert_vacant(&self, slot: usize) {
        assert!(self.len() < EMPTY as usize, "group store exceeds u32 entries");
        match self.dense.on {
            true => assert_eq!(slot, DENSE_MISS, "a slot of the array a dense store left"),
            false => assert_eq!(self.slots[slot], EMPTY, "admission into an occupied slot"),
        }
    }

    /// Admit a new group with fresh states into the vacant `slot` a
    /// [`GroupStore::lookup`] of its key just reported; returns its entry.
    pub fn admit_cells<'a>(
        &mut self,
        slot: usize,
        hash: u64,
        cell: impl Fn(usize) -> KeyCell<'a>,
    ) -> usize {
        self.assert_vacant(slot);
        self.push_fresh_states();
        self.seat(slot, hash, cell)
    }

    /// Admit a new group keyed by the row's leading `key_len` cells and fold
    /// the row into it (see [`GroupStore::fold`]). If the row does not fold
    /// the store is left as it was — no entry, no slot, no column cell, no
    /// probe-visible trace.
    pub fn admit_row<R: IndexRow + ?Sized>(
        &mut self,
        slot: usize,
        hash: u64,
        kind: RowKind,
        row: &R,
    ) -> Result<usize, ModelError> {
        debug_assert!(row.arity() >= self.key_len);
        self.assert_vacant(slot);
        self.push_fresh_states();
        let entry = self.len();
        if let Err(e) = self.fold(entry, kind, row) {
            self.states
                .iter_mut()
                .for_each(|c| c.each_arena(|a| a.take_back(entry)));
            return Err(e);
        }
        Ok(self.seat(slot, hash, |j| row.cell(j)))
    }

    fn push_fresh_states(&mut self) {
        let entry = self.hashes.len();
        for (column, spec) in self.states.iter_mut().zip(&self.specs) {
            column.push_fresh(entry, spec.func);
        }
    }

    /// Give the group whose states were just pushed its key, hash and
    /// place in the index: an offset of the dense map, or `slot` — or, if
    /// the key moves the store off the map here (a grant raised after its
    /// lookup found no room, or a read-only `find`), the slot it takes
    /// there.
    fn seat<'a>(&mut self, slot: usize, hash: u64, cell: impl Fn(usize) -> KeyCell<'a>) -> usize {
        let entry = self.len();
        let on_map = self.dense.on;
        let slot = match on_map {
            false => Some(slot),
            true if self.map_key(entry, cell(0)) => None,
            true => {
                self.leave_dense();
                Some(self.probe(hash, |_| false).0.unwrap_err())
            }
        };
        self.push_key(cell);
        self.hashes.push(hash);
        if let Some(slot) = slot {
            self.slots[slot] = entry as u32;
            if (self.len() + 1) * 8 > self.slots.len() * 7 {
                self.grow();
            }
        }
        entry
    }

    /// Map `key` to `entry`, the group being admitted, on the dense map;
    /// `false` (nothing changed) if the map cannot take it.
    fn map_key(&mut self, entry: usize, key: KeyCell<'_>) -> bool {
        let bound = self.dense_bound();
        let Some(x) = key.as_int() else { return false };
        let Some(range) = self.dense.range_with(x, bound) else {
            return false;
        };
        if self.dense.offset(x) >= self.dense.map.len() {
            // Never shorter than the slot array a hashed store starts at.
            let lengths = (slots_for(self.hint), bound);
            self.dense.relay(int_keys(&self.keys), x, range, lengths);
        }
        let at = self.dense.offset(x);
        self.dense.map[at] = entry as u32;
        (self.dense.lo, self.dense.hi) = range;
        true
    }

    /// Move from the dense map to the slot array, freeing the map and
    /// re-seating every entry from its stored hash into the array a hashed
    /// store would hold them in: at least the one it last had (kept through
    /// `clear` and drains) or the pre-sized one, doubled while the load
    /// calls for it.
    #[cold]
    #[inline(never)]
    fn leave_dense(&mut self) {
        self.dense = DenseMap::new(false);
        self.conversions += 1;
        let mut slots = self.slots.len().max(slots_for(self.hint));
        while (self.len() + 1) * 8 > slots * 7 {
            slots *= 2;
        }
        self.reseat(slots);
    }

    /// Append a key row, demoting the key column first if a cell is not
    /// an `Int`.
    fn push_key<'a>(&mut self, cell: impl Fn(usize) -> KeyCell<'a>) {
        let cells = 0..self.key_len;
        if let KeyColumn::Ints(a) = &mut self.keys {
            if cells.clone().all(|j| cell(j).as_int().is_some()) {
                return a.push_row(cells.filter_map(|j| cell(j).as_int()));
            }
            self.demoted[DemoteCause::KeyType as usize] += 1;
            let ints = std::mem::replace(a, Arena::new(0));
            self.keys = KeyColumn::General(ints.map(Value::Int));
        }
        match &mut self.keys {
            KeyColumn::General(a) => a.push_row(cells.map(|j| cell(j).to_value())),
            KeyColumn::Ints(_) => unreachable!("just demoted"),
        }
    }

    /// Double the slot array and re-seat every entry from its stored
    /// hash (keys are not re-hashed and never move).
    fn grow(&mut self) {
        self.reseat(self.slots.len() * 2);
    }

    /// Lay the slot array out anew at `new_len` slots, every entry seated
    /// from its stored hash in entry order.
    fn reseat(&mut self, new_len: usize) {
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

    /// Apply `f` to every arena of every column.
    fn each_arena(&mut self, mut f: impl FnMut(&mut dyn Segments)) {
        match &mut self.keys {
            KeyColumn::Ints(a) => f(a),
            KeyColumn::General(a) => f(a),
        }
        self.states.iter_mut().for_each(|c| c.each_arena(&mut f));
    }

    /// Forget every group, keeping every buffer (slot array at its grown
    /// size, a dense store's map, column segments) and the layout the data so far
    /// left. A store grouped on one column goes back on the dense map.
    pub fn clear(&mut self) {
        let rows = self.len();
        self.dense.vacate();
        self.reset_index();
        self.hashes.clear();
        self.each_arena(|a| a.clear(rows));
    }

    /// Empty the index, whose dense map is all vacant: back on the map, or
    /// every slot vacant.
    fn reset_index(&mut self) {
        match self.key_len {
            1 => self.dense.on = true,
            _ => self.slots.fill(EMPTY),
        }
    }

    /// Fill `order` with every entry in ascending key order: `Value`'s
    /// total order over the key columns, i.e. `GroupKey`'s `Ord` — which
    /// over a typed key column is the order of the `i64` cells. Keys are
    /// distinct, so every sort is deterministic; none allocates once
    /// `order` and `scratch` (the caller's, for single-`Int` keys) have
    /// grown.
    pub fn sort_entries(&self, order: &mut Vec<u32>, scratch: &mut SortScratch) {
        order.clear();
        let entries = 0..self.len() as u32;
        match &self.keys {
            // Sorting `(key, entry)` pairs moves each key with its entry;
            // a permutation sorted by looking every key up in the column
            // measured 135 -> 170 ns/tuple of run formation at 10k groups.
            // Radix-sorted, a node's twelve sorts of ~10k pairs took
            // 1.3-1.4 ms against 4.9-5.1 for `sort_unstable` (DESIGN.md
            // §28.5).
            KeyColumn::Ints(a) if self.key_len == 1 => {
                let keys = || a.segs.iter().flatten().copied();
                let Some(first) = keys().next() else { return };
                let (min, max) = keys().fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x)));
                let span = max.wrapping_sub(min) as u64;
                // `key - min` is exact as an `u64` and orders as the keys do.
                let pairs = keys().map(|x| x.wrapping_sub(min) as u64).zip(entries);
                if span >> 32 == 0 {
                    let packed = pairs.map(|(x, e)| x << 32 | u64::from(e));
                    let sorted = radix_sort(fill(&mut scratch.packed, self.len(), packed), span);
                    order.extend(sorted.iter().map(|&p| p as u32));
                } else {
                    let sorted = radix_sort(fill(&mut scratch.wide, self.len(), pairs), span);
                    order.extend(sorted.iter().map(|&(_, e)| e));
                }
            }
            KeyColumn::Ints(a) => a.sort_rows(entries, order),
            KeyColumn::General(a) => a.sort_rows(entries, order),
        }
    }

    /// Group `entry` as a partial row — key columns, then each aggregate's
    /// partial-state cells — readable cell by cell where it lies: the one
    /// shape groups leave the store in without a `Vec<Value>` per group
    /// (a page appends it strip by strip). Typed columns hand their cells
    /// over as `i64`s, a demoted column's as [`Value`]s.
    pub fn partial_row(&self, entry: usize) -> GroupRow<'_> {
        debug_assert!(entry < self.len());
        GroupRow { store: self, entry }
    }

    /// Cells of a partial row: the key's, then each aggregate's partial
    /// cells.
    pub fn partial_row_arity(&self) -> usize {
        self.key_len + self.partial_arity
    }

    /// The arity of every partial row ([`GroupStore::partial_row`]) when
    /// each is all `Int` cells: the key column typed, and each state column
    /// one whose partial cells are `Int`s for every group — COUNT always;
    /// SUM and AVG once an input reached the group and while the sum fits
    /// `i64`; MIN and MAX once an input reached it. A general column
    /// answers no. Decided for the whole store: a run of its rows gathers a
    /// column at a time, or none does ([`PartialRun`]).
    fn partial_int_arity(&self) -> Option<usize> {
        let rows = self.len();
        let ints = matches!(self.keys, KeyColumn::Ints(_)) && self.states.iter().all(|c| c.partials_are_ints(rows));
        ints.then_some(self.partial_row_arity())
    }

    /// Write partial-row cell `j` of each of `entries`, in order, into
    /// `out` as `i64`s: one column of the rows [`GroupStore::partial_row`]
    /// reads, gathered. Only for a store whose partial cells are all `Int`s
    /// ([`GroupStore::partial_int_arity`]).
    fn gather_partials(&self, j: usize, entries: impl Iterator<Item = usize>, out: &mut [i64]) {
        if j < self.key_len {
            let KeyColumn::Ints(a) = &self.keys else {
                unreachable!("an all-Int store's key column is typed")
            };
            return write_cells(out, entries.map(|e| a.row(e)[j]));
        }
        let mut c = j - self.key_len;
        for (column, spec) in self.states.iter().zip(&self.specs) {
            match spec.func.partial_arity() {
                n if c < n => return column.gather(c, entries, out),
                n => c -= n,
            }
        }
        unreachable!("partial cell {j} past the row's {}", self.partial_row_arity())
    }

    /// The groups `order` lists (a key order, [`GroupStore::sort_entries`])
    /// as one run of partial rows: a sorted run's rows.
    pub fn partial_run<'a>(&'a self, order: &'a [u32]) -> PartialRun<'a> {
        PartialRun { store: self, order, int_arity: self.partial_int_arity() }
    }

    /// Empty the store, handing `emit` its groups as runs of partial rows
    /// ([`PartialRun`]), a segment's worth at a time, in admission order.
    /// The first error of `emit` is returned; the groups it had not written
    /// are dropped.
    ///
    /// Unlike [`GroupStore::clear`], column segments are freed as the drain
    /// passes them, so the pages being filled never coexist with full
    /// columns. That is where the peak-RSS saving of the flat layout came
    /// from when many tables drained at once, and a table refilled after a
    /// drain (A-2P's overflow flush, bucket recursion) measured no slower
    /// for re-allocating them (DESIGN.md §18.1).
    pub fn drain_partials<E>(
        &mut self,
        mut emit: impl FnMut(&PartialRun<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut result = Ok(());
        // Decided once: the segments are freed as the drain passes them.
        let (int_arity, mut order) = (self.partial_int_arity(), Vec::with_capacity(SEG_ROWS.min(self.len())));
        for start in (0..self.len()).step_by(SEG_ROWS) {
            let end = (start + SEG_ROWS).min(self.len());
            order.clear();
            order.extend(start as u32..end as u32);
            result = emit(&PartialRun { store: self, order: &order, int_arity });
            if result.is_err() {
                break;
            }
            if end - start == SEG_ROWS {
                self.each_arena(|a| a.free_segment(start >> SEG_SHIFT));
            }
        }
        self.free();
        result
    }

    /// Empty the store, handing `emit` each group as its finalized
    /// [`ResultRow`] in ascending key order ([`GroupStore::sort_entries`]:
    /// `GroupKey`'s order, the order `query::sort_rows` puts rows in).
    ///
    /// A row of a one-column key and at most two aggregates owns no heap
    /// block (DESIGN.md §32); the boxes a wider row needs are allocated in
    /// the order everything downstream visits them: the driver's merge,
    /// the caller's walk, the final drop.
    /// A gather in key order cannot free segments as it passes them, so
    /// the columns live until the last row is built (DESIGN.md §23).
    pub fn drain_result_rows(&mut self, mut emit: impl FnMut(ResultRow)) {
        let (mut order, mut scratch) = (Vec::new(), SortScratch::default());
        self.sort_entries(&mut order, &mut scratch);
        // Not needed while the rows are built (16 B a group).
        drop(scratch);
        for e in order {
            let e = e as usize;
            let key = self.keys.take_key(e);
            // Up to two finalized cells are written into the row itself.
            let aggs = self.states.iter().map(|column| column.finalize(e)).collect();
            emit(ResultRow { key, aggs });
        }
        self.free();
    }

    /// Forget every group and free every segment, and the dense map's
    /// buffer (the keys that would vacate it may be gone).
    fn free(&mut self) {
        self.dense = DenseMap::new(false);
        self.reset_index();
        self.hashes.clear();
        self.each_arena(|a| a.free());
    }
}

/// One group of a [`GroupStore`] as a partial row (see
/// [`GroupStore::partial_row`]).
#[derive(Debug, Clone, Copy)]
pub struct GroupRow<'a> {
    store: &'a GroupStore,
    entry: usize,
}

impl CellRow for GroupRow<'_> {
    #[inline]
    fn cells<S: CellSink>(&self, sink: &mut S) {
        match &self.store.keys {
            KeyColumn::Ints(a) => a.row(self.entry).iter().for_each(|&x| sink.int(x)),
            KeyColumn::General(a) => a.row(self.entry).iter().for_each(|v| sink.value(v)),
        }
        for column in &self.store.states {
            column.partial_cells(self.entry, sink);
        }
    }
}

/// Groups of a [`GroupStore`] in a given order — key order for a sorted
/// run, admission order for a drain — as a run of partial rows
/// ([`GroupStore::partial_run`], [`GroupStore::drain_partials`]): gathered
/// a column at a time when every partial cell of the store is an `Int`,
/// read where each lies ([`GroupStore::partial_row`]) otherwise.
#[derive(Debug, Clone, Copy)]
pub struct PartialRun<'a> {
    store: &'a GroupStore,
    order: &'a [u32],
    int_arity: Option<usize>,
}

impl RowRun for PartialRun<'_> {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn int_arity(&self) -> Option<usize> {
        self.int_arity
    }

    fn gather(&self, j: usize, rows: Range<usize>, out: &mut [i64]) {
        self.store.gather_partials(j, self.order[rows].iter().map(|&e| e as usize), out);
    }

    #[inline]
    fn cells<S: CellSink>(&self, i: usize, sink: &mut S) {
        self.store.partial_row(self.order[i] as usize).cells(sink);
    }
}

impl KeyColumn {
    /// Move the key cells of `entry` out as its key (a general cell leaves
    /// NULL behind).
    fn take_key(&mut self, entry: usize) -> GroupKey {
        match self {
            KeyColumn::Ints(a) => a.row(entry).iter().map(|&x| Value::Int(x)).collect(),
            KeyColumn::General(a) => a.row_mut(entry).iter_mut().map(|v| std::mem::replace(v, Value::Null)).collect(),
        }
    }
}

/// The scratch [`GroupStore::sort_entries`] sorts a single-`Int` key in:
/// `(key - min, entry)` pairs, and the radix sort's second buffer. While
/// the keys span less than 2^32 a pair is one `u64`, the key above the
/// entry; otherwise it takes two words.
#[derive(Debug, Default)]
pub struct SortScratch {
    packed: Vec<u64>,
    wide: Vec<(u64, u32)>,
}

/// Refill `buf` with the `n` pairs of `pairs` followed by as many spare
/// slots, and split it there.
fn fill<T: Radix>(buf: &mut Vec<T>, n: usize, pairs: impl Iterator<Item = T>) -> (&mut [T], &mut [T]) {
    buf.clear();
    buf.reserve(2 * n);
    buf.extend(pairs);
    buf.resize(2 * n, T::default());
    buf.split_at_mut(n)
}

/// A pair the radix sort orders by [`Radix::key`].
trait Radix: Copy + Default {
    fn key(self) -> u64;
}

/// `(key - min) << 32 | entry`.
impl Radix for u64 {
    #[inline]
    fn key(self) -> u64 {
        self >> 32
    }
}

/// `(key - min, entry)`.
impl Radix for (u64, u32) {
    #[inline]
    fn key(self) -> u64 {
        self.0
    }
}

/// Sort `pairs` by key, stably, the keys at most `span`: an LSD radix
/// sort, one pass per byte `span` has, a pass over a byte every key shares
/// skipped. The passes alternate between `pairs` and `spare` (as long);
/// the one holding the sorted pairs is returned.
fn radix_sort<'a, T: Radix>((mut pairs, mut spare): (&'a mut [T], &'a mut [T]), span: u64) -> &'a [T] {
    let n = pairs.len();
    let Some(&first) = pairs.first() else {
        return pairs;
    };
    let bytes = (u64::BITS - span.leading_zeros()).div_ceil(8) as usize;
    let digit = |p: T, byte: usize| (p.key() >> (8 * byte)) as usize & 0xff;
    // Entries are below `u32::MAX` (`EMPTY`), so a count fits a `u32`.
    let mut counts = [[0u32; 256]; 8];
    for &p in pairs.iter() {
        for (byte, count) in counts[..bytes].iter_mut().enumerate() {
            count[digit(p, byte)] += 1;
        }
    }
    for (byte, count) in counts[..bytes].iter_mut().enumerate() {
        if count[digit(first, byte)] as usize == n {
            continue;
        }
        let mut at = 0;
        for c in count.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        for &p in pairs.iter() {
            let d = digit(p, byte);
            spare[count[d] as usize] = p;
            count[d] += 1;
        }
        std::mem::swap(&mut pairs, &mut spare);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{hash_values, Seed};

    fn specs() -> [AggSpec; 2] {
        [AggSpec::count_star(), AggSpec::over(AggFunc::Sum, 1)]
    }

    /// Find-or-admit the group of raw row `row` (key = its first
    /// `key_len` cells), as the tables do, and fold the row into it.
    fn touch(store: &mut GroupStore, row: &[Value]) -> Result<usize, ModelError> {
        let hash = hash_values(Seed::Table, &row[..store.key_len]);
        match store.lookup(|| hash, |j| row.cell(j), |_| true).0 {
            Ok(entry) => store.fold(entry, RowKind::Raw, row).map(|()| entry),
            Err(slot) => store.admit_row(slot, hash, RowKind::Raw, row),
        }
    }

    /// Look up the group keyed by the leading cells of `row`.
    fn find(store: &GroupStore, hash: u64, row: &[Value]) -> (Result<usize, usize>, u64) {
        store.find(|| hash, |j| row.cell(j))
    }

    /// Every key of `keys` is found at its entry, in entry order.
    fn assert_entries_found(store: &GroupStore, keys: &[Value]) {
        assert_eq!(store.len(), keys.len());
        for (e, key) in keys.iter().enumerate() {
            let hash = hash_values(Seed::Table, std::slice::from_ref(key));
            assert_eq!(store.find(|| hash, |_| KeyCell::Value(key)).0, Ok(e), "key {key:?}");
        }
    }

    /// The dense map at its edges, and the move off it. Keys admitted in
    /// any order, reaching below the first and up to the bound exactly,
    /// stay on the map; the key that leaves it — one past the bound on
    /// either side, a `Str`, a NULL, the far end of `i64` — re-seats every
    /// entry in the slot array a hashed store would have, where each is
    /// found again — unless the caller has no room for it, when the map
    /// stays. Emptied by `clear` or a drain, the store is back on the map;
    /// the slot array keeps its size.
    #[test]
    fn leaving_the_dense_map_reseats_every_entry() {
        // Under 100 groups with hint 100, the bound is twice the 128-slot
        // array: 256 keys.
        const BOUND: i64 = 256;
        let low = -40i64;
        // The first key is mid-band: half the band lies below it.
        let band: Vec<i64> = (0..60).map(|i| (i * 37 + 30) % 60 + low).collect();
        let leavers = [
            Value::Int(low + BOUND),
            Value::Int(low - 1),
            Value::from("s"),
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
        ];
        for leaver in &leavers {
            for cleared in [true, false] {
                let mut store = GroupStore::new(1, &specs(), 100);
                let touch = |store: &mut GroupStore, key: &Value| touch(store, &[key.clone(), Value::Int(3)]).unwrap();
                let mut keys: Vec<Value> = band.iter().map(|&x| Value::Int(x)).collect();
                // The band's far end: exactly `BOUND` keys from its low end.
                keys.push(Value::Int(low + BOUND - 1));
                for key in keys.iter().chain(&keys) {
                    touch(&mut store, key);
                }
                assert!(store.is_dense(), "{leaver:?}");
                assert_eq!((store.slot_count(), store.layout().index, store.layout().index_conversions), (0, [1, 0], 0));
                assert_entries_found(&store, &keys);

                // With no room for it, the key misses and the map stays.
                let hash = hash_values(Seed::Table, std::slice::from_ref(leaver));
                assert_eq!(store.lookup(|| hash, |_| KeyCell::Value(leaver), |_| false), (Err(DENSE_MISS), 1));
                assert!(store.is_dense(), "{leaver:?}");
                touch(&mut store, leaver);
                keys.push(leaver.clone());
                assert!(!store.is_dense(), "{leaver:?}");
                assert_eq!(store.layout().index, [0, 1]);
                assert_eq!(store.layout().index_conversions, 1);
                // 62 groups fit the 128 slots the hint sized.
                assert_eq!(store.slot_count(), 128);
                assert_entries_found(&store, &keys);
                for key in &keys {
                    touch(&mut store, key);
                }
                assert_eq!(partial_row(&store, 7)[1..], [Value::Int(3), Value::Int(9)]);

                // Emptied, the store is dense again.
                match cleared {
                    true => store.clear(),
                    false => store.drain_result_rows(drop),
                }
                assert!(store.is_dense());
                touch(&mut store, &Value::Int(5));
                assert_entries_found(&store, &[Value::Int(5)]);
                assert_eq!((store.slot_count(), store.layout().index_conversions), (128, 1));
            }
        }
    }

    /// The map is laid out anew as the keys' range grows, a few keys far
    /// apart or a band, and every key is found after every admission.
    /// `clear` leaves the buffer all vacant and at its length, for the next
    /// fill; leaving the map frees it.
    #[test]
    fn the_dense_map_is_relaid_as_the_range_grows() {
        // Hint 1000: the bound is 4096 keys.
        let few = [2_000, 10, 4_000, 2_500, 3, 4_005];
        let band: Vec<i64> = (0..300).map(|i| (i * 113) % 300 - 150).chain([3_900, -190]).collect();
        for keys in [&few[..], &band[..]] {
            let mut store = GroupStore::new(1, &specs(), 1_000);
            for round in 0..2 {
                let mut admitted = Vec::new();
                for &x in keys {
                    touch(&mut store, &[Value::Int(x), Value::Int(1)]).unwrap();
                    admitted.push(Value::Int(x));
                    assert!(store.is_dense(), "{keys:?} at {x}");
                    assert_entries_found(&store, &admitted);
                }
                assert!(store.dense.map.len().is_power_of_two(), "{keys:?}");
                let length = store.dense.map.len();
                match round {
                    0 => {
                        store.clear();
                        assert!(store.dense.map.iter().all(|&e| e == EMPTY), "{keys:?}: the buffer is vacant");
                        assert_eq!(store.dense.map.len(), length, "{keys:?}: and kept");
                    }
                    _ => {
                        touch(&mut store, &[Value::Int(1 << 40), Value::Int(1)]).unwrap();
                        assert!(!store.is_dense());
                        assert_eq!(store.dense.map.capacity(), 0, "{keys:?}: left, the map is freed");
                    }
                }
            }
        }
    }

    /// A buffer kept through `clear` may be longer than the bound of the
    /// emptied store; laid out again for a key it does not cover, it keeps
    /// its length rather than shrinking under the entries it holds.
    #[test]
    fn a_kept_buffer_longer_than_the_bound_never_shrinks() {
        let mut store = GroupStore::new(1, &specs(), 0);
        let first: Vec<i64> = (0..60).chain([199]).collect();
        let second: Vec<i64> = (150..180).chain([260]).collect();
        for keys in [first, second] {
            let mut admitted = Vec::new();
            for x in keys {
                touch(&mut store, &[Value::Int(x), Value::Int(1)]).unwrap();
                admitted.push(Value::Int(x));
                assert!(store.is_dense(), "at {x}");
                assert_entries_found(&store, &admitted);
            }
            // 61 groups: the bound is 256 keys, and the map holds 199's.
            assert_eq!(store.dense.map.len(), 256);
            store.clear();
        }
    }

    /// The map's base may wrap below `i64::MIN`: keys growing downwards
    /// from near it leave spare offsets that stand for keys near
    /// `i64::MAX`, which are found nowhere and move the store off the map.
    #[test]
    fn a_wrapped_base_finds_no_key_of_the_other_end() {
        let mut store = GroupStore::new(1, &specs(), 0);
        let keys: Vec<Value> = [10, 9, 8, 6, 2].iter().map(|&d| Value::Int(i64::MIN + d)).collect();
        for key in &keys {
            touch(&mut store, &[key.clone(), Value::Int(1)]).unwrap();
        }
        assert!(store.is_dense(), "five keys within the bound");
        assert!(store.dense.base > 0, "the base wrapped: {}", store.dense.base);
        assert_entries_found(&store, &keys);
        // Offset 0 stands for a key near `i64::MAX`.
        let far = Value::Int(store.dense.base);
        let hash = hash_values(Seed::Table, std::slice::from_ref(&far));
        assert_eq!(store.find(|| hash, |_| KeyCell::Value(&far)), (Err(DENSE_MISS), 1));
        touch(&mut store, &[far.clone(), Value::Int(1)]).unwrap();
        assert!(!store.is_dense());
        assert_entries_found(&store, &[keys, vec![far]].concat());
    }

    fn partial_row(store: &GroupStore, entry: usize) -> Vec<Value> {
        let mut row = Vec::new();
        store.partial_row(entry).cells(&mut row);
        row
    }

    fn segments(store: &GroupStore) -> Vec<usize> {
        let mut segs = vec![match &store.keys {
            KeyColumn::Ints(a) => a.segs.len(),
            KeyColumn::General(a) => a.segs.len(),
        }];
        for column in &store.states {
            segs.push(match column {
                StateColumn::Count(a) => a.segs.len(),
                StateColumn::Sum { sum, .. } | StateColumn::Avg { sum, .. } => sum.segs.len(),
                StateColumn::Extreme { best, .. } => best.segs.len(),
                StateColumn::General(a) => a.segs.len(),
            });
        }
        segs
    }

    #[test]
    fn entries_survive_segment_boundaries_and_slot_doublings() {
        let specs = [AggSpec::count_star(), AggSpec::over(AggFunc::Max, 1)];
        let mut store = GroupStore::new(2, &specs, 0);
        let n = 3 * SEG_ROWS + 17;
        let row = |g: usize| [Value::Int(g as i64), Value::from(["e", "o"][g % 2])];
        for g in 0..n {
            assert_eq!(touch(&mut store, &row(g)), Ok(g), "entries number in admission order");
        }
        assert_eq!(store.len(), n);
        assert!(store.slot_count() >= n * 8 / 7 && store.slot_count() > 16);
        assert_eq!(segments(&store), [4, 4, 4]);
        for g in (0..n).rev() {
            assert_eq!(touch(&mut store, &row(g)), Ok(g));
            let [a, b] = row(g);
            assert_eq!(partial_row(&store, g), [a, b.clone(), Value::Int(2), b]);
        }
    }

    #[test]
    fn a_failed_first_fold_leaves_no_trace() {
        let mut store = GroupStore::new(1, &specs(), 0);
        touch(&mut store, &[Value::Int(1), Value::Int(4)]).unwrap();
        let bad = [Value::Int(2), Value::from("x")];
        let hash = hash_values(Seed::Table, &bad[..1]);
        let (probe, examined) = find(&store, hash, &bad);
        let slot = probe.unwrap_err();
        // COUNT(*) counts the row before SUM refuses it.
        let failed = store.admit_row(slot, hash, RowKind::Raw, &bad[..]);
        assert!(matches!(failed, Err(ModelError::TypeMismatch { .. })), "{failed:?}");
        assert_eq!((store.len(), segments(&store)), (1, vec![1, 1, 1]));
        for column in &store.states {
            match column {
                StateColumn::Count(a) => assert_eq!(a.cell(1), &0, "the counted row is taken back"),
                StateColumn::General(a) => assert_eq!(a.rows, 1, "the misfit demoted SUM"),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(find(&store, hash, &bad), (Err(slot), examined));
        // The next admission takes the entry the failed one would have,
        // with fresh states; the group beside it is what it was.
        assert_eq!(touch(&mut store, &[Value::Int(2), Value::Null]), Ok(1));
        assert_eq!(partial_row(&store, 1), [Value::Int(2), Value::Int(1), Value::Null]);
        assert_eq!(partial_row(&store, 0), [Value::Int(1), Value::Int(1), Value::Int(4)]);
        assert_eq!(store.layout().demoted, [0, 1, 0, 0]);
    }

    #[test]
    fn zero_width_strides_are_ordinary_rows() {
        // GROUP BY nothing with no aggregates: one group, empty key,
        // empty states.
        let mut store = GroupStore::new(0, &[], 0);
        let hash = hash_values(Seed::Table, &[]);
        let slot = find(&store, hash, &[]).0.unwrap_err();
        assert_eq!(store.admit_cells(slot, hash, |_| unreachable!("no key cells")), 0);
        assert_eq!(find(&store, hash, &[]).0, Ok(0));
        assert!(partial_row(&store, 0).is_empty());
        let mut drained = Vec::new();
        store.drain_result_rows(|row| drained.push(row));
        assert_eq!(drained, [ResultRow::new(GroupKey::new(vec![]), vec![])]);
        assert!(store.is_empty());
    }

    #[test]
    fn clear_keeps_the_segments_and_drain_frees_them() {
        let mut store = GroupStore::new(1, &specs(), 0);
        let fill = |store: &mut GroupStore| {
            for g in 0..(SEG_ROWS as i64 + 5) {
                touch(store, &[Value::from(format!("g{g}")), Value::Int(g)]).unwrap();
            }
        };
        let key_caps = |store: &GroupStore| match &store.keys {
            KeyColumn::General(a) => a.segs.iter().map(Vec::capacity).collect::<Vec<_>>(),
            KeyColumn::Ints(_) => panic!("string keys in a typed column"),
        };
        fill(&mut store);
        let slots = store.slot_count();
        assert_eq!(key_caps(&store), [SEG_ROWS, SEG_ROWS]);
        store.clear();
        assert!(store.is_empty());
        let g3 = [Value::from("g3")];
        assert_eq!(find(&store, hash_values(Seed::Table, &g3), &g3).0.ok(), None);
        fill(&mut store);
        assert_eq!(store.slot_count(), slots);
        assert_eq!(key_caps(&store), [SEG_ROWS, SEG_ROWS]);

        let mut rows = Vec::new();
        let drained: Result<(), ()> = store.drain_partials(|run| {
            for i in 0..run.len() {
                let mut row = Vec::new();
                run.cells(i, &mut row);
                rows.push(row);
            }
            Ok(())
        });
        assert_eq!(drained, Ok(()));
        assert_eq!(rows.len(), SEG_ROWS + 5);
        let last = SEG_ROWS as i64;
        assert_eq!(
            rows[SEG_ROWS],
            [Value::from(format!("g{last}")), Value::Int(1), Value::Int(last)],
            "admission order"
        );
        assert!(store.is_empty());
        assert_eq!(segments(&store), [0, 0, 0]);
        // Reusable after a drain, in the layout the data had left.
        fill(&mut store);
        assert_eq!(store.len(), SEG_ROWS + 5);
        assert_eq!(store.layout().demoted, [1, 0, 0, 0]);
        // A failing `emit` ends the drain at its group; the store is empty
        // all the same.
        let mut seen = Vec::new();
        let failed = store.drain_partials(|run| {
            seen.push(run.len());
            if seen.len() == 2 { Err("second") } else { Ok(()) }
        });
        assert_eq!((failed, seen), (Err("second"), vec![SEG_ROWS, 5]));
        assert!(store.is_empty());
        assert_eq!(segments(&store), [0, 0, 0]);
    }

    /// Every function over the same rows — a stream that stays typed, and
    /// one whose row `at` carries the first cell its column cannot hold —
    /// against a row of [`AggState`]s per group, the states a general
    /// column holds: same partial rows after every row, same results.
    #[test]
    fn a_demotion_at_any_row_changes_no_state() {
        let specs: Vec<AggSpec> = AggFunc::ALL.iter().map(|&f| AggSpec::over(f, 1)).collect();
        let rows: Vec<[Value; 2]> = (0..24i64)
            .map(|i| [Value::Int(i % 5), if i % 7 == 3 { Value::Null } else { Value::Int(i * i - 40) }])
            .collect();
        for at in 0..=rows.len() {
            for misfit in [Value::Float(0.25), Value::from("s")] {
                let mut store = GroupStore::new(1, &specs, 0);
                let mut oracle: Vec<(Value, Vec<AggState>)> = Vec::new();
                for (i, row) in rows.iter().enumerate() {
                    let mut row = row.clone();
                    if i == at {
                        row[1] = misfit.clone();
                    }
                    let entry = touch(&mut store, &row);
                    let at_group = oracle.iter().position(|(key, _)| *key == row[0]);
                    let mut states = match at_group {
                        Some(g) => oracle[g].1.clone(),
                        None => specs.iter().map(|s| AggState::new(s.func)).collect(),
                    };
                    let folded = AggState::update_row(&mut states, &specs, &row);
                    assert_eq!(entry.clone().map(|_| ()), folded, "row {i}, misfit at {at}");
                    match (at_group, folded) {
                        // A refused update keeps what folded ahead of it;
                        // a refused first row keeps nothing.
                        (Some(g), _) => oracle[g].1 = states,
                        (None, Ok(())) => oracle.push((row[0].clone(), states)),
                        (None, Err(_)) => {}
                    }
                    assert_eq!(store.len(), oracle.len());
                    for (g, (key, states)) in oracle.iter().enumerate() {
                        let mut expect = vec![key.clone()];
                        states.iter().for_each(|s| s.to_partial_values(&mut expect));
                        assert_eq!(partial_row(&store, g), expect, "row {i}, misfit at {at}");
                    }
                }
                // A Float demotes SUM, AVG, MIN and MAX; a string only
                // SUM, which refuses the row before the others see it.
                // VAR and STDDEV started general; COUNT never leaves.
                let by_input = match (at < rows.len(), &misfit) {
                    (false, _) => 0,
                    (true, Value::Float(_)) => 4,
                    (true, _) => 1,
                };
                assert_eq!(store.layout().demoted, [0, by_input, 0, 2]);
                let mut results = Vec::new();
                store.drain_result_rows(|row| results.push(row));
                // Results leave in key order, whatever the admission order.
                oracle.sort_by(|a, b| a.0.cmp(&b.0));
                assert_eq!(results.len(), oracle.len());
                for (row, (key, states)) in results.iter().zip(&oracle) {
                    assert_eq!(row.key.values(), std::slice::from_ref(key));
                    let expect: Vec<Value> = states.iter().map(AggState::finalize).collect();
                    assert_eq!(row.aggs, expect);
                }
            }
        }
    }

    #[test]
    fn typed_cells_read_as_the_states_they_stand_for() {
        let specs: Vec<AggSpec> = [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max]
            .iter()
            .map(|&f| AggSpec::over(f, 1))
            .collect();
        let mut store = GroupStore::new(1, &specs, 0);
        // Group 0: SUM crosses i64 and reads as a Float, exactly as the
        // general accumulator's; MIN/MAX hold the i64 extremes.
        for x in [i64::MAX, i64::MAX, i64::MIN] {
            touch(&mut store, &[Value::Int(0), Value::Int(x)]).unwrap();
        }
        touch(&mut store, &[Value::Int(0), Value::Int(i64::MAX)]).unwrap();
        // Group 1: nothing but NULLs.
        touch(&mut store, &[Value::Int(1), Value::Null]).unwrap();
        assert_eq!(store.layout().demoted, [0; 4]);
        assert_eq!(store.layout().bytes_per_group, 8 + 4 + 8 + 17 + 24 + 9 + 9);
        let sum = i64::MAX as i128 * 3 + i64::MIN as i128;
        assert_eq!(
            partial_row(&store, 0)[1..],
            [
                Value::Float(sum as f64),
                Value::Float(sum as f64),
                Value::Int(4),
                Value::Int(i64::MIN),
                Value::Int(i64::MAX)
            ]
        );
        assert_eq!(
            partial_row(&store, 1)[1..],
            [Value::Null, Value::Null, Value::Int(0), Value::Null, Value::Null]
        );
        // Partial rows fold back into typed cells; a Float sum demotes
        // its column alone.
        let ints = [Value::Int(1), Value::Int(5), Value::Int(6), Value::Int(2), Value::Int(-1), Value::Int(9)];
        store.fold(1, RowKind::Partial, &ints[..]).unwrap();
        assert_eq!(store.layout().demoted, [0; 4]);
        let overflowed = partial_row(&store, 0);
        store.fold(1, RowKind::Partial, &overflowed[..]).unwrap();
        assert_eq!(store.layout().demoted, [0, 0, 2, 0]);
        let mut results = Vec::new();
        store.drain_result_rows(|row| results.push(row.aggs));
        assert_eq!(
            results,
            [
                vec![
                    Value::Float(sum as f64),
                    Value::Float(sum as f64 / 4.0),
                    Value::Int(i64::MIN),
                    Value::Int(i64::MAX)
                ],
                vec![
                    Value::Float(5.0 + sum as f64),
                    Value::Float((6.0 + sum as f64) / 6.0),
                    Value::Int(i64::MIN),
                    Value::Int(i64::MAX)
                ],
            ]
        );
    }

    /// Fold `rows` (key cells, then one `Int` input) into `store` and
    /// drain its results: one row per group, with its `COUNT(*)` and `SUM`,
    /// in `GroupKey` order. Returns the store's layout.
    fn assert_drains_in_key_order(store: &mut GroupStore, rows: &[Vec<Value>]) -> StoreLayout {
        let k = store.key_len;
        let mut expect: std::collections::BTreeMap<GroupKey, (i64, i64)> = Default::default();
        for row in rows {
            touch(store, row).unwrap();
            let group = expect.entry(GroupKey::new(row[..k].to_vec())).or_default();
            *group = (group.0 + 1, group.1 + row[k].as_i64().unwrap());
        }
        let layout = store.layout();
        let mut drained = Vec::new();
        store.drain_result_rows(|row| drained.push(row));
        let expect: Vec<ResultRow> = expect
            .into_iter()
            .map(|(key, (n, sum))| ResultRow::new(key, vec![Value::Int(n), Value::Int(sum)]))
            .collect();
        assert_eq!(drained, expect);
        assert!(store.is_empty());
        layout
    }

    /// Results leave in `GroupKey` order whatever the key column holds: one
    /// typed `Int` column, three of them, a demoted `Str` column, cells of
    /// mixed type under `Value`'s total order, a store refilled after
    /// `clear` and after a drain, and the zero-width key.
    #[test]
    fn result_rows_drain_in_key_order() {
        let store = |k: usize| GroupStore::new(k, &[AggSpec::count_star(), AggSpec::over(AggFunc::Sum, k)], 0);
        let rows = |n: i64, key: &dyn Fn(i64) -> Vec<Value>| -> Vec<Vec<Value>> {
            (0..n).map(|i| key(i).into_iter().chain([Value::Int(i % 17 - 8)]).collect()).collect()
        };
        // More groups than a segment holds, admitted in scattered order.
        let one_int = rows(6_000, &|i| vec![Value::Int((i * 7_919) % 2_500 - 1_250)]);
        let layout = assert_drains_in_key_order(&mut store(1), &one_int);
        assert_eq!(layout.demoted, [0; 4]);
        let three_ints = rows(3_000, &|i| [(i * 37) % 11 - 5, (i * 7_919) % 13, -(i % 3)].map(Value::Int).to_vec());
        let layout = assert_drains_in_key_order(&mut store(3), &three_ints);
        assert_eq!(layout.demoted, [0; 4]);
        let strs = rows(2_000, &|i| vec![Value::from(format!("k{}", (i * 31) % 400))]);
        let layout = assert_drains_in_key_order(&mut store(1), &strs);
        assert_eq!(layout.demoted, [1, 0, 0, 0]);
        // Typed until row 40's string; NULL, negative and string cells mix.
        let mixed = rows(1_500, &|i| match i % 4 {
            _ if i < 40 => vec![Value::Int(i % 13)],
            0 => vec![Value::Null],
            1 => vec![Value::from(format!("s{}", i % 50))],
            2 => vec![Value::Int(-(i % 70))],
            _ => vec![Value::Int((i * 7_919) % 300)],
        });
        let layout = assert_drains_in_key_order(&mut store(1), &mixed);
        assert_eq!(layout.demoted, [1, 0, 0, 0]);

        // Refilled after `clear` (segments kept), then after a drain
        // (segments freed): only the refill drains, in key order.
        let mut refilled = store(1);
        for row in &one_int[..500] {
            touch(&mut refilled, row).unwrap();
        }
        refilled.clear();
        let shifted = rows(4_000, &|i| vec![Value::Int((i * 104_729) % 1_800)]);
        assert_drains_in_key_order(&mut refilled, &shifted);
        assert_drains_in_key_order(&mut refilled, &one_int);

        let scalar = rows(50, &|_| vec![]);
        assert_drains_in_key_order(&mut store(0), &scalar);
    }

    #[test]
    fn keys_sort_alike_typed_and_general() {
        let keys: Vec<[i64; 2]> = (0..200i64).map(|i| [(i * 37) % 11 - 5, (i * 7919) % 200 - 100]).collect();
        let mut store = GroupStore::new(2, &[], 0);
        for key in &keys {
            touch(&mut store, &key.map(Value::Int)).unwrap();
        }
        let (mut typed, mut scratch) = (Vec::new(), SortScratch::default());
        store.sort_entries(&mut typed, &mut scratch);
        let mut expect: Vec<u32> = (0..keys.len() as u32).collect();
        expect.sort_by_key(|&e| keys[e as usize]);
        assert_eq!(typed, expect);
        // A NULL key cell demotes the column; NULL sorts first, the rest
        // keep their order.
        let null = keys.len() as u32;
        touch(&mut store, &[Value::Null, Value::Int(0)]).unwrap();
        assert_eq!(store.layout().demoted, [1, 0, 0, 0]);
        let mut general = Vec::new();
        store.sort_entries(&mut general, &mut scratch);
        assert_eq!(general[0], null);
        assert_eq!(general[1..], expect);
        // Probes by strip cell and by value find the same entries in the
        // general column.
        for (e, key) in keys.iter().enumerate() {
            let hash = hash_values(Seed::Table, &key.map(Value::Int));
            assert_eq!(store.find(|| hash, |j| KeyCell::Int(key[j])).0, Ok(e));
        }
    }

    /// Fill `store` (one `Int` key column) with `keys`; its single-`Int`
    /// arm must order the entries as `sort_unstable` orders their
    /// `(key, entry)` pairs.
    fn assert_radix_arm_sorts(store: &mut GroupStore, keys: &[i64], scratch: &mut (Vec<u32>, SortScratch)) {
        for &key in keys {
            touch(store, &[Value::Int(key), Value::Int(1)]).unwrap();
        }
        let mut expect: Vec<(i64, u32)> =
            (0..store.len()).map(|e| (partial_row(store, e)[0].as_i64().unwrap(), e as u32)).collect();
        expect.sort_unstable();
        let (order, pairs) = scratch;
        store.sort_entries(order, pairs);
        assert!(order.iter().copied().eq(expect.iter().map(|&(_, e)| e)), "{} keys", keys.len());
    }

    #[test]
    fn radix_arm_sorts_like_sort_unstable() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(34);
        // Uniform in `0..=span`, the whole `u64` range included.
        let offset = |rng: &mut StdRng, span: u64| match span.checked_add(1) {
            Some(end) => rng.gen_range(0..end),
            None => rng.gen(),
        };
        let spans = [0, 1, 255, 256, 65_535, (1 << 32) - 1, 1 << 32, u64::MAX >> 1, u64::MAX];
        let sizes = [0, 1, 2, 3, 255, 256, 1_000, 4_097, 20_000];
        let mut scratch = (Vec::new(), SortScratch::default());
        // A fresh store per case, and one refilled after `clear` and after
        // a drain by turns, the scratch carried across every case.
        let mut refilled = GroupStore::new(1, &specs(), 0);
        for (case, (span, n)) in spans.iter().flat_map(|&s| sizes.map(|n| (s, n))).enumerate() {
            // Keys span `[low, low + span]` exactly (wrapping), negative
            // lows included; the full range starts at `i64::MIN`.
            let low = match span {
                u64::MAX => i64::MIN,
                _ => rng.gen_range(-(1i64 << 40)..1 << 40) - (span / 2) as i64,
            };
            let mut keys = vec![low, low.wrapping_add(span as i64)];
            keys.extend((0..n).map(|_| low.wrapping_add(offset(&mut rng, span) as i64)));
            keys.truncate(n);
            assert_radix_arm_sorts(&mut GroupStore::new(1, &specs(), 0), &keys, &mut scratch);
            if case % 2 == 0 {
                refilled.clear();
            } else {
                refilled.drain_result_rows(drop);
            }
            assert_radix_arm_sorts(&mut refilled, &keys, &mut scratch);
        }
        // Unsorted pairs with repeated keys, in entry order, packed and
        // wide: the sort is stable, so it orders them as `sort_unstable`
        // does.
        for span in [0u64, 3, 300, (1 << 32) - 1, 1 << 33] {
            let keys: Vec<u64> = (0..5_000).map(|_| offset(&mut rng, span)).collect();
            let mut expect: Vec<(u64, u32)> = keys.iter().copied().zip(0..).collect();
            expect.sort_unstable();
            let mut wide = Vec::new();
            let sorted = radix_sort(fill(&mut wide, keys.len(), keys.iter().copied().zip(0..)), span);
            assert_eq!(sorted, &expect[..], "span {span}");
            if span >> 32 == 0 {
                let mut packed = Vec::new();
                let pairs = keys.iter().zip(0u32..).map(|(&x, e)| x << 32 | u64::from(e));
                let sorted = radix_sort(fill(&mut packed, keys.len(), pairs), span);
                assert!(sorted.iter().map(|&p| (p >> 32, p as u32)).eq(expect.iter().copied()), "span {span}");
            }
        }
    }
}
