//! The memory-bounded aggregation hash table.
//!
//! Capacity is counted in *entries* (groups), matching Table 1's
//! `M = 10K entries`: the paper's memory requirement "is proportional to
//! the number of distinct group values seen".
//!
//! Cost charging per insert attempt: `t_r` (reading the tuple) + `t_h`
//! (hashing the key), plus `t_a` (updating the cumulative value) when the
//! tuple lands in the table. A rejected insert (`Inserted::Full`) charges
//! only `t_r + t_h` — the caller then spools the tuple (which charges its
//! own `t_w`) or forwards it (A2P).
//!
//! # Layout
//!
//! Groups live in a [`GroupStore`] (shared with the sort-based run
//! table): an open-addressed slot array over a key column and one typed
//! state column per aggregate, nothing boxed per group. The probe hashes
//! the key *cells where they lie* (one [`Seed::Table`] hash of the row's
//! leading cells) and compares stored hashes before keys, so neither the
//! dominant resident-group update nor the admission of a new group
//! allocates (`Str` key cells aside). The slot
//! array is pre-sized from a capped `max_entries` hint, so the
//! paper-default budget never rehashes; growth (uncapped deep-overflow
//! tables only) rebuilds slots from the stored hashes without touching
//! the keys.
//!
//! Partial rows drain in insertion order, finalized result rows in key
//! order — both deterministic and independent of any hash-map iteration
//! order. This table adds what the store does not
//! know about: the entry budget and live grant, the charging contract,
//! and two entry points — one row core, [`AggTable::feed_row`], and one
//! batch core, [`AggTable::feed_batch`] — generic over what a new key
//! meeting a full table means ([`FullPolicy`]: bounce the row where it
//! lies, or make room), which is all that separates this table from the
//! sort-based run table `adaptagg-sortagg` builds on it. [`Stop`] is the
//! policy of the callers that take a bounced row themselves;
//! [`AggTable::insert`] is the row core under it. The row core reads any
//! [`IndexRow`] by position — a slice of values, a page's row, a batch's
//! row — so no lane copies a row out of its strips to feed the table.
//! `insert_page` and `insert_page_batched` remain for the benchmark
//! harness, and materialize only the rows they bounce, for its callback.

use crate::stats::HashAggStats;
use adaptagg_model::hash::{hash_cells, hash_int};
use adaptagg_model::store::NO_GROUP;
use adaptagg_model::{
    record_each, AggFunc, AggQuery, CellRow, CostEvent, CostTracker, GroupStore, IndexRow, KeyCell,
    MemoryGrant, ModelError, ResultRow, RowKind, RowRun, Seed, StoreLayout, Value,
};
use adaptagg_storage::{
    BatchCharges, BatchOutcome, Page, RowCause, RowPages, ScanBatch, StorageError, StripView,
};
use std::cell::OnceCell;

/// Outcome of an insert attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// The key existed; its states were updated.
    Updated,
    /// A new entry was created (capacity permitting).
    New,
    /// The key is new but the table is at capacity; nothing was stored.
    Full,
}

/// What a new key meeting a full table means ([`AggTable::feed_batch`],
/// [`AggTable::feed_row`]): the one place the hash table and the
/// sort-based run table differ.
pub trait FullPolicy<T> {
    /// Make room for the new key by emptying `table` — a run table seals
    /// its groups as a sorted run and clears. `settle` applies the updates
    /// the batch still owes the rows it has already landed, so it comes
    /// first. `Ok(false)` (the default): no room is made, the row bounces.
    fn make_room(
        &mut self,
        _table: &mut AggTable,
        _tracker: &mut T,
        _settle: impl FnOnce(&mut AggTable),
    ) -> Result<bool, StorageError> {
        Ok(false)
    }

    /// Take row `r` of `batch`, which the table could not hold (spool it,
    /// forward it) — read off the strips where it lies — charging whatever
    /// that costs.
    /// `Ok(false)` stops the batch. The rows the batch accepted are paid
    /// for as it returns, so a policy must not read a clock here.
    fn bounce(
        &mut self,
        tracker: &mut T,
        kind: RowKind,
        batch: &ScanBatch<'_>,
        r: usize,
    ) -> Result<bool, StorageError>;
}

/// The policy that never makes room and stops a batch at the first row
/// the full table bounces, recording that row's id: the caller takes
/// `batch.row(r)` where it lies once [`AggTable::feed_batch`] has paid the
/// batch's charges (A-2P's switch tuple, optimized 2P's forwards). Under
/// [`AggTable::feed_row`] a new key meeting a full table reads `Full`.
#[derive(Debug, Default, PartialEq)]
pub struct Stop(pub Option<usize>);

impl<T> FullPolicy<T> for Stop {
    fn bounce(&mut self, _: &mut T, _: RowKind, _: &ScanBatch<'_>, r: usize) -> Result<bool, StorageError> {
        self.0 = Some(r);
        Ok(false)
    }
}

/// The `on_full` callback of [`AggTable::insert_page`] and
/// [`AggTable::insert_page_batched`], and the buffer it is shown each
/// bounced row in: the one place a table materializes a row.
struct OnFull<F>(F, Vec<Value>);

impl<F> OnFull<F> {
    /// Hand the callback `row` as values.
    fn take<T, R>(&mut self, tracker: &mut T, kind: RowKind, row: &R) -> Result<(), StorageError>
    where
        F: FnMut(&mut T, RowKind, &[Value]) -> Result<(), StorageError>,
        R: CellRow + ?Sized,
    {
        self.1.clear();
        row.cells(&mut self.1);
        (self.0)(tracker, kind, &self.1)
    }
}

impl<T, F> FullPolicy<T> for OnFull<F>
where
    F: FnMut(&mut T, RowKind, &[Value]) -> Result<(), StorageError>,
{
    fn bounce(&mut self, tracker: &mut T, kind: RowKind, batch: &ScanBatch<'_>, r: usize) -> Result<bool, StorageError> {
        self.take(tracker, kind, &batch.row(r)).map(|()| true)
    }
}

/// What an accepted insert with hash charging costs.
const ACCEPT_WITH_HASH: [CostEvent; 3] =
    [CostEvent::TupleRead, CostEvent::TupleHash, CostEvent::TupleAgg];
/// What an accepted insert without hash charging costs.
const ACCEPT_NO_HASH: [CostEvent; 2] = [CostEvent::TupleRead, CostEvent::TupleAgg];

/// A bounded hash table from group keys to aggregate states.
#[derive(Debug)]
pub struct AggTable {
    query: AggQuery,
    key_len: usize,
    /// The resident groups, in insertion order.
    store: GroupStore,
    max_entries: usize,
    /// Live, broker-revocable cap on top of `max_entries` (unlimited by
    /// default — single-query runs never consult it).
    grant: MemoryGrant,
    charge_hash: bool,
    /// Lifetime distinct-group high-water mark (excludes rejected keys).
    inserts: u64,
    updates: u64,
    /// Slots examined by insert-path probes (observability; a plain
    /// counter — never recorded as a cost event, never allocating).
    probe_slots: u64,
    /// What the drains so far found ([`AggTable::drains`]).
    drains: HashAggStats,
    /// Pooled per-page key-hash vector for the batched probe.
    batch_hashes: Vec<u64>,
    /// Pooled per-page group-index vector ([`NO_GROUP`] = row bounced) the
    /// batched probe hands to the deferred column-at-a-time update pass.
    batch_gix: Vec<u32>,
}

impl AggTable {
    /// An empty table for `query` holding at most `max_entries` groups.
    /// Panics unless the query is in projected form, group columns first
    /// (see [`AggQuery::remapped_to_projection`]): a row's key is its
    /// leading cells.
    pub fn new(query: AggQuery, max_entries: usize) -> Self {
        Self::new_with_hint(query, max_entries, max_entries)
    }

    /// [`AggTable::new`] with an explicit pre-size hint, for callers that
    /// build many tables over the same budget: a small hint keeps each
    /// table's slot array tiny and lets it grow on demand.
    pub fn new_with_hint(query: AggQuery, max_entries: usize, hint: usize) -> Self {
        let key_len = query.group_by.len();
        assert!(
            query.group_by.iter().enumerate().all(|(i, &c)| c == i),
            "a table's query must be in projected form (group columns first): {:?}",
            query.group_by
        );
        AggTable {
            store: GroupStore::new(key_len, &query.aggs, hint.min(max_entries)),
            query,
            key_len,
            max_entries,
            grant: MemoryGrant::unlimited(),
            charge_hash: true,
            inserts: 0,
            updates: 0,
            probe_slots: 0,
            drains: HashAggStats::default(),
            batch_hashes: Vec::new(),
            batch_gix: Vec::new(),
        }
    }

    /// Control whether inserts charge `t_h`. Local (first-touch) phases
    /// charge it (`|R_i|·(t_r+t_h+t_a)`, §2.1); merge phases receiving
    /// already-partitioned rows do not (`|G_i|·(t_r+t_a)`, §2.2–2.3 — the
    /// hash was charged at the partitioning side).
    pub fn with_charge_hash(mut self, charge_hash: bool) -> Self {
        self.charge_hash = charge_hash;
        self
    }

    /// Attach a live [`MemoryGrant`]: the effective entry budget becomes
    /// `min(max_entries, grant)` re-read at every new-group admission, so
    /// a broker shrinking the grant mid-scan makes the table report full
    /// (and the operator spill or switch) without evicting anything
    /// already resident.
    pub fn with_grant(mut self, grant: MemoryGrant) -> Self {
        self.grant = grant;
        self
    }

    /// In-place form of [`AggTable::with_grant`] for tables embedded in
    /// larger state machines.
    pub fn set_grant(&mut self, grant: MemoryGrant) {
        self.grant = grant;
    }

    /// Number of groups currently held.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table holds no groups.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Whether the table is at its effective entry budget.
    pub fn is_full(&self) -> bool {
        self.store.len() >= self.effective_max()
    }

    /// The budget after clamping by the live grant.
    #[inline]
    fn effective_max(&self) -> usize {
        self.grant.cap(self.max_entries)
    }

    /// Raw-tuple updates + new entries accepted so far.
    pub fn accepted(&self) -> u64 {
        self.inserts + self.updates
    }

    /// Total slots examined by insert-path probes (≥ one per attempt;
    /// the excess over attempts measures collision chains).
    pub fn probe_slots(&self) -> u64 {
        self.probe_slots
    }

    /// The resident groups, in insertion order (a [`FullPolicy`] reads
    /// them out before it clears the table).
    pub fn store(&self) -> &GroupStore {
        &self.store
    }

    /// Forget every group, keeping the buffers, the budget and the layout
    /// the data so far left ([`GroupStore::clear`]).
    pub fn clear(&mut self) {
        self.store.clear();
    }

    /// The layout the data so far left the table's group store in.
    pub fn layout(&self) -> StoreLayout {
        self.store.layout()
    }

    /// What one accepted insert costs (what the page and batch entry
    /// points record per admitted tuple).
    fn accept_template(&self) -> &'static [CostEvent] {
        if self.charge_hash {
            &ACCEPT_WITH_HASH
        } else {
            &ACCEPT_NO_HASH
        }
    }

    /// Charge the fixed per-attempt costs (`t_r` + optional `t_h`).
    fn charge_attempt<T: CostTracker>(&self, tracker: &mut T) {
        tracker.record(CostEvent::TupleRead, 1);
        if self.charge_hash {
            tracker.record(CostEvent::TupleHash, 1);
        }
    }

    /// Insert a raw (projected) tuple — group columns first, aggregate
    /// inputs at the specs' positions — or a partial row (key columns, then
    /// [`AggQuery::partial_row_arity`] columns in all), read where it lies:
    /// [`AggTable::feed_row`] under [`Stop`], so a new key that meets a full
    /// table reads `Full` and the row is the caller's.
    pub fn insert<R, T>(&mut self, kind: RowKind, row: &R, tracker: &mut T) -> Result<Inserted, StorageError>
    where
        R: IndexRow + ?Sized,
        T: CostTracker,
    {
        self.feed_row(kind, row, tracker, &mut Stop::default())
    }

    /// The row core: one row, read where it lies, under a [`FullPolicy`]
    /// that may make room. A new key that meets a full table is admitted
    /// after all if the policy emptied the table for it (charging what that
    /// costs between the row's attempt and its `t_a`), and reported `Full`
    /// — the row is the caller's to place — if it did not.
    pub fn feed_row<R, T, P>(
        &mut self,
        kind: RowKind,
        row: &R,
        tracker: &mut T,
        policy: &mut P,
    ) -> Result<Inserted, StorageError>
    where
        R: IndexRow + ?Sized,
        T: CostTracker,
        P: FullPolicy<T>,
    {
        self.charge_attempt(tracker);
        let mut outcome = self.insert_quiet(kind, row, None, false)?;
        if outcome == Inserted::Full && policy.make_room(self, tracker, |_| {})? {
            outcome = self.insert_quiet(kind, row, None, true)?;
        }
        if outcome != Inserted::Full {
            tracker.record(CostEvent::TupleAgg, 1);
        }
        Ok(outcome)
    }

    /// Insert every tuple of a page — ragged or not — through the row core,
    /// each read where it lies. A rejected tuple goes to `on_full` as
    /// values, which spools it, charging its own costs exactly as the
    /// per-tuple caller would. Returns the number of rejected tuples.
    pub fn insert_page<T, F>(
        &mut self,
        kind: RowKind,
        page: &Page,
        tracker: &mut T,
        on_full: F,
    ) -> Result<u64, StorageError>
    where
        T: CostTracker,
        F: FnMut(&mut T, RowKind, &[Value]) -> Result<(), StorageError>,
    {
        let mut on_full = OnFull(on_full, Vec::new());
        let mut rejected = 0;
        for row in page.rows() {
            if self.insert(kind, &row, tracker)? == Inserted::Full {
                rejected += 1;
                on_full.take(tracker, kind, &row)?;
            }
        }
        Ok(rejected)
    }

    /// [`AggTable::insert_page`] through the batched lane: a whole page is
    /// the trivial [`ScanBatch`] (every column, every row, nothing owed to
    /// a scan), and each row the table bounces is materialized for
    /// `on_full`, whose charges must then not read a clock. Ragged and empty
    /// pages have no strips to ride and take the row core. Returns the
    /// number of rejected tuples.
    pub fn insert_page_batched<T, F>(
        &mut self,
        kind: RowKind,
        page: &Page,
        tracker: &mut T,
        on_full: F,
    ) -> Result<u64, StorageError>
    where
        T: CostTracker,
        F: FnMut(&mut T, RowKind, &[Value]) -> Result<(), StorageError>,
    {
        match ScanBatch::whole(page) {
            Some(batch) => self
                .feed_batch(kind, &batch, tracker, &mut OnFull(on_full, Vec::new()))
                .map(|out| out.rejected),
            None => self.insert_page(kind, page, tracker, on_full),
        }
    }

    /// The batch core: one kernel pass hashes the batch's key strips
    /// ([`ScanBatch::hash_keys`]), a row-order probe finds or admits each
    /// passing row's group off the precomputed hashes, and — when every
    /// aggregate input is an `Int` strip, or every partial-state cell of a
    /// partial batch is — state updates are deferred behind a group-index
    /// vector and replayed column-at-a-time. Batches the strips cannot
    /// serve take the row arm instead, inserting each passing row through
    /// the row core where it lies, still skipping the per-row hash; for raw
    /// rows the outcome's `row_cause` says why. A batch keyed by one `Int`
    /// strip that meets a store on its dense map skips the hashing pass:
    /// the map reads no hash, so only the keys it admits are hashed, one at
    /// a time ([`hash_int`]).
    ///
    /// Charges are the row loop's, recorded as counts: each accepted row
    /// owes `batch.pass_lead()` and the accept template, each filtered-out
    /// row `batch.fail_charge()`, all paid as the batch returns (so the
    /// policy must not read a clock); a rejected row records the lead and
    /// its attempt (`t_r`, `t_h`) and goes to the policy's `bounce`, which
    /// spools it (charging its own costs) or keeps it for the caller and
    /// returns whether to carry on. `Ok(false)` stops the batch right
    /// there: rows past `consumed` are untouched and uncharged, and the
    /// caller owns them. Under a policy that makes room the charges are
    /// the row loop's too: the row that found the table full records the
    /// lead and its attempt, the policy charges what making room costs
    /// (with every earlier row's update applied first), and the row's
    /// `t_a` follows its admission.
    pub fn feed_batch<T, P>(
        &mut self,
        kind: RowKind,
        batch: &ScanBatch<'_>,
        tracker: &mut T,
        policy: &mut P,
    ) -> Result<BatchOutcome, StorageError>
    where
        T: CostTracker,
        P: FullPolicy<T>,
    {
        let k = self.key_len;
        // A batch narrower than the key must surface its error: not hashed.
        let hashed = batch.arity() >= k;
        let row_cause = match kind {
            RowKind::Partial => None,
            RowKind::Raw if !hashed => Some(RowCause::Ragged),
            RowKind::Raw => self.input_strips_cause(batch),
        };

        let on_strips = match kind {
            RowKind::Raw => row_cause.is_none(),
            RowKind::Partial => hashed && self.partial_strips(batch),
        };
        let int_keys = if on_strips { int_key(batch, k) } else { None };

        // One vectorized Seed::Table hash per row of its key prefix, unless
        // nothing would read it.
        let mut hashes = std::mem::take(&mut self.batch_hashes);
        hashes.clear();
        let dense = int_keys.is_some() && self.store.is_dense();
        if hashed && batch.passing() > 0 && !dense {
            batch.hash_keys(Seed::Table, k, &mut hashes);
        }

        let mut out = BatchOutcome {
            row_cause,
            ..BatchOutcome::default()
        };
        let mut gix = std::mem::take(&mut self.batch_gix);
        gix.clear();
        let ended = if on_strips {
            // No tuple materialization: the key and input strips are
            // resolved here, once; the probe admits new groups with empty
            // states and the deferred pass below applies every row's
            // update (or merge) alike.
            gix.reserve(batch.passing());
            let ended = match int_keys {
                Some(keys) => self.feed(kind, batch, tracker, policy, &mut out, &mut gix, &mut IntKey { hashes: &hashes, keys }),
                None => self.feed(kind, batch, tracker, policy, &mut out, &mut gix, &mut KeyCells { hashes: &hashes, batch }),
            };
            // Exactly the rows probed above (including the prefix before
            // an early stop).
            self.settle(kind, batch, &gix);
            ended
        } else {
            self.feed(kind, batch, tracker, policy, &mut out, &mut gix, &mut Rows { hashes: &hashes, batch, kind })
        };
        self.batch_gix = gix;
        self.batch_hashes = hashes;
        ended.map(|_| out)
    }

    /// The deferred pass of the strips arm: one sweep per aggregate column
    /// over the rows whose groups `gix` holds — each raw row's input, or
    /// each partial row's state cells. Order per (spec, entry) is row
    /// order — the row loop's.
    fn settle(&mut self, kind: RowKind, batch: &ScanBatch<'_>, gix: &[u32]) {
        let ints = |c| match batch.column(c) {
            StripView::Ints(xs) => xs,
            StripView::Values(_) => unreachable!("the strips arm rides Int strips only"),
        };
        let mut c = self.key_len;
        for (j, spec) in self.query.aggs.iter().enumerate() {
            match (kind, spec.input) {
                (RowKind::Raw, None) => self.store.update_star(j, gix),
                (RowKind::Raw, Some(c)) => self.store.update_ints(j, gix, ints(c), batch.selection()),
                (RowKind::Partial, _) => {
                    let mut cells: [&[i64]; 2] = [&[]; 2];
                    let n = spec.func.partial_arity();
                    cells[..n].iter_mut().enumerate().for_each(|(i, cell)| *cell = ints(c + i));
                    self.store.merge_ints(j, gix, &cells[..n], batch.selection());
                    c += n;
                }
            }
        }
    }

    /// Whether a partial batch can take the strips arm: every state column
    /// typed, and every partial-state cell an `Int` that column folds
    /// (counts non-negative) — what [`GroupStore::fold`] of each row would
    /// take without a demotion or an error. Anything else takes the row
    /// arm, which raises the row loop's typed errors at the row loop's row.
    fn partial_strips(&self, batch: &ScanBatch<'_>) -> bool {
        if batch.arity() != self.query.partial_row_arity() || !self.store.typed_states() {
            return false;
        }
        let mut c = self.key_len;
        self.query.aggs.iter().all(|spec| {
            let cells = c..c + spec.func.partial_arity();
            c = cells.end;
            // A count — COUNT's one cell, AVG's second — cannot be negative.
            let count = match spec.func {
                AggFunc::Count => Some(cells.start),
                AggFunc::Avg => Some(cells.start + 1),
                _ => None,
            };
            cells.into_iter().all(|c| match batch.column(c) {
                StripView::Ints(xs) => Some(c) != count || xs.iter().all(|&n| n >= 0),
                StripView::Values(_) => false,
            })
        })
    }

    /// The row-order walk of [`AggTable::feed_batch`]: `land` lands
    /// passing row `r` (the row arm inserts it, a strips arm —
    /// [`Land::ON_STRIPS`] — pushes the row's group onto `gix`), this
    /// charges it as the docs there say and takes a row that found the
    /// table full to the policy: admitted after all (landed again,
    /// `forced`) if it made room, else bounced where it lies, as row `r` of
    /// the batch. `Ok(true)` = every row consumed; `Ok(false)` = the policy
    /// said stop.
    #[allow(clippy::too_many_arguments)]
    fn feed<T, P, L>(
        &mut self,
        kind: RowKind,
        batch: &ScanBatch<'_>,
        tracker: &mut T,
        policy: &mut P,
        out: &mut BatchOutcome,
        gix: &mut Vec<u32>,
        land: &mut L,
    ) -> Result<bool, StorageError>
    where
        T: CostTracker,
        P: FullPolicy<T>,
        L: Land,
    {
        let on_strips = L::ON_STRIPS;
        let accept = self.accept_template();
        let mut charges = BatchCharges::default();
        let mut ended = Ok(true);
        for i in 0..batch.passing() {
            let r = batch.passing_row(i);
            record_each(tracker, batch.fail_charge(), (r - out.consumed) as u64);
            out.consumed = r + 1;
            out.passed += 1;
            match land.land(self, r, gix, false) {
                Ok(Inserted::Updated) | Ok(Inserted::New) => charges.accepted(),
                Ok(Inserted::Full) => {
                    record_each(tracker, batch.pass_lead(), 1);
                    self.charge_attempt(tracker);
                    // The rows landed so far owe their groups an update
                    // the emptied table could no longer take.
                    let settle = |table: &mut Self| {
                        if on_strips {
                            table.settle(kind, batch, gix);
                            gix.fill(NO_GROUP);
                        }
                    };
                    ended = match policy.make_room(self, tracker, settle) {
                        Ok(true) => land.land(self, r, gix, true)
                            .map(|_| {
                                tracker.record(CostEvent::TupleAgg, 1);
                                true
                            })
                            .map_err(StorageError::from),
                        Ok(false) => {
                            out.rejected += 1;
                            if on_strips {
                                gix.push(NO_GROUP);
                            }
                            policy.bounce(tracker, kind, batch, r)
                        }
                        Err(e) => Err(e),
                    };
                    if !matches!(ended, Ok(true)) {
                        break;
                    }
                }
                Err(e) => {
                    record_each(tracker, batch.pass_lead(), 1);
                    self.charge_attempt(tracker);
                    ended = Err(StorageError::from(e));
                    break;
                }
            }
        }
        if let Ok(true) = ended {
            record_each(tracker, batch.fail_charge(), (batch.rows() - out.consumed) as u64);
            out.consumed = batch.rows();
        }
        // The caller reads the clock next (a send, a failure's time).
        charges.flush(tracker, batch, accept);
        ended
    }

    /// Why a raw batch's aggregate inputs keep it off the deferred-update
    /// arm (`None` = every input is an `Int` strip or `COUNT(*)`).
    fn input_strips_cause(&self, batch: &ScanBatch<'_>) -> Option<RowCause> {
        let mut cause = None;
        for spec in &self.query.aggs {
            match spec.input {
                None if spec.func == AggFunc::Count => {}
                None => cause = Some(RowCause::ValueInput),
                // The row arm surfaces the ColumnOutOfRange.
                Some(c) if c >= batch.arity() => return Some(RowCause::Ragged),
                Some(c) => {
                    if let StripView::Values(vs) = batch.column(c) {
                        if vs.iter().any(|v| matches!(v, Value::Float(_))) {
                            return Some(RowCause::FloatGuard);
                        }
                        cause = Some(RowCause::ValueInput);
                    }
                }
            }
        }
        cause
    }

    /// [`AggTable::insert_quiet`] for a raw row whose key is read cell by
    /// cell off the batch's strips — no row materialization, no state
    /// update (the caller defers it): the entry the row landed in joins
    /// `gix`.
    #[inline(always)]
    fn probe_cells<'a>(
        &mut self,
        hash: impl Fn() -> u64,
        cell: impl Fn(usize) -> KeyCell<'a>,
        gix: &mut Vec<u32>,
        forced: bool,
    ) -> Inserted {
        let (grant, max_entries) = (&self.grant, self.max_entries);
        let room = |len| forced || len < grant.cap(max_entries);
        let (found, examined) = self.store.lookup(&hash, &cell, room);
        self.probe_slots += examined;
        let (outcome, entry) = match found {
            Ok(entry) => {
                self.updates += 1;
                (Inserted::Updated, entry)
            }
            Err(_) if !forced && self.is_full() => return Inserted::Full,
            Err(slot) => {
                let entry = self.store.admit_cells(slot, hash(), cell);
                self.inserts += 1;
                (Inserted::New, entry)
            }
        };
        gix.push(entry as u32);
        outcome
    }

    /// The probe-and-mutate core, with no cost recording: callers charge
    /// per the charging contract (see module docs). The key is the row's
    /// leading cells and every cell is read where it lies. `prehashed` must
    /// be `hash_cells(Seed::Table, row, key_len)` when provided. A `forced`
    /// row is admitted whatever the budget says: its consumer has just
    /// emptied the table for it, and a lone group always fits.
    fn insert_quiet<R: IndexRow + ?Sized>(
        &mut self,
        kind: RowKind,
        row: &R,
        prehashed: Option<u64>,
        forced: bool,
    ) -> Result<Inserted, ModelError> {
        let (k, arity) = (self.key_len, row.arity());
        if kind == RowKind::Partial && arity != self.query.partial_row_arity() {
            return Err(ModelError::PartialArityMismatch {
                expected: self.query.partial_row_arity(),
                found: arity,
            });
        }
        if arity < k {
            return Err(ModelError::ColumnOutOfRange { column: arity, arity });
        }
        debug_assert!(
            prehashed.is_none_or(|hash| hash == hash_cells(Seed::Table, row, k)),
            "stale precomputed hash"
        );
        // Hashed once, and only if the store's index reads it.
        let memo = OnceCell::new();
        let hash = || *memo.get_or_init(|| prehashed.unwrap_or_else(|| hash_cells(Seed::Table, row, k)));

        let (grant, max_entries) = (&self.grant, self.max_entries);
        let room = |len| forced || len < grant.cap(max_entries);
        let (found, examined) = self.store.lookup(hash, |j| row.cell(j), room);
        self.probe_slots += examined;
        match found {
            Ok(entry) => {
                self.store.fold(entry, kind, row)?;
                self.updates += 1;
                Ok(Inserted::Updated)
            }
            Err(_) if !forced && self.is_full() => Ok(Inserted::Full),
            Err(slot) => {
                // A first row that does not fold leaves the store as it was.
                self.store.admit_row(slot, hash(), kind, row)?;
                self.inserts += 1;
                Ok(Inserted::New)
            }
        }
    }

    /// Drain the table as **partial rows** (key columns ++ partial-state
    /// columns) onto `out` in insertion order, charging `t_w` per row (one
    /// record, whether or not the drain completes): a store segment's worth
    /// per run ([`GroupStore::drain_partials`]), each appended in one call
    /// ([`RowPages::extend`]). Used by local phases to ship their results
    /// and by A2P's overflow flush.
    pub fn drain_partials<T: CostTracker>(
        &mut self,
        tracker: &mut T,
        out: &mut RowPages,
    ) -> Result<(), StorageError> {
        let rows = self.store.len() as u64;
        tracker.record(CostEvent::TupleWrite, rows);
        self.count_drain();
        // Every run of one store is on one lane; all the rows count, as the
        // `t_w` does, whether or not the drain completes.
        let mut columns = false;
        let drained = self.store.drain_partials(|run| {
            columns = run.int_arity().is_some();
            out.extend(run).map(drop)
        });
        self.drains.partial_rows.count(columns, rows);
        drained
    }

    /// What the table's drains found, one table's worth each: the slots
    /// its probes examined, its most resident groups, the layouts its
    /// store was drained in and the partial rows it drained, by lane.
    pub fn drains(&self) -> &HashAggStats {
        &self.drains
    }

    /// Count a drain about to empty the table into [`AggTable::drains`].
    fn count_drain(&mut self) {
        let layout = self.store.layout();
        let drains = &mut self.drains;
        drains.probe_slots = self.probe_slots;
        drains.peak_resident = drains.peak_resident.max(self.store.len() as u64);
        drains.add_layout(&layout);
        // Demotions and index moves are counted over the store's life.
        (drains.store.demoted, drains.store.index_conversions) = (layout.demoted, layout.index_conversions);
    }

    /// Drain the table as **finalized result rows** in ascending key order
    /// ([`GroupStore::drain_result_rows`]), charging `t_w` per row (the
    /// sort itself is free, as the driver's is). Used by merge phases and
    /// single-phase aggregation.
    pub fn drain_result_rows<T: CostTracker>(&mut self, tracker: &mut T) -> Vec<ResultRow> {
        self.count_drain();
        let mut out = Vec::with_capacity(self.store.len());
        self.store.drain_result_rows(|row| out.push(row));
        tracker.record(CostEvent::TupleWrite, out.len() as u64);
        out
    }
}

/// How [`AggTable::feed`] lands passing row `r` of its batch (`forced`: the
/// policy has just made room for it). A trait of small structs rather than
/// closures so that `#[inline(always)]` — here, on `probe_cells` and on the
/// store's `find` / `probe` — keeps each strips arm's probe inside the
/// row walk: left to the inliner, the hash aggregator's instance of the
/// walk called it out of line once per row, and the local phase of a 2P
/// query over 500k tuples read ~1 ms (10 %) slower for it.
trait Land {
    /// Whether the arm defers the row's update behind `gix`.
    const ON_STRIPS: bool;

    fn land(&mut self, table: &mut AggTable, r: usize, gix: &mut Vec<u32>, forced: bool) -> Result<Inserted, ModelError>;
}

/// The strips arm under one `Int` key column: the key is the strip's cell.
/// `hashes` is empty when the batch met a dense store: a row then hashes
/// its key only if the store reads it — on admission, or once the store
/// has left its dense map mid-batch.
struct IntKey<'a> {
    hashes: &'a [u64],
    keys: &'a [i64],
}

impl Land for IntKey<'_> {
    const ON_STRIPS: bool = true;

    #[inline(always)]
    fn land(&mut self, table: &mut AggTable, r: usize, gix: &mut Vec<u32>, forced: bool) -> Result<Inserted, ModelError> {
        let key = self.keys[r];
        let hash = || self.hashes.get(r).copied().unwrap_or_else(|| hash_int(Seed::Table, key));
        Ok(table.probe_cells(hash, |_| KeyCell::Int(key), gix, forced))
    }
}

/// The strips arm under any other key: probed cell by cell.
struct KeyCells<'a, 'b> {
    hashes: &'a [u64],
    batch: &'a ScanBatch<'b>,
}

impl Land for KeyCells<'_, '_> {
    const ON_STRIPS: bool = true;

    #[inline(always)]
    fn land(&mut self, table: &mut AggTable, r: usize, gix: &mut Vec<u32>, forced: bool) -> Result<Inserted, ModelError> {
        let cell = |j| match self.batch.column(j) {
            StripView::Ints(xs) => KeyCell::Int(xs[r]),
            StripView::Values(vs) => KeyCell::Value(&vs[r]),
        };
        Ok(table.probe_cells(|| self.hashes[r], cell, gix, forced))
    }
}

/// The row arm: row `r` inserted where it lies, off its precomputed hash.
struct Rows<'a, 'b> {
    hashes: &'a [u64],
    batch: &'a ScanBatch<'b>,
    kind: RowKind,
}

impl Land for Rows<'_, '_> {
    const ON_STRIPS: bool = false;

    fn land(&mut self, table: &mut AggTable, r: usize, _: &mut Vec<u32>, forced: bool) -> Result<Inserted, ModelError> {
        table.insert_quiet(self.kind, &self.batch.row(r), self.hashes.get(r).copied(), forced)
    }
}

/// The key strip of a batch grouped by one `Int` column; every other key
/// shape (several columns, a `Str`/NULL strip) probes cell by cell.
fn int_key<'a>(batch: &ScanBatch<'a>, k: usize) -> Option<&'a [i64]> {
    if k != 1 {
        return None;
    }
    match batch.column(0) {
        StripView::Ints(xs) => Some(xs),
        StripView::Values(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::hash::hash_values;
    use adaptagg_model::{AggFunc, AggSpec, CountingTracker, NullTracker};

    fn query() -> AggQuery {
        // Projected form: col0 = group, col1 = value.
        AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)])
    }

    fn raw(g: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(g), Value::Int(v)]
    }

    /// Whether `key`'s group is resident: a read-only probe of the store.
    fn resident(t: &AggTable, key: &[Value]) -> bool {
        t.store().find(|| hash_values(Seed::Table, key), |j| key.cell(j)).0.is_ok()
    }

    /// The table's partial drain, read back as rows.
    fn drain_partials<T: CostTracker>(t: &mut AggTable, tracker: &mut T) -> Vec<Vec<Value>> {
        let mut pages = RowPages::new(256);
        t.drain_partials(tracker, &mut pages).unwrap();
        pages.to_rows()
    }

    #[test]
    fn builds_groups_and_updates() {
        let mut t = AggTable::new(query(), 10);
        let mut tr = NullTracker;
        assert_eq!(t.insert(RowKind::Raw, &raw(1, 10), &mut tr).unwrap(), Inserted::New);
        assert_eq!(t.insert(RowKind::Raw, &raw(1, 5), &mut tr).unwrap(), Inserted::Updated);
        assert_eq!(t.insert(RowKind::Raw, &raw(2, 1), &mut tr).unwrap(), Inserted::New);
        assert_eq!(t.len(), 2);

        let mut rows = t.drain_result_rows(&mut tr);
        adaptagg_model::query::sort_rows(&mut rows);
        assert_eq!(rows[0].key.values(), &[Value::Int(1)]);
        assert_eq!(rows[0].aggs, vec![Value::Int(15)]);
        assert_eq!(rows[1].aggs, vec![Value::Int(1)]);
        assert!(t.is_empty(), "drain empties the table");
    }

    #[test]
    fn capacity_rejects_new_groups_but_updates_resident_ones() {
        let mut t = AggTable::new(query(), 2);
        let mut tr = NullTracker;
        t.insert(RowKind::Raw, &raw(1, 1), &mut tr).unwrap();
        t.insert(RowKind::Raw, &raw(2, 1), &mut tr).unwrap();
        assert!(t.is_full());
        // New group: rejected, not stored.
        assert_eq!(t.insert(RowKind::Raw, &raw(3, 1), &mut tr).unwrap(), Inserted::Full);
        assert_eq!(t.len(), 2);
        // Resident group: still updates in place.
        assert_eq!(t.insert(RowKind::Raw, &raw(1, 9), &mut tr).unwrap(), Inserted::Updated);
    }

    #[test]
    fn partial_rows_merge_with_raw_rows() {
        // §3.2's requirement: raw and partial interleaved in one table.
        let mut t = AggTable::new(query(), 10);
        let mut tr = NullTracker;
        t.insert(RowKind::Raw, &raw(1, 10), &mut tr).unwrap();
        // Partial row for group 1 carrying SUM partial = 32.
        t.insert(RowKind::Partial, &[Value::Int(1), Value::Int(32)][..], &mut tr).unwrap();
        // Partial row for a brand-new group 2.
        t.insert(RowKind::Partial, &[Value::Int(2), Value::Int(7)][..], &mut tr).unwrap();
        t.insert(RowKind::Raw, &raw(2, 3), &mut tr).unwrap();

        let mut rows = t.drain_result_rows(&mut tr);
        adaptagg_model::query::sort_rows(&mut rows);
        assert_eq!(rows[0].aggs, vec![Value::Int(42)]);
        assert_eq!(rows[1].aggs, vec![Value::Int(10)]);
    }

    #[test]
    fn partial_arity_mismatch_is_error() {
        let mut t = AggTable::new(query(), 10);
        let mut tr = NullTracker;
        assert!(t
            .insert(RowKind::Partial, &[Value::Int(1)][..], &mut tr)
            .is_err());
    }

    #[test]
    fn cost_charges_match_paper_formula() {
        // Local aggregation: |R| * (t_r + t_h + t_a); result gen: |G| * t_w.
        let mut t = AggTable::new(query(), 100);
        let mut tr = CountingTracker::new();
        for i in 0..50 {
            t.insert(RowKind::Raw, &raw(i % 5, i), &mut tr).unwrap();
        }
        assert_eq!(tr.count(CostEvent::TupleRead), 50);
        assert_eq!(tr.count(CostEvent::TupleHash), 50);
        assert_eq!(tr.count(CostEvent::TupleAgg), 50);
        assert_eq!(tr.count(CostEvent::TupleWrite), 0);
        let rows = t.drain_result_rows(&mut tr);
        assert_eq!(rows.len(), 5);
        assert_eq!(tr.count(CostEvent::TupleWrite), 5);
    }

    #[test]
    fn charge_hash_false_skips_t_h() {
        // Merge phases receive pre-partitioned rows: §2.2 charges them
        // t_r + t_a only.
        let mut t = AggTable::new(query(), 100).with_charge_hash(false);
        let mut tr = CountingTracker::new();
        t.insert(RowKind::Raw, &raw(1, 1), &mut tr).unwrap();
        t.insert(RowKind::Partial, &[Value::Int(2), Value::Int(5)][..], &mut tr).unwrap();
        assert_eq!(tr.count(CostEvent::TupleHash), 0);
        assert_eq!(tr.count(CostEvent::TupleRead), 2);
        assert_eq!(tr.count(CostEvent::TupleAgg), 2);
    }

    #[test]
    fn rejected_insert_charges_no_agg() {
        let mut t = AggTable::new(query(), 1);
        let mut tr = CountingTracker::new();
        t.insert(RowKind::Raw, &raw(1, 1), &mut tr).unwrap();
        let agg_before = tr.count(CostEvent::TupleAgg);
        t.insert(RowKind::Raw, &raw(2, 1), &mut tr).unwrap(); // Full
        assert_eq!(tr.count(CostEvent::TupleAgg), agg_before);
        assert_eq!(tr.count(CostEvent::TupleHash), 2);
    }

    #[test]
    fn duplicate_elimination_table() {
        let q = AggQuery::distinct(vec![0]);
        let mut t = AggTable::new(q, 10);
        let mut tr = NullTracker;
        for g in [1, 2, 1, 3, 2, 1] {
            t.insert(RowKind::Raw, &[Value::Int(g)][..], &mut tr).unwrap();
        }
        assert_eq!(t.len(), 3);
        let rows = t.drain_result_rows(&mut tr);
        assert!(rows.iter().all(|r| r.aggs.is_empty()));
    }

    #[test]
    fn drained_partials_round_trip_through_second_table() {
        let mut t1 = AggTable::new(query(), 10);
        let mut tr = NullTracker;
        t1.insert(RowKind::Raw, &raw(1, 10), &mut tr).unwrap();
        t1.insert(RowKind::Raw, &raw(1, 20), &mut tr).unwrap();
        t1.insert(RowKind::Raw, &raw(2, 5), &mut tr).unwrap();

        let partials = drain_partials(&mut t1, &mut tr);
        assert_eq!(partials.len(), 2);
        let mut t2 = AggTable::new(query(), 10);
        for p in &partials {
            t2.insert(RowKind::Partial, p, &mut tr).unwrap();
        }
        let mut rows = t2.drain_result_rows(&mut tr);
        adaptagg_model::query::sort_rows(&mut rows);
        assert_eq!(rows[0].aggs, vec![Value::Int(30)]);
        assert_eq!(rows[1].aggs, vec![Value::Int(5)]);
    }

    #[test]
    fn store_find_sees_resident_groups() {
        let mut t = AggTable::new(query(), 10);
        let mut tr = NullTracker;
        t.insert(RowKind::Raw, &raw(7, 1), &mut tr).unwrap();
        assert!(resident(&t, &[Value::Int(7)]));
        assert!(!resident(&t, &[Value::Int(8)]));
    }

    #[test]
    fn accepted_counts_updates_and_inserts() {
        let mut t = AggTable::new(query(), 1);
        let mut tr = NullTracker;
        t.insert(RowKind::Raw, &raw(1, 1), &mut tr).unwrap();
        t.insert(RowKind::Raw, &raw(1, 2), &mut tr).unwrap();
        t.insert(RowKind::Raw, &raw(2, 3), &mut tr).unwrap(); // Full → not accepted
        assert_eq!(t.accepted(), 2);
    }

    /// Run the same pages through `insert_page` and `insert_page_batched`
    /// on twin tables and assert identical costs, counters, spooled rows
    /// and drained results.
    fn assert_batched_matches_row(
        query: AggQuery,
        max_entries: usize,
        kind: RowKind,
        pages: &[Page],
    ) {
        let mut a = AggTable::new(query.clone(), max_entries);
        let mut b = AggTable::new(query, max_entries);
        let mut ta = CountingTracker::new();
        let mut tb = CountingTracker::new();
        let mut spill_a: Vec<Vec<Value>> = Vec::new();
        let mut spill_b: Vec<Vec<Value>> = Vec::new();
        for page in pages {
            let ra = a
                .insert_page(kind, page, &mut ta, |tr, _, row| {
                    tr.record(CostEvent::TupleWrite, 1);
                    spill_a.push(row.to_vec());
                    Ok(())
                })
                .unwrap();
            let rb = b
                .insert_page_batched(kind, page, &mut tb, |tr, _, row| {
                    tr.record(CostEvent::TupleWrite, 1);
                    spill_b.push(row.to_vec());
                    Ok(())
                })
                .unwrap();
            assert_eq!(ra, rb, "rejected counts diverge");
        }
        assert_eq!(ta, tb, "cost charges diverge");
        assert_eq!(spill_a, spill_b, "spooled rows diverge");
        assert_eq!(a.probe_slots(), b.probe_slots(), "probe counters diverge");
        assert_eq!(a.accepted(), b.accepted());
        let ra = a.drain_result_rows(&mut ta);
        let rb = b.drain_result_rows(&mut tb);
        assert_eq!(ra, rb, "drained rows diverge (order included)");
        assert!(ra.is_sorted_by(|x, y| x.key < y.key), "result rows leave in key order");
    }

    fn page_of(rows: &[Vec<Value>]) -> Page {
        let mut p = Page::new(1 << 16);
        for row in rows {
            assert!(p.try_push(row).unwrap());
        }
        p
    }

    #[test]
    fn batched_fast_path_matches_row_path() {
        // All-Int page: key strip and input strip both fixed-width.
        let rows: Vec<Vec<Value>> = (0..200).map(|i| raw(i % 23, i)).collect();
        assert_batched_matches_row(query(), 100, RowKind::Raw, &[page_of(&rows)]);
    }

    #[test]
    fn batched_overflow_matches_row_path() {
        // Budget of 8 groups over 23 distinct keys: rejects interleave
        // with accepts, exercising the pending-run flush and the spool.
        let rows: Vec<Vec<Value>> = (0..300).map(|i| raw((i * 7) % 23, i)).collect();
        assert_batched_matches_row(query(), 8, RowKind::Raw, &[page_of(&rows)]);
    }

    #[test]
    fn batched_value_keys_match_row_path() {
        // Str keys promote the key strip to general values: the probe
        // compares against a Values strip, the input stays Int.
        let rows: Vec<Vec<Value>> = (0..120)
            .map(|i| vec![Value::Str(format!("g{}", i % 11).into()), Value::Int(i)])
            .collect();
        assert_batched_matches_row(query(), 100, RowKind::Raw, &[page_of(&rows)]);
    }

    #[test]
    fn batched_non_int_inputs_take_row_arm() {
        // Float inputs: vectorized hash + per-row updates (slow arm).
        let rows: Vec<Vec<Value>> = (0..120)
            .map(|i| vec![Value::Int(i % 7), Value::Float(i as f64 / 2.0)])
            .collect();
        assert_batched_matches_row(query(), 100, RowKind::Raw, &[page_of(&rows)]);
        // Nulls sprinkled in promote the input strip too (NULL-skipping
        // SUM semantics must survive batching).
        let rows: Vec<Vec<Value>> = (0..120)
            .map(|i| {
                let v = if i % 5 == 0 { Value::Null } else { Value::Int(i) };
                vec![Value::Int(i % 7), v]
            })
            .collect();
        assert_batched_matches_row(query(), 100, RowKind::Raw, &[page_of(&rows)]);
    }

    #[test]
    fn batched_partial_pages_match_row_path() {
        let rows: Vec<Vec<Value>> = (0..90)
            .map(|i| vec![Value::Int(i % 13), Value::Int(i * 10)])
            .collect();
        assert_batched_matches_row(query(), 100, RowKind::Partial, &[page_of(&rows)]);
    }

    /// Partial pages under every typed function ride the strips arm —
    /// COUNT's counts, SUM/MIN/MAX's one cell, AVG's sum and count (a zero
    /// count shipping a sum the merge skips) — and land where the row loop
    /// does, with and without bounces. Pages the arm cannot prove
    /// well-formed — a NULL or `Float` sum, a column an earlier page
    /// demoted — take the row arm and still agree.
    #[test]
    fn batched_partial_pages_of_every_typed_function_match_row_path() {
        let q = AggQuery::new(
            vec![0],
            vec![
                AggSpec::count_star(),
                AggSpec::over(AggFunc::Count, 1),
                AggSpec::over(AggFunc::Sum, 1),
                AggSpec::over(AggFunc::Avg, 1),
                AggSpec::over(AggFunc::Min, 1),
                AggSpec::over(AggFunc::Max, 1),
            ],
        );
        let partial = |i: i64, sum: Value| {
            let n = if i % 4 == 0 { 0 } else { i % 7 + 1 };
            vec![
                Value::Int((i * 5) % 23),
                Value::Int(i % 9),
                Value::Int(n),
                sum,
                Value::Int(i * 3 - 100),
                Value::Int(n),
                Value::Int(-i * 11 % 37),
                Value::Int(i * i),
            ]
        };
        let ints: Vec<Vec<Value>> = (0..150).map(|i| partial(i, Value::Int(i * 1_000_003))).collect();
        let odd: Vec<Vec<Value>> = (0..150)
            .map(|i| match i % 10 {
                3 => partial(i, Value::Null),
                7 => partial(i, Value::Float(i as f64 / 8.0)),
                _ => partial(i, Value::Int(i)),
            })
            .collect();
        for budget in [100, 6] {
            assert_batched_matches_row(q.clone(), budget, RowKind::Partial, &[page_of(&ints)]);
            assert_batched_matches_row(q.clone(), budget, RowKind::Partial, &[page_of(&odd), page_of(&ints)]);
        }
    }

    /// A partial page the strips arm must refuse — a negative count, or a
    /// row of the wrong arity — fails with the row loop's error after the
    /// row loop's charges.
    #[test]
    fn malformed_partial_pages_fail_like_the_row_loop() {
        let q = AggQuery::new(vec![0], vec![AggSpec::count_star(), AggSpec::over(AggFunc::Avg, 1)]);
        let good = |g: i64| vec![Value::Int(g), Value::Int(2), Value::Int(10), Value::Int(2)];
        let mut negative: Vec<Vec<Value>> = (0..20).map(good).collect();
        negative[12][1] = Value::Int(-1);
        let mut avg_negative: Vec<Vec<Value>> = (0..20).map(good).collect();
        avg_negative[15][3] = Value::Int(-3);
        let short: Vec<Vec<Value>> = (0..20).map(|g| good(g)[..3].to_vec()).collect();
        for rows in [negative, avg_negative, short] {
            let page = page_of(&rows);
            let (mut a, mut b) = (AggTable::new(q.clone(), 100), AggTable::new(q.clone(), 100));
            let (mut ta, mut tb) = (CountingTracker::new(), CountingTracker::new());
            let ra = a.insert_page(RowKind::Partial, &page, &mut ta, |_, _, _| Ok(()));
            let rb = b.insert_page_batched(RowKind::Partial, &page, &mut tb, |_, _, _| Ok(()));
            assert!(ra.is_err(), "{rows:?}");
            assert_eq!(ra, rb);
            assert_eq!(ta, tb, "error-path charges match");
        }
    }

    #[test]
    fn batched_multi_function_page_matches_row_path() {
        let q = AggQuery::new(
            vec![0],
            vec![
                AggSpec::count_star(),
                AggSpec::over(AggFunc::Sum, 1),
                AggSpec::over(AggFunc::Avg, 2),
                AggSpec::over(AggFunc::Min, 1),
                AggSpec::over(AggFunc::Max, 2),
                AggSpec::over(AggFunc::VarPop, 1),
            ],
        );
        let rows: Vec<Vec<Value>> = (0..150)
            .map(|i| vec![Value::Int(i % 17), Value::Int(i * 3 - 40), Value::Int(-i)])
            .collect();
        assert_batched_matches_row(q, 100, RowKind::Raw, &[page_of(&rows)]);
    }

    #[test]
    fn batched_ragged_page_falls_back_to_row_path() {
        // Mixed arities defeat the strip layout; the batched entry point
        // must route to insert_page and match it exactly (here: the
        // 1-column rows hit COUNT(*) + SUM over a missing column → the
        // same ColumnOutOfRange error as the row path).
        let mut p = Page::new(1 << 16);
        assert!(p.try_push(&raw(1, 10)).unwrap());
        assert!(p.try_push(&[Value::Int(2)]).unwrap());
        let mut a = AggTable::new(query(), 10);
        let mut b = AggTable::new(query(), 10);
        let mut ta = CountingTracker::new();
        let mut tb = CountingTracker::new();
        let ra = a.insert_page(RowKind::Raw, &p, &mut ta, |_, _, _| Ok(()));
        let rb = b.insert_page_batched(RowKind::Raw, &p, &mut tb, |_, _, _| Ok(()));
        assert!(ra.is_err() && rb.is_err(), "both paths surface the error");
        assert_eq!(ta, tb, "error-path charges match");
    }

    #[test]
    fn batch_selection_and_early_stop_match_the_row_loop() {
        // Rows 0..60 through a [value, key] projection with every third
        // row filtered out and a 5-entry budget; the batch is told to
        // stop at the first bounce, and the caller finishes row-wise —
        // exactly what the per-row loop over the same rows does.
        let base: Vec<Vec<Value>> = (0..60).map(|i| vec![Value::Int(i), Value::Int((i * 3) % 11)]).collect();
        let page = page_of(&base);
        let sel: Vec<u32> = (0..60).filter(|r| r % 3 != 0).collect();
        let batch = ScanBatch::scanned(&page, &[1, 0], Some(&sel), 60).unwrap();

        let mut a = AggTable::new(query(), 5);
        let mut ta = CountingTracker::new();
        let mut stop = Stop::default();
        let out = a.feed_batch(RowKind::Raw, &batch, &mut ta, &mut stop).unwrap();
        assert_eq!((out.rejected, out.row_cause), (1, None));
        assert!(out.consumed < 60 && sel.contains(&(out.consumed as u32 - 1)));
        assert_eq!(stop, Stop(Some(out.consumed - 1)), "the bounced row is the last consumed");
        let mut bounced = Vec::new();
        batch.read_row(out.consumed - 1, &mut bounced);
        assert_eq!(bounced, vec![base[out.consumed - 1][1].clone(), base[out.consumed - 1][0].clone()]);

        // Reference: the row loop over rows [0, consumed), charging what
        // the scan would have.
        let mut b = AggTable::new(query(), 5);
        let mut tb = CountingTracker::new();
        let mut passed = 0;
        for (r, row) in base.iter().enumerate().take(out.consumed) {
            tb.record(CostEvent::TupleRead, 1);
            if r % 3 == 0 {
                continue;
            }
            tb.record(CostEvent::TupleWrite, 1);
            passed += 1;
            let outcome = b.insert(RowKind::Raw, &[row[1].clone(), row[0].clone()][..], &mut tb).unwrap();
            assert_eq!(outcome == Inserted::Full, r + 1 == out.consumed);
        }
        assert_eq!(out.passed, passed);
        assert_eq!(ta, tb, "charges up to the stop");
        assert_eq!(a.probe_slots(), b.probe_slots());
        assert_eq!(drain_partials(&mut a, &mut ta), drain_partials(&mut b, &mut tb));
    }

    #[test]
    fn batched_steady_state_reuses_scratch_across_pages() {
        // Same page twice: the second pass is all resident-group updates
        // and must not regrow the pooled hash/group-index vectors.
        let rows: Vec<Vec<Value>> = (0..100).map(|i| raw(i % 11, i)).collect();
        let p = page_of(&rows);
        let mut t = AggTable::new(query(), 100);
        let mut tr = NullTracker;
        t.insert_page_batched(RowKind::Raw, &p, &mut tr, |_, _, _| Ok(()))
            .unwrap();
        let cap_h = t.batch_hashes.capacity();
        let cap_g = t.batch_gix.capacity();
        t.insert_page_batched(RowKind::Raw, &p, &mut tr, |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(t.batch_hashes.capacity(), cap_h);
        assert_eq!(t.batch_gix.capacity(), cap_g);
        assert_eq!(t.len(), 11);
    }

    #[test]
    fn grows_past_presize_without_losing_entries() {
        // Budget far past the pre-size cap forces slot-array growth.
        let mut t = AggTable::new(query(), usize::MAX);
        let mut tr = NullTracker;
        let n = (adaptagg_model::store::PRESIZE_CAP * 2) as i64;
        for g in 0..n {
            assert_eq!(t.insert(RowKind::Raw, &raw(g, 1), &mut tr).unwrap(), Inserted::New);
        }
        assert_eq!(t.len(), n as usize);
        for g in 0..n {
            assert!(resident(&t, &[Value::Int(g)]), "group {g} lost in growth");
        }
    }

    /// A row's key is its leading cells: a query grouping on any other
    /// column is refused when the table is built.
    #[test]
    #[should_panic(expected = "projected form")]
    fn a_query_not_in_projected_form_is_refused() {
        AggTable::new(AggQuery::new(vec![1], vec![AggSpec::over(AggFunc::Sum, 0)]), 10);
    }

    #[test]
    fn drain_is_insertion_ordered() {
        let mut t = AggTable::new(query(), 10);
        let mut tr = NullTracker;
        for g in [5i64, 3, 9, 1] {
            t.insert(RowKind::Raw, &raw(g, 1), &mut tr).unwrap();
        }
        t.insert(RowKind::Raw, &raw(3, 1), &mut tr).unwrap(); // update: order unchanged
        let rows = drain_partials(&mut t, &mut tr);
        let keys: Vec<i64> = rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(g) => g,
                _ => panic!("int key"),
            })
            .collect();
        assert_eq!(keys, vec![5, 3, 9, 1]);
    }

    #[test]
    fn live_grant_shrink_rejects_new_groups_mid_stream() {
        let grant = MemoryGrant::bounded(100);
        let mut t = AggTable::new(query(), 10).with_grant(grant.clone());
        let mut tr = NullTracker;
        for g in 0..4i64 {
            assert_eq!(t.insert(RowKind::Raw, &raw(g, 1), &mut tr).unwrap(), Inserted::New);
        }
        assert!(!t.is_full());
        grant.set(2); // broker revokes below the resident count
        assert!(t.is_full());
        // New groups bounce; resident groups still update (no eviction,
        // no wrong answer).
        assert_eq!(t.insert(RowKind::Raw, &raw(9, 1), &mut tr).unwrap(), Inserted::Full);
        assert_eq!(t.insert(RowKind::Raw, &raw(0, 5), &mut tr).unwrap(), Inserted::Updated);
        assert_eq!(t.len(), 4);
        grant.set(100); // regrant reopens admission
        assert!(!t.is_full());
        assert_eq!(t.insert(RowKind::Raw, &raw(9, 1), &mut tr).unwrap(), Inserted::New);
    }

    #[test]
    fn table_is_reusable_after_drain() {
        let mut t = AggTable::new(query(), 4);
        let mut tr = NullTracker;
        for g in 0..4i64 {
            t.insert(RowKind::Raw, &raw(g, 1), &mut tr).unwrap();
        }
        assert!(t.is_full());
        drain_partials(&mut t, &mut tr);
        assert!(t.is_empty() && !t.is_full());
        assert_eq!(t.insert(RowKind::Raw, &raw(9, 2), &mut tr).unwrap(), Inserted::New);
        assert!(resident(&t, &[Value::Int(9)]));
        assert!(!resident(&t, &[Value::Int(0)]), "drained groups are gone");
    }
}
