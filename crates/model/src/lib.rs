//! # adaptagg-model
//!
//! The relational substrate shared by every other `adaptagg` crate:
//!
//! * [`Value`], [`Schema`] — a small dynamically-typed row model, sized in
//!   bytes so the cost model can account for pages and messages.
//! * [`GroupKey`] — the GROUP BY key of a tuple, hashable and orderable —
//!   and [`AggCells`], a result row's aggregates: both [`InlineCells`].
//! * [`AggFunc`] / [`AggSpec`] / [`AggQuery`] — the aggregate queries the
//!   paper studies (`SELECT g, agg(v) FROM r GROUP BY g`).
//! * [`AggStates`] — *mergeable* partial aggregation state. This is the
//!   linchpin of the Adaptive Two Phase algorithm: the global phase must
//!   accept **raw tuples and partially-aggregated rows in the same hash
//!   table** (paper §3.2), so every aggregate function here knows how to
//!   (a) fold in a raw input value, (b) fold in an encoded partial row, and
//!   (c) emit itself as an encoded partial row.
//! * [`GroupStore`] — the flat index from group key to states that both
//!   aggregation operators (hash table, sorted-run table) keep their
//!   resident groups in.
//! * [`hash`] — a fast, seedable non-cryptographic hasher used for
//!   partitioning, overflow-bucket selection, and hash-table placement
//!   (three *independent* seeds, the classic hybrid-hash requirement).
//! * [`params::CostParams`] — Table 1 of the paper: the constants that turn
//!   counted events (tuples touched, pages read, messages sent) into
//!   virtual time — whole picosecond ticks on the engine's clocks,
//!   milliseconds in configuration and reports.
//!
//! Everything downstream — storage, network, the execution engine, the six
//! algorithms, and the analytical cost model — is expressed in these terms.

pub mod agg;
pub mod cells;
pub mod encode;
pub mod error;
pub mod event;
pub mod grant;
pub mod hash;
pub mod key;
pub mod params;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod store;
pub mod tournament;
pub mod value;

pub use agg::{AggFunc, AggSpec, AggState, AggStates, RowKind};
pub use cells::{InlineCells, InlineLen};
pub use encode::{decode_tuple_into, encode_tuple, encode_value, encoded_len};
pub use error::ModelError;
pub use event::{record_each, CostEvent, CostTracker, CountingTracker, NullTracker};
pub use grant::MemoryGrant;
pub use hash::{FxHasher, Seed};
pub use key::GroupKey;
pub use params::{ms_to_ticks, ticks_to_ms, CostParams, NetworkKind, MAX_TICKS, TICKS_PER_MS};
pub use predicate::{matches_all, Compare, Predicate};
pub use query::{AggCells, AggQuery, ResultRow};
pub use schema::{DataType, Field, Schema};
pub use store::{
    DemoteCause, GroupRow, GroupStore, IndexRow, KeyCell, LaneRows, PartialRun, SortScratch, StoreIndex, StoreLayout,
};
pub use value::{CellRow, CellSink, OneRow, RowRun, StripView, Value};
