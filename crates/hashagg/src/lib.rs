//! # adaptagg-hashagg
//!
//! The paper's uniprocessor hash aggregation (§2), memory-bounded:
//!
//! 1. tuples are read and a hash table is built on the GROUP BY
//!    attributes; the first tuple of a new group adds an entry, subsequent
//!    matches update the cumulative state;
//! 2. if the table would exceed its memory allocation (`M` entries),
//!    further *new-group* tuples are hash-partitioned into overflow
//!    buckets and spooled to disk (existing groups keep updating in
//!    place — the in-memory table is the resident "first bucket");
//! 3. overflow buckets are processed one by one as in step 1, recursively
//!    with a fresh bucket hash per level.
//!
//! Every insert accepts either **raw tuples** or **partial rows**
//! ([`adaptagg_model::RowKind`]): the same table merges both, which is what
//! lets the Adaptive Two Phase merge phase work (§3.2). Every structure
//! here emits [`adaptagg_model::CostEvent`]s so the virtual clock sees
//! exactly the per-tuple CPU and per-page overflow I/O the paper charges.
//!
//! This crate is single-node; the parallel algorithms in `adaptagg-algos`
//! compose it with the exchange operators.

pub mod aggregate;
pub mod overflow;
pub mod stats;
pub mod table;

pub use aggregate::HashAggregator;
pub use overflow::{DrainCause, OverflowSet};
pub use stats::HashAggStats;
pub use table::{AggTable, FullPolicy, Inserted, Stop};
