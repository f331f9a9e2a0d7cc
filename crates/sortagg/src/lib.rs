//! # adaptagg-sortagg
//!
//! Sort-based aggregation: the alternative local-aggregation strategy of
//! Bitton et al. \[BBDW83\], which the paper's §1 cites as the prior
//! approach ("two sorting based algorithms for aggregate processing …
//! the first algorithm is somewhat similar to the Two Phase approach in
//! that it uses local aggregation").
//!
//! The classic external-sort-with-early-aggregation pipeline:
//!
//! 1. **run formation** — accumulate tuples in a memory-bounded table
//!    (early aggregation: duplicates combine *before* anything is
//!    written), and when a new group arrives at `M` groups, seal it to
//!    disk as a sorted run ([`RunBuilder`]). The table is an *index*, not
//!    an ordered structure: the bounded hash table of `adaptagg-hashagg`
//!    itself, fed a row or a scanned page of column strips at a time,
//!    finds a row's group while rows stream in, and the order is
//!    established once per run, by sorting the entries when the run seals
//!    (Do/Graefe/Naughton's in-memory index with the sort deferred to run
//!    generation; a single `Int` key is radix-sorted). Sealing instead of spilling is the table's full-table
//!    policy — the only thing the two operators' local phases do not
//!    share;
//! 2. **k-way merge** — merge all runs by key, combining equal keys'
//!    partial states, emitting finalized or partial rows in key order
//!    ([`merge_runs`]). Runs are read in place: a cursor per run over the
//!    column strips its pages are, a tournament tree of losers over the
//!    run heads (one packed `u128` a head for single-`Int` keys, key cells
//!    compared where they lie otherwise), one reused row of states, output
//!    appended to pages ([`RowPages`]).
//!
//! [`SortAggregator`] packages the pipeline behind the same
//! push/finish interface as `adaptagg_hashagg::HashAggregator`, so the
//! algorithms layer can swap strategies (`AlgorithmKind::SortTwoPhase`).
//!
//! Cost parity: Table 1 prices hashing (`t_h`) but not comparisons; we
//! charge `t_h` per pushed row (the index probe that finds or admits its
//! group; the seal-time sort rides on the `t_w` each sealed row pays) and
//! `t_r` per comparison-driven move in the merge, keeping the two
//! strategies comparable under one parameter set. Charges are counted,
//! and paid before anything reads the clock (DESIGN.md §16.3, §21). Run
//! I/O goes through the same
//! spill machinery (page writes on seal, reads on merge) as hash
//! overflow, so the I/O accounting is identical.

pub mod aggregate;
pub mod builder;
pub mod merge;

pub use aggregate::{SortAggStats, SortAggregator};
pub use builder::RunBuilder;
pub use merge::merge_runs;
pub use adaptagg_storage::RowPages;
