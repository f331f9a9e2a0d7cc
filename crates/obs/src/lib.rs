//! # adaptagg-obs
//!
//! Cluster-wide observability: structured span tracing over virtual
//! **and** wall time, a small metrics registry (counters / gauges / log₂
//! histograms), and first-class trace events for the paper's adaptive
//! strategy switches (§3.2–§3.3).
//!
//! The design contract (DESIGN.md §11) is **zero cost when disabled**:
//!
//! - a disabled [`NodeTrace`] is a `None` — every call is a branch on a
//!   niche-optimised option and returns immediately, allocating nothing;
//! - tracing *never* records a [`CostEvent`][cost] and never advances the
//!   virtual clock, so enabling it cannot move a single virtual-time
//!   figure. `tests/cost_invariance.rs` pins this (and CI re-runs the
//!   whole suite with `ADAPTAGG_TRACE=1` to prove observer invariance);
//! - the allocation-free hot path (`tests/alloc_hot_path.rs`) is below
//!   this layer entirely: `AggTable` carries only plain integer counters.
//!
//! This crate is dependency-free by design: `exec` re-exports it, and the
//! layers above (`algos`, `cli`, `bench`) consume it through `exec` so no
//! dependency cycle forms. Time is passed *in* as plain `f64` virtual
//! milliseconds and a 4-component breakdown snapshot — obs never reaches
//! into the clock.
//!
//! [cost]: https://docs.rs/adaptagg-model

pub mod metrics;
pub mod render;
pub mod trace;

pub use metrics::{Histogram, MetricSet};
pub use trace::{
    LinkTrace, NodeTrace, NodeTraceReport, PhaseKind, PhaseTotal, RecoveryAttemptTrace,
    RecoverySummaryTrace, RunTrace, SpanRecord, SwitchCause, TraceEvent,
};
