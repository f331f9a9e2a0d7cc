//! # adaptagg-algos
//!
//! The six parallel aggregation algorithms of Shatdal & Naughton (SIGMOD
//! 1995), plus three related-work strategies the paper discusses — the
//! Graefe-optimized Two Phase it argues against (§3.2) and Bitton et
//! al.'s sort-based and broadcast algorithms (§1) — all running on the
//! `adaptagg-exec` cluster:
//!
//! | kind | paper § | module |
//! |------|---------|--------|
//! | [`AlgorithmKind::CentralizedTwoPhase`] | 2.1 | [`c2p`] |
//! | [`AlgorithmKind::TwoPhase`] | 2.2 | [`twophase`] |
//! | [`AlgorithmKind::Repartitioning`] | 2.3 | [`repart`] |
//! | [`AlgorithmKind::Sampling`] | 3.1 | [`sampling`] |
//! | [`AlgorithmKind::AdaptiveTwoPhase`] | 3.2 | [`adaptive2p`] |
//! | [`AlgorithmKind::AdaptiveRepartitioning`] | 3.3 | [`adaptiverep`] |
//! | [`AlgorithmKind::OptimizedTwoPhase`] | 3.2 (discussed) | [`opt2p`] |
//! | [`AlgorithmKind::SortTwoPhase`] | 1 (related work) | [`sort2p`] |
//! | [`AlgorithmKind::Broadcast`] | 1 (related work) | [`broadcast`] |
//!
//! Every algorithm produces the **identical, exact** aggregation result
//! (verified against [`verify::reference_aggregate`] in the integration
//! suite); they differ only in where work happens and what travels over
//! the network — which is what the paper's figures measure.
//!
//! Entry point: [`run_algorithm`].

pub mod adaptive2p;
pub mod adaptiverep;
pub mod broadcast;
pub mod c2p;
pub mod common;
pub mod config;
pub mod driver;
pub mod opt2p;
pub mod outcome;
pub mod repart;
pub mod sampling;
pub mod sort2p;
pub mod twophase;
pub mod verify;

pub use config::AlgoConfig;
pub use driver::{run_algorithm, run_algorithm_with, AlgorithmKind};
pub use outcome::{AdaptEvent, NodeOutcome, RunOutcome};
pub use verify::reference_aggregate;
