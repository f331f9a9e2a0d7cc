//! # adaptagg — Adaptive Parallel Aggregation Algorithms
//!
//! A from-scratch Rust reproduction of Shatdal & Naughton, *"Adaptive
//! Parallel Aggregation Algorithms"*, SIGMOD 1995: six parallel GROUP BY /
//! duplicate-elimination algorithms for shared-nothing parallel database
//! systems, a simulated multi-node execution engine to run them on, the
//! paper's analytical cost model, and the workload generators (including
//! data-skew scenarios) used in its evaluation.
//!
//! This crate is a facade: it re-exports the public API of the workspace
//! crates so applications can depend on `adaptagg` alone.
//!
//! ```
//! use adaptagg::prelude::*;
//!
//! // 1 M-tuple relation with 100 groups, round-robin across 8 nodes.
//! let spec = RelationSpec::uniform(100_000, 100).with_seed(42);
//! let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
//! let cluster = ClusterConfig::new(8, CostParams::cluster_default());
//! let partitions = generate_partitions(&spec, cluster.nodes);
//!
//! // Run the paper's flagship algorithm: Adaptive Two Phase.
//! let outcome = run_algorithm(AlgorithmKind::AdaptiveTwoPhase, &cluster, &partitions, &query)
//!     .expect("aggregation succeeds");
//! assert_eq!(outcome.rows.len(), 100);
//! println!("virtual time: {:.1} ms", outcome.run.elapsed_ms());
//! ```

pub use adaptagg_algos as algos;
pub use adaptagg_cost as cost;
pub use adaptagg_exec as exec;
pub use adaptagg_hashagg as hashagg;
pub use adaptagg_model as model;
pub use adaptagg_net as net;
pub use adaptagg_obs as obs;
pub use adaptagg_sample as sample;
pub use adaptagg_serve as serve;
pub use adaptagg_sortagg as sortagg;
pub use adaptagg_sql as sql;
pub use adaptagg_storage as storage;
pub use adaptagg_workload as workload;

/// The common imports for applications.
pub mod prelude {
    pub use adaptagg_algos::{
        reference_aggregate, run_algorithm, run_algorithm_with, AdaptEvent, AlgoConfig,
        AlgorithmKind, RunOutcome,
    };
    pub use adaptagg_cost::{
        scaleup_curve, selectivity_sweep, CostAlgorithm, CostBreakdown, ModelConfig,
    };
    pub use adaptagg_exec::{
        ClusterConfig, PhaseKind, RecoveryPolicy, RecoveryStats, RunResult, RunTrace,
        SwitchCause, TraceEvent,
    };
    pub use adaptagg_model::{
        AggFunc, AggQuery, AggSpec, CostParams, GroupKey, NetworkKind, ResultRow, Schema, Value,
    };
    pub use adaptagg_sample::{AlgorithmChoice, CrossoverRule};
    pub use adaptagg_sql::{compile as compile_sql, BoundQuery};
    pub use adaptagg_workload::{
        default_query, generate_partitions, InputSkewSpec, OutputSkewSpec, RelationSpec,
        TpcdWorkload,
    };
}
