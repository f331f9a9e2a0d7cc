//! # adaptagg-sample
//!
//! The estimation machinery of the Sampling algorithm (§3.1):
//!
//! * [`pagesample`] — page-level random sampling from a node's partition
//!   ("letting each node randomly sample relation pages on its local
//!   disk"), charging random-I/O (`rIO`) per sampled page;
//! * [`estimator`] — the Erdős–Rényi sample-size rule ("the number of
//!   samples required is fairly small — about 10 times the crossover
//!   threshold"); the sample's distinct group count it is sized for is a
//!   **lower bound** on the relation's;
//! * [`decision`] — the crossover rule: groups in sample below the
//!   threshold → Two Phase, otherwise → Repartitioning. The default
//!   threshold is "say, 10 times the number of processors".
//!
//! §3.1's point is that this is *much easier* than general distinct-count
//! estimation: the decision only needs "small or not small", with leeway
//! in the middle where both algorithms do fine.

pub mod decision;
pub mod estimator;
pub mod pagesample;

pub use decision::{AlgorithmChoice, CrossoverRule};
pub use estimator::required_sample_size;
pub use pagesample::sample_tuples;
