//! # tgs-core
//!
//! The paper's primary contribution: a unified unsupervised tri-clustering
//! framework that co-clusters the feature–tweet–user tripartite graph into
//! sentiment classes via orthogonal non-negative matrix tri-factorization
//! (Zhu, Galstyan, Cheng, Lerman — "Tripartite Graph Clustering for
//! Dynamic Sentiment Analysis on Social Media", 2014).
//!
//! * [`solve_offline`] — Algorithm 1: the static solver for Eq. (1).
//! * [`OnlineSolver`] — Algorithm 2: the streaming solver for Eq. (19)
//!   with temporal regularization, decayed windows and new/evolving/
//!   disappeared user bookkeeping.
//!
//! ## Errors
//!
//! Library-level validation never panics: [`TriInput::try_validate`],
//! [`OfflineConfig::try_validate`], [`OnlineConfig::try_validate`],
//! [`try_solve_offline`] and [`OnlineSolver::try_step`] report the
//! matching [`TgsError`] variant (one per violated invariant — see
//! [`TgsErrorKind`] for the full taxonomy). The panicking spellings
//! (`validate`, `solve_offline`, `step`) are thin wrappers over the
//! `try_` forms, kept for benches and quick scripts.
//!
//! ```
//! use tgs_core::{solve_offline, OfflineConfig, TriInput};
//! use tgs_graph::UserGraph;
//! use tgs_linalg::{CsrMatrix, DenseMatrix};
//!
//! // Two tweets, two users, two features; class 0 ~ feature 0.
//! let xp = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
//! let xu = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
//! let xr = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
//! let graph = UserGraph::empty(2);
//! let sf0 = DenseMatrix::from_fn(2, 2, |i, j| if i == j { 0.8 } else { 0.2 });
//! let input = TriInput { xp: &xp, xu: &xu, xr: &xr, graph: &graph, sf0: &sf0 };
//! let result = solve_offline(&input, &OfflineConfig { k: 2, ..Default::default() });
//! assert_ne!(result.tweet_labels()[0], result.tweet_labels()[1]);
//! ```

pub mod codec;
mod config;
mod error;
mod extensions;
mod factors;
mod input;
mod labels;
mod objective;
mod offline;
mod online;
pub mod sharded;
mod store;
pub mod updates;
mod window;
mod workspace;

pub use config::{OfflineConfig, OnlineConfig};
pub use error::{TgsError, TgsErrorKind};
pub use extensions::{solve_guided, Guidance, GuidedConfig};
pub use factors::{InitStrategy, TriFactors};
pub use input::TriInput;
pub use labels::label_confidence;
pub use objective::{converge, offline_objective, Convergence, ObjectiveParts, ObjectiveValue};
pub use offline::{solve_offline, try_solve_offline, OfflineResult};
pub use online::{MigratedUsers, OnlineSolver, OnlineSolverState, OnlineStepResult, SnapshotData};
pub use store::{decode_matrix, encode_matrix, SnapshotStore};
pub use window::{FactorWindow, SentimentHistory, UserPartition};
pub use workspace::UpdateWorkspace;
