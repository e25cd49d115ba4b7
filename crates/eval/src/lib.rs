//! # tgs-eval
//!
//! Evaluation metrics used throughout the paper's experiments: clustering
//! accuracy with majority-vote mapping (§5), NMI (§5), plus ARI,
//! Hungarian-optimal accuracy and Pearson correlation for ablations.
//!
//! ```
//! use tgs_eval::{clustering_accuracy, nmi};
//!
//! let truth = vec![0, 0, 1, 1];
//! let pred = vec![1, 1, 0, 0]; // same partition, renamed clusters
//! assert_eq!(clustering_accuracy(&pred, &truth), 1.0);
//! assert_eq!(nmi(&pred, &truth), 1.0);
//! ```

mod accuracy;
mod ari;
mod confusion;
mod hungarian;
mod nmi;
mod pearson;

pub use accuracy::{classification_accuracy, clustering_accuracy};
pub use ari::adjusted_rand_index;
pub use hungarian::hungarian_accuracy;
pub use nmi::{entropy, nmi};
pub use pearson::pearson;
