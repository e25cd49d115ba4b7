//! # tgs-baselines
//!
//! Every comparison method of the paper's evaluation (§5), implemented
//! from scratch:
//!
//! | Paper name | Here | Kind |
//! |---|---|---|
//! | SVM (Smith et al.) | [`LinearSvm`] (Pegasos) | supervised |
//! | NB (Go et al.) | [`NaiveBayes`] | supervised |
//! | LP-5 / LP-10 | [`propagate_labels`] + [`subsample_labels`] | semi-supervised |
//! | UserReg-10 (Deng et al.) | [`userreg()`] | semi-supervised |
//! | ESSA (Hu et al.) | [`solve_essa`] | unsupervised |
//! | ONMTF (Ding et al.) | [`solve_onmtf`] | unsupervised |
//! | BACG (Xu et al.) | [`solve_bacg`] | unsupervised |
//! | mini-batch / full-batch | [`MiniBatch`] / [`FullBatch`] | online strawmen |
//!
//! Plus k-means and lexicon-vote reference baselines.

mod bacg;
mod batch;
mod essa;
mod kmeans;
mod labelprop;
mod nb;
mod svm;
mod trivial;
mod userreg;

pub use bacg::{solve_bacg, BacgConfig, BacgResult};
pub use batch::{FullBatch, MiniBatch, TimedResult};
pub use essa::{emotional_signal_graph, solve_essa, solve_onmtf, EssaConfig, EssaResult};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use labelprop::{knn_feature_graph, propagate_labels, subsample_labels, LabelPropConfig};
pub use nb::NaiveBayes;
pub use svm::{LinearSvm, SvmConfig};
pub use trivial::lexicon_vote_rows;
pub use userreg::{userreg, UserRegConfig, UserRegResult};
