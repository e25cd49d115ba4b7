//! # tgs-data
//!
//! Synthetic California-ballot Twitter corpus generator — the substitution
//! for the paper's (unobtainable) November 2012 crawl.
//!
//! The generator reproduces every statistical property the paper's
//! evaluation depends on: Table 3-style class/label proportions, Zipfian
//! word frequencies with temporal drift (Observation 1 / Fig. 4), mostly
//! stable user stances with rare flips (Observation 2), re-tweet
//! homophily, long-tail user activity, election-night volume bursts
//! (Figs. 11–12) and an imperfect auto-built lexicon.
//!
//! ```
//! use tgs_data::{generate, presets};
//!
//! let corpus = generate(&presets::tiny(42));
//! assert_eq!(corpus.num_tweets(), 300);
//! ```

mod config;
mod generator;
mod io;
mod matrices;
mod model;
mod partition;
mod pools;
pub mod presets;
mod stats;
mod zipf;

pub use config::{GeneratorConfig, PoolSizes, VolumeBurst};
pub use generator::generate;
pub use io::{read_corpus, write_corpus, CorpusIoError};
pub use matrices::{
    assemble_snapshot_matrices, build_offline, day_windows, ProblemInstance, SnapshotBuilder,
    SnapshotInstance, SnapshotMatrices,
};
pub use model::{Corpus, Retweet, Trajectory, Tweet, UserProfile};
pub use partition::{
    route_docs, route_docs_ghost, MigrationRange, PartitionError, PartitionMap, RepartitionOp,
    RepartitionPlan, ShardRouting,
};

pub use stats::{
    corpus_stats, daily_tweet_counts, flip_fraction, period_feature_frequencies, top_words,
    CorpusStats,
};
pub use zipf::Zipf;
