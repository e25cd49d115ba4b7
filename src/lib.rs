//! # tripartite-sentiment
//!
//! A complete Rust reproduction of **"Tripartite Graph Clustering for
//! Dynamic Sentiment Analysis on Social Media"** (Zhu, Galstyan, Cheng,
//! Lerman, 2014): joint tweet-level and user-level sentiment analysis by
//! co-clustering the feature–tweet–user tripartite graph with orthogonal
//! non-negative matrix tri-factorization, offline (Algorithm 1) and
//! online over streams (Algorithm 2).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`linalg`] — sparse/dense kernels built for multiplicative updates;
//! * [`text`] — tweet tokenization, tf-idf, sentiment lexicons (`Sf0`);
//! * [`graph`] — the user–user re-tweet graph substrate (`Gu`, `Lu`);
//! * [`data`] — the synthetic California-ballot corpus generator
//!   (Prop 30 / Prop 37 presets);
//! * [`core`] — the offline/online tri-clustering solvers and the
//!   [`core::TgsError`] taxonomy;
//! * [`engine`] — [`engine::SentimentEngine`]: the streaming session
//!   facade (async ingest, queryable history, checkpoint/restore), and
//!   [`engine::ShardedEngine`]: the user-range multi-shard router over
//!   `S` such workers (`tgs stream --shards N`);
//! * [`net`] — the distributed fleet: a framed TCP protocol, the
//!   `tgs shard` slot server, [`net::TcpShard`] — a remote
//!   `ShardTransport` the router drives exactly like a local worker
//!   (`tgs serve --shards host:port,...`) — plus the robustness layer:
//!   seeded fault injection ([`net::FaultPolicy`], `TGS_FAULTS`) and the
//!   [`net::Supervisor`]'s automatic respawn/re-seed state machine;
//! * [`load`] — [`load::LoadGen`]: the deterministic Zipf firehose
//!   generator behind `tgs soak`;
//! * [`baselines`] — SVM, NB, LP, UserReg, ESSA, ONMTF, BACG, k-means;
//! * [`eval`] — clustering accuracy, NMI, ARI, Hungarian assignment.
//!
//! ## Quickstart
//!
//! The streaming front door is [`engine::EngineBuilder`] /
//! [`engine::SentimentEngine`]: build once, ingest owned snapshots, query
//! the recorded history.
//!
//! ```
//! use tripartite_sentiment::prelude::*;
//!
//! // 1. Generate a corpus (stand-in for the 2012 Twitter crawl).
//! let corpus = generate(&presets::tiny(42));
//! // 2. Build the engine: fits the global vocabulary + lexicon prior,
//! //    owns the online solver (Algorithm 2) and its ingest worker.
//! let engine = EngineBuilder::new().k(3).max_iters(10).fit(&corpus)?;
//! // 3. Stream daily snapshots; producers never block on a solve.
//! for (lo, hi) in day_windows(corpus.num_days, 4) {
//!     engine.ingest(EngineSnapshot::from_corpus_window(&corpus, lo, hi))?;
//! }
//! engine.flush()?;
//! // 4. Query the history: timeline, per-user sentiment, top words.
//! let query = engine.query();
//! let timeline = query.timeline(..);
//! assert!(!timeline.is_empty());
//! let t = timeline.last().unwrap().timestamp;
//! let author = corpus.tweets[0].author;
//! assert_eq!(query.user_sentiment(author, t)?.distribution.len(), 3);
//! # Ok::<(), TgsError>(())
//! ```
//!
//! The one-shot offline path (Algorithm 1) stays available through
//! [`core::try_solve_offline`] — see the `quickstart` example for both
//! side by side. Every fallible entry point reports a typed
//! [`core::TgsError`]; the panicking variants (`solve_offline`,
//! `OnlineSolver::step`) remain as thin wrappers for benches and
//! scripts.

pub use tgs_baselines as baselines;
pub use tgs_core as core;
pub use tgs_data as data;
pub use tgs_engine as engine;
pub use tgs_eval as eval;
pub use tgs_graph as graph;
pub use tgs_linalg as linalg;
pub use tgs_load as load;
pub use tgs_net as net;
pub use tgs_text as text;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use tgs_baselines::{
        propagate_labels, solve_bacg, solve_essa, subsample_labels, userreg, BacgConfig,
        EssaConfig, FullBatch, LabelPropConfig, LinearSvm, MiniBatch, NaiveBayes, SvmConfig,
        UserRegConfig,
    };
    pub use tgs_core::{
        solve_offline, try_solve_offline, OfflineConfig, OnlineConfig, OnlineSolver, SnapshotData,
        TgsError, TgsErrorKind, TriInput,
    };
    pub use tgs_data::{
        build_offline, corpus_stats, daily_tweet_counts, day_windows, generate, presets, Corpus,
        GeneratorConfig, SnapshotBuilder,
    };
    pub use tgs_engine::{
        BatchPolicy, CheckpointDelta, EngineBuilder, EngineCheckpoint, EngineSnapshot, EngineStats,
        LatencyHistogram, SentimentEngine, ShardedCheckpoint, ShardedDelta, ShardedEngine,
        TimelineEntry,
    };
    pub use tgs_eval::{clustering_accuracy, nmi};
    pub use tgs_linalg::DenseMatrix;
    pub use tgs_load::{LoadConfig, LoadGen};
    pub use tgs_text::{PipelineConfig, Sentiment, Vocabulary};
}
