//! Builder-style construction and validation of a [`SentimentEngine`].

use tgs_core::{OnlineConfig, OnlineSolver, TgsError};
use tgs_data::{Corpus, PartitionMap};
use tgs_linalg::DenseMatrix;
use tgs_text::{PipelineConfig, Vocabulary};

use crate::batch::BatchPolicy;
use crate::engine::{EngineShared, EngineState, SentimentEngine};
use crate::sharded::ShardedEngine;

/// Default bound of the ingest queue (snapshots).
pub(crate) const DEFAULT_QUEUE_DEPTH: usize = 8;
/// Default byte budget of each per-snapshot factor store (64 MiB).
pub(crate) const DEFAULT_STORE_BUDGET_BYTES: usize = 64 << 20;

/// Builds a [`SentimentEngine`], wrapping [`OnlineConfig`] with
/// validation at `fit` time: every parameter is checked against its
/// documented domain and violations are reported as
/// [`TgsError::InvalidConfig`] instead of a panic.
///
/// ```
/// use tgs_engine::EngineBuilder;
/// use tgs_data::{generate, presets};
///
/// let corpus = generate(&presets::tiny(42));
/// let engine = EngineBuilder::new()
///     .k(3)
///     .gamma(0.2)
///     .max_iters(10)
///     .fit(&corpus)
///     .expect("valid configuration");
/// assert_eq!(engine.config().k, 3);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: OnlineConfig,
    pipeline: PipelineConfig,
    queue_depth: usize,
    store_budget_bytes: usize,
    ghost_users: bool,
    batch: BatchPolicy,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            config: OnlineConfig::default(),
            pipeline: PipelineConfig::paper_defaults(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            store_budget_bytes: DEFAULT_STORE_BUDGET_BYTES,
            ghost_users: false,
            batch: BatchPolicy::default(),
        }
    }
}

impl EngineBuilder {
    /// A builder with the paper's online defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole online configuration.
    pub fn online(mut self, config: OnlineConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of sentiment clusters `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Temporal user-regularization weight `γ`.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.config.gamma = gamma;
        self
    }

    /// Per-snapshot iteration cap.
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.config.max_iters = max_iters;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Text pipeline settings (tokenizer, vocabulary, weighting, lexicon
    /// confidence).
    pub fn pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Bound of the ingest queue, in snapshots. Producers block only once
    /// this many snapshots are pending.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Byte budget of each per-snapshot factor store (`Sf` and `Sp`
    /// each); oldest snapshots are evicted beyond it.
    pub fn store_budget_bytes(mut self, bytes: usize) -> Self {
        self.store_budget_bytes = bytes;
        self
    }

    /// Enables the ghost-user protocol on [`EngineBuilder::fit_sharded`]
    /// fleets: cross-shard re-tweet edges are kept on their document's
    /// shard (the remote user materializes as a ghost row carrying their
    /// current sentiment factor) instead of being dropped. Off by
    /// default, matching the original drop-and-count behaviour.
    pub fn ghost_users(mut self, on: bool) -> Self {
        self.ghost_users = on;
        self
    }

    /// The micro-batching policy of the [`ShardedEngine::batching`] front
    /// end (see [`BatchPolicy`]). Only [`EngineBuilder::fit_sharded`]
    /// fleets use it; [`EngineBuilder::fit`] validates it and then
    /// ignores it, since a single engine has no batching front end.
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    fn try_validate(&self) -> Result<(), TgsError> {
        self.config.try_validate()?;
        self.batch.validate()?;
        if self.queue_depth == 0 {
            return Err(TgsError::InvalidConfig {
                field: "queue_depth",
                message: "queue_depth must be >= 1".into(),
            });
        }
        if self.store_budget_bytes == 0 {
            return Err(TgsError::InvalidConfig {
                field: "store_budget_bytes",
                message: "store_budget_bytes must be positive".into(),
            });
        }
        Ok(())
    }

    /// Fits the global vocabulary and lexicon prior on `corpus`.
    fn fit_globals(&self, corpus: &Corpus) -> Result<(Vocabulary, DenseMatrix), TgsError> {
        let vocab = Vocabulary::build(
            corpus
                .tweets
                .iter()
                .map(|t| t.tokens.iter().map(String::as_str)),
            &self.pipeline.vocab,
        );
        if vocab.is_empty() {
            return Err(TgsError::invalid_argument(
                "corpus yields an empty vocabulary under the configured filters",
            ));
        }
        let sf0 =
            corpus
                .lexicon
                .prior_matrix(&vocab, self.config.k, self.pipeline.lexicon_confidence);
        Ok((vocab, sf0))
    }

    /// Fits the global vocabulary and lexicon prior on `corpus` and
    /// starts the engine. The corpus fixes the feature axis — snapshots
    /// ingested later are encoded against this vocabulary, so factor
    /// matrices align across time.
    pub fn fit(self, corpus: &Corpus) -> Result<SentimentEngine, TgsError> {
        self.try_validate()?;
        let (vocab, sf0) = self.fit_globals(corpus)?;
        self.start(vocab, sf0)
    }

    /// Fits the global vocabulary/prior once and starts a
    /// [`ShardedEngine`]: `shards` identically-configured
    /// [`SentimentEngine`] workers behind a user-range router partitioned
    /// over this corpus's user-id universe. With `shards = 1` the fleet
    /// is a single worker receiving byte-identical snapshots — the
    /// tested identity with [`EngineBuilder::fit`].
    pub fn fit_sharded(self, corpus: &Corpus, shards: usize) -> Result<ShardedEngine, TgsError> {
        if shards == 0 {
            return Err(TgsError::InvalidConfig {
                field: "shards",
                message: "need at least one shard".into(),
            });
        }
        self.try_validate()?;
        let ghost_users = self.ghost_users;
        let (vocab, sf0) = self.fit_globals(corpus)?;
        let batch = self.batch;
        let workers = (0..shards)
            .map(|_| self.clone().start(vocab.clone(), sf0.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut fleet = ShardedEngine::start(
            PartitionMap::even(corpus.num_users(), shards),
            workers,
            ghost_users,
        );
        fleet.set_batch_policy(batch);
        Ok(fleet)
    }

    fn start(self, vocab: Vocabulary, sf0: DenseMatrix) -> Result<SentimentEngine, TgsError> {
        let solver = OnlineSolver::try_new(self.config.clone())?;
        let shared = EngineShared {
            vocab,
            sf0,
            config: self.config,
            tokenizer: self.pipeline.tokenizer,
            weighting: self.pipeline.weighting,
            queue_depth: self.queue_depth,
        };
        let state = EngineState::new(self.store_budget_bytes);
        Ok(SentimentEngine::start(shared, solver, state))
    }
}
