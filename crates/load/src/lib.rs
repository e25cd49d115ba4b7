//! Deterministic synthetic-firehose load generator.
//!
//! [`LoadGen`] emits a seeded stream of [`EngineSnapshot`]s shaped like
//! real social-media traffic: user activity follows a Zipf law (a few
//! accounts produce most documents), word choice follows a second Zipf
//! law over a supplied word pool whose rank order *drifts* over time
//! (the trending vocabulary rotates), and a fraction of documents
//! trigger re-tweet bursts. The stream is a pure function of
//! [`LoadConfig`] plus the word pool — two generators built from the
//! same inputs emit bit-identical snapshots, which is what lets soak
//! runs compare ingest strategies on *the same* traffic.
//!
//! ```
//! use tgs_load::{LoadConfig, LoadGen};
//!
//! let words: Vec<String> = (0..32).map(|i| format!("w{i}")).collect();
//! let mut gen = LoadGen::new(LoadConfig::default(), words).unwrap();
//! let snap = gen.next_snapshot();
//! assert_eq!(snap.docs.len(), LoadConfig::default().docs_per_step);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, RngExt};
use tgs_core::TgsError;
use tgs_data::Zipf;
use tgs_engine::EngineSnapshot;
use tgs_linalg::seeded_rng;

/// Knobs of the synthetic firehose. Everything is deterministic given
/// `seed` — there is no entropy source besides it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// RNG seed; the entire stream is a pure function of it.
    pub seed: u64,
    /// User-id universe (ids are `0..users`).
    pub users: usize,
    /// Zipf exponent of user activity (larger ⇒ fewer users dominate).
    pub user_skew: f64,
    /// Zipf exponent of word choice within the pool.
    pub word_skew: f64,
    /// Documents emitted per generated snapshot.
    pub docs_per_step: usize,
    /// Tokens per document.
    pub words_per_doc: usize,
    /// Probability that a document sparks a re-tweet burst.
    pub retweet_prob: f64,
    /// Maximum re-tweets in one burst (uniform `1..=burst_len`).
    pub burst_len: usize,
    /// Word ranks rotate by this much each step, modelling vocabulary
    /// drift; 0 freezes the trending set.
    pub drift_stride: usize,
    /// Timestamp of the first snapshot.
    pub start_ts: u64,
    /// Timestamp increment between snapshots; 0 pins every snapshot to
    /// `start_ts` (they coalesce into one time bucket).
    pub ts_stride: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            users: 1_000,
            user_skew: 1.1,
            word_skew: 1.05,
            docs_per_step: 16,
            words_per_doc: 8,
            retweet_prob: 0.15,
            burst_len: 4,
            drift_stride: 3,
            start_ts: 0,
            ts_stride: 1,
        }
    }
}

impl LoadConfig {
    fn validate(&self) -> Result<(), TgsError> {
        if self.users == 0 {
            return Err(TgsError::invalid_argument("load: users must be >= 1"));
        }
        if self.docs_per_step == 0 {
            return Err(TgsError::invalid_argument(
                "load: docs_per_step must be >= 1",
            ));
        }
        if self.words_per_doc == 0 {
            return Err(TgsError::invalid_argument(
                "load: words_per_doc must be >= 1",
            ));
        }
        if !(0.0..=1.0).contains(&self.retweet_prob) {
            return Err(TgsError::invalid_argument(
                "load: retweet_prob must lie in [0, 1]",
            ));
        }
        if self.retweet_prob > 0.0 && self.burst_len == 0 {
            return Err(TgsError::invalid_argument(
                "load: burst_len must be >= 1 when retweet_prob > 0",
            ));
        }
        Ok(())
    }
}

/// Multiplicative-hash spread of a Zipf *rank* onto a user id. Without
/// it rank 0 — the most active account — would always be user 0, which
/// on a range-partitioned fleet pins the entire hot set to shard 0.
fn spread(rank: usize, users: usize) -> usize {
    // splitmix64 finalizer: a plain multiplicative hash maps rank 0 to
    // user 0 and collides badly after the modulo.
    let mut x = (rank as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % users as u64) as usize
}

/// Deterministic seeded snapshot stream; see the crate docs.
#[derive(Debug, Clone)]
pub struct LoadGen {
    config: LoadConfig,
    words: Vec<String>,
    user_zipf: Zipf,
    word_zipf: Zipf,
    rng: StdRng,
    step: usize,
}

impl LoadGen {
    /// Builds a generator over `words` (the token pool documents draw
    /// from — typically the engine's fitted vocabulary, so generated
    /// documents survive encoding). Fails on an empty pool or an
    /// out-of-domain config.
    pub fn new(config: LoadConfig, words: Vec<String>) -> Result<Self, TgsError> {
        config.validate()?;
        if words.is_empty() {
            return Err(TgsError::invalid_argument("load: word pool is empty"));
        }
        let user_zipf = Zipf::new(config.users, config.user_skew);
        let word_zipf = Zipf::new(words.len(), config.word_skew);
        let rng = seeded_rng(config.seed);
        Ok(Self {
            config,
            words,
            user_zipf,
            word_zipf,
            rng,
            step: 0,
        })
    }

    /// Snapshots generated so far.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Timestamp the *next* snapshot will carry.
    pub(crate) fn next_timestamp(&self) -> u64 {
        self.config
            .start_ts
            .saturating_add(self.config.ts_stride.saturating_mul(self.step as u64))
    }

    /// Emits the next snapshot into `snap`, reusing its allocations
    /// (pair with `try_ingest_reusable`, which hands rejected snapshots
    /// back). Documents are pre-tokenized so ingest cost is dominated
    /// by assembly and the solver, not string splitting.
    pub(crate) fn fill(&mut self, snap: &mut EngineSnapshot) {
        snap.reset(self.next_timestamp());
        let rotation = self.step.wrapping_mul(self.config.drift_stride);
        for doc in 0..self.config.docs_per_step {
            let user = spread(self.user_zipf.sample(&mut self.rng), self.config.users);
            let tokens = (0..self.config.words_per_doc)
                .map(|_| {
                    let rank = (self.word_zipf.sample(&mut self.rng) + rotation) % self.words.len();
                    self.words[rank].clone()
                })
                .collect();
            snap.push_tokens(user, tokens);
            if self.config.retweet_prob > 0.0 && self.rng.next_f64() < self.config.retweet_prob {
                let burst = self.rng.random_range(1..=self.config.burst_len);
                for _ in 0..burst {
                    let retweeter = spread(self.user_zipf.sample(&mut self.rng), self.config.users);
                    snap.push_retweet(retweeter, doc);
                }
            }
        }
        self.step += 1;
    }

    /// Emits the next snapshot into a fresh allocation.
    pub fn next_snapshot(&mut self) -> EngineSnapshot {
        let mut snap = EngineSnapshot::new(0);
        self.fill(&mut snap);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("word{i}")).collect()
    }

    #[test]
    fn config_domains_are_enforced() {
        let words = pool(8);
        for bad in [
            LoadConfig {
                users: 0,
                ..LoadConfig::default()
            },
            LoadConfig {
                docs_per_step: 0,
                ..LoadConfig::default()
            },
            LoadConfig {
                words_per_doc: 0,
                ..LoadConfig::default()
            },
            LoadConfig {
                retweet_prob: 1.5,
                ..LoadConfig::default()
            },
            LoadConfig {
                retweet_prob: 0.5,
                burst_len: 0,
                ..LoadConfig::default()
            },
        ] {
            assert!(LoadGen::new(bad, words.clone()).is_err());
        }
        assert!(LoadGen::new(LoadConfig::default(), Vec::new()).is_err());
        assert!(LoadGen::new(LoadConfig::default(), words).is_ok());
    }

    #[test]
    fn same_seed_means_same_stream() {
        let cfg = LoadConfig {
            seed: 7,
            ..LoadConfig::default()
        };
        let mut a = LoadGen::new(cfg.clone(), pool(64)).unwrap();
        let mut b = LoadGen::new(cfg, pool(64)).unwrap();
        for _ in 0..10 {
            assert_eq!(a.next_snapshot(), b.next_snapshot());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = LoadGen::new(
            LoadConfig {
                seed: 1,
                ..LoadConfig::default()
            },
            pool(64),
        )
        .unwrap();
        let mut b = LoadGen::new(
            LoadConfig {
                seed: 2,
                ..LoadConfig::default()
            },
            pool(64),
        )
        .unwrap();
        assert_ne!(a.next_snapshot(), b.next_snapshot());
    }

    #[test]
    fn timestamps_advance_by_stride() {
        let mut gen = LoadGen::new(
            LoadConfig {
                start_ts: 100,
                ts_stride: 5,
                ..LoadConfig::default()
            },
            pool(8),
        )
        .unwrap();
        assert_eq!(gen.next_snapshot().timestamp, 100);
        assert_eq!(gen.next_snapshot().timestamp, 105);
        assert_eq!(gen.next_timestamp(), 110);
    }

    #[test]
    fn fill_reuses_and_matches_fresh_allocation() {
        let cfg = LoadConfig {
            seed: 9,
            ..LoadConfig::default()
        };
        let mut a = LoadGen::new(cfg.clone(), pool(32)).unwrap();
        let mut b = LoadGen::new(cfg, pool(32)).unwrap();
        let mut reused = EngineSnapshot::new(0);
        for _ in 0..5 {
            a.fill(&mut reused);
            assert_eq!(reused, b.next_snapshot());
        }
    }

    #[test]
    fn hot_ranks_are_spread_across_the_id_space() {
        // The most active Zipf ranks must not collapse onto the low
        // user ids, or a range-partitioned fleet soaks shard 0 only.
        let users = 1_000;
        let ids: Vec<usize> = (0..8).map(|rank| spread(rank, users)).collect();
        assert!(ids.iter().any(|&u| u >= users / 2));
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() >= 6);
    }

    #[test]
    fn drift_rotates_the_trending_vocabulary() {
        let cfg = LoadConfig {
            drift_stride: 11,
            retweet_prob: 0.0,
            docs_per_step: 64,
            ..LoadConfig::default()
        };
        let mut gen = LoadGen::new(cfg, pool(256)).unwrap();
        let first = gen.next_snapshot();
        for _ in 0..20 {
            gen.next_snapshot();
        }
        let late = gen.next_snapshot();
        let toks = |s: &EngineSnapshot| -> std::collections::HashSet<String> {
            s.docs
                .iter()
                .flat_map(|d| match &d.content {
                    tgs_engine::DocContent::Tokens(t) => t.clone(),
                    tgs_engine::DocContent::Raw(_) => Vec::new(),
                })
                .collect()
        };
        let early_set = toks(&first);
        let late_set = toks(&late);
        assert!(late_set.difference(&early_set).next().is_some());
    }
}
