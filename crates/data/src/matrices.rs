//! Assembling tri-clustering problem instances (offline and per-snapshot)
//! from a corpus.

use tgs_graph::{build_interactions, Interaction, UserGraph};
use tgs_linalg::{CsrMatrix, DenseMatrix};
use tgs_text::{doc_feature_matrix, user_feature_matrix, PipelineConfig, Vocabulary, Weighting};

use crate::model::Corpus;

/// A complete offline problem instance: every matrix Eq. (1) consumes,
/// plus ground truth and labels for evaluation.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    /// Frozen vocabulary over the whole corpus.
    pub vocab: Vocabulary,
    /// Tweet–feature matrix (`n × l`).
    pub xp: CsrMatrix,
    /// User–feature matrix (`m × l`).
    pub xu: CsrMatrix,
    /// User–tweet matrix (`m × n`).
    pub xr: CsrMatrix,
    /// User–user re-tweet graph (`Gu`, `Du`).
    pub graph: UserGraph,
    /// Feature–sentiment prior (`l × k`).
    pub sf0: DenseMatrix,
    /// Encoded tweets (feature ids), for the baselines.
    pub encoded: Vec<Vec<usize>>,
    /// Ground-truth tweet classes.
    pub tweet_truth: Vec<usize>,
    /// Tweet labels visible to supervised methods.
    pub tweet_labels: Vec<Option<usize>>,
    /// Ground-truth user classes (majority stance).
    pub user_truth: Vec<usize>,
    /// User labels visible to (semi-)supervised methods.
    pub user_labels: Vec<Option<usize>>,
}

/// Builds the offline instance over the full corpus.
pub fn build_offline(corpus: &Corpus, k: usize, config: &PipelineConfig) -> ProblemInstance {
    let doc_user: Vec<usize> = corpus.tweets.iter().map(|t| t.author).collect();
    let docs: Vec<Vec<String>> = corpus.tweets.iter().map(|t| t.tokens.clone()).collect();
    let text = tgs_text::build_from_tokens(
        &docs,
        &doc_user,
        corpus.num_users(),
        &corpus.lexicon,
        k,
        config,
    );
    let (xr, graph) = interactions(corpus);
    ProblemInstance {
        vocab: text.vocab,
        xp: text.xp,
        xu: text.xu,
        xr,
        graph,
        sf0: text.sf0,
        encoded: text.encoded,
        tweet_truth: corpus.tweet_truth(),
        tweet_labels: corpus.tweet_labels(),
        user_truth: corpus.user_truth(),
        user_labels: corpus.user_labels(),
    }
}

fn interactions(corpus: &Corpus) -> (CsrMatrix, UserGraph) {
    let mut events = Vec::with_capacity(corpus.num_tweets() + corpus.retweets.len());
    for t in &corpus.tweets {
        events.push(Interaction::Post {
            user: t.author,
            tweet: t.id,
        });
    }
    for r in &corpus.retweets {
        events.push(Interaction::Retweet {
            user: r.user,
            tweet: r.tweet,
            author: corpus.tweets[r.tweet].author,
        });
    }
    build_interactions(corpus.num_users(), corpus.num_tweets(), &events)
}

/// The matrix bundle of one snapshot: everything [`assemble_snapshot_matrices`]
/// produces from encoded documents.
#[derive(Debug, Clone)]
pub struct SnapshotMatrices {
    /// Tweet–feature matrix (`n × l`).
    pub xp: CsrMatrix,
    /// User–feature matrix (`m × l`).
    pub xu: CsrMatrix,
    /// User–tweet matrix (`m × n`).
    pub xr: CsrMatrix,
    /// Snapshot re-tweet graph over local user indices.
    pub graph: UserGraph,
}

/// Assembles one snapshot's tripartite matrices from already-encoded
/// documents over a frozen global vocabulary — the single pipeline shared
/// by [`SnapshotBuilder::snapshot`] and the `tgs-engine` ingest worker,
/// so snapshot semantics (vectorization, `Xr` links) cannot
/// drift between the batch and streaming paths.
///
/// * `encoded[i]` — feature ids of document `i`;
/// * `doc_authors[i]` — *local* (dense `0..num_users`) id of its author;
/// * `retweets` — `(local re-tweeting user, document index)` pairs.
pub fn assemble_snapshot_matrices(
    vocab: &Vocabulary,
    encoded: &[Vec<usize>],
    doc_authors: &[usize],
    num_users: usize,
    retweets: &[(usize, usize)],
    weighting: Weighting,
) -> SnapshotMatrices {
    let xp = doc_feature_matrix(encoded, vocab.len(), weighting);
    let xu = user_feature_matrix(&xp, doc_authors, num_users);
    let mut events = Vec::with_capacity(encoded.len() + retweets.len());
    for (doc, &author) in doc_authors.iter().enumerate() {
        events.push(Interaction::Post {
            user: author,
            tweet: doc,
        });
    }
    for &(user, doc) in retweets {
        events.push(Interaction::Retweet {
            user,
            tweet: doc,
            author: doc_authors[doc],
        });
    }
    let (xr, graph) = build_interactions(num_users, encoded.len(), &events);
    SnapshotMatrices { xp, xu, xr, graph }
}

/// A per-snapshot instance for the online setting. Rows of `xp`/`xu`
/// cover only the snapshot's tweets/users, while the *feature* dimension
/// stays the global vocabulary so factor matrices align across time.
#[derive(Debug, Clone)]
pub struct SnapshotInstance {
    /// Global tweet ids, in row order of `xp`.
    pub tweet_ids: Vec<usize>,
    /// Global user ids, in row order of `xu` / `xr`.
    pub user_ids: Vec<usize>,
    /// Tweet–feature matrix (`n(t) × l`).
    pub xp: CsrMatrix,
    /// User–feature matrix (`m(t) × l`).
    pub xu: CsrMatrix,
    /// User–tweet matrix (`m(t) × n(t)`).
    pub xr: CsrMatrix,
    /// Snapshot re-tweet graph over local user indices.
    pub graph: UserGraph,
    /// Ground-truth tweet classes (parallel to `tweet_ids`).
    pub tweet_truth: Vec<usize>,
    /// Ground-truth user stances *during this snapshot* (parallel to
    /// `user_ids`).
    pub user_truth: Vec<usize>,
}

/// Builds [`SnapshotInstance`]s against a fixed global vocabulary.
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    vocab: Vocabulary,
    sf0: DenseMatrix,
    config: PipelineConfig,
}

impl SnapshotBuilder {
    /// Fits the global vocabulary and lexicon prior on the full corpus.
    pub fn new(corpus: &Corpus, k: usize, config: &PipelineConfig) -> Self {
        let vocab = Vocabulary::build(
            corpus
                .tweets
                .iter()
                .map(|t| t.tokens.iter().map(String::as_str)),
            &config.vocab,
        );
        let sf0 = corpus
            .lexicon
            .prior_matrix(&vocab, k, config.lexicon_confidence);
        Self {
            vocab,
            sf0,
            config: config.clone(),
        }
    }

    /// The `l × k` lexicon prior (shared across snapshots).
    pub fn sf0(&self) -> &DenseMatrix {
        &self.sf0
    }

    /// Builds the instance for days `lo..hi`.
    pub fn snapshot(&self, corpus: &Corpus, lo: u32, hi: u32) -> SnapshotInstance {
        self.snapshot_with(corpus, lo, hi, &mut SnapshotScratch::default())
    }

    /// Buffer-reusing variant of [`SnapshotBuilder::snapshot`]: the
    /// per-document encode buffers live in `scratch` and are recycled
    /// across calls, so a stream driver building one snapshot per day
    /// stops allocating a fresh id `Vec` per document once warm.
    pub(crate) fn snapshot_with(
        &self,
        corpus: &Corpus,
        lo: u32,
        hi: u32,
        scratch: &mut SnapshotScratch,
    ) -> SnapshotInstance {
        let tweet_ids = corpus.tweets_in_days(lo, hi);
        let tweet_local: std::collections::HashMap<usize, usize> = tweet_ids
            .iter()
            .enumerate()
            .map(|(local, &id)| (id, local))
            .collect();

        // Users present: authors of snapshot tweets + snapshot re-tweeters.
        let mut present = vec![false; corpus.num_users()];
        for &tid in &tweet_ids {
            present[corpus.tweets[tid].author] = true;
        }
        let snapshot_retweets: Vec<&crate::model::Retweet> = corpus
            .retweets
            .iter()
            .filter(|r| (lo..hi).contains(&r.day) && tweet_local.contains_key(&r.tweet))
            .collect();
        for r in &snapshot_retweets {
            present[r.user] = true;
        }
        let user_ids: Vec<usize> = (0..corpus.num_users()).filter(|&u| present[u]).collect();
        let user_local: std::collections::HashMap<usize, usize> = user_ids
            .iter()
            .enumerate()
            .map(|(local, &id)| (id, local))
            .collect();

        // Text + interaction matrices over the *global* vocabulary,
        // through the shared assembly pipeline (encode buffers recycled
        // via `scratch`).
        let n = tweet_ids.len();
        // Grow-only: buffers beyond `n` are kept (high-water reuse),
        // the assembly below reads exactly `..n`.
        if scratch.encoded.len() < n {
            scratch.encoded.resize_with(n, Vec::new);
        }
        for (&tid, ids) in tweet_ids.iter().zip(scratch.encoded.iter_mut()) {
            self.vocab
                .encode_into(corpus.tweets[tid].tokens.iter().map(String::as_str), ids);
        }
        let doc_user_local: Vec<usize> = tweet_ids
            .iter()
            .map(|&tid| user_local[&corpus.tweets[tid].author])
            .collect();
        let retweet_pairs: Vec<(usize, usize)> = snapshot_retweets
            .iter()
            .map(|r| (user_local[&r.user], tweet_local[&r.tweet]))
            .collect();
        let SnapshotMatrices { xp, xu, xr, graph } = assemble_snapshot_matrices(
            &self.vocab,
            &scratch.encoded[..n],
            &doc_user_local,
            user_ids.len(),
            &retweet_pairs,
            self.config.weighting,
        );

        let mid_day = lo + (hi.saturating_sub(lo + 1)) / 2;
        let tweet_truth = tweet_ids
            .iter()
            .map(|&tid| corpus.tweets[tid].sentiment.index())
            .collect();
        let user_truth = user_ids
            .iter()
            .map(|&u| corpus.users[u].trajectory.stance_at(mid_day).index())
            .collect();
        SnapshotInstance {
            tweet_ids,
            user_ids,
            xp,
            xu,
            xr,
            graph,
            tweet_truth,
            user_truth,
        }
    }
}

/// Reusable encode buffers for [`SnapshotBuilder::snapshot_with`]: the
/// per-document id buffers are recycled across snapshots (only growth
/// beyond previous high-water marks allocates).
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotScratch {
    encoded: Vec<Vec<usize>>,
}

/// Enumerates `[lo, hi)` windows of `window` days covering `0..num_days`.
pub fn day_windows(num_days: u32, window: u32) -> Vec<(u32, u32)> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < num_days {
        out.push((lo, (lo + window).min(num_days)));
        lo += window;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeneratorConfig;
    use crate::generator::generate;

    fn corpus() -> Corpus {
        generate(&GeneratorConfig {
            num_users: 25,
            total_tweets: 200,
            num_days: 12,
            ..Default::default()
        })
    }

    fn pipeline() -> PipelineConfig {
        let mut cfg = PipelineConfig::paper_defaults();
        cfg.vocab.min_count = 1;
        cfg
    }

    #[test]
    fn offline_instance_shapes_consistent() {
        let c = corpus();
        let inst = build_offline(&c, 3, &pipeline());
        let (n, m, l) = (c.num_tweets(), c.num_users(), inst.vocab.len());
        assert_eq!(inst.xp.shape(), (n, l));
        assert_eq!(inst.xu.shape(), (m, l));
        assert_eq!(inst.xr.shape(), (m, n));
        assert_eq!(inst.graph.num_nodes(), m);
        assert_eq!(inst.sf0.shape(), (l, 3));
        assert_eq!(inst.tweet_truth.len(), n);
        assert_eq!(inst.user_truth.len(), m);
    }

    #[test]
    fn xr_contains_posting_edges() {
        let c = corpus();
        let inst = build_offline(&c, 3, &pipeline());
        for t in c.tweets.iter().take(20) {
            assert!(
                inst.xr.get(t.author, t.id) > 0.0,
                "missing post edge for tweet {}",
                t.id
            );
        }
    }

    #[test]
    fn day_windows_cover_everything() {
        assert_eq!(day_windows(10, 3), vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(day_windows(4, 4), vec![(0, 4)]);
        let total: u32 = day_windows(130, 7).iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 130);
    }

    #[test]
    fn snapshots_partition_tweets() {
        let c = corpus();
        let builder = SnapshotBuilder::new(&c, 3, &pipeline());
        let mut seen = 0usize;
        for (lo, hi) in day_windows(c.num_days, 3) {
            let snap = builder.snapshot(&c, lo, hi);
            seen += snap.tweet_ids.len();
            assert_eq!(snap.xp.rows(), snap.tweet_ids.len());
            assert_eq!(snap.xp.cols(), builder.sf0().rows());
            assert_eq!(snap.xu.rows(), snap.user_ids.len());
            assert_eq!(snap.xr.shape(), (snap.user_ids.len(), snap.tweet_ids.len()));
            assert_eq!(snap.tweet_truth.len(), snap.tweet_ids.len());
            assert_eq!(snap.user_truth.len(), snap.user_ids.len());
        }
        assert_eq!(seen, c.num_tweets());
    }

    #[test]
    fn snapshot_users_author_their_tweets() {
        let c = corpus();
        let builder = SnapshotBuilder::new(&c, 3, &pipeline());
        let snap = builder.snapshot(&c, 0, 6);
        for (local, &tid) in snap.tweet_ids.iter().enumerate() {
            let author = c.tweets[tid].author;
            let local_user = snap
                .user_ids
                .iter()
                .position(|&u| u == author)
                .expect("author present");
            assert!(snap.xr.get(local_user, local) > 0.0);
        }
    }

    #[test]
    fn snapshot_vocab_shared_across_windows() {
        let c = corpus();
        let builder = SnapshotBuilder::new(&c, 3, &pipeline());
        let a = builder.snapshot(&c, 0, 4);
        let b = builder.snapshot(&c, 4, 8);
        assert_eq!(a.xp.cols(), b.xp.cols());
        assert_eq!(builder.sf0().shape(), (a.xp.cols(), 3));
    }
}
