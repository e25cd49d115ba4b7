//! Owned snapshot payloads the engine ingests.
//!
//! An [`EngineSnapshot`] is everything one time slice contributes to the
//! stream: documents (raw text or pre-tokenized), their authors (as
//! *global* user ids — they need not be dense), and within-slice re-tweet
//! events. The engine tokenizes, vectorizes and assembles the tripartite
//! matrices internally, so producers never touch `TriInput` or the
//! solver.

use tgs_data::Corpus;

/// One document's content: either raw text (tokenized by the engine with
/// its configured [`tgs_text::TokenizerConfig`]) or pre-tokenized
/// features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocContent {
    /// Raw tweet text; the engine tokenizes at ingest time.
    Raw(String),
    /// Already-normalized feature tokens.
    Tokens(Vec<String>),
}

/// A document plus its author.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineDoc {
    /// Global id of the authoring user (sparse ids are fine).
    pub user: usize,
    /// The document content.
    pub content: DocContent,
}

impl EngineDoc {
    /// A document from raw text.
    pub(crate) fn from_text(user: usize, text: impl Into<String>) -> Self {
        Self {
            user,
            content: DocContent::Raw(text.into()),
        }
    }

    /// A document from pre-tokenized features.
    pub(crate) fn from_tokens(user: usize, tokens: Vec<String>) -> Self {
        Self {
            user,
            content: DocContent::Tokens(tokens),
        }
    }
}

/// A re-tweet event within the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineRetweet {
    /// Global id of the re-tweeting user.
    pub user: usize,
    /// Index into [`EngineSnapshot::docs`] of the re-tweeted document.
    pub doc: usize,
}

/// One time slice of the stream, ready for [`ingest`].
///
/// [`ingest`]: crate::SentimentEngine::ingest
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineSnapshot {
    /// The snapshot's timestamp (day index, epoch second — any monotone
    /// key). Queries and the snapshot store are keyed by this value.
    /// Each timestamp may be ingested once: the solver's temporal state
    /// is append-only, so re-ingesting an already-processed timestamp is
    /// rejected (surfaced on the next `flush`) instead of silently
    /// double-weighting that slice in the decayed windows.
    pub timestamp: u64,
    /// The snapshot's documents.
    pub docs: Vec<EngineDoc>,
    /// Re-tweet events among [`EngineSnapshot::docs`].
    pub retweets: Vec<EngineRetweet>,
    /// Ghost seeds (multi-shard ghost-user protocol): `(global user,
    /// carried sentiment factor)` for users of *other* shards who appear
    /// here only through a cross-shard re-tweet edge. Ghost rows
    /// warm-start from (and are regularized toward) the carried factor
    /// and are excluded from this engine's per-user history — the owning
    /// shard records them. Producers ingesting directly into a
    /// [`crate::SentimentEngine`] leave this empty; the
    /// [`crate::ShardedEngine`] router fills it during fan-out.
    pub ghosts: Vec<(usize, Vec<f64>)>,
}

impl EngineSnapshot {
    /// An empty snapshot at `timestamp`.
    pub fn new(timestamp: u64) -> Self {
        Self {
            timestamp,
            ..Default::default()
        }
    }

    /// Appends a raw-text document, returning its index.
    pub fn push_text(&mut self, user: usize, text: impl Into<String>) -> usize {
        self.docs.push(EngineDoc::from_text(user, text));
        self.docs.len() - 1
    }

    /// Appends a pre-tokenized document, returning its index.
    pub fn push_tokens(&mut self, user: usize, tokens: Vec<String>) -> usize {
        self.docs.push(EngineDoc::from_tokens(user, tokens));
        self.docs.len() - 1
    }

    /// Records that `user` re-tweeted document `doc`.
    pub fn push_retweet(&mut self, user: usize, doc: usize) {
        self.retweets.push(EngineRetweet { user, doc });
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the snapshot carries no documents (the engine skips such
    /// snapshots without recording a step).
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Clears the payload and re-stamps the snapshot — buffer reuse for
    /// producers that recycle one snapshot allocation across a stream
    /// (the outer `docs` / `retweets` vectors keep their capacity).
    pub fn reset(&mut self, timestamp: u64) {
        self.timestamp = timestamp;
        self.docs.clear();
        self.retweets.clear();
        self.ghosts.clear();
    }

    /// Appends `other`'s payload onto this snapshot — the coalescing step
    /// behind [`crate::BatchingIngest`]. Documents concatenate; re-tweet
    /// doc indices shift by this snapshot's prior document count so they
    /// keep pointing at their own documents; ghost seeds concatenate.
    /// `self.timestamp` is kept: the batch is stamped by its bucket, not
    /// by the micro-snapshots folded into it. By construction the result
    /// is exactly the snapshot a producer would have built by pushing
    /// both payloads in sequence — which is what makes a batched step
    /// bit-identical to ingesting the pre-concatenated snapshot.
    pub fn merge(&mut self, other: EngineSnapshot) {
        let offset = self.docs.len();
        self.docs.extend(other.docs);
        self.retweets
            .extend(other.retweets.into_iter().map(|r| EngineRetweet {
                user: r.user,
                doc: r.doc + offset,
            }));
        self.ghosts.extend(other.ghosts);
    }

    /// Builds the snapshot for days `lo..hi` of a corpus, timestamped by
    /// `lo`. Tweets arrive pre-tokenized; re-tweets inside the window are
    /// included when their target tweet is too.
    pub fn from_corpus_window(corpus: &Corpus, lo: u32, hi: u32) -> Self {
        let tweet_ids = corpus.tweets_in_days(lo, hi);
        let local: std::collections::HashMap<usize, usize> = tweet_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let docs = tweet_ids
            .iter()
            .map(|&tid| {
                let t = &corpus.tweets[tid];
                EngineDoc::from_tokens(t.author, t.tokens.clone())
            })
            .collect();
        let retweets = corpus
            .retweets
            .iter()
            .filter(|r| (lo..hi).contains(&r.day))
            .filter_map(|r| {
                local
                    .get(&r.tweet)
                    .map(|&doc| EngineRetweet { user: r.user, doc })
            })
            .collect();
        Self {
            timestamp: lo as u64,
            docs,
            retweets,
            ghosts: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_data::{generate, GeneratorConfig};

    #[test]
    fn corpus_window_maps_retweets_to_local_docs() {
        let corpus = generate(&GeneratorConfig {
            num_users: 20,
            total_tweets: 120,
            num_days: 6,
            ..Default::default()
        });
        let snap = EngineSnapshot::from_corpus_window(&corpus, 0, 3);
        assert_eq!(snap.timestamp, 0);
        assert!(!snap.is_empty());
        for r in &snap.retweets {
            assert!(r.doc < snap.len(), "retweet must reference a local doc");
        }
    }

    #[test]
    fn builders_accumulate() {
        let mut s = EngineSnapshot::new(7);
        let d0 = s.push_text(3, "yes on 30 #prop30");
        let d1 = s.push_tokens(5, vec!["no".into(), "taxes".into()]);
        s.push_retweet(9, d0);
        assert_eq!((d0, d1), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.retweets, vec![EngineRetweet { user: 9, doc: 0 }]);
    }
}
