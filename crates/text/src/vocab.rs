//! Vocabulary construction: the feature layer `F` of the tripartite graph.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A small built-in English stopword list. Stopwords carry no sentiment
/// and would otherwise dominate the tf-idf mass of the feature layer.
pub(crate) const STOPWORDS: &[&str] = &[
    "a", "an", "the", "and", "or", "but", "if", "then", "than", "so", "of", "at", "by", "for",
    "with", "about", "into", "through", "to", "from", "in", "out", "on", "off", "over", "under",
    "again", "once", "here", "there", "all", "any", "both", "each", "few", "more", "most", "other",
    "some", "such", "no", "nor", "not", "only", "own", "same", "too", "very", "can", "will",
    "just", "is", "am", "are", "was", "were", "be", "been", "being", "have", "has", "had",
    "having", "do", "does", "did", "doing", "it", "its", "this", "that", "these", "those", "i",
    "me", "my", "we", "our", "you", "your", "he", "him", "his", "she", "her", "they", "them",
    "their", "what", "which", "who", "whom", "as", "rt", "via",
];

/// Options controlling which tokens become vocabulary features.
#[derive(Debug, Clone)]
pub struct VocabConfig {
    /// Drop features observed fewer than this many times in total.
    pub min_count: usize,
    /// Keep at most this many features (highest total count wins; ties
    /// break lexicographically for determinism). `0` disables the cap.
    pub max_features: usize,
    /// Remove stopwords.
    pub remove_stopwords: bool,
}

impl Default for VocabConfig {
    fn default() -> Self {
        Self {
            min_count: 2,
            max_features: 0,
            remove_stopwords: true,
        }
    }
}

/// A frozen token → feature-id mapping.
///
/// Feature ids are dense `0..len()` and stable for a given input corpus
/// and configuration (insertion-independent: ids are assigned after
/// sorting by `(count desc, token asc)`).
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    index: HashMap<String, usize>,
    tokens: Vec<String>,
    counts: Vec<u64>,
}

impl Vocabulary {
    /// Builds a vocabulary from an iterator of documents (each a slice of
    /// feature strings).
    pub fn build<'a, D, I>(docs: D, config: &VocabConfig) -> Self
    where
        D: IntoIterator<Item = I>,
        I: IntoIterator<Item = &'a str>,
    {
        // Count through `get_mut` so only a token's first occurrence
        // allocates its key (`entry` would need an owned `String` for
        // every occurrence).
        let mut counts: HashMap<String, u64> = HashMap::new();
        for doc in docs {
            for tok in doc {
                match counts.get_mut(tok) {
                    Some(c) => *c += 1,
                    None => {
                        counts.insert(tok.to_owned(), 1);
                    }
                }
            }
        }
        if config.remove_stopwords {
            for sw in STOPWORDS {
                counts.remove(*sw);
            }
        }
        let mut entries: Vec<(String, u64)> = counts
            .into_iter()
            .filter(|&(_, c)| c as usize >= config.min_count)
            .collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if config.max_features > 0 {
            entries.truncate(config.max_features);
        }
        let mut vocab = Vocabulary::default();
        for (tok, c) in entries {
            vocab.index.insert(tok.clone(), vocab.tokens.len());
            vocab.tokens.push(tok);
            vocab.counts.push(c);
        }
        vocab
    }

    /// Builds a vocabulary directly from a list of unique tokens (used by
    /// the synthetic generator where the token set is known).
    pub fn from_tokens<S: Into<String>>(tokens: impl IntoIterator<Item = S>) -> Self {
        let mut vocab = Vocabulary::default();
        for tok in tokens {
            if let Entry::Vacant(slot) = vocab.index.entry(tok.into()) {
                let id = vocab.tokens.len();
                vocab.tokens.push(slot.key().clone());
                vocab.counts.push(0);
                slot.insert(id);
            }
        }
        vocab
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no features are present.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Feature id of `token`, if in the vocabulary.
    pub fn id(&self, token: &str) -> Option<usize> {
        self.index.get(token).copied()
    }

    /// Token string of feature `id`.
    pub fn token(&self, id: usize) -> &str {
        &self.tokens[id]
    }

    /// Total corpus count of feature `id` at build time.
    pub fn count(&self, id: usize) -> u64 {
        self.counts[id]
    }

    /// All tokens in id order.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// Maps a document to feature ids, dropping out-of-vocabulary tokens.
    pub fn encode<'a>(&self, doc: impl IntoIterator<Item = &'a str>) -> Vec<usize> {
        let mut out = Vec::new();
        self.encode_into(doc, &mut out);
        out
    }

    /// Buffer-reusing variant of [`Vocabulary::encode`]: clears `out`
    /// and fills it with the known-token ids. Lets ingest paths reuse
    /// per-document id buffers across snapshots.
    pub fn encode_into<'a>(&self, doc: impl IntoIterator<Item = &'a str>, out: &mut Vec<usize>) {
        out.clear();
        out.extend(doc.into_iter().filter_map(|t| self.id(t)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<Vec<&'static str>> {
        vec![
            vec!["gmo", "labeling", "is", "good", "#yeson37"],
            vec!["gmo", "crops", "safe", "#noprop37"],
            vec!["gmo", "labeling", "#yeson37", "#yeson37"],
        ]
    }

    #[test]
    fn build_counts_and_orders_by_frequency() {
        let v = Vocabulary::build(
            docs().iter().map(|d| d.iter().copied()),
            &VocabConfig {
                min_count: 1,
                max_features: 0,
                remove_stopwords: true,
            },
        );
        // "is" removed as stopword; "gmo" (3) and "#yeson37" (3) lead.
        assert!(v.id("is").is_none());
        assert_eq!(v.token(0), "#yeson37"); // count 3, ties broken lexicographically
        assert_eq!(v.token(1), "gmo");
        assert_eq!(v.count(0), 3);
    }

    #[test]
    fn min_count_filters_rare_tokens() {
        let v = Vocabulary::build(
            docs().iter().map(|d| d.iter().copied()),
            &VocabConfig {
                min_count: 2,
                max_features: 0,
                remove_stopwords: true,
            },
        );
        assert!(v.id("crops").is_none());
        assert!(v.id("labeling").is_some());
    }

    #[test]
    fn max_features_caps_size() {
        let v = Vocabulary::build(
            docs().iter().map(|d| d.iter().copied()),
            &VocabConfig {
                min_count: 1,
                max_features: 2,
                remove_stopwords: true,
            },
        );
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn encode_drops_oov() {
        let v = Vocabulary::build(
            docs().iter().map(|d| d.iter().copied()),
            &VocabConfig {
                min_count: 2,
                max_features: 0,
                remove_stopwords: true,
            },
        );
        let ids = v.encode(["gmo", "unknowntoken", "labeling"]);
        assert_eq!(ids.len(), 2);
        assert_eq!(v.token(ids[0]), "gmo");
    }

    #[test]
    fn from_tokens_dedups_and_preserves_order() {
        let v = Vocabulary::from_tokens(["b", "a", "b"]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.id("b"), Some(0));
        assert_eq!(v.id("a"), Some(1));
    }

    #[test]
    fn deterministic_ids_across_builds() {
        let a = Vocabulary::build(
            docs().iter().map(|d| d.iter().copied()),
            &VocabConfig::default(),
        );
        let b = Vocabulary::build(
            docs().iter().map(|d| d.iter().copied()),
            &VocabConfig::default(),
        );
        assert_eq!(a.tokens(), b.tokens());
    }
}
