//! Corpus statistics backing Tables 2–3 and Figs. 4, 11(a), 12(a).

use std::collections::HashMap;

use tgs_text::Sentiment;

use crate::model::Corpus;

/// Counts mirroring the paper's Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusStats {
    /// Labeled positive tweets.
    pub labeled_pos_tweets: usize,
    /// Labeled negative tweets.
    pub labeled_neg_tweets: usize,
    /// Unlabeled tweets.
    pub(crate) unlabeled_tweets: usize,
    /// Labeled positive users.
    pub labeled_pos_users: usize,
    /// Labeled negative users.
    pub labeled_neg_users: usize,
    /// Labeled neutral users.
    pub labeled_neu_users: usize,
    /// Unlabeled users.
    pub unlabeled_users: usize,
    /// Total tweets.
    pub total_tweets: usize,
    /// Total users.
    pub total_users: usize,
    /// Total re-tweet events.
    pub total_retweets: usize,
}

/// Computes [`CorpusStats`].
pub fn corpus_stats(corpus: &Corpus) -> CorpusStats {
    let mut s = CorpusStats {
        labeled_pos_tweets: 0,
        labeled_neg_tweets: 0,
        unlabeled_tweets: 0,
        labeled_pos_users: 0,
        labeled_neg_users: 0,
        labeled_neu_users: 0,
        unlabeled_users: 0,
        total_tweets: corpus.num_tweets(),
        total_users: corpus.num_users(),
        total_retweets: corpus.retweets.len(),
    };
    for t in &corpus.tweets {
        match t.label {
            Some(Sentiment::Positive) => s.labeled_pos_tweets += 1,
            Some(Sentiment::Negative) => s.labeled_neg_tweets += 1,
            _ => s.unlabeled_tweets += 1,
        }
    }
    for u in &corpus.users {
        match u.label {
            Some(Sentiment::Positive) => s.labeled_pos_users += 1,
            Some(Sentiment::Negative) => s.labeled_neg_users += 1,
            Some(Sentiment::Neutral) => s.labeled_neu_users += 1,
            None => s.unlabeled_users += 1,
        }
    }
    s
}

/// Top-`k` tokens by raw frequency among tweets of a ground-truth class
/// (Table 2). Ties break lexicographically for determinism.
pub fn top_words(corpus: &Corpus, class: Sentiment, k: usize) -> Vec<(String, usize)> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for t in &corpus.tweets {
        if t.sentiment == class {
            for tok in &t.tokens {
                *counts.entry(tok.as_str()).or_insert(0) += 1;
            }
        }
    }
    let mut entries: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(w, c)| (w.to_string(), c))
        .collect();
    entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    entries.truncate(k);
    entries
}

/// Token frequencies within a day range `[lo, hi)` (Fig. 4's per-period
/// feature distributions). Returned in descending frequency order.
pub fn period_feature_frequencies(corpus: &Corpus, lo: u32, hi: u32) -> Vec<(String, usize)> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for t in &corpus.tweets {
        if (lo..hi).contains(&t.day) {
            for tok in &t.tokens {
                *counts.entry(tok.as_str()).or_insert(0) += 1;
            }
        }
    }
    let mut entries: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(w, c)| (w.to_string(), c))
        .collect();
    entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    entries
}

/// Tweets per day, `n(t)` (the right axes of Figs. 11a / 12a).
pub fn daily_tweet_counts(corpus: &Corpus) -> Vec<usize> {
    let mut counts = vec![0usize; corpus.num_days as usize];
    for t in &corpus.tweets {
        counts[t.day as usize] += 1;
    }
    counts
}

/// Fraction of users whose stance flips during the period.
pub fn flip_fraction(corpus: &Corpus) -> f64 {
    if corpus.users.is_empty() {
        return 0.0;
    }
    let flips = corpus.users.iter().filter(|u| u.trajectory.flips()).count();
    flips as f64 / corpus.num_users() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeneratorConfig;
    use crate::generator::generate;

    fn corpus() -> Corpus {
        generate(&GeneratorConfig {
            num_users: 30,
            total_tweets: 300,
            num_days: 15,
            ..Default::default()
        })
    }

    #[test]
    fn stats_add_up() {
        let c = corpus();
        let s = corpus_stats(&c);
        assert_eq!(
            s.labeled_pos_tweets + s.labeled_neg_tweets + s.unlabeled_tweets,
            s.total_tweets
        );
        assert_eq!(
            s.labeled_pos_users + s.labeled_neg_users + s.labeled_neu_users + s.unlabeled_users,
            s.total_users
        );
        assert!(s.labeled_pos_tweets > 0);
    }

    #[test]
    fn top_words_reflect_stance_pools() {
        let c = corpus();
        let pos = top_words(&c, Sentiment::Positive, 8);
        assert_eq!(pos.len(), 8);
        // Counts must be descending.
        for w in pos.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The positive class's frequent words should rarely be negative
        // stance words.
        let neg_heavy = pos
            .iter()
            .filter(|(w, _)| w.starts_with("gloomy") || w == "corn" || w == "#noprop37")
            .count();
        assert!(
            neg_heavy <= 2,
            "negative stance words leaked into positive top-8"
        );
    }

    #[test]
    fn daily_counts_sum_to_total() {
        let c = corpus();
        let counts = daily_tweet_counts(&c);
        assert_eq!(counts.len(), 15);
        assert_eq!(counts.iter().sum::<usize>(), c.num_tweets());
    }

    #[test]
    fn period_frequencies_differ_between_periods() {
        let c = corpus();
        let early = period_feature_frequencies(&c, 0, 5);
        let late = period_feature_frequencies(&c, 10, 15);
        assert!(!early.is_empty() && !late.is_empty());
        // Vocabulary drift ⇒ the top token sets differ at least somewhat.
        let early_top: std::collections::HashSet<&str> =
            early.iter().take(20).map(|(w, _)| w.as_str()).collect();
        let late_top: std::collections::HashSet<&str> =
            late.iter().take(20).map(|(w, _)| w.as_str()).collect();
        assert!(early_top != late_top || early.len() != late.len());
    }

    #[test]
    fn flip_fraction_in_expected_range() {
        let c = corpus();
        let f = flip_fraction(&c);
        assert!((0.0..0.3).contains(&f), "flip fraction {f}");
    }
}
