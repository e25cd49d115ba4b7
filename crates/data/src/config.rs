//! Generator configuration.

/// Sizes of the four word pools making up the synthetic vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct PoolSizes {
    /// Positive-stance words (e.g. `#yeson37`, `labelgmo`).
    pub(crate) positive: usize,
    /// Negative-stance words (e.g. `#noprop37`, `corn`).
    pub(crate) negative: usize,
    /// Topic words shared by all stances (e.g. `gmo`, `ballot`).
    pub(crate) topic: usize,
    /// Generic chatter words with no topical or sentiment signal.
    pub(crate) noise: usize,
}

/// A Gaussian bump added to the daily tweet-volume curve (models the
/// Sep 1 surge and the Nov 6 election spike of Figs. 11–12).
#[derive(Debug, Clone, Copy)]
pub struct VolumeBurst {
    /// Center day of the burst.
    pub(crate) day: u32,
    /// Peak multiplier relative to the base volume.
    pub(crate) amplitude: f64,
    /// Gaussian width in days.
    pub(crate) width: f64,
}

/// Full configuration of the synthetic corpus generator.
///
/// The defaults produce a small, fast corpus; the presets in
/// [`crate::presets`] mirror the paper's Prop 30 / Prop 37 datasets.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Topic tag recorded on the corpus.
    pub topic: String,
    /// Master RNG seed; every derived random choice is deterministic.
    pub seed: u64,
    /// Number of users.
    pub num_users: usize,
    /// Total number of tweets over the whole period.
    pub total_tweets: usize,
    /// Number of days covered.
    pub num_days: u32,
    /// User stance priors `[pos, neg, neu]`; must sum to ~1.
    pub class_priors: [f64; 3],
    /// Fraction of users whose stance flips once (Observation 2 keeps
    /// this small).
    pub flip_fraction: f64,
    /// Zipf exponent of the user-activity distribution (long tail:
    /// larger ⇒ more super-active users).
    pub user_activity_exponent: f64,
    /// Inclusive token-count range of a tweet.
    pub tweet_len: (usize, usize),
    /// Probability a token is drawn from the tweet's stance pool.
    pub class_token_prob: f64,
    /// Probability a token is drawn from the shared topic pool.
    pub topic_token_prob: f64,
    /// When drawing a stance token, probability it comes from the
    /// *opposite* stance pool instead (sarcasm, quoting, rebuttals —
    /// keeps word-based classifiers honest: "Monsanto is pure evil" is a
    /// positive-stance tweet full of negative words).
    pub stance_confusion: f64,
    /// Probability a tweet's sentiment deviates from its author's current
    /// stance (tweet-level noise; what makes naive aggregation fail).
    pub tweet_noise: f64,
    /// Expected re-tweets per tweet (Poisson).
    pub retweets_per_tweet: f64,
    /// Probability a re-tweeter shares the tweet author's stance
    /// (Smith et al.: re-tweet relations are strongly homophilous).
    pub retweet_homophily: f64,
    /// Fraction of stance-pool words included in the auto-built lexicon.
    pub lexicon_coverage: f64,
    /// Fraction of lexicon entries assigned the *wrong* class
    /// (auto-built lexicons are noisy).
    pub lexicon_error: f64,
    /// Fraction of pos/neg tweets carrying a visible label.
    pub labeled_tweet_fraction: f64,
    /// Fraction of users carrying a visible label.
    pub labeled_user_fraction: f64,
    /// Word-pool sizes.
    pub pools: PoolSizes,
    /// Zipf exponent of within-pool word frequencies.
    pub word_zipf_exponent: f64,
    /// Bursts on the daily volume curve.
    pub bursts: Vec<VolumeBurst>,
    /// Per-class activity multiplier `[pos, neg, neu]`. Real campaigns
    /// have activist asymmetry — Prop 37's labeled tweets are 93% positive
    /// while its labeled users are only 83% positive, i.e. positive users
    /// tweet disproportionately more.
    pub class_activity_boost: [f64; 3],
    /// Fraction of users with a partial activity window (drives the
    /// new/disappeared user dynamics of the online setting).
    pub churn: f64,
    /// Strength of vocabulary drift over time in `[0, 1]`
    /// (0 = static vocabulary; larger values sharpen each word's
    /// temporal popularity envelope — Observation 1 / Fig. 4).
    pub vocabulary_drift: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            topic: "demo".into(),
            seed: 42,
            num_users: 60,
            total_tweets: 600,
            num_days: 20,
            class_priors: [0.45, 0.3, 0.25],
            flip_fraction: 0.05,
            user_activity_exponent: 0.7,
            tweet_len: (6, 14),
            class_token_prob: 0.35,
            topic_token_prob: 0.35,
            stance_confusion: 0.10,
            tweet_noise: 0.12,
            retweets_per_tweet: 0.6,
            retweet_homophily: 0.85,
            lexicon_coverage: 0.5,
            lexicon_error: 0.05,
            labeled_tweet_fraction: 0.9,
            labeled_user_fraction: 0.4,
            pools: PoolSizes {
                positive: 60,
                negative: 60,
                topic: 80,
                noise: 150,
            },
            word_zipf_exponent: 1.05,
            bursts: vec![VolumeBurst {
                day: 12,
                amplitude: 2.0,
                width: 2.0,
            }],
            class_activity_boost: [1.0, 1.0, 1.0],
            churn: 0.3,
            vocabulary_drift: 0.5,
        }
    }
}

impl GeneratorConfig {
    /// Validates invariants, panicking with a descriptive message on the
    /// first violation. Called by the generator before doing any work.
    pub(crate) fn validate(&self) {
        assert!(self.num_users > 1, "need at least two users");
        assert!(self.total_tweets > 0, "need at least one tweet");
        assert!(self.num_days > 0, "need at least one day");
        let prior_sum: f64 = self.class_priors.iter().sum();
        assert!(
            (prior_sum - 1.0).abs() < 1e-6,
            "class priors must sum to 1, got {prior_sum}"
        );
        assert!(
            self.tweet_len.0 >= 1 && self.tweet_len.0 <= self.tweet_len.1,
            "bad tweet_len"
        );
        for (name, v) in [
            ("flip_fraction", self.flip_fraction),
            ("class_token_prob", self.class_token_prob),
            ("topic_token_prob", self.topic_token_prob),
            ("stance_confusion", self.stance_confusion),
            ("tweet_noise", self.tweet_noise),
            ("retweet_homophily", self.retweet_homophily),
            ("lexicon_coverage", self.lexicon_coverage),
            ("lexicon_error", self.lexicon_error),
            ("labeled_tweet_fraction", self.labeled_tweet_fraction),
            ("labeled_user_fraction", self.labeled_user_fraction),
            ("churn", self.churn),
            ("vocabulary_drift", self.vocabulary_drift),
        ] {
            assert!(
                (0.0..=1.0).contains(&v),
                "{name} must be in [0, 1], got {v}"
            );
        }
        assert!(
            self.class_token_prob + self.topic_token_prob <= 1.0,
            "class_token_prob + topic_token_prob must be <= 1"
        );
        for (i, &b) in self.class_activity_boost.iter().enumerate() {
            assert!(
                b > 0.0 && b.is_finite(),
                "class_activity_boost[{i}] must be positive"
            );
        }
        assert!(
            self.pools.positive > 0 && self.pools.negative > 0,
            "stance pools required"
        );
        assert!(
            self.pools.topic > 0 && self.pools.noise > 0,
            "topic/noise pools required"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        GeneratorConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "class priors must sum to 1")]
    fn bad_priors_rejected() {
        let cfg = GeneratorConfig {
            class_priors: [0.5, 0.5, 0.5],
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "tweet_noise must be in [0, 1]")]
    fn bad_noise_rejected() {
        let cfg = GeneratorConfig {
            tweet_noise: 1.5,
            ..Default::default()
        };
        cfg.validate();
    }
}
