//! Corpus presets mirroring the paper's datasets (Table 3) plus smaller
//! configurations for tests and examples.
//!
//! Day 0 is Aug 1, 2012. Calendar anchors used by the burst profiles and
//! the experiment harness:
//!
//! | day | date          |
//! |-----|---------------|
//! | 0   | Aug 1         |
//! | 31  | Sep 1         |
//! | 61  | Oct 1         |
//! | 97  | Nov 6 (election) |
//! | 122 | Dec 1         |

use crate::config::{GeneratorConfig, PoolSizes, VolumeBurst};

/// Day index of Sep 1 (the Prop 30 volume surge the paper points out).
pub(crate) const DAY_SEP1: u32 = 31;
/// Day index of the Nov 6, 2012 election.
pub const DAY_ELECTION: u32 = 97;
/// Number of days in the collection period (Aug 1 – Dec 8).
pub(crate) const NUM_DAYS: u32 = 130;

/// Proposition 30 ("Temporary Taxes to Fund Education"): a moderately
/// contested topic — Table 3 reports 8777 pos / 5014 neg labeled tweets
/// and 146/100/98 labeled users out of 837.
pub fn prop30(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        topic: "prop30".into(),
        seed,
        num_users: 837,
        total_tweets: 18_000,
        num_days: NUM_DAYS,
        class_priors: [0.44, 0.29, 0.27],
        flip_fraction: 0.06,
        user_activity_exponent: 0.7,
        tweet_len: (6, 14),
        class_token_prob: 0.35,
        topic_token_prob: 0.35,
        stance_confusion: 0.13,
        tweet_noise: 0.12,
        retweets_per_tweet: 0.5,
        retweet_homophily: 0.85,
        lexicon_coverage: 0.45,
        lexicon_error: 0.06,
        labeled_tweet_fraction: 0.95,
        labeled_user_fraction: 0.41,
        pools: PoolSizes {
            positive: 300,
            negative: 300,
            topic: 450,
            noise: 1200,
        },
        word_zipf_exponent: 1.05,
        bursts: vec![
            VolumeBurst {
                day: DAY_SEP1,
                amplitude: 2.5,
                width: 2.5,
            },
            VolumeBurst {
                day: DAY_ELECTION,
                amplitude: 6.0,
                width: 3.5,
            },
        ],
        class_activity_boost: [1.15, 1.0, 0.9],
        churn: 0.35,
        vocabulary_drift: 0.55,
    }
}

/// Proposition 37 ("Genetically Engineered Foods, Labeling"): heavily
/// pro-labeling — Table 3 reports 34789 pos / 2587 neg labeled tweets and
/// 294/61/8 labeled users out of 1927, with much higher daily volume.
pub fn prop37(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        topic: "prop37".into(),
        seed,
        num_users: 1_927,
        total_tweets: 40_000,
        num_days: NUM_DAYS,
        class_priors: [0.82, 0.12, 0.06],
        flip_fraction: 0.05,
        user_activity_exponent: 0.7,
        tweet_len: (6, 14),
        class_token_prob: 0.35,
        topic_token_prob: 0.35,
        stance_confusion: 0.13,
        tweet_noise: 0.10,
        retweets_per_tweet: 0.6,
        retweet_homophily: 0.85,
        lexicon_coverage: 0.45,
        lexicon_error: 0.06,
        labeled_tweet_fraction: 0.95,
        labeled_user_fraction: 0.19,
        pools: PoolSizes {
            positive: 350,
            negative: 350,
            topic: 500,
            noise: 1400,
        },
        word_zipf_exponent: 1.05,
        bursts: vec![
            VolumeBurst {
                day: DAY_SEP1,
                amplitude: 1.5,
                width: 2.5,
            },
            VolumeBurst {
                day: DAY_ELECTION,
                amplitude: 6.0,
                width: 3.5,
            },
        ],
        class_activity_boost: [2.0, 0.7, 0.7],
        churn: 0.35,
        vocabulary_drift: 0.55,
    }
}

/// A scaled-down Prop 30 (≈10%) for fast experiments and integration
/// tests — same shape, minutes become seconds.
pub fn prop30_small(seed: u64) -> GeneratorConfig {
    let mut cfg = prop30(seed);
    cfg.topic = "prop30-small".into();
    cfg.num_users = 120;
    cfg.total_tweets = 2_000;
    cfg.num_days = 40;
    cfg.bursts = vec![
        VolumeBurst {
            day: 10,
            amplitude: 2.5,
            width: 2.0,
        },
        VolumeBurst {
            day: 30,
            amplitude: 6.0,
            width: 2.0,
        },
    ];
    cfg.pools = PoolSizes {
        positive: 80,
        negative: 80,
        topic: 120,
        noise: 300,
    };
    cfg
}

/// A scaled-down Prop 37 for fast experiments.
pub fn prop37_small(seed: u64) -> GeneratorConfig {
    let mut cfg = prop37(seed);
    cfg.topic = "prop37-small".into();
    cfg.num_users = 200;
    cfg.total_tweets = 4_000;
    cfg.num_days = 40;
    cfg.bursts = vec![
        VolumeBurst {
            day: 10,
            amplitude: 1.5,
            width: 2.0,
        },
        VolumeBurst {
            day: 30,
            amplitude: 6.0,
            width: 2.0,
        },
    ];
    cfg.pools = PoolSizes {
        positive: 90,
        negative: 90,
        topic: 140,
        noise: 350,
    };
    cfg
}

/// A tiny corpus for unit tests (hundreds of tweets, runs in
/// milliseconds).
pub fn tiny(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        topic: "tiny".into(),
        seed,
        num_users: 30,
        total_tweets: 300,
        num_days: 12,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::stats::corpus_stats;

    #[test]
    fn presets_validate() {
        prop30(1).validate();
        prop37(1).validate();
        prop30_small(1).validate();
        prop37_small(1).validate();
        tiny(1).validate();
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn calendar_anchors_ordered() {
        assert!(DAY_SEP1 < DAY_ELECTION);
        assert!(DAY_ELECTION < NUM_DAYS);
    }

    #[test]
    fn prop30_small_statistics_shape() {
        let corpus = generate(&prop30_small(7));
        let s = corpus_stats(&corpus);
        // pos tweets should outnumber neg roughly 60/40 like the paper's
        // 8777/5014 split
        assert!(s.labeled_pos_tweets > s.labeled_neg_tweets);
        let ratio =
            s.labeled_pos_tweets as f64 / (s.labeled_pos_tweets + s.labeled_neg_tweets) as f64;
        assert!((0.5..0.75).contains(&ratio), "pos ratio {ratio}");
        // users: labeled minority, unlabeled majority
        assert!(s.unlabeled_users > s.labeled_pos_users);
    }

    #[test]
    fn prop37_small_heavily_positive() {
        let corpus = generate(&prop37_small(7));
        let s = corpus_stats(&corpus);
        let ratio =
            s.labeled_pos_tweets as f64 / (s.labeled_pos_tweets + s.labeled_neg_tweets) as f64;
        assert!(ratio > 0.8, "prop37 pos ratio {ratio}");
        assert!(s.labeled_neu_users < s.labeled_pos_users);
    }

    #[test]
    fn election_burst_visible_in_small_presets() {
        let corpus = generate(&prop30_small(3));
        let counts = crate::stats::daily_tweet_counts(&corpus);
        let at_burst = counts[30];
        let baseline = counts[20];
        assert!(
            at_burst as f64 > 1.5 * baseline.max(1) as f64,
            "burst {at_burst} vs baseline {baseline}"
        );
    }
}
