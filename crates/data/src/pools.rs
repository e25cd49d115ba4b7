//! Word pools with Zipfian frequencies and temporal popularity envelopes.
//!
//! Observation 1 of the paper: the *frequency distribution* of
//! vocabularies changes over time while word *sentiments* stay put. Each
//! word here has a fixed class (its pool) and a Gaussian popularity
//! envelope over the collection period, producing exactly that behaviour
//! (reproduced as Fig. 4).

use rand::Rng;
use rand::RngExt;

use tgs_text::Sentiment;

use crate::config::GeneratorConfig;
use crate::zipf::Zipf;

/// Seed words lending the generated corpora a recognizable ballot-topic
/// flavor (drawn from the paper's Table 2 and examples).
const SEED_POS: &[&str] = &[
    "#yeson37",
    "labelgmo",
    "monsanto",
    "stopmonsanto",
    "carighttoknow",
    "health",
    "safe",
    "cancer",
    "righttoknow",
    "labelit",
];
const SEED_NEG: &[&str] = &[
    "corn",
    "farmer",
    "#noprop37",
    "crop",
    "million",
    "feed",
    "india",
    "seed",
    "costly",
    "bureaucracy",
];
const SEED_TOPIC: &[&str] = &[
    "gmo",
    "label",
    "food",
    "california",
    "ballot",
    "vote",
    "election",
    "prop",
    "measure",
    "initiative",
    "genetically",
    "modified",
];
const SEED_NOISE: &[&str] = &[
    "today", "people", "think", "really", "make", "time", "good", "new", "know", "going",
];

/// One pool of words: tokens, a Zipf rank distribution, and per-word
/// temporal envelopes.
#[derive(Debug, Clone)]
pub(crate) struct WordPool {
    words: Vec<String>,
    zipf: Zipf,
    /// `(peak_day, width)` of each word's popularity envelope.
    envelope: Vec<(f64, f64)>,
    /// Popularity floor in `[0, 1]` (1 = no drift at all).
    floor: f64,
}

impl WordPool {
    fn build(
        prefix: &str,
        seeds: &[&str],
        size: usize,
        zipf_s: f64,
        num_days: u32,
        drift: f64,
        rng: &mut impl Rng,
    ) -> Self {
        let mut words: Vec<String> = seeds.iter().take(size).map(|s| s.to_string()).collect();
        for i in words.len()..size {
            words.push(format!("{prefix}{i}"));
        }
        let envelope = (0..size)
            .map(|_| {
                let peak = rng.random_range(0.0..num_days.max(1) as f64);
                let width = rng.random_range(0.15..0.6) * num_days.max(1) as f64;
                (peak, width)
            })
            .collect();
        Self {
            words,
            zipf: Zipf::new(size, zipf_s),
            envelope,
            floor: 1.0 - drift,
        }
    }

    /// All words in rank order.
    pub(crate) fn words(&self) -> &[String] {
        &self.words
    }

    /// Relative popularity of rank `r` on `day`, in `(0, 1]`.
    pub(crate) fn popularity(&self, r: usize, day: u32) -> f64 {
        let (peak, width) = self.envelope[r];
        let z = (day as f64 - peak) / width;
        self.floor + (1.0 - self.floor) * (-0.5 * z * z).exp()
    }

    /// Samples a word for `day`: Zipf rank proposal, accepted against the
    /// temporal envelope (acceptance ≥ `floor`, so the loop is short).
    pub(crate) fn sample<'a>(&'a self, day: u32, rng: &mut impl Rng) -> &'a str {
        loop {
            let r = self.zipf.sample(rng);
            if self.floor >= 1.0 || rng.random_range(0.0..1.0) < self.popularity(r, day) {
                return &self.words[r];
            }
        }
    }
}

/// The four pools of a corpus.
#[derive(Debug, Clone)]
pub(crate) struct WordPools {
    /// Positive-stance pool.
    pub(crate) positive: WordPool,
    /// Negative-stance pool.
    pub(crate) negative: WordPool,
    /// Shared topic pool.
    pub(crate) topic: WordPool,
    /// Noise pool.
    pub(crate) noise: WordPool,
}

impl WordPools {
    /// Builds all pools from the generator configuration.
    pub(crate) fn build(config: &GeneratorConfig, rng: &mut impl Rng) -> Self {
        let d = config.num_days;
        let s = config.word_zipf_exponent;
        let drift = config.vocabulary_drift;
        Self {
            positive: WordPool::build("upbeat", SEED_POS, config.pools.positive, s, d, drift, rng),
            negative: WordPool::build("gloomy", SEED_NEG, config.pools.negative, s, d, drift, rng),
            topic: WordPool::build("topic", SEED_TOPIC, config.pools.topic, s, d, drift, rng),
            noise: WordPool::build("w", SEED_NOISE, config.pools.noise, s, d, drift, rng),
        }
    }

    /// The stance pool for a class (`None` for Neutral).
    pub(crate) fn stance_pool(&self, class: Sentiment) -> Option<&WordPool> {
        match class {
            Sentiment::Positive => Some(&self.positive),
            Sentiment::Negative => Some(&self.negative),
            Sentiment::Neutral => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_linalg::seeded_rng;

    fn pools() -> WordPools {
        let cfg = GeneratorConfig::default();
        let mut rng = seeded_rng(1);
        WordPools::build(&cfg, &mut rng)
    }

    #[test]
    fn pools_have_configured_sizes() {
        let p = pools();
        let cfg = GeneratorConfig::default();
        assert_eq!(p.positive.words.len(), cfg.pools.positive);
        assert_eq!(p.negative.words.len(), cfg.pools.negative);
        assert_eq!(p.topic.words.len(), cfg.pools.topic);
        assert_eq!(p.noise.words.len(), cfg.pools.noise);
    }

    #[test]
    fn seed_words_present_and_disjoint_fillers() {
        let p = pools();
        assert_eq!(p.positive.words()[0], "#yeson37");
        assert_eq!(p.negative.words()[0], "corn");
        assert!(p.positive.words().iter().any(|w| w.starts_with("upbeat")));
        // no accidental overlap between stance pools
        for w in p.positive.words() {
            assert!(!p.negative.words().contains(w), "overlap: {w}");
        }
    }

    #[test]
    fn popularity_bounded_and_peaked() {
        let p = pools();
        for r in 0..5 {
            for day in 0..20 {
                let v = p.positive.popularity(r, day);
                assert!((0.0..=1.0 + 1e-12).contains(&v));
            }
        }
    }

    #[test]
    fn sample_returns_pool_words_deterministically() {
        let p = pools();
        let mut rng1 = seeded_rng(9);
        let mut rng2 = seeded_rng(9);
        for day in 0..5 {
            let a = p.topic.sample(day, &mut rng1).to_string();
            let b = p.topic.sample(day, &mut rng2).to_string();
            assert_eq!(a, b);
            assert!(p.topic.words().contains(&a));
        }
    }

    #[test]
    fn zero_drift_means_static_popularity() {
        let cfg = GeneratorConfig {
            vocabulary_drift: 0.0,
            ..Default::default()
        };
        let mut rng = seeded_rng(3);
        let p = WordPools::build(&cfg, &mut rng);
        for day in 0..20 {
            assert_eq!(p.noise.popularity(0, day), 1.0);
        }
    }
}
