//! The corpus generator: the stand-in for the paper's 2012 California
//! ballot Twitter crawl (the crate doc gives the substitution rationale).

use rand::rngs::StdRng;
use rand::RngExt;

use tgs_linalg::seeded_rng;
use tgs_text::{Lexicon, Sentiment};

use crate::config::GeneratorConfig;
use crate::model::{Corpus, Retweet, Trajectory, Tweet, UserProfile};
use crate::pools::WordPools;
use crate::zipf::Zipf;

/// Generates a full corpus from a configuration. Deterministic in
/// `config.seed`.
pub fn generate(config: &GeneratorConfig) -> Corpus {
    config.validate();
    let mut rng = seeded_rng(config.seed);
    let pools = WordPools::build(config, &mut rng);
    let users = generate_users(config, &mut rng);
    let lexicon = build_lexicon(config, &pools, &mut rng);
    let mut tweets = generate_tweets(config, &pools, &users, &mut rng);
    let retweets = generate_retweets(config, &users, &tweets, &mut rng);
    assign_tweet_labels(config, &mut tweets, &mut rng);
    Corpus {
        topic: config.topic.clone(),
        users,
        tweets,
        retweets,
        lexicon,
        num_days: config.num_days,
    }
}

fn sample_class(priors: &[f64; 3], rng: &mut StdRng) -> Sentiment {
    let u: f64 = rng.random_range(0.0..1.0);
    if u < priors[0] {
        Sentiment::Positive
    } else if u < priors[0] + priors[1] {
        Sentiment::Negative
    } else {
        Sentiment::Neutral
    }
}

/// Class of a *noisy* tweet whose author holds `from`: polar stances
/// mostly produce ambiguous (neutral-looking) text, occasionally the
/// opposite polarity; neutral authors drift to either pole.
fn noisy_class(from: Sentiment, rng: &mut StdRng) -> Sentiment {
    match from {
        Sentiment::Neutral => {
            if rng.random_range(0.0..1.0) < 0.5 {
                Sentiment::Positive
            } else {
                Sentiment::Negative
            }
        }
        polar => {
            if rng.random_range(0.0..1.0) < 0.7 {
                Sentiment::Neutral
            } else if polar == Sentiment::Positive {
                Sentiment::Negative
            } else {
                Sentiment::Positive
            }
        }
    }
}

fn different_class(from: Sentiment, rng: &mut StdRng) -> Sentiment {
    let others: Vec<Sentiment> = Sentiment::ALL
        .iter()
        .copied()
        .filter(|&s| s != from)
        .collect();
    others[rng.random_range(0..others.len())]
}

/// A user's base (day-0) stance class.
fn initial_class(user: &UserProfile) -> Sentiment {
    user.trajectory.stance_at(0)
}

fn generate_users(config: &GeneratorConfig, rng: &mut StdRng) -> Vec<UserProfile> {
    let m = config.num_users;
    let zipf = Zipf::new(m, config.user_activity_exponent);
    let mut users = Vec::with_capacity(m);
    for id in 0..m {
        let base = sample_class(&config.class_priors, rng);
        let trajectory = if rng.random_range(0.0..1.0) < config.flip_fraction {
            let after = different_class(base, rng);
            let lo = config.num_days / 5;
            let hi = (config.num_days * 4) / 5;
            let at_day = if hi > lo {
                rng.random_range(lo..hi)
            } else {
                lo
            };
            Trajectory::Flip {
                before: base,
                after,
                at_day,
            }
        } else {
            Trajectory::Stable(base)
        };
        let (join_day, leave_day) =
            if rng.random_range(0.0..1.0) < config.churn && config.num_days >= 4 {
                let join = rng.random_range(0..config.num_days / 2);
                let leave = rng.random_range(
                    (join + config.num_days / 4).min(config.num_days - 1)..config.num_days,
                );
                (join, leave)
            } else {
                (0, config.num_days - 1)
            };
        users.push(UserProfile {
            id,
            trajectory,
            label: None,
            activity: 0.0, // assigned below via stratified ranks
            join_day,
            leave_day,
        });
    }
    // Long-tail activity, *stratified* across stance classes: activity
    // ranks are dealt to classes proportionally to their priors, so the
    // realized tweet-volume mix tracks `class_priors` (x `boost`) with
    // low variance instead of hinging on which class the handful of
    // super-active users happened to land in.
    let mut by_class: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for u in &users {
        by_class[initial_class(u).index()].push(u.id);
    }
    for pool in &mut by_class {
        shuffle(pool, rng);
    }
    let mut assigned = [0usize; 3];
    for rank in 0..m {
        // pick the non-empty class with the largest proportional deficit
        let c = (0..3)
            .filter(|&c| assigned[c] < by_class[c].len())
            .max_by(|&a, &b| {
                let da = config.class_priors[a] * (rank + 1) as f64 - assigned[a] as f64;
                let db = config.class_priors[b] * (rank + 1) as f64 - assigned[b] as f64;
                da.partial_cmp(&db).expect("finite deficits")
            })
            .expect("some class still has users");
        let id = by_class[c][assigned[c]];
        assigned[c] += 1;
        users[id].activity = zipf.pmf(rank) * config.class_activity_boost[c];
    }
    // Human annotators label users with enough visible history, so label
    // mass concentrates on *active* users: take the labeled fraction from
    // the top of the activity distribution, with a small random overhang
    // so the cut-off is not perfectly sharp.
    let target = ((m as f64) * config.labeled_user_fraction).round() as usize;
    if target > 0 {
        let mut by_activity: Vec<usize> = (0..m).collect();
        by_activity.sort_unstable_by(|&a, &b| {
            users[b]
                .activity
                .partial_cmp(&users[a].activity)
                .expect("finite activity")
        });
        let pool = (target * 5 / 2).min(m);
        let mut candidates: Vec<usize> = by_activity[..pool].to_vec();
        shuffle(&mut candidates, rng);
        for &id in candidates.iter().take(target) {
            users[id].label = Some(users[id].trajectory.majority_stance(config.num_days));
        }
    }
    users
}

fn build_lexicon(config: &GeneratorConfig, pools: &WordPools, rng: &mut StdRng) -> Lexicon {
    let mut lexicon = Lexicon::new();
    let mut add_pool = |words: &[String], class: Sentiment, rng: &mut StdRng| {
        for w in words {
            if rng.random_range(0.0..1.0) < config.lexicon_coverage {
                let assigned = if rng.random_range(0.0..1.0) < config.lexicon_error {
                    different_class(class, rng)
                } else {
                    class
                };
                lexicon.insert(w, assigned);
            }
        }
    };
    add_pool(pools.positive.words(), Sentiment::Positive, rng);
    add_pool(pools.negative.words(), Sentiment::Negative, rng);
    lexicon
}

/// Relative tweet volume per day: base load plus Gaussian bursts.
pub(crate) fn daily_volume_weights(config: &GeneratorConfig) -> Vec<f64> {
    (0..config.num_days)
        .map(|d| {
            let mut v = 1.0;
            for b in &config.bursts {
                let z = (d as f64 - b.day as f64) / b.width.max(1e-9);
                v += b.amplitude * (-0.5 * z * z).exp();
            }
            v
        })
        .collect()
}

/// Samples an index proportionally to `weights` (linear scan; hot paths
/// precompute cumulative sums instead).
fn weighted_choice(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let mut u = rng.random_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// Per-day cache of active users and their activity mass.
struct DayRoster {
    /// Active user ids.
    users: Vec<usize>,
    /// Activity weight per active user (parallel to `users`).
    weights: Vec<f64>,
    total: f64,
    /// Active users per current stance class.
    by_class: [Vec<usize>; 3],
    class_weights: [Vec<f64>; 3],
    class_totals: [f64; 3],
}

impl DayRoster {
    fn build(users: &[UserProfile], day: u32) -> Self {
        let mut roster = DayRoster {
            users: Vec::new(),
            weights: Vec::new(),
            total: 0.0,
            by_class: [Vec::new(), Vec::new(), Vec::new()],
            class_weights: [Vec::new(), Vec::new(), Vec::new()],
            class_totals: [0.0; 3],
        };
        for u in users {
            if u.active_on(day) {
                roster.users.push(u.id);
                roster.weights.push(u.activity);
                roster.total += u.activity;
                let c = u.trajectory.stance_at(day).index();
                roster.by_class[c].push(u.id);
                roster.class_weights[c].push(u.activity);
                roster.class_totals[c] += u.activity;
            }
        }
        roster
    }

    fn sample_any(&self, rng: &mut StdRng) -> Option<usize> {
        if self.users.is_empty() {
            return None;
        }
        let i = weighted_choice(&self.weights, self.total, rng);
        Some(self.users[i])
    }

    fn sample_class(&self, class: usize, rng: &mut StdRng) -> Option<usize> {
        if self.by_class[class].is_empty() {
            return None;
        }
        let i = weighted_choice(&self.class_weights[class], self.class_totals[class], rng);
        Some(self.by_class[class][i])
    }
}

fn generate_tweets(
    config: &GeneratorConfig,
    pools: &WordPools,
    users: &[UserProfile],
    rng: &mut StdRng,
) -> Vec<Tweet> {
    // Sample a day per tweet from the volume curve, then sort so tweet
    // ids are chronological.
    let weights = daily_volume_weights(config);
    let total: f64 = weights.iter().sum();
    let mut days: Vec<u32> = (0..config.total_tweets)
        .map(|_| weighted_choice(&weights, total, rng) as u32)
        .collect();
    days.sort_unstable();

    let mut tweets = Vec::with_capacity(days.len());
    let mut roster_day = u32::MAX;
    let mut roster: Option<DayRoster> = None;
    for (id, day) in days.into_iter().enumerate() {
        if day != roster_day {
            roster = Some(DayRoster::build(users, day));
            roster_day = day;
        }
        let roster_ref = roster.as_ref().expect("roster built above");
        let author = roster_ref
            .sample_any(rng)
            // Degenerate day with nobody active: fall back to any user.
            .unwrap_or_else(|| rng.random_range(0..users.len()));
        let stance = users[author].trajectory.stance_at(day);
        let sentiment = if rng.random_range(0.0..1.0) < config.tweet_noise {
            noisy_class(stance, rng)
        } else {
            stance
        };
        let tokens = compose_tokens(config, pools, sentiment, day, rng);
        tweets.push(Tweet {
            id,
            author,
            tokens,
            day,
            sentiment,
            label: None,
        });
    }
    tweets
}

fn compose_tokens(
    config: &GeneratorConfig,
    pools: &WordPools,
    sentiment: Sentiment,
    day: u32,
    rng: &mut StdRng,
) -> Vec<String> {
    let len = rng.random_range(config.tweet_len.0..=config.tweet_len.1);
    let stance_pool = pools.stance_pool(sentiment);
    let mut tokens = Vec::with_capacity(len);
    for _ in 0..len {
        let u: f64 = rng.random_range(0.0..1.0);
        let word = if u < config.class_token_prob {
            match stance_pool {
                Some(pool) => {
                    // Occasionally quote the other side (stance_confusion).
                    if rng.random_range(0.0..1.0) < config.stance_confusion {
                        let opposite = if sentiment == Sentiment::Positive {
                            &pools.negative
                        } else {
                            &pools.positive
                        };
                        opposite.sample(day, rng)
                    } else {
                        pool.sample(day, rng)
                    }
                }
                // Neutral tweets draw topic words where stance words
                // would go.
                None => pools.topic.sample(day, rng),
            }
        } else if u < config.class_token_prob + config.topic_token_prob {
            pools.topic.sample(day, rng)
        } else {
            pools.noise.sample(day, rng)
        };
        tokens.push(word.to_string());
    }
    tokens
}

fn poisson(lambda: f64, rng: &mut StdRng) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.random_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // guard against pathological lambda
        }
    }
}

fn generate_retweets(
    config: &GeneratorConfig,
    users: &[UserProfile],
    tweets: &[Tweet],
    rng: &mut StdRng,
) -> Vec<Retweet> {
    let mut retweets = Vec::new();
    let mut roster_day = u32::MAX;
    let mut roster: Option<DayRoster> = None;
    for tweet in tweets {
        if tweet.day != roster_day {
            roster = Some(DayRoster::build(users, tweet.day));
            roster_day = tweet.day;
        }
        let roster_ref = roster.as_ref().expect("roster built above");
        let count = poisson(config.retweets_per_tweet, rng);
        for _ in 0..count {
            let pick = if rng.random_range(0.0..1.0) < config.retweet_homophily {
                // Homophily: re-tweeter shares the *author's current
                // stance* (the social signal the β regularizer exploits).
                let author_stance = users[tweet.author].trajectory.stance_at(tweet.day).index();
                roster_ref
                    .sample_class(author_stance, rng)
                    .or_else(|| roster_ref.sample_any(rng))
            } else {
                roster_ref.sample_any(rng)
            };
            if let Some(user) = pick {
                if user != tweet.author {
                    retweets.push(Retweet {
                        user,
                        tweet: tweet.id,
                        day: tweet.day,
                    });
                }
            }
        }
    }
    retweets
}

fn assign_tweet_labels(config: &GeneratorConfig, tweets: &mut [Tweet], rng: &mut StdRng) {
    for t in tweets.iter_mut() {
        // Following Table 3, only pos/neg tweets carry labels.
        if t.sentiment != Sentiment::Neutral
            && rng.random_range(0.0..1.0) < config.labeled_tweet_fraction
        {
            t.label = Some(t.sentiment);
        }
    }
}

/// Fisher–Yates shuffle (rand's `SliceRandom` equivalent, kept local to
/// pin behaviour across rand versions).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GeneratorConfig {
        GeneratorConfig {
            num_users: 20,
            total_tweets: 150,
            num_days: 10,
            ..Default::default()
        }
    }

    #[test]
    fn generates_requested_sizes() {
        let corpus = generate(&tiny());
        assert_eq!(corpus.num_tweets(), 150);
        assert_eq!(corpus.num_users(), 20);
        assert_eq!(corpus.num_days, 10);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&tiny());
        let b = generate(&tiny());
        assert_eq!(a.tweets.len(), b.tweets.len());
        for (x, y) in a.tweets.iter().zip(b.tweets.iter()) {
            assert_eq!(x.tokens, y.tokens);
            assert_eq!(x.author, y.author);
            assert_eq!(x.sentiment, y.sentiment);
        }
        assert_eq!(a.retweets, b.retweets);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&tiny());
        let b = generate(&GeneratorConfig { seed: 43, ..tiny() });
        let same = a
            .tweets
            .iter()
            .zip(b.tweets.iter())
            .filter(|(x, y)| x.tokens == y.tokens)
            .count();
        assert!(same < a.tweets.len() / 2);
    }

    #[test]
    fn tweets_sorted_by_day_with_valid_authors() {
        let corpus = generate(&tiny());
        let mut prev = 0;
        for t in &corpus.tweets {
            assert!(t.day >= prev);
            prev = t.day;
            assert!(t.author < corpus.num_users());
            assert!(t.day < corpus.num_days);
            assert!(!t.tokens.is_empty());
        }
    }

    #[test]
    fn tweet_sentiment_mostly_matches_author_stance() {
        let corpus = generate(&tiny());
        let matching = corpus
            .tweets
            .iter()
            .filter(|t| corpus.users[t.author].trajectory.stance_at(t.day) == t.sentiment)
            .count();
        let frac = matching as f64 / corpus.num_tweets() as f64;
        assert!(frac > 0.8, "stance match fraction {frac}");
    }

    #[test]
    fn retweets_reference_valid_ids_and_mostly_homophilous() {
        let corpus = generate(&tiny());
        assert!(!corpus.retweets.is_empty());
        let mut same_stance = 0usize;
        for r in &corpus.retweets {
            assert!(r.user < corpus.num_users());
            assert!(r.tweet < corpus.num_tweets());
            let tweet = &corpus.tweets[r.tweet];
            assert_ne!(r.user, tweet.author, "no self-retweets");
            let author_stance = corpus.users[tweet.author].trajectory.stance_at(r.day);
            let user_stance = corpus.users[r.user].trajectory.stance_at(r.day);
            if author_stance == user_stance {
                same_stance += 1;
            }
        }
        let frac = same_stance as f64 / corpus.retweets.len() as f64;
        assert!(frac > 0.6, "homophily fraction {frac}");
    }

    #[test]
    fn lexicon_nonempty_and_mostly_correct() {
        let corpus = generate(&tiny());
        assert!(corpus.lexicon.len() > 10);
        // Seed words that made it into the lexicon should mostly carry
        // their true class.
        let mut correct = 0;
        let mut total = 0;
        for (w, c) in corpus.lexicon.iter() {
            total += 1;
            let truly_pos = w.starts_with("upbeat") || w == "#yeson37" || w == "labelgmo";
            let truly_neg = w.starts_with("gloomy") || w == "corn" || w == "#noprop37";
            if (truly_pos && c == Sentiment::Positive) || (truly_neg && c == Sentiment::Negative) {
                correct += 1;
            } else if !truly_pos && !truly_neg {
                correct += 1; // other seed words, skip strict check
            }
        }
        assert!(correct as f64 / total as f64 > 0.8);
    }

    #[test]
    fn labels_respect_fractions() {
        let corpus = generate(&tiny());
        let labeled_users = corpus.users.iter().filter(|u| u.label.is_some()).count();
        assert!(labeled_users > 0 && labeled_users < corpus.num_users());
        let labeled_tweets = corpus.tweets.iter().filter(|t| t.label.is_some()).count();
        assert!(labeled_tweets > 0);
        // neutral tweets never labeled
        assert!(corpus
            .tweets
            .iter()
            .filter(|t| t.sentiment == Sentiment::Neutral)
            .all(|t| t.label.is_none()));
    }

    #[test]
    fn volume_bursts_raise_weights() {
        let cfg = tiny();
        let w = daily_volume_weights(&cfg);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = seeded_rng(1);
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn poisson_mean_close_to_lambda() {
        let mut rng = seeded_rng(5);
        let n = 5000;
        let mean: f64 = (0..n).map(|_| poisson(2.0, &mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.15, "poisson mean {mean}");
    }
}
