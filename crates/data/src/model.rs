//! Domain model of the synthetic Twitter corpus.

use tgs_text::Sentiment;

/// How a user's stance evolves over the collection period.
///
/// Observation 2 of the paper: "the majority of users rarely change their
/// mind within a short time" — most users are [`Trajectory::Stable`], a
/// small fraction flip once (like user Adam in Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trajectory {
    /// The stance never changes.
    Stable(Sentiment),
    /// The stance flips exactly once, at the start of `at_day`.
    Flip {
        /// Stance before `at_day`.
        before: Sentiment,
        /// Stance from `at_day` on.
        after: Sentiment,
        /// First day with the new stance.
        at_day: u32,
    },
}

impl Trajectory {
    /// The stance on a given day.
    pub(crate) fn stance_at(&self, day: u32) -> Sentiment {
        match *self {
            Trajectory::Stable(s) => s,
            Trajectory::Flip {
                before,
                after,
                at_day,
            } => {
                if day < at_day {
                    before
                } else {
                    after
                }
            }
        }
    }

    /// The stance held for the majority of `0..num_days` (what a human
    /// annotator would label the user with).
    pub fn majority_stance(&self, num_days: u32) -> Sentiment {
        match *self {
            Trajectory::Stable(s) => s,
            Trajectory::Flip {
                before,
                after,
                at_day,
            } => {
                if at_day * 2 > num_days {
                    before
                } else {
                    after
                }
            }
        }
    }

    /// True when the stance changes at some point.
    pub fn flips(&self) -> bool {
        matches!(self, Trajectory::Flip { .. })
    }
}

/// A synthetic user.
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// Dense id `0..num_users`.
    pub id: usize,
    /// Stance trajectory (ground truth).
    pub trajectory: Trajectory,
    /// Human-style label available to (semi-)supervised baselines;
    /// `None` for the "unlabeled" pool of Table 3.
    pub label: Option<Sentiment>,
    /// Long-tail activity weight (tweets are allocated ∝ this).
    pub activity: f64,
    /// First day the user is active.
    pub(crate) join_day: u32,
    /// Last active day (inclusive).
    pub(crate) leave_day: u32,
}

impl UserProfile {
    /// Whether the user can act on `day`.
    pub(crate) fn active_on(&self, day: u32) -> bool {
        (self.join_day..=self.leave_day).contains(&day)
    }
}

/// A synthetic tweet.
#[derive(Debug, Clone)]
pub struct Tweet {
    /// Dense id `0..num_tweets`, ordered by day.
    pub(crate) id: usize,
    /// Author user id.
    pub author: usize,
    /// Token features (already normalized, vocabulary-ready).
    pub tokens: Vec<String>,
    /// Day offset from the collection start.
    pub day: u32,
    /// Ground-truth sentiment of the tweet text.
    pub(crate) sentiment: Sentiment,
    /// Label visible to supervised baselines (`None` = unlabeled).
    pub(crate) label: Option<Sentiment>,
}

/// A re-tweet event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retweet {
    /// The re-tweeting user.
    pub user: usize,
    /// The re-tweeted tweet id.
    pub tweet: usize,
    /// Day of the re-tweet.
    pub day: u32,
}

/// The complete synthetic corpus: the stand-in for the paper's 2012
/// California-ballot Twitter crawl.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Topic tag, e.g. `"prop30"`.
    pub topic: String,
    /// All users.
    pub users: Vec<UserProfile>,
    /// All tweets, sorted by `day`.
    pub tweets: Vec<Tweet>,
    /// All re-tweet events.
    pub retweets: Vec<Retweet>,
    /// The auto-built "Yes"/"No" lexicon (imperfect by construction).
    pub lexicon: tgs_text::Lexicon,
    /// Number of days covered (`day ∈ 0..num_days`).
    pub num_days: u32,
}

impl Corpus {
    /// Number of tweets.
    pub fn num_tweets(&self) -> usize {
        self.tweets.len()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Ground-truth tweet sentiments as class indices.
    pub(crate) fn tweet_truth(&self) -> Vec<usize> {
        self.tweets.iter().map(|t| t.sentiment.index()).collect()
    }

    /// Tweet labels visible to supervised methods.
    pub(crate) fn tweet_labels(&self) -> Vec<Option<usize>> {
        self.tweets
            .iter()
            .map(|t| t.label.map(Sentiment::index))
            .collect()
    }

    /// Ground-truth *overall* user stances (majority over the period).
    pub fn user_truth(&self) -> Vec<usize> {
        self.users
            .iter()
            .map(|u| u.trajectory.majority_stance(self.num_days).index())
            .collect()
    }

    /// Ground-truth user stances on a specific day.
    pub fn user_truth_at(&self, day: u32) -> Vec<usize> {
        self.users
            .iter()
            .map(|u| u.trajectory.stance_at(day).index())
            .collect()
    }

    /// User labels visible to (semi-)supervised methods.
    pub fn user_labels(&self) -> Vec<Option<usize>> {
        self.users
            .iter()
            .map(|u| u.label.map(Sentiment::index))
            .collect()
    }

    /// Tweet ids authored on days `lo..hi`.
    pub fn tweets_in_days(&self, lo: u32, hi: u32) -> Vec<usize> {
        self.tweets
            .iter()
            .filter(|t| (lo..hi).contains(&t.day))
            .map(|t| t.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_trajectory_constant() {
        let t = Trajectory::Stable(Sentiment::Positive);
        assert_eq!(t.stance_at(0), Sentiment::Positive);
        assert_eq!(t.stance_at(100), Sentiment::Positive);
        assert!(!t.flips());
        assert_eq!(t.majority_stance(10), Sentiment::Positive);
    }

    #[test]
    fn flip_trajectory_switches_at_day() {
        let t = Trajectory::Flip {
            before: Sentiment::Negative,
            after: Sentiment::Positive,
            at_day: 5,
        };
        assert_eq!(t.stance_at(4), Sentiment::Negative);
        assert_eq!(t.stance_at(5), Sentiment::Positive);
        assert!(t.flips());
        // flipped early → majority is "after"
        assert_eq!(t.majority_stance(100), Sentiment::Positive);
        // flipped late → majority is "before"
        let late = Trajectory::Flip {
            before: Sentiment::Negative,
            after: Sentiment::Positive,
            at_day: 90,
        };
        assert_eq!(late.majority_stance(100), Sentiment::Negative);
    }

    #[test]
    fn user_activity_window() {
        let u = UserProfile {
            id: 0,
            trajectory: Trajectory::Stable(Sentiment::Neutral),
            label: None,
            activity: 1.0,
            join_day: 3,
            leave_day: 7,
        };
        assert!(!u.active_on(2));
        assert!(u.active_on(3));
        assert!(u.active_on(7));
        assert!(!u.active_on(8));
    }
}
