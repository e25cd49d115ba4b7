//! Building the interaction matrices from raw posting/retweeting events.
//!
//! The paper derives two structures from user–tweet interactions:
//!
//! * `Xr` (`m × n`): the user–tweet matrix. A user is connected to a tweet
//!   when they *post* or *re-tweet* it (Fig. 2: dashed/solid lines).
//! * `Gu` (`m × m`): the user–user re-tweeting graph. An edge links a
//!   re-tweeter with the tweet's author, weighted by interaction count.

use tgs_linalg::CsrMatrix;

use crate::graph::UserGraph;

/// A single user–tweet interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interaction {
    /// `user` authored `tweet`.
    Post {
        /// Acting user id.
        user: usize,
        /// Tweet id.
        tweet: usize,
    },
    /// `user` re-tweeted `tweet`, which was authored by `author`.
    Retweet {
        /// Acting user id.
        user: usize,
        /// Tweet id.
        tweet: usize,
        /// Original author of the tweet.
        author: usize,
    },
}

/// Builds `Xr` and `Gu` from an event log.
///
/// Returns `(xr, user_graph)` where `xr` is `num_users × num_tweets`.
/// Each post and each re-tweet adds 1.0 to its `Xr` entry: the paper's
/// 0/1 user–tweet links, except that a user who re-tweets their own
/// tweet (or one tweet twice) sums to 2.0 or more.
pub fn build_interactions(
    num_users: usize,
    num_tweets: usize,
    events: &[Interaction],
) -> (CsrMatrix, UserGraph) {
    let mut xr_triplets = Vec::with_capacity(events.len());
    let mut gu_edges = Vec::new();
    for ev in events {
        match *ev {
            Interaction::Post { user, tweet } => {
                assert!(
                    user < num_users && tweet < num_tweets,
                    "post event out of bounds"
                );
                xr_triplets.push((user, tweet, 1.0));
            }
            Interaction::Retweet {
                user,
                tweet,
                author,
            } => {
                assert!(
                    user < num_users && tweet < num_tweets && author < num_users,
                    "retweet event out of bounds"
                );
                xr_triplets.push((user, tweet, 1.0));
                if user != author {
                    gu_edges.push((user, author, 1.0));
                }
            }
        }
    }
    let xr = CsrMatrix::from_triplets(num_users, num_tweets, &xr_triplets)
        .expect("validated events are in bounds");
    let gu = UserGraph::from_edges(num_users, &gu_edges);
    (xr, gu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posts_and_retweets_fill_xr() {
        let events = vec![
            Interaction::Post { user: 0, tweet: 0 },
            Interaction::Post { user: 1, tweet: 1 },
            Interaction::Retweet {
                user: 0,
                tweet: 1,
                author: 1,
            },
        ];
        let (xr, gu) = build_interactions(2, 2, &events);
        assert_eq!(xr.get(0, 0), 1.0);
        assert_eq!(xr.get(0, 1), 1.0);
        assert_eq!(xr.get(1, 1), 1.0);
        assert_eq!(gu.weight(0, 1), 1.0);
    }

    #[test]
    fn repeated_retweets_accumulate_edge_weight() {
        let events = vec![
            Interaction::Retweet {
                user: 0,
                tweet: 1,
                author: 1,
            },
            Interaction::Retweet {
                user: 0,
                tweet: 2,
                author: 1,
            },
        ];
        let (xr, gu) = build_interactions(2, 3, &events);
        assert_eq!(gu.weight(0, 1), 2.0);
        assert_eq!(xr.nnz(), 2);
    }

    #[test]
    fn self_retweet_adds_no_graph_edge() {
        let events = vec![Interaction::Retweet {
            user: 0,
            tweet: 0,
            author: 0,
        }];
        let (_, gu) = build_interactions(1, 1, &events);
        assert_eq!(gu.adjacency().nnz(), 0);
    }
}
