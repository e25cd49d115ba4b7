//! UserReg-style semi-supervised baseline (Deng et al., SDM 2013):
//! tweet sentiments from a base classifier, user sentiments by
//! aggregating the user's tweets, regularized for user–user consistency
//! over the re-tweet graph — the paper's "UserReg-10".

use tgs_graph::UserGraph;
use tgs_linalg::DenseMatrix;

use crate::nb::NaiveBayes;

/// Hyper-parameters of the UserReg pipeline.
#[derive(Debug, Clone)]
pub struct UserRegConfig {
    /// Number of classes.
    pub(crate) k: usize,
    /// Weight of the author's aggregated sentiment when re-scoring a
    /// tweet (0 = pure text classifier, 1 = pure author prior).
    pub(crate) blend: f64,
    /// Graph-smoothing interpolation weight per sweep.
    pub(crate) smoothing: f64,
    /// Number of graph-smoothing sweeps over the user graph.
    pub(crate) graph_iters: usize,
    /// Laplace smoothing of the base Naive Bayes classifier.
    pub(crate) nb_smoothing: f64,
}

impl Default for UserRegConfig {
    fn default() -> Self {
        Self {
            k: 3,
            blend: 0.4,
            smoothing: 0.3,
            graph_iters: 5,
            nb_smoothing: 1.0,
        }
    }
}

/// Output of the UserReg pipeline.
#[derive(Debug, Clone)]
pub struct UserRegResult {
    /// Final tweet labels.
    pub tweet_labels: Vec<usize>,
    /// Final user labels.
    pub user_labels: Vec<usize>,
}

/// Runs the pipeline.
///
/// * `docs` — encoded tweets; `tweet_labels[i]` — visible labels (already
///   subsampled to the experiment's fraction);
/// * `doc_user[i]` — author of tweet `i`;
/// * `graph` — user–user re-tweet graph.
pub fn userreg(
    docs: &[Vec<usize>],
    tweet_labels: &[Option<usize>],
    doc_user: &[usize],
    num_features: usize,
    graph: &UserGraph,
    config: &UserRegConfig,
) -> UserRegResult {
    assert_eq!(docs.len(), tweet_labels.len(), "one label slot per tweet");
    assert_eq!(docs.len(), doc_user.len(), "one author per tweet");
    let k = config.k;
    let m = graph.num_nodes();

    // 1. Base tweet classifier on the labeled fraction.
    let nb = NaiveBayes::train(docs, tweet_labels, num_features, k, config.nb_smoothing);
    let tweet_dist: Vec<Vec<f64>> = docs.iter().map(|d| softmax(&nb.scores(d))).collect();

    // 2. Users aggregate their tweets' distributions (the assumption the
    //    paper criticizes — kept faithfully for this baseline).
    let mut user_dist = DenseMatrix::filled(m, k, 1.0 / k as f64);
    let mut user_count = vec![0usize; m];
    for (dist, &u) in tweet_dist.iter().zip(doc_user.iter()) {
        assert!(u < m, "author id {u} out of range");
        if user_count[u] == 0 {
            user_dist.row_mut(u).fill(0.0);
        }
        for (acc, &v) in user_dist.row_mut(u).iter_mut().zip(dist.iter()) {
            *acc += v;
        }
        user_count[u] += 1;
    }
    user_dist.normalize_rows_l1();

    // 3. User–user consistency: smooth over the re-tweet graph.
    for _ in 0..config.graph_iters {
        let mut next = user_dist.clone();
        for u in 0..m {
            let deg = graph.degree(u);
            if deg <= 0.0 {
                continue;
            }
            let mut agg = vec![0.0; k];
            for (v, w) in graph.neighbors(u) {
                for (a, &x) in agg.iter_mut().zip(user_dist.row(v).iter()) {
                    *a += w * x;
                }
            }
            let row = next.row_mut(u);
            for (j, r) in row.iter_mut().enumerate() {
                *r = (1.0 - config.smoothing) * *r + config.smoothing * agg[j] / deg;
            }
        }
        user_dist = next;
        user_dist.normalize_rows_l1();
    }

    // 4. Re-score tweets with the author prior blended in.
    let tweet_labels_out: Vec<usize> = tweet_dist
        .iter()
        .zip(doc_user.iter())
        .map(|(dist, &u)| {
            let prior = user_dist.row(u);
            argmax_blend(dist, prior, config.blend)
        })
        .collect();
    UserRegResult {
        tweet_labels: tweet_labels_out,
        user_labels: user_dist.argmax_rows(),
    }
}

fn softmax(log_scores: &[f64]) -> Vec<f64> {
    let max = log_scores.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f64> = log_scores.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

fn argmax_blend(a: &[f64], b: &[f64], blend: f64) -> usize {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (1.0 - blend) * x + blend * y)
        .enumerate()
        .max_by(|p, q| p.1.partial_cmp(&q.1).expect("finite scores"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Setup = (Vec<Vec<usize>>, Vec<Option<usize>>, Vec<usize>, UserGraph);

    /// Two users, clearly separated vocabularies; one noisy tweet per
    /// user that the author prior should correct.
    fn setup() -> Setup {
        // features 0,1 = class 0 words; 2,3 = class 1 words
        let docs = vec![
            vec![0, 1, 0],    // user 0
            vec![0, 0, 1],    // user 0
            vec![2, 0, 1, 0], // user 0, mildly ambiguous
            vec![2, 3, 3],    // user 1
            vec![3, 2, 2],    // user 1
            vec![0, 3, 2, 3], // user 1, mildly ambiguous
        ];
        let labels = vec![Some(0), Some(0), None, Some(1), Some(1), None];
        let doc_user = vec![0, 0, 0, 1, 1, 1];
        let graph = UserGraph::empty(2);
        (docs, labels, doc_user, graph)
    }

    #[test]
    fn users_aggregate_to_their_class() {
        let (docs, labels, doc_user, graph) = setup();
        let cfg = UserRegConfig {
            k: 2,
            ..Default::default()
        };
        let out = userreg(&docs, &labels, &doc_user, 4, &graph, &cfg);
        assert_eq!(out.user_labels, vec![0, 1]);
    }

    #[test]
    fn author_prior_corrects_ambiguous_tweets() {
        let (docs, labels, doc_user, graph) = setup();
        let cfg = UserRegConfig {
            k: 2,
            blend: 0.6,
            ..Default::default()
        };
        let out = userreg(&docs, &labels, &doc_user, 4, &graph, &cfg);
        assert_eq!(
            out.tweet_labels[2], 0,
            "user 0's ambiguous tweet pulled to class 0"
        );
        assert_eq!(
            out.tweet_labels[5], 1,
            "user 1's ambiguous tweet pulled to class 1"
        );
    }

    #[test]
    fn graph_smoothing_aligns_connected_users() {
        // user 2 has no tweets at all but is tied to user 0
        let docs = vec![vec![0, 1], vec![0], vec![2, 3], vec![3]];
        let labels = vec![Some(0), Some(0), Some(1), Some(1)];
        let doc_user = vec![0, 0, 1, 1];
        let graph = UserGraph::from_edges(3, &[(0, 2, 2.0)]);
        let cfg = UserRegConfig {
            k: 2,
            ..Default::default()
        };
        let out = userreg(&docs, &labels, &doc_user, 4, &graph, &cfg);
        assert_eq!(
            out.user_labels[2], 0,
            "tweetless user adopts neighbor sentiment"
        );
    }
}
