//! Streaming evaluation: run online / mini-batch / full-batch over a
//! corpus's daily snapshots and record per-timestamp runtime and accuracy
//! (the machinery behind Figs. 11–12 and the "online" rows of Tables
//! 4–5). One private loop, `run_stream`, walks the snapshots and keeps
//! the per-step records, the global labels and the user votes; each
//! public runner only says how to solve one snapshot, and times the
//! solve alone, not the label extraction.

use std::time::{Duration, Instant};

use tgs_baselines::{FullBatch, MiniBatch};
use tgs_core::{OfflineConfig, OnlineConfig, OnlineSolver, SnapshotData, TriInput};
use tgs_data::{day_windows, Corpus, SnapshotBuilder, SnapshotInstance};
use tgs_eval::clustering_accuracy;

use crate::common::{floor, labeled_users, polar_tweets, select};

/// Per-timestamp record.
#[derive(Debug, Clone)]
pub(crate) struct StepRecord {
    /// First day of the snapshot's range.
    pub(crate) lo: u32,
    /// Tweets in the snapshot (`n(t)`).
    pub(crate) n_t: usize,
    /// Wall time of the solve at this timestamp.
    pub(crate) elapsed: Duration,
    /// Tweet-level clustering accuracy on the snapshot's polar tweets.
    pub(crate) tweet_acc: f64,
    /// [`floor`] of the snapshot's polar tweets.
    pub(crate) tweet_floor: f64,
    /// User-level clustering accuracy on the snapshot's users.
    pub(crate) user_acc: f64,
}

/// Full stream evaluation result.
#[derive(Debug, Clone)]
pub struct StreamEval {
    /// One record per non-empty snapshot.
    pub(crate) steps: Vec<StepRecord>,
    /// Global per-tweet hard labels, assembled across snapshots. The
    /// lexicon-seeded warm starts do not keep the cluster columns
    /// class-aligned: on Prop 30 small the per-day majority mapping of
    /// the polar tweets takes 5 values over 40 days, so pooled ids score
    /// below the per-day average (ROADMAP item 1(b)).
    pub(crate) tweet_pred: Vec<usize>,
    /// Global per-user labels by majority vote over every snapshot the
    /// user appeared in — the stream's "overall stance" estimate, the
    /// fair comparison against a single offline label.
    pub(crate) user_majority_pred: Vec<usize>,
    /// Accuracy of `user_majority_pred` on the labeled users.
    pub user_majority_acc: f64,
    /// Snapshot-size–weighted average tweet accuracy.
    pub tweet_acc: f64,
    /// `tweet_acc` of one cluster per snapshot, weighted the same way:
    /// the floor `tweet_acc` compares against.
    pub tweet_floor: f64,
    /// Global user accuracy: every user's most recent hard label vs the
    /// overall (majority-stance) ground truth.
    pub user_acc: f64,
    /// Total solve time across the stream.
    pub(crate) total_time: Duration,
}

fn snapshot_input<'a>(snap: &'a SnapshotInstance, builder: &'a SnapshotBuilder) -> TriInput<'a> {
    TriInput {
        xp: &snap.xp,
        xu: &snap.xu,
        xr: &snap.xr,
        graph: &snap.graph,
        sf0: builder.sf0(),
    }
}

/// `(tweet_acc, tweet_floor, user_acc)` of one snapshot.
fn eval_snapshot(
    snap: &SnapshotInstance,
    corpus: &Corpus,
    tweet_labels: &[usize],
    user_labels: &[usize],
) -> (f64, f64, f64) {
    let polar = polar_tweets(&snap.tweet_truth);
    let polar_truth = select(&polar, &snap.tweet_truth);
    let (tweet_acc, tweet_floor) = if polar.is_empty() {
        (1.0, 1.0)
    } else {
        (
            clustering_accuracy(&select(&polar, tweet_labels), &polar_truth),
            floor(&polar_truth),
        )
    };
    // User-level accuracy on the snapshot's *labeled* users (the paper
    // evaluates against Table 3's labeled user set).
    let labeled: Vec<usize> = (0..snap.user_ids.len())
        .filter(|&row| corpus.users[snap.user_ids[row]].label.is_some())
        .collect();
    let user_acc = if labeled.is_empty() {
        1.0
    } else {
        clustering_accuracy(
            &select(&labeled, user_labels),
            &select(&labeled, &snap.user_truth),
        )
    };
    (tweet_acc, tweet_floor, user_acc)
}

/// Walks the corpus's `window_days` snapshots, skipping empty ones, and
/// scores each with the labels `solve` returns for it: `solve(snapshot,
/// hi)` gives `(tweet labels, user labels, solve time)` in the snapshot's
/// row order, where `hi` ends the snapshot's day range.
fn run_stream(
    corpus: &Corpus,
    builder: &SnapshotBuilder,
    window_days: u32,
    mut solve: impl FnMut(&SnapshotInstance, u32) -> (Vec<usize>, Vec<usize>, Duration),
) -> StreamEval {
    let mut steps = Vec::new();
    let mut user_last: Vec<Option<usize>> = vec![None; corpus.num_users()];
    let mut user_votes: Vec<[u32; 3]> = vec![[0; 3]; corpus.num_users()];
    let mut tweet_pred = vec![0usize; corpus.num_tweets()];
    for (lo, hi) in day_windows(corpus.num_days, window_days) {
        let snap = builder.snapshot(corpus, lo, hi);
        if snap.tweet_ids.is_empty() {
            continue;
        }
        let (tweet_labels, user_labels, elapsed) = solve(&snap, hi);
        let (tweet_acc, tweet_floor, user_acc) =
            eval_snapshot(&snap, corpus, &tweet_labels, &user_labels);
        for (row, &id) in snap.tweet_ids.iter().enumerate() {
            tweet_pred[id] = tweet_labels[row];
        }
        for (row, &u) in snap.user_ids.iter().enumerate() {
            user_last[u] = Some(user_labels[row]);
            user_votes[u][user_labels[row].min(2)] += 1;
        }
        steps.push(StepRecord {
            lo,
            n_t: snap.tweet_ids.len(),
            elapsed,
            tweet_acc,
            tweet_floor,
            user_acc,
        });
    }

    let total_weight: usize = steps.iter().map(|s| s.n_t).sum();
    let weighted = |acc: fn(&StepRecord) -> f64| {
        if total_weight == 0 {
            0.0
        } else {
            steps.iter().map(|s| acc(s) * s.n_t as f64).sum::<f64>() / total_weight as f64
        }
    };
    let tweet_acc = weighted(|s| s.tweet_acc);
    let tweet_floor = weighted(|s| s.tweet_floor);
    let user_truth = corpus.user_truth();
    let user_pred: Vec<usize> = user_last.iter().map(|l| l.unwrap_or(0)).collect();
    let eval_set = labeled_users(&corpus.user_labels());
    let user_acc = clustering_accuracy(
        &select(&eval_set, &user_pred),
        &select(&eval_set, &user_truth),
    );
    let user_majority_pred: Vec<usize> = user_votes
        .iter()
        .map(|v| (0..3).max_by_key(|&c| v[c]).unwrap_or(0))
        .collect();
    let user_majority_acc = clustering_accuracy(
        &select(&eval_set, &user_majority_pred),
        &select(&eval_set, &user_truth),
    );
    let total_time = steps.iter().map(|s| s.elapsed).sum();
    StreamEval {
        steps,
        tweet_pred,
        user_majority_pred,
        user_majority_acc,
        tweet_acc,
        tweet_floor,
        user_acc,
        total_time,
    }
}

/// Runs the online tri-clustering solver over daily (or `window_days`)
/// snapshots.
pub fn run_online_stream(
    corpus: &Corpus,
    builder: &SnapshotBuilder,
    config: &OnlineConfig,
    window_days: u32,
) -> StreamEval {
    let mut solver = OnlineSolver::new(config.clone());
    run_stream(corpus, builder, window_days, |snap, _| {
        let input = snapshot_input(snap, builder);
        let start = Instant::now();
        let result = solver.step(&SnapshotData {
            input,
            user_ids: &snap.user_ids,
        });
        let elapsed = start.elapsed();
        (result.tweet_labels(), result.user_labels(), elapsed)
    })
}

/// Runs the mini-batch strawman (offline solver on each snapshot
/// independently).
pub(crate) fn run_minibatch_stream(
    corpus: &Corpus,
    builder: &SnapshotBuilder,
    config: &OfflineConfig,
    window_days: u32,
) -> StreamEval {
    let mut driver = MiniBatch::new(config.clone());
    run_stream(corpus, builder, window_days, |snap, _| {
        let timed = driver.step(&snapshot_input(snap, builder));
        (
            timed.result.tweet_labels(),
            timed.result.user_labels(),
            timed.elapsed,
        )
    })
}

/// Runs the full-batch strawman: at each timestamp, re-solve on *all*
/// data so far, then evaluate on the current snapshot only.
pub(crate) fn run_fullbatch_stream(
    corpus: &Corpus,
    builder: &SnapshotBuilder,
    config: &OfflineConfig,
    window_days: u32,
) -> StreamEval {
    let mut driver = FullBatch::new(config.clone());
    run_stream(corpus, builder, window_days, |snap, hi| {
        // Cumulative instance over days [0, hi).
        let cumulative = builder.snapshot(corpus, 0, hi);
        let timed = driver.step(&snapshot_input(&cumulative, builder));
        let all_tweet_labels = timed.result.tweet_labels();
        let all_user_labels = timed.result.user_labels();
        // Slice out the current snapshot's tweets/users.
        let tweet_pos: std::collections::HashMap<usize, usize> = cumulative
            .tweet_ids
            .iter()
            .enumerate()
            .map(|(row, &id)| (id, row))
            .collect();
        let user_pos: std::collections::HashMap<usize, usize> = cumulative
            .user_ids
            .iter()
            .enumerate()
            .map(|(row, &id)| (id, row))
            .collect();
        let tweet_labels: Vec<usize> = snap
            .tweet_ids
            .iter()
            .map(|id| all_tweet_labels[tweet_pos[id]])
            .collect();
        let user_labels: Vec<usize> = snap
            .user_ids
            .iter()
            .map(|id| all_user_labels[user_pos[id]])
            .collect();
        (tweet_labels, user_labels, timed.elapsed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{corpus, pipeline, Scale, Topic};

    #[test]
    fn online_stream_produces_records() {
        let c = corpus(Topic::Prop30, Scale::Small);
        let builder = SnapshotBuilder::new(&c, 3, &pipeline());
        let cfg = OnlineConfig {
            max_iters: 20,
            ..Default::default()
        };
        let eval = run_online_stream(&c, &builder, &cfg, 8);
        assert!(!eval.steps.is_empty());
        assert!(eval.tweet_acc > 0.4, "tweet acc {}", eval.tweet_acc);
        assert!(eval.total_time.as_nanos() > 0);
        let covered: usize = eval.steps.iter().map(|s| s.n_t).sum();
        assert_eq!(covered, c.num_tweets());
    }

    #[test]
    fn minibatch_stream_runs() {
        let c = corpus(Topic::Prop30, Scale::Small);
        let builder = SnapshotBuilder::new(&c, 3, &pipeline());
        let cfg = OfflineConfig {
            max_iters: 15,
            ..Default::default()
        };
        let eval = run_minibatch_stream(&c, &builder, &cfg, 10);
        assert_eq!(
            eval.steps.len(),
            day_windows(c.num_days, 10).len(),
            "every window non-empty at this scale"
        );
    }

    #[test]
    fn fullbatch_slower_than_minibatch() {
        let c = corpus(Topic::Prop30, Scale::Small);
        let builder = SnapshotBuilder::new(&c, 3, &pipeline());
        let cfg = OfflineConfig {
            max_iters: 10,
            ..Default::default()
        };
        let mini = run_minibatch_stream(&c, &builder, &cfg, 10);
        let full = run_fullbatch_stream(&c, &builder, &cfg, 10);
        assert!(
            full.total_time > mini.total_time,
            "full-batch {:?} should exceed mini-batch {:?}",
            full.total_time,
            mini.total_time
        );
    }
}
