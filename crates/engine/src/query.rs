//! The read side: a cheap, cloneable handle over the engine's recorded
//! history.
//!
//! An [`EngineQuery`] can be cloned and moved to other threads; it shares
//! the engine's state behind a mutex, so queries observe every snapshot
//! the worker has committed (call [`flush`] first for read-your-writes
//! over snapshots still in the ingest queue).
//!
//! [`flush`]: crate::SentimentEngine::flush

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use parking_lot::Mutex;
use tgs_core::TgsError;

use crate::engine::{EngineShared, EngineState};

/// Aggregate results of one processed snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// The snapshot's timestamp.
    pub timestamp: u64,
    /// Documents in the snapshot.
    pub tweets: usize,
    /// Distinct users in the snapshot.
    pub users: usize,
    /// Users never seen before (within the window).
    pub new_users: usize,
    /// Users with in-window history.
    pub evolving_users: usize,
    /// Solver iterations spent on the snapshot.
    pub iterations: usize,
    /// Whether the solver met its tolerance.
    pub converged: bool,
    /// Final objective value (Eq. 19).
    pub objective: f64,
    /// Tweets assigned to each sentiment cluster.
    pub tweet_counts: Vec<usize>,
    /// Users assigned to each sentiment cluster.
    pub user_counts: Vec<usize>,
}

impl TimelineEntry {
    /// Folds another shard's entry for the *same timestamp* into this
    /// one: aggregates sum, `iterations` is the slowest shard's,
    /// `converged` requires every shard to have converged. Shared by the
    /// multi-shard query fan-in and the shard-merge absorb path, so the
    /// two can never disagree.
    pub(crate) fn merge_from(&mut self, other: &TimelineEntry) {
        self.tweets += other.tweets;
        self.users += other.users;
        self.new_users += other.new_users;
        self.evolving_users += other.evolving_users;
        // The slowest shard gates the step; convergence means *every*
        // shard converged; objectives are additive across disjoint
        // shards.
        self.iterations = self.iterations.max(other.iterations);
        self.converged &= other.converged;
        self.objective += other.objective;
        for (x, y) in self.tweet_counts.iter_mut().zip(&other.tweet_counts) {
            *x += y;
        }
        for (x, y) in self.user_counts.iter_mut().zip(&other.user_counts) {
            *x += y;
        }
    }

    /// Per-cluster tweet share in `[0, 1]` (all zeros for an empty
    /// snapshot).
    pub fn tweet_shares(&self) -> Vec<f64> {
        let total = self.tweet_counts.iter().sum::<usize>().max(1) as f64;
        self.tweet_counts
            .iter()
            .map(|&c| c as f64 / total)
            .collect()
    }
}

/// A user's recorded sentiment at (or before) a queried time.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSentiment {
    /// The queried global user id.
    pub user: usize,
    /// Timestamp of the observation actually answering the query (the
    /// newest one at or before `at`).
    pub timestamp: u64,
    /// L1-normalized class distribution (the `Su` row, "likelihood of the
    /// user's sentiment in class j", §2).
    pub distribution: Vec<f64>,
}

impl UserSentiment {
    /// Hard label: argmax of the distribution.
    pub fn label(&self) -> usize {
        self.distribution
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Per-cluster composition of one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// The snapshot's timestamp.
    pub timestamp: u64,
    /// Tweets per cluster.
    pub tweet_counts: Vec<usize>,
    /// Users per cluster.
    pub user_counts: Vec<usize>,
    /// Tweet share per cluster in `[0, 1]`.
    pub tweet_shares: Vec<f64>,
}

/// Read handle over a [`crate::SentimentEngine`]'s history.
#[derive(Clone)]
pub struct EngineQuery {
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) state: Arc<Mutex<EngineState>>,
}

impl EngineQuery {
    /// Timeline entries whose timestamp falls in `range`, ascending.
    ///
    /// `query.timeline(..)` returns the full history;
    /// `query.timeline(3..=7)` a closed slice of it. An empty or
    /// inverted range yields an empty vector (never a panic).
    pub fn timeline<R: RangeBounds<u64>>(&self, range: R) -> Vec<TimelineEntry> {
        // Normalize to inclusive bounds up front: `BTreeMap::range`
        // panics on start > end, which user-supplied ranges (e.g. the
        // CLI's `--timeline 5..3`) must not reach.
        let lo = match range.start_bound() {
            Bound::Unbounded => 0,
            Bound::Included(&t) => t,
            Bound::Excluded(&t) => match t.checked_add(1) {
                Some(v) => v,
                None => return Vec::new(),
            },
        };
        let hi = match range.end_bound() {
            Bound::Unbounded => u64::MAX,
            Bound::Included(&t) => t,
            Bound::Excluded(&t) => match t.checked_sub(1) {
                Some(v) => v,
                None => return Vec::new(),
            },
        };
        if lo > hi {
            return Vec::new();
        }
        let state = self.state.lock();
        state
            .timeline
            .range(lo..=hi)
            .map(|(_, e)| e.clone())
            .collect()
    }

    /// The most recent timeline entry, if any snapshot has been
    /// processed.
    pub fn latest(&self) -> Option<TimelineEntry> {
        let state = self.state.lock();
        state.timeline.values().next_back().cloned()
    }

    /// Every committed snapshot timestamp, ascending — the keys of
    /// [`EngineQuery::timeline`] without cloning the entries. A
    /// multi-shard router reads them once, when it is built, to seed its
    /// fleet-wide append-only check.
    pub(crate) fn timestamps(&self) -> Vec<u64> {
        let state = self.state.lock();
        state.timeline.keys().copied().collect()
    }

    /// The user's sentiment as of time `at`: the newest recorded
    /// observation with `timestamp <= at`. [`TgsError::UnknownUser`] when
    /// the user has no observation at or before `at`.
    pub fn user_sentiment(&self, user: usize, at: u64) -> Result<UserSentiment, TgsError> {
        let state = self.state.lock();
        let track = state
            .user_track
            .get(&user)
            .ok_or(TgsError::UnknownUser { user })?;
        track
            .iter()
            .filter(|(t, _)| *t <= at)
            .max_by_key(|(t, _)| *t)
            .map(|(t, dist)| UserSentiment {
                user,
                timestamp: *t,
                distribution: dist.clone(),
            })
            .ok_or(TgsError::UnknownUser { user })
    }

    /// Every recorded `(timestamp, distribution)` observation for the
    /// user, ascending by timestamp.
    pub(crate) fn user_timeline(&self, user: usize) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        let state = self.state.lock();
        let track = state
            .user_track
            .get(&user)
            .ok_or(TgsError::UnknownUser { user })?;
        let mut out = track.clone();
        out.sort_by_key(|(t, _)| *t);
        Ok(out)
    }

    /// Number of users with any recorded history.
    pub(crate) fn known_users(&self) -> usize {
        self.state.lock().user_track.len()
    }

    /// Per-cluster composition of the snapshot at exactly timestamp `t`.
    pub fn cluster_summary(&self, t: u64) -> Result<ClusterSummary, TgsError> {
        let state = self.state.lock();
        let entry = state
            .timeline
            .get(&t)
            .ok_or(TgsError::SnapshotUnavailable { timestamp: t })?;
        Ok(ClusterSummary {
            timestamp: t,
            tweet_counts: entry.tweet_counts.clone(),
            user_counts: entry.user_counts.clone(),
            tweet_shares: entry.tweet_shares(),
        })
    }

    /// The recorded word–sentiment factor `Sf` (`l × k`) of the snapshot
    /// at exactly timestamp `t`. Fails with
    /// [`TgsError::SnapshotUnavailable`] when the snapshot was never
    /// ingested or its factors were evicted from the bounded store. The
    /// multi-shard router merges these across shards before ranking.
    pub(crate) fn sf_at(&self, t: u64) -> Result<tgs_linalg::DenseMatrix, TgsError> {
        let state = self.state.lock();
        state
            .sf_store
            .get(t)
            .ok_or(TgsError::SnapshotUnavailable { timestamp: t })
    }

    /// The `topk` highest-weight vocabulary features of each cluster's
    /// `Sf` column at timestamp `t` (ties break by feature id for
    /// determinism). Fails with [`TgsError::SnapshotUnavailable`] when the
    /// snapshot was never ingested or its factors were evicted from the
    /// bounded store.
    pub fn top_words(&self, t: u64, topk: usize) -> Result<Vec<Vec<(String, f64)>>, TgsError> {
        let sf = self.sf_at(t)?;
        Ok(rank_top_words(&sf, &self.shared.vocab, topk))
    }
}

/// Ranks each `Sf` column's features: highest weight first, ties broken
/// by feature id for determinism. Shared by the single-engine and
/// multi-shard query paths.
pub(crate) fn rank_top_words(
    sf: &tgs_linalg::DenseMatrix,
    vocab: &tgs_text::Vocabulary,
    topk: usize,
) -> Vec<Vec<(String, f64)>> {
    let k = sf.cols();
    let mut out = Vec::with_capacity(k);
    for j in 0..k {
        let mut scored: Vec<(usize, f64)> = (0..sf.rows()).map(|f| (f, sf.get(f, j))).collect();
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out.push(
            scored
                .into_iter()
                .take(topk)
                .map(|(f, w)| (vocab.token(f).to_string(), w))
                .collect(),
        );
    }
    out
}
