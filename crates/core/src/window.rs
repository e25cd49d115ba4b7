//! Temporal windows: the `Sfw(t)` / `Suw(t)` aggregations of §4.
//!
//! `Mw(t) = Σ_{i=1}^{w−1} τ^i · M(t−i)` — an exponentially decayed
//! aggregation of the previous `w − 1` snapshots. `Sfw` is divided by
//! `Σ τ^i` to keep the target on a single-snapshot scale; `Suw` is not.

use std::collections::{HashMap, VecDeque};

use tgs_linalg::DenseMatrix;

/// A user's checkpointed history: `(step, Su row)` observations, newest
/// first (the in-memory order of [`SentimentHistory`]). Steps are signed:
/// a row imported from another shard (live rebalance) keeps its *age*,
/// and an old observation landing on a young solver can predate step 0.
pub(crate) type UserHistoryRows = Vec<(i64, Vec<f64>)>;

/// The whole per-user history in checkpointable form: `(user, entries)`
/// pairs sorted by user id.
pub(crate) type HistoryRows = Vec<(usize, UserHistoryRows)>;

/// Per-user history in *age-relative* form for migration between
/// solvers: `(user, entries)` pairs sorted by user id, each entry an
/// `(age, Su row)` observation with `age` = how many steps ago the
/// owning solver recorded it (newest — smallest age — first). Ages are
/// solver-independent, so a row re-anchors correctly on a destination
/// whose step counter differs from the source's.
pub(crate) type AgedHistoryRows = Vec<(usize, Vec<(u64, Vec<f64>)>)>;

/// Lower bound on representable history steps and upper bound on
/// migration ages: ±2⁶² steps. No real stream approaches this (it would
/// take 4.6×10¹⁸ snapshots), but bounding the domain keeps the signed
/// step arithmetic (`t + 1 − step`, `t − step`) overflow-free against
/// crafted checkpoints whose u64 step fields wrap negative.
const STEP_FLOOR: i64 = -(1 << 62);

/// Ring buffer of the last `w − 1` feature-cluster matrices `Sf(t−i)`.
///
/// The aggregate is normalized by `Σ τ^i`, unlike the paper's definition:
/// with its `w = 2` an unnormalized target `τ·Sf(t−1)` would pull `Sf`
/// down by `τ` every snapshot. The unnormalized variant is not measured.
#[derive(Debug, Clone)]
pub struct FactorWindow {
    window: usize,
    tau: f64,
    /// Front = most recent (`i = 1`).
    buf: VecDeque<DenseMatrix>,
}

impl FactorWindow {
    /// Creates an empty window holding up to `window − 1` snapshots.
    pub fn new(window: usize, tau: f64) -> Self {
        assert!(window >= 1, "window must be >= 1");
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0, 1]");
        Self {
            window,
            tau,
            buf: VecDeque::new(),
        }
    }

    /// True when no history is available yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pushes the newest snapshot, evicting anything beyond `w − 1`.
    pub fn push(&mut self, sf: DenseMatrix) {
        self.buf.push_front(sf);
        while self.buf.len() > self.window.saturating_sub(1) {
            self.buf.pop_back();
        }
    }

    /// The retained snapshots, most recent (`i = 1`) first. Exposed for
    /// checkpointing; pair with [`FactorWindow::restore`].
    pub(crate) fn snapshots(&self) -> impl Iterator<Item = &DenseMatrix> {
        self.buf.iter()
    }

    /// Rebuilds a window from checkpointed snapshots (most recent first,
    /// as produced by [`FactorWindow::snapshots`]). Snapshots beyond the
    /// window's capacity are dropped.
    pub(crate) fn restore(window: usize, tau: f64, snapshots: Vec<DenseMatrix>) -> Self {
        let mut w = Self::new(window, tau);
        w.buf = snapshots
            .into_iter()
            .take(window.saturating_sub(1))
            .collect();
        w
    }

    /// `Sfw(t) = Σ_{i=1}^{w−1} τ^i·Sf(t−i) / Σ_{i=1}^{w−1} τ^i`, or `None`
    /// before any history exists (first snapshot).
    pub fn aggregate(&self) -> Option<DenseMatrix> {
        let first = self.buf.front()?;
        let mut acc = DenseMatrix::zeros(first.rows(), first.cols());
        let mut weight_sum = 0.0;
        let mut w = self.tau;
        for sf in &self.buf {
            acc.axpy(w, sf);
            weight_sum += w;
            w *= self.tau;
        }
        acc.scale_in_place(1.0 / weight_sum);
        Some(acc)
    }
}

/// Per-user sentiment history over global user ids: the machinery behind
/// `Suw(t)` and the new/evolving/disappeared partition of §4.
#[derive(Debug, Clone)]
pub struct SentimentHistory {
    k: usize,
    window: usize,
    tau: f64,
    /// Global step counter (one per processed snapshot).
    t: i64,
    /// Per user: recent `(step, row)` observations, front = newest.
    /// Steps are signed — see [`UserHistoryRows`].
    rows: HashMap<usize, VecDeque<(i64, Vec<f64>)>>,
}

/// The user categories of the online framework present in a snapshot,
/// as *local row indices* into it. The third category, users with
/// history but absent from the snapshot, needs no list: their history
/// is kept ([`SentimentHistory::knows`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserPartition {
    /// Local rows of users never seen within the window.
    pub new_rows: Vec<usize>,
    /// Local rows of users with in-window history.
    pub evolving_rows: Vec<usize>,
    /// Local rows that are ghosts: remote users materialized for a
    /// cross-shard re-tweet edge. Their factors are prescribed by the
    /// owning shard and they are excluded from this shard's history.
    /// Always empty outside the ghost-user protocol.
    pub ghost_rows: Vec<usize>,
}

impl SentimentHistory {
    /// Creates an empty history for `k` classes with window `w`.
    pub fn new(k: usize, window: usize, tau: f64) -> Self {
        assert!(window >= 1, "window must be >= 1");
        Self {
            k,
            window,
            tau,
            t: 0,
            rows: HashMap::new(),
        }
    }

    /// Steps processed so far.
    pub(crate) fn steps(&self) -> i64 {
        self.t
    }

    /// True when `user` has ever been observed (the most recent
    /// observation is retained indefinitely; older ones only within the
    /// window).
    pub fn knows(&self, user: usize) -> bool {
        self.rows.contains_key(&user)
    }

    /// Splits the snapshot's users (global ids, in row order) into
    /// new/evolving, in time linear in the snapshot's users.
    pub fn partition(&self, current_users: &[usize]) -> UserPartition {
        let mut part = UserPartition::default();
        for (row, &u) in current_users.iter().enumerate() {
            if self.knows(u) {
                part.evolving_rows.push(row);
            } else {
                part.new_rows.push(row);
            }
        }
        part
    }

    /// `Suw(t)` row for one user: decayed aggregation of their in-window
    /// rows, not normalized (the paper's definition), so a user absent
    /// for `i` snapshots keeps `τ^i` of their last row. `None` for
    /// unknown users.
    pub(crate) fn aggregate_row(&self, user: usize) -> Option<Vec<f64>> {
        let hist = self.rows.get(&user)?;
        let mut acc = vec![0.0; self.k];
        for &(step, ref row) in hist {
            // Aggregation targets the *next* snapshot (t + 1), so an entry
            // recorded at `step` is `i = (t + 1) − step` snapshots ago
            // (i = 1 for the most recent one, matching Σ τ^i·Su(t−i)).
            // Migrated rows can be arbitrarily old; saturate rather than
            // wrap (τ^big underflows to 0, the right limit).
            let i = i32::try_from(self.t + 1 - step).unwrap_or(i32::MAX);
            let w = self.tau.powi(i);
            for (a, &v) in acc.iter_mut().zip(row.iter()) {
                *a += w * v;
            }
        }
        Some(acc)
    }

    /// The `Suw(t)` matrix for the given local rows (paired with
    /// `current_users`). Rows without history fall back to uniform.
    pub(crate) fn aggregate_matrix(&self, current_users: &[usize], rows: &[usize]) -> DenseMatrix {
        let uniform = vec![1.0 / self.k as f64; self.k];
        let mut out = DenseMatrix::zeros(rows.len(), self.k);
        for (i, &row) in rows.iter().enumerate() {
            let user = current_users[row];
            let agg = self.aggregate_row(user).unwrap_or_else(|| uniform.clone());
            out.row_mut(i).copy_from_slice(&agg);
        }
        out
    }

    /// Exports the per-user history for checkpointing: `(user, entries)`
    /// pairs sorted by user id, each entry a `(step, row)` observation
    /// with the newest first (the in-memory order). Pair with
    /// [`SentimentHistory::restore`].
    pub(crate) fn export_rows(&self) -> HistoryRows {
        let mut out: HistoryRows = self
            .rows
            .iter()
            .map(|(&u, hist)| (u, hist.iter().cloned().collect()))
            .collect();
        out.sort_unstable_by_key(|(u, _)| *u);
        out
    }

    /// Exports the history of just the given users (same shape and
    /// newest-first entry order as [`SentimentHistory::export_rows`],
    /// sorted by user id, users without history skipped) — the
    /// O(changes) read used by delta checkpoints, which only ship rows
    /// for users touched since the base snapshot.
    pub(crate) fn export_rows_for(&self, users: &[usize]) -> HistoryRows {
        let mut out: HistoryRows = users
            .iter()
            .filter_map(|&u| {
                self.rows
                    .get(&u)
                    .map(|hist| (u, hist.iter().cloned().collect()))
            })
            .collect();
        out.sort_unstable_by_key(|(u, _)| *u);
        out.dedup_by_key(|(u, _)| *u);
        out
    }

    /// Rebuilds a history from checkpointed state: the global step
    /// counter `t` and the per-user `(step, row)` observations as
    /// produced by [`SentimentHistory::export_rows`]. Rows whose length
    /// disagrees with `k`, or whose step lies in the future of `t`, are
    /// rejected (an out-of-range step would underflow the decay exponent
    /// in [`SentimentHistory::aggregate_row`]).
    pub(crate) fn restore(
        k: usize,
        window: usize,
        tau: f64,
        t: i64,
        rows: HistoryRows,
    ) -> Result<Self, crate::error::TgsError> {
        // The counter itself must respect the representable band too: a
        // crafted checkpoint whose u64 counter wrapped negative (or sits
        // at i64::MAX) would overflow `t += 1` / the horizon arithmetic
        // on the first post-restore snapshot even with zero rows.
        if !(STEP_FLOOR..=-STEP_FLOOR).contains(&t) {
            return Err(crate::error::TgsError::CorruptCheckpoint {
                detail: format!("history step counter {t} is outside the representable band"),
            });
        }
        let mut h = Self::new(k, window, tau);
        h.t = t;
        for (user, entries) in rows {
            for (step, row) in &entries {
                if row.len() != k {
                    return Err(crate::error::TgsError::CorruptCheckpoint {
                        detail: format!(
                            "history row for user {user} at step {step} has {} classes, \
                             expected {k}",
                            row.len()
                        ),
                    });
                }
                if *step > t {
                    return Err(crate::error::TgsError::CorruptCheckpoint {
                        detail: format!(
                            "history row for user {user} is at step {step}, beyond the \
                             restored step counter {t}"
                        ),
                    });
                }
                // Steps are signed (migration ages), but a legitimate one
                // can never approach i64::MIN — that shape only arises
                // from a crafted checkpoint whose huge u64 wrapped
                // negative, and it would overflow the `t + 1 - step` /
                // `t - step` arithmetic downstream.
                if *step < STEP_FLOOR {
                    return Err(crate::error::TgsError::CorruptCheckpoint {
                        detail: format!(
                            "history row for user {user} is at step {step}, below the \
                             representable age floor"
                        ),
                    });
                }
            }
            h.rows.insert(user, entries.into_iter().collect());
        }
        Ok(h)
    }

    /// Records the solved `Su(t)` rows (paired with `current_users`) and
    /// advances the step counter, pruning anything older than `w − 1`
    /// snapshots.
    pub fn record(&mut self, current_users: &[usize], su: &DenseMatrix) {
        self.record_masked(current_users, su, &[]);
    }

    /// Like [`SentimentHistory::record`], but skipping the given sorted
    /// local rows — the ghost-row protocol: a ghost row's user is owned
    /// (and recorded) by another shard, so committing it here would fork
    /// the user's history. The step counter still advances and pruning
    /// still runs; with an empty mask this is exactly `record`.
    pub(crate) fn record_masked(
        &mut self,
        current_users: &[usize],
        su: &DenseMatrix,
        skip: &[usize],
    ) {
        assert_eq!(current_users.len(), su.rows(), "one row per user required");
        assert_eq!(su.cols(), self.k, "class count mismatch");
        self.t += 1;
        let t = self.t;
        for (row, &u) in current_users.iter().enumerate() {
            if skip.binary_search(&row).is_ok() {
                continue;
            }
            let hist = self.rows.entry(u).or_default();
            hist.push_front((t, su.row(row).to_vec()));
        }
        // Prune out-of-window entries, but always keep each user's most
        // recent observation: the paper's framework carries *disappeared*
        // users forward (Fig. 5 / the Su(d,e) block of Eq. 19) — a user
        // who goes quiet keeps a decaying estimate instead of being
        // forgotten.
        let horizon = t - self.window.saturating_sub(1) as i64;
        self.rows.retain(|_, hist| {
            while hist.len() > 1 {
                match hist.back() {
                    Some(&(step, _)) if step <= horizon => {
                        hist.pop_back();
                    }
                    _ => break,
                }
            }
            !hist.is_empty()
        });
    }

    /// Removes and returns the history of every user with id in
    /// `lo..hi`, in *age-relative* form (sorted by user id) for
    /// migration into another solver via
    /// [`SentimentHistory::import_aged`]. Ages are measured against this
    /// solver's step counter, so the export is placement-independent:
    /// exporting and re-importing (with no steps in between) restores
    /// the exact original state.
    pub(crate) fn take_users(&mut self, lo: usize, hi: usize) -> AgedHistoryRows {
        let t = self.t;
        let mut out: AgedHistoryRows = Vec::new();
        let moving: Vec<usize> = self
            .rows
            .keys()
            .copied()
            .filter(|&u| u >= lo && u < hi)
            .collect();
        for user in moving {
            let hist = self.rows.remove(&user).expect("key just listed");
            let aged = hist
                .into_iter()
                .map(|(step, row)| ((t - step) as u64, row))
                .collect();
            out.push((user, aged));
        }
        out.sort_unstable_by_key(|(u, _)| *u);
        out
    }

    /// Imports age-relative user histories produced by
    /// [`SentimentHistory::take_users`] on another solver, re-anchoring
    /// each row at `step = t − age` against *this* solver's counter.
    /// Rejects rows of the wrong width, non-ascending ages (the
    /// newest-first invariant), unrepresentable ages, and users this
    /// solver already tracks (shards are user-disjoint — a collision
    /// means two shards both claim ownership). Validation runs before
    /// any insertion, and a rejection hands the rows back untouched so
    /// a failed migration can restore them to their source.
    #[allow(clippy::result_large_err)]
    pub(crate) fn import_aged(
        &mut self,
        rows: AgedHistoryRows,
    ) -> Result<(), (crate::error::TgsError, AgedHistoryRows)> {
        let mut problem = None;
        let mut prev_user = None;
        'validate: for (user, entries) in &rows {
            if self.rows.contains_key(user) {
                problem = Some(crate::error::TgsError::invalid_argument(format!(
                    "user {user} already has history here; refusing to merge \
                     two shards' ownership of one user"
                )));
                break 'validate;
            }
            // The payload contract is strictly-ascending user ids; a
            // duplicate within it is the same two-owners collision and
            // would silently overwrite on insert.
            if prev_user.is_some_and(|p| *user <= p) {
                problem = Some(crate::error::TgsError::invalid_argument(format!(
                    "migrated users are not strictly ascending at user {user}"
                )));
                break 'validate;
            }
            prev_user = Some(*user);
            let mut prev_age = None;
            for (age, row) in entries {
                if row.len() != self.k {
                    problem = Some(crate::error::TgsError::invalid_argument(format!(
                        "migrated row for user {user} has {} classes, expected {}",
                        row.len(),
                        self.k
                    )));
                    break 'validate;
                }
                if prev_age.is_some_and(|p| *age < p) {
                    problem = Some(crate::error::TgsError::invalid_argument(format!(
                        "migrated rows for user {user} are not newest-first"
                    )));
                    break 'validate;
                }
                if *age > STEP_FLOOR.unsigned_abs() {
                    problem = Some(crate::error::TgsError::invalid_argument(format!(
                        "migrated row for user {user} claims an unrepresentable age {age}"
                    )));
                    break 'validate;
                }
                prev_age = Some(*age);
            }
        }
        if let Some(e) = problem {
            return Err((e, rows));
        }
        let t = self.t;
        for (user, entries) in rows {
            let hist: VecDeque<(i64, Vec<f64>)> = entries
                .into_iter()
                .map(|(age, row)| (t - age as i64, row))
                .collect();
            if !hist.is_empty() {
                self.rows.insert(user, hist);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_window_empty_then_filled() {
        let mut w = FactorWindow::new(3, 0.5);
        assert!(w.aggregate().is_none());
        w.push(DenseMatrix::filled(2, 2, 1.0));
        let agg = w.aggregate().unwrap();
        // single snapshot: τ¹ · 1.0 / τ¹ = 1.0
        assert!((agg.get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factor_window_decays_older_snapshots() {
        let mut w = FactorWindow::new(3, 0.5);
        w.push(DenseMatrix::filled(1, 1, 8.0)); // will be i=2
        w.push(DenseMatrix::filled(1, 1, 4.0)); // i=1
                                                // (τ·4 + τ²·8) / (τ + τ²) = 4 / 0.75
        let agg = w.aggregate().unwrap();
        assert!((agg.get(0, 0) - 4.0 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn factor_window_normalized_is_convex_combination() {
        let mut w = FactorWindow::new(3, 0.9);
        w.push(DenseMatrix::filled(1, 1, 2.0));
        w.push(DenseMatrix::filled(1, 1, 4.0));
        let agg = w.aggregate().unwrap().get(0, 0);
        assert!(agg > 2.0 && agg < 4.0);
    }

    #[test]
    fn factor_window_evicts_beyond_w_minus_1() {
        let mut w = FactorWindow::new(2, 1.0);
        w.push(DenseMatrix::filled(1, 1, 1.0));
        w.push(DenseMatrix::filled(1, 1, 2.0));
        assert!((w.aggregate().unwrap().get(0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn window_one_keeps_no_history() {
        let mut w = FactorWindow::new(1, 0.9);
        w.push(DenseMatrix::filled(1, 1, 1.0));
        assert!(w.is_empty());
        assert!(w.aggregate().is_none());
    }

    #[test]
    fn history_partition_new_evolving_disappeared() {
        let mut h = SentimentHistory::new(2, 3, 0.9);
        let su = DenseMatrix::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        h.record(&[10, 20], &su);
        let part = h.partition(&[20, 30]);
        assert_eq!(part.evolving_rows, vec![0]); // user 20 at row 0
        assert_eq!(part.new_rows, vec![1]); // user 30 at row 1

        // disappeared: known, but not in the snapshot
        let gone: Vec<usize> = [10, 20, 30]
            .into_iter()
            .filter(|&u| h.knows(u) && ![20, 30].contains(&u))
            .collect();
        assert_eq!(gone, vec![10]);
    }

    #[test]
    fn history_aggregate_row_decays() {
        let mut h = SentimentHistory::new(2, 4, 0.5);
        h.record(&[1], &DenseMatrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap());
        h.record(&[1], &DenseMatrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap());
        // t=2: row(t-1)=[0,1] weight 0.5; row(t-2)=[1,0] weight 0.25
        let agg = h.aggregate_row(1).unwrap();
        assert!((agg[0] - 0.25).abs() < 1e-12);
        assert!((agg[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn history_keeps_last_observation_of_absent_users() {
        let mut h = SentimentHistory::new(2, 2, 0.5);
        h.record(&[7], &DenseMatrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap());
        assert!(h.knows(7));
        // user 7 absent, but the last observation is carried forward
        h.record(&[8], &DenseMatrix::from_vec(1, 2, vec![0.5, 0.5]).unwrap());
        assert!(h.knows(7), "disappeared users are carried forward");
        // ... with a decayed weight: observation is 2 steps old now
        let agg = h.aggregate_row(7).unwrap();
        assert!((agg[0] - 0.25).abs() < 1e-12, "got {agg:?}");
        assert!(h.knows(8));
    }

    #[test]
    fn history_prunes_older_duplicates_within_user() {
        let mut h = SentimentHistory::new(2, 2, 0.5);
        for _ in 0..4 {
            h.record(&[3], &DenseMatrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap());
        }
        // window = 2 keeps w−1 = 1 in-window rows; older ones pruned
        let agg = h.aggregate_row(3).unwrap();
        assert!(
            (agg[0] - 0.5).abs() < 1e-12,
            "only the newest row remains: {agg:?}"
        );
    }

    #[test]
    fn take_and_import_round_trips_exactly() {
        let mut h = SentimentHistory::new(2, 4, 0.5);
        h.record(
            &[1, 9],
            &DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
        );
        h.record(
            &[9],
            &DenseMatrix::from_vec(1, 2, vec![0.25, 0.75]).unwrap(),
        );
        let before_1 = h.aggregate_row(1).unwrap();
        let before_9 = h.aggregate_row(9).unwrap();
        let moved = h.take_users(5, usize::MAX);
        assert_eq!(moved.len(), 1, "only user 9 is in range");
        assert!(h.aggregate_row(9).is_none(), "taken users are removed");
        h.import_aged(moved).unwrap();
        assert_eq!(h.aggregate_row(1).unwrap(), before_1);
        assert_eq!(h.aggregate_row(9).unwrap(), before_9);
    }

    #[test]
    fn import_preserves_age_across_different_step_counters() {
        // Record user 3 on a solver that has seen 2 steps, migrate to a
        // cold solver: the observation must stay "1 step old" there.
        let mut src = SentimentHistory::new(2, 4, 0.5);
        src.record(&[], &DenseMatrix::zeros(0, 2));
        src.record(&[3], &DenseMatrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap());
        let expect = src.aggregate_row(3).unwrap();
        let mut dst = SentimentHistory::new(2, 4, 0.5);
        dst.import_aged(src.take_users(0, usize::MAX)).unwrap();
        assert_eq!(dst.aggregate_row(3).unwrap(), expect);
        // A second import of the same user is a typed ownership clash.
        let mut src2 = SentimentHistory::new(2, 4, 0.5);
        src2.record(&[3], &DenseMatrix::from_vec(1, 2, vec![0.5, 0.5]).unwrap());
        assert!(dst.import_aged(src2.take_users(0, usize::MAX)).is_err());
    }

    #[test]
    fn record_masked_skips_ghost_rows_but_advances_time() {
        let mut h = SentimentHistory::new(2, 3, 0.5);
        let su = DenseMatrix::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        h.record_masked(&[10, 20], &su, &[1]);
        assert!(h.knows(10));
        assert!(!h.knows(20), "masked row must not be recorded");
        assert_eq!(h.steps(), 1);
    }

    #[test]
    fn aggregate_matrix_falls_back_to_uniform() {
        let h = SentimentHistory::new(2, 3, 0.9);
        let m = h.aggregate_matrix(&[5], &[0]);
        assert_eq!(m.row(0), &[0.5, 0.5]);
    }
}
