//! Algorithm 2: the online solver for dynamic sentiment clustering.
//!
//! Per snapshot `t`, the solver (1) partitions the snapshot's users into
//! new / evolving (disappeared users keep their history), (2) warm-starts
//! `Sf(t)` from the decayed window `Sfw(t)` and evolving users from
//! `Suw(t)` (Algorithm 2 line 1), and (3) iterates the online update
//! rules — the temporal regularizers `α‖Sf(t)−Sfw(t)‖²` and
//! `γ‖Su(d,e)(t)−Suw(t)‖²` keep the solution smooth over time.

use tgs_linalg::{random_factor_with, seeded_rng};

use crate::config::OnlineConfig;
use crate::error::TgsError;
use crate::factors::TriFactors;
use crate::input::TriInput;
use crate::objective::{converge, online_objective, ObjectiveParts};
use crate::window::{FactorWindow, SentimentHistory, UserPartition};
use crate::workspace::UpdateWorkspace;

/// One snapshot of data plus the mapping from local user rows to global
/// user ids.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotData<'a> {
    /// The snapshot's matrices (`Xp(t)`, `Xu(t)`, `Xr(t)`, `Gu(t)`, `Sf0`).
    pub input: TriInput<'a>,
    /// Global user id of each local row of `Xu(t)` / `Xr(t)`.
    pub user_ids: &'a [usize],
}

/// Result of one online step.
#[derive(Debug, Clone)]
pub struct OnlineStepResult {
    /// Converged local factors (`Su` rows align with
    /// [`SnapshotData::user_ids`]).
    pub factors: TriFactors,
    /// New/evolving user partition used for this step.
    pub partition: UserPartition,
    /// Per-iteration objective decomposition (empty unless tracking).
    pub history: Vec<ObjectiveParts>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Final objective value (Eq. 19).
    pub objective: f64,
}

impl OnlineStepResult {
    /// Hard tweet labels for the snapshot.
    pub fn tweet_labels(&self) -> Vec<usize> {
        self.factors.tweet_labels()
    }

    /// Hard user labels (local row order).
    pub fn user_labels(&self) -> Vec<usize> {
        self.factors.user_labels()
    }
}

/// The stateful online solver. Feed snapshots in time order via
/// [`OnlineSolver::step`].
#[derive(Debug, Clone)]
pub struct OnlineSolver {
    config: OnlineConfig,
    sf_window: FactorWindow,
    history: SentimentHistory,
    steps: u64,
    /// Fused-sweep scratch arena, rebound to each snapshot's matrices and
    /// reused across snapshots so steady-state steps stay allocation-light.
    workspace: UpdateWorkspace,
}

/// The temporal state an [`OnlineSolver`] carries between snapshots, in
/// plain owned form for checkpointing. Produced by
/// [`OnlineSolver::export_state`]; consumed by [`OnlineSolver::from_state`].
/// Restoring a solver from its exported state is exact: subsequent steps
/// produce bit-identical results to the original solver.
#[derive(Debug, Clone)]
pub struct OnlineSolverState {
    /// Snapshots processed so far (drives the per-step warm-start seed).
    pub steps: u64,
    /// The `Sf` window contents, most recent first.
    pub sf_window: Vec<tgs_linalg::DenseMatrix>,
    /// The per-user history's global step counter.
    pub history_step: i64,
    /// Per-user `(step, row)` observations, sorted by user id. Steps are
    /// signed: rows imported through a live rebalance keep their age and
    /// can predate the importing solver's step 0.
    pub history_rows: crate::window::HistoryRows,
}

/// One ghost row's prescription: the remote user's global id and their
/// current sentiment factor (the raw decayed `Suw` aggregate broadcast by
/// the owning shard; uniform when the owner has no history yet).
pub(crate) type GhostFactor = (usize, Vec<f64>);

/// Per-user temporal state exported for a live shard rebalance —
/// everything the owning solver knows about a contiguous user-id range,
/// in age-relative (placement-independent) form. Produced by
/// [`OnlineSolver::export_users`]; consumed by
/// [`OnlineSolver::import_users`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigratedUsers {
    /// Per-user `(age, Su row)` observations, sorted by user id.
    pub rows: crate::window::AgedHistoryRows,
}

impl OnlineSolver {
    /// Creates a solver with empty history, reporting configuration
    /// violations as [`TgsError::InvalidConfig`].
    pub fn try_new(config: OnlineConfig) -> Result<Self, TgsError> {
        config.try_validate()?;
        Ok(Self::new_unchecked(config))
    }

    /// Panicking wrapper around [`OnlineSolver::try_new`].
    pub fn new(config: OnlineConfig) -> Self {
        config.validate();
        Self::new_unchecked(config)
    }

    fn new_unchecked(config: OnlineConfig) -> Self {
        let sf_window = FactorWindow::new(config.window, config.tau);
        let history = SentimentHistory::new(config.k, config.window, config.tau);
        Self {
            config,
            sf_window,
            history,
            steps: 0,
            workspace: UpdateWorkspace::new(),
        }
    }

    /// Snapshots processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Decayed sentiment estimate for any user seen within the window —
    /// the "disappeared users carry forward" view of Fig. 5.
    pub fn sentiment_of(&self, user: usize) -> Option<Vec<f64>> {
        self.history.aggregate_row(user)
    }

    /// Exports the solver's temporal state for checkpointing.
    pub fn export_state(&self) -> OnlineSolverState {
        OnlineSolverState {
            steps: self.steps,
            sf_window: self.sf_window.snapshots().cloned().collect(),
            history_step: self.history.steps(),
            history_rows: self.history.export_rows(),
        }
    }

    /// The per-user history's global step counter — exposed so delta
    /// checkpoints can record the counter without the O(users) clone of
    /// [`OnlineSolver::export_state`].
    pub fn history_step(&self) -> i64 {
        self.history.steps()
    }

    /// Exports the history rows of just the given users (see
    /// `SentimentHistory::export_rows_for`) — the
    /// O(changes) read behind delta checkpoints.
    pub fn export_history_rows_for(&self, users: &[usize]) -> crate::window::HistoryRows {
        self.history.export_rows_for(users)
    }

    /// The `Sf` window's retained snapshots, most recent first, without
    /// cloning (cf. the owned copies in [`OnlineSolver::export_state`]).
    pub fn sf_window_snapshots(&self) -> impl Iterator<Item = &tgs_linalg::DenseMatrix> {
        self.sf_window.snapshots()
    }

    /// Rebuilds a solver from checkpointed state. The restored solver is
    /// bit-identical to the original: feeding both the same subsequent
    /// snapshots yields the same factors, objectives and partitions.
    pub fn from_state(config: OnlineConfig, state: OnlineSolverState) -> Result<Self, TgsError> {
        config.try_validate()?;
        // Semantic validation: a structurally well-formed but tampered
        // state must fail here with a typed error, not panic later inside
        // the window aggregation.
        if let Some(first) = state.sf_window.first() {
            for sf in &state.sf_window {
                if sf.cols() != config.k || sf.shape() != first.shape() {
                    return Err(TgsError::corrupt(format!(
                        "sf window snapshot is {}×{}, expected a consistent l×{}",
                        sf.rows(),
                        sf.cols(),
                        config.k
                    )));
                }
            }
        }
        let sf_window = FactorWindow::restore(config.window, config.tau, state.sf_window);
        let history = SentimentHistory::restore(
            config.k,
            config.window,
            config.tau,
            state.history_step,
            state.history_rows,
        )?;
        Ok(Self {
            config,
            sf_window,
            history,
            steps: state.steps,
            workspace: UpdateWorkspace::new(),
        })
    }

    /// Processes one snapshot: warm start, iterate updates, commit
    /// history. Malformed inputs are reported as the matching
    /// [`TgsError`] shape variant.
    pub fn try_step(&mut self, data: &SnapshotData<'_>) -> Result<OnlineStepResult, TgsError> {
        self.try_step_with_ghosts(data, &[])
    }

    /// Removes and returns the temporal state of every user with id in
    /// `lo..hi` — the export half of a live shard rebalance. The
    /// returned rows are age-relative, so importing them into a solver
    /// with a different step counter preserves each observation's decay
    /// age exactly; export followed by import into the same solver (with
    /// no steps in between) is a lossless round trip.
    pub fn export_users(&mut self, lo: usize, hi: usize) -> MigratedUsers {
        MigratedUsers {
            rows: self.history.take_users(lo, hi),
        }
    }

    /// Imports user state exported from another solver (see
    /// [`OnlineSolver::export_users`]). Rejects malformed rows and users
    /// this solver already tracks — validation happens before any
    /// insertion, and a rejection returns the state untouched so the
    /// caller can restore it to its source instead of losing it.
    #[allow(clippy::result_large_err)]
    pub fn import_users(&mut self, users: MigratedUsers) -> Result<(), (TgsError, MigratedUsers)> {
        self.history
            .import_aged(users.rows)
            .map_err(|(e, rows)| (e, MigratedUsers { rows }))
    }

    /// Like [`OnlineSolver::try_step`], but with ghost rows: each
    /// `(user, factor)` pair in `ghosts` names a user of `data.user_ids`
    /// whose row is a ghost — a remote user materialized on this shard
    /// for a cross-shard re-tweet edge. Ghost rows warm-start from (and
    /// are γ-regularized toward) the carried remote factor instead of
    /// local history, and they are **not** recorded into this solver's
    /// per-user history — the owning shard records them. With an empty
    /// list this is exactly `try_step`.
    pub fn try_step_with_ghosts(
        &mut self,
        data: &SnapshotData<'_>,
        ghosts: &[GhostFactor],
    ) -> Result<OnlineStepResult, TgsError> {
        let input = &data.input;
        input.try_validate(self.config.k)?;
        if data.user_ids.len() != input.m() {
            return Err(TgsError::UserIdCountMismatch {
                rows: input.m(),
                ids: data.user_ids.len(),
            });
        }
        let k = self.config.k;
        let mut partition = self.history.partition(data.user_ids);

        // --- Resolve ghost rows (cross-shard re-tweet protocol) ---
        // Each ghost is a remote user present only through a re-tweet
        // edge; their row is prescribed by the carried remote factor and
        // withheld from this shard's history.
        let mut ghost_dists: Vec<(usize, &[f64])> = Vec::with_capacity(ghosts.len());
        // One pass over the user ids instead of a scan per ghost.
        let user_rows: std::collections::HashMap<usize, usize> = if ghosts.is_empty() {
            std::collections::HashMap::new()
        } else {
            data.user_ids
                .iter()
                .enumerate()
                .map(|(row, &u)| (u, row))
                .collect()
        };
        for (user, dist) in ghosts {
            let row = *user_rows.get(user).ok_or_else(|| {
                TgsError::invalid_argument(format!(
                    "ghost user {user} is not a row of this snapshot slice"
                ))
            })?;
            if dist.len() != k {
                return Err(TgsError::invalid_argument(format!(
                    "ghost factor for user {user} has {} classes, expected {k}",
                    dist.len()
                )));
            }
            if !dist.iter().all(|v| v.is_finite() && *v >= 0.0) {
                return Err(TgsError::invalid_argument(format!(
                    "ghost factor for user {user} has a negative or non-finite entry"
                )));
            }
            ghost_dists.push((row, dist.as_slice()));
        }
        if !ghost_dists.is_empty() {
            ghost_dists.sort_unstable_by_key(|&(row, _)| row);
            if let Some(pair) = ghost_dists.windows(2).find(|p| p[0].0 == p[1].0) {
                return Err(TgsError::invalid_argument(format!(
                    "ghost user {} is listed more than once",
                    data.user_ids[pair[0].0]
                )));
            }
            let ghost_rows: Vec<usize> = ghost_dists.iter().map(|&(row, _)| row).collect();
            partition
                .new_rows
                .retain(|row| ghost_rows.binary_search(row).is_err());
            partition
                .evolving_rows
                .retain(|row| ghost_rows.binary_search(row).is_err());
            partition.ghost_rows = ghost_rows;
        }

        // --- Warm start (Algorithm 2 lines 1–2) ---
        let step_seed = self
            .config
            .seed
            .wrapping_add(self.steps.wrapping_mul(0x9E37_79B9));
        let mut factors = TriFactors::init(
            input.n(),
            input.m(),
            input.l(),
            k,
            input.sf0,
            self.config.init,
            step_seed,
        );
        let sf_target = self
            .sf_window
            .aggregate()
            .unwrap_or_else(|| input.sf0.clone());
        // Sf(t) = Sfw(t) on non-first snapshots.
        if !self.sf_window.is_empty() {
            factors.sf = sf_target.clone();
            factors.sf.clamp_min(tgs_linalg::FACTOR_FLOOR);
        }
        // Evolving users start from their decayed history (L1-normalized
        // for the warm start so long-absent users still begin at a sane
        // scale; the raw decayed aggregate stays the γ-target, so their
        // temporal pull fades naturally).
        let su_target = self
            .history
            .aggregate_matrix(data.user_ids, &partition.evolving_rows);
        let mut su_init = su_target.clone();
        su_init.normalize_rows_l1();
        for (i, &row) in partition.evolving_rows.iter().enumerate() {
            factors.su.copy_row_from(row, &su_init, i);
        }
        factors.su.clamp_min(tgs_linalg::FACTOR_FLOOR);
        // New users: fresh random rows (already random from init).
        let mut rng = seeded_rng(step_seed.wrapping_add(1));
        let fresh = random_factor_with(partition.new_rows.len(), k, &mut rng);
        for (i, &row) in partition.new_rows.iter().enumerate() {
            factors.su.copy_row_from(row, &fresh, i);
        }
        // Ghost rows: the carried remote factor, L1-normalized for the
        // warm start (mirroring evolving users); the raw factor stays the
        // γ-target below.
        for &(row, dist) in &ghost_dists {
            let total: f64 = dist.iter().sum();
            let scale = if total > 0.0 { 1.0 / total } else { 1.0 };
            for (j, &v) in dist.iter().enumerate() {
                factors
                    .su
                    .set(row, j, (v * scale).max(tgs_linalg::FACTOR_FLOOR));
            }
        }
        // Keep Su at distribution scale (its rows are the temporal state);
        // Sp, Hp, Hu absorb the snapshot's data norms.
        self.workspace.bind(input);
        self.workspace.balance_init_scales(input, &mut factors);

        // --- Iterate (Algorithm 2 lines 3–8) ---
        // The γ-regularized rows are the evolving users plus any ghost
        // rows (pulled toward the owner's broadcast factor). Without
        // ghosts this is exactly the evolving set — same slices, same
        // matrix — preserving the no-ghost paths bit for bit.
        let mut reg_rows_merged;
        let mut reg_target_merged;
        let (reg_rows, reg_target): (&[usize], &tgs_linalg::DenseMatrix) = if ghost_dists.is_empty()
        {
            (&partition.evolving_rows, &su_target)
        } else {
            reg_rows_merged =
                Vec::with_capacity(partition.evolving_rows.len() + partition.ghost_rows.len());
            reg_rows_merged.extend_from_slice(&partition.evolving_rows);
            reg_rows_merged.extend_from_slice(&partition.ghost_rows);
            reg_rows_merged.sort_unstable();
            reg_target_merged = tgs_linalg::DenseMatrix::zeros(reg_rows_merged.len(), k);
            for (i, &row) in reg_rows_merged.iter().enumerate() {
                if let Ok(g) = ghost_dists.binary_search_by_key(&row, |&(r, _)| r) {
                    for (j, &v) in ghost_dists[g].1.iter().enumerate() {
                        reg_target_merged.set(i, j, v);
                    }
                } else {
                    // `evolving_rows` is built in ascending row order by
                    // `partition`, so the lookup stays logarithmic.
                    let e = partition
                        .evolving_rows
                        .binary_search(&row)
                        .expect("merged row is evolving or ghost");
                    reg_target_merged.copy_row_from(i, &su_target, e);
                }
            }
            (&reg_rows_merged, &reg_target_merged)
        };
        let (alpha, beta, gamma) = (self.config.alpha, self.config.beta, self.config.gamma);
        let initial = online_objective(
            input,
            &factors,
            alpha,
            &sf_target,
            beta,
            gamma,
            Some(reg_target),
            reg_rows,
        );
        let run = converge(
            initial,
            self.config.max_iters,
            self.config.tol,
            self.config.track_objective,
            || {
                self.workspace.sweep_online(
                    input,
                    &mut factors,
                    alpha,
                    beta,
                    gamma,
                    &sf_target,
                    &partition.new_rows,
                    reg_rows,
                    reg_target,
                );
                // In-loop evaluation through the workspace caches (agrees
                // with `online_objective` to ~1e-12 relative).
                self.workspace.objective_online(
                    input,
                    &factors,
                    alpha,
                    &sf_target,
                    beta,
                    gamma,
                    Some(reg_target),
                    reg_rows,
                )
            },
        );
        debug_assert!(
            factors.all_nonnegative(),
            "updates must preserve non-negativity"
        );

        // --- Commit (window + per-user history) ---
        // Rows are recorded L1-normalized: Su(ij) is "the likelihood of
        // user i's sentiment in class j" (§2), so the carried state is a
        // class distribution, immune to the solver's arbitrary row scale.
        let mut su_dist = factors.su.clone();
        su_dist.normalize_rows_l1();
        // Ghost rows are withheld: the owning shard records those users.
        self.history
            .record_masked(data.user_ids, &su_dist, &partition.ghost_rows);
        self.sf_window.push(factors.sf.clone());
        self.steps += 1;

        Ok(OnlineStepResult {
            factors,
            partition,
            history: run.history,
            iterations: run.iterations,
            converged: run.converged,
            objective: run.last.total(),
        })
    }

    /// Panicking wrapper around [`OnlineSolver::try_step`], kept for the
    /// bench binaries and quick scripts.
    pub fn step(&mut self, data: &SnapshotData<'_>) -> OnlineStepResult {
        self.try_step(data).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use tgs_graph::UserGraph;
    use tgs_linalg::{seeded_rng, CsrMatrix, DenseMatrix};

    /// Planted two-cluster snapshot over the given global user set.
    /// Users with even global id are class 0, odd are class 1.
    fn snapshot(
        users: &[usize],
        n: usize,
        l: usize,
        seed: u64,
    ) -> (
        CsrMatrix,
        CsrMatrix,
        CsrMatrix,
        UserGraph,
        DenseMatrix,
        Vec<usize>,
    ) {
        let mut rng = seeded_rng(seed);
        let m = users.len();
        let mut xp = Vec::new();
        let mut xu = Vec::new();
        let mut xr = Vec::new();
        let mut edges = Vec::new();
        let mut tweet_class = Vec::new();
        for i in 0..n {
            // pick an author, tweet inherits the author's class
            let a = rng.random_range(0..m);
            let c = users[a] % 2;
            tweet_class.push(c);
            for _ in 0..4 {
                let f = 2 * rng.random_range(0..l / 2) + c;
                xp.push((i, f, 1.0));
            }
            xr.push((a, i, 1.0));
        }
        for (row, &u) in users.iter().enumerate() {
            let c = u % 2;
            for _ in 0..6 {
                let f = 2 * rng.random_range(0..l / 2) + c;
                xu.push((row, f, 1.0));
            }
            // homophilous edge to a same-class peer
            if let Some(peer) = users.iter().position(|&v| v % 2 == c && v != u) {
                edges.push((row, peer, 1.0));
            }
        }
        let xp = CsrMatrix::from_triplets(n, l, &xp).unwrap();
        let xu = CsrMatrix::from_triplets(m, l, &xu).unwrap();
        let xr = CsrMatrix::from_triplets(m, n, &xr).unwrap();
        let graph = UserGraph::from_edges(m, &edges);
        let sf0 = DenseMatrix::from_fn(l, 2, |f, j| if f % 2 == j { 0.8 } else { 0.2 });
        (xp, xu, xr, graph, sf0, tweet_class)
    }

    fn config() -> OnlineConfig {
        OnlineConfig {
            k: 2,
            max_iters: 80,
            tol: 1e-7,
            ..Default::default()
        }
    }

    #[test]
    fn first_step_partitions_all_as_new() {
        let users = vec![0, 1, 2, 3];
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users, 20, 10, 1);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let mut solver = OnlineSolver::new(config());
        let result = solver.step(&SnapshotData {
            input,
            user_ids: &users,
        });
        assert_eq!(result.partition.new_rows.len(), 4);
        assert!(result.partition.evolving_rows.is_empty());
    }

    #[test]
    fn second_step_sees_evolving_and_disappeared() {
        let users_a = vec![0, 1, 2, 3];
        let users_b = vec![2, 3, 4, 5];
        let mut solver = OnlineSolver::new(config());
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users_a, 20, 10, 1);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        solver.step(&SnapshotData {
            input,
            user_ids: &users_a,
        });
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users_b, 20, 10, 2);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let result = solver.step(&SnapshotData {
            input,
            user_ids: &users_b,
        });
        assert_eq!(result.partition.evolving_rows, vec![0, 1]); // users 2, 3
        assert_eq!(result.partition.new_rows, vec![2, 3]); // users 4, 5

        // disappeared: known, but not in the snapshot
        let gone: Vec<usize> = (0..6)
            .filter(|&u| solver.history.knows(u) && !users_b.contains(&u))
            .collect();
        assert_eq!(gone, vec![0, 1]);
    }

    #[test]
    fn online_clusters_planted_stream() {
        let mut solver = OnlineSolver::new(config());
        let mut accs = Vec::new();
        for t in 0..4u64 {
            let users: Vec<usize> = (0..8).collect();
            let (xp, xu, xr, graph, sf0, tweet_class) = snapshot(&users, 40, 12, t + 10);
            let input = TriInput {
                xp: &xp,
                xu: &xu,
                xr: &xr,
                graph: &graph,
                sf0: &sf0,
            };
            let result = solver.step(&SnapshotData {
                input,
                user_ids: &users,
            });
            let acc = tgs_eval::clustering_accuracy(&result.tweet_labels(), &tweet_class);
            accs.push(acc);
            let user_truth: Vec<usize> = users.iter().map(|&u| u % 2).collect();
            let uacc = tgs_eval::clustering_accuracy(&result.user_labels(), &user_truth);
            assert!(uacc > 0.7, "step {t}: user accuracy {uacc}");
        }
        let last = *accs.last().unwrap();
        assert!(
            last > 0.85,
            "final tweet accuracy {last} (history {accs:?})"
        );
    }

    #[test]
    fn disappeared_users_still_queryable() {
        // window = 3 keeps two past snapshots, so a user absent from one
        // snapshot still has an in-window estimate.
        let mut solver = OnlineSolver::new(OnlineConfig {
            window: 3,
            ..config()
        });
        let users_a = vec![0, 1, 2, 3];
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users_a, 20, 10, 3);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        solver.step(&SnapshotData {
            input,
            user_ids: &users_a,
        });
        // user 0 absent in step 2 but within window
        let users_b = vec![1, 2, 3, 4];
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users_b, 20, 10, 4);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        solver.step(&SnapshotData {
            input,
            user_ids: &users_b,
        });
        let s = solver.sentiment_of(0);
        assert!(
            s.is_some(),
            "disappeared user should keep a decayed estimate"
        );
        assert_eq!(s.unwrap().len(), 2);
    }

    #[test]
    fn objective_non_increasing_within_step() {
        let users: Vec<usize> = (0..8).collect();
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users, 40, 12, 6);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let cfg = OnlineConfig {
            track_objective: true,
            ..config()
        };
        let mut solver = OnlineSolver::new(cfg);
        // warm the window so temporal terms are active on the second step
        solver.step(&SnapshotData {
            input,
            user_ids: &users,
        });
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users, 40, 12, 7);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let result = solver.step(&SnapshotData {
            input,
            user_ids: &users,
        });
        assert!(result.history.len() >= 2);
        for w in result.history.windows(2) {
            assert!(
                w[1].total() <= w[0].total() * (1.0 + 1e-6) + 1e-9,
                "objective rose {} -> {}",
                w[0].total(),
                w[1].total()
            );
        }
    }

    #[test]
    fn restore_from_state_is_bit_identical() {
        let users: Vec<usize> = (0..6).collect();
        let mut original = OnlineSolver::new(config());
        for t in 0..2u64 {
            let (xp, xu, xr, graph, sf0, _) = snapshot(&users, 25, 10, t + 40);
            let input = TriInput {
                xp: &xp,
                xu: &xu,
                xr: &xr,
                graph: &graph,
                sf0: &sf0,
            };
            original.step(&SnapshotData {
                input,
                user_ids: &users,
            });
        }
        let mut restored =
            OnlineSolver::from_state(original.config.clone(), original.export_state()).unwrap();
        assert_eq!(restored.steps(), original.steps());
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users, 25, 10, 99);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let data = SnapshotData {
            input,
            user_ids: &users,
        };
        let a = original.step(&data);
        let b = restored.step(&data);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.factors.su, b.factors.su);
        assert_eq!(a.factors.sf, b.factors.sf);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn from_state_rejects_tampered_temporal_state() {
        use crate::error::TgsErrorKind;
        use tgs_linalg::DenseMatrix;
        // sf window with the wrong class count
        let bad_window = OnlineSolverState {
            steps: 1,
            sf_window: vec![DenseMatrix::zeros(4, 5)],
            history_step: 1,
            history_rows: vec![],
        };
        let err = OnlineSolver::from_state(config(), bad_window).unwrap_err();
        assert_eq!(err.kind(), TgsErrorKind::CorruptCheckpoint);
        // history entry whose step lies beyond the restored counter
        let bad_history = OnlineSolverState {
            steps: 1,
            sf_window: vec![],
            history_step: 1,
            history_rows: vec![(7, vec![(5, vec![0.5, 0.5])])],
        };
        let err = OnlineSolver::from_state(config(), bad_history).unwrap_err();
        assert_eq!(err.kind(), TgsErrorKind::CorruptCheckpoint);
    }

    #[test]
    fn try_step_reports_user_id_mismatch() {
        let users = vec![0, 1, 2, 3];
        let (xp, xu, xr, graph, sf0, _) = snapshot(&users, 20, 10, 1);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let mut solver = OnlineSolver::new(config());
        let err = solver
            .try_step(&SnapshotData {
                input,
                user_ids: &users[..3],
            })
            .unwrap_err();
        assert_eq!(err.kind(), crate::error::TgsErrorKind::UserIdCountMismatch);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut solver = OnlineSolver::new(config());
            let mut out = Vec::new();
            for t in 0..3u64 {
                let users: Vec<usize> = (0..6).collect();
                let (xp, xu, xr, graph, sf0, _) = snapshot(&users, 25, 10, t + 20);
                let input = TriInput {
                    xp: &xp,
                    xu: &xu,
                    xr: &xr,
                    graph: &graph,
                    sf0: &sf0,
                };
                let result = solver.step(&SnapshotData {
                    input,
                    user_ids: &users,
                });
                out.push(result.objective);
            }
            out
        };
        assert_eq!(run(), run());
    }
}
