//! Shard-parallel offline solves sharing the global word–sentiment
//! factor.
//!
//! The user/tweet axes of the tripartite problem dominate its size, so
//! they shard cleanly by user range (see `tgs_data::PartitionMap`)
//! while the word axis — and therefore the `l × k` factor `Sf` — stays
//! global. [`try_solve_offline_sharded`] couples the shards once per
//! *iteration*:
//!
//! * every shard solves its local `Sp`/`Su`/`Hp`/`Hu` factors
//!   independently (in parallel, on scoped threads);
//! * the word–sentiment factor is **broadcast** to all shards before a
//!   round and **merged** after it by a deterministic weighted average
//!   (weights = shard tweet counts, accumulated in fixed shard order);
//! * with a single shard the merge degenerates to a plain clone, which is
//!   the mechanism behind the tested guarantee that `shards = 1` is
//!   **bit-identical** to the unsharded [`crate::try_solve_offline`].
//!
//! Online (Algorithm 2) solves shard one level up: each engine shard
//! steps its own [`crate::OnlineSolver`], and the engine merges their
//! `Sf` factors with [`merge_sf`] when a query needs the global one.

use tgs_linalg::DenseMatrix;

use crate::config::OfflineConfig;
use crate::error::TgsError;
use crate::factors::TriFactors;
use crate::input::TriInput;
use crate::objective::{offline_objective, ObjectiveParts};
use crate::offline::OfflineResult;
use crate::workspace::UpdateWorkspace;

/// A ghost row's coupling link for the offline sharded solver: shard
/// `shard`'s local user row `row` is a ghost of shard `owner_shard`'s
/// local user row `owner_row` (the same global user). Each coupling
/// round broadcasts the owner's `Su` row into the ghost row, alongside
/// the global `Sf` merge — so a cross-shard re-tweet edge regularizes
/// against the remote user's *current* factor, not a stale copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostRowLink {
    /// The shard holding the ghost row.
    pub shard: usize,
    /// Local user row of the ghost on `shard`.
    pub row: usize,
    /// The shard owning the user.
    pub owner_shard: usize,
    /// The user's local row on the owning shard.
    pub owner_row: usize,
}

/// Deterministic per-shard RNG seed. Shard 0 keeps the configured seed so
/// a single-shard solve draws the exact random stream of the unsharded
/// path.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_97F4_A7C5))
}

/// Weighted average of per-shard `Sf` factors, accumulated in shard
/// order. A single part is returned as a bit-exact clone (no `×w / w`
/// rounding), so one-shard solves stay bit-identical to the unsharded
/// path. This is the **one** merge policy of the sharded stack — the
/// engine-level query fan-in reuses it so `top_words` can never drift
/// from the solvers' semantics.
pub fn merge_sf(parts: &[(f64, &DenseMatrix)]) -> Option<DenseMatrix> {
    match parts {
        [] => None,
        [(_, sf)] => Some((*sf).clone()),
        _ => {
            let mut acc = DenseMatrix::zeros(parts[0].1.rows(), parts[0].1.cols());
            let mut total = 0.0;
            for &(w, sf) in parts {
                acc.axpy(w, sf);
                total += w;
            }
            if total > 0.0 {
                acc.scale_in_place(1.0 / total);
            }
            Some(acc)
        }
    }
}

/// Validates that every shard input is internally consistent and that
/// all shards share the global word axis (and prior shape).
fn validate_shard_inputs(inputs: &[TriInput<'_>], k: usize) -> Result<(), TgsError> {
    let Some(first) = inputs.first() else {
        return Err(TgsError::invalid_argument(
            "sharded solve needs at least one shard input",
        ));
    };
    let l = first.l();
    for (shard, input) in inputs.iter().enumerate() {
        input.try_validate(k)?;
        if input.l() != l {
            return Err(TgsError::invalid_argument(format!(
                "shard {shard} has {} features but shard 0 has {l}; \
                 the word axis must stay global across shards",
                input.l()
            )));
        }
    }
    Ok(())
}

/// Result of [`try_solve_offline_sharded`].
#[derive(Debug, Clone)]
pub struct ShardedOfflineResult {
    /// Per-shard results, in shard order. Each shard's `factors.sf` holds
    /// the final *merged* global factor; `sp`/`su`/`hp`/`hu` are
    /// shard-local (rows follow the shard's tweet/user order).
    pub shards: Vec<OfflineResult>,
    /// The merged global word–sentiment factor (`l × k`).
    pub sf: DenseMatrix,
    /// Coupled iterations run (shared across shards).
    pub iterations: usize,
    /// Whether the summed objective met the tolerance.
    pub converged: bool,
    /// Final summed objective across shards.
    pub objective: f64,
}

/// Per-shard mutable solve state for the offline loop.
struct ShardState {
    factors: TriFactors,
    workspace: UpdateWorkspace,
    /// Merge weight (shard tweet count); zero rows ⇒ inactive.
    weight: f64,
    active: bool,
    history: Vec<ObjectiveParts>,
    cur: ObjectiveParts,
}

/// Algorithm 1 over user-range shards: shard-local `Sp`/`Su`/`Hp`/`Hu`
/// sweeps run in parallel each iteration, then the shards' `Sf` updates
/// are merged into one global factor (weighted by shard tweet counts)
/// and broadcast back before the next iteration. Convergence is decided
/// on the objective summed across shards.
///
/// Guarantee: with `inputs.len() == 1` the result — factors, iteration
/// count, objective trace — is bit-identical to
/// [`crate::try_solve_offline`] on the same input (tested in this module
/// and in the shard-parity integration tests).
pub fn try_solve_offline_sharded(
    inputs: &[TriInput<'_>],
    config: &OfflineConfig,
) -> Result<ShardedOfflineResult, TgsError> {
    try_solve_offline_sharded_with_ghosts(inputs, config, &[])
}

/// [`try_solve_offline_sharded`] under the ghost-user protocol: each
/// [`GhostRowLink`] couples a cross-shard re-tweet edge's ghost row to
/// its owning shard. Every coupling round (after the `Sf` merge) the
/// owner's current `Su` row is broadcast into the ghost row, so the
/// local graph regularizer sees the remote user's live factor. With an
/// empty link list this is exactly [`try_solve_offline_sharded`] — the
/// `shards = 1` bit-identity guarantee is untouched.
pub fn try_solve_offline_sharded_with_ghosts(
    inputs: &[TriInput<'_>],
    config: &OfflineConfig,
    ghosts: &[GhostRowLink],
) -> Result<ShardedOfflineResult, TgsError> {
    config.try_validate()?;
    validate_shard_inputs(inputs, config.k)?;
    for g in ghosts {
        let ok = g.shard < inputs.len()
            && g.owner_shard < inputs.len()
            && g.row < inputs[g.shard].m()
            && g.owner_row < inputs[g.owner_shard].m();
        if !ok {
            return Err(TgsError::invalid_argument(format!(
                "ghost link {g:?} references rows outside its shards"
            )));
        }
    }
    let (l, k) = (inputs[0].l(), config.k);

    let mut states: Vec<ShardState> = inputs
        .iter()
        .enumerate()
        .map(|(shard, input)| {
            let mut factors = TriFactors::init(
                input.n(),
                input.m(),
                l,
                k,
                input.sf0,
                config.init,
                shard_seed(config.seed, shard),
            );
            let active = input.n() > 0 && input.m() > 0;
            let mut workspace = UpdateWorkspace::new();
            let mut cur = ObjectiveParts::default();
            if active {
                workspace.bind(input);
                workspace.balance_init_scales(input, &mut factors);
                cur = offline_objective(input, &factors, config.alpha, config.beta);
            }
            ShardState {
                factors,
                workspace,
                weight: input.n() as f64,
                active,
                history: Vec::new(),
                cur,
            }
        })
        .collect();
    if states.iter().all(|s| !s.active) {
        return Err(TgsError::invalid_argument(
            "every shard is empty; nothing to solve",
        ));
    }

    // Initial ghost broadcast: ghost rows start from the owner's init
    // rather than their own random draw, and the affected shards'
    // starting objectives are re-evaluated against the prescribed rows.
    if !ghosts.is_empty() {
        broadcast_ghost_rows(&mut states, ghosts);
        let mut touched: Vec<usize> = ghosts.iter().map(|g| g.shard).collect();
        touched.sort_unstable();
        touched.dedup();
        for s in touched {
            if states[s].active {
                states[s].workspace.invalidate_factor_caches();
                states[s].cur =
                    offline_objective(&inputs[s], &states[s].factors, config.alpha, config.beta);
            }
        }
    }

    let mut prev: f64 = states.iter().map(|s| s.cur.total()).sum();
    if config.track_objective {
        for s in states.iter_mut() {
            s.history.push(s.cur);
        }
    }
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..config.max_iters {
        // --- Parallel shard-local sweeps + objective evaluation ---
        // One pool task per active shard (replacing a per-iteration
        // thread spawn); each task takes its shard exactly once from a
        // claim slot. Shard sweeps are independent, so pooled execution
        // is bit-identical to the scoped-thread era.
        let (alpha, beta) = (config.alpha, config.beta);
        let tasks: Vec<_> = inputs
            .iter()
            .zip(states.iter_mut())
            .filter(|(_, state)| state.active)
            .map(|pair| std::sync::Mutex::new(Some(pair)))
            .collect();
        tgs_linalg::pool_run_tasks(tasks.len(), |i| {
            let (input, state) = tasks[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each shard task claimed once");
            state
                .workspace
                .sweep_offline(input, &mut state.factors, alpha, beta, input.sf0);
            state.cur = state
                .workspace
                .objective_offline(input, &state.factors, alpha, beta);
        });
        drop(tasks);
        iterations = it + 1;
        let cur: f64 = states.iter().map(|s| s.cur.total()).sum();
        if config.track_objective {
            for s in states.iter_mut().filter(|s| s.active) {
                let parts = s.cur;
                s.history.push(parts);
            }
        }
        let hit_tol = {
            let denom = prev.abs().max(1.0);
            (prev - cur).abs() / denom < config.tol
        };
        prev = cur;

        // --- Merge + broadcast the global word–sentiment factor ---
        let parts: Vec<(f64, &DenseMatrix)> = states
            .iter()
            .filter(|s| s.active)
            .map(|s| (s.weight, &s.factors.sf))
            .collect();
        let merged = merge_sf(&parts).expect("at least one active shard");
        for s in states.iter_mut().filter(|s| s.active) {
            s.factors.sf.copy_from(&merged);
            // The merge replaced Sf behind the workspace's back; drop
            // the cached Grams or the next sweep reuses the pre-merge
            // SfᵀSf. (With one shard the merge is a bit-exact clone, so
            // the forced recompute is bit-identical and the shards=1 ==
            // unsharded guarantee holds unchanged.)
            s.workspace.invalidate_factor_caches();
        }
        // Ghost rows ride the same coupling round: each ghost picks up
        // its owner's just-swept Su row (the caches above are already
        // invalidated, so the next sweep sees the fresh rows).
        broadcast_ghost_rows(&mut states, ghosts);

        if hit_tol {
            converged = true;
            break;
        }
    }

    let sf = states
        .iter()
        .find(|s| s.active)
        .map(|s| s.factors.sf.clone())
        .expect("at least one active shard");
    let shards = states
        .into_iter()
        .map(|s| {
            let objective = s.cur.total();
            OfflineResult {
                factors: s.factors,
                history: s.history,
                iterations: if s.active { iterations } else { 0 },
                converged,
                objective,
            }
        })
        .collect();
    Ok(ShardedOfflineResult {
        shards,
        sf,
        iterations,
        converged,
        objective: prev,
    })
}

/// Copies each ghost link's owner `Su` row into the ghost row.
fn broadcast_ghost_rows(states: &mut [ShardState], ghosts: &[GhostRowLink]) {
    for g in ghosts {
        let row = states[g.owner_shard].factors.su.row(g.owner_row).to_vec();
        states[g.shard]
            .factors
            .su
            .row_mut(g.row)
            .copy_from_slice(&row);
    }
}

/// Panicking wrapper around [`try_solve_offline_sharded`], kept for the
/// bench binaries and quick scripts.
pub fn solve_offline_sharded(
    inputs: &[TriInput<'_>],
    config: &OfflineConfig,
) -> ShardedOfflineResult {
    try_solve_offline_sharded(inputs, config).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OnlineConfig;
    use crate::online::{OnlineSolver, SnapshotData};
    use rand::RngExt;
    use tgs_graph::UserGraph;
    use tgs_linalg::{seeded_rng, CsrMatrix};

    /// Planted two-cluster instance over a given user set (global ids).
    fn instance(
        users: &[usize],
        n: usize,
        l: usize,
        seed: u64,
    ) -> (CsrMatrix, CsrMatrix, CsrMatrix, UserGraph, DenseMatrix) {
        let mut rng = seeded_rng(seed);
        let m = users.len();
        let mut xp = Vec::new();
        let mut xu = Vec::new();
        let mut xr = Vec::new();
        let mut edges = Vec::new();
        for i in 0..n {
            let a = rng.random_range(0..m);
            let c = users[a] % 2;
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
            if let Some(peer) = users.iter().position(|&v| v % 2 == c && v != u) {
                edges.push((row, peer, 1.0));
            }
        }
        let xp = CsrMatrix::from_triplets(n, l, &xp).unwrap();
        let xu = CsrMatrix::from_triplets(m, l, &xu).unwrap();
        let xr = CsrMatrix::from_triplets(m, n, &xr).unwrap();
        let graph = UserGraph::from_edges(m, &edges);
        let sf0 = DenseMatrix::from_fn(l, 2, |f, j| if f % 2 == j { 0.8 } else { 0.2 });
        (xp, xu, xr, graph, sf0)
    }

    fn offline_config() -> OfflineConfig {
        OfflineConfig {
            k: 2,
            max_iters: 40,
            tol: 1e-7,
            track_objective: true,
            ..Default::default()
        }
    }

    fn online_config() -> OnlineConfig {
        OnlineConfig {
            k: 2,
            max_iters: 30,
            tol: 1e-7,
            ..Default::default()
        }
    }

    #[test]
    fn single_shard_offline_is_bit_identical() {
        let users: Vec<usize> = (0..8).collect();
        let (xp, xu, xr, graph, sf0) = instance(&users, 40, 12, 5);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let cfg = offline_config();
        let single = crate::try_solve_offline(&input, &cfg).unwrap();
        let sharded = try_solve_offline_sharded(&[input], &cfg).unwrap();
        assert_eq!(sharded.iterations, single.iterations);
        assert_eq!(sharded.converged, single.converged);
        assert_eq!(sharded.objective, single.objective);
        let shard = &sharded.shards[0];
        assert_eq!(shard.factors.sp, single.factors.sp);
        assert_eq!(shard.factors.su, single.factors.su);
        assert_eq!(shard.factors.hp, single.factors.hp);
        assert_eq!(shard.factors.hu, single.factors.hu);
        assert_eq!(shard.factors.sf, single.factors.sf);
        assert_eq!(sharded.sf, single.factors.sf);
        let trace: Vec<f64> = shard.history.iter().map(|p| p.total()).collect();
        let expected: Vec<f64> = single.history.iter().map(|p| p.total()).collect();
        assert_eq!(trace, expected, "objective trace must match exactly");
    }

    #[test]
    fn two_shards_solve_and_stay_deterministic() {
        let users_a: Vec<usize> = (0..6).collect();
        let users_b: Vec<usize> = (6..12).collect();
        let (xp_a, xu_a, xr_a, g_a, sf0) = instance(&users_a, 30, 12, 7);
        let (xp_b, xu_b, xr_b, g_b, _) = instance(&users_b, 26, 12, 8);
        let input_a = TriInput {
            xp: &xp_a,
            xu: &xu_a,
            xr: &xr_a,
            graph: &g_a,
            sf0: &sf0,
        };
        let input_b = TriInput {
            xp: &xp_b,
            xu: &xu_b,
            xr: &xr_b,
            graph: &g_b,
            sf0: &sf0,
        };
        let cfg = offline_config();
        let a = solve_offline_sharded(&[input_a, input_b], &cfg);
        let b = solve_offline_sharded(&[input_a, input_b], &cfg);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.sf, b.sf);
        assert_eq!(a.shards[1].factors.su, b.shards[1].factors.su);
        // Both shards carry the merged global factor.
        assert_eq!(a.shards[0].factors.sf, a.sf);
        assert_eq!(a.shards[1].factors.sf, a.sf);
        // The planted signal survives sharding: tweets recover their
        // parity class within each shard.
        for (shard, users) in a.shards.iter().zip([&users_a, &users_b]) {
            let truth: Vec<usize> = users.iter().map(|&u| u % 2).collect();
            let acc = tgs_eval::clustering_accuracy(&shard.user_labels(), &truth);
            assert!(acc > 0.7, "user accuracy {acc}");
        }
    }

    #[test]
    fn empty_shard_is_carried_not_fatal() {
        let users: Vec<usize> = (0..6).collect();
        let (xp, xu, xr, graph, sf0) = instance(&users, 30, 12, 9);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let empty_xp = CsrMatrix::from_triplets(0, 12, &[]).unwrap();
        let empty_xu = CsrMatrix::from_triplets(0, 12, &[]).unwrap();
        let empty_xr = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        let empty_graph = UserGraph::empty(0);
        let empty = TriInput {
            xp: &empty_xp,
            xu: &empty_xu,
            xr: &empty_xr,
            graph: &empty_graph,
            sf0: &sf0,
        };
        let result = try_solve_offline_sharded(&[input, empty], &offline_config()).unwrap();
        assert_eq!(result.shards[1].iterations, 0);
        assert!(result.shards[0].iterations > 0);
        assert!(result.objective.is_finite());
    }

    #[test]
    fn pooled_threads_preserve_parity_and_survive_contention() {
        // Regression for the worker-pool migration: forcing a
        // multi-thread pool budget must not perturb the `shards = 1`
        // bit-identity guarantee, and two solves hammering the shared
        // pool from different caller threads must neither deadlock nor
        // cross-talk. (The pool budget is process-global, but every
        // kernel is bit-identical at every budget, so flipping it here
        // cannot perturb concurrently-running tests.)
        let prev = tgs_linalg::set_pool_threads_override(Some(4));
        let users: Vec<usize> = (0..8).collect();
        let (xp, xu, xr, graph, sf0) = instance(&users, 40, 12, 5);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let cfg = offline_config();
        let single = crate::try_solve_offline(&input, &cfg).unwrap();
        let sharded = try_solve_offline_sharded(&[input], &cfg).unwrap();
        assert_eq!(sharded.objective, single.objective);
        assert_eq!(sharded.iterations, single.iterations);
        assert_eq!(sharded.shards[0].factors.su, single.factors.su);
        assert_eq!(sharded.shards[0].factors.sf, single.factors.sf);

        // Contention: the same 2-shard solve from two caller threads at
        // once must reproduce the solo result on both.
        let users_b: Vec<usize> = (8..14).collect();
        let (xp_b, xu_b, xr_b, g_b, _) = instance(&users_b, 26, 12, 8);
        let input_b = TriInput {
            xp: &xp_b,
            xu: &xu_b,
            xr: &xr_b,
            graph: &g_b,
            sf0: &sf0,
        };
        let solo = solve_offline_sharded(&[input, input_b], &cfg);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| s.spawn(|| solve_offline_sharded(&[input, input_b], &cfg)))
                .collect();
            for h in handles {
                let got = h.join().expect("concurrent solve must not die");
                assert_eq!(got.objective, solo.objective, "cross-talk under contention");
                assert_eq!(got.sf, solo.sf);
                assert_eq!(got.shards[1].factors.su, solo.shards[1].factors.su);
            }
        });
        tgs_linalg::set_pool_threads_override(prev);
    }

    #[test]
    fn offline_ghost_rows_track_their_owner() {
        let users_a: Vec<usize> = (0..6).collect();
        let users_b: Vec<usize> = (6..12).collect();
        let (xp_a, xu_a, xr_a, g_a, sf0) = instance(&users_a, 30, 12, 7);
        let (xp_b, xu_b, xr_b, g_b, _) = instance(&users_b, 26, 12, 8);
        let input_a = TriInput {
            xp: &xp_a,
            xu: &xu_a,
            xr: &xr_a,
            graph: &g_a,
            sf0: &sf0,
        };
        let input_b = TriInput {
            xp: &xp_b,
            xu: &xu_b,
            xr: &xr_b,
            graph: &g_b,
            sf0: &sf0,
        };
        // Shard 1's row 2 is a ghost of shard 0's row 3 (imagine user 3
        // re-tweeting one of shard 1's documents).
        let links = [GhostRowLink {
            shard: 1,
            row: 2,
            owner_shard: 0,
            owner_row: 3,
        }];
        let cfg = offline_config();
        let a = try_solve_offline_sharded_with_ghosts(&[input_a, input_b], &cfg, &links).unwrap();
        let b = try_solve_offline_sharded_with_ghosts(&[input_a, input_b], &cfg, &links).unwrap();
        assert_eq!(a.sf, b.sf, "ghost coupling must stay deterministic");
        // The final broadcast leaves the ghost row equal to its owner's.
        assert_eq!(
            a.shards[1].factors.su.row(2),
            a.shards[0].factors.su.row(3),
            "ghost row mirrors the owner after the last coupling round"
        );
        // And the coupling actually changes the ghost shard's solve.
        let plain = try_solve_offline_sharded(&[input_a, input_b], &cfg).unwrap();
        assert_ne!(a.shards[1].factors.su, plain.shards[1].factors.su);
        // Out-of-range links are typed errors.
        let bad = GhostRowLink {
            shard: 1,
            row: 99,
            owner_shard: 0,
            owner_row: 0,
        };
        let err =
            try_solve_offline_sharded_with_ghosts(&[input_a, input_b], &cfg, &[bad]).unwrap_err();
        assert_eq!(err.kind(), crate::error::TgsErrorKind::InvalidArgument);
    }

    #[test]
    fn online_ghosts_carry_owner_factors_and_stay_unrecorded() {
        let users_a: Vec<usize> = (0..5).collect();
        // Shard B's snapshot includes user 2 (owned by shard A) as a
        // ghost row: B holds a re-tweet edge of A's user.
        let users_b_with_ghost: Vec<usize> = vec![2, 5, 6, 7, 8];
        let cfg = online_config();
        let mut owner = OnlineSolver::try_new(cfg.clone()).unwrap();
        let mut holder = OnlineSolver::try_new(OnlineConfig {
            seed: shard_seed(cfg.seed, 1),
            ..cfg
        })
        .unwrap();
        for t in 0..3u64 {
            let (xp_a, xu_a, xr_a, g_a, sf0) = instance(&users_a, 24, 12, t + 300);
            let (xp_b, xu_b, xr_b, g_b, _) = instance(&users_b_with_ghost, 24, 12, t + 400);
            let input_a = TriInput {
                xp: &xp_a,
                xu: &xu_a,
                xr: &xr_a,
                graph: &g_a,
                sf0: &sf0,
            };
            let input_b = TriInput {
                xp: &xp_b,
                xu: &xu_b,
                xr: &xr_b,
                graph: &g_b,
                sf0: &sf0,
            };
            let data_a = SnapshotData {
                input: input_a,
                user_ids: &users_a,
            };
            let data_b = SnapshotData {
                input: input_b,
                user_ids: &users_b_with_ghost,
            };
            // The ghost carries the owner's pre-step factor (uniform
            // before the owner has seen the user).
            let carried = owner.sentiment_of(2).unwrap_or_else(|| vec![0.5, 0.5]);
            owner.try_step(&data_a).unwrap();
            let b = holder
                .try_step_with_ghosts(&data_b, &[(2, carried)])
                .unwrap();
            assert_eq!(b.partition.ghost_rows, vec![0], "user 2 is row 0 of B");
            assert!(
                !b.partition.new_rows.contains(&0) && !b.partition.evolving_rows.contains(&0),
                "ghost rows leave the new/evolving sets"
            );
        }
        // Only the owner ever recorded user 2: the ghost holder withheld
        // it but recorded its own users.
        assert!(owner.sentiment_of(2).is_some());
        assert!(holder.sentiment_of(2).is_none());
        assert!(holder.sentiment_of(5).is_some());
    }
}
