//! Algorithm 1: the offline tri-clustering solver.

use crate::config::OfflineConfig;
use crate::error::TgsError;
use crate::factors::TriFactors;
use crate::input::TriInput;
use crate::objective::{converge, offline_objective, ObjectiveParts};
use crate::workspace::UpdateWorkspace;

/// Result of an offline solve.
#[derive(Debug, Clone)]
pub struct OfflineResult {
    /// The converged factor matrices.
    pub factors: TriFactors,
    /// Per-iteration objective decomposition (empty unless
    /// `track_objective`; index 0 is the initial value).
    pub history: Vec<ObjectiveParts>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether the tolerance was met before `max_iters`.
    pub converged: bool,
    /// Final objective value.
    pub objective: f64,
}

impl OfflineResult {
    /// Hard tweet labels (argmax of `Sp`).
    pub fn tweet_labels(&self) -> Vec<usize> {
        self.factors.tweet_labels()
    }

    /// Hard user labels (argmax of `Su`).
    pub fn user_labels(&self) -> Vec<usize> {
        self.factors.user_labels()
    }
}

/// Runs Algorithm 1: iterate the multiplicative updates (Sp, Hp, Su, Hu,
/// Sf — the paper's line order) until the relative objective change drops
/// below `tol` or `max_iters` is reached. Malformed configurations and
/// inputs are reported as the matching [`TgsError`] variant.
pub fn try_solve_offline(
    input: &TriInput<'_>,
    config: &OfflineConfig,
) -> Result<OfflineResult, TgsError> {
    config.try_validate()?;
    input.try_validate(config.k)?;
    let mut factors = TriFactors::init(
        input.n(),
        input.m(),
        input.l(),
        config.k,
        input.sf0,
        config.init,
        config.seed,
    );
    // Sweeps run through the fused `UpdateWorkspace` engine:
    // bit-identical to the reference rules in `crate::updates`, without
    // their per-rule allocations and redundant shared products.
    let mut workspace = UpdateWorkspace::new();
    workspace.bind(input);
    workspace.balance_init_scales(input, &mut factors);
    let initial = offline_objective(input, &factors, config.alpha, config.beta);
    let run = converge(
        initial,
        config.max_iters,
        config.tol,
        config.track_objective,
        || {
            workspace.sweep_offline(input, &mut factors, config.alpha, config.beta, input.sf0);
            // One objective evaluation per iteration: reused for both
            // history and the convergence check. Evaluated through the
            // workspace's cached sweep products (agrees with
            // `offline_objective` to ~1e-12 relative) — the from-scratch
            // evaluation used to cost as much as a third of the whole
            // iteration.
            workspace.objective_offline(input, &factors, config.alpha, config.beta)
        },
    );
    debug_assert!(
        factors.all_nonnegative(),
        "updates must preserve non-negativity"
    );
    Ok(OfflineResult {
        factors,
        history: run.history,
        iterations: run.iterations,
        converged: run.converged,
        objective: run.last.total(),
    })
}

/// Panicking wrapper around [`try_solve_offline`], kept for the bench
/// binaries and quick scripts.
pub fn solve_offline(input: &TriInput<'_>, config: &OfflineConfig) -> OfflineResult {
    try_solve_offline(input, config).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::InitStrategy;
    use rand::RngExt;
    use tgs_graph::UserGraph;
    use tgs_linalg::{seeded_rng, CsrMatrix, DenseMatrix};

    /// Builds a planted two-cluster instance: tweets/users/features split
    /// into two blocks with strong within-block signal.
    fn planted(seed: u64) -> (CsrMatrix, CsrMatrix, CsrMatrix, UserGraph, DenseMatrix) {
        let mut rng = seeded_rng(seed);
        let (n, m, l) = (30, 10, 16);
        let mut xp = Vec::new();
        let mut xu = Vec::new();
        let mut xr = Vec::new();
        let mut edges = Vec::new();
        // tweet i belongs to cluster i % 2; user j to cluster j % 2;
        // feature f to cluster f % 2.
        for i in 0..n {
            let c = i % 2;
            for _ in 0..5 {
                let f = 2 * rng.random_range(0..l / 2) + c;
                xp.push((i, f, 1.0 + rng.random_range(0.0..0.5)));
            }
            // author: user with same parity
            let author = 2 * rng.random_range(0..m / 2) + c;
            xr.push((author, i, 1.0));
        }
        for j in 0..m {
            let c = j % 2;
            for _ in 0..8 {
                let f = 2 * rng.random_range(0..l / 2) + c;
                xu.push((j, f, 1.0 + rng.random_range(0.0..0.5)));
            }
            // homophilous edges
            let peer = 2 * rng.random_range(0..m / 2) + c;
            if peer != j {
                edges.push((j, peer, 1.0));
            }
        }
        let xp = CsrMatrix::from_triplets(n, l, &xp).unwrap();
        let xu = CsrMatrix::from_triplets(m, l, &xu).unwrap();
        let xr = CsrMatrix::from_triplets(m, n, &xr).unwrap();
        let graph = UserGraph::from_edges(m, &edges);
        // lexicon prior: knows half the features
        let sf0 = DenseMatrix::from_fn(l, 2, |f, j| {
            if f < l / 2 {
                if f % 2 == j {
                    0.9
                } else {
                    0.1
                }
            } else {
                0.5
            }
        });
        (xp, xu, xr, graph, sf0)
    }

    fn config(k: usize) -> OfflineConfig {
        OfflineConfig {
            k,
            max_iters: 150,
            tol: 1e-7,
            track_objective: true,
            ..Default::default()
        }
    }

    #[test]
    fn objective_monotone_and_converges() {
        let (xp, xu, xr, graph, sf0) = planted(1);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let result = solve_offline(&input, &config(2));
        assert!(result.iterations > 1);
        for w in result.history.windows(2) {
            assert!(
                w[1].total() <= w[0].total() * (1.0 + 1e-6) + 1e-9,
                "objective must be non-increasing: {} -> {}",
                w[0].total(),
                w[1].total()
            );
        }
        assert!(result.factors.all_nonnegative());
    }

    #[test]
    fn recovers_planted_clusters() {
        let (xp, xu, xr, graph, sf0) = planted(2);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let result = solve_offline(&input, &config(2));
        let tweet_truth: Vec<usize> = (0..30).map(|i| i % 2).collect();
        let user_truth: Vec<usize> = (0..10).map(|j| j % 2).collect();
        let t_acc = tgs_eval::clustering_accuracy(&result.tweet_labels(), &tweet_truth);
        let u_acc = tgs_eval::clustering_accuracy(&result.user_labels(), &user_truth);
        assert!(t_acc > 0.9, "tweet accuracy {t_acc}");
        assert!(u_acc > 0.9, "user accuracy {u_acc}");
    }

    #[test]
    fn random_init_also_works() {
        let (xp, xu, xr, graph, sf0) = planted(3);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let cfg = OfflineConfig {
            init: InitStrategy::Random,
            ..config(2)
        };
        let result = solve_offline(&input, &cfg);
        let tweet_truth: Vec<usize> = (0..30).map(|i| i % 2).collect();
        let t_acc = tgs_eval::clustering_accuracy(&result.tweet_labels(), &tweet_truth);
        assert!(t_acc > 0.8, "tweet accuracy {t_acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xp, xu, xr, graph, sf0) = planted(4);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let a = solve_offline(&input, &config(2));
        let b = solve_offline(&input, &config(2));
        assert_eq!(a.iterations, b.iterations);
        assert!(a.factors.su.max_abs_diff(&b.factors.su) == 0.0);
    }

    #[test]
    fn early_stopping_with_loose_tolerance() {
        let (xp, xu, xr, graph, sf0) = planted(5);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let cfg = OfflineConfig {
            tol: 0.05,
            ..config(2)
        };
        let result = solve_offline(&input, &cfg);
        assert!(result.converged);
        assert!(result.iterations < 150);
    }

    #[test]
    fn history_disabled_by_default() {
        let (xp, xu, xr, graph, sf0) = planted(6);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let cfg = OfflineConfig {
            k: 2,
            ..Default::default()
        };
        let result = solve_offline(&input, &cfg);
        assert!(result.history.is_empty());
        assert!(result.objective.is_finite());
    }
}
