//! Objective evaluation: Eq. (1) offline and Eq. (19) online, decomposed
//! into named components (Fig. 8 plots three of them).

use tgs_linalg::{approx_error_bi, approx_error_tri, laplacian_quad, DenseMatrix};

use crate::factors::TriFactors;
use crate::input::TriInput;

/// The objective decomposed into its components. `total()` is the value
/// the paper's MM argument says each update rule does not increase. A
/// full sweep can still raise it at corpus scale: Fig. 8 at small scale
/// prints 678,158.3 at iteration 25 and 696,399.0 at iteration 40 (see
/// `crate::updates` and ROADMAP item 3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObjectiveParts {
    /// `‖Xp − Sp·Hp·Sfᵀ‖²` (Eq. 2) — Fig. 8(a).
    pub tweet_feature: f64,
    /// `‖Xu − Su·Hu·Sfᵀ‖²` (Eq. 3) — Fig. 8(b).
    pub user_feature: f64,
    /// `‖Xr − Su·Spᵀ‖²` (Eq. 4).
    pub user_tweet: f64,
    /// `α·‖Sf − Sf*‖²` (Eq. 5 offline with `Sf* = Sf0`; temporal target
    /// `Sfw(t)` online).
    pub lexicon: f64,
    /// `β·tr(SuᵀLuSu)` (Eq. 6).
    pub graph: f64,
    /// `γ·‖Su(d,e)(t) − Suw(t)‖²` (online only; zero offline).
    pub(crate) temporal_user: f64,
}

impl ObjectiveParts {
    /// Sum of all components (the value of Eq. 1 / Eq. 19).
    pub fn total(&self) -> f64 {
        self.tweet_feature
            + self.user_feature
            + self.user_tweet
            + self.lexicon
            + self.graph
            + self.temporal_user
    }
}

/// An objective value [`converge`] can test: a solver's whole objective
/// record, and the scalar its stopping rule compares.
pub trait ObjectiveValue: Copy {
    /// The objective's value.
    fn value(&self) -> f64;
}

impl ObjectiveValue for ObjectiveParts {
    fn value(&self) -> f64 {
        self.total()
    }
}

impl ObjectiveValue for f64 {
    fn value(&self) -> f64 {
        *self
    }
}

/// What [`converge`] returns.
#[derive(Debug)]
pub struct Convergence<T> {
    /// The initial value, then one value per sweep (empty unless tracked).
    pub history: Vec<T>,
    /// Sweeps run.
    pub iterations: usize,
    /// Whether the tolerance was met before `max_iters`.
    pub converged: bool,
    /// The value after the last sweep (`initial` if none ran).
    pub last: T,
}

/// The stopping rule of Algorithms 1 and 2, shared by every
/// multiplicative solver: runs `sweep` (one round of updates, returning
/// the objective after it) until the relative change
/// `|prev − cur| / max(|prev|, 1)` falls below `tol`, or `max_iters`
/// sweeps have run. With `track`, the history holds `initial` and every
/// sweep's value; without it nothing is allocated.
pub fn converge<T: ObjectiveValue>(
    initial: T,
    max_iters: usize,
    tol: f64,
    track: bool,
    mut sweep: impl FnMut() -> T,
) -> Convergence<T> {
    let mut history = Vec::new();
    if track {
        history.push(initial);
    }
    let mut prev = initial;
    let mut converged = false;
    let mut iterations = 0;
    while iterations < max_iters {
        let cur = sweep();
        iterations += 1;
        if track {
            history.push(cur);
        }
        converged = (prev.value() - cur.value()).abs() / prev.value().abs().max(1.0) < tol;
        prev = cur;
        if converged {
            break;
        }
    }
    Convergence {
        history,
        iterations,
        converged,
        last: prev,
    }
}

/// Evaluates the offline objective (Eq. 1).
pub fn offline_objective(
    input: &TriInput<'_>,
    factors: &TriFactors,
    alpha: f64,
    beta: f64,
) -> ObjectiveParts {
    objective_with_targets(input, factors, alpha, input.sf0, beta, 0.0, None, &[])
}

/// Evaluates the online objective (Eq. 19).
///
/// * `sf_target` — `Sfw(t)` (falls back to `Sf0` on the first snapshot);
/// * `su_target` — `Suw(t)` rows for the evolving users listed in
///   `evolving_rows` (row `i` of `su_target` pairs with local user row
///   `evolving_rows[i]`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn online_objective(
    input: &TriInput<'_>,
    factors: &TriFactors,
    alpha: f64,
    sf_target: &DenseMatrix,
    beta: f64,
    gamma: f64,
    su_target: Option<&DenseMatrix>,
    evolving_rows: &[usize],
) -> ObjectiveParts {
    objective_with_targets(
        input,
        factors,
        alpha,
        sf_target,
        beta,
        gamma,
        su_target,
        evolving_rows,
    )
}

#[allow(clippy::too_many_arguments)]
fn objective_with_targets(
    input: &TriInput<'_>,
    factors: &TriFactors,
    alpha: f64,
    sf_target: &DenseMatrix,
    beta: f64,
    gamma: f64,
    su_target: Option<&DenseMatrix>,
    evolving_rows: &[usize],
) -> ObjectiveParts {
    let tweet_feature = approx_error_tri(input.xp, &factors.sp, &factors.hp, &factors.sf);
    let user_feature = approx_error_tri(input.xu, &factors.su, &factors.hu, &factors.sf);
    let user_tweet = approx_error_bi(input.xr, &factors.su, &factors.sp);
    let lexicon = alpha * factors.sf.sub(sf_target).frobenius_sq();
    let graph = beta * laplacian_quad(input.graph.adjacency(), input.graph.degrees(), &factors.su);
    let temporal_user = match su_target {
        Some(target) if gamma > 0.0 => {
            assert_eq!(
                target.rows(),
                evolving_rows.len(),
                "one target row per evolving user required"
            );
            let mut sq = 0.0;
            for (t_row, &u_row) in evolving_rows.iter().enumerate() {
                let current = factors.su.row(u_row);
                let target_row = target.row(t_row);
                for (c, t) in current.iter().zip(target_row.iter()) {
                    let d = c - t;
                    sq += d * d;
                }
            }
            gamma * sq
        }
        _ => 0.0,
    };
    ObjectiveParts {
        tweet_feature,
        user_feature,
        user_tweet,
        lexicon,
        graph,
        temporal_user,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_graph::UserGraph;
    use tgs_linalg::CsrMatrix;

    fn setup() -> (CsrMatrix, CsrMatrix, CsrMatrix, UserGraph, DenseMatrix) {
        let xp = CsrMatrix::from_triplets(3, 4, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]).unwrap();
        let xu = CsrMatrix::from_triplets(2, 4, &[(0, 0, 2.0), (1, 3, 1.0)]).unwrap();
        let xr = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 1.0)]).unwrap();
        let graph = UserGraph::from_edges(2, &[(0, 1, 1.0)]);
        let sf0 = DenseMatrix::filled(4, 2, 0.5);
        (xp, xu, xr, graph, sf0)
    }

    #[test]
    fn total_is_sum_of_parts() {
        let (xp, xu, xr, graph, sf0) = setup();
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let factors = TriFactors::random(3, 2, 4, 2, 5);
        let parts = offline_objective(&input, &factors, 0.3, 0.7);
        let manual = parts.tweet_feature
            + parts.user_feature
            + parts.user_tweet
            + parts.lexicon
            + parts.graph;
        assert!((parts.total() - manual).abs() < 1e-12);
        assert!(parts.total() > 0.0);
    }

    #[test]
    fn zero_weights_zero_regularizers() {
        let (xp, xu, xr, graph, sf0) = setup();
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let factors = TriFactors::random(3, 2, 4, 2, 5);
        let parts = offline_objective(&input, &factors, 0.0, 0.0);
        assert_eq!(parts.lexicon, 0.0);
        assert_eq!(parts.graph, 0.0);
        assert_eq!(parts.temporal_user, 0.0);
    }

    #[test]
    fn perfect_factorization_has_small_residual() {
        // Xr = Su·Spᵀ exactly
        let su = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let sp = DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        let xr_dense = su.matmul_transpose(&sp);
        let mut triplets = Vec::new();
        for i in 0..2 {
            for j in 0..3 {
                if xr_dense.get(i, j) != 0.0 {
                    triplets.push((i, j, xr_dense.get(i, j)));
                }
            }
        }
        let xr = CsrMatrix::from_triplets(2, 3, &triplets).unwrap();
        let err = tgs_linalg::approx_error_bi(&xr, &su, &sp);
        assert!(err < 1e-12);
    }

    #[test]
    fn online_temporal_term_counts_only_evolving_rows() {
        let (xp, xu, xr, graph, sf0) = setup();
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let mut factors = TriFactors::random(3, 2, 4, 2, 5);
        factors.su = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        // target for user row 1 only
        let target = DenseMatrix::from_vec(1, 2, vec![0.0, 0.0]).unwrap();
        let parts = online_objective(&input, &factors, 0.0, &sf0, 0.0, 0.5, Some(&target), &[1]);
        // ||(0,1) - (0,0)||² = 1, scaled by γ=0.5
        assert!((parts.temporal_user - 0.5).abs() < 1e-12);
    }

    #[test]
    fn converge_stops_at_the_first_sweep_below_tol() {
        // Relative changes 0.5, 0.2, 0.05, 0.0125: the third is the
        // first below 0.1.
        let values = [50.0, 40.0, 38.0, 37.525];
        let mut next = values.iter().copied();
        let run = converge(100.0, 10, 0.1, true, || next.next().unwrap());
        assert_eq!(run.iterations, 3);
        assert!(run.converged);
        assert_eq!(run.last, 38.0);
        assert_eq!(run.history, vec![100.0, 50.0, 40.0, 38.0]);
    }

    #[test]
    fn converge_runs_max_iters_when_the_change_stays_above_tol() {
        // Each sweep halves the value: a relative change of 0.5 each time.
        let mut value = 64.0;
        let mut sweeps = 0;
        let run = converge(value, 7, 0.1, false, || {
            sweeps += 1;
            value /= 2.0;
            value
        });
        assert_eq!((run.iterations, sweeps), (7, 7));
        assert!(!run.converged);
        assert_eq!(run.last, 0.5);
        assert!(run.history.is_empty());
    }
}
