//! BACG-style attributed-graph user clustering (Xu et al., SIGMOD 2012):
//! clusters users from both structure (the user–user graph) and content
//! (the user–feature matrix). The original is a Bayesian model; this
//! stand-in optimizes the equivalent non-negative objective
//! `‖Xu − Su·W‖² + β·tr(SuᵀLuSu)` — content factorization with graph
//! smoothing — which preserves the comparison the paper makes (user
//! clustering from structure + content, but with no tweet layer and no
//! lexicon).

use tgs_core::converge;
use tgs_graph::UserGraph;
use tgs_linalg::{
    approx_error_bi, laplacian_quad, mult_update, random_factor_with, seeded_rng, CsrMatrix,
    DenseMatrix,
};

/// Hyper-parameters of the BACG stand-in.
#[derive(Debug, Clone)]
pub struct BacgConfig {
    /// Number of clusters.
    pub k: usize,
    /// Graph-smoothing weight.
    pub beta: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative objective tolerance.
    pub tol: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BacgConfig {
    fn default() -> Self {
        Self {
            k: 3,
            beta: 0.5,
            max_iters: 100,
            tol: 1e-5,
            seed: 42,
        }
    }
}

/// Result of a BACG solve.
#[derive(Debug, Clone)]
pub struct BacgResult {
    /// User–cluster matrix (`m × k`).
    pub(crate) su: DenseMatrix,
}

impl BacgResult {
    /// Hard user labels.
    pub fn user_labels(&self) -> Vec<usize> {
        self.su.argmax_rows()
    }
}

/// Runs the solver on user content `xu` (`m × l`) and the user graph.
pub fn solve_bacg(xu: &CsrMatrix, graph: &UserGraph, config: &BacgConfig) -> BacgResult {
    let (m, l) = xu.shape();
    assert_eq!(graph.num_nodes(), m, "graph must cover all users");
    let k = config.k;
    let mut rng = seeded_rng(config.seed);
    let mut su = random_factor_with(m, k, &mut rng);
    let mut w = random_factor_with(k, l, &mut rng);
    let degrees = graph.degrees();

    let objective = |su: &DenseMatrix, w: &DenseMatrix| -> f64 {
        // ‖Xu − Su·W‖² = ‖Xu − Su·(Wᵀ)ᵀ‖²
        approx_error_bi(xu, su, &w.transpose())
            + config.beta * laplacian_quad(graph.adjacency(), degrees, su)
    };

    let initial = objective(&su, &w);
    converge(initial, config.max_iters, config.tol, false, || {
        // Su ← Su ∘ sqrt((Xu·Wᵀ + β·Gu·Su) / (Su·W·Wᵀ + β·Du·Su))
        {
            let num_base = xu.mul_dense(&w.transpose());
            let mut num = num_base;
            num.axpy(config.beta, &graph.adjacency().mul_dense(&su));
            let wwt = w.matmul_transpose(&w);
            let mut den = su.matmul(&wwt);
            let mut du_su = su.clone();
            for (i, &d) in degrees.iter().enumerate() {
                for v in du_su.row_mut(i) {
                    *v *= d;
                }
            }
            den.axpy(config.beta, &du_su);
            mult_update(&mut su, &num, &den);
        }
        // W ← W ∘ (Suᵀ·Xu) / (SuᵀSu·W)
        {
            let num = xu.transpose_mul_dense(&su).transpose();
            let den = su.gram().matmul(&w);
            mult_update(&mut w, &num, &den);
        }
        objective(&su, &w)
    });
    BacgResult { su }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Planted users: class = parity; content features by parity; graph
    /// homophilous.
    fn planted(m: usize, l: usize, seed: u64) -> (CsrMatrix, UserGraph, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut trip = Vec::new();
        let mut edges = Vec::new();
        let mut truth = Vec::new();
        for u in 0..m {
            let c = u % 2;
            truth.push(c);
            for _ in 0..6 {
                let f = 2 * rng.random_range(0..l / 2) + c;
                trip.push((u, f, 1.0));
            }
            let peer = 2 * rng.random_range(0..m / 2) + c;
            if peer != u {
                edges.push((u, peer, 1.0));
            }
        }
        let xu = CsrMatrix::from_triplets(m, l, &trip).unwrap();
        let graph = UserGraph::from_edges(m, &edges);
        (xu, graph, truth)
    }

    #[test]
    fn recovers_planted_user_clusters() {
        let (xu, graph, truth) = planted(20, 12, 1);
        let cfg = BacgConfig {
            k: 2,
            ..Default::default()
        };
        let result = solve_bacg(&xu, &graph, &cfg);
        let acc = tgs_eval::clustering_accuracy(&result.user_labels(), &truth);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn graph_only_signal_still_helps() {
        // content is pure noise; only the graph separates the classes
        let mut rng = seeded_rng(9);
        let m = 20;
        let mut trip = Vec::new();
        for u in 0..m {
            for _ in 0..4 {
                trip.push((u, rng.random_range(0..10), 1.0));
            }
        }
        let xu = CsrMatrix::from_triplets(m, 10, &trip).unwrap();
        let mut edges = Vec::new();
        for u in 0..m {
            for v in (u + 1)..m {
                if u % 2 == v % 2 {
                    edges.push((u, v, 1.0));
                }
            }
        }
        let graph = UserGraph::from_edges(m, &edges);
        let truth: Vec<usize> = (0..m).map(|u| u % 2).collect();
        let strong = BacgConfig {
            k: 2,
            beta: 1.0,
            ..Default::default()
        };
        let weak = BacgConfig {
            k: 2,
            beta: 0.0,
            ..Default::default()
        };
        let acc_strong =
            tgs_eval::clustering_accuracy(&solve_bacg(&xu, &graph, &strong).user_labels(), &truth);
        let acc_weak =
            tgs_eval::clustering_accuracy(&solve_bacg(&xu, &graph, &weak).user_labels(), &truth);
        assert!(
            acc_strong >= acc_weak,
            "graph smoothing should not hurt on graph-separable data: {acc_strong} vs {acc_weak}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (xu, graph, _) = planted(16, 10, 2);
        let cfg = BacgConfig {
            k: 2,
            ..Default::default()
        };
        let a = solve_bacg(&xu, &graph, &cfg);
        let b = solve_bacg(&xu, &graph, &cfg);
        assert_eq!(a.user_labels(), b.user_labels());
    }

    #[test]
    fn factors_stay_nonnegative() {
        let (xu, graph, _) = planted(16, 10, 3);
        let cfg = BacgConfig {
            k: 2,
            beta: 0.9,
            ..Default::default()
        };
        let result = solve_bacg(&xu, &graph, &cfg);
        assert!(result.su.is_nonnegative());
    }
}
