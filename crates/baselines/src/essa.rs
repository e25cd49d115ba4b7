//! ESSA-style unsupervised sentiment analysis with emotional signals
//! (Hu et al., WWW 2013) and plain orthogonal NMF tri-factorization
//! (ONMTF, Ding et al., KDD 2006).
//!
//! ESSA factorizes the tweet–feature matrix with (a) a lexicon prior on
//! the feature factor ("emotional signal consistency") and (b) a
//! tweet–tweet graph built from shared emotional signals ("emotional
//! signal correlation"). ONMTF is the same machinery with both signals
//! switched off. Neither sees users or the social graph — that gap is
//! exactly what the tri-clustering framework adds.

use tgs_core::converge;
use tgs_linalg::{
    approx_error_tri, laplacian_quad, mult_update, random_factor_with, seeded_rng, CsrMatrix,
    DenseMatrix,
};

/// Hyper-parameters of the ESSA/ONMTF solver.
#[derive(Debug, Clone)]
pub struct EssaConfig {
    /// Number of classes.
    pub k: usize,
    /// Lexicon-prior weight (`0` disables — ONMTF mode).
    pub alpha: f64,
    /// Tweet–tweet emotional-graph weight (`0` disables).
    pub lambda: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative objective tolerance.
    pub tol: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EssaConfig {
    fn default() -> Self {
        Self {
            k: 3,
            alpha: 0.5,
            lambda: 0.1,
            max_iters: 100,
            tol: 1e-5,
            seed: 42,
        }
    }
}

/// Result of an ESSA/ONMTF solve.
#[derive(Debug, Clone)]
pub struct EssaResult {
    /// Tweet–cluster matrix (`n × k`).
    pub(crate) sp: DenseMatrix,
}

impl EssaResult {
    /// Hard tweet labels.
    pub fn tweet_labels(&self) -> Vec<usize> {
        self.sp.argmax_rows()
    }
}

/// Solves `min ‖Xp − Sp·H·Sfᵀ‖² + α‖Sf − Sf0‖² + λ·tr(SpᵀL_eSp)` with
/// multiplicative updates. `emotion_graph` must be symmetric when given.
pub fn solve_essa(
    xp: &CsrMatrix,
    sf0: &DenseMatrix,
    emotion_graph: Option<&CsrMatrix>,
    config: &EssaConfig,
) -> EssaResult {
    let (n, l) = xp.shape();
    let k = config.k;
    assert_eq!(sf0.shape(), (l, k), "Sf0 must be l × k");
    if let Some(g) = emotion_graph {
        assert_eq!(g.shape(), (n, n), "emotion graph must be n × n");
    }
    let degrees: Vec<f64> = emotion_graph.map(|g| g.row_sums()).unwrap_or_default();
    let mut rng = seeded_rng(config.seed);
    let mut sp = random_factor_with(n, k, &mut rng);
    let mut h = DenseMatrix::identity(k).add(&random_factor_with(k, k, &mut rng).scale(0.1));
    // Seed Sf at the prior (ESSA's emotional-signal initialization); for
    // ONMTF (alpha = 0) the prior is uniform so this is a neutral start.
    let mut sf = sf0.add(&random_factor_with(l, k, &mut rng).scale(0.01));

    let objective = |sp: &DenseMatrix, h: &DenseMatrix, sf: &DenseMatrix| -> f64 {
        let mut obj = approx_error_tri(xp, sp, h, sf);
        obj += config.alpha * sf.sub(sf0).frobenius_sq();
        if let Some(g) = emotion_graph {
            obj += config.lambda * laplacian_quad(g, &degrees, sp);
        }
        obj
    };

    let initial = objective(&sp, &h, &sf);
    converge(initial, config.max_iters, config.tol, false, || {
        // Sp update (graph-regularized NMF form)
        {
            let xp_sf_ht = xp.mul_dense(&sf).matmul_transpose(&h);
            let den_k = h.matmul(&sf.gram()).matmul_transpose(&h);
            let mut num = xp_sf_ht;
            let mut den = sp.matmul(&den_k);
            if let Some(g) = emotion_graph {
                num.axpy(config.lambda, &g.mul_dense(&sp));
                let mut du_sp = sp.clone();
                for (i, &d) in degrees.iter().enumerate() {
                    for v in du_sp.row_mut(i) {
                        *v *= d;
                    }
                }
                den.axpy(config.lambda, &du_sp);
            }
            mult_update(&mut sp, &num, &den);
        }
        // H update
        {
            let num = sp.transpose_matmul(&xp.mul_dense(&sf));
            let den = sp.gram().matmul(&h).matmul(&sf.gram());
            mult_update(&mut h, &num, &den);
        }
        // Sf update
        {
            let mut num = xp.transpose_mul_dense(&sp).matmul(&h);
            num.axpy(config.alpha, sf0);
            let den_k = h.transpose().matmul(&sp.gram()).matmul(&h);
            let mut den = sf.matmul(&den_k);
            den.axpy(config.alpha, &sf);
            mult_update(&mut sf, &num, &den);
        }
        objective(&sp, &h, &sf)
    });
    EssaResult { sp }
}

/// Plain ONMTF document clustering: no lexicon, no emotion graph.
pub fn solve_onmtf(xp: &CsrMatrix, k: usize, max_iters: usize, seed: u64) -> EssaResult {
    let uniform = DenseMatrix::filled(xp.cols(), k, 1.0 / k as f64);
    let config = EssaConfig {
        k,
        alpha: 0.0,
        lambda: 0.0,
        max_iters,
        tol: 1e-5,
        seed,
    };
    solve_essa(xp, &uniform, None, &config)
}

/// Builds ESSA's tweet–tweet "emotional signal" graph: tweets are linked
/// when they share emotionally charged features (features whose prior row
/// in `Sf0` deviates from uniform). Cosine similarity over those features
/// only, k-nearest-neighbour sparsified.
pub fn emotional_signal_graph(xp: &CsrMatrix, sf0: &DenseMatrix, neighbors: usize) -> CsrMatrix {
    let (n, l) = xp.shape();
    let k = sf0.cols();
    let uniform = 1.0 / k as f64;
    // Emotional features: prior mass meaningfully above uniform.
    let emotional: Vec<bool> = (0..l)
        .map(|f| sf0.row(f).iter().any(|&v| v > uniform + 0.1))
        .collect();
    // Restrict Xp to emotional columns.
    let mut trip = Vec::new();
    for (i, j, v) in xp.iter() {
        if emotional[j] {
            trip.push((i, j, v));
        }
    }
    let filtered = CsrMatrix::from_triplets(n, l, &trip).expect("filtered triplets in bounds");
    crate::labelprop::knn_feature_graph(&filtered, neighbors, 0.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Planted two-cluster corpus: cluster c uses features with parity c.
    fn planted(n: usize, l: usize, seed: u64) -> (CsrMatrix, DenseMatrix, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut trip = Vec::new();
        let mut truth = Vec::new();
        for i in 0..n {
            let c = i % 2;
            truth.push(c);
            for _ in 0..5 {
                let f = 2 * rng.random_range(0..l / 2) + c;
                trip.push((i, f, 1.0));
            }
        }
        let xp = CsrMatrix::from_triplets(n, l, &trip).unwrap();
        // lexicon knows a quarter of the features
        let sf0 = DenseMatrix::from_fn(l, 2, |f, j| {
            if f < l / 4 {
                if f % 2 == j {
                    0.9
                } else {
                    0.1
                }
            } else {
                0.5
            }
        });
        (xp, sf0, truth)
    }

    #[test]
    fn essa_recovers_planted_clusters() {
        let (xp, sf0, truth) = planted(40, 16, 1);
        let cfg = EssaConfig {
            k: 2,
            ..Default::default()
        };
        let result = solve_essa(&xp, &sf0, None, &cfg);
        let acc = tgs_eval::clustering_accuracy(&result.tweet_labels(), &truth);
        assert!(acc > 0.85, "accuracy {acc}");
        assert!(result.sp.is_nonnegative());
    }

    #[test]
    fn onmtf_without_signals_still_clusters() {
        let (xp, _, truth) = planted(40, 16, 2);
        let result = solve_onmtf(&xp, 2, 150, 7);
        let acc = tgs_eval::clustering_accuracy(&result.tweet_labels(), &truth);
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn emotion_graph_links_same_signal_tweets() {
        // Seed chosen so the planted corpus has emotional-feature overlap
        // under the vendored RNG stream (seed 3 plants an empty graph).
        let (xp, sf0, truth) = planted(20, 16, 4);
        let g = emotional_signal_graph(&xp, &sf0, 3);
        assert_eq!(g.shape(), (20, 20));
        // Most edges should connect same-class tweets.
        let mut same = 0usize;
        let mut total = 0usize;
        for (i, j, _) in g.iter() {
            total += 1;
            if truth[i] == truth[j] {
                same += 1;
            }
        }
        assert!(total > 0);
        assert!(same as f64 / total as f64 > 0.8, "same-class edge fraction");
    }

    #[test]
    fn graph_regularization_keeps_factors_nonnegative() {
        let (xp, sf0, _) = planted(30, 16, 4);
        let g = emotional_signal_graph(&xp, &sf0, 3);
        let cfg = EssaConfig {
            k: 2,
            lambda: 0.3,
            max_iters: 50,
            ..Default::default()
        };
        let result = solve_essa(&xp, &sf0, Some(&g), &cfg);
        assert!(result.sp.is_nonnegative());
    }

    #[test]
    fn deterministic_given_seed() {
        let (xp, sf0, _) = planted(20, 16, 5);
        let cfg = EssaConfig {
            k: 2,
            ..Default::default()
        };
        let a = solve_essa(&xp, &sf0, None, &cfg);
        let b = solve_essa(&xp, &sf0, None, &cfg);
        assert_eq!(a.tweet_labels(), b.tweet_labels());
    }
}
