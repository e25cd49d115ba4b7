//! Extensions from the paper's conclusion (§7): the authors propose a
//! unified framework with *optional* regularizations beyond the published
//! ones — **guided (semi-supervised) regularization** and sparsity
//! regularization. This module implements the guided one on top of the
//! offline solver: labeled tweets/users are pulled toward their one-hot
//! class rows with weight `δ`, using the same block-partitioned
//! multiplicative machinery as the online temporal pull (Eq. 26 with the
//! label prior in place of `Suw`).

use tgs_linalg::{DenseMatrix, FACTOR_FLOOR};

use crate::config::OfflineConfig;
use crate::factors::TriFactors;
use crate::input::TriInput;
use crate::objective::{converge, offline_objective};
use crate::offline::OfflineResult;
use crate::updates::{
    balance_init_scales, update_hp, update_hu, update_sf, update_sp_guided, update_su_online,
};

/// Label information for the guided (semi-supervised) solver.
#[derive(Debug, Clone, Copy)]
pub struct Guidance<'a> {
    /// Known tweet classes (`None` = unlabeled).
    pub tweet_labels: &'a [Option<usize>],
    /// Known user classes (`None` = unlabeled).
    pub user_labels: &'a [Option<usize>],
}

/// Configuration of the guided solver.
#[derive(Debug, Clone)]
pub struct GuidedConfig {
    /// Base offline settings (k, α, β, iterations, seed, init).
    pub base: OfflineConfig,
    /// Guidance weight `δ ≥ 0`: how strongly labeled rows are pulled
    /// toward their one-hot class (0 = plain unsupervised solve).
    pub delta: f64,
}

impl Default for GuidedConfig {
    fn default() -> Self {
        Self {
            base: OfflineConfig::default(),
            delta: 0.5,
        }
    }
}

impl GuidedConfig {
    /// Validates invariants.
    pub(crate) fn validate(&self) {
        self.base.validate();
        assert!(
            self.delta >= 0.0 && self.delta.is_finite(),
            "delta must be non-negative"
        );
    }
}

/// Builds `(guided_rows, one_hot_targets)` from per-item labels: row `i`
/// of the returned matrix is the target for item `guided_rows[i]`.
fn guidance_targets(labels: &[Option<usize>], k: usize) -> (Vec<usize>, DenseMatrix) {
    let rows: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            Some(c) if *c < k => Some(i),
            _ => None,
        })
        .collect();
    let mut targets = DenseMatrix::filled(rows.len(), k, FACTOR_FLOOR);
    for (t, &i) in rows.iter().enumerate() {
        let class = labels[i].expect("filtered to labeled rows");
        targets.set(t, class, 1.0);
    }
    (rows, targets)
}

/// Semi-supervised tri-clustering: the offline solve of Eq. (1) plus a
/// guidance pull `δ·(‖Sp(g) − Yp‖² + ‖Su(g) − Yu‖²)` over the labeled
/// rows.
pub fn solve_guided(
    input: &TriInput<'_>,
    guidance: &Guidance<'_>,
    config: &GuidedConfig,
) -> OfflineResult {
    config.validate();
    input.validate(config.base.k);
    assert_eq!(
        guidance.tweet_labels.len(),
        input.n(),
        "one tweet-label slot per tweet required"
    );
    assert_eq!(
        guidance.user_labels.len(),
        input.m(),
        "one user-label slot per user required"
    );
    let k = config.base.k;
    let (sp_rows, sp_targets) = guidance_targets(guidance.tweet_labels, k);
    let (su_rows, su_targets) = guidance_targets(guidance.user_labels, k);
    let sp_free: Vec<usize> = {
        let set: std::collections::HashSet<usize> = sp_rows.iter().copied().collect();
        (0..input.n()).filter(|i| !set.contains(i)).collect()
    };
    let su_free: Vec<usize> = {
        let set: std::collections::HashSet<usize> = su_rows.iter().copied().collect();
        (0..input.m()).filter(|i| !set.contains(i)).collect()
    };

    let mut factors = TriFactors::init(
        input.n(),
        input.m(),
        input.l(),
        k,
        input.sf0,
        config.base.init,
        config.base.seed,
    );
    // Labeled rows start at their targets (a warm start, like the online
    // solver's evolving users).
    for (t, &row) in sp_rows.iter().enumerate() {
        factors.sp.copy_row_from(row, &sp_targets, t);
    }
    for (t, &row) in su_rows.iter().enumerate() {
        factors.su.copy_row_from(row, &su_targets, t);
    }
    balance_init_scales(input, &mut factors);

    let initial = offline_objective(input, &factors, config.base.alpha, config.base.beta);
    let run = converge(
        initial,
        config.base.max_iters,
        config.base.tol,
        config.base.track_objective,
        || {
            update_sp_guided(
                input,
                &mut factors,
                config.delta,
                &sp_free,
                &sp_rows,
                &sp_targets,
            );
            update_hp(input, &mut factors);
            update_su_online(
                input,
                &mut factors,
                config.base.beta,
                config.delta,
                &su_free,
                &su_rows,
                &su_targets,
            );
            update_hu(input, &mut factors);
            update_sf(input, &mut factors, config.base.alpha, input.sf0);
            offline_objective(input, &factors, config.base.alpha, config.base.beta)
        },
    );
    OfflineResult {
        factors,
        history: run.history,
        iterations: run.iterations,
        converged: run.converged,
        objective: run.last.total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use tgs_graph::UserGraph;
    use tgs_linalg::{seeded_rng, CsrMatrix};

    /// Weak-signal planted instance where guidance should help: features
    /// barely separate the two classes.
    fn weak_instance(
        seed: u64,
    ) -> (
        CsrMatrix,
        CsrMatrix,
        CsrMatrix,
        UserGraph,
        DenseMatrix,
        Vec<usize>,
        Vec<usize>,
    ) {
        let mut rng = seeded_rng(seed);
        let (n, m, l) = (40, 12, 14);
        let mut xp = Vec::new();
        let mut xu = Vec::new();
        let mut xr = Vec::new();
        let mut tweet_truth = Vec::new();
        for i in 0..n {
            let c = i % 2;
            tweet_truth.push(c);
            for _ in 0..4 {
                // only 60% of tokens carry the class signal
                let f = if rng.random_range(0.0..1.0) < 0.6 {
                    2 * rng.random_range(0..l / 2) + c
                } else {
                    rng.random_range(0..l)
                };
                xp.push((i, f, 1.0));
            }
            let author = 2 * rng.random_range(0..m / 2) + c;
            xr.push((author, i, 1.0));
        }
        let user_truth: Vec<usize> = (0..m).map(|u| u % 2).collect();
        for (u, &c) in user_truth.iter().enumerate() {
            for _ in 0..5 {
                let f = if rng.random_range(0.0..1.0) < 0.6 {
                    2 * rng.random_range(0..l / 2) + c
                } else {
                    rng.random_range(0..l)
                };
                xu.push((u, f, 1.0));
            }
        }
        let xp = CsrMatrix::from_triplets(n, l, &xp).unwrap();
        let xu = CsrMatrix::from_triplets(m, l, &xu).unwrap();
        let xr = CsrMatrix::from_triplets(m, n, &xr).unwrap();
        let graph = UserGraph::empty(m);
        let sf0 = DenseMatrix::filled(l, 2, 0.5); // no lexicon signal
        (xp, xu, xr, graph, sf0, tweet_truth, user_truth)
    }

    fn base(k: usize) -> OfflineConfig {
        OfflineConfig {
            k,
            max_iters: 80,
            ..Default::default()
        }
    }

    #[test]
    fn guidance_improves_weak_signal_clustering() {
        let (xp, xu, xr, graph, sf0, tweet_truth, user_truth) = weak_instance(3);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        // 25% of tweets labeled
        let tweet_labels: Vec<Option<usize>> = tweet_truth
            .iter()
            .enumerate()
            .map(|(i, &c)| if i % 4 == 0 { Some(c) } else { None })
            .collect();
        let user_labels: Vec<Option<usize>> = vec![None; user_truth.len()];
        let guidance = Guidance {
            tweet_labels: &tweet_labels,
            user_labels: &user_labels,
        };
        let unguided = solve_guided(
            &input,
            &guidance,
            &GuidedConfig {
                delta: 0.0,
                base: base(2),
            },
        );
        let guided = solve_guided(
            &input,
            &guidance,
            &GuidedConfig {
                delta: 1.0,
                base: base(2),
            },
        );
        let acc_unguided = tgs_eval::clustering_accuracy(&unguided.tweet_labels(), &tweet_truth);
        let acc_guided = tgs_eval::clustering_accuracy(&guided.tweet_labels(), &tweet_truth);
        assert!(
            acc_guided >= acc_unguided,
            "guidance should not hurt: {acc_unguided} -> {acc_guided}"
        );
        // Labeled rows should actually be classified as their labels.
        let labels = guided.tweet_labels();
        let respected = tweet_labels
            .iter()
            .enumerate()
            .filter(|(i, l)| l.map(|c| labels[*i] == c).unwrap_or(true))
            .count();
        assert!(
            respected as f64 / tweet_labels.len() as f64 > 0.9,
            "guided labels should be respected"
        );
    }

    #[test]
    fn user_guidance_pins_labeled_users() {
        let (xp, xu, xr, graph, sf0, _, user_truth) = weak_instance(7);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let tweet_labels: Vec<Option<usize>> = vec![None; xp.rows()];
        let user_labels: Vec<Option<usize>> = user_truth.iter().map(|&c| Some(c)).collect();
        let guidance = Guidance {
            tweet_labels: &tweet_labels,
            user_labels: &user_labels,
        };
        let result = solve_guided(
            &input,
            &guidance,
            &GuidedConfig {
                delta: 1.0,
                base: base(2),
            },
        );
        let acc = tgs_eval::classification_accuracy(&result.user_labels(), &user_truth);
        assert!(acc > 0.9, "fully labeled users should stay pinned: {acc}");
    }

    #[test]
    fn guidance_targets_built_correctly() {
        let labels = vec![Some(1), None, Some(0), Some(9)]; // 9 out of range → skipped
        let (rows, targets) = guidance_targets(&labels, 2);
        assert_eq!(rows, vec![0, 2]);
        assert!(targets.get(0, 1) > 0.9);
        assert!(targets.get(1, 0) > 0.9);
        assert!(targets.get(0, 0) < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xp, xu, xr, graph, sf0, tweet_truth, _) = weak_instance(13);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let tweet_labels: Vec<Option<usize>> = tweet_truth
            .iter()
            .enumerate()
            .map(|(i, &c)| if i % 5 == 0 { Some(c) } else { None })
            .collect();
        let user_labels = vec![None; xu.rows()];
        let guidance = Guidance {
            tweet_labels: &tweet_labels,
            user_labels: &user_labels,
        };
        let cfg = GuidedConfig {
            base: base(2),
            ..Default::default()
        };
        let a = solve_guided(&input, &guidance, &cfg);
        let b = solve_guided(&input, &guidance, &cfg);
        assert_eq!(a.tweet_labels(), b.tweet_labels());
        assert_eq!(a.objective, b.objective);
    }
}
