//! Graph-based semi-supervised label propagation — the paper's "LP-5" /
//! "LP-10" baselines (Goldberg & Zhu; Speriosu et al.; Tan et al.).

use tgs_linalg::{CsrMatrix, DenseMatrix};

/// Configuration of the propagation loop.
#[derive(Debug, Clone)]
pub struct LabelPropConfig {
    /// Maximum propagation sweeps.
    pub(crate) max_iters: usize,
    /// Convergence tolerance on the max label-distribution change.
    pub(crate) tol: f64,
    /// Clamp labeled nodes back to their seed distribution each sweep
    /// (standard LP; `false` gives label spreading behaviour).
    pub(crate) clamp_seeds: bool,
}

impl Default for LabelPropConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-6,
            clamp_seeds: true,
        }
    }
}

/// Propagates seed labels over a similarity graph.
///
/// `adjacency` is any non-negative similarity matrix (need not be
/// normalized — rows are normalized internally); `seeds[i]` is the known
/// class of node `i`. Returns the per-node label distributions.
pub(crate) fn propagate(
    adjacency: &CsrMatrix,
    seeds: &[Option<usize>],
    k: usize,
    config: &LabelPropConfig,
) -> DenseMatrix {
    assert_eq!(
        adjacency.rows(),
        adjacency.cols(),
        "adjacency must be square"
    );
    assert_eq!(adjacency.rows(), seeds.len(), "one seed slot per node");
    let n = seeds.len();
    // Row-normalized transition matrix.
    let row_sums = adjacency.row_sums();
    // Initial distributions: seeds one-hot, everything else uniform.
    let uniform = 1.0 / k as f64;
    let mut f = DenseMatrix::from_fn(n, k, |i, j| match seeds[i] {
        Some(c) => {
            if c == j {
                1.0
            } else {
                0.0
            }
        }
        None => uniform,
    });
    let seed_matrix = f.clone();
    for _ in 0..config.max_iters {
        // F ← P·F, computed row-wise from the unnormalized adjacency.
        let mut next = DenseMatrix::zeros(n, k);
        for (i, &row_sum) in row_sums.iter().enumerate() {
            if row_sum > 0.0 {
                let out = next.row_mut(i);
                for (j, w) in adjacency.iter_row(i) {
                    let fj = f.row(j);
                    for (o, &v) in out.iter_mut().zip(fj.iter()) {
                        *o += w * v;
                    }
                }
                for o in out.iter_mut() {
                    *o /= row_sum;
                }
            } else {
                // isolated node keeps its current distribution
                next.row_mut(i).copy_from_slice(f.row(i));
            }
        }
        if config.clamp_seeds {
            for (i, s) in seeds.iter().enumerate() {
                if s.is_some() {
                    next.copy_row_from(i, &seed_matrix, i);
                }
            }
        }
        let delta = next.max_abs_diff(&f);
        f = next;
        if delta < config.tol {
            break;
        }
    }
    f
}

/// Propagates and extracts hard labels; nodes that never received any
/// signal (isolated, unlabeled) fall back to the majority seed class.
pub fn propagate_labels(
    adjacency: &CsrMatrix,
    seeds: &[Option<usize>],
    k: usize,
    config: &LabelPropConfig,
) -> Vec<usize> {
    let f = propagate(adjacency, seeds, k, config);
    let majority = majority_seed(seeds, k);
    let uniform = 1.0 / k as f64;
    f.rows_iter()
        .map(|row| {
            let (best, bv) =
                row.iter()
                    .enumerate()
                    .fold((0usize, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    });
            // undecided (still uniform) → majority class
            if (bv - uniform).abs() < 1e-9 {
                majority
            } else {
                best
            }
        })
        .collect()
}

fn majority_seed(seeds: &[Option<usize>], k: usize) -> usize {
    let mut counts = vec![0usize; k];
    for s in seeds.iter().flatten() {
        counts[*s] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .map(|(c, _)| c)
        .unwrap_or(0)
}

/// Keeps only a deterministic fraction of the known labels (the "-5" /
/// "-10" in LP-5 / LP-10). Every ⌈1/fraction⌉-th labeled item is kept, so
/// the retained set is evenly spread and reproducible.
pub fn subsample_labels(labels: &[Option<usize>], fraction: f64) -> Vec<Option<usize>> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    if fraction >= 1.0 {
        return labels.to_vec();
    }
    let total = labels.iter().flatten().count();
    let keep = ((total as f64) * fraction).round() as usize;
    if keep == 0 {
        return vec![None; labels.len()];
    }
    let stride = (total as f64 / keep as f64).max(1.0);
    let mut out = vec![None; labels.len()];
    let mut labeled_idx = 0usize;
    let mut next_keep = 0.0f64;
    for (i, l) in labels.iter().enumerate() {
        if l.is_some() {
            if labeled_idx as f64 >= next_keep {
                out[i] = *l;
                next_keep += stride;
            }
            labeled_idx += 1;
        }
    }
    out
}

/// Builds a k-nearest-neighbour cosine-similarity graph over the rows of
/// a sparse feature matrix (used for tweet-level LP over "lexical
/// links"). Features appearing in more than `max_df_fraction` of the rows
/// are skipped — they connect everything to everything and drown the
/// signal (and the runtime).
pub fn knn_feature_graph(x: &CsrMatrix, neighbors: usize, max_df_fraction: f64) -> CsrMatrix {
    let n = x.rows();
    if n == 0 {
        return CsrMatrix::zeros(0, 0);
    }
    // Row norms for cosine normalization.
    let norms: Vec<f64> = (0..n)
        .map(|i| x.iter_row(i).map(|(_, v)| v * v).sum::<f64>().sqrt())
        .collect();
    // Inverted index, skipping ultra-common features.
    let max_df = ((n as f64) * max_df_fraction).max(1.0) as usize;
    let mut postings: Vec<Vec<(u32, f64)>> = vec![Vec::new(); x.cols()];
    for (i, j, v) in x.iter() {
        postings[j].push((i as u32, v));
    }
    let mut triplets = Vec::new();
    let mut scores: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for i in 0..n {
        scores.clear();
        for (j, v) in x.iter_row(i) {
            let plist = &postings[j];
            if plist.len() > max_df {
                continue;
            }
            for &(other, ov) in plist {
                if other as usize != i {
                    *scores.entry(other).or_insert(0.0) += v * ov;
                }
            }
        }
        let mut pairs: Vec<(u32, f64)> = scores
            .iter()
            .map(|(&other, &dot)| {
                let denom = norms[i] * norms[other as usize];
                (other, if denom > 0.0 { dot / denom } else { 0.0 })
            })
            .filter(|&(_, s)| s > 0.0)
            .collect();
        // Ties keep the lowest ids: `scores` iterates in hash order,
        // which differs between map instances.
        pairs.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite sims")
                .then(a.0.cmp(&b.0))
        });
        pairs.truncate(neighbors);
        for (other, s) in pairs {
            triplets.push((i, other as usize, s));
            triplets.push((other as usize, i, s)); // symmetrize
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("knn triplets in bounds")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles joined by one weak edge; node 0 labeled 0, node 5
    /// labeled 1.
    fn two_cliques() -> CsrMatrix {
        let edges = [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (3, 5, 1.0),
            (2, 3, 0.05),
        ];
        let mut trip = Vec::new();
        for &(a, b, w) in &edges {
            trip.push((a, b, w));
            trip.push((b, a, w));
        }
        CsrMatrix::from_triplets(6, 6, &trip).unwrap()
    }

    #[test]
    fn propagates_to_cluster_members() {
        let adj = two_cliques();
        let seeds = vec![Some(0), None, None, None, None, Some(1)];
        let labels = propagate_labels(&adj, &seeds, 2, &LabelPropConfig::default());
        assert_eq!(labels, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn isolated_unlabeled_nodes_get_majority() {
        let adj = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let seeds = vec![Some(1), None, None];
        let labels = propagate_labels(&adj, &seeds, 2, &LabelPropConfig::default());
        assert_eq!(labels[2], 1, "isolated node falls back to majority seed");
    }

    #[test]
    fn clamping_keeps_seed_labels() {
        let adj = two_cliques();
        let seeds = vec![Some(0), None, None, None, None, Some(1)];
        let f = propagate(&adj, &seeds, 2, &LabelPropConfig::default());
        assert!((f.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((f.get(5, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subsample_keeps_requested_fraction() {
        let labels: Vec<Option<usize>> = (0..100).map(|i| Some(i % 2)).collect();
        let sub = subsample_labels(&labels, 0.1);
        let kept = sub.iter().flatten().count();
        assert!((8..=12).contains(&kept), "kept {kept}");
        // deterministic
        assert_eq!(sub, subsample_labels(&labels, 0.1));
    }

    #[test]
    fn subsample_edge_cases() {
        let labels = vec![Some(0), None, Some(1)];
        assert_eq!(subsample_labels(&labels, 1.0), labels);
        assert_eq!(subsample_labels(&labels, 0.0), vec![None, None, None]);
    }

    #[test]
    fn knn_graph_connects_similar_rows() {
        // rows 0,1 share feature 0; row 2 uses feature 1 alone
        let x = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 0, 1.0), (2, 1, 1.0)]).unwrap();
        let g = knn_feature_graph(&x, 2, 1.0);
        assert!(g.get(0, 1) > 0.9);
        assert_eq!(g.get(0, 2), 0.0);
        assert_eq!(g.transpose(), g);
    }

    #[test]
    fn knn_graph_skips_common_features() {
        // feature 0 present in all rows → skipped with max_df 0.5
        let x = CsrMatrix::from_triplets(
            4,
            2,
            &[
                (0, 0, 1.0),
                (1, 0, 1.0),
                (2, 0, 1.0),
                (3, 0, 1.0),
                (0, 1, 1.0),
                (1, 1, 1.0),
            ],
        )
        .unwrap();
        let g = knn_feature_graph(&x, 3, 0.5);
        // only the feature-1 pair connects
        assert!(g.get(0, 1) > 0.0);
        assert_eq!(g.get(2, 3), 0.0);
    }

    #[test]
    fn knn_graph_breaks_similarity_ties_by_lowest_id() {
        // Twelve identical rows: every pair has cosine 1, so each row
        // keeps the two lowest other ids, and rows 3.. are picked by no
        // row but themselves.
        let triplets: Vec<(usize, usize, f64)> = (0..12).map(|i| (i, 0, 1.0)).collect();
        let x = CsrMatrix::from_triplets(12, 1, &triplets).unwrap();
        let bits = |g: &CsrMatrix| -> Vec<(usize, usize, u64)> {
            g.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
        };
        let g = knn_feature_graph(&x, 2, 1.0);
        for i in 3..12 {
            let kept: Vec<usize> = g.iter_row(i).map(|(j, _)| j).collect();
            assert_eq!(kept, vec![0, 1], "row {i}");
        }
        for _ in 0..20 {
            assert_eq!(bits(&knn_feature_graph(&x, 2, 1.0)), bits(&g));
        }
    }
}
