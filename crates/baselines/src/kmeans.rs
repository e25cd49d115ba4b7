//! Spherical k-means over sparse rows — a generic clustering baseline
//! and the workhorse inside ablations.

use rand::RngExt;
use tgs_linalg::{seeded_rng, CsrMatrix};

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for centroid initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 3,
            max_iters: 50,
            seed: 42,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster id per row.
    pub labels: Vec<usize>,
}

/// Spherical k-means (cosine similarity) on the rows of `x`. Empty rows
/// are assigned cluster 0. Deterministic in `config.seed`.
pub fn kmeans(x: &CsrMatrix, config: &KMeansConfig) -> KMeansResult {
    let (n, l) = x.shape();
    let k = config.k.max(1);
    assert!(n > 0, "need at least one row");
    let mut rng = seeded_rng(config.seed);
    // Init: k distinct random non-empty rows as centroids.
    let nonempty: Vec<usize> = (0..n).filter(|&i| x.iter_row(i).next().is_some()).collect();
    let mut centroids = vec![0.0f64; k * l];
    for c in 0..k {
        let row = if nonempty.is_empty() {
            0
        } else {
            nonempty[rng.random_range(0..nonempty.len())]
        };
        for (f, v) in x.iter_row(row) {
            centroids[c * l + f] = v;
        }
        normalize(&mut centroids[c * l..(c + 1) * l]);
    }
    let mut labels = vec![0usize; n];
    for _ in 0..config.max_iters {
        // Assign.
        let mut changed = false;
        for (i, label) in labels.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_sim = f64::NEG_INFINITY;
            for c in 0..k {
                let cent = &centroids[c * l..(c + 1) * l];
                let sim: f64 = x.iter_row(i).map(|(f, v)| v * cent[f]).sum();
                if sim > best_sim {
                    best_sim = sim;
                    best = c;
                }
            }
            if *label != best {
                *label = best;
                changed = true;
            }
        }
        // Update.
        centroids.iter_mut().for_each(|v| *v = 0.0);
        for (i, &label) in labels.iter().enumerate() {
            for (f, v) in x.iter_row(i) {
                centroids[label * l + f] += v;
            }
        }
        for c in 0..k {
            normalize(&mut centroids[c * l..(c + 1) * l]);
        }
        if !changed {
            break;
        }
    }
    KMeansResult { labels }
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|&x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted() -> (CsrMatrix, Vec<usize>) {
        let mut trip = Vec::new();
        let mut truth = Vec::new();
        for i in 0..30 {
            let c = i % 2;
            truth.push(c);
            trip.push((i, c * 3, 1.0));
            trip.push((i, c * 3 + 1, 0.5 + (i % 3) as f64 * 0.1));
        }
        (CsrMatrix::from_triplets(30, 6, &trip).unwrap(), truth)
    }

    #[test]
    fn separates_planted_clusters() {
        let (x, truth) = planted();
        let result = kmeans(
            &x,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        let acc = tgs_eval::clustering_accuracy(&result.labels, &truth);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, _) = planted();
        let a = kmeans(
            &x,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        let b = kmeans(
            &x,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn handles_empty_rows() {
        let x = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (2, 1, 1.0)]).unwrap();
        let result = kmeans(
            &x,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        assert_eq!(result.labels.len(), 3);
    }
}
