//! Accuracy-family metrics.

use crate::confusion::ConfusionMatrix;

/// Clustering accuracy as defined in the paper (§5):
/// `A(C, G) = (1/n)·Σ_{o∈C} max_{g∈G} |o ∩ g|` — each output cluster is
/// assigned its majority ground-truth label.
pub fn clustering_accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    if pred.is_empty() {
        return 0.0;
    }
    let cm = ConfusionMatrix::from_labels(pred, truth);
    let hit: usize = (0..cm.num_clusters())
        .map(|o| {
            (0..cm.num_classes())
                .map(|g| cm.count(o, g))
                .max()
                .unwrap_or(0)
        })
        .sum();
    hit as f64 / cm.total() as f64
}

/// Plain classification accuracy: fraction of exact label matches.
pub fn classification_accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "prediction/truth length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let hit = pred
        .iter()
        .zip(truth.iter())
        .filter(|(p, t)| p == t)
        .count();
    hit as f64 / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clustering_any_permutation() {
        // clusters are ground truth with permuted ids
        let truth = vec![0, 0, 1, 1, 2, 2];
        let pred = vec![2, 2, 0, 0, 1, 1];
        assert_eq!(clustering_accuracy(&pred, &truth), 1.0);
    }

    #[test]
    fn majority_vote_accuracy_value() {
        // cluster 0: {0,0,1} → majority 0 (2 hits); cluster 1: {1,1} → 2 hits
        let pred = vec![0, 0, 0, 1, 1];
        let truth = vec![0, 0, 1, 1, 1];
        assert!((clustering_accuracy(&pred, &truth) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_single_cluster() {
        let pred = vec![0, 0, 0, 0];
        let truth = vec![0, 0, 1, 1];
        assert!((clustering_accuracy(&pred, &truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn classification_accuracy_counts_exact_matches() {
        assert!((classification_accuracy(&[0, 1, 2], &[0, 1, 0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(classification_accuracy(&[], &[]), 0.0);
    }
}
