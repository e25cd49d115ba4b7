//! Linear one-vs-rest SVM trained with Pegasos SGD — the paper's
//! supervised "SVM" baseline (Smith et al. use an off-the-shelf SVM on
//! tf-idf features; this is a from-scratch equivalent).

use rand::RngExt;
use tgs_linalg::{seeded_rng, CsrMatrix};

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// Regularization strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of SGD epochs over the labeled set.
    pub epochs: usize,
    /// RNG seed for sampling order.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-4,
            epochs: 12,
            seed: 42,
        }
    }
}

/// A trained linear one-vs-rest SVM.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    /// Row-major `k × l` weight matrix.
    weights: Vec<f64>,
    /// Per-class bias.
    bias: Vec<f64>,
    num_features: usize,
}

impl LinearSvm {
    /// Trains on sparse feature rows; documents with `None` labels are
    /// ignored.
    pub fn train(x: &CsrMatrix, labels: &[Option<usize>], k: usize, config: &SvmConfig) -> Self {
        assert_eq!(x.rows(), labels.len(), "one label slot per row");
        assert!(k >= 2, "need at least two classes");
        let labeled: Vec<(usize, usize)> = labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|c| (i, c)))
            .collect();
        assert!(!labeled.is_empty(), "at least one labeled row required");
        for &(_, c) in &labeled {
            assert!(c < k, "label {c} out of range");
        }
        let l = x.cols();
        let mut weights = vec![0.0f64; k * l];
        let mut bias = vec![0.0f64; k];
        let mut rng = seeded_rng(config.seed);
        let mut t = 0usize;
        for _ in 0..config.epochs {
            for _ in 0..labeled.len() {
                t += 1;
                let (row, label) = labeled[rng.random_range(0..labeled.len())];
                let eta = 1.0 / (config.lambda * t as f64);
                let shrink = 1.0 - eta * config.lambda;
                for c in 0..k {
                    let y = if c == label { 1.0 } else { -1.0 };
                    let w = &mut weights[c * l..(c + 1) * l];
                    let mut margin = bias[c];
                    for (f, v) in x.iter_row(row) {
                        margin += w[f] * v;
                    }
                    margin *= y;
                    // Pegasos: shrink, then sub-gradient step on the
                    // support vectors only.
                    for wv in w.iter_mut() {
                        *wv *= shrink;
                    }
                    bias[c] *= shrink;
                    if margin < 1.0 {
                        for (f, v) in x.iter_row(row) {
                            w[f] += eta * y * v;
                        }
                        bias[c] += eta * y;
                    }
                }
            }
        }
        Self {
            weights,
            bias,
            num_features: l,
        }
    }

    /// Per-class decision values for row `row` of `x`.
    pub(crate) fn decision(&self, x: &CsrMatrix, row: usize) -> Vec<f64> {
        let mut s = self.bias.clone();
        for (f, v) in x.iter_row(row) {
            if f < self.num_features {
                for (c, sc) in s.iter_mut().enumerate() {
                    *sc += self.weights[c * self.num_features + f] * v;
                }
            }
        }
        s
    }

    /// Predicted class of row `row`.
    pub(crate) fn predict_row(&self, x: &CsrMatrix, row: usize) -> usize {
        self.decision(x, row)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite decisions"))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Predicts every row of `x`.
    pub fn predict_all(&self, x: &CsrMatrix) -> Vec<usize> {
        (0..x.rows()).map(|r| self.predict_row(x, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable data: class c has weight on feature c.
    fn toy(n_per_class: usize, k: usize) -> (CsrMatrix, Vec<Option<usize>>) {
        let mut trip = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for i in 0..n_per_class {
                let row = c * n_per_class + i;
                trip.push((row, c, 1.0 + (i % 3) as f64 * 0.1));
                trip.push((row, k + (i % 2), 0.3)); // shared noise feature
                labels.push(Some(c));
            }
        }
        (
            CsrMatrix::from_triplets(k * n_per_class, k + 2, &trip).unwrap(),
            labels,
        )
    }

    #[test]
    fn separable_training_data_classified() {
        let (x, labels) = toy(20, 3);
        let svm = LinearSvm::train(&x, &labels, 3, &SvmConfig::default());
        let pred = svm.predict_all(&x);
        let truth: Vec<usize> = labels.iter().map(|l| l.unwrap()).collect();
        let acc = tgs_eval::classification_accuracy(&pred, &truth);
        assert!(acc > 0.95, "training accuracy {acc}");
    }

    #[test]
    fn generalizes_to_unseen_rows() {
        let (x, mut labels) = toy(30, 2);
        // hide the last 10 labels of each class
        let truth: Vec<usize> = labels.iter().map(|l| l.unwrap()).collect();
        for c in 0..2 {
            for i in 20..30 {
                labels[c * 30 + i] = None;
            }
        }
        let svm = LinearSvm::train(&x, &labels, 2, &SvmConfig::default());
        let pred = svm.predict_all(&x);
        let acc = tgs_eval::classification_accuracy(&pred, &truth);
        assert!(acc > 0.9, "accuracy with held-out rows {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, labels) = toy(10, 2);
        let a = LinearSvm::train(&x, &labels, 2, &SvmConfig::default());
        let b = LinearSvm::train(&x, &labels, 2, &SvmConfig::default());
        assert_eq!(a.predict_all(&x), b.predict_all(&x));
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    #[should_panic(expected = "at least one labeled row required")]
    fn requires_labels() {
        let x = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0)]).unwrap();
        LinearSvm::train(&x, &[None], 2, &SvmConfig::default());
    }
}
