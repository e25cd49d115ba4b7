//! Multinomial Naive Bayes with Laplace smoothing — the paper's
//! supervised "NB" baseline (Go et al., distant supervision).

/// A trained multinomial Naive Bayes classifier over `l` count features
/// and `k` classes.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    /// `log P(class)`.
    log_prior: Vec<f64>,
    /// `log P(feature | class)`, row-major `k × l`.
    log_likelihood: Vec<f64>,
    num_features: usize,
}

impl NaiveBayes {
    /// Trains on encoded documents (feature-id multisets). Documents with
    /// `None` labels are ignored. `smoothing` is the Laplace α (1.0 is
    /// standard).
    pub fn train(
        docs: &[Vec<usize>],
        labels: &[Option<usize>],
        num_features: usize,
        k: usize,
        smoothing: f64,
    ) -> Self {
        assert_eq!(docs.len(), labels.len(), "one label slot per document");
        assert!(k >= 2, "need at least two classes");
        assert!(smoothing > 0.0, "smoothing must be positive");
        let mut class_counts = vec![0usize; k];
        let mut feature_counts = vec![0.0f64; k * num_features];
        let mut class_totals = vec![0.0f64; k];
        for (doc, label) in docs.iter().zip(labels.iter()) {
            let Some(c) = *label else { continue };
            assert!(c < k, "label {c} out of range");
            class_counts[c] += 1;
            for &f in doc {
                assert!(f < num_features, "feature {f} out of range");
                feature_counts[c * num_features + f] += 1.0;
                class_totals[c] += 1.0;
            }
        }
        let total_labeled: usize = class_counts.iter().sum();
        assert!(total_labeled > 0, "at least one labeled document required");
        let log_prior = class_counts
            .iter()
            .map(|&c| ((c as f64 + smoothing) / (total_labeled as f64 + smoothing * k as f64)).ln())
            .collect();
        let mut log_likelihood = vec![0.0; k * num_features];
        for c in 0..k {
            let denom = class_totals[c] + smoothing * num_features as f64;
            for f in 0..num_features {
                log_likelihood[c * num_features + f] =
                    ((feature_counts[c * num_features + f] + smoothing) / denom).ln();
            }
        }
        Self {
            log_prior,
            log_likelihood,
            num_features,
        }
    }

    /// Log-posterior (up to a constant) of each class for a document.
    pub(crate) fn scores(&self, doc: &[usize]) -> Vec<f64> {
        let mut s = self.log_prior.clone();
        for &f in doc {
            if f < self.num_features {
                for (c, sc) in s.iter_mut().enumerate() {
                    *sc += self.log_likelihood[c * self.num_features + f];
                }
            }
        }
        s
    }

    /// Most likely class.
    pub(crate) fn predict(&self, doc: &[usize]) -> usize {
        let s = self.scores(doc);
        s.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Predicts every document.
    pub fn predict_all(&self, docs: &[Vec<usize>]) -> Vec<usize> {
        docs.iter().map(|d| self.predict(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clearly separated classes: class 0 uses features {0,1},
    /// class 1 uses {2,3}.
    fn toy() -> (Vec<Vec<usize>>, Vec<Option<usize>>) {
        let docs = vec![
            vec![0, 1, 0],
            vec![1, 1],
            vec![2, 3],
            vec![3, 3, 2],
            vec![0, 2], // ambiguous, unlabeled
        ];
        let labels = vec![Some(0), Some(0), Some(1), Some(1), None];
        (docs, labels)
    }

    #[test]
    fn learns_separable_classes() {
        let (docs, labels) = toy();
        let nb = NaiveBayes::train(&docs, &labels, 4, 2, 1.0);
        assert_eq!(nb.predict(&[0, 1]), 0);
        assert_eq!(nb.predict(&[2, 3, 3]), 1);
    }

    #[test]
    fn unlabeled_docs_ignored_in_training() {
        let (docs, labels) = toy();
        let a = NaiveBayes::train(&docs, &labels, 4, 2, 1.0);
        let b = NaiveBayes::train(&docs[..4], &labels[..4], 4, 2, 1.0);
        for d in &docs {
            assert_eq!(a.predict(d), b.predict(d));
        }
    }

    #[test]
    fn empty_doc_falls_back_to_prior() {
        let docs = vec![vec![0], vec![0], vec![1]];
        let labels = vec![Some(0), Some(0), Some(1)];
        let nb = NaiveBayes::train(&docs, &labels, 2, 2, 1.0);
        // class 0 has the larger prior
        assert_eq!(nb.predict(&[]), 0);
    }

    #[test]
    fn oov_features_ignored_at_predict_time() {
        let (docs, labels) = toy();
        let nb = NaiveBayes::train(&docs, &labels, 4, 2, 1.0);
        assert_eq!(nb.predict(&[0, 1, 99]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one labeled document required")]
    fn requires_labels() {
        NaiveBayes::train(&[vec![0]], &[None], 1, 2, 1.0);
    }
}
