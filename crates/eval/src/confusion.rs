//! Contingency/confusion tables between two labelings.

/// A contingency table between predicted clusters (rows) and ground-truth
/// classes (columns). Works for both clustering output (arbitrary cluster
/// ids) and classification output (class-aligned ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
    total: usize,
}

impl ConfusionMatrix {
    /// Builds the table from parallel label slices.
    ///
    /// Panics when lengths differ. Label values are used as dense indices,
    /// so the table is `(max_pred + 1) × (max_truth + 1)`.
    pub(crate) fn from_labels(pred: &[usize], truth: &[usize]) -> Self {
        assert_eq!(pred.len(), truth.len(), "prediction/truth length mismatch");
        let rows = pred.iter().copied().max().map_or(0, |m| m + 1);
        let cols = truth.iter().copied().max().map_or(0, |m| m + 1);
        let mut counts = vec![vec![0usize; cols]; rows];
        for (&p, &t) in pred.iter().zip(truth.iter()) {
            counts[p][t] += 1;
        }
        Self {
            counts,
            total: pred.len(),
        }
    }

    /// Number of predicted clusters (rows).
    pub(crate) fn num_clusters(&self) -> usize {
        self.counts.len()
    }

    /// Number of ground-truth classes (columns).
    pub(crate) fn num_classes(&self) -> usize {
        self.counts.first().map_or(0, Vec::len)
    }

    /// Count of items in cluster `o` and class `g`.
    pub(crate) fn count(&self, o: usize, g: usize) -> usize {
        self.counts[o][g]
    }

    /// Total number of items.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Row (cluster) sizes.
    pub(crate) fn cluster_sizes(&self) -> Vec<usize> {
        self.counts.iter().map(|r| r.iter().sum()).collect()
    }

    /// Column (class) sizes.
    pub(crate) fn class_sizes(&self) -> Vec<usize> {
        let cols = self.num_classes();
        let mut out = vec![0usize; cols];
        for row in &self.counts {
            for (g, &c) in row.iter().enumerate() {
                out[g] += c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        let cm = ConfusionMatrix::from_labels(&[0, 0, 1, 1, 1], &[0, 1, 1, 1, 0]);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(1, 1), 2);
        assert_eq!(cm.count(1, 0), 1);
        assert_eq!(cm.total(), 5);
    }

    #[test]
    fn sizes() {
        let cm = ConfusionMatrix::from_labels(&[0, 0, 1], &[0, 1, 1]);
        assert_eq!(cm.cluster_sizes(), vec![2, 1]);
        assert_eq!(cm.class_sizes(), vec![1, 2]);
    }

    #[test]
    fn empty_input() {
        let cm = ConfusionMatrix::from_labels(&[], &[]);
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.num_clusters(), 0);
    }
}
