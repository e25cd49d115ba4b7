//! Normalized mutual information, as defined in §5 of the paper:
//! `NMI(C, G) = 2·I(C; G) / (H(C) + H(G))`.

use crate::confusion::ConfusionMatrix;

/// Shannon entropy (nats) of a labeling.
pub fn entropy(labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let k = labels.iter().copied().max().unwrap() + 1;
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

/// Mutual information (nats) between two labelings.
pub(crate) fn mutual_information(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "prediction/truth length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let cm = ConfusionMatrix::from_labels(pred, truth);
    let n = cm.total() as f64;
    let rows = cm.cluster_sizes();
    let cols = cm.class_sizes();
    let mut mi = 0.0;
    for (o, &row_size) in rows.iter().enumerate() {
        for (g, &col_size) in cols.iter().enumerate() {
            let joint = cm.count(o, g) as f64;
            if joint > 0.0 {
                let p_joint = joint / n;
                mi += p_joint * (n * joint / (row_size as f64 * col_size as f64)).ln();
            }
        }
    }
    mi.max(0.0)
}

/// Normalized mutual information in `[0, 1]`.
///
/// Degenerate cases: when both labelings are constant (zero entropy) they
/// are identical partitions → 1; when exactly one is constant → 0.
pub fn nmi(pred: &[usize], truth: &[usize]) -> f64 {
    let hc = entropy(pred);
    let hg = entropy(truth);
    if hc == 0.0 && hg == 0.0 {
        return 1.0;
    }
    if hc == 0.0 || hg == 0.0 {
        return 0.0;
    }
    (2.0 * mutual_information(pred, truth) / (hc + hg)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_uniform_two_classes() {
        let h = entropy(&[0, 1, 0, 1]);
        assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_constant_is_zero() {
        assert_eq!(entropy(&[1, 1, 1]), 0.0);
    }

    #[test]
    fn nmi_identical_partitions_is_one() {
        let labels = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi(&labels, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_permuted_partition_is_one() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![1, 1, 0, 0];
        assert!((nmi(&pred, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_independent_partitions_near_zero() {
        // pred splits orthogonally to truth
        let truth = vec![0, 0, 1, 1];
        let pred = vec![0, 1, 0, 1];
        assert!(nmi(&pred, &truth).abs() < 1e-12);
    }

    #[test]
    fn nmi_degenerate_cases() {
        assert_eq!(nmi(&[0, 0, 0], &[0, 1, 2]), 0.0);
        assert_eq!(nmi(&[0, 0], &[1, 1]), 1.0);
    }

    #[test]
    fn mi_nonnegative_and_bounded_by_entropies() {
        let pred = vec![0, 1, 1, 2, 0, 2, 1];
        let truth = vec![0, 0, 1, 1, 2, 2, 1];
        let mi = mutual_information(&pred, &truth);
        assert!(mi >= 0.0);
        assert!(mi <= entropy(&pred) + 1e-12);
        assert!(mi <= entropy(&truth) + 1e-12);
    }
}
