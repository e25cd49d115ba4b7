//! Turning soft cluster memberships into sentiment labels.

use tgs_linalg::DenseMatrix;

/// Row-normalizes memberships into per-item class distributions
/// (probability view of `Sp`/`Su`).
fn membership_distribution(memberships: &DenseMatrix) -> DenseMatrix {
    let mut out = memberships.clone();
    out.normalize_rows_l1();
    out
}

/// Confidence of each hard label: the normalized mass of the winning
/// cluster (1/k = fully uncertain, 1.0 = fully confident).
pub fn label_confidence(memberships: &DenseMatrix) -> Vec<f64> {
    let dist = membership_distribution(memberships);
    dist.rows_iter()
        .map(|row| row.iter().fold(0.0_f64, |m, &v| m.max(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_rows_sum_to_one() {
        let m = DenseMatrix::from_vec(2, 2, vec![2.0, 2.0, 3.0, 1.0]).unwrap();
        let d = membership_distribution(&m);
        for i in 0..2 {
            let s: f64 = d.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn confidence_reflects_peakedness() {
        let m = DenseMatrix::from_vec(2, 2, vec![0.9, 0.1, 0.5, 0.5]).unwrap();
        let c = label_confidence(&m);
        assert!(c[0] > c[1]);
        assert!((c[1] - 0.5).abs() < 1e-12);
    }
}
