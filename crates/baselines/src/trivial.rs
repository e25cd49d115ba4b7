//! Trivial reference baseline: lexicon voting.

use tgs_linalg::{CsrMatrix, DenseMatrix};

/// Lexicon-prior voting: scores each row of `x` by `x · Sf0` and takes
/// the argmax; rows with no lexicon evidence fall back to `fallback`.
/// This is the MPQA-style "lexicon-based approach" the ESSA paper
/// compares against.
pub fn lexicon_vote_rows(x: &CsrMatrix, sf0: &DenseMatrix, fallback: usize) -> Vec<usize> {
    assert_eq!(x.cols(), sf0.rows(), "Sf0 must cover the feature space");
    let k = sf0.cols();
    let uniform = 1.0 / k as f64;
    (0..x.rows())
        .map(|i| {
            let mut scores = vec![0.0f64; k];
            let mut evidence = false;
            for (f, v) in x.iter_row(i) {
                let row = sf0.row(f);
                // uniform prior rows carry no signal
                if row.iter().any(|&p| (p - uniform).abs() > 1e-9) {
                    evidence = true;
                    for (s, &p) in scores.iter_mut().zip(row.iter()) {
                        *s += v * (p - uniform);
                    }
                }
            }
            if !evidence {
                return fallback;
            }
            scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
                .map(|(c, _)| c)
                .unwrap_or(fallback)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicon_vote_scores_by_prior() {
        // feature 0 → class 0, feature 1 → class 1, feature 2 uniform
        let sf0 = DenseMatrix::from_vec(3, 2, vec![0.9, 0.1, 0.1, 0.9, 0.5, 0.5]).unwrap();
        let x = CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 1, 1.0), (2, 2, 5.0)]).unwrap();
        let labels = lexicon_vote_rows(&x, &sf0, 1);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[2], 1, "no evidence → fallback");
    }
}
