//! Zipf-distributed sampling.
//!
//! Word frequencies and user activity in social media follow heavy-tailed
//! (approximately Zipfian) distributions; this sampler backs both.

use rand::Rng;
use rand::RngExt;

/// A Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = r) ∝ 1/(r+1)^s`. Sampling is O(log n) via an inverse-CDF
/// binary search on a precomputed table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution. Panics for `n == 0` or non-finite `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `r`.
    pub(crate) fn pmf(&self, r: usize) -> f64 {
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_linalg::seeded_rng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.1);
        let total: f64 = (0..50).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_ranks_more_likely() {
        let z = Zipf::new(10, 1.0);
        for r in 1..10 {
            assert!(z.pmf(r - 1) > z.pmf(r));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_in_range_and_head_heavy() {
        let z = Zipf::new(100, 1.2);
        let mut rng = seeded_rng(7);
        let mut head = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            let r = z.sample(&mut rng);
            assert!(r < 100);
            if r < 10 {
                head += 1;
            }
        }
        // With s=1.2 the top-10 ranks carry well over half the mass.
        assert!(head > N / 2, "head draws: {head}");
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(20, 1.0);
        let a: Vec<usize> = {
            let mut rng = seeded_rng(42);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = seeded_rng(42);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
