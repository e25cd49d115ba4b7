//! The factor matrices of the tri-factorization.

use tgs_linalg::{random_factor_with, seeded_rng, DenseMatrix};

/// The five factor matrices of Eq. (1):
/// `Xp ≈ Sp·Hp·Sfᵀ`, `Xu ≈ Su·Hu·Sfᵀ`, `Xr ≈ Su·Spᵀ`.
#[derive(Debug, Clone)]
pub struct TriFactors {
    /// Feature–cluster matrix (`l × k`).
    pub sf: DenseMatrix,
    /// Tweet–cluster matrix (`n × k`).
    pub sp: DenseMatrix,
    /// User–cluster matrix (`m × k`).
    pub su: DenseMatrix,
    /// Tweet-side association matrix (`k × k`).
    pub hp: DenseMatrix,
    /// User-side association matrix (`k × k`).
    pub hu: DenseMatrix,
}

/// How the factors are initialized before the multiplicative updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// All factors i.i.d. uniform positive (Algorithm 1 line 1 verbatim).
    Random,
    /// `Sf` starts at the lexicon prior `Sf0` (plus a small positive
    /// jitter); everything else random. Converges in fewer iterations and
    /// pins cluster columns to sentiment classes — the practical choice,
    /// and the way the paper uses the lexicon ("initialize the feature
    /// sentiment class matrix").
    #[default]
    LexiconSeeded,
}

impl TriFactors {
    /// Random non-negative initialization for the given problem sizes.
    pub fn random(n: usize, m: usize, l: usize, k: usize, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        Self {
            sf: random_factor_with(l, k, &mut rng),
            sp: random_factor_with(n, k, &mut rng),
            su: random_factor_with(m, k, &mut rng),
            hp: random_factor_with(k, k, &mut rng),
            hu: random_factor_with(k, k, &mut rng),
        }
    }

    /// Initialization per `strategy` (see [`InitStrategy`]).
    pub(crate) fn init(
        n: usize,
        m: usize,
        l: usize,
        k: usize,
        sf0: &DenseMatrix,
        strategy: InitStrategy,
        seed: u64,
    ) -> Self {
        assert_eq!(sf0.shape(), (l, k), "Sf0 must be l × k");
        let mut factors = Self::random(n, m, l, k, seed);
        if strategy == InitStrategy::LexiconSeeded {
            // Prior plus jitter: keeps entries strictly positive and breaks
            // ties among uniform rows.
            let mut rng = seeded_rng(seed.wrapping_add(0x5eed));
            let jitter = random_factor_with(l, k, &mut rng).scale(0.01);
            factors.sf = sf0.add(&jitter);
            // Identity-leaning association matrices align cluster columns
            // with sentiment classes from the start.
            factors.hp =
                DenseMatrix::identity(k).add(&random_factor_with(k, k, &mut rng).scale(0.1));
            factors.hu =
                DenseMatrix::identity(k).add(&random_factor_with(k, k, &mut rng).scale(0.1));
        }
        factors
    }

    /// Hard tweet labels: argmax of each `Sp` row.
    pub(crate) fn tweet_labels(&self) -> Vec<usize> {
        self.sp.argmax_rows()
    }

    /// Hard user labels: argmax of each `Su` row.
    pub(crate) fn user_labels(&self) -> Vec<usize> {
        self.su.argmax_rows()
    }

    /// Hard feature labels: argmax of each `Sf` row.
    pub fn feature_labels(&self) -> Vec<usize> {
        self.sf.argmax_rows()
    }

    /// True when every factor is element-wise non-negative and finite —
    /// the invariant multiplicative updates must preserve.
    pub fn all_nonnegative(&self) -> bool {
        self.sf.is_nonnegative()
            && self.sp.is_nonnegative()
            && self.su.is_nonnegative()
            && self.hp.is_nonnegative()
            && self.hu.is_nonnegative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_init_shapes_and_positivity() {
        let f = TriFactors::random(5, 4, 6, 3, 1);
        assert_eq!(f.sp.shape(), (5, 3));
        assert_eq!(f.su.shape(), (4, 3));
        assert_eq!(f.sf.shape(), (6, 3));
        assert_eq!(f.hp.shape(), (3, 3));
        assert_eq!(f.hu.shape(), (3, 3));
        assert!(f.all_nonnegative());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = TriFactors::random(5, 4, 6, 3, 9);
        let b = TriFactors::random(5, 4, 6, 3, 9);
        assert_eq!(a.sp, b.sp);
        assert_eq!(a.hu, b.hu);
    }

    #[test]
    fn lexicon_seeded_starts_near_prior() {
        let sf0 = DenseMatrix::from_fn(6, 3, |i, j| if i % 3 == j { 0.8 } else { 0.1 });
        let f = TriFactors::init(5, 4, 6, 3, &sf0, InitStrategy::LexiconSeeded, 7);
        assert!(f.sf.sub(&sf0).max_abs() < 0.02);
        assert!(f.all_nonnegative());
        // hp close to identity
        assert!(f.hp.get(0, 0) > f.hp.get(0, 1));
    }

    #[test]
    fn labels_are_argmax() {
        let mut f = TriFactors::random(2, 2, 2, 2, 3);
        f.sp = DenseMatrix::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        assert_eq!(f.tweet_labels(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "Sf0 must be l × k")]
    fn init_rejects_bad_prior_shape() {
        let sf0 = DenseMatrix::zeros(5, 3);
        TriFactors::init(5, 4, 6, 3, &sf0, InitStrategy::LexiconSeeded, 7);
    }
}
