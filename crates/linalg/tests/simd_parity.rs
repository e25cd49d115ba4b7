//! SIMD-dispatch parity proptests: every dispatched kernel must produce
//! **bit-identical** results (`==`, not approximately) under the scalar
//! tier and under the best detected tier, across random shapes —
//! including widths that are not a multiple of the 4×f64 AVX2 lane
//! count (tails) and the ranks the solvers actually use (`k ∈ {2, 3,
//! 10}`, plus odd widths).
//!
//! The override is thread-local and the dispatch decision is made on
//! the calling thread, so these tests are safe under libtest's parallel
//! harness. On machines without AVX2 both runs take the scalar path and
//! the assertions hold trivially.

use proptest::prelude::*;
use tgs_linalg::{
    mult_update, mult_update_from_parts, set_simd_tier_override, split_pos_neg, split_pos_neg_into,
    CsrMatrix, DenseMatrix, SimdTier,
};

/// Runs `body` once forced to the scalar tier and once under the
/// detected tier, returning both results.
fn both_tiers<R>(mut body: impl FnMut() -> R) -> (R, R) {
    let prev = set_simd_tier_override(Some(SimdTier::Scalar));
    let scalar = body();
    set_simd_tier_override(None);
    let dispatched = body();
    set_simd_tier_override(prev);
    (scalar, dispatched)
}

/// Strategy: a dense matrix with entries in [-8, 8] (signed exercises
/// the zero-skip and split branches too).
fn dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-8.0..8.0f64, rows * cols)
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: non-negative dense matrix (factor-shaped).
fn factor(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(0.0..8.0f64, rows * cols)
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: sparse matrix from up to `max_nnz` random triplets.
fn sparse(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec((0..rows, 0..cols, 0.1..5.0f64), 0..max_nnz)
        .prop_map(move |trip| CsrMatrix::from_triplets(rows, cols, &trip).unwrap())
}

/// Shapes that cover lane tails: widths 1..=11 hit every residue mod 4,
/// and the row counts keep odd remainders against internal chunking.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..23, 1usize..12)
}

/// The solver ranks: the paper's 2 and 3 plus the scaling rank 10.
fn solver_k() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(3usize), Just(10usize)]
}

proptest! {
    #[test]
    fn matmul_into_parity((m, k) in shape(), w in 1usize..11, seed in 0u64..1_000_000_000) {
        let a = dense_from_seed(m, k, seed);
        let b = dense_from_seed(k, w, seed ^ 1);
        let (s, v) = both_tiers(|| {
            let mut out = DenseMatrix::default();
            a.matmul_into(&b, &mut out);
            out
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn gram_into_parity((m, k) in shape()) {
        let a = dense_from_seed(m, k, 7);
        let (s, v) = both_tiers(|| {
            let mut out = DenseMatrix::default();
            a.gram_into(&mut out);
            out
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn transpose_matmul_into_parity((m, k) in shape(), w in 1usize..11) {
        let a = dense_from_seed(m, k, 11);
        let b = dense_from_seed(m, w, 13);
        let (s, v) = both_tiers(|| {
            let mut out = DenseMatrix::default();
            a.transpose_matmul_into(&b, &mut out);
            out
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn transpose_matmul_pair_parity((m, k) in shape(), w in 1usize..11) {
        let a = dense_from_seed(m, k, 17);
        let x = dense_from_seed(m, w, 19);
        let y = dense_from_seed(m, w, 23);
        let (s, v) = both_tiers(|| {
            let mut ox = DenseMatrix::default();
            let mut oy = DenseMatrix::default();
            a.transpose_matmul_pair_into(&x, &y, &mut ox, &mut oy);
            (ox, oy)
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn matmul_transpose_into_parity((m, k) in shape(), w in 1usize..11) {
        let a = dense_from_seed(m, k, 29);
        let b = dense_from_seed(w, k, 31);
        let (s, v) = both_tiers(|| {
            let mut out = DenseMatrix::default();
            a.matmul_transpose_into(&b, &mut out);
            out
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn elementwise_assign_parity(a in dense(5, 7), b in dense(5, 7), c in -3.0..3.0f64) {
        let (s, v) = both_tiers(|| {
            let mut add = a.clone();
            add.add_assign(&b);
            let mut sub = a.clone();
            sub.sub_assign(&b);
            let mut sub_scaled = a.clone();
            sub_scaled.sub_scaled_assign(c, &b);
            let mut axpy = a.clone();
            axpy.axpy(c, &b);
            let mut scaled = a.clone();
            scaled.scale_assign(c);
            (add, sub, sub_scaled, axpy, scaled)
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn split_pos_neg_into_parity(d in dense(6, 9)) {
        let (s, v) = both_tiers(|| {
            let mut pos = DenseMatrix::default();
            let mut neg = DenseMatrix::default();
            split_pos_neg_into(&d, &mut pos, &mut neg);
            (pos, neg)
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn mult_update_parity(num in factor(9, 5), den in factor(9, 5), s0 in factor(9, 5)) {
        let (s, v) = both_tiers(|| {
            let mut s = s0.clone();
            mult_update(&mut s, &num, &den);
            s
        });
        prop_assert_eq!(s, v);
    }

    #[test]
    fn spmm_parity(x in sparse(9, 13, 40), w in 1usize..11, seed in 0u64..1_000_000_000) {
        let d = dense_from_seed(13, w, seed);
        let dt = dense_from_seed(9, w, seed ^ 5);
        let (s, v) = both_tiers(|| {
            let mut out = DenseMatrix::default();
            x.mul_dense_into(&d, &mut out);
            let mut out_t = DenseMatrix::default();
            x.transpose_mul_dense_into(&dt, &mut out_t);
            (out, out_t)
        });
        prop_assert_eq!(s, v);
    }

    // The fused update at the solver ranks (k in {3, 10} hits the
    // monomorphized bodies and their lane tails, k = 2 the runtime-width
    // body), with the fused gram output compared too.
    #[test]
    fn mult_update_from_parts_parity(
        k in solver_k(),
        rows in 1usize..33,
        beta in 0.0..2.0f64,
        gamma in 0.0..2.0f64,
        seed in 0u64..1_000_000_000,
    ) {
        let s0 = dense_from_seed(rows, k, seed) .map(f64::abs);
        let num_base = dense_from_seed(rows, k, seed ^ 2).map(f64::abs);
        let extra = dense_from_seed(rows, k, seed ^ 3).map(f64::abs);
        let delta = dense_from_seed(k, k, seed ^ 4);
        let (dp, dm) = split_pos_neg(&delta);
        let den_k = dense_from_seed(k, k, seed ^ 5).map(f64::abs).add(&dp);
        let deg: Vec<f64> = (0..rows).map(|i| (i % 5) as f64 * 0.4).collect();
        let (s, v) = both_tiers(|| {
            let mut s = s0.clone();
            let mut gram = DenseMatrix::default();
            mult_update_from_parts(
                &mut s,
                &num_base,
                None,
                &dm,
                &den_k,
                &[(beta, &extra)],
                Some((beta, &deg)),
                gamma,
                Some(&mut gram),
            );
            (s, gram)
        });
        prop_assert_eq!(&s, &v);
        // And the fused gram equals a post-hoc Gram, bit for bit.
        prop_assert_eq!(&s.1, &s.0.gram());
    }
}

/// Deterministic pseudo-random dense matrix (value diversity without
/// widening the proptest case space).
fn dense_from_seed(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed | 1;
    DenseMatrix::from_fn(rows, cols, |i, j| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((state >> 33) as f64) / (1u64 << 31) as f64; // [0, 2)
        let v = u - 1.0; // [-1, 1)
        v * (1.0 + ((i + j) % 7) as f64)
    })
}
