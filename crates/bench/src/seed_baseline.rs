//! Frozen snapshot of the seed (pre-workspace) solver iteration, kept as
//! the perf baseline for `benches/solvers.rs`.
//!
//! This module reproduces, verbatim in structure, the implementation the
//! repository shipped with before the fused `UpdateWorkspace` engine:
//! serial dense kernels, allocating `add`/`sub`/`matmul` chains in every
//! update rule, scatter-order transposed SpMM, and a from-scratch
//! objective evaluation per iteration. It exists so the benchmark
//! baseline stays **frozen**: future kernel improvements in `tgs-linalg`
//! automatically speed up the live solver but must never silently speed
//! up the baseline, or the recorded perf trajectory would understate
//! every PR. Do not "fix" or optimize anything here.

use tgs_core::{TriFactors, TriInput};
use tgs_linalg::{laplacian_quad, mult_update, split_pos_neg, CsrMatrix, DenseMatrix};

/// Seed dense `a · b` (serial i-k-j loop, fresh allocation).
fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "seed matmul shape mismatch");
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            let out_row = out.row_mut(i);
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Seed Gram `aᵀ · a` (serial upper triangle + mirror).
#[allow(clippy::needless_range_loop)] // triangular indexing, kept as the seed wrote it
fn gram(a: &DenseMatrix) -> DenseMatrix {
    let k = a.cols();
    let mut out = DenseMatrix::zeros(k, k);
    for i in 0..a.rows() {
        let row = a.row(i);
        for p in 0..k {
            let rp = row[p];
            if rp == 0.0 {
                continue;
            }
            for q in p..k {
                let v = out.get(p, q) + rp * row[q];
                out.set(p, q, v);
            }
        }
    }
    for p in 0..k {
        for q in (p + 1)..k {
            let v = out.get(p, q);
            out.set(q, p, v);
        }
    }
    out
}

/// Seed `aᵀ · b` (serial, no transpose materialization).
fn transpose_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.rows(), b.rows(), "seed transpose_matmul shape mismatch");
    let mut out = DenseMatrix::zeros(a.cols(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let b_row = b.row(i);
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = out.row_mut(p);
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Seed `a · bᵀ` (serial dot per output element).
fn matmul_transpose(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.cols(), "seed matmul_transpose shape mismatch");
    let mut out = DenseMatrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for j in 0..b.rows() {
            out.set(i, j, tgs_linalg::dot(a_row, b.row(j)));
        }
    }
    out
}

/// Seed sparse × dense (row-major accumulate; the seed wired its row
/// parallelism into this kernel, reproduced here through the same
/// dispatch so multi-core baselines stay faithful).
fn mul_dense(x: &CsrMatrix, d: &DenseMatrix) -> DenseMatrix {
    let k = d.cols();
    let mut out = DenseMatrix::zeros(x.rows(), k);
    tgs_linalg::parallel::for_each_row_chunk(
        x.rows(),
        x.nnz() * k,
        out.as_mut_slice(),
        k,
        |r0, chunk| {
            for (local, out_row) in chunk.chunks_exact_mut(k.max(1)).enumerate() {
                for (c, v) in x.iter_row(r0 + local) {
                    for (o, &dv) in out_row.iter_mut().zip(d.row(c).iter()) {
                        *o += v * dv;
                    }
                }
            }
        },
    );
    out
}

/// Seed transposed sparse × dense: serial scatter over stored entries.
fn transpose_mul_dense(x: &CsrMatrix, d: &DenseMatrix) -> DenseMatrix {
    let k = d.cols();
    let mut out = DenseMatrix::zeros(x.cols(), k);
    for r in 0..x.rows() {
        let d_row = d.row(r);
        for (c, v) in x.iter_row(r) {
            let out_row = out.row_mut(c);
            for (o, &dv) in out_row.iter_mut().zip(d_row.iter()) {
                *o += v * dv;
            }
        }
    }
    out
}

/// Seed `row_scale`: clones, then scales in place.
fn row_scale(m: &DenseMatrix, scale: &[f64]) -> DenseMatrix {
    let mut out = m.clone();
    for (i, &s) in scale.iter().enumerate() {
        for v in out.row_mut(i) {
            *v *= s;
        }
    }
    out
}

/// Seed Eq. (9): `Sp` update.
pub(crate) fn update_sp(input: &TriInput<'_>, f: &mut TriFactors) {
    let a = matmul_transpose(&mul_dense(input.xp, &f.sf), &f.hp);
    let c = transpose_mul_dense(input.xr, &f.su);
    let hp_sfsf_hp = matmul_transpose(&matmul(&f.hp, &gram(&f.sf)), &f.hp);
    let su_gram = gram(&f.su);
    let delta = transpose_matmul(&f.sp, &a)
        .add(&transpose_matmul(&f.sp, &c))
        .sub(&hp_sfsf_hp)
        .sub(&su_gram);
    let (dp, dm) = split_pos_neg(&delta);
    let num = a.add(&c).add(&matmul(&f.sp, &dm));
    let den = matmul(&f.sp, &hp_sfsf_hp.add(&su_gram).add(&dp));
    mult_update(&mut f.sp, &num, &den);
}

/// Seed Eq. (12): `Hp` update.
pub(crate) fn update_hp(input: &TriInput<'_>, f: &mut TriFactors) {
    let xp_sf = mul_dense(input.xp, &f.sf);
    let num = transpose_matmul(&f.sp, &xp_sf);
    let den = matmul(&matmul(&gram(&f.sp), &f.hp), &gram(&f.sf));
    mult_update(&mut f.hp, &num, &den);
}

/// Seed Eq. (13): `Hu` update.
pub(crate) fn update_hu(input: &TriInput<'_>, f: &mut TriFactors) {
    let xu_sf = mul_dense(input.xu, &f.sf);
    let num = transpose_matmul(&f.su, &xu_sf);
    let den = matmul(&matmul(&gram(&f.su), &f.hu), &gram(&f.sf));
    mult_update(&mut f.hu, &num, &den);
}

/// Seed Eq. (11): offline `Su` update.
pub(crate) fn update_su_offline(input: &TriInput<'_>, f: &mut TriFactors, beta: f64) {
    let b = matmul_transpose(&mul_dense(input.xu, &f.sf), &f.hu);
    let d = mul_dense(input.xr, &f.sp);
    let gu_su = mul_dense(input.graph.adjacency(), &f.su);
    let du_su = row_scale(&f.su, input.graph.degrees());
    let lu_su = du_su.sub(&gu_su);
    let hu_sfsf_hu = matmul_transpose(&matmul(&f.hu, &gram(&f.sf)), &f.hu);
    let sp_gram = gram(&f.sp);
    let delta = transpose_matmul(&f.su, &b)
        .add(&transpose_matmul(&f.su, &d))
        .sub(&hu_sfsf_hu)
        .sub(&sp_gram)
        .sub(&transpose_matmul(&f.su, &lu_su).scale(beta));
    let (dp, dm) = split_pos_neg(&delta);
    let mut num = b.add(&d).add(&matmul(&f.su, &dm));
    num.axpy(beta, &gu_su);
    let mut den = matmul(&f.su, &hu_sfsf_hu.add(&sp_gram).add(&dp));
    den.axpy(beta, &du_su);
    mult_update(&mut f.su, &num, &den);
}

/// Seed Eq. (7): `Sf` update.
pub(crate) fn update_sf(
    input: &TriInput<'_>,
    f: &mut TriFactors,
    alpha: f64,
    sf_target: &DenseMatrix,
) {
    let xu_su_hu = matmul(&transpose_mul_dense(input.xu, &f.su), &f.hu);
    let xp_sp_hp = matmul(&transpose_mul_dense(input.xp, &f.sp), &f.hp);
    let hu_susu_hu = matmul(&matmul(&f.hu.transpose(), &gram(&f.su)), &f.hu);
    let hp_spsp_hp = matmul(&matmul(&f.hp.transpose(), &gram(&f.sp)), &f.hp);
    let delta = transpose_matmul(&f.sf, &xu_su_hu)
        .add(&transpose_matmul(&f.sf, &xp_sp_hp))
        .sub(&hu_susu_hu)
        .sub(&hp_spsp_hp)
        .sub(&transpose_matmul(&f.sf, &f.sf.sub(sf_target)).scale(alpha));
    let (dp, dm) = split_pos_neg(&delta);
    let mut num = xu_su_hu.add(&xp_sp_hp).add(&matmul(&f.sf, &dm));
    num.axpy(alpha, sf_target);
    let mut den = matmul(&f.sf, &hu_susu_hu.add(&hp_spsp_hp).add(&dp));
    den.axpy(alpha, &f.sf);
    mult_update(&mut f.sf, &num, &den);
}

/// Seed objective evaluation (Eq. 1): from scratch, per call.
pub(crate) fn offline_objective(
    input: &TriInput<'_>,
    f: &TriFactors,
    alpha: f64,
    beta: f64,
) -> f64 {
    let approx_bi = |x: &CsrMatrix, a: &DenseMatrix, b: &DenseMatrix| -> f64 {
        let x_sq = x.frobenius_sq();
        let cross = x.inner_with_factored(a, b);
        let fit = gram(a).frobenius_inner(&gram(b));
        (x_sq - 2.0 * cross + fit).max(0.0)
    };
    let tweet = approx_bi(input.xp, &matmul(&f.sp, &f.hp), &f.sf);
    let user = approx_bi(input.xu, &matmul(&f.su, &f.hu), &f.sf);
    let retweet = approx_bi(input.xr, &f.su, &f.sp);
    let lexicon = alpha * f.sf.sub(input.sf0).frobenius_sq();
    let graph = beta * laplacian_quad(input.graph.adjacency(), input.graph.degrees(), &f.su);
    tweet + user + retweet + lexicon + graph
}

/// One full seed solver iteration: the five rules in Algorithm 1 order
/// plus the from-scratch objective evaluation.
pub fn iteration(input: &TriInput<'_>, f: &mut TriFactors, alpha: f64, beta: f64) -> f64 {
    update_sp(input, f);
    update_hp(input, f);
    update_su_offline(input, f, beta);
    update_hu(input, f);
    update_sf(input, f, alpha, input.sf0);
    offline_objective(input, f, alpha, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use tgs_graph::UserGraph;
    use tgs_linalg::{seeded_rng, CsrMatrix};

    /// The frozen baseline must agree with the live reference rules — it
    /// is the same algorithm; only kernel scheduling/allocation differ.
    #[test]
    fn baseline_matches_live_rules() {
        let mut rng = seeded_rng(3);
        let (n, m, l, k) = (15, 6, 12, 3);
        let rand_csr = |rows: usize, cols: usize, nnz: usize, rng: &mut rand::rngs::StdRng| {
            let trip: Vec<(usize, usize, f64)> = (0..nnz)
                .map(|_| {
                    (
                        rng.random_range(0..rows),
                        rng.random_range(0..cols),
                        rng.random_range(0.2..2.0),
                    )
                })
                .collect();
            CsrMatrix::from_triplets(rows, cols, &trip).unwrap()
        };
        let xp = rand_csr(n, l, 70, &mut rng);
        let xu = rand_csr(m, l, 40, &mut rng);
        let xr = rand_csr(m, n, 25, &mut rng);
        let graph = UserGraph::from_edges(m, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let sf0 = DenseMatrix::filled(l, k, 1.0 / k as f64);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let mut frozen = TriFactors::random(n, m, l, k, 9);
        let mut live = frozen.clone();
        for _ in 0..3 {
            let obj_frozen = iteration(&input, &mut frozen, 0.1, 0.4);
            tgs_core::updates::update_sp(&input, &mut live);
            tgs_core::updates::update_hp(&input, &mut live);
            tgs_core::updates::update_su_offline(&input, &mut live, 0.4);
            tgs_core::updates::update_hu(&input, &mut live);
            tgs_core::updates::update_sf(&input, &mut live, 0.1, &sf0);
            let obj_live = tgs_core::offline_objective(&input, &live, 0.1, 0.4).total();
            assert!(frozen.sp.max_abs_diff(&live.sp) < 1e-9, "Sp diverged");
            assert!(frozen.su.max_abs_diff(&live.su) < 1e-9, "Su diverged");
            assert!(frozen.sf.max_abs_diff(&live.sf) < 1e-9, "Sf diverged");
            assert!(
                (obj_frozen - obj_live).abs() <= 1e-9 * (1.0 + obj_live.abs()),
                "objective diverged: {obj_frozen} vs {obj_live}"
            );
        }
    }
}
