//! The multiplicative update rules (Eqs. 7, 9, 11, 12, 13 offline;
//! Eqs. 20–24, 26 online).
//!
//! Every rule has the form `S ← S ∘ sqrt(num / den)` where all terms of
//! `num` and `den` are non-negative by construction (the orthogonality
//! multiplier `Δ` is split as `Δ = Δ⁺ − Δ⁻`). The paper derives each rule
//! from an auxiliary MM function, which argues that the rule alone does
//! not increase the objective. The tests here check that one rule at a
//! time, and 30 full sweeps, on random 12 × 8 × 10 instances. At corpus
//! scale the full sweep is not monotone: the Fig. 8 binary (Prop 30,
//! small scale) prints a total of 678,158.3 at iteration 25 and 696,399.0
//! at iteration 40 before it falls again (ROADMAP item 3).

use tgs_linalg::{mult_update, split_pos_neg, DenseMatrix};

use crate::factors::TriFactors;
use crate::input::TriInput;

/// Balances freshly initialized factors against the data scales: `Sp`
/// absorbs `‖Xr‖` (via `Xr ≈ Su·Spᵀ`), then `Hp` absorbs `‖Xp‖` and `Hu`
/// absorbs `‖Xu‖`. Without this, a random init can reconstruct at 100×
/// the data norm and the square-root multiplicative updates overshoot
/// violently (transients of 1e200+ were observed) before recovering.
pub(crate) fn balance_init_scales(input: &TriInput<'_>, f: &mut TriFactors) {
    const EPS: f64 = 1e-12;
    let xr_norm = input.xr.frobenius_sq().sqrt();
    let rec = f.su.gram().frobenius_inner(&f.sp.gram()).max(0.0).sqrt();
    if xr_norm > EPS && rec > EPS {
        f.sp.scale_in_place(xr_norm / rec);
    }
    let xp_norm = input.xp.frobenius_sq().sqrt();
    let a = f.sp.matmul(&f.hp);
    let rec = a.gram().frobenius_inner(&f.sf.gram()).max(0.0).sqrt();
    if xp_norm > EPS && rec > EPS {
        f.hp.scale_in_place(xp_norm / rec);
    }
    let xu_norm = input.xu.frobenius_sq().sqrt();
    let b = f.su.matmul(&f.hu);
    let rec = b.gram().frobenius_inner(&f.sf.gram()).max(0.0).sqrt();
    if xu_norm > EPS && rec > EPS {
        f.hu.scale_in_place(xu_norm / rec);
    }
}

/// Writes `diag(scale)·M` into `out` (row `i` of `m` scaled by
/// `scale[i]`), reusing `out`'s allocation — no clone of the source.
fn row_scale_into(m: &DenseMatrix, scale: &[f64], out: &mut DenseMatrix) {
    assert_eq!(m.rows(), scale.len(), "row_scale length mismatch");
    let (rows, cols) = m.shape();
    out.resize_zeroed(rows, cols);
    let (mv, ov) = (m.as_slice(), out.as_mut_slice());
    for (i, &s) in scale.iter().enumerate() {
        for j in 0..cols {
            ov[i * cols + j] = mv[i * cols + j] * s;
        }
    }
}

/// Allocating convenience over [`row_scale_into`].
fn row_scale(m: &DenseMatrix, scale: &[f64]) -> DenseMatrix {
    let mut out = DenseMatrix::default();
    row_scale_into(m, scale, &mut out);
    out
}

/// Eq. (9) / Eq. (22): update of the tweet–cluster matrix `Sp`.
pub fn update_sp(input: &TriInput<'_>, f: &mut TriFactors) {
    // A = Xp·Sf·Hpᵀ (n × k), C = Xrᵀ·Su (n × k)
    let a = input.xp.mul_dense(&f.sf).matmul_transpose(&f.hp);
    let c = input.xr.transpose_mul_dense(&f.su);
    // k × k pieces
    let hp_sfsf_hp = f.hp.matmul(&f.sf.gram()).matmul_transpose(&f.hp);
    let su_gram = f.su.gram();
    // Δ_Sp = Spᵀ·A + Spᵀ·C − Hp·SfᵀSf·Hpᵀ − SuᵀSu
    let delta =
        f.sp.transpose_matmul(&a)
            .add(&f.sp.transpose_matmul(&c))
            .sub(&hp_sfsf_hp)
            .sub(&su_gram);
    let (dp, dm) = split_pos_neg(&delta);
    let num = a.add(&c).add(&f.sp.matmul(&dm));
    let den = f.sp.matmul(&hp_sfsf_hp.add(&su_gram).add(&dp));
    mult_update(&mut f.sp, &num, &den);
}

/// Eq. (12) / Eq. (21): update of the tweet-side association matrix `Hp`.
pub fn update_hp(input: &TriInput<'_>, f: &mut TriFactors) {
    let xp_sf = input.xp.mul_dense(&f.sf); // n × k
    let num = f.sp.transpose_matmul(&xp_sf); // k × k
    let den = f.sp.gram().matmul(&f.hp).matmul(&f.sf.gram());
    mult_update(&mut f.hp, &num, &den);
}

/// Eq. (13) / Eq. (20): update of the user-side association matrix `Hu`.
pub fn update_hu(input: &TriInput<'_>, f: &mut TriFactors) {
    let xu_sf = input.xu.mul_dense(&f.sf); // m × k
    let num = f.su.transpose_matmul(&xu_sf);
    let den = f.su.gram().matmul(&f.hu).matmul(&f.sf.gram());
    mult_update(&mut f.hu, &num, &den);
}

/// Eq. (7) offline (`sf_target = Sf0`) / Eq. (23) online
/// (`sf_target = Sfw(t)`): update of the feature–cluster matrix `Sf`.
pub fn update_sf(input: &TriInput<'_>, f: &mut TriFactors, alpha: f64, sf_target: &DenseMatrix) {
    // Xuᵀ·Su·Hu and Xpᵀ·Sp·Hp (both l × k)
    let xu_su_hu = input.xu.transpose_mul_dense(&f.su).matmul(&f.hu);
    let xp_sp_hp = input.xp.transpose_mul_dense(&f.sp).matmul(&f.hp);
    // k × k pieces
    let hu_susu_hu = f.hu.transpose().matmul(&f.su.gram()).matmul(&f.hu);
    let hp_spsp_hp = f.hp.transpose().matmul(&f.sp.gram()).matmul(&f.hp);
    // Δ_Sf = Sfᵀ(XuᵀSuHu) + Sfᵀ(XpᵀSpHp) − HuᵀSuᵀSuHu − HpᵀSpᵀSpHp
    //        − α·Sfᵀ(Sf − Sf*)
    let delta =
        f.sf.transpose_matmul(&xu_su_hu)
            .add(&f.sf.transpose_matmul(&xp_sp_hp))
            .sub(&hu_susu_hu)
            .sub(&hp_spsp_hp)
            .sub(&f.sf.transpose_matmul(&f.sf.sub(sf_target)).scale(alpha));
    let (dp, dm) = split_pos_neg(&delta);
    let mut num = xu_su_hu.add(&xp_sp_hp).add(&f.sf.matmul(&dm));
    num.axpy(alpha, sf_target);
    let mut den = f.sf.matmul(&hu_susu_hu.add(&hp_spsp_hp).add(&dp));
    den.axpy(alpha, &f.sf);
    mult_update(&mut f.sf, &num, &den);
}

/// Eq. (11): offline update of the user–cluster matrix `Su`.
pub fn update_su_offline(input: &TriInput<'_>, f: &mut TriFactors, beta: f64) {
    // B = Xu·Sf·Huᵀ, D = Xr·Sp (both m × k)
    let b = input.xu.mul_dense(&f.sf).matmul_transpose(&f.hu);
    let d = input.xr.mul_dense(&f.sp);
    let gu_su = input.graph.adjacency().mul_dense(&f.su);
    let du_su = row_scale(&f.su, input.graph.degrees());
    let lu_su = du_su.sub(&gu_su);
    // k × k pieces
    let hu_sfsf_hu = f.hu.matmul(&f.sf.gram()).matmul_transpose(&f.hu);
    let sp_gram = f.sp.gram();
    // Δ_Su = SuᵀB + SuᵀD − HuSfᵀSfHuᵀ − SpᵀSp − β·SuᵀLuSu
    let delta =
        f.su.transpose_matmul(&b)
            .add(&f.su.transpose_matmul(&d))
            .sub(&hu_sfsf_hu)
            .sub(&sp_gram)
            .sub(&f.su.transpose_matmul(&lu_su).scale(beta));
    let (dp, dm) = split_pos_neg(&delta);
    let mut num = b.add(&d).add(&f.su.matmul(&dm));
    num.axpy(beta, &gu_su);
    let mut den = f.su.matmul(&hu_sfsf_hu.add(&sp_gram).add(&dp));
    den.axpy(beta, &du_su);
    mult_update(&mut f.su, &num, &den);
}

/// Eqs. (24) + (26): online update of `Su`, partitioned into *new* users
/// (no temporal target) and *evolving* users (pulled toward their
/// `Suw(t)` row with weight `γ`).
///
/// `su_target.row(i)` is the aggregated history of local user row
/// `evolving_rows[i]`. Rows in neither list (if any) are treated as new.
pub(crate) fn update_su_online(
    input: &TriInput<'_>,
    f: &mut TriFactors,
    beta: f64,
    gamma: f64,
    new_rows: &[usize],
    evolving_rows: &[usize],
    su_target: &DenseMatrix,
) {
    assert_eq!(
        su_target.rows(),
        evolving_rows.len(),
        "one Suw row per evolving user required"
    );
    // Shared full-matrix products (rows are later sliced per block).
    let b = input.xu.mul_dense(&f.sf).matmul_transpose(&f.hu);
    let d = input.xr.mul_dense(&f.sp);
    let gu_su = input.graph.adjacency().mul_dense(&f.su);
    let du_su = row_scale(&f.su, input.graph.degrees());
    let lu_su = du_su.sub(&gu_su);
    let hu_sfsf_hu = f.hu.matmul(&f.sf.gram()).matmul_transpose(&f.hu);
    let sp_gram = f.sp.gram();
    let base_k = hu_sfsf_hu.add(&sp_gram);

    let mut update_block = |rows: &[usize], target: Option<&DenseMatrix>| {
        if rows.is_empty() {
            return;
        }
        let su_b = f.su.select_rows(rows);
        let b_b = b.select_rows(rows);
        let d_b = d.select_rows(rows);
        let gu_su_b = gu_su.select_rows(rows);
        let du_su_b = du_su.select_rows(rows);
        let lu_su_b = lu_su.select_rows(rows);
        // Δ_b per Eq. (24) / Eq. (26)
        let mut delta = su_b
            .transpose_matmul(&b_b)
            .add(&su_b.transpose_matmul(&d_b))
            .sub(&hu_sfsf_hu)
            .sub(&sp_gram)
            .sub(&su_b.transpose_matmul(&lu_su_b).scale(beta));
        if let Some(t) = target {
            delta = delta.sub(&su_b.transpose_matmul(&su_b.sub(t)).scale(gamma));
        }
        let (dp, dm) = split_pos_neg(&delta);
        let mut num = b_b.add(&d_b).add(&su_b.matmul(&dm));
        num.axpy(beta, &gu_su_b);
        let mut den = su_b.matmul(&base_k.add(&dp));
        den.axpy(beta, &du_su_b);
        if let Some(t) = target {
            num.axpy(gamma, t);
            den.axpy(gamma, &su_b);
        }
        let mut updated = su_b;
        mult_update(&mut updated, &num, &den);
        for (local, &row) in rows.iter().enumerate() {
            f.su.copy_row_from(row, &updated, local);
        }
    };

    update_block(new_rows, None);
    update_block(evolving_rows, Some(su_target));
}

/// Guided variant of Eq. (9): tweets split into *free* rows (plain
/// update) and *guided* rows pulled toward one-hot label targets with
/// weight `δ` — the semi-supervised "guided regularization" the paper's
/// conclusion proposes. Mirrors [`update_su_online`]'s block structure.
pub(crate) fn update_sp_guided(
    input: &TriInput<'_>,
    f: &mut TriFactors,
    delta: f64,
    free_rows: &[usize],
    guided_rows: &[usize],
    sp_target: &DenseMatrix,
) {
    assert_eq!(
        sp_target.rows(),
        guided_rows.len(),
        "one target row per guided tweet required"
    );
    let a = input.xp.mul_dense(&f.sf).matmul_transpose(&f.hp);
    let c = input.xr.transpose_mul_dense(&f.su);
    let hp_sfsf_hp = f.hp.matmul(&f.sf.gram()).matmul_transpose(&f.hp);
    let su_gram = f.su.gram();
    let base_k = hp_sfsf_hp.add(&su_gram);

    let mut update_block = |rows: &[usize], target: Option<&DenseMatrix>| {
        if rows.is_empty() {
            return;
        }
        let sp_b = f.sp.select_rows(rows);
        let a_b = a.select_rows(rows);
        let c_b = c.select_rows(rows);
        let mut delta_k = sp_b
            .transpose_matmul(&a_b)
            .add(&sp_b.transpose_matmul(&c_b))
            .sub(&hp_sfsf_hp)
            .sub(&su_gram);
        if let Some(t) = target {
            delta_k = delta_k.sub(&sp_b.transpose_matmul(&sp_b.sub(t)).scale(delta));
        }
        let (dp, dm) = split_pos_neg(&delta_k);
        let mut num = a_b.add(&c_b).add(&sp_b.matmul(&dm));
        let mut den = sp_b.matmul(&base_k.add(&dp));
        if let Some(t) = target {
            num.axpy(delta, t);
            den.axpy(delta, &sp_b);
        }
        let mut updated = sp_b;
        mult_update(&mut updated, &num, &den);
        for (local, &row) in rows.iter().enumerate() {
            f.sp.copy_row_from(row, &updated, local);
        }
    };

    update_block(free_rows, None);
    update_block(guided_rows, Some(sp_target));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::offline_objective;
    use rand::RngExt;
    use tgs_graph::UserGraph;
    use tgs_linalg::{seeded_rng, CsrMatrix};

    /// A small random-but-deterministic problem instance.
    fn instance(seed: u64) -> (CsrMatrix, CsrMatrix, CsrMatrix, UserGraph, DenseMatrix) {
        let mut rng = seeded_rng(seed);
        let (n, m, l) = (12, 8, 10);
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
        let xp = rand_csr(n, l, 60, &mut rng);
        let xu = rand_csr(m, l, 40, &mut rng);
        let xr = rand_csr(m, n, 30, &mut rng);
        let edges: Vec<(usize, usize, f64)> = (0..12)
            .map(|_| (rng.random_range(0..m), rng.random_range(0..m), 1.0))
            .filter(|&(a, b, _)| a != b)
            .collect();
        let graph = UserGraph::from_edges(m, &edges);
        let sf0 = DenseMatrix::filled(l, 3, 1.0 / 3.0);
        (xp, xu, xr, graph, sf0)
    }

    fn check_monotone(update: impl Fn(&TriInput<'_>, &mut TriFactors)) {
        for seed in 0..5u64 {
            let (xp, xu, xr, graph, sf0) = instance(seed);
            let input = TriInput {
                xp: &xp,
                xu: &xu,
                xr: &xr,
                graph: &graph,
                sf0: &sf0,
            };
            let mut f = TriFactors::random(12, 8, 10, 3, seed + 100);
            // A couple of warm-up sweeps so we're not at a wild random point.
            for _ in 0..2 {
                update_sp(&input, &mut f);
                update_hp(&input, &mut f);
                update_su_offline(&input, &mut f, 0.5);
                update_hu(&input, &mut f);
                update_sf(&input, &mut f, 0.1, &sf0);
            }
            let before = offline_objective(&input, &f, 0.1, 0.5).total();
            update(&input, &mut f);
            let after = offline_objective(&input, &f, 0.1, 0.5).total();
            assert!(
                after <= before * (1.0 + 1e-6) + 1e-9,
                "seed {seed}: objective rose {before} -> {after}"
            );
            assert!(f.all_nonnegative(), "seed {seed}: negativity introduced");
        }
    }

    #[test]
    fn sp_update_non_increasing() {
        check_monotone(update_sp);
    }

    #[test]
    fn hp_update_non_increasing() {
        check_monotone(update_hp);
    }

    #[test]
    fn hu_update_non_increasing() {
        check_monotone(update_hu);
    }

    #[test]
    fn su_update_non_increasing() {
        check_monotone(|input, f| update_su_offline(input, f, 0.5));
    }

    #[test]
    fn sf_update_non_increasing() {
        check_monotone(|input, f| update_sf(input, f, 0.1, input.sf0));
    }

    #[test]
    fn full_sweep_non_increasing_over_many_iters() {
        let (xp, xu, xr, graph, sf0) = instance(11);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let mut f = TriFactors::random(12, 8, 10, 3, 0);
        let mut prev = offline_objective(&input, &f, 0.05, 0.8).total();
        for it in 0..30 {
            update_sp(&input, &mut f);
            update_hp(&input, &mut f);
            update_su_offline(&input, &mut f, 0.8);
            update_hu(&input, &mut f);
            update_sf(&input, &mut f, 0.05, &sf0);
            let cur = offline_objective(&input, &f, 0.05, 0.8).total();
            assert!(
                cur <= prev * (1.0 + 1e-6) + 1e-9,
                "iter {it}: objective rose {prev} -> {cur}"
            );
            prev = cur;
        }
    }

    #[test]
    fn online_su_update_handles_blocks() {
        let (xp, xu, xr, graph, sf0) = instance(3);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let mut f = TriFactors::random(12, 8, 10, 3, 77);
        let new_rows = vec![0, 2, 4];
        let evolving_rows = vec![1, 3, 5, 6, 7];
        let target = DenseMatrix::filled(5, 3, 1.0 / 3.0);
        let before = f.su.clone();
        update_su_online(&input, &mut f, 0.5, 0.2, &new_rows, &evolving_rows, &target);
        assert!(f.su.is_nonnegative());
        // every row moved (updates are multiplicative with non-trivial ratios)
        assert!(f.su.max_abs_diff(&before) > 0.0);
    }

    #[test]
    fn online_su_with_gamma_pulls_towards_target() {
        let (xp, xu, xr, graph, sf0) = instance(5);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let evolving: Vec<usize> = (0..8).collect();
        // Strong target on class 0.
        let target = DenseMatrix::from_fn(8, 3, |_, j| if j == 0 { 1.0 } else { 1e-6 });
        let mut with_pull = TriFactors::random(12, 8, 10, 3, 4);
        let mut without = with_pull.clone();
        for _ in 0..20 {
            update_su_online(&input, &mut with_pull, 0.0, 1.0, &[], &evolving, &target);
            update_su_online(&input, &mut without, 0.0, 0.0, &[], &evolving, &target);
        }
        let dist_with: f64 = with_pull.su.sub(&target).frobenius_sq();
        let dist_without: f64 = without.su.sub(&target).frobenius_sq();
        assert!(
            dist_with < dist_without,
            "gamma should pull Su toward the target: {dist_with} vs {dist_without}"
        );
    }

    #[test]
    fn row_scale_scales_rows() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let s = row_scale(&m, &[2.0, 0.5]);
        assert_eq!(s.as_slice(), &[2.0, 4.0, 1.5, 2.0]);
    }
}
