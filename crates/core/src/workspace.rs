//! The fused, allocation-free update engine.
//!
//! [`UpdateWorkspace`] is a scratch arena owned by the offline and online
//! solvers. It fixes the two structural costs of the naive per-rule
//! implementation in [`crate::updates`]:
//!
//! 1. **Redundant work.** A seed sweep recomputed `Xp·Sf` in both the
//!    `Sp` and `Hp` rules, `Xu·Sf` in both the `Su` and `Hu` rules,
//!    `Sfᵀ·Sf` in four rules, and walked CSR matrices in transposed
//!    (scatter) order every iteration. The workspace computes each shared
//!    product **once per sweep** at the moment the factors it depends on
//!    settle, and caches [`CscView`] transposes of `Xp`/`Xu`/`Xr` once
//!    per [`UpdateWorkspace::bind`] (once per window), turning every
//!    `Xᵀ·D` into a forward, row-parallel pass.
//! 2. **Allocation traffic.** Every `add`/`sub`/`matmul`/`split_pos_neg`
//!    in the update chains allocated a fresh matrix — dozens of
//!    `rows × k` heap allocations per iteration. All intermediates now
//!    live in reusable buffers, and the final `S ← S ∘ √(num/den)` runs
//!    through [`mult_update_from_parts`], which never materializes
//!    `num`/`den` at all. After the first sweep warms the buffers, a
//!    sweep performs **zero heap allocations** on the sequential path
//!    (parallel dispatch allocates only for thread bookkeeping) —
//!    enforced by `tests/alloc_free_sweep.rs`.
//!
//! Every fused rule reproduces the floating-point operation order of the
//! reference implementation exactly, so results are **bit-for-bit
//! identical** to [`crate::updates`] — property-tested in
//! `tests/proptests.rs` and relied on by the solvers, which now run all
//! sweeps through this engine.

use tgs_linalg::{
    laplacian_quad, mult_update, mult_update_from_parts, split_pos_neg_into, CscView, CsrMatrix,
    DenseMatrix,
};

use crate::factors::TriFactors;
use crate::input::TriInput;
use crate::objective::ObjectiveParts;

/// Scratch arena + per-window caches for the fused update sweeps.
///
/// Create once per solver, [`bind`](UpdateWorkspace::bind) whenever the
/// data matrices change (per offline solve / per online snapshot), then
/// run [`sweep_offline`](UpdateWorkspace::sweep_offline) or
/// [`sweep_online`](UpdateWorkspace::sweep_online) per iteration.
#[derive(Debug, Clone, Default)]
pub struct UpdateWorkspace {
    /// Cached transposes + fingerprints of `Xp` / `Xu` / `Xr`,
    /// incrementally refreshed by `bind` (unchanged matrices keep their
    /// cached transpose; changed ones rebuild into the existing
    /// allocations).
    xp_bind: Option<BoundMatrix>,
    xu_bind: Option<BoundMatrix>,
    xr_bind: Option<BoundMatrix>,

    // --- per-sweep shared products ---
    xp_sf: DenseMatrix, // n×k  Xp·Sf
    xu_sf: DenseMatrix, // m×k  Xu·Sf
    sf_gram: DenseMatrix,
    sp_gram: DenseMatrix,
    su_gram: DenseMatrix,

    // --- large scratch ---
    a: DenseMatrix,     // n×k
    c: DenseMatrix,     // n×k
    b: DenseMatrix,     // m×k
    d: DenseMatrix,     // m×k
    gu_su: DenseMatrix, // m×k
    lu_su: DenseMatrix, // m×k
    e1: DenseMatrix,    // l×k
    e2: DenseMatrix,    // l×k
    l_tmp: DenseMatrix, // l×k

    // --- online block scratch (capacity ≤ m×k) ---
    blk_su: DenseMatrix,
    blk_b: DenseMatrix,
    blk_d: DenseMatrix,
    blk_g: DenseMatrix,
    blk_lu: DenseMatrix,
    blk_tmp: DenseMatrix,
    blk_deg: Vec<f64>,
    base_k: DenseMatrix,

    // --- objective caches (see objective_offline / objective_online) ---
    obj_cross_p: DenseMatrix, // k×k, Spᵀ·(Xp·Sf) snapshot from rule_hp

    /// True when `sf_gram`/`su_gram`/`sp_gram` already hold the Gram of
    /// the *current* `Sf`/`Su`/`Sp` (set at the natural refresh points —
    /// since the gram-in-update fusion, usually inside
    /// [`mult_update_from_parts`] itself — consumed by the next sweep's
    /// warm-up to skip an identical recompute).
    sf_gram_fresh: bool,
    su_gram_fresh: bool,
    sp_gram_fresh: bool,

    // --- small k×k scratch ---
    delta: DenseMatrix,
    dp: DenseMatrix,
    dm: DenseMatrix,
    k1: DenseMatrix,
    k2: DenseMatrix,
    kt: DenseMatrix,
}

/// One bound data matrix: its cached transpose plus the identity of the
/// content it was built from.
#[derive(Debug, Clone)]
struct BoundMatrix {
    /// The cached `Xᵀ` view (forward, row-parallel products).
    xt: CscView,
    /// Shape of the bound matrix.
    shape: (usize, usize),
    /// Stored entries of the bound matrix.
    nnz: usize,
    /// [`CsrMatrix::content_fingerprint`] of the bound matrix — the full
    /// content hash, so a rebind against different same-shape data can
    /// never silently keep a stale transpose. `None` when the last bind
    /// skipped hashing because shape/nnz already proved the matrix
    /// changed (the common per-day case pays zero hashing).
    fingerprint: Option<u64>,
    /// `‖X‖²` — a constant of the bound window, recomputed from scratch
    /// by the reference objective on every call.
    frob_sq: f64,
}

impl BoundMatrix {
    /// Incrementally binds `x` into `slot`: an unchanged matrix (same
    /// shape, nnz and content fingerprint) keeps its cached transpose, a
    /// changed one rebuilds **into the existing allocations**
    /// ([`CscView::rebind`]), and only a first bind allocates. This is
    /// the amortized-rebind path of the online solvers: a window
    /// shifting by one snapshot re-transposes only the matrices that
    /// actually changed, allocation-free once warm.
    fn bind(slot: &mut Option<BoundMatrix>, x: &CsrMatrix) {
        let shape = x.shape();
        let nnz = x.nnz();
        match slot {
            // Same shape and nnz: the matrix *might* be unchanged — the
            // content hash decides. Hashing is the price of safely
            // skipping the transpose, paid only in this branch; when a
            // cached hash is absent the rebuild is unconditional.
            Some(b) if b.shape == shape && b.nnz == nnz => {
                let fingerprint = x.content_fingerprint();
                if b.fingerprint != Some(fingerprint) {
                    b.xt.rebind(x);
                    b.frob_sq = x.frobenius_sq();
                }
                b.fingerprint = Some(fingerprint);
            }
            // Shape or nnz differ: provably changed, rebuild into the
            // existing buffers without paying the O(nnz) hash.
            Some(b) => {
                b.xt.rebind(x);
                b.shape = shape;
                b.nnz = nnz;
                b.fingerprint = None;
                b.frob_sq = x.frobenius_sq();
            }
            None => {
                *slot = Some(BoundMatrix {
                    xt: CscView::of(x),
                    shape,
                    nnz,
                    fingerprint: Some(x.content_fingerprint()),
                    frob_sq: x.frobenius_sq(),
                });
            }
        }
    }

    fn matches(&self, x: &CsrMatrix) -> bool {
        self.shape == x.shape() && self.nnz == x.nnz()
    }
}

impl UpdateWorkspace {
    /// An unbound workspace with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds (or incrementally rebuilds) the cached `Xpᵀ`/`Xuᵀ`/`Xrᵀ`
    /// views for `input`. Call once per offline solve / per online
    /// snapshot; the `O(nnz)` cost amortizes over every sweep of the
    /// window — and across *snapshots*: each matrix is content-
    /// fingerprinted, unchanged matrices keep their cached transpose
    /// outright, and changed ones rebuild into the existing allocations,
    /// so a window shifting by one snapshot rebinds only what moved.
    pub fn bind(&mut self, input: &TriInput<'_>) {
        BoundMatrix::bind(&mut self.xp_bind, input.xp);
        BoundMatrix::bind(&mut self.xu_bind, input.xu);
        BoundMatrix::bind(&mut self.xr_bind, input.xr);
        self.sf_gram_fresh = false;
        self.su_gram_fresh = false;
        self.sp_gram_fresh = false;
    }

    /// True when [`bind`](UpdateWorkspace::bind) has been called for a
    /// matching input shape (cheap per-sweep guard; `bind` itself
    /// verifies full content fingerprints).
    pub(crate) fn is_bound_to(&self, input: &TriInput<'_>) -> bool {
        match (&self.xp_bind, &self.xu_bind, &self.xr_bind) {
            (Some(xp), Some(xu), Some(xr)) => {
                xp.matches(input.xp) && xu.matches(input.xu) && xr.matches(input.xr)
            }
            _ => false,
        }
    }

    #[track_caller]
    fn assert_bound(&self, input: &TriInput<'_>) {
        assert!(
            self.is_bound_to(input),
            "UpdateWorkspace::bind must be called before sweeping this input \
             (input shape {:?}, bound shapes {:?})",
            (input.n(), input.m(), input.l()),
            (
                self.xp_bind.as_ref().map(|b| b.shape),
                self.xu_bind.as_ref().map(|b| b.shape),
                self.xr_bind.as_ref().map(|b| b.shape),
            ),
        );
    }

    /// One full offline iteration (Algorithm 1 line order: `Sp`, `Hp`,
    /// `Su`, `Hu`, `Sf`), bit-identical to calling the reference rules in
    /// [`crate::updates`] in the same order.
    pub fn sweep_offline(
        &mut self,
        input: &TriInput<'_>,
        f: &mut TriFactors,
        alpha: f64,
        beta: f64,
        sf_target: &DenseMatrix,
    ) {
        self.assert_bound(input);
        // Shared products valid for the whole sweep (Sf/Su settle last /
        // are refreshed after their own updates below). Grams already
        // fresh from the previous iteration's tail — since the
        // gram-in-update fusion every rule that goes through
        // `mult_update_from_parts` refreshes its factor's Gram inside
        // the update pass itself — are not recomputed; the recompute
        // would be bit-identical.
        input.xp.mul_dense_into(&f.sf, &mut self.xp_sf);
        input.xu.mul_dense_into(&f.sf, &mut self.xu_sf);
        if !self.sf_gram_fresh {
            f.sf.gram_into(&mut self.sf_gram);
        }
        if !self.su_gram_fresh {
            f.su.gram_into(&mut self.su_gram);
        }

        self.rule_sp(f); // fuses sp_gram
        self.sp_gram_fresh = true;
        self.rule_hp(f);
        self.rule_su_offline(input, f, beta); // fuses su_gram
        self.su_gram_fresh = true;
        self.rule_hu(f);
        self.rule_sf(f, alpha, sf_target); // fuses sf_gram
        self.sf_gram_fresh = true;
    }

    /// One full online iteration (Algorithm 2 line order: `Sf`, `Sp`,
    /// `Hp`, `Hu`, block-partitioned `Su`), bit-identical to the
    /// reference rules in [`crate::updates`] called in the same order.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_online(
        &mut self,
        input: &TriInput<'_>,
        f: &mut TriFactors,
        alpha: f64,
        beta: f64,
        gamma: f64,
        sf_target: &DenseMatrix,
        new_rows: &[usize],
        evolving_rows: &[usize],
        su_target: &DenseMatrix,
    ) {
        self.assert_bound(input);
        assert_eq!(
            su_target.rows(),
            evolving_rows.len(),
            "one Suw row per evolving user required"
        );
        // Grams of the factors as they stand at iteration start; Sf's
        // shared products are computed after its own update below. Grams
        // left fresh by the previous iteration's tail — `sp_gram` by the
        // fused `Sp` rule, `su_gram` by the fused Su scatter + Gram pass
        // — are reused (the recompute would be bit-identical).
        if !self.sp_gram_fresh {
            f.sp.gram_into(&mut self.sp_gram);
        }
        if !self.su_gram_fresh {
            f.su.gram_into(&mut self.su_gram);
        }

        self.rule_sf(f, alpha, sf_target); // fuses sf_gram
        self.sf_gram_fresh = true;
        input.xp.mul_dense_into(&f.sf, &mut self.xp_sf);
        input.xu.mul_dense_into(&f.sf, &mut self.xu_sf);

        self.rule_sp(f); // fuses sp_gram
        self.sp_gram_fresh = true;
        self.rule_hp(f);
        self.rule_hu(f);
        self.rule_su_online(input, f, beta, gamma, new_rows, evolving_rows, su_target);
        // The fused scatter + Gram pass inside the Su rule left `su_gram`
        // holding the Gram of the updated Su, so the objective (and the
        // next iteration's sweep) skip their full re-Gram.
        self.su_gram_fresh = true;
    }

    /// Eq. (9) / Eq. (22): `Sp` update. Requires fresh `xp_sf`,
    /// `sf_gram`, `su_gram`. Leaves `sp_gram` holding the Gram of the
    /// **updated** `Sp` (fused gram-in-update pass).
    fn rule_sp(&mut self, f: &mut TriFactors) {
        // A = (Xp·Sf)·Hpᵀ (n×k), C = Xrᵀ·Su (n×k, forward pass).
        self.xp_sf.matmul_transpose_into(&f.hp, &mut self.a);
        let xr_t = &self.xr_bind.as_ref().expect("workspace must be bound").xt;
        xr_t.transpose_mul_dense_into(&f.su, &mut self.c);
        // K₁ = Hp·(SfᵀSf)·Hpᵀ.
        f.hp.matmul_into(&self.sf_gram, &mut self.kt);
        self.kt.matmul_transpose_into(&f.hp, &mut self.k1);
        // Δ = SpᵀA + SpᵀC − K₁ − SuᵀSu (one fused pass over Sp/A/C).
        f.sp.transpose_matmul_pair_into(&self.a, &self.c, &mut self.delta, &mut self.kt);
        self.delta.add_assign(&self.kt);
        self.delta.sub_assign(&self.k1);
        self.delta.sub_assign(&self.su_gram);
        split_pos_neg_into(&self.delta, &mut self.dp, &mut self.dm);
        // num = (A + C) + Sp·Δ⁻ ; den = Sp·(K₁ + SuᵀSu + Δ⁺).
        self.k1.add_assign(&self.su_gram);
        self.k1.add_assign(&self.dp);
        mult_update_from_parts(
            &mut f.sp,
            &self.a,
            Some(&self.c),
            &self.dm,
            &self.k1,
            &[],
            None,
            0.0,
            Some(&mut self.sp_gram),
        );
    }

    /// Eq. (12) / Eq. (21): `Hp` update. Requires fresh `xp_sf`,
    /// `sp_gram`, `sf_gram`.
    fn rule_hp(&mut self, f: &mut TriFactors) {
        f.sp.transpose_matmul_into(&self.xp_sf, &mut self.k1);
        // Snapshot Spᵀ·(Xp·Sf) for the fused online objective (where
        // xp_sf was built from the final Sf of the sweep).
        self.obj_cross_p.copy_from(&self.k1);
        self.sp_gram.matmul_into(&f.hp, &mut self.kt);
        self.kt.matmul_into(&self.sf_gram, &mut self.k2);
        mult_update(&mut f.hp, &self.k1, &self.k2);
    }

    /// Eq. (13) / Eq. (20): `Hu` update. Requires fresh `xu_sf`,
    /// `su_gram`, `sf_gram`.
    fn rule_hu(&mut self, f: &mut TriFactors) {
        f.su.transpose_matmul_into(&self.xu_sf, &mut self.k1);
        self.su_gram.matmul_into(&f.hu, &mut self.kt);
        self.kt.matmul_into(&self.sf_gram, &mut self.k2);
        mult_update(&mut f.hu, &self.k1, &self.k2);
    }

    /// Eq. (11): offline `Su` update. Requires fresh `xu_sf`, `sf_gram`,
    /// `sp_gram`. Leaves `su_gram` holding the Gram of the **updated**
    /// `Su` (fused gram-in-update pass).
    fn rule_su_offline(&mut self, input: &TriInput<'_>, f: &mut TriFactors, beta: f64) {
        let degrees = input.graph.degrees();
        // B = (Xu·Sf)·Huᵀ, D = Xr·Sp, Gu·Su, Lu·Su = Du·Su − Gu·Su.
        self.xu_sf.matmul_transpose_into(&f.hu, &mut self.b);
        input.xr.mul_dense_into(&f.sp, &mut self.d);
        input
            .graph
            .adjacency()
            .mul_dense_into(&f.su, &mut self.gu_su);
        row_scale_sub_into(&f.su, degrees, &self.gu_su, &mut self.lu_su);
        // K₁ = Hu·(SfᵀSf)·Huᵀ.
        f.hu.matmul_into(&self.sf_gram, &mut self.kt);
        self.kt.matmul_transpose_into(&f.hu, &mut self.k1);
        // Δ = SuᵀB + SuᵀD − K₁ − SpᵀSp − β·Suᵀ(Lu·Su).
        f.su.transpose_matmul_pair_into(&self.b, &self.d, &mut self.delta, &mut self.kt);
        self.delta.add_assign(&self.kt);
        self.delta.sub_assign(&self.k1);
        self.delta.sub_assign(&self.sp_gram);
        f.su.transpose_matmul_into(&self.lu_su, &mut self.kt);
        self.delta.sub_scaled_assign(beta, &self.kt);
        split_pos_neg_into(&self.delta, &mut self.dp, &mut self.dm);
        // num = (B + D) + Su·Δ⁻ + β·Gu·Su ;
        // den = Su·(K₁ + SpᵀSp + Δ⁺) + β·Du·Su.
        self.k1.add_assign(&self.sp_gram);
        self.k1.add_assign(&self.dp);
        mult_update_from_parts(
            &mut f.su,
            &self.b,
            Some(&self.d),
            &self.dm,
            &self.k1,
            &[(beta, &self.gu_su)],
            Some((beta, degrees)),
            0.0,
            Some(&mut self.su_gram),
        );
    }

    /// Eq. (7) offline / Eq. (23) online: `Sf` update. Requires fresh
    /// `sp_gram`, `su_gram`. Leaves `sf_gram` holding the Gram of the
    /// **updated** `Sf` (fused gram-in-update pass).
    fn rule_sf(&mut self, f: &mut TriFactors, alpha: f64, sf_target: &DenseMatrix) {
        let xu_t = &self.xu_bind.as_ref().expect("workspace must be bound").xt;
        let xp_t = &self.xp_bind.as_ref().expect("workspace must be bound").xt;
        // E₁ = (Xuᵀ·Su)·Hu, E₂ = (Xpᵀ·Sp)·Hp (both l×k, forward passes).
        xu_t.transpose_mul_dense_into(&f.su, &mut self.l_tmp);
        self.l_tmp.matmul_into(&f.hu, &mut self.e1);
        xp_t.transpose_mul_dense_into(&f.sp, &mut self.l_tmp);
        self.l_tmp.matmul_into(&f.hp, &mut self.e2);
        // K₁ = Huᵀ·(SuᵀSu)·Hu, K₂ = Hpᵀ·(SpᵀSp)·Hp.
        f.hu.transpose_matmul_into(&self.su_gram, &mut self.kt);
        self.kt.matmul_into(&f.hu, &mut self.k1);
        f.hp.transpose_matmul_into(&self.sp_gram, &mut self.kt);
        self.kt.matmul_into(&f.hp, &mut self.k2);
        // Δ = SfᵀE₁ + SfᵀE₂ − K₁ − K₂ − α·Sfᵀ(Sf − Sf*).
        f.sf.transpose_matmul_pair_into(&self.e1, &self.e2, &mut self.delta, &mut self.kt);
        self.delta.add_assign(&self.kt);
        self.delta.sub_assign(&self.k1);
        self.delta.sub_assign(&self.k2);
        self.l_tmp.copy_from(&f.sf);
        self.l_tmp.sub_assign(sf_target);
        f.sf.transpose_matmul_into(&self.l_tmp, &mut self.kt);
        self.delta.sub_scaled_assign(alpha, &self.kt);
        split_pos_neg_into(&self.delta, &mut self.dp, &mut self.dm);
        // num = (E₁ + E₂) + Sf·Δ⁻ + α·Sf* ;
        // den = Sf·(K₁ + K₂ + Δ⁺) + α·Sf.
        // E₁/E₂ stay intact: the fused objective reads them afterwards.
        self.k1.add_assign(&self.k2);
        self.k1.add_assign(&self.dp);
        mult_update_from_parts(
            &mut f.sf,
            &self.e1,
            Some(&self.e2),
            &self.dm,
            &self.k1,
            &[(alpha, sf_target)],
            None,
            alpha,
            Some(&mut self.sf_gram),
        );
    }

    /// Eqs. (24) + (26): online `Su` update over new / evolving blocks.
    /// Requires fresh `xu_sf`, `sf_gram`, `sp_gram`.
    #[allow(clippy::too_many_arguments)]
    fn rule_su_online(
        &mut self,
        input: &TriInput<'_>,
        f: &mut TriFactors,
        beta: f64,
        gamma: f64,
        new_rows: &[usize],
        evolving_rows: &[usize],
        su_target: &DenseMatrix,
    ) {
        let degrees = input.graph.degrees();
        // Shared full-matrix products (rows are gathered per block).
        self.xu_sf.matmul_transpose_into(&f.hu, &mut self.b);
        input.xr.mul_dense_into(&f.sp, &mut self.d);
        input
            .graph
            .adjacency()
            .mul_dense_into(&f.su, &mut self.gu_su);
        row_scale_sub_into(&f.su, degrees, &self.gu_su, &mut self.lu_su);
        f.hu.matmul_into(&self.sf_gram, &mut self.kt);
        self.kt.matmul_transpose_into(&f.hu, &mut self.k1);
        self.base_k.copy_from(&self.k1);
        self.base_k.add_assign(&self.sp_gram);

        // The new-user block scatters immediately; the evolving block's
        // scatter is deferred into one fused full-row-order pass that
        // also leaves `su_gram` holding the Gram of the **updated** Su.
        // This closes the gather-order blocker that kept the online Su
        // rules out of the gram-in-update fusion: the reduction below
        // runs in full-matrix row order (the order `su_gram` needs),
        // sourcing the updated evolving rows mid-pass instead of
        // accumulating a gathered block in gather order.
        self.su_block(f, beta, gamma, new_rows, None, degrees, true);
        self.su_block(
            f,
            beta,
            gamma,
            evolving_rows,
            Some(su_target),
            degrees,
            false,
        );
        let mut gram = std::mem::take(&mut self.su_gram);
        if evolving_rows.is_empty() {
            // Nothing deferred (blk_su holds the new block, if any);
            // the pass degenerates to a plain full-matrix Gram.
            f.su.scatter_rows_with_gram(&[], &DenseMatrix::default(), &mut gram);
        } else {
            f.su.scatter_rows_with_gram(evolving_rows, &self.blk_su, &mut gram);
        }
        self.su_gram = gram;
    }

    /// One `Su` block (Δ per Eq. 24 / Eq. 26), gathered into the block
    /// buffers and updated; with `scatter` the result is written back
    /// into `f.su` here, otherwise it stays in `blk_su` for the caller's
    /// fused scatter + Gram pass.
    #[allow(clippy::too_many_arguments)]
    fn su_block(
        &mut self,
        f: &mut TriFactors,
        beta: f64,
        gamma: f64,
        rows: &[usize],
        target: Option<&DenseMatrix>,
        degrees: &[f64],
        scatter: bool,
    ) {
        if rows.is_empty() {
            return;
        }
        f.su.select_rows_into(rows, &mut self.blk_su);
        self.b.select_rows_into(rows, &mut self.blk_b);
        self.d.select_rows_into(rows, &mut self.blk_d);
        self.gu_su.select_rows_into(rows, &mut self.blk_g);
        self.lu_su.select_rows_into(rows, &mut self.blk_lu);
        self.blk_deg.clear();
        self.blk_deg.extend(rows.iter().map(|&r| degrees[r]));
        // Δ_b = Su_bᵀB_b + Su_bᵀD_b − K₁ − SpᵀSp − β·Su_bᵀ(LuSu)_b
        //       [− γ·Su_bᵀ(Su_b − Suw)].
        self.blk_su.transpose_matmul_pair_into(
            &self.blk_b,
            &self.blk_d,
            &mut self.delta,
            &mut self.kt,
        );
        self.delta.add_assign(&self.kt);
        self.delta.sub_assign(&self.k1);
        self.delta.sub_assign(&self.sp_gram);
        self.blk_su
            .transpose_matmul_into(&self.blk_lu, &mut self.kt);
        self.delta.sub_scaled_assign(beta, &self.kt);
        if let Some(t) = target {
            self.blk_tmp.copy_from(&self.blk_su);
            self.blk_tmp.sub_assign(t);
            self.blk_su
                .transpose_matmul_into(&self.blk_tmp, &mut self.kt);
            self.delta.sub_scaled_assign(gamma, &self.kt);
        }
        split_pos_neg_into(&self.delta, &mut self.dp, &mut self.dm);
        // num = (B_b + D_b) + Su_b·Δ⁻ + β·(GuSu)_b [+ γ·Suw] ;
        // den = Su_b·(base_K + Δ⁺) + β·(DuSu)_b [+ γ·Su_b].
        self.k2.copy_from(&self.base_k);
        self.k2.add_assign(&self.dp);
        match target {
            Some(t) => mult_update_from_parts(
                &mut self.blk_su,
                &self.blk_b,
                Some(&self.blk_d),
                &self.dm,
                &self.k2,
                &[(beta, &self.blk_g), (gamma, t)],
                Some((beta, &self.blk_deg)),
                gamma,
                // No gram fusion at the block level: a gathered subset's
                // fused Gram would accumulate in gather order. The
                // caller's `scatter_rows_with_gram` pass does the fusion
                // in full-matrix row order instead.
                None,
            ),
            None => mult_update_from_parts(
                &mut self.blk_su,
                &self.blk_b,
                Some(&self.blk_d),
                &self.dm,
                &self.k2,
                &[(beta, &self.blk_g)],
                Some((beta, &self.blk_deg)),
                0.0,
                None,
            ),
        }
        if scatter {
            f.su.scatter_rows_from(rows, &self.blk_su);
        }
    }

    /// Fused evaluation of the offline objective (Eq. 1), valid
    /// **immediately after [`UpdateWorkspace::sweep_offline`]** on the
    /// same input and factors.
    ///
    /// Mathematically equal to [`crate::objective::offline_objective`]
    /// (agreement to ~1e-12 relative, unit-tested), but evaluated from
    /// the sweep's cached products instead of from scratch:
    ///
    /// * `‖X‖²` constants are cached at [`UpdateWorkspace::bind`];
    /// * the cross terms use `⟨Xp, Sp·Hp·Sfᵀ⟩ = ⟨Sf, (Xpᵀ·Sp)·Hp⟩`,
    ///   where `(Xpᵀ·Sp)·Hp` is exactly the `E₂` (resp. `E₁`) product
    ///   the `Sf` rule just computed — the offline sweep updates `Sf`
    ///   last, so `E₁`/`E₂` hold the final `Sp`/`Su`/`Hp`/`Hu`;
    /// * the quadratic fit terms use
    ///   `tr((AᵀA)(SfᵀSf)) = tr((Hpᵀ(SpᵀSp)Hp)(SfᵀSf))` over the cached
    ///   Gram matrices instead of materializing and re-Gramming
    ///   `A = Sp·Hp`.
    ///
    /// This turns the per-iteration objective from the single most
    /// expensive step of a solver iteration into a `O(nnz(Xr)·k +
    /// nnz(Gu)·k + (l + m)·k² + k³)` afterthought.
    pub fn objective_offline(
        &mut self,
        input: &TriInput<'_>,
        f: &TriFactors,
        alpha: f64,
        beta: f64,
    ) -> ObjectiveParts {
        self.assert_bound(input);
        let (xp_sq, xu_sq, xr_sq) = self.x_norms();
        // Sf settled last, but the fused `Sf` rule already cached its
        // Gram inside the update pass; recompute only if something
        // invalidated it (the recompute is bit-identical).
        if !self.sf_gram_fresh {
            f.sf.gram_into(&mut self.sf_gram);
            self.sf_gram_fresh = true;
        }
        let tweet_feature = {
            let cross = f.sf.frobenius_inner(&self.e2);
            f.hp.transpose_matmul_into(&self.sp_gram, &mut self.kt);
            self.kt.matmul_into(&f.hp, &mut self.k1);
            let fit = self.k1.frobenius_inner(&self.sf_gram);
            (xp_sq - 2.0 * cross + fit).max(0.0)
        };
        let user_feature = {
            let cross = f.sf.frobenius_inner(&self.e1);
            f.hu.transpose_matmul_into(&self.su_gram, &mut self.kt);
            self.kt.matmul_into(&f.hu, &mut self.k1);
            let fit = self.k1.frobenius_inner(&self.sf_gram);
            (xu_sq - 2.0 * cross + fit).max(0.0)
        };
        let user_tweet = {
            let cross = input.xr.inner_with_factored(&f.su, &f.sp);
            let fit = self.su_gram.frobenius_inner(&self.sp_gram);
            (xr_sq - 2.0 * cross + fit).max(0.0)
        };
        let lexicon = alpha * sub_frobenius_sq(&f.sf, input.sf0);
        let graph = beta * laplacian_quad(input.graph.adjacency(), input.graph.degrees(), &f.su);
        ObjectiveParts {
            tweet_feature,
            user_feature,
            user_tweet,
            lexicon,
            graph,
            temporal_user: 0.0,
        }
    }

    /// Fused evaluation of the online objective (Eq. 19), valid
    /// **immediately after [`UpdateWorkspace::sweep_online`]** on the
    /// same input and factors. Counterpart of
    /// [`crate::objective::online_objective`] (agreement to ~1e-12
    /// relative, unit-tested).
    ///
    /// The online sweep updates `Sf` first and `Su` last, so the cache
    /// situation differs from offline: `xp_sf`/`xu_sf` and `sf_gram`
    /// hold the final `Sf`, the tweet cross term comes from the
    /// `Spᵀ·(Xp·Sf)` snapshot taken in the `Hp` rule, and the user-side
    /// products are recomputed against the final `Su` (cheap — `m` is
    /// the smallest dimension).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn objective_online(
        &mut self,
        input: &TriInput<'_>,
        f: &TriFactors,
        alpha: f64,
        sf_target: &DenseMatrix,
        beta: f64,
        gamma: f64,
        su_target: Option<&DenseMatrix>,
        evolving_rows: &[usize],
    ) -> ObjectiveParts {
        self.assert_bound(input);
        let (xp_sq, xu_sq, xr_sq) = self.x_norms();
        // Final-Su products (Su settled last online, through the
        // gather-order block rules that cannot fuse the full Gram); the
        // refreshed Gram stays valid into the next sweep's warm-up.
        if !self.su_gram_fresh {
            f.su.gram_into(&mut self.su_gram);
            self.su_gram_fresh = true;
        }
        let tweet_feature = {
            let cross = self.obj_cross_p.frobenius_inner(&f.hp);
            f.hp.transpose_matmul_into(&self.sp_gram, &mut self.kt);
            self.kt.matmul_into(&f.hp, &mut self.k1);
            let fit = self.k1.frobenius_inner(&self.sf_gram);
            (xp_sq - 2.0 * cross + fit).max(0.0)
        };
        let user_feature = {
            f.su.transpose_matmul_into(&self.xu_sf, &mut self.kt);
            let cross = self.kt.frobenius_inner(&f.hu);
            f.hu.transpose_matmul_into(&self.su_gram, &mut self.kt);
            self.kt.matmul_into(&f.hu, &mut self.k1);
            let fit = self.k1.frobenius_inner(&self.sf_gram);
            (xu_sq - 2.0 * cross + fit).max(0.0)
        };
        let user_tweet = {
            let cross = input.xr.inner_with_factored(&f.su, &f.sp);
            let fit = self.su_gram.frobenius_inner(&self.sp_gram);
            (xr_sq - 2.0 * cross + fit).max(0.0)
        };
        let lexicon = alpha * sub_frobenius_sq(&f.sf, sf_target);
        let graph = beta * laplacian_quad(input.graph.adjacency(), input.graph.degrees(), &f.su);
        let temporal_user = match su_target {
            Some(target) if gamma > 0.0 => {
                assert_eq!(
                    target.rows(),
                    evolving_rows.len(),
                    "one target row per evolving user required"
                );
                let mut sq = 0.0;
                for (t_row, &u_row) in evolving_rows.iter().enumerate() {
                    for (c, t) in f.su.row(u_row).iter().zip(target.row(t_row).iter()) {
                        let d = c - t;
                        sq += d * d;
                    }
                }
                gamma * sq
            }
            _ => 0.0,
        };
        ObjectiveParts {
            tweet_feature,
            user_feature,
            user_tweet,
            lexicon,
            graph,
            temporal_user,
        }
    }

    /// (`‖Xp‖²`, `‖Xu‖²`, `‖Xr‖²`) of the bound window.
    fn x_norms(&self) -> (f64, f64, f64) {
        (
            self.xp_bind.as_ref().expect("bound").frob_sq,
            self.xu_bind.as_ref().expect("bound").frob_sq,
            self.xr_bind.as_ref().expect("bound").frob_sq,
        )
    }

    /// Fused [`crate::updates::balance_init_scales`]: identical scaling
    /// decisions, run through the workspace's `k×k` scratch instead of
    /// allocating Gram/product temporaries.
    pub(crate) fn balance_init_scales(&mut self, input: &TriInput<'_>, f: &mut TriFactors) {
        const EPS: f64 = 1e-12;
        let xr_norm = input.xr.frobenius_sq().sqrt();
        f.su.gram_into(&mut self.k1);
        f.sp.gram_into(&mut self.k2);
        let rec = self.k1.frobenius_inner(&self.k2).max(0.0).sqrt();
        if xr_norm > EPS && rec > EPS {
            f.sp.scale_assign(xr_norm / rec);
        }
        let xp_norm = input.xp.frobenius_sq().sqrt();
        f.sp.matmul_into(&f.hp, &mut self.a);
        self.a.gram_into(&mut self.k1);
        f.sf.gram_into(&mut self.k2);
        let rec = self.k1.frobenius_inner(&self.k2).max(0.0).sqrt();
        if xp_norm > EPS && rec > EPS {
            f.hp.scale_assign(xp_norm / rec);
        }
        let xu_norm = input.xu.frobenius_sq().sqrt();
        f.su.matmul_into(&f.hu, &mut self.b);
        self.b.gram_into(&mut self.k1);
        let rec = self.k1.frobenius_inner(&self.k2).max(0.0).sqrt();
        if xu_norm > EPS && rec > EPS {
            f.hu.scale_assign(xu_norm / rec);
        }
    }
}

/// `‖a − b‖²_F` without materializing the difference — same element
/// order as `a.sub(&b).frobenius_sq()`.
fn sub_frobenius_sq(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    assert_eq!(a.shape(), b.shape(), "sub_frobenius_sq shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Writes `diag(scale)·m − sub` into `out` in one pass — the fused form
/// of `row_scale(m, scale).sub(&sub)` (the Laplacian `Lu·Su` term),
/// preserving its floating-point association `(mᵢⱼ·scaleᵢ) − subᵢⱼ`.
fn row_scale_sub_into(m: &DenseMatrix, scale: &[f64], sub: &DenseMatrix, out: &mut DenseMatrix) {
    assert_eq!(m.rows(), scale.len(), "row_scale length mismatch");
    assert_eq!(m.shape(), sub.shape(), "row_scale_sub shape mismatch");
    let (rows, cols) = m.shape();
    out.resize_zeroed(rows, cols);
    let (mv, sv, ov) = (m.as_slice(), sub.as_slice(), out.as_mut_slice());
    for (i, &s) in scale.iter().enumerate().take(rows) {
        for j in 0..cols {
            let idx = i * cols + j;
            ov[idx] = mv[idx] * s - sv[idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updates;
    use rand::RngExt;
    use tgs_graph::UserGraph;
    use tgs_linalg::{seeded_rng, CsrMatrix};

    /// A small random-but-deterministic problem instance (mirrors
    /// `updates::tests::instance`).
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

    fn assert_factors_identical(a: &TriFactors, b: &TriFactors, what: &str) {
        assert_eq!(a.sp, b.sp, "{what}: Sp diverged");
        assert_eq!(a.su, b.su, "{what}: Su diverged");
        assert_eq!(a.sf, b.sf, "{what}: Sf diverged");
        assert_eq!(a.hp, b.hp, "{what}: Hp diverged");
        assert_eq!(a.hu, b.hu, "{what}: Hu diverged");
    }

    #[test]
    fn offline_sweep_bit_identical_to_reference_rules() {
        for seed in 0..4u64 {
            let (xp, xu, xr, graph, sf0) = instance(seed);
            let input = TriInput {
                xp: &xp,
                xu: &xu,
                xr: &xr,
                graph: &graph,
                sf0: &sf0,
            };
            let mut reference = TriFactors::random(12, 8, 10, 3, seed + 50);
            let mut fused = reference.clone();
            let mut ws = UpdateWorkspace::new();
            ws.bind(&input);
            for _ in 0..5 {
                updates::update_sp(&input, &mut reference);
                updates::update_hp(&input, &mut reference);
                updates::update_su_offline(&input, &mut reference, 0.4);
                updates::update_hu(&input, &mut reference);
                updates::update_sf(&input, &mut reference, 0.07, &sf0);
                ws.sweep_offline(&input, &mut fused, 0.07, 0.4, &sf0);
                assert_factors_identical(&reference, &fused, &format!("seed {seed}"));
            }
        }
    }

    #[test]
    fn online_sweep_bit_identical_to_reference_rules() {
        for seed in 0..4u64 {
            let (xp, xu, xr, graph, sf0) = instance(seed + 20);
            let input = TriInput {
                xp: &xp,
                xu: &xu,
                xr: &xr,
                graph: &graph,
                sf0: &sf0,
            };
            let mut reference = TriFactors::random(12, 8, 10, 3, seed + 90);
            let mut fused = reference.clone();
            let mut ws = UpdateWorkspace::new();
            ws.bind(&input);
            let new_rows = vec![0, 3];
            let evolving_rows = vec![1, 2, 4, 5, 6, 7];
            let su_target = DenseMatrix::from_fn(6, 3, |i, j| 0.1 + ((i + j) % 3) as f64 * 0.3);
            let sf_target = DenseMatrix::from_fn(10, 3, |i, j| 0.2 + ((i * j) % 4) as f64 * 0.2);
            for _ in 0..5 {
                updates::update_sf(&input, &mut reference, 0.15, &sf_target);
                updates::update_sp(&input, &mut reference);
                updates::update_hp(&input, &mut reference);
                updates::update_hu(&input, &mut reference);
                updates::update_su_online(
                    &input,
                    &mut reference,
                    0.3,
                    0.2,
                    &new_rows,
                    &evolving_rows,
                    &su_target,
                );
                ws.sweep_online(
                    &input,
                    &mut fused,
                    0.15,
                    0.3,
                    0.2,
                    &sf_target,
                    &new_rows,
                    &evolving_rows,
                    &su_target,
                );
                assert_factors_identical(&reference, &fused, &format!("seed {seed}"));
            }
        }
    }

    #[test]
    fn balance_init_scales_bit_identical_to_reference() {
        for seed in 0..4u64 {
            let (xp, xu, xr, graph, sf0) = instance(seed + 40);
            let input = TriInput {
                xp: &xp,
                xu: &xu,
                xr: &xr,
                graph: &graph,
                sf0: &sf0,
            };
            let mut reference = TriFactors::random(12, 8, 10, 3, seed);
            let mut fused = reference.clone();
            updates::balance_init_scales(&input, &mut reference);
            let mut ws = UpdateWorkspace::new();
            ws.bind(&input);
            ws.balance_init_scales(&input, &mut fused);
            assert_factors_identical(&reference, &fused, &format!("seed {seed}"));
        }
    }

    #[test]
    fn fused_objectives_match_reference_evaluation() {
        use crate::objective::{offline_objective, online_objective};
        for seed in 0..4u64 {
            let (xp, xu, xr, graph, sf0) = instance(seed + 60);
            let input = TriInput {
                xp: &xp,
                xu: &xu,
                xr: &xr,
                graph: &graph,
                sf0: &sf0,
            };
            let mut f = TriFactors::random(12, 8, 10, 3, seed + 7);
            let mut ws = UpdateWorkspace::new();
            ws.bind(&input);
            let close = |a: f64, b: f64, what: &str| {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                    "{what}: fused {a} vs reference {b}"
                );
            };
            // Offline: after each sweep the fused objective must agree.
            for _ in 0..3 {
                ws.sweep_offline(&input, &mut f, 0.1, 0.5, &sf0);
                let fused = ws.objective_offline(&input, &f, 0.1, 0.5);
                let reference = offline_objective(&input, &f, 0.1, 0.5);
                close(fused.tweet_feature, reference.tweet_feature, "tweet");
                close(fused.user_feature, reference.user_feature, "user");
                close(fused.user_tweet, reference.user_tweet, "retweet");
                close(fused.lexicon, reference.lexicon, "lexicon");
                close(fused.graph, reference.graph, "graph");
                close(fused.total(), reference.total(), "total");
            }
            // Online: same contract for the online sweep/objective pair.
            let new_rows = vec![0, 2];
            let evolving_rows = vec![1, 3, 4, 5, 6, 7];
            let su_target = DenseMatrix::from_fn(6, 3, |i, j| 0.1 + ((i * 2 + j) % 4) as f64 * 0.2);
            for _ in 0..3 {
                ws.sweep_online(
                    &input,
                    &mut f,
                    0.1,
                    0.5,
                    0.3,
                    &sf0,
                    &new_rows,
                    &evolving_rows,
                    &su_target,
                );
                let fused = ws.objective_online(
                    &input,
                    &f,
                    0.1,
                    &sf0,
                    0.5,
                    0.3,
                    Some(&su_target),
                    &evolving_rows,
                );
                let reference = online_objective(
                    &input,
                    &f,
                    0.1,
                    &sf0,
                    0.5,
                    0.3,
                    Some(&su_target),
                    &evolving_rows,
                );
                close(fused.tweet_feature, reference.tweet_feature, "online tweet");
                close(fused.user_feature, reference.user_feature, "online user");
                close(
                    fused.temporal_user,
                    reference.temporal_user,
                    "online temporal",
                );
                close(fused.total(), reference.total(), "online total");
            }
        }
    }

    /// The incremental bind must never keep a stale transpose: rebinding
    /// to a same-shape, same-nnz matrix with different *values* (the
    /// adversarial case for any fingerprint scheme) must produce sweeps
    /// bit-identical to a fresh workspace, and rebinding the unchanged
    /// input (the amortized fast path) must too.
    #[test]
    fn incremental_bind_never_stales() {
        let (xp_a, xu, xr, graph, sf0) = instance(3);
        // Same sparsity pattern as xp_a, different values.
        let trip: Vec<(usize, usize, f64)> =
            xp_a.iter().map(|(r, c, v)| (r, c, v + 0.125)).collect();
        let xp_b = CsrMatrix::from_triplets(xp_a.rows(), xp_a.cols(), &trip).unwrap();
        assert_eq!(xp_a.shape(), xp_b.shape());
        assert_eq!(xp_a.nnz(), xp_b.nnz());
        let input_a = TriInput {
            xp: &xp_a,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let input_b = TriInput {
            xp: &xp_b,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        // Lockstep: the long-lived workspace rebinds A → B → A → A
        // (changed values under identical shape/nnz, then an unchanged
        // rebind); a throwaway workspace bound fresh each round is the
        // reference. Factors advance together, so any stale cached
        // transpose diverges the factors at that round.
        let mut reused = UpdateWorkspace::new();
        let mut f_reused = TriFactors::random(12, 8, 10, 3, 5);
        let mut f_fresh = f_reused.clone();
        for (round, input) in [input_a, input_b, input_a, input_a].iter().enumerate() {
            reused.bind(input);
            reused.sweep_offline(input, &mut f_reused, 0.07, 0.4, &sf0);
            let mut fresh = UpdateWorkspace::new();
            fresh.bind(input);
            fresh.sweep_offline(input, &mut f_fresh, 0.07, 0.4, &sf0);
            assert_factors_identical(
                &f_reused,
                &f_fresh,
                &format!("round {round}: incremental bind diverged"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "UpdateWorkspace::bind must be called")]
    fn sweep_without_bind_panics() {
        let (xp, xu, xr, graph, sf0) = instance(1);
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let mut f = TriFactors::random(12, 8, 10, 3, 1);
        let mut ws = UpdateWorkspace::new();
        ws.sweep_offline(&input, &mut f, 0.1, 0.5, &sf0);
    }
}
