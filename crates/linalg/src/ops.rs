//! Kernels specific to multiplicative-update non-negative matrix
//! tri-factorization: Δ-splitting, the square-root multiplicative update,
//! and factored-form objective evaluation.

use crate::dense::{gram_row, local_square, DenseMatrix};
use crate::simd::simd_kernel;
use crate::sparse::CsrMatrix;

/// Denominator guard for multiplicative updates. Entries of the factor
/// matrices live around `1/k ≈ 0.3`, so `1e-12` is far below signal while
/// still preventing division by zero.
pub const EPS: f64 = 1e-12;

/// Floor applied to factor entries after each update. Multiplicative
/// updates can never resurrect an exact zero, so we keep entries strictly
/// positive (standard NMF practice, cf. Lee & Seung).
pub const FACTOR_FLOOR: f64 = 1e-12;

/// Splits a matrix into its positive and negative parts:
/// `Δ⁺ = (|Δ| + Δ)/2`, `Δ⁻ = (|Δ| − Δ)/2`, so that `Δ = Δ⁺ − Δ⁻` with both
/// parts non-negative. Used on the orthogonality multipliers in
/// Eqs. (7), (9), (11) of the paper.
pub fn split_pos_neg(delta: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    let pos = delta.map(|v| if v > 0.0 { v } else { 0.0 });
    let neg = delta.map(|v| if v < 0.0 { -v } else { 0.0 });
    (pos, neg)
}

/// In-place variant of [`split_pos_neg`]: writes `Δ⁺` into `pos` and `Δ⁻`
/// into `neg`, reusing their allocations. SIMD-dispatched (see
/// [`crate::simd`]); bit-identical across tiers.
pub fn split_pos_neg_into(delta: &DenseMatrix, pos: &mut DenseMatrix, neg: &mut DenseMatrix) {
    let (rows, cols) = delta.shape();
    pos.resize_zeroed(rows, cols);
    neg.resize_zeroed(rows, cols);
    split_pos_neg_kernel(
        crate::simd::active_tier(),
        delta.as_slice(),
        pos.as_mut_slice(),
        neg.as_mut_slice(),
    );
}

simd_kernel! {
    /// Element-wise positive/negative split.
    fn split_pos_neg_kernel(delta: &[f64], pv: &mut [f64], nv: &mut [f64]) {
        for (i, &v) in delta.iter().enumerate() {
            pv[i] = if v > 0.0 { v } else { 0.0 };
            nv[i] = if v < 0.0 { -v } else { 0.0 };
        }
    }
}

/// The multiplicative update `S ← S ∘ sqrt(num / (den + EPS))`, with a
/// positivity floor.
///
/// All numerator and denominator terms produced by the update rules are
/// non-negative by construction, so the square root is always defined.
pub fn mult_update(s: &mut DenseMatrix, num: &DenseMatrix, den: &DenseMatrix) {
    assert_eq!(
        s.shape(),
        num.shape(),
        "mult_update numerator shape mismatch"
    );
    assert_eq!(
        s.shape(),
        den.shape(),
        "mult_update denominator shape mismatch"
    );
    mult_update_kernel(
        crate::simd::active_tier(),
        s.as_mut_slice(),
        num.as_slice(),
        den.as_slice(),
    );
}

simd_kernel! {
    /// Element-wise `s ← s ∘ sqrt(num / (den + EPS))` with the floor.
    fn mult_update_kernel(sv: &mut [f64], nv: &[f64], dv: &[f64]) {
        for i in 0..sv.len() {
            let ratio = nv[i].max(0.0) / (dv[i].max(0.0) + EPS);
            let updated = sv[i] * ratio.sqrt();
            sv[i] = if updated.is_finite() {
                updated.max(FACTOR_FLOOR)
            } else {
                FACTOR_FLOOR
            };
        }
    }
}

/// Widest factor rank handled by [`mult_update_from_parts`]'s stack
/// buffers (the paper uses `k ∈ {2, 3}`; scaling experiments go to ~10).
pub const MAX_FUSED_K: usize = 64;

/// The fused multiplicative update: performs
///
/// ```text
/// num = num_base + S·Δ⁻  (+ Σ cᵢ·Mᵢ over num_axpys, in order)
/// den = S·den_k          (+ c·diag(vec)·S) (+ c_self·S)
/// S  ← S ∘ sqrt(num / (den + EPS))
/// ```
///
/// in one row-parallel pass, without materializing `num`/`den` (the seed
/// implementation allocated four full `rows × k` temporaries per rule for
/// this chain). Floating-point operation order matches the allocating
/// chain `num_base.add(&s.matmul(dm))` + `axpy`s exactly, so results are
/// bit-for-bit identical — property-tested in `tests/proptests.rs`.
///
/// * `num_base` / `num_base2` — the data-driven numerator terms; with
///   `num_base2` present the numerator starts from
///   `num_base + num_base2` (summed element-wise before the `S·Δ⁻`
///   term, exactly like the reference chain `a.add(&c)`), which spares
///   the caller a separate full-size addition pass.
/// * `dm` — `Δ⁻` (`k × k`); the numerator gains `S·Δ⁻`.
/// * `den_k` — the full denominator `k × k` (e.g. `K + Δ⁺`); the
///   denominator is `S·den_k`.
/// * `num_axpys` — scaled matrices added to the numerator after the `S·Δ⁻`
///   term, in slice order (e.g. `β·Gu·Su`, then `γ·Suw`).
/// * `den_row_scale` — `(c, vec)` adds `c·vec[i]·S[i,j]` to the
///   denominator (the `β·Du·S` Laplacian degree term).
/// * `den_self_scale` — adds `c·S[i,j]` to the denominator (the `α`/`γ`
///   proximal terms); `0.0` disables.
/// * `gram` — the fused gram-in-update pass: when present, receives
///   `SᵀS` of the **updated** factor, accumulated inside the same sweep
///   over the rows instead of a separate `O(rows·k²)` re-Gram
///   afterwards. The accumulation runs over the same fixed
///   [`crate::parallel::REDUCE_BLOCK_ROWS`] blocks (partials folded in
///   block order) as [`DenseMatrix::gram_into`], so the result is
///   **bit-identical** to calling `s.gram_into(gram)` after the update,
///   at every thread count.
///
/// For `k > MAX_FUSED_K` a heap-buffered fallback is used (cold path —
/// the zero-allocation guarantee covers realistic ranks only).
#[allow(clippy::too_many_arguments)]
pub fn mult_update_from_parts(
    s: &mut DenseMatrix,
    num_base: &DenseMatrix,
    num_base2: Option<&DenseMatrix>,
    dm: &DenseMatrix,
    den_k: &DenseMatrix,
    num_axpys: &[(f64, &DenseMatrix)],
    den_row_scale: Option<(f64, &[f64])>,
    den_self_scale: f64,
    gram: Option<&mut DenseMatrix>,
) {
    let (rows, k) = s.shape();
    assert_eq!(
        num_base.shape(),
        (rows, k),
        "mult_update_from_parts num_base shape"
    );
    if let Some(b2) = num_base2 {
        assert_eq!(
            b2.shape(),
            (rows, k),
            "mult_update_from_parts num_base2 shape"
        );
    }
    assert_eq!(dm.shape(), (k, k), "mult_update_from_parts dm shape");
    assert_eq!(den_k.shape(), (k, k), "mult_update_from_parts den_k shape");
    for (_, m) in num_axpys {
        assert_eq!(
            m.shape(),
            (rows, k),
            "mult_update_from_parts num_axpy shape"
        );
    }
    if let Some((_, vec)) = den_row_scale {
        assert_eq!(
            vec.len(),
            rows,
            "mult_update_from_parts den_row_scale length"
        );
    }
    if k == 0 || rows == 0 {
        if let Some(g) = gram {
            s.gram_into(g); // degenerate shapes: keep gram semantics
        }
        return;
    }
    let args = FusedUpdateArgs {
        num_base,
        num_base2,
        dm,
        den_k,
        num_axpys,
        den_row_scale,
        den_self_scale,
    };
    fused_update_rows(s, &args, gram);
}

/// Shared operand bundle for [`mult_update_from_parts`].
struct FusedUpdateArgs<'a> {
    num_base: &'a DenseMatrix,
    num_base2: Option<&'a DenseMatrix>,
    dm: &'a DenseMatrix,
    den_k: &'a DenseMatrix,
    num_axpys: &'a [(f64, &'a DenseMatrix)],
    den_row_scale: Option<(f64, &'a [f64])>,
    den_self_scale: f64,
}

/// Row loop of the fused update. With `gram` present the rows run
/// through the fixed-block reduction of
/// [`crate::parallel::for_each_row_block_reduce`] so the fused `SᵀS`
/// matches a post-hoc `gram_into` bit-for-bit (the per-row update itself
/// is row-independent, so chunking never affects the factor).
fn fused_update_rows(
    s: &mut DenseMatrix,
    args: &FusedUpdateArgs<'_>,
    gram: Option<&mut DenseMatrix>,
) {
    let (rows, k) = s.shape();
    let tier = crate::simd::active_tier();
    // ~3 k-wide dots per output entry.
    let work = rows * k * k * 3;
    match gram {
        None => {
            crate::parallel::for_each_row_chunk(rows, work, s.as_mut_slice(), k, |r0, chunk| {
                fused_update_chunk(tier, args, k, r0, chunk, None);
            });
        }
        Some(g) => {
            g.resize_zeroed(k, k);
            crate::parallel::for_each_row_block_reduce(
                rows,
                work,
                s.as_mut_slice(),
                k,
                g.as_mut_slice(),
                |r0, chunk, partial| {
                    fused_update_chunk(tier, args, k, r0, chunk, Some(partial));
                },
            );
            // mirror the upper triangle (same tail as `gram_into`)
            let gv = g.as_mut_slice();
            for p in 0..k {
                for q in (p + 1)..k {
                    gv[q * k + p] = gv[p * k + q];
                }
            }
        }
    }
}

/// The per-row arithmetic of the fused update. `dm` / `den_k` are the
/// row-major `k × k` operands, passed apart from `args` so the
/// fixed-rank body can hand in local copies. Every row it reads is cut
/// to `s_row.len()`, so at a fixed rank each inner loop has a
/// compile-time trip count. `#[inline(always)]` so it compiles into
/// each dispatched wrapper with that wrapper's target features.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fused_update_one_row(
    args: &FusedUpdateArgs<'_>,
    dm: &[f64],
    den_k: &[f64],
    i: usize,
    s_row: &mut [f64],
    s_old: &mut [f64],
    num_row: &mut [f64],
    den_row: &mut [f64],
) {
    let width = s_row.len();
    s_old.copy_from_slice(s_row);
    // (S·Δ⁻)[i,:] and (S·den_k)[i,:], accumulated in the exact
    // i-k-j order (and zero-skip) of DenseMatrix::matmul, with
    // `dm`/`den_k` rows streamed contiguously.
    num_row.fill(0.0);
    den_row.fill(0.0);
    for ((&sa, dm_row), dk_row) in s_old
        .iter()
        .zip(dm.chunks_exact(width))
        .zip(den_k.chunks_exact(width))
    {
        if sa != 0.0 {
            for (o, &b) in num_row.iter_mut().zip(dm_row) {
                *o += sa * b;
            }
            for (o, &b) in den_row.iter_mut().zip(dk_row) {
                *o += sa * b;
            }
        }
    }
    // num = num_base[i,:] (+ num_base2[i,:]) + S·Δ⁻ (+ axpys
    // in order) — grouped as (base1 + base2) + prod, matching
    // `a.add(&c).add(&s.matmul(&dm))`.
    let base = &args.num_base.row(i)[..width];
    #[allow(clippy::assign_op_pattern)] // written as (base + prod) to mirror the chain
    match args.num_base2 {
        Some(b2) => {
            for ((o, &b), &b2v) in num_row.iter_mut().zip(base).zip(&b2.row(i)[..width]) {
                *o = (b + b2v) + *o;
            }
        }
        None => {
            for (o, &b) in num_row.iter_mut().zip(base) {
                *o = b + *o;
            }
        }
    }
    for &(c, m) in args.num_axpys {
        for (o, &b) in num_row.iter_mut().zip(&m.row(i)[..width]) {
            *o += c * b;
        }
    }
    // den += degree / proximal terms.
    if let Some((c, vec)) = args.den_row_scale {
        let vi = vec[i];
        for (o, &sv) in den_row.iter_mut().zip(s_old.iter()) {
            *o += c * (sv * vi);
        }
    }
    if args.den_self_scale != 0.0 {
        for (o, &sv) in den_row.iter_mut().zip(s_old.iter()) {
            *o += args.den_self_scale * sv;
        }
    }
    // The exact arithmetic of `mult_update`.
    for (j, sv) in s_row.iter_mut().enumerate() {
        let ratio = num_row[j].max(0.0) / (den_row[j].max(0.0) + EPS);
        let updated = s_old[j] * ratio.sqrt();
        *sv = if updated.is_finite() {
            updated.max(FACTOR_FLOOR)
        } else {
            FACTOR_FLOOR
        };
    }
}

simd_kernel! {
    /// One row chunk of the fused update. With `partial` present, each
    /// updated row's outer product also accumulates into it through
    /// `gram_into`'s row loop. The paper's ranks are so thin that per-row
    /// overhead dominates the arithmetic, so at `k ∈ {2, 3, 10}`
    /// [`fused_update_chunk_w`] runs the same rows with compile-time
    /// widths and register-resident operands.
    fn fused_update_chunk(
        args: &FusedUpdateArgs<'_>,
        k: usize,
        r0: usize,
        chunk: &mut [f64],
        partial: Option<&mut [f64]>,
    ) {
        match k {
            2 => fused_update_chunk_w::<2>(args, r0, chunk, partial),
            3 => fused_update_chunk_w::<3>(args, r0, chunk, partial),
            10 => fused_update_chunk_w::<10>(args, r0, chunk, partial),
            _ => {
                let mut stack = [0.0f64; 3 * MAX_FUSED_K];
                let mut heap; // cold fallback for very wide factors
                let scratch: &mut [f64] = if k <= MAX_FUSED_K {
                    &mut stack[..3 * k]
                } else {
                    heap = vec![0.0f64; 3 * k];
                    &mut heap
                };
                let (dm, den_k) = (args.dm.as_slice(), args.den_k.as_slice());
                fused_update_span(args, dm, den_k, k, r0, chunk, partial, scratch);
            }
        }
    }
}

/// [`fused_update_chunk`] at rank `K`: `Δ⁻` and `den_k` are copied into
/// local blocks, the per-row scratch is a local array, and the Gram
/// partial is summed in a local block, loaded and stored once, so the
/// loops have compile-time trip counts and the operands stay in
/// registers.
#[inline(always)]
fn fused_update_chunk_w<const K: usize>(
    args: &FusedUpdateArgs<'_>,
    r0: usize,
    chunk: &mut [f64],
    partial: Option<&mut [f64]>,
) {
    let dm = local_square::<K>(args.dm.as_slice());
    let den_k = local_square::<K>(args.den_k.as_slice());
    let (dm, den_k) = (dm.as_flattened(), den_k.as_flattened());
    let mut scratch = [[0.0f64; K]; 3];
    let scratch = scratch.as_flattened_mut();
    match partial {
        Some(acc) => {
            let mut sum = local_square::<K>(acc);
            let partial = Some(sum.as_flattened_mut());
            fused_update_span(args, dm, den_k, K, r0, chunk, partial, scratch);
            acc.copy_from_slice(sum.as_flattened());
        }
        None => fused_update_span(args, dm, den_k, K, r0, chunk, None, scratch),
    }
}

/// The rows of one chunk through [`fused_update_one_row`], each updated
/// row then added to `partial` through [`gram_row`].
/// `scratch` holds the three `k`-wide per-row buffers.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fused_update_span(
    args: &FusedUpdateArgs<'_>,
    dm: &[f64],
    den_k: &[f64],
    k: usize,
    r0: usize,
    chunk: &mut [f64],
    mut partial: Option<&mut [f64]>,
    scratch: &mut [f64],
) {
    let (s_old, rest) = scratch.split_at_mut(k);
    let (num_row, den_row) = rest.split_at_mut(k);
    for (local, s_row) in chunk.chunks_exact_mut(k).enumerate() {
        fused_update_one_row(args, dm, den_k, r0 + local, s_row, s_old, num_row, den_row);
        if let Some(acc) = partial.as_deref_mut() {
            gram_row(acc, s_row);
        }
    }
}

/// `‖X − A·Bᵀ‖²_F` without densifying `A·Bᵀ`:
/// `‖X‖² − 2⟨X, ABᵀ⟩ + tr((AᵀA)(BᵀB))`.
pub fn approx_error_bi(x: &CsrMatrix, a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    assert_eq!(x.rows(), a.rows(), "approx_error_bi: A row mismatch");
    assert_eq!(x.cols(), b.rows(), "approx_error_bi: B row mismatch");
    let x_sq = x.frobenius_sq();
    let cross = x.inner_with_factored(a, b);
    let fit = a.gram().frobenius_inner(&b.gram());
    (x_sq - 2.0 * cross + fit).max(0.0)
}

/// `‖X − S·H·Fᵀ‖²_F` via `A = S·H` then [`approx_error_bi`].
pub fn approx_error_tri(x: &CsrMatrix, s: &DenseMatrix, h: &DenseMatrix, f: &DenseMatrix) -> f64 {
    let a = s.matmul(h);
    approx_error_bi(x, &a, f)
}

/// Graph-regularization energy `tr(SᵀLS)` for `L = D − G` evaluated
/// directly from the sparse adjacency:
/// `tr(SᵀLS) = Σ_i deg_i·‖S_i‖² − Σ_{(i,j)∈G} G_ij·⟨S_i, S_j⟩`.
///
/// Never materializes the Laplacian. For a symmetric `G` this equals
/// `½·ΣΣ G_ij·‖S_i − S_j‖²`.
pub fn laplacian_quad(g: &CsrMatrix, degrees: &[f64], s: &DenseMatrix) -> f64 {
    assert_eq!(g.rows(), g.cols(), "laplacian_quad: G must be square");
    assert_eq!(g.rows(), s.rows(), "laplacian_quad: S row mismatch");
    assert_eq!(
        g.rows(),
        degrees.len(),
        "laplacian_quad: degree length mismatch"
    );
    let mut total = 0.0;
    for (i, &d) in degrees.iter().enumerate() {
        let row = s.row(i);
        total += d * crate::dense::dot(row, row);
    }
    // Edges four at a time: four independent dot lanes (each in exactly
    // `dot`'s order), `total` still accumulating one term per edge in
    // edge order — bit-identical to the plain loop without its serial
    // add-latency chain.
    for i in 0..g.rows() {
        let si = s.row(i);
        let (cols, weights) = g.row_entries(i);
        let mut idx = 0;
        while idx + 4 <= cols.len() {
            let (s0, s1, s2, s3) = (
                s.row(cols[idx] as usize),
                s.row(cols[idx + 1] as usize),
                s.row(cols[idx + 2] as usize),
                s.row(cols[idx + 3] as usize),
            );
            let mut acc = [0.0f64; 4];
            for (t, &av) in si.iter().enumerate() {
                acc[0] += av * s0[t];
                acc[1] += av * s1[t];
                acc[2] += av * s2[t];
                acc[3] += av * s3[t];
            }
            total -= weights[idx] * acc[0];
            total -= weights[idx + 1] * acc[1];
            total -= weights[idx + 2] * acc[2];
            total -= weights[idx + 3] * acc[3];
            idx += 4;
        }
        for (&c, &w) in cols[idx..].iter().zip(weights[idx..].iter()) {
            total -= w * crate::dense::dot(si, s.row(c as usize));
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_pos_neg_reconstructs() {
        let d = DenseMatrix::from_vec(2, 2, vec![1.0, -2.0, 0.0, 3.5]).unwrap();
        let (p, n) = split_pos_neg(&d);
        assert!(p.is_nonnegative() && n.is_nonnegative());
        assert!(p.sub(&n).max_abs_diff(&d) < 1e-15);
        // |Δ| = Δ⁺ + Δ⁻
        assert_eq!(p.add(&n).as_slice(), &[1.0, 2.0, 0.0, 3.5]);
    }

    #[test]
    fn mult_update_fixed_point_when_num_eq_den() {
        let mut s = DenseMatrix::from_vec(1, 3, vec![0.2, 0.5, 0.9]).unwrap();
        let num = DenseMatrix::filled(1, 3, 2.0);
        let den = DenseMatrix::filled(1, 3, 2.0);
        let before = s.clone();
        mult_update(&mut s, &num, &den);
        assert!(s.max_abs_diff(&before) < 1e-9);
    }

    #[test]
    fn mult_update_moves_towards_larger_numerator() {
        let mut s = DenseMatrix::filled(1, 2, 1.0);
        let num = DenseMatrix::from_vec(1, 2, vec![4.0, 1.0]).unwrap();
        let den = DenseMatrix::filled(1, 2, 1.0);
        mult_update(&mut s, &num, &den);
        assert!((s.get(0, 0) - 2.0).abs() < 1e-9);
        assert!((s.get(0, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mult_update_keeps_positivity_floor() {
        let mut s = DenseMatrix::filled(1, 1, 0.5);
        let num = DenseMatrix::zeros(1, 1);
        let den = DenseMatrix::filled(1, 1, 1.0);
        mult_update(&mut s, &num, &den);
        assert!(s.get(0, 0) >= FACTOR_FLOOR);
        assert!(s.get(0, 0) < 1e-6);
    }

    #[test]
    fn approx_error_bi_matches_dense_computation() {
        let x = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 0.5)]).unwrap();
        let a = DenseMatrix::from_vec(3, 2, vec![0.5, 0.1, 0.2, 0.9, 0.3, 0.3]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.2, 0.8]).unwrap();
        let fast = approx_error_bi(&x, &a, &b);
        let dense = x.to_dense().sub(&a.matmul_transpose(&b)).frobenius_sq();
        assert!((fast - dense).abs() < 1e-10, "fast={fast} dense={dense}");
    }

    #[test]
    fn approx_error_tri_matches_dense_computation() {
        let x = CsrMatrix::from_triplets(3, 4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)]).unwrap();
        let s = DenseMatrix::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.5, 0.5]).unwrap();
        let h = DenseMatrix::from_vec(2, 2, vec![1.0, 0.2, 0.1, 1.0]).unwrap();
        let f = DenseMatrix::from_vec(4, 2, vec![0.7, 0.1, 0.1, 0.6, 0.4, 0.4, 0.2, 0.9]).unwrap();
        let fast = approx_error_tri(&x, &s, &h, &f);
        let dense = x
            .to_dense()
            .sub(&s.matmul(&h).matmul_transpose(&f))
            .frobenius_sq();
        assert!((fast - dense).abs() < 1e-10);
    }

    #[test]
    fn laplacian_quad_matches_pairwise_definition() {
        // Path graph 0-1-2 with weights 2 and 3.
        let g =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 2.0), (1, 2, 3.0), (2, 1, 3.0)])
                .unwrap();
        let deg = g.row_sums();
        let s = DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let fast = laplacian_quad(&g, &deg, &s);
        // ½ ΣΣ G_ij ||s_i − s_j||²  (each undirected edge counted twice)
        let mut expected = 0.0;
        for (i, j, w) in g.iter() {
            let d0 = s.get(i, 0) - s.get(j, 0);
            let d1 = s.get(i, 1) - s.get(j, 1);
            expected += 0.5 * w * (d0 * d0 + d1 * d1);
        }
        assert!(
            (fast - expected).abs() < 1e-12,
            "fast={fast} expected={expected}"
        );
    }

    #[test]
    fn laplacian_quad_zero_for_constant_rows() {
        let g =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
                .unwrap();
        let deg = g.row_sums();
        let s = DenseMatrix::filled(3, 2, 0.7);
        assert!(laplacian_quad(&g, &deg, &s).abs() < 1e-12);
    }
}
