//! The thin-rank kernels against reference loops written here, in the
//! summation order the kernels document: output rows independent,
//! reductions over rows ascending within fixed [`REDUCE_BLOCK_ROWS`]
//! blocks whose partials fold in block order, exact zeros of the left
//! factor skipped, and Gram matrices summed over the upper triangle and
//! then mirrored. Every comparison is on bits (`==`), not a tolerance.
//!
//! The widths cover the monomorphized ranks (3, 10) and k = 2 and 4,
//! which take the runtime-width bodies. Inputs carry exact zeros, a left
//! factor narrower or wider than the right one, and row counts past one
//! reduction block, at pool budgets 1 and 2.

use std::sync::Mutex;

use tgs_linalg::{
    mult_update_from_parts, set_parallel_work_threshold, set_pool_threads_override, CscView,
    CsrMatrix, DenseMatrix, EPS, FACTOR_FLOOR, REDUCE_BLOCK_ROWS,
};

/// Serializes the tests: the pool budget and work threshold are
/// process-global.
static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 4] = [2, 3, 4, 10];
const ROWS: [usize; 3] = [5, REDUCE_BLOCK_ROWS + 37, 2 * REDUCE_BLOCK_ROWS + 1];

/// Runs `check` at pool budgets 1 and 2 (work threshold 1, so every
/// kernel takes its parallel path where it has one).
fn at_every_budget(mut check: impl FnMut(&str)) {
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let prev_w = set_parallel_work_threshold(1);
    for threads in [1, 2] {
        let prev_t = set_pool_threads_override(Some(threads));
        check(&format!("threads={threads}"));
        set_pool_threads_override(prev_t);
    }
    set_parallel_work_threshold(prev_w);
}

/// Deterministic fill: magnitudes spread over several binades (so any
/// change of summation order changes bits), about one entry in five an
/// exact zero, negative entries when `signed`.
fn fill(rows: usize, cols: usize, seed: u64, signed: bool) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (state >> 60).is_multiple_of(5) {
            return 0.0;
        }
        let mantissa = ((state >> 11) as f64) / (1u64 << 53) as f64;
        let exp = ((state >> 3) % 9) as i32 - 4;
        let v = (mantissa + 0.5) * 2f64.powi(exp);
        if signed && state & 4 != 0 {
            -v
        } else {
            v
        }
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Sums `add_row(i, partial)` over rows ascending, in fixed
/// `REDUCE_BLOCK_ROWS` blocks whose partials fold into the result in
/// block order.
fn blocked(rows: usize, len: usize, mut add_row: impl FnMut(usize, &mut [f64])) -> Vec<f64> {
    let mut acc = vec![0.0; len];
    for start in (0..rows).step_by(REDUCE_BLOCK_ROWS) {
        let mut partial = vec![0.0; len];
        for i in start..(start + REDUCE_BLOCK_ROWS).min(rows) {
            add_row(i, &mut partial);
        }
        for (a, p) in acc.iter_mut().zip(&partial) {
            *a += p;
        }
    }
    acc
}

/// `a · b`: each output entry sums `a[i][t]·b[t][j]` over `t`
/// ascending, skipping exact zeros of `a`.
fn ref_matmul(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f64> {
    let (rows, inner, width) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0; rows * width];
    for i in 0..rows {
        for t in 0..inner {
            let av = a.get(i, t);
            if av == 0.0 {
                continue;
            }
            for j in 0..width {
                out[i * width + j] += av * b.get(t, j);
            }
        }
    }
    out
}

/// `a · bᵀ`: each output sums `a[i][t]·b[j][t]` over `t` ascending, with
/// no zero skip.
fn ref_matmul_transpose(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f64> {
    let (rows, width) = (a.rows(), b.rows());
    let mut out = vec![0.0; rows * width];
    for i in 0..rows {
        for j in 0..width {
            for t in 0..a.cols() {
                out[i * width + j] += a.get(i, t) * b.get(j, t);
            }
        }
    }
    out
}

/// `aᵀ · b` as a blocked row reduction, skipping exact zeros of `a`.
fn ref_transpose_matmul(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f64> {
    let (left, width) = (a.cols(), b.cols());
    blocked(a.rows(), left * width, |i, acc| {
        for p in 0..left {
            let av = a.get(i, p);
            if av == 0.0 {
                continue;
            }
            for j in 0..width {
                acc[p * width + j] += av * b.get(i, j);
            }
        }
    })
}

/// `aᵀ · a`: the upper triangle as a blocked row reduction (exact zeros
/// skipped), then mirrored.
fn ref_gram(a: &DenseMatrix) -> Vec<f64> {
    let k = a.cols();
    let mut g = blocked(a.rows(), k * k, |i, acc| {
        for p in 0..k {
            let rp = a.get(i, p);
            if rp == 0.0 {
                continue;
            }
            for q in p..k {
                acc[p * k + q] += rp * a.get(i, q);
            }
        }
    });
    for p in 0..k {
        for q in 0..p {
            g[p * k + q] = g[q * k + p];
        }
    }
    g
}

/// CSR × dense: each output row sums `v·d[c]` over the row's entries in
/// column order.
fn ref_spmm(x: &CsrMatrix, d: &DenseMatrix) -> Vec<f64> {
    let width = d.cols();
    let mut out = vec![0.0; x.rows() * width];
    for r in 0..x.rows() {
        for (c, v) in x.iter_row(r) {
            for j in 0..width {
                out[r * width + j] += v * d.get(c, j);
            }
        }
    }
    out
}

#[test]
fn matmul_into_matches_reference() {
    at_every_budget(|ctx| {
        for k in WIDTHS {
            for rows in ROWS {
                // inner dimension narrower than, equal to and wider than k
                for inner in [1, k, k + 2] {
                    let a = fill(rows, inner, (rows * 31 + inner) as u64, true);
                    let b = fill(inner, k, k as u64, true);
                    let mut out = DenseMatrix::default();
                    a.matmul_into(&b, &mut out);
                    assert_eq!(
                        bits(out.as_slice()),
                        bits(&ref_matmul(&a, &b)),
                        "{ctx} k={k} rows={rows} inner={inner}"
                    );
                }
            }
        }
    });
}

#[test]
fn matmul_transpose_into_matches_reference() {
    at_every_budget(|ctx| {
        for k in WIDTHS {
            for rows in ROWS {
                // Non-negative inputs: the kernel starts its four-output
                // tiles at +0 and its remaining dots at −0, which differ
                // only when every product is −0.
                let a = fill(rows, k, rows as u64, false);
                // fewer than, exactly and more than one four-output tile
                for width in [1, 4, k + 5] {
                    let b = fill(width, k, (width * 13 + k) as u64, false);
                    let mut out = DenseMatrix::default();
                    a.matmul_transpose_into(&b, &mut out);
                    assert_eq!(
                        bits(out.as_slice()),
                        bits(&ref_matmul_transpose(&a, &b)),
                        "{ctx} k={k} rows={rows} width={width}"
                    );
                }
            }
        }
    });
}

#[test]
fn transpose_products_match_reference() {
    at_every_budget(|ctx| {
        for k in WIDTHS {
            for rows in ROWS {
                let x = fill(rows, k, 2, true);
                let y = fill(rows, k, 3, true);
                // left factor narrower than, equal to and wider than k
                for left in [k - 1, k, k + 1] {
                    let s = fill(rows, left, (rows + left) as u64, true);
                    let mut out = DenseMatrix::default();
                    s.transpose_matmul_into(&x, &mut out);
                    let want_x = ref_transpose_matmul(&s, &x);
                    assert_eq!(
                        bits(out.as_slice()),
                        bits(&want_x),
                        "{ctx} transpose_matmul k={k} rows={rows} left={left}"
                    );
                    let (mut ox, mut oy) = (DenseMatrix::default(), DenseMatrix::default());
                    s.transpose_matmul_pair_into(&x, &y, &mut ox, &mut oy);
                    assert_eq!(
                        bits(ox.as_slice()),
                        bits(&want_x),
                        "{ctx} pair x k={k} rows={rows} left={left}"
                    );
                    assert_eq!(
                        bits(oy.as_slice()),
                        bits(&ref_transpose_matmul(&s, &y)),
                        "{ctx} pair y k={k} rows={rows} left={left}"
                    );
                }
            }
        }
    });
}

#[test]
fn gram_kernels_match_reference() {
    at_every_budget(|ctx| {
        for k in WIDTHS {
            for rows in ROWS {
                let a = fill(rows, k, (rows * 7 + k) as u64, true);
                let mut g = DenseMatrix::default();
                a.gram_into(&mut g);
                assert_eq!(
                    bits(g.as_slice()),
                    bits(&ref_gram(&a)),
                    "{ctx} gram k={k} rows={rows}"
                );
                // Fused scatter + Gram: every third row overwritten.
                let listed: Vec<usize> = (0..rows).step_by(3).collect();
                let block = fill(listed.len(), k, 11, true);
                let mut scattered = a.clone();
                scattered.scatter_rows_with_gram(&listed, &block, &mut g);
                let mut want = a.clone();
                for (src, &dst) in listed.iter().enumerate() {
                    want.copy_row_from(dst, &block, src);
                }
                assert_eq!(scattered, want, "{ctx} scatter k={k} rows={rows}");
                assert_eq!(
                    bits(g.as_slice()),
                    bits(&ref_gram(&want)),
                    "{ctx} scatter gram k={k} rows={rows}"
                );
            }
        }
    });
}

#[test]
fn spmm_matches_reference() {
    at_every_budget(|ctx| {
        for k in WIDTHS {
            for rows in ROWS {
                let cols = 300;
                // ~6 entries per row, duplicates summed by the builder;
                // `d` carries exact zeros (CSR stores none)
                let dense = fill(rows, cols, rows as u64, true);
                let trip: Vec<(usize, usize, f64)> = (0..rows)
                    .flat_map(|r| {
                        let dense = &dense;
                        (0..6).map(move |e| (r, (r * 37 + e * 53) % cols, dense.get(r, e)))
                    })
                    .collect();
                let x = CsrMatrix::from_triplets(rows, cols, &trip).expect("in-bounds triplets");
                let d = fill(cols, k, k as u64, true);
                let mut out = DenseMatrix::default();
                x.mul_dense_into(&d, &mut out);
                assert_eq!(
                    bits(out.as_slice()),
                    bits(&ref_spmm(&x, &d)),
                    "{ctx} spmm k={k} rows={rows}"
                );
                // the cached-transpose gather runs the same kernel
                let dt = fill(rows, k, 5, true);
                CscView::of(&x).transpose_mul_dense_into(&dt, &mut out);
                assert_eq!(
                    bits(out.as_slice()),
                    bits(&ref_spmm(&x.transpose(), &dt)),
                    "{ctx} cached transpose spmm k={k} rows={rows}"
                );
            }
        }
    });
}

/// The fused update's documented arithmetic for one row `i`:
/// `num = (base + base2) + S·Δ⁻ + Σ cᵢ·Mᵢ`, `den = S·den_k + c·deg·S +
/// c_self·S` (both products skipping exact zeros of `S`), then the
/// floored `S ∘ √(num / (den + EPS))`.
#[allow(clippy::too_many_arguments)]
fn ref_fused_row(
    s_old: &[f64],
    i: usize,
    base: &DenseMatrix,
    base2: Option<&DenseMatrix>,
    dm: &DenseMatrix,
    den_k: &DenseMatrix,
    axpys: &[(f64, &DenseMatrix)],
    row_scale: Option<(f64, &[f64])>,
    self_scale: f64,
) -> Vec<f64> {
    let k = s_old.len();
    let (mut num, mut den) = (vec![0.0; k], vec![0.0; k]);
    for (a, &sa) in s_old.iter().enumerate() {
        if sa == 0.0 {
            continue;
        }
        for j in 0..k {
            num[j] += sa * dm.get(a, j);
            den[j] += sa * den_k.get(a, j);
        }
    }
    for j in 0..k {
        let b = match base2 {
            Some(b2) => base.get(i, j) + b2.get(i, j),
            None => base.get(i, j),
        };
        num[j] += b;
        for &(c, m) in axpys {
            num[j] += c * m.get(i, j);
        }
        if let Some((c, deg)) = row_scale {
            den[j] += c * (s_old[j] * deg[i]);
        }
        if self_scale != 0.0 {
            den[j] += self_scale * s_old[j];
        }
    }
    (0..k)
        .map(|j| {
            let updated = s_old[j] * (num[j].max(0.0) / (den[j].max(0.0) + EPS)).sqrt();
            if updated.is_finite() {
                updated.max(FACTOR_FLOOR)
            } else {
                FACTOR_FLOOR
            }
        })
        .collect()
}

/// `(num_base2, den_row_scale, den_self_scale)` of one fused-update call.
type FusedShape<'a> = (Option<&'a DenseMatrix>, Option<(f64, &'a [f64])>, f64);

#[test]
fn fused_update_matches_reference() {
    at_every_budget(|ctx| {
        for k in WIDTHS {
            for rows in ROWS {
                let s0 = fill(rows, k, (rows + k) as u64, false);
                let base = fill(rows, k, 21, false);
                let base2 = fill(rows, k, 22, false);
                let dm = fill(k, k, 23, false);
                let den_k = fill(k, k, 24, false);
                let m1 = fill(rows, k, 25, false);
                let m2 = fill(rows, k, 26, false);
                let deg: Vec<f64> = fill(rows, 1, 27, false).as_slice().to_vec();
                let axpys = [(0.4, &m1), (0.7, &m2)];
                // the Su shape (degree term) and the Sf shape (base2,
                // proximal term), each with and without the fused Gram
                let shapes: [FusedShape; 2] =
                    [(None, Some((0.3, &deg)), 0.0), (Some(&base2), None, 0.6)];
                for (b2, row_scale, self_scale) in shapes {
                    let mut want = s0.clone();
                    for i in 0..rows {
                        let row = ref_fused_row(
                            s0.row(i),
                            i,
                            &base,
                            b2,
                            &dm,
                            &den_k,
                            &axpys,
                            row_scale,
                            self_scale,
                        );
                        want.row_mut(i).copy_from_slice(&row);
                    }
                    for fuse_gram in [false, true] {
                        let mut s = s0.clone();
                        let mut g = DenseMatrix::default();
                        mult_update_from_parts(
                            &mut s,
                            &base,
                            b2,
                            &dm,
                            &den_k,
                            &axpys,
                            row_scale,
                            self_scale,
                            fuse_gram.then_some(&mut g),
                        );
                        let label = format!(
                            "{ctx} k={k} rows={rows} base2={} gram={fuse_gram}",
                            b2.is_some()
                        );
                        assert_eq!(bits(s.as_slice()), bits(want.as_slice()), "{label}");
                        if fuse_gram {
                            assert_eq!(bits(g.as_slice()), bits(&ref_gram(&want)), "{label}");
                        }
                    }
                }
            }
        }
    });
}

/// Zero skips are invisible on finite data (`x + 0·b == x`), so this
/// makes them observable: wherever the left factor is an exact zero the
/// right factor is infinite, and a kernel that multiplied instead of
/// skipping would turn the affected outputs into NaN.
#[test]
fn exact_zero_skips_hide_infinities() {
    at_every_budget(|ctx| {
        for k in WIDTHS {
            for rows in [5, REDUCE_BLOCK_ROWS + 37] {
                // column 0 of the left factor is all zeros; row 0 (for
                // matmul) and column 0 (otherwise) of the right one is +∞
                let mut a = fill(rows, k, 31, false);
                (0..rows).for_each(|i| a.set(i, 0, 0.0));
                let mut b = fill(k, k, 32, false);
                (0..k).for_each(|j| b.set(0, j, f64::INFINITY));
                let mut out = DenseMatrix::default();
                a.matmul_into(&b, &mut out);
                assert!(out.as_slice().iter().all(|v| !v.is_nan()), "{ctx} matmul");
                assert_eq!(bits(out.as_slice()), bits(&ref_matmul(&a, &b)), "{ctx}");

                let mut x = fill(rows, k, 33, false);
                (0..rows).for_each(|i| x.set(i, 1, f64::INFINITY));
                let mut g = a.clone();
                (0..rows).for_each(|i| g.set(i, 1, f64::INFINITY));
                let (mut ox, mut oy) = (DenseMatrix::default(), DenseMatrix::default());
                a.transpose_matmul_pair_into(&x, &x, &mut ox, &mut oy);
                g.gram_into(&mut out);
                for (name, got, want) in [
                    ("pair", &ox, ref_transpose_matmul(&a, &x)),
                    ("gram", &out, ref_gram(&g)),
                ] {
                    // row 0 sums only skipped terms
                    assert!(got.row(0).iter().all(|&v| v == 0.0), "{ctx} {name} k={k}");
                    assert_eq!(bits(got.as_slice()), bits(&want), "{ctx} {name} k={k}");
                }

                // fused update: S's zero column skips Δ⁻'s infinite row
                let mut s = a.clone();
                let base = DenseMatrix::filled(rows, k, 1.0); // num > 0
                let den_k = fill(k, k, 35, false);
                mult_update_from_parts(&mut s, &base, None, &b, &den_k, &[], None, 0.0, None);
                for i in 0..rows {
                    let want = ref_fused_row(a.row(i), i, &base, None, &b, &den_k, &[], None, 0.0);
                    assert_eq!(bits(s.row(i)), bits(&want), "{ctx} fused k={k} row {i}");
                    // a multiplied ∞ would floor every entry via NaN
                    let mut live = (1..k).filter(|&j| a.get(i, j) != 0.0);
                    assert!(live.all(|j| s.get(i, j) > FACTOR_FLOOR), "{ctx}");
                }
            }
        }
    });
}
