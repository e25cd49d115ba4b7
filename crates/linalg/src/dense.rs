//! Row-major dense matrices.
//!
//! The tri-clustering algorithm only ever materializes *thin* dense matrices
//! (`n×k`, `m×k`, `l×k` with `k ∈ {2,3}`) and tiny `k×k` association
//! matrices, so a simple contiguous row-major layout is both cache-friendly
//! and sufficient. All hot kernels operate on row slices to let the compiler
//! elide bounds checks.

use crate::simd::simd_kernel;
use crate::LinalgError;

/// A dense row-major `rows × cols` matrix of `f64`. `Default` is the
/// empty `0 × 0` matrix (used for lazily-sized workspace buffers).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (rows, cols),
                got: (data.len(), 1),
                op: "DenseMatrix::from_vec",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Entry accessor. Panics when out of bounds (debug-friendly hot path).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Rows `[r0, r1)` packed row-major, for a kernel that has matched
    /// `width` against the column count (at a thin rank, a compile-time
    /// constant, so every row offset is too).
    #[inline(always)]
    fn span(&self, r0: usize, r1: usize, width: usize) -> &[f64] {
        debug_assert_eq!(width, self.cols);
        &self.data[r0 * width..r1 * width]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let r = self.row(i);
            for (j, &v) in r.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Reshapes to `rows × cols` and zero-fills, reusing the existing
    /// allocation whenever its capacity suffices. This is how the solver
    /// workspaces keep per-sweep buffers allocation-free after warm-up.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `other` into `self`, reusing the allocation when possible.
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Dense matrix product `self · other`.
    ///
    /// Uses the i-k-j loop order so the inner loop streams over contiguous
    /// rows of `other` and the output.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::default(); // sized (once) by matmul_into
        self.matmul_into(other, &mut out);
        out
    }

    /// In-place variant of [`DenseMatrix::matmul`]: writes `self · other`
    /// into `out` (reshaped as needed), row-parallel on large inputs and
    /// SIMD-dispatched (see [`crate::simd`]; bit-identical across tiers).
    pub fn matmul_into(&self, other: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: ({}, {}) x ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_zeroed(self.rows, other.cols);
        matmul_into_kernel(self, other, out);
    }

    /// Gram matrix `selfᵀ · self` (`cols × cols`).
    ///
    /// The workhorse for `SᵀS` terms: one pass over the rows, accumulating
    /// rank-1 outer products, exploiting symmetry.
    pub fn gram(&self) -> DenseMatrix {
        let mut out = DenseMatrix::default(); // sized (once) by gram_into
        self.gram_into(&mut out);
        out
    }

    /// In-place variant of [`DenseMatrix::gram`]: writes `selfᵀ·self` into
    /// `out` (reshaped as needed), with a chunked parallel reduction on
    /// large inputs. SIMD-dispatched; bit-identical across tiers.
    pub fn gram_into(&self, out: &mut DenseMatrix) {
        out.resize_zeroed(self.cols, self.cols);
        gram_into_kernel(self, out);
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn transpose_matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::default(); // sized (once) by the _into
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// In-place variant of [`DenseMatrix::transpose_matmul`]: writes
    /// `selfᵀ · other` into `out` (reshaped as needed), with a chunked
    /// parallel reduction on large inputs. SIMD-dispatched; bit-identical
    /// across tiers.
    pub fn transpose_matmul_into(&self, other: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: ({}, {})ᵀ x ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_zeroed(self.cols, other.cols);
        transpose_matmul_into_kernel(self, other, out);
    }

    /// Computes `selfᵀ · x` and `selfᵀ · y` in a single pass over the
    /// rows of all three matrices (`x` and `y` share `self`'s row count).
    ///
    /// Bit-identical to two separate [`DenseMatrix::transpose_matmul`]
    /// calls — each output element accumulates contributions in the same
    /// (increasing row) order — but reads `self` once instead of twice.
    /// This is the shape of every Δ computation in the update sweeps
    /// (`SpᵀA + SpᵀC`, `SuᵀB + SuᵀD`, `SfᵀE₁ + SfᵀE₂`).
    pub fn transpose_matmul_pair_into(
        &self,
        x: &DenseMatrix,
        y: &DenseMatrix,
        out_x: &mut DenseMatrix,
        out_y: &mut DenseMatrix,
    ) {
        assert_eq!(self.rows, x.rows(), "transpose_matmul_pair: x row mismatch");
        assert_eq!(self.rows, y.rows(), "transpose_matmul_pair: y row mismatch");
        assert_eq!(
            x.cols(),
            y.cols(),
            "transpose_matmul_pair: x/y width mismatch"
        );
        let width = x.cols();
        out_x.resize_zeroed(self.cols, width);
        out_y.resize_zeroed(self.cols, width);
        transpose_matmul_pair_kernel(self, x, y, out_x, out_y);
    }

    /// `self · otherᵀ`.
    pub fn matmul_transpose(&self, other: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::default(); // sized (once) by the _into
        self.matmul_transpose_into(other, &mut out);
        out
    }

    /// In-place variant of [`DenseMatrix::matmul_transpose`]: writes
    /// `self · otherᵀ` into `out` (reshaped as needed), row-parallel on
    /// large inputs. SIMD-dispatched; bit-identical across tiers.
    pub fn matmul_transpose_into(&self, other: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: ({}, {}) x ({}, {})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_zeroed(self.rows, other.rows);
        matmul_transpose_into_kernel(self, other, out);
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise sum.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// In-place element-wise addition: `self += other`.
    pub fn add_assign(&mut self, other: &DenseMatrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        add_assign_kernel(crate::simd::active_tier(), &mut self.data, &other.data);
    }

    /// In-place element-wise subtraction: `self -= other`.
    pub fn sub_assign(&mut self, other: &DenseMatrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        sub_assign_kernel(crate::simd::active_tier(), &mut self.data, &other.data);
    }

    /// In-place `self -= scale * other`, with the product grouped as
    /// `scale * b` per entry — the same floating-point association as
    /// `self.sub(&other.scale(scale))`, so fused call sites reproduce the
    /// allocating chain bit-for-bit.
    pub fn sub_scaled_assign(&mut self, scale: f64, other: &DenseMatrix) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "sub_scaled_assign shape mismatch"
        );
        sub_scaled_assign_kernel(
            crate::simd::active_tier(),
            &mut self.data,
            scale,
            &other.data,
        );
    }

    /// In-place scalar multiplication (alias of
    /// [`DenseMatrix::scale_in_place`], named for symmetry with the other
    /// `_assign` kernels).
    pub fn scale_assign(&mut self, scalar: f64) {
        self.scale_in_place(scalar);
    }

    /// In-place element-wise addition of `scale * other`.
    pub fn axpy(&mut self, scale: f64, other: &DenseMatrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        axpy_kernel(
            crate::simd::active_tier(),
            &mut self.data,
            scale,
            &other.data,
        );
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f64) -> DenseMatrix {
        self.map(|v| v * scalar)
    }

    /// In-place scalar multiplication.
    pub fn scale_in_place(&mut self, scalar: f64) {
        scale_kernel(crate::simd::active_tier(), &mut self.data, scalar);
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    fn zip_with(&self, other: &DenseMatrix, f: impl Fn(f64, f64) -> f64) -> DenseMatrix {
        assert_eq!(self.shape(), other.shape(), "element-wise shape mismatch");
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Squared Frobenius norm `‖M‖²_F`.
    pub fn frobenius_sq(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Frobenius norm `‖M‖_F`.
    pub fn frobenius(&self) -> f64 {
        self.frobenius_sq().sqrt()
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Largest absolute difference against `other` (convergence checks).
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Frobenius inner product `⟨self, other⟩`.
    pub fn frobenius_inner(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "frobenius_inner shape mismatch"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Index of the largest entry in each row (ties broken towards the
    /// lowest index). This is how soft cluster memberships become labels.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Normalizes each row to sum to one (rows summing to zero are left as
    /// a uniform distribution).
    pub fn normalize_rows_l1(&mut self) {
        let k = self.cols;
        if k == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(k) {
            let s: f64 = row.iter().sum();
            if s > 0.0 {
                for v in row.iter_mut() {
                    *v /= s;
                }
            } else {
                let u = 1.0 / k as f64;
                for v in row.iter_mut() {
                    *v = u;
                }
            }
        }
    }

    /// Clamps all entries below `min` up to `min` (non-negativity guard).
    pub fn clamp_min(&mut self, min: f64) {
        for v in &mut self.data {
            if *v < min {
                *v = min;
            }
        }
    }

    /// True when every entry is finite and `>= 0`.
    pub fn is_nonnegative(&self) -> bool {
        self.data.iter().all(|&v| v.is_finite() && v >= 0.0)
    }

    /// Copies row `src` of `other` into row `dst` of `self`.
    pub fn copy_row_from(&mut self, dst: usize, other: &DenseMatrix, src: usize) {
        assert_eq!(self.cols, other.cols, "copy_row_from column mismatch");
        let k = self.cols;
        self.data[dst * k..(dst + 1) * k].copy_from_slice(other.row(src));
    }

    /// Vertically stacks `self` on top of `other`.
    pub fn vstack(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        DenseMatrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Gathers the given rows into a new matrix.
    pub fn select_rows(&self, rows: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::default(); // sized (once) by the _into
        self.select_rows_into(rows, &mut out);
        out
    }

    /// In-place variant of [`DenseMatrix::select_rows`]: gathers into
    /// `out`, reusing its allocation when capacity suffices.
    pub fn select_rows_into(&self, rows: &[usize], out: &mut DenseMatrix) {
        out.resize_zeroed(rows.len(), self.cols);
        for (dst, &src) in rows.iter().enumerate() {
            out.copy_row_from(dst, self, src);
        }
    }

    /// Scatters the rows of `block` back: row `i` of `block` overwrites
    /// row `rows[i]` of `self` (inverse of [`DenseMatrix::select_rows`]).
    pub fn scatter_rows_from(&mut self, rows: &[usize], block: &DenseMatrix) {
        assert_eq!(
            rows.len(),
            block.rows(),
            "scatter_rows_from row-count mismatch"
        );
        for (src, &dst) in rows.iter().enumerate() {
            self.copy_row_from(dst, block, src);
        }
    }

    /// Fused scatter + Gram: row `i` of `block` overwrites row `rows[i]`
    /// of `self` (exactly [`DenseMatrix::scatter_rows_from`]) while one
    /// blocked pass accumulates `selfᵀ·self` **post-scatter** into
    /// `gram`. Bit-identical to scattering first and calling
    /// [`DenseMatrix::gram_into`] afterwards, at every thread count
    /// (property-tested): the pass reuses `reduce_rows`'s fixed blocks
    /// and block-ordered fold, and each block overwrites the rows it
    /// owns before reading them — so the gather-order problem that kept
    /// the online `Su` block rules out of the gram-in-update fusion does
    /// not arise (the reduction runs in full-matrix row order, not
    /// gather order). `rows` must be strictly ascending (the online
    /// solver's row partitions are).
    pub fn scatter_rows_with_gram(
        &mut self,
        rows: &[usize],
        block: &DenseMatrix,
        gram: &mut DenseMatrix,
    ) {
        assert_eq!(
            rows.len(),
            block.rows(),
            "scatter_rows_with_gram row-count mismatch"
        );
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "scatter rows must be strictly ascending"
        );
        if let Some(&last) = rows.last() {
            assert!(last < self.rows, "scatter row {last} out of bounds");
            assert_eq!(
                block.cols(),
                self.cols,
                "scatter_rows_with_gram width mismatch"
            );
        }
        gram.resize_zeroed(self.cols, self.cols);
        scatter_gram_kernel(self, rows, block, gram);
    }
}

// --- SIMD-dispatched hot loops (see `crate::simd`) ---
//
// Each kernel below is the scalar body of the corresponding public
// method, re-instantiated under runtime-selected `target_feature`
// wrappers. Every tier runs the same operations in the same order, so
// results are bit-identical (property-tested in `tests/simd_parity.rs`;
// the order itself is pinned by `tests/reference_order.rs`); shape
// checks and output sizing stay in the public methods. The tier is
// resolved once on the calling thread and passed into the row-parallel
// chunk closures, so worker threads run the caller's tier (including
// test overrides).

/// Hot loop of [`DenseMatrix::matmul_into`]: row-parallel over output
/// chunks, each chunk dispatched to the active tier.
fn matmul_into_kernel(a: &DenseMatrix, other: &DenseMatrix, out: &mut DenseMatrix) {
    let tier = crate::simd::active_tier();
    let width = other.cols;
    let work = a.rows * a.cols * width;
    crate::parallel::for_each_row_chunk(a.rows, work, &mut out.data, width, |r0, chunk| {
        matmul_chunk(tier, a, other, r0, chunk);
    });
}

simd_kernel! {
    /// One output-row chunk of `matmul_into` (i-k-j order, zero-skip).
    fn matmul_chunk(a: &DenseMatrix, other: &DenseMatrix, r0: usize, chunk: &mut [f64]) {
        match (other.rows, other.cols) {
            (2, 2) => matmul_chunk_w::<2>(a, other, r0, chunk),
            (3, 3) => matmul_chunk_w::<3>(a, other, r0, chunk),
            (10, 10) => matmul_chunk_w::<10>(a, other, r0, chunk),
            (_, width) => {
                for (local, out_row) in chunk.chunks_exact_mut(width.max(1)).enumerate() {
                    matmul_row(out_row, a.row(r0 + local), &other.data);
                }
            }
        }
    }
}

/// [`matmul_chunk`] for a `W × W` right factor (the solver's `k × k`
/// products): the factor is copied into a local block and each output
/// row is summed in a `[f64; W]` local, loaded and stored once, so the
/// loops have compile-time trip counts and the partial sums stay in
/// registers.
#[inline(always)]
fn matmul_chunk_w<const W: usize>(
    a: &DenseMatrix,
    other: &DenseMatrix,
    r0: usize,
    chunk: &mut [f64],
) {
    let b = local_square::<W>(&other.data);
    let (a_rows, _) = a.data[r0 * W..].as_chunks::<W>();
    for (a_row, out_row) in a_rows.iter().zip(chunk.as_chunks_mut::<W>().0) {
        let mut sum = *out_row;
        matmul_row(&mut sum, a_row, b.as_flattened());
        *out_row = sum;
    }
}

/// `out_row += a_row · b` for a row-major `b` as wide as `out_row`:
/// `b`'s rows in order, exact zeros of `a_row` skipped.
#[inline(always)]
fn matmul_row(out_row: &mut [f64], a_row: &[f64], b: &[f64]) {
    for (&av, b_row) in a_row.iter().zip(b.chunks_exact(out_row.len())) {
        if av == 0.0 {
            continue;
        }
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
}

/// A row-major `W × W` matrix copied into a local block.
#[inline(always)]
pub(crate) fn local_square<const W: usize>(m: &[f64]) -> [[f64; W]; W] {
    let mut block = [[0.0; W]; W];
    block.as_flattened_mut().copy_from_slice(m);
    block
}

/// Hot loop of [`DenseMatrix::gram_into`]: blocked parallel reduction,
/// each row range dispatched to the active tier, then the mirror.
fn gram_into_kernel(a: &DenseMatrix, out: &mut DenseMatrix) {
    let tier = crate::simd::active_tier();
    let k = a.cols;
    let work = a.rows * k * k;
    crate::parallel::reduce_rows(a.rows, work, &mut out.data, |r0, r1, acc| {
        gram_rows(tier, a, r0, r1, acc);
    });
    // mirror the upper triangle
    for p in 0..k {
        for q in (p + 1)..k {
            out.data[q * k + p] = out.data[p * k + q];
        }
    }
}

simd_kernel! {
    /// Rows `[r0, r1)` of the Gram reduction: symmetric rank-1
    /// accumulation over the upper triangle (see [`gram_span`]).
    fn gram_rows(a: &DenseMatrix, r0: usize, r1: usize, acc: &mut [f64]) {
        gram_span(a.span(r0, r1, a.cols), a.cols, acc);
    }
}

/// Gram accumulation of the `k`-wide rows packed in `rows` into the
/// `k × k` accumulator `acc`: rows ascending, each through [`gram_row`].
#[inline(always)]
fn gram_span(rows: &[f64], k: usize, acc: &mut [f64]) {
    match k {
        2 => gram_span_w::<2>(rows, acc),
        3 => gram_span_w::<3>(rows, acc),
        10 => gram_span_w::<10>(rows, acc),
        _ => gram_add_rows(acc, rows, k),
    }
}

/// [`gram_span`] at width `W`: the `W × W` block is summed in a local,
/// loaded and stored once, so the loops have compile-time trip counts
/// and the partial sums stay in registers instead of being stored back
/// to the slice after every step (same operations in the same order).
#[inline(always)]
fn gram_span_w<const W: usize>(rows: &[f64], acc: &mut [f64]) {
    let mut sum = local_square::<W>(acc);
    gram_add_rows(sum.as_flattened_mut(), rows, W);
    acc.copy_from_slice(sum.as_flattened());
}

#[inline(always)]
fn gram_add_rows(acc: &mut [f64], rows: &[f64], k: usize) {
    for row in rows.chunks_exact(k.max(1)) {
        gram_row(acc, row);
    }
}

/// Adds one row's outer product to a row-major `k × k` Gram block
/// (`k = row.len()`): upper triangle only, exact zeros of the row
/// skipped. Every Gram in this crate (including the fused update's)
/// accumulates through this loop, so all of them share one summation
/// order. The triangle is walked via subslices (not `acc[p * k + q]`
/// indexing) so the inner loop is a bounds-check-free lane-ordered axpy.
#[inline(always)]
pub(crate) fn gram_row(acc: &mut [f64], row: &[f64]) {
    let k = row.len();
    for (p, &rp) in row.iter().enumerate() {
        if rp == 0.0 {
            continue;
        }
        let acc_row = &mut acc[p * k + p..(p + 1) * k];
        for (o, &b) in acc_row.iter_mut().zip(row[p..].iter()) {
            *o += rp * b;
        }
    }
}

/// Hot loop of [`DenseMatrix::scatter_rows_with_gram`]: exactly
/// [`gram_into_kernel`]'s blocked reduction, with each block first
/// overwriting the listed rows it owns. The matrix is threaded through
/// as a raw base address because block bodies both write (their own
/// rows, disjoint across blocks) and read (the Gram accumulation) —
/// a shared `&DenseMatrix` could not coexist with those writes.
fn scatter_gram_kernel(
    a: &mut DenseMatrix,
    rows: &[usize],
    block: &DenseMatrix,
    out: &mut DenseMatrix,
) {
    let tier = crate::simd::active_tier();
    let k = a.cols;
    let total_rows = a.rows;
    let work = total_rows * k * k;
    let base = a.data.as_mut_ptr() as usize;
    crate::parallel::reduce_rows(total_rows, work, &mut out.data, |r0, r1, acc| {
        // The listed rows falling in this block's half-open range; they
        // are strictly ascending, so this is a binary-searched subslice.
        let lo = rows.partition_point(|&r| r < r0);
        let hi = rows.partition_point(|&r| r < r1);
        scatter_gram_rows(tier, base, k, block, &rows[lo..hi], lo, r0, r1, acc);
    });
    // mirror the upper triangle
    for p in 0..k {
        for q in (p + 1)..k {
            out.data[q * k + p] = out.data[p * k + q];
        }
    }
}

simd_kernel! {
    /// Rows `[r0, r1)` of the fused pass: scatter the listed rows
    /// (global indices, all inside the range) from `block` rows starting
    /// at `block_off`, then run the Gram accumulation over the whole
    /// range — the same operations in the same order as a scatter
    /// followed by [`gram_rows`].
    fn scatter_gram_rows(
        base: usize,
        k: usize,
        block: &DenseMatrix,
        rows: &[usize],
        block_off: usize,
        r0: usize,
        r1: usize,
        acc: &mut [f64],
    ) {
        for (i, &dst) in rows.iter().enumerate() {
            let src = &block.row(block_off + i)[..k];
            // SAFETY: `dst ∈ [r0, r1)`, the row range owned by this call.
            let dst_row =
                unsafe { std::slice::from_raw_parts_mut((base as *mut f64).add(dst * k), k) };
            dst_row.copy_from_slice(src);
        }
        // SAFETY: rows `[r0, r1)` are this call's owned range (disjoint
        // across reduction blocks), and its scatter writes are done.
        let span =
            unsafe { std::slice::from_raw_parts((base as *const f64).add(r0 * k), (r1 - r0) * k) };
        gram_span(span, k, acc);
    }
}

/// Hot loop of [`DenseMatrix::transpose_matmul_into`].
fn transpose_matmul_into_kernel(a: &DenseMatrix, other: &DenseMatrix, out: &mut DenseMatrix) {
    let tier = crate::simd::active_tier();
    let width = other.cols;
    let work = a.rows * a.cols * width;
    crate::parallel::reduce_rows(a.rows, work, &mut out.data, |r0, r1, acc| {
        transpose_matmul_rows(tier, a, other, r0, r1, acc);
    });
}

simd_kernel! {
    /// Rows `[r0, r1)` of the `selfᵀ·other` reduction: rows ascending,
    /// each through [`add_outer`].
    fn transpose_matmul_rows(
        a: &DenseMatrix,
        other: &DenseMatrix,
        r0: usize,
        r1: usize,
        acc: &mut [f64],
    ) {
        match (a.cols, other.cols) {
            (2, 2) => transpose_matmul_square_w::<2>(a, other, r0, r1, acc),
            (3, 3) => transpose_matmul_square_w::<3>(a, other, r0, r1, acc),
            (10, 10) => transpose_matmul_square_w::<10>(a, other, r0, r1, acc),
            (ka, kb) => transpose_matmul_span(acc, a.span(r0, r1, ka), ka, other.span(r0, r1, kb), kb),
        }
    }
}

/// [`transpose_matmul_rows`] when both factors are `W` wide (every
/// solver call): the `W × W` block is summed in a local, loaded and
/// stored once.
#[inline(always)]
fn transpose_matmul_square_w<const W: usize>(
    a: &DenseMatrix,
    other: &DenseMatrix,
    r0: usize,
    r1: usize,
    acc: &mut [f64],
) {
    let mut sum = local_square::<W>(acc);
    transpose_matmul_span(
        sum.as_flattened_mut(),
        a.span(r0, r1, W),
        W,
        other.span(r0, r1, W),
        W,
    );
    acc.copy_from_slice(sum.as_flattened());
}

#[inline(always)]
fn transpose_matmul_span(acc: &mut [f64], a: &[f64], ka: usize, b: &[f64], kb: usize) {
    for (a_row, b_row) in a.chunks_exact(ka.max(1)).zip(b.chunks_exact(kb.max(1))) {
        add_outer(acc, a_row, b_row);
    }
}

/// `acc += a_rowᵀ · b_row` for a row-major `a_row.len() × b_row.len()`
/// accumulator, exact zeros of `a_row` skipped.
#[inline(always)]
fn add_outer(acc: &mut [f64], a_row: &[f64], b_row: &[f64]) {
    for (&av, out_row) in a_row.iter().zip(acc.chunks_exact_mut(b_row.len())) {
        if av == 0.0 {
            continue;
        }
        for (o, &b) in out_row.iter_mut().zip(b_row) {
            *o += av * b;
        }
    }
}

/// Hot loop of [`DenseMatrix::transpose_matmul_pair_into`]: both
/// accumulators ride in one reduction buffer so the pass stays a single
/// `reduce_rows` call (and a single parallel dispatch).
fn transpose_matmul_pair_kernel(
    s: &DenseMatrix,
    x: &DenseMatrix,
    y: &DenseMatrix,
    out_x: &mut DenseMatrix,
    out_y: &mut DenseMatrix,
) {
    let tier = crate::simd::active_tier();
    let width = x.cols();
    let work = 2 * s.rows * s.cols * width;
    let len = s.cols * width;
    if 2 * len <= crate::parallel::MAX_REDUCE_LEN {
        let mut acc = [0.0f64; crate::parallel::MAX_REDUCE_LEN];
        crate::parallel::reduce_rows(s.rows, work, &mut acc[..2 * len], |r0, r1, acc| {
            let (ax, ay) = acc.split_at_mut(len);
            transpose_matmul_pair_rows(tier, s, x, y, r0, r1, ax, ay);
        });
        out_x.as_mut_slice().copy_from_slice(&acc[..len]);
        out_y.as_mut_slice().copy_from_slice(&acc[len..2 * len]);
    } else {
        // Wide outputs: the accumulators don't fit the shared
        // reduction buffer, so reduce each product separately — same
        // fixed-block summation tree as `transpose_matmul_into`, so
        // the bit-identity contract holds at every width (the fused
        // single-pass saving only applies to thin factors anyway).
        transpose_matmul_into_kernel(s, x, out_x);
        transpose_matmul_into_kernel(s, y, out_y);
        let _ = work;
    }
}

simd_kernel! {
    /// Rows `[r0, r1)` of the fused pair reduction (see [`pair_span`]):
    /// each accumulator sums in exactly [`transpose_matmul_rows`]'s
    /// order.
    fn transpose_matmul_pair_rows(
        s: &DenseMatrix,
        x: &DenseMatrix,
        y: &DenseMatrix,
        r0: usize,
        r1: usize,
        acc_x: &mut [f64],
        acc_y: &mut [f64],
    ) {
        match (s.cols, x.cols) {
            (2, 2) => pair_square_w::<2>(s, x, y, r0, r1, acc_x, acc_y),
            (3, 3) => pair_square_w::<3>(s, x, y, r0, r1, acc_x, acc_y),
            (10, 10) => pair_square_w::<10>(s, x, y, r0, r1, acc_x, acc_y),
            (ks, kx) => {
                let (x, y) = (x.span(r0, r1, kx), y.span(r0, r1, kx));
                pair_span(acc_x, acc_y, s.span(r0, r1, ks), ks, x, y, kx);
            }
        }
    }
}

/// [`transpose_matmul_pair_rows`] when all three factors are `W` wide
/// (every solver call): both `W × W` blocks are summed in locals, loaded
/// and stored once.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pair_square_w<const W: usize>(
    s: &DenseMatrix,
    x: &DenseMatrix,
    y: &DenseMatrix,
    r0: usize,
    r1: usize,
    acc_x: &mut [f64],
    acc_y: &mut [f64],
) {
    let (mut sum_x, mut sum_y) = (local_square::<W>(acc_x), local_square::<W>(acc_y));
    let (x, y) = (x.span(r0, r1, W), y.span(r0, r1, W));
    let s = s.span(r0, r1, W);
    pair_span(
        sum_x.as_flattened_mut(),
        sum_y.as_flattened_mut(),
        s,
        W,
        x,
        y,
        W,
    );
    acc_x.copy_from_slice(sum_x.as_flattened());
    acc_y.copy_from_slice(sum_y.as_flattened());
}

/// Per row, `acc_x += s_rowᵀ · x_row` and `acc_y += s_rowᵀ · y_row`, in
/// [`add_outer`]'s per-element order with one zero test for both.
#[inline(always)]
fn pair_span(
    acc_x: &mut [f64],
    acc_y: &mut [f64],
    s: &[f64],
    ks: usize,
    x: &[f64],
    y: &[f64],
    kx: usize,
) {
    let (x_rows, y_rows) = (x.chunks_exact(kx.max(1)), y.chunks_exact(kx.max(1)));
    for ((s_row, x_row), y_row) in s.chunks_exact(ks.max(1)).zip(x_rows).zip(y_rows) {
        let outs = acc_x.chunks_exact_mut(kx).zip(acc_y.chunks_exact_mut(kx));
        for (&a, (out_x, out_y)) in s_row.iter().zip(outs) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out_x.iter_mut().zip(x_row) {
                *o += a * b;
            }
            for (o, &b) in out_y.iter_mut().zip(y_row) {
                *o += a * b;
            }
        }
    }
}

/// Hot loop of [`DenseMatrix::matmul_transpose_into`].
fn matmul_transpose_into_kernel(a: &DenseMatrix, other: &DenseMatrix, out: &mut DenseMatrix) {
    let tier = crate::simd::active_tier();
    let width = other.rows;
    let work = a.rows * a.cols * width;
    crate::parallel::for_each_row_chunk(a.rows, work, &mut out.data, width, |r0, chunk| {
        matmul_transpose_chunk(tier, a, other, r0, chunk);
    });
}

simd_kernel! {
    /// One output-row chunk of `matmul_transpose_into` (row-dot layout),
    /// monomorphized on the thin inner widths.
    fn matmul_transpose_chunk(a: &DenseMatrix, other: &DenseMatrix, r0: usize, chunk: &mut [f64]) {
        match a.cols {
            2 => matmul_transpose_chunk_w::<2>(a, other, r0, chunk),
            3 => matmul_transpose_chunk_w::<3>(a, other, r0, chunk),
            10 => matmul_transpose_chunk_w::<10>(a, other, r0, chunk),
            _ => matmul_transpose_chunk_w::<0>(a, other, r0, chunk),
        }
    }
}

/// Width-monomorphized body of [`matmul_transpose_chunk`] (`W = 0`
/// means runtime width): every row is cut to `W`, so each dot has a
/// compile-time trip count. Outputs are computed four at a time: the
/// four dot chains run in independent lanes, and every individual output
/// still accumulates `(((0 + a₀b₀) + a₁b₁) + …)` in exactly [`dot`]'s
/// order, so the tile is bit-identical to the plain per-output loop
/// while breaking the add-latency chain that serializes it.
#[inline(always)]
fn matmul_transpose_chunk_w<const W: usize>(
    a: &DenseMatrix,
    other: &DenseMatrix,
    r0: usize,
    chunk: &mut [f64],
) {
    let k = if W > 0 { W } else { a.cols };
    let width = other.rows;
    for (local, out_row) in chunk.chunks_exact_mut(width.max(1)).enumerate() {
        let a_row = &a.row(r0 + local)[..k];
        let mut j = 0;
        while j + 4 <= width {
            let (b0, b1, b2, b3) = (
                &other.row(j)[..k],
                &other.row(j + 1)[..k],
                &other.row(j + 2)[..k],
                &other.row(j + 3)[..k],
            );
            let mut acc = [0.0f64; 4];
            for (t, &av) in a_row.iter().enumerate() {
                acc[0] += av * b0[t];
                acc[1] += av * b1[t];
                acc[2] += av * b2[t];
                acc[3] += av * b3[t];
            }
            out_row[j..j + 4].copy_from_slice(&acc);
            j += 4;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            *o = dot(a_row, &other.row(jj)[..k]);
        }
    }
}

simd_kernel! {
    /// Element-wise `a += b`.
    fn add_assign_kernel(a: &mut [f64], b: &[f64]) {
        for (av, &bv) in a.iter_mut().zip(b.iter()) {
            *av += bv;
        }
    }
}

simd_kernel! {
    /// Element-wise `a -= b`.
    fn sub_assign_kernel(a: &mut [f64], b: &[f64]) {
        for (av, &bv) in a.iter_mut().zip(b.iter()) {
            *av -= bv;
        }
    }
}

simd_kernel! {
    /// Element-wise `a -= scale * b` (product grouped as `scale * b`).
    fn sub_scaled_assign_kernel(a: &mut [f64], scale: f64, b: &[f64]) {
        for (av, &bv) in a.iter_mut().zip(b.iter()) {
            *av -= scale * bv;
        }
    }
}

simd_kernel! {
    /// Element-wise `a += scale * b`.
    fn axpy_kernel(a: &mut [f64], scale: f64, b: &[f64]) {
        for (av, &bv) in a.iter_mut().zip(b.iter()) {
            *av += scale * bv;
        }
    }
}

simd_kernel! {
    /// Element-wise `a *= scalar`.
    fn scale_kernel(a: &mut [f64], scalar: f64) {
        for v in a.iter_mut() {
            *v *= scalar;
        }
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> DenseMatrix {
        DenseMatrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn zeros_shape_and_content() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = m(3, 2, &[1.0, 2.0, 0.0, 1.0, 3.0, 1.0]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = m(3, 2, &[1.0, 2.0, 0.0, 1.0, 3.0, 1.0]);
        let b = m(3, 4, &(0..12).map(|v| v as f64).collect::<Vec<_>>());
        let fast = a.transpose_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(|v| v as f64).collect::<Vec<_>>());
        let fast = a.matmul_transpose(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn hadamard_add_sub() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.hadamard(&b), m(2, 2, &[5.0, 12.0, 21.0, 32.0]));
        assert_eq!(a.add(&b), m(2, 2, &[6.0, 8.0, 10.0, 12.0]));
        assert_eq!(b.sub(&a), m(2, 2, &[4.0, 4.0, 4.0, 4.0]));
    }

    #[test]
    fn frobenius_and_trace() {
        let a = m(2, 2, &[3.0, 0.0, 4.0, 0.0]);
        assert_eq!(a.frobenius_sq(), 25.0);
        assert_eq!(a.frobenius(), 5.0);
        assert_eq!(a.trace(), 3.0);
    }

    #[test]
    #[should_panic(expected = "trace requires a square matrix")]
    fn trace_panics_on_rect() {
        m(1, 2, &[1.0, 2.0]).trace();
    }

    #[test]
    fn argmax_rows_breaks_ties_low() {
        let a = m(3, 3, &[0.1, 0.8, 0.1, 0.5, 0.5, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0, 2]);
    }

    #[test]
    fn normalize_rows_handles_zero_rows() {
        let mut a = m(2, 2, &[2.0, 2.0, 0.0, 0.0]);
        a.normalize_rows_l1();
        assert_eq!(a, m(2, 2, &[0.5, 0.5, 0.5, 0.5]));
    }

    #[test]
    fn vstack_and_select_rows() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
        let sel = s.select_rows(&[2, 0]);
        assert_eq!(sel, m(2, 2, &[5.0, 6.0, 1.0, 2.0]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        let b = m(1, 2, &[2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a, m(1, 2, &[2.0, 2.5]));
    }

    #[test]
    fn is_nonnegative_detects_negatives_and_nan() {
        assert!(m(1, 2, &[0.0, 1.0]).is_nonnegative());
        assert!(!m(1, 2, &[-0.1, 1.0]).is_nonnegative());
        assert!(!m(1, 2, &[f64::NAN, 1.0]).is_nonnegative());
    }
}
