//! Compressed sparse row (CSR) matrices.
//!
//! The three data matrices of the tri-clustering problem (`Xp`, `Xu`, `Xr`)
//! and the user–user graph `Gu` are extremely sparse (a tweet holds ~10
//! words out of thousands), so every kernel here is `O(nnz·k)` rather than
//! `O(rows·cols)`. Column indices are stored as `u32` — the paper's data is
//! tens of thousands of columns, far below the 4.3B limit — which halves the
//! index memory versus `usize`.

use crate::dense::DenseMatrix;
use crate::LinalgError;

/// A CSR sparse matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[i]..indptr[i+1]` is the value range of row `i`.
    indptr: Vec<usize>,
    /// Column index per stored value, strictly increasing within a row.
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed; explicit zeros (including duplicate
    /// groups summing to zero) are dropped. Returns an error when any
    /// coordinate is out of bounds or any value is non-finite.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        if cols > u32::MAX as usize {
            return Err(LinalgError::TooManyColumns { cols });
        }
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
            if !v.is_finite() {
                return Err(LinalgError::NonFiniteValue { row: r, col: c });
            }
        }
        // Counting sort by row, then sort each row segment by column.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<(u32, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            order[cursor[r]] = (c as u32, v);
            cursor[r] += 1;
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for r in 0..rows {
            let seg = &mut order[counts[r]..counts[r + 1]];
            seg.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < seg.len() {
                let col = seg[i].0;
                let mut sum = 0.0;
                while i < seg.len() && seg[i].0 == col {
                    sum += seg[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    indices.push(col);
                    values.push(sum);
                }
            }
            indptr.push(indices.len());
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix from its parts: row `i` holds the columns
    /// `indices[indptr[i]..indptr[i + 1]]` with the matching `values`.
    ///
    /// Unlike [`CsrMatrix::from_triplets`] nothing is sorted or summed;
    /// the parts are checked and kept as they are. Returns an error when
    /// `indptr` is not `rows + 1` non-decreasing offsets from 0 to the
    /// entry count, when `indices` and `values` differ in length, when a
    /// column is out of range or not strictly increasing within its row,
    /// or when a value is non-finite or zero.
    pub fn from_sorted_rows(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if cols > u32::MAX as usize {
            return Err(LinalgError::TooManyColumns { cols });
        }
        let lengths_agree = indptr.len().checked_sub(1) == Some(rows)
            && indptr[0] == 0
            && indptr[rows] == values.len()
            && indices.len() == values.len();
        if !lengths_agree {
            return Err(LinalgError::MalformedCsr { row: None });
        }
        if let Some(row) = indptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(LinalgError::MalformedCsr { row: Some(row) });
        }
        for (row, span) in indptr.windows(2).enumerate() {
            let mut prev = None;
            for (&c, &v) in indices[span[0]..span[1]]
                .iter()
                .zip(&values[span[0]..span[1]])
            {
                let col = c as usize;
                if col >= cols {
                    return Err(LinalgError::IndexOutOfBounds {
                        row,
                        col,
                        rows,
                        cols,
                    });
                }
                if prev.is_some_and(|p| c <= p) || v == 0.0 {
                    return Err(LinalgError::MalformedCsr { row: Some(row) });
                }
                if !v.is_finite() {
                    return Err(LinalgError::NonFiniteValue { row, col });
                }
                prev = Some(c);
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    #[inline]
    pub fn iter_row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.indptr[i]..self.indptr[i + 1];
        self.indices[range.clone()]
            .iter()
            .zip(self.values[range].iter())
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Column-index and value slices of row `i` (zero-copy row access
    /// for kernels that tile over a row's entries).
    #[inline]
    pub fn row_entries(&self, i: usize) -> (&[u32], &[f64]) {
        let range = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// Iterator over all `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.iter_row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Value at `(i, j)` (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let range = self.indptr[i]..self.indptr[i + 1];
        match self.indices[range.clone()].binary_search(&(j as u32)) {
            Ok(pos) => self.values[range.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse–dense product `self · d` → dense `(rows × d.cols)`.
    pub fn mul_dense(&self, d: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::default(); // sized (once) by the _into
        self.mul_dense_into(d, &mut out);
        out
    }

    /// In-place variant of [`CsrMatrix::mul_dense`]: writes `self · d`
    /// into `out` (reshaped as needed), row-parallel on large inputs.
    pub fn mul_dense_into(&self, d: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(
            self.cols,
            d.rows(),
            "mul_dense shape mismatch: ({}, {}) x ({}, {})",
            self.rows,
            self.cols,
            d.rows(),
            d.cols()
        );
        let k = d.cols();
        out.resize_zeroed(self.rows, k);
        crate::parallel::for_each_row_chunk(
            self.rows,
            self.nnz() * k,
            out.as_mut_slice(),
            k,
            |r0, chunk| {
                spmm_chunk(self, d, r0, chunk);
            },
        );
    }

    /// Transposed sparse–dense product `selfᵀ · d` → dense `(cols × d.cols)`.
    ///
    /// Scatter formulation: a pass over stored entries. On large inputs
    /// the output rows are chunked across threads, each scanning the
    /// entry stream for its column range; for repeated products against
    /// the same matrix, prefer a cached [`CscView`], which turns this
    /// into a forward gather pass.
    pub fn transpose_mul_dense(&self, d: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::default(); // sized (once) by the _into
        self.transpose_mul_dense_into(d, &mut out);
        out
    }

    /// In-place variant of [`CsrMatrix::transpose_mul_dense`].
    pub(crate) fn transpose_mul_dense_into(&self, d: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(
            self.rows,
            d.rows(),
            "transpose_mul_dense shape mismatch: ({}, {})ᵀ x ({}, {})",
            self.rows,
            self.cols,
            d.rows(),
            d.cols()
        );
        let k = d.cols();
        out.resize_zeroed(self.cols, k);
        crate::parallel::for_each_row_chunk(
            self.cols,
            self.nnz() * k,
            out.as_mut_slice(),
            k,
            |c0, chunk| {
                spmm_transpose_chunk(self, d, c0, chunk);
            },
        );
    }

    /// Materialized transpose (CSR of the transposed matrix).
    pub fn transpose(&self) -> CsrMatrix {
        let mut out = CsrMatrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// In-place variant of [`CsrMatrix::transpose`]: writes the
    /// transposed CSR into `out`, reusing its buffers whenever their
    /// capacity suffices. This is what lets a rebinding solver workspace
    /// refresh its cached `Xᵀ` views without reallocating per snapshot
    /// (see `UpdateWorkspace::bind`). The produced structure is
    /// bit-identical to [`CsrMatrix::transpose`] (same counting sort and
    /// fill order).
    pub(crate) fn transpose_into(&self, out: &mut CsrMatrix) {
        out.rows = self.cols;
        out.cols = self.rows;
        let nnz = self.nnz();
        out.indptr.clear();
        out.indptr.resize(self.cols + 1, 0);
        out.indices.clear();
        out.indices.resize(nnz, 0);
        out.values.clear();
        out.values.resize(nnz, 0.0);
        // Counting pass: start offset of each output row (input column),
        // built directly in `out.indptr` (shifted back after the fill,
        // which uses it as the write cursor — no scratch allocation).
        for &c in &self.indices {
            out.indptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            out.indptr[i + 1] += out.indptr[i];
        }
        for r in 0..self.rows {
            for (c, v) in self.iter_row(r) {
                let pos = out.indptr[c];
                out.indices[pos] = r as u32;
                out.values[pos] = v;
                out.indptr[c] += 1;
            }
        }
        // After the fill, indptr[c] holds the *end* of row c (= the next
        // row's start); shift right once to restore start offsets.
        for c in (1..=self.cols).rev() {
            out.indptr[c] = out.indptr[c - 1];
        }
        out.indptr[0] = 0;
    }

    /// A fast 64-bit content fingerprint over shape, structure and
    /// values, used by solver workspaces to detect that a rebind is
    /// against the *same* matrix and skip rebuilding cached transposes.
    /// Multi-lane multiply-xor mixing (~1 cycle/word) — far cheaper than
    /// the transpose it guards. Equal matrices always collide; unequal
    /// matrices collide with probability ~2⁻⁶⁴ (and only matter when
    /// shape and nnz also agree).
    pub fn content_fingerprint(&self) -> u64 {
        const M: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut lanes = [
            0x243F_6A88_85A3_08D3u64, // independent lane seeds (π digits)
            0x1319_8A2E_0370_7344,
            0xA409_3822_299F_31D0,
            0x082E_FA98_EC4E_6C89,
        ];
        let mut feed = |lane: usize, v: u64| {
            let l = &mut lanes[lane & 3];
            *l = (*l ^ v).wrapping_mul(M).rotate_left(23);
        };
        feed(0, self.rows as u64);
        feed(1, self.cols as u64);
        feed(2, self.nnz() as u64);
        for (i, &p) in self.indptr.iter().enumerate() {
            feed(i, p as u64);
        }
        for (i, &c) in self.indices.iter().enumerate() {
            feed(i, c as u64);
        }
        for (i, &v) in self.values.iter().enumerate() {
            feed(i, v.to_bits());
        }
        let mut h = 0u64;
        for l in lanes {
            h = (h ^ l).wrapping_mul(M);
            h ^= h >> 29;
        }
        h
    }

    /// Per-row sums (for degree vectors of adjacency matrices).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.iter_row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_sq(&self) -> f64 {
        self.values.iter().map(|&v| v * v).sum()
    }

    /// Sum of all stored values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Frobenius inner product with a factored dense matrix:
    /// `⟨self, A·Bᵀ⟩ = Σ_{(i,j)∈nnz} self[ij] · (A[i,:] · B[j,:])`.
    ///
    /// This is the key trick that lets all objective values be computed
    /// without densifying `A·Bᵀ`.
    pub fn inner_with_factored(&self, a: &DenseMatrix, b: &DenseMatrix) -> f64 {
        assert_eq!(
            self.rows,
            a.rows(),
            "inner_with_factored: row factor mismatch"
        );
        assert_eq!(
            self.cols,
            b.rows(),
            "inner_with_factored: col factor mismatch"
        );
        assert_eq!(a.cols(), b.cols(), "inner_with_factored: rank mismatch");
        // Entries are processed four at a time: the four dot chains run
        // in independent lanes (each in exactly `dot`'s order) and
        // `total` still accumulates one `v·⟨a,b⟩` term per entry in
        // entry order — bit-identical to the plain loop, without its
        // serial add-latency chain.
        let mut total = 0.0;
        for r in 0..self.rows {
            let a_row = a.row(r);
            let range = self.indptr[r]..self.indptr[r + 1];
            let cols = &self.indices[range.clone()];
            let vals = &self.values[range];
            let mut idx = 0;
            while idx + 4 <= cols.len() {
                let (b0, b1, b2, b3) = (
                    b.row(cols[idx] as usize),
                    b.row(cols[idx + 1] as usize),
                    b.row(cols[idx + 2] as usize),
                    b.row(cols[idx + 3] as usize),
                );
                let mut acc = [0.0f64; 4];
                for (t, &av) in a_row.iter().enumerate() {
                    acc[0] += av * b0[t];
                    acc[1] += av * b1[t];
                    acc[2] += av * b2[t];
                    acc[3] += av * b3[t];
                }
                total += vals[idx] * acc[0];
                total += vals[idx + 1] * acc[1];
                total += vals[idx + 2] * acc[2];
                total += vals[idx + 3] * acc[3];
                idx += 4;
            }
            for i in idx..cols.len() {
                total += vals[i] * crate::dense::dot(a_row, b.row(cols[i] as usize));
            }
        }
        total
    }

    /// Dense rendering (tests / tiny matrices only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }
}

/// One output-row chunk of the CSR×dense product: each output row
/// through [`spmm_row`] (identical floating-point sequence at every
/// width).
fn spmm_chunk(x: &CsrMatrix, d: &DenseMatrix, r0: usize, chunk: &mut [f64]) {
    match d.cols() {
        3 => spmm_chunk_w::<3>(x, d, r0, chunk),
        10 => spmm_chunk_w::<10>(x, d, r0, chunk),
        k => {
            for (local, out_row) in chunk.chunks_exact_mut(k.max(1)).enumerate() {
                spmm_row(out_row, x, r0 + local, |c| d.row(c));
            }
        }
    }
}

/// [`spmm_chunk`] at width `W`: each output row is summed in a
/// `[f64; W]` local, loaded and stored once, so the loops have
/// compile-time trip counts and the partial sums stay in registers.
#[inline(always)]
fn spmm_chunk_w<const W: usize>(x: &CsrMatrix, d: &DenseMatrix, r0: usize, chunk: &mut [f64]) {
    let (d_rows, _) = d.as_slice().as_chunks::<W>();
    for (local, out_row) in chunk.as_chunks_mut::<W>().0.iter_mut().enumerate() {
        let mut sum = *out_row;
        spmm_row(&mut sum, x, r0 + local, |c| &d_rows[c]);
        *out_row = sum;
    }
}

/// `out_row += x[r, :] · d`, entries in column order, with `d_row(c)`
/// giving row `c` of `d` (typed `[f64; W]` rows at the thin widths, so
/// each gather is one bounds check).
#[inline(always)]
fn spmm_row<'d>(out_row: &mut [f64], x: &CsrMatrix, r: usize, d_row: impl Fn(usize) -> &'d [f64]) {
    let k = out_row.len();
    let (cols, vals) = x.row_entries(r);
    for (&c, &v) in cols.iter().zip(vals.iter()) {
        for (o, &dv) in out_row.iter_mut().zip(&d_row(c as usize)[..k]) {
            *o += v * dv;
        }
    }
}

/// One output-row chunk of the transposed CSR×dense product. Each
/// chunk owns output rows (= input columns) `[c0, c1)`: every thread
/// walks all input rows but, since columns are sorted within a row,
/// binary-searches straight to its range. Column contributions stay
/// in increasing input-row order, so the result is bit-identical to
/// the sequential scatter.
fn spmm_transpose_chunk(x: &CsrMatrix, d: &DenseMatrix, c0: usize, chunk: &mut [f64]) {
    let k = d.cols();
    let c1 = c0 + chunk.len() / k.max(1);
    for r in 0..x.rows {
        let d_row = d.row(r);
        let row_range = x.indptr[r]..x.indptr[r + 1];
        let row_cols = &x.indices[row_range.clone()];
        let lo = row_cols.partition_point(|&c| (c as usize) < c0);
        for (idx, &c) in row_cols.iter().enumerate().skip(lo) {
            let c = c as usize;
            if c >= c1 {
                break;
            }
            let v = x.values[row_range.start + idx];
            let off = (c - c0) * k;
            let out_row = &mut chunk[off..off + k];
            for (o, &dv) in out_row.iter_mut().zip(d_row.iter()) {
                *o += v * dv;
            }
        }
    }
}

/// A cached column-oriented view of a [`CsrMatrix`]: the transposed CSR,
/// built once, turning every later `Aᵀ·D` product into a forward,
/// row-parallel gather pass instead of a cache-hostile scatter.
///
/// The update sweeps multiply against `Xpᵀ`, `Xuᵀ` and `Xrᵀ` every
/// iteration while the data matrices stay fixed for a whole window — so
/// the `O(nnz)` build cost amortizes to nothing. Contributions to each
/// output row arrive in the same (increasing input-row) order as the
/// scatter formulation, so results are bit-identical to
/// [`CsrMatrix::transpose_mul_dense`].
#[derive(Debug, Clone, PartialEq)]
pub struct CscView {
    transposed: CsrMatrix,
}

impl CscView {
    /// Builds the view (one counting pass plus one fill pass over `nnz`).
    pub fn of(a: &CsrMatrix) -> Self {
        CscView {
            transposed: a.transpose(),
        }
    }

    /// Rebuilds the view for a new matrix, reusing the existing buffers
    /// whenever their capacity suffices (via
    /// `CsrMatrix::transpose_into`). This is the amortized-rebind path:
    /// a solver workspace that re-binds every snapshot refreshes its
    /// cached transposes without per-snapshot allocations once warm.
    pub fn rebind(&mut self, a: &CsrMatrix) {
        a.transpose_into(&mut self.transposed);
    }

    /// `Aᵀ · d` for the original matrix `A`, as a forward CSR pass.
    pub fn transpose_mul_dense(&self, d: &DenseMatrix) -> DenseMatrix {
        self.transposed.mul_dense(d)
    }

    /// In-place variant of [`CscView::transpose_mul_dense`].
    pub fn transpose_mul_dense_into(&self, d: &DenseMatrix, out: &mut DenseMatrix) {
        self.transposed.mul_dense_into(d, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .unwrap()
    }

    #[test]
    fn from_triplets_sums_duplicates_and_drops_zeros() {
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[
                (0, 0, 1.0),
                (0, 0, 2.0),
                (1, 1, 5.0),
                (1, 1, -5.0),
                (0, 1, 0.0),
            ],
        )
        .unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds_and_nan() {
        assert!(CsrMatrix::from_triplets(1, 1, &[(1, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(1, 1, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn from_sorted_rows_keeps_well_formed_parts() {
        let m = CsrMatrix::from_sorted_rows(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        assert_eq!(m, sample());
        let empty = CsrMatrix::from_sorted_rows(2, 5, vec![0, 0, 0], vec![], vec![]).unwrap();
        assert_eq!(empty, CsrMatrix::zeros(2, 5));
    }

    #[test]
    fn from_sorted_rows_rejects_each_malformed_part() {
        let build = |rows, cols, indptr: &[usize], indices: &[u32], values: &[f64]| {
            CsrMatrix::from_sorted_rows(
                rows,
                cols,
                indptr.to_vec(),
                indices.to_vec(),
                values.to_vec(),
            )
        };
        let lengths = Err(LinalgError::MalformedCsr { row: None });
        let at = |row| Err(LinalgError::MalformedCsr { row: Some(row) });
        // indptr too short, too long, empty, not from 0 or not ending at
        // the entry count; indices and values of different lengths
        assert_eq!(build(2, 3, &[0, 1], &[0], &[1.0]), lengths);
        assert_eq!(build(2, 3, &[0, 1, 1, 1], &[0], &[1.0]), lengths);
        assert_eq!(build(2, 3, &[], &[], &[]), lengths);
        assert_eq!(build(2, 3, &[1, 1, 1], &[0], &[1.0]), lengths);
        assert_eq!(build(2, 3, &[0, 1, 2], &[0], &[1.0]), lengths);
        assert_eq!(build(2, 3, &[0, 1, 1], &[0, 1], &[1.0]), lengths);
        assert_eq!(build(2, 3, &[0, 1, 1], &[0], &[1.0, 2.0]), lengths);
        // decreasing row pointers
        assert_eq!(build(2, 3, &[0, 2, 1], &[0], &[1.0]), at(1));
        // a column out of range, repeated, or below its predecessor
        assert_eq!(
            build(2, 3, &[0, 0, 1], &[3], &[1.0]),
            Err(LinalgError::IndexOutOfBounds {
                row: 1,
                col: 3,
                rows: 2,
                cols: 3
            })
        );
        assert_eq!(build(2, 3, &[0, 2, 2], &[1, 1], &[1.0, 2.0]), at(0));
        assert_eq!(build(2, 3, &[0, 0, 2], &[2, 0], &[1.0, 2.0]), at(1));
        // non-finite and zero values
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                build(2, 3, &[0, 1, 1], &[2], &[bad]),
                Err(LinalgError::NonFiniteValue { row: 0, col: 2 })
            );
        }
        for zero in [0.0, -0.0] {
            assert_eq!(build(2, 3, &[0, 1, 2], &[0, 1], &[1.0, zero]), at(1));
        }
        // more columns than a u32 index addresses
        let cols = u32::MAX as usize + 1;
        assert_eq!(
            build(0, cols, &[0], &[], &[]),
            Err(LinalgError::TooManyColumns { cols })
        );
    }

    #[test]
    fn get_and_iter_row() {
        let m = sample();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        let row2: Vec<_> = m.iter_row(2).collect();
        assert_eq!(row2, vec![(0, 3.0), (1, 4.0)]);
    }

    #[test]
    fn mul_dense_matches_dense_product() {
        let m = sample();
        let d = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let sparse_result = m.mul_dense(&d);
        let dense_result = m.to_dense().matmul(&d);
        assert!(sparse_result.max_abs_diff(&dense_result) < 1e-12);
    }

    #[test]
    fn transpose_mul_dense_matches_dense_product() {
        let m = sample();
        let d = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let fast = m.transpose_mul_dense(&d);
        let explicit = m.to_dense().transpose().matmul(&d);
        assert!(fast.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn sums_and_norms() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.frobenius_sq(), 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(m.sum(), 10.0);
    }

    #[test]
    fn inner_with_factored_matches_dense() {
        let m = sample();
        let a = DenseMatrix::from_vec(3, 2, vec![1.0, 0.5, 2.0, 1.0, 0.0, 3.0]).unwrap();
        let b = DenseMatrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 0.0, 0.5, 2.0]).unwrap();
        let fast = m.inner_with_factored(&a, &b);
        let ab = a.matmul_transpose(&b);
        let explicit = m.to_dense().frobenius_inner(&ab);
        assert!((fast - explicit).abs() < 1e-12);
    }
}
