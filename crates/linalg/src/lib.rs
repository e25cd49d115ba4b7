//! # tgs-linalg
//!
//! Dense and sparse (CSR) linear-algebra kernels purpose-built for the
//! non-negative matrix tri-factorization at the heart of the tripartite
//! sentiment co-clustering framework (Zhu et al., 2014).
//!
//! Design constraints this crate optimizes for:
//!
//! * Data matrices (`Xp`, `Xu`, `Xr`, `Gu`) are huge but very sparse → CSR
//!   with `O(nnz·k)` kernels, never densified.
//! * Factor matrices are *thin* (`rows × k`, the paper's `k = 3`) → contiguous
//!   row-major dense storage, Gram products in `O(rows·k²)`.
//! * Objective values are needed every iteration → factored Frobenius
//!   identities (`‖X − ABᵀ‖² = ‖X‖² − 2⟨X, ABᵀ⟩ + tr((AᵀA)(BᵀB))`).
//! * Experiments must be reproducible → explicit seeds everywhere.
//!
//! ```
//! use tgs_linalg::{CsrMatrix, DenseMatrix};
//!
//! let x = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 2.0)]).unwrap();
//! let d = DenseMatrix::filled(3, 2, 1.0);
//! let y = x.mul_dense(&d);
//! assert_eq!(y.get(1, 0), 2.0);
//! ```

mod dense;
mod ops;
pub mod parallel;
mod pool;
mod rng;
mod sparse;

pub use dense::{dot, DenseMatrix};
pub use ops::{
    approx_error_bi, approx_error_tri, laplacian_quad, mult_update, mult_update_from_parts,
    split_pos_neg, split_pos_neg_into, EPS, FACTOR_FLOOR, MAX_FUSED_K,
};
pub use parallel::{set_parallel_work_threshold, MAX_REDUCE_LEN, REDUCE_BLOCK_ROWS};
pub use pool::{pool_threads, set_pool_threads_override};
pub use rng::{random_factor, random_factor_with, seeded_rng};
pub use sparse::{CscView, CsrMatrix};

/// Names the kernel build recorded in `EngineStats.simd` and the bench
/// box stamps: always `"scalar"`, the one portable body each kernel has,
/// compiled for the target's baseline instruction set (SSE2 codegen on
/// x86-64, NEON on aarch64).
pub fn simd_tier_name() -> &'static str {
    "scalar"
}

/// Errors produced when constructing matrices from user data.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A buffer length did not match the requested shape.
    ShapeMismatch {
        /// Requested `(rows, cols)`.
        expected: (usize, usize),
        /// Observed shape (or `(len, 1)` for flat buffers).
        got: (usize, usize),
        /// Operation name for context.
        op: &'static str,
    },
    /// A triplet coordinate fell outside the declared shape.
    IndexOutOfBounds {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
    },
    /// A triplet value was NaN or infinite.
    NonFiniteValue {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
    },
    /// More columns than the `u32` index type can address.
    TooManyColumns {
        /// Requested column count.
        cols: usize,
    },
    /// CSR parts that do not form a matrix: `None` when the part
    /// lengths disagree (row pointers not `rows + 1` offsets from 0 to the
    /// entry count, or indices and values differing in number), else the
    /// first row whose pointers decrease, whose columns are not strictly
    /// increasing or that stores an explicit zero.
    MalformedCsr {
        /// Offending row, if one is to blame.
        row: Option<usize>,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, got, op } => write!(
                f,
                "{op}: shape mismatch, expected {}x{} but got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            LinalgError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {rows}x{cols} matrix"
            ),
            LinalgError::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at ({row}, {col})")
            }
            LinalgError::TooManyColumns { cols } => {
                write!(f, "{cols} columns exceed the u32 index limit")
            }
            LinalgError::MalformedCsr { row: None } => {
                write!(f, "CSR part lengths disagree")
            }
            LinalgError::MalformedCsr { row: Some(row) } => {
                write!(f, "malformed CSR row {row}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
