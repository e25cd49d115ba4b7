//! The explicit graph Laplacian, test-only.
//!
//! The hot-path quadratic form `tr(SᵀLS)` lives in `tgs_linalg::ops`
//! (it never materializes `L`); this module builds `L` itself as the
//! slow reference that the tests below check the fast path against.

use tgs_linalg::{CsrMatrix, DenseMatrix};

use crate::graph::UserGraph;

/// The combinatorial Laplacian `L = D − G` as a sparse matrix.
fn laplacian(graph: &UserGraph) -> CsrMatrix {
    let n = graph.num_nodes();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(graph.adjacency().nnz() + n);
    for (i, &d) in graph.degrees().iter().enumerate() {
        if d != 0.0 {
            triplets.push((i, i, d));
        }
    }
    for (i, j, w) in graph.adjacency().iter() {
        triplets.push((i, j, -w));
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("laplacian triplets in bounds")
}

/// Evaluates `tr(SᵀLS)` through the explicit Laplacian (slow reference
/// used in tests against `tgs_linalg::laplacian_quad`).
fn laplacian_quad_reference(graph: &UserGraph, s: &DenseMatrix) -> f64 {
    let l = laplacian(graph);
    let ls = l.mul_dense(s);
    s.frobenius_inner(&ls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_linalg::laplacian_quad;

    fn path3() -> UserGraph {
        UserGraph::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)])
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let l = laplacian(&path3());
        for s in l.row_sums() {
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_diagonal_is_degree() {
        let g = path3();
        let l = laplacian(&g);
        for i in 0..3 {
            assert_eq!(l.get(i, i), g.degree(i));
        }
    }

    #[test]
    fn quad_form_matches_fast_path() {
        let g = path3();
        let s = DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.5, 0.5, 0.0, 1.0]).unwrap();
        let slow = laplacian_quad_reference(&g, &s);
        let fast = laplacian_quad(g.adjacency(), g.degrees(), &s);
        assert!((slow - fast).abs() < 1e-10);
    }
}
