//! The data matrices a solve consumes.

use tgs_graph::UserGraph;
use tgs_linalg::{CsrMatrix, DenseMatrix};

use crate::error::TgsError;

/// Borrowed view of one tri-clustering problem (offline: the whole
/// corpus; online: one snapshot).
#[derive(Debug, Clone, Copy)]
pub struct TriInput<'a> {
    /// Tweet–feature matrix `Xp` (`n × l`).
    pub xp: &'a CsrMatrix,
    /// User–feature matrix `Xu` (`m × l`).
    pub xu: &'a CsrMatrix,
    /// User–tweet matrix `Xr` (`m × n`).
    pub xr: &'a CsrMatrix,
    /// User–user re-tweet graph (`Gu`, `Du`).
    pub graph: &'a UserGraph,
    /// Feature–sentiment prior `Sf0` (`l × k`).
    pub sf0: &'a DenseMatrix,
}

impl<'a> TriInput<'a> {
    /// Number of tweets `n`.
    pub(crate) fn n(&self) -> usize {
        self.xp.rows()
    }

    /// Number of users `m`.
    pub fn m(&self) -> usize {
        self.xu.rows()
    }

    /// Number of features `l`.
    pub(crate) fn l(&self) -> usize {
        self.xp.cols()
    }

    /// Checks cross-matrix shape consistency, reporting the first
    /// violation as the matching [`TgsError`] shape variant.
    pub fn try_validate(&self, k: usize) -> Result<(), TgsError> {
        let (n, m, l) = (self.n(), self.m(), self.l());
        if self.xu.cols() != l {
            return Err(TgsError::FeatureDimMismatch {
                xp_cols: l,
                xu_cols: self.xu.cols(),
            });
        }
        if self.xr.shape() != (m, n) {
            return Err(TgsError::InteractionShapeMismatch {
                expected: (m, n),
                got: self.xr.shape(),
            });
        }
        if self.graph.num_nodes() != m {
            return Err(TgsError::GraphSizeMismatch {
                users: m,
                nodes: self.graph.num_nodes(),
            });
        }
        if self.sf0.shape() != (l, k) {
            return Err(TgsError::PriorShapeMismatch {
                expected: (l, k),
                got: self.sf0.shape(),
            });
        }
        Ok(())
    }

    /// Panicking wrapper around [`TriInput::try_validate`], kept for the
    /// bench binaries and quick scripts.
    pub fn validate(&self, k: usize) {
        if let Err(e) = self.try_validate(k) {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_parts() -> (CsrMatrix, CsrMatrix, CsrMatrix, UserGraph, DenseMatrix) {
        let xp = CsrMatrix::from_triplets(3, 4, &[(0, 0, 1.0)]).unwrap();
        let xu = CsrMatrix::from_triplets(2, 4, &[(0, 1, 1.0)]).unwrap();
        let xr = CsrMatrix::from_triplets(2, 3, &[(1, 2, 1.0)]).unwrap();
        let graph = UserGraph::from_edges(2, &[(0, 1, 1.0)]);
        let sf0 = DenseMatrix::filled(4, 3, 1.0 / 3.0);
        (xp, xu, xr, graph, sf0)
    }

    #[test]
    fn dimensions_reported() {
        let (xp, xu, xr, graph, sf0) = tiny_parts();
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        assert_eq!(input.n(), 3);
        assert_eq!(input.m(), 2);
        assert_eq!(input.l(), 4);
        input.validate(3);
    }

    #[test]
    fn try_validate_reports_variant_without_panicking() {
        use crate::error::TgsErrorKind;
        let (xp, xu, xr, graph, sf0) = tiny_parts();
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        assert!(input.try_validate(3).is_ok());
        let err = input.try_validate(2).unwrap_err();
        assert_eq!(err.kind(), TgsErrorKind::PriorShapeMismatch);
    }

    #[test]
    #[should_panic(expected = "Sf0 must be l × k")]
    fn validate_rejects_wrong_k() {
        let (xp, xu, xr, graph, sf0) = tiny_parts();
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        input.validate(2);
    }
}
