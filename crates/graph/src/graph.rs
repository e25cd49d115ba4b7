//! Undirected weighted user–user graphs.

use tgs_linalg::CsrMatrix;

/// An undirected, weighted graph over `0..num_nodes` stored as a
/// symmetric CSR adjacency matrix plus a degree vector — exactly the
/// `Gu` / `Du` pair the graph regularizer `β·tr(SᵀLuS)` consumes.
#[derive(Debug, Clone)]
pub struct UserGraph {
    adjacency: CsrMatrix,
    degrees: Vec<f64>,
}

impl UserGraph {
    /// A graph with no edges.
    pub fn empty(num_nodes: usize) -> Self {
        Self {
            adjacency: CsrMatrix::zeros(num_nodes, num_nodes),
            degrees: vec![0.0; num_nodes],
        }
    }

    /// Builds from undirected weighted edges. Parallel edges sum their
    /// weights; self-loops are dropped; each edge is stored in both
    /// directions.
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut triplets = Vec::with_capacity(edges.len() * 2);
        for &(u, v, w) in edges {
            assert!(
                u < num_nodes && v < num_nodes,
                "edge ({u}, {v}) out of bounds"
            );
            assert!(w >= 0.0, "edge weights must be non-negative, got {w}");
            if u == v || w == 0.0 {
                continue;
            }
            triplets.push((u, v, w));
            triplets.push((v, u, w));
        }
        let adjacency = CsrMatrix::from_triplets(num_nodes, num_nodes, &triplets)
            .expect("validated edges are in bounds");
        let degrees = adjacency.row_sums();
        Self { adjacency, degrees }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.rows()
    }

    /// Weighted degree of node `u`.
    pub fn degree(&self, u: usize) -> f64 {
        self.degrees[u]
    }

    /// The full degree vector (diagonal of `Du`).
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// The symmetric adjacency matrix `Gu`.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adjacency.iter_row(u)
    }

    /// Edge weight between `u` and `v` (0 when absent).
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        self.adjacency.get(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_symmetrizes_and_sums() {
        let g = UserGraph::from_edges(3, &[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.5)]);
        assert_eq!(g.weight(0, 1), 3.0);
        assert_eq!(g.weight(1, 0), 3.0);
        assert_eq!(g.weight(1, 2), 1.5);
        assert_eq!(g.degree(1), 4.5);
    }

    #[test]
    fn self_loops_dropped() {
        let g = UserGraph::from_edges(2, &[(0, 0, 5.0), (0, 1, 1.0)]);
        assert_eq!(g.weight(0, 0), 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = UserGraph::empty(4);
        assert_eq!(g.num_nodes(), 4);
        assert!(g.degrees().iter().all(|&d| d == 0.0));
    }

    #[test]
    fn neighbors_iteration() {
        let g = UserGraph::from_edges(4, &[(0, 1, 1.0), (0, 2, 2.0)]);
        let n: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n, vec![(1, 1.0), (2, 2.0)]);
    }
}
