//! Hungarian (Kuhn–Munkres) assignment for optimal cluster→class mapping.
//!
//! The paper's accuracy uses majority voting; the Hungarian variant gives
//! the *optimal one-to-one* mapping and is used in ablations to show the
//! two coincide on well-separated clusterings.

use crate::confusion::ConfusionMatrix;

/// Solves the assignment problem on a cost matrix (minimization).
/// `cost` is rectangular `rows × cols` given row-major; returns for each
/// row the assigned column (`usize::MAX` when rows > cols and the row is
/// unmatched).
///
/// O(n³) shortest augmenting path implementation (Jonker–Volgenant style
/// potentials).
#[allow(clippy::needless_range_loop)] // index arithmetic mirrors the textbook algorithm
pub(crate) fn hungarian(cost: &[Vec<f64>]) -> Vec<usize> {
    let rows = cost.len();
    if rows == 0 {
        return Vec::new();
    }
    let cols = cost[0].len();
    // Pad to square with zero-cost dummy columns/rows.
    let n = rows.max(cols);
    let big = 0.0;
    let at = |i: usize, j: usize| -> f64 {
        if i < rows && j < cols {
            cost[i][j]
        } else {
            big
        }
    };
    // potentials
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![usize::MAX; n + 1]; // p[j] = row matched to column j (1-indexed cols, p[0] = current row)
    let mut way = vec![0usize; n + 1];
    for i in 0..n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = at(i0, j - 1) - u[i0 + 1] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    let pj = p[j];
                    if pj != usize::MAX {
                        u[pj + 1] += delta;
                    }
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == usize::MAX {
                break;
            }
        }
        // augment
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assignment = vec![usize::MAX; rows];
    for j in 1..=n {
        let r = p[j];
        if r != usize::MAX && r < rows && j - 1 < cols {
            assignment[r] = j - 1;
        }
    }
    assignment
}

/// Accuracy under the *optimal one-to-one* cluster→class assignment
/// (Hungarian on the negated contingency table).
pub fn hungarian_accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    if pred.is_empty() {
        return 0.0;
    }
    let cm = ConfusionMatrix::from_labels(pred, truth);
    let rows = cm.num_clusters();
    let cols = cm.num_classes();
    let cost: Vec<Vec<f64>> = (0..rows)
        .map(|o| (0..cols).map(|g| -(cm.count(o, g) as f64)).collect())
        .collect();
    let assignment = hungarian(&cost);
    let hit: usize = assignment
        .iter()
        .enumerate()
        .filter(|&(_, &g)| g != usize::MAX)
        .map(|(o, &g)| cm.count(o, g))
        .sum();
    hit as f64 / cm.total() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::clustering_accuracy;

    #[test]
    fn solves_small_assignment() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = hungarian(&cost);
        // optimal: (0,1)=1, (1,0)=2, (2,2)=2 → total 5
        let total: f64 = a.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        assert_eq!(a, vec![1, 0, 2]);
        assert!((total - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rectangular_more_clusters_than_classes() {
        let cost = vec![vec![1.0], vec![0.0], vec![2.0]];
        let a = hungarian(&cost);
        // only one column; exactly one row assigned, the cheapest
        let assigned: Vec<_> = a.iter().filter(|&&x| x != usize::MAX).collect();
        assert_eq!(assigned.len(), 1);
        assert_eq!(a[1], 0);
    }

    #[test]
    fn hungarian_accuracy_equals_majority_when_clusters_clean() {
        let truth = vec![0, 0, 1, 1, 2, 2];
        let pred = vec![2, 2, 0, 0, 1, 1];
        assert_eq!(hungarian_accuracy(&pred, &truth), 1.0);
        assert_eq!(clustering_accuracy(&pred, &truth), 1.0);
    }

    #[test]
    fn hungarian_never_exceeds_majority_accuracy() {
        // majority voting can map two clusters to the same class (upper
        // bound on one-to-one assignment)
        let pred = vec![0, 0, 1, 1, 2, 2];
        let truth = vec![0, 0, 0, 0, 1, 1];
        let h = hungarian_accuracy(&pred, &truth);
        let m = clustering_accuracy(&pred, &truth);
        assert!(
            h <= m + 1e-12,
            "hungarian {h} should not exceed majority {m}"
        );
    }

    #[test]
    fn identity_cost_prefers_diagonal() {
        let cost = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ];
        assert_eq!(hungarian(&cost), vec![0, 1, 2]);
    }
}
