//! Property-based tests on the core solver machinery: invariants over
//! arbitrary windows, stores and factor states.

use proptest::prelude::*;
use tgs_core::{decode_matrix, encode_matrix, FactorWindow, SentimentHistory, SnapshotStore};
use tgs_linalg::DenseMatrix;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(0.0..5.0f64, rows * cols)
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #[test]
    fn matrix_serialization_roundtrips(m in matrix(4, 3)) {
        let decoded = decode_matrix(encode_matrix(&m)).expect("roundtrip");
        prop_assert_eq!(decoded, m);
    }

    #[test]
    fn store_never_exceeds_budget_with_multiple_entries(
        matrices in proptest::collection::vec(matrix(2, 2), 1..10),
        budget in 64usize..512,
    ) {
        let mut store = SnapshotStore::new(budget);
        for (t, m) in matrices.iter().enumerate() {
            store.put(t as u64, m);
        }
        // budget holds unless a single entry alone exceeds it
        prop_assert!(store.used_bytes() <= budget.max(16 + 8 * 4));
        prop_assert!(!store.is_empty(), "newest entry always retained");
        // retained timestamps are a contiguous suffix
        let ts = store.timestamps();
        for w in ts.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn factor_window_aggregate_bounded_by_max_entry(
        values in proptest::collection::vec(0.0..10.0f64, 1..6),
        tau in 0.1..1.0f64,
    ) {
        // normalized aggregation is a convex combination → bounded by the
        // min/max of the inputs
        let mut w = FactorWindow::new(values.len() + 1, tau);
        for &v in &values {
            w.push(DenseMatrix::filled(1, 1, v));
        }
        let agg = w.aggregate().unwrap().get(0, 0);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(agg >= lo - 1e-9 && agg <= hi + 1e-9, "{lo} <= {agg} <= {hi}");
    }

    #[test]
    fn history_partition_is_exhaustive_and_disjoint(
        first in proptest::collection::btree_set(0usize..20, 1..8),
        second in proptest::collection::btree_set(0usize..20, 1..8),
    ) {
        let first: Vec<usize> = first.into_iter().collect();
        let second: Vec<usize> = second.into_iter().collect();
        let mut h = SentimentHistory::new(3, 2, 0.9);
        h.record(&first, &DenseMatrix::filled(first.len(), 3, 1.0 / 3.0));
        let part = h.partition(&second);
        // every current row appears in exactly one bucket
        let mut seen = vec![false; second.len()];
        for &r in part.new_rows.iter().chain(part.evolving_rows.iter()) {
            prop_assert!(!seen[r], "row {r} in two buckets");
            seen[r] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "every row bucketed");
        // evolving users were seen before; new users were not
        for &r in &part.evolving_rows {
            prop_assert!(first.contains(&second[r]));
        }
        for &r in &part.new_rows {
            prop_assert!(!first.contains(&second[r]));
        }
        // disappeared = first \ second
        let gone: Vec<usize> = (0..20).filter(|&u| h.knows(u) && !second.contains(&u)).collect();
        let expected: Vec<usize> = first.iter().copied().filter(|u| !second.contains(u)).collect();
        prop_assert_eq!(gone, expected);
    }
}
