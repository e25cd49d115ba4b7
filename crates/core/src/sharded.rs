//! Merging the global word–sentiment factor across user-range shards.
//!
//! The user/tweet axes of the tripartite problem dominate its size, so
//! they shard by user range (see `tgs_data::PartitionMap`) while the
//! word axis — and therefore the `l × k` factor `Sf` — stays global.
//! Online (Algorithm 2) solves shard at the engine level: each engine
//! shard steps its own [`crate::OnlineSolver`], and the engine merges
//! their `Sf` factors with [`merge_sf`] when a query needs the global
//! one.

use tgs_linalg::DenseMatrix;

/// Weighted average of per-shard `Sf` factors, accumulated in shard
/// order. Parts are averaged column by column: column `c` of the result
/// mixes column `c` of every part, which is meaningful only while every
/// shard keeps one column order. Nothing here checks or restores that
/// order, and the shared lexicon prior does not keep it: at 4 shards on
/// Prop 30 (full scale) the shards broke it in 63, 55, 16 and 47 of 130
/// daily windows (ROADMAP item 2). A single part is returned as a
/// bit-exact clone (no `×w / w` rounding), so a one-shard fleet answers
/// bit-identically to the unsharded engine. This is the **one** merge
/// policy of the sharded stack: the engine's `top_words` fan-in and its
/// shard merges both use it.
pub fn merge_sf(parts: &[(f64, &DenseMatrix)]) -> Option<DenseMatrix> {
    match parts {
        [] => None,
        [(_, sf)] => Some((*sf).clone()),
        _ => {
            let mut acc = DenseMatrix::zeros(parts[0].1.rows(), parts[0].1.cols());
            let mut total = 0.0;
            for &(w, sf) in parts {
                acc.axpy(w, sf);
                total += w;
            }
            if total > 0.0 {
                acc.scale_in_place(1.0 / total);
            }
            Some(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OnlineConfig;
    use crate::input::TriInput;
    use crate::online::{OnlineSolver, SnapshotData};
    use rand::RngExt;
    use tgs_graph::UserGraph;
    use tgs_linalg::{seeded_rng, CsrMatrix};

    /// Deterministic per-shard RNG seed; shard 0 keeps the configured
    /// seed.
    fn shard_seed(seed: u64, shard: usize) -> u64 {
        seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_97F4_A7C5))
    }

    /// Planted two-cluster instance over a given user set (global ids).
    fn instance(
        users: &[usize],
        n: usize,
        l: usize,
        seed: u64,
    ) -> (CsrMatrix, CsrMatrix, CsrMatrix, UserGraph, DenseMatrix) {
        let mut rng = seeded_rng(seed);
        let m = users.len();
        let mut xp = Vec::new();
        let mut xu = Vec::new();
        let mut xr = Vec::new();
        let mut edges = Vec::new();
        for i in 0..n {
            let a = rng.random_range(0..m);
            let c = users[a] % 2;
            for _ in 0..4 {
                let f = 2 * rng.random_range(0..l / 2) + c;
                xp.push((i, f, 1.0));
            }
            xr.push((a, i, 1.0));
        }
        for (row, &u) in users.iter().enumerate() {
            let c = u % 2;
            for _ in 0..6 {
                let f = 2 * rng.random_range(0..l / 2) + c;
                xu.push((row, f, 1.0));
            }
            if let Some(peer) = users.iter().position(|&v| v % 2 == c && v != u) {
                edges.push((row, peer, 1.0));
            }
        }
        let xp = CsrMatrix::from_triplets(n, l, &xp).unwrap();
        let xu = CsrMatrix::from_triplets(m, l, &xu).unwrap();
        let xr = CsrMatrix::from_triplets(m, n, &xr).unwrap();
        let graph = UserGraph::from_edges(m, &edges);
        let sf0 = DenseMatrix::from_fn(l, 2, |f, j| if f % 2 == j { 0.8 } else { 0.2 });
        (xp, xu, xr, graph, sf0)
    }

    fn online_config() -> OnlineConfig {
        OnlineConfig {
            k: 2,
            max_iters: 30,
            tol: 1e-7,
            ..Default::default()
        }
    }

    #[test]
    fn online_ghosts_carry_owner_factors_and_stay_unrecorded() {
        let users_a: Vec<usize> = (0..5).collect();
        // Shard B's snapshot includes user 2 (owned by shard A) as a
        // ghost row: B holds a re-tweet edge of A's user.
        let users_b_with_ghost: Vec<usize> = vec![2, 5, 6, 7, 8];
        let cfg = online_config();
        let mut owner = OnlineSolver::try_new(cfg.clone()).unwrap();
        let mut holder = OnlineSolver::try_new(OnlineConfig {
            seed: shard_seed(cfg.seed, 1),
            ..cfg
        })
        .unwrap();
        for t in 0..3u64 {
            let (xp_a, xu_a, xr_a, g_a, sf0) = instance(&users_a, 24, 12, t + 300);
            let (xp_b, xu_b, xr_b, g_b, _) = instance(&users_b_with_ghost, 24, 12, t + 400);
            let input_a = TriInput {
                xp: &xp_a,
                xu: &xu_a,
                xr: &xr_a,
                graph: &g_a,
                sf0: &sf0,
            };
            let input_b = TriInput {
                xp: &xp_b,
                xu: &xu_b,
                xr: &xr_b,
                graph: &g_b,
                sf0: &sf0,
            };
            let data_a = SnapshotData {
                input: input_a,
                user_ids: &users_a,
            };
            let data_b = SnapshotData {
                input: input_b,
                user_ids: &users_b_with_ghost,
            };
            // The ghost carries the owner's pre-step factor (uniform
            // before the owner has seen the user).
            let carried = owner.sentiment_of(2).unwrap_or_else(|| vec![0.5, 0.5]);
            owner.try_step(&data_a).unwrap();
            let b = holder
                .try_step_with_ghosts(&data_b, &[(2, carried)])
                .unwrap();
            assert_eq!(b.partition.ghost_rows, vec![0], "user 2 is row 0 of B");
            assert!(
                !b.partition.new_rows.contains(&0) && !b.partition.evolving_rows.contains(&0),
                "ghost rows leave the new/evolving sets"
            );
        }
        // Only the owner ever recorded user 2: the ghost holder withheld
        // it but recorded its own users.
        assert!(owner.sentiment_of(2).is_some());
        assert!(holder.sentiment_of(2).is_none());
        assert!(holder.sentiment_of(5).is_some());
    }
}
