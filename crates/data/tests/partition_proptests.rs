//! Property tests for the user-range partitioner and the shard-local
//! matrix assembly: over random corpora and shard counts `S ∈ 1..=8`,
//! every user maps to exactly one shard, tweet rows follow their user,
//! and concatenating the shard assemblies is a permutation of the
//! unsharded assembly.
//!
//! The permutation property is checked under count weighting — a row's
//! values then depend only on its own document/user, so it must be
//! byte-identical wherever it lands. (TF-IDF weights are fitted per
//! document set and are shard-dependent by construction; the shapes and
//! sparsity-pattern properties still hold there.)

use proptest::prelude::*;
use tgs_data::{
    assemble_snapshot_matrices, generate, route_docs, route_docs_ghost, Corpus, GeneratorConfig,
    PartitionMap, RepartitionOp, RepartitionPlan, SnapshotMatrices,
};
use tgs_text::{PipelineConfig, Vocabulary, Weighting};

/// Derives an arbitrary-but-valid repartition plan from a map and a
/// stream of raw op choices, applying each op as it is derived so later
/// ops see the updated topology. Returns the plan and the final map.
fn derive_plan(
    map: &PartitionMap,
    raw_ops: &[(u8, usize, usize)],
) -> (RepartitionPlan, PartitionMap) {
    let mut plan = RepartitionPlan::default();
    let mut cur = map.clone();
    for &(kind, a, b) in raw_ops {
        let shards = cur.shards();
        let universe = cur.universe();
        let op = match kind % 3 {
            0 => {
                // Split some shard strictly inside its range, if wide
                // enough.
                let shard = a % shards;
                let (lo, _) = cur.range(shard);
                let hi = cur.starts().get(shard + 1).copied().unwrap_or(universe);
                if hi <= lo + 1 {
                    continue;
                }
                let at = lo + 1 + b % (hi - lo - 1);
                RepartitionOp::Split { shard, at }
            }
            1 => {
                if shards < 2 {
                    continue;
                }
                RepartitionOp::Merge {
                    left: a % (shards - 1),
                }
            }
            _ => {
                if shards < 2 {
                    continue;
                }
                let boundary = 1 + a % (shards - 1);
                let lo = cur.starts()[boundary - 1];
                let hi = cur.starts().get(boundary + 1).copied().unwrap_or(universe);
                if hi <= lo + 1 {
                    continue;
                }
                RepartitionOp::MoveBoundary {
                    boundary,
                    to: lo + 1 + b % (hi - lo - 1),
                }
            }
        };
        cur = RepartitionPlan::single(op)
            .apply(&cur)
            .expect("derived op is valid by construction");
        plan.ops.push(op);
    }
    (plan, cur)
}

fn pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_defaults();
    cfg.vocab.min_count = 1;
    cfg.weighting = Weighting::Counts;
    cfg
}

/// One shard's documents, users and matrices.
struct ShardAssembly {
    /// Global tweet ids, in row order of `xp`.
    tweet_ids: Vec<usize>,
    /// Global user ids, in row order of `xu` / `xr`.
    user_ids: Vec<usize>,
    matrices: SnapshotMatrices,
}

/// Splits a corpus over `shards` even user ranges the way the engine
/// worker assembles a routed snapshot: `route_docs` sends each document
/// to its author's shard, and `assemble_snapshot_matrices` builds each
/// shard's matrices over the one shared vocabulary, with the shard's
/// users in ascending global-id order.
fn assemble_shards(
    corpus: &Corpus,
    vocab: &Vocabulary,
    shards: usize,
    cfg: &PipelineConfig,
) -> Vec<ShardAssembly> {
    let map = PartitionMap::even(corpus.num_users(), shards);
    let authors: Vec<usize> = corpus.tweets.iter().map(|t| t.author).collect();
    let events: Vec<(usize, usize)> = corpus.retweets.iter().map(|r| (r.user, r.tweet)).collect();
    let routing = route_docs(&map, &authors, &events);
    (0..shards)
        .map(|shard| {
            let tweet_ids = routing.shard_docs[shard].clone();
            let retweets = &routing.shard_retweets[shard];
            let mut user_ids: Vec<usize> = tweet_ids
                .iter()
                .map(|&t| authors[t])
                .chain(retweets.iter().map(|&(u, _)| u))
                .collect();
            user_ids.sort_unstable();
            user_ids.dedup();
            let local = |u: usize| user_ids.binary_search(&u).expect("user has a row");
            let encoded: Vec<Vec<usize>> = tweet_ids
                .iter()
                .map(|&t| vocab.encode(corpus.tweets[t].tokens.iter().map(String::as_str)))
                .collect();
            let doc_users: Vec<usize> = tweet_ids.iter().map(|&t| local(authors[t])).collect();
            let pairs: Vec<(usize, usize)> = retweets.iter().map(|&(u, d)| (local(u), d)).collect();
            let matrices = assemble_snapshot_matrices(
                vocab,
                &encoded,
                &doc_users,
                user_ids.len(),
                &pairs,
                cfg.weighting,
            );
            ShardAssembly {
                tweet_ids,
                user_ids,
                matrices,
            }
        })
        .collect()
}

fn corpus_config(users: usize, tweets: usize, days: u32, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_users: users,
        total_tweets: tweets,
        num_days: days,
        seed,
        ..GeneratorConfig::default()
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    #[test]
    fn every_user_maps_to_exactly_one_shard(
        universe in 1usize..200,
        shards in 1usize..=8,
        probe in 0usize..500,
    ) {
        let p = PartitionMap::even(universe, shards);
        // Total function, stable, and within bounds.
        let s = p.shard_of(probe);
        prop_assert!(s < shards);
        prop_assert_eq!(s, p.shard_of(probe), "routing must be stable");
        // Ranges tile the universe: each user is inside exactly one.
        let mut owners = 0;
        for shard in 0..shards {
            let (lo, hi) = p.range(shard);
            if (lo..hi).contains(&probe.min(universe.saturating_sub(1))) {
                owners += 1;
            }
        }
        prop_assert_eq!(owners, 1);
    }

    #[test]
    fn tweets_follow_their_user_and_routing_partitions_docs(
        (users, tweets, days) in (4usize..30, 20usize..120, 1u32..6),
        shards in 1usize..=8,
        seed in 0u64..1_000,
    ) {
        let corpus = generate(&corpus_config(users, tweets, days, seed));
        let p = PartitionMap::even(corpus.num_users(), shards);
        let authors: Vec<usize> = corpus.tweets.iter().map(|t| t.author).collect();
        let events: Vec<(usize, usize)> =
            corpus.retweets.iter().map(|r| (r.user, r.tweet)).collect();
        let routing = route_docs(&p, &authors, &events);
        // Every document lands in exactly one shard — the shard of its
        // author — and the per-shard lists partition the document set.
        let mut seen = vec![0usize; authors.len()];
        for (shard, docs) in routing.shard_docs.iter().enumerate() {
            for &doc in docs {
                seen[doc] += 1;
                prop_assert_eq!(p.shard_of(authors[doc]), shard);
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1));
        // Kept re-tweets stay within their shard; drops are exactly the
        // cross-shard ones.
        let kept: usize = routing.shard_retweets.iter().map(Vec::len).sum();
        let crossing = events
            .iter()
            .filter(|&&(u, doc)| p.shard_of(u) != p.shard_of(authors[doc]))
            .count();
        prop_assert_eq!(routing.dropped_retweets, crossing);
        prop_assert_eq!(kept + crossing, events.len());
    }

    #[test]
    fn any_plan_keeps_every_user_in_exactly_one_shard(
        universe in 2usize..200,
        shards in 1usize..=6,
        raw_ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..256), 0..6),
        probe in 0usize..500,
    ) {
        let map = PartitionMap::even(universe, shards);
        let (plan, expected) = derive_plan(&map, &raw_ops);
        let applied = plan.apply(&map).expect("derived plan must apply");
        prop_assert_eq!(&applied, &expected, "op-at-a-time equals whole-plan");
        // Every user — inside or beyond the universe — has exactly one
        // owner, and the owner's range contains them.
        let s = applied.shard_of(probe);
        prop_assert!(s < applied.shards());
        let mut owners = 0;
        for shard in 0..applied.shards() {
            let (lo, hi) = applied.range(shard);
            if (lo..hi).contains(&probe.min(universe - 1)) {
                owners += 1;
            }
        }
        prop_assert_eq!(owners, 1);
        // The diff lists a range for every user whose owner changed and
        // nothing else.
        let diff = map.diff(&applied);
        for user in 0..universe + 10 {
            let moved = map.shard_of(user) != applied.shard_of(user);
            let listed = diff
                .iter()
                .any(|m| user >= m.lo && (m.hi == usize::MAX || user < m.hi));
            prop_assert_eq!(moved, listed, "user {}: moved={} listed={}", user, moved, listed);
            if let Some(m) = diff
                .iter()
                .find(|m| user >= m.lo && (m.hi == usize::MAX || user < m.hi))
            {
                prop_assert_eq!(m.from, map.shard_of(user));
                prop_assert_eq!(m.to, applied.shard_of(user));
            }
        }
    }

    #[test]
    fn ghost_routing_preserves_the_retweet_edge_multiset(
        (users, tweets, days) in (4usize..30, 20usize..120, 1u32..6),
        shards in 1usize..=8,
        seed in 0u64..1_000,
    ) {
        let corpus = generate(&corpus_config(users, tweets, days, seed));
        let map = PartitionMap::even(corpus.num_users(), shards);
        let authors: Vec<usize> = corpus.tweets.iter().map(|t| t.author).collect();
        let events: Vec<(usize, usize)> =
            corpus.retweets.iter().map(|r| (r.user, r.tweet)).collect();
        let routing = route_docs_ghost(&map, &authors, &events);
        prop_assert_eq!(routing.dropped_retweets, 0, "ghost mode never drops");
        // Re-assemble the global (user, doc) edge multiset from the
        // per-shard slices: it must equal the input exactly.
        let mut reassembled: Vec<(usize, usize)> = Vec::new();
        for (shard, kept) in routing.shard_retweets.iter().enumerate() {
            for &(user, local_doc) in kept {
                reassembled.push((user, routing.shard_docs[shard][local_doc]));
            }
        }
        let mut expected = events.clone();
        reassembled.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(reassembled, expected);
        // Ghost bookkeeping: ghosts are exactly the cross-shard users of
        // kept edges, and the ghost-edge count is the cross-shard count.
        let crossing = events
            .iter()
            .filter(|&&(u, doc)| map.shard_of(u) != map.shard_of(authors[doc]))
            .count();
        prop_assert_eq!(routing.ghost_edges, crossing);
        for (shard, ghosts) in routing.shard_ghosts.iter().enumerate() {
            for &g in ghosts {
                prop_assert!(map.shard_of(g) != shard, "a ghost is always remote");
            }
        }
    }

    #[test]
    fn shard_concatenation_is_a_permutation_of_the_unsharded_assembly(
        (users, tweets, days) in (4usize..24, 20usize..100, 1u32..5),
        shards in 1usize..=8,
        seed in 0u64..1_000,
    ) {
        // Drop re-tweets so interaction matrices are comparable too: a
        // cross-shard re-tweet edge is (by documented design) dropped
        // during sharding, which would make Xr differ, not permute.
        let mut corpus = generate(&corpus_config(users, tweets, days, seed));
        corpus.retweets.clear();
        let cfg = pipeline();
        let vocab = Vocabulary::build(
            corpus.tweets.iter().map(|t| t.tokens.iter().map(String::as_str)),
            &cfg.vocab,
        );
        let sharded = assemble_shards(&corpus, &vocab, shards, &cfg);
        let unsharded = assemble_shards(&corpus, &vocab, 1, &cfg);
        let global = &unsharded[0];
        let tweet_row: std::collections::HashMap<usize, usize> = global
            .tweet_ids
            .iter()
            .enumerate()
            .map(|(row, &t)| (t, row))
            .collect();
        let user_row: std::collections::HashMap<usize, usize> = global
            .user_ids
            .iter()
            .enumerate()
            .map(|(row, &u)| (u, row))
            .collect();

        let mut tweets_seen = 0usize;
        let mut users_seen = 0usize;
        for slice in &sharded {
            // Tweet rows: identical values wherever the row landed.
            for (local, &t) in slice.tweet_ids.iter().enumerate() {
                let global_row = tweet_row[&t];
                prop_assert_eq!(
                    slice.matrices.xp.iter_row(local).collect::<Vec<_>>(),
                    global.matrices.xp.iter_row(global_row).collect::<Vec<_>>(),
                    "tweet {} row must be a permutation-preserved copy",
                    t,
                );
            }
            // User rows: the user's whole document set travelled with
            // them, so the aggregated feature row is identical too.
            for (local, &u) in slice.user_ids.iter().enumerate() {
                let global_row = user_row[&u];
                prop_assert_eq!(
                    slice.matrices.xu.iter_row(local).collect::<Vec<_>>(),
                    global.matrices.xu.iter_row(global_row).collect::<Vec<_>>(),
                    "user {} row must be a permutation-preserved copy",
                    u,
                );
            }
            // Xr: posting edges connect the same (user, tweet) pairs.
            for (local_user, &u) in slice.user_ids.iter().enumerate() {
                for (local_tweet, &t) in slice.tweet_ids.iter().enumerate() {
                    prop_assert_eq!(
                        slice.matrices.xr.get(local_user, local_tweet),
                        global.matrices.xr.get(user_row[&u], tweet_row[&t]),
                        "interaction ({}, {}) must be preserved",
                        u,
                        t,
                    );
                }
            }
            tweets_seen += slice.tweet_ids.len();
            users_seen += slice.user_ids.len();
        }
        prop_assert_eq!(tweets_seen, global.tweet_ids.len());
        prop_assert_eq!(users_seen, global.user_ids.len());
    }
}
