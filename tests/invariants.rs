//! Property-based integration tests: invariants that must hold for
//! arbitrary generator configurations and solver settings.

use proptest::prelude::*;
use tripartite_sentiment::prelude::*;

fn pipe() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_defaults();
    cfg.vocab.min_count = 1;
    cfg
}

/// Strategy: a small random-but-valid generator configuration.
fn generator_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        1u64..1000,
        20usize..60,
        100usize..300,
        5u32..15,
        0.0..0.3f64,
        0.0..0.25f64,
    )
        .prop_map(|(seed, users, tweets, days, noise, flip)| GeneratorConfig {
            seed,
            num_users: users,
            total_tweets: tweets,
            num_days: days,
            tweet_noise: noise,
            flip_fraction: flip,
            ..presets::tiny(seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn corpus_always_well_formed(cfg in generator_config()) {
        let corpus = generate(&cfg);
        prop_assert_eq!(corpus.num_tweets(), cfg.total_tweets);
        prop_assert_eq!(corpus.num_users(), cfg.num_users);
        let mut prev_day = 0;
        for t in &corpus.tweets {
            prop_assert!(t.author < cfg.num_users);
            prop_assert!(t.day < cfg.num_days);
            prop_assert!(t.day >= prev_day, "tweets sorted by day");
            prev_day = t.day;
            prop_assert!(!t.tokens.is_empty());
        }
        for r in &corpus.retweets {
            prop_assert!(r.user < cfg.num_users);
            prop_assert!(r.tweet < cfg.total_tweets);
            prop_assert!(r.user != corpus.tweets[r.tweet].author, "no self-retweets");
        }
    }

    #[test]
    fn matrices_always_consistent(cfg in generator_config()) {
        let corpus = generate(&cfg);
        let inst = build_offline(&corpus, 3, &pipe());
        prop_assert_eq!(inst.xp.rows(), corpus.num_tweets());
        prop_assert_eq!(inst.xu.rows(), corpus.num_users());
        prop_assert_eq!(inst.xr.shape(), (corpus.num_users(), corpus.num_tweets()));
        prop_assert_eq!(inst.xp.cols(), inst.vocab.len());
        prop_assert_eq!(inst.sf0.shape(), (inst.vocab.len(), 3));
        // every Sf0 row is a probability distribution
        for f in 0..inst.vocab.len() {
            let s: f64 = inst.sf0.row(f).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
        // the graph is symmetric with zero diagonal
        let adjacency = inst.graph.adjacency();
        prop_assert_eq!(&adjacency.transpose(), adjacency);
    }

    #[test]
    fn solver_never_breaks_nonnegativity_or_monotonicity(
        cfg in generator_config(),
        alpha in 0.0..1.0f64,
        beta in 0.0..1.0f64,
    ) {
        let corpus = generate(&cfg);
        let inst = build_offline(&corpus, 3, &pipe());
        let input = TriInput {
            xp: &inst.xp,
            xu: &inst.xu,
            xr: &inst.xr,
            graph: &inst.graph,
            sf0: &inst.sf0,
        };
        let solver_cfg = OfflineConfig {
            alpha,
            beta,
            max_iters: 12,
            tol: 0.0,
            track_objective: true,
            ..Default::default()
        };
        let result = solve_offline(&input, &solver_cfg);
        prop_assert!(result.factors.all_nonnegative());
        prop_assert!(result.objective.is_finite());
        // ≤1% transient rises allowed (raw objective vs Lagrangian — see
        // tests/offline_pipeline.rs); overall trend must be down.
        for w in result.history.windows(2) {
            prop_assert!(
                w[1].total() <= w[0].total() * 1.01,
                "objective jumped {} -> {}", w[0].total(), w[1].total()
            );
        }
        let first = result.history.first().unwrap().total();
        let last = result.history.last().unwrap().total();
        prop_assert!(last <= first, "objective should not end above its start");
    }

    #[test]
    fn labels_always_in_range(cfg in generator_config()) {
        let corpus = generate(&cfg);
        let inst = build_offline(&corpus, 3, &pipe());
        let input = TriInput {
            xp: &inst.xp,
            xu: &inst.xu,
            xr: &inst.xr,
            graph: &inst.graph,
            sf0: &inst.sf0,
        };
        let result = solve_offline(
            &input,
            &OfflineConfig { max_iters: 8, ..Default::default() },
        );
        prop_assert!(result.tweet_labels().iter().all(|&l| l < 3));
        prop_assert!(result.user_labels().iter().all(|&l| l < 3));
        prop_assert!(result.factors.feature_labels().iter().all(|&l| l < 3));
    }
}

#[test]
fn snapshot_union_reconstructs_corpus() {
    let corpus = generate(&presets::tiny(61));
    let builder = SnapshotBuilder::new(&corpus, 3, &pipe());
    let mut seen_tweets = std::collections::HashSet::new();
    for (lo, hi) in day_windows(corpus.num_days, 5) {
        let snap = builder.snapshot(&corpus, lo, hi);
        for &t in &snap.tweet_ids {
            assert!(seen_tweets.insert(t), "tweet {t} appeared in two snapshots");
        }
    }
    assert_eq!(
        seen_tweets.len(),
        corpus.num_tweets(),
        "snapshots must partition tweets"
    );
}
