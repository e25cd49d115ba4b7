//! Live-rebalance integration tests for the elastic [`ShardedEngine`].
//!
//! The central determinism guarantee: migration is *lossless*. Moving a
//! user range between workers carries their full temporal state
//! (solver history rows age-relative, queryable observations verbatim),
//! so a mid-stream rebalance round trip (a plan followed by its
//! inverse, with no ingest in between) leaves the fleet byte-identical
//! to one that never rebalanced — subsequent timelines, user queries
//! and even checkpoint bytes match exactly. A one-way rebalance is
//! equivalent to a static-topology fleet restored from its checkpoint:
//! both continue the stream bit-identically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use tripartite_sentiment::data::{PartitionMap, RepartitionOp, RepartitionPlan};
use tripartite_sentiment::prelude::*;

fn corpus() -> Corpus {
    generate(&presets::tiny(42))
}

fn fleet(c: &Corpus, shards: usize, ghosts: bool) -> ShardedEngine {
    EngineBuilder::new()
        .k(3)
        .max_iters(10)
        .seed(42)
        .ghost_users(ghosts)
        .fit_sharded(c, shards)
        .expect("valid configuration")
}

fn windows(c: &Corpus) -> Vec<(u32, u32)> {
    day_windows(c.num_days, 1)
}

fn stream(engine: &ShardedEngine, c: &Corpus, wins: &[(u32, u32)]) {
    for &(lo, hi) in wins {
        engine
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .unwrap();
    }
    engine.flush().unwrap();
}

/// Per-user `(timestamp, distribution)` observations keyed by user id.
type UserTimelines = Vec<(usize, Vec<(u64, Vec<f64>)>)>;

/// Every user query the fleet can answer, as a comparable value.
fn all_user_state(engine: &ShardedEngine, c: &Corpus) -> UserTimelines {
    let query = engine.query();
    (0..c.num_users())
        .filter_map(|u| query.user_timeline(u).ok().map(|t| (u, t)))
        .collect()
}

#[test]
fn rebalance_round_trip_is_byte_identical_to_never_rebalancing() {
    let c = corpus();
    let wins = windows(&c);
    let (head, tail) = wins.split_at(wins.len() / 2);

    let rebalanced = fleet(&c, 3, false);
    let control = fleet(&c, 3, false);
    stream(&rebalanced, &c, head);
    stream(&control, &c, head);

    // Move a boundary and move it back; split a shard and merge it
    // away again. Each forward delta migrates real users; the inverse
    // must restore every worker exactly.
    let map = rebalanced.map();
    let b1 = map.starts()[1];
    let forward = RepartitionPlan {
        ops: vec![
            RepartitionOp::MoveBoundary {
                boundary: 1,
                to: b1 + 3,
            },
            RepartitionOp::Split {
                shard: 2,
                at: map.starts()[2] + 2,
            },
        ],
    };
    let inverse = RepartitionPlan {
        ops: vec![
            RepartitionOp::Merge { left: 2 },
            RepartitionOp::MoveBoundary {
                boundary: 1,
                to: b1,
            },
        ],
    };
    let widened = rebalanced.rebalance(&forward).unwrap();
    assert_eq!(widened.shards(), 4);
    // Mid-flight sanity: history survived the forward migration.
    assert_eq!(
        all_user_state(&rebalanced, &c),
        all_user_state(&control, &c)
    );
    let restored = rebalanced.rebalance(&inverse).unwrap();
    assert_eq!(restored, control.map(), "round trip restores the map");

    // The remaining stream must solve byte-identically on both fleets.
    stream(&rebalanced, &c, tail);
    stream(&control, &c, tail);
    assert_eq!(
        rebalanced.query().timeline(..).unwrap(),
        control.query().timeline(..).unwrap(),
        "round-tripped fleet must match a never-rebalanced one exactly"
    );
    assert_eq!(
        all_user_state(&rebalanced, &c),
        all_user_state(&control, &c)
    );
    assert_eq!(
        rebalanced.checkpoint().unwrap().as_bytes(),
        control.checkpoint().unwrap().as_bytes(),
        "even the checkpoints are byte-identical"
    );
}

#[test]
fn rebalanced_fleet_equals_its_static_topology_restore() {
    // A one-way mid-stream rebalance, compared against the equivalent
    // *static* topology: a fleet restored from the rebalanced
    // checkpoint (it was born with the new map and never calls
    // rebalance). Both must continue the stream bit-identically.
    let c = corpus();
    let wins = windows(&c);
    let (head, tail) = wins.split_at(wins.len() / 2);

    let live = fleet(&c, 3, false);
    stream(&live, &c, head);
    let plan = RepartitionPlan {
        ops: vec![RepartitionOp::MoveBoundary {
            boundary: 2,
            to: live.map().starts()[2] - 2,
        }],
    };
    let new_map = live.rebalance(&plan).unwrap();
    let ckpt = live.checkpoint().unwrap();
    let static_fleet = ShardedEngine::restore_any(ckpt.as_bytes().to_vec()).unwrap();
    assert_eq!(static_fleet.map(), new_map);

    stream(&live, &c, tail);
    stream(&static_fleet, &c, tail);
    assert_eq!(
        live.query().timeline(..).unwrap(),
        static_fleet.query().timeline(..).unwrap()
    );
    assert_eq!(all_user_state(&live, &c), all_user_state(&static_fleet, &c));
    assert_eq!(
        live.checkpoint().unwrap().as_bytes(),
        static_fleet.checkpoint().unwrap().as_bytes()
    );
}

#[test]
fn rebalance_preserves_history_and_merge_folds_timelines() {
    let c = corpus();
    let wins = windows(&c);
    let (head, tail) = wins.split_at(wins.len() / 2);
    let engine = fleet(&c, 4, false);
    stream(&engine, &c, head);

    let before_timeline = engine.query().timeline(..).unwrap();
    let before_users = all_user_state(&engine, &c);
    let t0 = before_timeline[0].timestamp;
    let words_before = engine.query().top_words(t0, 5).ok();

    // A merge folds two workers; historical *merged* queries must not
    // change — the one caveat is the f64 `objective`, whose summation
    // order shifts when two shards' entries fold before the query-side
    // fan-in (float addition is not associative), so it is compared to
    // within rounding rather than bit-exactly.
    engine
        .rebalance(&RepartitionPlan::single(RepartitionOp::Merge { left: 1 }))
        .unwrap();
    assert_eq!(engine.shards(), 3);
    let after_timeline = engine.query().timeline(..).unwrap();
    assert_eq!(after_timeline.len(), before_timeline.len());
    for (a, b) in after_timeline.iter().zip(&before_timeline) {
        let mut a_exact = a.clone();
        a_exact.objective = b.objective;
        assert_eq!(&a_exact, b, "t = {}", b.timestamp);
        let denom = b.objective.abs().max(1.0);
        assert!(
            (a.objective - b.objective).abs() / denom < 1e-12,
            "objective drifted beyond rounding at t = {}",
            b.timestamp
        );
    }
    assert_eq!(all_user_state(&engine, &c), before_users);
    if let Some(words) = words_before {
        // Two retained Sf factors fold through the solvers' weighted
        // merge; the ranking still answers (weights are the shards'
        // recorded tweet counts, so the fold is deterministic).
        assert_eq!(engine.query().top_words(t0, 5).unwrap().len(), words.len());
    }

    // The stream continues normally on the merged topology, and a
    // duplicate timestamp is still rejected fleet-wide after the swap.
    stream(&engine, &c, tail);
    assert_eq!(engine.steps() as usize, wins.len());
    let dup = EngineSnapshot::from_corpus_window(&c, head[0].0, head[0].1);
    assert!(engine.ingest(dup).is_err());
}

#[test]
fn ghost_mode_with_mid_stream_rebalance_drops_nothing() {
    let c = corpus();
    let wins = windows(&c);
    let (head, tail) = wins.split_at(wins.len() / 2);
    let engine = fleet(&c, 4, true);
    stream(&engine, &c, head);
    let map = engine.map();
    engine
        .rebalance(&RepartitionPlan::single(RepartitionOp::MoveBoundary {
            boundary: 1,
            to: map.starts()[1] + 2,
        }))
        .unwrap();
    stream(&engine, &c, tail);
    assert_eq!(
        engine.dropped_cross_shard(),
        0,
        "ghost mode must never drop a retweet edge, rebalance or not"
    );
    assert!(engine.ghost_edges() > 0);
    // Determinism: a twin performing the identical schedule matches.
    let twin = fleet(&c, 4, true);
    stream(&twin, &c, head);
    twin.rebalance(&RepartitionPlan::single(RepartitionOp::MoveBoundary {
        boundary: 1,
        to: map.starts()[1] + 2,
    }))
    .unwrap();
    stream(&twin, &c, tail);
    assert_eq!(
        twin.query().timeline(..).unwrap(),
        engine.query().timeline(..).unwrap()
    );
    assert_eq!(
        twin.checkpoint().unwrap().as_bytes(),
        engine.checkpoint().unwrap().as_bytes()
    );
}

#[test]
fn auto_rebalance_splits_the_hottest_shard() {
    // A deliberately skewed stream: one author produces almost all
    // documents, so the fleet's skew blows past any sane budget and the
    // auto-trigger must split that author's shard.
    let c = corpus();
    let engine = fleet(&c, 2, false);
    let hot = 0usize; // shard 0's range
    let other = c.num_users() - 1;
    for t in 0..6u64 {
        let mut snap = EngineSnapshot::new(t);
        for _ in 0..9 {
            snap.push_tokens(hot, vec!["hot".into(), "topic".into()]);
            snap.push_tokens(hot + 1, vec!["hot".into(), "takes".into()]);
        }
        snap.push_tokens(other, vec!["quiet".into()]);
        engine.ingest(snap).unwrap();
    }
    engine.flush().unwrap();
    assert!(engine.load_skew() > 1.5);
    let map = engine.maybe_rebalance(1.5).unwrap().expect("skew exceeded");
    assert_eq!(map.shards(), 3, "the hottest shard splits in two");
    // The split lands inside the formerly hottest shard's range.
    assert!(map.starts()[1] > 0 && map.starts()[1] <= c.num_users() / 2);
    // Below the threshold nothing further happens.
    assert!(engine.maybe_rebalance(100.0).unwrap().is_none());
    // And the split fleet still answers history for everyone.
    let query = engine.query();
    assert!(query.user_sentiment(hot, 5).is_ok());
    assert!(query.user_sentiment(other, 5).is_ok());
}

#[test]
fn auto_split_isolates_a_hot_trailing_user() {
    // The load midpoint lands on the *last* in-range user of the hot
    // shard: splitting after them is out of range, so the planner must
    // fall back to splitting before them (isolating the hot user on the
    // right half) instead of silently giving up.
    let c = corpus(); // 30 users → shard 0 owns [0, 15)
    let engine = fleet(&c, 2, false);
    let hot = 14usize;
    for t in 0..3u64 {
        let mut snap = EngineSnapshot::new(t);
        for _ in 0..20 {
            snap.push_tokens(hot, vec!["hot".into(), "user".into()]);
        }
        snap.push_tokens(0, vec!["quiet".into()]);
        snap.push_tokens(20, vec!["quiet".into()]);
        engine.ingest(snap).unwrap();
    }
    engine.flush().unwrap();
    let map = engine.maybe_rebalance(1.5).unwrap().expect("skew exceeded");
    assert_eq!(
        map.starts(),
        &[0, 14, 15],
        "split lands before the hot user"
    );
    assert!(engine.query().user_sentiment(hot, 2).is_ok());
}

#[test]
fn router_rejects_producer_filled_ghost_seeds() {
    let c = corpus();
    let engine = fleet(&c, 2, true);
    let mut snap = EngineSnapshot::new(0);
    snap.push_tokens(0, vec!["hello".into()]);
    snap.ghosts.push((5, vec![0.5, 0.3, 0.2]));
    let err = engine.ingest(snap).unwrap_err();
    assert_eq!(err.kind(), TgsErrorKind::InvalidArgument);
    assert_eq!(engine.steps(), 0, "the rejected snapshot must not commit");
}

#[test]
fn inapplicable_plans_are_typed_errors_and_leave_the_fleet_intact() {
    let c = corpus();
    let engine = fleet(&c, 2, false);
    stream(&engine, &c, &windows(&c));
    let before = engine.query().timeline(..).unwrap();
    let bad = RepartitionPlan::single(RepartitionOp::Split {
        shard: 7,
        at: 1_000,
    });
    let err = engine.rebalance(&bad).unwrap_err();
    assert_eq!(err.kind(), TgsErrorKind::InvalidArgument);
    assert_eq!(engine.shards(), 2);
    assert_eq!(engine.query().timeline(..).unwrap(), before);
    // An empty plan is a no-op, not an error.
    let map = engine.rebalance(&RepartitionPlan::default()).unwrap();
    assert_eq!(map, engine.map());
    // PartitionMap::even round-trips through the checkpoint unchanged.
    let ckpt = engine.checkpoint().unwrap();
    let restored = ShardedEngine::restore(&ckpt).unwrap();
    assert_eq!(restored.map(), PartitionMap::even(c.num_users(), 2));
}

#[test]
fn auto_merge_drains_the_coldest_shard_leftward() {
    // Shards 0 and 1 stay busy while shard 2's range goes quiet; the
    // merge policy must fold the cold shard into its left neighbour
    // without losing any of its users' history.
    let c = corpus(); // 30 users → shards own [0,10), [10,20), [20,30)
    let engine = fleet(&c, 3, false);
    // Nothing routed yet: every shard is equally cold, so no merge.
    assert!(engine.maybe_merge(0.5).unwrap().is_none());
    for t in 0..4u64 {
        let mut snap = EngineSnapshot::new(t);
        for _ in 0..6 {
            snap.push_tokens(2, vec!["busy".into(), "topic".into()]);
            snap.push_tokens(12, vec!["busy".into(), "takes".into()]);
        }
        snap.push_tokens(22, vec!["quiet".into()]);
        engine.ingest(snap).unwrap();
    }
    engine.flush().unwrap();
    let before = all_user_state(&engine, &c);
    let map = engine.maybe_merge(0.5).unwrap().expect("shard 2 is cold");
    assert_eq!(map.shards(), 2);
    assert_eq!(
        map.starts(),
        &[0, 10],
        "the cold trailing shard folds into its left neighbour"
    );
    // Migration is lossless: the drained users answer as before.
    assert_eq!(all_user_state(&engine, &c), before);
    // The surviving topology is balanced enough for the same threshold.
    assert!(engine.maybe_merge(0.5).unwrap().is_none());
}

#[test]
fn auto_merge_of_the_leading_shard_folds_rightward() {
    // Shard 0 has no left neighbour, so when it is the cold one the
    // merge runs the other way: shard 1 absorbs it.
    let c = corpus();
    let engine = fleet(&c, 3, false);
    for t in 0..4u64 {
        let mut snap = EngineSnapshot::new(t);
        for _ in 0..6 {
            snap.push_tokens(12, vec!["busy".into(), "topic".into()]);
            snap.push_tokens(22, vec!["busy".into(), "takes".into()]);
        }
        snap.push_tokens(2, vec!["quiet".into()]);
        engine.ingest(snap).unwrap();
    }
    engine.flush().unwrap();
    let map = engine.maybe_merge(0.5).unwrap().expect("shard 0 is cold");
    assert_eq!(
        map.starts(),
        &[0, 20],
        "the leading shard merges into its right neighbour"
    );
    assert!(engine.query().user_sentiment(2, 3).is_ok());
}

#[test]
fn merge_is_a_no_op_without_a_cold_shard() {
    let c = corpus();
    // A single shard has nothing to merge with, whatever the threshold.
    let single = fleet(&c, 1, false);
    stream(&single, &c, &windows(&c)[..2]);
    assert!(single.maybe_merge(0.9).unwrap().is_none());

    // A balanced fleet stays put below the threshold.
    let balanced = fleet(&c, 3, false);
    for t in 0..3u64 {
        let mut snap = EngineSnapshot::new(t);
        for u in [2usize, 12, 22] {
            snap.push_tokens(u, vec!["even".into(), "keel".into()]);
        }
        balanced.ingest(snap).unwrap();
    }
    balanced.flush().unwrap();
    assert!(balanced.maybe_merge(0.5).unwrap().is_none());
    assert_eq!(balanced.shards(), 3);
}

#[test]
fn queries_racing_rebalance_round_trips_see_one_topology() {
    // A handle taken before any rebalance keeps querying while the main
    // thread splits and merges the fleet back and forth (the round trip
    // above, which is lossless). Each query must read the topology from
    // before or after a rebalance, never a half-migrated one: a user
    // counted on both sides of a migration, or a retired worker's
    // history counted twice.
    let c = corpus();
    let engine = fleet(&c, 3, false);
    stream(&engine, &c, &windows(&c));
    let query = engine.query();
    let users = query.known_users().unwrap();
    let timeline = query.timeline(..).unwrap();
    let map = engine.map();
    let b1 = map.starts()[1];
    let forward = RepartitionPlan {
        ops: vec![
            RepartitionOp::MoveBoundary {
                boundary: 1,
                to: b1 + 3,
            },
            RepartitionOp::Split {
                shard: 2,
                at: map.starts()[2] + 2,
            },
        ],
    };
    let inverse = RepartitionPlan {
        ops: vec![
            RepartitionOp::Merge { left: 2 },
            RepartitionOp::MoveBoundary {
                boundary: 1,
                to: b1,
            },
        ],
    };
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (round_trips, queries) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            start.wait();
            let mut queries = 0u64;
            while !done.load(Ordering::Relaxed) {
                assert_eq!(query.known_users().unwrap(), users);
                assert_eq!(query.timeline(..).unwrap(), timeline);
                queries += 1;
            }
            queries
        });
        // Rebalance only once the reader is running, and stop it
        // whatever happens here, so a failed rebalance fails the test
        // instead of hanging it.
        start.wait();
        let round_trips = (0..200).try_fold(0, |n, _| {
            engine.rebalance(&forward)?;
            engine.rebalance(&inverse).map(|_| n + 1)
        });
        done.store(true, Ordering::Relaxed);
        (round_trips, reader.join().expect("every answer matched"))
    });
    assert_eq!(round_trips.unwrap(), 200);
    assert!(queries > 0, "the reader ran at least one query");
}
