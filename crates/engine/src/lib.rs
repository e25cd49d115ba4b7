//! # tgs-engine
//!
//! The streaming session facade over the online tri-clustering solver
//! (Algorithm 2 of Zhu et al., SIGMOD 2014): one stable seam that owns
//! the full dynamic-sentiment lifecycle so callers never hand-wire
//! `TriInput`, `OnlineSolver`, windows and stores themselves.
//!
//! * [`EngineBuilder`] — builder-style configuration with typed
//!   validation (`TgsError::InvalidConfig` instead of panics);
//! * [`SentimentEngine`] — owns a bounded ingest queue and a worker
//!   thread: producers submit owned [`EngineSnapshot`]s and never block
//!   on a solve; the worker tokenizes, vectorizes, assembles the
//!   tripartite matrices, steps the solver and records results;
//! * [`EngineQuery`] — the read side: `user_sentiment(user, at)`,
//!   `timeline(range)`, `cluster_summary(t)`, `top_words(t, k)` over the
//!   recorded history;
//! * [`EngineCheckpoint`] — byte-exact checkpoint/restore of the whole
//!   session, including the solver's temporal state (window matrices are
//!   compacted into references against the factor store);
//! * [`ShardedEngine`] — the multi-shard router: `S` engine workers
//!   behind one ingest/query seam, partitioned by user range, with a
//!   merged [`ShardedQuery`] read side, aggregated [`EngineStats`], and
//!   a validated multi-shard [`ShardedCheckpoint`]. One shard is
//!   bit-identical to a plain [`SentimentEngine`].
//!
//! ```
//! use tgs_data::{day_windows, generate, presets};
//! use tgs_engine::{EngineBuilder, EngineSnapshot};
//!
//! let corpus = generate(&presets::tiny(42));
//! let engine = EngineBuilder::new().k(3).max_iters(10).fit(&corpus).unwrap();
//! for (lo, hi) in day_windows(corpus.num_days, 4) {
//!     engine
//!         .ingest(EngineSnapshot::from_corpus_window(&corpus, lo, hi))
//!         .unwrap();
//! }
//! engine.flush().unwrap();
//! let query = engine.query();
//! let timeline = query.timeline(..);
//! assert!(!timeline.is_empty());
//! assert_eq!(timeline[0].tweet_counts.len(), 3);
//! ```

mod batch;
mod builder;
mod checkpoint;
mod delta;
mod engine;
mod hist;
pub mod query;
mod sharded;
mod snapshot;
pub mod transport;

pub use batch::{BatchPolicy, BatchingIngest, IngestSink};
pub use builder::EngineBuilder;
pub use checkpoint::EngineCheckpoint;
pub use delta::CheckpointDelta;
pub use engine::{EngineStats, SentimentEngine};
pub use hist::{LatencyHistogram, HIST_BUCKETS};
pub use query::{ClusterSummary, EngineQuery, TimelineEntry, UserSentiment};
pub use sharded::{
    Coverage, FleetTips, Partial, RecoveryCounters, ShardLoad, ShardedCheckpoint, ShardedDelta,
    ShardedEngine, ShardedQuery,
};
pub use snapshot::{DocContent, EngineDoc, EngineRetweet, EngineSnapshot};
pub use transport::{LocalShard, ShardTransport};

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_core::{OnlineConfig, TgsError, TgsErrorKind};
    use tgs_data::{day_windows, generate, presets, GeneratorConfig};

    fn corpus() -> tgs_data::Corpus {
        generate(&GeneratorConfig {
            num_users: 20,
            total_tweets: 160,
            num_days: 8,
            ..Default::default()
        })
    }

    fn engine_over(corpus: &tgs_data::Corpus) -> SentimentEngine {
        EngineBuilder::new()
            .k(3)
            .max_iters(8)
            .fit(corpus)
            .expect("valid build")
    }

    #[test]
    fn builder_rejects_bad_config_with_typed_error() {
        let err = EngineBuilder::new()
            .online(OnlineConfig {
                alpha: 3.0,
                ..OnlineConfig::default()
            })
            .fit(&corpus())
            .err()
            .expect("alpha out of domain");
        assert_eq!(err.kind(), TgsErrorKind::InvalidConfig);
        let err = EngineBuilder::new()
            .queue_depth(0)
            .fit(&corpus())
            .err()
            .expect("queue depth zero");
        assert_eq!(err.kind(), TgsErrorKind::InvalidConfig);
    }

    #[test]
    fn ingest_flush_query_roundtrip() {
        let c = corpus();
        let engine = engine_over(&c);
        for (lo, hi) in day_windows(c.num_days, 2) {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
        }
        let steps = engine.flush().unwrap();
        assert!(steps >= 3);
        let query = engine.query();
        let timeline = query.timeline(..);
        assert_eq!(timeline.len() as u64, steps);
        let total: usize = timeline.iter().map(|e| e.tweets).sum();
        assert_eq!(total, c.num_tweets());
        // range query slices the same history
        let first_two = query.timeline(..timeline[2].timestamp);
        assert_eq!(first_two.len(), 2);
        // cluster_summary mirrors the timeline entry
        let summary = query.cluster_summary(timeline[0].timestamp).unwrap();
        assert_eq!(summary.tweet_counts, timeline[0].tweet_counts);
        let shares: f64 = summary.tweet_shares.iter().sum();
        assert!((shares - 1.0).abs() < 1e-9);
        // top_words answers for a recorded snapshot with real tokens
        let words = query.top_words(timeline[0].timestamp, 5).unwrap();
        assert_eq!(words.len(), 3);
        assert!(words.iter().all(|cluster| !cluster.is_empty()));
        // user queries answer for an author of the first snapshot
        let user = c.tweets[0].author;
        let s = query
            .user_sentiment(user, timeline.last().unwrap().timestamp)
            .unwrap();
        assert_eq!(s.distribution.len(), 3);
        assert!((s.distribution.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.label() < 3);
    }

    #[test]
    fn unknown_queries_fail_typed() {
        let c = corpus();
        let engine = engine_over(&c);
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, 0, c.num_days))
            .unwrap();
        engine.flush().unwrap();
        let query = engine.query();
        assert_eq!(
            query.user_sentiment(999_999, 10).unwrap_err().kind(),
            TgsErrorKind::UnknownUser
        );
        assert_eq!(
            query.cluster_summary(777).unwrap_err().kind(),
            TgsErrorKind::SnapshotUnavailable
        );
        assert_eq!(
            query.top_words(777, 3).unwrap_err().kind(),
            TgsErrorKind::SnapshotUnavailable
        );
    }

    #[test]
    fn malformed_snapshots_surface_on_flush() {
        let c = corpus();
        // One document by user 0, re-tweeted by user 1.
        let with_ghosts = |ghosts: &[(usize, Vec<f64>)]| {
            let mut snap = EngineSnapshot::new(0);
            snap.push_tokens(0, vec!["hello".into()]);
            snap.push_retweet(1, 0);
            snap.ghosts = ghosts.to_vec();
            snap
        };
        let mut bad_retweet = EngineSnapshot::new(0);
        bad_retweet.push_tokens(1, vec!["hello".into()]);
        bad_retweet.push_retweet(2, 5); // no such document
        let ghost = (1, vec![0.3, 0.3, 0.4]);
        let cases = [
            ("retweet of a missing document", bad_retweet),
            (
                "ghost listed three times",
                with_ghosts(&[ghost.clone(), ghost.clone(), ghost]),
            ),
            (
                "NaN ghost entry",
                with_ghosts(&[(1, vec![0.3, f64::NAN, 0.4])]),
            ),
            (
                "negative ghost entry",
                with_ghosts(&[(1, vec![0.3, -0.3, 1.0])]),
            ),
        ];
        for (case, snap) in cases {
            let engine = engine_over(&c);
            engine.ingest(snap).unwrap();
            let err = engine.flush().unwrap_err();
            assert_eq!(err.kind(), TgsErrorKind::InvalidArgument, "{case}: {err}");
            // the engine stays usable afterwards
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, 0, c.num_days))
                .unwrap();
            assert_eq!(engine.flush().unwrap(), 1, "{case}");
        }
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)]
    fn inverted_or_empty_timeline_ranges_return_empty() {
        let c = corpus();
        let engine = engine_over(&c);
        for (lo, hi) in day_windows(c.num_days, 2) {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
        }
        engine.flush().unwrap();
        let query = engine.query();
        assert!(!query.timeline(..).is_empty());
        // No panic, just empty results (BTreeMap::range would panic).
        assert!(query.timeline(5..3).is_empty());
        assert!(query.timeline(7..=2).is_empty());
        assert!(query.timeline(3..3).is_empty());
        assert!(query
            .timeline((
                std::ops::Bound::Excluded(u64::MAX),
                std::ops::Bound::Unbounded
            ))
            .is_empty());
    }

    #[test]
    fn duplicate_timestamps_are_rejected_not_double_counted() {
        let c = corpus();
        let engine = engine_over(&c);
        let snap = EngineSnapshot::from_corpus_window(&c, 0, c.num_days);
        engine.ingest(snap.clone()).unwrap();
        engine.flush().unwrap();
        engine.ingest(snap).unwrap();
        let err = engine.flush().unwrap_err();
        assert_eq!(err.kind(), TgsErrorKind::InvalidArgument);
        // The solver stepped exactly once; the stream stays clean.
        assert_eq!(engine.steps(), 1);
        assert_eq!(engine.query().timeline(..).len(), 1);
    }

    #[test]
    fn empty_snapshots_are_skipped() {
        let c = corpus();
        let engine = engine_over(&c);
        engine.ingest(EngineSnapshot::new(3)).unwrap();
        assert_eq!(engine.flush().unwrap(), 0);
        assert!(engine.query().timeline(..).is_empty());
    }

    #[test]
    fn raw_text_documents_are_tokenized_by_the_engine() {
        let c = generate(&presets::tiny(11));
        let engine = engine_over(&c);
        // Build a snapshot from raw strings using real corpus tokens so
        // some survive the frozen vocabulary.
        let mut snap = EngineSnapshot::new(0);
        for t in c.tweets.iter().take(30) {
            snap.push_text(t.author, t.tokens.join(" "));
        }
        engine.ingest(snap).unwrap();
        assert_eq!(engine.flush().unwrap(), 1);
        let entry = engine.query().latest().unwrap();
        assert_eq!(entry.tweets, 30);
    }

    #[test]
    fn checkpoint_restore_preserves_history_and_determinism() {
        let c = corpus();
        let windows = day_windows(c.num_days, 2);
        let (head, tail) = windows.split_at(windows.len() / 2);

        let engine = engine_over(&c);
        for &(lo, hi) in head {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
        }
        engine.flush().unwrap();
        let ckpt = engine.checkpoint().unwrap();
        assert!(!ckpt.is_empty());

        let restored = SentimentEngine::restore(&ckpt).unwrap();
        assert_eq!(restored.steps(), engine.steps());
        assert_eq!(
            restored.query().timeline(..),
            engine.query().timeline(..),
            "restored engine must answer historical queries identically"
        );

        for &(lo, hi) in tail {
            let snap = EngineSnapshot::from_corpus_window(&c, lo, hi);
            engine.ingest(snap.clone()).unwrap();
            restored.ingest(snap).unwrap();
        }
        engine.flush().unwrap();
        restored.flush().unwrap();
        let a = engine.query().timeline(..);
        let b = restored.query().timeline(..);
        assert_eq!(a, b, "post-restore results must be bit-identical");
    }

    #[test]
    fn stats_track_ingest_and_backpressure() {
        let c = corpus();
        let engine = EngineBuilder::new()
            .k(3)
            .max_iters(8)
            .queue_depth(1)
            .fit(&c)
            .expect("valid build");
        assert_eq!(
            engine.stats(),
            EngineStats {
                simd: tgs_linalg::simd_tier_name(),
                threads: tgs_linalg::pool_threads() as u64,
                pinned: false,
                ..EngineStats::default()
            }
        );
        // Fill the bounded queue through the non-blocking path; with a
        // queue depth of 1 and multi-millisecond solves per snapshot,
        // capacity drops must appear long before the stream runs out.
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for t in 0..10_000u64 {
            let mut snap = EngineSnapshot::from_corpus_window(&c, 0, c.num_days);
            snap.timestamp = t;
            if engine.try_ingest_reusable(snap).unwrap().is_none() {
                accepted += 1;
            } else {
                dropped += 1;
                if dropped >= 3 {
                    break;
                }
            }
        }
        engine.flush().unwrap();
        let stats = engine.stats();
        assert!(dropped >= 1, "queue_depth = 1 must shed load");
        assert_eq!(stats.dropped_capacity, dropped);
        assert_eq!(stats.ingested, accepted);
        assert_eq!(stats.queued, 0, "flush drains the queue");
        assert!(stats.last_step_ns > 0);
        // The histogram saw every committed step and every shed.
        assert_eq!(stats.step_hist.count(), accepted);
        assert_eq!(stats.step_hist.shed(), dropped);
        assert!(stats.step_hist.p50() > 0);
        assert!(stats.step_hist.p999() >= stats.step_hist.p50());
        assert_eq!(engine.query().timeline(..).len() as u64, accepted);
        assert_eq!(
            stats.simd,
            tgs_linalg::simd_tier_name(),
            "stats must record the kernel build"
        );
        // Aggregation: counters and histogram buckets sum, latency takes
        // the max, the kernel build name carries through.
        let mut other_hist = LatencyHistogram::new();
        other_hist.record(1 << 20);
        other_hist.add_shed(3);
        let merged = stats.merge(&EngineStats {
            queued: 1,
            ingested: 2,
            dropped_capacity: 3,
            last_step_ns: u64::MAX,
            step_hist: other_hist,
            ghost_edges: 4,
            dropped_cross_shard: 5,
            shard_unavailable: 6,
            simd: "",
            threads: 0,
            pinned: false,
            respawns: 7,
            replayed_docs: 8,
            degraded_queries: 9,
        });
        assert_eq!(merged.queued, 1);
        assert_eq!(merged.ingested, stats.ingested + 2);
        assert_eq!(merged.dropped_capacity, stats.dropped_capacity + 3);
        assert_eq!(merged.last_step_ns, u64::MAX);
        assert_eq!(merged.step_hist.count(), stats.step_hist.count() + 1);
        assert_eq!(merged.step_hist.shed(), stats.step_hist.shed() + 3);
        assert_eq!(merged.ghost_edges, 4);
        assert_eq!(merged.dropped_cross_shard, 5);
        assert_eq!(merged.shard_unavailable, 6);
        assert_eq!(merged.respawns, 7, "recovery counters sum");
        assert_eq!(merged.replayed_docs, 8);
        assert_eq!(merged.degraded_queries, 9);
        assert_eq!(merged.simd, stats.simd);
        assert_eq!(merged.threads, stats.threads, "threads carry through");
        assert_eq!(merged.pinned, stats.pinned, "pinned carries through");
    }

    #[test]
    fn try_ingest_reusable_returns_the_snapshot_on_backpressure() {
        let c = corpus();
        let engine = EngineBuilder::new()
            .k(3)
            .max_iters(8)
            .queue_depth(1)
            .fit(&c)
            .expect("valid build");
        // Shed until the non-blocking path rejects, then check the exact
        // payload comes back so producers can recycle it.
        let mut returned = None;
        for t in 0..10_000u64 {
            let mut snap = EngineSnapshot::from_corpus_window(&c, 0, c.num_days);
            snap.timestamp = t;
            let expect = snap.clone();
            if let Some(back) = engine.try_ingest_reusable(snap).unwrap() {
                assert_eq!(back, expect, "rejection hands back the same snapshot");
                returned = Some(back);
                break;
            }
        }
        let back = returned.expect("queue_depth = 1 must reject eventually");
        assert!(engine.stats().step_hist.shed() >= 1);
        engine.flush().unwrap();
        // The returned snapshot is still ingestable (nothing was lost).
        assert!(engine.try_ingest_reusable(back).unwrap().is_none());
        engine.flush().unwrap();
    }

    #[test]
    fn restore_rejects_corrupt_bytes() {
        let err = SentimentEngine::restore(&EngineCheckpoint::from_bytes(vec![0; 32]))
            .err()
            .expect("corrupt checkpoint must fail");
        assert!(matches!(err, TgsError::CorruptCheckpoint { .. }));
    }
}
