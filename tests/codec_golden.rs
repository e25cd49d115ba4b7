//! Format pins: FNV-1a 64-bit digests of every byte encoder's output on
//! fixed inputs. Checkpoints, deltas and wire payloads are persisted and
//! shipped between processes of different builds, so any change to a
//! layout — a field reordered, a width changed, a prefix dropped — must
//! show up here as a failing digest rather than as a silent
//! incompatibility. A deliberate format change bumps the format's magic
//! or version and re-records the digest in the same change.

use tgs_engine::transport::encode_user_range;
use tgs_net::wire;
use tripartite_sentiment::prelude::*;

/// FNV-1a over the whole byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[track_caller]
fn pin(what: &str, bytes: &[u8], expected: u64) {
    let got = fnv64(bytes);
    assert_eq!(
        got,
        expected,
        "{what}: layout changed ({} bytes, digest {got:#018x})",
        bytes.len()
    );
}

fn corpus() -> Corpus {
    generate(&presets::tiny(13))
}

fn builder() -> EngineBuilder {
    EngineBuilder::new().k(3).max_iters(4)
}

/// Streams the first half of the corpus, takes a base, streams the rest,
/// and returns `(base, delta since the base, full checkpoint at the tip)`.
fn engine_artifacts(c: &Corpus) -> (EngineCheckpoint, CheckpointDelta, EngineCheckpoint) {
    let engine = builder().fit(c).expect("fit");
    let windows = day_windows(c.num_days, 1);
    let (first, rest) = windows.split_at(windows.len() / 2);
    for &(lo, hi) in first {
        engine
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .expect("ingest");
    }
    let (base_id, base) = engine.checkpoint_base().expect("base");
    for &(lo, hi) in rest {
        engine
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .expect("ingest");
    }
    let delta = engine
        .delta_since(base_id)
        .expect("delta")
        .expect("live mark");
    let full = engine.checkpoint().expect("full");
    (base, delta, full)
}

/// The sharded counterpart of [`engine_artifacts`].
fn fleet_artifacts(
    c: &Corpus,
    shards: usize,
) -> (ShardedCheckpoint, ShardedDelta, ShardedCheckpoint) {
    let engine = builder().fit_sharded(c, shards).expect("fit");
    let windows = day_windows(c.num_days, 1);
    let (first, rest) = windows.split_at(windows.len() / 2);
    for &(lo, hi) in first {
        engine
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .expect("ingest");
    }
    engine.flush().expect("flush");
    let (tips, base) = engine.checkpoint_base().expect("base");
    for &(lo, hi) in rest {
        engine
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .expect("ingest");
    }
    engine.flush().expect("flush");
    let delta = engine
        .delta_since(&tips)
        .expect("delta")
        .expect("live tips");
    let full = engine.checkpoint().expect("full");
    engine.shutdown().expect("shutdown");
    (base, delta, full)
}

#[test]
fn engine_checkpoint_and_delta_layouts_are_pinned() {
    let c = corpus();
    let (base, delta, full) = engine_artifacts(&c);
    pin(
        "engine base checkpoint",
        base.as_bytes(),
        0x2d66_d557_9883_dc12,
    );
    pin("engine delta", delta.as_bytes(), 0x26ab_65c1_8a3d_8a06);
    pin(
        "engine full checkpoint",
        full.as_bytes(),
        0x697b_b4d5_8e78_e58a,
    );
}

#[test]
fn sharded_checkpoint_and_delta_layouts_are_pinned() {
    let c = corpus();
    let (_, _, one) = fleet_artifacts(&c, 1);
    pin("1-shard checkpoint", one.as_bytes(), 0xb175_ad13_9c49_57e1);
    let (base, delta, full) = fleet_artifacts(&c, 2);
    pin(
        "2-shard base checkpoint",
        base.as_bytes(),
        0x8f1f_36d9_872f_e58b,
    );
    pin("2-shard delta", delta.as_bytes(), 0xd8b4_1087_a2d0_c8b3);
    pin(
        "2-shard full checkpoint",
        full.as_bytes(),
        0xbb39_093a_f79d_1478,
    );
}

#[test]
fn user_range_layout_is_pinned() {
    let track = vec![
        (
            3usize,
            vec![(10u64, vec![0.25, 0.75]), (11, vec![0.5, 0.5])],
        ),
        (9, vec![]),
    ];
    let solver = vec![(3usize, vec![(u64::MAX, vec![1.0, -0.0])])];
    pin(
        "user range",
        &encode_user_range(&track, &solver),
        0x07b0_4483_a7ef_3afe,
    );
    pin(
        "empty user range",
        &encode_user_range(&[], &[]),
        0x8820_1fb9_60ff_6465,
    );
}

fn hand_built_snapshot() -> EngineSnapshot {
    let mut s = EngineSnapshot::new(17);
    s.push_text(3, "great game tonight");
    s.push_tokens(5, vec!["great".to_string(), "game".to_string()]);
    s.push_retweet(5, 0);
    s.ghosts.push((9, vec![0.5, 0.25, 0.25]));
    s
}

fn hand_built_stats() -> EngineStats {
    let mut step_hist = LatencyHistogram::new();
    step_hist.record(900);
    step_hist.record(1 << 22);
    step_hist.add_shed(9);
    EngineStats {
        queued: 1,
        ingested: 2,
        dropped_capacity: 3,
        last_step_ns: 4,
        step_hist,
        ghost_edges: 5,
        dropped_cross_shard: 6,
        shard_unavailable: 7,
        simd: "avx2+fma",
        threads: 8,
        pinned: true,
        respawns: 9,
        replayed_docs: 10,
        degraded_queries: 11,
    }
}

fn hand_built_timeline() -> Vec<TimelineEntry> {
    vec![
        TimelineEntry {
            timestamp: 5,
            tweets: 10,
            users: 4,
            new_users: 1,
            evolving_users: 2,
            iterations: 12,
            converged: true,
            objective: 1.25e-3,
            tweet_counts: vec![6, 3, 1],
            user_counts: vec![2, 1, 1],
        },
        TimelineEntry {
            timestamp: 6,
            tweets: 0,
            users: 0,
            new_users: 0,
            evolving_users: 0,
            iterations: 0,
            converged: false,
            objective: f64::NAN,
            tweet_counts: vec![0, 0, 0],
            user_counts: vec![0, 0, 0],
        },
    ]
}

#[test]
fn wire_payload_layouts_are_pinned() {
    pin(
        "wire snapshot",
        &wire::enc_snapshot(&hand_built_snapshot()),
        0x9969_6d17_aba3_caed,
    );
    pin(
        "wire stats",
        &wire::enc_stats(&hand_built_stats()),
        0x88a3_350e_b0ec_c218,
    );
    pin(
        "wire timeline",
        &wire::enc_timeline(&hand_built_timeline()),
        0xbb28_cb2b_d57d_fff1,
    );
    let m = DenseMatrix::from_vec(2, 3, vec![1.0, 0.5, 0.25, -0.0, f64::MIN_POSITIVE, 9.75])
        .expect("matrix");
    pin("wire matrix", &wire::enc_matrix(&m), 0x6602_096a_42e0_e262);
    let errors = [
        TgsError::StaleTopology {
            have: 2,
            current: 5,
        },
        TgsError::UnknownUser { user: 42 },
        TgsError::SnapshotUnavailable { timestamp: 11 },
        TgsError::corrupt("bad section"),
        TgsError::net("10.0.0.9:4000", "refused"),
        TgsError::invalid_argument("no such flag"),
        TgsError::EngineClosed,
        TgsError::FeatureDimMismatch {
            xp_cols: 3,
            xu_cols: 4,
        },
    ];
    let mut all = Vec::new();
    for e in &errors {
        all.extend_from_slice(&wire::enc_error(e));
    }
    pin("wire errors", &all, 0x05ca_cfb0_fc73_d63d);
}
