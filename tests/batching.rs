//! Bit-identity of the micro-batching front end: a snapshot stream
//! pushed through [`BatchingIngest`] must leave the engine in *exactly*
//! the state produced by ingesting the pre-coalesced snapshots directly
//! — same timeline entries, same checkpoint bytes — at one shard and at
//! four. The batcher buys its one-tokenize/one-assembly/one-step saving
//! purely by concatenation, so anything beyond bit-identity is a bug.

use proptest::prelude::*;
use tripartite_sentiment::prelude::*;

fn engine_over(corpus: &Corpus, shards: usize, policy: BatchPolicy) -> ShardedEngine {
    EngineBuilder::new()
        .k(3)
        .max_iters(10)
        .seed(42)
        .queue_depth(512)
        .batch_policy(policy)
        .fit_sharded(corpus, shards)
        .expect("valid configuration")
}

/// The reference semantics: same-bucket snapshots concatenated in
/// arrival order and stamped with the bucket floor, one ingest each.
fn coalesce(snaps: &[EngineSnapshot], width: u64) -> Vec<EngineSnapshot> {
    let mut out: Vec<EngineSnapshot> = Vec::new();
    for snap in snaps {
        let bucket = snap.timestamp - snap.timestamp % width;
        match out.last_mut() {
            Some(last) if last.timestamp == bucket => last.merge(snap.clone()),
            _ => {
                let mut opened = snap.clone();
                opened.timestamp = bucket;
                out.push(opened);
            }
        }
    }
    out
}

fn firehose(seed: u64, corpus: &Corpus, steps: usize, ts_stride: u64) -> Vec<EngineSnapshot> {
    let vocab = Vocabulary::build(
        corpus
            .tweets
            .iter()
            .map(|t| t.tokens.iter().map(String::as_str)),
        &PipelineConfig::paper_defaults().vocab,
    );
    let mut gen = LoadGen::new(
        LoadConfig {
            seed,
            users: corpus.num_users(),
            docs_per_step: 5,
            words_per_doc: 6,
            ts_stride,
            ..LoadConfig::default()
        },
        vocab.tokens().to_vec(),
    )
    .unwrap();
    (0..steps).map(|_| gen.next_snapshot()).collect()
}

fn assert_batched_is_identity(seed: u64, width: u64, steps: usize, ts_stride: u64, shards: usize) {
    let corpus = generate(&presets::tiny(seed));
    let snaps = firehose(seed, &corpus, steps, ts_stride);
    let policy = BatchPolicy {
        bucket_width: width,
        max_docs: 1 << 20,
    };

    let batched = engine_over(&corpus, shards, policy);
    {
        let mut batcher = batched.batching();
        for snap in &snaps {
            let shed = batcher.submit(snap.clone()).unwrap();
            assert!(shed.is_none(), "queue_depth 512 must never shed here");
        }
        assert!(batcher.flush().unwrap().is_none());
        assert_eq!(batcher.snapshots_coalesced() as usize, snaps.len());
    }
    batched.flush().unwrap();

    let reference = engine_over(&corpus, shards, BatchPolicy::default());
    for snap in coalesce(&snaps, width) {
        reference.ingest(snap).unwrap();
    }
    reference.flush().unwrap();

    assert_eq!(
        batched.query().timeline(..).unwrap(),
        reference.query().timeline(..).unwrap(),
        "timeline diverged (shards {shards}, width {width})"
    );
    assert_eq!(
        batched.checkpoint().unwrap().as_bytes(),
        reference.checkpoint().unwrap().as_bytes(),
        "checkpoint bytes diverged (shards {shards}, width {width})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_equals_coalesced_single_shard(
        seed in 1u64..500,
        width in 1u64..6,
        steps in 4usize..12,
        ts_stride in 1u64..3,
    ) {
        assert_batched_is_identity(seed, width, steps, ts_stride, 1);
    }

    #[test]
    fn batched_equals_coalesced_four_shards(
        seed in 1u64..500,
        width in 1u64..6,
        steps in 4usize..12,
        ts_stride in 1u64..3,
    ) {
        assert_batched_is_identity(seed, width, steps, ts_stride, 4);
    }
}

/// Width 1 with a strictly increasing stream batches nothing: every
/// submit flushes the previous snapshot untouched, so the batcher is a
/// pure pass-through (the `tgs stream` default path stays unchanged).
#[test]
fn width_one_is_a_pass_through() {
    let corpus = generate(&presets::tiny(7));
    let snaps = firehose(7, &corpus, 8, 1);
    let engine = engine_over(&corpus, 2, BatchPolicy::default());
    {
        let mut batcher = engine.batching();
        for snap in &snaps {
            batcher.submit(snap.clone()).unwrap();
        }
        batcher.flush().unwrap();
        assert_eq!(batcher.batches_flushed() as usize, snaps.len());
    }
    let steps = engine.flush().unwrap();
    assert_eq!(steps as usize, snaps.len());
}

/// A stream pinned to one timestamp collapses into a single solver
/// step regardless of length — the max-docs valve is the only bound.
#[test]
fn same_timestamp_stream_collapses_to_one_step() {
    let corpus = generate(&presets::tiny(9));
    let mut snaps = firehose(9, &corpus, 10, 1);
    for snap in &mut snaps {
        snap.timestamp = 100;
    }
    let engine = engine_over(&corpus, 2, BatchPolicy::same_timestamp());
    {
        let mut batcher = engine.batching();
        for snap in &snaps {
            batcher.submit(snap.clone()).unwrap();
        }
        batcher.flush().unwrap();
        assert_eq!(batcher.batches_flushed(), 1);
        assert_eq!(batcher.snapshots_coalesced(), 10);
    }
    assert_eq!(engine.flush().unwrap(), 1);
}
