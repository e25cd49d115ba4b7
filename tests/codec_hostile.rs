//! Hostile-input sweep over every decoder built on `tgs_core::codec`:
//! the engine delta, the multi-shard checkpoint and delta, the
//! user-range export, and the wire snapshot / timeline / stats / matrix
//! payloads.
//!
//! Two properties per decoder:
//! * every proper prefix of a valid encoding (every 97th cut, plus
//!   `len - 1`) fails with a typed error and never panics;
//! * a first count field forged to `u64::MAX` is rejected before
//!   anything is allocated for it. A counting global allocator records
//!   the largest single allocation the decode makes on this thread, which
//!   must stay within a small multiple of the input size.
//!
//! The frame reader gets the second check too, with its length prefix
//! forged to `MAX_FRAME`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use tgs_engine::transport::{decode_user_range, encode_user_range};
use tgs_net::{frame, wire};
use tripartite_sentiment::prelude::*;

struct CountingAllocator;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the measuring thread counts: libtest keeps helper threads
    /// that allocate on their own schedule. The const initializer keeps
    /// TLS access allocation-free, so the allocator cannot recurse.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.with(|t| t.get()) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.with(|t| t.get()) {
            LARGEST.fetch_max(new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `body` and returns its result with the largest single allocation
/// it made on this thread.
fn largest_allocation<R>(body: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let result = body();
    TRACKING.with(|t| t.set(false));
    (result, LARGEST.load(Ordering::Relaxed))
}

fn corpus() -> Corpus {
    generate(&presets::tiny(13))
}

fn windows(c: &Corpus) -> Vec<(u32, u32)> {
    day_windows(c.num_days, 1)
}

/// A base checkpoint plus a delta over the second half of the stream.
fn engine_delta() -> (EngineCheckpoint, CheckpointDelta) {
    let c = corpus();
    let engine = EngineBuilder::new().k(3).max_iters(4).fit(&c).expect("fit");
    let w = windows(&c);
    let (first, rest) = w.split_at(w.len() / 2);
    for &(lo, hi) in first {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("ingest");
    }
    let (base_id, base) = engine.checkpoint_base().expect("base");
    for &(lo, hi) in rest {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("ingest");
    }
    let delta = engine
        .delta_since(base_id)
        .expect("delta")
        .expect("live mark");
    (base, delta)
}

/// A 2-shard base checkpoint plus a fleet delta over the second half.
fn fleet_delta() -> (ShardedCheckpoint, ShardedDelta) {
    let c = corpus();
    let engine = EngineBuilder::new()
        .k(3)
        .max_iters(4)
        .fit_sharded(&c, 2)
        .expect("fit");
    let w = windows(&c);
    let (first, rest) = w.split_at(w.len() / 2);
    for &(lo, hi) in first {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("ingest");
    }
    engine.flush().expect("flush");
    let (tips, base) = engine.checkpoint_base().expect("base");
    for &(lo, hi) in rest {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("ingest");
    }
    engine.flush().expect("flush");
    let delta = engine
        .delta_since(&tips)
        .expect("delta")
        .expect("live tips");
    engine.shutdown().expect("shutdown");
    (base, delta)
}

fn user_range() -> Vec<u8> {
    let track = vec![
        (
            3usize,
            vec![(10u64, vec![0.25, 0.75]), (11, vec![0.5, 0.5])],
        ),
        (9, vec![(12, vec![1.0, 0.0])]),
    ];
    let solver = vec![(3usize, vec![(0u64, vec![1.0, 0.0])])];
    encode_user_range(&track, &solver)
}

fn snapshot_payload() -> Vec<u8> {
    let mut s = EngineSnapshot::new(17);
    s.push_text(3, "great game tonight");
    s.push_tokens(5, vec!["great".to_string(), "game".to_string()]);
    s.push_retweet(5, 0);
    s.ghosts.push((9, vec![0.5, 0.25, 0.25]));
    wire::enc_snapshot(&s)
}

fn timeline_payload() -> Vec<u8> {
    let entry = |timestamp| TimelineEntry {
        timestamp,
        tweets: 10,
        users: 4,
        new_users: 1,
        evolving_users: 2,
        iterations: 12,
        converged: true,
        objective: 1.25e-3,
        tweet_counts: vec![6, 3, 1],
        user_counts: vec![2, 1, 1],
    };
    wire::enc_timeline(&[entry(5), entry(6)])
}

fn stats_payload() -> Vec<u8> {
    let mut step_hist = LatencyHistogram::new();
    step_hist.record(900);
    step_hist.record(1 << 22);
    wire::enc_stats(&EngineStats {
        step_hist,
        simd: "scalar",
        ..EngineStats::default()
    })
}

fn matrix_payload() -> Vec<u8> {
    let m = DenseMatrix::from_vec(3, 2, vec![1.0, 0.5, 0.25, -0.0, 2.0, 9.75]).expect("matrix");
    wire::enc_matrix(&m)
}

/// Every 97th proper prefix of `full`, plus `len - 1`.
fn prefixes(full: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..full.len())
        .step_by(97)
        .chain([full.len() - 1])
        .map(move |cut| &full[..cut])
}

/// `full` with the `u64` at `offset` replaced by `u64::MAX`.
fn forged(full: &[u8], offset: usize) -> Vec<u8> {
    let mut bytes = full.to_vec();
    bytes[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    bytes
}

#[track_caller]
fn assert_corrupt<T>(result: Result<T, TgsError>, what: &str) {
    match result {
        Ok(_) => panic!("{what}: malformed input decoded"),
        Err(e) => assert_eq!(e.kind(), TgsErrorKind::CorruptCheckpoint, "{what}: {e}"),
    }
}

#[test]
fn engine_delta_prefixes_are_typed_errors() {
    let (base, delta) = engine_delta();
    for prefix in prefixes(delta.as_bytes()) {
        let cut = CheckpointDelta::from_bytes(prefix.to_vec());
        assert_corrupt(
            SentimentEngine::apply_delta(&base, &cut),
            &format!("delta prefix of {} bytes", prefix.len()),
        );
    }
    SentimentEngine::apply_delta(&base, &delta).expect("the whole delta applies");
}

#[test]
fn sharded_checkpoint_and_delta_prefixes_are_typed_errors() {
    let (base, delta) = fleet_delta();
    for prefix in prefixes(base.as_bytes()) {
        assert_corrupt(
            ShardedCheckpoint::from_bytes(prefix.to_vec()).sections(),
            &format!("sharded checkpoint prefix of {} bytes", prefix.len()),
        );
    }
    for prefix in prefixes(delta.as_bytes()) {
        assert_corrupt(
            ShardedEngine::apply_delta(&base, &ShardedDelta::from_bytes(prefix.to_vec())),
            &format!("sharded delta prefix of {} bytes", prefix.len()),
        );
    }
    ShardedEngine::apply_delta(&base, &delta).expect("the whole delta applies");
}

#[test]
fn user_range_prefixes_are_typed_errors() {
    let full = user_range();
    for prefix in prefixes(&full) {
        assert_corrupt(
            decode_user_range(prefix),
            &format!("user range prefix of {} bytes", prefix.len()),
        );
    }
    decode_user_range(&full).expect("the whole export decodes");
}

/// Whether a wire decoder accepted the bytes.
type Decodes = fn(&[u8]) -> bool;

/// Each wire payload with the offset of its first count field: the
/// snapshot's doc count follows its timestamp, the timeline leads with
/// its entry count, the stats' first count is the SIMD tier name's
/// length after eight `u64`s and the pinned flag, and a matrix leads
/// with its row count.
fn wire_cases() -> [(&'static str, Vec<u8>, usize, Decodes); 4] {
    [
        ("wire snapshot", snapshot_payload(), 8, |b| {
            wire::dec_snapshot(b).is_ok()
        }),
        ("wire timeline", timeline_payload(), 0, |b| {
            wire::dec_timeline(b).is_ok()
        }),
        ("wire stats", stats_payload(), 65, |b| {
            wire::dec_stats(b).is_ok()
        }),
        ("wire matrix", matrix_payload(), 0, |b| {
            wire::dec_matrix(b).is_ok()
        }),
    ]
}

#[test]
fn wire_payload_prefixes_are_errors() {
    for (what, full, _, decodes) in wire_cases() {
        for prefix in prefixes(&full) {
            assert!(
                !decodes(prefix),
                "{what} prefix of {} bytes decoded",
                prefix.len()
            );
        }
        assert!(decodes(&full), "the whole {what} payload decodes");
    }
}

/// One test for every forged count: the allocation high-water mark is
/// process-global state, so measurements must not interleave.
#[test]
fn forged_counts_are_rejected_before_allocation() {
    // Each entry: what, input bytes (base + forged payload), the largest
    // single allocation the decode made, and whether it failed.
    let mut checks: Vec<(&str, usize, usize, bool)> = Vec::new();

    // Engine delta: magic | base id | new id | k | steps | history step
    // | window count.
    let (base, delta) = engine_delta();
    let bad = CheckpointDelta::from_bytes(forged(delta.as_bytes(), 48));
    let (result, largest) = largest_allocation(|| SentimentEngine::apply_delta(&base, &bad));
    checks.push((
        "engine delta",
        base.len() + bad.len(),
        largest,
        result.is_err(),
    ));

    // Sharded checkpoint and delta: magic | shard count.
    let (fleet_base, fleet_delta) = fleet_delta();
    let bad = ShardedCheckpoint::from_bytes(forged(fleet_base.as_bytes(), 8));
    let (result, largest) = largest_allocation(|| bad.sections());
    checks.push(("sharded checkpoint", bad.len(), largest, result.is_err()));
    let bad = ShardedDelta::from_bytes(forged(fleet_delta.as_bytes(), 8));
    let (result, largest) = largest_allocation(|| ShardedEngine::apply_delta(&fleet_base, &bad));
    checks.push((
        "sharded delta",
        fleet_base.len() + bad.len(),
        largest,
        result.is_err(),
    ));

    // User range: track user count first.
    let bad = forged(&user_range(), 0);
    let (result, largest) = largest_allocation(|| decode_user_range(&bad));
    checks.push(("user range", bad.len(), largest, result.is_err()));

    for (what, full, offset, decodes) in wire_cases() {
        let bad = forged(&full, offset);
        let (decoded, largest) = largest_allocation(|| decodes(&bad));
        checks.push((what, bad.len(), largest, !decoded));
    }

    // Request frame: a length prefix claiming `MAX_FRAME` bytes over an
    // ingest frame that carries far fewer.
    let mut bad = Vec::new();
    frame::write_request(&mut bad, 2, 0, 0, &snapshot_payload()).expect("frame");
    bad[..4].copy_from_slice(&(frame::MAX_FRAME as u32).to_le_bytes());
    let (result, largest) = largest_allocation(|| frame::read_request(&mut bad.as_slice()));
    checks.push(("request frame", bad.len(), largest, result.is_err()));

    for (what, input, largest, failed) in checks {
        assert!(failed, "{what}: a u64::MAX count decoded");
        assert!(
            largest <= 8 * input + 4096,
            "{what}: a {input}-byte input allocated {largest} bytes at once"
        );
    }
}
