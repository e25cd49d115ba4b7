//! `firehose` and `dashboard`: open-loop Zipf traffic into an in-process
//! two-shard fleet.
//!
//! Snapshots are sent on a fixed schedule whether or not the fleet keeps
//! up, and every latency is timed from the scheduled send, so a stall
//! also charges the snapshots queued behind it. While it waits for the
//! next send the driver polls each shard's committed count about every
//! 100 µs; a commit is seen when every shard it touched has processed it.
//! Freshness is the time from the scheduled send of the last snapshot in
//! a commit to the moment the commit is seen.
//!
//! `firehose` ingests each 16-document snapshot on its own. `dashboard`
//! sends at half the rate through a `BatchingIngest` with bucket width
//! 8, and one closed-loop query client runs beside it for the measured
//! window; its query latency is the workload's headline latency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tgs_core::TgsError;
use tgs_engine::{BatchPolicy, BatchingIngest, EngineSnapshot, ShardedEngine};
use tgs_load::{LoadConfig, LoadGen};

use crate::fleet::{timed_setups, touched, CommitWatch, LocalFleet, POLL};
use crate::replay::replay;
use crate::spec::Workload;
use crate::stats::{Rng, Samples};
use crate::trace::Role;
use crate::workload::{
    ms, replay_layers, shard_stats, step_hist_between, worker_layers, zipf_corpus, Ctx, Outcome,
};

/// Documents per generated snapshot.
const DOCS_PER_SNAPSHOT: usize = 16;
/// Dashboard batching bucket, in snapshot timestamps.
const BUCKET: u64 = 8;
/// How long the end of a run waits for the last commits.
const DRAIN: Duration = Duration::from_secs(60);
/// No snapshot committed yet.
const NONE: u64 = u64::MAX;

/// One expected commit: the last snapshot in it and what it carried.
struct Commit {
    index: usize,
    due: Instant,
    timestamp: u64,
    docs: u64,
    authors: Vec<usize>,
}

/// The dashboard batch being filled: shards and documents of every
/// snapshot folded into the open bucket so far.
struct OpenBucket {
    hit: Vec<bool>,
    commit: Commit,
}

/// What the query client hands back.
#[derive(Default)]
struct Queries {
    all_ms: Samples,
    attempted: u64,
    failed: u64,
    malformed: u64,
    wall_s: f64,
}

const OPS: [&str; 4] = ["latest", "user_sentiment", "top_words", "timeline"];

pub fn run(ctx: &Ctx, workload: Workload) -> Result<Outcome, TgsError> {
    let dashboard = workload == Workload::Dashboard;
    let sz = &ctx.sizes;
    let corpus = zipf_corpus(ctx.seed, sz.users);
    let heap_base = crate::alloc::reset_peak();
    let (fleet, setup_s) = timed_setups(
        sz.setups,
        || LocalFleet::build(&corpus, ctx.tracer.as_ref()),
        LocalFleet::shutdown,
    )?;
    let mut out = Outcome::new(workload);
    out.setup_s = setup_s;
    let words = fleet.engine.vocabulary().tokens().to_vec();
    let load = LoadConfig {
        seed: ctx.seed,
        users: sz.users,
        docs_per_step: DOCS_PER_SNAPSHOT,
        ..LoadConfig::default()
    };
    let mut gen = LoadGen::new(load.clone(), words)?;
    let rate = if dashboard {
        sz.dashboard_rate
    } else {
        sz.firehose_rate
    };
    let period = Duration::from_secs_f64(1.0 / rate);
    let warm = (sz.warmup.as_secs_f64() * rate).round() as usize;
    let total = warm + (ctx.seconds * rate).round().max(1.0) as usize;

    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let committed_t = AtomicU64::new(NONE);
    let posted: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    let mut watch = CommitWatch::new(&fleet.shards)?;
    let mut freshness = Samples::default();
    let mut late = Samples::default();
    let (mut measured_docs, mut docs_sent) = (0u64, 0u64);
    let mut hist_before = None;
    let mut batcher = if dashboard {
        let policy = BatchPolicy {
            bucket_width: BUCKET,
            ..BatchPolicy::default()
        };
        Some(BatchingIngest::new(&fleet.engine, policy)?)
    } else {
        None
    };
    let mut open: Option<OpenBucket> = None;
    let start = Instant::now() + Duration::from_millis(10);
    let measure_start = start + period * warm as u32;
    let mut last_seen = measure_start;

    let mut on_commit = |c: Commit, seen: Instant| {
        if c.index >= warm {
            freshness.push(ms(seen.saturating_duration_since(c.due)));
            measured_docs += c.docs;
            last_seen = last_seen.max(seen);
        }
        if dashboard {
            posted
                .lock()
                .expect("query client panicked")
                .extend_from_slice(&c.authors);
            committed_t.store(c.timestamp, Ordering::Relaxed);
        }
    };

    let queries = std::thread::scope(|s| -> Result<Option<Queries>, TgsError> {
        let client = dashboard.then(|| {
            s.spawn(|| query_client(ctx, &fleet.engine, &measuring, &stop, &committed_t, &posted))
        });
        let sent = (|| -> Result<(), TgsError> {
            for i in 0..total {
                let due = start + period * i as u32;
                let snap = gen.next_snapshot();
                let hit = touched(&fleet.map, &snap);
                let commit = Commit {
                    index: i,
                    due,
                    timestamp: snap.timestamp,
                    docs: snap.len() as u64,
                    authors: snap.docs.iter().map(|d| d.user).collect(),
                };
                loop {
                    for (c, seen) in watch.poll()? {
                        on_commit(c, seen);
                    }
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    std::thread::sleep((due - now).min(POLL));
                }
                let sent_at = Instant::now();
                if i == warm {
                    hist_before = Some(shard_stats(&fleet.shards)?);
                    measuring.store(true, Ordering::Relaxed);
                }
                if i >= warm {
                    late.push(ms(sent_at - due));
                }
                docs_sent += snap.len() as u64;
                out.attempted += 1;
                let ts = snap.timestamp;
                match batcher.as_mut() {
                    None => {
                        match ctx.span(Role::Write, "router", "ingest", ts, || {
                            fleet.engine.ingest(snap)
                        }) {
                            Ok(()) => watch.expect(&hit, commit),
                            Err(_) => out.failed += 1,
                        }
                    }
                    Some(b) => {
                        let bucket = ts - ts % BUCKET;
                        let closing = open.take_if(|o| o.commit.timestamp != bucket);
                        match ctx.span(Role::Write, "batch", "submit", ts, || b.submit(snap)) {
                            Ok(None) => {}
                            Ok(Some(batch)) => {
                                // A shed is a failed operation; the batch
                                // still goes in so no document is lost.
                                out.failed += 1;
                                ingest_blocking(ctx, &fleet.engine, batch)?;
                            }
                            Err(e) => return Err(e),
                        }
                        if let Some(c) = closing {
                            watch.expect(&c.hit, c.commit);
                        }
                        fold(&mut open, &hit, commit, bucket);
                    }
                }
            }
            if let Some(b) = batcher.as_mut() {
                if let Some(batch) = ctx.span(Role::Write, "batch", "flush", 0, || b.flush())? {
                    out.failed += 1;
                    ingest_blocking(ctx, &fleet.engine, batch)?;
                }
                if let Some(c) = open.take() {
                    watch.expect(&c.hit, c.commit);
                }
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let queries = client
            .map(|c| c.join().expect("query client panicked"))
            .transpose()?;
        sent.map(|()| queries)
    })?;

    for (c, seen) in watch.drain(DRAIN)? {
        on_commit(c, seen);
    }
    out.check(
        "every commit observed",
        watch.pending() == 0,
        format!("{} commits still pending after {DRAIN:?}", watch.pending()),
    );
    out.measured_s = last_seen.duration_since(measure_start).as_secs_f64();
    out.docs = measured_docs;
    fleet.engine.flush()?;
    let hist_after = shard_stats(&fleet.shards)?;
    let (_, tweets) = crate::workload::timeline_digest(&fleet.engine.query())?;
    out.check(
        "documents conserved",
        tweets as u64 == docs_sent,
        format!("timeline holds {tweets} tweets, {docs_sent} documents were sent"),
    );
    out.heap_bytes = crate::alloc::peak().saturating_sub(heap_base);
    let send_late_p99 = late.quantile(0.99);
    if send_late_p99 > 1.0 {
        eprintln!(
            "warning: {}: the load generator ran late (p99 {send_late_p99:.3} ms > 1 ms); \
             the box is oversubscribed",
            workload.name()
        );
    }
    out.extras.push(("send_late_p99_ms", send_late_p99, "ms"));
    match queries {
        None => out.latency_ms = freshness,
        Some(mut q) => {
            out.attempted += q.attempted;
            out.failed += q.failed;
            out.check(
                "query answers well formed",
                q.malformed == 0,
                format!("{} of {} answers malformed", q.malformed, q.attempted),
            );
            out.extras
                .push(("freshness_p50_ms", freshness.quantile(0.5), "ms"));
            out.extras
                .push(("freshness_p99_ms", freshness.quantile(0.99), "ms"));
            out.extras.push((
                "queries_per_s",
                q.attempted as f64 / q.wall_s.max(1e-9),
                "ops/s",
            ));
            if let Some(tracer) = &ctx.tracer {
                for (op, names) in OPS.into_iter().zip([
                    ["query.latest_us_p50", "query.latest_us_p99"],
                    ["query.user_sentiment_us_p50", "query.user_sentiment_us_p99"],
                    ["query.top_words_us_p50", "query.top_words_us_p99"],
                    ["query.timeline_us_p50", "query.timeline_us_p99"],
                ]) {
                    out.span_layers(tracer, ("query", op), names);
                }
                out.layer("query.failures", q.failed as f64);
            }
            out.latency_ms = std::mem::take(&mut q.all_ms);
        }
    }

    if let Some(tracer) = &ctx.tracer {
        out.layer("load.send_late_p99_ms", send_late_p99);
        out.span_layers(
            tracer,
            ("router", "ingest"),
            ["router.ingest_us_p50", "router.ingest_us_p99"],
        );
        out.layer(
            "router.blocked_ms_total",
            tracer.durations_us("local", "ingest").sum() / 1e3,
        );
        out.layer("router.load_skew", fleet.engine.load_skew());
        if let Some(b) = &batcher {
            let submit = tracer.durations_us("batch", "submit");
            out.layer("batch.submit_us_p50", submit.quantile(0.5));
            out.layer(
                "batch.coalesce_ratio",
                b.snapshots_coalesced() as f64 / b.batches_flushed().max(1) as f64,
            );
        }
        let hist = step_hist_between(&hist_before.unwrap_or_default(), &hist_after);
        worker_layers(&mut out, &hist, &watch.queue_depth);
        // Regenerate the same stream (batched like the live run) for the
        // stage replay.
        let mut regen = LoadGen::new(load, fleet.engine.vocabulary().tokens().to_vec())?;
        let snaps: Vec<EngineSnapshot> = if dashboard {
            (0..sz.replay_snapshots / BUCKET as usize)
                .map(|_| {
                    let mut batch = regen.next_snapshot();
                    batch.timestamp -= batch.timestamp % BUCKET;
                    for _ in 1..BUCKET {
                        batch.merge(regen.next_snapshot());
                    }
                    batch
                })
                .collect()
        } else {
            (0..sz.replay_snapshots)
                .map(|_| regen.next_snapshot())
                .collect()
        };
        let sf0 = crate::workload::prior(&corpus, fleet.engine.vocabulary());
        let r = replay(snaps, &fleet.map, fleet.engine.vocabulary(), &sf0)?;
        replay_layers(&mut out, &r, hist.p50() as f64 / 1e6);
    }
    drop(batcher);
    fleet.shutdown()?;
    Ok(out)
}

/// Adds one sent snapshot to the open dashboard bucket.
fn fold(open: &mut Option<OpenBucket>, hit: &[bool], commit: Commit, bucket: u64) {
    match open {
        Some(o) => {
            for (a, &b) in o.hit.iter_mut().zip(hit) {
                *a |= b;
            }
            o.commit.index = commit.index;
            o.commit.due = commit.due;
            o.commit.docs += commit.docs;
            o.commit.authors.extend(commit.authors);
        }
        None => {
            *open = Some(OpenBucket {
                hit: hit.to_vec(),
                commit: Commit {
                    timestamp: bucket,
                    ..commit
                },
            })
        }
    }
}

fn ingest_blocking(
    ctx: &Ctx,
    engine: &ShardedEngine,
    batch: EngineSnapshot,
) -> Result<(), TgsError> {
    let ts = batch.timestamp;
    ctx.span(Role::Write, "router", "ingest", ts, || engine.ingest(batch))
}

/// The closed-loop query client: one query at a time, a seeded mix of
/// 40% `latest`, 30% `user_sentiment` for a user who has posted, 20%
/// `top_words(t, 10)` and 10% `timeline(t-63..=t)`, where `t` is the
/// newest commit the writer has seen.
fn query_client(
    ctx: &Ctx,
    engine: &ShardedEngine,
    measuring: &AtomicBool,
    stop: &AtomicBool,
    committed_t: &AtomicU64,
    posted: &Mutex<Vec<usize>>,
) -> Result<Queries, TgsError> {
    let query = engine.query();
    let k = query.k();
    let mut rng = Rng::new(ctx.seed ^ 0x0051_DE55_u64);
    let mut q = Queries::default();
    while !measuring.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
        std::thread::sleep(POLL);
    }
    let started = Instant::now();
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let t = committed_t.load(Ordering::Relaxed);
        let user = {
            let p = posted.lock().expect("writer panicked");
            (!p.is_empty()).then(|| p[rng.below(p.len())])
        };
        let (Some(user), false) = (user, t == NONE) else {
            std::thread::sleep(POLL);
            continue;
        };
        let op = match rng.below(10) {
            0..=3 => 0,
            4..=6 => 1,
            7..=8 => 2,
            _ => 3,
        };
        let began = Instant::now();
        let well_formed = ctx.span(Role::Read, "query", OPS[op], seq, || match op {
            0 => query.latest().map(|e| {
                e.is_some_and(|e| {
                    e.tweet_counts.len() == k && e.tweet_counts.iter().sum::<usize>() == e.tweets
                })
            }),
            1 => query.user_sentiment(user, t).map(|s| {
                s.distribution.len() == k
                    && (s.distribution.iter().sum::<f64>() - 1.0).abs() < 1e-6
                    && s.distribution.iter().all(|&p| p >= 0.0)
            }),
            2 => query.top_words(t, 10).map(|clusters| {
                clusters.len() == k
                    && clusters.iter().all(|c| {
                        !c.is_empty() && c.len() <= 10 && c.iter().all(|w| w.1.is_finite())
                    })
            }),
            _ => query.timeline(t.saturating_sub(63)..=t).map(|entries| {
                !entries.is_empty()
                    && entries.iter().all(|e| {
                        e.timestamp <= t
                            && e.tweet_counts.len() == k
                            && e.tweet_counts.iter().sum::<usize>() == e.tweets
                    })
            }),
        });
        let took = ms(began.elapsed());
        seq += 1;
        q.attempted += 1;
        q.all_ms.push(took);
        match well_formed {
            Ok(true) => {}
            Ok(false) => q.malformed += 1,
            Err(_) => q.failed += 1,
        }
    }
    q.wall_s = started.elapsed().as_secs_f64();
    Ok(q)
}
