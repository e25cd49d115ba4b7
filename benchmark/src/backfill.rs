//! `backfill`: the paper's online setting as a closed loop.
//!
//! The Prop 37 stream — 130 one-day snapshots with the election-day
//! burst — goes into a fresh two-shard fleet as fast as the queues take
//! it, then the run flushes. Passes repeat on fresh fleets until the
//! measured time reaches `--seconds`; every pass must reproduce the same
//! digests. An observer thread polls the shards' committed counts, so
//! each snapshot's latency runs from its ingest call to its commit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use tgs_core::TgsError;
use tgs_data::{day_windows, generate, presets, GeneratorConfig, PartitionMap};
use tgs_engine::{EngineSnapshot, LatencyHistogram};
use tgs_eval::{clustering_accuracy, nmi};

use crate::fleet::{timed_setups, touched, CommitWatch, LocalFleet, POLL, SHARDS};
use crate::spec::Workload;
use crate::stats::{Gauge, Samples};
use crate::trace::Role;
use crate::workload::{
    bytes_digest, ms, replay_layers, shard_stats, timeline_digest, worker_layers, Ctx, Outcome,
};

/// Multiplier on the Prop 37 preset's users and tweets: snapshots average
/// about 1,200 documents (7,000 on election day), and a pass takes about
/// 0.8 s on a 2-core box, so a run still gathers over 2,000 snapshot
/// latencies.
const SCALE: usize = 4;

/// The backfill corpus: the Prop 37 preset with `SCALE` times its users
/// and tweets over the same 130 days.
pub fn stream(seed: u64) -> GeneratorConfig {
    let mut cfg = presets::prop37(seed);
    cfg.num_users *= SCALE;
    cfg.total_tweets *= SCALE;
    cfg
}

pub fn smoke_stream(seed: u64) -> GeneratorConfig {
    let mut cfg = presets::prop37_small(seed);
    cfg.num_users = 60;
    cfg.total_tweets = 600;
    cfg
}

/// One pass over the stream on one fleet.
struct Pass {
    latency_ms: Samples,
    elapsed_s: f64,
    queue_depth: Gauge,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, TgsError> {
    let sz = &ctx.sizes;
    let corpus = generate(&(sz.backfill)(ctx.seed));
    let snaps: Vec<EngineSnapshot> = day_windows(corpus.num_days, 1)
        .into_iter()
        .map(|(lo, hi)| EngineSnapshot::from_corpus_window(&corpus, lo, hi))
        .filter(|s| !s.is_empty())
        .collect();
    let map = PartitionMap::even(corpus.num_users(), SHARDS);
    let hits: Vec<Vec<bool>> = snaps.iter().map(|s| touched(&map, s)).collect();
    let stream_docs: u64 = snaps.iter().map(|s| s.len() as u64).sum();
    let last_t = snaps.last().map_or(0, |s| s.timestamp);
    let mut authors: Vec<usize> = corpus.tweets.iter().map(|t| t.author).collect();
    authors.sort_unstable();
    authors.dedup();
    let planted = corpus.user_truth();
    let truth: Vec<usize> = authors.iter().map(|&u| planted[u]).collect();

    let heap_base = crate::alloc::reset_peak();
    let build = || LocalFleet::build(&corpus, ctx.tracer.as_ref());
    let (fleet, setup_s) = timed_setups(sz.setups, build, LocalFleet::shutdown)?;
    let mut out = Outcome::new(Workload::Backfill);
    out.setup_s = setup_s;
    let vocab = fleet.engine.vocabulary().clone();
    let mut next = Some(fleet);
    let mut passes = 0u32;
    let mut first: Option<(u64, u64, Vec<usize>)> = None;
    let mut steps = LatencyHistogram::new();
    let mut queue_depth = Gauge::default();
    let mut load_skew;
    loop {
        let fleet = match next.take() {
            Some(f) => f,
            None => {
                let started = Instant::now();
                let f = build()?;
                out.setup_s.push(started.elapsed().as_secs_f64());
                f
            }
        };
        let pass = run_pass(ctx, &fleet, snaps.clone(), &hits)?;
        passes += 1;
        out.latency_ms.extend(&pass.latency_ms);
        queue_depth.merge(pass.queue_depth);
        out.measured_s += pass.elapsed_s;
        out.docs += stream_docs;
        out.attempted += snaps.len() as u64;
        steps = steps.merge(&shard_stats(&fleet.shards)?.step_hist);
        load_skew = fleet.engine.load_skew();

        let query = fleet.engine.query();
        let (timeline, tweets) = timeline_digest(&query)?;
        let ckpt = bytes_digest(fleet.engine.checkpoint()?.as_bytes());
        let pred = authors
            .iter()
            .map(|&u| query.user_sentiment(u, last_t).map(|s| s.label()))
            .collect::<Result<Vec<_>, _>>()?;
        drop(query);
        fleet.shutdown()?;

        match &first {
            None => {
                out.check(
                    "documents conserved",
                    tweets as u64 == stream_docs,
                    format!("timeline holds {tweets} tweets, the stream {stream_docs}"),
                );
                first = Some((timeline, ckpt, pred));
            }
            Some(f) if *f != (timeline, ckpt, pred) => out.check(
                "passes reproduce the first pass",
                false,
                format!("pass {passes} digests {timeline:016x}/{ckpt:016x} differ from pass 1"),
            ),
            Some(_) => {}
        }
        if out.measured_s >= ctx.seconds {
            break;
        }
    }
    let (timeline, ckpt, pred) = first.expect("at least one pass");
    out.digests.push(("timeline", timeline));
    out.digests.push(("checkpoint", ckpt));
    // The paper's accuracy maps each cluster to its majority stance, so a
    // complete labelling never scores below putting every user in one
    // cluster: that share is the floor. On this stream most users hold
    // one stance and the floor is all `user_acc` reaches; NMI shows what
    // the clusters carry, and must not fall to nothing.
    let user_acc = clustering_accuracy(&pred, &truth);
    let floor = clustering_accuracy(&vec![0; truth.len()], &truth);
    let user_nmi = nmi(&pred, &truth);
    out.check(
        "user_acc at or above its floor",
        user_acc >= floor,
        format!("user_acc {user_acc:.4} (floor: one-cluster share {floor:.4})"),
    );
    out.check(
        "user clusters carry stance information",
        user_nmi > 0.0,
        format!("user_nmi {user_nmi:.4}"),
    );
    out.extras.push(("user_acc", user_acc, "ratio"));
    out.extras.push(("user_nmi", user_nmi, "ratio"));
    out.extras.push(("passes", f64::from(passes), "count"));
    out.heap_bytes = crate::alloc::peak().saturating_sub(heap_base);

    if let Some(tracer) = &ctx.tracer {
        out.span_layers(
            tracer,
            ("router", "ingest"),
            ["router.ingest_us_p50", "router.ingest_us_p99"],
        );
        out.layer(
            "router.blocked_ms_total",
            tracer.durations_us("local", "ingest").sum() / 1e3,
        );
        out.layer("router.load_skew", load_skew);
        worker_layers(&mut out, &steps, &queue_depth);
        let sf0 = crate::workload::prior(&corpus, &vocab);
        let r = crate::replay::replay(snaps, &map, &vocab, &sf0)?;
        replay_layers(&mut out, &r, steps.p50() as f64 / 1e6);
    }
    Ok(out)
}

fn run_pass(
    ctx: &Ctx,
    fleet: &LocalFleet,
    snaps: Vec<EngineSnapshot>,
    hits: &[Vec<bool>],
) -> Result<Pass, TgsError> {
    let mut watch = CommitWatch::new(&fleet.shards)?;
    for (i, hit) in hits.iter().enumerate() {
        watch.expect(hit, i);
    }
    let n = hits.len();
    let done = AtomicBool::new(false);
    let mut starts = Vec::with_capacity(n);
    let (seen, queue_depth, elapsed) = std::thread::scope(|s| {
        let done = &done;
        let observer = s.spawn(move || -> Result<_, TgsError> {
            let mut seen = vec![None; n];
            loop {
                // Read the flag before polling: once it is set the flush
                // has returned, so this poll sees every commit.
                let finished = done.load(Ordering::SeqCst);
                for (i, at) in watch.poll()? {
                    seen[i] = Some(at);
                }
                if watch.pending() == 0 || finished {
                    return Ok((seen, watch.queue_depth));
                }
                std::thread::sleep(POLL);
            }
        });
        let started = Instant::now();
        let sent = (|| -> Result<(), TgsError> {
            for snap in snaps {
                let ts = snap.timestamp;
                starts.push(Instant::now());
                ctx.span(Role::Write, "router", "ingest", ts, || {
                    fleet.engine.ingest(snap)
                })?;
            }
            ctx.span(Role::Write, "router", "flush", 0, || fleet.engine.flush())?;
            Ok(())
        })();
        let elapsed = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let observed = observer.join().expect("observer panicked");
        sent?;
        let (seen, queue_depth) = observed?;
        Ok::<_, TgsError>((seen, queue_depth, elapsed))
    })?;
    let mut latency_ms = Samples::default();
    for (start, seen) in starts.iter().zip(&seen) {
        let seen = seen.ok_or_else(|| {
            TgsError::invalid_argument("backfill: a flushed snapshot's commit was never seen")
        })?;
        latency_ms.push(ms(seen.saturating_duration_since(*start)));
    }
    Ok(Pass {
        latency_ms,
        elapsed_s: elapsed,
        queue_depth,
    })
}
