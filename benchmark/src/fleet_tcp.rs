//! `fleet_tcp`: fleet step latency over loopback TCP.
//!
//! Two shard servers run in the benchmark process behind the supervisor
//! (a checkpoint refresh every 16 windows, no probes). One client runs
//! a closed loop: each window generates a 128-document snapshot, then
//! calls `ingest`, `flush` and `Supervisor::tick`; the window latency
//! covers those three calls.
//!
//! A round is a fresh fleet, 50 warm-up windows, a delta-chain check and
//! 1,000 measured windows; rounds repeat until the measured time reaches
//! `--seconds`. The work per round is fixed because the supervisor's
//! local delta chain compacts at state-dependent points (around windows
//! 250, 500 and 950 of a round), each compaction costing about four
//! times the last: a time-bounded loop would make throughput depend on
//! how far a box got.

use std::time::Instant;

use tgs_core::TgsError;
use tgs_engine::{ShardedDelta, ShardedEngine};
use tgs_load::{LoadConfig, LoadGen};

use crate::fleet::{timed_setups, TcpFleet};
use crate::spec::Workload;
use crate::stats::{Gauge, Samples};
use crate::trace::Role;
use crate::workload::{
    bytes_digest, ms, replay_layers, step_hist_between, timeline_digest, us, worker_layers,
    zipf_corpus, Ctx, Outcome,
};

/// Supervisor checkpoint cadence, in windows.
const CHECKPOINT_EVERY: u64 = 16;
/// Deltas in the chain check, and windows between them.
const CHAIN_DELTAS: usize = 3;
const WINDOWS_PER_DELTA: usize = 4;

/// Samples kept across rounds.
#[derive(Default)]
struct Timings {
    ticks_us: Samples,
    refresh_ms: Samples,
    wire_enc_us: Samples,
    wire_dec_us: Samples,
    wire_bytes: Samples,
    ckpt_ms: Samples,
    ckpt_bytes: Samples,
    since_ms: Samples,
    delta_bytes: Samples,
    apply_ms: Samples,
    delta_refreshes: u64,
}

/// One fleet's closed loop.
struct Round<'a> {
    ctx: &'a Ctx,
    fleet: &'a TcpFleet,
    gen: LoadGen,
    windows: u64,
    docs: u64,
}

impl Round<'_> {
    /// One window; returns its latency.
    fn window(&mut self, t: &mut Timings) -> Result<std::time::Duration, TgsError> {
        let snap = self.gen.next_snapshot();
        let ts = snap.timestamp;
        let docs = snap.len() as u64;
        if self.ctx.tracer.is_some() {
            let started = Instant::now();
            let bytes = tgs_net::wire::enc_snapshot(&snap);
            t.wire_enc_us.push(us(started.elapsed()));
            t.wire_bytes.push(bytes.len() as f64);
            let started = Instant::now();
            let decoded =
                tgs_net::wire::dec_snapshot(&bytes).map_err(TgsError::invalid_argument)?;
            t.wire_dec_us.push(us(started.elapsed()));
            debug_assert_eq!(decoded, snap);
        }
        let engine = &self.fleet.engine;
        let started = Instant::now();
        self.ctx
            .span(Role::Write, "router", "ingest", ts, || engine.ingest(snap))?;
        self.ctx
            .span(Role::Write, "router", "flush", ts, || engine.flush())?;
        let ticked = Instant::now();
        self.ctx.span(Role::Write, "supervise", "tick", ts, || {
            self.fleet.supervisor.tick();
            Ok::<(), TgsError>(())
        })?;
        let done = Instant::now();
        self.windows += 1;
        self.docs += docs;
        let tick = done - ticked;
        if self.windows.is_multiple_of(CHECKPOINT_EVERY) {
            t.refresh_ms.push(ms(tick));
        } else {
            t.ticks_us.push(us(tick));
        }
        Ok(done - started)
    }

    /// Base ⊕ deltas taken over the wire must equal a full checkpoint.
    /// Returns the full checkpoint's digest, or why the check failed.
    fn chain_check(&mut self, t: &mut Timings) -> Result<Result<u64, String>, TgsError> {
        let (ctx, engine) = (self.ctx, &self.fleet.engine);
        let (mut tips, base) = ctx.span(Role::Write, "fleet", "checkpoint_base", 0, || {
            engine.checkpoint_base()
        })?;
        let mut deltas: Vec<ShardedDelta> = Vec::with_capacity(CHAIN_DELTAS);
        for _ in 0..CHAIN_DELTAS {
            for _ in 0..WINDOWS_PER_DELTA {
                self.window(t)?;
            }
            let started = Instant::now();
            let delta = ctx
                .span(Role::Write, "fleet", "delta_since", 0, || {
                    engine.delta_since(&tips)
                })?
                .ok_or_else(|| {
                    TgsError::invalid_argument("fleet_tcp: delta base unexpectedly gone")
                })?;
            t.since_ms.push(ms(started.elapsed()));
            t.delta_bytes.push(delta.len() as f64);
            tips = delta.tips()?;
            deltas.push(delta);
        }
        let started = Instant::now();
        let full = ctx.span(Role::Write, "fleet", "checkpoint", 0, || {
            engine.checkpoint()
        })?;
        t.ckpt_ms.push(ms(started.elapsed()));
        t.ckpt_bytes.push(full.len() as f64);
        let started = Instant::now();
        let mut applied = base;
        for delta in &deltas {
            applied = ctx.span(Role::Write, "fleet", "apply_delta", 0, || {
                ShardedEngine::apply_delta(&applied, delta)
            })?;
        }
        t.apply_ms.push(ms(started.elapsed()));
        Ok(if applied.as_bytes() == full.as_bytes() {
            Ok(bytes_digest(full.as_bytes()))
        } else {
            Err(format!(
                "base + {} deltas gave {} bytes, a full checkpoint {} bytes",
                deltas.len(),
                applied.len(),
                full.len()
            ))
        })
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, TgsError> {
    let sz = &ctx.sizes;
    let corpus = zipf_corpus(ctx.seed, sz.users);
    let load = LoadConfig {
        seed: ctx.seed,
        users: sz.users,
        docs_per_step: sz.tcp_docs,
        ..LoadConfig::default()
    };
    let heap_base = crate::alloc::reset_peak();
    let build = || TcpFleet::build(&corpus, CHECKPOINT_EVERY, ctx.tracer.as_ref());
    let (fleet, setup_s) = timed_setups(sz.setups, build, TcpFleet::shutdown)?;
    let mut out = Outcome::new(Workload::FleetTcp);
    out.setup_s = setup_s;
    let vocab = fleet.engine.vocabulary().clone();
    let words = vocab.tokens().to_vec();
    let map = fleet.engine.map();
    let mut next = Some(fleet);
    let mut t = Timings::default();
    let mut first_digests: Option<(u64, u64)> = None;
    // The first failure of each check, if any.
    let (mut chain, mut conserved, mut reproduced) = (Ok(()), Ok(()), Ok(()));
    let mut steps = tgs_engine::LatencyHistogram::new();
    let mut rounds = 0u32;
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
        let mut round = Round {
            ctx,
            fleet: &fleet,
            gen: LoadGen::new(load.clone(), words.clone())?,
            windows: 0,
            docs: 0,
        };
        for _ in 0..sz.tcp_warmup_windows {
            round.window(&mut t)?;
        }
        rounds += 1;
        let ckpt = match round.chain_check(&mut t)? {
            Ok(digest) => digest,
            Err(why) => {
                chain = chain.and(Err(why));
                0
            }
        };
        let (timeline, _) = timeline_digest(&fleet.engine.query())?;
        match first_digests {
            None => first_digests = Some((timeline, ckpt)),
            Some(d) if d != (timeline, ckpt) => {
                reproduced = reproduced.and(Err(format!("round {rounds} digests differ")));
            }
            Some(_) => {}
        }

        let before = fleet.engine.stats();
        let docs_before = round.docs;
        let started = Instant::now();
        for _ in 0..sz.tcp_windows {
            let took = round.window(&mut t)?;
            out.latency_ms.push(ms(took));
        }
        out.measured_s += started.elapsed().as_secs_f64();
        out.attempted += sz.tcp_windows as u64;
        out.docs += round.docs - docs_before;
        steps = steps.merge(&step_hist_between(&before, &fleet.engine.stats()));

        let (_, tweets) = timeline_digest(&fleet.engine.query())?;
        if tweets as u64 != round.docs {
            conserved = conserved.and(Err(format!(
                "round {rounds}: timeline holds {tweets} tweets, {} documents were sent",
                round.docs
            )));
        }
        t.delta_refreshes += fleet
            .supervisor
            .counters()
            .delta_refreshes
            .load(std::sync::atomic::Ordering::Relaxed);
        fleet.shutdown()?;
        if out.measured_s >= ctx.seconds {
            break;
        }
    }
    out.heap_bytes = crate::alloc::peak().saturating_sub(heap_base);
    for (name, outcome, ok) in [
        (
            "documents conserved",
            conserved,
            "every timeline holds every document sent",
        ),
        (
            "delta chain equals a full checkpoint",
            chain,
            "base + 3 deltas over the wire",
        ),
        (
            "rounds reproduce the first round",
            reproduced,
            "identical digests",
        ),
    ] {
        out.check(
            name,
            outcome.is_ok(),
            outcome.err().unwrap_or_else(|| ok.into()),
        );
    }
    let (timeline, ckpt) = first_digests.expect("at least one round");
    out.digests.push(("timeline", timeline));
    out.digests.push(("checkpoint", ckpt));
    out.extras.push(("rounds", f64::from(rounds), "count"));

    if let Some(tracer) = &ctx.tracer {
        out.span_layers(
            tracer,
            ("router", "ingest"),
            ["router.ingest_us_p50", "router.ingest_us_p99"],
        );
        out.span_layers(
            tracer,
            ("net", "ingest"),
            ["net.ingest_rtt_us_p50", "net.ingest_rtt_us_p99"],
        );
        out.span_layers(
            tracer,
            ("net", "flush"),
            ["net.flush_rtt_us_p50", "net.flush_rtt_us_p99"],
        );
        out.layer("wire.enc_snapshot_us_p50", t.wire_enc_us.quantile(0.5));
        out.layer("wire.dec_snapshot_us_p50", t.wire_dec_us.quantile(0.5));
        out.layer("wire.snapshot_bytes_p50", t.wire_bytes.quantile(0.5));
        out.layer("supervise.tick_us_p50", t.ticks_us.quantile(0.5));
        out.layer("supervise.refresh_ms_p50", t.refresh_ms.quantile(0.5));
        out.layer("supervise.refresh_ms_p99", t.refresh_ms.quantile(0.99));
        out.layer("supervise.delta_refreshes", t.delta_refreshes as f64);
        out.layer("ckpt.full_ms", t.ckpt_ms.quantile(0.5));
        out.layer("ckpt.full_bytes", t.ckpt_bytes.quantile(0.5));
        out.layer("delta.since_ms_p50", t.since_ms.quantile(0.5));
        out.layer("delta.bytes_p50", t.delta_bytes.quantile(0.5));
        out.layer("delta.apply_ms", t.apply_ms.quantile(0.5));
        worker_layers(&mut out, &steps, &Gauge::default());
        let mut regen = LoadGen::new(load, words)?;
        let snaps: Vec<_> = (0..sz.replay_snapshots / 4)
            .map(|_| regen.next_snapshot())
            .collect();
        let sf0 = crate::workload::prior(&corpus, &vocab);
        let r = crate::replay::replay(snaps, &map, &vocab, &sf0)?;
        replay_layers(&mut out, &r, steps.p50() as f64 / 1e6);
    }
    Ok(out)
}
