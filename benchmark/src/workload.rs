//! What every workload shares: its settings, its result, and helpers.

use std::sync::Arc;
use std::time::Duration;

use tgs_core::TgsError;
use tgs_data::{generate, presets, Corpus, GeneratorConfig};
use tgs_engine::{EngineStats, LatencyHistogram, ShardTransport, ShardedQuery, HIST_BUCKETS};
use tgs_linalg::DenseMatrix;
use tgs_text::{PipelineConfig, Vocabulary};

use crate::json::Json;
use crate::spec::Workload;
use crate::stats::{Fnv, Gauge, Samples};
use crate::trace::Tracer;

/// Input sizes. `--smoke` shrinks everything so all workloads finish in
/// seconds in a debug build; the full sizes are the benchmark.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Untimed traffic before measurement starts (open loops).
    pub warmup: Duration,
    /// Fleet builds per run; `setup_s` is their median.
    pub setups: usize,
    /// User universe of the Zipf load generator.
    pub users: usize,
    /// Open-loop send rates, snapshots per second.
    pub firehose_rate: f64,
    pub dashboard_rate: f64,
    /// The corpus the backfill stream replays.
    pub backfill: fn(u64) -> GeneratorConfig,
    /// Documents per fleet_tcp window, untimed windows first, and timed
    /// windows per round.
    pub tcp_docs: usize,
    pub tcp_warmup_windows: usize,
    pub tcp_windows: usize,
    /// Snapshots the traced run replays stage by stage.
    pub replay_snapshots: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            warmup: Duration::from_secs(2),
            setups: 5,
            users: 2_000,
            firehose_rate: 1_000.0,
            dashboard_rate: 500.0,
            backfill: crate::backfill::stream,
            tcp_docs: 128,
            tcp_warmup_windows: 50,
            tcp_windows: 1_000,
            replay_snapshots: 2_000,
        }
    }

    pub fn smoke() -> Self {
        Self {
            warmup: Duration::from_millis(200),
            setups: 1,
            users: 200,
            firehose_rate: 200.0,
            dashboard_rate: 200.0,
            backfill: crate::backfill::smoke_stream,
            tcp_docs: 16,
            tcp_warmup_windows: 5,
            tcp_windows: 20,
            replay_snapshots: 40,
        }
    }
}

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    /// Set on traced runs: spans, traced fleets and the stage replay.
    pub tracer: Option<Arc<Tracer>>,
}

impl Ctx {
    /// Runs `f` in a span when tracing, else just runs it.
    pub fn span<T, E>(
        &self,
        role: crate::trace::Role,
        layer: &'static str,
        op: &'static str,
        request: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        match &self.tracer {
            Some(t) => t.span(role, layer, op, request, f),
            None => f(),
        }
    }
}

/// Everything a workload run measured and checked.
pub struct Outcome {
    pub workload: Workload,
    pub setup_s: Vec<f64>,
    /// The workload's headline latency, ms (see `Workload::latency_meaning`).
    pub latency_ms: Samples,
    /// Documents committed during measurement, and its wall time.
    pub docs: u64,
    pub measured_s: f64,
    /// Live-heap growth over the run (setup included), bytes.
    pub heap_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub digests: Vec<(&'static str, u64)>,
    /// Workload-specific numbers that are not contract metrics.
    pub extras: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Outcome {
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            setup_s: Vec::new(),
            latency_ms: Samples::default(),
            docs: 0,
            measured_s: 0.0,
            heap_bytes: 0,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            digests: Vec::new(),
            extras: Vec::new(),
            layers: Vec::new(),
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// The contract's end-to-end metrics: `(name, value, samples)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, usize)> {
        let mut setup = Samples::default();
        for &s in &self.setup_s {
            setup.push(s);
        }
        let n = self.latency_ms.len();
        vec![
            ("setup_s", setup.quantile(0.5), setup.len()),
            ("latency_p50_ms", self.latency_ms.quantile(0.5), n),
            (
                "docs_per_s",
                self.docs as f64 / self.measured_s.max(1e-9),
                self.docs as usize,
            ),
            (
                "peak_heap_mb",
                self.heap_bytes as f64 / (1024.0 * 1024.0),
                1,
            ),
        ]
    }

    /// Adds the run's trace metrics and returns the trace document.
    pub fn finish_trace(&mut self, tracer: &Tracer) -> Json {
        self.layer("trace.spans", tracer.spans() as f64);
        self.layer(
            "trace.overhead_share",
            tracer.overhead_share(self.measured_s),
        );
        let p50 = self.latency_ms.quantile(0.5);
        self.layer("trace.latency_p50_ms", p50);
        tracer.dump()
    }

    /// Adds the p50 and p99 of one traced layer operation, in µs.
    pub fn span_layers(
        &mut self,
        tracer: &Tracer,
        (layer, op): (&str, &str),
        names: [&'static str; 2],
    ) {
        let d = tracer.durations_us(layer, op);
        self.layer(names[0], d.quantile(0.5));
        self.layer(names[1], d.quantile(0.99));
    }
}

/// The corpus the Zipf workloads fit their vocabulary on: the tiny
/// preset widened to the generator's user universe (as `tgs soak` does),
/// so routing is even and generated tokens survive encoding.
pub fn zipf_corpus(seed: u64, users: usize) -> Corpus {
    let mut cfg = presets::tiny(seed);
    cfg.num_users = users;
    cfg.total_tweets = (2 * users).max(600);
    generate(&cfg)
}

/// The `l × k` lexicon prior the engine fits beside `vocab` (needed by
/// the stage replay, which drives the solver directly).
pub fn prior(corpus: &Corpus, vocab: &Vocabulary) -> DenseMatrix {
    let confidence = PipelineConfig::paper_defaults().lexicon_confidence;
    corpus
        .lexicon
        .prior_matrix(vocab, crate::fleet::online_config().k, confidence)
}

/// The fleet's committed step histogram and queue state, read from the
/// shards directly.
pub fn shard_stats(shards: &[Arc<dyn ShardTransport>]) -> Result<EngineStats, TgsError> {
    let mut merged = EngineStats::default();
    for s in shards {
        merged = merged.merge(&s.stats()?);
    }
    Ok(merged)
}

/// Step latencies recorded between two stats reads.
pub fn step_hist_between(before: &EngineStats, after: &EngineStats) -> LatencyHistogram {
    let mut diff = [0u64; HIST_BUCKETS];
    for (i, d) in diff.iter_mut().enumerate() {
        *d = after.step_hist.buckets()[i].saturating_sub(before.step_hist.buckets()[i]);
    }
    LatencyHistogram::from_parts(&diff, 0)
}

/// Worker-layer metrics from the step histogram of the measured window.
pub fn worker_layers(out: &mut Outcome, hist: &LatencyHistogram, queue_depth: &Gauge) {
    out.layer("worker.step_ms_p50", hist.p50() as f64 / 1e6);
    out.layer("worker.step_ms_p99", hist.p99() as f64 / 1e6);
    out.layer("worker.steps", hist.count() as f64);
    out.layer("worker.queue_depth_max", queue_depth.max());
    out.layer("worker.queue_depth_mean", queue_depth.mean());
}

/// Stage-replay metrics, plus the share of the live worker step the
/// replayed stages account for.
pub fn replay_layers(out: &mut Outcome, replay: &crate::replay::Replay, worker_step_ms: f64) {
    let encode = replay.encode_us.quantile(0.5);
    let assemble = replay.assemble_us.quantile(0.5);
    let solve = replay.solve_ms.quantile(0.5);
    out.layer("text.encode_us_p50", encode);
    out.layer("data.assemble_us_p50", assemble);
    out.layer("core.online.step_ms_p50", solve);
    out.layer("core.online.step_ms_p99", replay.solve_ms.quantile(0.99));
    out.layer("core.online.iters_per_step", replay.iterations.mean());
    out.layer("core.online.us_per_iter", replay.us_per_iter.quantile(0.5));
    let attributed = (encode + assemble) / 1e3 + solve;
    out.layer(
        "worker.attributed_share",
        attributed / worker_step_ms.max(1e-9),
    );
}

/// Digest of a merged timeline: every field of every entry.
pub fn timeline_digest(query: &ShardedQuery) -> Result<(u64, usize), TgsError> {
    let mut h = Fnv::default();
    let mut tweets = 0;
    for e in query.timeline(..)? {
        tweets += e.tweets;
        for v in [
            e.timestamp,
            e.tweets as u64,
            e.users as u64,
            e.new_users as u64,
            e.evolving_users as u64,
            e.iterations as u64,
            u64::from(e.converged),
            e.objective.to_bits(),
        ] {
            h.u64(v);
        }
        for &c in e.tweet_counts.iter().chain(&e.user_counts) {
            h.u64(c as u64);
        }
    }
    Ok((h.finish(), tweets))
}

pub fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
