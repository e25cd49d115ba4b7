//! `tgs soak`: the Zipf firehose harness.

use std::time::{Duration, Instant};

use tripartite_sentiment::data::presets;
use tripartite_sentiment::prelude::*;

use super::{alloc_meter, pipeline, Flags};

/// What one soak phase measured.
#[derive(Default)]
struct SoakPhase {
    id: &'static str,
    wall: Duration,
    snapshots: u64,
    docs: u64,
    solver_steps: u64,
    sheds: u64,
    queue_max: u64,
    queue_sum: u64,
    queue_samples: u64,
    batches: u64,
    coalesced: u64,
    /// Live-heap high-water mark over the phase (allocator-metered).
    peak_alloc_bytes: u64,
    stats: EngineStats,
}

impl SoakPhase {
    fn docs_per_sec(&self) -> f64 {
        self.docs as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn drop_rate(&self) -> f64 {
        let submissions = self.snapshots + self.sheds;
        if submissions == 0 {
            0.0
        } else {
            self.sheds as f64 / submissions as f64
        }
    }

    fn queue_mean(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.queue_sum as f64 / self.queue_samples as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"id\": \"soak/{}\",\n",
                "      \"wall_ms\": {:.3},\n",
                "      \"snapshots\": {},\n",
                "      \"docs\": {},\n",
                "      \"docs_per_sec\": {:.1},\n",
                "      \"solver_steps\": {},\n",
                "      \"sheds\": {},\n",
                "      \"drop_rate\": {:.6},\n",
                "      \"dropped_capacity\": {},\n",
                "      \"queue_depth_max\": {},\n",
                "      \"queue_depth_mean\": {:.2},\n",
                "      \"batches\": {},\n",
                "      \"snapshots_coalesced\": {},\n",
                "      \"peak_alloc_bytes\": {},\n",
                "      \"p50_ns\": {},\n",
                "      \"p99_ns\": {},\n",
                "      \"p999_ns\": {}\n",
                "    }}"
            ),
            self.id,
            self.wall.as_secs_f64() * 1e3,
            self.snapshots,
            self.docs,
            self.docs_per_sec(),
            self.solver_steps,
            self.sheds,
            self.drop_rate(),
            self.stats.dropped_capacity,
            self.queue_max,
            self.queue_mean(),
            self.batches,
            self.coalesced,
            self.peak_alloc_bytes,
            self.stats.step_hist.p50(),
            self.stats.step_hist.p99(),
            self.stats.step_hist.p999(),
        )
    }
}

/// Re-submits a shed snapshot until the fleet accepts it. The engine
/// hands rejected snapshots back allocation-free, so the retry loop
/// moves no bytes; past `deadline` it falls through to the blocking
/// `ingest` so a wedged phase still terminates.
fn ingest_with_retry(
    engine: &ShardedEngine,
    snapshot: EngineSnapshot,
    deadline: Instant,
    sheds: &mut u64,
) -> Result<(), TgsError> {
    let mut pending = snapshot;
    loop {
        match engine.try_ingest(pending)? {
            None => return Ok(()),
            Some(back) => {
                *sheds += 1;
                if Instant::now() >= deadline {
                    return engine.ingest(back);
                }
                pending = back;
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// Drives `gen` into `engine` until `steps` snapshots or `budget` run
/// out, then drains and shuts the engine down. Unbatched, each snapshot
/// is one `try_ingest` (one solver step); batched, snapshots go through
/// the micro-batching front end, where same-bucket snapshots coalesce
/// into one assembled solver step.
fn run_phase(
    engine: ShardedEngine,
    batched: bool,
    mut gen: LoadGen,
    steps: usize,
    budget: Duration,
) -> Result<SoakPhase, TgsError> {
    alloc_meter::reset_peak();
    let deadline = Instant::now() + budget;
    let started = Instant::now();
    let mut phase = SoakPhase {
        id: if batched { "batched" } else { "unbatched" },
        ..SoakPhase::default()
    };
    {
        let mut batcher = batched.then(|| engine.batching());
        while gen.step() < steps && Instant::now() < deadline {
            let snap = gen.next_snapshot();
            phase.docs += snap.docs.len() as u64;
            let shed = match batcher.as_mut() {
                Some(b) => b.submit(snap)?,
                None => Some(snap),
            };
            if let Some(shed) = shed {
                ingest_with_retry(&engine, shed, deadline, &mut phase.sheds)?;
            }
            phase.snapshots += 1;
            if phase.snapshots.is_multiple_of(8) {
                let q = engine.stats().queued;
                phase.queue_max = phase.queue_max.max(q);
                phase.queue_sum += q;
                phase.queue_samples += 1;
            }
        }
        if let Some(mut b) = batcher {
            if let Some(shed) = b.flush()? {
                ingest_with_retry(&engine, shed, deadline, &mut phase.sheds)?;
            }
            phase.batches = b.batches_flushed();
            phase.coalesced = b.snapshots_coalesced();
        }
    }
    phase.solver_steps = engine.flush()?;
    phase.wall = started.elapsed();
    phase.peak_alloc_bytes = alloc_meter::peak_bytes();
    phase.stats = engine.stats();
    engine.shutdown()?;
    Ok(phase)
}

pub(crate) fn cmd_soak(flags: &Flags) -> Result<(), TgsError> {
    let smoke = flags.str_opt("smoke").is_some();
    let seed: u64 = flags.get("seed")?;
    let mut users: usize = flags.get("users")?;
    let mut steps: usize = flags.get("steps")?;
    let mut docs_per_step: usize = flags.get("docs-per-step")?;
    let words_per_doc: usize = flags.get("words-per-doc")?;
    let shards: usize = flags.get("shards")?;
    let mut queue_depth: usize = flags.get("queue-depth")?;
    let bucket: u64 = flags.get("batch-bucket")?;
    let batch_max_docs: usize = flags.get("batch-max-docs")?;
    let budget_ms: u64 = flags.get("budget-ms")?;
    if users < 2 {
        // The corpus generator's own minimum; fail typed before it
        // panics.
        return Err(TgsError::invalid_argument("--users must be >= 2"));
    }
    if smoke {
        // CI leg: small enough to finish in seconds, queue deep enough
        // that nothing sheds — any drop is then a regression.
        users = users.min(200);
        steps = steps.min(24);
        docs_per_step = docs_per_step.min(8);
        queue_depth = queue_depth.max(256);
    }

    // Fit the vocabulary on a corpus with the same user universe the
    // generator will address, so routing is even and generated tokens
    // survive encoding.
    let mut gcfg = presets::tiny(seed);
    gcfg.num_users = users;
    gcfg.total_tweets = (2 * users).max(600);
    let corpus = generate(&gcfg);

    let build = |batched: bool| -> Result<ShardedEngine, TgsError> {
        let mut b = EngineBuilder::new()
            .online(OnlineConfig {
                k: flags.get("k")?,
                max_iters: flags.get("iters")?,
                seed,
                ..Default::default()
            })
            .pipeline(pipeline())
            .queue_depth(queue_depth);
        if batched {
            b = b.batch_policy(BatchPolicy {
                bucket_width: bucket,
                max_docs: batch_max_docs,
            });
        }
        b.fit_sharded(&corpus, shards)
    };
    let load = LoadConfig {
        seed,
        users,
        docs_per_step,
        words_per_doc,
        ..LoadConfig::default()
    };
    let budget = Duration::from_millis(budget_ms);

    // The same seeded traffic twice: once unbatched, once batched.
    let engine = build(false)?;
    let words = engine.vocabulary().tokens().to_vec();
    let gen = LoadGen::new(load.clone(), words.clone())?;
    let unbatched = run_phase(engine, false, gen, steps, budget)?;
    let engine = build(true)?;
    let gen = LoadGen::new(load, words)?;
    let batched = run_phase(engine, true, gen, steps, budget)?;

    for p in [&unbatched, &batched] {
        eprintln!(
            "{}: {} docs in {:.1} ms ({:.0} docs/s) | {} snapshots -> {} solver steps | \
             {} sheds (drop rate {:.4}) | queue max {} mean {:.1} | \
             p50 {:.3} ms p99 {:.3} ms p999 {:.3} ms | peak alloc {:.1} MiB",
            p.id,
            p.docs,
            p.wall.as_secs_f64() * 1e3,
            p.docs_per_sec(),
            p.snapshots,
            p.solver_steps,
            p.sheds,
            p.drop_rate(),
            p.queue_max,
            p.queue_mean(),
            p.stats.step_hist.p50() as f64 / 1e6,
            p.stats.step_hist.p99() as f64 / 1e6,
            p.stats.step_hist.p999() as f64 / 1e6,
            p.peak_alloc_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    let speedup = batched.docs_per_sec() / unbatched.docs_per_sec().max(1e-9);
    eprintln!("batched/unbatched throughput: {speedup:.2}x");

    let out_path = flags.str("out");
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema_version\": 1,\n",
            "  \"config\": {{\n",
            "    \"seed\": {}, \"users\": {}, \"steps\": {}, \"docs_per_step\": {},\n",
            "    \"words_per_doc\": {}, \"shards\": {}, \"queue_depth\": {},\n",
            "    \"batch_bucket\": {}, \"batch_max_docs\": {}, \"budget_ms\": {}, \"smoke\": {}\n",
            "  }},\n",
            "  \"benchmarks\": [\n{},\n{}\n  ]\n",
            "}}\n"
        ),
        seed,
        users,
        steps,
        docs_per_step,
        words_per_doc,
        shards,
        queue_depth,
        bucket,
        batch_max_docs,
        budget_ms,
        smoke,
        unbatched.to_json(),
        batched.to_json(),
    );
    std::fs::write(out_path, json)
        .map_err(|e| TgsError::io(format!("cannot write {out_path}"), e))?;
    eprintln!("wrote {out_path}");

    // The memory ceiling is its own gate (not only --smoke) so ad-hoc
    // soak runs can also fail fast on a live-heap regression.
    if let Some(ceiling) = flags.get_opt::<u64>("max-peak-bytes")? {
        for p in [&unbatched, &batched] {
            if p.peak_alloc_bytes > ceiling {
                return Err(TgsError::invalid_argument(format!(
                    "soak: phase {} peak live-heap {} bytes exceeds the --max-peak-bytes \
                     ceiling of {} bytes",
                    p.id, p.peak_alloc_bytes, ceiling
                )));
            }
        }
    }

    if smoke {
        for p in [&unbatched, &batched] {
            if p.stats.dropped_capacity > 0 || p.sheds > 0 {
                return Err(TgsError::invalid_argument(format!(
                    "soak smoke: phase {} shed {} / dropped {} snapshots (expected 0)",
                    p.id, p.sheds, p.stats.dropped_capacity
                )));
            }
            let p99 = p.stats.step_hist.p99();
            if p99 > 30_000_000_000 {
                return Err(TgsError::invalid_argument(format!(
                    "soak smoke: phase {} p99 step latency {} ns is implausible",
                    p.id, p99
                )));
            }
        }
        if batched.solver_steps >= unbatched.solver_steps {
            return Err(TgsError::invalid_argument(format!(
                "soak smoke: batching coalesced nothing ({} -> {} solver steps)",
                unbatched.solver_steps, batched.solver_steps
            )));
        }
        eprintln!("soak smoke: ok");
    }
    Ok(())
}
