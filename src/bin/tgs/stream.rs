//! `tgs stream`, `tgs serve` and `tgs shard`: the online solver
//! (Algorithm 2) streamed through an in-process or a distributed fleet.

use std::io::Write;
use std::sync::Arc;

use tripartite_sentiment::data::Corpus;
use tripartite_sentiment::net::{
    deploy_supervised, NetConfig, RouterEndpoint, ShardServer, Supervisor, SupervisorConfig,
    TcpShard,
};
use tripartite_sentiment::prelude::*;

use super::{create_out, load_corpus, parse_value, pipeline, sentiment_name, write_err, Flags};

/// The cold fleet both streaming commands start from, fitted from the
/// solver flags they share. `serve` deploys this same fleet onto its
/// servers, which is what keeps the two runs bit-identical.
fn fit_fleet(flags: &Flags, corpus: &Corpus, shards: usize) -> Result<ShardedEngine, TgsError> {
    let online = OnlineConfig {
        k: flags.get("k")?,
        alpha: flags.get("alpha")?,
        beta: flags.get("beta")?,
        gamma: flags.get("gamma")?,
        tau: flags.get("tau")?,
        max_iters: flags.get("iters")?,
        seed: flags.get("seed")?,
        ..Default::default()
    };
    EngineBuilder::new()
        .online(online)
        .pipeline(pipeline())
        .ghost_users(flags.str_opt("ghost-users").is_some())
        .fit_sharded(corpus, shards)
}

/// The elastic-topology triggers: `--max-skew` splits the hottest
/// shard, `--merge-below` drains the coldest one into its neighbour.
struct ElasticPolicy {
    max_skew: Option<f64>,
    merge_below: Option<f64>,
}

fn elastic_policy(flags: &Flags) -> Result<ElasticPolicy, TgsError> {
    let max_skew: Option<f64> = flags.get_opt("max-skew")?;
    if let Some(x) = max_skew {
        if x.is_nan() || x < 1.0 {
            return Err(TgsError::invalid_argument(
                "--max-skew must be >= 1.0 (1.0 = perfectly even load)",
            ));
        }
    }
    let merge_below: Option<f64> = flags.get_opt("merge-below")?;
    if let Some(x) = merge_below {
        if !(x > 0.0 && x < 1.0) {
            return Err(TgsError::invalid_argument(
                "--merge-below must be in (0, 1): the cold shard's share of the per-shard mean",
            ));
        }
    }
    Ok(ElasticPolicy {
        max_skew,
        merge_below,
    })
}

/// Shared streaming body of `tgs stream` and `tgs serve`: fan the
/// corpus through the router window by window with the elastic policy
/// applied, then write the timeline/stats/checkpoint outputs. Keeping
/// both commands on this one code path is what makes a distributed run
/// flag-for-flag comparable to an in-process one.
fn stream_and_report(
    engine: &ShardedEngine,
    corpus: &Corpus,
    flags: &Flags,
    supervisor: Option<&Supervisor>,
) -> Result<(), TgsError> {
    let window: u32 = flags.get("window-days")?;
    if window == 0 {
        return Err(TgsError::invalid_argument("--window-days must be >= 1"));
    }
    let policy = elastic_policy(flags)?;
    let mut rebalances = 0usize;
    let mut merges = 0usize;
    for (lo, hi) in day_windows(corpus.num_days, window) {
        engine.ingest(EngineSnapshot::from_corpus_window(corpus, lo, hi))?;
        if let Some(sup) = supervisor {
            sup.tick();
        }
        if let Some(x) = policy.max_skew {
            // The auto-trigger inspects router-side load counters (no
            // flush needed); an actual rebalance quiesces the fleet.
            if let Some(map) = engine.maybe_rebalance(x)? {
                rebalances += 1;
                eprintln!(
                    "rebalanced: skew exceeded {x}; now {} shards (boundaries {:?})",
                    map.shards(),
                    map.starts()
                );
            }
        }
        if let Some(x) = policy.merge_below {
            if let Some(map) = engine.maybe_merge(x)? {
                merges += 1;
                eprintln!(
                    "merged: coldest shard below {x} of mean load; now {} shards (boundaries {:?})",
                    map.shards(),
                    map.starts()
                );
            }
        }
    }
    let steps = engine.flush()?;
    if let Some(sup) = supervisor {
        // On-quiesce snapshot: the stream has drained, so the refreshed
        // baselines capture the complete run.
        sup.refresh_checkpoints();
    }

    let query = engine.query();
    let k = query.k();
    let (mut out, out_path) = create_out(flags)?;
    let share_header: Vec<String> = (0..k).map(|c| format!("{}%", sentiment_name(c))).collect();
    writeln!(
        out,
        "# t\ttweets\tusers\tnew\tevolving\t{}",
        share_header.join("\t")
    )
    .map_err(write_err)?;
    for entry in query.timeline(..)? {
        let shares: Vec<String> = entry
            .tweet_shares()
            .iter()
            .map(|s| format!("{:.1}", 100.0 * s))
            .collect();
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            entry.timestamp,
            entry.tweets,
            entry.users,
            entry.new_users,
            entry.evolving_users,
            shares.join("\t"),
        )
        .map_err(write_err)?;
    }
    out.flush().map_err(write_err)?;
    let final_shards = engine.shards();
    let mut topology_note = String::new();
    if rebalances > 0 {
        topology_note.push_str(&format!(" after {rebalances} rebalance(s)"));
    }
    if merges > 0 {
        topology_note.push_str(&format!(
            "{} {merges} merge(s)",
            if rebalances > 0 { " and" } else { " after" }
        ));
    }
    eprintln!(
        "processed {steps} snapshots across {final_shards} shard(s){topology_note}; wrote timeline to {out_path}"
    );

    if flags.str_opt("stats").is_some() {
        let s = engine.stats();
        eprintln!(
            "stats: queued {} | ingested {} | dropped_capacity {} | last_step {:.3} ms | \
             ghost edges {} | cross-shard retweets dropped {} | shard_unavailable {} | \
             simd {} | threads {}",
            s.queued,
            s.ingested,
            s.dropped_capacity,
            s.last_step_ns as f64 / 1e6,
            s.ghost_edges,
            s.dropped_cross_shard,
            s.shard_unavailable,
            s.simd,
            s.threads,
        );
        print_recovery_stats(&s);
        if let Some(sup) = supervisor {
            // Not part of the merged per-shard stats record: delta
            // refreshes are a supervisor-local count of baseline
            // updates that shipped only changed bytes.
            eprintln!(
                "supervisor: delta_refreshes {}",
                sup.counters()
                    .delta_refreshes
                    .load(std::sync::atomic::Ordering::Relaxed)
            );
        }
        print_latency_stats(&s.step_hist);
        let loads = engine.shard_loads();
        let skew = engine.load_skew();
        for l in &loads {
            eprintln!(
                "shard {}: users [{}, {}) | {} tweets | {} known users",
                l.shard, l.range.0, l.range.1, l.tweets, l.users
            );
        }
        eprintln!("load skew: {skew:.3} (hottest shard over per-shard mean)");
    }

    if let Some(path) = flags.str_opt("checkpoint") {
        let ckpt = engine.checkpoint()?;
        std::fs::write(path, ckpt.as_bytes())
            .map_err(|e| TgsError::io(format!("cannot write {path}"), e))?;
        eprintln!(
            "checkpointed the {final_shards}-shard engine session ({} bytes) to {path}",
            ckpt.len()
        );
    }
    Ok(())
}

/// The merged fleet's recovery counters — the supervision layer's
/// scoreboard (all zeros on an unsupervised or never-faulted run).
fn print_recovery_stats(s: &EngineStats) {
    eprintln!(
        "recovery: respawns {} | replayed_docs {} | degraded_queries {}",
        s.respawns, s.replayed_docs, s.degraded_queries,
    );
}

/// Step-latency quantiles, with "n/a" for an empty histogram instead of
/// a fabricated 0 ms reading.
fn print_latency_stats(hist: &LatencyHistogram) {
    let ms = |q: f64| match hist.quantile_opt(q) {
        Some(ns) => format!("{:.3} ms", ns as f64 / 1e6),
        None => "n/a".to_string(),
    };
    eprintln!(
        "step latency: p50 {} | p99 {} | p999 {} over {} steps ({} shed)",
        ms(0.50),
        ms(0.99),
        ms(0.999),
        hist.count(),
        hist.shed(),
    );
}

pub(crate) fn cmd_stream(flags: &Flags) -> Result<(), TgsError> {
    let corpus = load_corpus(flags)?;
    let engine = fit_fleet(flags, &corpus, flags.get("shards")?)?;
    stream_and_report(&engine, &corpus, flags, None)
}

pub(crate) fn cmd_serve(flags: &Flags) -> Result<(), TgsError> {
    let corpus = load_corpus(flags)?;
    let addrs: Vec<String> = flags
        .str("shards")
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err(TgsError::invalid_argument(
            "--shards needs at least one ADDR",
        ));
    }
    // `--checkpoint-every` drives the supervisor's recovery baselines
    // (delta-first, since they anchor via CHECKPOINT_BASE).
    let checkpoint_every: u64 = flags.get("checkpoint-every")?;
    if checkpoint_every == 0 {
        return Err(TgsError::invalid_argument(
            "--checkpoint-every must be >= 1",
        ));
    }
    // Ship one checkpoint section of the cold fleet per server and route
    // over TCP from then on — restore is exact. The fleet is supervised:
    // each shard keeps a recovery baseline + replay journal, and
    // background probes respawn dead slots automatically.
    let template = fit_fleet(flags, &corpus, addrs.len())?;
    let sup_cfg = SupervisorConfig {
        checkpoint_every,
        ..SupervisorConfig::default()
    };
    let (engine, supervisor) = deploy_supervised(template, &addrs, &NetConfig::default(), sup_cfg)?;
    // Shared with the `--hold` endpoint, which needs its own handle for
    // the wire-serving thread pool.
    let engine = Arc::new(engine);
    eprintln!(
        "deployed {} supervised shard(s) onto {}",
        addrs.len(),
        addrs.join(", ")
    );
    supervisor.start_probes();
    let streamed = stream_and_report(&engine, &corpus, flags, Some(&supervisor));

    if streamed.is_ok() {
        if let Some(hold_addr) = flags.str_opt("hold") {
            hold_fleet(&engine, hold_addr)?;
        }
    }
    supervisor.stop();
    streamed?;
    if flags.str_opt("terminate").is_some() {
        for addr in &addrs {
            TcpShard::connect(addr.as_str()).terminate()?;
        }
        eprintln!("terminated {} shard server(s)", addrs.len());
    }
    Ok(())
}

/// `tgs serve --hold`: host the deployed router itself as a wire-protocol
/// endpoint until a client sends TERMINATE, so queries (and further
/// ingest) keep working after the corpus stream has drained — including
/// degraded, partial answers while a shard is down mid-recovery.
fn hold_fleet(engine: &Arc<ShardedEngine>, hold_addr: &str) -> Result<(), TgsError> {
    let server = ShardServer::bind(hold_addr, None)?;
    let bound = server.local_addr()?;
    server.add_transport(0, RouterEndpoint::new(Arc::clone(engine)))?;
    // Scripts parse this line (same contract as `tgs shard`'s banner).
    println!("holding on {bound}");
    std::io::stdout().flush().map_err(write_err)?;
    server.run()?;
    eprintln!("hold ended: received TERMINATE");
    Ok(())
}

pub(crate) fn cmd_shard(flags: &Flags) -> Result<(), TgsError> {
    let listen = flags.str("listen");
    let range = flags
        .str_opt("range")
        .map(|spec| -> Result<(usize, usize), TgsError> {
            let (lo, hi) = spec.split_once("..").ok_or_else(|| {
                TgsError::invalid_argument(format!("bad range '{spec}': expected LO..HI"))
            })?;
            Ok((parse_value("range", lo)?, parse_value("range", hi)?))
        })
        .transpose()?;
    let server = ShardServer::bind(listen, range)?;
    let addr = server.local_addr()?;
    // Scripts and the loopback tests parse this line to learn the
    // `:0`-assigned port; flush so a piped stdout delivers it promptly.
    println!("listening on {addr}");
    std::io::stdout().flush().map_err(write_err)?;
    server.run()
}
