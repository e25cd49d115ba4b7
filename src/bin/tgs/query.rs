//! `tgs query`: the history API over a checkpoint file or a held fleet.

use tripartite_sentiment::net::{ShardTransport, TcpShard};
use tripartite_sentiment::prelude::*;

use super::{parse_value, sentiment_name, Flags};

pub(crate) fn cmd_query(flags: &Flags) -> Result<(), TgsError> {
    let wants_history = ["timeline", "user", "summary", "top-words", "shard-info"]
        .iter()
        .any(|f| flags.str_opt(f).is_some());
    let remote = match (flags.str_opt("checkpoint"), flags.str_opt("connect")) {
        (Some(_), Some(_)) => {
            return Err(TgsError::invalid_argument(
                "--checkpoint and --connect are mutually exclusive",
            ))
        }
        (None, None) => {
            return Err(TgsError::invalid_argument(
                "query needs a source: --checkpoint PATH or --connect ADDR",
            ))
        }
        (_, connect) => connect.map(TcpShard::connect),
    };
    if remote.is_none()
        && (flags.str_opt("stats").is_some() || flags.str_opt("terminate").is_some())
    {
        return Err(TgsError::invalid_argument(
            "--stats and --terminate read a *live* fleet: they need --connect, not --checkpoint",
        ));
    }

    if let Some(shard) = &remote {
        if flags.str_opt("stats").is_some() {
            // The held router's merged fleet metrics, straight off the
            // wire — including the supervisor's recovery counters.
            let s = shard.stats()?;
            println!(
                "queued {} | ingested {} | dropped_capacity {} | shard_unavailable {}",
                s.queued, s.ingested, s.dropped_capacity, s.shard_unavailable,
            );
            println!(
                "respawns {} | replayed_docs {} | degraded_queries {}",
                s.respawns, s.replayed_docs, s.degraded_queries,
            );
        }
        if !wants_history {
            if flags.str_opt("terminate").is_some() {
                shard.terminate()?;
                eprintln!("terminated the held fleet at {}", shard.addr());
            } else if flags.str_opt("stats").is_none() {
                return Err(TgsError::invalid_argument(
                    "query needs one of --timeline, --user, --summary, --top-words, \
                     --shard-info, --stats, --terminate (see `tgs query --help`)",
                ));
            }
            return Ok(());
        }
    }

    let bytes = match &remote {
        // A held fleet serializes its entire multi-shard session as the
        // hold slot's checkpoint section; one fetch, then every history
        // verb runs locally against the restored copy.
        Some(shard) => shard.checkpoint_section()?,
        None => {
            let path = flags.str("checkpoint");
            std::fs::read(path).map_err(|e| TgsError::io(format!("cannot read {path}"), e))?
        }
    };
    if let Some(shard) = &remote {
        if flags.str_opt("terminate").is_some() {
            shard.terminate()?;
            eprintln!("terminated the held fleet at {}", shard.addr());
        }
    }
    // Serves both checkpoint flavors: multi-shard streams rebuild the
    // fleet, single-engine streams are wrapped as a one-shard fleet.
    let engine = ShardedEngine::restore_any(bytes)?;
    let query = engine.query();

    if flags.str_opt("shard-info").is_some() {
        let map = engine.map();
        println!(
            "{} shard(s) over {} users | ghost mode {} | map fingerprint {:#018x}",
            map.shards(),
            map.universe(),
            if engine.ghost_mode() { "on" } else { "off" },
            map.fingerprint(),
        );
        for load in engine.shard_loads() {
            let (lo, hi) = load.range;
            println!(
                "shard {}: users [{lo}, {hi}){} | {} known users",
                load.shard,
                if load.shard + 1 == map.shards() {
                    " + overflow ids"
                } else {
                    ""
                },
                load.users,
            );
        }
        return Ok(());
    }
    if let Some(range) = flags.str_opt("timeline") {
        let (lo, hi) = parse_range(range)?;
        for entry in query.timeline(lo..hi)? {
            let shares: Vec<String> = entry
                .tweet_shares()
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{} {:.1}%", sentiment_name(c), 100.0 * s))
                .collect();
            println!(
                "t={}: {} tweets, {} users ({} new, {} evolving), {}",
                entry.timestamp,
                entry.tweets,
                entry.users,
                entry.new_users,
                entry.evolving_users,
                shares.join(", "),
            );
        }
        return Ok(());
    }
    if let Some(user) = flags.get_opt::<usize>("user")? {
        let at = match flags.get_opt::<u64>("at")? {
            Some(t) => t,
            None => query
                .latest()?
                .map(|e| e.timestamp)
                .ok_or(TgsError::SnapshotUnavailable { timestamp: 0 })?,
        };
        let s = query.user_sentiment(user, at)?;
        let dist: Vec<String> = s
            .distribution
            .iter()
            .enumerate()
            .map(|(c, p)| format!("{} {:.3}", sentiment_name(c), p))
            .collect();
        println!(
            "user {user} at t={}: {} ({})",
            s.timestamp,
            sentiment_name(s.label()),
            dist.join(", "),
        );
        return Ok(());
    }
    if let Some(t) = flags.get_opt::<u64>("summary")? {
        let s = query.cluster_summary(t)?;
        for c in 0..s.tweet_counts.len() {
            println!(
                "{:<9} {:>6} tweets ({:>5.1}%), {:>6} users",
                sentiment_name(c),
                s.tweet_counts[c],
                100.0 * s.tweet_shares[c],
                s.user_counts[c],
            );
        }
        return Ok(());
    }
    if let Some(t) = flags.get_opt::<u64>("top-words")? {
        let words: usize = flags.get("words")?;
        for (c, cluster) in query.top_words(t, words)?.iter().enumerate() {
            let listed: Vec<String> = cluster
                .iter()
                .map(|(w, score)| format!("{w} ({score:.3})"))
                .collect();
            println!("{:<9} {}", sentiment_name(c), listed.join(", "));
        }
        return Ok(());
    }
    Err(TgsError::invalid_argument(
        "query needs one of --timeline, --user, --summary, --top-words (see `tgs query --help`)",
    ))
}

fn parse_range(spec: &str) -> Result<(u64, u64), TgsError> {
    if spec == "all" {
        return Ok((0, u64::MAX));
    }
    let (lo, hi) = spec.split_once("..").ok_or_else(|| {
        TgsError::invalid_argument(format!("bad range '{spec}': expected LO..HI or `all`"))
    })?;
    let lo = if lo.is_empty() {
        0
    } else {
        parse_value("timeline", lo)?
    };
    let hi = if hi.is_empty() {
        u64::MAX
    } else {
        parse_value("timeline", hi)?
    };
    Ok((lo, hi))
}
