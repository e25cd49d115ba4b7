//! `tgs generate`, `tgs analyze` and `tgs stats`: write a synthetic
//! corpus, solve it offline (Algorithm 1) and describe it.

use std::io::Write;

use tripartite_sentiment::data::{presets, write_corpus};
use tripartite_sentiment::prelude::*;

use super::{create_out, load_corpus, pipeline, sentiment_name, write_err, Flags};

pub(crate) fn cmd_generate(flags: &Flags) -> Result<(), TgsError> {
    let seed: u64 = flags.get("seed")?;
    let preset = flags.str("preset");
    let cfg = match preset {
        "tiny" => presets::tiny(seed),
        "prop30-small" => presets::prop30_small(seed),
        "prop37-small" => presets::prop37_small(seed),
        "prop30" => presets::prop30(seed),
        "prop37" => presets::prop37(seed),
        other => {
            return Err(TgsError::invalid_argument(format!(
                "unknown preset '{other}'"
            )))
        }
    };
    let corpus = generate(&cfg);
    let (out, out_path) = create_out(flags)?;
    write_corpus(&corpus, out).map_err(write_err)?;
    eprintln!(
        "wrote {} tweets, {} users, {} retweets over {} days to {out_path}",
        corpus.num_tweets(),
        corpus.num_users(),
        corpus.retweets.len(),
        corpus.num_days
    );
    Ok(())
}

pub(crate) fn cmd_analyze(flags: &Flags) -> Result<(), TgsError> {
    let corpus = load_corpus(flags)?;
    let k: usize = flags.get("k")?;
    let config = OfflineConfig {
        k,
        alpha: flags.get("alpha")?,
        beta: flags.get("beta")?,
        max_iters: flags.get("iters")?,
        seed: flags.get("seed")?,
        ..Default::default()
    };
    // Validate before building matrices: a bad --k would otherwise reach
    // the lexicon prior as a panic instead of a typed error.
    config.try_validate()?;
    let inst = build_offline(&corpus, k, &pipeline());
    let input = TriInput {
        xp: &inst.xp,
        xu: &inst.xu,
        xr: &inst.xr,
        graph: &inst.graph,
        sf0: &inst.sf0,
    };
    let result = try_solve_offline(&input, &config)?;
    eprintln!(
        "solved in {} iterations (converged: {}); objective {:.2}",
        result.iterations, result.converged, result.objective
    );
    let (mut out, out_path) = create_out(flags)?;
    writeln!(out, "# kind\tid\tsentiment\tconfidence").map_err(write_err)?;
    let tweet_conf = tripartite_sentiment::core::label_confidence(&result.factors.sp);
    for (id, (&label, conf)) in result
        .tweet_labels()
        .iter()
        .zip(tweet_conf.iter())
        .enumerate()
    {
        writeln!(out, "tweet\t{id}\t{}\t{conf:.3}", sentiment_name(label)).map_err(write_err)?;
    }
    let user_conf = tripartite_sentiment::core::label_confidence(&result.factors.su);
    for (id, (&label, conf)) in result
        .user_labels()
        .iter()
        .zip(user_conf.iter())
        .enumerate()
    {
        writeln!(out, "user\t{id}\t{}\t{conf:.3}", sentiment_name(label)).map_err(write_err)?;
    }
    out.flush().map_err(write_err)?;
    eprintln!("wrote sentiments to {out_path}");
    Ok(())
}

pub(crate) fn cmd_stats(flags: &Flags) -> Result<(), TgsError> {
    let corpus = load_corpus(flags)?;
    let s = corpus_stats(&corpus);
    println!("topic: {} ({} days)", corpus.topic, corpus.num_days);
    println!(
        "tweets: {} total, {} labeled pos, {} labeled neg",
        s.total_tweets, s.labeled_pos_tweets, s.labeled_neg_tweets
    );
    println!(
        "users:  {} total ({} pos / {} neg / {} neu labeled, {} unlabeled)",
        s.total_users,
        s.labeled_pos_users,
        s.labeled_neg_users,
        s.labeled_neu_users,
        s.unlabeled_users
    );
    println!("retweets: {}", s.total_retweets);
    Ok(())
}
