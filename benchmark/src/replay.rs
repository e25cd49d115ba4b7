//! The traced run's stage replay.
//!
//! A worker's step — encode, assemble, solve — runs on the engine's own
//! thread and cannot be timed from outside during a live run. The traced
//! run therefore replays the workload's seeded snapshots, split per
//! shard exactly as the router splits them, through the same public
//! stages the worker calls: `Vocabulary::encode_into` →
//! `assemble_snapshot_matrices` → `OnlineSolver::try_step_with_ghosts`.

use std::collections::HashMap;
use std::time::Instant;

use tgs_core::{OnlineSolver, SnapshotData, TgsError, TriInput};
use tgs_data::{assemble_snapshot_matrices, route_docs, PartitionMap};
use tgs_engine::{DocContent, EngineSnapshot};
use tgs_linalg::DenseMatrix;
use tgs_text::{tokenize_features_into, PipelineConfig, Vocabulary};

use crate::stats::Samples;

#[derive(Default)]
pub struct Replay {
    pub encode_us: Samples,
    pub assemble_us: Samples,
    pub solve_ms: Samples,
    pub iterations: Samples,
    pub us_per_iter: Samples,
}

/// Replays `snapshots` in order through one fresh solver per shard.
pub fn replay(
    snapshots: impl IntoIterator<Item = EngineSnapshot>,
    map: &PartitionMap,
    vocab: &Vocabulary,
    sf0: &DenseMatrix,
) -> Result<Replay, TgsError> {
    let pipeline = PipelineConfig::paper_defaults();
    let mut solvers = (0..map.shards())
        .map(|_| OnlineSolver::try_new(crate::fleet::online_config()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Replay::default();
    let mut encoded: Vec<Vec<usize>> = Vec::new();
    let mut tokens = Vec::new();
    for snapshot in snapshots {
        let authors: Vec<usize> = snapshot.docs.iter().map(|d| d.user).collect();
        let events: Vec<(usize, usize)> =
            snapshot.retweets.iter().map(|r| (r.user, r.doc)).collect();
        let routing = route_docs(map, &authors, &events);
        for (shard, docs) in routing.shard_docs.iter().enumerate() {
            if docs.is_empty() {
                continue;
            }
            let n = docs.len();
            if encoded.len() < n {
                encoded.resize_with(n, Vec::new);
            }
            let started = Instant::now();
            for (ids, &doc) in encoded.iter_mut().zip(docs) {
                match &snapshot.docs[doc].content {
                    DocContent::Tokens(t) => vocab.encode_into(t.iter().map(String::as_str), ids),
                    DocContent::Raw(text) => {
                        tokenize_features_into(text, &pipeline.tokenizer, &mut tokens);
                        vocab.encode_into(tokens.iter().map(String::as_str), ids);
                    }
                }
            }
            out.encode_us.push(started.elapsed().as_secs_f64() * 1e6);

            let retweets = &routing.shard_retweets[shard];
            let mut user_ids: Vec<usize> = docs
                .iter()
                .map(|&d| authors[d])
                .chain(retweets.iter().map(|&(u, _)| u))
                .collect();
            user_ids.sort_unstable();
            user_ids.dedup();
            let local: HashMap<usize, usize> =
                user_ids.iter().enumerate().map(|(i, &u)| (u, i)).collect();
            let doc_users: Vec<usize> = docs.iter().map(|&d| local[&authors[d]]).collect();
            let pairs: Vec<(usize, usize)> =
                retweets.iter().map(|&(u, d)| (local[&u], d)).collect();

            let started = Instant::now();
            let m = assemble_snapshot_matrices(
                vocab,
                &encoded[..n],
                &doc_users,
                user_ids.len(),
                &pairs,
                pipeline.weighting,
            );
            out.assemble_us.push(started.elapsed().as_secs_f64() * 1e6);

            let input = TriInput {
                xp: &m.xp,
                xu: &m.xu,
                xr: &m.xr,
                graph: &m.graph,
                sf0,
            };
            let started = Instant::now();
            let step = solvers[shard].try_step_with_ghosts(
                &SnapshotData {
                    input,
                    user_ids: &user_ids,
                },
                &[],
            )?;
            let solve = started.elapsed();
            out.solve_ms.push(solve.as_secs_f64() * 1e3);
            out.iterations.push(step.iterations as f64);
            out.us_per_iter
                .push(solve.as_secs_f64() * 1e6 / step.iterations.max(1) as f64);
        }
    }
    Ok(out)
}
