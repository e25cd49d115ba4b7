//! The box stamp every output carries: what hardware and settings
//! produced the numbers.

use crate::json::Json;
use crate::spec::HOLDOUT_SEED;

/// Environment knobs that change which code paths run.
const KNOBS: [&str; 4] = ["TGS_THREADS", "TGS_SIMD", "TGS_PIN", "TGS_PREFETCH"];

pub fn box_stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let env = KNOBS
        .iter()
        .map(|k| (*k, std::env::var(k).map_or(Json::Null, Json::str)));
    Json::obj([
        ("nproc", Json::Int(nproc)),
        ("simd", Json::str(tgs_linalg::simd_tier_name())),
        ("pool_threads", Json::Int(tgs_linalg::pool_threads() as u64)),
        ("env", Json::obj(env)),
        (
            "git_rev",
            Json::str(git_rev().unwrap_or_else(|| "unknown".into())),
        ),
        ("holdout_seed", Json::Int(HOLDOUT_SEED)),
    ])
}

/// The checked-out commit, read from `.git` without starting a process;
/// `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|line| {
            let (rev, name) = line.split_once(' ')?;
            (name == reference).then(|| rev.to_string())
        })
}

/// Fault injection would make every number meaningless (and failures
/// expected), so a run refuses to start under `TGS_FAULTS`.
pub fn refuse_faults() -> Result<(), String> {
    match std::env::var("TGS_FAULTS") {
        Ok(v) if !v.trim().is_empty() => Err(format!(
            "TGS_FAULTS is set ({v:?}); the benchmark measures a fault-free system — unset it"
        )),
        _ => Ok(()),
    }
}
