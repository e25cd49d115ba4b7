#!/usr/bin/env bash
# Regenerates the machine-readable benchmark artifacts tracked in-repo.
#
# BENCH_kernels.json / BENCH_solvers.json give every future PR a perf
# trajectory baseline: the `offline_iteration_k10/seed_baseline` series
# is a frozen snapshot of the pre-workspace implementation (see
# crates/bench/src/seed_baseline.rs) and must keep its meaning forever.
# The `sharded_offline_solve/10_iters/{1,2,4}` series tracks the
# user-range sharded solver (parallel shard-local sweeps + global Sf
# merge); on a single-vCPU host it measures sharding overhead, on
# multi-core hosts it is the scaling series (see PERF.md). PR 4 added
# `simd_kernels/{scalar,dispatched}/*` (per-kernel SIMD-dispatch A/B;
# results are bit-identical across tiers, the series records the speed
# delta only) and `online_step_rebind/{cold,amortized}` (per-snapshot
# `UpdateWorkspace::bind` cost, throwaway vs fingerprint-amortized).
# PR 5 added `sharded_offline_solve/zipf_skew/4` (an activity-skewed
# corpus under an even 4-way split: the hottest shard gates the
# iteration — the case `tgs stream --max-skew` exists to fix) and
# `sharded_rebalance/move_roundtrip_users/{25,100,400}` (a live
# boundary-move rebalance and its inverse on a warmed 4-shard fleet:
# two quiesces + two export/import migrations of that many users).
# PR 6 (persistent worker pool) added:
#   `pool_overhead/{pooled,scoped_spawn}/{1000,10000,100000}` — the same
#     2-chunk row dispatch through the persistent pool vs a fresh
#     `std::thread::scope` spawn (the pre-pool implementation); the gap
#     is pure dispatch cost.
#   `thread_scaling/{gram_100k,mult_update_100k}/{1,2,4}` — row-parallel
#     kernel shapes at pinned TGS_THREADS budgets (scaling curve on
#     multi-core hosts, dispatch overhead on a single vCPU).
#   `sharded_offline_solve/{10_iters,zipf_skew}_4shards_threads/{1,2,4}`
#     — the 4-shard solve at pinned pool budgets; results are
#     bit-identical at every budget, the series is wall-clock only.
#   `spmm_prefetch/mul_dense_into_40k/{0,2,4,8}` — the TGS_PREFETCH
#     lookahead sweep for the CSR-gather SpMM (0 = hints off).
# PR 8 added BENCH_soak.json (written by `tgs soak`, not by this
# script): the `soak/{unbatched,batched}` series drives the identical
# seeded Zipf firehose through per-snapshot `try_ingest` and through
# the `BatchingIngest` front end, recording throughput, drop rate,
# queue depth and the p50/p99/p999 step-latency quantiles. Regenerate
# with `./target/release/tgs soak` at the repo root; the `--smoke`
# variant is the ci.sh gate (artifacts under target/bench-smoke/).
# PR 10 added BENCH_ckpt.json:
#   `ckpt_encode_n40000_s{1,4}/{full,delta}_<bytes>B/<pct>` — full
#     snapshot vs delta checkpoint encode on a 40k-user engine, at
#     1/5/20/100% of users touched per step (plus `apply_delta` at the
#     5% point). The measured artifact sizes are baked into the ids so
#     the JSON carries bytes alongside nanoseconds; acceptance is the
#     5% point staying ≥5× smaller and faster than full. BENCH_FAST=1
#     shrinks the corpus to 4k users (smoke only, not for committing).
# `thin_k/<kernel>/{350,2600}` (BENCH_kernels.json) times each
# fixed-width kernel at the solver's k = 3 and the workloads' vocabulary
# sizes; the artifact's `box` object stamps cores, SIMD tier and pool
# threads.
#
# Usage:
#   ./scripts/bench_json.sh           # full regeneration (commit these)
#   ./scripts/bench_json.sh --quick   # bench-smoke mode: BENCH_FAST=1,
#                                     # artifacts land in target/bench-smoke/
#                                     # (the ci.sh gate so bench code can't
#                                     # bit-rot; numbers NOT for committing)
#
# Set BENCH_FAST=1 yourself for a quick regeneration in-place.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="$PWD"
if [[ "${1:-}" == "--quick" ]]; then
    export BENCH_FAST=1
    OUT_DIR="$PWD/target/bench-smoke"
    mkdir -p "$OUT_DIR"
    echo "bench smoke mode: fast samples, artifacts under target/bench-smoke/"
fi

BENCH_JSON="$OUT_DIR/BENCH_kernels.json" cargo bench -p tgs_bench --bench kernels
BENCH_JSON="$OUT_DIR/BENCH_solvers.json" cargo bench -p tgs_bench --bench solvers
BENCH_JSON="$OUT_DIR/BENCH_ckpt.json" cargo bench -p tgs_bench --bench ckpt
echo "wrote $OUT_DIR/BENCH_{kernels,solvers,ckpt}.json"
