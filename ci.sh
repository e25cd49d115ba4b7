#!/usr/bin/env bash
# CI entrypoint: format check, lints, docs, release build, tests.
#
# Usage:
#   ./ci.sh            # the full gate (what .github/workflows/ci.yml runs)
#   ./ci.sh --bench    # additionally regenerate BENCH_*.json artifacts
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no dead_code/unused allowances (delete dead code instead)"
if grep -rnE '(allow|expect)\([^)]*\b(dead_code|unused)\b' crates/*/src src; then
    exit 1
fi

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> paper binaries (small scale; a panicking table or figure fails CI)"
rm -rf target/experiments-smoke
for bin in run_all ablations obs2_correlation; do
    TGS_OUTPUT_DIR=target/experiments-smoke "./target/release/$bin" > /dev/null
done

echo "==> paper tables match their pins (a moved cluster fails CI)"
./scripts/paper_tables.sh target/experiments-smoke

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo test --release (kernel, solver and matrix-assembly bit-identity suites, and the engine's fan-out, optimized as shipped)"
cargo test --release -q -p tgs_linalg -p tgs_core -p tgs_text -p tgs_data -p tgs_engine

echo "==> pinned checkpoint digests on the optimized build"
cargo test --release -q --test codec_golden

echo "==> queries racing rebalances, and degraded queries, on the optimized build"
cargo test --release -q --test rebalance --test degraded_query

echo "==> benchmark package (builds against the workspace's public API; ~9 s smoke)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> bench smoke (quick run so bench code can't bit-rot)"
./scripts/bench_json.sh --quick

echo "==> net smoke (2 shard servers + router on loopback)"
./scripts/net_smoke.sh

echo "==> chaos smoke (seeded fault injection + supervised recovery)"
./scripts/chaos_smoke.sh

echo "==> delta smoke (delta checkpoints: kill/restore round trip)"
./scripts/delta_smoke.sh

echo "==> soak smoke (Zipf firehose through the batching front end)"
mkdir -p target/bench-smoke
./target/release/tgs soak --smoke --out target/bench-smoke/BENCH_soak.json

if [[ "${1:-}" == "--bench" ]]; then
    echo "==> regenerating benchmark artifacts"
    ./scripts/bench_json.sh
fi

echo "CI green."
