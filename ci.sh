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

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo test --release (kernel and solver bit-identity suites, optimized as shipped)"
cargo test --release -q -p tgs_linalg -p tgs_core

echo "==> benchmark package (builds against the workspace's public API; ~9 s smoke)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> bench smoke (quick run so bench code can't bit-rot)"
./scripts/bench_json.sh --quick

echo "==> net smoke (2 shard servers + router on loopback)"
./scripts/net_smoke.sh

echo "==> chaos smoke (seeded fault injection + supervised recovery)"
./scripts/chaos_smoke.sh

echo "==> delta smoke (delta checkpoints: stream cadence + kill/restore round trip)"
./scripts/delta_smoke.sh

echo "==> soak smoke (Zipf firehose through the batching front end)"
mkdir -p target/bench-smoke
./target/release/tgs soak --smoke --out target/bench-smoke/BENCH_soak.json

if [[ "${1:-}" == "--bench" ]]; then
    echo "==> regenerating benchmark artifacts"
    ./scripts/bench_json.sh
fi

echo "CI green."
