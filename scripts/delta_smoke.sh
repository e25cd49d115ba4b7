#!/usr/bin/env bash
# Delta-checkpoint smoke: the O(changes) snapshot path end to end.
#
# Kill → restore: `tgs serve` runs a 2-shard loopback fleet under a
# seeded TGS_FAULTS schedule that truncates INGEST frames, fails
# DELTA_SINCE replies and truncates CHECKPOINT_BASE frames. The
# supervisor keeps base + deltas baselines, extends them with
# DELTA_SINCE and re-anchors with CHECKPOINT_BASE once the deltas
# outgrow the base; faulted slots are rebuilt from base ⊕ deltas and
# the final timeline + checkpoint must still be byte-identical to the
# fault-free control — and the stats must show both real respawns and
# real delta refreshes.
#
# Usage: ./scripts/delta_smoke.sh   (run from anywhere; builds release tgs)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build release tgs"
cargo build --release --quiet --bin tgs
TGS=target/release/tgs

DIR=$(mktemp -d -t tgs_delta_smoke.XXXXXX)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$DIR"
}
trap cleanup EXIT

echo "==> generate tiny corpus"
"$TGS" generate --preset tiny --seed 42 --out "$DIR/corpus.tsv"

echo "==> control run (in-process, fault-free)"
"$TGS" stream --shards 2 --corpus "$DIR/corpus.tsv" \
    --out "$DIR/control.tsv" --checkpoint "$DIR/control.ckpt"

echo "==> launch 2 shard servers"
start_shard() { # $1: banner file
    "$TGS" shard --listen 127.0.0.1:0 >"$1" &
    PIDS+=("$!")
    for _ in $(seq 1 100); do
        if grep -q "^listening on " "$1"; then return 0; fi
        sleep 0.05
    done
    echo "shard server never announced its address" >&2
    return 1
}
start_shard "$DIR/a.log"
start_shard "$DIR/b.log"
A=$(sed -n 's/^listening on //p' "$DIR/a.log" | head -1)
B=$(sed -n 's/^listening on //p' "$DIR/b.log" | head -1)
echo "    shards at $A and $B"

echo "==> tgs serve: delta-refreshed baselines under fault injection"
TGS_FAULTS="seed=23, ingest.truncate=0.25, delta_since.error=0.3, checkpoint_base.truncate=0.2" \
    "$TGS" serve --shards "$A,$B" --corpus "$DIR/corpus.tsv" \
    --checkpoint-every 1 \
    --out "$DIR/served.tsv" --checkpoint "$DIR/served.ckpt" \
    --stats --terminate 2>"$DIR/serve.err"
sed 's/^/    /' "$DIR/serve.err"

echo "==> restored fleet outputs must be byte-identical to the control"
cmp "$DIR/served.tsv" "$DIR/control.tsv"
cmp "$DIR/served.ckpt" "$DIR/control.ckpt"

echo "==> stats must show real respawns AND real delta refreshes"
RESPAWNS=$(sed -n 's/^recovery: respawns \([0-9]*\).*/\1/p' "$DIR/serve.err" | head -1)
REFRESHES=$(sed -n 's/^supervisor: delta_refreshes \([0-9]*\).*/\1/p' "$DIR/serve.err" | head -1)
if [[ -z "$RESPAWNS" || -z "$REFRESHES" ]]; then
    echo "missing recovery/supervisor stats in serve stderr" >&2
    exit 1
fi
if [[ "$RESPAWNS" -lt 1 || "$REFRESHES" -lt 1 ]]; then
    echo "delta round-trip exercised nothing (respawns=$RESPAWNS delta_refreshes=$REFRESHES)" >&2
    exit 1
fi
echo "    respawns=$RESPAWNS delta_refreshes=$REFRESHES"

echo "delta smoke green."
