#!/usr/bin/env bash
# Loopback fleet smoke: two real `tgs shard` server processes plus the
# `tgs serve` router on 127.0.0.1 must stream the tiny preset to a
# timeline and checkpoint byte-identical to in-process
# `tgs stream --shards 2`, answer a query roundtrip on the assembled
# checkpoint, and shut down cleanly on --terminate.
# A second fleet is then held open with `tgs serve --hold`:
# `tgs query --connect` must print the same timeline as the checkpoint,
# read the live stats, and wind the router and its shard servers down
# with --terminate.
#
# Usage: ./scripts/net_smoke.sh   (run from anywhere; builds release tgs)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build release tgs"
cargo build --release --quiet --bin tgs
TGS=target/release/tgs

DIR=$(mktemp -d -t tgs_net_smoke.XXXXXX)
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

echo "==> tgs serve (router over the loopback fleet)"
"$TGS" serve --shards "$A,$B" --corpus "$DIR/corpus.tsv" \
    --out "$DIR/serve.tsv" --checkpoint "$DIR/serve.ckpt" \
    --stats --terminate

echo "==> tgs stream --shards 2 (in-process control)"
"$TGS" stream --shards 2 --corpus "$DIR/corpus.tsv" \
    --out "$DIR/stream.tsv" --checkpoint "$DIR/stream.ckpt"

echo "==> outputs must be byte-identical"
cmp "$DIR/serve.tsv" "$DIR/stream.tsv"
cmp "$DIR/serve.ckpt" "$DIR/stream.ckpt"

echo "==> query roundtrip on the fleet-assembled checkpoint"
"$TGS" query --checkpoint "$DIR/serve.ckpt" --shard-info >"$DIR/query.out"
"$TGS" query --checkpoint "$DIR/serve.ckpt" --timeline all >>"$DIR/query.out"
test -s "$DIR/query.out"

echo "==> --terminate must have stopped both servers"
for i in $(seq 1 100); do
    alive=0
    for pid in "${PIDS[@]}"; do
        if kill -0 "$pid" 2>/dev/null; then alive=1; fi
    done
    [[ "$alive" == 0 ]] && break
    if [[ "$i" == 100 ]]; then
        echo "shard servers still running after --terminate" >&2
        exit 1
    fi
    sleep 0.05
done
PIDS=()

echo "==> tgs serve --hold (the router answers over the wire after streaming)"
start_shard "$DIR/c.log"
start_shard "$DIR/d.log"
C=$(sed -n 's/^listening on //p' "$DIR/c.log" | head -1)
D=$(sed -n 's/^listening on //p' "$DIR/d.log" | head -1)
"$TGS" serve --shards "$C,$D" --corpus "$DIR/corpus.tsv" \
    --out "$DIR/hold.tsv" --hold 127.0.0.1:0 --terminate >"$DIR/hold.log" &
SERVE=$!
PIDS+=("$SERVE")
HOLD=""
for _ in $(seq 1 600); do
    HOLD=$(sed -n 's/^holding on //p' "$DIR/hold.log" | head -1)
    [[ -n "$HOLD" ]] && break
    if ! kill -0 "$SERVE" 2>/dev/null; then
        echo "tgs serve exited before holding" >&2
        exit 1
    fi
    sleep 0.05
done
if [[ -z "$HOLD" ]]; then
    echo "tgs serve --hold never announced its address" >&2
    exit 1
fi
echo "    holding on $HOLD"

echo "==> query --connect must match the checkpoint, then stats and terminate"
"$TGS" query --connect "$HOLD" --timeline all >"$DIR/held.out"
"$TGS" query --checkpoint "$DIR/serve.ckpt" --timeline all >"$DIR/ckpt.out"
test -s "$DIR/held.out"
cmp "$DIR/held.out" "$DIR/ckpt.out"
"$TGS" query --connect "$HOLD" --stats
"$TGS" query --connect "$HOLD" --terminate

echo "==> the held router and its shard servers must exit"
for i in $(seq 1 100); do
    alive=0
    for pid in "${PIDS[@]}"; do
        if kill -0 "$pid" 2>/dev/null; then alive=1; fi
    done
    [[ "$alive" == 0 ]] && break
    if [[ "$i" == 100 ]]; then
        echo "held router or shard servers still running after --terminate" >&2
        exit 1
    fi
    sleep 0.05
done
PIDS=()
wait "$SERVE"

echo "net smoke green."
