#!/usr/bin/env bash
# Checks the small-scale paper tables against their pinned rows.
#
# Usage:
#   ./scripts/paper_tables.sh [DIR]     # DIR defaults to target/experiments-smoke
#
# DIR holds the TSVs that `run_all`, `ablations` and `obs2_correlation`
# write at the default (small) scale:
#
#   for b in run_all ablations obs2_correlation; do
#       TGS_OUTPUT_DIR=target/experiments-smoke ./target/release/$b > /dev/null
#   done
#
# Every TSV there must equal its pin in crates/bench/expected/small/, byte
# for byte, and every pin must have its TSV. The one exception is the
# solve-time columns 3–5 of fig11_online_prop30.tsv and
# fig12_online_prop37.tsv: they are cut before comparing and are not
# pinned. A mismatch prints the changed rows as a unified diff (`-` is the
# pin, `+` the new run) and fails. The pins hold at every TGS_THREADS
# value, since every kernel is bit-identical across thread counts.
#
# A change that means to move the clusters (ROADMAP items 2–4) re-pins in
# its own commit and gives the reason in CHANGES.md, as
# tests/codec_golden.rs does for the checkpoint digests. To re-pin, copy
# DIR's TSVs over the pins, then cut columns 3–5 out of the two online
# figures with `cut -f1,2,6-`.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s nullglob

out="${1:-target/experiments-smoke}"
pins=crates/bench/expected/small

# The rows a table is compared on.
rows() {
    case "$(basename "$1")" in
        fig11_online_prop30.tsv | fig12_online_prop37.tsv) cut -f1,2,6- "$1" ;;
        *) cat "$1" ;;
    esac
}

status=0
for pin in "$pins"/*.tsv; do
    name=$(basename "$pin")
    if [[ ! -f "$out/$name" ]]; then
        echo "paper tables: $out/$name is missing" >&2
        status=1
    elif ! diff -u --label "pinned $name" --label "written $name" "$pin" <(rows "$out/$name"); then
        status=1
    fi
done
for table in "$out"/*.tsv; do
    if [[ ! -f "$pins/$(basename "$table")" ]]; then
        echo "paper tables: $table has no pin in $pins" >&2
        status=1
    fi
done
if ((status)); then
    echo "paper tables: the rows above differ from their pins" >&2
    exit 1
fi
echo "paper tables: $(ls "$pins"/*.tsv | wc -l) tables match their pins"
