#!/usr/bin/env bash
# Write every bench oracle of one checkout into one flat directory:
#
#   - the `bin/all --quick` JSON documents (table4.json, ..., serve.json);
#   - table4-full.json, Table 4 over all six of its models: the quick set
#     never reaches an LC-OPG fallback tier, while Llama2-70B takes the
#     soft-threshold retry and the greedy backup 161 times;
#   - bench-<name>.json and bench-<name>.trace.json (the `--trace-out`
#     Chrome trace) of the serve, fleet_scale, overload, decode and chaos
#     `--quick` runs. The `bench-` prefix keeps them apart from bin/all's
#     own serve.json;
#   - bench-decode-full.json and its trace, the decode bench without
#     `--quick`: the only bench run whose decode batches mix two models
#     (GPTN-S and Whisper-M on four phones; ~0.3 s in release).
#
# Every run uses a pool of THREADS workers. Comparing a change with its
# parent is then two snapshots and one diff:
#
#   (cd parent && scripts/oracle-snapshot.sh /tmp/parent-1 1)
#   (cd change && scripts/oracle-snapshot.sh /tmp/change-1 1)
#   scripts/diff-bench-json.sh /tmp/parent-1 /tmp/change-1
#
# diff-bench-json.sh strips the wall-clock fields from the JSON and
# requires the traces to be byte-identical.
#
# Run it from the root of a checkout. It builds `flashmem-bench` in release
# mode first (honouring CARGO_TARGET_DIR).
#
# Usage: scripts/oracle-snapshot.sh OUT_DIR THREADS
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 OUT_DIR THREADS" >&2
    exit 2
fi

out="$1"
threads="$2"
mkdir -p "$out"

cargo build --release --offline -q -p flashmem-bench

bench() {
    cargo run --release --offline -q -p flashmem-bench --bin "$1" -- "${@:2}" \
        --quick --threads "$threads" >/dev/null
}

bench all --json-dir "$out"
cargo run --release --offline -q -p flashmem-bench --bin table4 -- \
    --json "$out/table4-full.json" --threads "$threads" >/dev/null
for name in serve fleet_scale overload decode chaos; do
    bench "$name" --json "$out/bench-$name.json" --trace-out "$out/bench-$name.trace.json"
done
cargo run --release --offline -q -p flashmem-bench --bin decode -- \
    --json "$out/bench-decode-full.json" --trace-out "$out/bench-decode-full.trace.json" \
    --threads "$threads" >/dev/null

echo "oracle-snapshot: $(ls "$out"/*.json | wc -l) JSON documents in $out (threads $threads)"
