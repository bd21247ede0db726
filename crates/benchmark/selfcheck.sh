#!/usr/bin/env bash
# The one command a reviewer runs: build, measure every workload in two
# alternating run sets (same code, same seed), trace once, and apply the
# benchmark's own bounds to the two sets. `compare` must report no
# `regressed` and no `unresolved` row; cr and every count repeat exactly.
#
#   crates/benchmark/selfcheck.sh            # 3 runs per set, about 15 min
#   RUNS=1 crates/benchmark/selfcheck.sh     # quick look, about 7 min
#
# Everything lands in target/benchmark/, which git ignores.
set -euo pipefail
cd "$(dirname "$0")/../.."

RUNS="${RUNS:-3}"
SEED="${SEED:-42}"
OUT=target/benchmark

cargo build --release --offline -p amrviz-benchmark
BIN="${CARGO_TARGET_DIR:-target}/release/benchmark"

mkdir -p "$OUT"
rm -f "$OUT"/a.jsonl "$OUT"/b.jsonl "$OUT"/a_traced.jsonl
for _ in $(seq "$RUNS"); do
    "$BIN" run --workload all --seed "$SEED" --out "$OUT" --label a
    "$BIN" run --workload all --seed "$SEED" --out "$OUT" --label b
done
"$BIN" run --workload all --seed "$SEED" --trace 1 --out "$OUT" --label a

"$BIN" compare "$OUT/a.jsonl" "$OUT/b.jsonl"
