#!/usr/bin/env bash
# Base-vs-head benchmark gate on one machine.
#
#   tools/bench_gate.sh BASE_TREE HEAD_TREE OUT_DIR
#
# Builds wss_bench from each tree (each compiles its own src/), runs 10
# alternating pairs of 5 s runs of every workload BENCHMARK.json lists
# -- the side that goes first swaps every pair -- and prints
# `wss_bench compare` under HEAD_TREE's BENCHMARK.json bounds. Ten is
# the fewest pairs on which `compare` can call a metric `improved`
# (head wins at least 9 of 10); with fewer it can only say `regressed`
# or that the change is within the spread. A gate takes about 10 min
# on 4 vCPUs. Exits 1 if any row's verdict is `regressed` or any run
# fails its own checks (`compare` itself always exits 0). Against the
# parent commit:
#
#   git worktree add /tmp/wss-base HEAD~1
#   tools/bench_gate.sh /tmp/wss-base . /tmp/wss-gate
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE OUT_DIR" >&2
  exit 2
fi
base_tree=$1
head_tree=$2
out=$3
bounds="$head_tree/BENCHMARK.json"

mkdir -p "$out"
for side in base head; do
  tree=$base_tree
  [ "$side" = head ] && tree=$head_tree
  cmake -S "$tree/wss_bench" -B "$out/$side-build" > "$out/$side-build.log"
  cmake --build "$out/$side-build" --target wss_bench -j "$(nproc)" \
    >> "$out/$side-build.log"
done

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$bounds")
rm -f "$out/base.jsonl" "$out/head.jsonl"
for w in $workloads; do
  for ((i = 0; i < 10; i++)); do
    order="base head"
    ((i % 2)) && order="head base"
    for side in $order; do
      "$out/$side-build/wss_bench" --workload "$w" --seed 1 --runs 1 \
        --seconds 5 --out "$out/$side.jsonl" >> "$out/$side.log"
    done
  done
done

"$out/head-build/wss_bench" compare "$out/base.jsonl" "$out/head.jsonl" \
  --bounds "$bounds" | tee "$out/compare.txt"
if grep -qw regressed "$out/compare.txt"; then
  echo "bench gate: a metric regressed beyond its BENCHMARK.json bound" >&2
  exit 1
fi
