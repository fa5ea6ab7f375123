#!/usr/bin/env bash
# Prints one sorted line per google-benchmark run of the virtual-time
# experiments (E1-E11, EXPERIMENTS.md) and the ablations:
#
#   <binary> <run name> <counter>=<value> ...
#
# Every counter a run reports is printed in full precision except the
# wall-clock fields (real_time, cpu_time, iterations, items_per_second).
# What is left is virtual time and kernel counts, so two runs print the
# same list. tools/explist.golden holds the list the committed code
# prints; CI's release job diffs a fresh list against it, as it does the
# trace-hash list. A change that moves a line updates the golden file and
# says why in CHANGES.md.
#
#   tools/explist.sh build/bench > explist.txt
#   diff -u tools/explist.golden explist.txt
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <bench-dir>" >&2
  exit 2
fi
dir=$1
out=$(mktemp)
trap 'rm -f "$out"' EXIT

for b in bench_rpc_vs_stream bench_batching bench_overlap bench_grades \
  bench_pipeline bench_typed_vs_future bench_send_receive bench_fork_tree \
  bench_breaks bench_per_item bench_flush_synch bench_ablation; do
  "$dir/$b" --benchmark_out="$out" --benchmark_out_format=json \
    >/dev/null 2>&1
  python3 - "$b" "$out" <<'PY'
import json, sys
skip = {"name", "family_index", "per_family_instance_index", "run_name",
        "run_type", "repetitions", "repetition_index", "threads",
        "iterations", "real_time", "cpu_time", "time_unit",
        "items_per_second"}
with open(sys.argv[2]) as f:
    runs = json.load(f)["benchmarks"]
for r in runs:
    kv = " ".join(f"{k}={v!r}" for k, v in sorted(r.items()) if k not in skip)
    print(f"{sys.argv[1]} {r['name']} {kv}")
PY
done | LC_ALL=C sort
