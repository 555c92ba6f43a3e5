#!/usr/bin/env sh
# Replay a closed-loop Zipf-keyed job stream through the sharded cluster
# layer (bench/ext_cluster: N federated service nodes behind one shard
# map, docs/distributed.md) and record the results as BENCH_cluster.json
# at the repo root. The document is a JSON object wrapping one
# fpart.obs.v1 envelope per configuration:
#   n1 / n2 / n4              node-count sweep at a saturating arrival
#                             rate (uniform-ish keys, migration off)
#   n4_skew_migration_off/on  4 nodes under a hot-key workload
#                             (--zipf 1.2), without and with hot-bucket
#                             migration — the tail-latency comparison
# Flatten with scripts/bench_to_csv.py (it unpacks wrapper objects).
# Usage: scripts/bench_cluster.sh [build_dir] [jobs] [extra flags...]
# e.g. scripts/bench_cluster.sh build 4000 --sim_cache 1
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
jobs=${2:-4000}
[ $# -gt 0 ] && shift
[ $# -gt 0 ] && shift

if [ ! -x "$build_dir/bench/ext_cluster" ]; then
  echo "building ext_cluster in $build_dir ..." >&2
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$build_dir" --target ext_cluster -j >&2
fi

out="$repo_root/BENCH_cluster.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Saturating rate: arrivals far faster than one node can drain, so the
# virtual makespan measures capacity, not the arrival span. Caller flags
# come last and win.
for n in 1 2 4; do
  "$build_dir/bench/ext_cluster" --json --jobs "$jobs" --nodes "$n" \
    --rate 500000 "$@" > "$tmp/n$n.json"
done
for mig in off on; do
  "$build_dir/bench/ext_cluster" --json --jobs "$jobs" --nodes 4 \
    --rate 500000 --zipf 1.2 --migration "$mig" --rebalance-every 200 \
    "$@" > "$tmp/mig_$mig.json"
done

{
  printf '{\n"n1": '
  cat "$tmp/n1.json"
  printf ',\n"n2": '
  cat "$tmp/n2.json"
  printf ',\n"n4": '
  cat "$tmp/n4.json"
  printf ',\n"n4_skew_migration_off": '
  cat "$tmp/mig_off.json"
  printf ',\n"n4_skew_migration_on": '
  cat "$tmp/mig_on.json"
  printf '}\n'
} > "$out.tmp"
mv "$out.tmp" "$out"
cat "$out"
