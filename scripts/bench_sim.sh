#!/usr/bin/env sh
# Measure host-side simulator throughput (reference vs fast execution
# engine) on a 10M-tuple RID/PAD run and record it as BENCH_sim.json at
# the repo root. The document follows the fpart.obs.v1 schema (docs/observability.md);
# flatten with scripts/bench_to_csv.py.
# Usage: scripts/bench_sim.sh [build_dir] [n_tuples]
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
n_tuples=${2:-10000000}

if [ ! -x "$build_dir/bench/micro_sim" ]; then
  echo "building micro_sim in $build_dir ..." >&2
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$build_dir" --target micro_sim -j >&2
fi

out="$repo_root/BENCH_sim.json"
"$build_dir/bench/micro_sim" --json "$n_tuples" > "$out.tmp"
mv "$out.tmp" "$out"
cat "$out"
