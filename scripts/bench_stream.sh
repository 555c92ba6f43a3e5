#!/usr/bin/env sh
# Drive the continuous-ingest store (bench/ext_stream: drifting-Zipf
# ingest + point reads with online split/merge repartitioning,
# docs/streaming.md) and record the results as BENCH_stream.json at the
# repo root. The document is a JSON object wrapping one fpart.obs.v1
# envelope per configuration:
#   drift_repartition_off/on  the headline A/B — Zipf theta 0.5 -> 1.2
#                             over the middle of the run, reads served
#                             throughout; `phase_post.scan_p99` is the
#                             gated comparison, `window_NN` rows are the
#                             time series (bench_to_csv.py --series)
#   drift_rotate_on           same drift plus a mid-run hot-set rotation
#   skew_overprovisioned      steady Zipf 1.2 into 2^7 initial buckets —
#                             the detector splits the hot range *and*
#                             merges cold buddies back down
#   live                      wall-clock arm (--deterministic 0): real
#                             threads racing ingest/reads/repartition,
#                             sustained tuples_per_sec + p99_us
# Flatten with scripts/bench_to_csv.py (it unpacks wrapper objects).
# Usage: scripts/bench_stream.sh [build_dir] [ops] [extra flags...]
# e.g. scripts/bench_stream.sh build 20000 --drain-engine fpga
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
ops=${2:-20000}
[ $# -gt 0 ] && shift
[ $# -gt 0 ] && shift

if [ ! -x "$build_dir/bench/ext_stream" ]; then
  echo "building ext_stream in $build_dir ..." >&2
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$build_dir" --target ext_stream -j >&2
fi

out="$repo_root/BENCH_stream.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The A/B pair differs only in --repartition; both replay the identical
# op stream (same seed), so the post-shift p99 gap is attributable to the
# split/merge machinery alone. Caller flags come last and win.
for r in off on; do
  "$build_dir/bench/ext_stream" --json --ops "$ops" --repartition "$r" \
    "$@" > "$tmp/drift_$r.json"
done
"$build_dir/bench/ext_stream" --json --ops "$ops" --repartition on \
  --rotate-every $((ops / 2)) "$@" > "$tmp/rotate.json"
"$build_dir/bench/ext_stream" --json --ops "$ops" --repartition on \
  --initial-depth 7 --theta0 1.2 --theta1 1.2 "$@" > "$tmp/overprov.json"
"$build_dir/bench/ext_stream" --json --ops "$ops" --repartition on \
  --deterministic 0 "$@" > "$tmp/live.json"

{
  printf '{\n"drift_repartition_off": '
  cat "$tmp/drift_off.json"
  printf ',\n"drift_repartition_on": '
  cat "$tmp/drift_on.json"
  printf ',\n"drift_rotate_on": '
  cat "$tmp/rotate.json"
  printf ',\n"skew_overprovisioned": '
  cat "$tmp/overprov.json"
  printf ',\n"live": '
  cat "$tmp/live.json"
  printf '}\n'
} > "$out.tmp"
mv "$out.tmp" "$out"
cat "$out"
