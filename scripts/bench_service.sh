#!/usr/bin/env sh
# Replay a closed-loop multi-tenant job stream through the svc scheduler
# (bench/ext_service: Poisson arrivals, Zipf job sizes, adaptive CPU/FPGA
# placement) and record the results as BENCH_service.json at the repo
# root. The document is a JSON object wrapping one fpart.obs.v1 envelope
# per configuration (docs/observability.md):
#   base                  the historical default run ([jobs] [clients]
#                         [devices] and any extra flags)
#   sat_r<rate>_q<queue>  100k-job saturation sweep with memoized
#                         (warmed sim cache) device runs: offered
#                         load (virtual arrivals/s) x admission bound.
#                         The shed/completed split and the per-class p99s
#                         show where admission control starts paying.
#   adm_r<rate>_q8192     the same offered loads with SLO-aware admission
#                         control on (--admission 1 --slo 0.5,2,8): the
#                         "admission" result row records the
#                         considered/admitted/rejected split, and
#                         missed_after_admit must be 0 — the controller's
#                         deterministic predictions are exact, so an
#                         admitted job never finishes past its budget.
#                         Compare against sat_r<rate>_q8192 (admission
#                         off) for the attainment-vs-throughput trade.
# Flatten with scripts/bench_to_csv.py (it unpacks wrapper objects).
# Usage: scripts/bench_service.sh [build_dir] [jobs] [clients] [devices]
#                                 [extra ext_service flags...]
# e.g. scripts/bench_service.sh build 10000 8 2 \
#        --sim_cache 1 --sim_cache_warmup 1
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
jobs=${2:-10000}
clients=${3:-8}
devices=${4:-1}
[ $# -gt 0 ] && shift; [ $# -gt 0 ] && shift
[ $# -gt 0 ] && shift; [ $# -gt 0 ] && shift

if [ ! -x "$build_dir/bench/ext_service" ]; then
  echo "building ext_service in $build_dir ..." >&2
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$build_dir" --target ext_service -j >&2
fi

out="$repo_root/BENCH_service.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$build_dir/bench/ext_service" --json --jobs "$jobs" --clients "$clients" \
  --fpga_devices "$devices" "$@" > "$tmp/base.json"

# Saturation sweep: 100k jobs per cell is cheap with the sim cache warmed
# — the device runs memoize per job shape.
sat_jobs=100000
sweep_keys=""
for rate in 4000 16000 64000; do
  for queue in 256 8192; do
    "$build_dir/bench/ext_service" --json --jobs "$sat_jobs" \
      --clients "$clients" --fpga_devices 2 \
      --sim_cache 1 --sim_cache_warmup 1 \
      --rate "$rate" --queue "$queue" "$@" \
      > "$tmp/sat_r${rate}_q${queue}.json"
    sweep_keys="$sweep_keys sat_r${rate}_q${queue}"
  done
done

# Admission A/B at the same offered loads: wide queue so capacity shedding
# stays out of the picture and the SLO controller is the only gate.
for rate in 4000 16000 64000; do
  "$build_dir/bench/ext_service" --json --jobs "$sat_jobs" \
    --clients "$clients" --fpga_devices 2 \
    --sim_cache 1 --sim_cache_warmup 1 \
    --rate "$rate" --queue 8192 \
    --admission 1 --slo 0.5,2,8 "$@" \
    > "$tmp/adm_r${rate}_q8192.json"
  sweep_keys="$sweep_keys adm_r${rate}_q8192"
done

{
  printf '{\n"base": '
  cat "$tmp/base.json"
  for key in $sweep_keys; do
    printf ',\n"%s": ' "$key"
    cat "$tmp/$key.json"
  done
  printf '}\n'
} > "$out.tmp"
mv "$out.tmp" "$out"
cat "$out"
