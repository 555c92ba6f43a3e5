#!/usr/bin/env sh
# Full correctness gate for the CPU fast paths: builds and runs the test
# suite under the default (baseline-ISA) flags, under ASan+UBSan, and with
# -march=native, and repeats the suite with FPART_SIMD forcing each
# dispatch fallback tier — so the scalar, AVX2 and (where present) AVX-512
# paths are all exercised regardless of the build host.
#
# The tsan suite builds with ThreadSanitizer and runs the concurrency-
# heavy binaries (svc_test (plus 100 repeats of its live worker-set test
# on one CPU), svc_property_test, svc_admission_test,
# cluster_test, stream_test, common_test (plus 400 repeats of its
# ThreadPool exception tests on one CPU), obs_test, sim_fastpath_test's
# concurrent sim-cache races, datagen_test's copy-on-write output races,
# plus ext_service, ext_cluster and ext_stream smoke replays) directly — the full ctest matrix is too slow under TSan
# to be a useful gate.
#
# Each run_suite pass also re-runs the `svc_admission` ctest label on its
# own: the label groups the SLO-admission and property tests, and the
# dedicated pass keeps "did admission regress?" answerable from the log
# without digging through the full matrix.
#
# Usage: scripts/check.sh [jobs] [suite...]
#   suite: any of default, asan, tsan, native (default/asan/native when
#   omitted; tsan is opt-in locally, always on in CI).
#   CI runs one suite per matrix job: scripts/check.sh "" default
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
jobs=${1:-}
[ -n "$jobs" ] || jobs=$(nproc 2>/dev/null || echo 4)
[ $# -gt 0 ] && shift
suites=${*:-"default asan native"}

run_suite() {
  build_dir=$1
  shift
  echo "=== configure $build_dir ($*) ===" >&2
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
    -DFPART_BUILD_BENCHMARKS=OFF -DFPART_BUILD_EXAMPLES=OFF "$@" >&2
  cmake --build "$build_dir" -j "$jobs" >&2
  for level in default scalar avx2; do
    echo "=== ctest $build_dir [FPART_SIMD=$level] ===" >&2
    if [ "$level" = default ]; then
      (cd "$build_dir" && ctest --output-on-failure -j "$jobs")
    else
      (cd "$build_dir" && FPART_SIMD=$level ctest --output-on-failure \
        -j "$jobs")
    fi
  done
  echo "=== ctest $build_dir [-L svc_admission] ===" >&2
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" -L svc_admission)
}

run_tsan_suite() {
  build_dir=$1
  echo "=== configure $build_dir (-DFPART_SANITIZE_THREAD=ON) ===" >&2
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFPART_SANITIZE_THREAD=ON -DFPART_BUILD_BENCHMARKS=ON \
    -DFPART_BUILD_EXAMPLES=OFF >&2
  cmake --build "$build_dir" -j "$jobs" \
    --target svc_test svc_property_test svc_admission_test cluster_test \
    stream_test common_test obs_test sim_fastpath_test datagen_test \
    ext_service ext_cluster ext_stream >&2
  for bin in svc_test svc_property_test svc_admission_test cluster_test \
             stream_test common_test obs_test; do
    echo "=== tsan $bin ===" >&2
    FPART_SCALE=0.0625 "$build_dir/tests/$bin"
  done
  # On one CPU the worker and the rethrowing caller interleave closely
  # enough that an unordered exception_ptr release shows up within 400
  # repeats; on several CPUs it rarely does.
  echo "=== tsan thread-pool exception hand-off (repeated) ===" >&2
  one_cpu=""
  command -v taskset > /dev/null 2>&1 && one_cpu="taskset -c 0"
  $one_cpu "$build_dir/tests/common_test" \
    --gtest_filter='ThreadPoolTest.*Exception*' --gtest_repeat=400
  # Each placed job wakes one idle worker; a lost wakeup strands a job at
  # the test's barrier until its timeout fails the run.
  echo "=== tsan live worker set (repeated) ===" >&2
  $one_cpu "$build_dir/tests/svc_test" \
    --gtest_filter='SchedulerTest.LiveModeRunsNumWorkersJobsAtOnce' \
    --gtest_repeat=100
  echo "=== tsan sim-cache concurrency ===" >&2
  "$build_dir/tests/sim_fastpath_test" \
    --gtest_filter='SimAnalyticalTest.*'
  echo "=== tsan copy-on-write outputs ===" >&2
  "$build_dir/tests/datagen_test" --gtest_filter='PartitionedOutputTest.*'
  echo "=== tsan ext_service smoke (2-device pool) ===" >&2
  FPART_SCALE=0.0625 "$build_dir/bench/ext_service" --json \
    --jobs 1500 --clients 8 --workers 4 --fpga_devices 2 > /dev/null
  echo "=== tsan ext_service pinned-workers + warmup smoke ===" >&2
  FPART_SCALE=0.0625 FPART_AFFINITY=compact \
    "$build_dir/bench/ext_service" --json \
    --jobs 1500 --clients 8 --workers 4 --fpga_devices 2 \
    --sim_cache 1 --sim_cache_warmup 1 > /dev/null
  echo "=== tsan ext_service admission smoke ===" >&2
  FPART_SCALE=0.0625 "$build_dir/bench/ext_service" --json \
    --jobs 1500 --clients 8 --workers 4 --fpga_devices 2 \
    --admission 1 --slo 0.5,2,8 > /dev/null
  echo "=== tsan ext_cluster smoke (4 nodes, migration on) ===" >&2
  FPART_SCALE=0.0625 "$build_dir/bench/ext_cluster" --json \
    --jobs 1000 --clients 4 --nodes 4 --zipf 1.2 \
    --migration on --rebalance-every 200 > /dev/null
  echo "=== tsan ext_cluster live-mode smoke ===" >&2
  FPART_SCALE=0.0625 "$build_dir/bench/ext_cluster" --json \
    --jobs 600 --clients 4 --nodes 2 --deterministic 0 \
    --rate 20000 > /dev/null
  echo "=== tsan ext_stream deterministic smoke (sequenced replay) ===" >&2
  FPART_SCALE=0.0625 "$build_dir/bench/ext_stream" --json \
    --ops 1500 --clients 4 --workers 2 > /dev/null
  echo "=== tsan ext_stream live-mode smoke (raced repartition) ===" >&2
  FPART_SCALE=0.0625 "$build_dir/bench/ext_stream" --json \
    --ops 1500 --clients 4 --workers 2 --deterministic 0 > /dev/null
}

for suite in $suites; do
  case "$suite" in
    default) run_suite "$repo_root/build-check" ;;
    asan)    run_suite "$repo_root/build-check-asan" -DFPART_SANITIZE=ON ;;
    tsan)    run_tsan_suite "$repo_root/build-check-tsan" ;;
    native)  run_suite "$repo_root/build-check-native" -DFPART_MARCH_NATIVE=ON ;;
    *) echo "unknown suite '$suite' (default|asan|tsan|native)" >&2; exit 2 ;;
  esac
done

echo "check.sh: suites passed: $suites"
