// Extension (Section 7 context, Schuh et al. [31]): partitioned radix hash
// join vs non-partitioned hash join vs sort-merge join on workload A, plus
// the hybrid join.
//
// `--json` prints the same comparison as a machine-readable object
// (consumed by scripts/bench_cpu.sh), adding a scalar-path CPU radix join
// (use_simd off) so the fused SIMD speedup is visible end to end.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "common/cpu_features.h"
#include "core/fpart.h"
#include "obs/report.h"

namespace fpart {
namespace {

int Run() {
  bench::Banner("ext_join_algorithms", "Section 7 / [31] comparison context");
  const double scale = BenchScale() / 8.0;
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, scale), 7);
  if (!input.ok()) return 1;
  const size_t threads = BenchMaxThreads();
  std::printf("workload A, |R| = |S| = %zu, %zu threads\n\n",
              input->r.size(), threads);
  std::printf("%-26s | %9s %9s %9s | %10s\n", "algorithm", "phase1",
              "phase2", "total", "Mtuples/s");

  auto report = [&](const char* name, const Result<JoinResult>& r) {
    if (!r.ok()) {
      std::printf("%-26s | %s\n", name, r.status().ToString().c_str());
      return;
    }
    std::printf("%-26s | %9.3f %9.3f %9.3f | %10.0f\n", name,
                r->partition_seconds, r->build_probe_seconds,
                r->total_seconds, r->mtuples_per_sec);
    if (r->matches != input->s.size()) std::printf("   !! wrong matches\n");
  };

  ThreadPool pool(threads);

  CpuJoinConfig cpu;
  cpu.fanout = 8192;
  cpu.num_threads = threads;
  cpu.pool = &pool;
  report("CPU radix join", CpuRadixJoin(cpu, input->r, input->s));

  HybridJoinConfig hybrid;
  hybrid.fpga.fanout = 8192;
  hybrid.num_threads = threads;
  hybrid.pool = &pool;
  report("hybrid CPU+FPGA join", HybridJoin(hybrid, input->r, input->s));

  report("non-partitioned hash join",
         NoPartitionJoin(threads, input->r, input->s, &pool));
  report("sort-merge join", SortMergeJoin(threads, input->r, input->s, &pool));

  std::printf(
      "\nExpected shape ([31], Section 3.3): the partitioned radix join "
      "wins on large\nunskewed relations; the non-partitioned join pays a "
      "cache/TLB miss per probe;\nsort-based joins trail hash-based "
      "ones.\n");
  return 0;
}

int JsonMain() {
  const double scale = BenchScale() / 8.0;
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, scale), 7);
  if (!input.ok()) {
    std::fprintf(stderr, "datagen failed\n");
    return 1;
  }
  const size_t threads = BenchMaxThreads();
  ThreadPool pool(threads);

  CpuJoinConfig cpu;
  cpu.fanout = 8192;
  cpu.num_threads = threads;
  cpu.pool = &pool;

  // Interleaved best-of-3 per algorithm.
  constexpr int kRuns = 3;
  double radix_scalar = 0, radix_fused = 0, np = 0;
  uint64_t expected = input->s.size();
  bool ok = true;
  for (int r = 0; r < kRuns; ++r) {
    cpu.use_simd = false;
    auto a = CpuRadixJoin(cpu, input->r, input->s);
    cpu.use_simd = true;
    auto b = CpuRadixJoin(cpu, input->r, input->s);
    auto c = NoPartitionJoin(threads, input->r, input->s, &pool);
    if (!a.ok() || !b.ok() || !c.ok() || a->matches != expected ||
        b->matches != expected || c->matches != expected) {
      ok = false;
      break;
    }
    if (r == 0 || a->total_seconds < radix_scalar)
      radix_scalar = a->total_seconds;
    if (r == 0 || b->total_seconds < radix_fused)
      radix_fused = b->total_seconds;
    if (r == 0 || c->total_seconds < np) np = c->total_seconds;
  }
  if (!ok) {
    std::fprintf(stderr, "a join run failed or lost matches\n");
    return 1;
  }

  const double total = static_cast<double>(input->r.size() + input->s.size());
  auto mtps = [total](double s) { return s > 0 ? total / s / 1e6 : 0.0; };
  obs::BenchReport report("ext_join_algorithms");
  report.ConfigStr("workload", "A");
  report.ConfigUInt("n_tuples", static_cast<uint64_t>(total));
  report.ConfigUInt("fanout", 8192);
  report.ConfigUInt("num_threads", threads);
  report.ConfigStr("simd_level", SimdLevelName(ActiveSimdLevel()));
  report.Result("radix_join_scalar", {{"seconds", radix_scalar},
                                      {"mtuples_per_sec", mtps(radix_scalar)}});
  report.Result("radix_join_fused_simd",
                {{"seconds", radix_fused},
                 {"mtuples_per_sec", mtps(radix_fused)}});
  report.Result("no_partition_join",
                {{"seconds", np}, {"mtuples_per_sec", mtps(np)}});
  report.ResultDouble("speedup",
                      radix_fused > 0 ? radix_scalar / radix_fused : 0.0);
  report.Print();
  return 0;
}

}  // namespace
}  // namespace fpart

int main(int argc, char** argv) {
  fpart::obs::TraceSession trace(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return fpart::JsonMain();
  }
  return fpart::Run();
}
