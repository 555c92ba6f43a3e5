// google-benchmark micro-benchmarks of the cycle-simulation kernel — the
// cost of simulating one FPGA clock cycle, which bounds how fast the
// circuit simulator can run large workloads.
//
// `--json [n]` switches to a whole-simulator throughput report instead:
// one RID/PAD partitioning run (default 10M tuples) under both execution
// engines, printed as a JSON object with host-side sim-cycles/s and the
// reference→fast speedup (see scripts/bench_sim.sh). It doubles as an
// equivalence gate: any difference in CycleStats, PartitionInfo or output
// bytes between the engines exits 1.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "fpga/hash_lane.h"
#include "fpga/partitioner.h"
#include "fpga/write_combiner.h"
#include "obs/report.h"
#include "sim/bram.h"
#include "sim/fifo.h"

namespace fpart {
namespace {

void BM_FifoPushPop(benchmark::State& state) {
  Fifo<uint64_t> fifo(64);
  uint64_t v = 0;
  for (auto _ : state) {
    fifo.Push(++v);
    benchmark::DoNotOptimize(fifo.Pop());
  }
}
BENCHMARK(BM_FifoPushPop);

void BM_BramCycle(benchmark::State& state) {
  Bram<uint64_t> bram(8192, 2);
  uint64_t addr = 0;
  for (auto _ : state) {
    bram.IssueRead(addr & 8191);
    bram.Write((addr + 7) & 8191, addr);
    bram.Tick();
    benchmark::DoNotOptimize(bram.read_ready());
    ++addr;
  }
}
BENCHMARK(BM_BramCycle);

void BM_HashLaneCycle(benchmark::State& state) {
  PartitionFn fn(HashMethod::kMurmur, 8192);
  Fifo<HashedTuple<Tuple8>> out(1 << 20);
  HashLane<Tuple8> lane(fn, 5, &out);
  uint32_t i = 0;
  for (auto _ : state) {
    lane.Tick(Tuple8{++i, i});
    if (out.size() > (1u << 19)) {
      state.PauseTiming();
      while (out.Pop()) {
      }
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_HashLaneCycle);

void BM_WriteCombinerCycle(benchmark::State& state) {
  WriteCombiner<Tuple8> comb(8192, 16, 8);
  Rng rng(5);
  uint32_t i = 0;
  for (auto _ : state) {
    if (!comb.input().full()) {
      comb.input().Push(
          HashedTuple<Tuple8>{rng.Next32() & 8191, Tuple8{++i, i}});
    }
    comb.Tick();
    while (comb.output().Pop()) {
    }
  }
}
BENCHMARK(BM_WriteCombinerCycle);

// One timed end-to-end simulator run; returns host wall seconds via *out.
int RunEngine(const std::vector<Tuple8>& tuples, SimMode mode,
              double* host_seconds, FpgaRunResult<Tuple8>* result) {
  FpgaPartitionerConfig config;
  config.fanout = 8192;
  config.output_mode = OutputMode::kPad;
  config.layout = LayoutMode::kRid;
  config.sim_mode = mode;
  FpgaPartitioner<Tuple8> partitioner(config);
  Timer timer;
  auto run = partitioner.Partition(tuples.data(), tuples.size());
  *host_seconds = timer.Seconds();
  if (!run.ok()) {
    std::fprintf(stderr, "%s run failed: %s\n", SimModeName(mode),
                 run.status().ToString().c_str());
    return 1;
  }
  *result = std::move(*run);
  return 0;
}

/// Equivalence gate: both engines must agree on every CycleStats field,
/// every PartitionInfo and every output byte. Prints each mismatch.
bool SameRun(const FpgaRunResult<Tuple8>& ref,
             const FpgaRunResult<Tuple8>& fast) {
  bool same = true;
  auto check = [&](const char* what, uint64_t a, uint64_t b) {
    if (a == b) return;
    std::fprintf(stderr, "%s mismatch: reference=%llu fast=%llu\n", what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    same = false;
  };
  const CycleStats& a = ref.stats;
  const CycleStats& b = fast.stats;
  check("cycles", a.cycles, b.cycles);
  check("input_lines", a.input_lines, b.input_lines);
  check("output_lines", a.output_lines, b.output_lines);
  check("read_lines", a.read_lines, b.read_lines);
  check("backpressure_cycles", a.backpressure_cycles, b.backpressure_cycles);
  check("read_stall_cycles", a.read_stall_cycles, b.read_stall_cycles);
  check("write_stall_cycles", a.write_stall_cycles, b.write_stall_cycles);
  check("internal_stall_cycles", a.internal_stall_cycles,
        b.internal_stall_cycles);
  check("dummy_tuples", a.dummy_tuples, b.dummy_tuples);
  check("histogram_cycles", a.histogram_cycles, b.histogram_cycles);
  check("flush_cycles", a.flush_cycles, b.flush_cycles);
  check("partitions", ref.output.num_partitions(),
        fast.output.num_partitions());
  check("total_cls", ref.output.total_cls(), fast.output.total_cls());
  if (!same) return false;
  for (size_t p = 0; p < ref.output.num_partitions(); ++p) {
    const PartitionInfo& x = ref.output.part(p);
    const PartitionInfo& y = fast.output.part(p);
    if (x.base_cl != y.base_cl || x.capacity_cls != y.capacity_cls ||
        x.written_cls != y.written_cls || x.num_tuples != y.num_tuples) {
      std::fprintf(stderr, "partition %zu info mismatch\n", p);
      same = false;
    }
  }
  if (std::memcmp(ref.output.line(0), fast.output.line(0),
                  ref.output.total_cls() * kCacheLineSize) != 0) {
    std::fprintf(stderr, "output bytes mismatch\n");
    same = false;
  }
  return same;
}

int JsonMain(size_t n) {
  std::vector<Tuple8> tuples(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    tuples[i] = Tuple8{rng.Next32() & 0x7fffffffu, static_cast<uint32_t>(i)};
  }

  // Interleaved best-of-3: each engine's reported time is its fastest of
  // three runs, which filters scheduler noise without favouring either
  // engine (both see the same machine conditions).
  constexpr int kRuns = 3;
  double ref_host = 0, fast_host = 0;
  FpgaRunResult<Tuple8> ref, fast;
  for (int r = 0; r < kRuns; ++r) {
    double rh = 0, fh = 0;
    if (RunEngine(tuples, SimMode::kReference, &rh, &ref) != 0) return 1;
    if (RunEngine(tuples, SimMode::kFast, &fh, &fast) != 0) return 1;
    if (r == 0 || rh < ref_host) ref_host = rh;
    if (r == 0 || fh < fast_host) fast_host = fh;
  }

  if (!SameRun(ref, fast)) return 1;

  auto cycles_per_sec = [](uint64_t cycles, double seconds) {
    return seconds > 0 ? cycles / seconds : 0.0;
  };
  obs::BenchReport report("micro_sim");
  report.ConfigUInt("n_tuples", n);
  report.ConfigUInt("fanout", 8192);
  report.ConfigStr("output_mode", "pad");
  report.ConfigStr("layout", "rid");
  report.ConfigStr("tuple", "Tuple8");
  report.Result("simulated",
                {{"cycles", static_cast<double>(fast.stats.cycles)},
                 {"seconds", fast.seconds},
                 {"mtuples_per_sec", fast.mtuples_per_sec}});
  report.Result("reference_engine",
                {{"host_seconds", ref_host},
                 {"sim_cycles_per_sec",
                  cycles_per_sec(ref.stats.cycles, ref_host)}});
  report.Result("fast_engine",
                {{"host_seconds", fast_host},
                 {"sim_cycles_per_sec",
                  cycles_per_sec(fast.stats.cycles, fast_host)}});
  report.ResultDouble("speedup",
                      fast_host > 0 ? ref_host / fast_host : 0.0);
  report.Print();
  return 0;
}

}  // namespace
}  // namespace fpart

int main(int argc, char** argv) {
  fpart::obs::TraceSession trace(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      size_t n = 10'000'000;
      if (i + 1 < argc) n = std::strtoull(argv[i + 1], nullptr, 10);
      if (n == 0) n = 10'000'000;
      return fpart::JsonMain(n);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
