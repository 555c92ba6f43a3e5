// fpart_cli: command-line driver for the library — partition, join, or
// query the analytical model without writing any code.
//
//   fpart_cli partition --engine=fpga --mode=hist --hash=murmur \
//             --fanout=8192 --n=8000000 --dist=random
//   fpart_cli join --workload=A --scale=0.01 --threads=4 --zipf=0.75
//   fpart_cli model --n=128000000 --width=8
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/fpart.h"

namespace {

using namespace fpart;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const char* name, const char* def) {
  auto it = flags.find(name);
  return it == flags.end() ? def : it->second;
}

HashMethod ParseHash(const std::string& s) {
  if (s == "radix") return HashMethod::kRadix;
  if (s == "multiplicative") return HashMethod::kMultiplicative;
  if (s == "crc32") return HashMethod::kCrc32;
  return HashMethod::kMurmur;
}

KeyDistribution ParseDist(const std::string& s) {
  if (s == "linear") return KeyDistribution::kLinear;
  if (s == "grid") return KeyDistribution::kGrid;
  if (s == "rev-grid") return KeyDistribution::kReverseGrid;
  return KeyDistribution::kRandom;
}

int CmdPartition(const std::map<std::string, std::string>& flags) {
  const size_t n = std::strtoull(Flag(flags, "n", "8000000").c_str(),
                                 nullptr, 10);
  PartitionRequest request;
  request.engine =
      Flag(flags, "engine", "fpga") == "cpu" ? Engine::kCpu : Engine::kFpgaSim;
  request.fanout = static_cast<uint32_t>(
      std::strtoul(Flag(flags, "fanout", "8192").c_str(), nullptr, 10));
  request.hash = ParseHash(Flag(flags, "hash", "murmur"));
  request.output_mode =
      Flag(flags, "mode", "pad") == "hist" ? OutputMode::kHist
                                           : OutputMode::kPad;
  request.link = Flag(flags, "link", "qpi") == "raw" ? LinkKind::kRawWrapper
                                                     : LinkKind::kXeonFpga;
  request.num_threads =
      std::strtoull(Flag(flags, "threads", "1").c_str(), nullptr, 10);

  auto rel = GenerateUniqueRelation(n, ParseDist(Flag(flags, "dist",
                                                      "random")));
  if (!rel.ok()) {
    std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
    return 1;
  }
  auto report = RunPartition(request, *rel);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("engine=%s n=%zu fanout=%u: %.3f ms, %.0f Mtuples/s\n",
              EngineName(request.engine), n, request.fanout,
              report->seconds * 1e3, report->mtuples_per_sec);
  if (request.engine == Engine::kFpgaSim) {
    std::printf("cycles=%llu read_lines=%llu output_lines=%llu "
                "backpressure=%llu dummies=%llu stalls=%llu\n",
                static_cast<unsigned long long>(report->stats.cycles),
                static_cast<unsigned long long>(report->stats.read_lines),
                static_cast<unsigned long long>(report->stats.output_lines),
                static_cast<unsigned long long>(
                    report->stats.backpressure_cycles),
                static_cast<unsigned long long>(report->stats.dummy_tuples),
                static_cast<unsigned long long>(
                    report->stats.internal_stall_cycles));
  }
  return 0;
}

int CmdJoin(const std::map<std::string, std::string>& flags) {
  const std::string w = Flag(flags, "workload", "A");
  WorkloadId id = WorkloadId::kA;
  if (w == "B") id = WorkloadId::kB;
  if (w == "C") id = WorkloadId::kC;
  if (w == "D") id = WorkloadId::kD;
  if (w == "E") id = WorkloadId::kE;
  WorkloadSpec spec = GetWorkloadSpec(
      id, std::strtod(Flag(flags, "scale", "0.01").c_str(), nullptr));
  spec.zipf = std::strtod(Flag(flags, "zipf", "0").c_str(), nullptr);
  auto input = GenerateWorkload(spec);
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }
  const size_t threads =
      std::strtoull(Flag(flags, "threads", "1").c_str(), nullptr, 10);
  const uint32_t fanout = static_cast<uint32_t>(
      std::strtoul(Flag(flags, "fanout", "8192").c_str(), nullptr, 10));

  CpuJoinConfig cpu;
  cpu.fanout = fanout;
  cpu.num_threads = threads;
  cpu.hash = ParseHash(Flag(flags, "hash", "radix"));
  auto cpu_result = CpuRadixJoin(cpu, input->r, input->s);

  HybridJoinConfig hybrid;
  hybrid.fpga.fanout = fanout;
  hybrid.fpga.hash = HashMethod::kMurmur;
  hybrid.num_threads = threads;
  bool fell_back = false;
  auto hybrid_result =
      HybridJoinWithFallback(hybrid, input->r, input->s, &fell_back);

  std::printf("workload %s |R|=%zu |S|=%zu zipf=%.2f threads=%zu\n",
              spec.name, input->r.size(), input->s.size(), spec.zipf,
              threads);
  if (cpu_result.ok()) {
    std::printf("cpu    : %.3fs part + %.3fs b+p = %.3fs (%llu matches)\n",
                cpu_result->partition_seconds,
                cpu_result->build_probe_seconds, cpu_result->total_seconds,
                static_cast<unsigned long long>(cpu_result->matches));
  }
  if (hybrid_result.ok()) {
    std::printf("hybrid : %.3fs part + %.3fs b+p = %.3fs (%llu matches)%s\n",
                hybrid_result->partition_seconds,
                hybrid_result->build_probe_seconds,
                hybrid_result->total_seconds,
                static_cast<unsigned long long>(hybrid_result->matches),
                fell_back ? " [PAD overflowed; used HIST]" : "");
  } else {
    std::printf("hybrid : %s\n", hybrid_result.status().ToString().c_str());
  }
  return 0;
}

int CmdModel(const std::map<std::string, std::string>& flags) {
  const uint64_t n = std::strtoull(Flag(flags, "n", "128000000").c_str(),
                                   nullptr, 10);
  const int width = std::atoi(Flag(flags, "width", "8").c_str());
  const uint32_t fanout = static_cast<uint32_t>(
      std::strtoul(Flag(flags, "fanout", "8192").c_str(), nullptr, 10));
  FpgaCostModel model(width, fanout);
  std::printf("cost model: N=%llu W=%dB fanout=%u (Section 4.6)\n\n",
              static_cast<unsigned long long>(n), width, fanout);
  std::printf("circuit rate: %.0f Mtuples/s, latency: %.1f us\n",
              model.CircuitRateTuplesPerSec() / 1e6,
              model.LatencySeconds() * 1e6);
  std::printf("%-12s %-6s %8s %14s\n", "mode", "r", "B(r)", "P_total Mt/s");
  struct Cfg {
    const char* name;
    OutputMode mode;
    LayoutMode layout;
  };
  for (const Cfg& cfg :
       {Cfg{"HIST/RID", OutputMode::kHist, LayoutMode::kRid},
        Cfg{"HIST/VRID", OutputMode::kHist, LayoutMode::kVrid},
        Cfg{"PAD/RID", OutputMode::kPad, LayoutMode::kRid},
        Cfg{"PAD/VRID", OutputMode::kPad, LayoutMode::kVrid}}) {
    double r = FpgaCostModel::ReadWriteRatio(cfg.mode, cfg.layout);
    std::printf("%-12s %-6.2f %8.2f %14.0f\n", cfg.name, r,
                QpiBandwidthForRatio(r),
                model.TotalRateTuplesPerSec(n, cfg.mode, cfg.layout,
                                            LinkKind::kXeonFpga) /
                    1e6);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf(
        "usage: fpart_cli <partition|join|model> [--flag=value ...]\n"
        "  partition --engine=cpu|fpga --mode=pad|hist --hash=murmur|radix\n"
        "            --fanout=N --n=N --dist=linear|random|grid|rev-grid\n"
        "            --link=qpi|raw --threads=N\n"
        "  join      --workload=A..E --scale=F --zipf=F --threads=N "
        "--fanout=N\n"
        "  model     --n=N --width=8|16|32|64 --fanout=N\n");
    return 1;
  }
  auto flags = ParseFlags(argc, argv);
  std::string cmd = argv[1];
  if (cmd == "partition") return CmdPartition(flags);
  if (cmd == "join") return CmdJoin(flags);
  if (cmd == "model") return CmdModel(flags);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 1;
}
