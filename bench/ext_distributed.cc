// Extension (Section 6 / Barthels et al. [6,7]): scaling the hybrid join
// out over an RDMA fabric — the FPGA partitioner on every node splits its
// slice by destination, the fabric shuffles, nodes join locally. Sweeps
// the node count and the link bandwidth. Exits 1 if any row fails or
// misses a match.
#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "core/fpart.h"

namespace fpart {
namespace {

int Run() {
  bench::Banner("ext_distributed", "Section 6 (RDMA-distributed join)");
  const double scale = BenchScale() / 8.0;
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, scale), 7);
  if (!input.ok()) return 1;
  std::printf("workload A, |R| = |S| = %zu, FDR fabric (6.8 GB/s/link)\n\n",
              input->r.size());
  // Every row must join successfully and find every S tuple's match
  // (workload A is a foreign-key join); otherwise the bench fails.
  auto checked_join = [&](const DistributedJoinConfig& config)
      -> std::optional<DistributedJoinResult> {
    auto result = DistributedJoin(config, input->r, input->s);
    if (!result.ok()) {
      std::fprintf(stderr, "%zu nodes: %s\n", config.num_nodes,
                   result.status().ToString().c_str());
      return std::nullopt;
    }
    if (result->matches != input->s.size()) {
      std::fprintf(stderr, "%zu nodes: %llu matches, expected %zu\n",
                   config.num_nodes,
                   static_cast<unsigned long long>(result->matches),
                   input->s.size());
      return std::nullopt;
    }
    return *result;
  };
  std::printf("%6s | %10s %10s %10s %10s | %11s\n", "nodes", "part (s)",
              "shuffle", "local join", "total", "Mtuples/s");
  for (size_t nodes : {1, 2, 4, 8, 16}) {
    DistributedJoinConfig config;
    config.num_nodes = nodes;
    config.local_fanout = 8192 / static_cast<uint32_t>(nodes);
    config.threads_per_node = 1;
    auto result = checked_join(config);
    if (!result) return 1;
    std::printf("%6zu | %10.3f %10.3f %10.3f %10.3f | %11.0f\n", nodes,
                result->partition_seconds, result->shuffle_seconds,
                result->local_join_seconds, result->total_seconds,
                result->mtuples_per_sec);
  }

  std::printf("\nslower fabric (1 GB/s links):\n");
  for (size_t nodes : {2, 8}) {
    DistributedJoinConfig config;
    config.num_nodes = nodes;
    config.local_fanout = 1024;
    config.network.link_gbs = 1.0;
    auto result = checked_join(config);
    if (!result) return 1;
    std::printf("%6zu | shuffle %.3fs, total %.3fs\n", nodes,
                result->shuffle_seconds, result->total_seconds);
  }
  std::printf(
      "\nExpected shape ([6,7]): every phase shrinks with the node count "
      "under strong\nscaling — per-node slices get smaller — but the "
      "shuffle shrinks slower than\nthe compute phases (each node still "
      "ships (nodes-1)/nodes of its slice), so\nspeed-up bends away from "
      "linear as the fabric share grows; a slower fabric\nbends it "
      "earlier.\n");
  return 0;
}

}  // namespace
}  // namespace fpart

int main() { return fpart::Run(); }
