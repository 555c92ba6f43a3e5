// Distributed radix join across a cluster, with FPGA-accelerated
// partitioning on every node — the Section 6 future-work scenario
// (Barthels et al. [6,7] executed the same plan with CPU partitioning).
//
// Plan (per relation): each node holds an equal horizontal slice; the
// node's partitioner splits its slice by the *global* key hash into one
// bucket per node (fan-out = #nodes), the buckets are shuffled all-to-all
// over the RDMA fabric, and each node then joins its received fragments
// with a local radix join. Each split is a RunPartition run (PAD, with the
// Section 5.4 HIST fallback), so its time is simulated circuit time on the
// FPGA engine and measured wall time on the CPU engine. The shuffle comes
// from the network model, and the local joins run for real on the host
// (the cluster's parallelism is the max over nodes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "datagen/relation.h"
#include "dist/network.h"
#include "join/radix_join.h"

namespace fpart {

/// \brief Configuration of the distributed hybrid join.
struct DistributedJoinConfig {
  size_t num_nodes = 4;
  /// Node-internal fan-out of the local join after the shuffle.
  uint32_t local_fanout = 1024;
  /// Threads per node for the local join and, on the CPU engine, the split.
  size_t threads_per_node = 1;
  /// Partitioning engine on each node.
  Engine engine = Engine::kFpgaSim;
  HashMethod hash = HashMethod::kMurmur;
  NetworkModel network;
};

/// \brief Phase timing of the distributed join (parallel-time semantics:
/// each phase is the max over nodes).
struct DistributedJoinResult {
  uint64_t matches = 0;
  double partition_seconds = 0.0;  ///< node-local split by destination
  double shuffle_seconds = 0.0;    ///< all-to-all over the fabric
  double local_join_seconds = 0.0; ///< radix join of received fragments
  double total_seconds = 0.0;
  double mtuples_per_sec = 0.0;
};

/// Execute R ⋈ S across `config.num_nodes` nodes. The relations are split
/// horizontally (as they would be stored); the result is the global match
/// count plus parallel-time phase breakdown.
template <typename T>
Result<DistributedJoinResult> DistributedJoin(
    const DistributedJoinConfig& config, const Relation<T>& r,
    const Relation<T>& s) {
  const size_t nodes = std::max<size_t>(1, config.num_nodes);
  if (!IsPowerOfTwo(nodes)) {
    return Status::InvalidArgument(
        "node count must be a power of two (hash destination = key bits)");
  }

  DistributedJoinResult result;

  // --- Phase 1 on every node: the node's partitioner splits its R and S
  // slices into one partition per destination node. Nodes run
  // concurrently, so the phase costs the max over nodes.
  PartitionRequest split;
  split.engine = config.engine;
  split.fanout = static_cast<uint32_t>(nodes);
  split.hash = config.hash;
  split.output_mode = OutputMode::kPad;
  split.num_threads = config.threads_per_node;
  auto split_slice = [&](const Relation<T>& rel, size_t node) {
    const size_t begin = rel.size() * node / nodes;
    const size_t end = rel.size() * (node + 1) / nodes;
    return RunPartitionWithFallback(split, rel.data() + begin, end - begin);
  };
  std::vector<PartitionedOutput<T>> r_split, s_split;
  for (size_t node = 0; node < nodes; ++node) {
    FPART_ASSIGN_OR_RETURN(PartitionReport<T> r_run, split_slice(r, node));
    FPART_ASSIGN_OR_RETURN(PartitionReport<T> s_run, split_slice(s, node));
    result.partition_seconds =
        std::max(result.partition_seconds, r_run.seconds + s_run.seconds);
    r_split.push_back(std::move(r_run.output));
    s_split.push_back(std::move(s_run.output));
  }

  // --- Phase 2: all-to-all shuffle; source i ships its partition j to j.
  std::vector<std::vector<uint64_t>> flows(nodes,
                                           std::vector<uint64_t>(nodes, 0));
  for (size_t i = 0; i < nodes; ++i) {
    for (size_t j = 0; j < nodes; ++j) {
      flows[i][j] = (r_split[i].part(j).num_tuples +
                     s_split[i].part(j).num_tuples) *
                    sizeof(T);
    }
  }
  result.shuffle_seconds = config.network.ShuffleSeconds(flows);

  // --- Phase 3: every node joins the fragments it received. Parallel
  // time = max over nodes; the fragments are joined for real, sequentially.
  auto gather = [&](const std::vector<PartitionedOutput<T>>& split_out,
                    size_t node) -> Result<Relation<T>> {
    size_t total = 0;
    for (const auto& out : split_out) total += out.part(node).num_tuples;
    FPART_ASSIGN_OR_RETURN(Relation<T> local, Relation<T>::Allocate(total));
    size_t pos = 0;
    for (const auto& out : split_out) {
      const T* data = out.partition_data(node);
      for (size_t k = 0; k < out.partition_slots(node); ++k) {
        if (!IsDummy(data[k])) local[pos++] = data[k];
      }
    }
    return local;
  };
  CpuJoinConfig local;
  local.fanout = config.local_fanout;
  local.hash = config.hash;
  local.num_threads = config.threads_per_node;
  for (size_t node = 0; node < nodes; ++node) {
    FPART_ASSIGN_OR_RETURN(Relation<T> r_local, gather(r_split, node));
    FPART_ASSIGN_OR_RETURN(Relation<T> s_local, gather(s_split, node));
    if (r_local.size() == 0 || s_local.size() == 0) continue;
    FPART_ASSIGN_OR_RETURN(JoinResult local_result,
                           CpuRadixJoin(local, r_local, s_local));
    result.matches += local_result.matches;
    result.local_join_seconds =
        std::max(result.local_join_seconds, local_result.total_seconds);
  }

  result.total_seconds = result.partition_seconds + result.shuffle_seconds +
                         result.local_join_seconds;
  result.mtuples_per_sec =
      result.total_seconds > 0
          ? (r.size() + s.size()) / result.total_seconds / 1e6
          : 0.0;
  return result;
}

}  // namespace fpart
