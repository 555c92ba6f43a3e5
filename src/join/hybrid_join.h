// The hybrid CPU+FPGA join (Section 5): the FPGA partitions both relations
// through QPI while the CPU executes the in-cache build+probe phase.
//
// Partitioning time is the simulated circuit time (cycles × 5 ns); the
// build+probe phase runs for real on the host and its measured time is
// scaled by the Table 1 coherence penalty, because the partitions were
// last written by the FPGA socket (Section 2.2). The penalty can be
// disabled to model a future platform without the snooping anomaly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/relation.h"
#include "fpga/partitioner.h"
#include "join/build_probe.h"
#include "join/radix_join.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qpi/coherence.h"

namespace fpart {

/// \brief Configuration of the hybrid join.
struct HybridJoinConfig {
  /// Circuit configuration (mode, layout, hash, fanout, link).
  FpgaPartitionerConfig fpga;
  /// Threads for the CPU build+probe phase (the paper's "N-threaded
  /// hybrid join" refers to this phase only).
  size_t num_threads = 1;
  /// Apply the Table 1 snoop penalty to build+probe (on for the
  /// Xeon+FPGA prototype, off for an idealized future platform).
  bool coherence_penalty = true;
  /// Shared worker pool for the build+probe phase. When null and
  /// num_threads > 1, the call constructs (and tears down) its own pool —
  /// benchmark loops should pass one pool and reuse it across calls.
  ThreadPool* pool = nullptr;
  /// Software-prefetch lookahead for the build+probe bucket accesses.
  uint32_t prefetch_distance = 16;
};

namespace internal {

/// Partition one relation on the simulated FPGA, handling the VRID key
/// extraction (this models data that already lives as columns; the copy is
/// not part of the measurement).
template <typename T>
Result<FpgaRunResult<T>> HybridPartition(const FpgaPartitionerConfig& config,
                                         const Relation<T>& rel) {
  FpgaPartitioner<T> partitioner(config);
  if (config.layout == LayoutMode::kVrid) {
    using KeyType = typename FpgaPartitioner<T>::KeyType;
    std::vector<KeyType> keys(rel.size());
    for (size_t i = 0; i < rel.size(); ++i) keys[i] = rel[i].key;
    return partitioner.PartitionColumn(keys.data(), keys.size());
  }
  return partitioner.Partition(rel.data(), rel.size());
}

}  // namespace internal

/// Execute the hybrid join R ⋈ S. RID layout: the circuit reads the
/// materialized tuples; VRID: it reads only the key columns and appends
/// virtual record ids, which also serve as the join payload.
template <typename T>
Result<JoinResult> HybridJoin(const HybridJoinConfig& config,
                              const Relation<T>& r, const Relation<T>& s) {
  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = config.pool;
  if (pool == nullptr && config.num_threads > 1) {
    own_pool = std::make_unique<ThreadPool>(config.num_threads);
    pool = own_pool.get();
  }

  FpgaRunResult<T> pr, ps;
  BuildProbeStats bp;
  {
    obs::TraceSpan span("hybrid.partition_r", "join");
    FPART_ASSIGN_OR_RETURN(pr, internal::HybridPartition(config.fpga, r));
  }
  {
    obs::TraceSpan span("hybrid.partition_s", "join");
    FPART_ASSIGN_OR_RETURN(ps, internal::HybridPartition(config.fpga, s));
  }
  {
    obs::TraceSpan span("hybrid.build_probe", "join");
    bp = ParallelBuildProbe(pr.output, ps.output, config.num_threads, pool,
                            static_cast<const T*>(nullptr),
                            config.prefetch_distance);
  }

  double build_probe = bp.wall_seconds;
  if (config.coherence_penalty) {
    // Apportion the wall time into its build and probe shares using the
    // aggregated per-thread CPU times, then scale each share by its
    // Table 1 factor (build reads sequentially, probe randomly).
    double cpu_total = bp.build_cpu_seconds + bp.probe_cpu_seconds;
    if (cpu_total > 0) {
      double build_share = bp.build_cpu_seconds / cpu_total;
      double probe_share = bp.probe_cpu_seconds / cpu_total;
      double factor =
          build_share * CoherenceModel::BuildFactor(LastWriter::kFpga) +
          probe_share * CoherenceModel::ProbeFactor(LastWriter::kFpga);
      build_probe *= factor;
    }
  }

  auto& reg = obs::Registry::Global();
  reg.GetCounter("join.hybrid.runs", "runs", "hybrid joins completed")->Add();
  reg.GetCounter("join.matches", "tuples",
                 "join result tuples (radix + hybrid)")
      ->Add(bp.matches);

  JoinResult result;
  result.matches = bp.matches;
  result.checksum = bp.checksum;
  result.partition_seconds = pr.seconds + ps.seconds;
  result.build_probe_seconds = build_probe;
  result.total_seconds = result.partition_seconds + result.build_probe_seconds;
  result.mtuples_per_sec =
      result.total_seconds > 0
          ? (r.size() + s.size()) / result.total_seconds / 1e6
          : 0.0;
  return result;
}

/// PAD-mode execution with the Section 5.4 fallback: if a partition
/// overflows, the join is retried with the HIST-mode circuit (the paper's
/// alternative fallback is the CPU partitioner).
template <typename T>
Result<JoinResult> HybridJoinWithFallback(const HybridJoinConfig& config,
                                          const Relation<T>& r,
                                          const Relation<T>& s,
                                          bool* fell_back = nullptr) {
  if (fell_back != nullptr) *fell_back = false;
  Result<JoinResult> first = HybridJoin(config, r, s);
  if (first.ok() || !first.status().IsPartitionOverflow()) return first;
  if (fell_back != nullptr) *fell_back = true;
  HybridJoinConfig retry = config;
  retry.fpga.output_mode = OutputMode::kHist;
  return HybridJoin(retry, r, s);
}

}  // namespace fpart
