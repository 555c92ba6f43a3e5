// Unified partitioning entry point: one request type dispatching to the
// CPU baseline or the simulated FPGA circuit. This is the API the examples
// and benches use; the lower-level modules remain available for callers
// that need circuit-level control.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cpu/partitioner.h"
#include "datagen/partitioned_output.h"
#include "datagen/relation.h"
#include "fpga/config.h"
#include "fpga/partitioner.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fpart {

/// Which device executes the partitioning.
enum class Engine {
  /// Host CPU, Balkesen-style software write-combining partitioner.
  kCpu,
  /// Cycle-level simulation of the paper's FPGA circuit.
  kFpgaSim,
};

const char* EngineName(Engine engine);

/// \brief Device-independent partitioning request.
struct PartitionRequest {
  Engine engine = Engine::kFpgaSim;
  uint32_t fanout = 8192;
  HashMethod hash = HashMethod::kMurmur;
  /// kRange only: fanout-1 sorted splitters (see EquiDepthSplitters).
  std::vector<uint64_t> range_splitters;
  /// FPGA only (the CPU baseline always builds a histogram — it needs it
  /// for synchronization-free parallel scatter, Section 4.7).
  OutputMode output_mode = OutputMode::kPad;
  LinkKind link = LinkKind::kXeonFpga;
  double pad_fraction = 0.5;
  /// FPGA only: model concurrent CPU traffic on the link (Figure 2). The
  /// svc scheduler sets this per run when host workers are busy.
  Interference interference = Interference::kAlone;
  /// FPGA only: host-side execution engine of the cycle simulator (the
  /// batched fast path or the per-module reference loop; identical output
  /// bytes and cycle counters either way).
  SimMode sim_mode = SimMode::kFast;
  /// FPGA only: memoize full run results keyed by config+input digest
  /// (FpgaPartitionerConfig::sim_cache).
  bool sim_cache = false;
  /// CPU only.
  size_t num_threads = 1;
  bool use_buffers = true;
  bool non_temporal = true;
  /// CPU only: shared worker pool (a private one is created when null and
  /// num_threads > 1).
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation token, plumbed into whichever backend runs
  /// the request (svc jobs point this at their per-job flag). Checked at
  /// phase/pass boundaries; a cancelled run returns Status::Cancelled.
  /// Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;
};

/// \brief Device-independent partitioning outcome.
template <typename T>
struct PartitionReport {
  PartitionedOutput<T> output;
  /// CPU: measured wall time; FPGA: simulated circuit time.
  double seconds = 0.0;
  double mtuples_per_sec = 0.0;
  Engine engine = Engine::kCpu;
  /// FPGA only: cycle-level counters.
  CycleStats stats;
};

/// Partition `n` row-store tuples with the requested engine.
template <typename T>
Result<PartitionReport<T>> RunPartition(const PartitionRequest& request,
                                        const T* tuples, size_t n) {
  obs::TraceSpan span("engine.partition", "engine");
  obs::Registry::Global()
      .GetCounter("engine.partition_requests", "requests",
                  "RunPartition calls (either engine)")
      ->Add();
  PartitionReport<T> report;
  report.engine = request.engine;
  if (request.engine == Engine::kCpu) {
    CpuPartitionerConfig config;
    config.fanout = request.fanout;
    config.hash = request.hash;
    config.range_splitters = request.range_splitters;
    config.num_threads = request.num_threads;
    config.use_buffers = request.use_buffers;
    config.non_temporal = request.non_temporal;
    config.pool = request.pool;
    config.cancel = request.cancel;
    FPART_ASSIGN_OR_RETURN(
        CpuRunResult<T> r,
        CpuPartition(config, tuples, n));
    report.output = std::move(r.output);
    report.seconds = r.seconds;
    report.mtuples_per_sec = r.mtuples_per_sec;
    return report;
  }
  FpgaPartitionerConfig config;
  config.fanout = request.fanout;
  config.hash = request.hash;
  config.range_splitters = request.range_splitters;
  config.output_mode = request.output_mode;
  config.layout = LayoutMode::kRid;
  config.link = request.link;
  config.pad_fraction = request.pad_fraction;
  config.interference = request.interference;
  config.sim_mode = request.sim_mode;
  config.sim_cache = request.sim_cache;
  config.cancel = request.cancel;
  FpgaPartitioner<T> partitioner(config);
  FPART_ASSIGN_OR_RETURN(FpgaRunResult<T> r, partitioner.Partition(tuples, n));
  report.output = std::move(r.output);
  report.seconds = r.seconds;
  report.mtuples_per_sec = r.mtuples_per_sec;
  report.stats = r.stats;
  return report;
}

/// Partition a whole row-store relation.
template <typename T>
Result<PartitionReport<T>> RunPartition(const PartitionRequest& request,
                                        const Relation<T>& relation) {
  return RunPartition(request, relation.data(), relation.size());
}

/// RunPartition with the Section 5.4 fallback: a PAD run whose skew
/// overflows a partition is retried with the two-pass HIST circuit, which
/// handles any skew.
template <typename T>
Result<PartitionReport<T>> RunPartitionWithFallback(PartitionRequest request,
                                                    const T* tuples,
                                                    size_t n) {
  Result<PartitionReport<T>> attempt = RunPartition(request, tuples, n);
  if (!attempt.ok() && attempt.status().IsPartitionOverflow()) {
    request.output_mode = OutputMode::kHist;
    attempt = RunPartition(request, tuples, n);
  }
  return attempt;
}

/// Library version string.
std::string Version();

}  // namespace fpart
