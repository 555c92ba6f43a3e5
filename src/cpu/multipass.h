// Multi-pass radix partitioning in the style of Manegold et al. [21]
// (Section 3.1): limit the fan-out of each pass so the shuffle stays
// TLB-friendly, at the cost of extra passes over the data. Kept as a
// baseline/ablation against the single-pass software-managed-buffer
// partitioner that superseded it (Balkesen et al. [3]).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "cpu/partitioner.h"
#include "hash/radix.h"

namespace fpart {

/// Two-pass partitioning into config.fanout partitions: pass 1 clusters on
/// the top `pass1_bits` of the radix window, pass 2 refines every cluster
/// on the remaining low bits. Results are bit-compatible with the
/// single-pass partitioner (same PartitionFn).
template <typename T>
Result<CpuRunResult<T>> MultipassPartition(const CpuPartitionerConfig& config,
                                           int pass1_bits, const T* tuples,
                                           size_t n) {
  constexpr int kK = TupleTraits<T>::kTuplesPerCacheLine;
  if (!IsPowerOfTwo(config.fanout)) {
    return Status::InvalidArgument("fanout must be a power of two");
  }
  const int total_bits = FanoutBits(config.fanout);
  if (pass1_bits < 1 || pass1_bits > total_bits) {
    return Status::InvalidArgument("pass1_bits must be in [1, log2(fanout)]");
  }
  if (pass1_bits == total_bits) {
    return CpuPartition(config, tuples, n);  // degenerates to one pass
  }
  if (config.hash == HashMethod::kMultiplicative ||
      config.hash == HashMethod::kRange) {
    // Multiplicative hashing slices the *top* bits of the product and
    // range partitioning compares whole keys; neither decomposes into
    // independent per-pass bit windows. Run the single-pass partitioner
    // instead (bit-compatible result).
    return CpuPartition(config, tuples, n);
  }
  const int pass2_bits = total_bits - pass1_bits;
  const uint32_t f1 = uint32_t{1} << pass1_bits;
  const uint32_t f2 = uint32_t{1} << pass2_bits;
  const size_t num_threads = std::max<size_t>(1, config.num_threads);

  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = config.pool;
  if (pool == nullptr && num_threads > 1) {
    own_pool = std::make_unique<ThreadPool>(num_threads);
    pool = own_pool.get();
  }

  // --- Pass 1: cluster on the high bits.
  CpuPartitionerConfig c1 = config;
  c1.fanout = f1;
  c1.shift = pass2_bits;
  c1.pool = pool;
  FPART_ASSIGN_OR_RETURN(CpuRunResult<T> pass1, CpuPartition(c1, tuples, n));

  // --- Pass 2: refine each cluster on the low bits. Clusters are
  // independent, so parallelism is across clusters.
  const PartitionFn fn2(config.hash, f2, /*shift=*/0);
  Timer pass2_timer;

  std::vector<uint64_t> final_hist(config.fanout, 0);
  auto hist_worker = [&](size_t t) {
    size_t begin = f1 * t / num_threads, end = f1 * (t + 1) / num_threads;
    for (size_t p1 = begin; p1 < end; ++p1) {
      BuildHistogram(fn2, pass1.output.partition_data(p1), 0,
                     pass1.output.part(p1).num_tuples,
                     final_hist.data() + p1 * f2);
    }
  };
  if (pool != nullptr && num_threads > 1) {
    pool->ParallelFor(num_threads, hist_worker);
  } else {
    hist_worker(0);
  }

  std::vector<uint32_t> capacity_cls(config.fanout);
  for (uint32_t g = 0; g < config.fanout; ++g) {
    capacity_cls[g] = static_cast<uint32_t>((final_hist[g] + kK - 1) / kK);
  }
  FPART_ASSIGN_OR_RETURN(PartitionedOutput<T> output,
                         PartitionedOutput<T>::Allocate(capacity_cls));
  T* out_base = reinterpret_cast<T*>(output.mutable_data());
  PartitionInfo* const parts = output.mutable_parts();

  auto scatter_worker = [&](size_t t) {
    std::vector<uint64_t> cursor(f2);
    size_t begin = f1 * t / num_threads, end = f1 * (t + 1) / num_threads;
    for (size_t p1 = begin; p1 < end; ++p1) {
      for (uint32_t p2 = 0; p2 < f2; ++p2) {
        cursor[p2] = parts[p1 * f2 + p2].base_cl * kK;
      }
      Scatter(fn2, pass1.output.partition_data(p1), 0,
              pass1.output.part(p1).num_tuples, cursor.data(), out_base,
              config);
    }
  };
  if (pool != nullptr && num_threads > 1) {
    pool->ParallelFor(num_threads, scatter_worker);
  } else {
    scatter_worker(0);
  }
  double pass2_seconds = pass2_timer.Seconds();

  CpuRunResult<T> result;
  for (uint32_t g = 0; g < config.fanout; ++g) {
    parts[g].num_tuples = final_hist[g];
    parts[g].written_cls = capacity_cls[g];
    T* data = out_base + parts[g].base_cl * kK;
    for (uint64_t i = final_hist[g];
         i < static_cast<uint64_t>(capacity_cls[g]) * kK; ++i) {
      data[i] = MakeDummyTuple<T>();
    }
  }
  result.output = std::move(output);
  result.histogram = std::move(final_hist);
  result.seconds = pass1.seconds + pass2_seconds;
  result.mtuples_per_sec =
      result.seconds > 0 ? n / result.seconds / 1e6 : 0.0;
  return result;
}

}  // namespace fpart
