// The per-partition build+probe kernel of the radix join (Section 3.3) and
// its parallel driver.
//
// Both loops software-prefetch the bucket head `prefetch_distance` tuples
// ahead (Group-Prefetch style, Chen et al.): the bucket array of a
// cache-sized partition still costs an L1/L2 miss per random touch, and a
// rolling lookahead keeps several of those loads in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/partitioned_output.h"
#include "datagen/tuple.h"
#include "join/hash_table.h"

namespace fpart {

/// Default bucket-head prefetch lookahead of the build+probe loops.
inline constexpr uint32_t kDefaultProbePrefetchDistance = 16;

/// \brief Outcome of the build+probe phase.
struct BuildProbeStats {
  uint64_t matches = 0;
  /// Sum of matched R payloads — a join-correctness checksum.
  uint64_t checksum = 0;
  /// Wall-clock time of the parallel phase.
  double wall_seconds = 0.0;
  /// Aggregated per-thread CPU time spent building / probing. Used to
  /// apportion the coherence penalty (build is sequential-read bound,
  /// probe is random-read bound — Section 2.2).
  double build_cpu_seconds = 0.0;
  double probe_cpu_seconds = 0.0;
};

/// Build `table` over one R partition, prefetching bucket heads ahead of
/// the inserts. `r_slots` counts stored tuple slots including dummy
/// padding; dummies are skipped (Section 4.2).
template <typename T>
void BuildPartitionTable(BucketChainTable<T>* table, const T* r_data,
                         size_t r_slots,
                         uint32_t prefetch_distance =
                             kDefaultProbePrefetchDistance) {
  table->Reset(r_slots);
  const size_t dist = prefetch_distance;
  for (size_t i = 0; i < r_slots; ++i) {
    if (dist != 0 && i + dist < r_slots && !IsDummy(r_data[i + dist])) {
      table->PrefetchBucket(r_data[i + dist].key);
    }
    if (!IsDummy(r_data[i])) {
      table->Insert(r_data, static_cast<uint32_t>(i));
    }
  }
}

/// Probe `table` with every real tuple of the S partition, prefetching
/// bucket heads ahead; invokes `fn(r_index)` per match.
template <typename T, typename Fn>
void ProbePartitionTable(const BucketChainTable<T>& table, const T* r_data,
                         const T* s_data, size_t s_slots,
                         uint32_t prefetch_distance, Fn&& fn) {
  const size_t dist = prefetch_distance;
  for (size_t j = 0; j < s_slots; ++j) {
    if (dist != 0 && j + dist < s_slots && !IsDummy(s_data[j + dist])) {
      table.PrefetchBucket(s_data[j + dist].key);
    }
    if (IsDummy(s_data[j])) continue;
    table.Probe(r_data, s_data[j].key, fn);
  }
}

/// \brief Parallel build+probe over matching partition pairs.
///
/// Partitions are distributed across threads in contiguous ranges; each
/// pair is processed build-then-probe so the table stays cache resident.
template <typename RPart, typename SPart, typename T>
BuildProbeStats ParallelBuildProbe(const RPart& r, const SPart& s,
                                   size_t num_threads, ThreadPool* pool,
                                   const T* /*tag*/,
                                   uint32_t prefetch_distance =
                                       kDefaultProbePrefetchDistance) {
  const size_t num_parts = r.num_partitions();
  BuildProbeStats stats;
  std::vector<uint64_t> matches(num_threads, 0);
  std::vector<uint64_t> checksums(num_threads, 0);
  std::vector<double> build_secs(num_threads, 0.0);
  std::vector<double> probe_secs(num_threads, 0.0);

  auto worker = [&](size_t t) {
    BucketChainTable<T> table;
    size_t begin = num_parts * t / num_threads;
    size_t end = num_parts * (t + 1) / num_threads;
    for (size_t p = begin; p < end; ++p) {
      const T* r_data = r.partition_data(p);
      const T* s_data = s.partition_data(p);
      size_t r_slots = r.partition_slots(p);
      size_t s_slots = s.partition_slots(p);
      if (r_slots == 0 || s_slots == 0) continue;
      // Build.
      Timer timer;
      BuildPartitionTable(&table, r_data, r_slots, prefetch_distance);
      build_secs[t] += timer.Seconds();
      // Probe.
      timer.Restart();
      uint64_t m = 0, sum = 0;
      ProbePartitionTable(table, r_data, s_data, s_slots, prefetch_distance,
                          [&](uint32_t i) {
                            ++m;
                            sum += GetPayloadId(r_data[i]);
                          });
      probe_secs[t] += timer.Seconds();
      matches[t] += m;
      checksums[t] += sum;
    }
  };

  Timer wall;
  if (num_threads <= 1 || pool == nullptr) {
    worker(0);
  } else {
    pool->ParallelFor(num_threads, worker);
  }
  stats.wall_seconds = wall.Seconds();
  for (size_t t = 0; t < num_threads; ++t) {
    stats.matches += matches[t];
    stats.checksum += checksums[t];
    stats.build_cpu_seconds += build_secs[t];
    stats.probe_cpu_seconds += probe_secs[t];
  }
  return stats;
}

}  // namespace fpart
