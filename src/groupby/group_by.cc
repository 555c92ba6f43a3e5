#include "groupby/group_by.h"

#include <algorithm>

namespace fpart {

Result<GroupByOutput> PartitionedGroupBy(const GroupByConfig& config,
                                         const Relation<Tuple8>& relation) {
  PartitionRequest request;
  request.engine = config.engine;
  request.fanout = config.fanout;
  request.hash = config.hash;
  request.output_mode = config.output_mode;
  request.pad_fraction = config.pad_fraction;
  request.num_threads = config.num_threads;
  // Skewed group keys can overflow a PAD partition.
  FPART_ASSIGN_OR_RETURN(
      const PartitionReport<Tuple8> partitioned,
      RunPartitionWithFallback(request, relation.data(), relation.size()));

  const size_t num_threads = std::max<size_t>(1, config.num_threads);
  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = config.pool;
  if (pool == nullptr && num_threads > 1) {
    own_pool = std::make_unique<ThreadPool>(num_threads);
    pool = own_pool.get();
  }

  const size_t num_parts = partitioned.output.num_partitions();
  std::vector<std::vector<GroupResult>> per_thread(num_threads);

  Timer agg_timer;
  auto worker = [&](size_t t) {
    size_t begin = num_parts * t / num_threads;
    size_t end = num_parts * (t + 1) / num_threads;
    for (size_t p = begin; p < end; ++p) {
      internal::AggregatePartition(partitioned.output.partition_data(p),
                                   partitioned.output.partition_slots(p),
                                   &per_thread[t]);
    }
  };
  if (pool) {
    pool->ParallelFor(num_threads, worker);
  } else {
    worker(0);
  }
  double aggregate_seconds = agg_timer.Seconds();
  if (config.engine == Engine::kFpgaSim && config.coherence_penalty) {
    // The aggregation scans FPGA-written partitions sequentially.
    aggregate_seconds *= CoherenceModel::SequentialReadFactor(
        LastWriter::kFpga);
  }

  GroupByOutput output;
  for (auto& part : per_thread) {
    output.groups.insert(output.groups.end(), part.begin(), part.end());
  }
  // Group keys never straddle partitions, so the concatenation already has
  // one entry per distinct key; only ordering remains.
  std::sort(output.groups.begin(), output.groups.end(),
            [](const GroupResult& a, const GroupResult& b) {
              return a.key < b.key;
            });
  output.partition_seconds = partitioned.seconds;
  output.aggregate_seconds = aggregate_seconds;
  output.total_seconds = output.partition_seconds + aggregate_seconds;
  return output;
}

Result<GroupByOutput> HashGroupBy(const Relation<Tuple8>& relation) {
  Timer timer;
  std::unordered_map<uint32_t, GroupResult> table;
  table.reserve(relation.size() / 4 + 16);
  for (const auto& t : relation) {
    auto [it, inserted] = table.try_emplace(
        t.key, GroupResult{t.key, 1, t.payload, t.payload, t.payload});
    if (!inserted) {
      GroupResult& g = it->second;
      ++g.count;
      g.sum += t.payload;
      g.min = std::min(g.min, t.payload);
      g.max = std::max(g.max, t.payload);
    }
  }
  GroupByOutput output;
  output.groups.reserve(table.size());
  for (auto& [key, group] : table) output.groups.push_back(group);
  std::sort(output.groups.begin(), output.groups.end(),
            [](const GroupResult& a, const GroupResult& b) {
              return a.key < b.key;
            });
  output.aggregate_seconds = timer.Seconds();
  output.total_seconds = output.aggregate_seconds;
  return output;
}

}  // namespace fpart
