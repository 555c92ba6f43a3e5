// Tests of the distributed join (the Section 6 / Barthels [6,7] scenario).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/fpart.h"

namespace fpart {
namespace {

TEST(NetworkModelTest, ShuffleTimeIsMaxLinkLoad) {
  NetworkModel net;
  net.link_gbs = 1.0;  // 1 GB/s per direction
  net.message_latency_sec = 0.0;
  // Node 0 sends 2 GB to node 1; node 1 sends nothing.
  std::vector<std::vector<uint64_t>> flows = {
      {0, 2000000000ull}, {0, 0}};
  EXPECT_NEAR(net.ShuffleSeconds(flows), 2.0, 1e-9);
  // Balanced all-to-all: each of 4 nodes sends 1 GB to each other node →
  // 3 GB injected per node → 3 s.
  std::vector<std::vector<uint64_t>> balanced(
      4, std::vector<uint64_t>(4, 1000000000ull));
  EXPECT_NEAR(net.ShuffleSeconds(balanced), 3.0, 1e-9);
}

TEST(NetworkModelTest, LocalBytesAreFree) {
  NetworkModel net;
  net.message_latency_sec = 0.0;
  std::vector<std::vector<uint64_t>> flows = {{1ull << 40}};  // self only
  EXPECT_DOUBLE_EQ(net.ShuffleSeconds(flows), 0.0);
}

TEST(DistributedJoinTest, MatchCountIsExact) {
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, 2e-4), 7);
  ASSERT_TRUE(input.ok());
  DistributedJoinConfig config;
  config.num_nodes = 4;
  config.local_fanout = 64;
  auto result = DistributedJoin(config, input->r, input->s);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->matches, input->s.size());
  EXPECT_GT(result->partition_seconds, 0.0);
  EXPECT_GT(result->shuffle_seconds, 0.0);
  EXPECT_GT(result->local_join_seconds, 0.0);
}

TEST(DistributedJoinTest, SingleNodeDegeneratesToLocalJoin) {
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kC, 1e-4), 9);
  ASSERT_TRUE(input.ok());
  DistributedJoinConfig config;
  config.num_nodes = 1;
  config.local_fanout = 64;
  auto result = DistributedJoin(config, input->r, input->s);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matches, input->s.size());
  // No cross-node traffic with one node.
  EXPECT_DOUBLE_EQ(result->shuffle_seconds, 0.0);
}

TEST(DistributedJoinTest, NodeCountSweepsAgree) {
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, 1e-4), 11);
  ASSERT_TRUE(input.ok());
  for (size_t nodes : {1, 2, 4, 8}) {
    DistributedJoinConfig config;
    config.num_nodes = nodes;
    config.local_fanout = 64;
    auto result = DistributedJoin(config, input->r, input->s);
    ASSERT_TRUE(result.ok()) << nodes;
    EXPECT_EQ(result->matches, input->s.size()) << nodes;
  }
}

TEST(DistributedJoinTest, RejectsNonPowerOfTwoNodes) {
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, 2e-5), 13);
  ASSERT_TRUE(input.ok());
  DistributedJoinConfig config;
  config.num_nodes = 3;
  EXPECT_FALSE(DistributedJoin(config, input->r, input->s).ok());
}

TEST(DistributedJoinTest, FpgaPartitioningPhaseScalesDownWithNodes) {
  // Each node only streams 1/nodes of the data: the (simulated) partition
  // phase must shrink roughly linearly with the node count.
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, 5e-4), 17);
  ASSERT_TRUE(input.ok());
  DistributedJoinConfig config;
  config.local_fanout = 64;
  config.num_nodes = 2;
  auto two = DistributedJoin(config, input->r, input->s);
  config.num_nodes = 8;
  auto eight = DistributedJoin(config, input->r, input->s);
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_NEAR(two->partition_seconds / eight->partition_seconds, 4.0, 0.5);
}

TEST(DistributedJoinTest, FpgaSplitTimeIsTheSimulatedRun) {
  // The split phase is the slowest node's simulated R + S partitioning
  // run, not a closed-form model value.
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, 2e-4), 19);
  ASSERT_TRUE(input.ok());
  DistributedJoinConfig config;
  config.num_nodes = 4;
  config.local_fanout = 64;
  auto result = DistributedJoin(config, input->r, input->s);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  PartitionRequest split;
  split.engine = Engine::kFpgaSim;
  split.fanout = 4;
  split.hash = config.hash;
  split.output_mode = OutputMode::kPad;
  auto slice_seconds = [&](const Relation<Tuple8>& rel, size_t node) {
    const size_t begin = rel.size() * node / 4;
    const size_t end = rel.size() * (node + 1) / 4;
    auto run =
        RunPartitionWithFallback(split, rel.data() + begin, end - begin);
    EXPECT_TRUE(run.ok());
    return run.ok() ? run->seconds : 0.0;
  };
  double worst = 0.0;
  for (size_t node = 0; node < 4; ++node) {
    worst = std::max(worst, slice_seconds(input->r, node) +
                                slice_seconds(input->s, node));
  }
  EXPECT_DOUBLE_EQ(result->partition_seconds, worst);
}

TEST(DistributedJoinTest, CpuEngineJoinsExactly) {
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, 2e-4), 23);
  ASSERT_TRUE(input.ok());
  DistributedJoinConfig config;
  config.num_nodes = 4;
  config.local_fanout = 64;
  config.engine = Engine::kCpu;
  auto result = DistributedJoin(config, input->r, input->s);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->matches, input->s.size());
  EXPECT_GT(result->partition_seconds, 0.0);
}

TEST(DistributedJoinTest, SkewedSliceFallsBackToHist) {
  // Every S tuple carries R's first key, so each node's S slice lands in
  // one destination partition and overflows PAD; the split must retry in
  // HIST mode and still find every match.
  auto input = GenerateWorkload(GetWorkloadSpec(WorkloadId::kA, 1e-4), 29);
  ASSERT_TRUE(input.ok());
  for (size_t i = 0; i < input->s.size(); ++i) {
    input->s[i].key = input->r[0].key;
  }
  PartitionRequest pad;
  pad.fanout = 2;
  pad.output_mode = OutputMode::kPad;
  auto overflow = RunPartition(pad, input->s.data(), input->s.size() / 2);
  ASSERT_FALSE(overflow.ok());
  ASSERT_TRUE(overflow.status().IsPartitionOverflow());

  DistributedJoinConfig config;
  config.num_nodes = 2;
  config.local_fanout = 64;
  config.engine = Engine::kFpgaSim;
  auto result = DistributedJoin(config, input->r, input->s);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->matches, input->s.size());
}

}  // namespace
}  // namespace fpart
