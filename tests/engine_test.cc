// Tests of the unified core API (core/engine.h): configuration plumbing,
// error propagation, determinism of the simulator.
#include <gtest/gtest.h>

#include "core/fpart.h"

namespace fpart {
namespace {

Relation<Tuple8> SmallRelation(size_t n = 20000, uint64_t seed = 5) {
  auto rel = GenerateUniqueRelation(n, KeyDistribution::kRandom, seed);
  EXPECT_TRUE(rel.ok());
  return std::move(*rel);
}

TEST(EngineTest, InvalidFanoutPropagates) {
  auto rel = SmallRelation(1000);
  PartitionRequest request;
  request.fanout = 1000;  // not a power of two
  request.engine = Engine::kCpu;
  EXPECT_FALSE(RunPartition(request, rel).ok());
  request.engine = Engine::kFpgaSim;
  EXPECT_FALSE(RunPartition(request, rel).ok());
}

TEST(EngineTest, PadOverflowSurfacesThroughApi) {
  auto rel = Relation<Tuple8>::Allocate(20000);
  ASSERT_TRUE(rel.ok());
  for (size_t i = 0; i < rel->size(); ++i) {
    (*rel)[i] = Tuple8{64, static_cast<uint32_t>(i)};  // one hot partition
  }
  PartitionRequest request;
  request.engine = Engine::kFpgaSim;
  request.fanout = 64;
  request.hash = HashMethod::kRadix;
  request.output_mode = OutputMode::kPad;
  auto report = RunPartition(request, *rel);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsPartitionOverflow());
  // The Section 5.4 fallback retries the same input in HIST mode.
  auto fallback = RunPartitionWithFallback(request, rel->data(), rel->size());
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->output.total_tuples(), rel->size());
}

TEST(EngineTest, SimulatorIsDeterministic) {
  auto rel = SmallRelation();
  PartitionRequest request;
  request.engine = Engine::kFpgaSim;
  request.fanout = 256;
  auto a = RunPartition(request, rel);
  auto b = RunPartition(request, rel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.cycles, b->stats.cycles);
  EXPECT_EQ(a->stats.output_lines, b->stats.output_lines);
  EXPECT_EQ(a->stats.backpressure_cycles, b->stats.backpressure_cycles);
  EXPECT_DOUBLE_EQ(a->seconds, b->seconds);
  for (size_t p = 0; p < a->output.num_partitions(); ++p) {
    ASSERT_EQ(a->output.part(p).num_tuples, b->output.part(p).num_tuples);
  }
}

TEST(EngineTest, RawWrapperLinkSelectable) {
  auto rel = SmallRelation();
  PartitionRequest request;
  request.engine = Engine::kFpgaSim;
  request.fanout = 256;
  request.link = LinkKind::kXeonFpga;
  auto qpi = RunPartition(request, rel);
  request.link = LinkKind::kRawWrapper;
  auto raw = RunPartition(request, rel);
  ASSERT_TRUE(qpi.ok());
  ASSERT_TRUE(raw.ok());
  EXPECT_GT(raw->mtuples_per_sec, 2 * qpi->mtuples_per_sec);
}

TEST(EngineTest, InterferenceSlowsTheSimulator) {
  auto rel = SmallRelation(100000);
  FpgaPartitionerConfig config;
  config.fanout = 256;
  FpgaPartitioner<Tuple8> alone(config);
  auto alone_run = alone.Partition(rel.data(), rel.size());
  config.interference = Interference::kInterfered;
  FpgaPartitioner<Tuple8> interfered(config);
  auto interfered_run = interfered.Partition(rel.data(), rel.size());
  ASSERT_TRUE(alone_run.ok());
  ASSERT_TRUE(interfered_run.ok());
  double slowdown =
      alone_run->mtuples_per_sec / interfered_run->mtuples_per_sec;
  EXPECT_GT(slowdown, 1.3);
  EXPECT_LT(slowdown, 1.6);  // Figure 2: ~30% bandwidth loss
}

TEST(EngineTest, RangePartitioningThroughApi) {
  auto rel = SmallRelation(10000);
  std::vector<uint64_t> sample;
  for (size_t i = 0; i < rel.size(); i += 13) sample.push_back(rel[i].key);
  PartitionRequest request;
  request.engine = Engine::kFpgaSim;
  request.fanout = 16;
  request.hash = HashMethod::kRange;
  request.range_splitters = EquiDepthSplitters(sample, request.fanout);
  request.output_mode = OutputMode::kHist;
  auto report = RunPartition(request, rel);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->output.total_tuples(), rel.size());
}

TEST(EngineTest, CpuEngineHonoursThreadCount) {
  auto rel = SmallRelation(50000);
  PartitionRequest request;
  request.engine = Engine::kCpu;
  request.fanout = 128;
  request.num_threads = 3;
  auto report = RunPartition(request, rel);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->output.total_tuples(), rel.size());
}

TEST(EngineTest, NamesAndVersion) {
  EXPECT_STREQ(EngineName(Engine::kCpu), "cpu");
  EXPECT_STREQ(EngineName(Engine::kFpgaSim), "fpga-sim");
  EXPECT_NE(Version().find("fpart"), std::string::npos);
  EXPECT_STREQ(OutputModeName(OutputMode::kHist), "HIST");
  EXPECT_STREQ(LayoutModeName(LayoutMode::kVrid), "VRID");
}

TEST(GroupByFallbackTest, PadOverflowFallsBackToHist) {
  // Extremely skewed group keys: PAD overflows, the operator must recover.
  auto rel = Relation<Tuple8>::Allocate(30000);
  ASSERT_TRUE(rel.ok());
  Rng rng(3);
  for (size_t i = 0; i < rel->size(); ++i) {
    // 80% of rows in one group.
    uint32_t key = rng.Below(10) < 8 ? 42u : rng.Next32() & 0x7fffffu;
    (*rel)[i] = Tuple8{key, static_cast<uint32_t>(i % 1000)};
  }
  GroupByConfig config;
  config.engine = Engine::kFpgaSim;
  config.output_mode = OutputMode::kPad;
  config.pad_fraction = 0.2;
  config.fanout = 64;
  auto out = PartitionedGroupBy(config, *rel);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto reference = HashGroupBy(*rel);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(out->groups, reference->groups);
}

}  // namespace
}  // namespace fpart
