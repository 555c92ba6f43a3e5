// Tests of the FPGA partitioner circuit (Section 4): functional
// equivalence with a reference partitioner across all modes, tuple widths
// and fan-outs; the no-internal-stall property; PAD overflow detection;
// VRID semantics; and throughput against the analytical model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/relation.h"
#include "datagen/tuple.h"
#include "datagen/workloads.h"
#include "datagen/zipf.h"
#include "fpga/partitioner.h"
#include "fpga/resource_model.h"
#include "model/cost_model.h"

namespace fpart {
namespace {

// Reference partition contents: multiset of (key, payload-id) per partition.
template <typename T>
std::vector<std::vector<std::pair<uint64_t, uint64_t>>> ReferencePartitions(
    const PartitionFn& fn, const T* tuples, size_t n) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> parts(fn.fanout());
  for (size_t i = 0; i < n; ++i) {
    uint32_t p;
    if constexpr (sizeof(tuples[i].key) == 4) {
      p = fn(tuples[i].key);
    } else {
      p = fn.Apply64(tuples[i].key);
    }
    parts[p].emplace_back(tuples[i].key, GetPayloadId(tuples[i]));
  }
  for (auto& part : parts) std::sort(part.begin(), part.end());
  return parts;
}

// Actual partition contents from the circuit's output, skipping dummies.
template <typename T>
std::vector<std::vector<std::pair<uint64_t, uint64_t>>> CollectPartitions(
    const PartitionedOutput<T>& out) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> parts(
      out.num_partitions());
  for (size_t p = 0; p < out.num_partitions(); ++p) {
    const T* data = out.partition_data(p);
    size_t real = 0;
    for (size_t i = 0; i < out.partition_slots(p); ++i) {
      if (IsDummy(data[i])) continue;
      parts[p].emplace_back(data[i].key, GetPayloadId(data[i]));
      ++real;
    }
    EXPECT_EQ(real, out.part(p).num_tuples) << "partition " << p;
    std::sort(parts[p].begin(), parts[p].end());
  }
  return parts;
}

template <typename T>
Relation<T> MakeRelation(size_t n, uint64_t seed) {
  auto rel = Relation<T>::Allocate(n);
  EXPECT_TRUE(rel.ok());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    T t{};
    TupleTraits<T>::SetKey(&t, rng.Next() & 0x7fffffffu);  // never dummy
    SetPayloadId(&t, i);
    (*rel)[i] = t;
  }
  return std::move(*rel);
}

template <typename T>
void ExpectEquivalent(const FpgaRunResult<T>& run, const PartitionFn& fn,
                      const T* tuples, size_t n) {
  auto expected = ReferencePartitions(fn, tuples, n);
  auto actual = CollectPartitions(run.output);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t p = 0; p < expected.size(); ++p) {
    ASSERT_EQ(expected[p], actual[p]) << "partition " << p;
  }
  EXPECT_EQ(run.output.total_tuples(), n);
  EXPECT_EQ(run.stats.internal_stall_cycles, 0u);
}

// ---------------------------------------------------------------------------
// Parameterized functional sweep: (mode, hash, fanout).
struct SweepParam {
  OutputMode mode;
  HashMethod hash;
  uint32_t fanout;
};

class FpgaSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FpgaSweepTest, Tuple8MatchesReference) {
  const SweepParam param = GetParam();
  FpgaPartitionerConfig config;
  config.fanout = param.fanout;
  config.output_mode = param.mode;
  config.hash = param.hash;
  // Generous padding: at fanout 1024 a 20k-tuple input has only ~20 tuples
  // per partition, where natural imbalance exceeds the default 50 %.
  config.pad_fraction = 2.0;
  auto rel = MakeRelation<Tuple8>(20000, 42);
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.Partition(rel.data(), rel.size());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  PartitionFn fn(param.hash, param.fanout);
  ExpectEquivalent(*run, fn, rel.data(), rel.size());
}

INSTANTIATE_TEST_SUITE_P(
    ModesHashesFanouts, FpgaSweepTest,
    ::testing::Values(
        SweepParam{OutputMode::kPad, HashMethod::kMurmur, 16},
        SweepParam{OutputMode::kPad, HashMethod::kMurmur, 64},
        SweepParam{OutputMode::kPad, HashMethod::kMurmur, 1024},
        SweepParam{OutputMode::kPad, HashMethod::kRadix, 64},
        SweepParam{OutputMode::kPad, HashMethod::kRadix, 1024},
        SweepParam{OutputMode::kHist, HashMethod::kMurmur, 16},
        SweepParam{OutputMode::kHist, HashMethod::kMurmur, 1024},
        SweepParam{OutputMode::kHist, HashMethod::kRadix, 64},
        SweepParam{OutputMode::kHist, HashMethod::kCrc32, 64},
        SweepParam{OutputMode::kPad, HashMethod::kMultiplicative, 64}),
    [](const auto& info) {
      return std::string(OutputModeName(info.param.mode)) + "_" +
             HashMethodName(info.param.hash) + "_" +
             std::to_string(info.param.fanout);
    });

// ---------------------------------------------------------------------------
// Every tuple width (Section 4.4).
template <typename T>
class FpgaWidthTest : public ::testing::Test {};
using AllWidths = ::testing::Types<Tuple8, Tuple16, Tuple32, Tuple64>;
TYPED_TEST_SUITE(FpgaWidthTest, AllWidths);

TYPED_TEST(FpgaWidthTest, PadRidMatchesReference) {
  FpgaPartitionerConfig config;
  config.fanout = 64;
  config.output_mode = OutputMode::kPad;
  auto rel = MakeRelation<TypeParam>(6000, 7);
  FpgaPartitioner<TypeParam> part(config);
  auto run = part.Partition(rel.data(), rel.size());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  PartitionFn fn(config.hash, config.fanout);
  ExpectEquivalent(*run, fn, rel.data(), rel.size());
}

TYPED_TEST(FpgaWidthTest, HistRidMatchesReference) {
  FpgaPartitionerConfig config;
  config.fanout = 32;
  config.output_mode = OutputMode::kHist;
  auto rel = MakeRelation<TypeParam>(4000, 11);
  FpgaPartitioner<TypeParam> part(config);
  auto run = part.Partition(rel.data(), rel.size());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  PartitionFn fn(config.hash, config.fanout);
  ExpectEquivalent(*run, fn, rel.data(), rel.size());
  // HIST histograms are exact.
  ASSERT_EQ(run->histogram.size(), config.fanout);
  auto expected = ReferencePartitions(fn, rel.data(), rel.size());
  for (uint32_t p = 0; p < config.fanout; ++p) {
    EXPECT_EQ(run->histogram[p], expected[p].size()) << p;
  }
}

// ---------------------------------------------------------------------------
// Edge cases.
TEST(FpgaPartitionerTest, EmptyInput) {
  FpgaPartitionerConfig config;
  config.fanout = 16;
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.Partition(nullptr, 0);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->output.total_tuples(), 0u);
}

TEST(FpgaPartitionerTest, NonCacheLineMultipleInput) {
  FpgaPartitionerConfig config;
  config.fanout = 16;
  auto rel = MakeRelation<Tuple8>(1003, 3);
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.Partition(rel.data(), rel.size());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  PartitionFn fn(config.hash, config.fanout);
  ExpectEquivalent(*run, fn, rel.data(), rel.size());
}

TEST(FpgaPartitionerTest, FanoutOne) {
  FpgaPartitionerConfig config;
  config.fanout = 1;
  auto rel = MakeRelation<Tuple8>(500, 3);
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.Partition(rel.data(), rel.size());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->output.part(0).num_tuples, 500u);
}

TEST(FpgaPartitionerTest, RejectsNonPowerOfTwoFanout) {
  FpgaPartitionerConfig config;
  config.fanout = 100;
  auto rel = MakeRelation<Tuple8>(64, 3);
  FpgaPartitioner<Tuple8> part(config);
  EXPECT_FALSE(part.Partition(rel.data(), rel.size()).ok());
}

TEST(FpgaPartitionerTest, RejectsOversizedFanout) {
  FpgaPartitionerConfig config;
  config.fanout = 16384;  // beyond the BRAM budget
  auto rel = MakeRelation<Tuple8>(64, 3);
  FpgaPartitioner<Tuple8> part(config);
  EXPECT_FALSE(part.Partition(rel.data(), rel.size()).ok());
}

TEST(FpgaPartitionerTest, LayoutModeMismatchErrors) {
  FpgaPartitionerConfig config;
  config.layout = LayoutMode::kVrid;
  auto rel = MakeRelation<Tuple8>(64, 3);
  FpgaPartitioner<Tuple8> part(config);
  EXPECT_FALSE(part.Partition(rel.data(), rel.size()).ok());
  config.layout = LayoutMode::kRid;
  FpgaPartitioner<Tuple8> part2(config);
  std::vector<uint32_t> keys(64, 1);
  EXPECT_FALSE(part2.PartitionColumn(keys.data(), keys.size()).ok());
}

// ---------------------------------------------------------------------------
// Skew handling (Section 5.4).
TEST(FpgaPartitionerTest, PadOverflowsUnderHeavySkew) {
  FpgaPartitionerConfig config;
  config.fanout = 16;
  config.output_mode = OutputMode::kPad;
  config.hash = HashMethod::kRadix;
  config.pad_fraction = 0.5;
  auto rel = Relation<Tuple8>::Allocate(10000);
  ASSERT_TRUE(rel.ok());
  for (size_t i = 0; i < rel->size(); ++i) {
    (*rel)[i] = Tuple8{16, static_cast<uint32_t>(i)};  // all → partition 0
  }
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.Partition(rel->data(), rel->size());
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsPartitionOverflow())
      << run.status().ToString();
}

TEST(FpgaPartitionerTest, HistHandlesSameSkewPadCannot) {
  FpgaPartitionerConfig config;
  config.fanout = 16;
  config.output_mode = OutputMode::kHist;
  config.hash = HashMethod::kRadix;
  auto rel = Relation<Tuple8>::Allocate(10000);
  ASSERT_TRUE(rel.ok());
  for (size_t i = 0; i < rel->size(); ++i) {
    (*rel)[i] = Tuple8{16, static_cast<uint32_t>(i)};
  }
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.Partition(rel->data(), rel->size());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->output.part(0).num_tuples, 10000u);
  EXPECT_EQ(run->histogram[0], 10000u);
}

TEST(FpgaPartitionerTest, LargerPaddingToleratesMoreSkew) {
  auto make_skewed = [] {
    auto rel = Relation<Tuple8>::Allocate(8000);
    EXPECT_TRUE(rel.ok());
    ZipfSampler zipf(1 << 20, 0.5, 9);
    for (size_t i = 0; i < rel->size(); ++i) {
      (*rel)[i] = Tuple8{static_cast<uint32_t>(zipf.Next()),
                         static_cast<uint32_t>(i)};
    }
    return std::move(*rel);
  };
  Relation<Tuple8> rel = make_skewed();
  FpgaPartitionerConfig config;
  config.fanout = 64;
  config.hash = HashMethod::kMurmur;
  config.output_mode = OutputMode::kPad;
  config.pad_fraction = 0.05;
  FpgaPartitioner<Tuple8> tight(config);
  auto tight_run = tight.Partition(rel.data(), rel.size());
  config.pad_fraction = 8.0;
  FpgaPartitioner<Tuple8> loose(config);
  auto loose_run = loose.Partition(rel.data(), rel.size());
  ASSERT_TRUE(loose_run.ok()) << loose_run.status().ToString();
  // The tight padding may or may not survive this Zipf draw; the loose one
  // must. If tight failed, it must have failed with the overflow code.
  if (!tight_run.ok()) {
    EXPECT_TRUE(tight_run.status().IsPartitionOverflow());
  }
}

// ---------------------------------------------------------------------------
// VRID mode (Section 4.5): payloads are virtual record ids.
TEST(FpgaPartitionerTest, VridAppendsRecordIds) {
  FpgaPartitionerConfig config;
  config.fanout = 64;
  config.layout = LayoutMode::kVrid;
  config.output_mode = OutputMode::kPad;
  const size_t n = 10000;
  std::vector<uint32_t> keys(n);
  Rng rng(5);
  for (auto& k : keys) k = rng.Next32() & 0x7fffffffu;
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.PartitionColumn(keys.data(), n);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->output.total_tuples(), n);
  // Every output tuple must be <keys[vrid], vrid>.
  PartitionFn fn(config.hash, config.fanout);
  size_t seen = 0;
  for (size_t p = 0; p < run->output.num_partitions(); ++p) {
    const Tuple8* data = run->output.partition_data(p);
    for (size_t i = 0; i < run->output.partition_slots(p); ++i) {
      if (IsDummy(data[i])) continue;
      ASSERT_LT(data[i].payload, n);
      EXPECT_EQ(data[i].key, keys[data[i].payload]);
      EXPECT_EQ(fn(data[i].key), p);
      ++seen;
    }
  }
  EXPECT_EQ(seen, n);
}

TEST(FpgaPartitionerTest, VridReadsHalfTheLines) {
  FpgaPartitionerConfig config;
  config.fanout = 64;
  config.output_mode = OutputMode::kPad;
  const size_t n = 16384;
  auto rel = MakeRelation<Tuple8>(n, 13);
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = rel[i].key;

  config.layout = LayoutMode::kRid;
  FpgaPartitioner<Tuple8> rid(config);
  auto rid_run = rid.Partition(rel.data(), n);
  ASSERT_TRUE(rid_run.ok());

  config.layout = LayoutMode::kVrid;
  FpgaPartitioner<Tuple8> vrid(config);
  auto vrid_run = vrid.PartitionColumn(keys.data(), n);
  ASSERT_TRUE(vrid_run.ok());

  EXPECT_EQ(rid_run->stats.read_lines, n / 8);
  EXPECT_EQ(vrid_run->stats.read_lines, n / 16);
  // Halving the read traffic raises end-to-end throughput (Section 4.7).
  EXPECT_GT(vrid_run->mtuples_per_sec, rid_run->mtuples_per_sec);
}

// ---------------------------------------------------------------------------
// The forwarding ablation: the stalling circuit is slower on
// same-partition runs but produces identical output.
TEST(FpgaPartitionerTest, StallPolicyCorrectButSlower) {
  FpgaPartitionerConfig config;
  config.fanout = 16;
  config.hash = HashMethod::kRadix;
  config.output_mode = OutputMode::kPad;
  config.link = LinkKind::kRawWrapper;  // expose the circuit, not the link
  auto rel = Relation<Tuple8>::Allocate(20000);
  ASSERT_TRUE(rel.ok());
  // Long same-partition runs: the worst case for a stalling pipeline.
  for (size_t i = 0; i < rel->size(); ++i) {
    (*rel)[i] = Tuple8{static_cast<uint32_t>((i / 64) % 16),
                       static_cast<uint32_t>(i)};
  }
  config.pad_fraction = 2.0;
  PartitionFn fn(config.hash, config.fanout);

  FpgaPartitioner<Tuple8> forward(config);
  auto fwd = forward.Partition(rel->data(), rel->size());
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  EXPECT_EQ(fwd->stats.internal_stall_cycles, 0u);

  FpgaPartitioner<Tuple8> stall(config);
  stall.set_hazard_policy(HazardPolicy::kStall);
  auto stl = stall.Partition(rel->data(), rel->size());
  ASSERT_TRUE(stl.ok()) << stl.status().ToString();
  EXPECT_GT(stl->stats.internal_stall_cycles, 0u);
  EXPECT_GT(stl->stats.cycles, fwd->stats.cycles);

  // Same functional result either way.
  auto a = CollectPartitions(fwd->output);
  auto b = CollectPartitions(stl->output);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Throughput: the simulated circuit reproduces the analytical model.
TEST(FpgaPartitionerTest, RawWrapperReachesCircuitRate) {
  // PAD/RID on the 25.6 GB/s wrapper: one cache line per cycle
  // ⇒ 1.6e9 tuples/s for 8 B tuples (Section 4.7).
  FpgaPartitionerConfig config;
  config.fanout = 256;
  config.output_mode = OutputMode::kPad;
  config.link = LinkKind::kRawWrapper;
  const size_t n = 1 << 21;
  auto rel = MakeRelation<Tuple8>(n, 21);
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.Partition(rel.data(), n);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->mtuples_per_sec, 1450.0);
  EXPECT_LE(run->mtuples_per_sec, 1650.0);
}

TEST(FpgaPartitionerTest, HistHalvesRawThroughput) {
  FpgaPartitionerConfig config;
  config.fanout = 256;
  config.output_mode = OutputMode::kHist;
  config.link = LinkKind::kRawWrapper;
  const size_t n = 1 << 21;
  auto rel = MakeRelation<Tuple8>(n, 22);
  FpgaPartitioner<Tuple8> part(config);
  auto run = part.Partition(rel.data(), n);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->mtuples_per_sec, 720.0);
  EXPECT_LT(run->mtuples_per_sec, 830.0);
}

TEST(FpgaPartitionerTest, QpiBoundThroughputNearModel) {
  // Section 4.8 validates the model at three read/write ratios: r = 2
  // (HIST/RID), 1 (PAD/RID) and 0.5 (PAD/VRID). HIST/VRID (r = 1 over
  // two passes) sits 14-20 % below the model and is not checked here
  // (EXPERIMENTS.md, "Section 4.8 model vs the cycle-exact engine").
  const size_t n = 1 << 21;
  auto rel = MakeRelation<Tuple8>(n, 23);
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = rel[i].key;
  for (auto [mode, layout] :
       {std::pair{OutputMode::kPad, LayoutMode::kRid},
        std::pair{OutputMode::kHist, LayoutMode::kRid},
        std::pair{OutputMode::kPad, LayoutMode::kVrid}}) {
    FpgaPartitionerConfig config;
    config.fanout = 1024;
    config.output_mode = mode;
    config.layout = layout;
    config.link = LinkKind::kXeonFpga;
    FpgaPartitioner<Tuple8> part(config);
    auto run = layout == LayoutMode::kVrid
                   ? part.PartitionColumn(keys.data(), n)
                   : part.Partition(rel.data(), n);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    FpgaCostModel model(8, config.fanout);
    double predicted = model.TotalRateTuplesPerSec(
        n, config.output_mode, config.layout, config.link);
    EXPECT_NEAR(run->mtuples_per_sec * 1e6, predicted, predicted * 0.12)
        << OutputModeName(mode) << "/" << LayoutModeName(layout);
  }
}

TEST(FpgaPartitionerTest, ObservedReadWriteRatioMatchesMode) {
  const size_t n = 1 << 20;
  auto rel = MakeRelation<Tuple8>(n, 31);
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = rel[i].key;

  auto ratio = [&](OutputMode mode, LayoutMode layout) {
    FpgaPartitionerConfig config;
    config.fanout = 256;
    config.output_mode = mode;
    config.layout = layout;
    FpgaPartitioner<Tuple8> part(config);
    auto run = layout == LayoutMode::kVrid
                   ? part.PartitionColumn(keys.data(), n)
                   : part.Partition(rel.data(), n);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run->read_write_ratio;
  };
  // Section 4.8: r = 2 (HIST/RID), 1 (HIST/VRID, PAD/RID), 0.5 (PAD/VRID).
  EXPECT_NEAR(ratio(OutputMode::kHist, LayoutMode::kRid), 2.0, 0.1);
  EXPECT_NEAR(ratio(OutputMode::kHist, LayoutMode::kVrid), 1.0, 0.1);
  EXPECT_NEAR(ratio(OutputMode::kPad, LayoutMode::kRid), 1.0, 0.1);
  EXPECT_NEAR(ratio(OutputMode::kPad, LayoutMode::kVrid), 0.5, 0.1);
}

// ---------------------------------------------------------------------------
// Resource model (Table 2).
TEST(ResourceModelTest, ReproducesTable2) {
  struct Row {
    int width, logic, bram, dsp;
  };
  const Row table2[] = {
      {8, 37, 76, 14}, {16, 28, 42, 21}, {32, 27, 24, 11}, {64, 27, 15, 6}};
  for (const Row& row : table2) {
    ResourceUsage usage = EstimateResources(row.width, 8192);
    EXPECT_NEAR(usage.logic_pct, row.logic, 1.5) << "W=" << row.width;
    EXPECT_NEAR(usage.bram_pct, row.bram, 1.5) << "W=" << row.width;
    EXPECT_NEAR(usage.dsp_pct, row.dsp, 1.5) << "W=" << row.width;
  }
}

TEST(ResourceModelTest, BramScalesWithFanout) {
  EXPECT_LT(EstimateResources(8, 1024).bram_pct,
            EstimateResources(8, 8192).bram_pct);
}

}  // namespace
}  // namespace fpart
