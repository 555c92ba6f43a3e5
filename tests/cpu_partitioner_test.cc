// Tests for the CPU software partitioners (Section 3): naive (Code 1),
// software-managed buffers (Code 2), parallel execution and non-temporal
// stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "cpu/partitioner.h"
#include "datagen/relation.h"
#include "datagen/workloads.h"

namespace fpart {
namespace {

template <typename T>
Relation<T> MakeRelation(size_t n, uint64_t seed) {
  auto rel = Relation<T>::Allocate(n);
  EXPECT_TRUE(rel.ok());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    T t{};
    TupleTraits<T>::SetKey(&t, rng.Next() & 0x7fffffffu);
    SetPayloadId(&t, i);
    (*rel)[i] = t;
  }
  return std::move(*rel);
}

// Verify output against a reference computation.
template <typename T>
void ExpectCorrect(const CpuRunResult<T>& run, const PartitionFn& fn,
                   const T* tuples, size_t n) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> expected(
      fn.fanout());
  for (size_t i = 0; i < n; ++i) {
    uint32_t p;
    if constexpr (sizeof(tuples[i].key) == 4) {
      p = fn(tuples[i].key);
    } else {
      p = fn.Apply64(tuples[i].key);
    }
    expected[p].emplace_back(tuples[i].key, GetPayloadId(tuples[i]));
  }
  uint64_t total = 0;
  for (uint32_t p = 0; p < fn.fanout(); ++p) {
    std::sort(expected[p].begin(), expected[p].end());
    ASSERT_EQ(run.output.part(p).num_tuples, expected[p].size()) << p;
    ASSERT_EQ(run.histogram[p], expected[p].size()) << p;
    const T* data = run.output.partition_data(p);
    std::vector<std::pair<uint64_t, uint64_t>> actual;
    for (size_t i = 0; i < run.output.part(p).num_tuples; ++i) {
      actual.emplace_back(data[i].key, GetPayloadId(data[i]));
    }
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual, expected[p]) << "partition " << p;
    total += expected[p].size();
  }
  EXPECT_EQ(total, n);
}

// gtest names each case after the raw bytes of its parameter, so the
// struct spells out what would otherwise be padding and zeroes it: padding
// would carry stack garbage into the test names, different on every run.
struct CpuParam {
  bool use_buffers;
  bool non_temporal;
  uint8_t unused0[6];
  size_t threads;
  HashMethod hash;
  uint32_t unused1;
};
static_assert(std::has_unique_object_representations_v<CpuParam>,
              "CpuParam must have no padding");

CpuParam MakeCpuParam(bool use_buffers, bool non_temporal, size_t threads,
                      HashMethod hash) {
  return CpuParam{use_buffers, non_temporal, {}, threads, hash, 0};
}

class CpuSweepTest : public ::testing::TestWithParam<CpuParam> {};

TEST_P(CpuSweepTest, MatchesReference) {
  const CpuParam param = GetParam();
  CpuPartitionerConfig config;
  config.fanout = 128;
  config.hash = param.hash;
  config.num_threads = param.threads;
  config.use_buffers = param.use_buffers;
  config.non_temporal = param.non_temporal;
  auto rel = MakeRelation<Tuple8>(30000, 17);
  auto run = CpuPartition(config, rel.data(), rel.size());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  PartitionFn fn(param.hash, config.fanout);
  ExpectCorrect(*run, fn, rel.data(), rel.size());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CpuSweepTest,
    ::testing::Values(MakeCpuParam(false, false, 1, HashMethod::kRadix),
                      MakeCpuParam(true, false, 1, HashMethod::kRadix),
                      MakeCpuParam(true, true, 1, HashMethod::kRadix),
                      MakeCpuParam(true, true, 1, HashMethod::kMurmur),
                      MakeCpuParam(true, true, 4, HashMethod::kRadix),
                      MakeCpuParam(true, true, 4, HashMethod::kMurmur),
                      MakeCpuParam(false, false, 4, HashMethod::kMurmur),
                      MakeCpuParam(true, true, 3, HashMethod::kCrc32)),
    [](const auto& info) {
      return std::string(info.param.use_buffers ? "swwc" : "naive") +
             (info.param.non_temporal ? "_nt" : "") + "_t" +
             std::to_string(info.param.threads) + "_" +
             HashMethodName(info.param.hash);
    });

template <typename T>
class CpuWidthTest : public ::testing::Test {};
using AllWidths = ::testing::Types<Tuple8, Tuple16, Tuple32, Tuple64>;
TYPED_TEST_SUITE(CpuWidthTest, AllWidths);

TYPED_TEST(CpuWidthTest, AllTupleWidths) {
  CpuPartitionerConfig config;
  config.fanout = 64;
  config.num_threads = 2;
  auto rel = MakeRelation<TypeParam>(8000, 29);
  auto run = CpuPartition(config, rel.data(), rel.size());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  PartitionFn fn(config.hash, config.fanout);
  ExpectCorrect(*run, fn, rel.data(), rel.size());
}

TEST(CpuPartitionerTest, EmptyInput) {
  CpuPartitionerConfig config;
  config.fanout = 16;
  auto run = CpuPartition<Tuple8>(config, nullptr, 0);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->output.total_tuples(), 0u);
}

TEST(CpuPartitionerTest, RejectsNonPowerOfTwoFanout) {
  CpuPartitionerConfig config;
  config.fanout = 77;
  auto rel = MakeRelation<Tuple8>(64, 3);
  EXPECT_FALSE(CpuPartition(config, rel.data(), rel.size()).ok());
}

TEST(CpuPartitionerTest, ThreadsProduceSamePartitionsAsSingle) {
  auto rel = MakeRelation<Tuple8>(50000, 41);
  CpuPartitionerConfig config;
  config.fanout = 256;
  config.num_threads = 1;
  auto single = CpuPartition(config, rel.data(), rel.size());
  ASSERT_TRUE(single.ok());
  config.num_threads = 6;
  auto multi = CpuPartition(config, rel.data(), rel.size());
  ASSERT_TRUE(multi.ok());
  for (uint32_t p = 0; p < config.fanout; ++p) {
    ASSERT_EQ(single->histogram[p], multi->histogram[p]);
    // Multisets per partition must agree (order may differ).
    std::vector<uint64_t> a, b;
    for (size_t i = 0; i < single->output.part(p).num_tuples; ++i) {
      a.push_back(single->output.partition_data(p)[i].key);
      b.push_back(multi->output.partition_data(p)[i].key);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << p;
  }
}

TEST(CpuPartitionerTest, SharedPoolIsReusable) {
  ThreadPool pool(4);
  CpuPartitionerConfig config;
  config.fanout = 64;
  config.num_threads = 4;
  config.pool = &pool;
  auto rel = MakeRelation<Tuple8>(10000, 47);
  for (int round = 0; round < 3; ++round) {
    auto run = CpuPartition(config, rel.data(), rel.size());
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->output.total_tuples(), rel.size());
  }
}

TEST(CpuPartitionerTest, PartitionsAreCacheLineAligned) {
  CpuPartitionerConfig config;
  config.fanout = 32;
  auto rel = MakeRelation<Tuple8>(5000, 53);
  auto run = CpuPartition(config, rel.data(), rel.size());
  ASSERT_TRUE(run.ok());
  for (uint32_t p = 0; p < config.fanout; ++p) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(run->output.partition_data(p)) %
                  kCacheLineSize,
              0u);
  }
}

}  // namespace
}  // namespace fpart
