// Unit tests for src/datagen: tuples, relations, key distributions, Zipf,
// Table 4 workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "datagen/distribution.h"
#include "datagen/partitioned_output.h"
#include "datagen/relation.h"
#include "datagen/tuple.h"
#include "datagen/workloads.h"
#include "datagen/zipf.h"

namespace fpart {
namespace {

TEST(TupleTest, WidthsAndTuplesPerLine) {
  EXPECT_EQ(TupleTraits<Tuple8>::kTuplesPerCacheLine, 8);
  EXPECT_EQ(TupleTraits<Tuple16>::kTuplesPerCacheLine, 4);
  EXPECT_EQ(TupleTraits<Tuple32>::kTuplesPerCacheLine, 2);
  EXPECT_EQ(TupleTraits<Tuple64>::kTuplesPerCacheLine, 1);
}

TEST(TupleTest, DummyRoundTrip) {
  auto d8 = MakeDummyTuple<Tuple8>();
  auto d64 = MakeDummyTuple<Tuple64>();
  EXPECT_TRUE(IsDummy(d8));
  EXPECT_TRUE(IsDummy(d64));
  Tuple8 real{42, 0};
  EXPECT_FALSE(IsDummy(real));
}

TEST(TupleTest, PayloadIdAllWidths) {
  Tuple8 t8{};
  SetPayloadId(&t8, 123);
  EXPECT_EQ(GetPayloadId(t8), 123u);
  Tuple32 t32{};
  SetPayloadId(&t32, 1ull << 40);
  EXPECT_EQ(GetPayloadId(t32), 1ull << 40);
  Tuple64 t64{};
  SetPayloadId(&t64, 7);
  EXPECT_EQ(GetPayloadId(t64), 7u);
}

TEST(RelationTest, AllocateAndAccess) {
  auto rel = Relation<Tuple8>::Allocate(100);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 100u);
  EXPECT_EQ(rel->size_bytes(), 800u);
  (*rel)[5] = Tuple8{17, 21};
  EXPECT_EQ((*rel)[5].key, 17u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(rel->data()) % kCacheLineSize, 0u);
}

TEST(ColumnRelationTest, SeparateArrays) {
  auto rel = ColumnRelation<uint32_t>::Allocate(64);
  ASSERT_TRUE(rel.ok());
  rel->keys()[3] = 99;
  rel->payloads()[3] = 7;
  EXPECT_EQ(rel->keys()[3], 99u);
  EXPECT_EQ(rel->payloads()[3], 7u);
}

TEST(DistributionTest, LinearIsSequentialFromOne) {
  KeyGenerator gen(KeyDistribution::kLinear);
  for (uint32_t i = 1; i <= 1000; ++i) EXPECT_EQ(gen.Next(), i);
}

TEST(DistributionTest, RandomIsSeededDeterministic) {
  KeyGenerator a(KeyDistribution::kRandom, 5);
  KeyGenerator b(KeyDistribution::kRandom, 5);
  KeyGenerator c(KeyDistribution::kRandom, 6);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint32_t ka = a.Next();
    EXPECT_EQ(ka, b.Next());
    any_diff |= (ka != c.Next());
  }
  EXPECT_TRUE(any_diff);
}

TEST(DistributionTest, GridBytesStayIn1To128) {
  KeyGenerator gen(KeyDistribution::kGrid);
  for (int i = 0; i < 200000; ++i) {
    uint32_t k = gen.Next();
    for (int b = 0; b < 4; ++b) {
      uint8_t byte = (k >> (8 * b)) & 0xff;
      ASSERT_GE(byte, 1) << "key " << k;
      ASSERT_LE(byte, 128) << "key " << k;
    }
  }
}

TEST(DistributionTest, GridEnumerationStartsCorrectly) {
  // First keys: 0x01010101, 0x01010102, ..., then carry at 128.
  KeyGenerator gen(KeyDistribution::kGrid);
  EXPECT_EQ(gen.Next(), 0x01010101u);
  EXPECT_EQ(gen.Next(), 0x01010102u);
  for (int i = 0; i < 125; ++i) gen.Next();
  EXPECT_EQ(gen.Next(), 0x01010180u);  // byte reaches 128
  EXPECT_EQ(gen.Next(), 0x01010201u);  // carry: LSB resets to 1
}

TEST(DistributionTest, ReverseGridIncrementsMsbFirst) {
  KeyGenerator gen(KeyDistribution::kReverseGrid);
  EXPECT_EQ(gen.Next(), 0x01010101u);
  EXPECT_EQ(gen.Next(), 0x02010101u);
  EXPECT_EQ(gen.Next(), 0x03010101u);
}

TEST(DistributionTest, GridKeysAreUnique) {
  KeyGenerator gen(KeyDistribution::kGrid);
  std::unordered_set<uint32_t> seen;
  for (int i = 0; i < 100000; ++i) EXPECT_TRUE(seen.insert(gen.Next()).second);
}

TEST(DistributionTest, ReverseGridKeysAreUnique) {
  KeyGenerator gen(KeyDistribution::kReverseGrid);
  std::unordered_set<uint32_t> seen;
  for (int i = 0; i < 100000; ++i) EXPECT_TRUE(seen.insert(gen.Next()).second);
}

TEST(DistributionTest, Names) {
  EXPECT_STREQ(KeyDistributionName(KeyDistribution::kLinear), "linear");
  EXPECT_STREQ(KeyDistributionName(KeyDistribution::kReverseGrid), "rev-grid");
}

TEST(ZipfTest, UniformWhenZeroExponent) {
  ZipfSampler zipf(100, 0.0, 3);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next()];
  for (int r = 1; r <= 100; ++r) {
    EXPECT_NEAR(counts[r], 1000, 250) << "rank " << r;
  }
}

TEST(ZipfTest, RanksStayInRange) {
  for (double z : {0.25, 0.75, 1.0, 1.5}) {
    ZipfSampler zipf(1000, z, 11);
    for (int i = 0; i < 20000; ++i) {
      uint64_t r = zipf.Next();
      ASSERT_GE(r, 1u);
      ASSERT_LE(r, 1000u);
    }
  }
}

TEST(ZipfTest, FrequencyFollowsPowerLaw) {
  // With exponent z, count(rank 1)/count(rank 2) ≈ 2^z.
  ZipfSampler zipf(10000, 1.0, 17);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 400000; ++i) ++counts[zipf.Next()];
  double ratio12 = static_cast<double>(counts[1]) / counts[2];
  EXPECT_NEAR(ratio12, 2.0, 0.35);
  double ratio14 = static_cast<double>(counts[1]) / counts[4];
  EXPECT_NEAR(ratio14, 4.0, 0.8);
}

TEST(ZipfTest, HigherSkewConcentratesMass) {
  auto top_share = [](double z) {
    ZipfSampler zipf(100000, z, 23);
    int top = 0;
    const int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) {
      if (zipf.Next() <= 10) ++top;
    }
    return static_cast<double>(top) / kDraws;
  };
  double s025 = top_share(0.25);
  double s100 = top_share(1.0);
  double s175 = top_share(1.75);
  EXPECT_LT(s025, s100);
  EXPECT_LT(s100, s175);
  EXPECT_GT(s175, 0.5);  // heavy skew: top-10 ranks dominate
}

TEST(FeistelTest, IsInjective) {
  std::unordered_set<uint32_t> seen;
  for (uint32_t i = 0; i < 200000; ++i) {
    EXPECT_TRUE(seen.insert(Feistel32(i, 99)).second) << i;
  }
}

TEST(FeistelTest, SeedChangesPermutation) {
  int diff = 0;
  for (uint32_t i = 0; i < 1000; ++i) {
    if (Feistel32(i, 1) != Feistel32(i, 2)) ++diff;
  }
  EXPECT_GT(diff, 990);
}

TEST(WorkloadTest, SpecsMatchTable4) {
  auto a = GetWorkloadSpec(WorkloadId::kA);
  EXPECT_EQ(a.num_r, 128000000u);
  EXPECT_EQ(a.num_s, 128000000u);
  EXPECT_EQ(a.dist, KeyDistribution::kLinear);
  auto b = GetWorkloadSpec(WorkloadId::kB);
  EXPECT_EQ(b.num_r, 16u << 20);
  EXPECT_EQ(b.num_s, 256u << 20);
  auto e = GetWorkloadSpec(WorkloadId::kE);
  EXPECT_EQ(e.dist, KeyDistribution::kReverseGrid);
}

TEST(WorkloadTest, ScaleShrinksSizes) {
  auto a = GetWorkloadSpec(WorkloadId::kA, 1.0 / 128);
  EXPECT_EQ(a.num_r, 1000000u);
}

TEST(WorkloadTest, UniqueRelationHasUniqueKeys) {
  for (KeyDistribution d :
       {KeyDistribution::kLinear, KeyDistribution::kRandom,
        KeyDistribution::kGrid, KeyDistribution::kReverseGrid}) {
    auto rel = GenerateUniqueRelation(50000, d, 3);
    ASSERT_TRUE(rel.ok());
    std::unordered_set<uint32_t> keys;
    for (const auto& t : *rel) {
      EXPECT_TRUE(keys.insert(t.key).second)
          << KeyDistributionName(d) << " key " << t.key;
      EXPECT_NE(t.key, static_cast<uint32_t>(kDummyKey));
    }
  }
}

TEST(WorkloadTest, LinearRelationIsShuffled) {
  auto rel = GenerateUniqueRelation(10000, KeyDistribution::kLinear, 3);
  ASSERT_TRUE(rel.ok());
  int in_place = 0;
  for (size_t i = 0; i < rel->size(); ++i) {
    if ((*rel)[i].key == i + 1) ++in_place;
  }
  EXPECT_LT(in_place, 100);  // a shuffled permutation has few fixed points
}

TEST(WorkloadTest, SKeysAllReferenceR) {
  WorkloadSpec spec = GetWorkloadSpec(WorkloadId::kC, 1e-4);  // 12.8k tuples
  auto input = GenerateWorkload(spec, 5);
  ASSERT_TRUE(input.ok());
  std::unordered_set<uint32_t> r_keys;
  for (const auto& t : input->r) r_keys.insert(t.key);
  for (const auto& t : input->s) {
    ASSERT_TRUE(r_keys.count(t.key)) << t.key;
  }
}

TEST(WorkloadTest, ZipfWorkloadSkewsSKeys) {
  WorkloadSpec spec = GetWorkloadSpec(WorkloadId::kA, 1e-4);
  spec.zipf = 1.5;
  auto input = GenerateWorkload(spec, 5);
  ASSERT_TRUE(input.ok());
  std::map<uint32_t, int> counts;
  for (const auto& t : input->s) ++counts[t.key];
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  // Under heavy Zipf, one key dominates far beyond the uniform share of 1.
  EXPECT_GT(max_count, static_cast<int>(input->s.size()) / 20);
}

TEST(WorkloadTest, RejectsEmptyWorkload) {
  WorkloadSpec spec = GetWorkloadSpec(WorkloadId::kA, 1.0);
  spec.num_r = 0;
  EXPECT_FALSE(GenerateWorkload(spec).ok());
}

TEST(PartitionedOutputTest, LayoutIsContiguous) {
  auto out = PartitionedOutput<Tuple8>::Allocate({2, 0, 3});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_partitions(), 3u);
  EXPECT_EQ(out->part(0).base_cl, 0u);
  EXPECT_EQ(out->part(1).base_cl, 2u);
  EXPECT_EQ(out->part(2).base_cl, 2u);
  EXPECT_EQ(out->total_cls(), 5u);
}

TEST(PartitionedOutputTest, SlotsFollowWrittenLines) {
  auto out = PartitionedOutput<Tuple16>::Allocate({4});
  ASSERT_TRUE(out.ok());
  out->part(0).written_cls = 3;
  EXPECT_EQ(out->partition_slots(0), 12u);  // 3 lines × 4 tuples
}

TEST(PartitionedOutputTest, CopySharesStorageAndDetachesOnWrite) {
  auto out = PartitionedOutput<Tuple8>::Allocate({2, 3});
  ASSERT_TRUE(out.ok());
  PartitionedOutput<Tuple8> original = std::move(*out);
  original.part(1).num_tuples = 5;
  original.partition_data(1)[0] = Tuple8{42, 7};

  obs::Counter* copied = PartitionedOutput<Tuple8>::CopiedBytesCounter();
  const uint64_t copied_before = copied->Value();
  PartitionedOutput<Tuple8> copy = original;
  const PartitionedOutput<Tuple8>& view = copy;
  EXPECT_EQ(view.line(0), std::as_const(original).line(0));
  EXPECT_EQ(copied->Value(), copied_before);

  // The first write through the copy detaches it; the original keeps its
  // bytes and metadata, and later writes reuse the private storage.
  copy.partition_data(1)[0] = Tuple8{1, 1};
  copy.part(1).num_tuples = 9;
  EXPECT_NE(view.line(0), std::as_const(original).line(0));
  EXPECT_EQ(copied->Value() - copied_before,
            5 * kCacheLineSize + 2 * sizeof(PartitionInfo));
  copy.line(0)[0] = 1;
  EXPECT_EQ(copied->Value() - copied_before,
            5 * kCacheLineSize + 2 * sizeof(PartitionInfo));
  EXPECT_EQ(std::as_const(original).partition_data(1)[0].key, 42u);
  EXPECT_EQ(std::as_const(original).part(1).num_tuples, 5u);
  EXPECT_EQ(view.part(1).num_tuples, 9u);
  EXPECT_EQ(view.part(0).base_cl, 0u);
  EXPECT_EQ(view.partition_data(1)[0].key, 1u);
}

TEST(PartitionedOutputTest, LastOwnerWritesInPlaceAfterReadersRelease) {
  // Readers on other threads read their copies, then drop them. Once every
  // copy is gone the owner writes in place (nothing is copied); the
  // reference count's release/acquire pairing orders the readers' reads
  // before those writes, which TSan (scripts/check.sh) checks. The writes
  // are per element because GCC 12's TSan does not flag races via memset.
  constexpr int kReaders = 4;
  constexpr size_t kTuples = 64 * TupleTraits<Tuple8>::kTuplesPerCacheLine;
  auto out = PartitionedOutput<Tuple8>::Allocate({64});
  ASSERT_TRUE(out.ok());
  PartitionedOutput<Tuple8> owner = std::move(*out);
  for (size_t i = 0; i < kTuples; ++i) owner.partition_data(0)[i] = {1, 1};
  owner.part(0).num_tuples = kTuples;
  obs::Counter* copied = PartitionedOutput<Tuple8>::CopiedBytesCounter();
  const uint64_t copied_before = copied->Value();

  std::atomic<int> released{0};
  std::vector<uint64_t> sums(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t, copy = owner]() mutable {
      const PartitionedOutput<Tuple8>& view = copy;
      for (size_t i = 0; i < view.part(0).num_tuples; ++i) {
        sums[t] += view.partition_data(0)[i].key;
      }
      copy = PartitionedOutput<Tuple8>();
      // Relaxed on purpose: only the reference count may order the reads.
      released.fetch_add(1, std::memory_order_relaxed);
    });
  }
  while (released.load(std::memory_order_relaxed) < kReaders) {
    std::this_thread::yield();
  }
  for (size_t i = 0; i < kTuples; ++i) owner.partition_data(0)[i] = {2, 2};
  owner.part(0).num_tuples = 0;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(copied->Value(), copied_before);
  for (uint64_t sum : sums) EXPECT_EQ(sum, kTuples);
}

}  // namespace
}  // namespace fpart
