// End-to-end parity of the fused SIMD partitioning path: CpuPartition with
// use_simd on must produce byte-identical PartitionedOutput (including the
// dummy padding of each partition's last cache line) to the PR-1 scalar
// path, across fanouts, tuple widths, thread counts, both scatter codes
// (Code 1 direct / Code 2 buffered), and prefetch distances.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "cpu/partitioner.h"
#include "datagen/relation.h"

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

// Assert the two runs are observationally identical: same histogram, same
// partition metadata, and the same bytes in every written slot (real
// tuples and dummy padding alike).
template <typename T>
void ExpectIdenticalOutput(const CpuRunResult<T>& a, const CpuRunResult<T>& b) {
  ASSERT_EQ(a.histogram, b.histogram);
  ASSERT_EQ(a.output.num_partitions(), b.output.num_partitions());
  ASSERT_EQ(a.output.total_cls(), b.output.total_cls());
  for (size_t p = 0; p < a.output.num_partitions(); ++p) {
    ASSERT_EQ(a.output.part(p).base_cl, b.output.part(p).base_cl) << p;
    ASSERT_EQ(a.output.part(p).written_cls, b.output.part(p).written_cls) << p;
    ASSERT_EQ(a.output.part(p).num_tuples, b.output.part(p).num_tuples) << p;
    ASSERT_EQ(a.output.partition_slots(p), b.output.partition_slots(p)) << p;
    ASSERT_EQ(std::memcmp(a.output.partition_data(p),
                          b.output.partition_data(p),
                          a.output.partition_slots(p) * sizeof(T)),
              0)
        << "partition " << p << " bytes differ";
  }
}

// gtest prints a parameter's raw bytes into each test's listed name, so the
// padding is spelled out as zeroed members to keep the names stable.
struct ParityParam {
  uint32_t fanout;
  uint32_t unused0;
  size_t threads;
  bool use_buffers;
  uint8_t unused1[3];
  HashMethod hash;
};
static_assert(std::has_unique_object_representations_v<ParityParam>,
              "ParityParam must have no padding");

ParityParam MakeParityParam(uint32_t fanout, size_t threads, bool use_buffers,
                            HashMethod hash) {
  return ParityParam{fanout, 0, threads, use_buffers, {}, hash};
}

template <typename T>
void RunParity(const ParityParam& param) {
  auto rel = MakeRelation<T>(120000, 23 + param.fanout);
  CpuPartitionerConfig scalar;
  scalar.fanout = param.fanout;
  scalar.hash = param.hash;
  scalar.num_threads = param.threads;
  scalar.use_buffers = param.use_buffers;
  scalar.use_simd = false;
  CpuPartitionerConfig fused = scalar;
  fused.use_simd = true;
  auto a = CpuPartition(scalar, rel.data(), rel.size());
  auto b = CpuPartition(fused, rel.data(), rel.size());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectIdenticalOutput(*a, *b);
  ASSERT_EQ(b->output.total_tuples(), rel.size());
}

class SimdPartitionParityTest : public ::testing::TestWithParam<ParityParam> {
};

TEST_P(SimdPartitionParityTest, Tuple8ByteIdentical) {
  RunParity<Tuple8>(GetParam());
}

TEST_P(SimdPartitionParityTest, Tuple16ByteIdentical) {
  RunParity<Tuple16>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimdPartitionParityTest,
    ::testing::Values(
        // The acceptance fanouts, both scatter codes, single and multi
        // threaded (multi-thread exercises the mid-line cursor re-align).
        MakeParityParam(64, 1, true, HashMethod::kRadix),
        MakeParityParam(64, 4, true, HashMethod::kRadix),
        MakeParityParam(8192, 1, true, HashMethod::kRadix),
        MakeParityParam(8192, 4, true, HashMethod::kRadix),
        MakeParityParam(8192, 1, false, HashMethod::kRadix),
        MakeParityParam(8192, 4, false, HashMethod::kRadix),
        MakeParityParam(64, 4, false, HashMethod::kMurmur),
        MakeParityParam(8192, 4, true, HashMethod::kMurmur),
        MakeParityParam(1024, 3, true, HashMethod::kCrc32),
        MakeParityParam(1024, 2, true, HashMethod::kMultiplicative)),
    [](const auto& info) {
      return std::string(HashMethodName(info.param.hash)) + "_f" +
             std::to_string(info.param.fanout) + "_t" +
             std::to_string(info.param.threads) +
             (info.param.use_buffers ? "_buf" : "_direct");
    });

TEST(SimdPartitionTest, PrefetchDistanceDoesNotChangeOutput) {
  auto rel = MakeRelation<Tuple8>(60000, 91);
  CpuPartitionerConfig config;
  config.fanout = 512;
  config.num_threads = 2;
  Result<CpuRunResult<Tuple8>> reference =
      CpuPartition(config, rel.data(), rel.size());
  ASSERT_TRUE(reference.ok());
  for (uint32_t dist : {0u, 1u, 4u, 64u, 1000u}) {
    config.prefetch_distance = dist;
    auto run = CpuPartition(config, rel.data(), rel.size());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectIdenticalOutput(*reference, *run);
  }
}

TEST(SimdPartitionTest, RangePartitioningWithSimdEnabled) {
  // kRange has no vector kernel; use_simd must still give correct output
  // through the fused path's scalar batch fallback.
  auto rel = MakeRelation<Tuple8>(40000, 7);
  CpuPartitionerConfig config;
  config.fanout = 8;
  config.hash = HashMethod::kRange;
  config.range_splitters = {0x10000000, 0x20000000, 0x30000000, 0x40000000,
                            0x50000000, 0x60000000, 0x70000000};
  config.num_threads = 2;
  config.use_simd = false;
  auto a = CpuPartition(config, rel.data(), rel.size());
  config.use_simd = true;
  auto b = CpuPartition(config, rel.data(), rel.size());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectIdenticalOutput(*a, *b);
}

TEST(SimdPartitionTest, WideFanoutUsesWideIndices) {
  // Fanout above 2^16 switches the index scratch from uint16_t to
  // uint32_t; pin that path against the scalar reference too.
  auto rel = MakeRelation<Tuple8>(80000, 41);
  CpuPartitionerConfig config;
  config.fanout = uint32_t{1} << 17;
  config.num_threads = 2;
  config.use_simd = false;
  auto a = CpuPartition(config, rel.data(), rel.size());
  config.use_simd = true;
  auto b = CpuPartition(config, rel.data(), rel.size());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectIdenticalOutput(*a, *b);
}

TEST(SimdPartitionTest, TinyAndEmptyInputs) {
  CpuPartitionerConfig config;
  config.fanout = 8192;
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{1023},
                   size_t{1025}}) {
    auto rel = MakeRelation<Tuple8>(n, 3 + n);
    config.use_simd = false;
    auto a = CpuPartition(config, rel.data(), rel.size());
    config.use_simd = true;
    auto b = CpuPartition(config, rel.data(), rel.size());
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalOutput(*a, *b);
    ASSERT_EQ(b->output.total_tuples(), n);
  }
}

}  // namespace
}  // namespace fpart
