// Unit tests for src/hash: murmur finalizers, radix extraction, the
// PartitionFn family, CRC32-C.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "hash/hash_function.h"
#include "hash/murmur.h"
#include "hash/radix.h"

namespace fpart {
namespace {

TEST(MurmurTest, KnownVectors32) {
  // fmix32 is a bijection with well-known fixed values.
  EXPECT_EQ(Murmur32(0u), 0u);  // 0 is murmur3 fmix32's fixed point
  EXPECT_NE(Murmur32(1u), 1u);
  EXPECT_NE(Murmur32(1u), Murmur32(2u));
}

TEST(MurmurTest, Deterministic) {
  for (uint32_t k : {1u, 2u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(Murmur32(k), Murmur32(k));
  }
  for (uint64_t k : {1ull, 42ull, ~0ull}) {
    EXPECT_EQ(Murmur64(k), Murmur64(k));
  }
}

TEST(MurmurTest, IsInjectiveOnSample) {
  // The finalizer is a bijection; consecutive inputs must not collide.
  std::set<uint32_t> seen32;
  for (uint32_t k = 0; k < 100000; ++k) seen32.insert(Murmur32(k));
  EXPECT_EQ(seen32.size(), 100000u);
  std::set<uint64_t> seen64;
  for (uint64_t k = 0; k < 100000; ++k) seen64.insert(Murmur64(k));
  EXPECT_EQ(seen64.size(), 100000u);
}

TEST(MurmurTest, AvalancheMixesLowBits) {
  // Consecutive keys should land in different low-bit buckets often.
  int same_bucket = 0;
  for (uint32_t k = 0; k < 10000; ++k) {
    if ((Murmur32(k) & 0xff) == (Murmur32(k + 1) & 0xff)) ++same_bucket;
  }
  // Random chance is ~1/256 ≈ 39 of 10000.
  EXPECT_LT(same_bucket, 120);
}

TEST(RadixTest, ExtractsLsbs) {
  EXPECT_EQ(RadixBits(0b101101, 3), 0b101u);
  EXPECT_EQ(RadixBits(0b101101, 0), 0u);
  EXPECT_EQ(RadixBits(0xffffffffffffffffull, 64), 0xffffffffu);
}

TEST(RadixTest, FanoutBits) {
  EXPECT_EQ(FanoutBits(1), 0);
  EXPECT_EQ(FanoutBits(2), 1);
  EXPECT_EQ(FanoutBits(8192), 13);
}

TEST(RadixTest, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(8192));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(8191));
}

TEST(Crc32Test, DeterministicAndSpreads) {
  EXPECT_EQ(Crc32c64(42), Crc32c64(42));
  std::set<uint32_t> seen;
  for (uint64_t k = 0; k < 10000; ++k) seen.insert(Crc32c64(k));
  EXPECT_GT(seen.size(), 9990u);  // CRC of distinct inputs rarely collides
}

class PartitionFnTest : public ::testing::TestWithParam<HashMethod> {};

TEST_P(PartitionFnTest, IndexAlwaysInRange) {
  PartitionFn fn(GetParam(), 64);
  for (uint32_t k = 0; k < 50000; ++k) {
    EXPECT_LT(fn(k * 2654435761u), 64u);
    EXPECT_LT(fn.Apply64(k * 0x9e3779b97f4a7c15ULL), 64u);
  }
}

TEST_P(PartitionFnTest, FanoutOneMapsEverythingToZero) {
  PartitionFn fn(GetParam(), 1);
  for (uint32_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(fn(k), 0u);
    EXPECT_EQ(fn.Apply64(k), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, PartitionFnTest,
                         ::testing::Values(HashMethod::kRadix,
                                           HashMethod::kMurmur,
                                           HashMethod::kMultiplicative,
                                           HashMethod::kCrc32),
                         [](const auto& info) {
                           return HashMethodName(info.param);
                         });

TEST(PartitionFnTest, RadixUsesLsbsDirectly) {
  PartitionFn fn(HashMethod::kRadix, 8192);
  EXPECT_EQ(fn(0x12345678u), 0x12345678u & 8191u);
  EXPECT_EQ(fn.Apply64(0x12345678u), 0x12345678ull & 8191u);
}

TEST(PartitionFnTest, MurmurSpreadsGridKeysRadixDoesNot) {
  // The Section 3.2 motivation in miniature: grid-like keys (multiples of
  // 256) collapse under radix partitioning but spread under murmur.
  PartitionFn radix(HashMethod::kRadix, 256);
  PartitionFn murmur(HashMethod::kMurmur, 256);
  std::set<uint32_t> radix_parts, murmur_parts;
  for (uint32_t k = 0; k < 1000; ++k) {
    radix_parts.insert(radix(k << 8));
    murmur_parts.insert(murmur(k << 8));
  }
  EXPECT_EQ(radix_parts.size(), 1u);   // all land in partition 0
  EXPECT_GT(murmur_parts.size(), 200u);
}

TEST(HashMethodNameTest, AllNamed) {
  EXPECT_STREQ(HashMethodName(HashMethod::kRadix), "radix");
  EXPECT_STREQ(HashMethodName(HashMethod::kMurmur), "murmur");
  EXPECT_STREQ(HashMethodName(HashMethod::kMultiplicative), "multiplicative");
  EXPECT_STREQ(HashMethodName(HashMethod::kCrc32), "crc32");
}

}  // namespace
}  // namespace fpart
