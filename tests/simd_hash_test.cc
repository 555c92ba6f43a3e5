// Parity tests pinning the batched SIMD hash kernels bit-exact against the
// scalar PartitionFn paths, over random and adversarial keys (0, ~0, the
// sign bit, the dummy sentinel). The dispatched ApplyBatch is compared on
// every host — on machines without AVX2 it exercises the scalar fallback
// and passes trivially; the raw AVX2 kernels are additionally pinned when
// the host supports them. FPART_SIMD=scalar forces the fallback on capable
// hosts (see scripts/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "datagen/tuple.h"
#include "hash/hash_function.h"
#include "hash/simd_hash.h"

namespace fpart {
namespace {

/// The adversarial and random keys, narrowed by `key_shift` bits (keys
/// whose high bits are clear, like dense integer ids).
std::vector<uint32_t> TestKeys32(int key_shift) {
  std::vector<uint32_t> keys = {
      0,          1,          2,          0x7fffffffU, 0x80000000U,
      0x80000001U, 0xfffffffeU, 0xffffffffU, 0xdeadbeefU,
      static_cast<uint32_t>(kDummyKey)};
  Rng rng(101);
  for (int i = 0; i < 10000; ++i) keys.push_back(rng.Next32());
  for (uint32_t& k : keys) k >>= key_shift;
  return keys;
}

std::vector<uint64_t> TestKeys64(int key_shift) {
  std::vector<uint64_t> keys = {0,
                                1,
                                2,
                                0x7fffffffffffffffULL,
                                0x8000000000000000ULL,
                                0x8000000000000001ULL,
                                0xfffffffffffffffeULL,
                                ~uint64_t{0},
                                kDummyKey,
                                0x00000000ffffffffULL,
                                0xffffffff00000000ULL};
  Rng rng(103);
  for (int i = 0; i < 10000; ++i) keys.push_back(rng.Next());
  for (uint64_t& k : keys) k >>= key_shift;
  return keys;
}

struct HashParam {
  HashMethod method;
  uint32_t fanout;
  /// Narrows the test keys (TestKeys32/64); the `_s` of the test names.
  int key_shift;
};

class SimdParityTest : public ::testing::TestWithParam<HashParam> {};

TEST_P(SimdParityTest, DispatchedBatch32MatchesScalar) {
  const HashParam param = GetParam();
  PartitionFn fn(param.method, param.fanout);
  const auto keys = TestKeys32(param.key_shift);
  std::vector<uint32_t> batch(keys.size(), ~uint32_t{0});
  fn.ApplyBatch(keys.data(), batch.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(batch[i], fn(keys[i])) << "key " << keys[i] << " at " << i;
    ASSERT_LT(batch[i], param.fanout);
  }
}

TEST_P(SimdParityTest, DispatchedBatch64MatchesScalar) {
  const HashParam param = GetParam();
  PartitionFn fn(param.method, param.fanout);
  const auto keys = TestKeys64(param.key_shift);
  std::vector<uint32_t> batch(keys.size(), ~uint32_t{0});
  fn.ApplyBatch64(keys.data(), batch.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(batch[i], fn.Apply64(keys[i])) << "key " << keys[i];
    ASSERT_LT(batch[i], param.fanout);
  }
}

#if defined(FPART_HAS_X86_SIMD_KERNELS)
// Pin the raw AVX2 kernels (bypassing dispatch) when the host has them, so
// the vector lanes are exercised even when FPART_SIMD forces the scalar
// fallback on the dispatched paths.
TEST_P(SimdParityTest, RawAvx2KernelsMatchScalar) {
  if (!SimdLevelAtLeast(DetectSimdLevel(), SimdLevel::kAvx2)) {
    GTEST_SKIP() << "host has no AVX2";
  }
  const HashParam param = GetParam();
  PartitionFn fn(param.method, param.fanout);
  const int bits = fn.bits();
  const auto keys32 = TestKeys32(param.key_shift);
  const auto keys64 = TestKeys64(param.key_shift);
  std::vector<uint32_t> out32(keys32.size()), out64(keys64.size());
  switch (param.method) {
    case HashMethod::kRadix:
      simd::RadixBatch32Avx2(keys32.data(), out32.data(), keys32.size(), bits);
      simd::RadixBatch64Avx2(keys64.data(), out64.data(), keys64.size(), bits);
      break;
    case HashMethod::kMurmur:
      simd::MurmurBatch32Avx2(keys32.data(), out32.data(), keys32.size(),
                              bits);
      simd::MurmurBatch64Avx2(keys64.data(), out64.data(), keys64.size(),
                              bits);
      break;
    case HashMethod::kMultiplicative:
      simd::MultiplicativeBatch32Avx2(keys32.data(), out32.data(),
                                      keys32.size(), bits);
      simd::MultiplicativeBatch64Avx2(keys64.data(), out64.data(),
                                      keys64.size(), bits);
      break;
    case HashMethod::kCrc32:
      simd::Crc32Batch32Hw(keys32.data(), out32.data(), keys32.size(), bits);
      simd::Crc32Batch64Hw(keys64.data(), out64.data(), keys64.size(), bits);
      break;
    case HashMethod::kRange:
      GTEST_SKIP() << "range has no vector kernel";
  }
  for (size_t i = 0; i < keys32.size(); ++i) {
    ASSERT_EQ(out32[i], fn(keys32[i])) << "key " << keys32[i];
  }
  for (size_t i = 0; i < keys64.size(); ++i) {
    ASSERT_EQ(out64[i], fn.Apply64(keys64[i])) << "key " << keys64[i];
  }
}
// Same pinning for the raw AVX-512 kernels (CRC32-C is SSE4.2-only and
// already covered above).
TEST_P(SimdParityTest, RawAvx512KernelsMatchScalar) {
  if (!SimdLevelAtLeast(DetectSimdLevel(), SimdLevel::kAvx512)) {
    GTEST_SKIP() << "host has no AVX-512";
  }
  const HashParam param = GetParam();
  PartitionFn fn(param.method, param.fanout);
  const int bits = fn.bits();
  const auto keys32 = TestKeys32(param.key_shift);
  const auto keys64 = TestKeys64(param.key_shift);
  std::vector<uint32_t> out32(keys32.size()), out64(keys64.size());
  switch (param.method) {
    case HashMethod::kRadix:
      simd::RadixBatch32Avx512(keys32.data(), out32.data(), keys32.size(),
                               bits);
      simd::RadixBatch64Avx512(keys64.data(), out64.data(), keys64.size(),
                               bits);
      break;
    case HashMethod::kMurmur:
      simd::MurmurBatch32Avx512(keys32.data(), out32.data(), keys32.size(),
                                bits);
      simd::MurmurBatch64Avx512(keys64.data(), out64.data(), keys64.size(),
                                bits);
      break;
    case HashMethod::kMultiplicative:
      simd::MultiplicativeBatch32Avx512(keys32.data(), out32.data(),
                                        keys32.size(), bits);
      simd::MultiplicativeBatch64Avx512(keys64.data(), out64.data(),
                                        keys64.size(), bits);
      break;
    case HashMethod::kCrc32:
    case HashMethod::kRange:
      GTEST_SKIP() << "no AVX-512 kernel for this method";
  }
  for (size_t i = 0; i < keys32.size(); ++i) {
    ASSERT_EQ(out32[i], fn(keys32[i])) << "key " << keys32[i];
  }
  for (size_t i = 0; i < keys64.size(); ++i) {
    ASSERT_EQ(out64[i], fn.Apply64(keys64[i])) << "key " << keys64[i];
  }
}

// The fused-path data-movement kernels: key extraction and index packing
// must be exact for every tail length.
TEST(SimdFusedKernelTest, GatherAndPackKernelsMatchScalar) {
  if (!SimdLevelAtLeast(DetectSimdLevel(), SimdLevel::kAvx2)) {
    GTEST_SKIP() << "host has no AVX2";
  }
  const bool avx512 = SimdLevelAtLeast(DetectSimdLevel(), SimdLevel::kAvx512);
  Rng rng(107);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15},
                   size_t{31}, size_t{32}, size_t{33}, size_t{1000}}) {
    std::vector<Tuple8> t8(n);
    std::vector<Tuple16> t16(n);
    std::vector<uint32_t> pidx(n);
    for (size_t i = 0; i < n; ++i) {
      t8[i].key = rng.Next32();
      t16[i].key = rng.Next();
      pidx[i] = rng.Next32() & 0xffffU;
    }
    std::vector<uint32_t> k32(n + 1, 0xeeeeeeeeU);
    std::vector<uint64_t> k64(n + 1, 0xeeeeeeeeU);
    std::vector<uint16_t> i16(n + 1, 0xeeee);
    simd::GatherKeys32Stride8Avx2(t8.data(), k32.data(), n);
    simd::GatherKeys64Stride16Avx2(t16.data(), k64.data(), n);
    simd::PackIndex16Avx2(pidx.data(), i16.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(k32[i], t8[i].key) << "n=" << n << " i=" << i;
      ASSERT_EQ(k64[i], t16[i].key) << "n=" << n << " i=" << i;
      ASSERT_EQ(i16[i], static_cast<uint16_t>(pidx[i]));
    }
    ASSERT_EQ(k32[n], 0xeeeeeeeeU);
    ASSERT_EQ(i16[n], 0xeeee);
    if (avx512) {
      std::fill(k32.begin(), k32.end(), 0xeeeeeeeeU);
      std::fill(k64.begin(), k64.end(), 0xeeeeeeeeU);
      std::fill(i16.begin(), i16.end(), 0xeeee);
      simd::GatherKeys32Stride8Avx512(t8.data(), k32.data(), n);
      simd::GatherKeys64Stride16Avx512(t16.data(), k64.data(), n);
      simd::PackIndex16Avx512(pidx.data(), i16.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(k32[i], t8[i].key) << "avx512 n=" << n << " i=" << i;
        ASSERT_EQ(k64[i], t16[i].key) << "avx512 n=" << n << " i=" << i;
        ASSERT_EQ(i16[i], static_cast<uint16_t>(pidx[i]));
      }
      ASSERT_EQ(k32[n], 0xeeeeeeeeU);
      ASSERT_EQ(i16[n], 0xeeee);
    }
  }
}
#endif  // FPART_HAS_X86_SIMD_KERNELS

INSTANTIATE_TEST_SUITE_P(
    MethodsAndFanouts, SimdParityTest,
    ::testing::Values(HashParam{HashMethod::kRadix, 64, 0},
                      HashParam{HashMethod::kRadix, 8192, 0},
                      HashParam{HashMethod::kRadix, 8192, 7},
                      HashParam{HashMethod::kMurmur, 64, 0},
                      HashParam{HashMethod::kMurmur, 8192, 0},
                      HashParam{HashMethod::kMurmur, 8192, 5},
                      HashParam{HashMethod::kMultiplicative, 8192, 0},
                      HashParam{HashMethod::kMultiplicative, 1024, 3},
                      HashParam{HashMethod::kCrc32, 8192, 0},
                      HashParam{HashMethod::kCrc32, 256, 4}),
    [](const auto& info) {
      return std::string(HashMethodName(info.param.method)) + "_f" +
             std::to_string(info.param.fanout) + "_s" +
             std::to_string(info.param.key_shift);
    });

TEST(SimdDispatchTest, RangeBatchMatchesScalarUpperBound) {
  PartitionFn fn = PartitionFn::Range({10, 20, 30, 40, 50, 60, 70});
  const auto keys = TestKeys64(0);
  std::vector<uint32_t> batch(keys.size());
  fn.ApplyBatch64(keys.data(), batch.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(batch[i], fn.Apply64(keys[i]));
  }
}

TEST(SimdDispatchTest, EmptyAndTailBatches) {
  PartitionFn fn(HashMethod::kMurmur, 8192);
  // n smaller than one vector, and n not a multiple of the lane count.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{9},
                   size_t{13}}) {
    std::vector<uint32_t> keys(n, 0xabcd1234U);
    std::vector<uint32_t> out(n + 1, 0xeeeeeeeeU);
    fn.ApplyBatch(keys.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], fn(keys[i]));
    ASSERT_EQ(out[n], 0xeeeeeeeeU) << "wrote past the batch";
  }
}

TEST(SimdDispatchTest, ActiveLevelNeverExceedsDetected) {
  ASSERT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectSimdLevel()));
}

}  // namespace
}  // namespace fpart
