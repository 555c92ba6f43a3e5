#include "hash/hash_function.h"

#include <array>

#include "common/cpu_features.h"
#include "hash/simd_hash.h"

namespace fpart {

const char* HashMethodName(HashMethod method) {
  switch (method) {
    case HashMethod::kRadix:
      return "radix";
    case HashMethod::kMurmur:
      return "murmur";
    case HashMethod::kMultiplicative:
      return "multiplicative";
    case HashMethod::kCrc32:
      return "crc32";
    case HashMethod::kRange:
      return "range";
  }
  return "unknown";
}

std::vector<uint64_t> EquiDepthSplitters(std::vector<uint64_t> sample,
                                         uint32_t fanout) {
  std::vector<uint64_t> splitters;
  if (fanout < 2 || sample.empty()) return splitters;
  std::sort(sample.begin(), sample.end());
  splitters.reserve(fanout - 1);
  for (uint32_t p = 1; p < fanout; ++p) {
    size_t idx = sample.size() * p / fanout;
    splitters.push_back(sample[idx]);
  }
  // Equal sample values can produce duplicate splitters; that is legal
  // (the duplicate ranges are simply empty).
  return splitters;
}

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  // CRC32-C (Castagnoli), reflected polynomial 0x82f63b78.
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78U : 0);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

void PartitionFn::ApplyBatch(const uint32_t* keys, uint32_t* out,
                             size_t n) const {
#if defined(FPART_HAS_X86_SIMD_KERNELS)
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kAvx512) {
    switch (method_) {
      case HashMethod::kRadix:
        simd::RadixBatch32Avx512(keys, out, n, bits_);
        return;
      case HashMethod::kMurmur:
        simd::MurmurBatch32Avx512(keys, out, n, bits_);
        return;
      case HashMethod::kMultiplicative:
        simd::MultiplicativeBatch32Avx512(keys, out, n, bits_);
        return;
      case HashMethod::kCrc32:
        simd::Crc32Batch32Hw(keys, out, n, bits_);
        return;
      case HashMethod::kRange:
        break;  // no vector kernel; fall through to the scalar loop
    }
  } else if (level == SimdLevel::kAvx2) {
    switch (method_) {
      case HashMethod::kRadix:
        simd::RadixBatch32Avx2(keys, out, n, bits_);
        return;
      case HashMethod::kMurmur:
        simd::MurmurBatch32Avx2(keys, out, n, bits_);
        return;
      case HashMethod::kMultiplicative:
        simd::MultiplicativeBatch32Avx2(keys, out, n, bits_);
        return;
      case HashMethod::kCrc32:
        simd::Crc32Batch32Hw(keys, out, n, bits_);
        return;
      case HashMethod::kRange:
        break;  // no vector kernel; fall through to the scalar loop
    }
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = (*this)(keys[i]);
}

void PartitionFn::ApplyBatch64(const uint64_t* keys, uint32_t* out,
                               size_t n) const {
#if defined(FPART_HAS_X86_SIMD_KERNELS)
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kAvx512) {
    switch (method_) {
      case HashMethod::kRadix:
        simd::RadixBatch64Avx512(keys, out, n, bits_);
        return;
      case HashMethod::kMurmur:
        simd::MurmurBatch64Avx512(keys, out, n, bits_);
        return;
      case HashMethod::kMultiplicative:
        simd::MultiplicativeBatch64Avx512(keys, out, n, bits_);
        return;
      case HashMethod::kCrc32:
        simd::Crc32Batch64Hw(keys, out, n, bits_);
        return;
      case HashMethod::kRange:
        break;  // no vector kernel; fall through to the scalar loop
    }
  } else if (level == SimdLevel::kAvx2) {
    switch (method_) {
      case HashMethod::kRadix:
        simd::RadixBatch64Avx2(keys, out, n, bits_);
        return;
      case HashMethod::kMurmur:
        simd::MurmurBatch64Avx2(keys, out, n, bits_);
        return;
      case HashMethod::kMultiplicative:
        simd::MultiplicativeBatch64Avx2(keys, out, n, bits_);
        return;
      case HashMethod::kCrc32:
        simd::Crc32Batch64Hw(keys, out, n, bits_);
        return;
      case HashMethod::kRange:
        break;  // no vector kernel; fall through to the scalar loop
    }
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = Apply64(keys[i]);
}

uint32_t Crc32c64(uint64_t key) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = 0xffffffffU;
  for (int i = 0; i < 8; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ (key >> (8 * i))) & 0xff];
  }
  return crc ^ 0xffffffffU;
}

}  // namespace fpart
