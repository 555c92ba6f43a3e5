// Batched SIMD partition-index kernels — the vectorized twins of the
// scalar PartitionFn paths in hash_function.h (DESIGN.md "CPU fast
// paths").
//
// Every kernel is bit-exact with the scalar code: the parity tests in
// tests/simd_hash_test.cc pin this over random and adversarial keys. The
// kernels carry per-function `target("avx2")` attributes so this header
// compiles under the baseline ISA; callers must consult
// DetectSimdLevel()/ActiveSimdLevel() before entering them. The lane
// widths mirror the simulated circuit: 8 concurrent 32-bit hashes per
// step, like the FPGA's 8 hash lanes (Section 4.4 of the paper).
#pragma once

#include <cstddef>
#include <cstdint>

#include "hash/murmur.h"
#include "hash/radix.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FPART_HAS_X86_SIMD_KERNELS 1
#include <immintrin.h>
#endif

namespace fpart {
namespace simd {

/// True when this build carries the AVX2 kernel bodies at all (independent
/// of whether the running CPU can execute them).
constexpr bool HaveAvx2Kernels() {
#if defined(FPART_HAS_X86_SIMD_KERNELS)
  return true;
#else
  return false;
#endif
}

#if defined(FPART_HAS_X86_SIMD_KERNELS)

#define FPART_TARGET_AVX2 __attribute__((target("avx2")))
#define FPART_TARGET_CRC __attribute__((target("sse4.2")))

namespace detail {

/// Low 64 bits of a 4-wide 64x64 multiply against the broadcast constant
/// `c` (AVX2 has no _mm256_mullo_epi64; composed from 32-bit products).
FPART_TARGET_AVX2 inline __m256i MulLo64(__m256i a, uint64_t c) {
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(c));
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);        // a_lo * b_lo
  const __m256i m1 = _mm256_mul_epu32(a_hi, b);     // a_hi * b_lo
  const __m256i m2 = _mm256_mul_epu32(a, b_hi);     // a_lo * b_hi
  const __m256i cross = _mm256_add_epi64(m1, m2);
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// Murmur3 fmix32 over 8 lanes — identical stages to Murmur32().
FPART_TARGET_AVX2 inline __m256i Murmur32x8(__m256i k) {
  k = _mm256_xor_si256(k, _mm256_srli_epi32(k, 16));
  k = _mm256_mullo_epi32(k, _mm256_set1_epi32(0x85ebca6b));
  k = _mm256_xor_si256(k, _mm256_srli_epi32(k, 13));
  k = _mm256_mullo_epi32(k, _mm256_set1_epi32(0xc2b2ae35));
  k = _mm256_xor_si256(k, _mm256_srli_epi32(k, 16));
  return k;
}

/// Murmur3 fmix64 over 4 lanes — identical stages to Murmur64().
FPART_TARGET_AVX2 inline __m256i Murmur64x4(__m256i k) {
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64(k, 0xff51afd7ed558ccdULL);
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64(k, 0xc4ceb9fe1a85ec53ULL);
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  return k;
}

/// Mask 8x32 to their low `bits`.
FPART_TARGET_AVX2 inline __m256i SliceBits32(__m256i v, int bits) {
  const uint32_t mask =
      bits >= 32 ? ~uint32_t{0} : (uint32_t{1} << bits) - 1;
  return _mm256_and_si256(v, _mm256_set1_epi32(static_cast<int>(mask)));
}

/// Mask 4x64 to their low `bits` and compact the four results into the
/// low 128 bits as 4x32 (partition indices always fit 32 bits).
FPART_TARGET_AVX2 inline __m128i SliceBits64(__m256i v, int bits) {
  const uint64_t mask =
      bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  v = _mm256_and_si256(v, _mm256_set1_epi64x(static_cast<long long>(mask)));
  const __m256i even =
      _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  return _mm256_castsi256_si128(even);
}

}  // namespace detail

/// 8-wide radix slice of 32-bit keys: out[i] = keys[i] & mask.
FPART_TARGET_AVX2 inline void RadixBatch32Avx2(const uint32_t* keys,
                                               uint32_t* out, size_t n,
                                               int bits) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        detail::SliceBits32(k, bits));
  }
  for (; i < n; ++i) out[i] = RadixBits(keys[i], bits);
}

/// 4-wide radix slice of 64-bit keys.
FPART_TARGET_AVX2 inline void RadixBatch64Avx2(const uint64_t* keys,
                                               uint32_t* out, size_t n,
                                               int bits) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     detail::SliceBits64(k, bits));
  }
  for (; i < n; ++i) out[i] = RadixBits(keys[i], bits);
}

/// 8-wide murmur partition index of 32-bit keys.
FPART_TARGET_AVX2 inline void MurmurBatch32Avx2(const uint32_t* keys,
                                                uint32_t* out, size_t n,
                                                int bits) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        detail::SliceBits32(detail::Murmur32x8(k), bits));
  }
  for (; i < n; ++i) out[i] = RadixBits(Murmur32(keys[i]), bits);
}

/// 4-wide murmur partition index of 64-bit keys.
FPART_TARGET_AVX2 inline void MurmurBatch64Avx2(const uint64_t* keys,
                                                uint32_t* out, size_t n,
                                                int bits) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     detail::SliceBits64(detail::Murmur64x4(k), bits));
  }
  for (; i < n; ++i) out[i] = RadixBits(Murmur64(keys[i]), bits);
}

/// 8-wide multiplicative (Fibonacci) partition index of 32-bit keys.
/// Mirrors the scalar top-bits slice.
FPART_TARGET_AVX2 inline void MultiplicativeBatch32Avx2(const uint32_t* keys,
                                                        uint32_t* out,
                                                        size_t n, int bits) {
  if (bits == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const int s = 32 - bits;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    k = _mm256_mullo_epi32(k, _mm256_set1_epi32(static_cast<int>(2654435769U)));
    k = _mm256_srl_epi32(k, _mm_cvtsi32_si128(s));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        detail::SliceBits32(k, bits));
  }
  for (; i < n; ++i) {
    out[i] = RadixBits((keys[i] * 2654435769U) >> s, bits);
  }
}

/// 4-wide multiplicative partition index of 64-bit keys.
FPART_TARGET_AVX2 inline void MultiplicativeBatch64Avx2(const uint64_t* keys,
                                                        uint32_t* out,
                                                        size_t n, int bits) {
  if (bits == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const int s = 64 - bits;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    k = detail::MulLo64(k, 0x9e3779b97f4a7c15ULL);
    k = _mm256_srl_epi64(k, _mm_cvtsi32_si128(s));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     detail::SliceBits64(k, bits));
  }
  for (; i < n; ++i) {
    out[i] = RadixBits((keys[i] * 0x9e3779b97f4a7c15ULL) >> s, bits);
  }
}

/// Hardware CRC32-C (SSE4.2) of 64-bit keys; bit-exact with the software
/// table implementation in Crc32c64() — same Castagnoli polynomial, same
/// init/final inversion.
FPART_TARGET_CRC inline uint32_t Crc32c64Hw(uint64_t key) {
  return static_cast<uint32_t>(
             _mm_crc32_u64(0xffffffffULL, key)) ^
         0xffffffffU;
}

FPART_TARGET_CRC inline void Crc32Batch32Hw(const uint32_t* keys,
                                            uint32_t* out, size_t n,
                                            int bits) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = RadixBits(Crc32c64Hw(keys[i]), bits);
  }
}

FPART_TARGET_CRC inline void Crc32Batch64Hw(const uint64_t* keys,
                                            uint32_t* out, size_t n,
                                            int bits) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = RadixBits(Crc32c64Hw(keys[i]), bits);
  }
}

// --- Fused-partitioning helpers (DESIGN.md "CPU fast paths"). Not hash
// kernels: these vectorize the data movement around the batched hashing —
// key extraction from tuple arrays, index-scratch narrowing, and the
// write-combining line flush.

/// Extract the leading 4 B key of `n` consecutive 8 B tuples.
FPART_TARGET_AVX2 inline void GatherKeys32Stride8Avx2(const void* tuples,
                                                      uint32_t* keys,
                                                      size_t n) {
  const uint8_t* src = static_cast<const uint8_t*>(tuples);
  // Pull each 32 B load's four keys (even 32-bit lanes) into its low half.
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i * 8));
    __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i * 8 + 32));
    __m256i k0 = _mm256_permutevar8x32_epi32(v0, perm);
    __m256i k1 = _mm256_permutevar8x32_epi32(v1, perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i),
                        _mm256_permute2x128_si256(k0, k1, 0x20));
  }
  for (; i < n; ++i) {
    keys[i] = *reinterpret_cast<const uint32_t*>(src + i * 8);
  }
}

/// Extract the leading 8 B key of `n` consecutive 16 B tuples.
FPART_TARGET_AVX2 inline void GatherKeys64Stride16Avx2(const void* tuples,
                                                       uint64_t* keys,
                                                       size_t n) {
  const uint8_t* src = static_cast<const uint8_t*>(tuples);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i * 16));
    __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i * 16 + 32));
    // unpacklo keeps each 128-bit lane's low quadword (the keys):
    // [k0 k2 | k1 k3]; the permute restores index order.
    __m256i k = _mm256_unpacklo_epi64(v0, v1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i),
                        _mm256_permute4x64_epi64(k, 0xd8));
  }
  for (; i < n; ++i) {
    keys[i] = *reinterpret_cast<const uint64_t*>(src + i * 16);
  }
}

/// Narrow `n` partition indices (all < 2^16) to uint16_t, streaming whole
/// 32 B chunks past the cache when the destination is 32 B aligned — the
/// index scratch is written once and read back only after the prefix-sum
/// barrier, so caching it would only evict the histogram. Callers issue a
/// store fence when a chunk ends.
FPART_TARGET_AVX2 inline void PackIndex16Avx2(const uint32_t* pidx,
                                              uint16_t* out, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pidx + i));
    __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pidx + i + 8));
    __m256i packed =
        _mm256_permute4x64_epi64(_mm256_packus_epi32(a, b), 0xd8);
    if ((reinterpret_cast<uintptr_t>(out + i) & 31) == 0) {
      _mm256_stream_si256(reinterpret_cast<__m256i*>(out + i), packed);
    } else {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), packed);
    }
  }
  for (; i < n; ++i) out[i] = static_cast<uint16_t>(pidx[i]);
}

/// Stream one 64 B cache line (two 32 B non-temporal stores) — half the
/// store instructions of the SSE2 16 B flush. `dst` must be 64 B aligned.
FPART_TARGET_AVX2 inline void StreamLine64Avx2(void* dst, const void* src) {
  const __m256i* s = reinterpret_cast<const __m256i*>(src);
  __m256i* d = reinterpret_cast<__m256i*>(dst);
  _mm256_stream_si256(d, _mm256_loadu_si256(s));
  _mm256_stream_si256(d + 1, _mm256_loadu_si256(s + 1));
}

// --- AVX-512 tier (F+BW+DQ; the dispatch level kAvx512). Same contracts
// and bit-exact semantics as the AVX2 kernels above, at twice the lane
// count, plus the three data-movement wins the 256-bit ISA lacks: native
// 64x64 multiply (vpmullq), one-instruction narrowing (vpmovqd/vpmovdw),
// and a whole cache line per store (_mm512_stream_si512).

#define FPART_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512dq")))

namespace detail {

/// Murmur3 fmix32 over 16 lanes — identical stages to Murmur32().
FPART_TARGET_AVX512 inline __m512i Murmur32x16(__m512i k) {
  k = _mm512_xor_si512(k, _mm512_srli_epi32(k, 16));
  k = _mm512_mullo_epi32(k, _mm512_set1_epi32(0x85ebca6b));
  k = _mm512_xor_si512(k, _mm512_srli_epi32(k, 13));
  k = _mm512_mullo_epi32(k, _mm512_set1_epi32(0xc2b2ae35));
  k = _mm512_xor_si512(k, _mm512_srli_epi32(k, 16));
  return k;
}

/// Murmur3 fmix64 over 8 lanes — identical stages to Murmur64().
FPART_TARGET_AVX512 inline __m512i Murmur64x8(__m512i k) {
  k = _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
  k = _mm512_mullo_epi64(
      k, _mm512_set1_epi64(static_cast<long long>(0xff51afd7ed558ccdULL)));
  k = _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
  k = _mm512_mullo_epi64(
      k, _mm512_set1_epi64(static_cast<long long>(0xc4ceb9fe1a85ec53ULL)));
  k = _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
  return k;
}

/// Mask 16x32 to their low `bits`.
FPART_TARGET_AVX512 inline __m512i SliceBits32x16(__m512i v, int bits) {
  const uint32_t mask =
      bits >= 32 ? ~uint32_t{0} : (uint32_t{1} << bits) - 1;
  return _mm512_and_si512(v, _mm512_set1_epi32(static_cast<int>(mask)));
}

/// Mask 8x64 to their low `bits` and narrow to 8x32 (vpmovqd).
FPART_TARGET_AVX512 inline __m256i SliceBits64x8(__m512i v, int bits) {
  const uint64_t mask =
      bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  v = _mm512_and_si512(v, _mm512_set1_epi64(static_cast<long long>(mask)));
  return _mm512_cvtepi64_epi32(v);
}

}  // namespace detail

/// 16-wide radix slice of 32-bit keys.
FPART_TARGET_AVX512 inline void RadixBatch32Avx512(const uint32_t* keys,
                                                   uint32_t* out, size_t n,
                                                   int bits) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i k = _mm512_loadu_si512(keys + i);
    _mm512_storeu_si512(out + i, detail::SliceBits32x16(k, bits));
  }
  for (; i < n; ++i) out[i] = RadixBits(keys[i], bits);
}

/// 8-wide radix slice of 64-bit keys.
FPART_TARGET_AVX512 inline void RadixBatch64Avx512(const uint64_t* keys,
                                                   uint32_t* out, size_t n,
                                                   int bits) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i k = _mm512_loadu_si512(keys + i);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        detail::SliceBits64x8(k, bits));
  }
  for (; i < n; ++i) out[i] = RadixBits(keys[i], bits);
}

/// 16-wide murmur partition index of 32-bit keys.
FPART_TARGET_AVX512 inline void MurmurBatch32Avx512(const uint32_t* keys,
                                                    uint32_t* out, size_t n,
                                                    int bits) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i k = _mm512_loadu_si512(keys + i);
    _mm512_storeu_si512(
        out + i, detail::SliceBits32x16(detail::Murmur32x16(k), bits));
  }
  for (; i < n; ++i) out[i] = RadixBits(Murmur32(keys[i]), bits);
}

/// 8-wide murmur partition index of 64-bit keys.
FPART_TARGET_AVX512 inline void MurmurBatch64Avx512(const uint64_t* keys,
                                                    uint32_t* out, size_t n,
                                                    int bits) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i k = _mm512_loadu_si512(keys + i);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        detail::SliceBits64x8(detail::Murmur64x8(k), bits));
  }
  for (; i < n; ++i) out[i] = RadixBits(Murmur64(keys[i]), bits);
}

/// 16-wide multiplicative (Fibonacci) partition index of 32-bit keys.
FPART_TARGET_AVX512 inline void MultiplicativeBatch32Avx512(
    const uint32_t* keys, uint32_t* out, size_t n, int bits) {
  if (bits == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const int s = 32 - bits;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i k = _mm512_loadu_si512(keys + i);
    k = _mm512_mullo_epi32(k, _mm512_set1_epi32(static_cast<int>(2654435769U)));
    k = _mm512_srl_epi32(k, _mm_cvtsi32_si128(s));
    _mm512_storeu_si512(out + i, detail::SliceBits32x16(k, bits));
  }
  for (; i < n; ++i) {
    out[i] = RadixBits((keys[i] * 2654435769U) >> s, bits);
  }
}

/// 8-wide multiplicative partition index of 64-bit keys.
FPART_TARGET_AVX512 inline void MultiplicativeBatch64Avx512(
    const uint64_t* keys, uint32_t* out, size_t n, int bits) {
  if (bits == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const int s = 64 - bits;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i k = _mm512_loadu_si512(keys + i);
    k = _mm512_mullo_epi64(
        k, _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
    k = _mm512_srl_epi64(k, _mm_cvtsi32_si128(s));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        detail::SliceBits64x8(k, bits));
  }
  for (; i < n; ++i) {
    out[i] = RadixBits((keys[i] * 0x9e3779b97f4a7c15ULL) >> s, bits);
  }
}

/// Extract the leading 4 B key of `n` consecutive 8 B tuples: one 64 B
/// load covers 8 tuples and vpmovqd truncates each to its low 32 bits.
FPART_TARGET_AVX512 inline void GatherKeys32Stride8Avx512(const void* tuples,
                                                          uint32_t* keys,
                                                          size_t n) {
  const uint8_t* src = static_cast<const uint8_t*>(tuples);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i v = _mm512_loadu_si512(src + i * 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i),
                        _mm512_cvtepi64_epi32(v));
  }
  for (; i < n; ++i) {
    keys[i] = *reinterpret_cast<const uint32_t*>(src + i * 8);
  }
}

/// Extract the leading 8 B key of `n` consecutive 16 B tuples: two 64 B
/// loads cover 8 tuples and one vpermt2q picks out the even quadwords.
FPART_TARGET_AVX512 inline void GatherKeys64Stride16Avx512(const void* tuples,
                                                           uint64_t* keys,
                                                           size_t n) {
  const uint8_t* src = static_cast<const uint8_t*>(tuples);
  const __m512i pick =
      _mm512_setr_epi64(0, 2, 4, 6, 8 + 0, 8 + 2, 8 + 4, 8 + 6);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i v0 = _mm512_loadu_si512(src + i * 16);
    __m512i v1 = _mm512_loadu_si512(src + i * 16 + 64);
    _mm512_storeu_si512(keys + i, _mm512_permutex2var_epi64(v0, pick, v1));
  }
  for (; i < n; ++i) {
    keys[i] = *reinterpret_cast<const uint64_t*>(src + i * 16);
  }
}

/// Narrow `n` partition indices (all < 2^16) to uint16_t — vpmovdw pairs
/// feeding one 64 B non-temporal store when the destination is 64 B
/// aligned. Same no-cache rationale and fencing contract as the AVX2
/// variant above.
FPART_TARGET_AVX512 inline void PackIndex16Avx512(const uint32_t* pidx,
                                                  uint16_t* out, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i lo = _mm512_cvtepi32_epi16(_mm512_loadu_si512(pidx + i));
    __m256i hi = _mm512_cvtepi32_epi16(_mm512_loadu_si512(pidx + i + 16));
    __m512i packed =
        _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
    if ((reinterpret_cast<uintptr_t>(out + i) & 63) == 0) {
      _mm512_stream_si512(reinterpret_cast<__m512i*>(out + i), packed);
    } else {
      _mm512_storeu_si512(out + i, packed);
    }
  }
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi32_epi16(_mm512_loadu_si512(pidx + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<uint16_t>(pidx[i]);
}

/// Stream one 64 B cache line with a single non-temporal store — the
/// whole write-combining flush in one instruction. `dst` must be 64 B
/// aligned.
FPART_TARGET_AVX512 inline void StreamLine64Avx512(void* dst,
                                                   const void* src) {
  _mm512_stream_si512(reinterpret_cast<__m512i*>(dst),
                      _mm512_loadu_si512(src));
}

#undef FPART_TARGET_AVX2
#undef FPART_TARGET_AVX512
#undef FPART_TARGET_CRC

#endif  // FPART_HAS_X86_SIMD_KERNELS

}  // namespace simd
}  // namespace fpart
