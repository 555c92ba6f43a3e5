// The configurable partitioning-attribute function of Section 3.
//
// A partitioner maps a key to one of `fanout` partitions either by taking
// radix bits directly (cheap, distribution-sensitive) or by hashing first
// (robust; murmur3 in the paper, plus two extra methods from the Richter et
// al. robustness study for the extended experiments).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hash/murmur.h"
#include "hash/radix.h"

namespace fpart {

/// How the partitioning attribute is computed from a key (Section 3.1/3.2).
enum class HashMethod {
  /// N least-significant bits of the raw key.
  kRadix,
  /// Murmur3 finalizer, then N least-significant bits. Robust.
  kMurmur,
  /// Fibonacci/multiplicative hashing: key * 2^64/phi, top bits.
  kMultiplicative,
  /// CRC32-C (software Castagnoli), as studied in Richter et al. [29].
  kCrc32,
  /// Range partitioning over sorted splitters (Wu et al. [41]): partition
  /// p holds keys in [splitter[p-1], splitter[p]). On the FPGA this is a
  /// pipelined comparator tree of depth log2(fanout) — like hashing, it
  /// costs latency only, not throughput.
  kRange,
};

const char* HashMethodName(HashMethod method);

/// CRC32-C of a 64-bit value (bitwise software implementation; the FPGA
/// would implement this as an unrolled XOR tree at no throughput cost).
uint32_t Crc32c64(uint64_t key);

/// \brief Computes partition indices from keys.
///
/// `fanout` must be a power of two (the paper's partitioner always uses
/// power-of-two fan-outs so the partition index is a bit-slice).
class PartitionFn {
 public:
  PartitionFn(HashMethod method, uint32_t fanout)
      : method_(method), fanout_(fanout), bits_(FanoutBits(fanout)) {}

  /// Range partitioner over `splitters` (sorted ascending; exactly
  /// fanout-1 entries). Key k maps to the number of splitters ≤ k.
  static PartitionFn Range(std::vector<uint64_t> splitters) {
    PartitionFn fn(HashMethod::kRange,
                   static_cast<uint32_t>(splitters.size() + 1));
    std::sort(splitters.begin(), splitters.end());
    fn.splitters_ =
        std::make_shared<const std::vector<uint64_t>>(std::move(splitters));
    return fn;
  }

  uint32_t fanout() const { return fanout_; }
  int bits() const { return bits_; }
  HashMethod method() const { return method_; }
  const std::vector<uint64_t>& splitters() const { return *splitters_; }

  /// Partition index of a 32-bit key.
  uint32_t operator()(uint32_t key) const {
    if (method_ == HashMethod::kRange) return RangeIndex(key);
    switch (method_) {
      case HashMethod::kRadix:
        return RadixBits(key, bits_);
      case HashMethod::kMurmur:
        return RadixBits(Murmur32(key), bits_);
      case HashMethod::kMultiplicative:
        // Knuth multiplicative hashing: take the *top* bits of the product.
        return bits_ == 0
                   ? 0
                   : RadixBits((key * 2654435769U) >> (32 - bits_), bits_);
      case HashMethod::kCrc32:
        return RadixBits(Crc32c64(key), bits_);
      case HashMethod::kRange:
        break;  // handled above
    }
    return 0;
  }

  /// Partition indices of a whole batch of 32-bit keys: out[i] must equal
  /// (*this)(keys[i]) bit-for-bit. Dispatches to the AVX2 8-wide kernels
  /// of hash/simd_hash.h when the host supports them (and FPART_SIMD does
  /// not force the scalar fallback); otherwise runs the scalar loop.
  void ApplyBatch(const uint32_t* keys, uint32_t* out, size_t n) const;

  /// Batch variant of Apply64 (4-wide AVX2 kernels).
  void ApplyBatch64(const uint64_t* keys, uint32_t* out, size_t n) const;

  /// Partition index of a 64-bit key.
  uint32_t Apply64(uint64_t key) const {
    if (method_ == HashMethod::kRange) return RangeIndex(key);
    switch (method_) {
      case HashMethod::kRadix:
        return RadixBits(key, bits_);
      case HashMethod::kMurmur:
        return RadixBits(Murmur64(key), bits_);
      case HashMethod::kMultiplicative:
        return bits_ == 0 ? 0
                          : RadixBits((key * 0x9e3779b97f4a7c15ULL) >>
                                          (64 - bits_),
                                      bits_);
      case HashMethod::kCrc32:
        return RadixBits(Crc32c64(key), bits_);
      case HashMethod::kRange:
        break;  // handled above
    }
    return 0;
  }

 private:
  /// upper_bound over the splitter array — the software equivalent of the
  /// FPGA's comparator tree.
  uint32_t RangeIndex(uint64_t key) const {
    const auto& s = *splitters_;
    return static_cast<uint32_t>(
        std::upper_bound(s.begin(), s.end(), key) - s.begin());
  }

  HashMethod method_;
  uint32_t fanout_;
  int bits_;
  /// kRange only; shared so PartitionFn stays cheap to copy.
  std::shared_ptr<const std::vector<uint64_t>> splitters_;
};

/// Equi-depth splitters from a key sample: fanout-1 values that split the
/// sampled distribution into equally sized ranges. `fanout` need not be a
/// power of two for CPU use, but the FPGA circuit requires one.
std::vector<uint64_t> EquiDepthSplitters(std::vector<uint64_t> sample,
                                         uint32_t fanout);

}  // namespace fpart
