// Input staging shared by the reference cycle loop and the fast engine.
//
// One QPI cache-line read materializes one or more tuple groups (a group is
// the up-to-K tuples entering the hash lanes in one cycle). The expansion
// depends on the input layout: RID reads tuple lines directly, VRID expands
// a key line into kKeysPerCacheLine/K groups, and the compressed layout
// unpacks a FOR frame. Both simulator back ends (SimMode::kReference and
// SimMode::kFast) share this code so the functional tuple stream is
// identical by construction: the reference queues TupleGroups, the fast
// engine tracks group counts and reads the tuples once in its data pass.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "compress/for_codec.h"
#include "datagen/tuple.h"
#include "fpga/config.h"

namespace fpart {

/// One group of up to K tuples entering the hash lanes in one cycle.
template <typename T>
struct TupleGroup {
  static constexpr int K = TupleTraits<T>::kTuplesPerCacheLine;
  std::array<T, K> tuples;
  uint8_t count = 0;
};

/// \brief Materializes the tuple-group stream of one input source.
template <typename T>
class InputStager {
 public:
  static constexpr int K = TupleTraits<T>::kTuplesPerCacheLine;
  using KeyType = decltype(T{}.key);
  static constexpr int kKeysPerCacheLine = kCacheLineSize / sizeof(KeyType);

  InputStager(const FpgaPartitionerConfig& config, const T* tuples,
              const KeyType* keys, const CompressedColumn* column)
      : config_(config), tuples_(tuples), keys_(keys), column_(column) {}

  /// Cache-line reads required to scan the input once.
  size_t TotalReads(size_t n) const {
    if (config_.layout == LayoutMode::kCompressed) {
      return column_->num_frames();
    }
    if (config_.layout == LayoutMode::kVrid) {
      return (n + kKeysPerCacheLine - 1) / kKeysPerCacheLine;
    }
    return (n + K - 1) / K;
  }

  /// Tuple groups produced by one granted cache-line read: the VRID key
  /// line expands into multiple tuple lines inside the circuit.
  size_t GroupsPerRead() const {
    switch (config_.layout) {
      case LayoutMode::kVrid:
        return static_cast<size_t>(kKeysPerCacheLine / K);
      case LayoutMode::kCompressed:
        // Variable per frame (up to kMaxKeysPerFrame keys); this value
        // only sizes the staging buffer's refill threshold.
        return 8;
      case LayoutMode::kRid:
        break;
    }
    return 1;
  }

  /// Most tuples one read can produce (scratch size for ReadTuples).
  static constexpr size_t kMaxTuplesPerRead =
      std::max({static_cast<size_t>(K), static_cast<size_t>(kKeysPerCacheLine),
                static_cast<size_t>(kMaxKeysPerFrame)});

  /// Read `read_idx` carries the stream positions [ReadBegin, ReadEnd).
  /// Reads are contiguous, so each begins where the previous one ends.
  size_t ReadBegin(size_t read_idx) const {
    switch (config_.layout) {
      case LayoutMode::kCompressed:
        return column_->frame_offset(read_idx);
      case LayoutMode::kVrid:
        return read_idx * kKeysPerCacheLine;
      case LayoutMode::kRid:
        break;
    }
    return read_idx * K;
  }
  size_t ReadEnd(size_t n, size_t read_idx) const {
    return read_idx + 1 < TotalReads(n) ? ReadBegin(read_idx + 1) : n;
  }

  /// Tuple groups of read `read_idx`: its tuples split into groups of K,
  /// the last one partial. Every layout's read begins a new group, so the
  /// tuple at stream position i enters lane (i - ReadBegin) mod K.
  size_t GroupsOfRead(size_t n, size_t read_idx) const {
    return (ReadEnd(n, read_idx) - ReadBegin(read_idx) + K - 1) / K;
  }

  /// The tuples of read `read_idx` in stream order. RID points into the
  /// input; the other layouts build them in `scratch` (kMaxTuplesPerRead
  /// slots): VRID pairs each key with its virtual record id, and the
  /// compressed layout first unpacks the FOR frame (the decompressor lane,
  /// one cycle in hardware).
  const T* ReadTuples(size_t n, size_t read_idx, T* scratch) const {
    const size_t base = ReadBegin(read_idx);
    if (config_.layout == LayoutMode::kRid) return tuples_ + base;
    const size_t count = ReadEnd(n, read_idx) - base;
    if (config_.layout == LayoutMode::kCompressed) {
      uint32_t keys[kMaxKeysPerFrame];
      column_->DecodeFrame(read_idx, keys);
      for (size_t k = 0; k < count; ++k) {
        scratch[k] = T{};
        TupleTraits<T>::SetKey(&scratch[k], keys[k]);
        SetPayloadId(&scratch[k], base + k);
      }
    } else {
      for (size_t k = 0; k < count; ++k) {
        scratch[k] = T{};
        TupleTraits<T>::SetKey(&scratch[k], keys_[base + k]);
        SetPayloadId(&scratch[k], base + k);  // the virtual record id
      }
    }
    return scratch;
  }

  /// Materialize the tuple groups of cache line `read_idx` into `staging`.
  void MaterializeGroups(size_t n, size_t read_idx,
                         std::deque<TupleGroup<T>>* staging) const {
    T scratch[kMaxTuplesPerRead];
    const T* tuples = ReadTuples(n, read_idx, scratch);
    const size_t count = ReadEnd(n, read_idx) - ReadBegin(read_idx);
    for (size_t i = 0; i < count; i += K) {
      TupleGroup<T> group;
      group.count = static_cast<uint8_t>(std::min<size_t>(K, count - i));
      std::copy_n(tuples + i, group.count, group.tuples.begin());
      staging->push_back(group);
    }
  }

 private:
  const FpgaPartitionerConfig& config_;
  const T* tuples_;
  const KeyType* keys_;
  const CompressedColumn* column_;
};

}  // namespace fpart
