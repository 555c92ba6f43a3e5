// Storage for a partitioned relation, shared by the CPU and FPGA
// partitioners.
//
// Partitions are stored back to back in one cache-line aligned buffer at
// cache-line granularity. Because the FPGA's write combiner flushes
// partially filled cache lines padded with dummy keys (Section 4.2), a
// partition's storage extent can be larger than its tuple count; consumers
// skip tuples with the dummy key.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "datagen/tuple.h"
#include "obs/metrics.h"

namespace fpart {

/// \brief Placement and fill metadata of one partition.
struct PartitionInfo {
  /// First cache line of this partition within the output buffer.
  uint64_t base_cl = 0;
  /// Cache lines reserved for this partition.
  uint32_t capacity_cls = 0;
  /// Cache lines actually written.
  uint32_t written_cls = 0;
  /// Real (non-dummy) tuples in this partition.
  uint64_t num_tuples = 0;
};

/// \brief A partitioned relation: contiguous cache-line-granular partitions
/// plus per-partition metadata. Copies share one buffer and partition table
/// (O(1)), so a memoized run's output is read in place; non-const accessors
/// copy on write (counted in sim.cache.copied_bytes), so readers use const.
template <typename T>
class PartitionedOutput {
 public:
  PartitionedOutput() = default;
  PartitionedOutput(const PartitionedOutput& other) noexcept : s_(other.s_) {
    if (s_ != nullptr) s_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PartitionedOutput(PartitionedOutput&& other) noexcept
      : s_(std::exchange(other.s_, nullptr)) {}
  PartitionedOutput& operator=(PartitionedOutput other) noexcept {
    std::swap(s_, other.s_);
    return *this;
  }
  ~PartitionedOutput() {
    if (s_ && s_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete s_;
  }

  /// Allocate storage given per-partition capacities (in cache lines).
  static Result<PartitionedOutput<T>> Allocate(
      const std::vector<uint32_t>& capacity_cls) {
    PartitionedOutput<T> out;
    out.s_ = new Storage;
    std::vector<PartitionInfo>& parts = out.s_->parts;
    parts.resize(capacity_cls.size());
    uint64_t total_cls = 0;
    for (size_t p = 0; p < capacity_cls.size(); ++p) {
      parts[p].base_cl = total_cls;
      parts[p].capacity_cls = capacity_cls[p];
      total_cls += capacity_cls[p];
    }
    FPART_ASSIGN_OR_RETURN(out.s_->buffer,
                           AlignedBuffer::Allocate(total_cls * kCacheLineSize));
    return out;
  }

  size_t num_partitions() const { return s_ ? s_->parts.size() : 0; }
  uint64_t total_cls() const {
    return s_ ? s_->buffer.size() / kCacheLineSize : 0;
  }

  PartitionInfo& part(size_t p) { return mutable_parts()[p]; }
  const PartitionInfo& part(size_t p) const { return s_->parts[p]; }

  uint8_t* line(uint64_t cl) { return mutable_data() + cl * kCacheLineSize; }
  const uint8_t* line(uint64_t cl) const {
    return s_->buffer.data() + cl * kCacheLineSize;
  }

  /// Tuples of partition p, *including* any dummy padding; use
  /// PartitionInfo::num_tuples / IsDummy() to skip padding.
  const T* partition_data(size_t p) const {
    return reinterpret_cast<const T*>(line(part(p).base_cl));
  }
  T* partition_data(size_t p) {
    return reinterpret_cast<T*>(line(part(p).base_cl));
  }

  /// Raw write pointers: producers take them once per pass, as sole owner.
  PartitionInfo* mutable_parts() { return Unshared().parts.data(); }
  uint8_t* mutable_data() { return Unshared().buffer.data(); }

  /// Stored tuple slots of partition p (== written cache lines × K).
  size_t partition_slots(size_t p) const {
    return static_cast<size_t>(part(p).written_cls) *
           TupleTraits<T>::kTuplesPerCacheLine;
  }

  /// Sum of real tuples across all partitions.
  uint64_t total_tuples() const {
    uint64_t n = 0;
    for (size_t p = 0; p < num_partitions(); ++p) n += part(p).num_tuples;
    return n;
  }

  /// Process-wide total of bytes copied on write (sim.cache.copied_bytes).
  static obs::Counter* CopiedBytesCounter() {
    static obs::Counter* const copied = obs::Registry::Global().GetCounter(
        "sim.cache.copied_bytes", "bytes",
        "bytes deep-copied when a shared output detaches on write");
    return copied;
  }

 private:
  struct Storage {
    AlignedBuffer buffer;
    std::vector<PartitionInfo> parts;
    std::atomic<uint32_t> refs{1};
  };

  // Acquire pairs with other copies' releases: their reads precede writes.
  Storage& Unshared() {
    if (s_->refs.load(std::memory_order_acquire) != 1) {
      const size_t bytes = s_->buffer.size();
      Result<AlignedBuffer> buffer = AlignedBuffer::Allocate(bytes);
      if (!buffer.ok()) throw std::bad_alloc();
      if (bytes > 0) std::memcpy(buffer->data(), s_->buffer.data(), bytes);
      PartitionedOutput shared(std::move(*this));  // released after the copy
      s_ = new Storage{std::move(*buffer), shared.s_->parts};
      CopiedBytesCounter()->Add(bytes +
                                num_partitions() * sizeof(PartitionInfo));
    }
    return *s_;
  }

  Storage* s_ = nullptr;
};

}  // namespace fpart
