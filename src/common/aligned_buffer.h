// Cache-line aligned, owning byte buffers. The FPGA circuit and the
// software write-combining partitioner both operate on 64 B cache lines,
// so all relation storage is allocated at that alignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/macros.h"
#include "common/status.h"

namespace fpart {

/// Where a buffer's pages should land on a multi-node host. All modes are
/// no-ops on single-node machines and on platforms without mbind.
enum class NumaPlacement {
  kDefault,     ///< whatever the kernel's default policy gives (first touch)
  kInterleave,  ///< interleave pages across all nodes (shared inputs)
};

/// \brief An owning, cache-line aligned region of memory.
///
/// The buffer is zero-initialized on allocation (like the 4 MB pages the
/// Intel API hands out on the Xeon+FPGA platform, Section 2.1) unless the
/// caller opts into first-touch placement with `zero = false`.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  struct AllocateOptions {
    size_t alignment = kCacheLineSize;
    NumaPlacement placement = NumaPlacement::kDefault;
    /// When false the region is left untouched (no memset): the caller
    /// promises to write every page before reading it, so the kernel's
    /// first-touch policy places each page on the node of the thread that
    /// touches it — the NUMA-local idiom for per-worker scratch.
    bool zero = true;
  };

  /// Allocate `size` bytes aligned to `alignment` (default one cache line).
  static Result<AlignedBuffer> Allocate(size_t size,
                                        size_t alignment = kCacheLineSize);

  /// Allocate with explicit NUMA placement / first-touch control.
  static Result<AlignedBuffer> AllocateWith(size_t size,
                                            const AllocateOptions& options);

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  template <typename T>
  T* mutable_data_as() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* data_as() const {
    return reinterpret_cast<const T*>(data_);
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept { *this = std::move(other); }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ~AlignedBuffer() { Free(); }

  FPART_DISALLOW_COPY_AND_ASSIGN(AlignedBuffer);

 private:
  void Free();

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace fpart
