#include "common/aligned_buffer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/topology.h"

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace fpart {

namespace {
// Large buffers are 2 MB-aligned and advised to use transparent huge
// pages. A high-fanout partitioning pass keeps one write stream per
// partition live, which with 4 KB pages means far more hot pages than
// DTLB entries — a TLB miss per cache-line flush. 2 MB pages cover a
// 128 MB output with 64 entries.
constexpr size_t kHugePageSize = 2 * 1024 * 1024;

#if defined(__linux__)
// mbind(2) via raw syscall: glibc only exposes it through libnuma, which
// we do not depend on. Policy constants from <numaif.h>.
constexpr int kMpolInterleave = 3;

// Apply a NUMA policy to [p, p+len) before any page is touched. Advisory:
// failures (old kernels, cpusets, seccomp) are ignored and the region
// falls back to the default first-touch policy.
void BindRegion(void* p, size_t len, NumaPlacement placement) {
  const size_t num_nodes = Topology::Host().num_nodes();
  if (placement != NumaPlacement::kInterleave || num_nodes <= 1) return;
  unsigned long mask =
      (num_nodes >= sizeof(mask) * 8) ? ~0UL : ((1UL << num_nodes) - 1);
  // maxnode counts bits and must exceed the highest set bit.
  syscall(SYS_mbind, p, len, kMpolInterleave, &mask, sizeof(mask) * 8 + 1,
          0UL);
}
#endif
}  // namespace

Result<AlignedBuffer> AlignedBuffer::Allocate(size_t size, size_t alignment) {
  AllocateOptions options;
  options.alignment = alignment;
  return AllocateWith(size, options);
}

Result<AlignedBuffer> AlignedBuffer::AllocateWith(
    size_t size, const AllocateOptions& options) {
  size_t alignment = options.alignment;
  if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
    return Status::InvalidArgument("alignment must be a power of two");
  }
  AlignedBuffer buf;
  if (size == 0) return buf;
#if defined(__linux__)
  // mbind requires page-aligned regions; NUMA placement below cache-line
  // granularity is meaningless anyway.
  if (options.placement != NumaPlacement::kDefault) {
    alignment = std::max<size_t>(alignment,
                                 static_cast<size_t>(sysconf(_SC_PAGESIZE)));
  }
#endif
  // Round the size up to a multiple of the alignment, as required by
  // std::aligned_alloc and convenient for whole-cache-line transfers.
  size_t alloc_size = (size + alignment - 1) & ~(alignment - 1);
#if defined(__linux__)
  const bool huge = alloc_size >= kHugePageSize;
  if (huge) {
    alignment = std::max(alignment, kHugePageSize);
    alloc_size = (alloc_size + kHugePageSize - 1) & ~(kHugePageSize - 1);
  }
#endif
  void* p = std::aligned_alloc(alignment, alloc_size);
  if (p == nullptr) {
    return Status::CapacityError("failed to allocate " +
                                 std::to_string(alloc_size) + " bytes");
  }
#if defined(__linux__)
  // Advisory only: the first touch below (or by the caller, when zeroing
  // is deferred) then populates the region with huge pages where the
  // kernel can supply them.
  if (huge) madvise(p, alloc_size, MADV_HUGEPAGE);
  // Policy must be in place before the first touch commits the pages.
  BindRegion(p, alloc_size, options.placement);
#endif
  if (options.zero) std::memset(p, 0, alloc_size);
  buf.data_ = static_cast<uint8_t*>(p);
  buf.size_ = size;
  return buf;
}

void AlignedBuffer::Free() {
  std::free(data_);
  data_ = nullptr;
  size_ = 0;
}

}  // namespace fpart
