// CPU-based partitioning (Section 3), following the open-sourced radix
// partitioner of Balkesen et al. [3] that the paper uses as its software
// baseline: single-pass, parallel, with per-thread histograms, a prefix sum
// for synchronization-free scatter, software-managed cache-resident write
// buffers (Code 2) and optional non-temporal streaming stores [38].
//
// The naive variant (Code 1: scatter each tuple directly to its partition)
// is kept for the ablation benchmarks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/topology.h"
#include "datagen/partitioned_output.h"
#include "datagen/tuple.h"
#include "hash/hash_function.h"
#include "hash/simd_hash.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fpart {

/// \brief Knobs of the software partitioner.
struct CpuPartitionerConfig {
  /// Number of partitions (power of two).
  uint32_t fanout = 8192;
  /// Radix bits (cheap) or murmur hashing (robust), Section 3.2.
  HashMethod hash = HashMethod::kRadix;
  /// kRange only: fanout-1 sorted splitters (see EquiDepthSplitters).
  std::vector<uint64_t> range_splitters;
  size_t num_threads = 1;
  /// Code 2 software-managed buffers (true) vs Code 1 direct scatter.
  bool use_buffers = true;
  /// Non-temporal streaming stores for full buffer flushes [38].
  bool non_temporal = true;
  /// Fused single-hash fast path (DESIGN.md "CPU fast paths"): the
  /// histogram phase computes every chunk's partition indices once —
  /// batched through the SIMD kernels when the host supports them — into a
  /// per-thread index scratch that the scatter then replays, so no tuple
  /// is hashed twice and the scatter can prefetch its write buffers ahead.
  /// Opt-out knob so the ablation benches can chart the PR-1 scalar path.
  bool use_simd = true;
  /// Tuples of lookahead for the fused scatter's software prefetch of the
  /// per-partition write-buffer line (0 disables prefetching). Off by
  /// default: on the measured hosts the buffer block is L2-resident even
  /// at fanout 8192 (512 KB of 64 B buffers) and the extra index load per
  /// tuple costs more than the L2 latency it hides — see DESIGN.md.
  uint32_t prefetch_distance = 0;
  /// Optional shared pool; a private one is created per call when null.
  ThreadPool* pool = nullptr;
  /// Worker pinning policy for the private pool (ignored when `pool` is
  /// set — a shared pool was built with its own policy). Defaults to the
  /// process-wide FPART_AFFINITY knob.
  AffinityPolicy affinity = AffinityPolicyFromEnv();
  /// Cooperative cancellation token (svc job cancellation). Checked at
  /// phase boundaries only — never inside the per-tuple loops — so a
  /// running phase always completes before the run aborts with
  /// Status::Cancelled. Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;
};

/// \brief Result of one CPU partitioning run (measured wall time).
template <typename T>
struct CpuRunResult {
  PartitionedOutput<T> output;
  double seconds = 0.0;
  double mtuples_per_sec = 0.0;
  /// Phase split of `seconds` (prefix sums and allocation excluded).
  double histogram_seconds = 0.0;
  double scatter_seconds = 0.0;
  std::vector<uint64_t> histogram;
};

namespace internal {

/// Flush one cache line worth of tuples from a write buffer to `dst`.
/// Uses streaming (non-temporal) stores when enabled and aligned, avoiding
/// the read-for-ownership of the destination line and cache pollution.
template <typename T>
inline void FlushLine(T* dst, const T* src, bool non_temporal) {
#if defined(__SSE2__)
  if (non_temporal && (reinterpret_cast<uintptr_t>(dst) % 64) == 0) {
    const __m128i* s = reinterpret_cast<const __m128i*>(src);
    __m128i* d = reinterpret_cast<__m128i*>(dst);
    for (int i = 0; i < 4; ++i) {
      _mm_stream_si128(d + i, _mm_loadu_si128(s + i));
    }
    return;
  }
#else
  (void)non_temporal;
#endif
  std::memcpy(dst, src, kCacheLineSize);
}

/// FlushLine with an optional wide-store flush — one 64 B streaming store
/// at AVX-512, two 32 B ones at AVX2, instead of four 16 B ones; used by
/// the fused fast path.
template <typename T>
FPART_FORCE_INLINE void FlushLine(T* dst, const T* src, bool non_temporal,
                                  SimdLevel level) {
#if defined(FPART_HAS_X86_SIMD_KERNELS)
  if (non_temporal &&
      (reinterpret_cast<uintptr_t>(dst) % kCacheLineSize) == 0) {
    if (SimdLevelAtLeast(level, SimdLevel::kAvx512)) {
      simd::StreamLine64Avx512(dst, src);
      return;
    }
    if (SimdLevelAtLeast(level, SimdLevel::kAvx2)) {
      simd::StreamLine64Avx2(dst, src);
      return;
    }
  }
#else
  (void)level;
#endif
  FlushLine(dst, src, non_temporal);
}

inline void StoreFence() {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

/// One software-managed write-combining buffer: exactly one cache line of
/// tuples (Code 2, Section 3.1).
template <typename T>
struct alignas(kCacheLineSize) WriteBuffer {
  T slots[TupleTraits<T>::kTuplesPerCacheLine];
};

/// Drain a partially filled buffer (`count` < tuples-per-line) to `dst`.
/// When the cursor is line-aligned and streaming is enabled, whole
/// 16-byte chunks go out as non-temporal stores — only the trailing
/// sub-chunk (if any) falls back to plain stores — so the final drain no
/// longer pulls the destination lines into the cache.
template <typename T>
inline void DrainPartial(T* dst, const T* src, uint32_t count,
                         bool non_temporal) {
  const size_t bytes = size_t{count} * sizeof(T);
#if defined(__SSE2__)
  if (non_temporal &&
      (reinterpret_cast<uintptr_t>(dst) % kCacheLineSize) == 0) {
    const size_t chunks = bytes / 16;
    const __m128i* s = reinterpret_cast<const __m128i*>(src);
    __m128i* d = reinterpret_cast<__m128i*>(dst);
    for (size_t i = 0; i < chunks; ++i) {
      _mm_stream_si128(d + i, _mm_loadu_si128(s + i));
    }
    std::memcpy(reinterpret_cast<uint8_t*>(dst) + chunks * 16,
                reinterpret_cast<const uint8_t*>(src) + chunks * 16,
                bytes - chunks * 16);
    return;
  }
#endif
  std::memcpy(dst, src, bytes);
}

/// Stage one tuple in its partition's write buffer, flushing a full cache
/// line (streamed when aligned) or re-aligning a mid-line cursor. Shared
/// by the scalar and fused scatter paths.
template <typename T>
FPART_FORCE_INLINE void BufferedInsert(const T& tuple, uint32_t p,
                                       WriteBuffer<T>* buffers, uint8_t* fill,
                                       uint64_t* dst, T* out_base,
                                       bool non_temporal,
                                       SimdLevel flush_level =
                                           SimdLevel::kScalar) {
  constexpr int kK = TupleTraits<T>::kTuplesPerCacheLine;
  buffers[p].slots[fill[p]] = tuple;
  if (++fill[p] == kK) {
    const uint32_t misalign = static_cast<uint32_t>(dst[p] & (kK - 1));
    if (misalign != 0) {
      // Per-thread cursors start mid-line for every thread but the
      // first (the prefix sum hands each thread a tuple-granular
      // range). Write the head tuples plainly until the cursor reaches
      // a line boundary — once per (thread, partition) run — so every
      // subsequent full flush is aligned and streams.
      const uint32_t head = kK - misalign;
      std::memcpy(out_base + dst[p], buffers[p].slots, head * sizeof(T));
      std::memmove(buffers[p].slots, buffers[p].slots + head,
                   misalign * sizeof(T));
      dst[p] += head;
      fill[p] = static_cast<uint8_t>(misalign);
    } else {
      // A full line at an aligned cursor: stream it to its destination.
      FlushLine(out_base + dst[p], buffers[p].slots, non_temporal,
                flush_level);
      dst[p] += kK;
      fill[p] = 0;
    }
  }
}

/// Drain all partially filled buffers after the scatter loop.
template <typename T>
inline void DrainBuffers(const WriteBuffer<T>* buffers, const uint8_t* fill,
                         uint64_t* dst, T* out_base, uint32_t fanout,
                         bool non_temporal) {
  for (uint32_t p = 0; p < fanout; ++p) {
    if (fill[p] == 0) continue;
    DrainPartial(out_base + dst[p], buffers[p].slots, fill[p], non_temporal);
    dst[p] += fill[p];
  }
  StoreFence();
}

}  // namespace internal

/// Compute the partition histogram of `tuples[begin, end)`.
template <typename T>
void BuildHistogram(const PartitionFn& fn, const T* tuples, size_t begin,
                    size_t end, uint64_t* hist) {
  for (size_t i = begin; i < end; ++i) {
    uint32_t p;
    if constexpr (sizeof(tuples[i].key) == 4) {
      p = fn(tuples[i].key);
    } else {
      p = fn.Apply64(tuples[i].key);
    }
    ++hist[p];
  }
}

/// Scatter `tuples[begin, end)` into `out` using per-partition write
/// cursors `dst` (tuple indices into the global output buffer). The
/// cursors are advanced; with buffers enabled, tuples are staged in
/// cache-resident buffers and flushed one cache line at a time (Code 2).
template <typename T>
void Scatter(const PartitionFn& fn, const T* tuples, size_t begin, size_t end,
             uint64_t* dst, T* out_base, const CpuPartitionerConfig& config) {
  if (!config.use_buffers) {
    // Code 1: one random cache-line touch per tuple.
    for (size_t i = begin; i < end; ++i) {
      uint32_t p;
      if constexpr (sizeof(tuples[i].key) == 4) {
        p = fn(tuples[i].key);
      } else {
        p = fn.Apply64(tuples[i].key);
      }
      out_base[dst[p]++] = tuples[i];
    }
    return;
  }
  // Code 2: software-managed buffers, one cache line per partition. The
  // buffer block must stay L1-resident for peak performance (Section 3.1).
  std::vector<internal::WriteBuffer<T>> buffers(fn.fanout());
  std::vector<uint8_t> fill(fn.fanout(), 0);
  for (size_t i = begin; i < end; ++i) {
    uint32_t p;
    if constexpr (sizeof(tuples[i].key) == 4) {
      p = fn(tuples[i].key);
    } else {
      p = fn.Apply64(tuples[i].key);
    }
    internal::BufferedInsert(tuples[i], p, buffers.data(), fill.data(), dst,
                             out_base, config.non_temporal);
  }
  internal::DrainBuffers(buffers.data(), fill.data(), dst, out_base,
                         fn.fanout(), config.non_temporal);
}

/// Fused phase 1 of the fast path: compute each tuple's partition index
/// exactly once — batched through PartitionFn::ApplyBatch, which uses the
/// AVX2 kernels when available — store it in the shared index scratch
/// `idx` (globally indexed, like `tuples`), and count the histogram from
/// the already-computed indices. The scatter replays `idx` instead of
/// hashing again.
template <typename T, typename IndexT>
void FusedHistogram(const PartitionFn& fn, const T* tuples, size_t begin,
                    size_t end, uint64_t* hist, IndexT* idx) {
  using KeyType = decltype(T{}.key);
  // One batch of keys + indices stays L1-resident next to the counters.
  constexpr size_t kBatch = 1024;
  alignas(kCacheLineSize) KeyType keys[kBatch];
  alignas(kCacheLineSize) uint32_t pidx[kBatch];
#if defined(FPART_HAS_X86_SIMD_KERNELS)
  const SimdLevel level = ActiveSimdLevel();
  const bool avx512 = SimdLevelAtLeast(level, SimdLevel::kAvx512);
  const bool avx2 = SimdLevelAtLeast(level, SimdLevel::kAvx2);
#else
  constexpr bool avx512 = false;
  constexpr bool avx2 = false;
#endif
  (void)avx512;
  // Half-width chunk-local counters: 32 KB at fanout 8192 instead of the
  // 64 KB uint64 histogram block, leaving L1 room for the key/index batch.
  // Safe while a chunk holds < 2^32 tuples; folded into `hist` at the end.
  const uint32_t fanout = fn.fanout();
  const bool narrow_counts = end - begin < (uint64_t{1} << 32);
  std::vector<uint32_t> counts(narrow_counts ? fanout : 0, 0);
  bool streamed = false;
  for (size_t base = begin; base < end; base += kBatch) {
    const size_t m = std::min(kBatch, end - base);
    // Key extraction, vectorized for the key-first 8 B / 16 B tuple
    // layouts (strided scalar loads defeat the hardware prefetcher's
    // usefulness to the hash kernels otherwise).
    bool gathered = false;
#if defined(FPART_HAS_X86_SIMD_KERNELS)
    if constexpr (sizeof(T) == 8 && sizeof(KeyType) == 4) {
      static_assert(offsetof(T, key) == 0);
      if (avx512) {
        simd::GatherKeys32Stride8Avx512(
            tuples + base, reinterpret_cast<uint32_t*>(keys), m);
        gathered = true;
      } else if (avx2) {
        simd::GatherKeys32Stride8Avx2(
            tuples + base, reinterpret_cast<uint32_t*>(keys), m);
        gathered = true;
      }
    } else if constexpr (sizeof(T) == 16 && sizeof(KeyType) == 8) {
      static_assert(offsetof(T, key) == 0);
      if (avx512) {
        simd::GatherKeys64Stride16Avx512(
            tuples + base, reinterpret_cast<uint64_t*>(keys), m);
        gathered = true;
      } else if (avx2) {
        simd::GatherKeys64Stride16Avx2(
            tuples + base, reinterpret_cast<uint64_t*>(keys), m);
        gathered = true;
      }
    }
#endif
    if (!gathered) {
      for (size_t k = 0; k < m; ++k) keys[k] = tuples[base + k].key;
    }
    if constexpr (sizeof(KeyType) == 4) {
      fn.ApplyBatch(keys, pidx, m);
    } else {
      fn.ApplyBatch64(keys, pidx, m);
    }
    // Narrow the batch into the index scratch. The uint16_t scratch is
    // streamed past the cache: it is only read back after the prefix-sum
    // barrier, so caching it would just evict the counters.
    bool packed = false;
#if defined(FPART_HAS_X86_SIMD_KERNELS)
    if constexpr (sizeof(IndexT) == 2) {
      if (avx512) {
        simd::PackIndex16Avx512(pidx, reinterpret_cast<uint16_t*>(idx + base),
                                m);
        packed = true;
        streamed = true;
      } else if (avx2) {
        simd::PackIndex16Avx2(pidx, reinterpret_cast<uint16_t*>(idx + base),
                              m);
        packed = true;
        streamed = true;
      }
    }
#endif
    if (!packed) {
      for (size_t k = 0; k < m; ++k) {
        idx[base + k] = static_cast<IndexT>(pidx[k]);
      }
    }
    if (narrow_counts) {
      for (size_t k = 0; k < m; ++k) ++counts[pidx[k]];
    } else {
      for (size_t k = 0; k < m; ++k) ++hist[pidx[k]];
    }
  }
  if (narrow_counts) {
    for (uint32_t p = 0; p < fanout; ++p) hist[p] += counts[p];
  }
  if (streamed) internal::StoreFence();
}

/// Fused phase 2: scatter using the partition indices precomputed by
/// FusedHistogram — no second hash pass — and software-prefetch the
/// per-partition write-buffer line `prefetch_distance` tuples ahead (the
/// buffer block exceeds L1 at high fan-outs, so the insert's random
/// access would otherwise stall on L2). Handles both the Code 2 buffered
/// path and the Code 1 direct scatter.
template <typename T, typename IndexT>
void ScatterFused(const T* tuples, size_t begin, size_t end,
                  const IndexT* idx, uint32_t fanout, uint64_t* dst,
                  T* out_base, const CpuPartitionerConfig& config) {
  const size_t dist = config.prefetch_distance;
#if defined(FPART_HAS_X86_SIMD_KERNELS)
  const SimdLevel flush_level = ActiveSimdLevel();
#else
  constexpr SimdLevel flush_level = SimdLevel::kScalar;
#endif
  if (!config.use_buffers) {
    // Code 1, single-hash: prefetch the destination cursor's line ahead.
    if (dist == 0) {
      for (size_t i = begin; i < end; ++i) {
        out_base[dst[idx[i]]++] = tuples[i];
      }
    } else {
      for (size_t i = begin; i < end; ++i) {
        if (i + dist < end) {
          PrefetchForWrite(out_base + dst[idx[i + dist]]);
        }
        out_base[dst[idx[i]]++] = tuples[i];
      }
    }
    return;
  }
  std::vector<internal::WriteBuffer<T>> buffers(fanout);
  std::vector<uint8_t> fill(fanout, 0);
  // Specialized loops: the prefetch costs an extra index load per tuple,
  // so the disabled case must not pay even the test for it.
  if (dist == 0) {
    for (size_t i = begin; i < end; ++i) {
      internal::BufferedInsert(tuples[i], static_cast<uint32_t>(idx[i]),
                               buffers.data(), fill.data(), dst, out_base,
                               config.non_temporal, flush_level);
    }
  } else {
    for (size_t i = begin; i < end; ++i) {
      if (i + dist < end) {
        PrefetchForWrite(&buffers[idx[i + dist]]);
      }
      internal::BufferedInsert(tuples[i], static_cast<uint32_t>(idx[i]),
                               buffers.data(), fill.data(), dst, out_base,
                               config.non_temporal, flush_level);
    }
  }
  internal::DrainBuffers(buffers.data(), fill.data(), dst, out_base, fanout,
                         config.non_temporal);
}

/// \brief Single-pass parallel radix/hash partitioning.
///
/// Phase 1: per-thread histograms over disjoint chunks. Phase 2: exclusive
/// prefix sums give every (thread, partition) pair a private output range,
/// so the scatter needs no synchronization. This mirrors [3]; the histogram
/// exists *for* that synchronization — the FPGA needs none (Section 4.7).
template <typename T>
Result<CpuRunResult<T>> CpuPartition(const CpuPartitionerConfig& config,
                                     const T* tuples, size_t n) {
  constexpr int kK = TupleTraits<T>::kTuplesPerCacheLine;
  if (!IsPowerOfTwo(config.fanout)) {
    return Status::InvalidArgument("fanout must be a power of two");
  }
  if (config.hash == HashMethod::kRange &&
      config.range_splitters.size() + 1 != config.fanout) {
    return Status::InvalidArgument(
        "range partitioning needs exactly fanout-1 splitters");
  }
  auto cancelled = [&config] {
    return config.cancel != nullptr &&
           config.cancel->load(std::memory_order_relaxed);
  };
  if (cancelled()) {
    return Status::Cancelled("CPU partition cancelled before start");
  }
  const PartitionFn fn =
      config.hash == HashMethod::kRange
          ? PartitionFn::Range(config.range_splitters)
          : PartitionFn(config.hash, config.fanout);
  const size_t num_threads = std::max<size_t>(1, config.num_threads);

  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = config.pool;
  if (pool == nullptr && num_threads > 1) {
    own_pool =
        std::make_unique<ThreadPool>(num_threads, "fpart-wkr", config.affinity);
    pool = own_pool.get();
  }

  auto chunk_begin = [&](size_t t) { return n * t / num_threads; };

  // Allocation is outside the timed region (pre-allocated outputs, as in
  // the baseline implementation).
  std::vector<std::vector<uint64_t>> hist(
      num_threads, std::vector<uint64_t>(config.fanout, 0));

  // Fused fast path: the partition index of every tuple is computed once
  // in phase 1 and replayed in phase 2 from this scratch. Indices are
  // uint16_t up to 64Ki partitions so the scratch streams at 2 B/tuple.
  // The buffer is allocated untouched and first-touched below by the same
  // per-thread chunks the phases use, so with pinned workers each page
  // lands on the NUMA node of the worker that will write and read it —
  // and the page faults stay out of the timed region either way.
  const bool fused = config.use_simd && n > 0;
  const bool narrow_idx = config.fanout <= (uint32_t{1} << 16);
  const size_t idx_elem = narrow_idx ? sizeof(uint16_t) : sizeof(uint32_t);
  AlignedBuffer idx_buf;
  uint16_t* idx16 = nullptr;
  uint32_t* idx32 = nullptr;
  if (fused) {
    AlignedBuffer::AllocateOptions idx_opts;
    idx_opts.zero = false;  // first-touched just below
    FPART_ASSIGN_OR_RETURN(idx_buf,
                           AlignedBuffer::AllocateWith(n * idx_elem, idx_opts));
    if (narrow_idx) {
      idx16 = idx_buf.mutable_data_as<uint16_t>();
    } else {
      idx32 = idx_buf.mutable_data_as<uint32_t>();
    }
    auto touch_chunk = [&](size_t t) {
      const size_t begin = chunk_begin(t), end = chunk_begin(t + 1);
      std::memset(idx_buf.data() + begin * idx_elem, 0,
                  (end - begin) * idx_elem);
    };
    if (num_threads == 1) {
      touch_chunk(0);
    } else {
      pool->ParallelFor(num_threads, touch_chunk);
    }
  }

  Timer timer;
  // --- Phase 1: histograms (fused path also records partition indices).
  auto histogram_chunk = [&](size_t t) {
    obs::HwPhaseScope hw("histogram");
    const size_t begin = chunk_begin(t), end = chunk_begin(t + 1);
    if (!fused) {
      BuildHistogram(fn, tuples, begin, end, hist[t].data());
    } else if (narrow_idx) {
      FusedHistogram(fn, tuples, begin, end, hist[t].data(), idx16);
    } else {
      FusedHistogram(fn, tuples, begin, end, hist[t].data(), idx32);
    }
  };
  double hist_seconds;
  {
    obs::TraceSpan span("cpu.partition.histogram", "cpu");
    if (num_threads == 1) {
      histogram_chunk(0);
    } else {
      pool->ParallelFor(num_threads, histogram_chunk);
    }
    hist_seconds = timer.Seconds();
  }
  if (cancelled()) {
    return Status::Cancelled("CPU partition cancelled after histogram phase");
  }

  // --- Prefix sums: partition bases (cache-line granular so partitions
  // start aligned) and per-thread cursors within each partition.
  std::vector<uint64_t> part_total(config.fanout, 0);
  for (uint32_t p = 0; p < config.fanout; ++p) {
    for (size_t t = 0; t < num_threads; ++t) part_total[p] += hist[t][p];
  }
  std::vector<uint32_t> capacity_cls(config.fanout);
  for (uint32_t p = 0; p < config.fanout; ++p) {
    capacity_cls[p] = static_cast<uint32_t>((part_total[p] + kK - 1) / kK);
  }
  FPART_ASSIGN_OR_RETURN(PartitionedOutput<T> output,
                         PartitionedOutput<T>::Allocate(capacity_cls));
  T* out_base = reinterpret_cast<T*>(output.mutable_data());
  PartitionInfo* const parts = output.mutable_parts();
  std::vector<std::vector<uint64_t>> cursor(
      num_threads, std::vector<uint64_t>(config.fanout, 0));
  for (uint32_t p = 0; p < config.fanout; ++p) {
    uint64_t base = parts[p].base_cl * kK;
    for (size_t t = 0; t < num_threads; ++t) {
      cursor[t][p] = base;
      base += hist[t][p];
    }
  }

  // --- Phase 2: synchronization-free scatter.
  Timer scatter_timer;
  auto scatter_chunk = [&](size_t t) {
    obs::HwPhaseScope hw("scatter");
    const size_t begin = chunk_begin(t), end = chunk_begin(t + 1);
    if (!fused) {
      Scatter(fn, tuples, begin, end, cursor[t].data(), out_base, config);
    } else if (narrow_idx) {
      ScatterFused(tuples, begin, end, idx16, config.fanout,
                   cursor[t].data(), out_base, config);
    } else {
      ScatterFused(tuples, begin, end, idx32, config.fanout,
                   cursor[t].data(), out_base, config);
    }
  };
  double scatter_seconds;
  {
    obs::TraceSpan span("cpu.partition.scatter", "cpu");
    if (num_threads == 1) {
      scatter_chunk(0);
    } else {
      pool->ParallelFor(num_threads, scatter_chunk);
    }
    scatter_seconds = scatter_timer.Seconds();
  }
  double seconds = hist_seconds + scatter_seconds;

  CpuRunResult<T> result;
  result.histogram_seconds = hist_seconds;
  result.scatter_seconds = scatter_seconds;
  for (uint32_t p = 0; p < config.fanout; ++p) {
    parts[p].num_tuples = part_total[p];
    parts[p].written_cls = capacity_cls[p];
    // Mark the unused slots of the partition's last cache line as dummies,
    // the same convention the FPGA flush uses (Section 4.2), so consumers
    // can treat both outputs identically.
    T* data = out_base + parts[p].base_cl * kK;
    for (uint64_t i = part_total[p];
         i < static_cast<uint64_t>(capacity_cls[p]) * kK; ++i) {
      data[i] = MakeDummyTuple<T>();
    }
  }
  result.output = std::move(output);
  result.histogram = std::move(part_total);
  result.seconds = seconds;
  result.mtuples_per_sec = seconds > 0 ? n / seconds / 1e6 : 0.0;

  // Publish the run to the metrics registry — after the timed phases, so
  // the hot loops above never see the instrumentation.
  {
    auto& reg = obs::Registry::Global();
    static obs::Counter* const runs = reg.GetCounter(
        "cpu.partition.runs", "runs", "CPU partitioning runs completed");
    static obs::Counter* const tuples_total = reg.GetCounter(
        "cpu.partition.tuples", "tuples", "tuples partitioned on the CPU");
    static obs::Histogram* const hist_us = reg.GetHistogram(
        "cpu.partition.histogram_us", "us",
        "histogram-phase wall time per run");
    static obs::Histogram* const scatter_us = reg.GetHistogram(
        "cpu.partition.scatter_us", "us",
        "scatter-phase wall time per run");
    runs->Add();
    tuples_total->Add(n);
    hist_us->Record(static_cast<uint64_t>(hist_seconds * 1e6));
    scatter_us->Record(static_cast<uint64_t>(scatter_seconds * 1e6));
  }
  return result;
}

}  // namespace fpart
