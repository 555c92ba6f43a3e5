// Fast execution path of the cycle simulator (SimMode::kFast).
//
// The reference loop in fpga/partitioner.h advances the circuit one module
// Tick() at a time and carries every tuple through every pipeline register.
// But the circuit's timing never depends on the payload bytes: how many
// cycles a run takes is decided by which partition each tuple hashes to,
// by the lane FIFOs, the write-combiner fill rates, the output FIFOs and
// the QPI tokens (Sections 4.3 and 4.8). FastCircuit therefore splits a
// pass in two:
//
//  1. A timing loop that carries only 16-bit partition ids. Every input
//     tuple is hashed once per run, up front, with the batched SIMD kernels
//     (PartitionIds); the loop replays the cycle-exact behaviour of the
//     reference modules on those ids and yields the same CycleStats, the
//     same PartitionInfo counts and the same PAD overflow. Each time the
//     write-back stage pops a line it records the line's destination cache
//     line (`base_cl + written_cls` at pick time) in one list per lane.
//  2. A data pass that walks the input once in group order, write-combines
//     each lane's tuples per partition and streams every completed line to
//     the lane's next recorded destination. A lane's output FIFO is filled
//     in completion order and drained in FIFO order, so the k-th line lane
//     c completes is the k-th line the write-back popped from lane c. The
//     flush lines follow the same rule: each lane's partial lines in
//     partition order, padded with dummy tuples.
//
// Two equivalences make the timing loop id-only:
//  * Each lane's hash delay line and input FIFO are one ring of ids.
//    Entries become visible `hash_latency` cycles after insertion (an
//    arrival mask per (cycle mod latency) slot), because a fixed-latency
//    pipeline feeding a FIFO is itself a FIFO.
//  * A lane's fill rates are counted when a tuple is popped, and a
//    "completes a line" bit rides from stage 1 to stage 2. Code 4's
//    forwarding registers (and, under kStall, the stall itself) exist
//    precisely so that the fill rate a tuple receives equals this
//    sequential count; the reference loop keeps them as the spec.
//
// The differential harnesses (tests/sim_fastpath_test.cc and
// tests/sim_shapes_test.cc) assert identical CycleStats, histograms,
// PartitionInfo and output bytes against the reference loop.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/status.h"
#include "datagen/partitioned_output.h"
#include "datagen/tuple.h"
#include "fpga/config.h"
#include "fpga/staging.h"
#include "fpga/write_combiner.h"
#include "hash/hash_function.h"
#include "qpi/qpi_link.h"
#include "sim/stats.h"

namespace fpart {

/// \brief Timing loop plus data pass for one simulator pass.
///
/// One instance executes exactly one pass (histogram or partition), like
/// the reference loop constructs fresh module objects per pass. The ids
/// from PartitionIds are shared by both passes of a HIST run.
template <typename T>
class FastCircuit {
 public:
  static constexpr int K = TupleTraits<T>::kTuplesPerCacheLine;
  static_assert(FpgaPartitionerConfig::kMaxFanout <= 65536,
                "partition ids are stored as uint16_t");

  /// Partition id of every input tuple, in stream order, hashed in
  /// batches by PartitionFn::ApplyBatch / ApplyBatch64.
  static std::vector<uint16_t> PartitionIds(const InputStager<T>& stager,
                                            const PartitionFn& fn, size_t n) {
    using KeyType = decltype(T{}.key);
    constexpr size_t kBatch = 1024;
    std::vector<uint16_t> ids(n);
    KeyType keys[kBatch];
    uint32_t pidx[kBatch];
    T scratch[InputStager<T>::kMaxTuplesPerRead];
    size_t batched = 0, done = 0;
    auto flush = [&] {
      if constexpr (sizeof(KeyType) == 4) {
        fn.ApplyBatch(keys, pidx, batched);
      } else {
        fn.ApplyBatch64(keys, pidx, batched);
      }
      for (size_t k = 0; k < batched; ++k) {
        ids[done + k] = static_cast<uint16_t>(pidx[k]);
      }
      done += batched;
      batched = 0;
    };
    const size_t reads = stager.TotalReads(n);
    for (size_t r = 0; r < reads; ++r) {
      const size_t count = stager.ReadEnd(n, r) - stager.ReadBegin(r);
      if (batched + count > kBatch) flush();
      const T* tuples = stager.ReadTuples(n, r, scratch);
      for (size_t k = 0; k < count; ++k) keys[batched++] = tuples[k].key;
    }
    flush();
    return ids;
  }

  FastCircuit(const FpgaPartitionerConfig& config, HazardPolicy hazard,
              const InputStager<T>& stager, size_t n,
              const std::vector<uint16_t>& ids)
      : hazard_(hazard),
        stager_(stager),
        ids_(ids),
        n_(n),
        total_reads_(stager.TotalReads(n)),
        fanout_(config.fanout),
        lat_(config.hash_latency() < 1 ? 1u
                                       : static_cast<uint32_t>(
                                             config.hash_latency())),
        in_depth_(config.lane_fifo_depth),
        out_depth_(config.output_fifo_depth),
        groups_per_read_(stager.GroupsPerRead()),
        arrival_mask_(lat_, 0) {}

  /// HIST pass 1: scan the relation and build per-lane histograms
  /// (reference: FpgaPartitioner::HistogramPass). The counts follow from
  /// the ids alone; the loop only times the scan, one pop per lane per
  /// cycle. `flatten` pulls the per-cycle helpers into the loop body.
#if defined(__GNUC__)
  __attribute__((flatten))
#endif
  Status HistogramPass(uint64_t max_cycles, QpiLink* link, CycleStats* stats,
                       std::vector<std::vector<uint64_t>>* lane_hist) {
    lane_hist->assign(K, std::vector<uint64_t>(fanout_, 0));
    for (size_t r = 0; r < total_reads_; ++r) {
      const size_t begin = stager_.ReadBegin(r);
      const size_t end = stager_.ReadEnd(n_, r);
      for (size_t i = begin; i < end; ++i) {
        ++(*lane_hist)[(i - begin) % K][ids_[i]];
      }
    }
    while (fed_ < n_ || AnyLaneOccupied()) {
      // Steady window: while tuples remain to feed, the pass stays busy.
      const uint64_t w = fed_ < n_ ? (n_ - fed_ + K - 1) / K : 1;
      for (uint64_t i = 0; i < w; ++i) {
        if (stats->cycles++ > max_cycles) {
          return Status::Internal("histogram pass exceeded cycle budget");
        }
        link->Tick();
        for (uint32_t m = ready_mask_; m != 0; m &= m - 1) {
          PopFront(__builtin_ctz(m));
        }
        FeedCycle</*kStoreIds=*/false>(link, stats);
      }
    }
    return Status::OK();
  }

  /// The writing pass (PAD's only pass / HIST's second pass): the timing
  /// loop with its flush and drain epilogue (reference:
  /// FpgaPartitioner::PartitionPass), then the data pass.
#if defined(__GNUC__)
  __attribute__((flatten))
#endif
  Status PartitionPass(uint64_t max_cycles, QpiLink* link, CycleStats* stats,
                       PartitionedOutput<T>* output) {
    PartitionInfo* const parts = output->mutable_parts();
    ring_.assign(static_cast<size_t>(K) * in_depth_, 0);
    out_.assign(static_cast<size_t>(K) * out_depth_, OutLine{});
    fill_.assign(static_cast<size_t>(K) * fanout_, 0);
    for (auto& d : dests_) d.reserve(n_ / (K * K) + fanout_ + 1);

    // --- Main streaming loop, in steady windows.
    while (PartitionBusy()) {
      const uint64_t w = fed_ < n_ ? (n_ - fed_ + K - 1) / K : 1;
      for (uint64_t i = 0; i < w; ++i) {
        if (stats->cycles++ > max_cycles) {
          return Status::Internal("partition pass exceeded cycle budget");
        }
        link->Tick();
        WriteBackTick(link, stats, parts);
        if (overflowed_) return OverflowStatus();
        CombinerTick();
        FeedCycle</*kStoreIds=*/true>(link, stats);
      }
    }

    // --- Flush: one (combiner, partition) BRAM address per cycle.
    const uint64_t flush_start_cycles = stats->cycles;
    for (int c = 0; c < K; ++c) {
      uint32_t p = 0;
      while (p < fanout_) {
        if (stats->cycles++ > max_cycles) {
          return Status::Internal("flush exceeded cycle budget");
        }
        link->Tick();
        WriteBackTick(link, stats, parts);
        if (overflowed_) return OverflowStatus();
        if (lanes_[c].out_count < out_depth_) {
          uint8_t& fill = fill_[static_cast<size_t>(c) * fanout_ + p];
          if (fill != 0) {
            PushLine(c, OutLine{static_cast<uint16_t>(p), fill});
            fill = 0;
          }
          ++p;
        }
      }
    }
    // --- Drain the remaining lines.
    while (wb_valid_ || out_mask_ != 0) {
      if (stats->cycles++ > max_cycles) {
        return Status::Internal("drain exceeded cycle budget");
      }
      link->Tick();
      WriteBackTick(link, stats, parts);
      if (overflowed_) return OverflowStatus();
    }
    stats->flush_cycles += stats->cycles - flush_start_cycles;
    stats->internal_stall_cycles += stall_cycles_;
    if (lost_lines_ != 0) {
      return Status::Internal("write combiner dropped data (bug)");
    }

    DataPass(output->mutable_data());
    return Status::OK();
  }

 private:
  /// Per-lane FIFO cursors. The combiner's stage registers live in lane
  /// bitmasks (below), so a cycle only visits the lanes that act in it.
  struct Lane {
    // Ring occupancy: `count` visible ids starting at `head`, then
    // `inflight` ids still inside the hash pipeline.
    uint32_t head = 0;
    uint32_t count = 0;
    uint32_t inflight = 0;
    uint32_t out_head = 0, out_count = 0;
  };

  /// A line in an output FIFO: its partition and its real tuples (K for a
  /// combined line, fewer for a flush line).
  struct OutLine {
    uint16_t partition = 0;
    uint8_t valid = 0;
  };

  /// One write-combiner line buffer in the data pass.
  struct alignas(kCacheLineSize) LineBuffer {
    T tuples[K];
  };

  bool AnyLaneOccupied() const {
    for (int c = 0; c < K; ++c) {
      if (lanes_[c].count != 0 || lanes_[c].inflight != 0) return true;
    }
    return false;
  }

  bool PartitionBusy() const {
    return fed_ < n_ || wb_valid_ || (out_mask_ | s1_ | s2_ | asm_) != 0 ||
           AnyLaneOccupied();
  }

  /// Pop lane `c`'s front id (the caller checked it has one).
  void PopFront(int c) {
    Lane& l = lanes_[c];
    l.head = l.head + 1 == in_depth_ ? 0 : l.head + 1;
    if (l.count + l.inflight == in_depth_) --full_lanes_;
    if (--l.count == 0) ready_mask_ &= ~(1u << c);
  }

  // ---- Lane front end -----------------------------------------------------

  /// Per-cycle input machinery (reference: FpgaPartitioner::FeedCycle).
  /// Staging occupancy is a group counter; the fed group's size comes from
  /// the stager's read boundaries, so every layout splits the same way.
  /// Ids inserted here surface `lat_` cycles later.
  template <bool kStoreIds>
  void FeedCycle(QpiLink* link, CycleStats* stats) {
    if (reads_done_ < total_reads_ && staged_ < 2 * groups_per_read_) {
      if (link->TryRead()) {
        staged_ += stager_.GroupsOfRead(n_, reads_done_);
        ++reads_done_;
        ++stats->read_lines;
      } else {
        ++stats->backpressure_cycles;
        ++stats->read_stall_cycles;
      }
    }
    // Emergence: ids inserted lat_ cycles ago become visible. A group
    // always fills lanes 0..count-1, so one arrival slot is a bitmask of
    // low bits (and usually zero: no feed happened lat_ cycles ago).
    uint32_t arrived = arrival_mask_[pipe_pos_];
    if (arrived) {
      arrival_mask_[pipe_pos_] = 0;
      ready_mask_ |= arrived;
      for (int c = 0; arrived; ++c, arrived >>= 1) {
        ++lanes_[c].count;
        --lanes_[c].inflight;
      }
    }
    // Feed-ready: a slot must be free in every lane ring. `full_lanes_`,
    // maintained at insert and pop, counts the lanes failing that.
    if (staged_ > 0 && full_lanes_ == 0) {
      if (fed_ == feed_end_) feed_end_ = stager_.ReadEnd(n_, feed_read_++);
      const uint32_t cnt =
          static_cast<uint32_t>(std::min<size_t>(K, feed_end_ - fed_));
      for (uint32_t c = 0; c < cnt; ++c) {
        Lane& l = lanes_[c];
        if constexpr (kStoreIds) {
          uint32_t pos = l.head + l.count + l.inflight;
          if (pos >= in_depth_) pos -= in_depth_;
          ring_[c * in_depth_ + pos] = ids_[fed_ + c];
        }
        if (l.count + ++l.inflight == in_depth_) ++full_lanes_;
      }
      arrival_mask_[pipe_pos_] = (1u << cnt) - 1;
      fed_ += cnt;
      ++stats->input_lines;
      --staged_;
    }
    pipe_pos_ = pipe_pos_ + 1 == lat_ ? 0 : pipe_pos_ + 1;
  }

  // ---- Write combiners ----------------------------------------------------

  void PushLine(int c, OutLine line) {
    Lane& l = lanes_[c];
    uint32_t pos = l.out_head + l.out_count;
    if (pos >= out_depth_) pos -= out_depth_;
    out_[c * out_depth_ + pos] = line;
    if (l.out_count++ == 0) out_mask_ |= 1u << c;
  }

  /// One write-combiner clock for every lane (reference:
  /// WriteCombiner::Tick, stages 3 → 0 → 2, then register shift).
  void CombinerTick() {
    // --- Stage 3: the lines completed last cycle go downstream.
    for (uint32_t m = asm_; m != 0; m &= m - 1) {
      const int c = __builtin_ctz(m);
      if (lanes_[c].out_count == out_depth_) {
        ++lost_lines_;  // impossible: stage 0 reserved the slot
      } else {
        PushLine(c, OutLine{asm_h_[c], static_cast<uint8_t>(K)});
      }
    }
    // --- Stage 0: every lane with a visible id pops it and counts its
    // fill rate, if its output FIFO has room for the lines of the tuples
    // still in stages 1 and 2.
    uint32_t pop = 0, pop_completes = 0;
    std::array<uint16_t, K> in_h{};
    for (uint32_t m = ready_mask_; m != 0; m &= m - 1) {
      const int c = __builtin_ctz(m);
      const uint32_t in_s1 = (s1_ >> c) & 1, in_s2 = (s2_ >> c) & 1;
      Lane& l = lanes_[c];
      if (out_depth_ - l.out_count <= in_s1 + in_s2) continue;
      const uint16_t front = ring_[c * in_depth_ + l.head];
      if (hazard_ == HazardPolicy::kStall &&
          ((in_s1 && s1_h_[c] == front) || (in_s2 && s2_h_[c] == front))) {
        ++stall_cycles_;
        continue;
      }
      PopFront(c);
      uint8_t& fill = fill_[static_cast<size_t>(c) * fanout_ + front];
      if (fill == K - 1) {
        fill = 0;
        pop_completes |= 1u << c;
      } else {
        ++fill;
      }
      pop |= 1u << c;
      in_h[c] = front;
      if (l.count > 0) {
        __builtin_prefetch(&fill_[static_cast<size_t>(c) * fanout_ +
                                  ring_[c * in_depth_ + l.head]],
                           1, 1);
      }
    }
    // --- Stage 2 (a completing tuple requests its line), register shift.
    asm_ = s2_ & s2_completes_;
    asm_h_ = s2_h_;
    s2_ = s1_;
    s2_completes_ = s1_completes_;
    s2_h_ = s1_h_;
    s1_ = pop;
    s1_completes_ = pop_completes;
    s1_h_ = in_h;
  }

  // ---- Write-back ---------------------------------------------------------

  /// One write-back clock (reference: WriteBackModule::Tick). Moves no
  /// data: the popped line's destination goes to its lane's log.
  void WriteBackTick(QpiLink* link, CycleStats* stats, PartitionInfo* parts) {
    if (!wb_valid_ && out_mask_ != 0) {
      // Round-robin pick: rotate the occupancy mask so rr_cursor_ is bit 0
      // and take the lowest set bit — same lane the reference scan finds.
      const uint32_t full = (1u << K) - 1;
      const uint32_t rot =
          ((out_mask_ >> rr_cursor_) | (out_mask_ << (K - rr_cursor_))) & full;
      const uint32_t idx = (rr_cursor_ + __builtin_ctz(rot)) & (K - 1);
      Lane& l = lanes_[idx];
      const OutLine line = out_[idx * out_depth_ + l.out_head];
      l.out_head = l.out_head + 1 == out_depth_ ? 0 : l.out_head + 1;
      if (--l.out_count == 0) out_mask_ &= ~(1u << idx);
      rr_cursor_ = idx + 1 == static_cast<uint32_t>(K) ? 0 : idx + 1;
      PartitionInfo& part = parts[line.partition];
      if (part.written_cls >= part.capacity_cls) {
        overflowed_ = true;
        overflow_partition_ = line.partition;
        return;
      }
      dests_[idx].push_back(part.base_cl + part.written_cls);
      ++part.written_cls;
      part.num_tuples += line.valid;
      wb_valid_count_ = line.valid;
      wb_valid_ = true;
    }
    if (wb_valid_) {
      if (link->TryWrite()) {
        ++stats->output_lines;
        stats->dummy_tuples += K - wb_valid_count_;
        wb_valid_ = false;
      } else {
        ++stats->backpressure_cycles;
        ++stats->write_stall_cycles;
      }
    }
  }

  Status OverflowStatus() const {
    return Status::PartitionOverflow(
        "PAD-mode partition " + std::to_string(overflow_partition_) +
        " overflowed; retry in HIST mode or fall back to the CPU "
        "partitioner (Section 4.5)");
  }

  // ---- Data pass ----------------------------------------------------------

  static void StreamLine(uint8_t* dst, const LineBuffer& line) {
#if defined(__SSE2__)
    // Each output line is written once and not re-read here: streaming
    // stores skip the read-for-ownership of the destination.
    const auto* src = reinterpret_cast<const __m128i*>(line.tuples);
    for (size_t b = 0; b < kCacheLineSize / 16; ++b) {
      _mm_stream_si128(reinterpret_cast<__m128i*>(dst) + b,
                       _mm_load_si128(src + b));
    }
#else
    std::memcpy(dst, line.tuples, kCacheLineSize);
#endif
  }

  /// Write-combine every lane's tuples per partition and stream each line
  /// to the lane's next logged destination, then the flush lines.
  void DataPass(uint8_t* data) {
    const size_t lines = static_cast<size_t>(K) * fanout_;
    std::unique_ptr<LineBuffer[]> buf(new LineBuffer[lines]);
    std::vector<uint8_t> fill(lines, 0);
    std::array<const uint64_t*, K> dest{};
    for (int c = 0; c < K; ++c) dest[c] = dests_[c].data();
    T scratch[InputStager<T>::kMaxTuplesPerRead];
    // Far enough ahead to cover a miss in the multi-MB buffer array; a
    // multiple of K, so the prefetched line belongs to the same lane.
    constexpr size_t kAhead = 4 * K;
    for (size_t r = 0; r < total_reads_; ++r) {
      const size_t begin = stager_.ReadBegin(r);
      const size_t count = stager_.ReadEnd(n_, r) - begin;
      const T* tuples = stager_.ReadTuples(n_, r, scratch);
      for (size_t k = 0; k < count; ++k) {
        const size_t c = k % K;
        const size_t i = begin + k;
        if (i + kAhead < n_) {
          __builtin_prefetch(&buf[c * fanout_ + ids_[i + kAhead]], 1, 1);
        }
        const size_t slot = c * fanout_ + ids_[i];
        buf[slot].tuples[fill[slot]] = tuples[k];
        if (++fill[slot] == K) {
          StreamLine(data + *dest[c]++ * kCacheLineSize, buf[slot]);
          fill[slot] = 0;
        }
      }
    }
    for (int c = 0; c < K; ++c) {
      for (uint32_t p = 0; p < fanout_; ++p) {
        const size_t slot = static_cast<size_t>(c) * fanout_ + p;
        if (fill[slot] == 0) continue;
        for (int b = fill[slot]; b < K; ++b) {
          buf[slot].tuples[b] = MakeDummyTuple<T>();
        }
        StreamLine(data + *dest[c]++ * kCacheLineSize, buf[slot]);
      }
    }
#if defined(__SSE2__)
    _mm_sfence();  // order the streaming stores before the caller reads
#endif
  }

  // ---- State --------------------------------------------------------------

  const HazardPolicy hazard_;
  const InputStager<T>& stager_;
  const std::vector<uint16_t>& ids_;
  const size_t n_;
  const size_t total_reads_;
  const uint32_t fanout_;
  const uint32_t lat_;
  const uint32_t in_depth_;
  const uint32_t out_depth_;
  const size_t groups_per_read_;

  std::array<Lane, K> lanes_{};
  // Bit c set iff lane c has a visible id.
  uint32_t ready_mask_ = 0;
  // arrival_mask_[cycle mod lat_]: bitmask of lanes fed at that cycle
  // position (always the low `count` bits of the group), credited to
  // `count` when the position comes around again.
  std::vector<uint32_t> arrival_mask_;
  uint32_t pipe_pos_ = 0;
  // Lanes whose ring is at capacity (count + inflight == depth).
  uint32_t full_lanes_ = 0;

  // Input staging: groups granted but not yet fed, reads granted, the
  // next stream position to feed and the end of the read it lies in.
  size_t staged_ = 0;
  size_t reads_done_ = 0;
  size_t fed_ = 0;
  size_t feed_end_ = 0;
  size_t feed_read_ = 0;

  // Partition-pass state: the id rings (one segment of in_depth_ per
  // lane), the output FIFOs, the fill rates and the destination logs.
  std::vector<uint16_t> ring_;
  std::vector<OutLine> out_;
  std::vector<uint8_t> fill_;
  std::array<std::vector<uint64_t>, K> dests_;

  // Combiner stage registers as lane bitmasks: stage 1 = popped last
  // cycle, stage 2 = the cycle before, asm_ = a line completed at stage 2
  // last cycle, pushed at this cycle's stage 3; *_completes_ = the tuple
  // completes a line. The ids of those tuples, per lane.
  uint32_t s1_ = 0, s2_ = 0, asm_ = 0;
  uint32_t s1_completes_ = 0, s2_completes_ = 0;
  std::array<uint16_t, K> s1_h_{}, s2_h_{}, asm_h_{};
  uint64_t stall_cycles_ = 0;
  uint64_t lost_lines_ = 0;

  // Write-back registers. Bit c of out_mask_ is set iff lane c's output
  // FIFO is non-empty.
  bool wb_valid_ = false;
  uint8_t wb_valid_count_ = 0;
  uint32_t rr_cursor_ = 0;
  uint32_t out_mask_ = 0;
  bool overflowed_ = false;
  uint32_t overflow_partition_ = 0;
};

}  // namespace fpart
