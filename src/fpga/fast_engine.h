// Fast execution path of the cycle simulator (SimMode::kFast).
//
// The reference loop in fpga/partitioner.h advances the circuit strictly
// one module Tick() at a time through std::deque staging and per-lane
// std::optional pops. That is the clearest possible transcription of the
// VHDL, but the pipeline spends almost all cycles in a hazard-free steady
// state of one line in / one line out (Section 4), so most of that per-Tick
// machinery re-derives the same decisions every cycle.
//
// FastCircuit re-implements the *identical* per-cycle semantics over flat
// state and advances the simulation in batched steady-state windows: while
// tuples remain to feed, the circuit is provably busy, so the window runs
// without re-evaluating the global drain predicate; the loop drops back to
// single-cycle stepping (and the fully checked epilogue: tail feed, flush,
// drain) the moment a window expires. Hazards, QPI back-pressure and PAD
// overflow are handled inside the kernel with the same cycle-accurate
// behaviour as the reference modules. The flat layout is chosen for the
// host cache, not the circuit:
//  * Each lane's hash delay line and input FIFO collapse into ONE ring of
//    hashed tuples per lane — entries become visible `hash_latency` cycles
//    after insertion (an arrival counter per (cycle mod latency, lane)
//    slot), because a fixed-latency pipeline feeding a FIFO is itself a
//    FIFO. Hashing is pure, so computing it at insert instead of at
//    emergence yields bit-identical values.
//  * All per-lane pipeline registers live in one cache-aligned Lane
//    struct instead of 20 parallel vectors.
//  * The K BRAM banks of one (combiner, partition) address are contiguous
//    (one cache line for 8 B tuples), so a line completion reads a single
//    line instead of K locations 64 KB apart, and a completed line is
//    assembled directly into its output-FIFO ring slot (`head + count` is
//    invariant under pops, so the slot picked at completion time is the
//    slot the next-cycle push would use).
//
// Two deliberate equivalences replace the clocked BRAM objects:
//  * The fill-rate BRAM's 2-cycle old-data read is captured at pop time;
//    the two intervening stage-2 writes are exactly the prev1/prev2
//    forwarding cases of Code 4, so the captured value is used iff the
//    reference's delivered BRAM value would be.
//  * The 8-bank line read issued at line completion is copied into the
//    output slot at completion time; the reference's 1-cycle bank read
//    delivers the same captured values one cycle later.
//
// The differential harness (tests/sim_fastpath_test.cc) asserts identical
// CycleStats, cycle counts, histograms and output bytes against the
// reference loop across the full mode/layout/hazard/distribution matrix.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/status.h"
#include "datagen/partitioned_output.h"
#include "datagen/tuple.h"
#include "fpga/config.h"
#include "fpga/hash_lane.h"
#include "fpga/staging.h"
#include "fpga/write_combiner.h"
#include "hash/hash_function.h"
#include "qpi/qpi_link.h"
#include "sim/stats.h"

namespace fpart {

/// \brief Flat-state, batched-window implementation of one simulator pass.
///
/// One instance executes exactly one pass (histogram or partition), like
/// the reference loop constructs fresh module objects per pass.
template <typename T>
class FastCircuit {
 public:
  static constexpr int K = TupleTraits<T>::kTuplesPerCacheLine;

  FastCircuit(const FpgaPartitionerConfig& config, const PartitionFn& fn,
              HazardPolicy hazard, const InputStager<T>& stager)
      : fn_(fn),
        hazard_(hazard),
        stager_(stager),
        fanout_(config.fanout),
        lat_(config.hash_latency() < 1 ? 1u
                                       : static_cast<uint32_t>(
                                             config.hash_latency())),
        in_depth_(config.lane_fifo_depth),
        out_depth_(config.output_fifo_depth),
        groups_per_read_(stager.GroupsPerRead()),
        direct_(stager.SupportsDirectGroups()),
        arrival_mask_(lat_, 0),
        ring_(static_cast<size_t>(K) * in_depth_) {}

  /// HIST pass 1: scan the relation and build per-lane histograms
  /// (reference: FpgaPartitioner::HistogramPass).
  /// `flatten` pulls the per-cycle helpers (FeedCycle in particular) into
  /// the loop body: one call per simulated cycle is measurable overhead.
#if defined(__GNUC__)
  __attribute__((flatten))
#endif
  Status HistogramPass(size_t n, uint64_t max_cycles, QpiLink* link,
                       CycleStats* stats,
                       std::vector<std::vector<uint64_t>>* lane_hist) {
    lane_hist->assign(K, std::vector<uint64_t>(fanout_, 0));
    const size_t total_reads = stager_.TotalReads(n);
    while (HistogramBusy(n)) {
      // Steady window: while tuples remain to feed, the pass stays busy.
      const uint64_t w = fed_ < n ? (n - fed_ + K - 1) / K : 1;
      for (uint64_t i = 0; i < w; ++i) {
        if (stats->cycles++ > max_cycles) {
          return Status::Internal("histogram pass exceeded cycle budget");
        }
        link->Tick();
        // Histogram sink: one tuple per lane per cycle.
        for (int c = 0; c < K; ++c) {
          Lane& l = lanes_[c];
          if (l.count > 0) {
            ++(*lane_hist)[c][ring_[c * in_depth_ + l.head].hash];
            l.head = l.head + 1 == in_depth_ ? 0 : l.head + 1;
            if (l.count + l.inflight == in_depth_) --full_lanes_;
            --l.count;
          }
        }
        FeedCycle(n, total_reads, link, stats);
      }
    }
    return CheckInvariants();
  }

  /// The writing pass (PAD's only pass / HIST's second pass) including the
  /// flush and drain epilogue (reference: FpgaPartitioner::PartitionPass).
#if defined(__GNUC__)
  __attribute__((flatten))
#endif
  Status PartitionPass(size_t n, uint64_t max_cycles, QpiLink* link,
                       CycleStats* stats, PartitionedOutput<T>* output) {
    AllocateCombinerState();
    PartitionInfo* const parts = output->mutable_parts();
    uint8_t* const data = output->mutable_data();
    const size_t total_reads = stager_.TotalReads(n);

    // --- Main streaming loop, in batched steady-state windows.
    while (PartitionBusy(n)) {
      const uint64_t w = fed_ < n ? (n - fed_ + K - 1) / K : 1;
      for (uint64_t i = 0; i < w; ++i) {
        if (stats->cycles++ > max_cycles) {
          return Status::Internal("partition pass exceeded cycle budget");
        }
        link->Tick();
        WriteBackTick(link, stats, parts, data);
        if (overflowed_) return OverflowStatus();
        CombinerTick();
        FeedCycle(n, total_reads, link, stats);
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
        WriteBackTick(link, stats, parts, data);
        if (overflowed_) return OverflowStatus();
        if (lanes_[c].out_count < out_depth_) {
          FlushPartition(c, p);
          ++p;
        }
      }
    }
    // --- Drain the remaining lines.
    while (wb_valid_ || AnyOutputPending()) {
      if (stats->cycles++ > max_cycles) {
        return Status::Internal("drain exceeded cycle budget");
      }
      link->Tick();
      WriteBackTick(link, stats, parts, data);
      if (overflowed_) return OverflowStatus();
    }
    stats->flush_cycles += stats->cycles - flush_start_cycles;

    for (int c = 0; c < K; ++c) {
      stats->internal_stall_cycles += lanes_[c].stall_cycles;
    }
#if defined(__SSE2__)
    _mm_sfence();  // order the streaming stores before the caller reads
#endif
    return CheckInvariants();
  }

 private:
  /// All mutable per-lane state: the merged delay-line/FIFO ring cursors,
  /// the Code 3/4 pipeline registers, and the output-FIFO cursors.
  struct alignas(64) Lane {
    // Ring occupancy: `count` visible entries starting at `head`, then
    // `inflight` entries still inside the hash pipeline.
    uint32_t head = 0;
    uint32_t count = 0;
    uint32_t inflight = 0;
    // Stage registers (stage 1 = popped last cycle, stage 2 = the cycle
    // before; prev1/prev2 = completions of the last two cycles).
    uint32_t s1_h = 0, s2_h = 0;
    // The five valid bits sit adjacent so the quiescence test is one load.
    uint8_t s1_v = 0, s2_v = 0;
    uint8_t p1_v = 0, p2_v = 0;
    uint8_t asm_v = 0;
    uint8_t s1_f = 0, s2_f = 0;
    uint8_t p1_b = 0, p2_b = 0;
    uint32_t p1_h = 0, p2_h = 0;
    T s1_t{}, s2_t{};
    // (asm_v above: a line assembled this cycle, pushed downstream at next
    // cycle's stage 3 — the data already sits in the output ring slot.)
    // Output FIFO cursors (lines live in the shared out_line_ array).
    uint32_t out_head = 0, out_count = 0;
    uint64_t stall_cycles = 0;
  };

  // ---- Lane front end -----------------------------------------------------

  uint32_t HashOf(const T& t) const {
    if constexpr (sizeof(t.key) == 4) {
      return fn_(t.key);
    } else {
      return fn_.Apply64(t.key);
    }
  }

  /// Per-cycle input machinery (reference: FpgaPartitioner::FeedCycle).
  /// Entries inserted here surface `lat_` cycles later — the emergence
  /// step below credits `count` from the arrival slot written at insert
  /// time, which is exactly the reference's HashLane shift register.
  void FeedCycle(size_t n, size_t total_reads, QpiLink* link,
                 CycleStats* stats) {
    // RID/VRID group streams are uniform (InputStager::SupportsDirectGroups),
    // so staging occupancy is just a counter and each group is materialized
    // on demand at feed time — no deque, no TupleGroup copy. Compressed
    // frames produce irregular group boundaries and keep the queued path.
    const size_t occupancy = direct_ ? staged_ : staging_.size();
    if (reads_done_ < total_reads && occupancy < 2 * groups_per_read_) {
      if (link->TryRead()) {
        if (direct_) {
          staged_ += stager_.GroupsOfRead(n, reads_done_);
        } else {
          stager_.MaterializeGroups(n, reads_done_, &staging_);
        }
        ++reads_done_;
        ++stats->read_lines;
      } else {
        ++stats->backpressure_cycles;
        ++stats->read_stall_cycles;
      }
    }
    // Emergence: tuples inserted lat_ cycles ago become visible. A group
    // always fills lanes 0..count-1, so one arrival slot is a bitmask of
    // low bits (and usually zero: no feed happened lat_ cycles ago).
    uint32_t arrived = arrival_mask_[pipe_pos_];
    if (arrived) {
      arrival_mask_[pipe_pos_] = 0;
      for (int c = 0; arrived; ++c, arrived >>= 1) {
        ++lanes_[c].count;
        --lanes_[c].inflight;
      }
    }
    // Feed-ready: a slot must be free in every lane ring. (The reference
    // compares free FIFO slots against the pipeline's in-flight count;
    // the merged ring holds both, so that is one capacity check, and
    // `full_lanes_` — maintained at insert and pop — counts the lanes
    // failing it so the per-cycle test is one compare.)
    const bool have_group = direct_ ? staged_ > 0 : !staging_.empty();
    if (have_group && full_lanes_ == 0) {
      if (direct_) {
        T tmp[K];
        const uint32_t cnt = stager_.FillGroup(n, next_group_, tmp);
        for (uint32_t c = 0; c < cnt; ++c) {
          Lane& l = lanes_[c];
          uint32_t pos = l.head + l.count + l.inflight;
          if (pos >= in_depth_) pos -= in_depth_;
          const T& t = tmp[c];
          ring_[c * in_depth_ + pos] = HashedTuple<T>{HashOf(t), t};
          if (l.count + ++l.inflight == in_depth_) ++full_lanes_;
        }
        arrival_mask_[pipe_pos_] = (1u << cnt) - 1;
        fed_ += cnt;
        ++stats->input_lines;
        --staged_;
        ++next_group_;
      } else {
        const TupleGroup<T>& group = staging_.front();
        for (int c = 0; c < group.count; ++c) {
          Lane& l = lanes_[c];
          uint32_t pos = l.head + l.count + l.inflight;
          if (pos >= in_depth_) pos -= in_depth_;
          const T& t = group.tuples[c];
          ring_[c * in_depth_ + pos] = HashedTuple<T>{HashOf(t), t};
          if (l.count + ++l.inflight == in_depth_) ++full_lanes_;
        }
        arrival_mask_[pipe_pos_] = (1u << group.count) - 1;
        fed_ += group.count;
        ++stats->input_lines;
        staging_.pop_front();
      }
    }
    pipe_pos_ = pipe_pos_ + 1 == lat_ ? 0 : pipe_pos_ + 1;
  }

  // ---- Write combiners ----------------------------------------------------

  void AllocateCombinerState() {
    fill_.assign(static_cast<size_t>(K) * fanout_, 0);
    banks_.assign(static_cast<size_t>(K) * K * fanout_, T{});
    out_line_.assign(static_cast<size_t>(K) * out_depth_, CombinedLine<T>{});
  }

  // Banks laid out line-major: the K banks of one (combiner, partition)
  // address are contiguous.
  T* BanksOf(int c, uint32_t p) {
    return &banks_[(static_cast<size_t>(c) * fanout_ + p) * K];
  }

  /// The next free output ring slot of lane `c`. `head + count` is
  /// invariant under write-back pops, so a slot picked at assembly time is
  /// still the push position one cycle later.
  CombinedLine<T>& OutSlot(int c) {
    const Lane& l = lanes_[c];
    uint32_t pos = l.out_head + l.out_count;
    if (pos >= out_depth_) pos -= out_depth_;
    return out_line_[c * out_depth_ + pos];
  }

  /// One write-combiner clock for every lane (reference:
  /// WriteCombiner::Tick, stages 3 → 0 → 2, then register shift).
  void CombinerTick() {
    for (int c = 0; c < K; ++c) {
      Lane& l = lanes_[c];
      // Light paths for the dominant gated patterns. Stage registers hold
      // garbage whenever their valid bit is clear (every read below is
      // guarded), so a gated lane only needs the valid-register shifts:
      //  * pipeline empty (s1/s2/asm clear) and no pop possible (empty
      //    ring, or no output-FIFO room `out_depth - out_count > 0`):
      //    nothing changes except the completion registers aging out;
      //  * only s1 valid and no pop possible (room must exceed the one
      //    in-flight line): s1 moves to s2, completions age.
      // Stall accounting is unaffected: a pop blocked on room never
      // reaches the hazard check in the full path either.
      const uint8_t pipe_v = l.s1_v | l.s2_v | l.asm_v;
      if (pipe_v == 0 &&
          (l.count == 0 || l.out_count >= out_depth_)) {
        if (l.p1_v | l.p2_v) {
          l.p2_v = l.p1_v;
          l.p2_h = l.p1_h;
          l.p2_b = l.p1_b;
          l.p1_v = 0;
        }
        continue;
      }
      if (pipe_v == 1 && l.s2_v == 0 && l.asm_v == 0 &&
          (l.count == 0 || l.out_count + 1 >= out_depth_)) {
        l.s2_v = 1;
        l.s2_h = l.s1_h;
        l.s2_f = l.s1_f;
        l.s2_t = l.s1_t;
        l.s1_v = 0;
        l.p2_v = l.p1_v;
        l.p2_h = l.p1_h;
        l.p2_b = l.p1_b;
        l.p1_v = 0;
        continue;
      }
      uint8_t* fill = &fill_[static_cast<size_t>(c) * fanout_];
      // Work on local copies: the fill-rate array is uint8_t, so stores
      // through it would otherwise force the compiler to reload every
      // lane field (char aliases everything). All lane state is written
      // back exactly once at the end of the iteration.
      const uint8_t s1_v = l.s1_v, s2_v = l.s2_v;
      const uint32_t s1_h = l.s1_h, s2_h = l.s2_h;
      const uint8_t s1_f = l.s1_f, s2_f = l.s2_f;
      const uint8_t p1_v = l.p1_v, p2_v = l.p2_v;
      const uint32_t p1_h = l.p1_h, p2_h = l.p2_h;
      const uint8_t p1_b = l.p1_b, p2_b = l.p2_b;
      uint32_t head = l.head, count = l.count, out_count = l.out_count;

      // --- Stage 3: the line assembled last cycle goes downstream (its
      // data already sits in the ring slot; publishing is one increment).
      if (l.asm_v) {
        if (out_count >= out_depth_) {
          ++fifo_overflows_;  // impossible: slots are reserved
        } else {
          if (out_count == 0) out_mask_ |= 1u << c;
          ++out_count;
        }
      }
      uint8_t asm_v = 0;

      // --- Stage 0: pop a new tuple and capture its fill rate (the BRAM
      // old-data read: state before this cycle's stage-2 write lands).
      bool in_valid = false;
      uint32_t in_hash = 0;
      uint8_t in_fill = 0;
      T in_tup{};
      const uint32_t inflight_lines =
          static_cast<uint32_t>(s1_v) + static_cast<uint32_t>(s2_v);
      if (count > 0 && out_depth_ - out_count > inflight_lines) {
        const HashedTuple<T>& front = ring_[c * in_depth_ + head];
        if (hazard_ == HazardPolicy::kStall &&
            ((s1_v && s1_h == front.hash) || (s2_v && s2_h == front.hash))) {
          ++l.stall_cycles;
        } else {
          in_valid = true;
          in_hash = front.hash;
          in_tup = front.tuple;
          head = head + 1 == in_depth_ ? 0 : head + 1;
          if (count + l.inflight == in_depth_) --full_lanes_;
          --count;
          in_fill = fill[in_hash];
          // The popped tuple's bank line is written two cycles from now
          // (stage 2) and its fill byte is re-read next cycle if the next
          // pop hits the same partition — both random accesses into the
          // multi-MB bank array, so hide the latency while the pipeline
          // registers shift.
          __builtin_prefetch(BanksOf(c, in_hash), 1, 1);
          if (count > 0) {
            __builtin_prefetch(&fill[ring_[c * in_depth_ + head].hash], 0, 1);
          }
        }
      }

      // --- Stage 2: the tuple popped two cycles ago receives its fill
      // rate (captured or forwarded) and is steered into a bank.
      bool comp_valid = false;
      uint32_t comp_hash = 0;
      uint8_t comp_bank = 0;
      if (s2_v) {
        const uint32_t h = s2_h;
        uint32_t which;
        if (hazard_ == HazardPolicy::kForward && p1_v && h == p1_h) {
          which = (p1_b + 1u) & (K - 1);
        } else if (hazard_ == HazardPolicy::kForward && p2_v && h == p2_h) {
          which = (p2_b + 1u) & (K - 1);
        } else {
          which = s2_f;
        }
        which &= static_cast<uint32_t>(K - 1);
        T* bank = BanksOf(c, h);
        if (which == static_cast<uint32_t>(K - 1)) {
          // Line complete: reset the fill rate, store the closing tuple,
          // then capture all K banks into the output slot for next
          // cycle's stage 3 (the 1-cycle bank read of the reference).
          fill[h] = 0;
          bank[K - 1] = l.s2_t;
          uint32_t pos = l.out_head + out_count;
          if (pos >= out_depth_) pos -= out_depth_;
          CombinedLine<T>& line = out_line_[c * out_depth_ + pos];
          line.partition = h;
          line.valid_count = K;
          for (int b = 0; b < K; ++b) line.tuples[b] = bank[b];
          asm_v = 1;
        } else {
          fill[h] = static_cast<uint8_t>(which + 1);
          bank[which] = l.s2_t;
        }
        comp_valid = true;
        comp_hash = h;
        comp_bank = static_cast<uint8_t>(which);
      }

      // --- Shift the pipeline registers; single write-back of the lane.
      l.head = head;
      l.count = count;
      l.out_count = out_count;
      l.asm_v = asm_v;
      l.s2_v = s1_v;
      l.s2_h = s1_h;
      l.s2_f = s1_f;
      l.s2_t = l.s1_t;
      l.s1_v = in_valid ? 1 : 0;
      l.s1_h = in_hash;
      l.s1_f = in_fill;
      l.s1_t = in_tup;
      l.p2_v = p1_v;
      l.p2_h = p1_h;
      l.p2_b = p1_b;
      l.p1_v = comp_valid ? 1 : 0;
      l.p1_h = comp_hash;
      l.p1_b = comp_bank;
    }
  }

  /// Flush step (reference: WriteCombiner::FlushPartition). The caller
  /// guarantees output-FIFO room.
  void FlushPartition(int c, uint32_t p) {
    uint8_t* fill = &fill_[static_cast<size_t>(c) * fanout_];
    const uint8_t count = fill[p];
    if (count == 0) return;
    const T* bank = BanksOf(c, p);
    CombinedLine<T>& line = OutSlot(c);
    line.partition = p;
    line.valid_count = count;
    for (int b = 0; b < K; ++b) {
      line.tuples[b] = b < count ? bank[b] : MakeDummyTuple<T>();
    }
    fill[p] = 0;
    if (lanes_[c].out_count == 0) out_mask_ |= 1u << c;
    ++lanes_[c].out_count;
  }

  // ---- Write-back ---------------------------------------------------------

  /// One write-back clock (reference: WriteBackModule::Tick).
  void WriteBackTick(QpiLink* link, CycleStats* stats, PartitionInfo* parts,
                     uint8_t* data) {
    if (!wb_valid_ && !overflowed_ && out_mask_ != 0) {
      // Round-robin pick: rotate the occupancy mask so rr_cursor_ is bit 0
      // and take the lowest set bit — same lane the reference scan finds.
      const uint32_t full = (1u << K) - 1;
      const uint32_t rot =
          ((out_mask_ >> rr_cursor_) | (out_mask_ << (K - rr_cursor_))) & full;
      const size_t idx =
          (rr_cursor_ + static_cast<size_t>(__builtin_ctz(rot))) & (K - 1);
      Lane& l = lanes_[idx];
      wb_line_ = out_line_[idx * out_depth_ + l.out_head];
      l.out_head = l.out_head + 1 == out_depth_ ? 0 : l.out_head + 1;
      if (--l.out_count == 0) out_mask_ &= ~(1u << idx);
      rr_cursor_ = idx + 1 == static_cast<size_t>(K) ? 0 : idx + 1;
      PartitionInfo& part = parts[wb_line_.partition];
      if (part.written_cls >= part.capacity_cls) {
        overflowed_ = true;
        overflow_partition_ = wb_line_.partition;
        return;
      }
      wb_dest_ = part.base_cl + part.written_cls;
      ++part.written_cls;
      part.num_tuples += wb_line_.valid_count;
      wb_valid_ = true;
    }
    if (wb_valid_) {
      if (link->TryWrite()) {
        uint8_t* dst = data + wb_dest_ * kCacheLineSize;
#if defined(__SSE2__)
        // The PAD output buffer is far larger than cache and each line is
        // written once and not re-read here: streaming stores skip the
        // read-for-ownership of the (cache-line aligned) destination.
        const uint8_t* src =
            reinterpret_cast<const uint8_t*>(wb_line_.tuples.data());
        for (int b = 0; b < static_cast<int>(kCacheLineSize / 16); ++b) {
          _mm_stream_si128(
              reinterpret_cast<__m128i*>(dst + 16 * b),
              _mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(src + 16 * b)));
        }
#else
        std::memcpy(dst, wb_line_.tuples.data(), kCacheLineSize);
#endif
        ++stats->output_lines;
        stats->dummy_tuples += CombinedLine<T>::kTuples - wb_line_.valid_count;
        wb_valid_ = false;
      } else {
        ++stats->backpressure_cycles;
        ++stats->write_stall_cycles;
      }
    }
  }

  // ---- Predicates and invariants ------------------------------------------

  bool HistogramBusy(size_t n) const {
    if (fed_ < n) return true;
    for (int c = 0; c < K; ++c) {
      if (lanes_[c].count != 0 || lanes_[c].inflight != 0) return true;
    }
    return false;
  }

  bool PartitionBusy(size_t n) const {
    if (fed_ < n || wb_valid_) return true;
    for (int c = 0; c < K; ++c) {
      const Lane& l = lanes_[c];
      if (l.count != 0 || l.inflight != 0) return true;
      if (l.s1_v || l.s2_v || l.asm_v) return true;
      if (l.out_count != 0) return true;
    }
    return false;
  }

  bool AnyOutputPending() const {
    for (int c = 0; c < K; ++c) {
      if (lanes_[c].out_count != 0) return true;
    }
    return false;
  }

  Status OverflowStatus() const {
    return Status::PartitionOverflow(
        "PAD-mode partition " + std::to_string(overflow_partition_) +
        " overflowed; retry in HIST mode or fall back to the CPU "
        "partitioner (Section 4.5)");
  }

  Status CheckInvariants() const {
    if (fifo_overflows_ != 0) {
      return Status::Internal("write combiner dropped data (bug)");
    }
    return Status::OK();
  }

  // ---- State --------------------------------------------------------------

  const PartitionFn fn_;
  const HazardPolicy hazard_;
  const InputStager<T>& stager_;
  const uint32_t fanout_;
  const uint32_t lat_;
  const uint32_t in_depth_;
  const uint32_t out_depth_;
  const size_t groups_per_read_;
  const bool direct_;

  std::array<Lane, K> lanes_{};
  // arrival_mask_[cycle mod lat_]: bitmask of lanes fed at that cycle
  // position (always the low `count` bits of the group), credited to
  // `count` when the position comes around again.
  std::vector<uint32_t> arrival_mask_;
  uint32_t pipe_pos_ = 0;
  // Lanes whose ring is at capacity (count + inflight == depth).
  uint32_t full_lanes_ = 0;
  // Merged hash-pipeline + lane-FIFO rings, one segment per lane.
  std::vector<HashedTuple<T>> ring_;

  // Combiner state (allocated by PartitionPass only).
  std::vector<uint8_t> fill_;
  std::vector<T> banks_;
  std::vector<CombinedLine<T>> out_line_;

  // Write-back registers.
  CombinedLine<T> wb_line_{};
  bool wb_valid_ = false;
  uint64_t wb_dest_ = 0;
  size_t rr_cursor_ = 0;
  // Bit c set iff lanes_[c].out_count > 0.
  uint32_t out_mask_ = 0;
  bool overflowed_ = false;
  uint32_t overflow_partition_ = 0;

  // Input staging. Direct-group layouts track only the occupancy counter
  // `staged_` and the next global group index; the deque serves the
  // compressed layout's irregular frame boundaries.
  std::deque<TupleGroup<T>> staging_;
  size_t staged_ = 0;
  size_t next_group_ = 0;
  size_t reads_done_ = 0;
  uint64_t fed_ = 0;

  uint64_t fifo_overflows_ = 0;
};

}  // namespace fpart
