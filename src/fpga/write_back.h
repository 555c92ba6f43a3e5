// The write-back module of Section 4.3.
//
// Drains the write combiners' output FIFOs in round-robin order, computes
// each cache line's destination from the partition's base address (prefix
// sum in HIST mode, fixed-size layout in PAD mode) plus a per-partition
// cache-line offset counter, and sends it over QPI. QPI write bandwidth
// below the circuit's 12.8 GB/s output rate shows up as back-pressure.
//
// The base-address and offset-count BRAMs of the hardware (with the same
// forwarding trick as the write combiner) are modelled functionally here:
// at one line per cycle their pipelining is never the bottleneck.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "datagen/partitioned_output.h"
#include "fpga/write_combiner.h"
#include "qpi/qpi_link.h"
#include "sim/stats.h"

namespace fpart {

/// \brief Cycle-level model of the write-back stage.
template <typename T>
class WriteBackModule {
 public:
  /// \param out     destination partitions (pre-allocated, and not copied
  ///                while the module writes). A line whose partition has no
  ///                free capacity left triggers the PAD overflow abort (HIST
  ///                capacities are exact, so there the check never fires).
  /// \param inputs  one output FIFO per write combiner
  WriteBackModule(PartitionedOutput<T>* out,
                  std::vector<Fifo<CombinedLine<T>>*> inputs)
      : parts_(out->mutable_parts()), data_(out->mutable_data()),
        inputs_(std::move(inputs)) {}

  /// Advance one clock cycle.
  void Tick(QpiLink* link, CycleStats* stats) {
    // Select the next line (round robin across combiners) if none pending.
    if (!pending_valid_ && !overflowed_) {
      for (size_t i = 0; i < inputs_.size(); ++i) {
        size_t idx = (rr_cursor_ + i) % inputs_.size();
        if (!inputs_[idx]->empty()) {
          pending_ = *inputs_[idx]->Pop();
          pending_valid_ = true;
          rr_cursor_ = (idx + 1) % inputs_.size();
          PartitionInfo& part = parts_[pending_.partition];
          if (part.written_cls >= part.capacity_cls) {
            // PAD-mode overflow (Section 4.5): one of the fixed-size
            // partitions is full; the run aborts and falls back.
            overflowed_ = true;
            overflow_partition_ = pending_.partition;
            pending_valid_ = false;
            return;
          }
          pending_dest_cl_ = part.base_cl + part.written_cls;
          ++part.written_cls;
          part.num_tuples += pending_.valid_count;
          break;
        }
      }
    }
    // Send the pending line if QPI grants a write token this cycle.
    if (pending_valid_) {
      if (link->TryWrite()) {
        std::memcpy(data_ + pending_dest_cl_ * kCacheLineSize,
                    pending_.tuples.data(), kCacheLineSize);
        ++stats->output_lines;
        stats->dummy_tuples += CombinedLine<T>::kTuples - pending_.valid_count;
        pending_valid_ = false;
      } else {
        ++stats->backpressure_cycles;
        ++stats->write_stall_cycles;
      }
    }
  }

  bool idle() const { return !pending_valid_; }
  bool overflowed() const { return overflowed_; }
  uint32_t overflow_partition() const { return overflow_partition_; }

 private:
  PartitionInfo* parts_;
  uint8_t* data_;
  std::vector<Fifo<CombinedLine<T>>*> inputs_;
  size_t rr_cursor_ = 0;

  CombinedLine<T> pending_{};
  bool pending_valid_ = false;
  uint64_t pending_dest_cl_ = 0;
  bool overflowed_ = false;
  uint32_t overflow_partition_ = 0;
};

}  // namespace fpart
