// The analytical cost model of the FPGA partitioner (Section 4.6,
// equations 1–7, Table 3) and its Section 4.8 validation helpers.
#pragma once

#include <cstdint>

#include "common/macros.h"
#include "fpga/config.h"
#include "qpi/bandwidth_model.h"

namespace fpart {

/// \brief Closed-form performance model of the partitioner circuit.
class FpgaCostModel {
 public:
  /// \param tuple_width  W in bytes (8/16/32/64)
  /// \param fanout       number of partitions (enters the flush latency)
  FpgaCostModel(int tuple_width, uint32_t fanout)
      : width_(tuple_width), fanout_(fanout) {}

  /// fmode: HIST scans the data twice (Table 3).
  static double ModeFactor(OutputMode mode) {
    return mode == OutputMode::kHist ? 2.0 : 1.0;
  }

  /// Sequential-read to random-write byte ratio r of a configuration
  /// (Section 4.8: HIST/RID → 2, HIST/VRID and PAD/RID → 1,
  /// PAD/VRID → 0.5).
  static double ReadWriteRatio(OutputMode mode, LayoutMode layout) {
    double reads_per_write = 1.0;
    if (mode == OutputMode::kHist) reads_per_write *= 2.0;
    if (layout == LayoutMode::kVrid) reads_per_write *= 0.5;
    return reads_per_write;
  }

  /// B_FPGA (eq. 3): raw circuit rate in tuples/s — one cache line per
  /// clock cycle.
  double CircuitRateTuplesPerSec() const {
    return static_cast<double>(kCacheLineSize) / width_ * kFpgaClockHz;
  }

  /// L_FPGA (eq. 4): pipeline fill/flush latency in seconds.
  /// c_writecomb is the flush scan over every (combiner, partition)
  /// address (Table 3 lists 65540 for K=8, 8192 partitions).
  double LatencySeconds() const {
    const int k = kCacheLineSize / width_;
    const double c_hashing = 5;
    const double c_writecomb = static_cast<double>(k) * fanout_ + 4;
    const double c_fifos = 4;
    return (c_hashing + c_writecomb + c_fifos) * kFpgaClockPeriodSec;
  }

  /// P_FPGA (eq. 5): processing rate limited by the circuit itself.
  double ProcessRateTuplesPerSec(uint64_t n, OutputMode mode) const {
    double b = CircuitRateTuplesPerSec();
    return 1.0 /
           (ModeFactor(mode) * (1.0 / b + LatencySeconds() / n));
  }

  /// P_mem (eq. 6): rate limited by the link, for bandwidth B(r) GB/s.
  double MemRateTuplesPerSec(double r, double bandwidth_gbs) const {
    return bandwidth_gbs * 1e9 / (width_ * (r + 1.0));
  }

  /// P_total (eq. 7) for a given link.
  double TotalRateTuplesPerSec(uint64_t n, OutputMode mode, LayoutMode layout,
                               LinkKind link,
                               Interference interference =
                                   Interference::kAlone) const {
    const double r = ReadWriteRatio(mode, layout);
    const double bw = link == LinkKind::kRawWrapper
                          ? kRawWrapperBandwidthGBs
                          : QpiBandwidthForRatio(r, interference);
    const double p_process = ProcessRateTuplesPerSec(n, mode);
    const double p_mem = MemRateTuplesPerSec(r, bw);
    return p_process < p_mem ? p_process : p_mem;
  }

  /// Predicted wall time to partition n tuples.
  double PredictSeconds(uint64_t n, OutputMode mode, LayoutMode layout,
                        LinkKind link,
                        Interference interference =
                            Interference::kAlone) const {
    return n / TotalRateTuplesPerSec(n, mode, layout, link, interference);
  }

  int tuple_width() const { return width_; }
  uint32_t fanout() const { return fanout_; }

 private:
  int width_;
  uint32_t fanout_;
};

}  // namespace fpart
