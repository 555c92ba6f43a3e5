// Cycle statistics collected by the circuit simulator.
//
// Both execution engines (the reference loop and FastCircuit's timing
// loop, which carries partition ids only) fill the same counters with
// cycle-identical values — tests/sim_fastpath_test.cc and
// tests/sim_shapes_test.cc assert field-by-field equality. After a run the counters are published
// to the obs metrics registry under the `sim.*` / `qpi.*` names catalogued
// in docs/observability.md.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fpart {

/// \brief Counters accumulated over one simulated partitioning run.
struct CycleStats {
  /// Total clock cycles simulated (both passes in HIST mode).
  uint64_t cycles = 0;
  /// Cycles in which the circuit accepted an input cache line.
  uint64_t input_lines = 0;
  /// Cache lines written back over QPI.
  uint64_t output_lines = 0;
  /// Cache lines read over QPI (relation scans, both passes).
  uint64_t read_lines = 0;
  /// Cycles in which the QPI link had no token for a pending request
  /// (bandwidth back-pressure, Section 4.3). Always equals
  /// read_stall_cycles + write_stall_cycles.
  uint64_t backpressure_cycles = 0;
  /// Back-pressure split by direction: cycles a pending *read* found no
  /// token (input starvation — the Figure 2 bandwidth bound as seen by
  /// the feed stage) and cycles a pending *write-back* line found none.
  uint64_t read_stall_cycles = 0;
  uint64_t write_stall_cycles = 0;
  /// Cycles in which an internal pipeline stage stalled. The paper's core
  /// claim is a fully pipelined circuit: this must stay 0.
  uint64_t internal_stall_cycles = 0;
  /// Dummy (padding) tuples emitted by the flush (Section 4.2).
  uint64_t dummy_tuples = 0;
  /// Phase split of `cycles`: the HIST pass-1 scan plus its prefix-sum
  /// scan (0 in PAD mode), and the flush+drain epilogue of the writing
  /// pass. The streaming share is cycles - histogram_cycles - flush_cycles.
  uint64_t histogram_cycles = 0;
  uint64_t flush_cycles = 0;

  /// Simulated wall time given the FPGA clock.
  double Seconds(double clock_hz) const {
    return static_cast<double>(cycles) / clock_hz;
  }

  void Merge(const CycleStats& other) {
    cycles += other.cycles;
    input_lines += other.input_lines;
    output_lines += other.output_lines;
    read_lines += other.read_lines;
    backpressure_cycles += other.backpressure_cycles;
    read_stall_cycles += other.read_stall_cycles;
    write_stall_cycles += other.write_stall_cycles;
    internal_stall_cycles += other.internal_stall_cycles;
    dummy_tuples += other.dummy_tuples;
    histogram_cycles += other.histogram_cycles;
    flush_cycles += other.flush_cycles;
  }
};

}  // namespace fpart
