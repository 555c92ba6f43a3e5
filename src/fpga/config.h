// Configuration of the FPGA partitioner (Sections 4.1–4.5).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "hash/hash_function.h"
#include "qpi/bandwidth_model.h"

namespace fpart {

/// How the output is formatted (Section 4.5, parameter 1).
enum class OutputMode {
  /// Two passes: build a histogram first, then write with an exact prefix
  /// sum. Minimal intermediate memory; robust against skew.
  kHist,
  /// One pass into fixed-size pre-padded partitions. Aborts with
  /// Status::PartitionOverflow if a partition fills up (heavy skew).
  kPad,
};

/// Input layout (Section 4.5, parameter 2; kCompressed extends it with the
/// Section 6 compressed-column pipeline).
enum class LayoutMode {
  /// Row store: tuples are materialized <key, payload> in memory.
  kRid,
  /// Column store: only the key array is read; the FPGA appends a virtual
  /// record id, halving the bytes read over QPI.
  kVrid,
  /// Column store with FOR bit-packed keys: the circuit decompresses each
  /// 64 B frame as the first pipeline step (free, like hashing) and
  /// appends virtual record ids. Reads shrink by the compression ratio.
  kCompressed,
};

/// Which link the circuit talks to.
enum class LinkKind {
  /// The Xeon+FPGA QPI end-point, throttled by the Figure 2 curve.
  kXeonFpga,
  /// The internal raw wrapper of Section 4.7: 25.6 GB/s combined.
  kRawWrapper,
};

/// Which host-side execution engine advances the simulated circuit. Both
/// engines produce bit-identical output bytes and identical CycleStats
/// (asserted by tests/sim_fastpath_test.cc).
enum class SimMode {
  /// Per-module Tick() loop, the clearest transcription of the VHDL.
  kReference,
  /// A timing loop over partition ids that logs each written line's
  /// destination, then one data pass that moves the tuples there (see
  /// src/fpga/fast_engine.h). Several times faster on the host; cycle
  /// counts and output bytes stay exact.
  kFast,
};

const char* OutputModeName(OutputMode mode);
const char* LayoutModeName(LayoutMode mode);
const char* SimModeName(SimMode mode);
/// Parse "reference" / "fast" (the SimModeName spellings).
/// Returns false and leaves *mode untouched on any other string, so flag
/// parsers accept and reject mode names symmetrically.
bool ParseSimMode(const std::string& name, SimMode* mode);

/// \brief Knobs of the partitioner circuit.
struct FpgaPartitionerConfig {
  /// Number of partitions; must be a power of two, at most kMaxFanout.
  uint32_t fanout = 8192;
  OutputMode output_mode = OutputMode::kPad;
  LayoutMode layout = LayoutMode::kRid;
  /// Murmur hashing or raw radix bits (Code 3). On the FPGA both sustain
  /// one tuple per clock; only the pipeline latency differs. kRange uses a
  /// pipelined comparator tree over `range_splitters` (Wu et al. [41]).
  HashMethod hash = HashMethod::kMurmur;
  /// kRange only: fanout-1 sorted splitters (see EquiDepthSplitters).
  std::vector<uint64_t> range_splitters;
  /// PAD mode: per-partition capacity = #Tuples/#Partitions * (1 + padding).
  double pad_fraction = 0.5;
  LinkKind link = LinkKind::kXeonFpga;
  /// Model concurrent CPU traffic (the interfered curves of Figure 2).
  Interference interference = Interference::kAlone;
  /// Host execution engine. kFast is the default; kReference remains the
  /// executable specification the fast engine is differentially tested
  /// against.
  SimMode sim_mode = SimMode::kFast;
  /// Memoize full run results keyed by (config digest, input digest,
  /// sim_mode) in the process-wide SimResultCache, so repeated job shapes
  /// never re-simulate (src/fpga/sim_cache.h). A hit shares the cached
  /// output buffer (copy-on-write) and returns its CycleStats.
  bool sim_cache = false;

  /// Cooperative cancellation token (svc job cancellation / FPGA lease
  /// revocation). Checked at simulation pass boundaries only, so a pass in
  /// flight always completes before the run aborts with Status::Cancelled.
  /// Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;

  /// Depth of the per-lane FIFO between hash module and write combiner.
  /// Read requests are issued only when every lane FIFO has room for the
  /// hash pipeline's in-flight tuples plus one (Section 4.3 back-pressure).
  uint32_t lane_fifo_depth = 16;
  /// Depth of each write combiner's output FIFO.
  uint32_t output_fifo_depth = 8;

  /// The largest fan-out the BRAM budget supports (Section 4: 8192 is used
  /// throughout the evaluation).
  static constexpr uint32_t kMaxFanout = 8192;

  /// Hash-module pipeline depth (Table 3: 5 cycles for murmur). The range
  /// comparator tree is log2(fanout) stages deep — again latency only.
  int hash_latency() const {
    if (hash == HashMethod::kMurmur) return 5;
    if (hash == HashMethod::kRange) {
      int bits = FanoutBits(fanout);
      return bits < 1 ? 1 : bits;
    }
    return 1;
  }
};

}  // namespace fpart
