// Top-level FPGA partitioner circuit (Section 4, Figure 5).
//
// The circuit is simulated cycle by cycle: per clock it can accept one
// 64 B cache line from QPI, push one tuple into each of the K hash lanes,
// advance every write combiner one stage, and emit one combined cache line
// through the write-back module — exactly the fully pipelined dataflow of
// the paper. The QPI link throttles both directions with the calibrated
// Figure 2 bandwidth curve, so simulated cycles × 5 ns reproduces the
// paper's end-to-end throughput; with the 25.6 GB/s raw wrapper the circuit
// runs at its internal rate of one cache line per cycle.
//
// Functionally, the simulation really moves the tuples: the result is a
// PartitionedOutput backed by host memory that the CPU join phases consume.
// Address translation (the BRAM page table of Section 2.1) is validated in
// its own unit tests; inside this hot loop the translation is represented
// by its latency only, since it is pipelined and never limits throughput.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "compress/for_codec.h"
#include "datagen/partitioned_output.h"
#include "datagen/tuple.h"
#include "fpga/config.h"
#include "fpga/fast_engine.h"
#include "fpga/sim_cache.h"
#include "fpga/hash_lane.h"
#include "fpga/staging.h"
#include "fpga/write_back.h"
#include "fpga/write_combiner.h"
#include "hash/hash_function.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qpi/qpi_link.h"
#include "sim/stats.h"

namespace fpart {

/// \brief Result of one partitioning run on the (simulated) FPGA.
template <typename T>
struct FpgaRunResult {
  PartitionedOutput<T> output;
  CycleStats stats;
  /// Simulated wall time: cycles × 5 ns (200 MHz clock).
  double seconds = 0.0;
  double mtuples_per_sec = 0.0;
  /// Exact per-partition tuple counts (HIST mode only; empty in PAD mode).
  std::vector<uint64_t> histogram;
  /// Observed QPI read/write cache-line ratio r (for model validation).
  double read_write_ratio = 0.0;
};

/// \brief The paper's FPGA data partitioner, as a cycle-level simulator.
template <typename T>
class FpgaPartitioner {
 public:
  static constexpr int K = TupleTraits<T>::kTuplesPerCacheLine;
  using KeyType = decltype(T{}.key);
  static constexpr int kKeysPerCacheLine = kCacheLineSize / sizeof(KeyType);

  explicit FpgaPartitioner(FpgaPartitionerConfig config)
      : config_(std::move(config)),
        fn_(config_.hash == HashMethod::kRange
                ? PartitionFn::Range(config_.range_splitters)
                : PartitionFn(config_.hash, config_.fanout)) {}

  const FpgaPartitionerConfig& config() const { return config_; }

  /// Ablation hook: switch the write combiners to the naive stalling
  /// circuit (bench/ablation_forwarding).
  void set_hazard_policy(HazardPolicy policy) { hazard_ = policy; }

  /// Process-wide memoization cache of completed runs for this tuple type,
  /// keyed by (config digest, input digest) — the digest covers sim_mode,
  /// so runs of different engines never alias even though their outputs
  /// are identical. Enabled per run by FpgaPartitionerConfig::sim_cache;
  /// exposed so tests and long-running services can Clear() it or read its
  /// occupancy.
  static ShardedLruCache<FpgaRunResult<T>>& ResultCache() {
    static auto* cache = new ShardedLruCache<FpgaRunResult<T>>();
    return *cache;
  }

  /// RID mode: partition a row-store relation of n tuples.
  Result<FpgaRunResult<T>> Partition(const T* tuples, size_t n) {
    if (config_.layout != LayoutMode::kRid) {
      return Status::InvalidArgument(
          "config selects VRID; call PartitionColumn");
    }
    FPART_RETURN_NOT_OK(Validate());
    in_tuples_ = tuples;
    in_keys_ = nullptr;
    in_column_ = nullptr;
    return Run(n);
  }

  /// VRID mode: partition a column-store key array; the circuit appends
  /// virtual record ids (the key's position) as payloads.
  Result<FpgaRunResult<T>> PartitionColumn(const KeyType* keys, size_t n) {
    if (config_.layout != LayoutMode::kVrid) {
      return Status::InvalidArgument("config selects RID; call Partition");
    }
    FPART_RETURN_NOT_OK(Validate());
    in_tuples_ = nullptr;
    in_keys_ = keys;
    in_column_ = nullptr;
    return Run(n);
  }

  /// Compressed mode (Section 6): partition a FOR bit-packed key column;
  /// the circuit decompresses each 64 B frame as the first pipeline step
  /// and appends virtual record ids. Reads shrink by the compression
  /// ratio.
  Result<FpgaRunResult<T>> PartitionCompressed(const CompressedColumn& column) {
    if (config_.layout != LayoutMode::kCompressed) {
      return Status::InvalidArgument(
          "config does not select the compressed layout");
    }
    FPART_RETURN_NOT_OK(Validate());
    in_tuples_ = nullptr;
    in_keys_ = nullptr;
    in_column_ = &column;
    return Run(column.num_keys());
  }

 private:
  using Group = TupleGroup<T>;

  Status Validate() const {
    if (!IsPowerOfTwo(config_.fanout) ||
        config_.fanout > FpgaPartitionerConfig::kMaxFanout) {
      return Status::InvalidArgument(
          "fanout must be a power of two <= " +
          std::to_string(FpgaPartitionerConfig::kMaxFanout));
    }
    if (config_.lane_fifo_depth <
        static_cast<uint32_t>(config_.hash_latency() + 2)) {
      return Status::InvalidArgument(
          "lane FIFO must cover the hash pipeline depth");
    }
    if (config_.hash == HashMethod::kRange &&
        config_.range_splitters.size() + 1 != config_.fanout) {
      return Status::InvalidArgument(
          "range partitioning needs exactly fanout-1 splitters");
    }
    return Status::OK();
  }

  QpiLink MakeLink() const {
    if (config_.link == LinkKind::kRawWrapper) {
      return QpiLink::Fixed(kFpgaClockHz, kRawWrapperBandwidthGBs);
    }
    return QpiLink::XeonFpga(kFpgaClockHz, config_.interference);
  }

  /// Shared per-cycle input machinery: issue a QPI read when the staging
  /// buffer has room, then feed one tuple group into the hash lanes if
  /// every lane FIFO can absorb it (the back-pressure rule of Section 4.3:
  /// read requests are only issued while the first-stage FIFOs have room).
  void FeedCycle(const InputStager<T>& stager, size_t n, size_t total_reads,
                 size_t* reads_done, std::deque<Group>* staging, QpiLink* link,
                 CycleStats* stats, std::vector<HashLane<T>>* lanes,
                 const std::vector<Fifo<HashedTuple<T>>*>& lane_fifos,
                 uint64_t* fed) {
    if (*reads_done < total_reads &&
        staging->size() < 2 * stager.GroupsPerRead()) {
      if (link->TryRead()) {
        stager.MaterializeGroups(n, *reads_done, staging);
        ++*reads_done;
        ++stats->read_lines;
      } else {
        ++stats->backpressure_cycles;
        ++stats->read_stall_cycles;
      }
    }
    bool ready = !staging->empty();
    for (int c = 0; c < K && ready; ++c) {
      if (lane_fifos[c]->free_slots() <= (*lanes)[c].in_flight()) {
        ready = false;
      }
    }
    if (ready) {
      const Group& group = staging->front();
      for (int c = 0; c < K; ++c) {
        (*lanes)[c].Tick(c < group.count ? std::optional<T>(group.tuples[c])
                                         : std::nullopt);
      }
      *fed += group.count;
      ++stats->input_lines;
      staging->pop_front();
    } else {
      for (int c = 0; c < K; ++c) (*lanes)[c].Tick(std::nullopt);
    }
  }

  bool cancelled() const {
    return config_.cancel != nullptr &&
           config_.cancel->load(std::memory_order_relaxed);
  }

  /// Outer run path: memoization probe, engine execution, cache fill.
  /// RunEngine() below is the actual simulation.
  Result<FpgaRunResult<T>> Run(size_t n) {
    SimDigest cache_key{};
    if (config_.sim_cache) {
      cache_key = CacheKey(ConfigDigest(), InputDigest(n));
      if (std::shared_ptr<const FpgaRunResult<T>> hit =
              ResultCache().Lookup(cache_key)) {
        // A hit replays the memoized run: identical output bytes and
        // CycleStats, but the per-run sim.* counters are not re-published
        // (the simulation did not happen again) — only the cache counters
        // record the probe.
        PublishCacheObservability(true);
        return *hit;  // shares the memoized output buffer
      }
      PublishCacheObservability(false);
    }

    FpgaRunResult<T> result;
    FPART_RETURN_NOT_OK(RunEngine(n, &result));

    if (config_.sim_cache) {
      ResultCache().Insert(cache_key,
                           std::make_shared<const FpgaRunResult<T>>(result),
                           ResultBytes(result));
      PublishCacheOccupancy();
    }
    PublishRunObservability(result.stats);
    return result;
  }

  Status RunEngine(size_t n, FpgaRunResult<T>* out) {
    FpgaRunResult<T>& result = *out;
    QpiLink link = MakeLink();
    const InputStager<T> stager(config_, in_tuples_, in_keys_, in_column_);
    const SimMode mode = config_.sim_mode;

    if (cancelled()) {
      return Status::Cancelled("FPGA partition cancelled before start");
    }
    // The fast engine hashes every tuple once; both passes replay the ids.
    const std::vector<uint16_t> ids =
        mode == SimMode::kFast ? FastCircuit<T>::PartitionIds(stager, fn_, n)
                               : std::vector<uint16_t>();
    std::vector<std::vector<uint64_t>> lane_hist;
    if (config_.output_mode == OutputMode::kHist) {
      if (mode == SimMode::kFast) {
        FastCircuit<T> circuit(config_, hazard_, stager, n, ids);
        FPART_RETURN_NOT_OK(circuit.HistogramPass(MaxCycles(n), &link,
                                                  &result.stats, &lane_hist));
      } else {
        FPART_RETURN_NOT_OK(
            HistogramPass(stager, n, &link, &result.stats, &lane_hist));
      }
    }

    // --- Allocate the destination partitions.
    std::vector<uint32_t> capacity_cls(config_.fanout);
    if (config_.output_mode == OutputMode::kHist) {
      // Exact allocation from the per-lane histograms: each combiner emits
      // ceil(count/K) lines per partition (full lines plus its flush line).
      result.histogram.assign(config_.fanout, 0);
      for (uint32_t p = 0; p < config_.fanout; ++p) {
        uint64_t cls = 0;
        for (int c = 0; c < K; ++c) {
          cls += (lane_hist[c][p] + K - 1) / K;
          result.histogram[p] += lane_hist[c][p];
        }
        capacity_cls[p] = static_cast<uint32_t>(cls);
      }
      // Computing the prefix sum over the histogram BRAM costs one pass
      // over the partitions (Section 4.3).
      result.stats.cycles += config_.fanout;
      // Engine-agnostic phase boundary: everything so far (pass 1 + prefix
      // sum) is the histogram share of the run.
      result.stats.histogram_cycles = result.stats.cycles;
    } else {
      // PAD mode: #Tuples/#Partitions + Padding, rounded up to cache lines.
      // Every combiner can leave one partially filled line per partition at
      // flush time, so the fixed size also reserves K-1 lines of
      // fragmentation slack on top of the tuple budget.
      double per_part = static_cast<double>(n) / config_.fanout;
      uint64_t cap_tuples =
          static_cast<uint64_t>(per_part * (1.0 + config_.pad_fraction)) + 1;
      uint32_t cls =
          static_cast<uint32_t>((cap_tuples + K - 1) / K) + (K - 1);
      std::fill(capacity_cls.begin(), capacity_cls.end(),
                std::max(1u, cls));
    }
    FPART_ASSIGN_OR_RETURN(result.output,
                           PartitionedOutput<T>::Allocate(capacity_cls));

    if (cancelled()) {
      return Status::Cancelled("FPGA partition cancelled between passes");
    }
    if (mode == SimMode::kFast) {
      FastCircuit<T> circuit(config_, hazard_, stager, n, ids);
      FPART_RETURN_NOT_OK(circuit.PartitionPass(MaxCycles(n), &link,
                                                &result.stats, &result.output));
    } else {
      FPART_RETURN_NOT_OK(
          PartitionPass(stager, n, &link, &result.stats, &result.output));
    }

    result.seconds = result.stats.Seconds(kFpgaClockHz);
    result.mtuples_per_sec =
        result.seconds > 0 ? n / result.seconds / 1e6 : 0.0;
    result.read_write_ratio =
        link.writes_granted() > 0
            ? static_cast<double>(link.reads_granted()) /
                  static_cast<double>(link.writes_granted())
            : 0.0;
    return Status::OK();
  }

  /// Export one run's cycle counters to the global metrics registry (the
  /// `sim.*` / `qpi.*` catalogue of docs/observability.md — cumulative
  /// across runs in this process) and, when tracing is on, its per-pass
  /// spans on a simulated timeline.
  static void PublishRunObservability(const CycleStats& stats) {
    auto& reg = obs::Registry::Global();
    static obs::Counter* const runs = reg.GetCounter(
        "sim.runs", "runs", "simulated partitioning runs completed");
    static obs::Counter* const cycles = reg.GetCounter(
        "sim.cycles", "cycles", "total simulated clock cycles");
    static obs::Counter* const hist_cycles = reg.GetCounter(
        "sim.histogram_pass_cycles", "cycles",
        "HIST pass 1 + prefix-sum share of sim.cycles");
    static obs::Counter* const flush_cycles = reg.GetCounter(
        "sim.flush_drain_cycles", "cycles",
        "flush + drain epilogue share of sim.cycles");
    static obs::Counter* const input_lines = reg.GetCounter(
        "sim.hash_lane.input_lines", "cache_lines",
        "input lines accepted into the hash lanes");
    static obs::Counter* const wc_stalls = reg.GetCounter(
        "sim.write_combiner.stall_cycles", "cycles",
        "internal pipeline stalls (0 under the forwarding policy)");
    static obs::Counter* const dummies = reg.GetCounter(
        "sim.write_back.dummy_tuples", "tuples",
        "padding tuples emitted by the flush");
    static obs::Counter* const read_lines = reg.GetCounter(
        "qpi.read_lines", "cache_lines", "cache lines read over QPI");
    static obs::Counter* const write_lines = reg.GetCounter(
        "qpi.write_lines", "cache_lines",
        "cache lines written back over QPI");
    static obs::Counter* const read_stalls = reg.GetCounter(
        "qpi.read_stall_cycles", "cycles",
        "cycles a pending read found no bandwidth token (Figure 2 bound)");
    static obs::Counter* const write_stalls = reg.GetCounter(
        "qpi.write_stall_cycles", "cycles",
        "cycles a pending write-back line found no bandwidth token");
    static obs::Counter* const bytes = reg.GetCounter(
        "qpi.bytes", "bytes", "total bytes moved over QPI");
    runs->Add();
    cycles->Add(stats.cycles);
    hist_cycles->Add(stats.histogram_cycles);
    flush_cycles->Add(stats.flush_cycles);
    input_lines->Add(stats.input_lines);
    wc_stalls->Add(stats.internal_stall_cycles);
    dummies->Add(stats.dummy_tuples);
    read_lines->Add(stats.read_lines);
    write_lines->Add(stats.output_lines);
    read_stalls->Add(stats.read_stall_cycles);
    write_stalls->Add(stats.write_stall_cycles);
    bytes->Add((stats.read_lines + stats.output_lines) * kCacheLineSize);
    obs::AddSimRunTrace(stats.cycles, stats.histogram_cycles,
                        stats.flush_cycles, kFpgaClockHz);
  }

  static void PublishCacheObservability(bool hit) {
    auto& reg = obs::Registry::Global();
    static obs::Counter* const hits = reg.GetCounter(
        "sim.cache.hits", "lookups",
        "sim-result cache probes answered from the memoized run");
    static obs::Counter* const misses = reg.GetCounter(
        "sim.cache.misses", "lookups",
        "sim-result cache probes that fell through to the simulator");
    PartitionedOutput<T>::CopiedBytesCounter();  // registers it at 0
    if (hit) {
      hits->Add();
    } else {
      misses->Add();
    }
  }

  static void PublishCacheOccupancy() {
    auto& reg = obs::Registry::Global();
    static obs::Counter* const evictions = reg.GetCounter(
        "sim.cache.evictions", "entries",
        "sim-result cache entries evicted by the byte budget");
    static obs::Gauge* const entries = reg.GetGauge(
        "sim.cache.entries", "entries", "sim-result cache live entries");
    static obs::Gauge* const bytes = reg.GetGauge(
        "sim.cache.bytes", "bytes", "sim-result cache bytes held");
    // The counter is driven from the cache's own monotone total: adding
    // the delta since the last publication keeps it correct under
    // concurrent inserts (fetch-and-swap of the last-seen value).
    static std::atomic<uint64_t> last_published{0};
    const SimCacheStats st = ResultCache().stats();
    uint64_t prev = last_published.exchange(st.evictions,
                                            std::memory_order_relaxed);
    if (st.evictions > prev) evictions->Add(st.evictions - prev);
    entries->Set(static_cast<double>(st.entries));
    bytes->Set(static_cast<double>(st.bytes));
  }

  /// Digest of every configuration knob that can change the run's output
  /// or reported stats, plus sim_mode so a kReference run never replays a
  /// kFast result; the run-orchestration knobs (sim_cache, cancel) are
  /// deliberately excluded — they do not affect the result.
  SimDigest ConfigDigest() const {
    SimHasher h;
    h.MixU64(config_.fanout);
    h.MixU64(static_cast<uint64_t>(config_.output_mode));
    h.MixU64(static_cast<uint64_t>(config_.layout));
    h.MixU64(static_cast<uint64_t>(config_.hash));
    h.MixU64(config_.range_splitters.size());
    for (uint64_t s : config_.range_splitters) h.MixU64(s);
    h.MixU64(std::bit_cast<uint64_t>(config_.pad_fraction));
    h.MixU64(static_cast<uint64_t>(config_.link));
    h.MixU64(static_cast<uint64_t>(config_.interference));
    h.MixU64(static_cast<uint64_t>(config_.sim_mode));
    h.MixU64(config_.lane_fifo_depth);
    h.MixU64(config_.output_fifo_depth);
    h.MixU64(static_cast<uint64_t>(hazard_));
    h.MixU64(sizeof(T));
    return h.Finish();
  }

  /// Digest of the active input's raw bytes (whichever of the three entry
  /// points armed this run).
  SimDigest InputDigest(size_t n) const {
    SimHasher h;
    h.MixU64(n);
    if (in_tuples_ != nullptr) {
      h.MixU64(0);
      h.MixBytes(in_tuples_, n * sizeof(T));
    } else if (in_keys_ != nullptr) {
      h.MixU64(1);
      h.MixBytes(in_keys_, n * sizeof(KeyType));
    } else if (in_column_ != nullptr) {
      h.MixU64(2);
      h.MixU64(in_column_->num_keys());
      if (in_column_->num_frames() > 0) {
        // Frames are contiguous 64 B blocks in one buffer.
        h.MixBytes(in_column_->frame(0),
                   in_column_->num_frames() * kCacheLineSize);
      }
    }
    return h.Finish();
  }

  static SimDigest CacheKey(const SimDigest& config_digest,
                            const SimDigest& input_digest) {
    SimHasher h;
    h.MixU64(config_digest.hi);
    h.MixU64(config_digest.lo);
    h.MixU64(input_digest.hi);
    h.MixU64(input_digest.lo);
    return h.Finish();
  }

  static size_t ResultBytes(const FpgaRunResult<T>& r) {
    return static_cast<size_t>(r.output.total_cls()) * kCacheLineSize +
           r.output.num_partitions() * sizeof(PartitionInfo) +
           r.histogram.size() * sizeof(uint64_t) + sizeof(FpgaRunResult<T>);
  }

  /// HIST pass 1: scan the relation and build per-lane histograms; nothing
  /// is written back (Section 4.5).
  Status HistogramPass(const InputStager<T>& stager, size_t n, QpiLink* link,
                       CycleStats* stats,
                       std::vector<std::vector<uint64_t>>* lane_hist) {
    lane_hist->assign(K, std::vector<uint64_t>(config_.fanout, 0));
    std::vector<Fifo<HashedTuple<T>>> fifo_storage(
        K, Fifo<HashedTuple<T>>(config_.lane_fifo_depth));
    std::vector<Fifo<HashedTuple<T>>*> lane_fifos;
    std::vector<HashLane<T>> lanes;
    lanes.reserve(K);
    for (int c = 0; c < K; ++c) {
      lane_fifos.push_back(&fifo_storage[c]);
      lanes.emplace_back(fn_, config_.hash_latency(), &fifo_storage[c]);
    }

    const size_t total_reads = stager.TotalReads(n);
    size_t reads_done = 0;
    std::deque<Group> staging;
    uint64_t fed = 0;
    const uint64_t max_cycles = MaxCycles(n);

    auto busy = [&] {
      if (fed < n) return true;
      for (int c = 0; c < K; ++c) {
        if (!lanes[c].empty() || !fifo_storage[c].empty()) return true;
      }
      return false;
    };
    while (busy()) {
      if (stats->cycles++ > max_cycles) {
        return Status::Internal("histogram pass exceeded cycle budget");
      }
      link->Tick();
      // Histogram sink: one tuple per lane per cycle.
      for (int c = 0; c < K; ++c) {
        if (auto ht = fifo_storage[c].Pop()) {
          ++(*lane_hist)[c][ht->hash];
        }
      }
      FeedCycle(stager, n, total_reads, &reads_done, &staging, link, stats,
                &lanes, lane_fifos, &fed);
    }
    return Status::OK();
  }

  /// The writing pass (PAD's only pass / HIST's second pass).
  Status PartitionPass(const InputStager<T>& stager, size_t n, QpiLink* link,
                       CycleStats* stats, PartitionedOutput<T>* output) {
    std::vector<WriteCombiner<T>> combiners;
    combiners.reserve(K);
    for (int c = 0; c < K; ++c) {
      combiners.emplace_back(config_.fanout, config_.lane_fifo_depth,
                             config_.output_fifo_depth, hazard_);
    }
    std::vector<HashLane<T>> lanes;
    std::vector<Fifo<HashedTuple<T>>*> lane_fifos;
    lanes.reserve(K);
    for (int c = 0; c < K; ++c) {
      lane_fifos.push_back(&combiners[c].input());
      lanes.emplace_back(fn_, config_.hash_latency(), &combiners[c].input());
    }
    std::vector<Fifo<CombinedLine<T>>*> outputs;
    for (int c = 0; c < K; ++c) outputs.push_back(&combiners[c].output());
    WriteBackModule<T> write_back(output, outputs);

    const size_t total_reads = stager.TotalReads(n);
    size_t reads_done = 0;
    std::deque<Group> staging;
    uint64_t fed = 0;
    const uint64_t max_cycles = MaxCycles(n);

    auto overflow_status = [&] {
      return Status::PartitionOverflow(
          "PAD-mode partition " +
          std::to_string(write_back.overflow_partition()) +
          " overflowed; retry in HIST mode or fall back to the CPU "
          "partitioner (Section 4.5)");
    };

    // --- Main streaming loop: runs until every tuple has left the hash
    // pipelines AND the combiners AND the write-back stage.
    auto busy = [&] {
      if (fed < n || !write_back.idle()) return true;
      for (const auto& lane : lanes) {
        if (!lane.empty()) return true;
      }
      for (const auto& c : combiners) {
        if (!c.drained() || !c.output().empty()) return true;
      }
      return false;
    };
    while (busy()) {
      if (stats->cycles++ > max_cycles) {
        return Status::Internal("partition pass exceeded cycle budget");
      }
      link->Tick();
      write_back.Tick(link, stats);
      if (write_back.overflowed()) return overflow_status();
      for (auto& c : combiners) c.Tick();
      FeedCycle(stager, n, total_reads, &reads_done, &staging, link, stats,
                &lanes, lane_fifos, &fed);
    }

    // --- Flush: scan every (combiner, partition) BRAM address at one per
    // cycle (the cwritecomb = K·#partitions latency term of Table 3),
    // emitting padded partial lines.
    const uint64_t flush_start_cycles = stats->cycles;
    for (int c = 0; c < K; ++c) {
      uint32_t p = 0;
      while (p < config_.fanout) {
        if (stats->cycles++ > max_cycles) {
          return Status::Internal("flush exceeded cycle budget");
        }
        link->Tick();
        write_back.Tick(link, stats);
        if (write_back.overflowed()) return overflow_status();
        if (combiners[c].output().free_slots() > 0) {
          combiners[c].FlushPartition(p);
          ++p;
        }
      }
    }
    // --- Drain the remaining lines.
    auto lines_pending = [&] {
      if (!write_back.idle()) return true;
      for (const auto& c : combiners) {
        if (!c.output().empty()) return true;
      }
      return false;
    };
    while (lines_pending()) {
      if (stats->cycles++ > max_cycles) {
        return Status::Internal("drain exceeded cycle budget");
      }
      link->Tick();
      write_back.Tick(link, stats);
      if (write_back.overflowed()) return overflow_status();
    }
    stats->flush_cycles += stats->cycles - flush_start_cycles;

    // --- Invariant checks: the circuit claims zero internal stalls and no
    // lost data under the forwarding policy.
    for (const auto& c : combiners) {
      stats->internal_stall_cycles += c.stall_cycles();
      if (c.lost_lines() != 0 || c.alignment_errors() != 0) {
        return Status::Internal("write combiner dropped data (bug)");
      }
    }
    return Status::OK();
  }

  uint64_t MaxCycles(size_t n) const {
    return 64 * (static_cast<uint64_t>(n) +
                 static_cast<uint64_t>(config_.fanout) * (K + 2)) +
           (uint64_t{1} << 20);
  }

  FpgaPartitionerConfig config_;
  PartitionFn fn_;
  HazardPolicy hazard_ = HazardPolicy::kForward;
  // Active input source (set by the public entry points for one Run).
  const T* in_tuples_ = nullptr;
  const KeyType* in_keys_ = nullptr;
  const CompressedColumn* in_column_ = nullptr;
};

}  // namespace fpart
