// Differential tests of the fast simulation path (SimMode::kFast).
//
// The fast engine (src/fpga/fast_engine.h) must be indistinguishable from
// the reference per-module Tick() loop: identical cycle counts, identical
// CycleStats, identical histograms and bit-identical output buffers —
// across every layout, output mode, hazard policy and key distribution,
// including the PAD overflow abort. The property test additionally
// randomizes the config knobs (fanout, FIFO depths, pad_fraction, link)
// and asserts the two engines never diverge. The sim-result cache
// (src/fpga/sim_cache.h) is held to the same standard: a memoized run is
// indistinguishable from the cold run, also under concurrent access
// (TSan-clean).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compress/for_codec.h"
#include "datagen/relation.h"
#include "datagen/tuple.h"
#include "datagen/zipf.h"
#include "fpga/partitioner.h"

namespace fpart {
namespace {

enum class KeyDist { kUniform, kZipf };

const char* DistName(KeyDist d) {
  return d == KeyDist::kUniform ? "uniform" : "zipf";
}

std::vector<uint32_t> MakeKeys(size_t n, KeyDist dist, uint64_t seed,
                               double z = 1.1) {
  std::vector<uint32_t> keys(n);
  if (dist == KeyDist::kUniform) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<uint32_t>(rng.Next()) & 0x7fffffffu;
    }
  } else {
    ZipfSampler zipf(1 << 20, z, seed);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<uint32_t>(zipf.Next()) & 0x7fffffffu;
    }
  }
  return keys;
}

std::vector<Tuple8> MakeTuples(const std::vector<uint32_t>& keys) {
  std::vector<Tuple8> tuples(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    tuples[i] = Tuple8{keys[i], static_cast<uint32_t>(i)};
  }
  return tuples;
}

/// Run one partitioning job in the given engine.
Result<FpgaRunResult<Tuple8>> RunOne(FpgaPartitionerConfig config,
                                     SimMode mode, HazardPolicy hazard,
                                     const std::vector<Tuple8>& tuples,
                                     const std::vector<uint32_t>& keys,
                                     const CompressedColumn* column) {
  config.sim_mode = mode;
  FpgaPartitioner<Tuple8> part(config);
  part.set_hazard_policy(hazard);
  switch (config.layout) {
    case LayoutMode::kVrid:
      return part.PartitionColumn(keys.data(), keys.size());
    case LayoutMode::kCompressed:
      return part.PartitionCompressed(*column);
    case LayoutMode::kRid:
      break;
  }
  return part.Partition(tuples.data(), tuples.size());
}

/// The core assertion: both engines produced *identical* runs.
void ExpectIdenticalRuns(const Result<FpgaRunResult<Tuple8>>& ref,
                         const Result<FpgaRunResult<Tuple8>>& fast,
                         const std::string& label) {
  ASSERT_EQ(ref.ok(), fast.ok())
      << label << ": ref=" << ref.status().ToString()
      << " fast=" << fast.status().ToString();
  if (!ref.ok()) {
    // Both aborted (e.g. PAD overflow): same code, same message, which
    // includes the overflowing partition index.
    EXPECT_EQ(ref.status().ToString(), fast.status().ToString()) << label;
    return;
  }
  const FpgaRunResult<Tuple8>& a = *ref;
  const FpgaRunResult<Tuple8>& b = *fast;
  EXPECT_EQ(a.stats.cycles, b.stats.cycles) << label;
  EXPECT_EQ(a.stats.input_lines, b.stats.input_lines) << label;
  EXPECT_EQ(a.stats.output_lines, b.stats.output_lines) << label;
  EXPECT_EQ(a.stats.read_lines, b.stats.read_lines) << label;
  EXPECT_EQ(a.stats.backpressure_cycles, b.stats.backpressure_cycles) << label;
  EXPECT_EQ(a.stats.read_stall_cycles, b.stats.read_stall_cycles) << label;
  EXPECT_EQ(a.stats.write_stall_cycles, b.stats.write_stall_cycles) << label;
  EXPECT_EQ(a.stats.read_stall_cycles + a.stats.write_stall_cycles,
            a.stats.backpressure_cycles)
      << label;
  EXPECT_EQ(a.stats.internal_stall_cycles, b.stats.internal_stall_cycles)
      << label;
  EXPECT_EQ(a.stats.histogram_cycles, b.stats.histogram_cycles) << label;
  EXPECT_EQ(a.stats.flush_cycles, b.stats.flush_cycles) << label;
  EXPECT_EQ(a.stats.dummy_tuples, b.stats.dummy_tuples) << label;
  EXPECT_EQ(a.seconds, b.seconds) << label;
  EXPECT_EQ(a.mtuples_per_sec, b.mtuples_per_sec) << label;
  EXPECT_EQ(a.read_write_ratio, b.read_write_ratio) << label;
  EXPECT_EQ(a.histogram, b.histogram) << label;

  ASSERT_EQ(a.output.num_partitions(), b.output.num_partitions()) << label;
  ASSERT_EQ(a.output.total_cls(), b.output.total_cls()) << label;
  for (size_t p = 0; p < a.output.num_partitions(); ++p) {
    EXPECT_EQ(a.output.part(p).base_cl, b.output.part(p).base_cl) << label;
    EXPECT_EQ(a.output.part(p).capacity_cls, b.output.part(p).capacity_cls)
        << label;
    EXPECT_EQ(a.output.part(p).written_cls, b.output.part(p).written_cls)
        << label;
    EXPECT_EQ(a.output.part(p).num_tuples, b.output.part(p).num_tuples)
        << label;
  }
  // Bit-identical output bytes, dummy padding included (AlignedBuffer is
  // zero-initialized, so unwritten lines compare equal too).
  EXPECT_EQ(0, std::memcmp(a.output.line(0), b.output.line(0),
                           a.output.total_cls() * kCacheLineSize))
      << label;
}

void RunDifferential(FpgaPartitionerConfig config, HazardPolicy hazard,
                     KeyDist dist, size_t n, const std::string& label,
                     uint64_t seed = 7) {
  auto keys = MakeKeys(n, dist, seed);
  auto tuples = MakeTuples(keys);
  CompressedColumn column;
  if (config.layout == LayoutMode::kCompressed) {
    auto compressed = CompressedColumn::Compress(keys.data(), keys.size());
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    column = std::move(*compressed);
  }
  auto ref = RunOne(config, SimMode::kReference, hazard, tuples, keys, &column);
  auto fast = RunOne(config, SimMode::kFast, hazard, tuples, keys, &column);
  ExpectIdenticalRuns(ref, fast, label);
}

// ---------------------------------------------------------------------------
// The full differential matrix: layout × output mode × hazard × distribution.

TEST(SimFastPathTest, FullMatrix) {
  const LayoutMode layouts[] = {LayoutMode::kRid, LayoutMode::kVrid,
                                LayoutMode::kCompressed};
  const OutputMode modes[] = {OutputMode::kPad, OutputMode::kHist};
  const HazardPolicy hazards[] = {HazardPolicy::kForward, HazardPolicy::kStall};
  const KeyDist dists[] = {KeyDist::kUniform, KeyDist::kZipf};
  for (LayoutMode layout : layouts) {
    for (OutputMode mode : modes) {
      for (HazardPolicy hazard : hazards) {
        for (KeyDist dist : dists) {
          FpgaPartitionerConfig config;
          config.fanout = 256;
          config.layout = layout;
          config.output_mode = mode;
          config.pad_fraction = 1.0;
          std::string label =
              std::string(LayoutModeName(layout)) + "/" +
              OutputModeName(mode) + "/" +
              (hazard == HazardPolicy::kForward ? "forward" : "stall") + "/" +
              DistName(dist);
          RunDifferential(config, hazard, dist, 6000, label);
        }
      }
    }
  }
}

TEST(SimFastPathTest, TinyInputsAndPartialLines) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{63}, size_t{64}, size_t{100}}) {
    for (OutputMode mode : {OutputMode::kPad, OutputMode::kHist}) {
      FpgaPartitionerConfig config;
      config.fanout = 16;
      config.output_mode = mode;
      RunDifferential(config, HazardPolicy::kForward, KeyDist::kUniform, n,
                      "tiny n=" + std::to_string(n) + " " +
                          OutputModeName(mode));
    }
  }
}

TEST(SimFastPathTest, RawWrapperLinkAndInterference) {
  FpgaPartitionerConfig config;
  config.fanout = 512;
  config.link = LinkKind::kRawWrapper;
  RunDifferential(config, HazardPolicy::kForward, KeyDist::kUniform, 10000,
                  "raw wrapper");
  FpgaPartitionerConfig interfered;
  interfered.fanout = 512;
  interfered.interference = Interference::kInterfered;
  RunDifferential(interfered, HazardPolicy::kForward, KeyDist::kUniform, 10000,
                  "interfered");
}

TEST(SimFastPathTest, RadixHashAndRangePartitioning) {
  FpgaPartitionerConfig radix;
  radix.fanout = 128;
  radix.hash = HashMethod::kRadix;
  RunDifferential(radix, HazardPolicy::kForward, KeyDist::kUniform, 8000,
                  "radix");

  FpgaPartitionerConfig range;
  range.fanout = 64;
  range.hash = HashMethod::kRange;
  range.range_splitters.resize(63);
  for (size_t i = 0; i < range.range_splitters.size(); ++i) {
    range.range_splitters[i] = (i + 1) * (0x80000000ull / 64);
  }
  RunDifferential(range, HazardPolicy::kForward, KeyDist::kUniform, 8000,
                  "range");
}

TEST(SimFastPathTest, PadOverflowAbortsIdentically) {
  // Heavy skew into a tightly padded PAD run overflows; the abort must
  // happen at the same cycle with the same partition in both engines.
  FpgaPartitionerConfig config;
  config.fanout = 64;
  config.pad_fraction = 0.01;
  auto keys = MakeKeys(20000, KeyDist::kZipf, 3, /*z=*/1.4);
  auto tuples = MakeTuples(keys);
  auto ref = RunOne(config, SimMode::kReference, HazardPolicy::kForward,
                    tuples, keys, nullptr);
  auto fast = RunOne(config, SimMode::kFast, HazardPolicy::kForward, tuples,
                     keys, nullptr);
  ASSERT_FALSE(ref.ok());
  ASSERT_TRUE(ref.status().IsPartitionOverflow());
  ExpectIdenticalRuns(ref, fast, "pad overflow");
}

// ---------------------------------------------------------------------------
// Property test: randomized config knobs never diverge the two engines.

TEST(SimFastPathTest, RandomizedKnobsNeverDiverge) {
  std::mt19937_64 rng(0xF457F457ull);
  for (int iter = 0; iter < 24; ++iter) {
    FpgaPartitionerConfig config;
    config.fanout = 1u << (1 + rng() % 9);  // 2 .. 512
    config.output_mode = rng() % 2 ? OutputMode::kPad : OutputMode::kHist;
    config.layout = std::array<LayoutMode, 3>{
        LayoutMode::kRid, LayoutMode::kVrid,
        LayoutMode::kCompressed}[rng() % 3];
    config.hash = rng() % 2 ? HashMethod::kMurmur : HashMethod::kRadix;
    config.lane_fifo_depth =
        static_cast<uint32_t>(config.hash_latency() + 2 + rng() % 12);
    config.output_fifo_depth = 2 + rng() % 10;
    config.pad_fraction = 0.05 + static_cast<double>(rng() % 100) / 100.0;
    if (rng() % 4 == 0) config.link = LinkKind::kRawWrapper;
    HazardPolicy hazard =
        rng() % 2 ? HazardPolicy::kForward : HazardPolicy::kStall;
    KeyDist dist = rng() % 2 ? KeyDist::kUniform : KeyDist::kZipf;
    size_t n = 500 + rng() % 20000;
    std::string label = "iter " + std::to_string(iter) + " fanout=" +
                        std::to_string(config.fanout) + " n=" +
                        std::to_string(n);
    RunDifferential(config, hazard, dist, n, label, /*seed=*/rng());
  }
}

// ---------------------------------------------------------------------------
// Memoization: a cache hit is indistinguishable from the cold run. These
// tests keep the SimAnalyticalTest suite name they had before the analytical
// engine was removed, so their test IDs stay stable; they run on kFast.

void ExpectCacheHitMatchesColdRun(OutputMode mode, uint32_t fanout) {
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  FpgaPartitionerConfig config;
  config.fanout = fanout;
  config.output_mode = mode;
  config.sim_cache = true;
  const std::string label = OutputModeName(mode);
  auto keys = MakeKeys(30000, KeyDist::kUniform, /*seed=*/21);
  auto tuples = MakeTuples(keys);

  FpgaPartitioner<Tuple8> part(config);
  auto cold = part.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto hit = part.Partition(tuples.data(), tuples.size());
  ExpectIdenticalRuns(cold, hit, label + " cold vs hit");

  const SimCacheStats stats = FpgaPartitioner<Tuple8>::ResultCache().stats();
  EXPECT_GE(stats.hits, 1u) << label;
  EXPECT_GE(stats.entries, 1u) << label;

  // A different input under the same config must miss and produce a
  // different digest (different bytes, different result).
  auto other = MakeTuples(MakeKeys(30000, KeyDist::kUniform, /*seed=*/22));
  auto miss = part.Partition(other.data(), other.size());
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_NE(0, std::memcmp(cold->output.line(0), miss->output.line(0),
                           std::min(cold->output.total_cls(),
                                    miss->output.total_cls()) *
                               kCacheLineSize))
      << label;
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
}

TEST(SimAnalyticalTest, CacheHitMatchesColdRun) {
  ExpectCacheHitMatchesColdRun(OutputMode::kHist, /*fanout=*/512);
}

TEST(SimAnalyticalTest, CacheWorksForFastModeToo) {
  // The PAD shape of the test above: the cache key covers the output mode.
  ExpectCacheHitMatchesColdRun(OutputMode::kPad, /*fanout=*/128);
}

TEST(SimAnalyticalTest, HitsShareOneOutputBuffer) {
  // The miss and every later hit of one shape read the memoized bytes in
  // place: same buffer address, nothing copied.
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  FpgaPartitionerConfig config;
  config.fanout = 512;
  config.output_mode = OutputMode::kHist;
  config.sim_cache = true;
  auto tuples = MakeTuples(MakeKeys(30000, KeyDist::kUniform, /*seed=*/23));
  obs::Counter* copied = PartitionedOutput<Tuple8>::CopiedBytesCounter();
  const uint64_t copied_before = copied->Value();

  FpgaPartitioner<Tuple8> part(config);
  const auto cold = part.Partition(tuples.data(), tuples.size());
  const auto hit1 = part.Partition(tuples.data(), tuples.size());
  const auto hit2 = part.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(cold.ok() && hit1.ok() && hit2.ok());
  EXPECT_EQ(hit1->output.line(0), hit2->output.line(0));
  EXPECT_EQ(cold->output.line(0), hit1->output.line(0));
  EXPECT_EQ(copied->Value(), copied_before);
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
}

TEST(SimAnalyticalTest, WritingIntoAHitLeavesTheCacheIntact) {
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  FpgaPartitionerConfig config;
  config.fanout = 512;
  config.output_mode = OutputMode::kHist;
  config.sim_cache = true;
  auto tuples = MakeTuples(MakeKeys(30000, KeyDist::kUniform, /*seed=*/24));
  FpgaPartitionerConfig uncached = config;
  uncached.sim_cache = false;
  const auto reference =
      FpgaPartitioner<Tuple8>(uncached).Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  obs::Counter* copied = PartitionedOutput<Tuple8>::CopiedBytesCounter();
  const uint64_t copied_before = copied->Value();

  FpgaPartitioner<Tuple8> part(config);
  const auto cold = part.Partition(tuples.data(), tuples.size());
  auto hit = part.Partition(tuples.data(), tuples.size());
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  // Overwrite every stored slot of every partition through the hit.
  for (size_t p = 0; p < hit->output.num_partitions(); ++p) {
    Tuple8* data = hit->output.partition_data(p);
    for (size_t i = 0; i < hit->output.partition_slots(p); ++i) {
      data[i] = Tuple8{0xdeadbeef, 0xdeadbeef};
    }
  }
  EXPECT_EQ(copied->Value() - copied_before,
            hit->output.total_cls() * kCacheLineSize +
                hit->output.num_partitions() * sizeof(PartitionInfo));
  const auto later = part.Partition(tuples.data(), tuples.size());
  ExpectIdenticalRuns(reference, cold, "uncached vs cold");
  ExpectIdenticalRuns(reference, later, "uncached vs later hit");
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
}

TEST(SimAnalyticalTest, ConcurrentCacheAccessIsConsistent) {
  // Many threads race cold misses, inserts and hits on a small set of
  // (config, input) shapes; every returned run must equal the
  // single-threaded result for its shape. Run under TSan by
  // scripts/check.sh.
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  constexpr int kShapes = 4;
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 6;

  std::vector<std::vector<Tuple8>> inputs;
  std::vector<FpgaRunResult<Tuple8>> expected;
  FpgaPartitionerConfig config;
  config.fanout = 256;
  config.output_mode = OutputMode::kHist;
  config.sim_cache = true;
  for (int s = 0; s < kShapes; ++s) {
    inputs.push_back(MakeTuples(
        MakeKeys(8000 + 512 * s, KeyDist::kUniform, /*seed=*/40 + s)));
    FpgaPartitionerConfig uncached = config;
    uncached.sim_cache = false;
    FpgaPartitioner<Tuple8> part(uncached);
    auto run = part.Partition(inputs[s].data(), inputs[s].size());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expected.push_back(std::move(*run));
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        const int s = (t + r) % kShapes;
        FpgaPartitioner<Tuple8> part(config);
        auto run = part.Partition(inputs[s].data(), inputs[s].size());
        if (!run.ok() ||
            run->output.total_cls() != expected[s].output.total_cls() ||
            run->stats.cycles != expected[s].stats.cycles ||
            std::memcmp(std::as_const(run->output).line(0),
                        expected[s].output.line(0),
                        expected[s].output.total_cls() * kCacheLineSize) !=
                0) {
          ++failures[t];
        }
        // Scribble on this thread's own run: it detaches from the entry the
        // other threads are still reading. Per element, so TSan sees it.
        for (size_t p = 0; run.ok() && p < run->output.num_partitions(); ++p) {
          Tuple8* data = run->output.partition_data(p);
          for (size_t i = 0; i < run->output.partition_slots(p); ++i) {
            data[i] = Tuple8{0xdeadbeef, 0xdeadbeef};
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(0, failures[t]) << "thread " << t;
  }
  for (int s = 0; s < kShapes; ++s) {
    const auto hit =
        FpgaPartitioner<Tuple8>(config).Partition(inputs[s].data(),
                                                  inputs[s].size());
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(0, std::memcmp(hit->output.line(0), expected[s].output.line(0),
                             expected[s].output.total_cls() * kCacheLineSize))
        << "shape " << s << " after the scribbles";
  }
  const SimCacheStats stats = FpgaPartitioner<Tuple8>::ResultCache().stats();
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kShapes));
  EXPECT_GE(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kRunsPerThread));
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
}

}  // namespace
}  // namespace fpart
