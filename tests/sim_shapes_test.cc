// Differential tests of the fast simulation path on the shapes the main
// matrix (tests/sim_fastpath_test.cc) does not reach: tuple widths other
// than 8 B (K = 4 and K = 1 tuples per cache line, 64-bit keys), the
// paper's fanout of 8192 at a few hundred thousand tuples, and a PAD
// overflow at that fanout. Every run is compared against the reference
// loop field by field, partition by partition and byte by byte.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "datagen/tuple.h"
#include "datagen/zipf.h"
#include "fpga/partitioner.h"

namespace fpart {
namespace {

enum class KeyDist { kUniform, kZipf };

template <typename T>
using KeyOf = decltype(T{}.key);

template <typename T>
std::vector<KeyOf<T>> MakeKeys(size_t n, KeyDist dist, uint64_t seed,
                               double z = 1.1) {
  // Clearing the top bit keeps every key clear of the dummy sentinel.
  constexpr KeyOf<T> kMask = std::numeric_limits<KeyOf<T>>::max() >> 1;
  std::vector<KeyOf<T>> keys(n);
  if (dist == KeyDist::kUniform) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<KeyOf<T>>(rng.Next()) & kMask;
    }
  } else {
    ZipfSampler zipf(1 << 20, z, seed);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<KeyOf<T>>(zipf.Next()) & kMask;
    }
  }
  return keys;
}

/// Tuples whose every payload word is unique, so a misplaced or
/// reordered tuple changes the output bytes.
template <typename T>
std::vector<T> MakeTuples(const std::vector<KeyOf<T>>& keys) {
  std::vector<T> tuples(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    T t{};
    t.key = keys[i];
    if constexpr (std::is_array_v<decltype(T::payload)>) {
      for (size_t w = 0; w < std::size(t.payload); ++w) {
        t.payload[w] = i * std::size(t.payload) + w;
      }
    } else {
      t.payload = static_cast<decltype(t.payload)>(i);
    }
    tuples[i] = t;
  }
  return tuples;
}

template <typename T>
Result<FpgaRunResult<T>> RunOne(FpgaPartitionerConfig config, SimMode mode,
                                HazardPolicy hazard,
                                const std::vector<T>& tuples,
                                const std::vector<KeyOf<T>>& keys) {
  config.sim_mode = mode;
  FpgaPartitioner<T> part(config);
  part.set_hazard_policy(hazard);
  if (config.layout == LayoutMode::kVrid) {
    return part.PartitionColumn(keys.data(), keys.size());
  }
  return part.Partition(tuples.data(), tuples.size());
}

template <typename T>
void ExpectIdenticalRuns(const Result<FpgaRunResult<T>>& ref,
                         const Result<FpgaRunResult<T>>& fast,
                         const std::string& label) {
  ASSERT_EQ(ref.ok(), fast.ok())
      << label << ": ref=" << ref.status().ToString()
      << " fast=" << fast.status().ToString();
  if (!ref.ok()) {
    EXPECT_EQ(ref.status().ToString(), fast.status().ToString()) << label;
    return;
  }
  const FpgaRunResult<T>& a = *ref;
  const FpgaRunResult<T>& b = *fast;
  EXPECT_EQ(a.stats.cycles, b.stats.cycles) << label;
  EXPECT_EQ(a.stats.input_lines, b.stats.input_lines) << label;
  EXPECT_EQ(a.stats.output_lines, b.stats.output_lines) << label;
  EXPECT_EQ(a.stats.read_lines, b.stats.read_lines) << label;
  EXPECT_EQ(a.stats.backpressure_cycles, b.stats.backpressure_cycles) << label;
  EXPECT_EQ(a.stats.read_stall_cycles, b.stats.read_stall_cycles) << label;
  EXPECT_EQ(a.stats.write_stall_cycles, b.stats.write_stall_cycles) << label;
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
  EXPECT_EQ(0, std::memcmp(a.output.line(0), b.output.line(0),
                           a.output.total_cls() * kCacheLineSize))
      << label;
}

/// Both engines on one input; the reference run must succeed, so the
/// comparison covers output bytes and not just an identical abort.
template <typename T>
void RunDifferential(const FpgaPartitionerConfig& config, HazardPolicy hazard,
                     KeyDist dist, size_t n, const std::string& label,
                     uint64_t seed = 11) {
  const auto keys = MakeKeys<T>(n, dist, seed, /*z=*/0.9);
  const auto tuples = MakeTuples<T>(keys);
  const auto ref = RunOne<T>(config, SimMode::kReference, hazard, tuples, keys);
  ASSERT_TRUE(ref.ok()) << label << ": " << ref.status().ToString();
  const auto fast = RunOne<T>(config, SimMode::kFast, hazard, tuples, keys);
  ExpectIdenticalRuns(ref, fast, label);
}

/// RID and VRID × PAD and HIST × both hazard policies × both key
/// distributions for one tuple width.
template <typename T>
void RunWideTupleMatrix(const char* name) {
  for (LayoutMode layout : {LayoutMode::kRid, LayoutMode::kVrid}) {
    for (OutputMode mode : {OutputMode::kPad, OutputMode::kHist}) {
      for (HazardPolicy hazard :
           {HazardPolicy::kForward, HazardPolicy::kStall}) {
        for (KeyDist dist : {KeyDist::kUniform, KeyDist::kZipf}) {
          FpgaPartitionerConfig config;
          config.fanout = 512;
          config.layout = layout;
          config.output_mode = mode;
          // Zipf's hot keys need a deep pad to fit in PAD mode.
          config.pad_fraction = dist == KeyDist::kUniform ? 1.0 : 40.0;
          const std::string label =
              std::string(name) + "/" + LayoutModeName(layout) + "/" +
              OutputModeName(mode) + "/" +
              (hazard == HazardPolicy::kForward ? "forward" : "stall") + "/" +
              (dist == KeyDist::kUniform ? "uniform" : "zipf");
          RunDifferential<T>(config, hazard, dist, 12000, label);
        }
      }
    }
  }
}

TEST(SimShapesTest, Tuple16MatchesReference) {
  RunWideTupleMatrix<Tuple16>("Tuple16");
}

TEST(SimShapesTest, Tuple64MatchesReference) {
  RunWideTupleMatrix<Tuple64>("Tuple64");
}

TEST(SimShapesTest, Fanout8192PadAndHistMatchReference) {
  for (OutputMode mode : {OutputMode::kPad, OutputMode::kHist}) {
    for (HazardPolicy hazard : {HazardPolicy::kForward, HazardPolicy::kStall}) {
      FpgaPartitionerConfig config;
      config.fanout = 8192;
      config.output_mode = mode;
      const std::string label =
          std::string("fanout 8192/") + OutputModeName(mode) + "/" +
          (hazard == HazardPolicy::kForward ? "forward" : "stall");
      RunDifferential<Tuple8>(config, hazard, KeyDist::kUniform, 200000,
                              label);
    }
  }
}

TEST(SimShapesTest, Fanout8192PadOverflowAbortsIdentically) {
  FpgaPartitionerConfig config;
  config.fanout = 8192;
  config.pad_fraction = 0.05;
  const auto keys = MakeKeys<Tuple8>(200000, KeyDist::kZipf, 5, /*z=*/1.2);
  const auto tuples = MakeTuples<Tuple8>(keys);
  const auto ref = RunOne<Tuple8>(config, SimMode::kReference,
                                  HazardPolicy::kForward, tuples, keys);
  const auto fast = RunOne<Tuple8>(config, SimMode::kFast,
                                   HazardPolicy::kForward, tuples, keys);
  ASSERT_FALSE(ref.ok());
  ASSERT_TRUE(ref.status().IsPartitionOverflow()) << ref.status().ToString();
  ExpectIdenticalRuns(ref, fast, "fanout 8192 pad overflow");
}

}  // namespace
}  // namespace fpart
