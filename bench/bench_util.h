// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"

namespace fpart {
namespace bench {

/// Print the standard experiment banner with the active scale factor.
inline void Banner(const char* experiment, const char* paper_ref) {
  std::printf("=== %s — reproduces %s ===\n", experiment, paper_ref);
  std::printf("(FPART_SCALE=%.4g of paper size; FPART_THREADS up to %zu)\n\n",
              BenchScale(), BenchMaxThreads());
}

/// Relative deviation in percent (measured vs paper), for the
/// paper-vs-measured columns.
inline double DeltaPct(double measured, double paper) {
  return paper != 0 ? (measured - paper) / paper * 100.0 : 0.0;
}

/// One FNV-1a step: fold the eight bytes of `v` into `h`. The service,
/// cluster and stream benches chain it into their determinism hashes.
inline uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (b * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The eight svc job size classes in tuples (4Ki..512Ki at full scale),
/// scaled by FPART_SCALE and never below 512. The service benches map Zipf
/// rank 1 to the smallest class: many small requests, few huge ones.
inline std::vector<size_t> SizeClasses() {
  const double scale = BenchScale();
  std::vector<size_t> classes;
  for (size_t base = 4096; base <= 524288; base *= 2) {
    classes.push_back(
        std::max<size_t>(512, static_cast<size_t>(base * scale)));
  }
  return classes;
}

/// \brief Snapshot of the cumulative `hw.<phase>.*` registry counters that
/// HwPhaseScope accumulates, so a bench can attribute counter deltas to a
/// single run. When hardware counters are unsupported (no PMU, CI
/// container, FPART_HW_COUNTERS=0) FieldsSince returns an empty list and
/// the `hw.*` columns are simply absent from the report.
struct HwUsage {
  static constexpr const char* kPhases[] = {"histogram", "scatter"};
  static constexpr size_t kNumPhases = 2;
  uint64_t v[kNumPhases][obs::kNumHwEvents] = {};

  static HwUsage Now() {
    HwUsage u;
    if (!obs::HwCountersSupported()) return u;
    for (size_t p = 0; p < kNumPhases; ++p) {
      for (size_t e = 0; e < obs::kNumHwEvents; ++e) {
        u.v[p][e] = obs::HwPhaseCounter(kPhases[p], e)->Value();
      }
    }
    return u;
  }

  /// Accumulate the counter movement of one interval into this snapshot
  /// (for benches interleaving runs of different variants, so each
  /// variant only sums its own intervals).
  void AddDelta(const HwUsage& before, const HwUsage& after) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      for (size_t e = 0; e < obs::kNumHwEvents; ++e) {
        v[p][e] += after.v[p][e] - before.v[p][e];
      }
    }
  }

  /// "hw.<phase>.<event>" delta fields accumulated since `before`.
  std::vector<std::pair<std::string, double>> FieldsSince(
      const HwUsage& before) const {
    std::vector<std::pair<std::string, double>> fields;
    if (!obs::HwCountersSupported()) return fields;
    for (size_t p = 0; p < kNumPhases; ++p) {
      for (size_t e = 0; e < obs::kNumHwEvents; ++e) {
        fields.emplace_back(
            std::string("hw.") + kPhases[p] + "." + obs::kHwEventNames[e],
            static_cast<double>(v[p][e] - before.v[p][e]));
      }
    }
    return fields;
  }
};

}  // namespace bench
}  // namespace fpart
