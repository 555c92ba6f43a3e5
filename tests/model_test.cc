// Tests of the analytical cost model (Section 4.6) and its validation
// against the paper's reported numbers (Section 4.8).
#include <gtest/gtest.h>

#include "model/cost_model.h"
#include "model/paper_constants.h"

namespace fpart {
namespace {

TEST(CostModelTest, CircuitRateIsOneCacheLinePerCycle) {
  EXPECT_DOUBLE_EQ(FpgaCostModel(8, 8192).CircuitRateTuplesPerSec(), 1.6e9);
  EXPECT_DOUBLE_EQ(FpgaCostModel(16, 8192).CircuitRateTuplesPerSec(), 0.8e9);
  EXPECT_DOUBLE_EQ(FpgaCostModel(64, 8192).CircuitRateTuplesPerSec(), 0.2e9);
}

TEST(CostModelTest, LatencyMatchesTable3) {
  // Table 3: c_hashing=5, c_writecomb=65540, c_fifos=4 at 8 B / 8192 parts.
  FpgaCostModel model(8, 8192);
  EXPECT_NEAR(model.LatencySeconds(), (5 + 65540 + 4) * 5e-9, 1e-12);
}

TEST(CostModelTest, ModeFactorAndRatios) {
  EXPECT_DOUBLE_EQ(FpgaCostModel::ModeFactor(OutputMode::kHist), 2.0);
  EXPECT_DOUBLE_EQ(FpgaCostModel::ModeFactor(OutputMode::kPad), 1.0);
  EXPECT_DOUBLE_EQ(
      FpgaCostModel::ReadWriteRatio(OutputMode::kHist, LayoutMode::kRid), 2.0);
  EXPECT_DOUBLE_EQ(
      FpgaCostModel::ReadWriteRatio(OutputMode::kHist, LayoutMode::kVrid),
      1.0);
  EXPECT_DOUBLE_EQ(
      FpgaCostModel::ReadWriteRatio(OutputMode::kPad, LayoutMode::kRid), 1.0);
  EXPECT_DOUBLE_EQ(
      FpgaCostModel::ReadWriteRatio(OutputMode::kPad, LayoutMode::kVrid),
      0.5);
}

TEST(CostModelTest, Section48ValidationNumbers) {
  // The three derivations of Section 4.8 (N = 128e6, W = 8 B).
  FpgaCostModel model(8, 8192);
  const uint64_t n = 128000000;
  EXPECT_NEAR(model.TotalRateTuplesPerSec(n, OutputMode::kHist,
                                          LayoutMode::kRid,
                                          LinkKind::kXeonFpga) /
                  1e6,
              paper::kModelHistRid, paper::kModelHistRid * 0.02);
  EXPECT_NEAR(model.TotalRateTuplesPerSec(n, OutputMode::kPad,
                                          LayoutMode::kRid,
                                          LinkKind::kXeonFpga) /
                  1e6,
              paper::kModelMidModes, paper::kModelMidModes * 0.02);
  EXPECT_NEAR(model.TotalRateTuplesPerSec(n, OutputMode::kHist,
                                          LayoutMode::kVrid,
                                          LinkKind::kXeonFpga) /
                  1e6,
              paper::kModelMidModes, paper::kModelMidModes * 0.02);
  EXPECT_NEAR(model.TotalRateTuplesPerSec(n, OutputMode::kPad,
                                          LayoutMode::kVrid,
                                          LinkKind::kXeonFpga) /
                  1e6,
              paper::kModelPadVrid, paper::kModelPadVrid * 0.02);
}

TEST(CostModelTest, RawWrapperIsCircuitBound) {
  // With 25.6 GB/s the first term of eq. 7 dominates: 1.6e9 tuples/s PAD,
  // 0.8e9 HIST (Section 4.7's raw numbers).
  FpgaCostModel model(8, 8192);
  const uint64_t n = 128000000;
  EXPECT_NEAR(model.TotalRateTuplesPerSec(n, OutputMode::kPad,
                                          LayoutMode::kRid,
                                          LinkKind::kRawWrapper),
              1.597e9, 0.01e9);
  EXPECT_NEAR(model.TotalRateTuplesPerSec(n, OutputMode::kHist,
                                          LayoutMode::kRid,
                                          LinkKind::kRawWrapper),
              0.799e9, 0.005e9);
}

TEST(CostModelTest, LatencyHiddenForLargeN) {
  // For large N the latency term vanishes (Section 4.6): the rate
  // converges to the N→∞ limit.
  FpgaCostModel model(8, 8192);
  double small = model.ProcessRateTuplesPerSec(100000, OutputMode::kPad);
  double large = model.ProcessRateTuplesPerSec(1u << 30, OutputMode::kPad);
  EXPECT_LT(small, large);
  EXPECT_NEAR(large, 1.6e9, 0.01e9);
}

TEST(CostModelTest, WiderTuplesSameBytesFewerTuples) {
  // Figure 8: tuples/s halves with doubling width; GB/s stays flat.
  const uint64_t n = 1u << 26;
  double prev_rate = 1e18;
  for (int w : {8, 16, 32, 64}) {
    FpgaCostModel model(w, 8192);
    double rate = model.TotalRateTuplesPerSec(n, OutputMode::kHist,
                                              LayoutMode::kRid,
                                              LinkKind::kXeonFpga);
    double gbs = rate * w * 3.0 / 1e9;  // r=2: 3 bytes moved per byte written
    EXPECT_LT(rate, prev_rate);
    EXPECT_NEAR(gbs, 7.05, 0.1);
    prev_rate = rate;
  }
}

TEST(CostModelTest, PredictSecondsInvertsRate) {
  FpgaCostModel model(8, 8192);
  const uint64_t n = 10000000;
  double rate = model.TotalRateTuplesPerSec(n, OutputMode::kPad,
                                            LayoutMode::kRid,
                                            LinkKind::kXeonFpga);
  EXPECT_NEAR(model.PredictSeconds(n, OutputMode::kPad, LayoutMode::kRid,
                                   LinkKind::kXeonFpga),
              n / rate, 1e-9);
}

TEST(CostModelTest, InterferenceLowersPrediction) {
  FpgaCostModel model(8, 8192);
  const uint64_t n = 1u << 26;
  EXPECT_LT(model.TotalRateTuplesPerSec(n, OutputMode::kPad, LayoutMode::kRid,
                                        LinkKind::kXeonFpga,
                                        Interference::kInterfered),
            model.TotalRateTuplesPerSec(n, OutputMode::kPad, LayoutMode::kRid,
                                        LinkKind::kXeonFpga,
                                        Interference::kAlone));
}

}  // namespace
}  // namespace fpart
