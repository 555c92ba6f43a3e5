// Randomized end-to-end properties: for arbitrary configurations and key
// distributions, the FPGA circuit and the CPU partitioner produce identical
// partition multisets and conserve every tuple; joins over them agree with
// a nested-loop oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/fpart.h"

namespace fpart {
namespace {

struct RandomConfig {
  uint64_t seed;
  uint32_t fanout;
  HashMethod hash;
  OutputMode mode;
  size_t n;
};

RandomConfig MakeConfig(uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  RandomConfig c;
  c.seed = seed;
  c.fanout = 1u << (1 + rng.Below(10));  // 2 .. 1024
  const HashMethod methods[] = {HashMethod::kRadix, HashMethod::kMurmur,
                                HashMethod::kMultiplicative,
                                HashMethod::kCrc32};
  c.hash = methods[rng.Below(4)];
  c.mode = rng.Below(2) == 0 ? OutputMode::kHist : OutputMode::kPad;
  c.n = 1000 + rng.Below(30000);
  return c;
}

Relation<Tuple8> MakeInput(const RandomConfig& c) {
  Rng rng(c.seed);
  auto rel = Relation<Tuple8>::Allocate(c.n);
  EXPECT_TRUE(rel.ok());
  // Mix uniform and mildly clustered keys.
  const bool clustered = rng.Below(2) == 0;
  for (size_t i = 0; i < c.n; ++i) {
    uint32_t key = clustered
                       ? static_cast<uint32_t>(rng.Below(997)) * 1009u
                       : rng.Next32() & 0x7fffffffu;
    (*rel)[i] = Tuple8{key, static_cast<uint32_t>(i)};
  }
  return std::move(*rel);
}

using PartitionKeyMultisets = std::vector<std::vector<uint64_t>>;

template <typename Output>
PartitionKeyMultisets Collect(const Output& out) {
  PartitionKeyMultisets parts(out.num_partitions());
  for (size_t p = 0; p < out.num_partitions(); ++p) {
    const Tuple8* data = out.partition_data(p);
    for (size_t i = 0; i < out.partition_slots(p); ++i) {
      if (!IsDummy(data[i])) {
        parts[p].push_back((static_cast<uint64_t>(data[i].key) << 32) |
                           data[i].payload);
      }
    }
    std::sort(parts[p].begin(), parts[p].end());
  }
  return parts;
}

class PartitionEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionEquivalenceTest, AllEnginesAgree) {
  const RandomConfig c = MakeConfig(GetParam());
  SCOPED_TRACE("seed=" + std::to_string(c.seed) +
               " fanout=" + std::to_string(c.fanout) + " hash=" +
               HashMethodName(c.hash) + " mode=" + OutputModeName(c.mode) +
               " n=" + std::to_string(c.n));
  Relation<Tuple8> rel = MakeInput(c);

  // FPGA circuit. PAD with generous padding (clustered inputs are skewed).
  FpgaPartitionerConfig fpga_config;
  fpga_config.fanout = c.fanout;
  fpga_config.hash = c.hash;
  fpga_config.output_mode = c.mode;
  fpga_config.pad_fraction = 8.0;
  FpgaPartitioner<Tuple8> fpga(fpga_config);
  auto fpga_run = fpga.Partition(rel.data(), rel.size());
  if (!fpga_run.ok() && fpga_run.status().IsPartitionOverflow()) {
    // Legitimate under heavy clustering; retry in HIST mode (the fallback).
    fpga_config.output_mode = OutputMode::kHist;
    FpgaPartitioner<Tuple8> retry(fpga_config);
    fpga_run = retry.Partition(rel.data(), rel.size());
  }
  ASSERT_TRUE(fpga_run.ok()) << fpga_run.status().ToString();
  ASSERT_EQ(fpga_run->stats.internal_stall_cycles, 0u);

  // CPU single pass.
  CpuPartitionerConfig cpu_config;
  cpu_config.fanout = c.fanout;
  cpu_config.hash = c.hash;
  cpu_config.num_threads = 1 + (c.seed % 4);
  auto cpu_run = CpuPartition(cpu_config, rel.data(), rel.size());
  ASSERT_TRUE(cpu_run.ok());

  auto fpga_parts = Collect(fpga_run->output);
  ASSERT_EQ(fpga_parts, Collect(cpu_run->output));

  // Conservation: every tuple appears exactly once.
  uint64_t total = 0;
  for (const auto& p : fpga_parts) total += p.size();
  EXPECT_EQ(total, rel.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

class JoinOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinOracleTest, AllJoinsMatchNestedLoop) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 31 + 5);
  const size_t nr = 500 + rng.Below(3000);
  const size_t ns = 500 + rng.Below(3000);
  auto r = Relation<Tuple8>::Allocate(nr);
  auto s = Relation<Tuple8>::Allocate(ns);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());
  // Narrow key domain: plenty of duplicates on BOTH sides, so the joins
  // must handle m:n matches.
  const uint32_t domain = 200 + static_cast<uint32_t>(rng.Below(400));
  for (size_t i = 0; i < nr; ++i) {
    (*r)[i] = Tuple8{static_cast<uint32_t>(1 + rng.Below(domain)),
                     static_cast<uint32_t>(i)};
  }
  for (size_t j = 0; j < ns; ++j) {
    (*s)[j] = Tuple8{static_cast<uint32_t>(1 + rng.Below(domain)),
                     static_cast<uint32_t>(j)};
  }

  // Oracle.
  std::unordered_map<uint32_t, uint64_t> counts, payload_sums;
  for (const auto& t : *r) {
    ++counts[t.key];
    payload_sums[t.key] += t.payload;
  }
  uint64_t oracle_matches = 0, oracle_checksum = 0;
  for (const auto& t : *s) {
    auto it = counts.find(t.key);
    if (it != counts.end()) {
      oracle_matches += it->second;
      oracle_checksum += payload_sums[t.key];
    }
  }

  CpuJoinConfig cpu;
  cpu.fanout = 64;
  cpu.hash = HashMethod::kMurmur;
  auto radix = CpuRadixJoin(cpu, *r, *s);
  ASSERT_TRUE(radix.ok());
  EXPECT_EQ(radix->matches, oracle_matches);
  EXPECT_EQ(radix->checksum, oracle_checksum);

  HybridJoinConfig hybrid;
  hybrid.fpga.fanout = 64;
  hybrid.fpga.pad_fraction = 8.0;
  auto hyb = HybridJoinWithFallback(hybrid, *r, *s);
  ASSERT_TRUE(hyb.ok()) << hyb.status().ToString();
  EXPECT_EQ(hyb->matches, oracle_matches);
  EXPECT_EQ(hyb->checksum, oracle_checksum);

  auto sm = SortMergeJoin(2, *r, *s);
  ASSERT_TRUE(sm.ok());
  EXPECT_EQ(sm->matches, oracle_matches);
  EXPECT_EQ(sm->checksum, oracle_checksum);

  auto np = NoPartitionJoin(2, *r, *s);
  ASSERT_TRUE(np.ok());
  EXPECT_EQ(np->matches, oracle_matches);
  EXPECT_EQ(np->checksum, oracle_checksum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOracleTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace fpart
