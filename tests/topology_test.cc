// Unit tests for common/topology: policy parsing, synthetic and detected
// topologies, pin-plan construction per policy, self-pinning, and the
// thread-local worker context.
#include "common/topology.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace fpart {
namespace {

TEST(AffinityPolicyTest, ParseAcceptsCanonicalNames) {
  AffinityPolicy p = AffinityPolicy::kNone;
  EXPECT_TRUE(ParseAffinityPolicy("none", &p));
  EXPECT_EQ(p, AffinityPolicy::kNone);
  EXPECT_TRUE(ParseAffinityPolicy("compact", &p));
  EXPECT_EQ(p, AffinityPolicy::kCompact);
  EXPECT_TRUE(ParseAffinityPolicy("scatter", &p));
  EXPECT_EQ(p, AffinityPolicy::kScatter);
  EXPECT_TRUE(ParseAffinityPolicy("numa-local", &p));
  EXPECT_EQ(p, AffinityPolicy::kNumaLocal);
}

TEST(AffinityPolicyTest, ParseAcceptsUnderscoreAlias) {
  AffinityPolicy p = AffinityPolicy::kNone;
  EXPECT_TRUE(ParseAffinityPolicy("numa_local", &p));
  EXPECT_EQ(p, AffinityPolicy::kNumaLocal);
}

TEST(AffinityPolicyTest, ParseRejectsUnknownLeavingValueUntouched) {
  AffinityPolicy p = AffinityPolicy::kScatter;
  EXPECT_FALSE(ParseAffinityPolicy("turbo", &p));
  EXPECT_EQ(p, AffinityPolicy::kScatter);
  EXPECT_FALSE(ParseAffinityPolicy("", &p));
  EXPECT_EQ(p, AffinityPolicy::kScatter);
}

TEST(AffinityPolicyTest, NameParsesBack) {
  for (AffinityPolicy p :
       {AffinityPolicy::kNone, AffinityPolicy::kCompact,
        AffinityPolicy::kScatter, AffinityPolicy::kNumaLocal}) {
    AffinityPolicy back = AffinityPolicy::kNone;
    ASSERT_TRUE(ParseAffinityPolicy(AffinityPolicyName(p), &back));
    EXPECT_EQ(back, p);
  }
}

TEST(TopologyTest, SyntheticCounts) {
  // 2 nodes x 4 logical CPUs, 2-way SMT: 4 physical cores total.
  Topology topo = Topology::Synthetic(2, 4, 2);
  EXPECT_EQ(topo.num_cpus(), 8u);
  EXPECT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.num_cores(), 4u);
  // Linux-style enumeration: node 0 owns cpus 0..3, node 1 owns 4..7.
  for (int cpu = 0; cpu < 8; ++cpu) {
    EXPECT_EQ(topo.NodeOfCpu(cpu), cpu / 4) << "cpu " << cpu;
  }
}

TEST(TopologyTest, SyntheticSmtSiblingsShareCore) {
  Topology topo = Topology::Synthetic(1, 4, 2);  // cores 0,1; siblings +2
  const auto& cpus = topo.cpus();
  ASSERT_EQ(cpus.size(), 4u);
  EXPECT_EQ(cpus[0].core, cpus[2].core);  // cpu0 and cpu2 are siblings
  EXPECT_EQ(cpus[0].smt, 0);
  EXPECT_EQ(cpus[2].smt, 1);
  EXPECT_EQ(cpus[1].core, cpus[3].core);
}

TEST(TopologyTest, PinPlanNoneLeavesEveryWorkerUnpinned) {
  Topology topo = Topology::Synthetic(2, 4, 2);
  auto plan = topo.PinPlan(AffinityPolicy::kNone, 6);
  ASSERT_EQ(plan.size(), 6u);
  for (const auto& pin : plan) {
    EXPECT_EQ(pin.cpu, -1);
    EXPECT_EQ(pin.node, 0);
  }
}

TEST(TopologyTest, PinPlanCompactPacksSiblingsFirst) {
  // Synthetic(2, 4, 2): node 0 = cpus {0,1,2,3}, cores {0,1,0,1},
  // smt {0,0,1,1}. Compact fills core 0's siblings (cpu 0, cpu 2)
  // before core 1.
  Topology topo = Topology::Synthetic(2, 4, 2);
  auto plan = topo.PinPlan(AffinityPolicy::kCompact, 4);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].cpu, 0);
  EXPECT_EQ(plan[1].cpu, 2);  // hyperthread sibling of cpu 0
  EXPECT_EQ(plan[2].cpu, 1);
  EXPECT_EQ(plan[3].cpu, 3);
  for (const auto& pin : plan) EXPECT_EQ(pin.node, 0);  // all on node 0
}

TEST(TopologyTest, PinPlanScatterOnePerCoreBeforeSiblings) {
  // Scatter crosses packages before touching any smt-1 sibling: the
  // first four workers land on the four distinct physical cores.
  Topology topo = Topology::Synthetic(2, 4, 2);
  auto plan = topo.PinPlan(AffinityPolicy::kScatter, 8);
  ASSERT_EQ(plan.size(), 8u);
  EXPECT_EQ(plan[0].cpu, 0);
  EXPECT_EQ(plan[1].cpu, 1);
  EXPECT_EQ(plan[2].cpu, 4);
  EXPECT_EQ(plan[3].cpu, 5);
  // Only then the siblings.
  EXPECT_EQ(plan[4].cpu, 2);
  EXPECT_EQ(plan[5].cpu, 3);
  EXPECT_EQ(plan[6].cpu, 6);
  EXPECT_EQ(plan[7].cpu, 7);
}

TEST(TopologyTest, PinPlanNumaLocalIsNodeMajorContiguous) {
  // Workers of one node occupy one contiguous index block.
  Topology topo = Topology::Synthetic(2, 4, 2);
  auto plan = topo.PinPlan(AffinityPolicy::kNumaLocal, 8);
  ASSERT_EQ(plan.size(), 8u);
  for (size_t t = 0; t < 4; ++t) EXPECT_EQ(plan[t].node, 0) << t;
  for (size_t t = 4; t < 8; ++t) EXPECT_EQ(plan[t].node, 1) << t;
  // Within a node: cores before siblings (scatter order).
  EXPECT_EQ(plan[0].cpu, 0);
  EXPECT_EQ(plan[1].cpu, 1);
  EXPECT_EQ(plan[2].cpu, 2);
  EXPECT_EQ(plan[3].cpu, 3);
}

TEST(TopologyTest, PinPlanAssignsEachCpuOnce) {
  Topology topo = Topology::Synthetic(2, 4, 2);
  for (AffinityPolicy p : {AffinityPolicy::kCompact, AffinityPolicy::kScatter,
                           AffinityPolicy::kNumaLocal}) {
    auto plan = topo.PinPlan(p, 8);
    std::set<int> cpus;
    for (const auto& pin : plan) {
      EXPECT_GE(pin.cpu, 0);
      EXPECT_TRUE(cpus.insert(pin.cpu).second)
          << "cpu " << pin.cpu << " pinned twice under "
          << AffinityPolicyName(p);
    }
    EXPECT_EQ(cpus.size(), 8u);
  }
}

TEST(TopologyTest, PinPlanOversubscribedWorkersStayUnpinned) {
  Topology topo = Topology::Synthetic(1, 2, 1);
  auto plan = topo.PinPlan(AffinityPolicy::kCompact, 5);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_GE(plan[0].cpu, 0);
  EXPECT_GE(plan[1].cpu, 0);
  for (size_t t = 2; t < 5; ++t) {
    EXPECT_EQ(plan[t].cpu, -1) << "overflow worker " << t;
    EXPECT_EQ(plan[t].node, 0);  // round-robin node tag on a 1-node host
  }
}

TEST(TopologyTest, DetectProducesConsistentHost) {
  // Whatever this host looks like (full sysfs or the fallback), the
  // detected topology must be internally consistent.
  Topology topo = Topology::Detect();
  EXPECT_GE(topo.num_cpus(), 1u);
  EXPECT_GE(topo.num_nodes(), 1u);
  EXPECT_GE(topo.num_cores(), 1u);
  EXPECT_LE(topo.num_cores(), topo.num_cpus());
  for (const CpuSlot& s : topo.cpus()) {
    EXPECT_GE(s.cpu, 0);
    EXPECT_GE(s.node, 0);
    EXPECT_LT(static_cast<size_t>(s.node), topo.num_nodes());
    EXPECT_EQ(topo.NodeOfCpu(s.cpu), s.node);
  }
  // Host() is the cached singleton of the same detection.
  EXPECT_EQ(Topology::Host().num_cpus(), Topology::Host().num_cpus());
}

TEST(TopologyTest, HostPinPlanIsDeterministic) {
  const Topology& host = Topology::Host();
  auto a = host.PinPlan(AffinityPolicy::kNumaLocal, 7);
  auto b = host.PinPlan(AffinityPolicy::kNumaLocal, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].cpu, b[t].cpu);
    EXPECT_EQ(a[t].node, b[t].node);
  }
}

TEST(PinThreadTest, NegativeCpuIsRejected) {
  EXPECT_FALSE(PinCurrentThreadToCpu(-1));
}

#if defined(__linux__)
TEST(PinThreadTest, SelfPinIsVisibleInAffinityMask) {
  // Pin a scratch thread (not the test runner) to the first online CPU
  // and read the mask back. If the kernel rejects the pin (restricted
  // cpuset), false is the documented non-fatal answer.
  const Topology& host = Topology::Host();
  ASSERT_GE(host.num_cpus(), 1u);
  const int cpu = host.cpus()[0].cpu;
  bool pinned = false;
  bool mask_ok = false;
  std::thread t([&] {
    pinned = PinCurrentThreadToCpu(cpu);
    if (!pinned) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      mask_ok = CPU_COUNT(&set) == 1 &&
                CPU_ISSET(static_cast<unsigned>(cpu), &set);
    }
  });
  t.join();
  if (pinned) {
    EXPECT_TRUE(mask_ok);
  }
}
#endif

TEST(WorkerContextTest, DefaultIsOutsideAnyPool) {
  const WorkerContext& ctx = CurrentWorkerContext();
  EXPECT_EQ(ctx.worker, -1);
  EXPECT_EQ(ctx.pool, nullptr);
}

TEST(WorkerContextTest, SetIsThreadLocal) {
  WorkerContext ctx;
  ctx.worker = 3;
  ctx.node = 1;
  ctx.cpu = 5;
  std::thread t([&] {
    SetCurrentWorkerContext(ctx);
    EXPECT_EQ(CurrentWorkerContext().worker, 3);
    EXPECT_EQ(CurrentWorkerContext().node, 1);
    EXPECT_EQ(CurrentWorkerContext().cpu, 5);
  });
  t.join();
  // The setter ran in another thread; this thread stays untouched.
  EXPECT_EQ(CurrentWorkerContext().worker, -1);
}

}  // namespace
}  // namespace fpart
