// Tests of the svc runtime: placement policy (including boundary
// conditions), admission control, the multi-FPGA device pool (lease
// exclusivity, least-backlogged grants, cancellation handoff), the
// backlog ledger's wall and virtual arithmetic, deterministic replay
// across device counts (and bit-exact against a golden stream), stress
// under racing submitters and cancellations, and cross-backend result
// parity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/workloads.h"
#include "datagen/zipf.h"
#include "obs/metrics.h"
#include "svc/backlog_ledger.h"
#include "svc/fpga_arbiter.h"
#include "svc/job_queue.h"
#include "svc/placement.h"
#include "svc/scheduler.h"

namespace fpart::svc {
namespace {

Relation<Tuple8> MakeRelation(size_t n, uint64_t seed = 7) {
  auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, seed);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).ValueUnsafe();
}

// Charge `seconds` of device work to a wall-time ledger; returns the
// device it landed on.
int ChargeDevice(BacklogLedger* ledger, double seconds) {
  return ledger
      ->Charge(BacklogLedger::Account::kDevice, 0.0, seconds, seconds)
      .device;
}

// ---------------------------------------------------------------- placement

TEST(PlacementTest, FpgaWinsWithEmptyQueues) {
  // A large partition job: the device streams at QPI bandwidth while one
  // CPU thread runs an order of magnitude slower.
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 22;
  PlacementDecision d = DecidePlacement(in);
  EXPECT_EQ(d.backend, Backend::kFpga);
  EXPECT_LT(d.est_fpga_seconds, d.est_cpu_seconds);
  EXPECT_DOUBLE_EQ(d.device_seconds, d.est_fpga_seconds);
}

TEST(PlacementTest, BacklogExceedingCpuEstimateFallsBackToCpu) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 20;
  PlacementDecision base = DecidePlacement(in);
  ASSERT_EQ(base.backend, Backend::kFpga);
  // Pile enough queued device work onto the arbiter that waiting it out
  // costs more than just running on the host.
  in.fpga_backlog_seconds = base.est_cpu_seconds * 2.0;
  PlacementDecision d = DecidePlacement(in);
  EXPECT_EQ(d.backend, Backend::kCpu);
  EXPECT_GT(d.fpga_latency_seconds, d.cpu_latency_seconds);
}

TEST(PlacementTest, TieWithinEpsilonPrefersFpga) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 20;
  PlacementDecision base = DecidePlacement(in);
  // Backlog tuned so the device path is nominally slower, but within the
  // tie epsilon: the device still wins because it frees the host cores.
  const double gap = base.est_cpu_seconds - base.est_fpga_seconds;
  in.fpga_backlog_seconds =
      gap + 0.5 * kPlacementTieEpsilon * base.est_cpu_seconds;
  PlacementDecision d = DecidePlacement(in);
  EXPECT_EQ(d.backend, Backend::kFpga);
  EXPECT_TRUE(d.tie);
  EXPECT_GT(d.fpga_latency_seconds, d.cpu_latency_seconds);
}

TEST(PlacementTest, JoinChoosesHybridOrCpuNeverPlainFpga) {
  PlacementInput in;
  in.kind = JobKind::kJoin;
  in.r_tuples = 1 << 20;
  in.s_tuples = 1 << 20;
  PlacementDecision fast = DecidePlacement(in);
  EXPECT_EQ(fast.backend, Backend::kHybrid);
  EXPECT_LT(fast.device_seconds, fast.est_fpga_seconds)
      << "hybrid estimate must include the CPU build+probe share";
  in.fpga_backlog_seconds = fast.est_cpu_seconds * 3.0;
  PlacementDecision slow = DecidePlacement(in);
  EXPECT_EQ(slow.backend, Backend::kCpu);
}

TEST(PlacementTest, IsPureAndDeterministic) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 123456;
  in.fpga_backlog_seconds = 0.001;
  in.cpu_backlog_seconds = 0.0005;
  PlacementDecision a = DecidePlacement(in);
  PlacementDecision b = DecidePlacement(in);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_DOUBLE_EQ(a.fpga_latency_seconds, b.fpga_latency_seconds);
  EXPECT_DOUBLE_EQ(a.cpu_latency_seconds, b.cpu_latency_seconds);
}

// ------------------------------------------- placement boundary conditions

TEST(PlacementTest, TieEpsilonEdgeIsInclusive) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 20;
  PlacementDecision base = DecidePlacement(in);
  ASSERT_EQ(base.backend, Backend::kFpga);
  const double gap = base.est_cpu_seconds - base.est_fpga_seconds;
  // At the margin: fpga_latency - cpu_latency == eps * fpga_latency solves
  // to backlog = gap + eps/(1-eps) * cpu_latency; the <= comparison keeps
  // the FPGA there. Shave one part in 10^3 off so float rounding in the
  // margin product cannot tip the exact-equality case either way.
  const double eps = kPlacementTieEpsilon;
  in.fpga_backlog_seconds =
      (gap + eps / (1.0 - eps) * base.est_cpu_seconds) * 0.999;
  PlacementDecision at_edge = DecidePlacement(in);
  EXPECT_EQ(at_edge.backend, Backend::kFpga);
  EXPECT_TRUE(at_edge.tie);
  // Nudged past the margin: the CPU wins.
  in.fpga_backlog_seconds *= 1.01;
  PlacementDecision past_edge = DecidePlacement(in);
  EXPECT_EQ(past_edge.backend, Backend::kCpu);
  EXPECT_FALSE(past_edge.tie);
}

TEST(PlacementTest, ZeroTupleJobsRunOnCpuWithFiniteEstimates) {
  for (JobKind kind : {JobKind::kPartition, JobKind::kJoin}) {
    PlacementInput in;
    in.kind = kind;
    in.n_tuples = 0;
    in.r_tuples = 0;
    in.s_tuples = 0;
    PlacementDecision d = DecidePlacement(in);
    EXPECT_EQ(d.backend, Backend::kCpu);
    EXPECT_FALSE(std::isnan(d.est_fpga_seconds));
    EXPECT_FALSE(std::isnan(d.est_cpu_seconds));
    EXPECT_FALSE(std::isnan(d.fpga_latency_seconds));
    EXPECT_FALSE(std::isnan(d.cpu_latency_seconds));
    EXPECT_DOUBLE_EQ(d.est_cpu_seconds, 0.0);
    EXPECT_DOUBLE_EQ(d.device_seconds, 0.0);
  }
}

TEST(PlacementTest, SaturatedPoolSpillsToCpuUntilADeviceFrees) {
  PlacementInput in;
  in.kind = JobKind::kPartition;
  in.n_tuples = 1 << 20;
  PlacementDecision base = DecidePlacement(in);
  ASSERT_EQ(base.backend, Backend::kFpga);
  // Every device backlog saturated past the CPU estimate: spill to CPU.
  const double saturated = base.est_cpu_seconds * 4.0;
  BacklogLedger ledger(/*virtual_time=*/false, 1, 4);
  for (int i = 0; i < 4; ++i) ChargeDevice(&ledger, saturated);
  in.fpga_backlog_seconds = ledger.QuoteWaits(0.0, false).device_wait;
  EXPECT_EQ(DecidePlacement(in).backend, Backend::kCpu);
  // One device drains: the pool minimum rules and the FPGA wins again.
  ledger.Credit(BacklogLedger::Account::kDevice, 2, saturated);
  in.fpga_backlog_seconds = ledger.QuoteWaits(0.0, false).device_wait;
  PlacementDecision d = DecidePlacement(in);
  EXPECT_EQ(d.backend, Backend::kFpga);
  EXPECT_DOUBLE_EQ(in.fpga_backlog_seconds, 0.0);
}

// ---------------------------------------------------------------- job queue

TEST(JobQueueTest, PopsInDeadlineThenFifoOrder) {
  JobQueue queue(16, /*strict_seq=*/false);
  auto make = [](uint64_t seq, double deadline_key) {
    auto rec = std::make_shared<JobRecord>();
    rec->seq = seq;
    rec->deadline_key = deadline_key;
    return rec;
  };
  ASSERT_TRUE(queue.Push(make(0, 5.0)).ok());
  ASSERT_TRUE(queue.Push(make(1, 1.0)).ok());
  ASSERT_TRUE(
      queue.Push(make(2, std::numeric_limits<double>::infinity())).ok());
  ASSERT_TRUE(queue.Push(make(3, 1.0)).ok());
  EXPECT_EQ(queue.Pop()->seq, 1u);  // earliest deadline
  EXPECT_EQ(queue.Pop()->seq, 3u);  // same deadline, FIFO
  EXPECT_EQ(queue.Pop()->seq, 0u);
  EXPECT_EQ(queue.Pop()->seq, 2u);  // no deadline last
}

TEST(JobQueueTest, StrictSeqPopsInArrivalOrderAcrossInterleaving) {
  JobQueue queue(16, /*strict_seq=*/true);
  auto make = [](uint64_t seq) {
    auto rec = std::make_shared<JobRecord>();
    rec->seq = seq;
    return rec;
  };
  // Out-of-order push (any client interleaving) still pops 0,1,2,3.
  ASSERT_TRUE(queue.Push(make(2)).ok());
  ASSERT_TRUE(queue.Push(make(0)).ok());
  ASSERT_TRUE(queue.Push(make(3)).ok());
  ASSERT_TRUE(queue.Push(make(1)).ok());
  for (uint64_t want = 0; want < 4; ++want) {
    EXPECT_EQ(queue.Pop()->seq, want);
  }
}

TEST(JobQueueTest, FullQueueShedsWithCapacityError) {
  JobQueue queue(2, /*strict_seq=*/false);
  auto make = [](uint64_t seq) {
    auto rec = std::make_shared<JobRecord>();
    rec->seq = seq;
    return rec;
  };
  ASSERT_TRUE(queue.Push(make(0)).ok());
  ASSERT_TRUE(queue.Push(make(1)).ok());
  Status st = queue.Push(make(2));
  EXPECT_TRUE(st.IsCapacityError());
  EXPECT_EQ(queue.shed(), 1u);
  EXPECT_EQ(queue.pushed(), 2u);
}

// ------------------------------------------------------------- device pool

TEST(DevicePoolTest, SingleDeviceLeaseIsExclusive) {
  DevicePool pool(1);
  JobRecord a, b;
  a.seq = 0;
  b.seq = 1;
  ASSERT_TRUE(pool.Acquire(&a).ok());
  EXPECT_EQ(a.device, 0);
  std::atomic<bool> b_granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(pool.Acquire(&b).ok());
    b_granted.store(true);
    pool.Release(&b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(b_granted.load()) << "lease must be exclusive";
  pool.Release(&a);
  waiter.join();
  EXPECT_TRUE(b_granted.load());
  EXPECT_EQ(pool.grants(), 2u);
}

TEST(DevicePoolTest, TwoDevicesServeTwoHoldersConcurrently) {
  DevicePool pool(2);
  JobRecord a, b, c;
  a.seq = 0;
  b.seq = 1;
  c.seq = 2;
  ASSERT_TRUE(pool.Acquire(&a).ok());
  ASSERT_TRUE(pool.Acquire(&b).ok());
  // Both devices held, and they are distinct.
  EXPECT_NE(a.device, b.device);
  std::atomic<bool> c_granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(pool.Acquire(&c).ok());
    c_granted.store(true);
    pool.Release(&c);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(c_granted.load()) << "pool of 2 cannot grant a third lease";
  pool.Release(&a);
  waiter.join();
  EXPECT_TRUE(c_granted.load());
  pool.Release(&b);
  EXPECT_EQ(pool.grants(), 3u);
}

TEST(DevicePoolTest, GrantPicksLeastBackloggedFreeDevice) {
  BacklogLedger ledger(/*virtual_time=*/false, 1, 3);
  DevicePool pool(3, &ledger);
  // Load the per-device backlogs unevenly: device 1 is lightest.
  EXPECT_EQ(ChargeDevice(&ledger, 0.5), 0);   // dev0 = 0.5
  EXPECT_EQ(ChargeDevice(&ledger, 0.2), 1);   // dev1 = 0.2
  EXPECT_EQ(ChargeDevice(&ledger, 0.4), 2);   // dev2 = 0.4
  JobRecord a;
  a.seq = 0;
  ASSERT_TRUE(pool.Acquire(&a).ok());
  EXPECT_EQ(a.device, 1);
  // With device 1 held, the next grant takes device 2 (0.4 < 0.5).
  JobRecord b;
  b.seq = 1;
  ASSERT_TRUE(pool.Acquire(&b).ok());
  EXPECT_EQ(b.device, 2);
  pool.Release(&a);
  pool.Release(&b);
}

TEST(DevicePoolTest, OwnChargeIsDiscountedWhenPickingADevice) {
  BacklogLedger ledger(/*virtual_time=*/false, 1, 2);
  DevicePool pool(2, &ledger);
  JobRecord a;
  a.seq = 0;
  // The job's own estimate was charged to device 0; without the discount
  // the charge would repel the job onto device 1.
  a.charged_device = ChargeDevice(&ledger, 0.5);
  a.placed_estimate_seconds = 0.5;
  ASSERT_EQ(a.charged_device, 0);
  ASSERT_TRUE(pool.Acquire(&a).ok());
  EXPECT_EQ(a.device, 0);
  pool.Release(&a);
  ledger.Credit(BacklogLedger::Account::kDevice, a.charged_device, 0.5);
  EXPECT_DOUBLE_EQ(pool.total_backlog_seconds(), 0.0);
}

TEST(DevicePoolTest, CancelledWaiterHandsLeaseToNextPerDevice) {
  DevicePool pool(2);
  JobRecord a, a2, b, c;
  a.seq = 0;
  a2.seq = 1;
  b.seq = 2;
  c.seq = 3;
  ASSERT_TRUE(pool.Acquire(&a).ok());
  ASSERT_TRUE(pool.Acquire(&a2).ok());  // both devices held

  Status b_status, c_status;
  std::thread tb([&] { b_status = pool.Acquire(&b); });
  std::thread tc([&] {
    c_status = pool.Acquire(&c);
    if (c_status.ok()) pool.Release(&c);
  });
  // Wait until both are registered waiters, then cancel B while it waits.
  while (pool.waiters() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  b.cancel.store(true);
  pool.NotifyCancelled();
  tb.join();
  EXPECT_TRUE(b_status.IsCancelled());

  // One device frees; its lease must go to C (B is gone), not stall.
  pool.Release(&a);
  tc.join();
  EXPECT_TRUE(c_status.ok());
  pool.Release(&a2);
  EXPECT_EQ(pool.grants(), 3u);  // A, A2 and C; B never held a device
}

TEST(DevicePoolTest, PerDeviceBacklogAccounting) {
  using Account = BacklogLedger::Account;
  BacklogLedger ledger(/*virtual_time=*/false, 1, 2);
  DevicePool pool(2, &ledger);
  EXPECT_EQ(ChargeDevice(&ledger, 0.25), 0);
  EXPECT_EQ(ChargeDevice(&ledger, 0.5), 1);
  EXPECT_EQ(ChargeDevice(&ledger, 0.25), 0);  // dev0 = 0.5, dev1 = 0.5
  EXPECT_DOUBLE_EQ(ledger.device_backlog_seconds(0), 0.5);
  EXPECT_DOUBLE_EQ(ledger.device_backlog_seconds(1), 0.5);
  EXPECT_DOUBLE_EQ(pool.total_backlog_seconds(), 1.0);
  ledger.Credit(Account::kDevice, 1, 0.5);
  // The pool minimum is the device wait a new job sees.
  EXPECT_DOUBLE_EQ(ledger.QuoteWaits(0.0, false).device_wait, 0.0);
  EXPECT_DOUBLE_EQ(ledger.device_backlog_seconds(0), 0.5);
  ledger.Credit(Account::kDevice, 0, 10.0);  // never negative
  EXPECT_DOUBLE_EQ(ledger.device_backlog_seconds(0), 0.0);
  // CPU placements carry no device charge: no-op.
  ledger.Credit(Account::kDevice, -1, 1.0);
  EXPECT_DOUBLE_EQ(pool.total_backlog_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.device_backlog_seconds(0), 0.0);
  EXPECT_DOUBLE_EQ(ledger.device_backlog_seconds(1), 0.0);
}

// ------------------------------------------------------------ backlog ledger

TEST(BacklogLedgerTest, WallWaitsCountPendingForAdmissionAndDivideByWorkers) {
  using Account = BacklogLedger::Account;
  BacklogLedger ledger(/*virtual_time=*/false, 2, 2);
  ledger.Charge(Account::kCpu, 0.0, 2.0);
  ledger.Charge(Account::kPending, 0.0, 1.0);
  EXPECT_EQ(ChargeDevice(&ledger, 0.5), 0);
  // Admission counts the admitted-but-unplaced work ahead of the job;
  // placement does not. Either way the CPU backlog is shared by the
  // ledger's workers.
  EXPECT_DOUBLE_EQ(ledger.QuoteWaits(0.0, true).cpu_wait, 1.5);
  EXPECT_DOUBLE_EQ(ledger.QuoteWaits(0.0, false).cpu_wait, 1.0);
  BacklogLedger four_workers(/*virtual_time=*/false, 4, 2);
  four_workers.Charge(Account::kCpu, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(four_workers.QuoteWaits(0.0, false).cpu_wait, 0.5);
  // The device wait is the least-backlogged device's backlog.
  EXPECT_DOUBLE_EQ(ledger.QuoteWaits(0.0, false).device_wait, 0.0);
  EXPECT_EQ(ChargeDevice(&ledger, 1.0), 1);
  const BacklogLedger::Quote q = ledger.QuoteWaits(0.0, true);
  EXPECT_DOUBLE_EQ(q.device_wait, 0.5);
  EXPECT_DOUBLE_EQ(q.Wait(/*on_device=*/true), 0.5);
  // Credits clamp at 0.
  ledger.Credit(Account::kCpu, -1, 5.0);
  ledger.Credit(Account::kPending, -1, 5.0);
  EXPECT_DOUBLE_EQ(ledger.cpu_backlog_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.pending_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.QuoteWaits(0.0, true).cpu_wait, 0.0);
  // Wall time keeps no virtual schedule.
  const BacklogLedger::Slot slot = ledger.Charge(Account::kCpu, 3.0, 1.0);
  EXPECT_EQ(slot.device, -1);
  EXPECT_DOUBLE_EQ(slot.queue_seconds, 0.0);
  EXPECT_DOUBLE_EQ(slot.run_seconds, 0.0);
  EXPECT_DOUBLE_EQ(ledger.makespan_seconds(), 0.0);
}

TEST(BacklogLedgerTest, VirtualTimeListSchedulesOnTheEarliestFreeClocks) {
  using Account = BacklogLedger::Account;
  BacklogLedger ledger(/*virtual_time=*/true, 2, 1);
  // A CPU job at t=1 finds idle workers: it starts on arrival and holds
  // worker 0 until t=3.
  BacklogLedger::Slot s = ledger.Charge(Account::kCpu, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(s.queue_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.run_seconds, 2.0);
  // A device job at t=1 takes worker 1 until t=2 and the device until
  // t=1.5.
  s = ledger.Charge(Account::kDevice, 1.0, 1.0, 0.5);
  EXPECT_EQ(s.device, -1);
  EXPECT_DOUBLE_EQ(s.queue_seconds, 0.0);
  // At t=1.25 the earliest worker frees at 2 and the device at 1.5; a
  // device job needs both, so it starts at 2.
  const BacklogLedger::Quote q = ledger.QuoteWaits(1.25, true);
  EXPECT_DOUBLE_EQ(q.cpu_wait, 0.75);
  EXPECT_DOUBLE_EQ(q.device_wait, 0.25);
  EXPECT_DOUBLE_EQ(q.Wait(/*on_device=*/true), 0.75);
  s = ledger.Charge(Account::kDevice, 1.25, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(s.queue_seconds, 0.75);
  // Virtual time never credits and holds no pending work.
  ledger.Credit(Account::kCpu, -1, 10.0);
  ledger.Charge(Account::kPending, 1.25, 10.0);
  EXPECT_DOUBLE_EQ(ledger.pending_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.makespan_seconds(), 3.0);
}

// --------------------------------------------------------------- scheduler

TEST(SchedulerTest, PartitionJobChecksumMatchesDirectRun) {
  Relation<Tuple8> rel = MakeRelation(1 << 15);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 512;
  spec.request.hash = HashMethod::kMurmur;
  spec.request.output_mode = OutputMode::kHist;

  // Reference: run the same request directly on both engines.
  PartitionRequest direct = spec.request;
  direct.engine = Engine::kCpu;
  auto cpu_run = RunPartition<Tuple8>(direct, rel);
  ASSERT_TRUE(cpu_run.ok());
  std::vector<uint64_t> counts(cpu_run->output.num_partitions());
  for (size_t p = 0; p < counts.size(); ++p) {
    counts[p] = cpu_run->output.part(p).num_tuples;
  }
  const uint64_t want = HistogramChecksum(counts.data(), counts.size());

  SchedulerConfig config;
  config.num_workers = 2;
  Scheduler scheduler(config);
  JobOptions cpu_pin, fpga_pin;
  cpu_pin.pinned = Backend::kCpu;
  fpga_pin.pinned = Backend::kFpga;
  auto on_cpu = scheduler.Submit(spec, cpu_pin);
  auto on_fpga = scheduler.Submit(spec, fpga_pin);
  ASSERT_TRUE(on_cpu.ok());
  ASSERT_TRUE(on_fpga.ok());
  const JobOutcome& cpu_out = on_cpu->Wait();
  const JobOutcome& fpga_out = on_fpga->Wait();
  EXPECT_EQ(cpu_out.state, JobState::kCompleted);
  EXPECT_EQ(fpga_out.state, JobState::kCompleted);
  EXPECT_EQ(cpu_out.backend, Backend::kCpu);
  EXPECT_EQ(fpga_out.backend, Backend::kFpga);
  // Same fanout + hash => same histogram on either backend.
  EXPECT_EQ(cpu_out.checksum, want);
  EXPECT_EQ(fpga_out.checksum, want);
  EXPECT_GT(fpga_out.device_seconds, 0.0);
  EXPECT_EQ(cpu_out.device_seconds, 0.0);
}

TEST(SchedulerTest, JoinJobMatchesOnBothBackends) {
  auto r = GenerateUniqueRelation(1 << 13, KeyDistribution::kRandom, 3);
  auto s = GenerateUniqueRelation(1 << 13, KeyDistribution::kRandom, 3);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());

  JoinJobSpec spec;
  spec.r = &*r;
  spec.s = &*s;
  spec.fanout = 256;

  SchedulerConfig config;
  config.num_workers = 2;
  Scheduler scheduler(config);
  JobOptions cpu_pin, hybrid_pin;
  cpu_pin.pinned = Backend::kCpu;
  hybrid_pin.pinned = Backend::kHybrid;
  auto on_cpu = scheduler.Submit(spec, cpu_pin);
  auto on_hybrid = scheduler.Submit(spec, hybrid_pin);
  ASSERT_TRUE(on_cpu.ok());
  ASSERT_TRUE(on_hybrid.ok());
  const JobOutcome& cpu_out = on_cpu->Wait();
  const JobOutcome& hybrid_out = on_hybrid->Wait();
  ASSERT_EQ(cpu_out.state, JobState::kCompleted) << cpu_out.status.ToString();
  ASSERT_EQ(hybrid_out.state, JobState::kCompleted)
      << hybrid_out.status.ToString();
  // Identical unique key sets: every tuple matches, on either backend.
  EXPECT_EQ(cpu_out.matches, r->size());
  EXPECT_EQ(hybrid_out.matches, r->size());
  EXPECT_EQ(cpu_out.checksum, hybrid_out.checksum);
  EXPECT_GT(hybrid_out.device_seconds, 0.0);
}

// ------------------------------------------------------------- failpoints

TEST(SchedulerTest, DeviceRunFailpointFailsTheJobAndReleasesTheLease) {
  Relation<Tuple8> rel = MakeRelation(1 << 14);
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();
  reg.Arm("svc.device.run", 1);

  SchedulerConfig config;
  config.num_workers = 1;
  config.fpga_devices = 1;
  Scheduler scheduler(config);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 512;
  spec.request.output_mode = OutputMode::kHist;
  JobOptions opts;
  opts.pinned = Backend::kFpga;

  auto failed = scheduler.Submit(spec, opts);
  ASSERT_TRUE(failed.ok());
  JobHandle failed_handle = std::move(failed).ValueUnsafe();
  const JobOutcome& bad = failed_handle.Wait();
  EXPECT_EQ(bad.state, JobState::kFailed);
  EXPECT_FALSE(bad.status.ok());
  EXPECT_NE(bad.status.ToString().find("failpoint"), std::string::npos);
  EXPECT_EQ(reg.fired("svc.device.run"), 1u);

  // The budget is spent, and — critically — the lease was released on the
  // forced-failure path: the next device job acquires and completes.
  auto ok = scheduler.Submit(spec, opts);
  ASSERT_TRUE(ok.ok());
  JobHandle ok_handle = std::move(ok).ValueUnsafe();
  const JobOutcome& good = ok_handle.Wait();
  EXPECT_EQ(good.state, JobState::kCompleted) << good.status.ToString();
  EXPECT_EQ(good.backend, Backend::kFpga);
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.device_pool().grants(), 2u);
  EXPECT_EQ(scheduler.device_pool().waiters(), 0u);
  reg.ClearAll();
}

TEST(SchedulerTest, QueueFullFailpointForcesTheShedPath) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();

  SchedulerConfig config;
  config.queue_capacity = 1024;  // plenty of room: only the failpoint sheds
  config.num_workers = 1;
  Scheduler scheduler(config);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 64;

  reg.Arm("svc.queue.full", 2);
  for (int i = 0; i < 2; ++i) {
    auto h = scheduler.Submit(spec);
    ASSERT_FALSE(h.ok());
    EXPECT_TRUE(h.status().IsCapacityError()) << h.status().ToString();
  }
  EXPECT_EQ(scheduler.jobs_shed(), 2u);
  // Budget exhausted: submissions flow again.
  auto h = scheduler.Submit(spec);
  ASSERT_TRUE(h.ok());
  JobHandle flowing = std::move(h).ValueUnsafe();
  EXPECT_EQ(flowing.Wait().state, JobState::kCompleted);
  scheduler.Shutdown();
  reg.ClearAll();
}

TEST(JobQueueTest, PerClassRejectCountersPopulatedInBothModes) {
  // Regression: the svc.q.rejected.<class> counters (and the queue's own
  // per-class shed tallies) must be bumped on every shed path — live WFQ
  // and deterministic strict-seq alike.
  auto& interactive_rejects = *obs::Registry::Global().GetCounter(
      "svc.q.rejected.interactive");
  for (int deterministic = 0; deterministic < 2; ++deterministic) {
    const uint64_t before = interactive_rejects.Value();
    JobQueue queue(/*capacity=*/1, /*strict_seq=*/deterministic == 1);
    uint64_t seq = 0;
    auto push = [&](JobClass cls) {
      auto rec = std::make_shared<JobRecord>();
      rec->cls = cls;
      rec->wfq_cost = 1.0;
      rec->seq = seq++;
      return queue.Push(rec);
    };
    EXPECT_TRUE(push(JobClass::kBatch).ok());
    for (int i = 0; i < 3; ++i) {
      Status st = push(JobClass::kInteractive);
      EXPECT_TRUE(st.IsCapacityError());
    }
    EXPECT_EQ(queue.shed(), 3u) << "deterministic=" << deterministic;
    EXPECT_EQ(queue.shed(JobClass::kInteractive), 3u);
    EXPECT_EQ(queue.shed(JobClass::kBatch), 0u);
    EXPECT_EQ(queue.shed(JobClass::kBestEffort), 0u);
    EXPECT_EQ(interactive_rejects.Value(), before + 3)
        << "deterministic=" << deterministic;
  }
}

TEST(SchedulerTest, FullQueueShedsAndReportsCapacityError) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  auto& shed_counter = *obs::Registry::Global().GetCounter("svc.jobs.shed");
  const uint64_t shed_before = shed_counter.Value();

  SchedulerConfig config;
  config.queue_capacity = 2;
  config.num_workers = 1;
  config.start_paused = true;  // nothing drains until Resume
  Scheduler scheduler(config);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 64;

  std::vector<JobHandle> admitted;
  int shed = 0;
  for (int i = 0; i < 5; ++i) {
    auto h = scheduler.Submit(spec);
    if (h.ok()) {
      admitted.push_back(std::move(h).ValueUnsafe());
    } else {
      EXPECT_TRUE(h.status().IsCapacityError()) << h.status().ToString();
      ++shed;
    }
  }
  EXPECT_EQ(admitted.size(), 2u);
  EXPECT_EQ(shed, 3);
  EXPECT_EQ(scheduler.jobs_shed(), 3u);
  EXPECT_EQ(shed_counter.Value(), shed_before + 3);

  scheduler.Resume();
  for (const JobHandle& h : admitted) {
    EXPECT_EQ(h.Wait().state, JobState::kCompleted);
  }
  scheduler.Shutdown();
}

TEST(SchedulerTest, CancelQueuedJobCompletesAsCancelled) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  SchedulerConfig config;
  config.num_workers = 1;
  config.start_paused = true;
  Scheduler scheduler(config);

  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 64;
  auto h = scheduler.Submit(spec);
  ASSERT_TRUE(h.ok());
  scheduler.Cancel(*h);
  scheduler.Resume();
  const JobOutcome& out = h->Wait();
  EXPECT_EQ(out.state, JobState::kCancelled);
  EXPECT_TRUE(out.status.IsCancelled());
}

TEST(SchedulerTest, PlacementPoliciesPinBackends) {
  Relation<Tuple8> rel = MakeRelation(1 << 13);
  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 256;
  spec.request.output_mode = OutputMode::kHist;

  {
    SchedulerConfig config;
    config.policy = PlacementPolicy::kCpuOnly;
    Scheduler scheduler(config);
    auto h = scheduler.Submit(spec);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->Wait().backend, Backend::kCpu);
  }
  {
    SchedulerConfig config;
    config.policy = PlacementPolicy::kFpgaOnly;
    Scheduler scheduler(config);
    auto h = scheduler.Submit(spec);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->Wait().backend, Backend::kFpga);
  }
}

// The acceptance property of deterministic mode: the same Zipf job stream
// submitted from several racing client threads lands on identical
// backends (and produces identical checksums) on every replay.
TEST(SchedulerTest, DeterministicPlacementUnderConcurrentSubmission) {
  const size_t kClasses = 4;
  const uint64_t kJobs = 200;
  const size_t kClients = 4;
  std::vector<Relation<Tuple8>> tables;
  for (size_t c = 0; c < kClasses; ++c) {
    tables.push_back(MakeRelation(size_t{1} << (11 + c), 50 + c));
  }
  ZipfSampler zipf(kClasses, 0.9, 99);
  std::vector<size_t> job_class(kJobs);
  for (auto& jc : job_class) jc = static_cast<size_t>(zipf.Next() - 1);

  auto replay = [&] {
    SchedulerConfig config;
    config.deterministic = true;
    config.num_workers = 2;
    config.queue_capacity = kJobs;
    Scheduler scheduler(config);
    std::vector<JobHandle> handles(kJobs);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (uint64_t i = c; i < kJobs; i += kClients) {
          PartitionJobSpec spec;
          spec.input = &tables[job_class[i]];
          spec.request.fanout = 256;
          spec.request.output_mode = OutputMode::kHist;
          JobOptions opts;
          opts.arrival_seq = i;
          opts.virtual_arrival_seconds = i * 1e-5;
          auto h = scheduler.Submit(spec, opts);
          ASSERT_TRUE(h.ok());
          handles[i] = std::move(h).ValueUnsafe();
        }
      });
    }
    for (auto& t : clients) t.join();
    scheduler.Shutdown();
    std::vector<std::pair<Backend, uint64_t>> out(kJobs);
    for (uint64_t i = 0; i < kJobs; ++i) {
      auto outcome = handles[i].TryGet();
      EXPECT_TRUE(outcome.has_value());
      EXPECT_EQ(outcome->state, JobState::kCompleted);
      out[i] = {outcome->backend, outcome->checksum};
    }
    return out;
  };

  auto first = replay();
  auto second = replay();
  ASSERT_EQ(first.size(), second.size());
  size_t on_cpu = 0, on_fpga = 0;
  for (uint64_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(first[i].first, second[i].first) << "job " << i;
    EXPECT_EQ(first[i].second, second[i].second) << "job " << i;
    (first[i].first == Backend::kCpu ? on_cpu : on_fpga) += 1;
  }
  // The stream is fast enough that the device backlogs: both backends
  // must actually be exercised for the test to mean anything.
  EXPECT_GT(on_cpu, 0u);
  EXPECT_GT(on_fpga, 0u);
}

TEST(SchedulerTest, DrainsOnShutdownWithManyClients) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  SchedulerConfig config;
  config.num_workers = 3;
  config.queue_capacity = 1024;
  Scheduler scheduler(config);
  std::vector<JobHandle> handles;
  std::mutex mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        PartitionJobSpec spec;
        spec.input = &rel;
        spec.request.fanout = 128;
        spec.request.output_mode = OutputMode::kHist;
        auto h = scheduler.Submit(spec);
        if (h.ok()) {
          std::unique_lock<std::mutex> lock(mu);
          handles.push_back(std::move(h).ValueUnsafe());
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  scheduler.Shutdown();
  EXPECT_EQ(handles.size(), 100u);
  for (const JobHandle& h : handles) {
    auto out = h.TryGet();
    ASSERT_TRUE(out.has_value()) << "job not drained by Shutdown";
    EXPECT_EQ(out->state, JobState::kCompleted);
  }
}

// Every live worker takes jobs: `num_workers` jobs that each wait at a
// shared barrier until all of them have started can only finish if that
// many workers run at once. An idle worker that is never woken for a
// placed job leaves one job at the barrier until the timeout fails it.
TEST(SchedulerTest, LiveModeRunsNumWorkersJobsAtOnce) {
  constexpr int kWorkers = 3;
  SchedulerConfig config;
  config.num_workers = kWorkers;
  Scheduler scheduler(config);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::vector<JobHandle> handles;
  for (int i = 0; i < kWorkers; ++i) {
    RebalanceJobSpec spec;
    spec.work = [&](const std::atomic<bool>*) {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return started == kWorkers; })) {
        return Status::Internal("barrier timed out at " +
                                std::to_string(started) + " of " +
                                std::to_string(kWorkers) + " jobs");
      }
      return Status::OK();
    };
    auto h = scheduler.Submit(spec);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles.push_back(std::move(h).ValueUnsafe());
  }
  for (const JobHandle& h : handles) {
    const JobOutcome& out = h.Wait();
    EXPECT_EQ(out.state, JobState::kCompleted) << out.status.ToString();
  }
}

// Stress the device pool under TSan: racing submitters firing device-pinned
// jobs of every priority class at a 2-device pool while randomly cancelling
// a third of them in flight. Every job must reach a terminal state and the
// pool's backlog accounting must balance back to zero.
TEST(SchedulerTest, StressRacingSubmittersAndCancellationsOnDevicePool) {
  Relation<Tuple8> rel = MakeRelation(1 << 12);
  const size_t kClients = 4;
  const size_t kJobsPerClient = 40;

  SchedulerConfig config;
  config.fpga_devices = 2;
  config.num_workers = 4;
  config.queue_capacity = kClients * kJobsPerClient;
  Scheduler scheduler(config);

  std::vector<JobHandle> handles(kClients * kJobsPerClient);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x57e55ULL * (c + 1));
      for (size_t i = 0; i < kJobsPerClient; ++i) {
        PartitionJobSpec spec;
        spec.input = &rel;
        spec.request.fanout = 64;
        spec.request.output_mode = OutputMode::kHist;
        JobOptions opts;
        // Everything goes through the device pool; classes and deadlines
        // exercise the WFQ queue and the pool's deadline-ordered waiters.
        opts.pinned = Backend::kFpga;
        opts.job_class = static_cast<JobClass>(rng.Below(kNumJobClasses));
        if (rng.NextDouble() < 0.5) {
          opts.deadline_seconds = 0.001 + rng.NextDouble() * 0.05;
        }
        auto h = scheduler.Submit(spec, opts);
        ASSERT_TRUE(h.ok());
        handles[c * kJobsPerClient + i] = std::move(h).ValueUnsafe();
        if (rng.NextDouble() < 0.33) {
          // Race the cancel against admission, placement, the lease wait
          // and execution — all four interleavings happen across seeds.
          scheduler.Cancel(handles[c * kJobsPerClient + i]);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  scheduler.Shutdown();

  size_t completed = 0, cancelled = 0;
  for (const JobHandle& h : handles) {
    auto out = h.TryGet();
    ASSERT_TRUE(out.has_value()) << "job not drained by Shutdown";
    ASSERT_TRUE(out->state == JobState::kCompleted ||
                out->state == JobState::kCancelled)
        << JobStateName(out->state) << ": " << out->status.ToString();
    (out->state == JobState::kCompleted ? completed : cancelled) += 1;
  }
  // With a 33% cancel rate both outcomes must actually occur.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(cancelled, 0u);

  const DevicePool& pool = scheduler.device_pool();
  EXPECT_EQ(pool.waiters(), 0u);
  // Every placement charge was credited back on completion/cancellation.
  EXPECT_NEAR(pool.total_backlog_seconds(), 0.0, 1e-9);
  uint64_t device_grants = 0;
  for (size_t i = 0; i < pool.num_devices(); ++i) {
    device_grants += pool.device_grants(i);
  }
  EXPECT_EQ(device_grants, pool.grants());
  EXPECT_LE(pool.grants(), completed + cancelled);
}

// Determinism regression across pool sizes: for each device count the
// fixed-seed job stream must replay to a bit-identical placement trace
// (backend + checksum per job, folded into one FNV hash), regardless of
// how many client threads race the submissions.
TEST(SchedulerTest, DeterministicTraceHashStableAcrossDeviceCounts) {
  const size_t kTables = 4;
  const uint64_t kJobs = 160;
  std::vector<Relation<Tuple8>> tables;
  for (size_t c = 0; c < kTables; ++c) {
    tables.push_back(MakeRelation(size_t{1} << (11 + c), 90 + c));
  }
  ZipfSampler zipf(kTables, 0.9, 1234);
  std::vector<size_t> table_of(kJobs);
  for (auto& t : table_of) t = static_cast<size_t>(zipf.Next() - 1);
  Rng class_rng(0xdecaf);
  std::vector<JobClass> class_of(kJobs);
  for (auto& cls : class_of) {
    cls = static_cast<JobClass>(class_rng.Below(kNumJobClasses));
  }

  auto trace_hash = [&](size_t devices, size_t clients) {
    SchedulerConfig config;
    config.deterministic = true;
    config.fpga_devices = devices;
    config.num_workers = 2;  // worker virtual clocks are part of the model
    config.queue_capacity = kJobs;
    Scheduler scheduler(config);
    std::vector<JobHandle> handles(kJobs);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (uint64_t i = c; i < kJobs; i += clients) {
          PartitionJobSpec spec;
          spec.input = &tables[table_of[i]];
          spec.request.fanout = 256;
          spec.request.output_mode = OutputMode::kHist;
          JobOptions opts;
          opts.arrival_seq = i;
          opts.virtual_arrival_seconds = i * 1e-5;
          opts.job_class = class_of[i];
          auto h = scheduler.Submit(spec, opts);
          ASSERT_TRUE(h.ok());
          handles[i] = std::move(h).ValueUnsafe();
        }
      });
    }
    for (auto& t : threads) t.join();
    scheduler.Shutdown();
    uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (b * 8)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    for (uint64_t i = 0; i < kJobs; ++i) {
      auto out = handles[i].TryGet();
      EXPECT_TRUE(out.has_value());
      EXPECT_EQ(out->state, JobState::kCompleted);
      fold(static_cast<uint64_t>(out->backend));
      fold(out->checksum);
    }
    return h;
  };

  for (size_t devices : {size_t{1}, size_t{2}, size_t{4}}) {
    const uint64_t solo = trace_hash(devices, 1);
    const uint64_t replay = trace_hash(devices, 1);
    const uint64_t racing = trace_hash(devices, 4);
    EXPECT_EQ(solo, replay) << devices << " devices: replay diverged";
    EXPECT_EQ(solo, racing)
        << devices << " devices: client interleaving changed the trace";
  }
}


// Golden replay: a fixed deterministic stream of partition, join and
// rebalance jobs on 2 devices and 2 workers, with SLO admission tight
// enough to reject part of it. Every job's backend, state and the exact
// bits of its virtual queue/run times and admission prediction are pinned,
// as is the makespan: any change to the scheduler's virtual-time
// arithmetic (even a reassociated sum) fails here.
struct GoldenJob {
  Backend backend;
  JobState state;
  uint64_t virtual_queue_bits;
  uint64_t virtual_run_bits;
  uint64_t admit_predicted_bits;
};

// The values the scheduler produced when this test was written. Change
// them only together with an intended change to the virtual-time model.
constexpr GoldenJob kGoldenReplay[] = {
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3ef46262a0b4151bULL, 0x3ef46262a0b4151bULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3efafad822ec3e2cULL, 0x3efafad822ec3e2cULL},
    {Backend::kCpu, JobState::kCompleted, 0x3ee5c3bd3c2429f5ULL, 0x3efca213d840baf8ULL, 0x3f03c1f93b2967f9ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ef4ae79a850a03eULL, 0x3f06d9e1325f78b7ULL, 0x3f10988f0343e46bULL},
    {Backend::kFpga, JobState::kCompleted, 0x3efdcb5cafa78f6aULL, 0x3efafad822ec3e2cULL, 0x3f0c631a6949e6cbULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3f0b5a35840138fdULL, 0x3f178e670b7ce0d1ULL, 0x3f229dc0e6bebea8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f09cee583d7b469ULL, 0x3f18317a2082817aULL, 0x3f228c7671372dd7ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2753ac0254ec27ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f267bb245b7816cULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f203a1328282766ULL, 0x3eea50a7fcf87d6fULL, 0x3f21df1da7f7af3dULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2c765b9a51130aULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3ee6f40d588323e2ULL, 0x3ee6f40d588323e2ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3ee84ba646a62ca5ULL, 0x3ee84ba646a62ca5ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ed0822e980fc2c0ULL, 0x3ef84ba646a62ca5ULL, 0x3efc6c31ecaa1d55ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3f18317a2082817aULL, 0x3f18317a2082817aULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3ee6f40d588323e2ULL, 0x3ee6f40d588323e2ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ed21bc38fb48800ULL, 0x3ee6f40d588323e2ULL, 0x3ef000f7902eb3f1ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3eca8629bdb1d700ULL, 0x3f0ca213d840baf8ULL, 0x3f0e4a76741bd868ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3ede07fdd04fe419ULL, 0x3ede07fdd04fe419ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3efafad822ec3e2cULL, 0x3efafad822ec3e2cULL},
    {Backend::kFpga, JobState::kCompleted, 0x3e85043bc189b000ULL, 0x3ee6f40d588323e2ULL, 0x3ee7481e47894aa2ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3ecfbc26ed796d00ULL, 0x3eeca213d840baf8ULL, 0x3ef2488ec9cf8b1cULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3ed42f17e5fc2d80ULL, 0x3f178e670b7ce0d1ULL, 0x3f18d15889dca3a9ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3edf5e9e121b7a00ULL, 0x3efca213d840baf8ULL, 0x3f023cddae63ccbcULL},
    {Backend::kFpga, JobState::kCompleted, 0x3efff098d79fc000ULL, 0x3f05d82e7fc53224ULL, 0x3f12e83d75ca8912ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f124adfc683a7b0ULL, 0x3efca213d840baf8ULL, 0x3f197364bc93d66eULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f14f157fcc83748ULL, 0x3f114fde8f97e30bULL, 0x3f23209b46300d2aULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f15eadd0b5dd330ULL, 0x3ef8c35f299ffb4cULL, 0x3f1c1bb4d5c5d203ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f277ed4254d1704ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f28354c561d212eULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3ee84ba646a62ca5ULL, 0x3ee84ba646a62ca5ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1ca213d840baf8ULL},
    {Backend::kHybrid, JobState::kCompleted, 0x0000000000000000ULL, 0x3f156e5f927012f1ULL, 0x3f156e5f927012f1ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2b30cca0b51b08ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3f1ad7f29abcaf48ULL, 0x3f1ad7f29abcaf48ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f11414c64a54170ULL, 0x3ef3b7f91926556bULL, 0x3f162f4aaaeed6cbULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f156407935faba8ULL, 0x3efafad822ec3e2cULL, 0x3f1c22bd9c1abb33ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f1807156d32aa28ULL, 0x3f0ca213d840baf8ULL, 0x3f232c0faca983d2ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1e3e8185c408a6ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3efafad822ec3e2cULL, 0x3efafad822ec3e2cULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3f0ca213d840baf8ULL, 0x3f0ca213d840baf8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ef5f14f24f47940ULL, 0x3f002c9dedbc309eULL, 0x3f0b254580366d3eULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f067b3dc1738800ULL, 0x3eef4186299ca8e5ULL, 0x3f0e4b9f4bdab239ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f162cccbc6e814dULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f039ce7fd14e840ULL, 0x3efca213d840baf8ULL, 0x3f10f6f8f49aa2deULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f138418d29c5b0aULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f13742ad0493eadULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f035be02dc9fe20ULL, 0x3ee84ba646a62ca5ULL, 0x3f096ec9bf738949ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f05c2808942f600ULL, 0x3ef3b7f91926556bULL, 0x3f0f9e7d15d620b6ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3f0e17061abb0615ULL, 0x3f0e17061abb0615ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ed5eb6b8dcb8500ULL, 0x3f06d9e1325f78b7ULL, 0x3f09974ea418e957ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1ac7a4d9c3f6cdULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f112dc821b474fbULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f082f5d28755740ULL, 0x3f0cfd2aa76248e4ULL, 0x3f1a9643e7ebd012ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f09fe4e1e7651a0ULL, 0x3f18317a2082817aULL, 0x3f22985097ded525ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1ef42ab4dc8b00ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1d101c2b8db6ebULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1c1554971b5a48ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f149069f1a3a3b0ULL, 0x3f13c59e740db2b5ULL, 0x3f242b0432d8ab32ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3ee84ba646a62ca5ULL, 0x3ee84ba646a62ca5ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3ef732ddb40bf1e2ULL, 0x3ef732ddb40bf1e2ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3f002c9dedbc309eULL, 0x3f002c9dedbc309eULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ee5957d83721d00ULL, 0x3ef84ba646a62ca5ULL, 0x3f018b32842f9d92ULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1dee7d76a34a72ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3efca213d840baf8ULL, 0x3efca213d840baf8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3ee6f40d588323e2ULL, 0x3ee6f40d588323e2ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3ed3054802c5ba00ULL, 0x3efca213d840baf8ULL, 0x3f00b1b2ec7914bcULL},
    {Backend::kCpu, JobState::kCompleted, 0x3ee45c34b6804600ULL, 0x3f0a7ed3bcf865cfULL, 0x3f0f95e0ea98774fULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ef8bf8ac03c4500ULL, 0x3f08317a2082817aULL, 0x3f12489fc05051fdULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f0ca6a50b10c700ULL, 0x3f162e14bb4df455ULL, 0x3f2240b3a06b2beaULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f14f9c869a1eb5eULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3efca213d840baf8ULL, 0x3efca213d840baf8ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3ee715902e363800ULL, 0x3f156e5f927012f1ULL, 0x3f1851119836d9f1ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3f0ca213d840baf8ULL, 0x3f0ca213d840baf8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3f06d9e1325f78b7ULL, 0x3f06d9e1325f78b7ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f04cb2c10c5ce80ULL, 0x3f05d82e7fc53224ULL, 0x3f1551ad48458052ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f245535e2b2f84cULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f188c0eb65f68bcULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f102f355d860c29ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f031980b41db440ULL, 0x3eeafad822ec3e2cULL, 0x3f09d836bcd8c3cbULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f0919f1bd86b380ULL, 0x3ef3b7f91926556bULL, 0x3f117af7250cef1bULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f0eef345c4d8000ULL, 0x3f156cf111720fb4ULL, 0x3f2272459fcc67daULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f0dea4dee357500ULL, 0x3f002c9dedbc309eULL, 0x3f170b75edf8d2cfULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f15cf2d6c85fd00ULL, 0x3f06d9e1325f78b7ULL, 0x3f209e0f02dadcaeULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f269df6507801beULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f1f3b23e416e220ULL, 0x3f0a9898ced4a011ULL, 0x3f2643b825c09914ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2b4b82eff51f9cULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f1f3919995593c0ULL, 0x3eeca213d840baf8ULL, 0x3f2166ae0a2ed590ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f20bfce93f86390ULL, 0x3f16d9e1325f78b7ULL, 0x3f2c2cbf2d281fecULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2a85bc826f715eULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f23ac1d6d810b00ULL, 0x3f1ca213d840baf8ULL, 0x3f30fe93acd0b43eULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f2a674cc34b8ec0ULL, 0x3ee1e26f652c6e62ULL, 0x3f2b8573b99e55a6ULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3f2b399883d2f6e0ULL, 0x3f178e670b7ce0d1ULL, 0x3f33806604c8b3a4ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f33a8a88c72446cULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3f0b702037ec60c0ULL, 0x3f178e670b7ce0d1ULL, 0x3f22a33b93b98898ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f1895dc2532baa0ULL, 0x3ef6f40d588323e2ULL, 0x3f1e52df7b538398ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2461a8f18ccf6eULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2cf3c81cb9ba1cULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f1c14190fed5360ULL, 0x3f002c9dedbc309eULL, 0x3f2215340365b5d8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3efafad822ec3e2cULL, 0x3efafad822ec3e2cULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f20df765bec11daULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3efca213d840baf8ULL, 0x3efca213d840baf8ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3f0ca213d840baf8ULL, 0x3f0ca213d840baf8ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3ee806e4c8eb2300ULL, 0x3f0ca213d840baf8ULL, 0x3f1151e6853dc1dcULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f04760580b191c0ULL, 0x3f062e14bb4df455ULL, 0x3f15520d1dffc30aULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f0d35d5cfe102c0ULL, 0x3ee6f40d588323e2ULL, 0x3f11796c9300e5dcULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2149caae791f34ULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f283f9e8f2f5a5aULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3ef403e55f373f7fULL, 0x3ef403e55f373f7fULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3f002c9dedbc309eULL, 0x3f002c9dedbc309eULL},
    {Backend::kCpu, JobState::kCompleted, 0x3edffe03846e3800ULL, 0x3ef478ef1054c815ULL, 0x3efc786ff1705615ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f22c9d988df078cULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ef0ca9571916300ULL, 0x3f002c9dedbc309eULL, 0x3f0891e8a684e21eULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f134c0487c67fceULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f20074277d80c2aULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3f18317a2082817aULL, 0x3f18317a2082817aULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f178e670b7ce0d1ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeafad822ec3e2cULL, 0x3eeafad822ec3e2cULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f17e74b0864f1b1ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3eb83daf12537000ULL, 0x3f04b6ac8b1f13a8ULL, 0x3f05789a03b1af28ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f02d4c48c50fe80ULL, 0x3ef3b7f91926556bULL, 0x3f0cb0c118e42936ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1b5437629f2213ULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f25d4ab4776b94aULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f18317a2082817aULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3efe2c7fa99d36a1ULL, 0x3efe2c7fa99d36a1ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3efca213d840baf8ULL, 0x3efca213d840baf8ULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3efbee9ecc4ae000ULL, 0x3f156e5f927012f1ULL, 0x3f1c6a074582caf1ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3ed6a634b28f33e5ULL, 0x3ed6a634b28f33e5ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3f0eec295e7327ebULL, 0x3f0eec295e7327ebULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ea1f719b0288000ULL, 0x3f08317a2082817aULL, 0x3f0879568743237aULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f05ca4c9cfa8d80ULL, 0x3eeca213d840baf8ULL, 0x3f0cf2d1930abc3eULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f0b2c8242a5c200ULL, 0x3f00e953b8863b3aULL, 0x3f160aeafd95fe9dULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f111e4299aaf7f7ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f12db00d663d70fULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f16754476bdf3fdULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f202c41ec01a0a8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3efd16122e651d00ULL, 0x3ef84ba646a62ca5ULL, 0x3f0ab0dc3a85a4d2ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f06ec425c73c680ULL, 0x3ed7a39be22f70c2ULL, 0x3f09e0b5d8b9b498ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f138570c5231bcfULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f02b3878edd9380ULL, 0x3f0eaef554081d8eULL, 0x3f18b13e7172d887ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f007b2ff2f1b280ULL, 0x3efca213d840baf8ULL, 0x3f0ecc39df120ffcULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1dee7d76a34a72ULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3f0ad31da763645cULL, 0x3f0ad31da763645cULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3eeca213d840baf8ULL, 0x3eeca213d840baf8ULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3ee62cfed2f6d600ULL, 0x3f1dee7d76a34a72ULL, 0x3f205a0ea8811299ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f08a65a4a6ffb80ULL, 0x3efca213d840baf8ULL, 0x3f137bb21b482c7eULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1f0e312fe50a7dULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1e891f44d32ebdULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f1077c6919e1040ULL, 0x3eeafad822ec3e2cULL, 0x3f13d72195fb9806ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f15180373aa2ebcULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f158f213f96fadfULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f10efae664ff840ULL, 0x3f05d82e7fc53224ULL, 0x3f1bdbc5a6329152ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f1a9924c1d66500ULL, 0x3f16d9e1325f78b7ULL, 0x3f28b982fa1aeedcULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2c2019fb523cf9ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f28fb07123a1b1dULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f18507e848b4c40ULL, 0x3eeca213d840baf8ULL, 0x3f1be4c0ff93639fULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3f1a2fa57d731bc0ULL, 0x3f156e5f927012f1ULL, 0x3f27cf0287f19758ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2b080f6939dbe9ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f2524d851ccdfa0ULL, 0x3f1ca213d840baf8ULL, 0x3f31baf11ef69e8eULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f3320d3e62a8515ULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f329d893c131485ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2a3b5125394915ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f2727bdca084706ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f252a0e2550273eULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f250b1cc2eb3d10ULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f30c10c9504e09cULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f218c228c9a0220ULL, 0x3f14c8a8bf961c50ULL, 0x3f2bf076ec651048ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f2b0f521402da80ULL, 0x3eed8fbb7cf6d43bULL, 0x3f2ce84dcbd247c4ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f2cc71fe7e3a180ULL, 0x3f05d82e7fc53224ULL, 0x3f311e95c3ea7704ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f2c38c8044331a0ULL, 0x3eeafad822ec3e2cULL, 0x3f2de8758671f583ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f30445671868f4aULL},
    {Backend::kCpu, JobState::kCompleted, 0x3f2cb1691c0aadc0ULL, 0x3efca213d840baf8ULL, 0x3f3022d5cb896290ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f2f343b6e629b80ULL, 0x3f05d82e7fc53224ULL, 0x3f3255238729f404ULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f377ba24345f9e6ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f3081d6de71afeaULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f2d5b734a13ee20ULL, 0x3f18317a2082817aULL, 0x3f34ba182d2a976eULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f394a33b758d2f5ULL},
    {Backend::kFpga, JobState::kCompleted, 0x3f10ac84177aad40ULL, 0x3f08317a2082817aULL, 0x3f1cc54127bbedfdULL},
    {Backend::kCpu, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f22d71de1873f5bULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3f002c9dedbc309eULL, 0x3f002c9dedbc309eULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3f012ad345eb4f4cULL, 0x3f012ad345eb4f4cULL},
    {Backend::kHybrid, JobState::kCompleted, 0x3ef71a1384d25b00ULL, 0x3f178e670b7ce0d1ULL, 0x3f1d54ebecb17791ULL},
    {Backend::kHybrid, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1d86dac11f1b11ULL},
    {Backend::kFpga, JobState::kRejected, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x3f1deb9940f3befaULL},
    {Backend::kCpu, JobState::kCompleted, 0x0000000000000000ULL, 0x3efca213d840baf8ULL, 0x3efca213d840baf8ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3ef3b7f91926556bULL, 0x3ef3b7f91926556bULL},
    {Backend::kCpu, JobState::kCompleted, 0x3ee9100d761d1000ULL, 0x3efca213d840baf8ULL, 0x3f04950d49a7a17cULL},
    {Backend::kFpga, JobState::kCompleted, 0x3ee816da87a31a00ULL, 0x3ef6f40d588323e2ULL, 0x3f017fbd4e2a5871ULL},
    {Backend::kCpu, JobState::kCompleted, 0x3efbbc0e11588500ULL, 0x3f0ca213d840baf8ULL, 0x3f15400d70767ebcULL},
    {Backend::kFpga, JobState::kCompleted, 0x3efde9d813717a00ULL, 0x3efafad822ec3e2cULL, 0x3f0c72581b2edc16ULL},
    {Backend::kFpga, JobState::kCompleted, 0x0000000000000000ULL, 0x3ee84ba646a62ca5ULL, 0x3ee84ba646a62ca5ULL},
};

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(SchedulerTest, GoldenDeterministicReplayIsBitExact) {
  std::vector<Relation<Tuple8>> tables;
  for (size_t c = 0; c < 4; ++c) {
    tables.push_back(MakeRelation(size_t{1} << (10 + c), 300 + c));
  }
  constexpr uint64_t kJobs = 200;
  SchedulerConfig config;
  config.deterministic = true;
  config.fpga_devices = 2;
  config.num_workers = 2;
  config.queue_capacity = kJobs;
  config.sim_cache = true;
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {60e-6, 150e-6, 0.0};
  Scheduler scheduler(config);

  Rng rng(0x601d);
  double t = 0.0;
  std::vector<JobHandle> handles;
  for (uint64_t i = 0; i < kJobs; ++i) {
    JobOptions opts;
    opts.arrival_seq = i;
    // Bursts of near-simultaneous arrivals between idle gaps.
    t += rng.Below(8) == 0 ? 200e-6 : rng.NextDouble() * 8e-6;
    opts.virtual_arrival_seconds = t;
    opts.job_class = static_cast<JobClass>(rng.Below(kNumJobClasses));
    if (rng.Below(6) == 0) {
      opts.deadline_seconds = 20e-6 + rng.NextDouble() * 80e-6;
    }
    if (rng.Below(10) == 0) opts.pinned = Backend::kCpu;
    const uint64_t kind = rng.Below(10);
    Result<JobHandle> h = Status::Internal("unset");
    if (kind < 6) {
      PartitionJobSpec spec;
      spec.input = &tables[rng.Below(tables.size())];
      spec.request.fanout = rng.Below(2) == 0 ? 256 : 1024;
      spec.request.output_mode =
          rng.Below(2) == 0 ? OutputMode::kHist : OutputMode::kPad;
      spec.request.sim_cache = true;
      h = scheduler.Submit(spec, opts);
    } else if (kind < 8) {
      JoinJobSpec spec;
      spec.r = &tables[rng.Below(2)];
      spec.s = &tables[2 + rng.Below(2)];
      spec.fanout = 256;
      h = scheduler.Submit(spec, opts);
    } else {
      RebalanceJobSpec spec;
      spec.work = [](const std::atomic<bool>*) { return Status::OK(); };
      spec.cost_tuples = 1000 + rng.Below(20000);
      h = scheduler.Submit(spec, opts);
    }
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles.push_back(std::move(h).ValueUnsafe());
  }
  scheduler.Shutdown();

  ASSERT_EQ(std::size(kGoldenReplay), kJobs);
  size_t rejected = 0;
  for (uint64_t i = 0; i < kJobs; ++i) {
    const JobOutcome& out = handles[i].Wait();
    const GoldenJob& want = kGoldenReplay[i];
    EXPECT_EQ(out.backend, want.backend) << "job " << i;
    EXPECT_EQ(out.state, want.state) << "job " << i;
    EXPECT_EQ(BitsOf(out.virtual_queue_seconds), want.virtual_queue_bits)
        << "job " << i;
    EXPECT_EQ(BitsOf(out.virtual_run_seconds), want.virtual_run_bits)
        << "job " << i;
    EXPECT_EQ(BitsOf(out.admit_predicted_seconds), want.admit_predicted_bits)
        << "job " << i;
    rejected += out.state == JobState::kRejected ? 1 : 0;
  }
  EXPECT_EQ(rejected, 65u);
  EXPECT_EQ(BitsOf(scheduler.virtual_makespan_seconds()),
            0x3f78481ee1b19534ULL);
}

}  // namespace
}  // namespace fpart::svc
