// Tests of SLO-aware admission control (svc/admission.h): the EWMA
// cost-model correction (including the learn-against-the-raw-model
// invariant), budget/verdict typing (SloError vs CapacityError), the
// pending-work ledger, the backlog-pressure autoscaling signal, and the
// scheduler integration — deterministic-mode exactness (no admitted job
// ever misses the budget its prediction fit), live-mode synchronous
// rejection, parked-worker autoscaling, and replay-hash invariance.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "datagen/workloads.h"
#include "obs/metrics.h"
#include "svc/admission.h"
#include "svc/scheduler.h"

namespace fpart::svc {
namespace {

Relation<Tuple8> MakeRelation(size_t n, uint64_t seed = 7) {
  auto rel = GenerateRawRelation(n, KeyDistribution::kRandom, seed);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).ValueUnsafe();
}

SloConfig EnabledConfig() {
  SloConfig cfg;
  cfg.enabled = true;
  return cfg;
}

// --------------------------------------------------------- size classes

TEST(SizeClassTest, BucketsMatchThePlaceErrHistogramAxes) {
  EXPECT_EQ(SizeClassOf(0.0), 0u);
  EXPECT_EQ(SizeClassOf(64.0 * 1024 - 1), 0u);
  EXPECT_EQ(SizeClassOf(64.0 * 1024), 1u);
  EXPECT_EQ(SizeClassOf(1024.0 * 1024 - 1), 1u);
  EXPECT_EQ(SizeClassOf(1024.0 * 1024), 2u);
  EXPECT_EQ(SizeClassOf(1e12), 2u);
}

TEST(SizeClassTest, NamesCoverEveryClass) {
  EXPECT_STREQ(SizeClassName(0), "small");
  EXPECT_STREQ(SizeClassName(1), "medium");
  EXPECT_STREQ(SizeClassName(2), "large");
  EXPECT_STREQ(SizeClassName(99), "unknown");
}

// ------------------------------------------------------- EWMA correction

TEST(AdmissionControllerTest, CorrectionStartsAtUnityEverywhere) {
  AdmissionController adm(EnabledConfig());
  for (size_t b = 0; b < kNumBackends; ++b) {
    for (size_t s = 0; s < kNumSizeClasses; ++s) {
      EXPECT_DOUBLE_EQ(adm.correction(static_cast<Backend>(b), s), 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kCpu, SizeClassOf(100.0)), 1.0);
}

TEST(AdmissionControllerTest, EwmaConvergesToTheObservedRatio) {
  SloConfig cfg = EnabledConfig();
  cfg.ewma_alpha = 0.3;
  AdmissionController adm(cfg);
  // A model that is consistently 2x too optimistic.
  for (int i = 0; i < 100; ++i) {
    adm.ObserveRun(Backend::kCpu, /*demand_tuples=*/1000.0,
                   /*model_est_seconds=*/1.0,
                   /*placed_est_seconds=*/adm.correction(Backend::kCpu, 0),
                   /*actual_seconds=*/2.0, /*learn=*/true);
  }
  EXPECT_NEAR(adm.correction(Backend::kCpu, 0), 2.0, 1e-3);
}

TEST(AdmissionControllerTest, EwmaLearnsAgainstTheRawModelNotItsOwnOutput) {
  // The trap this API shape exists to avoid: learning from the ratio
  // actual / corrected_estimate has fixed point sqrt(k), not k. Feed the
  // scheduler's actual loop — placed = model x correction — and require
  // convergence to the full factor.
  SloConfig cfg = EnabledConfig();
  cfg.ewma_alpha = 0.3;
  AdmissionController adm(cfg);
  const double k = 2.0;
  for (int i = 0; i < 200; ++i) {
    const double model = 1.0;
    const double placed = model * adm.correction(Backend::kFpga, 2);
    adm.ObserveRun(Backend::kFpga, /*demand_tuples=*/2e6, model, placed,
                   /*actual_seconds=*/k * model, /*learn=*/true);
  }
  EXPECT_GT(adm.correction(Backend::kFpga, 2), 1.9);  // not sqrt(2)=1.41
  EXPECT_NEAR(adm.correction(Backend::kFpga, 2), k, 1e-3);
}

TEST(AdmissionControllerTest, CorrectionIsClampedToConfiguredBand) {
  SloConfig cfg = EnabledConfig();
  cfg.ewma_alpha = 1.0;  // jump straight to the sample
  AdmissionController adm(cfg);
  adm.ObserveRun(Backend::kCpu, 1.0, 1.0, 1.0, 100.0, true);
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kCpu, 0), cfg.correction_cap);
  adm.ObserveRun(Backend::kCpu, 1.0, 1.0, 1.0, 1e-6, true);
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kCpu, 0), cfg.correction_floor);
}

TEST(AdmissionControllerTest, DisabledControllerNeverLearns) {
  SloConfig off;  // enabled = false
  AdmissionController adm(off);
  adm.ObserveRun(Backend::kCpu, 1.0, 1.0, 1.0, 3.0, true);
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kCpu, 0), 1.0);
}

TEST(AdmissionControllerTest, LearnFlagFalseSuppressesTheUpdate) {
  // The deterministic-mode path: corrections must stay at 1.0 so replays
  // are bit-identical to an admission-off run.
  AdmissionController adm(EnabledConfig());
  adm.ObserveRun(Backend::kCpu, 1.0, 1.0, 1.0, 3.0, /*learn=*/false);
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kCpu, 0), 1.0);
}

TEST(AdmissionControllerTest, CellsAreIndependentPerBackendAndSize) {
  SloConfig cfg = EnabledConfig();
  cfg.ewma_alpha = 1.0;
  AdmissionController adm(cfg);
  adm.ObserveRun(Backend::kFpga, /*demand=*/2e6, 1.0, 1.0, 2.0, true);
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kFpga, 2), 2.0);
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kFpga, 0), 1.0);
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kCpu, 2), 1.0);
  EXPECT_DOUBLE_EQ(adm.correction(Backend::kHybrid, 2), 1.0);
}

// --------------------------------------------------------- budget & verdict

TEST(AdmissionControllerTest, BudgetIsTheTighterOfDeadlineAndClassSlo) {
  SloConfig cfg = EnabledConfig();
  cfg.class_slo_seconds = {0.5, 2.0, 0.0};
  AdmissionController adm(cfg);
  EXPECT_DOUBLE_EQ(adm.BudgetSeconds(JobClass::kInteractive, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(adm.BudgetSeconds(JobClass::kInteractive, 0.2), 0.2);
  EXPECT_DOUBLE_EQ(adm.BudgetSeconds(JobClass::kInteractive, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(adm.BudgetSeconds(JobClass::kBestEffort, 1.0), 1.0);
  EXPECT_TRUE(std::isinf(adm.BudgetSeconds(JobClass::kBestEffort, 0.0)));
}

TEST(AdmissionControllerTest, JudgeAdmitsWithinBudgetAndCounts) {
  SloConfig cfg = EnabledConfig();
  cfg.class_slo_seconds = {0.5, 2.0, 8.0};
  AdmissionController adm(cfg);
  const auto v = adm.Judge(JobClass::kBatch, 0.0, 1.5);
  EXPECT_TRUE(v.admit);
  EXPECT_TRUE(v.status.ok());
  EXPECT_DOUBLE_EQ(v.budget_seconds, 2.0);
  EXPECT_EQ(adm.considered(), 1u);
  EXPECT_EQ(adm.admitted(), 1u);
  EXPECT_EQ(adm.rejected_slo(), 0u);
}

TEST(AdmissionControllerTest, SloRejectionIsTypedAndPerClassCounted) {
  SloConfig cfg = EnabledConfig();
  cfg.class_slo_seconds = {0.5, 2.0, 8.0};
  AdmissionController adm(cfg);
  const auto v = adm.Judge(JobClass::kInteractive, 0.0, 1.0);
  EXPECT_FALSE(v.admit);
  EXPECT_TRUE(v.status.IsSloError());
  EXPECT_FALSE(v.status.IsCapacityError());
  EXPECT_FALSE(v.deadline_bound);
  EXPECT_EQ(adm.rejected_slo(), 1u);
  EXPECT_EQ(adm.rejected_deadline(), 0u);
  EXPECT_EQ(adm.rejected(JobClass::kInteractive), 1u);
  EXPECT_EQ(adm.rejected(JobClass::kBatch), 0u);
}

TEST(AdmissionControllerTest, DeadlineRejectionIsDistinguishedFromSlo) {
  SloConfig cfg = EnabledConfig();
  cfg.class_slo_seconds = {0.5, 2.0, 8.0};
  AdmissionController adm(cfg);
  // Deadline 0.1 s is tighter than the 2 s batch SLO: the deadline binds.
  const auto v = adm.Judge(JobClass::kBatch, 0.1, 1.0);
  EXPECT_FALSE(v.admit);
  EXPECT_TRUE(v.deadline_bound);
  EXPECT_EQ(adm.rejected_deadline(), 1u);
  EXPECT_EQ(adm.rejected_slo(), 0u);
  EXPECT_NE(v.status.ToString().find("deadline"), std::string::npos);
}

TEST(AdmissionControllerTest, UnconstrainedJobsAlwaysAdmit) {
  AdmissionController adm(EnabledConfig());  // no SLOs, no deadline
  const auto v = adm.Judge(JobClass::kBestEffort, 0.0, 1e9);
  EXPECT_TRUE(v.admit);
}

// ----------------------------------------------------------- pending ledger

TEST(AdmissionControllerTest, PendingLedgerAddsSubsAndFloorsAtZero) {
  using Account = BacklogLedger::Account;
  BacklogLedger ledger(/*virtual_time=*/false, 2, 1);
  ledger.Charge(Account::kPending, 0.0, 1.5);
  ledger.Charge(Account::kPending, 0.0, 0.5);
  EXPECT_DOUBLE_EQ(ledger.pending_seconds(), 2.0);
  ledger.Credit(Account::kPending, -1, 1.5);
  EXPECT_DOUBLE_EQ(ledger.pending_seconds(), 0.5);
  // Over-credit must clamp, not go negative.
  ledger.Credit(Account::kPending, -1, 10.0);
  EXPECT_DOUBLE_EQ(ledger.pending_seconds(), 0.0);
  // Non-positive charges are ignored.
  ledger.Charge(Account::kPending, 0.0, -1.0);
  EXPECT_DOUBLE_EQ(ledger.pending_seconds(), 0.0);
}

// ----------------------------------------------- placement-error histograms

TEST(AdmissionControllerTest, PlaceErrHistogramCellsMatchHandComputedErrors) {
  // ObserveRun must record |actual - placed| / actual * 100 into exactly
  // the (backend, size-class) cell of the job — values checked by hand
  // against the svc.place.err_pct contract.
  auto& reg = obs::Registry::Global();
  obs::Histogram* fpga_large = reg.GetHistogram(
      "svc.place.err_pct.fpga.large", "pct",
      "placement estimate error |run-est|/run*100");
  obs::Histogram* cpu_small = reg.GetHistogram(
      "svc.place.err_pct.cpu.small", "pct",
      "placement estimate error |run-est|/run*100");
  const obs::Histogram::Data fpga_before = fpga_large->Merged();
  const obs::Histogram::Data cpu_before = cpu_small->Merged();

  AdmissionController adm(EnabledConfig());
  // |1.0 - 0.75| / 1.0 = 25%; |1.0 - 0.5| / 1.0 = 50%; |1.0 - 1.5| = 50%
  // (all exactly representable, so the uint cast cannot truncate).
  adm.ObserveRun(Backend::kFpga, 2e6, 1.0, 0.75, 1.0, false);
  adm.ObserveRun(Backend::kFpga, 2e6, 1.0, 0.5, 1.0, false);
  adm.ObserveRun(Backend::kFpga, 2e6, 1.0, 1.5, 1.0, false);
  // |2.0 - 1.0| / 2.0 = 50% into the CPU/small cell.
  adm.ObserveRun(Backend::kCpu, 1000.0, 1.0, 1.0, 2.0, false);
  // Degenerate inputs must not record: no placed estimate / no actual.
  adm.ObserveRun(Backend::kFpga, 2e6, 1.0, 0.0, 1.0, false);
  adm.ObserveRun(Backend::kFpga, 2e6, 1.0, 1.0, 0.0, false);

  const obs::Histogram::Data fpga_after = fpga_large->Merged();
  EXPECT_EQ(fpga_after.count - fpga_before.count, 3u);
  EXPECT_EQ(fpga_after.sum - fpga_before.sum, 25u + 50u + 50u);
  // Bucket placement: 25 -> bit_width 5, 50 -> bit_width 6.
  EXPECT_EQ(fpga_after.buckets[obs::Histogram::BucketOf(25)] -
                fpga_before.buckets[obs::Histogram::BucketOf(25)],
            1u);
  EXPECT_EQ(fpga_after.buckets[obs::Histogram::BucketOf(50)] -
                fpga_before.buckets[obs::Histogram::BucketOf(50)],
            2u);
  const obs::Histogram::Data cpu_after = cpu_small->Merged();
  EXPECT_EQ(cpu_after.count - cpu_before.count, 1u);
  EXPECT_EQ(cpu_after.sum - cpu_before.sum, 50u);
}

// ------------------------------------------------------- admission wait

TEST(AdmissionControllerTest, PendingWorkCountsTowardAdmissionCpuWait) {
  BacklogLedger ledger(/*virtual_time=*/false, 2, 1);
  ledger.Charge(BacklogLedger::Account::kPending, 0.0, 4.0);
  // (0 placed + 4 pending) / 2 workers.
  EXPECT_DOUBLE_EQ(ledger.QuoteWaits(0.0, /*with_pending=*/true).cpu_wait,
                   2.0);
}

// ------------------------------------------- scheduler: deterministic mode

SchedulerConfig DetConfig(uint64_t jobs) {
  SchedulerConfig config;
  config.deterministic = true;
  config.queue_capacity = jobs;
  config.num_workers = 2;
  config.fpga_devices = 1;
  config.sim_cache = true;
  return config;
}

// Submit `jobs` identical partition jobs with contiguous arrival_seq and
// the given virtual inter-arrival gap; returns the handles.
std::vector<JobHandle> SubmitDetStream(Scheduler* scheduler,
                                       const Relation<Tuple8>& rel,
                                       uint64_t jobs, double gap_seconds,
                                       JobClass cls = JobClass::kInteractive,
                                       double deadline = 0.0) {
  std::vector<JobHandle> handles;
  handles.reserve(jobs);
  for (uint64_t i = 0; i < jobs; ++i) {
    PartitionJobSpec spec;
    spec.input = &rel;
    spec.request.fanout = 512;
    spec.request.output_mode = OutputMode::kHist;
    spec.request.sim_cache = true;
    JobOptions opts;
    opts.arrival_seq = i;
    opts.virtual_arrival_seconds = gap_seconds * static_cast<double>(i);
    opts.job_class = cls;
    opts.deadline_seconds = deadline;
    auto handle = scheduler->Submit(spec, opts);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(std::move(handle).ValueUnsafe());
  }
  return handles;
}

TEST(SchedulerAdmissionTest, DetInfeasibleDeadlineRejectsWithSloError) {
  auto rel = MakeRelation(1 << 15);
  SchedulerConfig config = DetConfig(4);
  config.slo.enabled = true;
  Scheduler scheduler(config);
  auto handles = SubmitDetStream(&scheduler, rel, 4, /*gap=*/1.0,
                                 JobClass::kBatch, /*deadline=*/1e-9);
  scheduler.Shutdown();
  for (auto& h : handles) {
    const JobOutcome& out = h.Wait();
    EXPECT_EQ(out.state, JobState::kRejected);
    EXPECT_TRUE(out.status.IsSloError()) << out.status.ToString();
    EXPECT_GT(out.admit_predicted_seconds, out.admit_budget_seconds);
  }
  EXPECT_EQ(scheduler.admission().rejected_deadline(), 4u);
}

TEST(SchedulerAdmissionTest, DetNoAdmittedJobEverMissesItsBudget) {
  // Overload: all jobs arrive at t=0 with a class SLO only a prefix can
  // meet. The controller must reject the infeasible tail — and every
  // admitted job's virtual latency must fit the budget exactly, because
  // the deterministic prediction IS the virtual latency.
  auto rel = MakeRelation(1 << 18);
  const uint64_t kJobs = 48;
  SchedulerConfig config = DetConfig(kJobs);
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {0.002, 0.0, 0.0};
  Scheduler scheduler(config);
  auto handles = SubmitDetStream(&scheduler, rel, kJobs, /*gap=*/0.0);
  scheduler.Shutdown();
  uint64_t admitted = 0, rejected = 0;
  for (auto& h : handles) {
    const JobOutcome& out = h.Wait();
    if (out.state == JobState::kRejected) {
      ++rejected;
      continue;
    }
    ASSERT_EQ(out.state, JobState::kCompleted) << out.status.ToString();
    ++admitted;
    ASSERT_GT(out.admit_budget_seconds, 0.0);
    const double virtual_latency =
        out.virtual_queue_seconds + out.virtual_run_seconds;
    EXPECT_LE(virtual_latency, out.admit_budget_seconds + 1e-12);
    EXPECT_NEAR(out.admit_predicted_seconds, virtual_latency, 1e-12);
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);  // the stream really was infeasible
  EXPECT_EQ(scheduler.admission().rejected(JobClass::kInteractive),
            rejected);
}

TEST(SchedulerAdmissionTest, DetZeroRejectsAtLowLoad) {
  auto rel = MakeRelation(1 << 14);
  const uint64_t kJobs = 32;
  SchedulerConfig config = DetConfig(kJobs);
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {0.5, 2.0, 8.0};
  Scheduler scheduler(config);
  // 10 ms apart: each job finds idle virtual clocks.
  auto handles = SubmitDetStream(&scheduler, rel, kJobs, /*gap=*/0.01);
  scheduler.Shutdown();
  for (auto& h : handles) {
    EXPECT_EQ(h.Wait().state, JobState::kCompleted);
  }
  EXPECT_EQ(scheduler.admission().rejected_slo(), 0u);
  EXPECT_EQ(scheduler.admission().rejected_deadline(), 0u);
  EXPECT_EQ(scheduler.admission().admitted(), kJobs);
}

TEST(SchedulerAdmissionTest, DetModeRunPopulatesPlaceErrHistograms) {
  // Deterministic replays still complete real runs, so the error
  // histograms must keep filling with admission enabled (they moved from
  // the scheduler into the controller; this pins the wiring).
  auto& reg = obs::Registry::Global();
  obs::Histogram* cells[3] = {
      reg.GetHistogram("svc.place.err_pct.cpu.medium", "pct", ""),
      reg.GetHistogram("svc.place.err_pct.fpga.medium", "pct", ""),
      reg.GetHistogram("svc.place.err_pct.hybrid.medium", "pct", ""),
  };
  uint64_t before = 0;
  for (auto* h : cells) before += h->Merged().count;

  auto rel = MakeRelation(1 << 17);  // medium size class
  SchedulerConfig config = DetConfig(8);
  config.slo.enabled = true;
  Scheduler scheduler(config);
  auto handles = SubmitDetStream(&scheduler, rel, 8, /*gap=*/0.01);
  scheduler.Shutdown();
  for (auto& h : handles) {
    EXPECT_EQ(h.Wait().state, JobState::kCompleted);
  }
  uint64_t after = 0;
  for (auto* h : cells) after += h->Merged().count;
  EXPECT_EQ(after - before, 8u);
}

uint64_t FoldOutcomes(const std::vector<JobHandle>& handles) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (size_t i = 0; i < handles.size(); ++i) {
    auto out = handles[i].TryGet();
    EXPECT_TRUE(out.has_value());
    if (!out.has_value() || out->state != JobState::kCompleted) continue;
    fold(i);
    fold(static_cast<uint64_t>(out->backend));
    fold(out->checksum);
  }
  return h;
}

TEST(SchedulerAdmissionTest, ReplayHashIsAdmissionInvariantWhenNothingRejected) {
  auto rel = MakeRelation(1 << 14);
  const uint64_t kJobs = 32;
  uint64_t hashes[2];
  for (int pass = 0; pass < 2; ++pass) {
    SchedulerConfig config = DetConfig(kJobs);
    config.slo.enabled = pass == 1;
    config.slo.class_slo_seconds = {30.0, 30.0, 30.0};  // loose: no rejects
    Scheduler scheduler(config);
    auto handles = SubmitDetStream(&scheduler, rel, kJobs, /*gap=*/0.001);
    scheduler.Shutdown();
    EXPECT_EQ(scheduler.admission().rejected_slo(), 0u);
    hashes[pass] = FoldOutcomes(handles);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(SchedulerAdmissionTest, ReplayHashStableAcrossClientCountsWithAdmission) {
  // Overloaded stream with admission on: the rejection set is part of the
  // replay and must be identical however many client threads submit.
  auto rel = MakeRelation(1 << 18);
  const uint64_t kJobs = 32;
  uint64_t hashes[2];
  uint64_t rejects[2];
  const size_t client_counts[2] = {1, 4};
  for (int pass = 0; pass < 2; ++pass) {
    SchedulerConfig config = DetConfig(kJobs);
    config.slo.enabled = true;
    config.slo.class_slo_seconds = {0.002, 0.0, 0.0};
    Scheduler scheduler(config);
    std::vector<JobHandle> handles(kJobs);
    std::vector<std::thread> clients;
    const size_t nclients = client_counts[pass];
    for (size_t c = 0; c < nclients; ++c) {
      clients.emplace_back([&, c] {
        for (uint64_t i = c; i < kJobs; i += nclients) {
          PartitionJobSpec spec;
          spec.input = &rel;
          spec.request.fanout = 512;
          spec.request.output_mode = OutputMode::kHist;
          spec.request.sim_cache = true;
          JobOptions opts;
          opts.arrival_seq = i;
          opts.virtual_arrival_seconds = 0.0;
          opts.job_class = JobClass::kInteractive;
          auto handle = scheduler.Submit(spec, opts);
          ASSERT_TRUE(handle.ok());
          handles[i] = std::move(handle).ValueUnsafe();
        }
      });
    }
    for (auto& t : clients) t.join();
    scheduler.Shutdown();
    hashes[pass] = FoldOutcomes(handles);
    rejects[pass] = scheduler.admission().rejected_slo();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(rejects[0], rejects[1]);
  EXPECT_GT(rejects[0], 0u);
}

TEST(SchedulerAdmissionTest, RejectedJobsDoNotAdvanceTheVirtualClocks) {
  auto rel = MakeRelation(1 << 15);
  double makespans[2];
  for (int pass = 0; pass < 2; ++pass) {
    SchedulerConfig config = DetConfig(8);
    config.slo.enabled = true;
    Scheduler scheduler(config);
    // Two feasible jobs; pass 1 interleaves two infeasible-deadline jobs
    // that must be rejected without touching any clock.
    uint64_t seq = 0;
    std::vector<JobHandle> handles;
    auto submit = [&](double deadline) {
      PartitionJobSpec spec;
      spec.input = &rel;
      spec.request.fanout = 512;
      spec.request.output_mode = OutputMode::kHist;
      spec.request.sim_cache = true;
      JobOptions opts;
      opts.arrival_seq = seq++;
      opts.virtual_arrival_seconds = 0.0;
      opts.deadline_seconds = deadline;
      auto handle = scheduler.Submit(spec, opts);
      ASSERT_TRUE(handle.ok());
      handles.push_back(std::move(handle).ValueUnsafe());
    };
    submit(0.0);
    if (pass == 1) submit(1e-9);
    submit(0.0);
    if (pass == 1) submit(1e-9);
    scheduler.Shutdown();
    makespans[pass] = scheduler.virtual_makespan_seconds();
  }
  EXPECT_DOUBLE_EQ(makespans[0], makespans[1]);
}

// ------------------------------------------------ scheduler: live mode

TEST(SchedulerAdmissionTest, LiveRejectionIsSynchronousAndTyped) {
  auto rel = MakeRelation(1 << 15);
  SchedulerConfig config;
  config.deterministic = false;
  config.num_workers = 2;
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {1e-12, 0.0, 0.0};  // nothing can fit
  Scheduler scheduler(config);
  PartitionJobSpec spec;
  spec.input = &rel;
  spec.request.fanout = 512;
  spec.request.output_mode = OutputMode::kHist;
  JobOptions opts;
  opts.job_class = JobClass::kInteractive;
  auto handle = scheduler.Submit(spec, opts);
  ASSERT_FALSE(handle.ok());
  EXPECT_TRUE(handle.status().IsSloError());
  EXPECT_FALSE(handle.status().IsCapacityError());
  // The job never occupied the queue: not submitted, not shed.
  EXPECT_EQ(scheduler.jobs_submitted(), 0u);
  EXPECT_EQ(scheduler.jobs_shed(), 0u);
  EXPECT_EQ(scheduler.admission().rejected(JobClass::kInteractive), 1u);
  // A batch job (no SLO) sails through.
  opts.job_class = JobClass::kBatch;
  auto ok_handle = scheduler.Submit(spec, opts);
  ASSERT_TRUE(ok_handle.ok()) << ok_handle.status().ToString();
  JobHandle admitted = std::move(ok_handle).ValueUnsafe();
  scheduler.Shutdown();
  EXPECT_EQ(admitted.Wait().state, JobState::kCompleted);
}

TEST(SchedulerAdmissionTest, LivePendingLedgerDrainsToZero) {
  auto rel = MakeRelation(1 << 13);
  SchedulerConfig config;
  config.deterministic = false;
  config.num_workers = 2;
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {0.0, 30.0, 0.0};
  Scheduler scheduler(config);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 16; ++i) {
    PartitionJobSpec spec;
    spec.input = &rel;
    spec.request.fanout = 512;
    spec.request.output_mode = OutputMode::kHist;
    auto handle = scheduler.Submit(spec, {});
    ASSERT_TRUE(handle.ok());
    handles.push_back(std::move(handle).ValueUnsafe());
  }
  for (auto& h : handles) h.Wait();
  scheduler.Shutdown();
  // Every admitted charge was credited when its job left the queue (up to
  // floating-point residue of the add/sub sequence).
  EXPECT_NEAR(scheduler.ledger().pending_seconds(), 0.0, 1e-9);
}

TEST(SchedulerAdmissionTest, PendingChargeReleasedWhenQueueShedsTheJob) {
  auto rel = MakeRelation(1 << 13);
  SchedulerConfig config;
  config.deterministic = false;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.start_paused = true;  // jobs pile up at the queue
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {0.0, 30.0, 0.0};
  Scheduler scheduler(config);
  uint64_t shed = 0;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    PartitionJobSpec spec;
    spec.input = &rel;
    spec.request.fanout = 512;
    spec.request.output_mode = OutputMode::kHist;
    auto handle = scheduler.Submit(spec, {});
    if (handle.ok()) {
      handles.push_back(std::move(handle).ValueUnsafe());
    } else {
      ASSERT_TRUE(handle.status().IsCapacityError());
      ++shed;
    }
  }
  ASSERT_GT(shed, 0u);
  scheduler.Resume();
  for (auto& h : handles) h.Wait();
  scheduler.Shutdown();
  EXPECT_NEAR(scheduler.ledger().pending_seconds(), 0.0, 1e-9);
}

// --------------------------------------------------------- race stress

TEST(SchedulerAdmissionStressTest, RacedSubmitAndComplete) {
  // TSan target: clients admit (and get rejected) concurrently while the
  // workers complete jobs. Nothing may be lost, double-completed, or
  // torn.
  auto rel = MakeRelation(1 << 12);
  SchedulerConfig config;
  config.deterministic = false;
  config.num_workers = 2;
  config.queue_capacity = 64;
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {0.0, 30.0, 0.002};
  Scheduler scheduler(config);
  constexpr size_t kClients = 4;
  constexpr uint64_t kPerClient = 32;
  std::atomic<uint64_t> completed{0}, rejected{0}, shed{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<JobHandle> handles;
      for (uint64_t i = 0; i < kPerClient; ++i) {
        PartitionJobSpec spec;
        spec.input = &rel;
        spec.request.fanout = 256;
        spec.request.output_mode = OutputMode::kHist;
        JobOptions opts;
        opts.job_class =
            i % 3 == 0 ? JobClass::kBestEffort : JobClass::kBatch;
        auto handle = scheduler.Submit(spec, opts);
        if (!handle.ok()) {
          if (handle.status().IsSloError()) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          } else {
            ASSERT_TRUE(handle.status().IsCapacityError());
            shed.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        handles.push_back(std::move(handle).ValueUnsafe());
      }
      for (auto& h : handles) {
        const JobOutcome& out = h.Wait();
        if (out.state == JobState::kCompleted) {
          completed.fetch_add(1, std::memory_order_relaxed);
        } else if (out.state == JobState::kRejected) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else if (out.state == JobState::kShed) {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  scheduler.Shutdown();
  EXPECT_EQ(completed.load() + rejected.load() + shed.load(),
            kClients * kPerClient);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_NEAR(scheduler.ledger().pending_seconds(), 0.0, 1e-9);
}

}  // namespace
}  // namespace fpart::svc
