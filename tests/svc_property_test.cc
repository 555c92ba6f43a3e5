// Property tests of the svc scheduling invariants under randomized job
// streams: weighted-fair service shares (within the ±5% tolerance the
// service promises), starvation freedom under continuous high-priority
// load, intra-class earliest-deadline-first order, strict-arrival replay
// order, and full-stream completion against 1/2/4-device pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <atomic>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "svc/admission.h"
#include "datagen/workloads.h"
#include "svc/fpga_arbiter.h"
#include "svc/job_queue.h"
#include "svc/scheduler.h"

namespace fpart::svc {
namespace {

std::shared_ptr<JobRecord> MakeJob(uint64_t seq, JobClass cls, double cost,
                                   double deadline_key =
                                       std::numeric_limits<double>::infinity()) {
  auto rec = std::make_shared<JobRecord>();
  rec->seq = seq;
  rec->cls = cls;
  rec->wfq_cost = cost;
  rec->deadline_key = deadline_key;
  return rec;
}

// ------------------------------------------------------------- WFQ shares

// While every class stays backlogged, served cost per class must track the
// configured weights within ±5% — the service's headline fairness claim.
TEST(WfqPropertyTest, ContendedSharesTrackWeightsWithinTolerance) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x9e37ULL);
    std::array<double, kNumJobClasses> weights;
    for (auto& w : weights) w = 1.0 + rng.NextDouble() * 9.0;

    const size_t kPerClass = 300;
    JobQueue queue(kPerClass * kNumJobClasses, /*strict_seq=*/false, weights);
    uint64_t seq = 0;
    for (size_t i = 0; i < kPerClass; ++i) {
      for (size_t c = 0; c < kNumJobClasses; ++c) {
        ASSERT_TRUE(queue
                        .Push(MakeJob(seq++, static_cast<JobClass>(c),
                                      1.0 + rng.NextDouble() * 99.0))
                        .ok());
      }
    }
    queue.Close();
    while (queue.Pop() != nullptr) {
    }

    double total_contended = 0.0, total_weight = 0.0;
    for (size_t c = 0; c < kNumJobClasses; ++c) {
      total_contended += queue.contended_cost(static_cast<JobClass>(c));
      total_weight += weights[c];
    }
    ASSERT_GT(total_contended, 0.0);
    for (size_t c = 0; c < kNumJobClasses; ++c) {
      const double share =
          queue.contended_cost(static_cast<JobClass>(c)) / total_contended;
      const double want = weights[c] / total_weight;
      EXPECT_NEAR(share, want, 0.05)
          << "seed " << seed << " class " << c << " weight " << weights[c];
    }
  }
}

// --------------------------------------------------------------- starvation

// A single best-effort job must dispatch within a bounded number of pops
// even when interactive jobs arrive continuously — the scenario a naive
// strict-priority queue (or a WFQ that re-stamps waiters against the
// moving virtual clock) starves forever.
TEST(WfqPropertyTest, BestEffortIsNotStarvedByContinuousInteractiveLoad) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0xbe57ULL);
    std::array<double, kNumJobClasses> weights = kDefaultClassWeights;
    weights[0] = 4.0 + rng.NextDouble() * 12.0;  // interactive
    weights[2] = 0.5 + rng.NextDouble();         // best-effort
    JobQueue queue(1024, /*strict_seq=*/false, weights);

    const double be_cost = 1.0 + rng.NextDouble() * 9.0;
    const double ia_cost = 1.0 + rng.NextDouble() * 9.0;
    uint64_t seq = 0;
    ASSERT_TRUE(
        queue.Push(MakeJob(seq++, JobClass::kBestEffort, be_cost)).ok());
    // WFQ bound: the best-effort head finishes at most (be_cost/w_be)
    // virtual units after its stamp, while each interactive pop advances
    // the clock by ia_cost/w_ia — plus one pop of slack for the tie rule.
    const size_t bound = static_cast<size_t>(std::ceil(
                             (be_cost / weights[2]) /
                             (ia_cost / weights[0]))) +
                         2;
    bool popped_best_effort = false;
    for (size_t i = 0; i < bound; ++i) {
      ASSERT_TRUE(
          queue.Push(MakeJob(seq++, JobClass::kInteractive, ia_cost)).ok());
      auto rec = queue.Pop();
      ASSERT_NE(rec, nullptr);
      if (rec->cls == JobClass::kBestEffort) {
        popped_best_effort = true;
        break;
      }
    }
    EXPECT_TRUE(popped_best_effort)
        << "seed " << seed << ": best-effort job starved past its WFQ bound ("
        << bound << " pops)";
  }
}

// ------------------------------------------------------ intra-class order

// Within one class, jobs dispatch earliest-deadline-first with FIFO among
// equal deadlines, no matter how the classes interleave overall.
TEST(WfqPropertyTest, IntraClassOrderIsDeadlineThenFifo) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0xdead1ULL);
    JobQueue queue(1024, /*strict_seq=*/false);
    const size_t kJobs = 240;
    for (uint64_t i = 0; i < kJobs; ++i) {
      // A third of the jobs carry no deadline (+inf key); deadlines repeat
      // across jobs so the FIFO tiebreak is exercised too.
      const double key = rng.NextDouble() < 0.33
                             ? std::numeric_limits<double>::infinity()
                             : 0.001 * static_cast<double>(rng.Below(20));
      queue.Push(MakeJob(i, static_cast<JobClass>(rng.Below(kNumJobClasses)),
                         1.0 + rng.NextDouble() * 49.0, key));
    }
    queue.Close();

    std::array<std::pair<double, uint64_t>, kNumJobClasses> last;
    last.fill({-1.0, 0});
    std::shared_ptr<JobRecord> rec;
    while ((rec = queue.Pop()) != nullptr) {
      const size_t c = static_cast<size_t>(rec->cls);
      const std::pair<double, uint64_t> key{rec->deadline_key, rec->seq};
      EXPECT_TRUE(last[c] < key)
          << "seed " << seed << " class " << c
          << ": deadline order violated at seq " << rec->seq;
      last[c] = key;
    }
  }
}

// ------------------------------------------------------ strict-seq replay

// Deterministic mode ignores classes and weights entirely: pops come back
// in exact arrival-sequence order however the pushes were interleaved.
TEST(WfqPropertyTest, StrictSeqReproducesArrivalOrder) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x5eedULL);
    const size_t kJobs = 200;
    JobQueue queue(kJobs, /*strict_seq=*/true);
    // Push a random permutation of the sequence numbers with random
    // classes and deadlines — none of which may affect the pop order.
    std::vector<uint64_t> order(kJobs);
    for (uint64_t i = 0; i < kJobs; ++i) order[i] = i;
    for (size_t i = kJobs - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Below(i + 1)]);
    }
    for (uint64_t s : order) {
      ASSERT_TRUE(
          queue
              .Push(MakeJob(s, static_cast<JobClass>(rng.Below(kNumJobClasses)),
                            1.0 + rng.NextDouble() * 99.0,
                            rng.NextDouble()))
              .ok());
    }
    queue.Close();
    for (uint64_t want = 0; want < kJobs; ++want) {
      auto rec = queue.Pop();
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(rec->seq, want) << "seed " << seed;
    }
    EXPECT_EQ(queue.Pop(), nullptr);
  }
}

// ----------------------------------------------------- device-pool streams

// End-to-end randomized stream against 1/2/4-device pools: every job
// completes, the pool's grant accounting is consistent, and with several
// devices the grants actually spread beyond one device.
TEST(WfqPropertyTest, RandomStreamsCompleteAgainstAnyPoolSize) {
  auto rel = GenerateRawRelation(1 << 12, KeyDistribution::kRandom, 11);
  ASSERT_TRUE(rel.ok());
  for (size_t devices : {size_t{1}, size_t{2}, size_t{4}}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(seed * 0xf00dULL + devices);
      SchedulerConfig config;
      config.fpga_devices = devices;
      config.num_workers = 4;
      config.queue_capacity = 256;
      Scheduler scheduler(config);

      std::vector<JobHandle> handles;
      for (int i = 0; i < 60; ++i) {
        PartitionJobSpec spec;
        spec.input = &*rel;
        spec.request.fanout = 64;
        spec.request.output_mode = OutputMode::kHist;
        JobOptions opts;
        opts.pinned = Backend::kFpga;  // keep the pool under pressure
        opts.job_class = static_cast<JobClass>(rng.Below(kNumJobClasses));
        if (rng.NextDouble() < 0.5) {
          opts.deadline_seconds = 0.001 + rng.NextDouble() * 0.02;
        }
        auto h = scheduler.Submit(spec, opts);
        ASSERT_TRUE(h.ok());
        handles.push_back(std::move(h).ValueUnsafe());
      }
      scheduler.Shutdown();

      for (const JobHandle& h : handles) {
        auto out = h.TryGet();
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->state, JobState::kCompleted) << out->status.ToString();
        EXPECT_EQ(out->backend, Backend::kFpga);
      }
      const DevicePool& pool = scheduler.device_pool();
      EXPECT_EQ(pool.grants(), handles.size());
      uint64_t sum = 0;
      size_t devices_used = 0;
      for (size_t i = 0; i < pool.num_devices(); ++i) {
        sum += pool.device_grants(i);
        devices_used += pool.device_grants(i) > 0 ? 1 : 0;
      }
      EXPECT_EQ(sum, pool.grants());
      if (devices > 1) {
        EXPECT_GE(devices_used, 2u)
            << devices << "-device pool never spread its grants";
      }
      EXPECT_NEAR(pool.total_backlog_seconds(), 0.0, 1e-9);
    }
  }
}


// ---------------------------------------------------- admission properties

// Shared driver: replay a randomized partition-job stream in deterministic
// mode with SLO admission on and return the outcomes.
struct AdmissionReplay {
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t hash = 0;  // FNV-1a over (i, backend, checksum) of completions
  double worst_slack = std::numeric_limits<double>::infinity();
};

AdmissionReplay RunAdmissionReplay(const Relation<Tuple8>& rel,
                                   uint64_t jobs, uint64_t seed,
                                   double slo_seconds, double mean_gap,
                                   size_t clients) {
  SchedulerConfig config;
  config.deterministic = true;
  config.queue_capacity = jobs;
  config.num_workers = 2;
  config.fpga_devices = 2;
  config.sim_cache = true;
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {slo_seconds, slo_seconds * 4.0, 0.0};
  Scheduler scheduler(config);

  // Pre-compute the stream (shared by every client split) so the replay
  // is a pure function of (seed, jobs).
  Rng rng(seed);
  std::vector<double> arrivals(jobs);
  std::vector<JobClass> classes(jobs);
  double clock = 0.0;
  for (uint64_t i = 0; i < jobs; ++i) {
    clock += rng.NextDouble() * 2.0 * mean_gap;
    arrivals[i] = clock;
    classes[i] =
        rng.NextDouble() < 0.5 ? JobClass::kInteractive : JobClass::kBatch;
  }

  std::vector<JobHandle> handles(jobs);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t i = c; i < jobs; i += clients) {
        PartitionJobSpec spec;
        spec.input = &rel;
        spec.request.fanout = 512;
        spec.request.output_mode = OutputMode::kHist;
        spec.request.sim_cache = true;
        JobOptions opts;
        opts.arrival_seq = i;
        opts.virtual_arrival_seconds = arrivals[i];
        opts.job_class = classes[i];
        auto handle = scheduler.Submit(spec, opts);
        ASSERT_TRUE(handle.ok()) << handle.status().ToString();
        handles[i] = std::move(handle).ValueUnsafe();
      }
    });
  }
  for (auto& t : threads) t.join();
  scheduler.Shutdown();

  AdmissionReplay r;
  r.hash = 0xcbf29ce484222325ULL;
  auto fold = [&r](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      r.hash ^= (v >> (b * 8)) & 0xff;
      r.hash *= 0x100000001b3ULL;
    }
  };
  for (uint64_t i = 0; i < jobs; ++i) {
    auto out = handles[i].TryGet();
    EXPECT_TRUE(out.has_value());
    if (!out.has_value()) continue;
    if (out->state == JobState::kRejected) {
      ++r.rejected;
      continue;
    }
    EXPECT_EQ(out->state, JobState::kCompleted) << out->status.ToString();
    ++r.completed;
    fold(i);
    fold(static_cast<uint64_t>(out->backend));
    fold(out->checksum);
    if (out->admit_budget_seconds > 0.0) {
      const double latency =
          out->virtual_queue_seconds + out->virtual_run_seconds;
      r.worst_slack = std::min(
          r.worst_slack, out->admit_budget_seconds - latency);
    }
  }
  return r;
}

// The tentpole invariant: across randomized overloaded streams, no job the
// controller admitted ever finishes past the budget its prediction fit —
// the deterministic prediction is exact, so the slack is never negative.
TEST(AdmissionPropertyTest, AdmittedJobsNeverMissTheirBudget) {
  auto rel_r = GenerateRawRelation(1 << 17, KeyDistribution::kRandom, 11);
  ASSERT_TRUE(rel_r.ok());
  Relation<Tuple8> rel = std::move(rel_r).ValueUnsafe();
  uint64_t total_rejected = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    // Tight SLO + bursty arrivals: a real overload mix.
    AdmissionReplay r =
        RunAdmissionReplay(rel, /*jobs=*/40, seed,
                           /*slo=*/0.002, /*mean_gap=*/1e-4, /*clients=*/1);
    EXPECT_GT(r.completed, 0u) << "seed " << seed;
    EXPECT_GE(r.worst_slack, 0.0) << "seed " << seed;
    total_rejected += r.rejected;
  }
  EXPECT_GT(total_rejected, 0u);  // the streams really were infeasible
}

// At low load (arrivals far apart relative to the SLO) admission must be
// invisible: zero rejects, every job completes.
TEST(AdmissionPropertyTest, NoRejectsAtLowLoad) {
  auto rel_r = GenerateRawRelation(1 << 14, KeyDistribution::kRandom, 12);
  ASSERT_TRUE(rel_r.ok());
  Relation<Tuple8> rel = std::move(rel_r).ValueUnsafe();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    AdmissionReplay r =
        RunAdmissionReplay(rel, /*jobs=*/24, seed,
                           /*slo=*/0.5, /*mean_gap=*/0.05, /*clients=*/1);
    EXPECT_EQ(r.rejected, 0u) << "seed " << seed;
    EXPECT_EQ(r.completed, 24u) << "seed " << seed;
  }
}

// The replay — including which jobs get rejected — is a pure function of
// the stream: submitting from 1, 2 or 4 racing clients must yield the
// identical completion hash and rejection count.
TEST(AdmissionPropertyTest, ReplayIsClientInterleavingInvariant) {
  auto rel_r = GenerateRawRelation(1 << 17, KeyDistribution::kRandom, 13);
  ASSERT_TRUE(rel_r.ok());
  Relation<Tuple8> rel = std::move(rel_r).ValueUnsafe();
  for (uint64_t seed = 21; seed <= 22; ++seed) {
    AdmissionReplay base =
        RunAdmissionReplay(rel, /*jobs=*/32, seed,
                           /*slo=*/0.002, /*mean_gap=*/1e-4, /*clients=*/1);
    for (size_t clients : {2u, 4u}) {
      AdmissionReplay r = RunAdmissionReplay(rel, 32, seed,
                                             0.002, 1e-4, clients);
      EXPECT_EQ(r.hash, base.hash)
          << "seed " << seed << " clients " << clients;
      EXPECT_EQ(r.rejected, base.rejected)
          << "seed " << seed << " clients " << clients;
    }
  }
}

// EWMA property: whatever constant mis-calibration factor the model has,
// and whatever smoothing factor is configured, the learned correction
// converges to the clamped true factor.
TEST(AdmissionPropertyTest, EwmaConvergesUnderRandomMiscalibration) {
  Rng rng(0xadA11);
  for (int trial = 0; trial < 12; ++trial) {
    SloConfig cfg;
    cfg.enabled = true;
    cfg.ewma_alpha = 0.05 + rng.NextDouble() * 0.9;
    AdmissionController adm(cfg);
    const double k = 0.1 + rng.NextDouble() * 6.0;  // may exceed the clamp
    const auto backend =
        static_cast<Backend>(trial % static_cast<int>(kNumBackends));
    const double demand = trial % 2 == 0 ? 1000.0 : 2e6;
    for (int i = 0; i < 400; ++i) {
      const double model = 0.5 + rng.NextDouble();  // varying job sizes
      adm.ObserveRun(backend, demand, model,
                     model * adm.correction(backend, SizeClassOf(demand)),
                     k * model, /*learn=*/true);
    }
    const double expect =
        std::clamp(k, cfg.correction_floor, cfg.correction_cap);
    EXPECT_NEAR(adm.correction(backend, SizeClassOf(demand)), expect, 0.02)
        << "trial " << trial << " k=" << k << " alpha=" << cfg.ewma_alpha;
  }
}

// TSan-raced stress: submissions and completions racing with admission
// enabled; every job must reach exactly one terminal state and the pending
// ledger must drain.
TEST(AdmissionPropertyTest, RacedSubmitRejectStress) {
  auto rel_r = GenerateRawRelation(1 << 12, KeyDistribution::kRandom, 14);
  ASSERT_TRUE(rel_r.ok());
  Relation<Tuple8> rel = std::move(rel_r).ValueUnsafe();
  SchedulerConfig config;
  config.deterministic = false;
  config.num_workers = 2;
  config.queue_capacity = 32;
  config.slo.enabled = true;
  config.slo.class_slo_seconds = {0.001, 10.0, 0.0};
  Scheduler scheduler(config);
  std::atomic<uint64_t> terminal{0};
  constexpr size_t kClients = 4;
  constexpr uint64_t kPerClient = 40;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x5eed + c);
      std::vector<JobHandle> handles;
      for (uint64_t i = 0; i < kPerClient; ++i) {
        PartitionJobSpec spec;
        spec.input = &rel;
        spec.request.fanout = 256;
        spec.request.output_mode = OutputMode::kHist;
        JobOptions opts;
        opts.job_class = rng.NextDouble() < 0.3 ? JobClass::kInteractive
                                                : JobClass::kBatch;
        auto handle = scheduler.Submit(spec, opts);
        if (!handle.ok()) {
          EXPECT_TRUE(handle.status().IsSloError() ||
                      handle.status().IsCapacityError())
              << handle.status().ToString();
          terminal.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        handles.push_back(std::move(handle).ValueUnsafe());
      }
      for (auto& h : handles) {
        h.Wait();
        terminal.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  scheduler.Shutdown();
  EXPECT_EQ(terminal.load(), kClients * kPerClient);
  EXPECT_NEAR(scheduler.ledger().pending_seconds(), 0.0, 1e-9);
}

}  // namespace
}  // namespace fpart::svc
