// Closed-loop driver of the svc runtime (docs/architecture.md, svc layer):
// N client threads submit a Poisson stream of partitioning jobs (sizes
// drawn Zipf-style from eight classes, small jobs most frequent, plus an
// optional join mix) against one Scheduler arbitrating a pool of
// simulated FPGA devices.
//
// Every job carries a priority class (interactive/batch/best-effort,
// assigned deterministically from --seed); live-mode dispatch splits
// service by weighted fair queueing over --classes weights.
//
// `--json` emits one fpart.obs.v1 document with exact p50/p95/p99 wall
// latencies (overall and per priority class), the per-backend placement
// mix, the per-device grant/busy utilization mix, the virtual-clock
// makespan/throughput (deterministic mode — the model-time numbers that
// scale with --fpga_devices regardless of host core count), and a
// determinism hash over (job index, class, backend, checksum). In the default
// deterministic mode the hash is bit-identical across runs for a fixed
// --seed and --fpga_devices no matter how the client threads interleave;
// the driver exits non-zero if any job is lost, duplicated, or failed.
//
// Flags (both `--flag N` and `--flag=N` spellings):
//   --jobs N           total jobs to replay        (default 10000)
//   --clients N        submitting client threads   (default 8)
//   --workers N        scheduler worker threads    (default 4)
//   --fpga_devices N   simulated FPGA devices      (default 1)
//   --classes W,W,W    WFQ weights interactive,batch,besteffort
//                      (default 8,3,1)
//   --seed N           workload seed               (default 42)
//   --rate R           Poisson arrival rate, jobs/s (default 5000)
//   --queue N          admission queue bound (0 = auto: jobs when
//                      deterministic, 256 otherwise)
//   --deterministic B  1 = virtual-time replay (default), 0 = live wall
//                      clock with real arrival sleeps and shedding
//   --join-every K     every K-th job is an equi-join (0 = off, default 64)
//   --policy P         adaptive|cpu|fpga|round-robin (default adaptive);
//                      `fpga` pins every job to the device pool — the
//                      device-bound load that shows pool throughput
//                      scaling with --fpga_devices
//   --sim_mode M       reference|fast simulator backend for
//                      every device run (default fast)
//   --sim_cache B      1 = memoize device run results keyed by
//                      config+input digest (default 0)
//   --sim_cache_warmup B  1 = pre-run every distinct device-run shape in
//                      the job mix once before the timed window, so the
//                      measured throughput sees a hot sim cache instead
//                      of the cold first-run cost per shape (requires
//                      --sim_cache 1; default 0)
//   --affinity P       none|compact|scatter|numa-local worker pinning
//                      (default: FPART_AFFINITY or none). Pinning changes
//                      only where threads run — the deterministic replay
//                      hash is unaffected.
//   --admission B      1 = SLO-aware admission control (svc/admission.h):
//                      jobs predicted to miss their class SLO are rejected
//                      with SloError instead of queued (default 0)
//   --slo I,B,E        per-class latency SLO seconds
//                      interactive,batch,besteffort; 0 disables that
//                      class's SLO (default 0.5,2,8; only applied with
//                      --admission 1)
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/topology.h"
#include "core/engine.h"
#include "datagen/workloads.h"
#include "datagen/zipf.h"
#include "join/hybrid_join.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "svc/scheduler.h"

namespace fpart {
namespace {

struct Options {
  uint64_t jobs = 10000;
  size_t clients = 8;
  size_t workers = 4;
  size_t fpga_devices = 1;
  std::array<double, svc::kNumJobClasses> class_weights =
      svc::kDefaultClassWeights;
  uint64_t seed = 42;
  double rate = 5000.0;
  size_t queue = 0;
  bool deterministic = true;
  uint64_t join_every = 64;
  svc::PlacementPolicy policy = svc::PlacementPolicy::kAdaptive;
  SimMode sim_mode = SimMode::kFast;
  bool sim_cache = false;
  bool sim_cache_warmup = false;
  AffinityPolicy affinity = AffinityPolicyFromEnv();
  bool admission = false;
  std::array<double, svc::kNumJobClasses> slo_seconds = {0.5, 2.0, 8.0};
};

// Deterministic per-job priority class: a service sees a few interactive
// tenants, a broad batch tier, and a best-effort tail.
svc::JobClass DrawClass(Rng* rng) {
  const double u = rng->NextDouble();
  if (u < 0.25) return svc::JobClass::kInteractive;
  if (u < 0.65) return svc::JobClass::kBatch;
  return svc::JobClass::kBestEffort;
}

using bench::Fnv1a;
using bench::SizeClasses;

int Run(const Options& opt) {
  const std::vector<size_t> classes = SizeClasses();

  // Resident tables: one relation per size class, plus a unique-key pair
  // per class for the join jobs (every S key matches).
  std::vector<Relation<Tuple8>> tables;
  std::vector<Relation<Tuple8>> join_r, join_s;
  for (size_t c = 0; c < classes.size(); ++c) {
    auto rel = GenerateRawRelation(classes[c], KeyDistribution::kRandom,
                                   opt.seed + c);
    if (!rel.ok()) {
      std::fprintf(stderr, "datagen failed: %s\n",
                   rel.status().ToString().c_str());
      return 1;
    }
    tables.push_back(std::move(rel).ValueUnsafe());
    if (opt.join_every > 0) {
      // Same seed for both sides: identical key sets, so every S tuple
      // matches and the join checksum is a strong cross-backend signal.
      auto r = GenerateUniqueRelation(classes[c], KeyDistribution::kRandom,
                                      opt.seed + 100 + c);
      auto s = GenerateUniqueRelation(classes[c], KeyDistribution::kRandom,
                                      opt.seed + 100 + c);
      if (!r.ok() || !s.ok()) {
        std::fprintf(stderr, "join datagen failed\n");
        return 1;
      }
      join_r.push_back(std::move(r).ValueUnsafe());
      join_s.push_back(std::move(s).ValueUnsafe());
    }
  }

  // Precomputed workload: per-job size class, priority class and Poisson
  // arrival time. All derive only from --seed, so every replay sees the
  // same stream.
  std::vector<size_t> job_class(opt.jobs);
  std::vector<svc::JobClass> job_prio(opt.jobs);
  std::vector<double> arrival(opt.jobs);
  {
    ZipfSampler zipf(classes.size(), 0.9, opt.seed);
    Rng rng(opt.seed ^ 0xa5a5a5a5ULL);
    Rng prio_rng(opt.seed ^ 0xc1a55e5ULL);
    double t = 0.0;
    for (uint64_t i = 0; i < opt.jobs; ++i) {
      job_class[i] = static_cast<size_t>(zipf.Next() - 1);
      job_prio[i] = DrawClass(&prio_rng);
      double u = rng.NextDouble();
      if (u <= 0.0) u = 1e-12;
      t += -std::log(u) / opt.rate;  // exponential inter-arrival
      arrival[i] = t;
    }
  }

  // Optional sim-cache warmup: run every distinct device-run shape in the
  // job mix once, outside the timed window. The cache key is a digest of
  // (config knobs, input bytes), so the warmup must rebuild the exact
  // request shapes the scheduler's device paths use — a partition job's
  // PartitionRequest and a hybrid join's FpgaPartitionerConfig per side.
  uint64_t warmup_runs = 0;
  double warmup_seconds = 0.0;
  if (opt.sim_cache_warmup && opt.sim_cache) {
    const auto warm0 = std::chrono::steady_clock::now();
    std::vector<uint8_t> part_seen(classes.size(), 0);
    std::vector<uint8_t> join_seen(classes.size(), 0);
    for (uint64_t i = 0; i < opt.jobs; ++i) {
      const bool is_join =
          opt.join_every > 0 && (i + 1) % opt.join_every == 0;
      (is_join ? join_seen : part_seen)[job_class[i]] = 1;
    }
    for (size_t c = 0; c < classes.size(); ++c) {
      if (part_seen[c] != 0) {
        PartitionRequest req;  // mirrors Scheduler::RunPartitionJob (FPGA)
        req.engine = Engine::kFpgaSim;
        req.fanout = 2048;
        req.hash = HashMethod::kMurmur;
        req.output_mode = OutputMode::kHist;
        req.sim_mode = opt.sim_mode;
        req.sim_cache = opt.sim_cache;
        auto r = RunPartition<Tuple8>(req, tables[c]);
        if (!r.ok()) {
          std::fprintf(stderr, "warmup partition failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
        ++warmup_runs;
      }
      if (join_seen[c] != 0 && opt.join_every > 0) {
        FpgaPartitionerConfig fpga;  // mirrors Scheduler::RunJoinJob
        fpga.fanout = 2048;
        fpga.hash = HashMethod::kMurmur;
        fpga.output_mode = OutputMode::kHist;
        fpga.layout = LayoutMode::kRid;
        fpga.link = LinkKind::kXeonFpga;
        fpga.sim_mode = opt.sim_mode;
        fpga.sim_cache = opt.sim_cache;
        for (const Relation<Tuple8>* side : {&join_r[c], &join_s[c]}) {
          auto r = internal::HybridPartition(fpga, *side);
          if (!r.ok()) {
            std::fprintf(stderr, "warmup join failed: %s\n",
                         r.status().ToString().c_str());
            return 1;
          }
          ++warmup_runs;
        }
      }
    }
    warmup_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      warm0)
            .count();
  }

  svc::SchedulerConfig config;
  config.deterministic = opt.deterministic;
  config.num_workers = opt.workers;
  config.fpga_devices = opt.fpga_devices;
  config.class_weights = opt.class_weights;
  config.policy = opt.policy;
  config.queue_capacity =
      opt.queue > 0 ? opt.queue : (opt.deterministic ? opt.jobs : 256);
  config.sim_mode = opt.sim_mode;
  config.sim_cache = opt.sim_cache;
  config.affinity = opt.affinity;
  config.name = "svc";
  config.slo.enabled = opt.admission;
  if (opt.admission) config.slo.class_slo_seconds = opt.slo_seconds;
  svc::Scheduler scheduler(config);

  // One handle slot per job, each written by exactly one client thread.
  std::vector<svc::JobHandle> handles(opt.jobs);
  std::vector<uint8_t> shed(opt.jobs, 0);
  // Live-mode SLO rejections surface synchronously at Submit; deterministic
  // mode delivers them as kRejected outcomes instead.
  std::vector<uint8_t> slo_rejected(opt.jobs, 0);

  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(opt.clients);
  for (size_t c = 0; c < opt.clients; ++c) {
    clients.emplace_back([&, c] {
      for (uint64_t i = c; i < opt.jobs; i += opt.clients) {
        if (!opt.deterministic) {
          // Live mode: honour the Poisson arrival times for real.
          std::this_thread::sleep_until(
              wall0 + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(arrival[i])));
        }
        svc::JobOptions jopts;
        jopts.arrival_seq = i;
        jopts.virtual_arrival_seconds = arrival[i];
        jopts.job_class = job_prio[i];
        Result<svc::JobHandle> handle = [&]() -> Result<svc::JobHandle> {
          if (opt.join_every > 0 && (i + 1) % opt.join_every == 0) {
            svc::JoinJobSpec join;
            join.r = &join_r[job_class[i]];
            join.s = &join_s[job_class[i]];
            join.fanout = 2048;
            return scheduler.Submit(join, jopts);
          }
          svc::PartitionJobSpec spec;
          spec.input = &tables[job_class[i]];
          spec.request.fanout = 2048;
          spec.request.hash = HashMethod::kMurmur;
          spec.request.output_mode = OutputMode::kHist;
          spec.request.sim_mode = opt.sim_mode;
          spec.request.sim_cache = opt.sim_cache;
          return scheduler.Submit(spec, jopts);
        }();
        if (handle.ok()) {
          handles[i] = std::move(handle).ValueUnsafe();
        } else if (handle.status().IsCapacityError()) {
          shed[i] = 1;  // live-mode backpressure
        } else if (handle.status().IsSloError()) {
          slo_rejected[i] = 1;  // live-mode admission rejection
        } else {
          std::fprintf(stderr, "submit %llu failed: %s\n",
                       static_cast<unsigned long long>(i),
                       handle.status().ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  scheduler.Shutdown();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  // Account every job exactly once; a slot that is neither shed nor done
  // is a lost job (and a hard failure of the run).
  uint64_t completed = 0, failed = 0, cancelled = 0, shed_count = 0,
           lost = 0, rejected_count = 0, missed_after_admit = 0;
  uint64_t placed_cpu = 0, placed_fpga = 0, placed_hybrid = 0;
  std::vector<double> latencies;
  latencies.reserve(opt.jobs);
  std::array<std::vector<double>, svc::kNumJobClasses> class_latencies;
  // The latency the SLO is judged on: the virtual (model-clock) latency in
  // deterministic mode — the quantity the admission prediction is exact
  // for — and the wall latency in live mode.
  std::array<std::vector<double>, svc::kNumJobClasses> class_slo_lat;
  std::array<uint64_t, svc::kNumJobClasses> class_within_slo{};
  uint64_t determinism_hash = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i < opt.jobs; ++i) {
    if (shed[i] != 0) {
      ++shed_count;
      continue;
    }
    if (slo_rejected[i] != 0) {
      ++rejected_count;
      continue;
    }
    if (!handles[i].valid()) {
      ++lost;
      continue;
    }
    auto outcome = handles[i].TryGet();
    if (!outcome.has_value()) {
      ++lost;  // still "running" after drain: the scheduler lost it
      continue;
    }
    switch (outcome->state) {
      case svc::JobState::kCompleted:
        ++completed;
        break;
      case svc::JobState::kFailed:
        ++failed;
        std::fprintf(stderr, "job %llu failed: %s\n",
                     static_cast<unsigned long long>(i),
                     outcome->status.ToString().c_str());
        break;
      case svc::JobState::kCancelled:
        ++cancelled;
        break;
      case svc::JobState::kShed:
        ++shed_count;
        continue;
      case svc::JobState::kRejected:
        // Rejected jobs never fold into the determinism hash — which is
        // exactly why the hash is admission-policy-invariant whenever the
        // controller rejects nothing (the low-load CI gate).
        ++rejected_count;
        continue;
      default:
        ++lost;
        continue;
    }
    switch (outcome->backend) {
      case svc::Backend::kCpu:
        ++placed_cpu;
        break;
      case svc::Backend::kFpga:
        ++placed_fpga;
        break;
      case svc::Backend::kHybrid:
        ++placed_hybrid;
        break;
    }
    const double latency = outcome->queue_seconds + outcome->run_seconds;
    const size_t prio = static_cast<size_t>(job_prio[i]);
    latencies.push_back(latency);
    class_latencies[prio].push_back(latency);
    if (opt.admission && outcome->state == svc::JobState::kCompleted) {
      const double slo_latency =
          opt.deterministic ? outcome->virtual_queue_seconds +
                                  outcome->virtual_run_seconds
                            : latency;
      class_slo_lat[prio].push_back(slo_latency);
      const double slo = opt.slo_seconds[prio];
      if (slo <= 0.0 || slo_latency <= slo) ++class_within_slo[prio];
      if (outcome->admit_budget_seconds > 0.0 &&
          slo_latency > outcome->admit_budget_seconds) {
        ++missed_after_admit;
      }
    }
    determinism_hash = Fnv1a(determinism_hash, i);
    determinism_hash = Fnv1a(
        determinism_hash, static_cast<uint64_t>(job_prio[i]));
    determinism_hash = Fnv1a(
        determinism_hash, static_cast<uint64_t>(outcome->backend));
    determinism_hash = Fnv1a(determinism_hash, outcome->checksum);
  }

  auto pct_of = [](std::vector<double>& v, double p) {
    if (v.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * (v.size() - 1));
    return v[idx] * 1e6;
  };
  std::sort(latencies.begin(), latencies.end());
  for (auto& v : class_latencies) std::sort(v.begin(), v.end());
  auto pct = [&](double p) { return pct_of(latencies, p); };
  double mean_us = 0.0;
  for (double l : latencies) mean_us += l;
  mean_us = latencies.empty() ? 0.0 : mean_us / latencies.size() * 1e6;

  obs::BenchReport report("ext_service");
  report.ConfigUInt("jobs", opt.jobs);
  report.ConfigUInt("clients", opt.clients);
  report.ConfigUInt("workers", opt.workers);
  report.ConfigUInt("fpga_devices", opt.fpga_devices);
  {
    std::string w;
    for (size_t c = 0; c < svc::kNumJobClasses; ++c) {
      if (c > 0) w += ",";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", opt.class_weights[c]);
      w += buf;
    }
    report.ConfigStr("class_weights", w);
  }
  report.ConfigUInt("seed", opt.seed);
  report.ConfigDouble("rate_jobs_per_sec", opt.rate);
  report.ConfigUInt("queue_capacity", config.queue_capacity);
  report.ConfigUInt("deterministic", opt.deterministic ? 1 : 0);
  report.ConfigUInt("join_every", opt.join_every);
  report.ConfigStr("policy",
                   svc::PlacementPolicyName(config.policy));
  report.ConfigStr("sim_mode", SimModeName(opt.sim_mode));
  report.ConfigUInt("sim_cache", opt.sim_cache ? 1 : 0);
  report.ConfigUInt("sim_cache_warmup",
                    (opt.sim_cache_warmup && opt.sim_cache) ? 1 : 0);
  report.ConfigStr("affinity", AffinityPolicyName(opt.affinity));
  report.ConfigUInt("admission", opt.admission ? 1 : 0);
  {
    std::string s;
    for (size_t c = 0; c < svc::kNumJobClasses; ++c) {
      if (c > 0) s += ",";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", opt.slo_seconds[c]);
      s += buf;
    }
    report.ConfigStr("slo_seconds", s);
  }
  report.ConfigDouble("scale", BenchScale());
  report.Result("latency", {{"p50_us", pct(0.50)},
                            {"p95_us", pct(0.95)},
                            {"p99_us", pct(0.99)},
                            {"mean_us", mean_us}});
  report.Result("placement",
                {{"cpu", static_cast<double>(placed_cpu)},
                 {"fpga", static_cast<double>(placed_fpga)},
                 {"hybrid", static_cast<double>(placed_hybrid)}});
  // Per priority class: tail latencies plus the observed WFQ service
  // shares. contended_share is measured only while every class had
  // backlog — the window over which the ±5% weight guarantee holds.
  {
    double weight_sum = 0.0, served_sum = 0.0, contended_sum = 0.0;
    for (size_t c = 0; c < svc::kNumJobClasses; ++c) {
      const auto cls = static_cast<svc::JobClass>(c);
      weight_sum += opt.class_weights[c];
      served_sum += scheduler.class_served_cost(cls);
      contended_sum += scheduler.class_contended_cost(cls);
    }
    for (size_t c = 0; c < svc::kNumJobClasses; ++c) {
      const auto cls = static_cast<svc::JobClass>(c);
      auto& v = class_latencies[c];
      const std::string name =
          std::string("class_") + svc::JobClassName(cls);
      report.Result(
          name,
          {{"count", static_cast<double>(v.size())},
           {"p50_us", pct_of(v, 0.50)},
           {"p95_us", pct_of(v, 0.95)},
           {"p99_us", pct_of(v, 0.99)},
           {"weight_share", opt.class_weights[c] / weight_sum},
           {"served_share",
            served_sum > 0 ? scheduler.class_served_cost(cls) / served_sum
                           : 0.0},
           {"contended_share",
            contended_sum > 0
                ? scheduler.class_contended_cost(cls) / contended_sum
                : 0.0}});
      if (opt.admission) {
        auto& sv = class_slo_lat[c];
        std::sort(sv.begin(), sv.end());
        const double done = static_cast<double>(sv.size());
        report.Result(
            std::string("slo_") + svc::JobClassName(cls),
            {{"slo_us", opt.slo_seconds[c] * 1e6},
             {"completed", done},
             {"within_slo", static_cast<double>(class_within_slo[c])},
             {"attainment",
              done > 0 ? static_cast<double>(class_within_slo[c]) / done
                       : 1.0},
             {"p99_us", pct_of(sv, 0.99)},
             {"rejected",
              static_cast<double>(scheduler.admission().rejected(cls))}});
      }
    }
  }
  // Per-device utilization mix of the FPGA pool.
  {
    const svc::DevicePool& pool = scheduler.device_pool();
    auto& reg = obs::Registry::Global();
    double busy_sum = 0.0;
    std::vector<double> busy(pool.num_devices());
    for (size_t i = 0; i < pool.num_devices(); ++i) {
      busy[i] = static_cast<double>(
          reg.GetCounter("svc.device." + std::to_string(i) + ".busy_us")
              ->Value());
      busy_sum += busy[i];
    }
    for (size_t i = 0; i < pool.num_devices(); ++i) {
      report.Result(
          "device_" + std::to_string(i),
          {{"grants", static_cast<double>(pool.device_grants(i))},
           {"busy_us", busy[i]},
           {"util_share", busy_sum > 0 ? busy[i] / busy_sum : 0.0}});
    }
  }
  report.Result("jobs_accounted",
                {{"completed", static_cast<double>(completed)},
                 {"failed", static_cast<double>(failed)},
                 {"cancelled", static_cast<double>(cancelled)},
                 {"shed", static_cast<double>(shed_count)},
                 {"rejected", static_cast<double>(rejected_count)},
                 {"lost", static_cast<double>(lost)}});
  if (opt.admission) {
    const svc::AdmissionController& adm = scheduler.admission();
    report.Result(
        "admission",
        {{"considered", static_cast<double>(adm.considered())},
         {"admitted", static_cast<double>(adm.admitted())},
         {"rejected", static_cast<double>(rejected_count)},
         {"rejected_slo", static_cast<double>(adm.rejected_slo())},
         {"rejected_deadline", static_cast<double>(adm.rejected_deadline())},
         {"missed_after_admit", static_cast<double>(missed_after_admit)}});
  }
  if (opt.sim_cache_warmup && opt.sim_cache) {
    report.Result("warmup",
                  {{"runs", static_cast<double>(warmup_runs)},
                   {"seconds", warmup_seconds}});
  }
  report.ResultDouble("wall_seconds", wall_seconds);
  // Goodput: completed jobs only; shed, rejected, failed and cancelled jobs
  // are not throughput.
  report.ResultDouble("jobs_per_sec",
                      wall_seconds > 0 ? completed / wall_seconds : 0.0);
  if (opt.deterministic) {
    // Model-time throughput: the virtual makespan is what a real device
    // pool would deliver — it shrinks with --fpga_devices even when the
    // simulator itself is squeezed onto a single host core.
    const double makespan = scheduler.virtual_makespan_seconds();
    report.ResultDouble("virtual_makespan_seconds", makespan);
    report.ResultDouble("virtual_jobs_per_sec",
                        makespan > 0 ? completed / makespan : 0.0);
  }
  report.ResultUInt("determinism_hash", determinism_hash);
  report.Print();

  const uint64_t accounted =
      completed + failed + cancelled + shed_count + rejected_count;
  if (lost != 0 || accounted != opt.jobs) {
    std::fprintf(stderr,
                 "job accounting broken: %llu accounted of %llu (%llu lost)\n",
                 static_cast<unsigned long long>(accounted),
                 static_cast<unsigned long long>(opt.jobs),
                 static_cast<unsigned long long>(lost));
    return 1;
  }
  if (failed != 0) return 1;
  if (opt.admission && opt.deterministic && missed_after_admit != 0) {
    // In deterministic mode the admission prediction equals the virtual
    // latency exactly, so an admitted-then-missed job is a scheduler bug.
    std::fprintf(stderr,
                 "%llu admitted jobs missed their budget in deterministic "
                 "mode (must be 0)\n",
                 static_cast<unsigned long long>(missed_after_admit));
    return 1;
  }
  return 0;
}

// Accept both "--flag value" and "--flag=value".
bool ParseFlag(int argc, char** argv, int* i, const char* flag,
               std::string* value) {
  const size_t len = std::strlen(flag);
  if (std::strncmp(argv[*i], flag, len) != 0) return false;
  if (argv[*i][len] == '=') {
    *value = argv[*i] + len + 1;
    return true;
  }
  if (argv[*i][len] == '\0' && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

}  // namespace
}  // namespace fpart

int main(int argc, char** argv) {
  fpart::obs::TraceSession trace(&argc, argv);
  fpart::Options opt;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (fpart::ParseFlag(argc, argv, &i, "--jobs", &v)) {
      opt.jobs = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--clients", &v)) {
      opt.clients = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--workers", &v)) {
      opt.workers = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--fpga_devices", &v)) {
      opt.fpga_devices = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--classes", &v)) {
      char* cursor = v.data();
      for (size_t c = 0; c < fpart::svc::kNumJobClasses; ++c) {
        opt.class_weights[c] = std::strtod(cursor, &cursor);
        if (*cursor == ',') ++cursor;
        if (opt.class_weights[c] <= 0.0) {
          std::fprintf(stderr, "--classes needs 3 positive weights\n");
          return 2;
        }
      }
    } else if (fpart::ParseFlag(argc, argv, &i, "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--rate", &v)) {
      opt.rate = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--queue", &v)) {
      opt.queue = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--deterministic", &v)) {
      opt.deterministic = std::strtoull(v.c_str(), nullptr, 10) != 0;
    } else if (fpart::ParseFlag(argc, argv, &i, "--join-every", &v)) {
      opt.join_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--policy", &v)) {
      if (v == "adaptive") {
        opt.policy = fpart::svc::PlacementPolicy::kAdaptive;
      } else if (v == "cpu") {
        opt.policy = fpart::svc::PlacementPolicy::kCpuOnly;
      } else if (v == "fpga") {
        opt.policy = fpart::svc::PlacementPolicy::kFpgaOnly;
      } else if (v == "round-robin") {
        opt.policy = fpart::svc::PlacementPolicy::kRoundRobin;
      } else {
        std::fprintf(stderr,
                     "--policy must be adaptive|cpu|fpga|round-robin\n");
        return 2;
      }
    } else if (fpart::ParseFlag(argc, argv, &i, "--sim_mode", &v)) {
      if (!fpart::ParseSimMode(v, &opt.sim_mode)) {
        std::fprintf(stderr, "--sim_mode must be reference|fast\n");
        return 2;
      }
    } else if (fpart::ParseFlag(argc, argv, &i, "--sim_cache_warmup", &v)) {
      opt.sim_cache_warmup = std::strtoull(v.c_str(), nullptr, 10) != 0;
    } else if (fpart::ParseFlag(argc, argv, &i, "--sim_cache", &v)) {
      opt.sim_cache = std::strtoull(v.c_str(), nullptr, 10) != 0;
    } else if (fpart::ParseFlag(argc, argv, &i, "--affinity", &v)) {
      if (!fpart::ParseAffinityPolicy(v, &opt.affinity)) {
        std::fprintf(stderr,
                     "--affinity must be none|compact|scatter|numa-local\n");
        return 2;
      }
    } else if (fpart::ParseFlag(argc, argv, &i, "--admission", &v)) {
      opt.admission = std::strtoull(v.c_str(), nullptr, 10) != 0;
    } else if (fpart::ParseFlag(argc, argv, &i, "--slo", &v)) {
      char* cursor = v.data();
      for (size_t c = 0; c < fpart::svc::kNumJobClasses; ++c) {
        opt.slo_seconds[c] = std::strtod(cursor, &cursor);
        if (*cursor == ',') ++cursor;
        if (opt.slo_seconds[c] < 0.0) {
          std::fprintf(stderr, "--slo needs 3 non-negative seconds\n");
          return 2;
        }
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.jobs == 0 || opt.clients == 0) {
    std::fprintf(stderr, "--jobs and --clients must be positive\n");
    return 2;
  }
  if (opt.fpga_devices == 0) opt.fpga_devices = 1;
  if (opt.rate <= 0) opt.rate = 5000.0;
  (void)json;  // the report is always JSON; --json kept for script parity
  return fpart::Run(opt);
}
