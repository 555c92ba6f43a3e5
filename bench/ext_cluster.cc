// Closed-loop driver of the cluster layer (docs/distributed.md): N client
// threads submit a Poisson stream of partitioning jobs (plus an optional
// join mix) against a federation of --nodes partitioning-service nodes
// behind one shard map. Every job carries a Zipf-skewed shard key
// (--zipf), so a hot key concentrates load on one bucket — the workload
// hot-bucket migration (--migration on) exists to spread.
//
// `--json` emits one fpart.obs.v1 document with p50/p95/p99 latencies
// (virtual-clock in the default deterministic mode: network hop + queue
// wait + modeled service time, noise-free on a 1-core host), the
// remote-submission share and shipped bytes, the migration/epoch account,
// per-node job counts and virtual makespans, and a cluster-wide
// determinism hash over (job index, key, bucket, owner, epoch, backend,
// checksum). In deterministic mode the hash is bit-identical across runs
// for fixed flags no matter how client threads interleave — including
// runs that migrate buckets mid-stream, because rebalance points are
// count-driven. The driver exits non-zero if any job is lost, failed, or
// stamped with a route that disagrees with the migration log
// (owner != OwnerAt(bucket, epoch)).
//
// Flags (both `--flag N` and `--flag=N` spellings):
//   --jobs N            total jobs to replay          (default 4000)
//   --clients N         submitting client threads     (default 4)
//   --nodes N           service nodes in the cluster  (default 2)
//   --workers N         worker threads per node       (default 2)
//   --fpga_devices N    simulated FPGA devices/node   (default 1)
//   --buckets N         logical shard buckets         (default 64)
//   --keys N            shard-key universe size       (default 4096)
//   --zipf Z            shard-key skew                (default 1.0)
//   --seed N            workload seed                 (default 42)
//   --rate R            Poisson arrival rate, jobs/s  (default 5000)
//   --queue N           per-node admission bound (0 = auto: jobs when
//                       deterministic, 256 otherwise)
//   --deterministic B   1 = virtual-time replay (default), 0 = live
//   --migration M       on|off|1|0: hot-bucket rebalancing (default off)
//   --rebalance-every K rebalance scan cadence in routed jobs
//                       (default 512)
//   --top-k K           max buckets migrated per scan (default 4)
//   --join-every K      every K-th job is an equi-join (0 = off,
//                       default 64)
//   --policy P          adaptive|cpu|fpga|round-robin (default adaptive)
//   --sim_mode M        reference|fast                (default fast)
//   --sim_cache B       1 = memoize device run results (default 0)
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
#include "core/engine.h"
#include "datagen/workloads.h"
#include "datagen/zipf.h"
#include "dist/cluster.h"
#include "obs/report.h"
#include "svc/scheduler.h"

namespace fpart {
namespace {

struct Options {
  uint64_t jobs = 4000;
  size_t clients = 4;
  size_t nodes = 2;
  size_t workers = 2;
  size_t fpga_devices = 1;
  size_t buckets = 64;
  uint64_t keys = 4096;
  double zipf = 1.0;
  uint64_t seed = 42;
  double rate = 5000.0;
  size_t queue = 0;
  bool deterministic = true;
  bool migration = false;
  uint64_t rebalance_every = 512;
  size_t top_k = 4;
  uint64_t join_every = 64;
  svc::PlacementPolicy policy = svc::PlacementPolicy::kAdaptive;
  SimMode sim_mode = SimMode::kFast;
  bool sim_cache = false;
};

using bench::Fnv1a;
using bench::SizeClasses;

int Run(const Options& opt) {
  const std::vector<size_t> classes = SizeClasses();

  // Resident tables: one relation per size class, plus a unique-key pair
  // per class for the join jobs.
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

  // Precomputed workload: per-job size class, shard key, origin node and
  // Poisson arrival time — all derived only from --seed, so every replay
  // sees the same stream. Shard keys are Zipf ranks (rank 1 hottest).
  std::vector<size_t> job_class(opt.jobs);
  std::vector<uint64_t> job_key(opt.jobs);
  std::vector<size_t> job_origin(opt.jobs);
  std::vector<double> arrival(opt.jobs);
  {
    ZipfSampler size_zipf(classes.size(), 0.9, opt.seed);
    ZipfSampler key_zipf(opt.keys, opt.zipf, opt.seed ^ 0x5eedULL);
    Rng rng(opt.seed ^ 0xa5a5a5a5ULL);
    double t = 0.0;
    for (uint64_t i = 0; i < opt.jobs; ++i) {
      job_class[i] = static_cast<size_t>(size_zipf.Next() - 1);
      job_key[i] = key_zipf.Next();
      job_origin[i] = static_cast<size_t>(i % opt.nodes);
      double u = rng.NextDouble();
      if (u <= 0.0) u = 1e-12;
      t += -std::log(u) / opt.rate;
      arrival[i] = t;
    }
  }

  dist::ClusterConfig config;
  config.nodes = opt.nodes;
  config.shard_buckets = opt.buckets;
  config.migration = opt.migration;
  config.rebalance_every = opt.rebalance_every;
  config.rebalance_top_k = opt.top_k;
  config.node.deterministic = opt.deterministic;
  config.node.num_workers = opt.workers;
  config.node.fpga_devices = opt.fpga_devices;
  config.node.policy = opt.policy;
  config.node.queue_capacity =
      opt.queue > 0 ? opt.queue : (opt.deterministic ? opt.jobs : 256);
  config.node.sim_mode = opt.sim_mode;
  config.node.sim_cache = opt.sim_cache;
  dist::Cluster cluster(config);

  // One submission slot per job, each written by exactly one client
  // thread.
  std::vector<dist::ClusterSubmission> subs(opt.jobs);
  std::vector<uint8_t> submitted(opt.jobs, 0);
  std::vector<uint8_t> shed(opt.jobs, 0);

  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(opt.clients);
  for (size_t c = 0; c < opt.clients; ++c) {
    clients.emplace_back([&, c] {
      for (uint64_t i = c; i < opt.jobs; i += opt.clients) {
        if (!opt.deterministic) {
          std::this_thread::sleep_until(
              wall0 + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(arrival[i])));
        }
        svc::JobOptions jopts;
        jopts.arrival_seq = i;  // cluster-wide sequence
        jopts.virtual_arrival_seconds = arrival[i];
        Result<dist::ClusterSubmission> sub =
            [&]() -> Result<dist::ClusterSubmission> {
          if (opt.join_every > 0 && (i + 1) % opt.join_every == 0) {
            svc::JoinJobSpec join;
            join.r = &join_r[job_class[i]];
            join.s = &join_s[job_class[i]];
            join.fanout = 2048;
            return cluster.Submit(job_key[i], job_origin[i], join, jopts);
          }
          svc::PartitionJobSpec spec;
          spec.input = &tables[job_class[i]];
          spec.request.fanout = 2048;
          spec.request.hash = HashMethod::kMurmur;
          spec.request.output_mode = OutputMode::kHist;
          spec.request.sim_mode = opt.sim_mode;
          spec.request.sim_cache = opt.sim_cache;
          return cluster.Submit(job_key[i], job_origin[i], spec, jopts);
        }();
        if (sub.ok()) {
          subs[i] = std::move(sub).ValueUnsafe();
          submitted[i] = 1;
        } else if (sub.status().IsCapacityError()) {
          shed[i] = 1;
        } else {
          std::fprintf(stderr, "submit %llu failed: %s\n",
                       static_cast<unsigned long long>(i),
                       sub.status().ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  cluster.Shutdown();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  // Account every job exactly once, audit every stamped route against the
  // migration log, and fold the determinism hash.
  uint64_t completed = 0, failed = 0, cancelled = 0, shed_count = 0,
           lost = 0, epoch_violations = 0, remote_jobs = 0;
  std::vector<double> latencies, remote_hops;
  latencies.reserve(opt.jobs);
  uint64_t determinism_hash = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i < opt.jobs; ++i) {
    if (shed[i] != 0) {
      ++shed_count;
      continue;
    }
    if (submitted[i] == 0 || !subs[i].handle.valid()) {
      ++lost;
      continue;
    }
    const dist::ShardRoute& route = subs[i].route;
    if (cluster.shard_map().OwnerAt(route.bucket, route.epoch) !=
        route.owner) {
      ++epoch_violations;
    }
    auto outcome = subs[i].handle.TryGet();
    if (!outcome.has_value()) {
      ++lost;
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
      default:
        ++lost;
        continue;
    }
    if (subs[i].remote) {
      ++remote_jobs;
      remote_hops.push_back(subs[i].hop_seconds);
    }
    // Latency from arrival at the *origin* node: the network hop plus
    // queue wait plus service time — on the virtual clock when replaying
    // (noise-free), on the wall clock live.
    const double latency =
        subs[i].hop_seconds +
        (opt.deterministic
             ? outcome->virtual_queue_seconds + outcome->virtual_run_seconds
             : outcome->queue_seconds + outcome->run_seconds);
    latencies.push_back(latency);
    determinism_hash = Fnv1a(determinism_hash, i);
    determinism_hash = Fnv1a(determinism_hash, job_key[i]);
    determinism_hash = Fnv1a(determinism_hash, route.bucket);
    determinism_hash = Fnv1a(determinism_hash, route.owner);
    determinism_hash = Fnv1a(determinism_hash, route.epoch);
    determinism_hash =
        Fnv1a(determinism_hash, static_cast<uint64_t>(outcome->backend));
    determinism_hash = Fnv1a(determinism_hash, outcome->checksum);
  }

  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double p) {
    if (latencies.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * (latencies.size() - 1));
    return latencies[idx] * 1e6;
  };
  double mean_us = 0.0;
  for (double l : latencies) mean_us += l;
  mean_us = latencies.empty() ? 0.0 : mean_us / latencies.size() * 1e6;
  double mean_hop_us = 0.0;
  for (double h : remote_hops) mean_hop_us += h;
  mean_hop_us =
      remote_hops.empty() ? 0.0 : mean_hop_us / remote_hops.size() * 1e6;

  obs::BenchReport report("ext_cluster");
  report.ConfigUInt("jobs", opt.jobs);
  report.ConfigUInt("clients", opt.clients);
  report.ConfigUInt("nodes", opt.nodes);
  report.ConfigUInt("workers_per_node", opt.workers);
  report.ConfigUInt("fpga_devices_per_node", opt.fpga_devices);
  report.ConfigUInt("buckets", opt.buckets);
  report.ConfigUInt("keys", opt.keys);
  report.ConfigDouble("zipf", opt.zipf);
  report.ConfigUInt("seed", opt.seed);
  report.ConfigDouble("rate_jobs_per_sec", opt.rate);
  report.ConfigUInt("queue_capacity", config.node.queue_capacity);
  report.ConfigUInt("deterministic", opt.deterministic ? 1 : 0);
  report.ConfigUInt("migration", opt.migration ? 1 : 0);
  report.ConfigUInt("rebalance_every", opt.rebalance_every);
  report.ConfigUInt("rebalance_top_k", opt.top_k);
  report.ConfigUInt("join_every", opt.join_every);
  report.ConfigStr("policy", svc::PlacementPolicyName(opt.policy));
  report.ConfigStr("sim_mode", SimModeName(opt.sim_mode));
  report.ConfigUInt("sim_cache", opt.sim_cache ? 1 : 0);
  report.ConfigDouble("link_gbs", config.network.link_gbs);
  report.ConfigDouble("scale", BenchScale());
  report.Result("latency", {{"p50_us", pct(0.50)},
                            {"p95_us", pct(0.95)},
                            {"p99_us", pct(0.99)},
                            {"mean_us", mean_us}});
  report.Result(
      "remote",
      {{"submitted", static_cast<double>(cluster.remote_submitted())},
       {"completed", static_cast<double>(cluster.remote_completed())},
       {"bytes", static_cast<double>(cluster.remote_bytes())},
       {"share", opt.jobs > 0 ? static_cast<double>(remote_jobs) /
                                    static_cast<double>(opt.jobs)
                              : 0.0},
       {"mean_hop_us", mean_hop_us}});
  report.Result(
      "migration",
      {{"migrations", static_cast<double>(cluster.migrations())},
       {"rebalances", static_cast<double>(cluster.rebalances())},
       {"epoch", static_cast<double>(cluster.shard_map().epoch())},
       {"load_imbalance", cluster.load_imbalance()}});
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    report.Result(
        "node_" + std::to_string(n),
        {{"jobs", static_cast<double>(cluster.node_jobs(n))},
         {"remote_jobs", static_cast<double>(cluster.node_remote_jobs(n))},
         {"load", cluster.node_load(n)},
         {"virtual_makespan_seconds",
          cluster.node_virtual_makespan_seconds(n)}});
  }
  report.Result("jobs_accounted",
                {{"completed", static_cast<double>(completed)},
                 {"failed", static_cast<double>(failed)},
                 {"cancelled", static_cast<double>(cancelled)},
                 {"shed", static_cast<double>(shed_count)},
                 {"lost", static_cast<double>(lost)},
                 {"epoch_violations",
                  static_cast<double>(epoch_violations)}});
  report.ResultDouble("wall_seconds", wall_seconds);
  // Goodput: completed jobs only; shed, failed and cancelled jobs are not
  // throughput.
  report.ResultDouble("jobs_per_sec",
                      wall_seconds > 0 ? completed / wall_seconds : 0.0);
  if (opt.deterministic) {
    // Model-time throughput: the cluster makespan is the latest node's
    // virtual clock — it shrinks as --nodes grows even when all the
    // simulated nodes are squeezed onto one host core.
    const double makespan = cluster.virtual_makespan_seconds();
    report.ResultDouble("virtual_makespan_seconds", makespan);
    report.ResultDouble("virtual_jobs_per_sec",
                        makespan > 0 ? completed / makespan : 0.0);
  }
  report.ResultUInt("determinism_hash", determinism_hash);
  report.Print();

  const uint64_t accounted = completed + failed + cancelled + shed_count;
  if (lost != 0 || accounted != opt.jobs) {
    std::fprintf(stderr,
                 "job accounting broken: %llu accounted of %llu (%llu "
                 "lost)\n",
                 static_cast<unsigned long long>(accounted),
                 static_cast<unsigned long long>(opt.jobs),
                 static_cast<unsigned long long>(lost));
    return 1;
  }
  if (epoch_violations != 0) {
    std::fprintf(stderr,
                 "epoch audit failed: %llu routes disagree with the "
                 "migration log\n",
                 static_cast<unsigned long long>(epoch_violations));
    return 1;
  }
  if (failed != 0) return 1;
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
    } else if (fpart::ParseFlag(argc, argv, &i, "--nodes", &v)) {
      opt.nodes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--workers", &v)) {
      opt.workers = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--fpga_devices", &v)) {
      opt.fpga_devices = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--buckets", &v)) {
      opt.buckets = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--keys", &v)) {
      opt.keys = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--zipf", &v)) {
      opt.zipf = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--rate", &v)) {
      opt.rate = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--queue", &v)) {
      opt.queue = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--deterministic", &v)) {
      opt.deterministic = std::strtoull(v.c_str(), nullptr, 10) != 0;
    } else if (fpart::ParseFlag(argc, argv, &i, "--migration", &v)) {
      if (v == "on" || v == "1") {
        opt.migration = true;
      } else if (v == "off" || v == "0") {
        opt.migration = false;
      } else {
        std::fprintf(stderr, "--migration must be on|off|1|0\n");
        return 2;
      }
    } else if (fpart::ParseFlag(argc, argv, &i, "--rebalance-every", &v)) {
      opt.rebalance_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--top-k", &v)) {
      opt.top_k = std::strtoull(v.c_str(), nullptr, 10);
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
    } else if (fpart::ParseFlag(argc, argv, &i, "--sim_cache", &v)) {
      opt.sim_cache = std::strtoull(v.c_str(), nullptr, 10) != 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.jobs == 0 || opt.clients == 0) {
    std::fprintf(stderr, "--jobs and --clients must be positive\n");
    return 2;
  }
  if (opt.nodes == 0) opt.nodes = 1;
  if (opt.keys == 0) opt.keys = 1;
  if (opt.rate <= 0) opt.rate = 5000.0;
  (void)json;  // the report is always JSON; --json kept for script parity
  return fpart::Run(opt);
}
