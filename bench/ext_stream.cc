// Closed-loop driver of the streaming subsystem (docs/streaming.md): N
// client threads replay a precomputed op stream — ingest batches and
// point reads whose keys follow a *drifting* Zipf distribution (exponent
// ramp theta0 -> theta1 over a shift window, optional hot-set rotation) —
// against one StreamStore, while a RepartitionManager (--repartition on)
// splits hot buckets and merges cold buddies through a svc scheduler's
// kRebalance jobs. Every --foreground-every-th op additionally submits a
// small partition job, so rebalance work visibly competes in the WFQ.
//
// The headline A/B: with --repartition on, read p99 in the post-shift
// window should be measurably below the off arm, because the skewed-hot
// bucket is repeatedly isolated down to (asymptotically) just the hot
// key's own tuples. Read cost is reported as *scanned tuples* — exact and
// replay-stable — alongside wall microseconds.
//
// In --deterministic 1 (default) the whole run is a bit-stable replay:
// ops apply in one global order (OpSequencer), detector ticks are
// count-driven, epoch flips commit at tick barriers, and the determinism
// hash folds every op's (key, matches, scanned, epoch), every flip log
// entry and the final store checksum — identical across --clients counts
// (a CI gate). The driver exits non-zero if any ingested key is lost or
// duplicated (order-independent fingerprint audit) or a foreground job
// fails.
//
// Flags (both `--flag N` and `--flag=N` spellings):
//   --ops N              total ops                     (default 20000)
//   --batch N            tuples per ingest op (scaled by FPART_SCALE,
//                        default 256)
//   --clients N          client threads                (default 3)
//   --read-frac F        fraction of ops that are reads (default 0.5)
//   --keys N             key universe size             (default 65536)
//   --theta0 F           pre-shift Zipf exponent       (default 0.5)
//   --theta1 F           post-shift Zipf exponent      (default 1.2)
//   --shift-start F      shift window start, fraction of ops (default 0.4)
//   --shift-end F        shift window end, fraction of ops   (default 0.6)
//   --rotate-every N     rotate the hot-key set every N ops (0 = off)
//   --seed N             workload seed                 (default 42)
//   --deterministic B    1 = sequenced replay (default), 0 = live
//   --repartition M      on|off|1|0                    (default on)
//   --tick-every N       detector tick cadence, drains (default 4)
//   --flip-delay N       deterministic flip barrier, ticks (default 1)
//   --split-min N        split floor, tuples (scaled; default 4096)
//   --hysteresis N       consecutive ticks before an action (default 2)
//   --cooldown N         post-flip immunity, ticks     (default 4)
//   --initial-depth N    log2 initial buckets          (default 4)
//   --max-depth N        log2 bucket ceiling           (default 12)
//   --buffer N           ingest buffer bound, tuples (scaled; default 2048)
//   --workers N          svc worker threads            (default 2)
//   --queue N            svc admission bound (0 = auto)
//   --rate R             virtual Poisson arrival rate, ops/s (default 20000)
//   --foreground-every N every N-th op submits a partition job (0 = off,
//                        default 64)
//   --windows N          read-latency time buckets     (default 20)
//   --drain-engine E     cpu|fpga                      (default cpu)
//   --sim_cache B        memoize FPGA drain runs       (default 1)
#include <algorithm>
#include <atomic>
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
#include "obs/report.h"
#include "stream/repartition.h"
#include "svc/scheduler.h"

namespace fpart {
namespace {

struct Options {
  uint64_t ops = 20000;
  size_t batch = 256;
  size_t clients = 3;
  double read_frac = 0.5;
  uint64_t keys = 65536;
  double theta0 = 0.5;
  double theta1 = 1.2;
  double shift_start = 0.4;
  double shift_end = 0.6;
  uint64_t rotate_every = 0;
  uint64_t seed = 42;
  bool deterministic = true;
  bool repartition = true;
  uint64_t tick_every = 4;
  uint64_t flip_delay = 1;
  uint64_t split_min = 4096;
  int hysteresis = 2;
  int cooldown = 4;
  uint32_t initial_depth = 4;
  uint32_t max_depth = 12;
  size_t buffer = 2048;
  size_t workers = 2;
  size_t queue = 0;
  double rate = 20000.0;
  uint64_t foreground_every = 64;
  size_t windows = 20;
  Engine drain_engine = Engine::kCpu;
  bool sim_cache = true;
};

using bench::Fnv1a;

double Percentile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(v->size() - 1) + 0.5);
  return static_cast<double>((*v)[std::min(idx, v->size() - 1)]);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One op of the precomputed stream.
enum class OpKind : uint8_t { kIngest, kRead };

struct Workload {
  std::vector<OpKind> kinds;
  std::vector<uint32_t> ordinal;     // per-op: ingest# or read#
  std::vector<Tuple8> ingest;        // flat: ingest# i -> [i*batch, ...)
  std::vector<uint32_t> read_keys;   // read# -> key
  std::vector<double> arrivals;      // virtual arrival seconds per op
  uint64_t ingest_fingerprint = 0;   // sum of KeyFingerprint over ingest
  uint64_t ingest_tuples = 0;
};

Workload BuildWorkload(const Options& opt, size_t batch) {
  Workload w;
  w.kinds.resize(opt.ops);
  w.ordinal.resize(opt.ops);
  w.arrivals.resize(opt.ops);

  ZipfDriftSchedule sched;
  sched.theta0 = opt.theta0;
  sched.theta1 = opt.theta1;
  sched.shift_start = static_cast<uint64_t>(
      opt.shift_start * static_cast<double>(opt.ops));
  sched.shift_end =
      static_cast<uint64_t>(opt.shift_end * static_cast<double>(opt.ops));
  sched.rotate_every = opt.rotate_every;
  sched.seed = opt.seed;
  // Writers and readers share the logical clock (the op index), so their
  // hot sets stay aligned through the theta ramp and rotations.
  DriftingZipfSampler write_keys(opt.keys, sched);
  DriftingZipfSampler read_keys(opt.keys, sched);

  Rng mix_rng(opt.seed ^ 0x6d697865722d6f70ULL);
  Rng arrival_rng(opt.seed ^ 0x6172726976616c73ULL);
  double t_virt = 0.0;
  uint32_t next_ingest = 0, next_read = 0;
  uint32_t payload = 0;
  for (uint64_t i = 0; i < opt.ops; ++i) {
    t_virt += -std::log(1.0 - arrival_rng.NextDouble()) / opt.rate;
    w.arrivals[i] = t_virt;
    const bool read = mix_rng.NextDouble() < opt.read_frac;
    if (read) {
      w.kinds[i] = OpKind::kRead;
      w.ordinal[i] = next_read++;
      w.read_keys.push_back(
          static_cast<uint32_t>(read_keys.NextAt(i)));
    } else {
      w.kinds[i] = OpKind::kIngest;
      w.ordinal[i] = next_ingest++;
      for (size_t t = 0; t < batch; ++t) {
        Tuple8 tup;
        tup.key = static_cast<uint32_t>(write_keys.NextAt(i));
        tup.payload = payload++;
        w.ingest.push_back(tup);
        w.ingest_fingerprint += stream::StreamStore::KeyFingerprint(tup.key);
      }
    }
  }
  w.ingest_tuples = w.ingest.size();
  return w;
}

// Per-phase / per-window read latency accumulators (merged across
// clients after the join; the multisets are partition-stable, so the
// percentiles are independent of the client count).
struct ReadStats {
  std::vector<std::vector<uint64_t>> phase_scan{3};
  std::vector<std::vector<uint64_t>> phase_us{3};
  std::vector<std::vector<uint64_t>> window_scan;
  std::vector<std::vector<uint64_t>> window_us;
  uint64_t reads = 0;

  explicit ReadStats(size_t windows)
      : window_scan(windows), window_us(windows) {}
};

int Run(const Options& opt) {
  const double scale = BenchScale();
  const size_t batch =
      std::max<size_t>(32, static_cast<size_t>(opt.batch * scale));
  const uint64_t split_min = std::max<uint64_t>(
      64, static_cast<uint64_t>(static_cast<double>(opt.split_min) * scale));
  const size_t buffer = std::max<size_t>(
      batch, static_cast<size_t>(static_cast<double>(opt.buffer) * scale));

  const Workload w = BuildWorkload(opt, batch);
  const uint64_t shift_start_op = static_cast<uint64_t>(
      opt.shift_start * static_cast<double>(opt.ops));
  const uint64_t shift_end_op =
      static_cast<uint64_t>(opt.shift_end * static_cast<double>(opt.ops));
  const uint64_t window_ops =
      std::max<uint64_t>(1, (opt.ops + opt.windows - 1) / opt.windows);

  // -- The system under test -------------------------------------------
  stream::StreamStoreConfig store_cfg;
  store_cfg.initial_depth = opt.initial_depth;
  store_cfg.max_depth = opt.max_depth;
  store_cfg.drain_engine = opt.drain_engine;
  store_cfg.sim_cache = opt.sim_cache;
  store_cfg.buffer_tuples = buffer;
  stream::StreamStore store(store_cfg);

  svc::SchedulerConfig sched_cfg;
  sched_cfg.num_workers = opt.workers;
  sched_cfg.deterministic = opt.deterministic;
  sched_cfg.queue_capacity =
      opt.queue > 0 ? opt.queue : (opt.deterministic ? opt.ops + 16 : 1024);
  sched_cfg.sim_cache = opt.sim_cache;
  sched_cfg.name = "stream";
  svc::Scheduler scheduler(sched_cfg);

  std::atomic<uint64_t> arrival_seq{0};
  // The op currently executing stamps its virtual arrival here. In
  // deterministic mode every access happens inside the sequenced region;
  // in live mode the stamps are concurrent (and unread — the virtual_now
  // callback is only installed for deterministic runs), so the cell must
  // still be atomic to keep the racing dead stores defined.
  std::atomic<double> virt_now{0.0};

  stream::RepartitionConfig mgr_cfg;
  mgr_cfg.enabled = opt.repartition;
  mgr_cfg.tick_every_drains = opt.tick_every;
  mgr_cfg.flip_delay_ticks = opt.flip_delay;
  mgr_cfg.deterministic = opt.deterministic;
  mgr_cfg.detector.split_min_tuples = split_min;
  mgr_cfg.detector.hysteresis_ticks = opt.hysteresis;
  mgr_cfg.detector.cooldown_ticks = opt.cooldown;
  mgr_cfg.detector.max_depth = opt.max_depth;
  mgr_cfg.detector.min_depth = store.config().min_depth;
  if (opt.deterministic) {
    mgr_cfg.next_arrival_seq = [&arrival_seq] {
      return arrival_seq.fetch_add(1, std::memory_order_relaxed);
    };
    mgr_cfg.virtual_now = [&virt_now] {
      return virt_now.load(std::memory_order_relaxed);
    };
  }
  stream::RepartitionManager manager(&store, &scheduler, mgr_cfg);

  // Foreground competition: one small resident table, partitioned again
  // and again through the same scheduler/WFQ the rebalance jobs use.
  Relation<Tuple8> fg_table;
  if (opt.foreground_every > 0) {
    auto rel = GenerateRawRelation(
        std::max<size_t>(512, static_cast<size_t>(16384 * scale)),
        KeyDistribution::kRandom, opt.seed + 17);
    if (!rel.ok()) {
      std::fprintf(stderr, "datagen failed: %s\n",
                   rel.status().message().c_str());
      return 1;
    }
    fg_table = std::move(rel).ValueUnsafe();
  }

  stream::OpSequencer sequencer;
  std::mutex fg_mu;
  std::vector<svc::JobHandle> fg_handles;
  uint64_t det_hash = 0xcbf29ce484222325ULL;  // sequenced-region access only
  std::atomic<uint64_t> ingest_failures{0};

  std::vector<ReadStats> stats(opt.clients, ReadStats(opt.windows));
  const uint64_t wall0 = NowNs();

  auto client_fn = [&](size_t c) {
    ReadStats& st = stats[c];
    for (uint64_t i = c; i < opt.ops; i += opt.clients) {
      if (opt.deterministic) sequencer.Enter(i);
      virt_now.store(w.arrivals[i], std::memory_order_relaxed);
      if (w.kinds[i] == OpKind::kIngest) {
        const Tuple8* tuples =
            w.ingest.data() + static_cast<size_t>(w.ordinal[i]) * batch;
        const uint64_t drains_before = store.drains();
        Status s = store.Ingest(tuples, batch);
        if (!s.ok()) ingest_failures.fetch_add(1, std::memory_order_relaxed);
        for (uint64_t d = drains_before; d < store.drains(); ++d) {
          manager.OnDrain();
        }
        if (opt.deterministic) {
          det_hash = Fnv1a(det_hash, i);
          det_hash = Fnv1a(det_hash, store.drains());
          det_hash = Fnv1a(det_hash, store.epoch());
        }
      } else {
        const uint32_t key = w.read_keys[w.ordinal[i]];
        const uint64_t t0 = NowNs();
        const stream::ReadResult r = store.Read(key);
        const uint64_t us = (NowNs() - t0) / 1000;
        const size_t phase =
            i < shift_start_op ? 0 : (i < shift_end_op ? 1 : 2);
        const size_t win =
            std::min(static_cast<size_t>(i / window_ops), opt.windows - 1);
        st.phase_scan[phase].push_back(r.scanned);
        st.phase_us[phase].push_back(us);
        st.window_scan[win].push_back(r.scanned);
        st.window_us[win].push_back(us);
        ++st.reads;
        if (opt.deterministic) {
          det_hash = Fnv1a(det_hash, i);
          det_hash = Fnv1a(det_hash, key);
          det_hash = Fnv1a(det_hash, r.matches);
          det_hash = Fnv1a(det_hash, r.scanned);
          det_hash = Fnv1a(det_hash, r.epoch);
        }
      }
      if (opt.foreground_every > 0 && i > 0 &&
          i % opt.foreground_every == 0) {
        svc::PartitionJobSpec spec;
        spec.input = &fg_table;
        spec.request.fanout = 512;
        spec.request.hash = HashMethod::kMurmur;
        svc::JobOptions jopts;
        jopts.job_class = svc::JobClass::kBatch;
        jopts.pinned = svc::Backend::kCpu;
        if (opt.deterministic) {
          jopts.arrival_seq =
              arrival_seq.fetch_add(1, std::memory_order_relaxed);
          jopts.virtual_arrival_seconds = w.arrivals[i];
        }
        auto handle = scheduler.Submit(spec, jopts);
        if (handle.ok()) {
          std::lock_guard<std::mutex> lock(fg_mu);
          fg_handles.push_back(std::move(handle).ValueUnsafe());
        }
      }
      if (opt.deterministic) sequencer.Exit();
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(opt.clients);
  for (size_t c = 0; c < opt.clients; ++c) clients.emplace_back(client_fn, c);
  for (auto& t : clients) t.join();

  // Tail: drain the buffer, let pending rebuilds land, stop the service.
  Status flush = store.Flush();
  if (!flush.ok()) {
    std::fprintf(stderr, "final flush failed: %s\n",
                 flush.message().c_str());
    return 1;
  }
  manager.Quiesce();
  uint64_t fg_completed = 0, fg_failed = 0;
  for (const auto& h : fg_handles) {
    const svc::JobOutcome& out = h.Wait();
    if (out.state == svc::JobState::kCompleted) {
      ++fg_completed;
      if (opt.deterministic) {
        det_hash = Fnv1a(det_hash, static_cast<uint64_t>(out.backend));
        det_hash = Fnv1a(det_hash, out.checksum);
      }
    } else {
      ++fg_failed;
    }
  }
  scheduler.Shutdown();
  const double wall_seconds =
      static_cast<double>(NowNs() - wall0) * 1e-9;

  // -- Audit: zero lost / duplicated keys across every epoch flip -------
  const uint64_t resident = store.total_tuples();
  const uint64_t lost =
      w.ingest_tuples > resident ? w.ingest_tuples - resident : 0;
  const uint64_t duplicated =
      resident > w.ingest_tuples ? resident - w.ingest_tuples : 0;
  const bool checksum_ok = store.KeyChecksum() == w.ingest_fingerprint;
  const auto flips = store.FlipLog();
  uint64_t splits = 0, merges = 0;
  for (const auto& f : flips) {
    (f.split ? splits : merges)++;
    if (opt.deterministic) {
      det_hash = Fnv1a(det_hash, f.epoch);
      det_hash = Fnv1a(det_hash, f.split ? 1 : 0);
      det_hash = Fnv1a(det_hash, f.pattern);
      det_hash = Fnv1a(det_hash, f.depth);
      det_hash = Fnv1a(det_hash, f.watermark);
    }
  }
  if (opt.deterministic) {
    det_hash = Fnv1a(det_hash, store.KeyChecksum());
    det_hash = Fnv1a(det_hash, resident);
    det_hash = Fnv1a(det_hash, store.epoch());
  }

  // -- Merge per-client read stats --------------------------------------
  ReadStats merged(opt.windows);
  for (auto& st : stats) {
    merged.reads += st.reads;
    for (size_t p = 0; p < 3; ++p) {
      merged.phase_scan[p].insert(merged.phase_scan[p].end(),
                                  st.phase_scan[p].begin(),
                                  st.phase_scan[p].end());
      merged.phase_us[p].insert(merged.phase_us[p].end(),
                                st.phase_us[p].begin(),
                                st.phase_us[p].end());
    }
    for (size_t v = 0; v < opt.windows; ++v) {
      merged.window_scan[v].insert(merged.window_scan[v].end(),
                                   st.window_scan[v].begin(),
                                   st.window_scan[v].end());
      merged.window_us[v].insert(merged.window_us[v].end(),
                                 st.window_us[v].begin(),
                                 st.window_us[v].end());
    }
  }

  // -- Report -----------------------------------------------------------
  obs::BenchReport report("ext_stream");
  report.ConfigUInt("ops", opt.ops);
  report.ConfigUInt("batch", batch);
  report.ConfigUInt("clients", opt.clients);
  report.ConfigDouble("read_frac", opt.read_frac);
  report.ConfigUInt("keys", opt.keys);
  report.ConfigDouble("theta0", opt.theta0);
  report.ConfigDouble("theta1", opt.theta1);
  report.ConfigUInt("shift_start_op", shift_start_op);
  report.ConfigUInt("shift_end_op", shift_end_op);
  report.ConfigUInt("rotate_every", opt.rotate_every);
  report.ConfigUInt("seed", opt.seed);
  report.ConfigUInt("deterministic", opt.deterministic ? 1 : 0);
  report.ConfigUInt("repartition", opt.repartition ? 1 : 0);
  report.ConfigUInt("tick_every_drains", opt.tick_every);
  report.ConfigUInt("flip_delay_ticks", opt.flip_delay);
  report.ConfigUInt("split_min_tuples", split_min);
  report.ConfigUInt("hysteresis_ticks",
                    static_cast<uint64_t>(opt.hysteresis));
  report.ConfigUInt("cooldown_ticks", static_cast<uint64_t>(opt.cooldown));
  report.ConfigUInt("initial_depth", opt.initial_depth);
  report.ConfigUInt("max_depth", opt.max_depth);
  report.ConfigUInt("buffer_tuples", buffer);
  report.ConfigUInt("workers", opt.workers);
  report.ConfigUInt("queue_capacity", sched_cfg.queue_capacity);
  report.ConfigDouble("rate_ops_per_sec", opt.rate);
  report.ConfigUInt("foreground_every", opt.foreground_every);
  report.ConfigUInt("windows", opt.windows);
  report.ConfigStr("drain_engine",
                   opt.drain_engine == Engine::kCpu ? "cpu" : "fpga");
  report.ConfigUInt("sim_cache", opt.sim_cache ? 1 : 0);
  report.ConfigDouble("scale", scale);

  report.Result("ingest",
                {{"tuples", static_cast<double>(w.ingest_tuples)},
                 {"batches", static_cast<double>(store.drains())},
                 {"tuples_per_sec",
                  static_cast<double>(w.ingest_tuples) / wall_seconds}});
  report.Result("store",
                {{"buckets", static_cast<double>(store.num_buckets())},
                 {"depth", static_cast<double>(store.global_depth())},
                 {"epoch", static_cast<double>(store.epoch())},
                 {"imbalance", store.imbalance()}});
  report.Result(
      "rebalance",
      {{"jobs", static_cast<double>(manager.jobs_submitted())},
       {"splits", static_cast<double>(splits)},
       {"merges", static_cast<double>(merges)},
       {"stale", static_cast<double>(store.stale_commits())},
       {"abandoned", static_cast<double>(manager.jobs_abandoned())},
       {"ticks", static_cast<double>(manager.ticks())}});

  const char* phase_names[3] = {"phase_pre", "phase_shift", "phase_post"};
  for (size_t p = 0; p < 3; ++p) {
    report.Result(phase_names[p],
                  {{"reads",
                    static_cast<double>(merged.phase_scan[p].size())},
                   {"scan_p50", Percentile(&merged.phase_scan[p], 0.50)},
                   {"scan_p95", Percentile(&merged.phase_scan[p], 0.95)},
                   {"scan_p99", Percentile(&merged.phase_scan[p], 0.99)},
                   {"p99_us", Percentile(&merged.phase_us[p], 0.99)}});
  }
  for (size_t v = 0; v < opt.windows; ++v) {
    char name[32];
    std::snprintf(name, sizeof(name), "window_%02zu", v);
    report.Result(name,
                  {{"op_lo", static_cast<double>(v * window_ops)},
                   {"reads",
                    static_cast<double>(merged.window_scan[v].size())},
                   {"scan_p50", Percentile(&merged.window_scan[v], 0.50)},
                   {"scan_p99", Percentile(&merged.window_scan[v], 0.99)},
                   {"p99_us", Percentile(&merged.window_us[v], 0.99)}});
  }
  report.Result("keys_accounted",
                {{"ingested", static_cast<double>(w.ingest_tuples)},
                 {"resident", static_cast<double>(resident)},
                 {"lost", static_cast<double>(lost)},
                 {"duplicated", static_cast<double>(duplicated)},
                 {"checksum_ok", checksum_ok ? 1.0 : 0.0}});
  report.Result("foreground",
                {{"jobs", static_cast<double>(fg_handles.size())},
                 {"completed", static_cast<double>(fg_completed)},
                 {"failed", static_cast<double>(fg_failed)}});
  report.ResultDouble("wall_seconds", wall_seconds);
  report.ResultDouble("reads_per_sec",
                      static_cast<double>(merged.reads) / wall_seconds);
  if (opt.deterministic) {
    report.ResultUInt("determinism_hash", det_hash);
    report.ResultDouble("virtual_makespan_seconds",
                        scheduler.virtual_makespan_seconds());
  }
  report.Print();

  if (ingest_failures.load() != 0) {
    std::fprintf(stderr, "%llu ingest calls failed\n",
                 static_cast<unsigned long long>(ingest_failures.load()));
    return 1;
  }
  if (lost != 0 || duplicated != 0 || !checksum_ok) {
    std::fprintf(stderr,
                 "key audit failed: lost=%llu duplicated=%llu "
                 "checksum_ok=%d\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(duplicated),
                 checksum_ok ? 1 : 0);
    return 1;
  }
  if (fg_failed != 0) {
    std::fprintf(stderr, "%llu foreground jobs failed\n",
                 static_cast<unsigned long long>(fg_failed));
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
    } else if (fpart::ParseFlag(argc, argv, &i, "--ops", &v)) {
      opt.ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--batch", &v)) {
      opt.batch = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--clients", &v)) {
      opt.clients = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--read-frac", &v)) {
      opt.read_frac = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--keys", &v)) {
      opt.keys = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--theta0", &v)) {
      opt.theta0 = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--theta1", &v)) {
      opt.theta1 = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--shift-start", &v)) {
      opt.shift_start = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--shift-end", &v)) {
      opt.shift_end = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--rotate-every", &v)) {
      opt.rotate_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--deterministic", &v)) {
      opt.deterministic = std::strtoull(v.c_str(), nullptr, 10) != 0;
    } else if (fpart::ParseFlag(argc, argv, &i, "--repartition", &v)) {
      if (v == "on" || v == "1") {
        opt.repartition = true;
      } else if (v == "off" || v == "0") {
        opt.repartition = false;
      } else {
        std::fprintf(stderr, "--repartition must be on|off|1|0\n");
        return 2;
      }
    } else if (fpart::ParseFlag(argc, argv, &i, "--tick-every", &v)) {
      opt.tick_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--flip-delay", &v)) {
      opt.flip_delay = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--split-min", &v)) {
      opt.split_min = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--hysteresis", &v)) {
      opt.hysteresis = static_cast<int>(std::strtol(v.c_str(), nullptr, 10));
    } else if (fpart::ParseFlag(argc, argv, &i, "--cooldown", &v)) {
      opt.cooldown = static_cast<int>(std::strtol(v.c_str(), nullptr, 10));
    } else if (fpart::ParseFlag(argc, argv, &i, "--initial-depth", &v)) {
      opt.initial_depth =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (fpart::ParseFlag(argc, argv, &i, "--max-depth", &v)) {
      opt.max_depth =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (fpart::ParseFlag(argc, argv, &i, "--buffer", &v)) {
      opt.buffer = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--workers", &v)) {
      opt.workers = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--queue", &v)) {
      opt.queue = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--rate", &v)) {
      opt.rate = std::strtod(v.c_str(), nullptr);
    } else if (fpart::ParseFlag(argc, argv, &i, "--foreground-every", &v)) {
      opt.foreground_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--windows", &v)) {
      opt.windows = std::strtoull(v.c_str(), nullptr, 10);
    } else if (fpart::ParseFlag(argc, argv, &i, "--drain-engine", &v)) {
      if (v == "cpu") {
        opt.drain_engine = fpart::Engine::kCpu;
      } else if (v == "fpga") {
        opt.drain_engine = fpart::Engine::kFpgaSim;
      } else {
        std::fprintf(stderr, "--drain-engine must be cpu|fpga\n");
        return 2;
      }
    } else if (fpart::ParseFlag(argc, argv, &i, "--sim_cache", &v)) {
      opt.sim_cache = std::strtoull(v.c_str(), nullptr, 10) != 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.ops == 0 || opt.clients == 0) {
    std::fprintf(stderr, "--ops and --clients must be positive\n");
    return 2;
  }
  if (opt.keys == 0) opt.keys = 1;
  if (opt.rate <= 0) opt.rate = 20000.0;
  if (opt.windows == 0) opt.windows = 1;
  if (opt.shift_end < opt.shift_start) opt.shift_end = opt.shift_start;
  (void)json;  // the report is always JSON; --json kept for script parity
  return fpart::Run(opt);
}
