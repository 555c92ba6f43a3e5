// The program behind the repository's end-to-end benchmark
// (bench/e2e/README.md).
// One process runs exactly one workload:
//
//   e2e_bench --workload NAME --seed N [--seconds S] [--trace FILE]
//
//   batch_cold    closed loop, one caller: rounds of CpuPartition, FPGA PAD,
//                 FPGA HIST and one HybridJoin over a relation larger than
//                 the last-level cache.
//   svc_open      open loop, one generator thread: Poisson job arrivals
//                 against a live svc::Scheduler in three phases (low, sat,
//                 probe).
//   svc_replay    one thread replays a fixed job stream in deterministic
//                 mode, pass after pass; every pass must hash identically.
//   stream_drift  closed loop, one client: a drifting-Zipf op stream against
//                 StreamStore + RepartitionManager in deterministic mode.
//
// e2e_bench calls only public APIs and times each call from outside. All
// inputs derive from --seed; relation sizes scale with FPART_SCALE. The
// end-to-end metrics are scaled to a reference host speed (HostSpeed); the
// unscaled values are printed beside them. It prints one item per line:
//
//   metric NAME VALUE UNIT
//   note NAME TEXT
//   fail TEXT
//   ops ATTEMPTED FAILED
//
// and exits 0 only when every output check passed. With --trace FILE it
// also keeps spans in memory (one root span "op" per operation, one child
// per layer call), writes them to FILE as Chrome-trace JSON at exit, and
// prints the per-layer metrics computed from them.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "datagen/workloads.h"
#include "datagen/zipf.h"
#include "fpga/partitioner.h"
#include "hash/hash_function.h"
#include "hash/murmur.h"
#include "join/hybrid_join.h"
#include "obs/metrics.h"
#include "stream/repartition.h"
#include "svc/scheduler.h"

namespace fpart::e2e {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// Host seconds since process start; every stamp of a run uses this clock.
double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

void SleepUntil(double t) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(t)));
}

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

/// Median that averages the two middle values of an even sample, so a
/// handful of rounds or passes still gives a smooth estimate.
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (b * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One term of an order-independent key-multiset fingerprint (the sum of
/// the terms over all keys).
uint64_t KeyFp(uint32_t key) { return Murmur64(key); }

/// Generated keys must never equal the padding sentinel the partitioners
/// write into partially filled cache lines; that key would vanish.
constexpr uint32_t kDummy32 = static_cast<uint32_t>(kDummyKey);

bool HasDummyKey(const Relation<Tuple8>& rel) {
  return std::any_of(rel.begin(), rel.end(),
                     [](const Tuple8& t) { return t.key == kDummy32; });
}

/// Peak resident set so far.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

/// Collects what the process prints: metrics, failures and op counts.
class Report {
 public:
  /// A non-finite value is a failed check, never printed: the result line
  /// must stay strict JSON.
  void Metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " is not finite");
      return;
    }
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
  }
  void Note(const char* name, const std::string& text) {
    std::printf("note %s %s\n", name, text.c_str());
  }
  void Attempted(uint64_t n) { attempted_ += n; }
  /// One failed op (or failed whole-run check). Only the first few reasons
  /// are printed; all are counted.
  void Fail(const std::string& why) {
    if (failed_++ < 20) std::printf("fail %s\n", why.c_str());
  }
  int Finish() {
    std::printf("ops %llu %llu\n", static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    std::fflush(stdout);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// \brief In-memory span recorder. Spans are recorded by the benchmark's own
/// thread only, around the calls it makes into each layer; job spans whose ends
/// happen on scheduler threads are rebuilt from the stamps the benchmark kept.
/// When tracing is off every call is a single branch.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  bool on() const { return on_; }
  size_t size() const { return spans_.size(); }

  /// Start a span; returns its index (-1 when tracing is off).
  int64_t Open(const char* name, uint64_t op, int64_t parent, double start) {
    if (!on_) return -1;
    spans_.push_back({name, start, start, parent, op});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id, double end) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = end;
  }
  void Add(const char* name, uint64_t op, int64_t parent, double start,
           double end) {
    Close(Open(name, op, parent, start), end);
  }

  /// Durations (seconds) of every span called `name` whose op id lies in
  /// [op_lo, op_hi).
  std::vector<double> Durations(const char* name, uint64_t op_lo = 0,
                                uint64_t op_hi = UINT64_MAX) const {
    std::vector<double> d;
    for (const Span& s : spans_) {
      if (s.op >= op_lo && s.op < op_hi && std::strcmp(s.name, name) == 0) {
        d.push_back(s.end - s.start);
      }
    }
    return d;
  }

  /// Self time per span name (a span's duration minus the part of it its
  /// children cover), the summed duration of the root spans, and the
  /// largest per-op gap between the op's wall time and the sum of the self
  /// times of its spans (0 when children nest without overlapping).
  struct Breakdown {
    std::map<std::string, double> self_s;
    double op_s = 0.0;
    double max_unaccounted = 0.0;
  };
  Breakdown Analyze() const {
    Breakdown b;
    std::vector<std::vector<size_t>> kids(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        kids[static_cast<size_t>(spans_[i].parent)].push_back(i);
      }
    }
    struct OpSum {
      double wall = 0.0, self = 0.0;
    };
    std::unordered_map<uint64_t, OpSum> ops;
    std::vector<std::pair<double, double>> iv;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      iv.clear();
      for (size_t k : kids[i]) {
        const double lo = std::max(s.start, spans_[k].start);
        const double hi = std::min(s.end, spans_[k].end);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      const double self = (s.end - s.start) - covered;
      b.self_s[s.name] += self;
      OpSum& o = ops[s.op];
      o.self += self;
      if (s.parent < 0) {
        o.wall += s.end - s.start;
        b.op_s += s.end - s.start;
      }
    }
    for (const auto& [op, o] : ops) {
      if (o.wall > 0) {
        b.max_unaccounted =
            std::max(b.max_unaccounted, std::fabs(o.self - o.wall) / o.wall);
      }
    }
    return b;
  }

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"parent\":%lld}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<unsigned long long>(1 + s.op % 8),
                   s.start * 1e6, (s.end - s.start) * 1e6,
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // static storage
    double start;
    double end;
    int64_t parent;
    uint64_t op;
  };
  bool on_;
  std::vector<Span> spans_;
};

/// Every span name the workloads record; the traced run prints the share
/// of op time each one spends outside its children.
constexpr const char* kSpanNames[] = {
    "op",            "bench.check",    "cpu.partition", "cpu.histogram",
    "cpu.scatter",   "fpga.pad",       "fpga.hist",     "join.hybrid",
    "svc.submit",    "svc.queue",      "svc.run.cpu",   "svc.run.fpga",
    "svc.run.hybrid", "stream.ingest", "stream.ondrain", "stream.read",
    "stream.flush",  "stream.quiesce"};

/// Shared epilogue of a traced run: self-time shares, accounting check,
/// recording-cost estimate and the trace file.
void FinishTrace(const Trace& trace, double measured_s,
                 const std::string& path, Report* rep) {
  const Trace::Breakdown b = trace.Analyze();
  for (const char* name : kSpanNames) {
    auto it = b.self_s.find(name);
    const double self = it == b.self_s.end() ? 0.0 : it->second;
    rep->Metric(std::string("self_pct.") + name,
                b.op_s > 0 ? 100.0 * self / b.op_s : 0.0, "%");
  }
  rep->Metric("bench.unaccounted_pct", 100.0 * b.max_unaccounted, "%");
  if (b.max_unaccounted > 0.05) {
    rep->Fail("span self times miss an op's wall time by more than 5%");
  }
  rep->Metric("bench.spans", static_cast<double>(trace.size()), "count");
  // Recording cost: time the same Open/Close pair on a scratch recorder.
  Trace scratch(true);
  constexpr int kCalib = 1 << 17;
  const double t0 = Now();
  for (int i = 0; i < kCalib; ++i) {
    scratch.Close(scratch.Open("op", static_cast<uint64_t>(i), -1, Now()),
                  Now());
  }
  const double per_span = (Now() - t0) / kCalib;
  rep->Metric("bench.trace_overhead_pct",
              measured_s > 0
                  ? 100.0 * per_span * static_cast<double>(trace.size()) /
                        measured_s
                  : 0.0,
              "%");
  if (!path.empty() && !trace.Write(path)) {
    rep->Fail("cannot write trace file " + path);
  }
}

/// \brief Scales host times to a reference host speed.
///
/// The benchmark runs on shared hosts whose speed drifts over tens of
/// seconds: on the 4-vCPU microVM it was built on, svc_replay's pass rate
/// swung between 5.9k and 8.6k jobs/s within one process while the work
/// stayed identical. A fixed compute kernel in this file, timed on the
/// benchmark's thread while the program is idle, tracks that drift. A run
/// repeats a unit of work (a set-up, a round, a pass, a sub-phase); each unit's
/// host times are multiplied by Scale(), the reference kernel time over the
/// kernel's mean time just before and just after the unit. The program
/// cannot change the kernel, so a program change moves the scaled value as
/// much as the raw one.
class HostSpeed {
 public:
  /// The kernel's time on the reference host (a 4-vCPU Xeon microVM).
  static constexpr double kReferenceSeconds = 468e-6;

  HostSpeed() : last_(KernelSeconds()) {}

  /// Call right after a unit of work: the factor that scales the unit's
  /// host times to the reference host (below 1 while the host runs slow).
  double Scale() {
    const double now = KernelSeconds();
    const double scale = kReferenceSeconds / (0.5 * (last_ + now));
    last_ = now;
    kernel_s_.push_back(now);
    return scale;
  }
  /// Median kernel time over the run (bench.host_ref_us).
  double kernel_seconds() const { return Median(kernel_s_); }

 private:
  /// Median of 21 timings of a xorshift hash loop updating a 256 KB table:
  /// integer work plus L2 traffic, about 0.47 ms per timing.
  static double KernelSeconds() {
    static std::vector<uint32_t> table(1 << 16);
    std::vector<double> t;
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int rep = 0; rep < 21; ++rep) {
      const double t0 = Now();
      for (int i = 0; i < 200000; ++i) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        table[h & 0xffff] += static_cast<uint32_t>(h >> 32);
      }
      t.push_back(Now() - t0);
    }
    return Median(t);
  }

  double last_;
  std::vector<double> kernel_s_;
};

enum class HostKind { kTime, kRate };

/// Reports an end-to-end host metric: the median over a run's units of
/// each unit's value scaled to the reference host (a time is multiplied
/// by the unit's scale, a rate divided), and the unscaled median as
/// bench.raw_<name>.
void HostMetric(const char* name, const std::vector<double>& raw,
                const std::vector<double>& scale, HostKind kind,
                const char* unit, Report* rep) {
  std::vector<double> scaled(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    scaled[i] = kind == HostKind::kTime ? raw[i] * scale[i] : raw[i] / scale[i];
  }
  rep->Metric(name, Median(scaled), unit);
  rep->Metric(std::string("bench.raw_") + name, Median(raw), unit);
}

/// Runs `make` `kSetups` times, keeping the last result, and reports the
/// median set-up time as setup_s and the peak resident set so far as
/// setup_rss_mb. Work or memory moved into set-up shows up here. Set-up
/// runs on one thread, so its footprint repeats; the peak over a whole run
/// (bench.peak_rss_mb) also holds what the scheduler's worker threads
/// leave cached in their allocator arenas, which varies with timing.
constexpr int kSetups = 5;

template <typename T, typename Make>
Result<T> TimedSetup(Make make, HostSpeed* speed, Report* rep) {
  std::optional<T> kept;
  std::vector<double> times, scale;
  for (int i = 0; i < kSetups; ++i) {
    kept.reset();  // never hold two copies of the inputs at once
    const double t0 = Now();
    Result<T> r = make();
    times.push_back(Now() - t0);
    if (!r.ok()) return r.status();
    kept.emplace(std::move(r).ValueUnsafe());
    scale.push_back(speed->Scale());
  }
  HostMetric("setup_s", times, scale, HostKind::kTime, "s", rep);
  rep->Metric("setup_rss_mb", PeakRssMb(), "MB");
  return std::move(*kept);
}

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 20.0;
  std::string trace_path;
};

// ---------------------------------------------------------------------------
// batch_cold: the paper's own operation on a relation larger than the LLC.

constexpr uint32_t kBatchFanout = 8192;
constexpr size_t kBatchThreads = 2;

struct BatchInputs {
  Relation<Tuple8> rel;
  JoinInput join;
  std::vector<uint64_t> counts;  // expected tuples per partition
  uint64_t key_sum = 0;          // expected key fingerprint
  double datagen_s = 0.0;
  double hash_s = 0.0;  // PartitionFn::ApplyBatch over all keys
};

Result<BatchInputs> MakeBatchInputs(uint64_t seed, double scale) {
  BatchInputs in;
  const size_t n =
      std::max<size_t>(size_t{1} << 16, static_cast<size_t>(16e6 * scale));
  const double t0 = Now();
  FPART_ASSIGN_OR_RETURN(
      in.rel, GenerateRawRelation(n, KeyDistribution::kRandom, seed));
  for (Tuple8& t : in.rel) {
    if (t.key == kDummy32) t.key ^= 1;
  }
  const WorkloadSpec spec{WorkloadId::kC, "e2e", n / 4, n / 4,
                          KeyDistribution::kRandom};
  for (uint64_t attempt = 0;; ++attempt) {
    FPART_ASSIGN_OR_RETURN(
        in.join, GenerateWorkload(spec, Fnv1a(seed ^ 0x6a6f696eULL, attempt)));
    if (!HasDummyKey(in.join.r)) break;
  }
  in.datagen_s = Now() - t0;

  // Expected outputs, hashed in chunks so set-up holds no key-sized copy.
  PartitionFn fn(HashMethod::kMurmur, kBatchFanout);
  in.counts.assign(kBatchFanout, 0);
  constexpr size_t kChunk = 1 << 16;
  std::vector<uint32_t> keys(kChunk), idx(kChunk);
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    for (size_t i = 0; i < m; ++i) keys[i] = in.rel[base + i].key;
    const double h0 = Now();
    fn.ApplyBatch(keys.data(), idx.data(), m);
    in.hash_s += Now() - h0;
    for (size_t i = 0; i < m; ++i) {
      ++in.counts[idx[i]];
      in.key_sum += KeyFp(keys[i]);
    }
  }
  return in;
}

/// Empty when `out` holds exactly the input's tuples in the expected
/// partitions; otherwise the reason.
std::string CheckPartitioned(const PartitionedOutput<Tuple8>& out,
                             const BatchInputs& in) {
  if (out.num_partitions() != in.counts.size()) return "partition count";
  uint64_t key_sum = 0;
  for (size_t p = 0; p < out.num_partitions(); ++p) {
    if (out.part(p).num_tuples != in.counts[p]) {
      return "tuples in partition " + std::to_string(p);
    }
    const Tuple8* d = out.partition_data(p);
    const size_t slots = out.partition_slots(p);
    for (size_t s = 0; s < slots; ++s) {
      if (!IsDummy(d[s])) key_sum += KeyFp(d[s].key);
    }
  }
  return key_sum == in.key_sum ? "" : "key multiset checksum";
}

int RunBatchCold(const Options& opt, Report* rep) {
  const double scale = BenchScale();
  HostSpeed speed;
  auto inputs = TimedSetup<BatchInputs>(
      [&] { return MakeBatchInputs(opt.seed, scale); }, &speed, rep);
  if (!inputs.ok()) {
    rep->Fail("setup: " + inputs.status().ToString());
    return rep->Finish();
  }
  const BatchInputs& in = inputs.ValueOrDie();
  const size_t n = in.rel.size();
  ThreadPool pool(kBatchThreads, "e2e-batch");
  Trace trace(!opt.trace_path.empty());

  CpuPartitionerConfig cpu;
  cpu.fanout = kBatchFanout;
  cpu.hash = HashMethod::kMurmur;
  cpu.num_threads = kBatchThreads;
  cpu.pool = &pool;
  FpgaPartitionerConfig pad;
  pad.fanout = kBatchFanout;
  pad.hash = HashMethod::kMurmur;
  pad.output_mode = OutputMode::kPad;
  pad.layout = LayoutMode::kRid;
  pad.sim_mode = SimMode::kFast;
  pad.sim_cache = false;
  FpgaPartitionerConfig hist = pad;
  hist.output_mode = OutputMode::kHist;
  HybridJoinConfig join;
  join.fpga = hist;
  join.num_threads = kBatchThreads;
  join.pool = &pool;

  std::vector<double> cpu_s, pad_s, hist_s, join_s, round_s, tput, speeds;
  std::vector<double> join_sim_s, join_bp_s;
  double pad_virt_mtps = 0.0;
  CycleStats pad_stats, hist_stats;
  const double start = Now();
  uint64_t op = 0;
  do {
    const int64_t root = trace.Open("op", op, -1, Now());
    double api_s = 0.0;
    // Times one call and checks its output right after, so only one
    // output is alive at a time.
    auto stage = [&](const char* span, std::vector<double>* times,
                     auto call) {
      const double t0 = Now();
      auto r = call();
      const double t1 = Now();
      api_s += t1 - t0;
      times->push_back(t1 - t0);
      const int64_t id = trace.Open(span, op, root, t0);
      trace.Close(id, t1);
      rep->Attempted(1);
      const double c0 = Now();
      std::string err = r.ok() ? std::string() : r.status().ToString();
      if (r.ok()) {
        const auto& v = r.ValueOrDie();
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, JoinResult>) {
          join_sim_s.push_back(v.partition_seconds);
          join_bp_s.push_back(v.build_probe_seconds);
          if (v.matches != in.join.s.size()) err = "matches != |S|";
        } else {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                       CpuRunResult<Tuple8>>) {
            // The phase timers run back to back at the end of the call.
            trace.Add("cpu.scatter", op, id, t1 - v.scatter_seconds, t1);
            trace.Add("cpu.histogram", op, id,
                      t1 - v.scatter_seconds - v.histogram_seconds,
                      t1 - v.scatter_seconds);
          } else if (std::strcmp(span, "fpga.pad") == 0) {
            pad_stats = v.stats;
            pad_virt_mtps = v.mtuples_per_sec;
          } else {
            hist_stats = v.stats;
          }
          err = CheckPartitioned(v.output, in);
        }
      }
      if (!err.empty()) rep->Fail(std::string(span) + ": " + err);
      trace.Add("bench.check", op, root, c0, Now());
    };
    stage("cpu.partition", &cpu_s,
          [&] { return CpuPartition(cpu, in.rel.data(), n); });
    stage("fpga.pad", &pad_s, [&] {
      return FpgaPartitioner<Tuple8>(pad).Partition(in.rel.data(), n);
    });
    stage("fpga.hist", &hist_s, [&] {
      return FpgaPartitioner<Tuple8>(hist).Partition(in.rel.data(), n);
    });
    stage("join.hybrid", &join_s,
          [&] { return HybridJoin(join, in.join.r, in.join.s); });
    trace.Close(root, Now());

    round_s.push_back(1e3 * api_s);
    tput.push_back(static_cast<double>(3 * n + in.join.r.size() +
                                       in.join.s.size()) /
                   api_s);
    speeds.push_back(speed.Scale());
    ++op;
  } while (Now() - start < opt.seconds);
  const double measured = Now() - start;

  rep->Metric("bench.peak_rss_mb", PeakRssMb(), "MB");
  rep->Metric("bench.host_ref_us", 1e6 * speed.kernel_seconds(), "us");
  HostMetric("throughput", tput, speeds, HostKind::kRate, "1/s", rep);
  HostMetric("latency_p50_ms", round_s, speeds, HostKind::kTime, "ms", rep);
  std::vector<double> cpu_mtps, sim_mtps;
  for (size_t i = 0; i < cpu_s.size(); ++i) {
    cpu_mtps.push_back(n / cpu_s[i] / 1e6);
    sim_mtps.push_back(2.0 * n / (pad_s[i] + hist_s[i]) / 1e6);
  }
  rep->Metric("cpu_part_mtps", Median(cpu_mtps), "Mtuples/s");
  rep->Metric("sim_host_mtps", Median(sim_mtps), "Mtuples/s");
  rep->Metric("sim_virt_mtps", pad_virt_mtps, "Mtuples/s");
  rep->Metric("join_s", Median(join_s), "s");
  if (!trace.on()) return rep->Finish();

  rep->Metric("datagen.relation_s", in.datagen_s, "s");
  rep->Metric("hash.murmur_ns_per_tuple", 1e9 * in.hash_s / n, "ns");
  rep->Metric("cpu.partition_ms",
              1e3 * Median(trace.Durations("cpu.partition")), "ms");
  rep->Metric("cpu.histogram_ms",
              1e3 * Median(trace.Durations("cpu.histogram")), "ms");
  rep->Metric("cpu.scatter_ms", 1e3 * Median(trace.Durations("cpu.scatter")),
              "ms");
  rep->Metric("fpga.pad_host_ms", 1e3 * Median(trace.Durations("fpga.pad")),
              "ms");
  rep->Metric("fpga.hist_host_ms", 1e3 * Median(trace.Durations("fpga.hist")),
              "ms");
  CycleStats both = pad_stats;
  both.Merge(hist_stats);
  rep->Metric("fpga.cycles.pad", static_cast<double>(pad_stats.cycles),
              "cycles");
  rep->Metric("fpga.cycles.hist", static_cast<double>(hist_stats.cycles),
              "cycles");
  rep->Metric("fpga.histogram_cycles",
              static_cast<double>(both.histogram_cycles), "cycles");
  rep->Metric("fpga.flush_cycles", static_cast<double>(both.flush_cycles),
              "cycles");
  rep->Metric("fpga.read_stall_cycles",
              static_cast<double>(both.read_stall_cycles), "cycles");
  rep->Metric("fpga.write_stall_cycles",
              static_cast<double>(both.write_stall_cycles), "cycles");
  rep->Metric("fpga.dummy_tuples", static_cast<double>(both.dummy_tuples),
              "count");
  rep->Metric("join.sim_partition_s", Median(join_sim_s), "s");
  rep->Metric("join.build_probe_s", Median(join_bp_s), "s");
  FinishTrace(trace, measured, opt.trace_path, rep);
  return rep->Finish();
}

// ---------------------------------------------------------------------------
// svc workloads: ext_service's job mix over resident tables.

constexpr uint32_t kSvcFanout = 2048;
constexpr uint64_t kJoinEvery = 64;
constexpr size_t kSvcWorkers = 2;
constexpr size_t kSvcDevices = 2;

struct SvcTables {
  std::vector<Relation<Tuple8>> tables, join_r, join_s;
  std::vector<uint64_t> checksum;  // expected partition-job checksum
  double datagen_s = 0.0;
};

PartitionRequest PartJobRequest() {
  PartitionRequest req;
  req.fanout = kSvcFanout;
  req.hash = HashMethod::kMurmur;
  req.output_mode = OutputMode::kHist;
  req.sim_mode = SimMode::kFast;
  req.sim_cache = true;
  return req;
}

/// The scheduler configuration both svc workloads share.
svc::SchedulerConfig SvcConfig() {
  svc::SchedulerConfig cfg;
  cfg.num_workers = kSvcWorkers;
  cfg.fpga_devices = kSvcDevices;
  cfg.policy = svc::PlacementPolicy::kAdaptive;
  cfg.sim_mode = SimMode::kFast;
  cfg.sim_cache = true;
  cfg.name = "e2e";
  return cfg;
}

/// Submits one job and waits for it; an error unless it completed.
template <typename Spec>
Status RunToCompletion(svc::Scheduler* sched, const Spec& spec,
                       svc::Backend backend) {
  svc::JobOptions opts;
  opts.pinned = backend;
  FPART_ASSIGN_OR_RETURN(svc::JobHandle h, sched->Submit(spec, opts));
  const svc::JobOutcome& out = h.Wait();
  if (out.state != svc::JobState::kCompleted) {
    return Status::Internal(std::string("warm-up job ") +
                            svc::JobStateName(out.state) + ": " +
                            out.status.ToString());
  }
  return Status::OK();
}

/// Runs every device job shape once through a throwaway scheduler of the
/// measured configuration, so measured device runs are sim-cache hits. A
/// live scheduler marks a device run as link-interfered while a CPU worker
/// is busy, and the cache key covers that flag: the second round holds one
/// worker in a rebalance job so the other runs every shape interfered.
Status WarmSimCache(const SvcTables& t) {
  FpgaPartitioner<Tuple8>::ResultCache().Clear();
  svc::Scheduler sched(SvcConfig());
  auto every_shape = [&]() -> Status {
    for (size_t c = 0; c < t.tables.size(); ++c) {
      svc::PartitionJobSpec part;
      part.input = &t.tables[c];
      part.request = PartJobRequest();
      FPART_RETURN_NOT_OK(
          RunToCompletion(&sched, part, svc::Backend::kFpga));
      svc::JoinJobSpec join;
      join.r = &t.join_r[c];
      join.s = &t.join_s[c];
      join.fanout = kSvcFanout;
      FPART_RETURN_NOT_OK(
          RunToCompletion(&sched, join, svc::Backend::kHybrid));
    }
    return Status::OK();
  };
  FPART_RETURN_NOT_OK(every_shape());

  std::atomic<int> hold{0};  // 1: the rebalance job runs; 2: release it
  svc::RebalanceJobSpec busy;
  busy.work = [&hold](const std::atomic<bool>*) {
    hold.store(1);
    while (hold.load() != 2) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return Status::OK();
  };
  FPART_ASSIGN_OR_RETURN(svc::JobHandle held, sched.Submit(busy));
  while (hold.load() != 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const Status interfered = every_shape();
  hold.store(2);
  held.Wait();
  sched.Shutdown();
  return interfered;
}

/// Eight size classes, 4k to 512k tuples (scaled), a partition table and a
/// unique-key join pair per class, plus each table's expected checksum.
Result<SvcTables> MakeSvcTables(uint64_t seed, double scale) {
  SvcTables t;
  const double t0 = Now();
  size_t c = 0;
  for (size_t base = 4096; base <= 524288; base *= 2, ++c) {
    const size_t n = std::max<size_t>(512, static_cast<size_t>(base * scale));
    FPART_ASSIGN_OR_RETURN(
        Relation<Tuple8> rel,
        GenerateRawRelation(n, KeyDistribution::kRandom, seed + c));
    for (Tuple8& tup : rel) {
      if (tup.key == kDummy32) tup.key ^= 1;
    }
    t.tables.push_back(std::move(rel));
    // Same seed for both sides: identical key sets, so matches == |S|.
    for (uint64_t attempt = 0;; ++attempt) {
      const uint64_t s = Fnv1a(seed + 100 + c, attempt);
      FPART_ASSIGN_OR_RETURN(
          Relation<Tuple8> r,
          GenerateUniqueRelation(n, KeyDistribution::kRandom, s));
      if (HasDummyKey(r)) continue;
      FPART_ASSIGN_OR_RETURN(
          Relation<Tuple8> sr,
          GenerateUniqueRelation(n, KeyDistribution::kRandom, s));
      t.join_r.push_back(std::move(r));
      t.join_s.push_back(std::move(sr));
      break;
    }
  }
  t.datagen_s = Now() - t0;
  PartitionFn fn(HashMethod::kMurmur, kSvcFanout);
  for (const Relation<Tuple8>& rel : t.tables) {
    std::vector<uint32_t> keys(rel.size()), idx(rel.size());
    for (size_t i = 0; i < rel.size(); ++i) keys[i] = rel[i].key;
    fn.ApplyBatch(keys.data(), idx.data(), keys.size());
    std::vector<uint64_t> counts(kSvcFanout, 0);
    for (uint32_t p : idx) ++counts[p];
    t.checksum.push_back(svc::HistogramChecksum(counts.data(), counts.size()));
  }
  FPART_RETURN_NOT_OK(WarmSimCache(t));
  return t;
}

struct JobDraw {
  uint8_t cls = 0;
  svc::JobClass prio = svc::JobClass::kBatch;
  bool join = false;
};

/// ext_service's mix: Zipf(0.9) over the size classes (smallest most
/// frequent), 25/40/35 % interactive/batch/best-effort, every 64th job a
/// join.
class JobMix {
 public:
  JobMix(size_t classes, uint64_t seed)
      : zipf_(classes, 0.9, seed), prio_(seed ^ 0xc1a55e5ULL) {}
  JobDraw Next() {
    JobDraw d;
    d.cls = static_cast<uint8_t>(zipf_.Next() - 1);
    const double u = prio_.NextDouble();
    d.prio = u < 0.25   ? svc::JobClass::kInteractive
             : u < 0.65 ? svc::JobClass::kBatch
                        : svc::JobClass::kBestEffort;
    d.join = ++count_ % kJoinEvery == 0;
    return d;
  }

 private:
  ZipfSampler zipf_;
  Rng prio_;
  uint64_t count_ = 0;
};

double NextArrival(Rng* rng, double rate) {
  return -std::log(1.0 - rng->NextDouble()) / rate;
}

/// One submitted job as the benchmark sees it. `done` is stamped by the
/// job's on_complete callback before it bumps the owner's completion
/// counter (release), so it is readable once the counter says so.
struct JobRec {
  JobDraw draw;
  double due = 0.0;
  double submit0 = 0.0;
  double submit1 = 0.0;
  double done = 0.0;
  bool shed = false;
  svc::JobHandle handle;
};

/// Submits one job; records its stamps in `rec`. Returns false if Submit
/// failed for another reason than queue backpressure.
bool SubmitJob(svc::Scheduler* sched, const SvcTables& t, JobRec* rec,
               std::atomic<uint64_t>* completions, svc::JobOptions opts,
               Report* rep) {
  opts.job_class = rec->draw.prio;
  opts.on_complete = [rec, completions](const svc::JobOutcome&) {
    rec->done = Now();
    completions->fetch_add(1, std::memory_order_release);
  };
  rec->submit0 = Now();
  Result<svc::JobHandle> h = [&]() -> Result<svc::JobHandle> {
    if (rec->draw.join) {
      svc::JoinJobSpec spec;
      spec.r = &t.join_r[rec->draw.cls];
      spec.s = &t.join_s[rec->draw.cls];
      spec.fanout = kSvcFanout;
      return sched->Submit(spec, opts);
    }
    svc::PartitionJobSpec spec;
    spec.input = &t.tables[rec->draw.cls];
    spec.request = PartJobRequest();
    return sched->Submit(spec, opts);
  }();
  rec->submit1 = Now();
  if (h.ok()) {
    rec->handle = std::move(h).ValueUnsafe();
    return true;
  }
  if (h.status().IsCapacityError()) {
    rec->shed = true;  // on_complete already ran inside Submit
    return true;
  }
  rep->Fail("submit: " + h.status().ToString());
  return false;
}

/// Waits until `expected` callbacks arrived. A job that has not completed
/// after a minute is lost; the run ends at once, because its callback may
/// still write into records the caller is about to free.
void AwaitCompletions(const std::atomic<uint64_t>& completions,
                      uint64_t expected, Report* rep) {
  const double deadline = Now() + 60.0;
  while (completions.load(std::memory_order_acquire) < expected) {
    if (Now() > deadline) {
      rep->Fail("jobs lost: no completion within 60 s");
      rep->Finish();
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Empty when a terminal outcome is right for its draw.
std::string CheckOutcome(const svc::JobOutcome& out, const SvcTables& t,
                         const JobDraw& d) {
  if (out.state != svc::JobState::kCompleted) {
    return std::string("job ") + svc::JobStateName(out.state) + ": " +
           out.status.ToString();
  }
  if (d.join) {
    return out.matches == t.join_s[d.cls].size() ? "" : "join matches != |S|";
  }
  return out.checksum == t.checksum[d.cls] ? "" : "partition checksum";
}

constexpr const char* kRunSpan[] = {"svc.run.cpu", "svc.run.fpga",
                                    "svc.run.hybrid"};

/// Rebuilds one job's spans: root from `start` to completion, the Submit
/// call, then queue and run placed back from the completion stamp (queue
/// time spent inside Submit is left to the submit span).
void AddJobSpans(Trace* trace, uint64_t op, double start, const JobRec& j,
                 const svc::JobOutcome* out) {
  if (!trace->on()) return;
  const int64_t root = trace->Open("op", op, -1, start);
  trace->Add("svc.submit", op, root, j.submit0, j.submit1);
  if (out != nullptr) {
    const double run0 = j.done - out->run_seconds;
    trace->Add("svc.queue", op, root,
               std::max(j.submit1, run0 - out->queue_seconds), run0);
    trace->Add(kRunSpan[static_cast<size_t>(out->backend)], op, root, run0,
               j.done);
  }
  trace->Close(root, std::max(j.done, j.submit1));
}

uint64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetCounter(name)->Value();
}

void ReportCache(uint64_t hits0, uint64_t misses0, Report* rep) {
  const double hits =
      static_cast<double>(CounterValue("sim.cache.hits") - hits0);
  const double misses =
      static_cast<double>(CounterValue("sim.cache.misses") - misses0);
  rep->Metric("fpga.cache_hits", hits, "count");
  rep->Metric("fpga.cache_misses", misses, "count");
  rep->Metric("fpga.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

void ReportPlacement(const std::array<uint64_t, 3>& placed, Report* rep) {
  const double total =
      static_cast<double>(placed[0] + placed[1] + placed[2]);
  const char* names[] = {"svc.placed.cpu", "svc.placed.fpga",
                         "svc.placed.hybrid"};
  for (size_t b = 0; b < 3; ++b) {
    rep->Metric(names[b], total > 0 ? placed[b] / total : 0.0, "share");
  }
}

/// Host-time per-layer svc metrics from the job spans of ops [lo, hi).
void ReportSvcSpans(const Trace& trace, uint64_t lo, uint64_t hi,
                    Report* rep) {
  const auto submit = trace.Durations("svc.submit", lo, hi);
  rep->Metric("svc.submit_us.p50", 1e6 * Quantile(submit, 0.5), "us");
  rep->Metric("svc.submit_us.p99", 1e6 * Quantile(submit, 0.99), "us");
  const auto queue = trace.Durations("svc.queue", lo, hi);
  rep->Metric("svc.queue_ms.p50", 1e3 * Quantile(queue, 0.5), "ms");
  rep->Metric("svc.queue_ms.p99", 1e3 * Quantile(queue, 0.99), "ms");
  const auto cpu = trace.Durations("svc.run.cpu", lo, hi);
  const auto fpga = trace.Durations("svc.run.fpga", lo, hi);
  rep->Metric("svc.run_ms.cpu.p50", 1e3 * Quantile(cpu, 0.5), "ms");
  rep->Metric("svc.run_ms.cpu.p99", 1e3 * Quantile(cpu, 0.99), "ms");
  rep->Metric("svc.run_ms.fpga.p50", 1e3 * Quantile(fpga, 0.5), "ms");
  rep->Metric("svc.run_ms.fpga.p99", 1e3 * Quantile(fpga, 0.99), "ms");
  rep->Metric("svc.run_ms.hybrid.p50",
              1e3 * Quantile(trace.Durations("svc.run.hybrid", lo, hi), 0.5),
              "ms");
}

/// Outcome of one open-loop phase.
struct Phase {
  double rate = 0.0;
  uint64_t offered = 0, completed = 0, shed = 0, failed = 0;
  std::vector<double> part_lat, join_lat;  // due -> completion, completed
  std::vector<double> run_s;               // host run time, completed
  double part_p99 = 0.0;  // completed partition jobs
  double lag_p99 = 0.0;   // generator lateness, Submit start - due
  double depth_mid = 0.0, depth_end = 0.0;
  double goodput = 0.0;  // completed jobs / (last completion - start)
  uint64_t op_lo = 0, op_hi = 0;
  std::array<uint64_t, 3> placed{};
};

/// Offers Poisson arrivals at `rate` for `seconds` from this thread, then
/// waits for every job and checks it. Latency is timed from each job's
/// due time, so a stalled generator shows as latency, and the generator's
/// own lateness is reported.
Phase RunPhase(svc::Scheduler* sched, const SvcTables& t, JobMix* mix,
               Rng* arrivals, double rate, double seconds, uint64_t* next_op,
               const char* name, Trace* trace, Report* rep) {
  Phase ph;
  ph.rate = rate;
  std::vector<double> offsets;
  for (double x = NextArrival(arrivals, rate); x < seconds;
       x += NextArrival(arrivals, rate)) {
    offsets.push_back(x);
  }
  std::vector<JobRec> jobs(offsets.size());  // fixed: callbacks hold &jobs[i]
  std::atomic<uint64_t> completions{0};
  uint64_t expected = 0;
  std::vector<double> lag;
  lag.reserve(jobs.size());
  const double t0 = Now() + 1e-3;
  bool mid_taken = false;
  for (size_t i = 0; i < jobs.size(); ++i) {
    JobRec& j = jobs[i];
    j.draw = mix->Next();
    j.due = t0 + offsets[i];
    if (Now() < j.due) SleepUntil(j.due);
    if (!mid_taken && offsets[i] >= seconds / 2) {
      ph.depth_mid = static_cast<double>(sched->queue_depth());
      mid_taken = true;
    }
    const bool ok = SubmitJob(sched, t, &j, &completions, {}, rep);
    lag.push_back(j.submit0 - j.due);
    if (ok) ++expected;
  }
  ph.depth_end = static_cast<double>(sched->queue_depth());
  ph.offered = jobs.size();
  rep->Attempted(jobs.size());
  AwaitCompletions(completions, expected, rep);

  ph.op_lo = *next_op;
  double last_done = t0;
  for (JobRec& j : jobs) {
    const uint64_t op = (*next_op)++;
    last_done = std::max(last_done, j.done);
    std::optional<svc::JobOutcome> out;
    if (j.handle.valid()) out = j.handle.TryGet();
    AddJobSpans(trace, op, j.due, j, out ? &*out : nullptr);
    if (j.shed) {
      ++ph.shed;
      continue;
    }
    const std::string err =
        out ? CheckOutcome(*out, t, j.draw) : "job lost";
    if (!err.empty()) {
      ++ph.failed;
      rep->Fail(std::string(name) + ": " + err);
      continue;
    }
    ++ph.completed;
    ++ph.placed[static_cast<size_t>(out->backend)];
    (j.draw.join ? ph.join_lat : ph.part_lat).push_back(j.done - j.due);
    ph.run_s.push_back(out->run_seconds);
  }
  ph.op_hi = *next_op;
  ph.part_p99 = Quantile(ph.part_lat, 0.99);
  ph.lag_p99 = Quantile(lag, 0.99);
  ph.goodput = ph.completed / (last_done - t0);
  // An open loop that fell behind its schedule offered less load than it
  // claims; such a phase is invalid. A late job already counts its
  // lateness in its latency (timed from the due time), so a phase only
  // has to offer its whole schedule: no job later than 5 % of the phase.
  // A lag p99 rule of 1 ms failed 2 of 10 runs on a 4-vCPU host from
  // preemption alone; the lag p99 is reported instead.
  const double max_lag =
      lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end());
  if (max_lag > 0.05 * seconds) {
    rep->Fail(std::string(name) + ": invalid phase, generator fell " +
              std::to_string(1e3 * max_lag) + " ms behind");
  }
  return ph;
}

/// The `low` and `sat` phases run as this many back-to-back sub-phases, so
/// each gives several units to scale to the reference host (HostSpeed).
constexpr int kSubPhases = 3;

/// A phase run as kSubPhases sub-phases: their results joined, and per
/// sub-phase its host-speed scale, goodput and median job run time (ms).
struct SplitPhase {
  Phase all;
  std::vector<double> scale, goodput, run_ms;
};

SplitPhase RunSplitPhase(svc::Scheduler* sched, const SvcTables& t,
                         JobMix* mix, Rng* arrivals, double rate,
                         double seconds, uint64_t* next_op, const char* name,
                         Trace* trace, HostSpeed* speed, Report* rep) {
  SplitPhase s;
  for (int k = 0; k < kSubPhases; ++k) {
    Phase p = RunPhase(sched, t, mix, arrivals, rate, seconds / kSubPhases,
                       next_op, name, trace, rep);
    s.scale.push_back(speed->Scale());
    s.goodput.push_back(p.goodput);
    s.run_ms.push_back(1e3 * Median(p.run_s));
    if (k == 0) {
      s.all = std::move(p);
      continue;
    }
    Phase& a = s.all;
    a.offered += p.offered;
    a.completed += p.completed;
    a.shed += p.shed;
    a.failed += p.failed;
    a.part_lat.insert(a.part_lat.end(), p.part_lat.begin(), p.part_lat.end());
    a.join_lat.insert(a.join_lat.end(), p.join_lat.begin(), p.join_lat.end());
    a.run_s.insert(a.run_s.end(), p.run_s.begin(), p.run_s.end());
    a.lag_p99 = std::max(a.lag_p99, p.lag_p99);
    a.op_hi = p.op_hi;
    for (size_t b = 0; b < a.placed.size(); ++b) a.placed[b] += p.placed[b];
  }
  return s;
}

int RunSvcOpen(const Options& opt, Report* rep) {
  const double scale = BenchScale();
  HostSpeed speed;
  auto tables = TimedSetup<SvcTables>(
      [&] { return MakeSvcTables(opt.seed, scale); }, &speed, rep);
  if (!tables.ok()) {
    rep->Fail("setup: " + tables.status().ToString());
    return rep->Finish();
  }
  const SvcTables& t = tables.ValueOrDie();
  Trace trace(!opt.trace_path.empty());

  svc::SchedulerConfig cfg = SvcConfig();
  cfg.queue_capacity = 256;
  svc::Scheduler sched(cfg);
  JobMix mix(t.tables.size(), opt.seed);
  Rng arrivals(opt.seed ^ 0xa5a5a5a5ULL);

  // Phase lengths keep the proportions 15 : 9 : 4x3 of a 36 s run.
  const double unit = opt.seconds / 36.0;
  const uint64_t hits0 = CounterValue("sim.cache.hits");
  const uint64_t misses0 = CounterValue("sim.cache.misses");
  std::vector<uint64_t> busy0(kSvcDevices);
  for (size_t d = 0; d < kSvcDevices; ++d) {
    busy0[d] = CounterValue("svc.device." + std::to_string(d) + ".busy_us");
  }
  uint64_t next_op = 0;
  const double start = Now();
  const SplitPhase low_split =
      RunSplitPhase(&sched, t, &mix, &arrivals, 1200.0, 15 * unit, &next_op,
                    "low", &trace, &speed, rep);
  const Phase& low = low_split.all;
  const double low_s = Now() - start;
  std::vector<double> busy_frac(kSvcDevices);
  for (size_t d = 0; d < kSvcDevices; ++d) {
    busy_frac[d] =
        (CounterValue("svc.device." + std::to_string(d) + ".busy_us") -
         busy0[d]) /
        (1e6 * low_s);
  }
  if (low.shed > 0) rep->Fail("low: jobs shed at 1200 jobs/s");
  const SplitPhase sat_split =
      RunSplitPhase(&sched, t, &mix, &arrivals, 5000.0, 9 * unit, &next_op,
                    "sat", &trace, &speed, rep);
  const Phase& sat = sat_split.all;
  const double goodput = Median(sat_split.goodput);

  // Bisect [G/2, G]: the highest probed rate with partition p99 <= 25 ms,
  // nothing shed or failed, and no queue growth over the probe's second
  // half beyond 1 % of the jobs offered. Shedding here is the intended
  // backpressure, not a failed op. `lo` stays at G/2 if no probe passes.
  double lo = 0.5 * goodput, hi = goodput;
  std::vector<Phase> probes;
  for (int k = 0; k < 4; ++k) {
    const double rate = 0.5 * (lo + hi);
    probes.push_back(RunPhase(&sched, t, &mix, &arrivals, rate, 3 * unit,
                              &next_op, "probe", &trace, rep));
    const Phase& p = probes.back();
    const bool pass = p.part_p99 <= 25e-3 && p.shed == 0 && p.failed == 0 &&
                      p.depth_end <= p.depth_mid + 0.01 * p.offered;
    (pass ? lo : hi) = rate;
  }
  const double measured = Now() - start;
  sched.Shutdown();

  rep->Metric("bench.peak_rss_mb", PeakRssMb(), "MB");
  rep->Metric("bench.host_ref_us", 1e6 * speed.kernel_seconds(), "us");
  // Goodput under overload is the end-to-end rate: the bisected rate
  // below moves in steps of G/32 and one multi-millisecond host stall in
  // a probe flips it, which spread it by 25 % over 10 seeds.
  HostMetric("throughput", sat_split.goodput, sat_split.scale,
             HostKind::kRate, "1/s", rep);
  // The job's own run time, not its due-to-completion latency: at 1200
  // jobs/s queueing multiplies every change in host speed, which spread
  // the latter by 21 % over 10 seeds. It stays per-layer.
  HostMetric("latency_p50_ms", low_split.run_ms, low_split.scale,
             HostKind::kTime, "ms", rep);
  rep->Metric("svc_part_p50_ms", 1e3 * Median(low.part_lat), "ms");
  rep->Metric("svc_part_p99_ms", 1e3 * Quantile(low.part_lat, 0.99), "ms");
  rep->Metric("svc_join_p50_ms", 1e3 * Median(low.join_lat), "ms");
  rep->Metric("svc_max_rate_jps", lo, "1/s");
  rep->Metric("svc.sat_goodput_jps", goodput, "1/s");
  if (!trace.on()) return rep->Finish();

  rep->Metric("datagen.relation_s", t.datagen_s, "s");
  ReportSvcSpans(trace, low.op_lo, low.op_hi, rep);
  ReportPlacement(low.placed, rep);
  for (size_t d = 0; d < kSvcDevices; ++d) {
    rep->Metric("svc.device." + std::to_string(d) + ".busy_frac",
                busy_frac[d], "ratio");
  }
  for (size_t k = 0; k < probes.size(); ++k) {
    const std::string p = "svc.probe." + std::to_string(k + 1);
    rep->Metric(p + ".rate_jps", probes[k].rate, "1/s");
    rep->Metric(p + ".p99_ms", 1e3 * probes[k].part_p99, "ms");
    rep->Metric(p + ".missed",
                static_cast<double>(probes[k].shed + probes[k].failed),
                "count");
  }
  uint64_t shed = sat.shed, failed = low.failed + sat.failed;
  double lag = std::max(low.lag_p99, sat.lag_p99);
  for (const Phase& p : probes) {
    shed += p.shed;
    failed += p.failed;
    lag = std::max(lag, p.lag_p99);
  }
  rep->Metric("svc.shed", static_cast<double>(shed + low.shed), "count");
  rep->Metric("svc.failed", static_cast<double>(failed), "count");
  rep->Metric("bench.gen_lag_ms.p99", 1e3 * lag, "ms");
  ReportCache(hits0, misses0, rep);
  FinishTrace(trace, measured, opt.trace_path, rep);
  return rep->Finish();
}

/// Jobs per replay pass, and the virtual arrival rate (about 11x the
/// two-device model capacity, so the replay runs on a deep backlog).
constexpr size_t kReplayJobs = 20000;
constexpr double kReplayRate = 64000.0;

struct ReplayInputs {
  SvcTables tables;
  std::vector<JobDraw> draws;
  std::vector<double> arrival;  // virtual seconds
};

int RunSvcReplay(const Options& opt, Report* rep) {
  const double scale = BenchScale();
  HostSpeed speed;
  auto inputs = TimedSetup<ReplayInputs>(
      [&]() -> Result<ReplayInputs> {
        ReplayInputs in;
        FPART_ASSIGN_OR_RETURN(in.tables, MakeSvcTables(opt.seed, scale));
        JobMix mix(in.tables.tables.size(), opt.seed);
        Rng arrivals(opt.seed ^ 0xa5a5a5a5ULL);
        double x = 0.0;
        for (size_t i = 0; i < kReplayJobs; ++i) {
          in.draws.push_back(mix.Next());
          x += NextArrival(&arrivals, kReplayRate);
          in.arrival.push_back(x);
        }
        return in;
      },
      &speed, rep);
  if (!inputs.ok()) {
    rep->Fail("setup: " + inputs.status().ToString());
    return rep->Finish();
  }
  const ReplayInputs& in = inputs.ValueOrDie();
  const SvcTables& t = in.tables;
  Trace trace(!opt.trace_path.empty());
  const uint64_t hits0 = CounterValue("sim.cache.hits");
  const uint64_t misses0 = CounterValue("sim.cache.misses");

  std::vector<double> jps, virt_jps, drain_s, run_s, virt_queue, virt_run;
  std::vector<double> pass_run_ms, speeds;
  std::array<uint64_t, 3> placed{};
  std::optional<uint64_t> first_hash;
  uint64_t op = 0;
  const double start = Now();
  do {
    svc::SchedulerConfig cfg = SvcConfig();
    cfg.deterministic = true;
    cfg.queue_capacity = kReplayJobs;  // nothing is shed
    svc::Scheduler sched(cfg);
    std::vector<JobRec> jobs(kReplayJobs);
    std::atomic<uint64_t> completions{0};
    uint64_t expected = 0;
    const double t0 = Now();
    for (size_t i = 0; i < kReplayJobs; ++i) {
      jobs[i].draw = in.draws[i];
      svc::JobOptions opts;
      opts.arrival_seq = i;
      opts.virtual_arrival_seconds = in.arrival[i];
      if (SubmitJob(&sched, t, &jobs[i], &completions, opts, rep)) ++expected;
    }
    const double t_last = Now();
    sched.Shutdown();
    const double t_end = Now();
    rep->Attempted(kReplayJobs);
    AwaitCompletions(completions, expected, rep);

    const size_t pass_begin = run_s.size();
    uint64_t hash = 0xcbf29ce484222325ULL, completed = 0;
    for (size_t i = 0; i < kReplayJobs; ++i) {
      const JobRec& j = jobs[i];
      std::optional<svc::JobOutcome> out;
      if (j.handle.valid()) out = j.handle.TryGet();
      AddJobSpans(&trace, op++, j.submit0, j, out ? &*out : nullptr);
      const std::string err =
          j.shed ? "job shed" : (out ? CheckOutcome(*out, t, j.draw) : "lost");
      if (!err.empty()) {
        rep->Fail("replay: " + err);
        continue;
      }
      ++completed;
      ++placed[static_cast<size_t>(out->backend)];
      run_s.push_back(out->run_seconds);
      virt_queue.push_back(out->virtual_queue_seconds);
      virt_run.push_back(out->virtual_run_seconds);
      hash = Fnv1a(hash, i);
      hash = Fnv1a(hash, static_cast<uint64_t>(j.draw.prio));
      hash = Fnv1a(hash, static_cast<uint64_t>(out->backend));
      hash = Fnv1a(hash, out->checksum);
    }
    if (!first_hash) {
      first_hash = hash;
    } else if (hash != *first_hash) {
      rep->Fail("replay: determinism hash differs between passes");
    }
    jps.push_back(completed / (t_end - t0));
    virt_jps.push_back(kReplayJobs / sched.virtual_makespan_seconds());
    drain_s.push_back(t_end - t_last);
    pass_run_ms.push_back(
        1e3 * Median(std::vector<double>(run_s.begin() + pass_begin,
                                         run_s.end())));
    speeds.push_back(speed.Scale());
  } while (Now() - start < opt.seconds);
  const double measured = Now() - start;

  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(first_hash.value_or(0)));
  rep->Note("replay_hash", hex);
  rep->Metric("bench.peak_rss_mb", PeakRssMb(), "MB");
  rep->Metric("bench.host_ref_us", 1e6 * speed.kernel_seconds(), "us");
  HostMetric("throughput", jps, speeds, HostKind::kRate, "1/s", rep);
  HostMetric("latency_p50_ms", pass_run_ms, speeds, HostKind::kTime, "ms",
             rep);
  rep->Metric("replay_jps", Median(jps), "1/s");
  rep->Metric("replay_virt_jps", Median(virt_jps), "1/s");
  if (!trace.on()) return rep->Finish();

  rep->Metric("datagen.relation_s", t.datagen_s, "s");
  ReportSvcSpans(trace, 0, UINT64_MAX, rep);
  ReportPlacement(placed, rep);
  rep->Metric("svc.drain_s", Median(drain_s), "s");
  rep->Metric("svc.virt_queue_ms.p50", 1e3 * Quantile(virt_queue, 0.5), "ms");
  rep->Metric("svc.virt_queue_ms.p99", 1e3 * Quantile(virt_queue, 0.99),
              "ms");
  rep->Metric("svc.virt_run_ms.p50", 1e3 * Quantile(virt_run, 0.5), "ms");
  ReportCache(hits0, misses0, rep);
  FinishTrace(trace, measured, opt.trace_path, rep);
  return rep->Finish();
}

// ---------------------------------------------------------------------------
// stream_drift: ext_stream's drifting-Zipf op stream, one client.

constexpr uint64_t kStreamOps = 20000;
constexpr uint64_t kStreamKeys = 65536;

struct StreamInputs {
  std::vector<uint8_t> is_read;
  std::vector<uint32_t> ordinal;   // per op: ingest# or read#
  std::vector<Tuple8> ingest;      // ingest# i -> [i*batch, (i+1)*batch)
  std::vector<uint32_t> read_keys;
  std::vector<double> arrival;     // virtual seconds
  uint64_t fingerprint = 0;        // sum of KeyFingerprint over ingest
  size_t batch = 0;
};

/// 50 % reads; 256-tuple ingest batches; Zipf exponent ramping 0.5 -> 1.5
/// between 40 % and 60 % of the ops; writers and readers share the op
/// index as their clock so their hot sets stay aligned. ext_stream ends
/// the ramp at 1.2, where the hottest bucket sits right at the detector's
/// 4x-mean split threshold: 1 of 12 seeds split at all. At 1.5 every seed
/// tried splits 8-10 times, so the workload does not change shape with
/// the seed.
StreamInputs MakeStreamInputs(uint64_t seed, size_t batch) {
  StreamInputs w;
  w.batch = batch;
  ZipfDriftSchedule sched;
  sched.theta0 = 0.5;
  sched.theta1 = 1.5;
  sched.shift_start = kStreamOps * 2 / 5;
  sched.shift_end = kStreamOps * 3 / 5;
  sched.seed = seed;
  DriftingZipfSampler write_keys(kStreamKeys, sched);
  DriftingZipfSampler read_keys(kStreamKeys, sched);
  Rng mix(seed ^ 0x6d697865722d6f70ULL);
  Rng arrivals(seed ^ 0x6172726976616c73ULL);
  double t = 0.0;
  uint32_t reads = 0, ingests = 0, payload = 0;
  for (uint64_t i = 0; i < kStreamOps; ++i) {
    t += NextArrival(&arrivals, 20000.0);
    w.arrival.push_back(t);
    const bool read = mix.NextDouble() < 0.5;
    w.is_read.push_back(read ? 1 : 0);
    if (read) {
      w.ordinal.push_back(reads++);
      w.read_keys.push_back(static_cast<uint32_t>(read_keys.NextAt(i)));
      continue;
    }
    w.ordinal.push_back(ingests++);
    for (size_t k = 0; k < batch; ++k) {
      const Tuple8 tup{static_cast<uint32_t>(write_keys.NextAt(i)), payload++};
      w.ingest.push_back(tup);
      w.fingerprint += stream::StreamStore::KeyFingerprint(tup.key);
    }
  }
  return w;
}

int RunStreamDrift(const Options& opt, Report* rep) {
  const double scale = BenchScale();
  const size_t batch = std::max<size_t>(32, static_cast<size_t>(256 * scale));
  double datagen_s = 0.0;
  HostSpeed speed;
  auto inputs = TimedSetup<StreamInputs>(
      [&]() -> Result<StreamInputs> {
        const double t0 = Now();
        StreamInputs w = MakeStreamInputs(opt.seed, batch);
        datagen_s = Now() - t0;
        return w;
      },
      &speed, rep);
  const StreamInputs& w = inputs.ValueOrDie();
  Trace trace(!opt.trace_path.empty());

  std::vector<double> ops_per_s, mtps, read_s, scanned, ondrain_total;
  std::vector<double> tail_s, pass_read_ms, speeds;
  uint64_t splits = 0, merges = 0, stale = 0, drains = 0;
  std::optional<uint64_t> first_hash;
  uint64_t op = 0;
  const double start = Now();
  do {
    stream::StreamStoreConfig store_cfg;
    store_cfg.drain_engine = Engine::kCpu;
    store_cfg.buffer_tuples =
        std::max<size_t>(batch, static_cast<size_t>(2048 * scale));
    stream::StreamStore store(store_cfg);
    svc::SchedulerConfig sched_cfg;
    sched_cfg.num_workers = 2;
    sched_cfg.deterministic = true;
    sched_cfg.queue_capacity = kStreamOps + 16;
    sched_cfg.name = "stream";
    svc::Scheduler scheduler(sched_cfg);
    uint64_t arrival_seq = 0;
    double virt_now = 0.0;
    stream::RepartitionConfig mgr_cfg;
    mgr_cfg.deterministic = true;
    mgr_cfg.detector.split_min_tuples =
        std::max<uint64_t>(64, static_cast<uint64_t>(4096 * scale));
    mgr_cfg.detector.min_depth = store.config().min_depth;
    mgr_cfg.next_arrival_seq = [&arrival_seq] { return arrival_seq++; };
    mgr_cfg.virtual_now = [&virt_now] { return virt_now; };
    stream::RepartitionManager manager(&store, &scheduler, mgr_cfg);

    uint64_t hash = 0xcbf29ce484222325ULL;
    double ondrain_s = 0.0;
    const size_t pass_begin = read_s.size();
    const double t0 = Now();
    for (uint64_t i = 0; i < kStreamOps; ++i, ++op) {
      virt_now = w.arrival[i];
      const int64_t root = trace.Open("op", op, -1, Now());
      if (w.is_read[i] == 0) {
        const Tuple8* tuples = w.ingest.data() + size_t{w.ordinal[i]} * batch;
        const uint64_t drains_before = store.drains();
        const double a = Now();
        const Status s = store.Ingest(tuples, batch);
        double b = Now();
        trace.Add("stream.ingest", op, root, a, b);
        if (!s.ok()) rep->Fail("ingest: " + s.ToString());
        for (uint64_t d = drains_before; d < store.drains(); ++d) {
          manager.OnDrain();
          const double c = Now();
          trace.Add("stream.ondrain", op, root, b, c);
          ondrain_s += c - b;
          b = c;
        }
        hash = Fnv1a(Fnv1a(Fnv1a(hash, i), store.drains()), store.epoch());
      } else {
        const uint32_t key = w.read_keys[w.ordinal[i]];
        const double a = Now();
        const stream::ReadResult r = store.Read(key);
        const double b = Now();
        trace.Add("stream.read", op, root, a, b);
        read_s.push_back(b - a);
        scanned.push_back(static_cast<double>(r.scanned));
        hash = Fnv1a(Fnv1a(Fnv1a(hash, i), key), r.matches);
        hash = Fnv1a(Fnv1a(hash, r.scanned), r.epoch);
      }
      trace.Close(root, Now());
    }
    // The pass ends when the buffer is drained and staged rebuilds landed.
    const int64_t root = trace.Open("op", op, -1, Now());
    const double f0 = Now();
    const Status flushed = store.Flush();
    const double f1 = Now();
    manager.Quiesce();
    const double f2 = Now();
    trace.Add("stream.flush", op, root, f0, f1);
    trace.Add("stream.quiesce", op, root, f1, f2);
    trace.Close(root, f2);
    ++op;
    scheduler.Shutdown();
    const double t_end = Now();
    rep->Attempted(kStreamOps);
    if (!flushed.ok()) rep->Fail("flush: " + flushed.ToString());

    // Zero lost or duplicated keys across every epoch flip.
    const uint64_t ingested = w.ingest.size();
    if (store.total_tuples() != ingested) {
      rep->Fail("stream: resident tuples " +
                std::to_string(store.total_tuples()) + " != ingested " +
                std::to_string(ingested));
    }
    if (store.KeyChecksum() != w.fingerprint) {
      rep->Fail("stream: key checksum differs from the ingest fingerprint");
    }
    for (const auto& f : store.FlipLog()) {
      (f.split ? splits : merges)++;
      hash = Fnv1a(Fnv1a(Fnv1a(hash, f.epoch), f.pattern), f.watermark);
    }
    hash = Fnv1a(hash, store.KeyChecksum());
    if (!first_hash) {
      first_hash = hash;
    } else if (hash != *first_hash) {
      rep->Fail("stream: determinism hash differs between passes");
    }
    stale += store.stale_commits();
    drains += store.drains();
    ops_per_s.push_back(kStreamOps / (t_end - t0));
    mtps.push_back(ingested / (t_end - t0) / 1e6);
    ondrain_total.push_back(ondrain_s);
    tail_s.push_back(f2 - f0);
    pass_read_ms.push_back(
        1e3 * Median(std::vector<double>(read_s.begin() + pass_begin,
                                         read_s.end())));
    speeds.push_back(speed.Scale());
  } while (Now() - start < opt.seconds);
  const double measured = Now() - start;
  const double passes = static_cast<double>(ops_per_s.size());

  rep->Metric("bench.peak_rss_mb", PeakRssMb(), "MB");
  rep->Metric("bench.host_ref_us", 1e6 * speed.kernel_seconds(), "us");
  HostMetric("throughput", ops_per_s, speeds, HostKind::kRate, "1/s", rep);
  HostMetric("latency_p50_ms", pass_read_ms, speeds, HostKind::kTime, "ms",
             rep);
  rep->Metric("stream_read_p50_us", 1e6 * Quantile(read_s, 0.5), "us");
  rep->Metric("stream_read_p99_us", 1e6 * Quantile(read_s, 0.99), "us");
  rep->Metric("stream_ingest_mtps", Median(mtps), "Mtuples/s");
  if (!trace.on()) return rep->Finish();

  rep->Metric("datagen.relation_s", datagen_s, "s");
  const auto ingest = trace.Durations("stream.ingest");
  rep->Metric("stream.ingest_us.p50", 1e6 * Quantile(ingest, 0.5), "us");
  rep->Metric("stream.ingest_us.p99", 1e6 * Quantile(ingest, 0.99), "us");
  const auto ondrain = trace.Durations("stream.ondrain");
  rep->Metric("stream.ondrain_us.p50", 1e6 * Quantile(ondrain, 0.5), "us");
  rep->Metric("stream.ondrain_us.p99", 1e6 * Quantile(ondrain, 0.99), "us");
  rep->Metric("stream.ondrain_s", Median(ondrain_total), "s");
  rep->Metric("stream.quiesce_ms", 1e3 * Median(tail_s), "ms");
  rep->Metric("stream.scan.p50", Quantile(scanned, 0.5), "tuples");
  rep->Metric("stream.scan.p99", Quantile(scanned, 0.99), "tuples");
  rep->Metric("stream.splits", splits / passes, "count");
  rep->Metric("stream.merges", merges / passes, "count");
  rep->Metric("stream.stale_commits", stale / passes, "count");
  rep->Metric("stream.drains", drains / passes, "count");
  FinishTrace(trace, measured, opt.trace_path, rep);
  return rep->Finish();
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
}  // namespace fpart::e2e

int main(int argc, char** argv) {
  using namespace fpart::e2e;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argc, argv, &i, "--workload", &v)) {
      opt.workload = v;
    } else if (ParseFlag(argc, argv, &i, "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argc, argv, &i, "--seconds", &v)) {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argc, argv, &i, "--trace", &v)) {
      opt.trace_path = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (!(opt.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  Report rep;
  if (opt.workload == "batch_cold") return RunBatchCold(opt, &rep);
  if (opt.workload == "svc_open") return RunSvcOpen(opt, &rep);
  if (opt.workload == "svc_replay") return RunSvcReplay(opt, &rep);
  if (opt.workload == "stream_drift") return RunStreamDrift(opt, &rep);
  std::fprintf(stderr,
               "--workload must be batch_cold|svc_open|svc_replay|"
               "stream_drift\n");
  return 2;
}
