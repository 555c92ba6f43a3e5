// Host CPU topology discovery and worker-pinning policy.
//
// The paper's CPU baseline is memory-bound (Section 5): partitioning
// throughput is governed by cache/TLB behaviour and socket locality, so
// where the OS schedules a worker and on which NUMA node its scratch
// lives is a first-order effect. This module discovers the host layout
// (cores, hyperthread siblings, packages, NUMA nodes) from sysfs — with a
// portable single-node fallback — and turns an AffinityPolicy into a
// per-worker pin plan that ThreadPool and the svc runtime apply.
//
// Policy selection: the FPART_AFFINITY environment variable
// (none|compact|scatter|numa-local) is the global knob; ThreadPool's
// constructor defaults to it, so every pool in the benches and the
// service inherits the policy without per-call-site plumbing.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"

namespace fpart {

/// How worker threads are pinned to CPUs.
enum class AffinityPolicy {
  /// No pinning; the OS scheduler places workers (the pre-PR-7 behaviour).
  kNone,
  /// Fill physical cores in order, hyperthread siblings adjacent: workers
  /// pack onto the fewest cores/sockets. Maximizes cache sharing between
  /// neighbouring workers (and exposes the HT-pairing penalty on purpose).
  kCompact,
  /// One worker per physical core across all sockets before any
  /// hyperthread sibling is used: maximizes private cache and memory
  /// bandwidth per worker.
  kScatter,
  /// Scatter, but workers are assigned to NUMA nodes in contiguous
  /// blocks (node-major worker order), so work split by worker index gives
  /// each node's workers one contiguous range.
  kNumaLocal,
};

const char* AffinityPolicyName(AffinityPolicy policy);

/// Parse "none|compact|scatter|numa-local" (also accepts "numa_local").
/// Returns false (and leaves *policy untouched) on unknown spellings.
bool ParseAffinityPolicy(std::string_view s, AffinityPolicy* policy);

/// The process-wide default policy: FPART_AFFINITY, or kNone when unset
/// or unparseable. Read once and cached.
AffinityPolicy AffinityPolicyFromEnv();

/// One logical CPU as discovered from sysfs.
struct CpuSlot {
  int cpu = 0;      ///< logical CPU id (sched_setaffinity mask bit)
  int core = 0;     ///< physical core id within the package
  int package = 0;  ///< socket id
  int node = 0;     ///< NUMA node id
  /// 0 for the first hyperthread seen on the core, 1 for its sibling, ...
  int smt = 0;
};

/// \brief The host's CPU/NUMA layout plus pin-plan construction.
///
/// Detection reads /sys/devices/system/cpu and /sys/devices/system/node;
/// when sysfs is unavailable (non-Linux, sandboxes) it falls back to
/// hardware_concurrency() CPUs on one node — every policy then still
/// produces a valid plan, it just cannot express socket placement.
class Topology {
 public:
  /// The detected host topology (computed once, cached for the process).
  static const Topology& Host();

  /// Fresh detection (tests use this to exercise the sysfs reader).
  static Topology Detect();

  /// Synthetic topology for tests: `cpus_per_node` logical CPUs on each
  /// of `nodes` nodes, `smt` hyperthreads per core, one package per node.
  static Topology Synthetic(int nodes, int cpus_per_node, int smt = 1);

  size_t num_cpus() const { return cpus_.size(); }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_cores() const { return num_cores_; }
  const std::vector<CpuSlot>& cpus() const { return cpus_; }

  /// NUMA node of a logical CPU id; 0 when unknown.
  int NodeOfCpu(int cpu) const;

  /// \brief One worker's pin assignment. cpu == -1 means "do not pin"
  /// (kNone, or more workers than CPUs make pinning pointless for the
  /// overflow workers — they still carry a node tag for scratch placement).
  struct Pin {
    int cpu = -1;
    int node = 0;
  };

  /// Per-worker pin plan for `num_threads` workers under `policy`.
  /// Deterministic for a fixed topology. kNumaLocal orders workers
  /// node-major (workers of one node are index-contiguous).
  std::vector<Pin> PinPlan(AffinityPolicy policy, size_t num_threads) const;

 private:
  std::vector<CpuSlot> cpus_;  // sorted by logical cpu id
  size_t num_nodes_ = 1;
  size_t num_cores_ = 1;
};

/// Pin the calling thread to one logical CPU. Returns false when the
/// platform has no affinity syscall or the kernel rejects the mask (both
/// are non-fatal: the worker simply stays unpinned).
bool PinCurrentThreadToCpu(int cpu);

/// \brief Identity of the current pool worker, published by ThreadPool /
/// svc workers via SetCurrentWorkerContext so that trace spans and
/// NUMA-aware allocators can attribute work without plumbing arguments
/// through every call chain. worker == -1 outside any pool worker.
struct WorkerContext {
  int worker = -1;  ///< worker index within its pool
  int node = -1;    ///< NUMA node the worker is pinned/tagged to
  int cpu = -1;     ///< logical CPU the worker is pinned to (-1 unpinned)
  const char* pool = nullptr;  ///< pool name (static or pool-owned string)
};

/// Thread-local worker identity (default-constructed outside workers).
const WorkerContext& CurrentWorkerContext();
void SetCurrentWorkerContext(const WorkerContext& ctx);

}  // namespace fpart
