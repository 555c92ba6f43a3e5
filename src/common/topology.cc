#include "common/topology.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace fpart {
namespace {

// Read a small sysfs file holding one integer; `def` on any failure.
int ReadSysfsInt(const std::string& path, int def) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return def;
  int value = def;
  if (std::fscanf(f, "%d", &value) != 1) value = def;
  std::fclose(f);
  return value;
}

// Parse a sysfs cpulist ("0-3,8,10-11") into logical CPU ids.
std::vector<int> ParseCpuList(const std::string& path) {
  std::vector<int> cpus;
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return cpus;
  char buf[4096] = {};
  const size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  (void)got;
  const char* p = buf;
  while (*p != '\0' && *p != '\n') {
    char* end = nullptr;
    long lo = std::strtol(p, &end, 10);
    if (end == p) break;
    long hi = lo;
    p = end;
    if (*p == '-') {
      hi = std::strtol(p + 1, &end, 10);
      if (end == p + 1) break;
      p = end;
    }
    for (long c = lo; c <= hi && c - lo < 4096; ++c) {
      cpus.push_back(static_cast<int>(c));
    }
    if (*p == ',') ++p;
  }
  return cpus;
}

Topology FallbackTopology() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return Topology::Synthetic(/*nodes=*/1, /*cpus_per_node=*/
                             static_cast<int>(hw), /*smt=*/1);
}

}  // namespace

const char* AffinityPolicyName(AffinityPolicy policy) {
  switch (policy) {
    case AffinityPolicy::kNone:
      return "none";
    case AffinityPolicy::kCompact:
      return "compact";
    case AffinityPolicy::kScatter:
      return "scatter";
    case AffinityPolicy::kNumaLocal:
      return "numa-local";
  }
  return "unknown";
}

bool ParseAffinityPolicy(std::string_view s, AffinityPolicy* policy) {
  if (s == "none") {
    *policy = AffinityPolicy::kNone;
  } else if (s == "compact") {
    *policy = AffinityPolicy::kCompact;
  } else if (s == "scatter") {
    *policy = AffinityPolicy::kScatter;
  } else if (s == "numa-local" || s == "numa_local") {
    *policy = AffinityPolicy::kNumaLocal;
  } else {
    return false;
  }
  return true;
}

AffinityPolicy AffinityPolicyFromEnv() {
  static const AffinityPolicy policy = [] {
    AffinityPolicy p = AffinityPolicy::kNone;
    const char* v = std::getenv("FPART_AFFINITY");
    if (v != nullptr && *v != '\0' && !ParseAffinityPolicy(v, &p)) {
      std::fprintf(stderr,
                   "fpart: ignoring FPART_AFFINITY=%s "
                   "(none|compact|scatter|numa-local)\n",
                   v);
    }
    return p;
  }();
  return policy;
}

const Topology& Topology::Host() {
  static const Topology* const host = new Topology(Detect());
  return *host;
}

Topology Topology::Detect() {
#if defined(__linux__)
  Topology topo;
  std::vector<int> online =
      ParseCpuList("/sys/devices/system/cpu/online");
  if (online.empty()) return FallbackTopology();

  // Node of each CPU from the node side (cpuX has no "node" file; the
  // node directories list their CPUs instead).
  std::map<int, int> cpu_node;
  std::vector<int> nodes =
      ParseCpuList("/sys/devices/system/node/online");
  for (int node : nodes) {
    const std::string list =
        "/sys/devices/system/node/node" + std::to_string(node) + "/cpulist";
    for (int cpu : ParseCpuList(list)) cpu_node[cpu] = node;
  }

  // Hyperthread index: order of appearance within each (package, core).
  std::map<std::pair<int, int>, int> smt_seen;
  for (int cpu : online) {
    const std::string base =
        "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    CpuSlot slot;
    slot.cpu = cpu;
    slot.core = ReadSysfsInt(base + "core_id", cpu);
    slot.package = ReadSysfsInt(base + "physical_package_id", 0);
    if (slot.package < 0) slot.package = 0;
    auto it = cpu_node.find(cpu);
    slot.node = it != cpu_node.end() ? it->second : 0;
    slot.smt = smt_seen[{slot.package, slot.core}]++;
    topo.cpus_.push_back(slot);
  }
  int max_node = 0;
  std::map<std::pair<int, int>, int> cores;
  for (const CpuSlot& s : topo.cpus_) {
    max_node = std::max(max_node, s.node);
    cores[{s.package, s.core}] = 1;
  }
  topo.num_nodes_ = static_cast<size_t>(max_node) + 1;
  topo.num_cores_ = std::max<size_t>(1, cores.size());
  return topo;
#else
  return FallbackTopology();
#endif
}

Topology Topology::Synthetic(int nodes, int cpus_per_node, int smt) {
  Topology topo;
  if (nodes < 1) nodes = 1;
  if (cpus_per_node < 1) cpus_per_node = 1;
  if (smt < 1) smt = 1;
  const int cores_per_node = std::max(1, cpus_per_node / smt);
  int cpu = 0;
  for (int n = 0; n < nodes; ++n) {
    for (int c = 0; c < cpus_per_node; ++c) {
      CpuSlot slot;
      slot.cpu = cpu++;
      // Siblings of one core get consecutive smt indices; ids follow the
      // common Linux enumeration where siblings are cores_per_node apart.
      slot.core = c % cores_per_node;
      slot.package = n;
      slot.node = n;
      slot.smt = c / cores_per_node;
      topo.cpus_.push_back(slot);
    }
  }
  topo.num_nodes_ = static_cast<size_t>(nodes);
  topo.num_cores_ = static_cast<size_t>(nodes) * cores_per_node;
  return topo;
}

int Topology::NodeOfCpu(int cpu) const {
  for (const CpuSlot& s : cpus_) {
    if (s.cpu == cpu) return s.node;
  }
  return 0;
}

std::vector<Topology::Pin> Topology::PinPlan(AffinityPolicy policy,
                                             size_t num_threads) const {
  std::vector<Pin> plan(num_threads);
  if (policy == AffinityPolicy::kNone || cpus_.empty()) {
    return plan;  // all {-1, 0}: unpinned
  }

  std::vector<CpuSlot> order = cpus_;
  switch (policy) {
    case AffinityPolicy::kCompact:
      // Pack: fill each core's siblings, then the next core, then the
      // next package.
      std::stable_sort(order.begin(), order.end(),
                       [](const CpuSlot& a, const CpuSlot& b) {
                         return std::tie(a.package, a.core, a.smt, a.cpu) <
                                std::tie(b.package, b.core, b.smt, b.cpu);
                       });
      break;
    case AffinityPolicy::kScatter:
      // Spread: one hyperthread per core across every package first;
      // siblings only once every core already has a worker.
      std::stable_sort(order.begin(), order.end(),
                       [](const CpuSlot& a, const CpuSlot& b) {
                         return std::tie(a.smt, a.package, a.core, a.cpu) <
                                std::tie(b.smt, b.package, b.core, b.cpu);
                       });
      break;
    case AffinityPolicy::kNumaLocal:
      // Node-major so each node's workers are index-contiguous; within a
      // node, scatter across cores before siblings.
      std::stable_sort(order.begin(), order.end(),
                       [](const CpuSlot& a, const CpuSlot& b) {
                         return std::tie(a.node, a.smt, a.core, a.cpu) <
                                std::tie(b.node, b.smt, b.core, b.cpu);
                       });
      break;
    case AffinityPolicy::kNone:
      break;
  }

  for (size_t t = 0; t < num_threads; ++t) {
    if (t < order.size()) {
      plan[t].cpu = order[t].cpu;
      plan[t].node = order[t].node;
    } else {
      // Oversubscribed: leave the overflow workers unpinned (pinning two
      // workers to one CPU serializes them) but keep a round-robin node
      // tag so scratch placement still spreads.
      plan[t].cpu = -1;
      plan[t].node = order[t % order.size()].node;
    }
  }
  return plan;
}

bool PinCurrentThreadToCpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

namespace {
thread_local WorkerContext g_worker_context;
}  // namespace

const WorkerContext& CurrentWorkerContext() { return g_worker_context; }

void SetCurrentWorkerContext(const WorkerContext& ctx) {
  g_worker_context = ctx;
}

}  // namespace fpart
