// A small fixed-size thread pool used by the parallel CPU partitioner,
// the parallel build+probe phase of the radix join, and the svc runtime's
// backend executors.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/topology.h"

namespace fpart {

/// \brief Fixed-size pool of worker threads executing submitted closures.
///
/// Designed for the fork/join pattern of the partitioned join: submit one
/// task per morsel, then WaitIdle() as the barrier between phases.
///
/// Workers are optionally pinned to CPUs according to an AffinityPolicy
/// (default: the process-wide FPART_AFFINITY knob). Pinning happens in the
/// constructor, so worker_cpu()/worker_node()/pinned_workers() are valid
/// as soon as the pool exists. Every worker publishes its identity through
/// SetCurrentWorkerContext, which trace spans and NUMA-aware allocators
/// read back without any argument plumbing.
///
/// A task that throws does not kill its worker: the first exception of a
/// batch is captured and rethrown from the next WaitIdle() (and therefore
/// from ParallelFor()), mirroring what the submitter would have seen had
/// the task run inline. Later exceptions of the same batch are dropped.
class ThreadPool {
 public:
  /// \param name      worker thread name prefix (worker i is "<name>/<i>",
  ///                  truncated to the kernel's 15-character limit).
  /// \param affinity  worker pinning policy; the default inherits the
  ///                  FPART_AFFINITY environment knob so every pool in the
  ///                  benches and the service picks it up automatically.
  explicit ThreadPool(size_t num_threads,
                      const std::string& name = "fpart-wkr",
                      AffinityPolicy affinity = AffinityPolicyFromEnv());
  ~ThreadPool();

  FPART_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  /// Enqueue a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Block until every submitted task has finished. Rethrows the first
  /// exception any task of the batch threw (the pool stays usable).
  void WaitIdle();

  size_t num_threads() const { return threads_.size(); }

  /// The pinning policy this pool was built with.
  AffinityPolicy affinity() const { return affinity_; }

  /// Logical CPU worker `i` is pinned to, or -1 when unpinned.
  int worker_cpu(size_t i) const { return plan_[i].cpu; }

  /// NUMA node tag of worker `i` (0 when unknown / unpinned).
  int worker_node(size_t i) const { return plan_[i].node; }

  /// Number of workers whose pin mask the kernel accepted. Zero under
  /// kNone or when the platform has no affinity support.
  size_t pinned_workers() const { return pinned_workers_; }

  /// Run `fn(worker_index)` on `n` logical workers in parallel and wait.
  /// When n == 1 the call runs inline on the caller (matching the paper's
  /// single-threaded measurements, which do not pay thread hand-off costs).
  /// Worker exceptions propagate to the caller, as with WaitIdle().
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop(size_t index);

  std::string name_;
  AffinityPolicy affinity_ = AffinityPolicy::kNone;
  std::vector<Topology::Pin> plan_;  // one entry per worker
  size_t pinned_workers_ = 0;
  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  size_t in_flight_ = 0;
  bool started_ = false;  ///< workers hold until the ctor finishes pinning
  bool shutdown_ = false;
  /// First exception thrown by a task since the last WaitIdle().
  std::exception_ptr first_error_;
};

}  // namespace fpart
