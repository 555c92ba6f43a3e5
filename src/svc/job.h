// Job model of the partitioning service runtime (docs/architecture.md,
// "svc layer"): the request types concurrent clients submit, the per-job
// lifecycle record the scheduler tracks, and the completion handle a
// client waits on.
//
// The paper's Section 2/5 argument is that the QPI-attached FPGA is a
// *shared co-processor*: it partitions at bandwidth speed while the CPU
// cores stay free for other queries. The svc runtime makes that concrete —
// many clients submit PartitionJob/JoinJob requests, and the scheduler
// decides per job who runs it (FPGA, CPU SIMD path, or the hybrid join)
// using the Section 4.6 cost model plus live queue state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/status.h"
#include "core/engine.h"
#include "datagen/relation.h"
#include "datagen/tuple.h"

namespace fpart::svc {

using JobId = uint64_t;

/// What a job asks the service to do.
enum class JobKind {
  /// Partition one relation (the service's bread-and-butter request).
  kPartition,
  /// Equi-join two relations (CPU radix join or the hybrid CPU+FPGA join).
  kJoin,
  /// Layout maintenance on behalf of the streaming store (stream/
  /// repartition.h): split a hot partition or merge cold buddies. Always
  /// CPU-placed; competes through the same WFQ classes as foreground
  /// jobs (default kBestEffort), which is the whole point — rebalance
  /// work must not starve or be starved arbitrarily.
  kRebalance,
};

/// Which backend a job was placed on.
enum class Backend {
  /// Host CPU: fused-SIMD partitioner / radix join.
  kCpu,
  /// The (simulated) FPGA circuit, under an exclusive device lease.
  kFpga,
  /// Joins only: FPGA partitions both relations under the lease, the CPU
  /// runs build+probe after the lease is released (Section 5).
  kHybrid,
};

/// \brief Priority class of a job (weighted fair queueing, job_queue.h).
/// Interactive tenants outweigh batch, batch outweighs best-effort; the
/// scheduler's class weights decide the exact service shares.
enum class JobClass {
  kInteractive = 0,
  kBatch = 1,
  kBestEffort = 2,
};

inline constexpr size_t kNumJobClasses = 3;

const char* JobKindName(JobKind kind);
const char* BackendName(Backend backend);
const char* JobClassName(JobClass cls);

/// Terminal state of a job.
enum class JobState {
  kQueued,
  kRunning,
  kCompleted,
  /// The backend returned a non-OK, non-cancelled Status.
  kFailed,
  kCancelled,
  /// Rejected at admission: the bounded queue was full (backpressure).
  kShed,
  /// Rejected at admission: the SLO-aware controller predicted the job
  /// would miss its deadline or its class latency SLO (Status::SloError,
  /// svc/admission.h). Unlike kShed this is a feasibility verdict, not an
  /// occupancy one — the queue may have had room.
  kRejected,
};

const char* JobStateName(JobState state);

/// \brief A partitioning request as a service job. The input relation is
/// borrowed — it must outlive the job — which models the service acting on
/// resident tables rather than per-request copies.
struct PartitionJobSpec {
  const Relation<Tuple8>* input = nullptr;
  /// Request knobs. `engine`, `pool` and `cancel` are owned by the
  /// scheduler: placement decides the engine, and the per-job cancel token
  /// is wired in by the executor.
  PartitionRequest request;
};

/// \brief An equi-join request as a service job (R ⋈ S, Tuple8 keys).
struct JoinJobSpec {
  const Relation<Tuple8>* r = nullptr;
  const Relation<Tuple8>* s = nullptr;
  uint32_t fanout = 2048;
  HashMethod hash = HashMethod::kMurmur;
};

/// \brief A layout-maintenance request as a service job. The scheduler
/// treats the work as an opaque CPU-side function so svc stays independent
/// of the stream layer; the stream's RepartitionManager owns the semantics
/// (snapshot + rebuild a bucket, see stream/repartition.h).
struct RebalanceJobSpec {
  /// The maintenance work. Receives the job's cancel token (checked
  /// cooperatively; return Status::Cancelled when honoured).
  std::function<Status(const std::atomic<bool>* cancel)> work;
  /// Tuples the rebuild will touch — the WFQ service demand and the basis
  /// of the CPU placement estimate.
  uint64_t cost_tuples = 1;
};

/// Sentinel: the scheduler assigns the arrival sequence itself.
inline constexpr uint64_t kAutoArrivalSeq =
    std::numeric_limits<uint64_t>::max();

struct JobOutcome;

/// \brief Per-job scheduling options.
struct JobOptions {
  /// Relative deadline in seconds from submission (0 = none). The FPGA
  /// arbiter and the live-mode queue order earliest-deadline-first, FIFO
  /// among equal deadlines.
  double deadline_seconds = 0.0;
  /// Pin the job to one backend (skips the placement policy). Used by the
  /// interference bench and by clients that know better.
  std::optional<Backend> pinned;
  /// Priority class for weighted fair queueing. Classes split the live-mode
  /// service capacity in proportion to SchedulerConfig::class_weights;
  /// within a class, jobs still run earliest-deadline-first then FIFO.
  JobClass job_class = JobClass::kBatch;
  /// Deterministic mode only: the caller-assigned arrival sequence number.
  /// Clients must hand the scheduler a contiguous 0..N-1 numbering (any
  /// submission interleaving); placement is computed strictly in this
  /// order, which is what makes a multi-client replay bit-deterministic.
  uint64_t arrival_seq = kAutoArrivalSeq;
  /// Deterministic mode only: the job's arrival time on the workload's
  /// virtual clock (seconds). Placement charges queueing delay against
  /// this clock instead of the wall clock.
  double virtual_arrival_seconds = 0.0;
  /// Invoked exactly once when the job reaches a terminal state —
  /// completed, failed, cancelled, or shed at admission — after the
  /// outcome is published and handle waiters are woken. Runs on the
  /// completing thread (a worker, or the submitting thread for shed
  /// jobs); keep it cheap and never call back into the scheduler from it.
  /// The cluster layer (dist/cluster.h) uses this for cross-node
  /// in-flight accounting.
  std::function<void(const JobOutcome&)> on_complete;
};

/// \brief Completion record of a job, filled exactly once.
struct JobOutcome {
  JobState state = JobState::kQueued;
  Status status;
  Backend backend = Backend::kCpu;
  /// FNV-1a over the per-partition tuple counts (partition jobs) or the
  /// join's match checksum — backend-independent for a fixed hash config,
  /// so replays can assert bit-identical results across runs.
  uint64_t checksum = 0;
  uint64_t matches = 0;  ///< joins only
  /// Wall seconds queued (submit -> execution start) and executing.
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  /// Model/simulated seconds of the device phase (FPGA/hybrid jobs).
  double device_seconds = 0.0;
  /// Deterministic mode only: the job's latency on the *virtual* clock —
  /// queue wait (virtual arrival -> virtual start on the placed backend)
  /// and modeled service time. Together they are the replayed stream's
  /// noise-free latency, a pure function of the job stream (what
  /// bench/ext_cluster.cc reports percentiles over); both 0.0 in live
  /// mode, where the wall-clock fields above are the measurement.
  double virtual_queue_seconds = 0.0;
  double virtual_run_seconds = 0.0;
  /// SLO admission (SloConfig::enabled): the corrected end-to-end latency
  /// the controller predicted when it decided this job, and the budget it
  /// was held to (min of the job deadline and the class SLO; 0 when
  /// neither applies, in which case the job is always admitted). Admitted
  /// jobs satisfy predicted <= budget by construction; a kRejected
  /// outcome carries the violating prediction. Both 0 when admission is
  /// disabled.
  double admit_predicted_seconds = 0.0;
  double admit_budget_seconds = 0.0;
};

/// \brief Internal lifecycle record shared by scheduler, executor and the
/// client-facing handle. Lives until the last handle drops.
struct JobRecord {
  JobId id = 0;
  uint64_t seq = 0;  ///< arrival order (assigned or caller-provided)
  JobKind kind = JobKind::kPartition;
  PartitionJobSpec partition;
  JoinJobSpec join;
  RebalanceJobSpec rebalance;
  JobOptions opts;

  /// Priority class (copied from opts at submission; queue ordering key).
  JobClass cls = JobClass::kBatch;
  /// Service demand the weighted-fair queue charges this job: input tuples
  /// (partition) or r+s tuples (join), never below 1.
  double wfq_cost = 1.0;
  /// Device index granted by the DevicePool (-1 before/without a grant).
  int device = -1;
  /// Device whose ledger backlog was charged at placement (-1 for CPU
  /// placements and in deterministic mode, where virtual clocks rule).
  int charged_device = -1;

  /// Cooperative cancellation token; the executor wires it into the
  /// backend configs (checked at phase boundaries).
  std::atomic<bool> cancel{false};

  /// Absolute deadline key for ordering: wall microseconds since the
  /// scheduler epoch (+inf when no deadline).
  double deadline_key = std::numeric_limits<double>::infinity();
  /// Wall seconds since the scheduler epoch at submission.
  double submit_seconds = 0.0;
  /// Estimated service seconds on the backend the job was placed on
  /// (model time; the ledger charges it and the device pick discounts
  /// it). With SLO admission enabled this is the EWMA-*corrected*
  /// estimate; `model_estimate_seconds` keeps the raw static-model value
  /// the correction learns against.
  double placed_estimate_seconds = 0.0;
  double model_estimate_seconds = 0.0;
  /// Live-mode SLO admission: the corrected service estimate held as
  /// pending work in the BacklogLedger from admission until the dispatcher
  /// places the job.
  double admit_pending_charge = 0.0;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  JobOutcome outcome;
};

/// \brief Client-side completion handle (shared-state future).
class JobHandle {
 public:
  JobHandle() = default;
  explicit JobHandle(std::shared_ptr<JobRecord> rec) : rec_(std::move(rec)) {}

  bool valid() const { return rec_ != nullptr; }
  JobId id() const { return rec_ ? rec_->id : 0; }

  /// Block until the job reaches a terminal state.
  const JobOutcome& Wait() const {
    std::unique_lock<std::mutex> lock(rec_->mu);
    rec_->cv.wait(lock, [this] { return rec_->done; });
    return rec_->outcome;
  }

  /// Non-blocking probe; nullopt while the job is still in flight.
  std::optional<JobOutcome> TryGet() const {
    std::unique_lock<std::mutex> lock(rec_->mu);
    if (!rec_->done) return std::nullopt;
    return rec_->outcome;
  }

  /// Request cancellation. Queued jobs (including FPGA lease waiters)
  /// complete as kCancelled without running; a running job aborts at its
  /// next phase boundary. Safe to call at any point in the lifecycle.
  void Cancel() const {
    if (rec_) rec_->cancel.store(true, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<JobRecord> rec_;
};

/// FNV-1a over a histogram of per-partition tuple counts (the
/// backend-independent result fingerprint of a partition job).
inline uint64_t HistogramChecksum(const uint64_t* counts, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = counts[i];
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace fpart::svc
