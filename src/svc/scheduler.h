// The multi-tenant partitioning service scheduler: the svc runtime's
// control plane.
//
//   clients ── Submit ──▶ JobQueue ── dispatcher ──▶ ready deque ──▶ workers
//                (admission)    (placement)                  (execution)
//
// One dispatcher thread pops admitted jobs in queue order (live mode:
// weighted fair queueing over priority classes, job_queue.h), decides the
// backend with DecidePlacement (cost model + live backlog), and hands the
// job to one of `num_workers` named worker threads. FPGA and hybrid jobs
// additionally acquire one exclusive device lease from the DevicePool
// (`fpga_devices` simulated FPGAs) before touching the simulator, so no
// device is ever run by two jobs at once — which is exactly why CPU
// fallback under device backlog matters.
//
// Two clocks:
//  * live mode — wall time; backlog doubles are kept per device by the
//    pool (FPGA) and by the scheduler (CPU) in model seconds, added at
//    placement and subtracted at completion.
//  * deterministic mode — virtual time: clients assign each job a
//    contiguous arrival_seq and a virtual arrival timestamp; the
//    dispatcher processes strictly in sequence order and advances
//    per-backend virtual free clocks (list scheduling). Placement is then
//    a pure function of the job stream — bit-identical across replays no
//    matter how client threads interleave.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "fpga/config.h"
#include "svc/admission.h"
#include "svc/fpga_arbiter.h"
#include "svc/job.h"
#include "svc/job_queue.h"
#include "svc/placement.h"

namespace fpart::svc {

/// How the dispatcher chooses a backend.
enum class PlacementPolicy {
  /// Cost-model + backlog comparison (DecidePlacement). The default.
  kAdaptive,
  /// Everything on the host CPU (baseline for the service benches).
  kCpuOnly,
  /// Everything on the device (saturates the arbiter; stress baseline).
  kFpgaOnly,
  /// Alternate by arrival sequence (placement-independent load split).
  kRoundRobin,
};

const char* PlacementPolicyName(PlacementPolicy policy);

/// \brief Scheduler construction knobs.
struct SchedulerConfig {
  /// Admission queue bound; Submit sheds with CapacityError beyond it.
  size_t queue_capacity = 256;
  /// Worker threads executing placed jobs (each runs one job at a time).
  size_t num_workers = 4;
  /// Autoscaling headroom (live mode): worker threads are created up to
  /// this count but only `num_workers` start active; the rest park on the
  /// ready queue until SetActiveWorkers() grows the active set (the
  /// svc.slo.pressure signal drives this in bench/ext_service's
  /// --autoscale arm). 0 = num_workers (no headroom). Deterministic mode
  /// ignores the headroom — virtual worker clocks are fixed at
  /// construction so replays stay bit-identical.
  size_t max_workers = 0;
  /// CPU threads a single job's partition/build+probe phases may use
  /// (1 = run inline on the worker; >1 = per-worker pool).
  size_t cpu_threads_per_job = 1;
  /// Simulated FPGA devices in the pool (0 is clamped to 1). Device jobs
  /// take exactly one lease; grants go to the least-backlogged free
  /// device.
  size_t fpga_devices = 1;
  /// Weighted-fair-queueing weights per priority class
  /// (interactive/batch/best-effort). Live mode only; deterministic
  /// replays dispatch in strict arrival order.
  std::array<double, kNumJobClasses> class_weights = kDefaultClassWeights;
  PlacementPolicy policy = PlacementPolicy::kAdaptive;
  /// Deterministic replay mode (strict arrival-seq dispatch + virtual
  /// clocks). See the file comment.
  bool deterministic = false;
  /// Mark FPGA runs as link-interfered while host workers are busy
  /// (Figure 2's "interfered" curves). Live mode only — deterministic
  /// replays use each request's own interference setting.
  bool adaptive_interference = true;
  /// Simulator backend for device runs the scheduler configures itself
  /// (the join jobs' partitioning passes). Partition jobs carry their own
  /// PartitionRequest::sim_mode.
  SimMode sim_mode = SimMode::kFast;
  /// Memoize device run results (FpgaPartitionerConfig::sim_cache) on the
  /// scheduler's own device runs — repeated job shapes skip re-simulation.
  bool sim_cache = false;
  /// SLO-aware admission control (svc/admission.h): per-class latency
  /// SLOs, deadline-feasibility rejection (Status::SloError) and the
  /// EWMA cost-model correction. Disabled by default.
  SloConfig slo;
  /// Construct with the dispatcher held; jobs queue until Resume(). Lets
  /// tests stage admission-control and cancellation scenarios.
  bool start_paused = false;
  /// Worker-thread pinning policy: applied to the `num_workers` job
  /// workers and inherited by the per-worker pools. Defaults to the
  /// process-wide FPART_AFFINITY knob. Placement and virtual-time replay
  /// are unaffected by pinning, so the determinism hash is too.
  AffinityPolicy affinity = AffinityPolicyFromEnv();
  /// Thread-name prefix of the dispatcher/worker threads.
  std::string name = "svc";
};

/// \brief The service runtime. Owns the queue, the arbiter, the dispatcher
/// and the worker threads; Shutdown() (or destruction) drains in-flight
/// jobs.
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config);
  ~Scheduler();

  FPART_DISALLOW_COPY_AND_ASSIGN(Scheduler);

  /// Submit a partitioning job. Returns CapacityError when the admission
  /// queue is full (the job is shed, backpressure to the client) or
  /// InvalidArgument after Shutdown / for a malformed spec.
  Result<JobHandle> Submit(const PartitionJobSpec& spec,
                           const JobOptions& opts = {});
  /// Submit an equi-join job (same admission semantics).
  Result<JobHandle> Submit(const JoinJobSpec& spec,
                           const JobOptions& opts = {});
  /// Submit a rebalance (layout maintenance) job. Always placed on the
  /// CPU backend; the WFQ charges `cost_tuples` like any other demand.
  Result<JobHandle> Submit(const RebalanceJobSpec& spec,
                           const JobOptions& opts = {});

  /// Release a start_paused dispatcher.
  void Resume();

  /// Request cancellation and wake any wait the job may be blocked in
  /// (FPGA lease). Equivalent to handle.Cancel() plus the wakeup.
  void Cancel(const JobHandle& handle);

  /// Stop admissions, drain every queued and running job, join all
  /// threads. Idempotent; also called by the destructor.
  void Shutdown();

  size_t queue_depth() const { return queue_.depth(); }
  /// Least-backlogged device's clock (the delay a new device job sees).
  double fpga_backlog_seconds() const { return pool_.backlog_seconds(); }
  /// Deterministic mode: the virtual-clock makespan of the replayed
  /// stream (latest device/worker virtual free time). This is the model's
  /// completion time — the quantity that shrinks as `fpga_devices` grows,
  /// independent of how many host cores the simulator itself gets. Only
  /// meaningful after Shutdown() has drained the stream; 0.0 in live mode.
  double virtual_makespan_seconds() const;
  double cpu_backlog_seconds() const;
  uint64_t jobs_submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  uint64_t jobs_shed() const { return queue_.shed(); }
  /// Served WFQ cost per class (total / while all classes backlogged).
  double class_served_cost(JobClass cls) const {
    return queue_.served_cost(cls);
  }
  double class_contended_cost(JobClass cls) const {
    return queue_.contended_cost(cls);
  }

  const DevicePool& device_pool() const { return pool_; }
  const SchedulerConfig& config() const { return config_; }

  /// The SLO admission controller (stats and correction factors; always
  /// constructed, inert unless config().slo.enabled).
  const AdmissionController& admission() const { return *admission_; }

  /// Workers currently eligible to pick up jobs (<= config().max_workers).
  size_t active_workers() const {
    return active_workers_.load(std::memory_order_acquire);
  }
  /// Grow or shrink the active worker set within [1, max_workers] — the
  /// autoscaling actuator the svc.slo.pressure signal recommends deltas
  /// for. Live mode only: returns false in deterministic mode (the
  /// virtual worker clocks are part of the replay's identity).
  bool SetActiveWorkers(size_t n);
  /// Recompute and publish the backlog-pressure signal (svc.slo.pressure
  /// plus the recommended worker/device deltas) from the live backlogs.
  AdmissionController::Pressure slo_pressure();

 private:
  Result<JobHandle> SubmitRecord(std::shared_ptr<JobRecord> rec);
  void DispatcherLoop();
  void WorkerLoop(size_t index);

  /// The static (backlog-free) part of the placement input, including the
  /// EWMA-corrected cost scales. Partition/join jobs only.
  void FillPlacementRequest(const JobRecord& rec, PlacementInput* in) const;
  /// The backend a pin or non-adaptive policy forces (nullopt: adaptive).
  std::optional<Backend> ForcedBackend(const JobRecord& rec) const;
  /// Live-mode admission: corrected prediction vs budget at submit time.
  /// OK = admitted (pending ledger charged); SloError = rejected.
  Status AdmitLive(JobRecord* rec);

  /// Decide the backend (policy + pinning), run the deterministic-mode
  /// admission check, charge the chosen backlog and stamp the record.
  /// Dispatcher-only. False: the job was rejected (SloError) and
  /// completed; it must not be handed to a worker.
  bool PlaceJob(const std::shared_ptr<JobRecord>& rec);
  /// Run the job on its placed backend and complete the record.
  void ExecuteJob(const std::shared_ptr<JobRecord>& rec, size_t worker);
  Status RunPartitionJob(JobRecord* rec, size_t worker, JobOutcome* out);
  Status RunJoinJob(JobRecord* rec, size_t worker, JobOutcome* out);
  Status RunRebalanceJob(JobRecord* rec, JobOutcome* out);
  void CompleteJob(const std::shared_ptr<JobRecord>& rec, JobState state,
                   Status status, JobOutcome outcome);

  double NowSeconds() const;

  SchedulerConfig config_;
  JobQueue queue_;
  DevicePool pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::chrono::steady_clock::time_point epoch_;
  /// Workers eligible for jobs; indices beyond it park on ready_cv_.
  std::atomic<size_t> active_workers_{0};

  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<bool> shutdown_{false};

  // Dispatcher pause gate (start_paused).
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  bool paused_ = false;

  // Placed jobs awaiting a worker.
  mutable std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  std::deque<std::shared_ptr<JobRecord>> ready_;
  bool dispatch_done_ = false;

  // Live-mode CPU backlog (model seconds), guarded by ready_mu_.
  double cpu_backlog_seconds_ = 0.0;

  // Workers currently executing CPU-side work (adaptive interference).
  std::atomic<uint32_t> cpu_busy_{0};

  // Deterministic mode: virtual free clocks (one per device and per
  // worker), dispatcher-only.
  std::vector<double> virt_device_free_;
  std::vector<double> virt_worker_free_;
  // Live mode: scratch for the per-device backlog snapshot handed to
  // DecidePlacement, dispatcher-only.
  std::vector<double> backlog_scratch_;

  std::thread dispatcher_;
  std::vector<std::thread> workers_;
  /// Pin plan of the job workers under config_.affinity (index = worker).
  std::vector<Topology::Pin> worker_pins_;
  /// Per-worker pools when cpu_threads_per_job > 1 (index = worker).
  std::vector<std::unique_ptr<ThreadPool>> worker_pools_;
};

}  // namespace fpart::svc
