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
// Deterministic mode: clients assign each job a contiguous arrival_seq
// and a virtual arrival timestamp, and the dispatcher places strictly in
// sequence order — so placement is a pure function of the job stream,
// bit-identical across replays however client threads interleave.
//
// Every job kind takes one path: quote its waits from the BacklogLedger
// (backlog_ledger.h: wall-time backlogs in live mode, virtual free clocks
// in deterministic mode), decide the backend (DecidePlacement), judge the
// prediction against the job's budget at its admission point (live:
// Submit; deterministic: placement), then charge the ledger.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/topology.h"
#include "fpga/config.h"
#include "svc/admission.h"
#include "svc/backlog_ledger.h"
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
  /// Worker threads executing placed jobs (each runs one job at a time),
  /// all created at construction (0 is clamped to 1).
  size_t num_workers = 4;
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
  /// workers. Defaults to the process-wide FPART_AFFINITY knob. Placement
  /// and virtual-time replay are unaffected by pinning, so the
  /// determinism hash is too.
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
  /// Deterministic mode: the virtual-clock makespan of the replayed
  /// stream (latest device/worker virtual free time). This is the model's
  /// completion time — the quantity that shrinks as `fpga_devices` grows,
  /// independent of how many host cores the simulator itself gets. Only
  /// meaningful after Shutdown() has drained the stream; 0.0 in live mode.
  double virtual_makespan_seconds() const {
    return ledger_.makespan_seconds();
  }
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
  /// The backlog ledger placement and admission charge.
  const BacklogLedger& ledger() const { return ledger_; }

 private:
  /// `demand_tuples`: the job's WFQ service demand (never below 1).
  Result<JobHandle> SubmitRecord(std::shared_ptr<JobRecord> rec,
                                 uint64_t demand_tuples);
  void DispatcherLoop();
  void WorkerLoop(size_t index);

  /// The static (backlog-free) part of the placement input, including the
  /// EWMA-corrected cost scales.
  void FillPlacementRequest(const JobRecord& rec, PlacementInput* in) const;
  /// The backend a job kind, pin or non-adaptive policy forces (nullopt:
  /// adaptive).
  std::optional<Backend> ForcedBackend(const JobRecord& rec) const;

  /// The one quote -> decide -> judge -> charge path. `admit`: live-mode
  /// admission at Submit, which holds the job's estimate as pending work.
  /// Otherwise the dispatcher's placement, which charges the chosen
  /// backend and stamps the record (and, in deterministic mode, is also
  /// the admission point). A non-OK return is the SloError of a rejected
  /// job, already completed as kRejected.
  Status Place(const std::shared_ptr<JobRecord>& rec, bool admit);
  /// Run the job on its placed backend and complete the record.
  void ExecuteJob(const std::shared_ptr<JobRecord>& rec);
  Status RunPartitionJob(JobRecord* rec, JobOutcome* out);
  Status RunJoinJob(JobRecord* rec, JobOutcome* out);
  /// Host-side work: counted as a busy worker (which marks overlapping
  /// device runs as interfered) and in svc.backend.cpu.busy_us.
  template <typename Work>
  auto OnCpu(Work&& work);
  /// Hold one device lease around `run(interfered)`, where `interfered`
  /// says whether host work overlaps the run (live mode only). Records the
  /// lease wait and busy time; returns the lease's own failure, if any.
  template <typename Run>
  Status WithDeviceLease(JobRecord* rec, Run&& run);
  void CompleteJob(const std::shared_ptr<JobRecord>& rec, JobState state,
                   Status status, JobOutcome outcome);

  double NowSeconds() const;

  SchedulerConfig config_;
  JobQueue queue_;
  BacklogLedger ledger_;
  DevicePool pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::chrono::steady_clock::time_point epoch_;

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

  // Workers currently executing CPU-side work (device-run interference).
  std::atomic<uint32_t> cpu_busy_{0};

  std::thread dispatcher_;
  std::vector<std::thread> workers_;
  /// Pin plan of the job workers under config_.affinity (index = worker).
  std::vector<Topology::Pin> worker_pins_;
};

}  // namespace fpart::svc
