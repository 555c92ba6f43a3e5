#include "svc/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/failpoint.h"
#include "core/engine.h"
#include "join/hybrid_join.h"
#include "join/radix_join.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace fpart::svc {
namespace {

void NameCurrentThread(const std::string& prefix, size_t index) {
#if defined(__linux__)
  std::string name = prefix + "/" + std::to_string(index);
  if (name.size() > 15) name.resize(15);
  pthread_setname_np(pthread_self(), name.c_str());
#else
  (void)prefix;
  (void)index;
#endif
}

struct SvcMetrics {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* shed;
  obs::Counter* placed_cpu;
  obs::Counter* placed_fpga;
  obs::Counter* placed_hybrid;
  obs::Counter* placed_ties;
  obs::Counter* cpu_busy_us;
  obs::Counter* fpga_busy_us;
  obs::Histogram* queue_us;
  obs::Histogram* run_us;
  obs::Histogram* total_us;
  obs::Histogram* lease_wait_us;
  obs::Gauge* queue_depth;
  obs::Gauge* fpga_backlog;
  obs::Gauge* cpu_backlog;
  obs::Counter* class_submitted[kNumJobClasses];
  obs::Counter* class_completed[kNumJobClasses];
  obs::Counter* class_served_cost[kNumJobClasses];
  obs::Histogram* class_total_us[kNumJobClasses];
};

SvcMetrics& Metrics() {
  static SvcMetrics m = [] {
    auto& reg = obs::Registry::Global();
    SvcMetrics x;
    x.submitted = reg.GetCounter("svc.jobs.submitted", "jobs",
                                 "jobs admitted to the service queue");
    x.completed = reg.GetCounter("svc.jobs.completed", "jobs",
                                 "jobs finished successfully");
    x.failed = reg.GetCounter("svc.jobs.failed", "jobs",
                              "jobs whose backend returned an error");
    x.cancelled = reg.GetCounter("svc.jobs.cancelled", "jobs",
                                 "jobs cancelled before or during execution");
    x.shed = reg.GetCounter("svc.jobs.shed", "jobs",
                            "jobs rejected at admission (queue full)");
    x.placed_cpu = reg.GetCounter("svc.placed.cpu", "jobs",
                                  "jobs placed on the CPU backend");
    x.placed_fpga = reg.GetCounter("svc.placed.fpga", "jobs",
                                   "jobs placed on the FPGA backend");
    x.placed_hybrid = reg.GetCounter("svc.placed.hybrid", "jobs",
                                     "join jobs placed on the hybrid path");
    x.placed_ties = reg.GetCounter(
        "svc.placed.ties", "jobs",
        "placements decided by the FPGA-preferred tie rule");
    x.cpu_busy_us = reg.GetCounter("svc.backend.cpu.busy_us", "us",
                                   "wall time workers spent in CPU jobs");
    x.fpga_busy_us = reg.GetCounter(
        "svc.backend.fpga.busy_us", "us",
        "wall time workers spent holding the device lease");
    x.queue_us = reg.GetHistogram("svc.job.queue_us", "us",
                                  "submit -> execution start");
    x.run_us = reg.GetHistogram("svc.job.run_us", "us",
                                "execution start -> completion");
    x.total_us = reg.GetHistogram("svc.job.total_us", "us",
                                  "submit -> completion");
    x.lease_wait_us = reg.GetHistogram("svc.fpga.lease_wait_us", "us",
                                       "wait for the exclusive FPGA lease");
    x.queue_depth = reg.GetGauge("svc.queue.depth", "jobs",
                                 "admitted jobs awaiting dispatch");
    x.fpga_backlog = reg.GetGauge("svc.fpga.backlog_seconds", "s",
                                  "placed-but-unfinished device model time");
    x.cpu_backlog = reg.GetGauge("svc.cpu.backlog_seconds", "s",
                                 "placed-but-unfinished CPU model time");
    for (size_t c = 0; c < kNumJobClasses; ++c) {
      const std::string prefix =
          std::string("svc.class.") + JobClassName(static_cast<JobClass>(c));
      x.class_submitted[c] = reg.GetCounter(
          prefix + ".submitted", "jobs", "jobs admitted in this class");
      x.class_completed[c] = reg.GetCounter(
          prefix + ".completed", "jobs", "jobs finished in this class");
      x.class_served_cost[c] = reg.GetCounter(
          prefix + ".served_cost", "tuples",
          "WFQ cost (tuples) dispatched from this class");
      x.class_total_us[c] = reg.GetHistogram(
          prefix + ".total_us", "us", "submit -> completion in this class");
    }
    return x;
  }();
  return m;
}

uint64_t ToMicros(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<uint64_t>(seconds * 1e6);
}

}  // namespace

const char* JobKindName(JobKind kind) {
  switch (kind) {
    case JobKind::kPartition:
      return "partition";
    case JobKind::kJoin:
      return "join";
    case JobKind::kRebalance:
      return "rebalance";
  }
  return "unknown";
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kCpu:
      return "cpu";
    case Backend::kFpga:
      return "fpga";
    case Backend::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

const char* JobClassName(JobClass cls) {
  switch (cls) {
    case JobClass::kInteractive:
      return "interactive";
    case JobClass::kBatch:
      return "batch";
    case JobClass::kBestEffort:
      return "besteffort";
  }
  return "unknown";
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kShed:
      return "shed";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kAdaptive:
      return "adaptive";
    case PlacementPolicy::kCpuOnly:
      return "cpu-only";
    case PlacementPolicy::kFpgaOnly:
      return "fpga-only";
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
  }
  return "unknown";
}

Scheduler::Scheduler(SchedulerConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity, config_.deterministic,
             config_.class_weights),
      pool_(config_.fpga_devices),
      epoch_(std::chrono::steady_clock::now()),
      paused_(config_.start_paused) {
  if (config_.num_workers == 0) config_.num_workers = 1;
  if (config_.cpu_threads_per_job == 0) config_.cpu_threads_per_job = 1;
  config_.fpga_devices = pool_.num_devices();  // 0 clamps to 1
  // Autoscaling headroom: live mode may park workers beyond num_workers;
  // deterministic mode pins the worker count (virtual clocks are sized
  // once and are part of the replay's identity).
  if (config_.max_workers < config_.num_workers || config_.deterministic) {
    config_.max_workers = config_.num_workers;
  }
  admission_ = std::make_unique<AdmissionController>(
      config_.slo, config_.num_workers, pool_.num_devices());
  active_workers_.store(config_.num_workers, std::memory_order_release);
  virt_device_free_.assign(pool_.num_devices(), 0.0);
  virt_worker_free_.assign(config_.num_workers, 0.0);
  if (config_.cpu_threads_per_job > 1) {
    worker_pools_.resize(config_.max_workers);
    for (size_t w = 0; w < config_.max_workers; ++w) {
      worker_pools_[w] = std::make_unique<ThreadPool>(
          config_.cpu_threads_per_job,
          config_.name + "-j" + std::to_string(w), config_.affinity);
    }
  }
  worker_pins_ = Topology::Host().PinPlan(config_.affinity,
                                          config_.max_workers);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  workers_.reserve(config_.max_workers);
  for (size_t w = 0; w < config_.max_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

bool Scheduler::SetActiveWorkers(size_t n) {
  if (config_.deterministic) return false;
  n = std::min(std::max<size_t>(1, n), config_.max_workers);
  active_workers_.store(n, std::memory_order_release);
  // Wake everyone: a freshly activated worker is parked on the same cv as
  // the busy ones, and a targeted notify could land on a still-parked
  // thread that just re-sleeps (lost wakeup).
  ready_cv_.notify_all();
  return true;
}

AdmissionController::Pressure Scheduler::slo_pressure() {
  return admission_->UpdatePressure(
      cpu_backlog_seconds(), pool_.total_backlog_seconds(), active_workers(),
      config_.max_workers, pool_.num_devices());
}

Scheduler::~Scheduler() { Shutdown(); }

double Scheduler::virtual_makespan_seconds() const {
  // virt_*_free_ are dispatcher-only; callers read them after Shutdown()
  // joined the dispatcher, which orders these loads after its last write.
  double makespan = 0.0;
  for (double t : virt_device_free_) makespan = std::max(makespan, t);
  for (double t : virt_worker_free_) makespan = std::max(makespan, t);
  return makespan;
}

double Scheduler::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double Scheduler::cpu_backlog_seconds() const {
  std::unique_lock<std::mutex> lock(ready_mu_);
  return cpu_backlog_seconds_;
}

Result<JobHandle> Scheduler::Submit(const PartitionJobSpec& spec,
                                    const JobOptions& opts) {
  if (spec.input == nullptr) {
    return Status::InvalidArgument("partition job has no input relation");
  }
  auto rec = std::make_shared<JobRecord>();
  rec->kind = JobKind::kPartition;
  rec->partition = spec;
  rec->opts = opts;
  return SubmitRecord(std::move(rec));
}

Result<JobHandle> Scheduler::Submit(const JoinJobSpec& spec,
                                    const JobOptions& opts) {
  if (spec.r == nullptr || spec.s == nullptr) {
    return Status::InvalidArgument("join job needs both input relations");
  }
  auto rec = std::make_shared<JobRecord>();
  rec->kind = JobKind::kJoin;
  rec->join = spec;
  rec->opts = opts;
  return SubmitRecord(std::move(rec));
}

Result<JobHandle> Scheduler::Submit(const RebalanceJobSpec& spec,
                                    const JobOptions& opts) {
  if (!spec.work) {
    return Status::InvalidArgument("rebalance job has no work function");
  }
  auto rec = std::make_shared<JobRecord>();
  rec->kind = JobKind::kRebalance;
  rec->rebalance = spec;
  rec->opts = opts;
  if (rec->opts.pinned.has_value()) rec->opts.pinned = Backend::kCpu;
  return SubmitRecord(std::move(rec));
}

Result<JobHandle> Scheduler::SubmitRecord(std::shared_ptr<JobRecord> rec) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("scheduler is shut down");
  }
  rec->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec->seq = rec->opts.arrival_seq != kAutoArrivalSeq
                 ? rec->opts.arrival_seq
                 : next_seq_.fetch_add(1, std::memory_order_relaxed);
  rec->cls = rec->opts.job_class;
  uint64_t demand_tuples = 1;
  switch (rec->kind) {
    case JobKind::kPartition:
      demand_tuples = rec->partition.input->size();
      break;
    case JobKind::kJoin:
      demand_tuples = rec->join.r->size() + rec->join.s->size();
      break;
    case JobKind::kRebalance:
      demand_tuples = rec->rebalance.cost_tuples;
      break;
  }
  rec->wfq_cost = std::max(1.0, static_cast<double>(demand_tuples));
  rec->submit_seconds = NowSeconds();
  if (rec->opts.deadline_seconds > 0.0) {
    rec->deadline_key = rec->submit_seconds + rec->opts.deadline_seconds;
  }
  if (config_.slo.enabled && !config_.deterministic) {
    // Live-mode SLO admission runs here, synchronously, so a rejected
    // client learns before the job ever occupies the queue. Deterministic
    // mode judges dispatcher-side (PlaceJob) instead, where the virtual
    // clocks make the prediction exact.
    Status admit = AdmitLive(rec.get());
    if (!admit.ok()) {
      JobOutcome out;
      out.backend = rec->outcome.backend;
      out.admit_predicted_seconds = rec->admit_predicted_seconds;
      out.admit_budget_seconds = rec->admit_budget_seconds;
      out.status = admit;
      CompleteJob(rec, JobState::kRejected, admit, out);
      return admit;
    }
  }
  JobHandle handle(rec);
  Status pushed = queue_.Push(rec);
  if (!pushed.ok()) {
    if (pushed.IsCapacityError()) {
      // The admission charge must not leak when the queue sheds the job
      // after the controller already admitted it.
      admission_->SubPending(rec->admit_pending_charge);
      Metrics().shed->Add();
      JobOutcome out;
      out.status = pushed;
      CompleteJob(rec, JobState::kShed, pushed, out);
    }
    return pushed;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Metrics().submitted->Add();
  Metrics().class_submitted[static_cast<size_t>(rec->cls)]->Add();
  Metrics().queue_depth->Set(static_cast<double>(queue_.depth()));
  return handle;
}

void Scheduler::Resume() {
  {
    std::unique_lock<std::mutex> lock(pause_mu_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void Scheduler::Cancel(const JobHandle& handle) {
  handle.Cancel();
  pool_.NotifyCancelled();
}

void Scheduler::Shutdown() {
  bool was = shutdown_.exchange(true, std::memory_order_acq_rel);
  if (was) return;
  queue_.Close();
  Resume();  // a paused dispatcher must still drain
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    std::unique_lock<std::mutex> lock(ready_mu_);
    dispatch_done_ = true;
  }
  ready_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  worker_pools_.clear();
}

// Rebalance rebuilds are a memcpy-speed snapshot + one scatter pass; a
// flat tuple rate is close enough for backlog accounting (the err_pct
// histograms below tell us how close).
constexpr double kRebalanceTuplesPerSecond = 250e6;

void Scheduler::FillPlacementRequest(const JobRecord& rec,
                                     PlacementInput* in) const {
  in->kind = rec.kind;
  in->cpu_threads = config_.cpu_threads_per_job;
  if (rec.kind == JobKind::kPartition) {
    const PartitionRequest& req = rec.partition.request;
    in->n_tuples = rec.partition.input->size();
    in->fanout = req.fanout;
    in->mode = req.output_mode;
    in->layout = req.layout;
    in->link = req.link;
    in->hash = req.hash;
    in->interference = req.interference;
  } else {
    in->r_tuples = rec.join.r->size();
    in->s_tuples = rec.join.s->size();
    in->fanout = rec.join.fanout;
    in->hash = rec.join.hash;
    in->mode = OutputMode::kHist;  // the hybrid path partitions HIST-mode
    in->link = LinkKind::kXeonFpga;
  }
  // EWMA-corrected cost plumbing: scale each side's static estimate by the
  // learned (backend, size-class) factor. 1.0 until learned — and always
  // 1.0 in deterministic mode, so replays see the uncorrected model.
  const size_t size_class = SizeClassOf(rec.wfq_cost);
  in->cpu_cost_scale = admission_->correction(Backend::kCpu, size_class);
  in->device_cost_scale = admission_->correction(
      rec.kind == JobKind::kPartition ? Backend::kFpga : Backend::kHybrid,
      size_class);
}

std::optional<Backend> Scheduler::ForcedBackend(const JobRecord& rec) const {
  const Backend device_backend =
      rec.kind == JobKind::kPartition ? Backend::kFpga : Backend::kHybrid;
  if (rec.opts.pinned.has_value()) {
    // A partition job can never be "hybrid" and a join never plain-"fpga":
    // normalize bad pins to the device backend of the job kind.
    return *rec.opts.pinned == Backend::kCpu ? Backend::kCpu : device_backend;
  }
  switch (config_.policy) {
    case PlacementPolicy::kAdaptive:
      return std::nullopt;
    case PlacementPolicy::kCpuOnly:
      return Backend::kCpu;
    case PlacementPolicy::kFpgaOnly:
      return device_backend;
    case PlacementPolicy::kRoundRobin:
      return rec.seq % 2 == 0 ? device_backend : Backend::kCpu;
  }
  return std::nullopt;
}

Status Scheduler::AdmitLive(JobRecord* rec) {
  // Predict the job's end-to-end latency with the same arithmetic the
  // dispatcher will use: corrected service estimate on the backend
  // placement would pick right now, plus the backlog ahead of it. The
  // pending ledger stands in for admitted-but-undispatched work that the
  // backlog clocks have not been charged with yet.
  const double pending = admission_->pending_seconds();
  const size_t workers = std::max<size_t>(1, active_workers());
  const double cpu_wait =
      (cpu_backlog_seconds() + pending) / static_cast<double>(workers);

  Backend backend = Backend::kCpu;
  double est = 0.0;
  double predicted = 0.0;
  if (rec->kind == JobKind::kRebalance) {
    const double model = static_cast<double>(rec->rebalance.cost_tuples) /
                         kRebalanceTuplesPerSecond;
    est = admission_->Correct(Backend::kCpu, rec->wfq_cost, model);
    predicted = cpu_wait + est;
  } else {
    PlacementInput in;
    FillPlacementRequest(*rec, &in);
    in.fpga_devices = pool_.num_devices();
    in.fpga_backlog_seconds = pool_.backlog_seconds();
    in.cpu_backlog_seconds = cpu_wait;
    const PlacementDecision d = DecidePlacement(in);
    backend = d.backend;
    if (auto forced = ForcedBackend(*rec)) backend = *forced;
    if (backend == Backend::kCpu) {
      est = d.est_cpu_seconds;
      predicted = cpu_wait + est;
    } else {
      est = d.est_fpga_seconds;
      predicted = in.fpga_backlog_seconds + est;
    }
  }
  rec->outcome.backend = backend;

  const AdmissionController::Verdict verdict =
      admission_->Judge(rec->cls, rec->opts.deadline_seconds, predicted);
  rec->admit_predicted_seconds = verdict.predicted_seconds;
  rec->admit_budget_seconds =
      std::isfinite(verdict.budget_seconds) ? verdict.budget_seconds : 0.0;
  if (!verdict.admit) return verdict.status;
  rec->admit_pending_charge = est;
  admission_->AddPending(est);
  return Status::OK();
}

bool Scheduler::PlaceJob(const std::shared_ptr<JobRecord>& recp) {
  JobRecord* rec = recp.get();
  // The job is leaving the queue: its admission charge graduates into the
  // real backlog clocks charged below.
  admission_->SubPending(rec->admit_pending_charge);
  const double t_arrival = config_.deterministic
                               ? rec->opts.virtual_arrival_seconds
                               : rec->submit_seconds;

  if (rec->kind == JobKind::kRebalance) {
    // Always the host CPU: the rebuild manipulates host-resident buckets;
    // there is no device kernel for it. Policy and pins are ignored, but
    // the backlog/virtual-clock charging below matches the CPU path.
    const double model = static_cast<double>(rec->rebalance.cost_tuples) /
                         kRebalanceTuplesPerSecond;
    const double est =
        admission_->Correct(Backend::kCpu, rec->wfq_cost, model);
    rec->outcome.backend = Backend::kCpu;
    rec->model_estimate_seconds = model;
    rec->placed_estimate_seconds = est;
    if (config_.deterministic) {
      const size_t w = static_cast<size_t>(
          std::min_element(virt_worker_free_.begin(),
                           virt_worker_free_.end()) -
          virt_worker_free_.begin());
      const double start = std::max(t_arrival, virt_worker_free_[w]);
      if (config_.slo.enabled) {
        const AdmissionController::Verdict verdict = admission_->Judge(
            rec->cls, rec->opts.deadline_seconds, (start - t_arrival) + est);
        rec->admit_predicted_seconds = verdict.predicted_seconds;
        rec->admit_budget_seconds = std::isfinite(verdict.budget_seconds)
                                        ? verdict.budget_seconds
                                        : 0.0;
        if (!verdict.admit) {
          JobOutcome out;
          out.backend = Backend::kCpu;
          out.admit_predicted_seconds = rec->admit_predicted_seconds;
          out.admit_budget_seconds = rec->admit_budget_seconds;
          CompleteJob(recp, JobState::kRejected, verdict.status, out);
          return false;
        }
      }
      virt_worker_free_[w] = start + est;
      rec->outcome.virtual_queue_seconds = start - t_arrival;
      rec->outcome.virtual_run_seconds = est;
    } else {
      std::unique_lock<std::mutex> lock(ready_mu_);
      cpu_backlog_seconds_ += est;
      Metrics().cpu_backlog->Set(cpu_backlog_seconds_);
    }
    Metrics().placed_cpu->Add();
    return true;
  }

  PlacementInput in;
  FillPlacementRequest(*rec, &in);
  size_t virt_worker = 0;
  size_t virt_device = 0;
  if (config_.deterministic) {
    virt_worker = static_cast<size_t>(
        std::min_element(virt_worker_free_.begin(), virt_worker_free_.end()) -
        virt_worker_free_.begin());
    // A device job queues on the least-loaded virtual device clock.
    virt_device = static_cast<size_t>(
        std::min_element(virt_device_free_.begin(), virt_device_free_.end()) -
        virt_device_free_.begin());
    in.fpga_devices = virt_device_free_.size();
    in.fpga_backlog_seconds =
        std::max(0.0, virt_device_free_[virt_device] - t_arrival);
    in.cpu_backlog_seconds =
        std::max(0.0, virt_worker_free_[virt_worker] - t_arrival);
  } else {
    pool_.SnapshotBacklogs(&backlog_scratch_);
    in.device_backlogs = backlog_scratch_.data();
    in.fpga_devices = backlog_scratch_.size();
    in.fpga_backlog_seconds = pool_.backlog_seconds();
    std::unique_lock<std::mutex> lock(ready_mu_);
    in.cpu_backlog_seconds =
        cpu_backlog_seconds_ /
        static_cast<double>(std::max<size_t>(1, active_workers()));
  }

  PlacementDecision d = DecidePlacement(in);
  const Backend device_backend =
      rec->kind == JobKind::kPartition ? Backend::kFpga : Backend::kHybrid;
  Backend backend = d.backend;
  if (auto forced = ForcedBackend(*rec)) backend = *forced;
  if (backend != Backend::kCpu) backend = device_backend;

  rec->outcome.backend = backend;
  // The estimate the backlog clocks are charged with is the corrected one
  // (the cost scales already folded it in); keep the raw static-model
  // value alongside so the EWMA learns actual/model, not its own output.
  const double scale =
      backend == Backend::kCpu ? in.cpu_cost_scale : in.device_cost_scale;
  rec->placed_estimate_seconds =
      backend == Backend::kCpu ? d.est_cpu_seconds : d.device_seconds;
  rec->model_estimate_seconds =
      scale > 0.0 ? rec->placed_estimate_seconds / scale
                  : rec->placed_estimate_seconds;

  // Charge the chosen backend's backlog (credited back at completion) and,
  // in deterministic mode, advance the virtual clocks. The virtual start
  // and service time are stamped on the outcome: they are the replay's
  // noise-free latency decomposition (JobOutcome::virtual_*_seconds).
  if (config_.deterministic) {
    // The exact virtual start the charge below would commit — which makes
    // the admission prediction exact: predicted == virtual_queue +
    // virtual_run, so an admitted job can never miss a budget its
    // prediction fit (the zero-admitted-then-missed invariant the
    // svc_admission tests assert).
    double start;
    double service;
    if (backend == Backend::kCpu) {
      start = std::max(t_arrival, virt_worker_free_[virt_worker]);
      service = d.est_cpu_seconds;
    } else {
      // Device jobs hold a worker for the whole run and their device for
      // the lease phase; the chosen device's clock gates the start.
      start = std::max({t_arrival, virt_device_free_[virt_device],
                        virt_worker_free_[virt_worker]});
      service = d.est_fpga_seconds;
    }
    if (config_.slo.enabled) {
      const AdmissionController::Verdict verdict = admission_->Judge(
          rec->cls, rec->opts.deadline_seconds, (start - t_arrival) + service);
      rec->admit_predicted_seconds = verdict.predicted_seconds;
      rec->admit_budget_seconds = std::isfinite(verdict.budget_seconds)
                                      ? verdict.budget_seconds
                                      : 0.0;
      if (!verdict.admit) {
        // Rejected: no clock was advanced, so the rest of the replay is
        // exactly what a run without this job would compute.
        JobOutcome out;
        out.backend = backend;
        out.admit_predicted_seconds = rec->admit_predicted_seconds;
        out.admit_budget_seconds = rec->admit_budget_seconds;
        CompleteJob(recp, JobState::kRejected, verdict.status, out);
        return false;
      }
    }
    if (backend == Backend::kCpu) {
      virt_worker_free_[virt_worker] = start + service;
    } else {
      virt_device_free_[virt_device] = start + d.device_seconds;
      virt_worker_free_[virt_worker] = start + service;
    }
    rec->outcome.virtual_queue_seconds = start - t_arrival;
    rec->outcome.virtual_run_seconds = service;
  } else if (backend == Backend::kCpu) {
    std::unique_lock<std::mutex> lock(ready_mu_);
    cpu_backlog_seconds_ += d.est_cpu_seconds;
    Metrics().cpu_backlog->Set(cpu_backlog_seconds_);
  } else {
    rec->charged_device = pool_.ChargeLeastLoaded(d.device_seconds);
    Metrics().fpga_backlog->Set(pool_.backlog_seconds());
  }

  auto& m = Metrics();
  switch (backend) {
    case Backend::kCpu:
      m.placed_cpu->Add();
      break;
    case Backend::kFpga:
      m.placed_fpga->Add();
      break;
    case Backend::kHybrid:
      m.placed_hybrid->Add();
      break;
  }
  if (d.tie && !rec->opts.pinned.has_value() &&
      config_.policy == PlacementPolicy::kAdaptive) {
    m.placed_ties->Add();
  }
  return true;
}

void Scheduler::DispatcherLoop() {
  NameCurrentThread(config_.name + "-disp", 0);
  {
    std::unique_lock<std::mutex> lock(pause_mu_);
    pause_cv_.wait(lock, [this] { return !paused_; });
  }
  for (;;) {
    std::shared_ptr<JobRecord> rec = queue_.Pop();
    Metrics().queue_depth->Set(static_cast<double>(queue_.depth()));
    if (rec == nullptr) break;  // closed and drained
    Metrics().class_served_cost[static_cast<size_t>(rec->cls)]->Add(
        static_cast<uint64_t>(rec->wfq_cost));
    if (!PlaceJob(rec)) continue;  // rejected by SLO admission, completed
    {
      std::unique_lock<std::mutex> lock(ready_mu_);
      ready_.push_back(std::move(rec));
    }
    // notify_all, not notify_one: with autoscaling headroom some waiters
    // are parked (index >= active_workers_) and a targeted wake that
    // lands on one of them is lost.
    ready_cv_.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(ready_mu_);
    dispatch_done_ = true;
  }
  ready_cv_.notify_all();
}

void Scheduler::WorkerLoop(size_t index) {
  NameCurrentThread(config_.name + "-wkr", index);
  {
    // Pin the job worker itself (its pool, if any, was pinned by its own
    // constructor) and publish its identity for trace attribution.
    const Topology::Pin& pin = worker_pins_[index];
    const bool pinned = PinCurrentThreadToCpu(pin.cpu);
    WorkerContext ctx;
    ctx.worker = static_cast<int>(index);
    ctx.node = pin.node;
    ctx.cpu = pinned ? pin.cpu : -1;
    ctx.pool = config_.name.c_str();
    SetCurrentWorkerContext(ctx);
  }
  for (;;) {
    std::shared_ptr<JobRecord> rec;
    {
      std::unique_lock<std::mutex> lock(ready_mu_);
      // Workers beyond the active set park here until SetActiveWorkers
      // grows it (autoscaling) — except during the shutdown drain, where
      // every worker helps empty the ready deque.
      ready_cv_.wait(lock, [this, index] {
        if (dispatch_done_) return true;
        return !ready_.empty() &&
               index < active_workers_.load(std::memory_order_acquire);
      });
      const bool parked =
          !dispatch_done_ &&
          index >= active_workers_.load(std::memory_order_acquire);
      if (ready_.empty() || parked) {
        if (dispatch_done_ && ready_.empty()) return;
        continue;
      }
      rec = std::move(ready_.front());
      ready_.pop_front();
    }
    ExecuteJob(rec, index);
  }
}

void Scheduler::ExecuteJob(const std::shared_ptr<JobRecord>& rec,
                           size_t worker) {
  auto& m = Metrics();
  const double start_seconds = NowSeconds();
  const double queue_seconds = start_seconds - rec->submit_seconds;
  m.queue_us->Record(ToMicros(queue_seconds));
  obs::Tracer& tracer = obs::Tracer::Global();
  if (tracer.enabled()) {
    // The queue phase spans two threads (client submit -> worker start),
    // so it is emitted manually rather than via the same-thread TraceSpan.
    const double end_us = tracer.NowUs();
    const double dur_us = queue_seconds * 1e6;
    tracer.CompleteEvent("svc.job.queue", "svc",
                         std::max(0.0, end_us - dur_us), dur_us,
                         obs::kHostTracePid, obs::CurrentTraceTid());
  }

  JobOutcome out;
  out.backend = rec->outcome.backend;
  out.queue_seconds = queue_seconds;
  out.virtual_queue_seconds = rec->outcome.virtual_queue_seconds;
  out.virtual_run_seconds = rec->outcome.virtual_run_seconds;
  out.admit_predicted_seconds = rec->admit_predicted_seconds;
  out.admit_budget_seconds = rec->admit_budget_seconds;

  Status status;
  if (rec->cancel.load(std::memory_order_relaxed)) {
    status = Status::Cancelled("job " + std::to_string(rec->id) +
                               " cancelled while queued");
  } else {
    obs::TraceSpan span("svc.run", "svc");
    switch (rec->kind) {
      case JobKind::kPartition:
        status = RunPartitionJob(rec.get(), worker, &out);
        break;
      case JobKind::kJoin:
        status = RunJoinJob(rec.get(), worker, &out);
        break;
      case JobKind::kRebalance:
        status = RunRebalanceJob(rec.get(), &out);
        break;
    }
  }
  out.run_seconds = NowSeconds() - start_seconds;
  m.run_us->Record(ToMicros(out.run_seconds));
  m.total_us->Record(ToMicros(out.queue_seconds + out.run_seconds));
  if (status.ok()) {
    // Feedback for the placement model: the svc.place.err_pct histograms
    // (error of the charged estimate) and, in live mode, the EWMA
    // correction the next admission decisions use.
    admission_->ObserveRun(out.backend, rec->wfq_cost,
                           rec->model_estimate_seconds,
                           rec->placed_estimate_seconds, out.run_seconds,
                           /*learn=*/!config_.deterministic);
  }

  // Credit the backlog charged at placement.
  if (!config_.deterministic) {
    if (out.backend == Backend::kCpu) {
      std::unique_lock<std::mutex> lock(ready_mu_);
      cpu_backlog_seconds_ =
          std::max(0.0, cpu_backlog_seconds_ - rec->placed_estimate_seconds);
      Metrics().cpu_backlog->Set(cpu_backlog_seconds_);
    } else {
      pool_.Credit(rec->charged_device, rec->placed_estimate_seconds);
      Metrics().fpga_backlog->Set(pool_.backlog_seconds());
    }
    if (config_.slo.enabled) slo_pressure();
  }

  JobState state = JobState::kCompleted;
  if (status.IsCancelled()) {
    state = JobState::kCancelled;
  } else if (!status.ok()) {
    state = JobState::kFailed;
  }
  CompleteJob(rec, state, std::move(status), out);
}

Status Scheduler::RunPartitionJob(JobRecord* rec, size_t worker,
                                  JobOutcome* out) {
  PartitionRequest req = rec->partition.request;
  req.cancel = &rec->cancel;
  auto& m = Metrics();

  if (out->backend == Backend::kCpu) {
    req.engine = Engine::kCpu;
    req.num_threads = config_.cpu_threads_per_job;
    req.pool = worker_pools_.empty() ? nullptr : worker_pools_[worker].get();
    cpu_busy_.fetch_add(1, std::memory_order_relaxed);
    const double t0 = NowSeconds();
    auto result = RunPartition<Tuple8>(req, *rec->partition.input);
    m.cpu_busy_us->Add(ToMicros(NowSeconds() - t0));
    cpu_busy_.fetch_sub(1, std::memory_order_relaxed);
    FPART_RETURN_NOT_OK(result.status());
    const auto& report = result.ValueOrDie();
    out->device_seconds = 0.0;
    std::vector<uint64_t> counts(report.output.num_partitions());
    for (size_t p = 0; p < counts.size(); ++p) {
      counts[p] = report.output.part(p).num_tuples;
    }
    out->checksum = HistogramChecksum(counts.data(), counts.size());
    return Status::OK();
  }

  // FPGA placement: one exclusive device lease from the pool first.
  const double wait0 = NowSeconds();
  FPART_RETURN_NOT_OK(pool_.Acquire(rec));
  if (Failpoint("svc.device.run")) {
    pool_.Release(rec);
    return Status::Internal("failpoint: forced device-run failure");
  }
  const int device = rec->device;
  const double lease0 = NowSeconds();
  m.lease_wait_us->Record(ToMicros(lease0 - wait0));

  req.engine = Engine::kFpgaSim;
  if (config_.adaptive_interference && !config_.deterministic &&
      cpu_busy_.load(std::memory_order_relaxed) > 0) {
    req.interference = Interference::kInterfered;
  }
  auto result = RunPartition<Tuple8>(req, *rec->partition.input);
  // Stamp before Release: once the lease is handed on, this thread may be
  // descheduled for a while and a late stamp would overlap the next
  // holder's window (busy_us must never exceed wall time per device).
  const double lease_end = NowSeconds();
  pool_.Release(rec);
  const double lease_seconds = lease_end - lease0;
  m.fpga_busy_us->Add(ToMicros(lease_seconds));
  pool_.RecordBusy(device, lease_seconds);
  FPART_RETURN_NOT_OK(result.status());
  const auto& report = result.ValueOrDie();
  out->device_seconds = report.seconds;
  std::vector<uint64_t> counts(report.output.num_partitions());
  for (size_t p = 0; p < counts.size(); ++p) {
    counts[p] = report.output.part(p).num_tuples;
  }
  out->checksum = HistogramChecksum(counts.data(), counts.size());
  return Status::OK();
}

Status Scheduler::RunRebalanceJob(JobRecord* rec, JobOutcome* out) {
  auto& m = Metrics();
  cpu_busy_.fetch_add(1, std::memory_order_relaxed);
  const double t0 = NowSeconds();
  Status status = rec->rebalance.work(&rec->cancel);
  m.cpu_busy_us->Add(ToMicros(NowSeconds() - t0));
  cpu_busy_.fetch_sub(1, std::memory_order_relaxed);
  out->device_seconds = 0.0;
  return status;
}

Status Scheduler::RunJoinJob(JobRecord* rec, size_t worker, JobOutcome* out) {
  auto& m = Metrics();
  ThreadPool* pool =
      worker_pools_.empty() ? nullptr : worker_pools_[worker].get();

  if (out->backend == Backend::kCpu) {
    CpuJoinConfig config;
    config.fanout = rec->join.fanout;
    config.hash = rec->join.hash;
    config.num_threads = config_.cpu_threads_per_job;
    config.pool = pool;
    cpu_busy_.fetch_add(1, std::memory_order_relaxed);
    const double t0 = NowSeconds();
    auto result = CpuRadixJoin(config, *rec->join.r, *rec->join.s);
    m.cpu_busy_us->Add(ToMicros(NowSeconds() - t0));
    cpu_busy_.fetch_sub(1, std::memory_order_relaxed);
    FPART_RETURN_NOT_OK(result.status());
    const JoinResult& jr = result.ValueOrDie();
    out->matches = jr.matches;
    out->checksum = jr.checksum;
    out->device_seconds = 0.0;
    return Status::OK();
  }

  // Hybrid: the lease covers only the device partitioning passes; the CPU
  // build+probe runs after Release so queued device jobs can proceed.
  FpgaPartitionerConfig fpga;
  fpga.fanout = rec->join.fanout;
  fpga.hash = rec->join.hash;
  fpga.output_mode = OutputMode::kHist;  // never overflows
  fpga.layout = LayoutMode::kRid;
  fpga.link = LinkKind::kXeonFpga;
  fpga.sim_mode = config_.sim_mode;
  fpga.sim_cache = config_.sim_cache;
  fpga.cancel = &rec->cancel;
  if (config_.adaptive_interference && !config_.deterministic &&
      cpu_busy_.load(std::memory_order_relaxed) > 0) {
    fpga.interference = Interference::kInterfered;
  }

  const double wait0 = NowSeconds();
  FPART_RETURN_NOT_OK(pool_.Acquire(rec));
  if (Failpoint("svc.device.run")) {
    pool_.Release(rec);
    return Status::Internal("failpoint: forced device-run failure");
  }
  const int device_index = rec->device;
  const double lease0 = NowSeconds();
  m.lease_wait_us->Record(ToMicros(lease0 - wait0));

  auto run_device = [&]() -> Result<std::pair<FpgaRunResult<Tuple8>,
                                              FpgaRunResult<Tuple8>>> {
    FPART_ASSIGN_OR_RETURN(
        FpgaRunResult<Tuple8> pr,
        internal::HybridPartition(fpga, *rec->join.r));
    FPART_ASSIGN_OR_RETURN(
        FpgaRunResult<Tuple8> ps,
        internal::HybridPartition(fpga, *rec->join.s));
    return std::make_pair(std::move(pr), std::move(ps));
  };
  auto device = run_device();
  const double lease_end = NowSeconds();  // before Release; see partition path
  pool_.Release(rec);
  const double lease_seconds = lease_end - lease0;
  m.fpga_busy_us->Add(ToMicros(lease_seconds));
  pool_.RecordBusy(device_index, lease_seconds);
  FPART_RETURN_NOT_OK(device.status());
  auto& [pr, ps] = device.ValueOrDie();
  out->device_seconds = pr.seconds + ps.seconds;

  if (rec->cancel.load(std::memory_order_relaxed)) {
    return Status::Cancelled("job " + std::to_string(rec->id) +
                             " cancelled after device phase");
  }

  cpu_busy_.fetch_add(1, std::memory_order_relaxed);
  const double t0 = NowSeconds();
  BuildProbeStats bp = ParallelBuildProbe(
      pr.output, ps.output, config_.cpu_threads_per_job, pool,
      static_cast<const Tuple8*>(nullptr), /*prefetch_distance=*/16);
  m.cpu_busy_us->Add(ToMicros(NowSeconds() - t0));
  cpu_busy_.fetch_sub(1, std::memory_order_relaxed);

  out->matches = bp.matches;
  out->checksum = bp.checksum;
  return Status::OK();
}

void Scheduler::CompleteJob(const std::shared_ptr<JobRecord>& rec,
                            JobState state, Status status,
                            JobOutcome outcome) {
  auto& m = Metrics();
  switch (state) {
    case JobState::kCompleted:
      m.completed->Add();
      m.class_completed[static_cast<size_t>(rec->cls)]->Add();
      m.class_total_us[static_cast<size_t>(rec->cls)]->Record(
          ToMicros(outcome.queue_seconds + outcome.run_seconds));
      break;
    case JobState::kFailed:
      m.failed->Add();
      break;
    case JobState::kCancelled:
      m.cancelled->Add();
      break;
    default:
      break;  // kShed / kRejected counted at admission
  }
  outcome.state = state;
  outcome.status = std::move(status);
  {
    std::unique_lock<std::mutex> lock(rec->mu);
    rec->outcome = std::move(outcome);
    rec->done = true;
  }
  rec->cv.notify_all();
  // After the publish: the outcome is immutable once done, so reading it
  // without the lock is safe, and a callback that blocks can no longer
  // delay handle waiters.
  if (rec->opts.on_complete) rec->opts.on_complete(rec->outcome);
}

}  // namespace fpart::svc
