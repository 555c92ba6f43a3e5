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
      ledger_(config_.deterministic, config_.num_workers,
              config_.fpga_devices),
      pool_(config_.fpga_devices, &ledger_),
      epoch_(std::chrono::steady_clock::now()),
      paused_(config_.start_paused) {
  if (config_.num_workers == 0) config_.num_workers = 1;
  config_.fpga_devices = pool_.num_devices();  // 0 clamps to 1
  admission_ = std::make_unique<AdmissionController>(config_.slo);
  worker_pins_ = Topology::Host().PinPlan(config_.affinity,
                                          config_.num_workers);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  workers_.reserve(config_.num_workers);
  for (size_t w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

Scheduler::~Scheduler() { Shutdown(); }

double Scheduler::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
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
  return SubmitRecord(std::move(rec), spec.input->size());
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
  return SubmitRecord(std::move(rec), spec.r->size() + spec.s->size());
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
  return SubmitRecord(std::move(rec), spec.cost_tuples);
}

Result<JobHandle> Scheduler::SubmitRecord(std::shared_ptr<JobRecord> rec,
                                          uint64_t demand_tuples) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("scheduler is shut down");
  }
  rec->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec->seq = rec->opts.arrival_seq != kAutoArrivalSeq
                 ? rec->opts.arrival_seq
                 : next_seq_.fetch_add(1, std::memory_order_relaxed);
  rec->cls = rec->opts.job_class;
  rec->wfq_cost = std::max(1.0, static_cast<double>(demand_tuples));
  rec->submit_seconds = NowSeconds();
  if (rec->opts.deadline_seconds > 0.0) {
    rec->deadline_key = rec->submit_seconds + rec->opts.deadline_seconds;
  }
  if (config_.slo.enabled && !config_.deterministic) {
    // Live-mode SLO admission runs here, synchronously, so a rejected
    // client learns before the job ever occupies the queue. Deterministic
    // mode judges dispatcher-side instead, where the virtual clocks make
    // the prediction exact.
    FPART_RETURN_NOT_OK(Place(rec, /*admit=*/true));
  }
  JobHandle handle(rec);
  Status pushed = queue_.Push(rec);
  if (!pushed.ok()) {
    // Whether the queue was full or closed by a racing Shutdown, the
    // admission charge must not outlive the job.
    ledger_.Credit(BacklogLedger::Account::kPending, -1,
                   rec->admit_pending_charge);
    if (pushed.IsCapacityError()) {
      Metrics().shed->Add();
      CompleteJob(rec, JobState::kShed, pushed, JobOutcome{});
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
  // The dispatcher sets dispatch_done_ on its way out, releasing the
  // workers once they have drained the ready deque.
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void Scheduler::FillPlacementRequest(const JobRecord& rec,
                                     PlacementInput* in) const {
  in->kind = rec.kind;
  switch (rec.kind) {
    case JobKind::kPartition: {
      const PartitionRequest& req = rec.partition.request;
      in->n_tuples = rec.partition.input->size();
      in->fanout = req.fanout;
      in->mode = req.output_mode;
      in->link = req.link;
      in->hash = req.hash;
      in->interference = req.interference;
      break;
    }
    case JobKind::kJoin:
      in->r_tuples = rec.join.r->size();
      in->s_tuples = rec.join.s->size();
      in->fanout = rec.join.fanout;
      in->hash = rec.join.hash;
      in->mode = OutputMode::kHist;  // the hybrid path partitions HIST-mode
      in->link = LinkKind::kXeonFpga;
      break;
    case JobKind::kRebalance:
      in->n_tuples = rec.rebalance.cost_tuples;
      break;
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
  // A rebuild manipulates host-resident buckets; there is no device kernel
  // for it, so neither pins nor the policy can move it off the CPU.
  if (rec.kind == JobKind::kRebalance) return Backend::kCpu;
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

Status Scheduler::Place(const std::shared_ptr<JobRecord>& recp, bool admit) {
  using Account = BacklogLedger::Account;
  JobRecord* rec = recp.get();
  // A job leaving the queue: its admission charge graduates into the
  // backend charge below.
  if (!admit) {
    ledger_.Credit(Account::kPending, -1, rec->admit_pending_charge);
  }
  const double arrival = ledger_.ArrivalSeconds(*rec);
  const BacklogLedger::Quote quote =
      ledger_.QuoteWaits(arrival, /*with_pending=*/admit);
  PlacementInput in;
  FillPlacementRequest(*rec, &in);
  in.cpu_backlog_seconds = quote.cpu_wait;
  in.fpga_backlog_seconds = quote.device_wait;
  const PlacementDecision d = DecidePlacement(in);
  const std::optional<Backend> forced = ForcedBackend(*rec);
  const Backend backend = forced.value_or(d.backend);
  const bool on_device = backend != Backend::kCpu;
  const double service = on_device ? d.est_fpga_seconds : d.est_cpu_seconds;
  rec->outcome.backend = backend;

  if (admit || (config_.slo.enabled && config_.deterministic)) {
    // Predict the end-to-end latency with the same arithmetic placement
    // uses. In deterministic mode the quoted wait is the exact virtual
    // start the charge below commits, so predicted == virtual_queue +
    // virtual_run and an admitted job can never miss a budget its
    // prediction fit (the zero-admitted-then-missed invariant).
    const AdmissionController::Verdict verdict = admission_->Judge(
        rec->cls, rec->opts.deadline_seconds, quote.Wait(on_device) + service);
    rec->outcome.admit_predicted_seconds = verdict.predicted_seconds;
    rec->outcome.admit_budget_seconds =
        std::isfinite(verdict.budget_seconds) ? verdict.budget_seconds : 0.0;
    if (!verdict.admit) {
      // Nothing was charged, so the rest of the stream sees exactly what
      // it would without this job.
      CompleteJob(recp, JobState::kRejected, verdict.status, rec->outcome);
      return verdict.status;
    }
  }
  if (admit) {
    rec->admit_pending_charge = service;
    ledger_.Charge(Account::kPending, arrival, service);
    return Status::OK();
  }

  // The ledger is charged the corrected estimate (the cost scales already
  // folded it in); keep the raw static-model value alongside so the EWMA
  // learns actual/model, not its own output.
  const double scale = on_device ? in.device_cost_scale : in.cpu_cost_scale;
  rec->placed_estimate_seconds = on_device ? d.device_seconds : service;
  rec->model_estimate_seconds = scale > 0.0
                                    ? rec->placed_estimate_seconds / scale
                                    : rec->placed_estimate_seconds;
  // Credited back at completion. In deterministic mode the slot is the
  // job's virtual start and service time: the replay's noise-free latency
  // decomposition (JobOutcome::virtual_*_seconds).
  const BacklogLedger::Slot slot =
      ledger_.Charge(on_device ? Account::kDevice : Account::kCpu, arrival,
                     service, d.device_seconds);
  rec->charged_device = slot.device;
  rec->outcome.virtual_queue_seconds = slot.queue_seconds;
  rec->outcome.virtual_run_seconds = slot.run_seconds;

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
  if (d.tie && !forced.has_value()) m.placed_ties->Add();
  return Status::OK();
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
    if (!Place(rec, /*admit=*/false).ok()) continue;  // rejected, completed
    {
      std::unique_lock<std::mutex> lock(ready_mu_);
      ready_.push_back(std::move(rec));
    }
    // Every worker waits on the same condition, so any one can take the
    // job; a busy worker re-checks the deque before it waits again.
    ready_cv_.notify_one();
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
    // Pin the job worker and publish its identity for trace attribution.
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
      ready_cv_.wait(lock,
                     [this] { return dispatch_done_ || !ready_.empty(); });
      if (ready_.empty()) return;  // dispatch done and drained
      rec = std::move(ready_.front());
      ready_.pop_front();
    }
    ExecuteJob(rec);
  }
}

template <typename Work>
auto Scheduler::OnCpu(Work&& work) {
  cpu_busy_.fetch_add(1, std::memory_order_relaxed);
  const double t0 = NowSeconds();
  auto result = work();
  Metrics().cpu_busy_us->Add(ToMicros(NowSeconds() - t0));
  cpu_busy_.fetch_sub(1, std::memory_order_relaxed);
  return result;
}

template <typename Run>
Status Scheduler::WithDeviceLease(JobRecord* rec, Run&& run) {
  auto& m = Metrics();
  const double wait0 = NowSeconds();
  FPART_RETURN_NOT_OK(pool_.Acquire(rec));
  if (Failpoint("svc.device.run")) {
    pool_.Release(rec);
    return Status::Internal("failpoint: forced device-run failure");
  }
  const int device = rec->device;
  const double lease0 = NowSeconds();
  m.lease_wait_us->Record(ToMicros(lease0 - wait0));
  // Live mode: a device run overlapping host work shares the link with it
  // (Figure 2's "interfered" curves). Deterministic replays keep each
  // request's own interference setting.
  run(!config_.deterministic &&
      cpu_busy_.load(std::memory_order_relaxed) > 0);
  // Stamp before Release: once the lease is handed on, this thread may be
  // descheduled for a while and a late stamp would overlap the next
  // holder's window (busy_us must never exceed wall time per device).
  const double lease_end = NowSeconds();
  pool_.Release(rec);
  const double lease_seconds = lease_end - lease0;
  m.fpga_busy_us->Add(ToMicros(lease_seconds));
  pool_.RecordBusy(device, lease_seconds);
  return Status::OK();
}

void Scheduler::ExecuteJob(const std::shared_ptr<JobRecord>& rec) {
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

  // Placement stamped the backend, the virtual times and the admission
  // verdict; the worker is the record's only writer until completion.
  JobOutcome out = rec->outcome;
  out.queue_seconds = queue_seconds;

  Status status;
  if (rec->cancel.load(std::memory_order_relaxed)) {
    status = Status::Cancelled("job " + std::to_string(rec->id) +
                               " cancelled while queued");
  } else {
    obs::TraceSpan span("svc.run", "svc");
    switch (rec->kind) {
      case JobKind::kPartition:
        status = RunPartitionJob(rec.get(), &out);
        break;
      case JobKind::kJoin:
        status = RunJoinJob(rec.get(), &out);
        break;
      case JobKind::kRebalance:
        status = OnCpu([&] { return rec->rebalance.work(&rec->cancel); });
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

  // Credit the backlog charged at placement (a no-op in virtual time).
  ledger_.Credit(out.backend == Backend::kCpu ? BacklogLedger::Account::kCpu
                                              : BacklogLedger::Account::kDevice,
                 rec->charged_device, rec->placed_estimate_seconds);

  JobState state = JobState::kCompleted;
  if (status.IsCancelled()) {
    state = JobState::kCancelled;
  } else if (!status.ok()) {
    state = JobState::kFailed;
  }
  CompleteJob(rec, state, std::move(status), out);
}

Status Scheduler::RunPartitionJob(JobRecord* rec, JobOutcome* out) {
  PartitionRequest req = rec->partition.request;
  req.cancel = &rec->cancel;
  Result<PartitionReport<Tuple8>> result =
      Status::Internal("partition job did not run");
  if (out->backend == Backend::kCpu) {
    req.engine = Engine::kCpu;
    req.num_threads = 1;  // the job runs inline on its worker
    req.pool = nullptr;
    result = OnCpu(
        [&] { return RunPartition<Tuple8>(req, *rec->partition.input); });
  } else {
    req.engine = Engine::kFpgaSim;
    FPART_RETURN_NOT_OK(WithDeviceLease(rec, [&](bool interfered) {
      if (interfered) req.interference = Interference::kInterfered;
      result = RunPartition<Tuple8>(req, *rec->partition.input);
    }));
  }
  FPART_RETURN_NOT_OK(result.status());
  const auto& report = result.ValueOrDie();
  out->device_seconds = out->backend == Backend::kCpu ? 0.0 : report.seconds;
  std::vector<uint64_t> counts(report.output.num_partitions());
  for (size_t p = 0; p < counts.size(); ++p) {
    counts[p] = report.output.part(p).num_tuples;
  }
  out->checksum = HistogramChecksum(counts.data(), counts.size());
  return Status::OK();
}

Status Scheduler::RunJoinJob(JobRecord* rec, JobOutcome* out) {
  if (out->backend == Backend::kCpu) {
    CpuJoinConfig config;
    config.fanout = rec->join.fanout;
    config.hash = rec->join.hash;
    auto result = OnCpu(
        [&] { return CpuRadixJoin(config, *rec->join.r, *rec->join.s); });
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
  Result<FpgaRunResult<Tuple8>> pr = Status::Internal("R was not partitioned");
  Result<FpgaRunResult<Tuple8>> ps = Status::Internal("S was not partitioned");
  FPART_RETURN_NOT_OK(WithDeviceLease(rec, [&](bool interfered) {
    if (interfered) fpga.interference = Interference::kInterfered;
    pr = internal::HybridPartition(fpga, *rec->join.r);
    if (pr.ok()) ps = internal::HybridPartition(fpga, *rec->join.s);
  }));
  FPART_RETURN_NOT_OK(pr.status());
  FPART_RETURN_NOT_OK(ps.status());
  out->device_seconds = pr->seconds + ps->seconds;

  if (rec->cancel.load(std::memory_order_relaxed)) {
    return Status::Cancelled("job " + std::to_string(rec->id) +
                             " cancelled after device phase");
  }

  const BuildProbeStats bp = OnCpu([&] {
    return ParallelBuildProbe(pr->output, ps->output, /*num_threads=*/1,
                              /*pool=*/nullptr,
                              static_cast<const Tuple8*>(nullptr),
                              /*prefetch_distance=*/16);
  });
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
