#include "svc/admission.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.h"

namespace fpart::svc {
namespace {

struct AdmMetrics {
  obs::Counter* considered;
  obs::Counter* admitted;
  obs::Counter* rejected_slo;
  obs::Counter* rejected_deadline;
  obs::Counter* class_rejected[kNumJobClasses];
  obs::Histogram* predicted_us;
  obs::Gauge* correction[kNumBackends][kNumSizeClasses];
  obs::Histogram* place_err[kNumBackends][kNumSizeClasses];
};

AdmMetrics& Metrics() {
  static AdmMetrics m = [] {
    auto& reg = obs::Registry::Global();
    AdmMetrics x;
    x.considered = reg.GetCounter(
        "svc.adm.considered", "jobs",
        "jobs evaluated by the SLO admission controller");
    x.admitted = reg.GetCounter(
        "svc.adm.admitted", "jobs",
        "jobs whose corrected prediction fit their budget");
    x.rejected_slo = reg.GetCounter(
        "svc.adm.rejected.slo", "jobs",
        "jobs rejected against their class latency SLO");
    x.rejected_deadline = reg.GetCounter(
        "svc.adm.rejected.deadline", "jobs",
        "jobs rejected against their own deadline");
    x.predicted_us = reg.GetHistogram(
        "svc.adm.predicted_us", "us",
        "corrected end-to-end latency predicted at admission");
    for (size_t c = 0; c < kNumJobClasses; ++c) {
      x.class_rejected[c] = reg.GetCounter(
          std::string("svc.slo.rejected.") +
              JobClassName(static_cast<JobClass>(c)),
          "jobs", "SLO-infeasible jobs rejected in this class");
    }
    for (size_t b = 0; b < kNumBackends; ++b) {
      for (size_t s = 0; s < kNumSizeClasses; ++s) {
        const std::string cell = std::string(BackendName(
                                     static_cast<Backend>(b))) +
                                 "." + SizeClassName(s);
        x.correction[b][s] = reg.GetGauge(
            "svc.adm.correction." + cell, "x",
            "EWMA cost-model correction factor (actual/estimate)");
        x.place_err[b][s] = reg.GetHistogram(
            "svc.place.err_pct." + cell, "pct",
            "placement estimate error |run-est|/run*100");
      }
    }
    return x;
  }();
  return m;
}

}  // namespace

size_t SizeClassOf(double demand_tuples) {
  if (demand_tuples < 64.0 * 1024) return 0;    // small
  if (demand_tuples < 1024.0 * 1024) return 1;  // medium
  return 2;                                     // large
}

const char* SizeClassName(size_t size_class) {
  switch (size_class) {
    case 0:
      return "small";
    case 1:
      return "medium";
    case 2:
      return "large";
    default:
      return "unknown";
  }
}

AdmissionController::AdmissionController(const SloConfig& config)
    : config_(config) {
  for (auto& row : correction_) {
    for (auto& cell : row) {
      cell.store(1.0, std::memory_order_relaxed);
    }
  }
}

double AdmissionController::correction(Backend backend,
                                       size_t size_class) const {
  const size_t b = static_cast<size_t>(backend);
  const size_t s = std::min(size_class, kNumSizeClasses - 1);
  return correction_[b][s].load(std::memory_order_relaxed);
}

double AdmissionController::BudgetSeconds(JobClass cls,
                                          double deadline_seconds) const {
  double budget = std::numeric_limits<double>::infinity();
  if (deadline_seconds > 0.0) budget = deadline_seconds;
  const double slo = config_.class_slo_seconds[static_cast<size_t>(cls)];
  if (slo > 0.0) budget = std::min(budget, slo);
  return budget;
}

void AdmissionController::ObserveRun(Backend backend, double demand_tuples,
                                     double model_est_seconds,
                                     double placed_est_seconds,
                                     double actual_seconds, bool learn) {
  if (actual_seconds <= 0.0) return;
  auto& m = Metrics();
  const size_t b = static_cast<size_t>(backend);
  const size_t s = SizeClassOf(demand_tuples);
  if (placed_est_seconds > 0.0) {
    const double err_pct =
        std::abs(actual_seconds - placed_est_seconds) / actual_seconds *
        100.0;
    m.place_err[b][s]->Record(static_cast<uint64_t>(err_pct));
  }

  if (!learn || !config_.enabled || model_est_seconds <= 0.0) {
    return;
  }
  const double ratio = std::clamp(actual_seconds / model_est_seconds,
                                  config_.correction_floor,
                                  config_.correction_cap);
  std::atomic<double>& cell = correction_[b][s];
  double seen = cell.load(std::memory_order_relaxed);
  for (;;) {
    const double next =
        std::clamp((1.0 - config_.ewma_alpha) * seen +
                       config_.ewma_alpha * ratio,
                   config_.correction_floor, config_.correction_cap);
    if (cell.compare_exchange_weak(seen, next, std::memory_order_relaxed)) {
      m.correction[b][s]->Set(next);
      return;
    }
  }
}

AdmissionController::Verdict AdmissionController::Judge(
    JobClass cls, double deadline_seconds, double predicted_seconds) {
  auto& m = Metrics();
  Verdict v;
  v.predicted_seconds = predicted_seconds;
  v.budget_seconds = BudgetSeconds(cls, deadline_seconds);
  considered_.fetch_add(1, std::memory_order_relaxed);
  m.considered->Add();
  m.predicted_us->Record(
      static_cast<uint64_t>(std::max(0.0, predicted_seconds) * 1e6));
  if (predicted_seconds <= v.budget_seconds) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    m.admitted->Add();
    return v;
  }
  const double slo = config_.class_slo_seconds[static_cast<size_t>(cls)];
  // The binding budget: the deadline, unless the class SLO is (at least
  // as) tight.
  v.deadline_bound =
      deadline_seconds > 0.0 && (slo <= 0.0 || deadline_seconds < slo);
  v.admit = false;
  v.status = Status::SloError(
      "predicted " + std::to_string(predicted_seconds) + " s exceeds " +
      (v.deadline_bound ? "deadline " : "class SLO ") +
      std::to_string(v.budget_seconds) + " s");
  if (v.deadline_bound) {
    rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
    m.rejected_deadline->Add();
  } else {
    rejected_slo_.fetch_add(1, std::memory_order_relaxed);
    m.rejected_slo->Add();
  }
  rejected_by_class_[static_cast<size_t>(cls)].fetch_add(
      1, std::memory_order_relaxed);
  m.class_rejected[static_cast<size_t>(cls)]->Add();
  return v;
}

}  // namespace fpart::svc
