// SLO-aware admission control with online cost-model correction.
//
// The Section 4.6/4.8 cost models predict a job's service time before it
// runs; the svc.place.err_pct.<backend>.<size> histograms (ObserveRun)
// measure how wrong those predictions are, online, per (backend,
// size-class) cell. The AdmissionController closes that loop:
//
//  1. Correction — every completed job feeds an EWMA of the ratio
//     actual_run / static_estimate into its (backend, size-class) cell.
//     The corrected estimate is static x EWMA (clamped), so a
//     systematically mis-calibrated model converges to the observed rate
//     at 1/alpha-sample granularity instead of staying wrong forever.
//  2. Feasibility — at admission the scheduler predicts the job's
//     end-to-end latency: the corrected service estimate on the backend
//     placement would choose, plus that backend's wait as the scheduler's
//     BacklogLedger quotes it (live mode: the wall backlogs, with the
//     charge of admitted-but-unplaced jobs counted as CPU work ahead;
//     deterministic mode: the virtual free clocks, which make the
//     prediction *exact*). The controller judges it: a job whose
//     prediction exceeds its budget — min(deadline, class SLO) — is
//     rejected with a typed Status::SloError before it can occupy the
//     queue (live mode) or any backend clock (deterministic). Distinct from
//     CapacityError: the queue may have had room, the job just cannot
//     finish in time.
//
// Determinism: in deterministic mode learning is disabled (corrections
// stay at 1.0) and the feasibility check runs dispatcher-side against the
// virtual clocks in strict arrival order — so admitted jobs' placements
// are bit-identical to an admission-off replay, and the replay hash is
// admission-policy-invariant whenever nothing is rejected.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/status.h"
#include "svc/job.h"
#include "svc/placement.h"

namespace fpart::svc {

/// Size-class axis of the correction table — the same bucketing the
/// svc.place.err_pct.<backend>.<size> histograms use.
inline constexpr size_t kNumSizeClasses = 3;
inline constexpr size_t kNumBackends = 3;

/// Bucket of a job's WFQ demand (tuples): small < 64Ki <= medium < 1Mi
/// <= large.
size_t SizeClassOf(double demand_tuples);
const char* SizeClassName(size_t size_class);

/// \brief SLO / admission knobs (SchedulerConfig::slo).
struct SloConfig {
  /// Master switch. Off: no admission checks, no learning, corrections
  /// pinned at 1.0 — the scheduler behaves exactly as before.
  bool enabled = false;
  /// Per-class latency SLO in seconds (interactive/batch/best-effort);
  /// 0 = no SLO for that class. A job's budget is the tighter of its own
  /// deadline and its class SLO.
  std::array<double, kNumJobClasses> class_slo_seconds{};
  /// EWMA smoothing factor for the cost-model correction (0 < alpha <= 1;
  /// higher = faster adaptation, noisier).
  double ewma_alpha = 0.2;
  /// Clamp on the learned correction factor, so one wild sample cannot
  /// swing predictions by orders of magnitude.
  double correction_floor = 0.25;
  double correction_cap = 4.0;
};

/// \brief The admission controller. One per Scheduler; all methods are
/// thread-safe (clients admit concurrently in live mode).
class AdmissionController {
 public:
  explicit AdmissionController(const SloConfig& config);

  FPART_DISALLOW_COPY_AND_ASSIGN(AdmissionController);

  const SloConfig& config() const { return config_; }

  /// Current correction factor of a (backend, size-class) cell (1.0 until
  /// learned).
  double correction(Backend backend, size_t size_class) const;

  /// The budget a job of `cls` with `deadline_seconds` (0 = none) is held
  /// to: min(deadline, class SLO), or +inf when neither applies.
  double BudgetSeconds(JobClass cls, double deadline_seconds) const;

  /// Completed-job feedback. Records |actual - placed_est| / actual into
  /// the svc.place.err_pct histograms (always — this is the error of the
  /// estimate the ledger was actually charged with) and, when
  /// learning is enabled, folds actual / model_est — the *raw* static
  /// model's ratio, so the correction converges to the true rate instead
  /// of chasing its own output — into the cell's EWMA and publishes the
  /// svc.adm.correction gauges. No-op for non-positive inputs.
  void ObserveRun(Backend backend, double demand_tuples,
                  double model_est_seconds, double placed_est_seconds,
                  double actual_seconds, bool learn);

  /// \brief The feasibility verdict for one job.
  struct Verdict {
    bool admit = true;
    Status status;  ///< SloError detail when !admit
    /// Corrected end-to-end prediction (queue wait + service) and the
    /// budget it was compared against (+inf when unconstrained).
    double predicted_seconds = 0.0;
    double budget_seconds = std::numeric_limits<double>::infinity();
    /// The binding constraint was the job deadline (else the class SLO).
    bool deadline_bound = false;
  };

  /// Judge a prediction against the job's budget, count it, and type the
  /// rejection. `predicted_seconds` is the caller's corrected end-to-end
  /// latency estimate (the scheduler computes it from DecidePlacement on
  /// a correction-scaled input plus the backlog/pending terms — or, in
  /// deterministic mode, exactly from the virtual clocks).
  Verdict Judge(JobClass cls, double deadline_seconds,
                double predicted_seconds);

  uint64_t considered() const {
    return considered_.load(std::memory_order_relaxed);
  }
  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t rejected_slo() const {
    return rejected_slo_.load(std::memory_order_relaxed);
  }
  uint64_t rejected_deadline() const {
    return rejected_deadline_.load(std::memory_order_relaxed);
  }
  uint64_t rejected(JobClass cls) const {
    return rejected_by_class_[static_cast<size_t>(cls)].load(
        std::memory_order_relaxed);
  }

 private:
  const SloConfig config_;

  /// Correction factors, updated by CAS (completions race in live mode;
  /// a lost EWMA sample is acceptable, a torn double is not).
  std::array<std::array<std::atomic<double>, kNumSizeClasses>, kNumBackends>
      correction_;

  std::atomic<uint64_t> considered_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_slo_{0};
  std::atomic<uint64_t> rejected_deadline_{0};
  std::array<std::atomic<uint64_t>, kNumJobClasses> rejected_by_class_{};
};

}  // namespace fpart::svc
