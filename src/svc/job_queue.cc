#include "svc/job_queue.h"

#include <algorithm>
#include <string>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace fpart::svc {
namespace {

/// Weights below this are clamped up: a zero weight would stall the class
/// forever (infinite virtual finish time), which is starvation by
/// configuration — WFQ promises every class forward progress.
constexpr double kMinWeight = 1e-9;

/// Per-class capacity-reject counters, bumped on every shed regardless of
/// queue mode (live WFQ and strict-seq replay take the same path here).
obs::Counter* RejectedCounter(JobClass cls) {
  static obs::Counter* counters[kNumJobClasses] = {nullptr, nullptr,
                                                   nullptr};
  static std::once_flag once;
  std::call_once(once, [] {
    auto& reg = obs::Registry::Global();
    for (size_t c = 0; c < kNumJobClasses; ++c) {
      counters[c] = reg.GetCounter(
          std::string("svc.q.rejected.") +
              JobClassName(static_cast<JobClass>(c)),
          "jobs", "jobs shed with CapacityError in this class");
    }
  });
  return counters[static_cast<size_t>(cls)];
}

}  // namespace

JobQueue::JobQueue(size_t capacity, bool strict_seq,
                   const std::array<double, kNumJobClasses>& weights)
    : capacity_(capacity == 0 ? 1 : capacity), strict_seq_(strict_seq) {
  for (size_t c = 0; c < kNumJobClasses; ++c) {
    weights_[c] = std::max(weights[c], kMinWeight);
  }
}

size_t JobQueue::LiveDepthLocked() const {
  size_t depth = 0;
  for (const auto& q : by_class_) depth += q.size();
  return depth;
}

Status JobQueue::Push(std::shared_ptr<JobRecord> rec) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) {
      return Status::InvalidArgument("job queue is closed");
    }
    const size_t depth = strict_seq_ ? by_seq_.size() : LiveDepthLocked();
    if (depth >= capacity_ || Failpoint("svc.queue.full")) {
      ++shed_;
      ++shed_by_class_[static_cast<size_t>(rec->cls)];
      RejectedCounter(rec->cls)->Add();
      if (strict_seq_) {
        // Leave a tombstone so Pop never stalls on this sequence number.
        skipped_.insert(rec->seq);
      }
      cv_.notify_all();
      return Status::CapacityError("svc queue full (" +
                                   std::to_string(capacity_) +
                                   " jobs); job shed");
    }
    ++pushed_;
    if (strict_seq_) {
      by_seq_.emplace(rec->seq, std::move(rec));
    } else {
      const size_t cls = static_cast<size_t>(rec->cls);
      if (by_class_[cls].empty()) {
        // The class becomes backlogged: stamp its virtual start at the
        // current service point. Idle classes accumulate no credit.
        class_start_[cls] = std::max(class_vf_[cls], vtime_);
      }
      by_class_[cls].emplace(OrderKey{rec->deadline_key, rec->seq},
                             std::move(rec));
    }
  }
  cv_.notify_all();
  return Status::OK();
}

std::shared_ptr<JobRecord> JobQueue::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (strict_seq_) {
      // Skip over admission-shed sequence numbers.
      while (skipped_.count(next_seq_) > 0) {
        skipped_.erase(next_seq_);
        ++next_seq_;
      }
      auto it = by_seq_.find(next_seq_);
      if (it != by_seq_.end()) {
        auto rec = std::move(it->second);
        by_seq_.erase(it);
        ++next_seq_;
        const size_t cls = static_cast<size_t>(rec->cls);
        served_cost_[cls] += rec->wfq_cost;
        return rec;
      }
      if (closed_) {
        if (by_seq_.empty()) return nullptr;
        // Contract violation tolerance: after Close() every admitted
        // sequence is final, so a gap can never be filled — skip to the
        // smallest sequence actually present instead of hanging.
        next_seq_ = by_seq_.begin()->first;
        continue;
      }
    } else {
      // Weighted fair queueing: serve the class whose head job finishes
      // earliest on the virtual clock, F = stamped start + cost / weight.
      // Ties go to the higher-priority (lower-numbered) class.
      size_t best = kNumJobClasses;
      double best_fin = 0.0;
      bool contended = true;
      for (size_t c = 0; c < kNumJobClasses; ++c) {
        if (by_class_[c].empty()) {
          contended = false;
          continue;
        }
        const JobRecord& head = *by_class_[c].begin()->second;
        const double fin = class_start_[c] + head.wfq_cost / weights_[c];
        if (best == kNumJobClasses || fin < best_fin) {
          best = c;
          best_fin = fin;
        }
      }
      if (best != kNumJobClasses) {
        auto it = by_class_[best].begin();
        auto rec = std::move(it->second);
        by_class_[best].erase(it);
        // Self-clock: virtual time is the served job's finish tag; the
        // class's next head starts where this job finished.
        vtime_ = best_fin;
        class_vf_[best] = best_fin;
        class_start_[best] = best_fin;
        served_cost_[best] += rec->wfq_cost;
        if (contended) contended_cost_[best] += rec->wfq_cost;
        return rec;
      }
      if (closed_) return nullptr;
    }
    cv_.wait(lock);
  }
}

void JobQueue::Close() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

size_t JobQueue::depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return strict_seq_ ? by_seq_.size() : LiveDepthLocked();
}

uint64_t JobQueue::pushed() const {
  std::unique_lock<std::mutex> lock(mu_);
  return pushed_;
}

uint64_t JobQueue::shed() const {
  std::unique_lock<std::mutex> lock(mu_);
  return shed_;
}

uint64_t JobQueue::shed(JobClass cls) const {
  std::unique_lock<std::mutex> lock(mu_);
  return shed_by_class_[static_cast<size_t>(cls)];
}

double JobQueue::served_cost(JobClass cls) const {
  std::unique_lock<std::mutex> lock(mu_);
  return served_cost_[static_cast<size_t>(cls)];
}

double JobQueue::contended_cost(JobClass cls) const {
  std::unique_lock<std::mutex> lock(mu_);
  return contended_cost_[static_cast<size_t>(cls)];
}

}  // namespace fpart::svc
