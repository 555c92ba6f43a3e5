// Bounded admission queue of the svc runtime: concurrent clients push
// JobRecords, the scheduler's dispatcher pops them.
//
// Two orderings:
//  * live mode — weighted fair queueing over priority classes (self-clocked
//    fair queueing at class granularity): each class keeps its own
//    (deadline, arrival seq) ordered backlog and a *virtual start* stamp,
//    set to max(class finish, vtime) when the class becomes backlogged and
//    advanced to the served job's finish tag after each pop from it. The
//    pop picks the class whose head carries the smallest virtual finish
//    F = start + cost / weight, and the queue's vtime self-clocks to the
//    served F. Continuously backlogged classes therefore receive service
//    cost in proportion to their weights, and no class starves: a stamped
//    F is fixed while the class waits, and every competing class's F
//    strictly increases past it. Within a class jobs still dispatch
//    earliest-deadline-first with FIFO among equal deadlines;
//  * deterministic mode (strict_seq) — strictly by the caller-assigned
//    contiguous arrival sequence, so placement processes jobs in the same
//    order on every replay regardless of client-thread interleaving. A
//    job shed at admission leaves a tombstone so the dispatcher never
//    waits for a sequence number that will not arrive.
//
// Admission control: Push on a full queue rejects with
// Status::CapacityError — the typed backpressure signal clients see.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "common/status.h"
#include "svc/job.h"

namespace fpart::svc {

/// Default class weights: interactive 8 : batch 3 : best-effort 1.
inline constexpr std::array<double, kNumJobClasses> kDefaultClassWeights = {
    8.0, 3.0, 1.0};

class JobQueue {
 public:
  /// \param capacity    maximum queued (admitted, undispatched) jobs
  /// \param strict_seq  deterministic mode: pop strictly by arrival_seq
  /// \param weights     per-class WFQ weights (clamped to a small positive
  ///                    floor; live mode only)
  JobQueue(size_t capacity, bool strict_seq,
           const std::array<double, kNumJobClasses>& weights =
               kDefaultClassWeights);

  FPART_DISALLOW_COPY_AND_ASSIGN(JobQueue);

  /// Admit a job, or reject with Status::CapacityError when the queue is
  /// full (the record is untouched; the caller sheds it). Errors with
  /// Status::InvalidArgument after Close().
  Status Push(std::shared_ptr<JobRecord> rec);

  /// Next job in queue order; blocks while empty. Returns nullptr once the
  /// queue is closed and drained.
  std::shared_ptr<JobRecord> Pop();

  /// Stop admissions and wake the dispatcher once drained.
  void Close();

  size_t depth() const;
  uint64_t pushed() const;
  uint64_t shed() const;
  /// Capacity rejects charged to `cls`. Bumped on *every* shed path —
  /// live and strict-seq mode alike — together with the
  /// svc.q.rejected.<class> counters (historically the per-class tallies
  /// only covered strict-arrival mode, so live-mode rejects were
  /// invisible per class).
  uint64_t shed(JobClass cls) const;

  /// Summed wfq_cost of the jobs popped from `cls` so far.
  double served_cost(JobClass cls) const;
  /// Summed wfq_cost popped from `cls` while *every* class had backlog —
  /// the window over which the WFQ share invariant is defined.
  double contended_cost(JobClass cls) const;

 private:
  using OrderKey = std::pair<double, uint64_t>;  // (deadline_key, seq)

  mutable std::mutex mu_;
  std::condition_variable cv_;
  const size_t capacity_;
  const bool strict_seq_;
  std::array<double, kNumJobClasses> weights_;
  bool closed_ = false;
  /// Live mode: per-class backlog, earliest deadline first within a class.
  std::array<std::map<OrderKey, std::shared_ptr<JobRecord>>, kNumJobClasses>
      by_class_;
  std::map<uint64_t, std::shared_ptr<JobRecord>> by_seq_;
  /// strict_seq only: sequence numbers shed at admission (tombstones).
  std::set<uint64_t> skipped_;
  uint64_t next_seq_ = 0;  // strict_seq only: next sequence to dispatch
  uint64_t pushed_ = 0;
  uint64_t shed_ = 0;
  std::array<uint64_t, kNumJobClasses> shed_by_class_{};
  /// WFQ virtual clocks: vtime_ self-clocks to the last served finish tag;
  /// class_vf_ is each class's cumulative finish; class_start_ is the
  /// stamped virtual start of the class's current head (valid while the
  /// class is backlogged — stamping, not per-pop recomputation, is what
  /// makes the discipline starvation-free).
  double vtime_ = 0.0;
  std::array<double, kNumJobClasses> class_vf_{};
  std::array<double, kNumJobClasses> class_start_{};
  std::array<double, kNumJobClasses> served_cost_{};
  std::array<double, kNumJobClasses> contended_cost_{};

  size_t LiveDepthLocked() const;
};

}  // namespace fpart::svc
