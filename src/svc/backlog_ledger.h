// The svc scheduler's backlog ledger: every number that says how much
// placed-but-unfinished work sits ahead of a new job.
//
// The paper's platform shares one QPI-attached FPGA across the host
// (Section 2.1), and the Section 4.6/4.8 model predicts how long a job
// holds it. The scheduler compares those model-time estimates across
// backends (placement.h) and against a job's budget (admission.h); the
// ledger keeps the estimates of work already placed. Its time base is
// fixed at construction:
//
//  * wall time (live mode) — backlogs in model seconds: one CPU backlog
//    shared by the workers, one backlog per device, and the
//    pending charge of jobs admitted at Submit but not yet placed. A
//    placement charges its estimate; completion credits it back, clamped
//    at 0.
//  * virtual time (deterministic mode) — list scheduling on free clocks,
//    one per worker and one per device. A placement starts at
//    max(arrival, the clocks it needs) and advances them; nothing is
//    credited. The dispatcher places jobs in strict arrival order, so
//    every quote and charge is a pure function of the job stream.
//
// This class is the only code whose arithmetic depends on the time base.
// One mutex guards all of it: in live mode clients quote and charge
// pending work concurrently, workers credit, and the device pool reads
// the per-device backlogs when it picks a device for a lease.
//
// Gauges (wall time): svc.cpu.backlog_seconds, svc.fpga.backlog_seconds
// (the least-backlogged device) and svc.device.<i>.backlog_seconds.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "svc/job.h"

namespace fpart::obs {
class Gauge;
}  // namespace fpart::obs

namespace fpart::svc {

class BacklogLedger {
 public:
  /// \param num_workers, num_devices  the scheduler's workers and devices
  /// (0 is clamped to 1): one virtual clock each, and in wall time the
  /// workers share the CPU backlog.
  BacklogLedger(bool virtual_time, size_t num_workers, size_t num_devices);
  FPART_DISALLOW_COPY_AND_ASSIGN(BacklogLedger);

  /// The job's arrival on this ledger's time base: its virtual arrival
  /// stamp, or its wall submit time.
  double ArrivalSeconds(const JobRecord& rec) const;

  /// \brief The waits a job arriving now would see on each backend.
  struct Quote {
    /// Queueing delay per backend, as placement compares them. Wall time:
    /// the CPU backlog over the workers, and the least device backlog.
    double cpu_wait = 0.0;
    double device_wait = 0.0;
    /// Wait until a device job starts: device_wait, except that in
    /// virtual time the job also holds a worker and waits for one.
    double device_start_wait = 0.0;

    /// The queue term of the job's end-to-end prediction.
    double Wait(bool on_device) const {
      return on_device ? device_start_wait : cpu_wait;
    }
  };
  /// Quote a job arriving at `arrival_seconds`. `with_pending` (live
  /// admission) counts admitted-but-unplaced work as CPU backlog ahead of
  /// the job; placement leaves it out, because the placed jobs' own
  /// charges have replaced it by then.
  Quote QuoteWaits(double arrival_seconds, bool with_pending) const;

  /// Where a charge sits.
  enum class Account { kPending, kCpu, kDevice };

  /// \brief What a charge committed.
  struct Slot {
    /// Device whose wall backlog was charged (-1: not a device charge, or
    /// virtual time, where any free device may take the lease).
    int device = -1;
    /// Virtual time: wait from arrival to start, and the service time.
    /// Both 0 in wall time.
    double queue_seconds = 0.0;
    double run_seconds = 0.0;
  };
  /// Commit a job to `account`: `run_seconds` of service, of which a
  /// device job holds its device for `lease_seconds`. Wall time charges
  /// the CPU or pending backlog `run_seconds` and the least-backlogged
  /// device `lease_seconds`; amounts of 0 or less are ignored. Virtual
  /// time starts the job on the earliest free worker (and device) and
  /// advances their clocks.
  Slot Charge(Account account, double arrival_seconds, double run_seconds,
              double lease_seconds = 0.0);
  /// Credit a wall-time charge back, clamped at 0 (`device` < 0 is a
  /// no-op for kDevice). Virtual time never credits.
  void Credit(Account account, int device, double seconds);

  /// Virtual time: the latest worker or device free time — the replayed
  /// stream's completion time on the model clock. 0 in wall time.
  double makespan_seconds() const;

  /// Wall-time backlogs (all 0 in virtual time).
  double cpu_backlog_seconds() const;
  double pending_seconds() const;
  double device_backlog_seconds(size_t device) const;
  double total_device_backlog_seconds() const;

 private:
  void PublishDeviceLocked(size_t device) const;

  const bool virtual_time_;
  mutable std::mutex mu_;
  double cpu_backlog_ = 0.0;
  double pending_ = 0.0;
  std::vector<double> device_backlog_;
  /// One free clock per worker; its size is the worker count wall time
  /// divides the CPU backlog by.
  std::vector<double> worker_free_;
  std::vector<double> device_free_;

  obs::Gauge* cpu_gauge_ = nullptr;
  obs::Gauge* fpga_gauge_ = nullptr;
  std::vector<obs::Gauge*> device_gauges_;
};

}  // namespace fpart::svc
