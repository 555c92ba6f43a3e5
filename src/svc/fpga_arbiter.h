// Lease arbitration for a pool of N (simulated) FPGA devices.
//
// The paper's platform has one QPI-attached FPGA shared by everything on
// the machine (Section 2.1); multi-FPGA deployments are the established
// scaling path for partitioning accelerators (RePart, PAPERS.md). The svc
// runtime serializes access through this pool: every device is an
// exclusive lease, and a job holds exactly one device while it runs on
// the simulator.
//
// Grant order: waiters are granted earliest-deadline-first, FIFO (arrival
// sequence) among equal or absent deadlines — the same intra-class
// ordering the admission queue uses, so a job's position cannot invert
// between queue and device. The granted waiter takes the *least
// backlogged free* device (its own placement charge discounted), which
// keeps the per-device backlogs balanced.
//
// Cancellation: a waiter whose job's cancel token fires leaves the wait
// set and returns Status::Cancelled; free devices are handed to the next
// waiter immediately (no orphaned grant, no stalled queue — per device).
// The scheduler calls NotifyCancelled() after setting a token so sleeping
// waiters re-check it.
//
// Backlog accounting lives in the scheduler's BacklogLedger
// (backlog_ledger.h): placement charges each device job's model-time
// estimate to the least-backlogged device and completion credits it back.
// The pool only reads those per-device backlogs to pick a device.
//
// Observability: device i publishes svc.device.<i>.grants and
// svc.device.<i>.busy_us; the ledger publishes its
// svc.device.<i>.backlog_seconds (docs/observability.md).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "svc/backlog_ledger.h"
#include "svc/job.h"

namespace fpart::obs {
class Counter;
}  // namespace fpart::obs

namespace fpart::svc {

class DevicePool {
 public:
  /// \param num_devices  FPGA devices in the pool (0 is clamped to 1).
  /// \param ledger       per-device backlogs for the device pick; null
  ///                     counts every device as idle. Must outlive the pool.
  explicit DevicePool(size_t num_devices = 1,
                      const BacklogLedger* ledger = nullptr);
  FPART_DISALLOW_COPY_AND_ASSIGN(DevicePool);

  /// Block until `rec` holds one exclusive device lease (rec->device is
  /// set to its index), or until its cancel token fires
  /// (Status::Cancelled; the reservation is removed and the remaining
  /// waiters woken). On OK the caller MUST Release(rec).
  Status Acquire(JobRecord* rec);

  /// Return rec's device lease and hand it to the best remaining waiter.
  void Release(JobRecord* rec);

  /// Wake sleeping waiters so they re-check their cancel tokens.
  void NotifyCancelled();

  /// Wall time spent holding device leases (svc.device.<i>.busy_us).
  void RecordBusy(int device, double wall_seconds);

  /// Summed backlog across all devices (the ledger's; 0 without one).
  double total_backlog_seconds() const;

  /// Lifetime grant counts, pool-wide and per device.
  uint64_t grants() const;
  uint64_t device_grants(size_t device) const;
  size_t waiters() const;
  size_t num_devices() const { return devices_.size(); }

 private:
  using WaitKey = std::pair<double, uint64_t>;  // (deadline_key, seq)

  struct Device {
    const JobRecord* holder = nullptr;
    uint64_t grants = 0;
    obs::Counter* grants_metric = nullptr;
    obs::Counter* busy_us_metric = nullptr;
  };

  /// Least-backlogged free device for `rec` (its own placement charge
  /// discounted), or -1 when every device is held. Lock held.
  int PickFreeDeviceLocked(const JobRecord* rec) const;

  const BacklogLedger* const ledger_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Device> devices_;
  std::set<WaitKey> waiters_;
  size_t held_ = 0;
};

}  // namespace fpart::svc
