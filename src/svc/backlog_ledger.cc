#include "svc/backlog_ledger.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace fpart::svc {
namespace {

/// Index of the first smallest clock.
size_t Least(const std::vector<double>& clocks) {
  return static_cast<size_t>(
      std::min_element(clocks.begin(), clocks.end()) - clocks.begin());
}

}  // namespace

BacklogLedger::BacklogLedger(bool virtual_time, size_t num_workers,
                             size_t num_devices)
    : virtual_time_(virtual_time),
      device_backlog_(std::max<size_t>(1, num_devices), 0.0),
      worker_free_(std::max<size_t>(1, num_workers), 0.0),
      device_free_(device_backlog_.size(), 0.0) {
  auto& reg = obs::Registry::Global();
  cpu_gauge_ = reg.GetGauge("svc.cpu.backlog_seconds", "s",
                            "placed-but-unfinished CPU model time");
  fpga_gauge_ = reg.GetGauge("svc.fpga.backlog_seconds", "s",
                             "placed-but-unfinished device model time");
  for (size_t i = 0; i < device_backlog_.size(); ++i) {
    device_gauges_.push_back(reg.GetGauge(
        "svc.device." + std::to_string(i) + ".backlog_seconds", "s",
        "placed-but-unfinished model time on this device"));
  }
}

double BacklogLedger::ArrivalSeconds(const JobRecord& rec) const {
  return virtual_time_ ? rec.opts.virtual_arrival_seconds
                       : rec.submit_seconds;
}

BacklogLedger::Quote BacklogLedger::QuoteWaits(double arrival_seconds,
                                               bool with_pending) const {
  std::lock_guard<std::mutex> lock(mu_);
  Quote q;
  if (virtual_time_) {
    const double worker = worker_free_[Least(worker_free_)];
    const double device = device_free_[Least(device_free_)];
    q.cpu_wait = std::max(0.0, worker - arrival_seconds);
    q.device_wait = std::max(0.0, device - arrival_seconds);
    // The start Charge would commit, so a prediction built on it is exact.
    q.device_start_wait =
        std::max({arrival_seconds, device, worker}) - arrival_seconds;
    return q;
  }
  const double workers = static_cast<double>(worker_free_.size());
  q.cpu_wait = with_pending ? (cpu_backlog_ + pending_) / workers
                            : cpu_backlog_ / workers;
  q.device_wait = device_backlog_[Least(device_backlog_)];
  q.device_start_wait = q.device_wait;
  return q;
}

BacklogLedger::Slot BacklogLedger::Charge(Account account,
                                          double arrival_seconds,
                                          double run_seconds,
                                          double lease_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot slot;
  if (virtual_time_) {
    if (account == Account::kPending) return slot;  // admission is exact
    const size_t w = Least(worker_free_);
    double start;
    if (account == Account::kCpu) {
      start = std::max(arrival_seconds, worker_free_[w]);
    } else {
      // A device job holds a worker for the whole run and its device for
      // the lease; the later of the two clocks gates the start.
      const size_t d = Least(device_free_);
      start = std::max({arrival_seconds, device_free_[d], worker_free_[w]});
      device_free_[d] = start + lease_seconds;
    }
    worker_free_[w] = start + run_seconds;
    slot.queue_seconds = start - arrival_seconds;
    slot.run_seconds = run_seconds;
    return slot;
  }
  switch (account) {
    case Account::kPending:
      if (run_seconds > 0.0) pending_ += run_seconds;
      break;
    case Account::kCpu:
      if (run_seconds > 0.0) {
        cpu_backlog_ += run_seconds;
        cpu_gauge_->Set(cpu_backlog_);
      }
      break;
    case Account::kDevice:
      if (lease_seconds > 0.0) {
        const size_t d = Least(device_backlog_);
        device_backlog_[d] += lease_seconds;
        PublishDeviceLocked(d);
        slot.device = static_cast<int>(d);
      }
      break;
  }
  return slot;
}

void BacklogLedger::Credit(Account account, int device, double seconds) {
  if (virtual_time_ || seconds <= 0.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  switch (account) {
    case Account::kPending:
      pending_ = std::max(0.0, pending_ - seconds);
      break;
    case Account::kCpu:
      cpu_backlog_ = std::max(0.0, cpu_backlog_ - seconds);
      cpu_gauge_->Set(cpu_backlog_);
      break;
    case Account::kDevice:
      if (device < 0 || device >= static_cast<int>(device_backlog_.size())) {
        return;
      }
      device_backlog_[device] =
          std::max(0.0, device_backlog_[device] - seconds);
      PublishDeviceLocked(static_cast<size_t>(device));
      break;
  }
}

void BacklogLedger::PublishDeviceLocked(size_t device) const {
  device_gauges_[device]->Set(device_backlog_[device]);
  fpga_gauge_->Set(device_backlog_[Least(device_backlog_)]);
}

double BacklogLedger::makespan_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(*std::max_element(worker_free_.begin(), worker_free_.end()),
                  *std::max_element(device_free_.begin(), device_free_.end()));
}

double BacklogLedger::cpu_backlog_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cpu_backlog_;
}

double BacklogLedger::pending_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

double BacklogLedger::device_backlog_seconds(size_t device) const {
  std::lock_guard<std::mutex> lock(mu_);
  return device < device_backlog_.size() ? device_backlog_[device] : 0.0;
}

double BacklogLedger::total_device_backlog_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (double b : device_backlog_) sum += b;
  return sum;
}

}  // namespace fpart::svc
