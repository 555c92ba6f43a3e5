#include "svc/fpga_arbiter.h"

#include <string>

#include "obs/metrics.h"

namespace fpart::svc {

DevicePool::DevicePool(size_t num_devices, const BacklogLedger* ledger)
    : ledger_(ledger) {
  devices_.resize(num_devices == 0 ? 1 : num_devices);
  auto& reg = obs::Registry::Global();
  for (size_t i = 0; i < devices_.size(); ++i) {
    const std::string prefix = "svc.device." + std::to_string(i);
    devices_[i].grants_metric = reg.GetCounter(
        prefix + ".grants", "grants", "lease grants on this device");
    devices_[i].busy_us_metric = reg.GetCounter(
        prefix + ".busy_us", "us", "wall time jobs held this device lease");
  }
}

int DevicePool::PickFreeDeviceLocked(const JobRecord* rec) const {
  int best = -1;
  double best_backlog = 0.0;
  for (size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].holder != nullptr) continue;
    double backlog =
        ledger_ != nullptr ? ledger_->device_backlog_seconds(i) : 0.0;
    // The job's own placement charge sits on charged_device; discount it
    // so the charge does not repel the job from its predicted device.
    if (rec != nullptr && rec->charged_device == static_cast<int>(i)) {
      backlog -= rec->placed_estimate_seconds;
    }
    if (best < 0 || backlog < best_backlog) {
      best = static_cast<int>(i);
      best_backlog = backlog;
    }
  }
  return best;
}

Status DevicePool::Acquire(JobRecord* rec) {
  const WaitKey key{rec->deadline_key, rec->seq};
  std::unique_lock<std::mutex> lock(mu_);
  waiters_.insert(key);
  for (;;) {
    if (rec->cancel.load(std::memory_order_relaxed)) {
      waiters_.erase(key);
      // The departing waiter may have been the one everybody was ordered
      // behind — wake the rest so the best remaining waiter can claim a
      // free device.
      cv_.notify_all();
      return Status::Cancelled("job " + std::to_string(rec->id) +
                               " cancelled while waiting for FPGA lease");
    }
    if (held_ < devices_.size() && *waiters_.begin() == key) {
      const int dev = PickFreeDeviceLocked(rec);
      waiters_.erase(key);
      devices_[dev].holder = rec;
      ++devices_[dev].grants;
      devices_[dev].grants_metric->Add();
      ++held_;
      rec->device = dev;
      // Another device may still be free: let the next-best waiter in.
      cv_.notify_all();
      return Status::OK();
    }
    cv_.wait(lock);
  }
}

void DevicePool::Release(JobRecord* rec) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    const int dev = rec->device;
    if (dev >= 0 && dev < static_cast<int>(devices_.size()) &&
        devices_[dev].holder == rec) {
      devices_[dev].holder = nullptr;
      --held_;
      rec->device = -1;
    }
  }
  cv_.notify_all();
}

void DevicePool::NotifyCancelled() { cv_.notify_all(); }

void DevicePool::RecordBusy(int device, double wall_seconds) {
  if (device < 0 || device >= static_cast<int>(devices_.size())) return;
  if (wall_seconds <= 0.0) return;
  devices_[device].busy_us_metric->Add(
      static_cast<uint64_t>(wall_seconds * 1e6));
}

double DevicePool::total_backlog_seconds() const {
  return ledger_ != nullptr ? ledger_->total_device_backlog_seconds() : 0.0;
}

uint64_t DevicePool::grants() const {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const Device& d : devices_) sum += d.grants;
  return sum;
}

uint64_t DevicePool::device_grants(size_t device) const {
  std::unique_lock<std::mutex> lock(mu_);
  return device < devices_.size() ? devices_[device].grants : 0;
}

size_t DevicePool::waiters() const {
  std::unique_lock<std::mutex> lock(mu_);
  return waiters_.size();
}

}  // namespace fpart::svc
