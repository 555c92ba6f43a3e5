#include "common/thread_pool.h"

#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace fpart {
namespace {

// Name the calling thread "<prefix>/<index>", clipped to the 15-character
// limit of pthread_setname_np. Best effort; naming failures are ignored.
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

// Pin an already-running thread to one CPU; false when unsupported or
// rejected (the worker then simply stays where the OS put it).
bool PinThreadHandle(std::thread& t, int cpu) {
#if defined(__linux__)
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(t.native_handle(), sizeof(set), &set) == 0;
#else
  (void)t;
  (void)cpu;
  return false;
#endif
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, const std::string& name,
                       AffinityPolicy affinity)
    : name_(name), affinity_(affinity) {
  if (num_threads == 0) num_threads = 1;
  plan_ = Topology::Host().PinPlan(affinity_, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
    if (PinThreadHandle(threads_.back(), plan_[i].cpu)) {
      ++pinned_workers_;
    } else {
      plan_[i].cpu = -1;  // record that this worker runs unpinned
    }
  }
  // Release the workers only once every pin result is recorded: WorkerLoop
  // reads plan_[index], which the loop above may rewrite.
  {
    std::unique_lock<std::mutex> lock(mu_);
    started_ = true;
  }
  cv_task_.notify_all();
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 1) {
    fn(0);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    Submit([&fn, i] { fn(i); });
  }
  WaitIdle();
}

void ThreadPool::WorkerLoop(size_t index) {
  NameCurrentThread(name_, index);
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_task_.wait(lock, [this] { return started_ || shutdown_; });
  }
  {
    WorkerContext ctx;
    ctx.worker = static_cast<int>(index);
    ctx.node = plan_[index].node;
    ctx.cpu = plan_[index].cpu;
    ctx.pool = name_.c_str();  // name_ is immutable for the pool's lifetime
    SetCurrentWorkerContext(ctx);
  }
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Drop this worker's reference to the exception under mu_. The
      // exception_ptr count lives in uninstrumented libstdc++, so only the
      // lock orders this release before WaitIdle's caller reads (and may
      // free) the exception.
      if (error && !first_error_) first_error_ = std::move(error);
      error = nullptr;
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace fpart
