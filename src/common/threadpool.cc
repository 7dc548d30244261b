#include "common/threadpool.h"

#include <algorithm>

namespace gs {

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::HardwareConcurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return !jobs_.empty() || stopping_; });
    if (jobs_.empty()) return;  // stopping, and the queue is drained
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    ++running_;
    lk.unlock();
    job();
    job = nullptr;  // drop captures before signalling idle
    lk.lock();
    if (--running_ == 0 && jobs_.empty()) idle_cv_.notify_all();
  }
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return jobs_.empty() && running_ == 0; });
}

}  // namespace gs
