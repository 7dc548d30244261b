// ThreadPool: a fixed-size compute pool — one mutex-guarded FIFO queue
// drained by a fixed set of workers.
//
// The simulator's event loop stays single-threaded; the pool only runs
// *pure* compute jobs (record transformation, partitioning, size
// accounting, workload input generation) whose results the loop consumes
// at fixed simulated events. Jobs are side-effect-free functions of their
// captured inputs, and the event loop blocks on a job's future exactly at
// the simulated event that needs its result — so event order, metrics
// and records are byte-identical for 1 and N threads.
//
// One queue and one Submit are all the pipelining needs (a task's compute
// overlaps its simulated gather); no end-to-end workload gained from
// sharded queues, work stealing or batched submission (docs/PERF.md §7).
// The pool spawns exactly the workers it is asked for; callers choose the
// width.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gs {

class ThreadPool {
 public:
  // Spawns max(1, threads) workers.
  explicit ThreadPool(int threads);

  // Drains the queue (every submitted job runs), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` for execution. The returned future yields fn's result,
  // or rethrows what it threw. With one worker, jobs run in submission
  // (FIFO) order. `fn` may be move-only: it shares one heap cell with its
  // promise, and the queue holds a copyable handle to that cell.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> Submit(Fn fn) {
    using R = std::invoke_result_t<Fn>;
    // Not a packaged_task: that keeps fn in the future's shared state, so
    // its captures would outlive the run for as long as the future does.
    struct Job {
      Fn fn;
      std::promise<R> promise;
    };
    auto job = std::make_shared<Job>(Job{std::move(fn), {}});
    std::future<R> result = job->promise.get_future();
    {
      std::lock_guard<std::mutex> g(mu_);
      jobs_.emplace_back([job = std::move(job)] {
        try {
          if constexpr (std::is_void_v<R>) {
            job->fn();
            job->promise.set_value();
          } else {
            job->promise.set_value(job->fn());
          }
        } catch (...) {
          job->promise.set_exception(std::current_exception());
        }
      });
    }
    work_cv_.notify_one();
    return result;
  }

  // Blocks until every submitted job has finished (none queued, none
  // mid-run) and its captures are destroyed. Used by the engine to make
  // sure orphaned jobs (discarded task attempts) finish before the
  // structures they reference are torn down.
  void WaitIdle();

  // Number of hardware threads, never less than 1.
  static int HardwareConcurrency();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // a job was queued, or stopping_
  std::condition_variable idle_cv_;  // queue empty and no job running
  std::deque<std::function<void()>> jobs_;
  int running_ = 0;  // jobs popped but not yet finished
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace gs
