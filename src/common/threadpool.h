// ThreadPool: a fixed-size compute pool with per-worker sharded deques and
// work stealing.
//
// The simulator's event loop stays single-threaded; the pool only runs
// *pure* compute jobs (record transformation, partitioning, size
// accounting, workload input generation) whose results the loop consumes
// at fixed simulated events. Determinism therefore does not depend on
// scheduling: jobs are side-effect-free functions of their captured
// inputs, and the event loop blocks on a job's future exactly at the
// simulated event that needs its result — so event order, metrics and
// records are byte-identical for 1 and N threads.
//
// Scaling design (docs/PERF.md §7):
//  * one deque + mutex per worker instead of a single FIFO mutex — a
//    submission contends with at most one worker, and workers steal from
//    each other's queues when their own runs dry, so a burst landing on
//    one shard still spreads across the pool;
//  * SubmitBatch() enqueues a whole wave of jobs with one lock
//    acquisition per shard instead of one per job;
//  * jobs are MoveFunction (move-only, small-buffer-optimized) rather
//    than shared_ptr<packaged_task> wrapped in a copyable std::function —
//    one control block and up to two allocations fewer per job.
//
// Worker count: oversubscribing a host never helps pure CPU-bound jobs —
// it only adds context switches and cache thrash (the PR-2 regression:
// 8 pool threads on a 1-core host made the map pipeline slower than 1).
// The default Width::kClampToHardware therefore caps spawned workers at
// HardwareConcurrency(); Width::kExact spawns exactly the requested
// count (tests use it to force real interleaving on small hosts, and an
// explicit engine --threads choice is honored as given).
//
// Exceptions thrown by a job are captured and rethrown from future::get()
// (std::future semantics). The destructor drains the queues — every
// submitted job runs before shutdown completes — then joins the workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gs {

// Move-only type-erased nullary callable: the pool's job type. Callables
// up to kInlineSize bytes with a nothrow move constructor are stored
// inline (no allocation); larger ones ride in a single heap cell. Unlike
// std::function it never requires copyability, so packaged tasks and
// promise-capturing lambdas move straight in.
class MoveFunction {
 public:
  static constexpr std::size_t kInlineSize = 48;

  MoveFunction() noexcept = default;

  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, MoveFunction>>>
  MoveFunction(Fn&& fn) {  // NOLINT(google-explicit-constructor)
    using F = std::decay_t<Fn>;
    if constexpr (sizeof(F) <= kInlineSize &&
                  alignof(F) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<F>) {
      ::new (static_cast<void*>(storage_)) F(std::forward<Fn>(fn));
      ops_ = &kInlineOps<F>;
    } else {
      *reinterpret_cast<F**>(storage_) = new F(std::forward<Fn>(fn));
      ops_ = &kHeapOps<F>;
    }
  }

  MoveFunction(MoveFunction&& other) noexcept { MoveFrom(other); }
  MoveFunction& operator=(MoveFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  MoveFunction(const MoveFunction&) = delete;
  MoveFunction& operator=(const MoveFunction&) = delete;
  ~MoveFunction() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->call(storage_); }

 private:
  struct Ops {
    void (*call)(void* storage);
    void (*move)(void* dst, void* src);  // move-construct dst from src
    void (*destroy)(void* storage);
  };

  template <typename F>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<F*>(s))(); },
      [](void* dst, void* src) {
        ::new (dst) F(std::move(*static_cast<F*>(src)));
        static_cast<F*>(src)->~F();
      },
      [](void* s) { static_cast<F*>(s)->~F(); }};

  template <typename F>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<F**>(s))(); },
      [](void* dst, void* src) {
        *static_cast<F**>(dst) = *static_cast<F**>(src);
      },
      [](void* s) { delete *static_cast<F**>(s); }};

  void MoveFrom(MoveFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->move(storage_, other.storage_);
    other.ops_ = nullptr;
  }
  void Reset() noexcept {
    if (ops_ != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class ThreadPool {
 public:
  enum class Width {
    kClampToHardware,  // spawn min(threads, HardwareConcurrency()) workers
    kExact,            // spawn exactly `threads` workers (oversubscribe)
  };

  // Spawns workers per `width`; values below 1 are clamped to 1.
  explicit ThreadPool(int threads, Width width = Width::kClampToHardware);

  // Drains remaining jobs, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Spawned workers (after any hardware clamp).
  int num_threads() const { return static_cast<int>(shards_.size()); }

  // Enqueues `fn` for execution. The returned future yields fn's result,
  // or rethrows what it threw. With one worker, jobs run in submission
  // (FIFO) order.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> Submit(Fn fn) {
    using R = std::invoke_result_t<Fn>;
    std::promise<R> promise;
    std::future<R> result = promise.get_future();
    MoveFunction job = Wrap<R>(std::move(fn), std::move(promise));
    PushJobs(&job, 1);
    return result;
  }

  // Enqueues a whole wave with one lock acquisition per worker shard
  // (instead of one per job). Futures are returned in submission order;
  // with one worker, jobs also run in that order.
  template <typename Fn>
  std::vector<std::future<std::invoke_result_t<Fn>>> SubmitBatch(
      std::vector<Fn> fns) {
    using R = std::invoke_result_t<Fn>;
    std::vector<std::future<R>> futures;
    futures.reserve(fns.size());
    std::vector<MoveFunction> jobs;
    jobs.reserve(fns.size());
    for (Fn& fn : fns) {
      std::promise<R> promise;
      futures.push_back(promise.get_future());
      jobs.push_back(Wrap<R>(std::move(fn), std::move(promise)));
    }
    PushJobs(jobs.data(), jobs.size());
    return futures;
  }

  // Enqueues pre-wrapped jobs (e.g. packaged tasks whose futures the
  // caller already holds) as one wave — one lock acquisition per worker
  // shard, like SubmitBatch, but without the promise plumbing.
  void SubmitPrepared(std::vector<MoveFunction> jobs) {
    PushJobs(jobs.data(), jobs.size());
  }

  // Blocks until every submitted job has finished (none queued, none
  // mid-run). Used by the engine to make sure orphaned jobs (discarded
  // task attempts) finish before the structures they reference are torn
  // down.
  void WaitIdle();

  // Number of hardware threads, never less than 1.
  static int HardwareConcurrency();

 private:
  // One queue per worker. Submissions land round-robin; a worker pops its
  // own deque front-first and steals the front of a neighbour's when dry.
  struct Shard {
    std::mutex mu;
    std::deque<MoveFunction> jobs;
  };

  template <typename R, typename Fn>
  static MoveFunction Wrap(Fn fn, std::promise<R> promise) {
    return MoveFunction(
        [fn = std::move(fn), promise = std::move(promise)]() mutable {
          try {
            if constexpr (std::is_void_v<R>) {
              fn();
              promise.set_value();
            } else {
              promise.set_value(fn());
            }
          } catch (...) {
            promise.set_exception(std::current_exception());
          }
        });
  }

  void PushJobs(MoveFunction* jobs, std::size_t n);
  bool TryPop(int self, MoveFunction& out);
  void WorkerLoop(int self);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<std::int64_t> queued_{0};    // jobs sitting in shards
  std::atomic<std::int64_t> inflight_{0};  // queued + currently running
  std::atomic<std::uint64_t> rr_{0};       // round-robin shard cursor
  std::atomic<bool> stopping_{false};
  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
};

}  // namespace gs
