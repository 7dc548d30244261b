// ThreadPool: the determinism-bearing properties the engine relies on —
// every submitted job runs exactly once with its result delivered through
// the future, exceptions propagate through Future::get(), FIFO submission
// order is preserved by a single worker, and shutdown drains the queue.
#include "common/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gs {
namespace {

TEST(ThreadPoolTest, ReturnsEachJobsResult) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool_neg(-3);
  EXPECT_EQ(pool_neg.num_threads(), 1);
  EXPECT_EQ(pool_neg.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, SingleWorkerRunsJobsInSubmissionOrder) {
  // With one worker the shared FIFO queue forces submission order; this is
  // the configuration the determinism argument reduces to.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughGet) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] { return std::string("fine"); });
  auto bad = pool.Submit([]() -> std::string {
    throw std::runtime_error("job failed");
  });
  EXPECT_EQ(ok.get(), "fine");
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "job failed");
          throw;
        }
      },
      std::runtime_error);
  // The worker survives a throwing job.
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilAllJobsFinish) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 32);
  // Idempotent when already idle.
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, DestructorDrainsTheQueue) {
  // Every submitted job must run before shutdown completes — the engine
  // relies on this for orphaned task attempts that still reference stage
  // structures.
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        done.fetch_add(1);
      });
    }
    // Destructor runs here with most of the queue still pending.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ManyThreadsProduceTheSameResultsAsOne) {
  // The engine's determinism claim at the pool level: the multiset of
  // results is a function of the jobs alone, not the worker count.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::future<long>> futures;
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.Submit([i] {
        long acc = 0;
        for (int k = 0; k <= i; ++k) acc += k * k;
        return acc;
      }));
    }
    std::vector<long> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ThreadPoolTest, SpawnsRequestedWorkers) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.num_threads(), 8);
  EXPECT_EQ(pool.Submit([] { return 3; }).get(), 3);
}

TEST(ThreadPoolTest, AcceptsMoveOnlyCallables) {
  // The engine's compute jobs capture a move-only TaskComputeSpec.
  ThreadPool pool(2);
  auto ptr = std::make_unique<int>(41);
  EXPECT_EQ(pool.Submit([p = std::move(ptr)] { return *p + 1; }).get(), 42);
}

TEST(ThreadPoolTest, WaitIdleReturnsAfterJobCapturesAreDestroyed) {
  // ~JobRunner's WaitIdle relies on this: once it returns, no job still
  // holds a capture that points into the runner's structures.
  ThreadPool pool(4);
  std::vector<std::weak_ptr<int>> watched;
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    auto held = std::make_shared<int>(i);
    watched.push_back(held);
    futures.push_back(pool.Submit([held = std::move(held)] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      return *held;
    }));
  }
  pool.WaitIdle();
  for (const std::weak_ptr<int>& w : watched) EXPECT_TRUE(w.expired());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  }
}

TEST(ThreadPoolTest, ConcurrentSubmittersRunEveryJobExactlyOnce) {
  // Many real workers, jobs submitted from several threads at once, jobs
  // of wildly uneven cost: every job must run exactly once. Run under
  // scripts/tsan_ctest.sh this is the pool's main data-race workout.
  ThreadPool pool(8);
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 500;
  std::atomic<int> runs{0};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<int>>> futures(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &futures, &runs, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        futures[static_cast<std::size_t>(s)].push_back(
            pool.Submit([&runs, i] {
              if (i % 16 == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
              }
              runs.fetch_add(1);
              return i;
            }));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  int sum = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) sum += f.get();
  }
  EXPECT_EQ(runs.load(), kSubmitters * kPerSubmitter);
  // Sum of 0..(kPerSubmitter-1) per submitter: every job ran once.
  EXPECT_EQ(sum, kSubmitters * (kPerSubmitter * (kPerSubmitter - 1)) / 2);
}

TEST(ThreadPoolTest, WaitIdleRacesWithConcurrentSubmission) {
  // WaitIdle returns only at a moment when every job submitted so far has
  // finished — even while another thread keeps feeding the pool. The
  // tsan preset checks the idle signalling against the sleeping-worker
  // wakeup path.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::thread feeder([&] {
    for (int i = 0; i < 200; ++i) {
      started.fetch_add(1);
      pool.Submit([&finished] { finished.fetch_add(1); });
      if (i % 32 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    pool.WaitIdle();
    // Jobs submitted after WaitIdle returned may still be running, but
    // the count observed before the wait must be covered by completions
    // at some point; sample monotonicity instead of exact equality.
    EXPECT_LE(finished.load(), started.load());
  }
  feeder.join();
  pool.WaitIdle();
  EXPECT_EQ(finished.load(), 200);
  EXPECT_EQ(started.load(), 200);
}

}  // namespace
}  // namespace gs
