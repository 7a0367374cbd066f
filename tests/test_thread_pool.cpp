// ThreadPool hardening tests: exception propagation through parallel_for,
// zero-task and fewer-tasks-than-threads edge cases, destruction with
// queued work, the caller-participating parallel_for of the shared executor
// (nesting while every worker is blocked, tasks waiting on lower indices,
// the max_parallel cap, exception order, helper CPU accounting), and the
// stage region.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/parallel.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare {
namespace {

TEST(ThreadPool, ParallelForPropagatesExceptionAfterAllTasksRan) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // Every task references `ran` (caller stack state), so parallel_for must
  // not return — not even by throwing — until all of them have finished.
  EXPECT_THROW(
      pool.parallel_for(
          64,
          [&ran](std::size_t i) {
            ran.fetch_add(1);
            if (i % 7 == 3) throw std::runtime_error("bad index");
          },
          5),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ParallelForAllTasksThrowingStillTerminates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(
          16, [](std::size_t) { throw std::out_of_range("x"); }, 4),
      std::out_of_range);
}

TEST(ThreadPool, ParallelForZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(0, [&touched](std::size_t) { touched = true; }, 5);
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForFewerTasksThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.parallel_for(3, [&ran](std::size_t) { ran.fetch_add(1); }, 9);
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, ParallelForManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(500, [&sum](std::size_t i) { sum.fetch_add(i + 1); }, 3);
  EXPECT_EQ(sum.load(), 500u * 501u / 2u);
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ran.fetch_add(1);
      });
    }
    // Destructor runs with most tasks still queued behind the single worker.
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ZeroRequestedThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&ran](std::size_t) { ran.fetch_add(1); }, 2);
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, OversubscriptionClampIsCountedOnDiagChannel) {
  // parallel_phase_budget requested from inside a pool worker must clamp to
  // 1 and report through the structured diag channel — asserted via the
  // telemetry counter, not by scraping stderr (the print is rate-limited).
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "diag counters require NETSHARE_TELEMETRY=ON";
  }
  const std::uint64_t before =
      telemetry::diag_count("core.parallel.oversubscribed");

  ThreadPool pool(2);
  std::atomic<std::size_t> clamped_budget{0};
  std::latch done(1);
  pool.submit([&] {
    clamped_budget.store(core::parallel_phase_budget(4));
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(clamped_budget.load(), 1u);
  EXPECT_EQ(telemetry::diag_count("core.parallel.oversubscribed"), before + 1);

  // Top-level call (not on a worker): no clamp, no new diag occurrence.
  const std::size_t top = core::parallel_phase_budget(2);
  EXPECT_GE(top, 1u);
  EXPECT_EQ(telemetry::diag_count("core.parallel.oversubscribed"), before + 1);
}

// Parks every worker of `pool` inside a task until release(), which returns
// once every parked task has left.
struct BlockedWorkers {
  explicit BlockedWorkers(ThreadPool& pool) {
    for (std::size_t w = 0; w < pool.size(); ++w) {
      pool.submit([this] {
        std::unique_lock<std::mutex> lock(mu);
        ++parked;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
        --parked;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == pool.size(); });
  }
  void release() {
    std::unique_lock<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
    cv.wait(lock, [this] { return parked == 0; });
  }
  std::mutex mu;
  std::condition_variable cv;
  std::size_t parked = 0;
  bool released = false;
};

TEST(ThreadPool, TaskWaitingOnALowerIndexCompletesAtEveryWidth) {
  // Each index blocks until the one below it has finished (the DoppelGANger
  // iteration graph's dependency rule). Indices are claimed in ascending
  // order, so the awaited index is always running somewhere: the loop must
  // finish at every width, with the workers free or all parked elsewhere.
  ThreadPool pool(3);
  for (const bool park : {false, true}) {
    for (std::size_t width = 1; width <= 4; ++width) {
      std::optional<BlockedWorkers> blocked;
      if (park) blocked.emplace(pool);
      std::mutex mu;
      std::condition_variable cv;
      std::vector<bool> done(6, false);
      pool.parallel_for(
          done.size(),
          [&](std::size_t i) {
            std::unique_lock<std::mutex> lock(mu);
            if (i > 0) cv.wait(lock, [&] { return done[i - 1]; });
            done[i] = true;
            cv.notify_all();
          },
          width);
      EXPECT_TRUE(std::all_of(done.begin(), done.end(), [](bool d) { return d; }))
          << "width " << width << " parked " << park;
      if (blocked) blocked->release();
    }
  }
}

TEST(ThreadPool, HelperCpuIsCreditedToTheCaller) {
  // Work a helper runs for this thread's loop shows up in the caller's
  // helper_cpu_seconds(); the caller's own share does not (it is already in
  // the caller's thread CPU time).
  ThreadPool pool(2);
  const auto spin = [] {
    const double t0 = thread_cpu_seconds();
    while (thread_cpu_seconds() - t0 < 0.02) {
    }
  };
  const double serial0 = ThreadPool::helper_cpu_seconds();
  pool.parallel_for(3, [&](std::size_t) { spin(); }, 1);
  EXPECT_EQ(ThreadPool::helper_cpu_seconds(), serial0);

  const double before = ThreadPool::helper_cpu_seconds();
  const double own0 = thread_cpu_seconds();
  pool.parallel_for(6, [&](std::size_t) { spin(); }, 3);
  const double helpers = ThreadPool::helper_cpu_seconds() - before;
  const double own = thread_cpu_seconds() - own0;
  EXPECT_GE(own + helpers, 6 * 0.02 * 0.9);
}

TEST(ThreadPool, RegionRunsEveryIndexOfEveryStageOnce) {
  ThreadPool pool(3);
  for (const std::size_t width : {1u, 2u, 4u, 9u}) {
    ThreadPool::Region region(pool, width);
    // A stage reads what the one before it wrote: the stages are ordered.
    std::vector<int> cells(37, 0);
    for (int stage = 1; stage <= 50; ++stage) {
      const std::size_t n = 1 + static_cast<std::size_t>(stage) % cells.size();
      std::vector<std::atomic<int>> runs(n);
      region.run(n, [&](std::size_t i) {
        runs[i].fetch_add(1);
        if (stage > 1 && i < cells.size()) {
          EXPECT_EQ(cells[i] % 1000, stage - 1) << "width " << width;
        }
        cells[i] = stage + 1000 * (cells[i] / 1000 + 1);
      });
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(runs[i].load(), 1);
      for (std::size_t i = n; i < cells.size(); ++i) {
        cells[i] = stage + 1000 * (cells[i] / 1000);
      }
    }
  }
}

TEST(ThreadPool, RegionCompletesWithEveryWorkerBusyAndRethrows) {
  ThreadPool pool(2);
  BlockedWorkers blocked(pool);
  {
    // No helper can join: the caller runs every index itself.
    ThreadPool::Region region(pool, 3);
    std::atomic<int> total{0};
    for (int stage = 0; stage < 5; ++stage) {
      region.run(4, [&](std::size_t) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 20);
    EXPECT_THROW(region.run(3,
                            [](std::size_t i) {
                              if (i == 1) throw std::runtime_error("stage");
                            }),
                 std::runtime_error);
    // The region stays usable after a throwing stage.
    region.run(2, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 22);
  }
  blocked.release();
}

TEST(ThreadPool, RegionCreditsHelperCpuToTheCaller) {
  ThreadPool pool(3);
  const auto spin = [] {
    const double t0 = thread_cpu_seconds();
    while (thread_cpu_seconds() - t0 < 0.01) {
    }
  };
  const double before = ThreadPool::helper_cpu_seconds();
  const double own0 = thread_cpu_seconds();
  {
    ThreadPool::Region region(pool, 4);
    for (int stage = 0; stage < 4; ++stage) {
      region.run(8, [&](std::size_t) { spin(); });
    }
    EXPECT_TRUE(ThreadPool::on_worker_thread());
  }
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  const double helpers = ThreadPool::helper_cpu_seconds() - before;
  const double own = thread_cpu_seconds() - own0;
  EXPECT_GE(own + helpers, 32 * 0.01 * 0.9);
}

TEST(ThreadPool, SharedExecutorLeavesACoreForTheCaller) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(ThreadPool::shared().size(), hw > 1 ? hw - 1 : 1u);
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, NestedCallerParallelForFinishesWhileEveryWorkerIsBlocked) {
  ThreadPool pool(2);
  BlockedWorkers blocked(pool);
  // No worker can pick up a helper, so the caller must run every index of
  // both loops itself instead of waiting on queued helpers.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::atomic<int> elsewhere{0};
  pool.parallel_for(
      4,
      [&](std::size_t) {
        pool.parallel_for(
            8,
            [&](std::size_t) {
              if (std::this_thread::get_id() != caller) ++elsewhere;
              ++ran;
            },
            3);
      },
      3);
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(elsewhere.load(), 0);
  blocked.release();  // the stale helpers then find nothing left to run
}

TEST(ThreadPool, CallerParallelForNeverExceedsMaxParallel) {
  ThreadPool pool(4);
  for (std::size_t cap : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    std::atomic<std::size_t> active{0};
    std::atomic<std::size_t> peak{0};
    std::atomic<int> ran{0};
    pool.parallel_for(
        40,
        [&](std::size_t) {
          const std::size_t now = ++active;
          std::size_t seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          --active;
          ++ran;
        },
        cap);
    EXPECT_EQ(ran.load(), 40);
    EXPECT_LE(peak.load(), cap) << "max_parallel " << cap;
  }
}

TEST(ThreadPool, CallerParallelForRethrowsFirstExceptionAfterAllTasksRan) {
  ThreadPool pool(3);
  // Serial claim order: index 3 fails first, and indices past it still run.
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(
        10,
        [&](std::size_t i) {
          ++ran;
          if (i == 3 || i == 5) throw std::runtime_error(std::to_string(i));
        },
        1);
    ADD_FAILURE() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_EQ(ran.load(), 10);

  // Parallel: every task has finished by the time the exception surfaces.
  ran = 0;
  EXPECT_THROW(pool.parallel_for(
                   64,
                   [&](std::size_t i) {
                     std::this_thread::sleep_for(std::chrono::microseconds(50));
                     ++ran;
                     if (i % 7 == 3) throw std::out_of_range("bad index");
                   },
                   4),
               std::out_of_range);
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SharedExecutorTasksCountAsPoolWorkers) {
  // The caller runs indices beside the helpers, so it must count as a
  // worker while it does: the oversubscription clamp then applies to every
  // task, exactly as when all of them ran on dedicated pool threads.
  std::vector<std::size_t> budgets(6, 0);
  core::run_parallel_tasks(3, budgets.size(), [&](std::size_t i) {
    budgets[i] = core::parallel_phase_budget(4);
  });
  for (std::size_t b : budgets) EXPECT_EQ(b, 1u);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

}  // namespace
}  // namespace netshare
