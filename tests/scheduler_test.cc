#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "parallel/scan.h"
#include "parallel/thread_pool.h"

namespace parparaw {
namespace {

// --- forward-progress regressions -----------------------------------------
//
// The static stage scheduler had two ways to stop making progress:
//
//  1. ParallelFor blocked the calling thread on a condition variable
//     without ever executing queued slices itself, so a ParallelFor
//     nested inside a pool task deadlocked once every worker was the
//     caller of an inner ParallelFor (two workers were enough).
//  2. The decoupled look-back scan assigned tiles to tasks statically, so a
//     tile's look-back could spin on a predecessor that was still queued
//     behind unrelated work — with no runnable owner, a livelock (two
//     concurrent scans on a busy shared pool were enough).
//
// The work-stealing scheduler fixes both with caller-runs (a waiting
// thread executes tasks instead of parking) and dynamic tile claiming
// (spins only ever wait on tiles a *running* task owns). These tests are
// the regressions; scripts/check.sh scaling runs them under TSan.

TEST(SchedulerForwardProgressTest, NestedParallelForOnOneThreadPool) {
  // One worker, and it is occupied: the outer task runs on the worker and
  // the inner ParallelFor can only finish because the worker executes the
  // inner morsels itself (caller-runs) instead of parking.
  ThreadPool pool(1);
  std::atomic<int64_t> sum{0};
  std::atomic<bool> done{false};
  TaskGroup group(&pool);
  group.Run([&] {
    ParallelForEach(&pool, 0, 1000,
                    [&](int64_t i) { sum.fetch_add(i); });
    done.store(true);
  });
  group.Wait();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(sum.load(), 499500);
}

TEST(SchedulerForwardProgressTest, NestedParallelForOnTwoThreadPool) {
  // The provable deadlock of the old scheduler: both workers run an outer
  // slice whose body is an inner ParallelFor; with a parked caller the
  // inner slices sit in the queue behind the blocked workers forever.
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  const Status st = ParallelForEach(&pool, 0, 8, [&](int64_t) {
    ParallelForEach(&pool, 0, 500, [&](int64_t i) { sum.fetch_add(i); });
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(sum.load(), 8 * (499 * 500 / 2));
}

TEST(SchedulerForwardProgressTest, DeeplyNestedParallelRegions) {
  ThreadPool pool(2);
  std::atomic<int64_t> leaves{0};
  ParallelForEach(&pool, 0, 3, [&](int64_t) {
    ParallelForEach(&pool, 0, 3, [&](int64_t) {
      ParallelForEach(&pool, 0, 3, [&](int64_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 27);
}

TEST(SchedulerForwardProgressTest, ConcurrentScansOnOccupiedSharedPool) {
  // Livelock regression: both workers of the shared pool are pinned by
  // long-running tasks (standing in for other requests' work), then two
  // decoupled-lookback scans run concurrently from external threads. The
  // scans must complete through caller-runs + dynamic tile claiming alone
  // — under the static assignment their look-backs spun on queued tiles
  // no runnable task owned.
  ThreadPool pool(2);
  std::atomic<int> blockers_running{0};
  std::atomic<bool> release{false};
  TaskGroup blockers(&pool);
  for (int i = 0; i < 2; ++i) {
    blockers.Run([&] {
      blockers_running.fetch_add(1);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (blockers_running.load() < 2) std::this_thread::yield();

  const int64_t n = 200000;  // >> kMinTile so the scan actually tiles
  std::vector<int64_t> in(n, 1);
  const auto run_scan = [&] {
    std::vector<int64_t> out(n);
    InclusiveScan(&pool, in.data(), out.data(), n,
                  [](int64_t a, int64_t b) { return a + b; }, int64_t{0});
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], i + 1) << "at " << i;
    }
  };
  std::thread first(run_scan);
  std::thread second(run_scan);
  first.join();
  second.join();
  release.store(true, std::memory_order_release);
  blockers.Wait();
}

// --- task-group scoping ----------------------------------------------------

TEST(TaskGroupTest, WaitCoversTasksChainedFromInsideTasks) {
  // The morsel executor chains scan -> sort -> convert by calling
  // group.Run from within a running group task; Wait must cover the whole
  // chain, not just the tasks submitted before it was called.
  ThreadPool pool(2);
  std::atomic<int> depth_reached{0};
  TaskGroup group(&pool);
  std::function<void(int)> chain = [&](int depth) {
    depth_reached.fetch_add(1);
    if (depth < 100) group.Run([&chain, depth] { chain(depth + 1); });
  };
  group.Run([&chain] { chain(1); });
  group.Wait();
  EXPECT_EQ(depth_reached.load(), 100);
}

TEST(TaskGroupTest, GroupsAreIndependent) {
  // Waiting on one group must not wait for (or be woken spuriously by)
  // another group's tasks — this is what lets concurrent parparawd
  // requests share one pool without convoying on each other.
  ThreadPool pool(2);
  std::atomic<bool> slow_started{false};
  std::atomic<bool> slow_done{false};
  std::atomic<bool> release_slow{false};
  TaskGroup slow(&pool);
  slow.Run([&] {
    slow_started.store(true);
    while (!release_slow.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    slow_done.store(true);
  });
  // Make sure a worker (not fast.Wait's caller-runs) owns the spinning
  // task before the fast group floods the queues.
  while (!slow_started.load()) std::this_thread::yield();
  TaskGroup fast(&pool);
  std::atomic<int> fast_count{0};
  for (int i = 0; i < 64; ++i) {
    fast.Run([&] { fast_count.fetch_add(1); });
  }
  fast.Wait();  // must return while `slow` still spins
  EXPECT_EQ(fast_count.load(), 64);
  EXPECT_FALSE(slow_done.load());
  release_slow.store(true, std::memory_order_release);
  slow.Wait();
  EXPECT_TRUE(slow_done.load());
}

TEST(TaskGroupTest, EmptyGroupWaitReturnsImmediately) {
  ThreadPool pool(1);
  TaskGroup group(&pool);
  group.Wait();
  group.Wait();  // idempotent
}

// --- work-stealing behaviour ----------------------------------------------

TEST(SchedulerTest, SubmitFromOutsideAndInsideWorkers) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 50; ++i) {
    // External runs land in the injection deque; each task then runs
    // once more from a worker thread (local shard, LIFO side).
    group.Run([&count, &group] {
      count.fetch_add(1);
      group.Run([&count] { count.fetch_add(1); });
    });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(SchedulerTest, UnevenMorselsRebalanceAcrossWorkers) {
  // One morsel is 100x the others; stealing must let the other workers
  // drain the small ones meanwhile. (Correctness here, speedup in
  // bench_scalability.)
  ThreadPool pool(4);
  std::atomic<int64_t> work_done{0};
  ParallelForEach(&pool, 0, 64, [&](int64_t i) {
    volatile int64_t sink = 0;
    const int64_t reps = (i == 0) ? 2000000 : 20000;
    for (int64_t r = 0; r < reps; ++r) sink = sink + r;
    work_done.fetch_add(1);
  });
  EXPECT_EQ(work_done.load(), 64);
}

TEST(SchedulerStressTest, ManyConcurrentGroupsOnSharedPool) {
  // Executor-shaped stress: several external threads (concurrent ingests)
  // each run nested parallel regions against one pool. Every region must
  // complete with exact coverage — no lost or double-run morsels under
  // heavy stealing. TSan-clean by construction (scripts/check.sh scaling).
  ThreadPool pool(4);
  constexpr int kThreads = 6;
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  std::vector<int64_t> sums(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int64_t local = 0;
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<int64_t> sum{0};
        ParallelForEach(&pool, 0, 256, [&](int64_t i) {
          if (i % 64 == 0) {
            ParallelForEach(&pool, 0, 32,
                            [&](int64_t j) { sum.fetch_add(j); });
          }
          sum.fetch_add(i);
        });
        local += sum.load();
      }
      sums[t] = local;
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t per_round =
      (255 * 256 / 2) + 4 * (31 * 32 / 2);  // outer + 4 nested regions
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[t], per_round * kRounds) << "thread " << t;
  }
}

TEST(SchedulerStressTest, ScansAndSortsInterleaveOnOnePool) {
  // The primitives the parse pipeline composes — prefix scans from many
  // threads at once — racing on a small shared pool.
  ThreadPool pool(2);
  constexpr int kThreads = 4;
  const int64_t n = 100000;
  std::vector<int64_t> in(n, 1);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        std::vector<int64_t> out(n);
        InclusiveScan(&pool, in.data(), out.data(), n,
                      [](int64_t a, int64_t b) { return a + b; },
                      int64_t{0});
        if (out[n - 1] != n) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace parparaw
