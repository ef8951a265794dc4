// Edge tests for exec::AdmissionController (src/exec/admission.h): the
// shared semaphore behind multi-tenant partition budgets, request
// queue-depth shedding, and — since protocol v2 — deadline-bounded
// admission waits (AcquireFor).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "exec/admission.h"

namespace parparaw {
namespace exec {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

const std::function<bool()> kNeverStop = [] { return false; };

TEST(AdmissionTest, AcquireForTimesOutAtTheDeadline) {
  AdmissionController admission;
  ASSERT_EQ(admission.TryAcquire(1), 1);
  const auto start = steady_clock::now();
  const int got =
      admission.AcquireFor(1, kNeverStop, start + milliseconds(40));
  EXPECT_EQ(got, AdmissionController::kTimedOut);
  EXPECT_GE(steady_clock::now() - start, milliseconds(40));
  // The failed wait must not leak a slot.
  EXPECT_EQ(admission.inflight(), 1);
  admission.Release();
  EXPECT_EQ(admission.inflight(), 0);
}

TEST(AdmissionTest, AcquireForTakesTheSlotWhenFree) {
  AdmissionController admission;
  const int got = admission.AcquireFor(
      2, kNeverStop, steady_clock::now() + milliseconds(50));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(admission.inflight(), 1);
  admission.Release();
}

TEST(AdmissionTest, AcquireForAdmitsWhenReleasedBeforeDeadline) {
  AdmissionController admission;
  ASSERT_EQ(admission.TryAcquire(1), 1);
  std::thread releaser([&] {
    std::this_thread::sleep_for(milliseconds(20));
    admission.Release();
  });
  // Generous deadline: the release, not the timeout, must admit us.
  const int got = admission.AcquireFor(
      1, kNeverStop, steady_clock::now() + std::chrono::seconds(10));
  EXPECT_EQ(got, 1);
  releaser.join();
  admission.Release();
  EXPECT_EQ(admission.inflight(), 0);
}

TEST(AdmissionTest, StopFlagWinsOverDeadlineDuringTimedWait) {
  AdmissionController admission;
  ASSERT_EQ(admission.TryAcquire(1), 1);
  std::atomic<bool> stop{false};
  std::thread stopper([&] {
    std::this_thread::sleep_for(milliseconds(20));
    stop.store(true, std::memory_order_release);
    admission.Wake();
  });
  const auto start = steady_clock::now();
  const int got = admission.AcquireFor(
      1, [&] { return stop.load(std::memory_order_acquire); },
      start + std::chrono::seconds(10));
  EXPECT_EQ(got, AdmissionController::kStopped);
  // A stopped waiter returns well before the deadline and takes nothing.
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(admission.inflight(), 1);
  stopper.join();
  admission.Release();
}

TEST(AdmissionTest, StopAlreadySetReturnsImmediatelyEvenWithSlotsFree) {
  AdmissionController admission;
  const int got = admission.AcquireFor(
      4, [] { return true; }, steady_clock::now() + std::chrono::seconds(10));
  EXPECT_EQ(got, AdmissionController::kStopped);
  EXPECT_EQ(admission.inflight(), 0);
}

TEST(AdmissionTest, ReleaseOfSeveralSlotsWakesSeveralWaiters) {
  AdmissionController admission;
  ASSERT_EQ(admission.TryAcquire(3), 1);
  ASSERT_EQ(admission.TryAcquire(3), 2);
  ASSERT_EQ(admission.TryAcquire(3), 3);
  std::atomic<int> admitted{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      if (admission.AcquireFor(3, kNeverStop) > 0) {
        admitted.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(admitted.load(std::memory_order_acquire), 0);
  // One Release(3) must wake all three parked waiters, not one.
  admission.Release(3);
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(admitted.load(std::memory_order_acquire), 3);
  EXPECT_EQ(admission.inflight(), 3);
  admission.Release(3);
  EXPECT_EQ(admission.inflight(), 0);
}

TEST(AdmissionTest, HeterogeneousLimitsAdmitConservatively) {
  // Two tenants with different limits share one count: the tight tenant
  // sheds at 2 while the loose one still admits up to 4.
  AdmissionController admission;
  ASSERT_EQ(admission.TryAcquire(2), 1);
  ASSERT_EQ(admission.TryAcquire(2), 2);
  EXPECT_LT(admission.TryAcquire(2), 0);  // tight tenant: full
  ASSERT_EQ(admission.TryAcquire(4), 3);  // loose tenant: still room
  ASSERT_EQ(admission.TryAcquire(4), 4);
  EXPECT_LT(admission.TryAcquire(4), 0);
  // A deadline-bounded waiter under the tight limit times out while the
  // count sits above its limit even though it is below the loose one.
  admission.Release();  // count 3: loose tenant has room, tight does not
  const int got = admission.AcquireFor(
      2, kNeverStop, steady_clock::now() + milliseconds(30));
  EXPECT_EQ(got, AdmissionController::kTimedOut);
  admission.Release(3);
  EXPECT_EQ(admission.inflight(), 0);
}

TEST(AdmissionTest, InflightGaugeSurvivesAcquireTimeoutRaces) {
  // N threads hammer AcquireFor with tiny deadlines while M threads
  // acquire/release for real; afterwards the gauge must read exactly 0 —
  // no slot leaked by a timeout racing a release.
  AdmissionController admission;
  std::atomic<bool> go{true};
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&] {
      while (go.load(std::memory_order_acquire)) {
        if (admission.TryAcquire(2) > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          admission.Release();
        }
      }
    });
  }
  std::vector<std::thread> timers;
  std::atomic<int64_t> admitted{0};
  std::atomic<int64_t> timed_out{0};
  for (int t = 0; t < 4; ++t) {
    timers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const int got = admission.AcquireFor(
            2, kNeverStop, steady_clock::now() + std::chrono::microseconds(200));
        if (got > 0) {
          admitted.fetch_add(1, std::memory_order_acq_rel);
          admission.Release();
        } else {
          timed_out.fetch_add(1, std::memory_order_acq_rel);
        }
      }
    });
  }
  for (std::thread& timer : timers) timer.join();
  go.store(false, std::memory_order_release);
  for (std::thread& churner : churners) churner.join();
  EXPECT_EQ(admission.inflight(), 0)
      << "admitted=" << admitted.load() << " timed_out=" << timed_out.load();
}

}  // namespace
}  // namespace exec
}  // namespace parparaw
