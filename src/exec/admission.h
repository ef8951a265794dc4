#ifndef PARPARAW_EXEC_ADMISSION_H_
#define PARPARAW_EXEC_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>

namespace parparaw {
namespace exec {

/// \brief Counting admission controller shared by concurrent ingests.
///
/// Tracks how many memory-bearing units (partitions resident in the
/// pipeline, requests in flight on the network daemon) exist at once and
/// blocks producers once a limit is reached. Every ingest on one
/// PipelineExecutor draws from its controller, so concurrent ingests —
/// every request of the serving daemon — share one global memory budget:
/// whoever acquires counts against everyone's limit, which is exactly
/// the multi-tenant backpressure the serving layer needs.
///
/// The limit is a parameter of Acquire rather than controller state
/// because each ingest derives its own limit from its options (and they
/// must all still count against the same inflight total); heterogeneous
/// limits resolve conservatively — a waiter admits itself only below its
/// own limit.
class AdmissionController {
 public:
  AdmissionController() = default;
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Blocks until the inflight count is below `limit` or `stop()` returns
  /// true, then takes one slot. Returns the inflight count *after* the
  /// acquisition (>= 1), or -1 when stopped. `stop` is evaluated under
  /// the controller mutex; keep it cheap (an atomic load).
  int Acquire(int limit, const std::function<bool()>& stop);

  /// Takes a slot only when one is free under `limit` — the queue-depth
  /// shedding primitive (the daemon answers BUSY instead of waiting).
  /// Returns the post-acquisition count, or -1 when saturated.
  int TryAcquire(int limit);

  /// Deadline-aware Acquire: waits until a slot frees under `limit`,
  /// `stop()` turns true, or `deadline` passes — the primitive behind
  /// request deadlines (a request with time left waits for admission
  /// instead of being shed, but never waits past its budget). Returns
  /// the post-acquisition count, kStopped, or kTimedOut. The stop flag
  /// wins over the deadline when both hold at wakeup, matching
  /// Acquire's contract that a stopped waiter never takes a slot.
  static constexpr int kStopped = -1;
  static constexpr int kTimedOut = -2;
  int AcquireFor(int limit, const std::function<bool()>& stop,
                 std::chrono::steady_clock::time_point deadline);

  /// Returns `n` slots and wakes all waiters. Returns the new count.
  int Release(int n = 1);

  /// Wakes every waiter without changing the count. Taking the mutex
  /// first orders a caller's stop-flag store before the wakeup, so an
  /// Acquire cannot miss it (the PipelineRun::Abort idiom).
  void Wake();

  /// Current inflight count (for gauges and the slot-leak assertions in
  /// tests/serve_concurrency_test.cc).
  int inflight() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
};

}  // namespace exec
}  // namespace parparaw

#endif  // PARPARAW_EXEC_ADMISSION_H_
