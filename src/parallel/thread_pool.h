#ifndef PARPARAW_PARALLEL_THREAD_POOL_H_
#define PARPARAW_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace parparaw {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class TaskGroup;

/// \brief Fixed-size morsel-driven work-stealing pool — the CPU
/// substrate's answer to the paper's "thousands of cores" claim (§1/§6).
///
/// The GPU launches one lightweight thread per chunk and the hardware
/// scheduler keeps every SM busy; here the same effect comes from
/// morsel-driven scheduling in the style of Leis et al. (HyPer): work is
/// cut into small morsels (chunk ranges, scan tiles, pipeline-stage
/// partitions) that any worker may execute, so an idle core always finds
/// work no matter which parallel region produced it. The pool is the only
/// place the library creates compute threads, and a TaskGroup is the only
/// way to hand it work.
///
/// Design:
///  * Per-worker deques, each guarded by its own mutex (lock-sharded, not
///    a single global queue): the owner pushes and pops at the back
///    (LIFO — hot caches, depth-first descent into nested regions) while
///    thieves steal from the front (FIFO — oldest, largest-granularity
///    work first). Contention on any one lock is between one owner and
///    occasional thieves, never all submitters.
///  * An injection deque for threads that are not pool workers (the
///    pipeline executor's calling thread, serving-daemon connection
///    threads).
///  * Caller-runs semantics: a thread waiting on a TaskGroup executes
///    morsels instead of blocking, so nested parallel regions make
///    forward progress even on a 1-worker pool and a parallel region
///    issued from inside a pool task can never deadlock the pool.
///  * Task groups: every morsel belongs to a group; groups scope waiting
///    (ParallelFor waits only for its own slices) so unrelated work —
///    two concurrent parparawd requests, a scan racing a sort — shares
///    the pool without false dependencies.
///
/// Forward-progress guarantee: a waiter blocks only when no task is
/// queued anywhere (all remaining work is *running* on other threads);
/// every submission wakes a sleeper, and group completion wakes all
/// waiters. Tasks themselves never block except in nested Wait(), which
/// obeys the same rule — by induction on nesting depth the system always
/// progresses.
///
/// Observability: `sched.submits` / `sched.runs` / `sched.steals` /
/// `sched.waits` counters and the `sched.queue_depth` gauge (global
/// registry, enabled-gated). Failpoints: `sched.submit` (fires = the
/// task runs inline on the submitting thread instead of being enqueued)
/// and `sched.steal` (fires = one steal attempt is skipped). Both are
/// pure schedule perturbations for the chaos suite — they must never
/// change any parse output, only the interleaving.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers. `num_threads <= 0` uses
  /// std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(int num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide default pool, created on first use and intentionally
  /// never destroyed (Google style: function-local static reference).
  static ThreadPool* Default();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  /// One worker's shard: a deque with its own lock. Owner pushes/pops at
  /// the back, thieves pop at the front.
  struct Shard {
    std::mutex mu;
    std::deque<Task> deque;
  };

  void Enqueue(Task task);
  /// Runs queued tasks until `done()` returns true, blocking only while
  /// no task is queued anywhere. The building block behind
  /// TaskGroup::Wait.
  void HelpWhile(const std::function<bool()>& done);
  void WorkerLoop(int worker_index);
  /// Pops one task (local LIFO, then injection, then steal) and runs it.
  /// Returns false when nothing was queued anywhere.
  bool RunOneTask(int worker_index);
  bool PopLocal(int worker_index, Task* task);
  bool PopInjected(Task* task);
  bool StealTask(int worker_index, Task* task);
  void Execute(Task task);

  // Shared instruments (global registry, enabled-gated).
  obs::Counter* submits_;
  obs::Counter* runs_;
  obs::Counter* steals_;
  obs::Counter* waits_;
  obs::Gauge* queue_depth_;

  std::vector<std::unique_ptr<Shard>> shards_;
  Shard injected_;

  /// Tasks sitting in some deque (not yet picked up). The sleep predicate:
  /// a waiter may block only while this is zero.
  std::atomic<int64_t> queued_{0};

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> shutdown_{false};

  std::vector<std::thread> workers_;
};

/// \brief A scope of morsels that one parallel region waits on.
///
/// Usage:
///   TaskGroup group(pool);
///   for (...) group.Run([=] { ... });
///   group.Wait();  // caller executes morsels until the group drains
///
/// Wait() may execute tasks from *other* groups while this group's
/// remaining tasks run elsewhere — that only delays the waiter, never
/// deadlocks it, because every task eventually runs on some thread and
/// tasks block only in nested Waits with the same property.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// Waits for stragglers: a group must never outlive its tasks.
  ~TaskGroup() { Wait(); }

  /// Submits `fn` as a morsel of this group: from a worker of the pool it
  /// goes to that worker's own deque, from any other thread to the
  /// injection deque. May be called from inside another of the group's
  /// tasks (the count can never reach zero while the submitting task is
  /// still running).
  void Run(std::function<void()> fn);

  /// Caller-runs until every task submitted to this group has finished.
  void Wait();

 private:
  friend class ThreadPool;

  void OnTaskDone();

  ThreadPool* pool_;
  std::atomic<int64_t> pending_{0};
};

/// \brief Runs `body(range_begin, range_end)` over a partition of
/// [begin, end) across the pool's workers and blocks until done.
///
/// The range is cut into contiguous morsels (a small multiple of the
/// worker count, so stealing can rebalance uneven slices) and submitted
/// as one task group; the calling thread executes morsels itself instead
/// of blocking (caller-runs), so a nested ParallelFor issued from inside
/// a pool task — even on a 1-worker pool — always makes forward
/// progress. `body` must be safe to invoke concurrently on disjoint
/// ranges; which thread runs which morsel is unspecified and must not
/// affect the result. A null `pool` degrades to a sequential loop.
///
/// Returns non-OK when the `pool.task` failpoint fires for a morsel.
/// Every morsel body still runs — faults never skip work, so callers
/// that ignore the Status (pure computations whose results feed later
/// steps) stay bit-identical to a fault-free run; callers that check it
/// observe the injected error after the group drains. There is exactly
/// one failpoint check per morsel, before the morsel body.
Status ParallelFor(ThreadPool* pool, int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& body);

/// \brief Like ParallelFor but invokes `body(i)` per index. Convenience for
/// per-chunk kernels. Same failpoint/Status contract as ParallelFor.
Status ParallelForEach(ThreadPool* pool, int64_t begin, int64_t end,
                       const std::function<void(int64_t)>& body);

}  // namespace parparaw

#endif  // PARPARAW_PARALLEL_THREAD_POOL_H_
