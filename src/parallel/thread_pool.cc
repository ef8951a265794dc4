#include "parallel/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "robust/failpoint.h"

namespace parparaw {

namespace {

inline bool SchedObsEnabled() {
  return obs::MetricsRegistry::Global().enabled();
}

/// Worker identity of the current thread: which pool it belongs to
/// (nullptr for external threads) and its shard index there. Saved per
/// thread, checked per pool — a worker of pool A helping on pool B is an
/// external thread from B's point of view.
struct WorkerTls {
  ThreadPool* pool = nullptr;
  int index = -1;
};

thread_local WorkerTls tls_worker;

/// Cheap per-thread xorshift for steal-victim selection. Determinism is
/// not required here (stealing only reorders independent morsels); the
/// seed just needs to differ between threads.
inline uint64_t NextRand() {
  thread_local uint64_t state =
      0x9e3779b97f4a7c15ull ^
      (reinterpret_cast<uintptr_t>(&state) * 0xbf58476d1ce4e5b9ull);
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  submits_ = registry.GetCounter("sched.submits");
  runs_ = registry.GetCounter("sched.runs");
  steals_ = registry.GetCounter("sched.steals");
  waits_ = registry.GetCounter("sched.waits");
  queue_depth_ = registry.GetGauge("sched.queue_depth");
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  shards_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true, std::memory_order_release);
  {
    // Empty critical section: orders the shutdown store before the wakeup
    // so a worker cannot re-check the predicate, miss it, and sleep.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool* ThreadPool::Default() {
  static ThreadPool& pool = *new ThreadPool();
  return &pool;
}

void ThreadPool::Enqueue(Task task) {
  if (SchedObsEnabled()) submits_->Increment();
  // The sched.submit failpoint degrades the submission to inline
  // execution on the calling thread — a pure schedule perturbation the
  // chaos suite uses to prove output never depends on where a morsel ran.
  if (!robust::CheckFailpoint("sched.submit").ok()) {
    Execute(std::move(task));
    return;
  }
  // Workers push to their own shard (LIFO locality, stolen FIFO from the
  // front); external threads go through the injection deque.
  Shard& shard =
      (tls_worker.pool == this) ? *shards_[tls_worker.index] : injected_;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.deque.push_back(std::move(task));
  }
  const int64_t queued = queued_.fetch_add(1, std::memory_order_release) + 1;
  if (SchedObsEnabled()) queue_depth_->Set(queued);
  {
    // Empty critical section: pairs with the sleep predicate's re-check of
    // queued_ under sleep_mu_, so a sleeper cannot miss this task.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::PopLocal(int worker_index, Task* task) {
  Shard& shard = *shards_[worker_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.deque.empty()) return false;
  *task = std::move(shard.deque.back());
  shard.deque.pop_back();
  return true;
}

bool ThreadPool::PopInjected(Task* task) {
  std::lock_guard<std::mutex> lock(injected_.mu);
  if (injected_.deque.empty()) return false;
  *task = std::move(injected_.deque.front());
  injected_.deque.pop_front();
  return true;
}

bool ThreadPool::StealTask(int worker_index, Task* task) {
  const int n = static_cast<int>(shards_.size());
  const int start = static_cast<int>(NextRand() % static_cast<uint64_t>(n));
  for (int i = 0; i < n; ++i) {
    const int victim = (start + i) % n;
    if (victim == worker_index) continue;
    // The sched.steal failpoint skips one steal attempt — like the
    // submit perturbation, it may only change the interleaving.
    if (!robust::CheckFailpoint("sched.steal").ok()) continue;
    Shard& shard = *shards_[victim];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.deque.empty()) continue;
    *task = std::move(shard.deque.front());
    shard.deque.pop_front();
    if (SchedObsEnabled()) steals_->Increment();
    return true;
  }
  return false;
}

bool ThreadPool::RunOneTask(int worker_index) {
  Task task;
  bool found = false;
  if (worker_index >= 0) {
    found = PopLocal(worker_index, &task) || PopInjected(&task) ||
            StealTask(worker_index, &task);
  } else {
    found = PopInjected(&task) || StealTask(-1, &task);
  }
  if (!found) return false;
  const int64_t queued = queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (SchedObsEnabled()) queue_depth_->Set(queued);
  Execute(std::move(task));
  return true;
}

void ThreadPool::Execute(Task task) {
  if (SchedObsEnabled()) runs_->Increment();
  task.fn();
  // Destroy the closure before publishing completion: a waiter may tear
  // down state the closure captures the moment the group drains.
  task.fn = nullptr;
  task.group->OnTaskDone();
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_worker.pool = this;
  tls_worker.index = worker_index;
  while (true) {
    if (RunOneTask(worker_index)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (queued_.load(std::memory_order_acquire) > 0) continue;
    if (shutdown_.load(std::memory_order_acquire)) break;
    if (SchedObsEnabled()) waits_->Increment();
    sleep_cv_.wait(lock, [this] {
      return queued_.load(std::memory_order_acquire) > 0 ||
             shutdown_.load(std::memory_order_acquire);
    });
  }
  tls_worker.pool = nullptr;
  tls_worker.index = -1;
}

void ThreadPool::HelpWhile(const std::function<bool()>& done) {
  const int worker_index = tls_worker.pool == this ? tls_worker.index : -1;
  while (true) {
    if (done()) return;
    if (RunOneTask(worker_index)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (done()) return;
    // Re-check under the lock: a submitter increments queued_ before
    // taking sleep_mu_, so either we see the task here or the notify
    // lands after we wait.
    if (queued_.load(std::memory_order_acquire) > 0) continue;
    if (SchedObsEnabled()) waits_->Increment();
    sleep_cv_.wait(lock, [this, &done] {
      return queued_.load(std::memory_order_acquire) > 0 || done();
    });
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  pool_->Enqueue(ThreadPool::Task{std::move(fn), this});
}

void TaskGroup::Wait() {
  if (pending_.load(std::memory_order_acquire) == 0) return;
  pool_->HelpWhile([this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void TaskGroup::OnTaskDone() {
  // Copy the pool pointer out first: the waiter may destroy this group
  // the instant pending_ reaches zero, so no group member may be touched
  // after the decrement. The pool outlives every group.
  ThreadPool* pool = pool_;
  // acq_rel + the waiter's acquire load: everything the task wrote
  // happens-before the waiter observing pending_ == 0.
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> lock(pool->sleep_mu_);
    }
    pool->sleep_cv_.notify_all();
  }
}

Status ParallelFor(ThreadPool* pool, int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& body) {
  if (begin >= end) return Status::OK();
  const int64_t count = end - begin;
  // Caller-runs makes the calling thread a worker too, so the effective
  // parallelism is workers + 1. Two morsels per runner lets the stealer
  // rebalance uneven bodies without shredding cache locality.
  const int64_t runners =
      pool == nullptr ? 1 : static_cast<int64_t>(pool->num_threads()) + 1;
  const int64_t num_morsels = std::min<int64_t>(count, runners * 2);
  if (pool == nullptr || num_morsels <= 1) {
    const Status injected = robust::CheckFailpoint("pool.task");
    // The morsel body runs even when the failpoint fires: faults must
    // never change what was computed, only whether an error is reported,
    // so callers that discard the Status stay bit-identical to fault-free
    // runs.
    body(begin, end);
    return injected;
  }
  // One contiguous morsel per slot; remainder spread over the first ones.
  const int64_t base = count / num_morsels;
  const int64_t extra = count % num_morsels;
  std::mutex error_mu;
  Status first_error;
  TaskGroup group(pool);
  int64_t morsel_begin = begin;
  for (int64_t m = 0; m < num_morsels; ++m) {
    const int64_t morsel_size = base + (m < extra ? 1 : 0);
    const int64_t morsel_end = morsel_begin + morsel_size;
    group.Run([&, morsel_begin, morsel_end] {
      const Status injected = robust::CheckFailpoint("pool.task");
      body(morsel_begin, morsel_end);
      if (!injected.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = injected;
      }
    });
    morsel_begin = morsel_end;
  }
  // Caller-runs: this thread executes morsels (its own first, then any
  // queued work) until the group drains — it never parks while work is
  // runnable, which is what makes nested parallel regions safe.
  group.Wait();
  return first_error;
}

Status ParallelForEach(ThreadPool* pool, int64_t begin, int64_t end,
                       const std::function<void(int64_t)>& body) {
  return ParallelFor(pool, begin, end, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) body(i);
  });
}

}  // namespace parparaw
