#ifndef PARPARAW_OBS_METRICS_H_
#define PARPARAW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace parparaw {

/// \brief Process-wide metrics for the parsing pipeline.
///
/// The paper's whole performance story (§5, Fig. 8-13) is told in per-step
/// timings and byte counts; this registry is where the reproduction
/// accumulates them. Three instrument kinds:
///
///   Counter   — monotonically increasing sum (bytes parsed, tasks run).
///   Gauge     — last-written level (queue depth, carry-over backlog).
///   Histogram — distribution of recorded values in power-of-two buckets
///               (per-step microseconds, partition latencies).
///
/// Writes are lock-free after the first lookup: every instrument owns a
/// small array of cache-line-padded per-thread shards; a writer hashes its
/// thread id to a shard and issues a relaxed atomic add/store, so
/// concurrent pipeline workers never contend on a shared line. Reads
/// (Value(), Snapshot()) sum the shards and may race with writers; they
/// are meant for end-of-run reporting, not synchronisation.
///
/// Instruments are created on first use and live as long as their
/// registry. Name lookup takes a mutex — callers on hot paths should
/// resolve the instrument once and reuse the pointer (the pipeline steps
/// do this per parse, which is well off the per-byte fast path).

namespace obs {

/// Number of per-thread shards per instrument. A power of two; larger
/// values reduce false sharing between concurrently-writing threads at the
/// cost of memory (each shard is one cache line).
inline constexpr int kMetricShards = 16;

/// Log2 buckets used by Histogram: bucket i counts values v with
/// 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1). Values are unit-free;
/// the pipeline records microseconds.
inline constexpr int kHistogramBuckets = 48;

namespace internal {

struct alignas(64) Shard {
  std::atomic<int64_t> value{0};
};

/// Shard index for the calling thread: thread-local, assigned round-robin
/// on first use so a small number of threads spread over distinct shards.
int ThisThreadShard();

}  // namespace internal

/// Monotonic counter. Add() is lock-free and wait-free on x86.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(int64_t delta) {
    shards_[internal::ThisThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Zeroes all shards (racy with concurrent writers; for run boundaries).
  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

  /// Sum over all shards. Racy with concurrent writers (by design).
  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  internal::Shard shards_[kMetricShards];
};

/// Last-written level. Concurrent writers race; the final value is one of
/// the written values (sufficient for depth/backlog style signals). Also
/// tracks the maximum ever set, which survives the races.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Aggregated view of a histogram at one point in time.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // 0 when count == 0
  int64_t max = 0;
  std::vector<int64_t> buckets;  // kHistogramBuckets log2 buckets

  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
  /// Upper bound of the bucket holding the nearest-rank sample for `q` in
  /// [0, 1] (the ceil(q * count)-th smallest), clamped into [min, max] — a
  /// log2-resolution estimate, good enough for "p99 partition latency".
  int64_t Quantile(double q) const;
};

/// Distribution of recorded values. Record() touches only the calling
/// thread's shard: a relaxed bucket increment plus sum/count adds and
/// min/max CAS loops on shard-local atomics.
class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Record(int64_t value);

  HistogramSnapshot Snapshot() const;

  /// Zeroes all shards (racy with concurrent writers; for run boundaries).
  void Reset();

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) HistShard {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{INT64_MAX};
    std::atomic<int64_t> max{INT64_MIN};
    std::atomic<int64_t> buckets[kHistogramBuckets] = {};
  };

  std::string name_;
  HistShard shards_[kMetricShards];
};

/// One row of MetricsRegistry::Snapshot().
struct MetricSnapshot {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  int64_t value = 0;  // counter value / gauge level
  int64_t max = 0;    // gauge max
  HistogramSnapshot histogram;  // kHistogram only
};

/// \brief Named instrument registry.
///
/// A freshly constructed registry is enabled; the process-wide
/// Global() instance starts *disabled* so un-instrumented programs pay
/// nothing but a relaxed load at each gated site. Instruments handed out
/// remain valid for the registry's lifetime regardless of the enabled
/// flag — the flag only gates the convenience Add*/Record* helpers and
/// the call sites that check it.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (created on first use, never destroyed),
  /// disabled until SetEnabled(true).
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Finds or creates the named instrument. Requesting an existing name
  /// with a different kind returns nullptr.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Gated one-shot helpers for call sites too cold to cache a pointer.
  void AddCounter(const std::string& name, int64_t delta) {
    if (!enabled()) return;
    if (Counter* c = GetCounter(name)) c->Add(delta);
  }
  void SetGauge(const std::string& name, int64_t value) {
    if (!enabled()) return;
    if (Gauge* g = GetGauge(name)) g->Set(value);
  }
  void RecordHistogram(const std::string& name, int64_t value) {
    if (!enabled()) return;
    if (Histogram* h = GetHistogram(name)) h->Record(value);
  }

  /// All instruments, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every instrument in place. Pointers previously handed out
  /// (e.g. the thread pool's cached counters) stay valid; concurrent
  /// writers race benignly. Use at run boundaries to scope a report.
  void Reset();

  /// Human-readable dump of Snapshot(): one line per counter/gauge,
  /// count/mean/p50/p99/max per histogram.
  std::string SummaryText() const;

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> instruments_;
};

}  // namespace obs
}  // namespace parparaw

#endif  // PARPARAW_OBS_METRICS_H_
