#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/bit_util.h"

namespace parparaw {
namespace obs {

namespace internal {

int ThisThreadShard() {
  static std::atomic<unsigned> next{0};
  thread_local const int shard = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards);
  return shard;
}

}  // namespace internal

namespace {

// Bucket index for `value`: 0 for values <= 1, else 1 + floor(log2(v - 1))
// clamped to the last bucket, i.e. bucket i covers (2^(i-1), 2^i].
int BucketIndex(int64_t value) {
  if (value <= 1) return 0;
  const int idx =
      1 + bit_util::Log2Floor(static_cast<uint64_t>(value - 1));
  return std::min(idx, kHistogramBuckets - 1);
}

void AtomicMin(std::atomic<int64_t>* slot, int64_t value) {
  int64_t seen = slot->load(std::memory_order_relaxed);
  while (value < seen && !slot->compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>* slot, int64_t value) {
  int64_t seen = slot->load(std::memory_order_relaxed);
  while (value > seen && !slot->compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

int64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the ceil(q * count)-th smallest sample.
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count))));
  int64_t seen = 0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    seen += buckets[i];
    if (seen >= target) {
      // Upper bound of bucket i; clamp into the observed range.
      const int64_t bound = i == 0 ? 1 : (int64_t{1} << i);
      return std::clamp(bound, min, max);
    }
  }
  return max;
}

void Histogram::Record(int64_t value) {
  HistShard& shard = shards_[internal::ThisThreadShard()];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&shard.min, value);
  AtomicMax(&shard.max, value);
  shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kHistogramBuckets, 0);
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  for (const HistShard& shard : shards_) {
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
    for (int i = 0; i < kHistogramBuckets; ++i) {
      snap.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  snap.min = snap.count > 0 ? min : 0;
  snap.max = snap.count > 0 ? max : 0;
  return snap;
}

void Histogram::Reset() {
  for (HistShard& shard : shards_) {
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
    shard.min.store(INT64_MAX, std::memory_order_relaxed);
    shard.max.store(INT64_MIN, std::memory_order_relaxed);
    for (int i = 0; i < kHistogramBuckets; ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry& registry =
      *new MetricsRegistry(/*enabled=*/false);
  return registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = instruments_[name];
  if (entry.gauge != nullptr || entry.histogram != nullptr) return nullptr;
  if (entry.counter == nullptr) {
    entry.counter = std::make_unique<Counter>(name);
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = instruments_[name];
  if (entry.counter != nullptr || entry.histogram != nullptr) return nullptr;
  if (entry.gauge == nullptr) {
    entry.gauge = std::make_unique<Gauge>(name);
  }
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = instruments_[name];
  if (entry.counter != nullptr || entry.gauge != nullptr) return nullptr;
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(name);
  }
  return entry.histogram.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(instruments_.size());
  for (const auto& [name, entry] : instruments_) {
    MetricSnapshot snap;
    snap.name = name;
    if (entry.counter != nullptr) {
      snap.kind = MetricSnapshot::Kind::kCounter;
      snap.value = entry.counter->Value();
    } else if (entry.gauge != nullptr) {
      snap.kind = MetricSnapshot::Kind::kGauge;
      snap.value = entry.gauge->Value();
      snap.max = entry.gauge->Max();
    } else if (entry.histogram != nullptr) {
      snap.kind = MetricSnapshot::Kind::kHistogram;
      snap.histogram = entry.histogram->Snapshot();
      snap.value = snap.histogram.count;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : instruments_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

std::string MetricsRegistry::SummaryText() const {
  std::string out;
  char line[256];
  for (const MetricSnapshot& m : Snapshot()) {
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        std::snprintf(line, sizeof(line), "%-40s counter %14lld\n",
                      m.name.c_str(), static_cast<long long>(m.value));
        break;
      case MetricSnapshot::Kind::kGauge:
        std::snprintf(line, sizeof(line),
                      "%-40s gauge   %14lld (max %lld)\n", m.name.c_str(),
                      static_cast<long long>(m.value),
                      static_cast<long long>(m.max));
        break;
      case MetricSnapshot::Kind::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        std::snprintf(line, sizeof(line),
                      "%-40s hist    count=%lld mean=%.1f p50=%lld "
                      "p99=%lld max=%lld\n",
                      m.name.c_str(), static_cast<long long>(h.count),
                      h.Mean(), static_cast<long long>(h.Quantile(0.5)),
                      static_cast<long long>(h.Quantile(0.99)),
                      static_cast<long long>(h.max));
        break;
      }
    }
    out += line;
  }
  return out;
}

}  // namespace obs
}  // namespace parparaw
