#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/metrics.h"

namespace parparaw {
namespace obs {

namespace {

// Per-thread span nesting depth. Shared across tracers: nesting is a
// property of the call stack, not of the sink.
thread_local int32_t t_span_depth = 0;

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
}

}  // namespace

uint32_t ThisThreadTraceId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Global() {
  static Tracer& tracer = *new Tracer(/*enabled=*/false);
  return tracer;
}

int64_t Tracer::NanosSinceEpoch(
    std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

void Tracer::RecordComplete(const char* name, const char* category,
                            int64_t ts_ns, int64_t dur_ns, int64_t bytes,
                            int32_t depth) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.tid = ThisThreadTraceId();
  event.bytes = bytes;
  event.depth = depth;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = events_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, e.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, e.category);
    // Timestamps and durations in microseconds, the format's native unit;
    // three decimals keep sub-microsecond spans distinguishable.
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"depth\":%d",
                  static_cast<double>(e.ts_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, e.tid, e.depth);
    out += buf;
    if (e.bytes >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"bytes\":%lld",
                    static_cast<long long>(e.bytes));
      out += buf;
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string Tracer::SummaryText() const {
  struct Agg {
    int64_t calls = 0;
    int64_t dur_ns = 0;
    int64_t bytes = 0;
    bool has_bytes = false;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : Events()) {
    Agg& agg = by_name[std::string(e.category) + "/" + e.name];
    ++agg.calls;
    agg.dur_ns += e.dur_ns;
    if (e.bytes >= 0) {
      agg.bytes += e.bytes;
      agg.has_bytes = true;
    }
  }
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-36s %8s %12s %12s %10s\n", "span",
                "calls", "total ms", "mean ms", "GB/s");
  out += line;
  for (const auto& [name, agg] : by_name) {
    const double total_ms = static_cast<double>(agg.dur_ns) / 1e6;
    const double mean_ms =
        agg.calls > 0 ? total_ms / static_cast<double>(agg.calls) : 0.0;
    if (agg.has_bytes && agg.dur_ns > 0) {
      const double gbps = static_cast<double>(agg.bytes) /
                          (static_cast<double>(agg.dur_ns) / 1e9) /
                          (1 << 30);
      std::snprintf(line, sizeof(line), "%-36s %8lld %12.3f %12.3f %10.3f\n",
                    name.c_str(), static_cast<long long>(agg.calls),
                    total_ms, mean_ms, gbps);
    } else {
      std::snprintf(line, sizeof(line), "%-36s %8lld %12.3f %12.3f %10s\n",
                    name.c_str(), static_cast<long long>(agg.calls),
                    total_ms, mean_ms, "-");
    }
    out += line;
  }
  return out;
}

TraceSpan::TraceSpan(Tracer* tracer, const char* name, const char* category,
                     MetricsRegistry* metrics, const char* histogram,
                     Timing timing, int64_t bytes)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      metrics_(metrics != nullptr && histogram != nullptr &&
                       metrics->enabled()
                   ? metrics
                   : nullptr),
      name_(name),
      category_(category),
      histogram_(histogram),
      bytes_(bytes) {
  running_ = tracer_ != nullptr || metrics_ != nullptr ||
             timing == Timing::kTimed;
  if (!running_) return;
  if (tracer_ != nullptr) depth_ = t_span_depth++;
  start_ = std::chrono::steady_clock::now();
}

double TraceSpan::Stop() {
  if (running_) {
    running_ = false;
    dur_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    if (tracer_ != nullptr) {
      --t_span_depth;
      tracer_->RecordComplete(name_, category_,
                              tracer_->NanosSinceEpoch(start_), dur_ns_,
                              bytes_, depth_);
    }
    if (metrics_ != nullptr) {
      if (Histogram* histogram = metrics_->GetHistogram(histogram_)) {
        histogram->Record(dur_ns_ / 1000);
      }
    }
  }
  return static_cast<double>(dur_ns_) * 1e-9;
}

}  // namespace obs
}  // namespace parparaw
