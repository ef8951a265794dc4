#ifndef PARPARAW_OBS_TRACE_H_
#define PARPARAW_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace parparaw {
namespace obs {

/// \brief Scoped-span tracing for the parsing pipeline.
///
/// Each pipeline step (and executor morsel, query stage, …) opens a
/// TraceSpan; when the span closes, one complete event — name, category,
/// begin timestamp, duration, small sequential thread id, and an optional
/// byte count — is appended to the tracer. Events export either as a
/// chrome://tracing / Perfetto-compatible JSON document or as an
/// aggregated plain-text summary (total/mean duration and throughput per
/// span name).
///
/// Recording is cheap but not contention-free (one short mutex-protected
/// vector append per *span*, not per byte — spans are step-granular).
/// A disabled tracer costs a relaxed atomic load per span; TraceSpan
/// against a null tracer costs a branch.

/// One completed span.
struct TraceEvent {
  /// Span name, e.g. "step.context". Must point at storage that outlives
  /// the tracer (the instrumentation uses string literals).
  const char* name = "";
  /// Category, e.g. "pipeline" / "stream" / "query".
  const char* category = "";
  /// Begin time in nanoseconds since the tracer's epoch.
  int64_t ts_ns = 0;
  /// Duration in nanoseconds.
  int64_t dur_ns = 0;
  /// Small sequential id of the recording thread.
  uint32_t tid = 0;
  /// Bytes processed under the span; -1 when not applicable.
  int64_t bytes = -1;
  /// Span nesting depth on its thread at open time (0 = top level).
  int32_t depth = 0;
};

/// Small sequential id for the calling thread (stable per thread for the
/// process lifetime; shared across tracers).
uint32_t ThisThreadTraceId();

class Tracer {
 public:
  explicit Tracer(bool enabled = true);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide tracer (created on first use, never destroyed),
  /// disabled until SetEnabled(true).
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Nanoseconds from this tracer's epoch to `t` (monotonic clock).
  int64_t NanosSinceEpoch(std::chrono::steady_clock::time_point t) const;

  /// Appends one completed span. `name`/`category` must outlive the
  /// tracer; the instrumentation passes string literals.
  void RecordComplete(const char* name, const char* category, int64_t ts_ns,
                      int64_t dur_ns, int64_t bytes, int32_t depth);

  /// All recorded events, sorted by begin timestamp.
  std::vector<TraceEvent> Events() const;

  /// Drops all recorded events (keeps the epoch and enabled flag).
  void Clear();

  /// Serialises the events as a chrome://tracing "Trace Event Format"
  /// JSON object: {"traceEvents":[{"name":...,"cat":...,"ph":"X",
  /// "ts":µs,"dur":µs,"pid":1,"tid":n,"args":{...}}, ...],
  /// "displayTimeUnit":"ms"}. Load it via chrome://tracing or
  /// https://ui.perfetto.dev.
  std::string ChromeTraceJson() const;

  /// Aggregated per-span-name table: calls, total/mean milliseconds,
  /// bytes, and GB/s where byte counts were recorded.
  std::string SummaryText() const;

 private:
  std::atomic<bool> enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

class MetricsRegistry;

/// Whether the caller consumes a probe's interval through Stop().
enum class Timing : bool { kUntimed, kTimed };

/// \brief The one stage probe: a RAII span that reads the steady clock
/// when it opens and when it closes (scope end or the first Stop()). That
/// one interval feeds the trace event (tracer enabled), one microsecond
/// sample (dur_ns / 1000) of `histogram` (registry enabled), and Stop()'s
/// return value, which a kTimed caller adds to its StepTimings bucket or
/// exec::IngestStats seconds. With no consumer it reads no clock.
///
/// The enabled checks happen once, at construction, keeping begin/end
/// pairing trivially consistent. A probe must close on the thread that
/// opened it: the per-thread nesting depth counts up at open and down at
/// close.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, const char* category,
            int64_t bytes = -1)
      : TraceSpan(tracer, name, category, nullptr, nullptr,
                  Timing::kUntimed, bytes) {}

  /// `histogram` is a string literal, or null for none.
  TraceSpan(Tracer* tracer, const char* name, const char* category,
            MetricsRegistry* metrics, const char* histogram, Timing timing,
            int64_t bytes = -1);
  ~TraceSpan() { Stop(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Sets/overrides the byte count reported when the span closes.
  void set_bytes(int64_t bytes) { bytes_ = bytes; }

  /// Closes the probe on the first call, feeding its sinks. Every call
  /// returns the interval in seconds; 0 when the probe read no clock.
  double Stop();

 private:
  Tracer* tracer_;            // null when tracing was off at construction
  MetricsRegistry* metrics_;  // null when metrics were off or no histogram
  const char* name_;
  const char* category_;
  const char* histogram_;
  int64_t bytes_;
  int32_t depth_ = 0;
  bool running_ = false;  // read the clock at open; not yet stopped
  std::chrono::steady_clock::time_point start_;
  int64_t dur_ns_ = 0;
};

}  // namespace obs
}  // namespace parparaw

#endif  // PARPARAW_OBS_TRACE_H_
