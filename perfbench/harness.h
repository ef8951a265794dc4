#ifndef PARPARAW_PERFBENCH_HARNESS_H_
#define PARPARAW_PERFBENCH_HARNESS_H_

// Measurement helpers of the end-to-end benchmark: order statistics,
// process resource probes, an in-memory span recorder and the result line.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace parparaw::perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty vector.
double Median(std::vector<double> values);

/// Percentile `p` in [0, 1] with linear interpolation between closest
/// ranks (the common "type 7" definition; p = 0.5 is the median). 0 for an
/// empty vector.
double Percentile(std::vector<double> values, double p);

/// Sum of `values`.
double Sum(const std::vector<double>& values);

/// Monotonic seconds since an arbitrary epoch.
double NowSeconds();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS by writing
/// "5" to /proc/self/clear_refs. False when the kernel refuses.
bool ResetPeakRss();

/// VmHWM / VmRSS of this process in KiB, from /proc/self/status; -1 when
/// unavailable.
int64_t PeakRssKib();
int64_t CurrentRssKib();

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  int64_t minor_faults = 0;
};
Usage ReadUsage();

/// Seconds of vCPU time the hypervisor took from this machine, summed
/// over CPUs (the `steal` column of /proc/stat); 0 when unavailable.
double StealSeconds();

/// Process CPU time (user + system) and machine steal at one instant.
/// Time the hypervisor steals is not charged to the process, so between
/// two probes the process wanted cpu + steal seconds and got cpu.
struct CpuProbe {
  double wall = 0;
  double cpu = 0;
  double steal = 0;
};
CpuProbe ProbeCpu();

/// Wall time between two probes scaled to the CPU the process was
/// granted: wall × cpu / (cpu + steal). Equals the wall time when nothing
/// was stolen. A CPU-bound op whose threads lose a share of their vCPU
/// time to other tenants takes that much longer; this removes it.
double GrantedSeconds(const CpuProbe& before, const CpuProbe& after);

/// \brief Spans recorded around calls into the library's layers.
///
/// Each span has a name, start and end (ns since the recorder's epoch),
/// its parent span on the same thread (-1 for a root) and the id of the
/// op it belongs to. Spans stay in memory; ChromeTraceJson() renders them
/// at exit. A disabled recorder records nothing and costs one branch.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t op = -1;
    uint32_t tid = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far, in seconds (valid whether or not recording).
    double Seconds() const;

   private:
    SpanRecorder* recorder_;
    int64_t index_ = -1;
    int64_t parent_ = -1;
    std::chrono::steady_clock::time_point start_;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  std::vector<Span> Spans() const;

  /// Sum of durations of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;

  /// Per span name: total duration minus the time covered by its direct
  /// children, in seconds, sorted by descending self time.
  std::vector<std::pair<std::string, double>> SelfSeconds() const;

  /// chrome://tracing "Trace Event Format" document of every span; the
  /// parent and op ids travel in each event's args.
  std::string ChromeTraceJson() const;

 private:
  int64_t Open(const std::string& name, int64_t op, int64_t parent);
  void Close(int64_t index);

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's result line: one JSON object with the keys `correct`,
/// `attempted`, `failed` and `metrics` ({name: {value, unit}}).
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace parparaw::perfbench

#endif  // PARPARAW_PERFBENCH_HARNESS_H_
