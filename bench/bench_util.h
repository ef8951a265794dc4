#ifndef PARPARAW_BENCH_BENCH_UTIL_H_
#define PARPARAW_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "io/file.h"
#include "obs/obs.h"
#include "workload/generators.h"

namespace parparaw::bench {

/// Dataset size for the figure benches, overridable with
/// PARPARAW_BENCH_MB (the paper uses 512 MB slices; the default here is
/// sized for a small CI machine — shapes, not absolute numbers, are the
/// reproduction target, see EXPERIMENTS.md).
inline size_t BenchBytes(size_t default_mb) {
  const char* env = std::getenv("PARPARAW_BENCH_MB");
  if (env != nullptr) {
    const long mb = std::strtol(env, nullptr, 10);
    if (mb > 0) return static_cast<size_t>(mb) << 20;
  }
  return default_mb << 20;
}

inline double Gbps(size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / seconds / (1 << 30) : 0;
}

/// The median, min and max of a row's timed calls.
struct Timing {
  double median = 0;
  double min = 0;
  double max = 0;
};

/// The Timing of `values` (at least one).
inline Timing TimingOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Timing{values[values.size() / 2], values.front(), values.back()};
}

inline void PrintHeader(const char* title) {
  std::printf("\n===== %s =====\n", title);
}

/// Switches the process-wide observability sinks on and returns them wired
/// into `options` so a bench run feeds the registry/tracer.
inline void EnableObservability(ParseOptions* options) {
  obs::MetricsRegistry::Global().SetEnabled(true);
  obs::Tracer::Global().SetEnabled(true);
  if (options != nullptr) {
    options->metrics = &obs::MetricsRegistry::Global();
    options->tracer = &obs::Tracer::Global();
  }
}

/// Prints the paper's per-stage breakdown (the Fig. 13 stacked-bar data)
/// from the registry's step histograms: total milliseconds, share of the
/// instrumented pipeline time, and number of recorded samples per stage.
inline void PrintStageBreakdown(obs::MetricsRegistry* registry) {
  struct Stage {
    const char* label;
    const char* histogram;
  };
  static constexpr Stage kStages[] = {
      {"context: parse (multi-DFA)", "step.context.parse_us"},
      {"context: scan (composite op)", "step.context.scan_us"},
      {"bitmaps (symbol classes)", "step.bitmap_us"},
      {"offsets (record/column scans)", "step.offset_us"},
      {"tagging: count/size", "step.tag.count_us"},
      {"tagging: scan", "step.tag.scan_us"},
      {"tagging: CSS write", "step.tag.write_us"},
      {"partition (radix sort)", "step.partition_us"},
      {"CSS indexing", "step.css_index_us"},
      {"convert (value generation)", "step.convert_us"},
  };
  double total_ms = 0;
  obs::HistogramSnapshot snaps[sizeof(kStages) / sizeof(kStages[0])];
  for (size_t i = 0; i < std::size(kStages); ++i) {
    snaps[i] = registry->GetHistogram(kStages[i].histogram)->Snapshot();
    total_ms += static_cast<double>(snaps[i].sum) / 1e3;
  }
  std::printf("%-32s %12s %8s %8s\n", "stage", "total ms", "share",
              "samples");
  for (size_t i = 0; i < std::size(kStages); ++i) {
    const double ms = static_cast<double>(snaps[i].sum) / 1e3;
    std::printf("%-32s %12.2f %7.1f%% %8lld\n", kStages[i].label, ms,
                total_ms > 0 ? 100.0 * ms / total_ms : 0.0,
                static_cast<long long>(snaps[i].count));
  }
  std::printf("%-32s %12.2f\n", "instrumented pipeline total", total_ms);
}

/// Collects benchmark measurements and, when `--json-out=<file>` was passed
/// on the command line, serialises them as a JSON document on Flush(). The
/// format is a flat list so downstream tooling can diff runs without knowing
/// each bench's shape:
///
///   {"benchmarks": [
///     {"name": "yelp_like/context/avx2",
///      "metrics": {"seconds": 0.1234, "gbps": 3.21}},
///     ...]}
///
/// With no --json-out flag the report is a no-op, so benches can always
/// record into it unconditionally.
class JsonReport {
 public:
  /// Reads --json-out=<file>, and --commit=<id>, the source revision the
  /// binary was built from, which Stamp()ed reports record.
  JsonReport(int argc, char** argv) {
    constexpr const char kFlag[] = "--json-out=";
    constexpr const char kCommit[] = "--commit=";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind(kFlag, 0) == 0) path_ = arg.substr(sizeof(kFlag) - 1);
      if (arg.rfind(kCommit, 0) == 0) commit_ = arg.substr(sizeof(kCommit) - 1);
    }
  }

  bool enabled() const { return !path_.empty(); }

  /// Records the host the numbers were measured on as a top-level "host"
  /// object: its core count, the best kernel level of its CPU and the
  /// --commit revision.
  void Stamp(unsigned cores, const std::string& isa) {
    host_ = "{\"cores\": " + std::to_string(cores) + ", \"isa\": \"" + isa +
            "\", \"commit\": \"" + commit_ + "\"}";
  }

  void Add(const std::string& name,
           std::initializer_list<std::pair<const char*, double>> metrics) {
    Entry entry;
    entry.name = name;
    entry.metrics.assign(metrics.begin(), metrics.end());
    entries_.push_back(std::move(entry));
  }

  /// Writes the accumulated entries to the --json-out path. Safe to call
  /// when disabled (does nothing).
  void Flush() const {
    if (path_.empty()) return;
    std::string json = "{\n";
    if (!host_.empty()) json += "  \"host\": " + host_ + ",\n";
    json += "  \"benchmarks\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
      json += i == 0 ? "\n" : ",\n";
      json += "    {\"name\": \"" + entries_[i].name + "\", \"metrics\": {";
      for (size_t m = 0; m < entries_[i].metrics.size(); ++m) {
        if (m > 0) json += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "\"%s\": %.6g",
                      entries_[i].metrics[m].first.c_str(),
                      entries_[i].metrics[m].second);
        json += buf;
      }
      json += "}}";
    }
    json += "\n  ]\n}\n";
    if (WriteStringToFile(path_, json).ok()) {
      std::fprintf(stderr, "benchmark results written to %s (%zu entries)\n",
                   path_.c_str(), entries_.size());
    } else {
      std::fprintf(stderr, "failed to write benchmark results to %s\n",
                   path_.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string path_;
  std::string commit_;
  std::string host_;
  std::vector<Entry> entries_;
};

/// When PARPARAW_TRACE_OUT is set, writes the global tracer's events there
/// as chrome://tracing JSON.
inline void MaybeDumpTrace() {
  const char* path = std::getenv("PARPARAW_TRACE_OUT");
  if (path == nullptr || path[0] == '\0') return;
  const std::string json = obs::Tracer::Global().ChromeTraceJson();
  if (WriteStringToFile(path, json).ok()) {
    std::fprintf(stderr, "trace written to %s (%zu events)\n", path,
                 obs::Tracer::Global().Events().size());
  }
}

}  // namespace parparaw::bench

#endif  // PARPARAW_BENCH_BENCH_UTIL_H_
