// Reproduces Figure 13: end-to-end duration of ParPaRaw versus the other
// approaches, for both datasets.
//
// Paper shape (yelp 4.8 GB / NYC 9.1 GB): ParPaRaw 0.4 s / 0.9 s; cuDF*
// 7.3 / 9.4; cuDF 10.5 / 16.5; Inst. Loading x (fails on yelp) / 3.6;
// MonetDB 58.2 / 38.0; Spark 94.3 / 98.1; pandas 91.3 / 83.4.
//
// This repo implements one representative of each algorithm class from
// scratch (see DESIGN.md §2): ParPaRaw streaming (modelled GPU + PCIe),
// Instant-Loading-style chunk parallelism (safe mode where the format
// requires it, and it *fails correctness* on yelp in unsafe mode exactly
// like the original), a speculative quote-count parser, and the
// sequential FSM parser standing in for the single-threaded CPU systems.
// The expected ordering: ParPaRaw-modeled << quote-count/instant-loading
// << sequential; instant-loading unusable (wrong) for quoted yelp data in
// unsafe mode.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "baseline/instant_loading.h"
#include "baseline/quote_count.h"
#include "baseline/sequential_parser.h"
#include "bench_util.h"
#include "exec/executor.h"
#include "simd/dispatch.h"
#include "stream/stream_model.h"
#include "util/stopwatch.h"

namespace {

using namespace parparaw;         // NOLINT
using namespace parparaw::bench;  // NOLINT

// --transpose-mode=<symbol_sort|field_gather> pins the transposition
// implementation for every ParPaRaw run (default: the library's kAuto
// resolution).
TransposeMode g_transpose_mode = TransposeMode::kAuto;

/// Timed calls per system of a dataset, after one untimed warm-up call.
constexpr int kTimedCalls = 7;

/// Runs `call` (one call of a system, returning its seconds, or a
/// negative value when the system failed) once untimed, then kTimedCalls
/// times. nullopt when any call failed.
template <typename Call>
std::optional<Timing> TimeCalls(const Call& call) {
  std::vector<double> seconds;
  for (int i = 0; i <= kTimedCalls; ++i) {
    const double s = call();
    if (s < 0) return std::nullopt;
    if (i > 0) seconds.push_back(s);
  }
  return TimingOf(std::move(seconds));
}

/// Prints a one-value row and records it into the --json-out report
/// under "<key>/<system>".
void Record(JsonReport* report, const char* key, const char* system,
            double seconds, int64_t rows, bool correct, size_t bytes) {
  std::printf("%-28s %10.1fms %15s %8.3fGB/s %8lld %s\n", system,
              seconds * 1e3, "", Gbps(bytes, seconds),
              static_cast<long long>(rows), correct ? "" : "  (WRONG OUTPUT)");
  report->Add(std::string(key) + "/" + system,
              {{"seconds", seconds},
               {"gbps", Gbps(bytes, seconds)},
               {"rows", static_cast<double>(rows)},
               {"correct", correct ? 1.0 : 0.0}});
}

/// The same for timed calls: `seconds` and `gbps` are the median's, and
/// `min_seconds` / `max_seconds` give the spread.
void Record(JsonReport* report, const char* key, const char* system,
            const Timing& t, int64_t rows, bool correct, size_t bytes) {
  std::printf("%-28s %10.1fms [%6.1f-%6.1f] %8.3fGB/s %8lld %s\n", system,
              t.median * 1e3, t.min * 1e3, t.max * 1e3, Gbps(bytes, t.median),
              static_cast<long long>(rows), correct ? "" : "  (WRONG OUTPUT)");
  report->Add(std::string(key) + "/" + system,
              {{"seconds", t.median},
               {"min_seconds", t.min},
               {"max_seconds", t.max},
               {"gbps", Gbps(bytes, t.median)},
               {"rows", static_cast<double>(rows)},
               {"correct", correct ? 1.0 : 0.0}});
}

void RunDataset(const char* key, const char* name, const std::string& data,
                const Schema& schema, bool quoted_text, JsonReport* report) {
  std::printf("\n--- Figure 13 (%s, %.1f MB) ---\n", name,
              static_cast<double>(data.size()) / (1 << 20));
  std::printf("%-28s %12s %15s %12s %8s\n", "system", "median",
              "[min-max] ms", "rate", "rows");

  ParseOptions base;
  base.schema = schema;
  base.transpose_mode = g_transpose_mode;

  // Ground truth for correctness marks.
  auto expected = SequentialParser::Parse(data, base);
  if (!expected.ok()) {
    std::printf("sequential reference failed: %s\n",
                expected.status().ToString().c_str());
    return;
  }

  // Every system keeps its last call's table, which is checked against
  // the ground truth after the timed calls.
  Table table;
  const auto record = [&](const char* system,
                          const std::optional<Timing>& timing) {
    if (!timing.has_value()) return;
    Record(report, key, system, *timing, table.num_rows,
           table.Equals(expected->table), data.size());
  };
  // Times a baseline parser's calls with a stopwatch around each.
  const auto time_parser = [&](const auto& parse) {
    return TimeCalls([&] {
      Stopwatch watch;
      auto result = parse();
      if (!result.ok()) return -1.0;
      const double seconds = watch.ElapsedSeconds();
      table = std::move(result->table);
      return seconds;
    });
  };

  // ParPaRaw, end-to-end streaming: modelled GPU + PCIe timeline plus the
  // CPU-substrate wall time for transparency. The timed calls run with
  // observability off; one more, traced call feeds the metrics registry
  // and tracer, so the per-stage breakdown comes from the observability
  // subsystem, not ad-hoc stopwatches.
  {
    exec::ExecOptions options;
    options.base = base;
    options.partition_size = 4 << 20;
    double modeled = 0;
    const std::optional<Timing> substrate = TimeCalls([&] {
      exec::PipelineExecutor executor;
      auto result = executor.IngestBuffer(data, options);
      if (!result.ok()) return -1.0;
      modeled = ModelStream(*result).modeled_end_to_end_seconds;
      table = std::move(result->table);
      return result->stats.wall_seconds;
    });
    // The model replays the partitions' work counters, which every call
    // repeats exactly, so its row is one value.
    if (substrate.has_value()) {
      Record(report, key, "ParPaRaw (modeled GPU e2e)", modeled,
             table.num_rows, table.Equals(expected->table), data.size());
    }
    record("ParPaRaw (CPU substrate)", substrate);

    EnableObservability(&options.base);
    obs::MetricsRegistry::Global().Reset();
    obs::Tracer::Global().Clear();
    exec::PipelineExecutor executor;
    auto traced = executor.IngestBuffer(data, options);
    if (traced.ok()) {
      std::printf("\nper-stage breakdown (CPU substrate, one traced call, "
                  "%d partitions):\n",
                  traced->stats.num_partitions);
      PrintStageBreakdown(&obs::MetricsRegistry::Global());
    }
    MaybeDumpTrace();
    obs::MetricsRegistry::Global().SetEnabled(false);
    obs::Tracer::Global().SetEnabled(false);
  }

  // Instant Loading: unsafe mode is only *correct* for formats whose
  // newlines are always record delimiters (NYC); safe mode pays the
  // sequential context pass (yelp).
  {
    InstantLoadingOptions options;
    options.base = base;
    // The paper's Inst. Loading run uses 32 physical cores; with one
    // logical chunk per core the unsafe mode's boundary mistakes on
    // quoted data become visible.
    options.num_workers = 32;
    const auto parse = [&] {
      return InstantLoadingParser::Parse(data, options);
    };
    options.safe_mode = false;
    record("Inst. Loading (unsafe)", time_parser(parse));
    options.safe_mode = true;
    record("Inst. Loading (safe)", time_parser(parse));
  }

  // Speculative quote-count parser (format-specific exploit).
  record("Quote-count (speculative)",
         time_parser([&] { return QuoteCountParser::Parse(data, base); }));

  // Sequential FSM parser (the single-threaded CPU-system class).
  record("Sequential FSM (CPU class)",
         time_parser([&] { return SequentialParser::Parse(data, base); }));
  (void)quoted_text;
}

// Asks the kernel to evict `path` from the page cache, so the next read
// actually goes to the device (cold-cache ingest). Best-effort: on tmpfs
// there is no backing device and the "read" stays a memory copy.
void DropFileCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
#if defined(POSIX_FADV_DONTNEED)
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
  ::close(fd);
}

/// Cold-cache calls per --pipeline row.
constexpr int kPipelineCalls = 5;

/// One --pipeline row: its calls' Timing and the last call's result.
struct TimedIngest {
  Timing timing;
  exec::IngestResult last;
};

// --pipeline: the real (non-modelled) Fig. 7 claim — overlapping disk
// reads, parse, sort and conversion across partitions beats running the
// same stages back to back on a cold-cache multi-partition file. A third
// row ingests the file under a memory budget, which shrinks the
// partitions but keeps the pipeline's depth.
void RunPipelineMode(JsonReport* report) {
  PrintHeader("Pipelined vs serial ingest (cold cache)");
  const size_t bytes = BenchBytes(64);
  const size_t partition_size = 8 << 20;
  const std::string path = "/tmp/parparaw_bench_pipeline.csv";
  {
    Status st = WriteStringToFile(path, GenerateTaxiLike(99, bytes));
    if (!st.ok()) {
      std::printf("cannot write %s: %s\n", path.c_str(),
                  st.ToString().c_str());
      return;
    }
  }
  ParseOptions base;
  base.schema = TaxiSchema();
  std::printf("%-28s %12s %15s %12s %8s\n", "schedule", "median",
              "[min-max] ms", "rate", "rows");

  // Ingests the file kPipelineCalls times, each after dropping it from the
  // page cache, and records the row's median, min and max wall time; the
  // last call's table is checked against `reference`, if given. nullopt
  // when a call failed.
  const auto time_row =
      [&](const char* schedule, const exec::ExecOptions& options,
          const Table* reference) -> std::optional<TimedIngest> {
    std::vector<double> seconds;
    TimedIngest row;
    for (int i = 0; i < kPipelineCalls; ++i) {
      DropFileCache(path);
      exec::PipelineExecutor executor;
      Stopwatch watch;
      auto result = executor.IngestFile(path, options);
      if (!result.ok()) {
        std::printf("%s ingest failed: %s\n", schedule,
                    result.status().ToString().c_str());
        return std::nullopt;
      }
      seconds.push_back(watch.ElapsedSeconds());
      row.last = std::move(result).ValueOrDie();
    }
    row.timing = TimingOf(std::move(seconds));
    const bool correct =
        reference == nullptr || row.last.table.Equals(*reference);
    Record(report, "pipeline", schedule, row.timing,
           row.last.table.num_rows, correct, bytes);
    // Only the reference table is needed past here; keep the stats alone.
    if (reference != nullptr) row.last.table = Table();
    return row;
  };

  // "Serial" is the same executor with one partition in flight: read,
  // scan, sort and convert of a partition run back to back.
  exec::ExecOptions serial;
  serial.base = base;
  serial.partition_size = partition_size;
  serial.max_inflight_partitions = 1;
  const auto serial_row = time_row("serial (1 in flight)", serial, nullptr);
  if (!serial_row.has_value()) return;
  const Table& reference = serial_row->last.table;

  exec::ExecOptions pipelined;
  pipelined.base = base;
  pipelined.partition_size = partition_size;
  const auto pipelined_row =
      time_row("pipelined (staged executor)", pipelined, &reference);
  if (!pipelined_row.has_value()) return;

  // The default partition size under a 64 MiB budget: the clamp cuts the
  // partitions so that robust::kPipelineDepth of them fit.
  exec::ExecOptions budgeted;
  budgeted.base = base;
  budgeted.base.memory_budget = int64_t{64} << 20;
  const auto budgeted_row = time_row("budgeted (64 MiB)", budgeted, &reference);
  if (!budgeted_row.has_value()) return;

  const auto report_schedule = [&](const char* key, const char* schedule,
                                   const TimedIngest& row) {
    const exec::IngestStats& stats = row.last.stats;
    const double speedup = serial_row->timing.median / row.timing.median;
    std::printf(
        "\n%s: %d partitions, admission limit %d (max %d in flight)\n"
        "stage busy: read %.0f ms, scan %.0f ms, sort %.0f ms, convert "
        "%.0f ms; wall %.0f ms\nspeedup over serial (medians): %.2fx\n",
        schedule, stats.num_partitions, stats.admission_limit,
        stats.max_inflight, stats.read_seconds * 1e3,
        stats.scan_seconds * 1e3, stats.sort_seconds * 1e3,
        stats.convert_seconds * 1e3, stats.wall_seconds * 1e3, speedup);
    report->Add(std::string("pipeline/") + key,
                {{"speedup", speedup},
                 {"partitions", static_cast<double>(stats.num_partitions)},
                 {"admission_limit",
                  static_cast<double>(stats.admission_limit)},
                 {"max_inflight", static_cast<double>(stats.max_inflight)},
                 {"cores", static_cast<double>(
                               std::thread::hardware_concurrency())}});
  };
  report_schedule("speedup", "pipelined (staged executor)", *pipelined_row);
  report_schedule("budgeted_speedup", "budgeted (64 MiB)", *budgeted_row);
  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report(argc, argv);
  report.Stamp(std::thread::hardware_concurrency(),
               simd::KernelLevelName(simd::DetectBestKernelLevel()));
  bool pipeline = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pipeline") == 0) pipeline = true;
    if (std::strcmp(argv[i], "--transpose-mode=symbol_sort") == 0) {
      g_transpose_mode = TransposeMode::kSymbolSort;
    }
    if (std::strcmp(argv[i], "--transpose-mode=field_gather") == 0) {
      g_transpose_mode = TransposeMode::kFieldGather;
    }
  }
  if (pipeline) {
    RunPipelineMode(&report);
    report.Flush();
    return 0;
  }
  PrintHeader("Figure 13: end-to-end comparison");
  const size_t bytes = BenchBytes(16);
  RunDataset("yelp", "yelp reviews (synthetic)", GenerateYelpLike(99, bytes),
             YelpSchema(), /*quoted_text=*/true, &report);
  RunDataset("taxi", "NYC taxi trips (synthetic)",
             GenerateTaxiLike(99, bytes), TaxiSchema(),
             /*quoted_text=*/false, &report);
  report.Flush();
  return 0;
}
