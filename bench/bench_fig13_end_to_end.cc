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

#include <cstdio>
#include <cstring>
#include <thread>

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

void Row(const char* system, double seconds, int64_t rows, bool correct,
         size_t bytes) {
  std::printf("%-28s %10.1fms %10.3fGB/s %10lld %s\n", system,
              seconds * 1e3, Gbps(bytes, seconds),
              static_cast<long long>(rows), correct ? "" : "  (WRONG OUTPUT)");
}

/// Prints the row and records it into the --json-out report under
/// "<key>/<system>".
void Record(JsonReport* report, const char* key, const char* system,
            double seconds, int64_t rows, bool correct, size_t bytes) {
  Row(system, seconds, rows, correct, bytes);
  report->Add(std::string(key) + "/" + system,
              {{"seconds", seconds},
               {"gbps", Gbps(bytes, seconds)},
               {"rows", static_cast<double>(rows)},
               {"correct", correct ? 1.0 : 0.0}});
}

void RunDataset(const char* key, const char* name, const std::string& data,
                const Schema& schema, bool quoted_text, JsonReport* report) {
  std::printf("\n--- Figure 13 (%s, %.1f MB) ---\n", name,
              static_cast<double>(data.size()) / (1 << 20));
  std::printf("%-28s %12s %13s %10s\n", "system", "duration", "rate",
              "rows");

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

  // ParPaRaw, end-to-end streaming: modelled GPU + PCIe timeline plus the
  // CPU-substrate wall time for transparency. The run feeds the metrics
  // registry and tracer so the per-stage breakdown below comes from the
  // observability subsystem, not ad-hoc stopwatches.
  {
    exec::ExecOptions options;
    options.base = base;
    EnableObservability(&options.base);
    obs::MetricsRegistry::Global().Reset();
    obs::Tracer::Global().Clear();
    options.partition_size = 4 << 20;
    exec::PipelineExecutor executor;
    auto result = executor.IngestBuffer(data, options);
    if (result.ok()) {
      const bool correct = result->table.Equals(expected->table);
      Record(report, key, "ParPaRaw (modeled GPU e2e)",
             ModelStream(*result).modeled_end_to_end_seconds,
             result->table.num_rows, correct, data.size());
      Record(report, key, "ParPaRaw (CPU substrate)",
             result->stats.wall_seconds, result->table.num_rows, correct,
             data.size());
      std::printf("\nper-stage breakdown (CPU substrate, %d partitions):\n",
                  result->stats.num_partitions);
      PrintStageBreakdown(&obs::MetricsRegistry::Global());
    }
    MaybeDumpTrace();
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
    options.safe_mode = false;
    Stopwatch watch;
    auto result = InstantLoadingParser::Parse(data, options);
    if (result.ok()) {
      Record(report, key, "Inst. Loading (unsafe)", watch.ElapsedSeconds(),
             result->table.num_rows, result->table.Equals(expected->table),
             data.size());
    }
    options.safe_mode = true;
    watch.Restart();
    auto safe = InstantLoadingParser::Parse(data, options);
    if (safe.ok()) {
      Record(report, key, "Inst. Loading (safe)", watch.ElapsedSeconds(),
             safe->table.num_rows, safe->table.Equals(expected->table),
             data.size());
    }
  }

  // Speculative quote-count parser (format-specific exploit).
  {
    Stopwatch watch;
    auto result = QuoteCountParser::Parse(data, base);
    if (result.ok()) {
      Record(report, key, "Quote-count (speculative)", watch.ElapsedSeconds(),
             result->table.num_rows, result->table.Equals(expected->table),
             data.size());
    }
  }

  // Sequential FSM parser (the single-threaded CPU-system class).
  {
    Stopwatch watch;
    auto result = SequentialParser::Parse(data, base);
    if (result.ok()) {
      Record(report, key, "Sequential FSM (CPU class)",
             watch.ElapsedSeconds(), result->table.num_rows, true,
             data.size());
    }
  }
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

// --pipeline: the real (non-modelled) Fig. 7 claim — overlapping disk
// reads, parse, sort and conversion across partitions beats running the
// same stages back to back on a cold-cache multi-partition file.
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
  std::printf("%-28s %12s %13s %10s\n", "schedule", "duration", "rate",
              "rows");

  // "Serial" is the same executor with one partition in flight: read,
  // scan, sort and convert of a partition run back to back.
  double serial_seconds = 0;
  Table serial_table;
  {
    DropFileCache(path);
    exec::PipelineExecutor executor;
    exec::ExecOptions options;
    options.base = base;
    options.partition_size = partition_size;
    options.max_inflight_partitions = 1;
    Stopwatch watch;
    auto result = executor.IngestFile(path, options);
    if (!result.ok()) {
      std::printf("serial ingest failed: %s\n",
                  result.status().ToString().c_str());
      return;
    }
    serial_seconds = watch.ElapsedSeconds();
    serial_table = std::move(result->table);
    Record(report, "pipeline", "serial (1 in flight)",
           serial_seconds, serial_table.num_rows, true, bytes);
  }

  {
    DropFileCache(path);
    exec::PipelineExecutor executor;
    exec::ExecOptions options;
    options.base = base;
    options.partition_size = partition_size;
    Stopwatch watch;
    auto result = executor.IngestFile(path, options);
    if (!result.ok()) {
      std::printf("pipelined ingest failed: %s\n",
                  result.status().ToString().c_str());
      return;
    }
    const double pipelined_seconds = watch.ElapsedSeconds();
    const bool correct = result->table.Equals(serial_table);
    Record(report, "pipeline", "pipelined (staged executor)",
           pipelined_seconds, result->table.num_rows, correct, bytes);
    const double speedup =
        pipelined_seconds > 0 ? serial_seconds / pipelined_seconds : 0;
    std::printf(
        "\n%d partitions, admission limit %d (max %d in flight)\n"
        "stage busy: read %.0f ms, scan %.0f ms, sort %.0f ms, convert "
        "%.0f ms; wall %.0f ms\npipelined speedup over serial: %.2fx\n",
        result->stats.num_partitions, result->stats.admission_limit,
        result->stats.max_inflight, result->stats.read_seconds * 1e3,
        result->stats.scan_seconds * 1e3, result->stats.sort_seconds * 1e3,
        result->stats.convert_seconds * 1e3,
        result->stats.wall_seconds * 1e3, speedup);
    report->Add("pipeline/speedup",
                {{"speedup", speedup},
                 {"partitions",
                  static_cast<double>(result->stats.num_partitions)},
                 {"max_inflight",
                  static_cast<double>(result->stats.max_inflight)},
                 {"cores", static_cast<double>(
                               std::thread::hardware_concurrency())}});
  }
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
