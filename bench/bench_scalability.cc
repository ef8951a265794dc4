// Reproduces the scalability claim (§1/§6: "able to scale to thousands of
// cores and beyond"): fixed input, sweeping (a) the CPU substrate's worker
// count for both the monolithic parse and the morsel-driven pipelined
// executor — on a multi-core host the wall time should drop near-linearly
// until the pipeline turns memory-bound — and (b) the device model's core
// count, which shows where the roofline's memory term starts to dominate
// (precisely why ParPaRaw trades extra work for bandwidth-friendly
// data-parallel steps).
//
// Every configuration is measured best-of-N; a parse failure at any point
// aborts the bench with a non-zero exit (a silently skipped row would make
// the sweep look complete while measuring nothing). With --json-out=<file>
// the measurements land in a JSON report whose fields EXPERIMENTS.md
// documents; scripts record it as BENCH_scalability.json.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/parser.h"
#include "exec/executor.h"
#include "sim/device_model.h"
#include "util/stopwatch.h"

namespace {

using namespace parparaw;         // NOLINT
using namespace parparaw::bench;  // NOLINT

constexpr int kRepetitions = 3;

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "FATAL: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report(argc, argv);
  PrintHeader("Scalability: workers (substrate) and cores (device model)");
  const size_t bytes = BenchBytes(8);
  const std::string data = GenerateYelpLike(11, bytes);
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  // The host's parallelism bound goes into the report: speedup claims are
  // only meaningful up to this many hardware threads (a 1-core container
  // caps every sweep at ~1.0x no matter the scheduler).
  report.Add("scalability/host",
             {{"hardware_concurrency",
               static_cast<double>(std::thread::hardware_concurrency())},
              {"input_bytes", static_cast<double>(data.size())}});

  // --- (a1) monolithic parse: the data-parallel primitives alone ---
  std::printf("\n--- CPU monolithic parse worker sweep (host has %u cores) ---\n",
              std::thread::hardware_concurrency());
  std::printf("%8s %12s %12s %10s\n", "workers", "wall", "rate", "speedup");
  WorkCounters work;
  int num_columns = 0;
  double parse_base_seconds = 0;
  for (int workers : worker_counts) {
    ThreadPool pool(workers);
    ParseOptions options;
    options.schema = YelpSchema();
    options.pool = &pool;
    double best = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      Stopwatch watch;
      auto result = Parser::Parse(data, options);
      const double s = watch.ElapsedSeconds();
      if (!result.ok()) Die("monolithic parse", result.status());
      if (rep == 0 || s < best) best = s;
      work = result->work;
      num_columns = result->table.num_columns();
    }
    if (workers == worker_counts.front()) parse_base_seconds = best;
    const double speedup = best > 0 ? parse_base_seconds / best : 0;
    std::printf("%8d %10.1fms %9.3fGB/s %9.2fx\n", workers, best * 1e3,
                Gbps(data.size(), best), speedup);
    report.Add("scalability/parse/workers=" + std::to_string(workers),
               {{"seconds", best},
                {"gbps", Gbps(data.size(), best)},
                {"speedup_vs_1", speedup}});
  }

  // --- (a2) morsel-driven pipelined executor, end to end ---
  // Partitions sized so the sweep has real inter-partition parallelism
  // (scan is carry-serialised; sort/convert morsels overlap freely), with
  // the admission limit opened up so residency never caps the sweep.
  std::printf("\n--- CPU pipelined-executor worker sweep (morsel scheduler) ---\n");
  std::printf("%8s %12s %12s %10s  %s\n", "workers", "wall", "rate",
              "speedup", "stage busy (read/scan/sort/convert)");
  double exec_base_seconds = 0;
  for (int workers : worker_counts) {
    ThreadPool pool(workers);
    exec::ExecOptions options;
    options.base.schema = YelpSchema();
    options.base.pool = &pool;
    options.partition_size = std::max<size_t>(data.size() / 16, 64 * 1024);
    options.max_inflight_partitions = 16;
    double best = 0;
    exec::IngestStats stats;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      exec::PipelineExecutor executor;
      auto result = executor.IngestBuffer(data, options);
      if (!result.ok()) Die("pipelined ingest", result.status());
      if (rep == 0 || result->stats.wall_seconds < best) {
        best = result->stats.wall_seconds;
        stats = result->stats;
      }
    }
    if (workers == worker_counts.front()) exec_base_seconds = best;
    const double speedup = best > 0 ? exec_base_seconds / best : 0;
    // Per-stage busy seconds are the memory-bound evidence: once the
    // summed busy time stops growing but wall time stops shrinking, the
    // added workers are waiting on bandwidth, not on the scheduler.
    std::printf("%8d %10.1fms %9.3fGB/s %9.2fx  %.0f/%.0f/%.0f/%.0fms\n",
                workers, best * 1e3, Gbps(data.size(), best), speedup,
                stats.read_seconds * 1e3, stats.scan_seconds * 1e3,
                stats.sort_seconds * 1e3, stats.convert_seconds * 1e3);
    report.Add("scalability/executor/workers=" + std::to_string(workers),
               {{"seconds", best},
                {"gbps", Gbps(data.size(), best)},
                {"speedup_vs_1", speedup},
                {"partitions", static_cast<double>(stats.num_partitions)},
                {"read_seconds", stats.read_seconds},
                {"scan_seconds", stats.scan_seconds},
                {"sort_seconds", stats.sort_seconds},
                {"convert_seconds", stats.convert_seconds}});
  }

  // --- (b) device model: where the memory roofline flattens the curve ---
  std::printf("\n--- Device-model core sweep (Titan X = 3584 cores) ---\n");
  std::printf("%8s %14s %14s\n", "cores", "modeled-time", "modeled-rate");
  for (int cores : {128, 256, 512, 1024, 2048, 3584, 7168, 14336}) {
    DeviceSpec spec;
    spec.cores = cores;
    const DeviceModel model(spec);
    const StepTimings t = model.ModelPipeline(work, num_columns);
    const double modeled_gbps = model.ModelParsingRateGbps(work, num_columns);
    std::printf("%8d %11.2fms %11.2fGB/s\n", cores, t.TotalMs(),
                modeled_gbps);
    report.Add("scalability/device_model/cores=" + std::to_string(cores),
               {{"modeled_ms", t.TotalMs()}, {"modeled_gbps", modeled_gbps}});
  }
  std::printf(
      "\n(The modeled curve flattens once the pipeline becomes memory-"
      "bound; scan work is O(#chunks) and never serialises.)\n");
  report.Flush();
  return 0;
}
