// Kernel-stage shootout: the src/simd vectorized multi-DFA kernels against
// the scalar reference pipeline, on the Figure 13 workloads plus a
// quote-free pipe-separated dataset (the speculation fast path's best case).
//
// Measures the context step (multi-DFA simulation + composite-operator scan)
// and the bitmap step (symbol-class bitmap emission) separately, because the
// techniques land in different stages: shuffle-as-gather accelerates the
// multi-state phase, and once a chunk's lanes are down to a few live states
// the context step walks each on its own and writes the chunk's masks, so
// the bitmap step only walks each chunk's head and verifies its token.
//
// How the chunks end differs by workload (see docs/simd.md):
//   - yelp-like (quoted CSV): chunks converge once a quote collapses the
//     out-of-quote state family, or are speculated until it does.
//   - taxi-like (unquoted CSV under the quoting RFC 4180 DFA): quote parity
//     keeps the ENC lane alive and no chunk converges, but two live states
//     remain (FLD's family and ENC), so every chunk is speculated from the
//     start lane's guess, outside quotes, which is right.
//   - lineitem-like (pipe DSV, quoting disabled): every chunk converges at
//     its first delimiter.
// Every walk takes whole runs of bytes between its state's stops from the
// block's symbol masks, so the single-state walks cost per delimiter at
// most, and per block on data without the stops.
//
// Run with --json-out=<file> to record the results (BENCH_simd.json), and
// --commit=<id> to stamp them with the revision measured.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/bitmap_step.h"
#include "core/context_step.h"
#include "dfa/formats.h"
#include "simd/dispatch.h"
#include "util/bit_util.h"
#include "util/stopwatch.h"

namespace {

using namespace parparaw;         // NOLINT
using namespace parparaw::bench;  // NOLINT

struct StageSeconds {
  double context = 0;
  double bitmap = 0;
  double total() const { return context + bitmap; }
};

/// One pass of the context and bitmap steps over `data`, timed per stage.
/// A fresh PipelineState per pass keeps runs independent.
StageSeconds RunSteps(const std::string& data, const ParseOptions& options) {
  PipelineState state;
  state.data = reinterpret_cast<const uint8_t*>(data.data());
  state.size = data.size();
  state.options = &options;
  state.pool = options.pool;
  state.num_chunks =
      static_cast<int64_t>(bit_util::CeilDiv(data.size(), options.chunk_size));
  StepTimings timings;
  StageSeconds out;
  Stopwatch watch;
  Status status = ContextStep::Run(&state, &timings);
  out.context = watch.ElapsedSeconds();
  if (status.ok()) {
    watch.Restart();
    status = BitmapStep::Run(&state, &timings);
    out.bitmap = watch.ElapsedSeconds();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "step failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return out;
}

/// Best-of-`reps` timing after one warm-up pass.
StageSeconds BestOf(const std::string& data, const ParseOptions& options,
                    int reps) {
  RunSteps(data, options);  // warm-up: faults pages, primes caches
  StageSeconds best = RunSteps(data, options);
  for (int i = 1; i < reps; ++i) {
    const StageSeconds run = RunSteps(data, options);
    if (run.total() < best.total()) best = run;
  }
  return best;
}

std::vector<simd::KernelLevel> Levels() {
  std::vector<simd::KernelLevel> levels = {simd::KernelLevel::kScalar,
                                           simd::KernelLevel::kSwar};
  for (simd::KernelLevel level :
       {simd::KernelLevel::kSse42, simd::KernelLevel::kAvx2,
        simd::KernelLevel::kNeon}) {
    if (simd::KernelLevelAvailable(level)) levels.push_back(level);
  }
  return levels;
}

void RunWorkload(const char* key, const char* title, const std::string& data,
                 const Format& format, JsonReport* report) {
  std::printf("\n--- %s (%.1f MB) ---\n", title,
              static_cast<double>(data.size()) / (1 << 20));

  for (const size_t chunk_size : {size_t{31}, size_t{4096}}) {
    std::printf("chunk_size %zu:\n", chunk_size);
    std::printf("  %-8s %12s %12s %12s %10s %9s\n", "kernel", "context ms",
                "bitmap ms", "total ms", "GB/s", "speedup");
    double scalar_total = 0;
    for (simd::KernelLevel level : Levels()) {
      simd::SetForcedKernelLevel(level);
      ParseOptions options;
      options.format = format;
      options.chunk_size = chunk_size;
      options.pool = ThreadPool::Default();
      const StageSeconds best = BestOf(data, options, /*reps=*/3);
      simd::SetForcedKernelLevel(std::nullopt);

      if (level == simd::KernelLevel::kScalar) scalar_total = best.total();
      const double speedup =
          best.total() > 0 ? scalar_total / best.total() : 0;
      std::printf("  %-8s %12.2f %12.2f %12.2f %10.3f %8.2fx\n",
                  simd::KernelLevelName(level), best.context * 1e3,
                  best.bitmap * 1e3, best.total() * 1e3,
                  Gbps(data.size(), best.total()), speedup);
      report->Add(std::string(key) + "/chunk" + std::to_string(chunk_size) +
                      "/" + simd::KernelLevelName(level),
                  {{"context_seconds", best.context},
                   {"bitmap_seconds", best.bitmap},
                   {"total_seconds", best.total()},
                   {"gbps", Gbps(data.size(), best.total())},
                   {"speedup_vs_scalar", speedup}});
    }
  }

  // One instrumented pass (not timed) records how the chunks ended at the
  // larger chunk size, for the best available level.
  {
    obs::MetricsRegistry registry;
    ParseOptions options;
    options.format = format;
    options.chunk_size = 4096;
    options.pool = ThreadPool::Default();
    options.metrics = &registry;
    RunSteps(data, options);
    const int64_t converged =
        registry.GetCounter("simd.chunks_converged")->Value();
    const int64_t speculated =
        registry.GetCounter("simd.chunks_speculated")->Value();
    const int64_t unconverged =
        registry.GetCounter("simd.chunks_unconverged")->Value();
    const int64_t mis =
        registry.GetCounter("simd.mis_speculations")->Value();
    std::printf("  speculation @4096: %lld converged, %lld speculated, "
                "%lld unconverged of %lld chunks, %lld mis-speculations\n",
                static_cast<long long>(converged),
                static_cast<long long>(speculated),
                static_cast<long long>(unconverged),
                static_cast<long long>(converged + speculated + unconverged),
                static_cast<long long>(mis));
    report->Add(std::string(key) + "/speculation",
                {{"chunks_converged", static_cast<double>(converged)},
                 {"chunks_speculated", static_cast<double>(speculated)},
                 {"chunks_unconverged", static_cast<double>(unconverged)},
                 {"mis_speculations", static_cast<double>(mis)}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report(argc, argv);
  report.Stamp(std::thread::hardware_concurrency(),
               simd::KernelLevelName(simd::DetectBestKernelLevel()));
  PrintHeader("SIMD kernel stages: scalar vs vectorized vs speculative");
  const size_t bytes = BenchBytes(8);

  auto rfc4180 = Rfc4180Format();
  if (!rfc4180.ok()) {
    std::fprintf(stderr, "%s\n", rfc4180.status().ToString().c_str());
    return 1;
  }
  DsvOptions pipe;
  pipe.field_delimiter = '|';
  pipe.quote = 0;
  auto pipe_format = DsvFormat(pipe);
  if (!pipe_format.ok()) {
    std::fprintf(stderr, "%s\n", pipe_format.status().ToString().c_str());
    return 1;
  }

  RunWorkload("yelp_like", "yelp reviews (quoted CSV, Fig. 13)",
              GenerateYelpLike(99, bytes), *rfc4180, &report);
  RunWorkload("taxi_like", "NYC taxi trips (unquoted CSV, Fig. 13)",
              GenerateTaxiLike(99, bytes), *rfc4180, &report);
  RunWorkload("lineitem_pipe", "TPC-H lineitem (pipe DSV, quote-free)",
              GenerateLineitemLike(99, bytes), *pipe_format, &report);

  report.Flush();
  return 0;
}
