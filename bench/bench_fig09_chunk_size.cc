// Reproduces Figure 9: time spent on the individual processing steps
// (parse / scan / tag / partition / convert) as a function of the chunk
// size, for the yelp-like (a) and taxi-like (b) datasets.
//
// Paper shape: mostly flat above ~16 B/chunk with overhead exploding for
// tiny chunks; convert dominates for the taxi dataset (~1/3 of total),
// contributes only ~20% for yelp; best setting around 31 B/chunk.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/parser.h"
#include "sim/device_model.h"

namespace {

using namespace parparaw;         // NOLINT
using namespace parparaw::bench;  // NOLINT

void RunDataset(const char* name, const std::string& data,
                const Schema& schema) {
  std::printf("\n--- Figure 9 (%s), input %.1f MB ---\n", name,
              static_cast<double>(data.size()) / (1 << 20));
  std::printf("%8s %9s %9s %9s %9s %9s %9s | %12s\n", "chunk", "parse",
              "scan", "tag", "partition", "convert", "total", "modeled-GPU");
  const DeviceModel device;
  for (size_t chunk : {4, 8, 12, 16, 24, 31, 32, 48, 64}) {
    ParseOptions options;
    options.schema = schema;
    options.chunk_size = chunk;
    auto result = Parser::Parse(data, options);
    if (!result.ok()) {
      std::printf("%8zu parse failed: %s\n", chunk,
                  result.status().ToString().c_str());
      continue;
    }
    const StepTimings& t = result->timings;
    const StepTimings modeled =
        device.ModelPipeline(result->work, result->table.num_columns());
    std::printf(
        "%6zuB %8.1fms %8.1fms %8.1fms %8.1fms %8.1fms %8.1fms | %9.2fms\n",
        chunk, t.parse_ms, t.scan_ms, t.tag_ms, t.partition_ms, t.convert_ms,
        t.TotalMs(), modeled.TotalMs());
  }
}

}  // namespace

int main() {
  PrintHeader("Figure 9: per-step time vs chunk size");
  const size_t bytes = BenchBytes(8);
  RunDataset("yelp reviews (synthetic)", GenerateYelpLike(42, bytes),
             YelpSchema());
  RunDataset("NYC taxi trips (synthetic)", GenerateTaxiLike(42, bytes),
             TaxiSchema());
  return 0;
}
